"""Seeded circuit generation and `.mg` rendering for the benchmark workloads.

The program under test receives only the rendered files.  This module uses
numpy and scipy alone, never `mgsim`, so a change to the program cannot
change the benchmark's inputs.

Each workload is one *pass*: a fixed list of circuit slots.  The shape of
every slot (line count, gate count, unitary flag, the class of each gate and
the lines or majorana indices it touches) is drawn from a constant per-workload
shape seed, so every run times the same amount of work.  The run's `--seed`
draws everything else: matrices, exponent coefficients, the input product
state and the measured line.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
import scipy.linalg

CLASSES = ("gvw", "diag", "mg12", "u1", "exp")

# 2-line JW generators in the physical basis |q1 q2>, line 1 most significant:
# identity, c_1..c_4 = XI, YI, ZX, ZY, and the six products c_mu c_nu.
_I = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.diag([1.0 + 0j, -1.0])
_C = [np.kron(_X, _I), np.kron(_Y, _I), np.kron(_Z, _X), np.kron(_Z, _Y)]
_HERMITIAN_GENS = ([np.eye(4, dtype=complex)] + _C
                   + [1j * _C[m] @ _C[v] for m in range(4) for v in range(m + 1, 4)])


@dataclass(frozen=True)
class Gate:
    cls: str
    lines: tuple  # 1-based lines (gvw: (k, k+1); diag: (k, l); mg12/u1: fixed)
    params: dict  # class-specific values, see render_gate


@dataclass(frozen=True)
class Circuit:
    name: str
    cmd: str  # "run" or "compare"
    n: int
    state: np.ndarray  # (n, 2) normalized amplitudes
    gates: tuple
    k: int
    unitary: bool
    mirror: bool = False  # C followed by C^-1: the exact answer is <psi0|Z_k|psi0>

    def expected_mirror(self) -> float:
        a, b = self.state[self.k - 1]
        pa, pb = abs(a) ** 2, abs(b) ** 2
        return float((pa - pb) / (pa + pb))


@dataclass(frozen=True)
class Slot:
    n: int
    classes: tuple  # one class per gate
    supports: tuple  # one support tuple per gate, drawn with the shape
    unitary: bool


# ---------------------------------------------------------------- workloads

# Constant shape seeds: every run of a workload has the same slot shapes.
SHAPE_SEEDS = {"wide": 101, "deep": 202, "crosscheck": 303}

WIDE_NS = (256, 512, 1024)
WIDE_CYCLES = 4
WIDE_GATES = 100
DEEP_N = 32
# Gate counts cycle through a few sizes, like wide's line counts: the median
# and the tail then each fall inside a group of like circuits spread over the
# run, not on one circuit of a continuum.
DEEP_GATES = (150, 300, 600)
DEEP_CYCLES = 15
CROSS_CIRCUITS = 30
CROSS_MAX_N = 10
CROSS_MAX_DEPTH = 50

WORKLOADS = ("wide", "deep", "crosscheck")


def _support(cls: str, n: int, rng: np.random.Generator) -> tuple:
    if cls == "gvw":
        k = int(rng.integers(1, n))
        return (k, k + 1)
    if cls == "diag":
        return tuple(sorted(int(v) for v in rng.choice(np.arange(1, n + 1), 2, replace=False)))
    if cls == "mg12":
        return (1, 2)
    if cls == "u1":
        return (1,)
    mu, nu = sorted(int(v) for v in rng.choice(np.arange(1, 2 * n + 1), 2, replace=False))
    return (mu, nu, int(rng.integers(1, 2 * n + 1)))  # exp: a:mu,nu and b:sigma


def _slot(n: int, depth: int, classes, unitary: bool, rng: np.random.Generator) -> Slot:
    classes = [c for c in classes if n >= 2 or c in ("u1", "exp")]
    drawn = tuple(str(rng.choice(classes)) for _ in range(depth))
    return Slot(n, drawn, tuple(_support(c, n, rng) for c in drawn), unitary)


def slots(workload: str) -> list[Slot]:
    """The fixed pass of slot shapes for a workload."""
    rng = np.random.default_rng(SHAPE_SEEDS[workload])
    if workload == "wide":
        return [_slot(n, WIDE_GATES, ("gvw", "diag", "exp"), True, rng)
                for _ in range(WIDE_CYCLES) for n in WIDE_NS]
    if workload == "deep":
        counts = [g for _ in range(DEEP_CYCLES) for g in DEEP_GATES]
        return [_slot(DEEP_N, g, CLASSES, i % 2 == 0, rng) for i, g in enumerate(counts)]
    if workload == "crosscheck":
        return [_slot(i % CROSS_MAX_N + 1, int(rng.integers(1, CROSS_MAX_DEPTH + 1)), CLASSES,
                      bool(rng.integers(0, 2)), rng) for i in range(CROSS_CIRCUITS)]
    raise ValueError(f"unknown workload {workload!r}; one of {WORKLOADS}")


def command(workload: str) -> str:
    return "compare" if workload == "crosscheck" else "run"


def warmup_slot(workload: str) -> Slot:
    """One short circuit run before timing.  Its gates act on one or two
    adjacent lines, so it is cheap; its line count is the largest a Lie
    structure-constant table is built for (crosscheck) or the smallest the
    pass uses (wide, deep)."""
    rng = np.random.default_rng(SHAPE_SEEDS[workload] + 1)
    n = CROSS_MAX_N if workload == "crosscheck" else min(s.n for s in slots(workload))
    return _slot(n, 4, ("gvw", "u1"), True, rng)


# ------------------------------------------------------------------ values

def _su2(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    q = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
    return q / np.sqrt(np.linalg.det(q))


def _noise(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _gate(cls: str, support: tuple, unitary: bool, strength: float,
          rng: np.random.Generator) -> Gate:
    """Random values for one gate.  ``strength`` scales the non-unitary part so
    a circuit's total non-unitary budget stays O(1)."""
    if cls == "gvw":
        V, W = _su2(rng), _su2(rng)
        if not unitary:
            V = V + strength * 0.5 * _noise(rng, (2, 2))
            if abs(np.linalg.det(V)) < 0.05:
                V = V + 0.5 * np.eye(2)
            W = W * np.sqrt(np.linalg.det(V) / np.linalg.det(W))
        return Gate(cls, support, {"V": V, "W": W})
    if cls == "diag":
        grow = 0.0 if unitary else strength * 0.4
        d = np.exp(grow * rng.normal(size=4) + 1j * rng.normal(size=4))
        d[3] = d[1] * d[2] / d[0]
        return Gate(cls, support, {"d": d})
    if cls == "mg12":
        coeffs = 0.4 * _noise(rng, 11)
        h = 1j * coeffs.real + (0.0 if unitary else strength) * coeffs.imag
        B = scipy.linalg.expm(sum(c * G for c, G in zip(h, _HERMITIAN_GENS)))
        return Gate(cls, support, {"B": B})
    if cls == "u1":
        U = _su2(rng)
        if not unitary:
            U = U * np.exp(strength * 0.3 * rng.normal() + 0.3j * rng.normal())
        return Gate(cls, support, {"U": U})
    mu, nu, sigma = support
    a = complex(rng.normal())
    b = 0.4j * rng.normal()
    s = 0.2j * rng.normal()
    if not unitary:
        a += strength * 0.5j * rng.normal()
        b += strength * 0.3 * rng.normal()
        s += strength * 0.1 * rng.normal()
    return Gate(cls, (mu, nu, sigma), {"a": a, "b": b, "s": s})


def inverse(g: Gate) -> Gate:
    """The gate whose action undoes ``g``, in the same class."""
    p = g.params
    if g.cls == "gvw":
        return Gate(g.cls, g.lines, {"V": np.linalg.inv(p["V"]), "W": np.linalg.inv(p["W"])})
    if g.cls == "diag":
        return Gate(g.cls, g.lines, {"d": 1.0 / p["d"]})
    if g.cls == "mg12":
        return Gate(g.cls, g.lines, {"B": np.linalg.inv(p["B"])})
    if g.cls == "u1":
        return Gate(g.cls, g.lines, {"U": np.linalg.inv(p["U"])})
    return Gate(g.cls, g.lines, {k: -v for k, v in p.items()})


def instantiate(slot: Slot, name: str, cmd: str, rng: np.random.Generator) -> Circuit:
    strength = min(1.0, 2.0 / max(len(slot.classes), 1))
    gates = tuple(_gate(c, sup, slot.unitary, strength, rng)
                  for c, sup in zip(slot.classes, slot.supports))
    amps = _noise(rng, (slot.n, 2))
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    k = int(rng.integers(1, slot.n + 1))
    return Circuit(name, cmd, slot.n, amps, gates, k, slot.unitary)


def mirror(c: Circuit) -> Circuit:
    """C followed by C^-1 in one file: ideally the identity circuit."""
    gates = c.gates + tuple(inverse(g) for g in reversed(c.gates))
    return Circuit(c.name + "-mirror", c.cmd, c.n, c.state, gates, c.k, c.unitary, mirror=True)


# --------------------------------------------------------------- rendering

def _cplx(v: complex) -> str:
    re, im = float(np.real(v)), float(np.imag(v))
    if im == 0:
        return repr(re)
    return f"{re!r}{'+' if im >= 0 else '-'}{abs(im)!r}i"


def _mat(m) -> str:
    return "[" + ";".join(",".join(_cplx(e) for e in row) for row in np.atleast_2d(m)) + "]"


def render_gate(g: Gate) -> str:
    p = g.params
    if g.cls == "gvw":
        return f"gate gvw {g.lines[0]} V={_mat(p['V'])} W={_mat(p['W'])}"
    if g.cls == "diag":
        return f"gate diag {g.lines[0]} {g.lines[1]} {_mat(p['d'])}"
    if g.cls == "mg12":
        return f"gate mg12 B={_mat(p['B'])}"
    if g.cls == "u1":
        return f"gate u1 U={_mat(p['U'])}"
    mu, nu, sigma = g.lines
    return f"gate exp a:{mu},{nu}={_cplx(p['a'])} b:{sigma}={_cplx(p['b'])} s={_cplx(p['s'])}"


def render(c: Circuit) -> str:
    state = " ".join(f"({float(a.real)!r},{float(a.imag)!r})({float(b.real)!r},{float(b.imag)!r})"
                     for a, b in c.state)
    lines = [f"# {c.name}", f"circuit n={c.n}", f"state {state}"]
    lines += [render_gate(g) for g in c.gates]
    lines.append(f"measure {c.k}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------- a whole run

MIRRORS = {"wide": 3, "deep": 3, "crosscheck": 0}


@dataclass(frozen=True)
class Inputs:
    timed: list  # Circuit, one pass in order
    sentinels: list  # mirror circuits, checked once after the timed loop
    warmup: list  # discarded before timing

    def all(self):
        return self.warmup + self.timed + self.sentinels

    def sha256(self) -> str:
        h = hashlib.sha256()
        for c in self.all():
            h.update(render(c).encode())
        return h.hexdigest()


def inputs(workload: str, seed: int) -> Inputs:
    """Every circuit a run of ``workload`` uses, as a pure function of ``seed``."""
    cmd = command(workload)
    rng = np.random.default_rng([seed, SHAPE_SEEDS[workload]])
    timed = [instantiate(s, f"{workload}-{i:03d}", cmd, rng) for i, s in enumerate(slots(workload))]
    warm = [instantiate(warmup_slot(workload), f"{workload}-warmup", cmd, rng)]
    return Inputs(timed, [mirror(c) for c in timed[:MIRRORS[workload]]], warm)
