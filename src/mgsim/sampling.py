"""Random states, gates, and circuits for tests and benchmarks.

Everything takes a numpy Generator so runs are reproducible from a seed.
Circuits are produced as parsed GateSpec records, so the same generator
drives the frontend round-trip tests, the engine cross-checks, and the CLI
bench subcommand.
"""

from __future__ import annotations

import numpy as np

from . import matchgate
from .circuits import GATE_CLASSES, Circuit, GateSpec, _gates_are_unitary, exp_spec
from .pauli import ProductState


def random_state(n: int, rng: np.random.Generator) -> ProductState:
    return ProductState.normalized(rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2)))


def random_su2(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    q = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
    return q / np.sqrt(np.linalg.det(q))


def _mat(m) -> tuple:
    return tuple(tuple(complex(e) for e in row) for row in np.asarray(m))


def random_gate(cls: str, n: int, rng: np.random.Generator, unitary: bool = True,
                strength: float = 1.0) -> GateSpec:
    """One random gate of the given class.

    ``strength`` scales the non-unitary part of non-unitary gates; keeping the
    total non-unitary budget of a circuit O(1) keeps expectations O(1), so
    cross-engine comparisons at absolute tolerances stay meaningful.
    """
    if cls == "gvw":
        k = int(rng.integers(1, n))
        V, W = random_su2(rng), random_su2(rng)
        if not unitary:
            V = V + strength * 0.5 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            if abs(np.linalg.det(V)) < 0.05:
                V = V + 0.5 * np.eye(2)
            W = W * np.sqrt(np.linalg.det(V) / np.linalg.det(W))
        return GateSpec("gvw", (k, k + 1), (("V", _mat(V)), ("W", _mat(W))))
    if cls == "diag":
        k, l = sorted(int(v) for v in rng.choice(np.arange(1, n + 1), size=2, replace=False))
        grow = 0.0 if unitary else strength * 0.4
        d = np.exp(grow * rng.normal(size=4) + 1j * rng.normal(size=4))
        d[3] = d[1] * d[2] / d[0]
        return GateSpec("diag", (k, l), (("d", tuple(complex(e) for e in d)),))
    if cls == "mg12":
        coeffs = 0.4 * (rng.normal(size=11) + 1j * rng.normal(size=11))
        coeffs = 1j * coeffs.real + (0.0 if unitary else strength) * coeffs.imag
        B = matchgate.swap_convention(matchgate.exp_L(coeffs))
        return GateSpec("mg12", (1, 2), (("B", _mat(B)),))
    if cls == "u1":
        U = random_su2(rng)
        if not unitary:
            U = U * np.exp(strength * 0.3 * rng.normal() + 0.3j * rng.normal())
        return GateSpec("u1", (1,), (("U", _mat(U)),))
    if cls == "exp":
        mu, nu = sorted(int(v) for v in rng.choice(np.arange(1, 2 * n + 1), size=2, replace=False))
        sigma = int(rng.integers(1, 2 * n + 1))
        a = {(mu, nu): complex(rng.normal())}
        b = {sigma: 0.4j * rng.normal()}
        s = 0.2j * rng.normal()
        if not unitary:
            a[(mu, nu)] += strength * 0.5j * rng.normal()
            b[sigma] += strength * 0.3 * rng.normal()
            s += strength * 0.1 * rng.normal()
        return exp_spec(a, b, complex(s))
    raise ValueError(f"unknown gate class {cls!r}")


def random_circuit(n: int, depth: int, rng: np.random.Generator,
                   classes=GATE_CLASSES, unitary: bool = True,
                   computational_input: bool = False) -> Circuit:
    classes = [c for c in classes if n >= 2 or c in ("u1", "exp")]
    strength = min(1.0, 2.0 / max(depth, 1))
    gates = tuple(random_gate(str(rng.choice(classes)), n, rng, unitary, strength)
                  for _ in range(depth))
    if computational_input:
        state = tuple(((1.0 + 0j, 0j) if b == 0 else (0j, 1.0 + 0j))
                      for b in rng.integers(0, 2, size=n))
    else:
        amps = random_state(n, rng).amps
        state = tuple(tuple(row) for row in amps)
    k = int(rng.integers(1, n + 1))
    flag = _gates_are_unitary(gates, 1e-8)
    return Circuit(n, state, gates, k, flag)
