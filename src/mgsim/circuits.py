"""Line-oriented circuit files, gate-class validation, and compilation.

Grammar (one statement per line, '#' starts a comment):

    circuit n=<int>
    state <token per line>          tokens: 0 1 + - i -i  or  (re,im)(re,im)
    gate gvw <k> V=[a,b;c,d] W=[a,b;c,d]
    gate diag <k> <l> [d1,d2,d3,d4]
    gate mg12 B=[4x4 matrix]
    gate u1 U=[2x2 matrix]
    gate exp a:mu,nu=<c> ... b:sigma=<c> ... s=<c>
    measure <k>

Matrices are row-major in brackets, rows separated by ';', entries by ','.
Complex literals are `a`, `bi`, or `a+bi` (17 significant digits round-trip).
Line numbers are 1-based; gvw acts on the nearest-neighbour pair (k, k+1),
mg12 on lines (1, 2), u1 on line 1, diag on any pair k < l.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import matchgate
from .errors import GateClassError, MgsimError, ParseError
from .exponents import GateExponent, compile_diag, compile_matrix, compile_u1
from .pauli import ProductState

GATE_CLASSES = ("gvw", "diag", "mg12", "u1", "exp")

_STATE_TOKENS = {
    "0": (1.0, 0.0),
    "1": (0.0, 1.0),
    "+": (1 / math.sqrt(2), 1 / math.sqrt(2)),
    "-": (1 / math.sqrt(2), -1 / math.sqrt(2)),
    "i": (1 / math.sqrt(2), 1j / math.sqrt(2)),
    "-i": (1 / math.sqrt(2), -1j / math.sqrt(2)),
}


@dataclass(frozen=True)
class GateSpec:
    """One parsed gate record: class tag, 1-based line support, raw parameters.

    Parameters are stored as a sorted tuple of (name, value) pairs where
    matrix values are nested tuples of complex numbers, so specs are hashable
    and compare exactly.
    """

    cls: str
    lines: tuple
    params: tuple

    def param(self, name):
        return dict(self.params)[name]

    def matrix(self) -> np.ndarray:
        """The 4x4 matrix of a gvw, diag, mg12 or u1 gate on its two lines, in
        standard qubit order; u1 gives U (x) I on lines (1, 2)."""
        if self.cls == "gvw":
            return matchgate.g_vw(self.param("V"), self.param("W"))
        if self.cls == "diag":
            return np.diag(np.array(self.param("d"), dtype=complex))
        if self.cls == "mg12":
            return np.array(self.param("B"), dtype=complex)
        if self.cls == "u1":
            return np.kron(np.array(self.param("U"), dtype=complex), np.eye(2))
        raise GateClassError(f"{self.cls} gates have no matrix form")

    def exponent(self, n: int) -> GateExponent:
        """The coefficients of an exp gate as a GateExponent on n lines."""
        if self.cls != "exp":
            raise GateClassError(f"{self.cls} gates carry no exponent; compile them")
        return GateExponent.make(n, dict(self.param("a")), dict(self.param("b")),
                                 self.param("s"))


def _dets_match(dv: complex, dw: complex, tol: float) -> bool:
    """The gvw rule det V = det W, within tol relative to the determinants' size."""
    return abs(dv - dw) <= tol * (abs(dv) + abs(dw) + 1)


def _diag_condition_holds(d, tol: float) -> bool:
    """The diagonal matchgate rule B11*B44 = B22*B33, within tol relative to max|d|^2."""
    scale = max(max(abs(e) for e in d) ** 2, 1.0)
    return abs(d[0] * d[3] - d[1] * d[2]) <= tol * scale


@dataclass(frozen=True)
class Circuit:
    n: int
    state: tuple  # n pairs of complex amplitudes
    gates: tuple  # GateSpec records in application order
    k: int  # measured line
    unitary: bool

    def input_state(self) -> ProductState:
        return ProductState(np.array(self.state, dtype=complex))


def parse_complex(tok: str, lineno: int = 0, col: int = 0) -> complex:
    try:
        val = complex(tok.replace("i", "j"))
    except ValueError:
        raise ParseError(f"bad complex literal {tok!r}", lineno, col) from None
    if not (cmath.isfinite(val)):
        raise ParseError(f"non-finite complex literal {tok!r}", lineno, col)
    return val


def render_complex(val: complex) -> str:
    re, im = float(val.real), float(val.imag)
    if im == 0:
        return repr(re)
    if re == 0:
        return f"{im!r}i"
    sign = "+" if im > 0 or math.isnan(im) else "-"
    return f"{re!r}{sign}{abs(im)!r}i"


def _parse_matrix(tok: str, lineno: int, col: int) -> tuple:
    if not (tok.startswith("[") and tok.endswith("]")):
        raise ParseError(f"expected bracketed matrix, got {tok!r}", lineno, col)
    rows = []
    width = None
    for row in tok[1:-1].split(";"):
        entries = tuple(parse_complex(e, lineno, col) for e in row.split(","))
        if width is None:
            width = len(entries)
        elif len(entries) != width:
            raise ParseError("ragged matrix rows", lineno, col)
        rows.append(entries)
    return tuple(rows)


def _render_matrix(rows) -> str:
    return "[" + ";".join(",".join(render_complex(e) for e in row) for row in rows) + "]"


def _require_shape(rows, shape, what, lineno):
    if len(rows) != shape[0] or any(len(r) != shape[1] for r in rows):
        raise ParseError(
            f"{what} must be {shape[0]}x{shape[1]}, got {len(rows)}x{len(rows[0])}", lineno
        )


def _parse_int(tok: str, lineno: int, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"expected integer {what}, got {tok!r}", lineno) from None


def _parse_state_token(tok: str, lineno: int) -> tuple:
    if tok in _STATE_TOKENS:
        return _STATE_TOKENS[tok]
    if tok.startswith("(") and tok.endswith(")") and ")(" in tok:
        pairs = tok[1:-1].split(")(")
        if len(pairs) == 2:
            amps = []
            for p in pairs:
                try:
                    x, y = map(float, p.split(","))
                except ValueError:  # not two numbers
                    raise ParseError(f"bad amplitude pair {p!r}", lineno) from None
                if not cmath.isfinite(complex(x, y)):
                    raise ParseError(f"non-finite amplitude pair {p!r}", lineno)
                amps.append(complex(x, y))
            norm = math.hypot(abs(amps[0]), abs(amps[1]))
            if norm == 0:
                raise ParseError("zero state vector on a line", lineno)
            if abs(norm - 1.0) > 1e-12:  # keep already-normalized pairs bit-exact
                amps = [a / norm for a in amps]
            return (amps[0], amps[1])
    raise ParseError(f"bad state token {tok!r}", lineno)


def _gates_are_unitary(gates, tol: float) -> bool:
    """Whether every gate is unitary.

    The V, W, U and B matrices pass when M^H M = I entrywise within
    tol + 1e-5 |I|, the rule of np.allclose(M^H M, I, atol=tol); they are
    stacked by shape and checked in one batch each.  diag entries must have
    unit modulus, and an exp gate needs a real, b and s imaginary (unitary up
    to global phase).
    """
    square = {2: [], 4: []}
    for g in gates:
        if g.cls == "diag":
            if any(abs(abs(d) - 1.0) > tol for d in g.param("d")):
                return False
        elif g.cls == "exp":
            if not (all(abs(val.imag) <= tol for _, val in g.param("a"))
                    and all(abs(val.real) <= tol for _, val in g.param("b"))
                    and abs(g.param("s").real) <= tol):
                return False
        else:
            for _, rows in g.params:
                square[len(rows)].append(rows)
    for dim, mats in square.items():
        if mats:
            m = np.array(mats, dtype=complex)
            eye = np.eye(dim)
            if not np.all(np.abs(m.conj().transpose(0, 2, 1) @ m - eye) <= tol + 1e-5 * eye):
                return False
    return True


def _require_invertible(det: float, cls: str, lineno: int, tol: float):
    if det <= tol:
        raise ParseError(f"{cls} gate rejected: matrix is not invertible (|det| = {det:.3e})",
                         lineno)


def _parse_gate(fields, n: int, lineno: int, tol: float) -> GateSpec:
    cls = fields[0]
    if cls not in GATE_CLASSES:
        raise ParseError(f"unknown gate class {cls!r}; one of {GATE_CLASSES}", lineno)
    args = fields[1:]

    def named(prefix, what, shape):
        for tok in args:
            if tok.startswith(prefix + "="):
                rows = _parse_matrix(tok[len(prefix) + 1:], lineno, 0)
                _require_shape(rows, shape, what, lineno)
                return rows
        raise ParseError(f"gate {cls} is missing its {prefix}= matrix", lineno)

    if cls == "gvw":
        if len(args) != 3:
            raise ParseError("gvw takes a line number and V=, W= matrices", lineno)
        k = _parse_int(args[0], lineno, "line")
        if not 1 <= k <= n - 1:
            raise ParseError(
                f"gvw acts on a nearest-neighbour pair; line {k} invalid for n={n}", lineno
            )
        V = named("V", "V", (2, 2))
        W = named("W", "W", (2, 2))
        dv, dw = np.linalg.det(np.array(V)), np.linalg.det(np.array(W))
        if not _dets_match(dv, dw, tol):
            raise ParseError(
                f"gvw gate rejected: determinant mismatch: det V = {dv}, det W = {dw}", lineno
            )
        _require_invertible(abs(dv) * abs(dw), "gvw", lineno, tol)  # det G(V, W) = det V det W
        return GateSpec("gvw", (k, k + 1), (("V", V), ("W", W)))

    if cls == "diag":
        if len(args) != 3:
            raise ParseError("diag takes two line numbers and a [d1,d2,d3,d4] vector", lineno)
        k = _parse_int(args[0], lineno, "line")
        l = _parse_int(args[1], lineno, "line")
        if not 1 <= k < l <= n:
            raise ParseError(f"diag needs lines 1 <= k < l <= n, got {k}, {l}", lineno)
        rows = _parse_matrix(args[2], lineno, 0)
        _require_shape(rows, (1, 4), "diag vector", lineno)
        d = rows[0]
        if any(e == 0 for e in d):
            raise ParseError("diag entries must be nonzero", lineno)
        if not _diag_condition_holds(d, tol):
            raise ParseError(
                f"diagonal matchgate condition B11*B44 = B22*B33 violated: "
                f"{d[0] * d[3]} != {d[1] * d[2]}", lineno
            )
        return GateSpec("diag", (k, l), (("d", d),))

    if cls == "mg12":
        if n < 2:
            raise ParseError("mg12 needs at least two lines", lineno)
        if len(args) != 1:
            raise ParseError("mg12 takes a single B= matrix", lineno)
        B = named("B", "B", (4, 4))
        if not matchgate.is_matchgate(matchgate.swap_convention(np.array(B)), tol=max(tol, 1e-10)):
            raise ParseError("mg12 gate rejected: matrix fails the matchgate identities", lineno)
        _require_invertible(abs(np.linalg.det(np.array(B))), "mg12", lineno, tol)
        return GateSpec("mg12", (1, 2), (("B", B),))

    if cls == "u1":
        if len(args) != 1:
            raise ParseError("u1 takes a single U= matrix", lineno)
        U = named("U", "U", (2, 2))
        _require_invertible(abs(np.linalg.det(np.array(U))), "u1", lineno, tol)
        return GateSpec("u1", (1,), (("U", U),))

    # exp: raw coefficients a:mu,nu=<c>  b:sigma=<c>  s=<c>
    a = {}
    b = {}
    s = 0j
    for tok in args:
        if "=" not in tok:
            raise ParseError(f"bad exp parameter {tok!r}", lineno)
        key, _, sval = tok.partition("=")
        val = parse_complex(sval, lineno)
        if key.startswith("a:"):
            idx = key[2:].split(",")
            if len(idx) != 2:
                raise ParseError(f"bad quadratic index {key!r}; want a:mu,nu", lineno)
            mu = _parse_int(idx[0], lineno, "index")
            nu = _parse_int(idx[1], lineno, "index")
            if not 1 <= mu < nu <= 2 * n:
                raise ParseError(f"quadratic index pair ({mu},{nu}) invalid for n={n}", lineno)
            a[(mu, nu)] = val
        elif key.startswith("b:"):
            sigma = _parse_int(key[2:], lineno, "index")
            if not 1 <= sigma <= 2 * n:
                raise ParseError(f"linear index {sigma} outside 1..{2 * n}", lineno)
            b[sigma] = val
        elif key == "s":
            s = val
        else:
            raise ParseError(f"unknown exp parameter {key!r}", lineno)
    support = sorted({line for pair in a for mu in pair for line in ((mu + 1) // 2,)}
                     | {(sigma + 1) // 2 for sigma in b})
    return GateSpec(
        "exp", tuple(support),
        (("a", tuple(sorted(a.items()))), ("b", tuple(sorted(b.items()))), ("s", s)),
    )


def parse(text: str, tol: float = 1e-9) -> Circuit:
    n = None
    state = None
    gates = []
    k = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        head = fields[0]
        if head == "circuit":
            if n is not None:
                raise ParseError("duplicate circuit header", lineno)
            if len(fields) != 2 or not fields[1].startswith("n="):
                raise ParseError("header must be 'circuit n=<int>'", lineno)
            n = _parse_int(fields[1][2:], lineno, "line count")
            if n < 1:
                raise ParseError(f"need n >= 1, got {n}", lineno)
        elif head == "state":
            if n is None:
                raise ParseError("state before circuit header", lineno)
            if state is not None:
                raise ParseError("duplicate state line", lineno)
            toks = fields[1:]
            if len(toks) != n:
                raise ParseError(f"state needs {n} tokens, got {len(toks)}", lineno)
            state = tuple(_parse_state_token(t, lineno) for t in toks)
        elif head == "gate":
            if n is None:
                raise ParseError("gate before circuit header", lineno)
            if len(fields) < 2:
                raise ParseError("gate line needs a class tag", lineno)
            gates.append(_parse_gate(fields[1:], n, lineno, tol))
        elif head == "measure":
            if n is None:
                raise ParseError("measure before circuit header", lineno)
            if k is not None:
                raise ParseError("duplicate measure line", lineno)
            if len(fields) != 2:
                raise ParseError("measure takes a single line number", lineno)
            k = _parse_int(fields[1], lineno, "measured line")
            if not 1 <= k <= n:
                raise ParseError(f"measured line {k} outside 1..{n}", lineno)
        else:
            raise ParseError(f"unknown statement {head!r}", lineno, raw.index(head))
    if n is None:
        raise ParseError("missing 'circuit n=<int>' header", 0)
    if state is None:
        raise ParseError("missing state line", 0)
    if k is None:
        raise ParseError("missing measure line", 0)
    unitary = _gates_are_unitary(gates, max(tol, 1e-8))
    return Circuit(n, state, tuple(gates), k, unitary)


def compile(circuit: Circuit, tol: float = 1e-9) -> list[GateExponent]:
    """Gate exponents of a parsed circuit in application order.

    No check that ``parse`` made is repeated; errors carry the offending gate index.
    """
    out = []
    for idx, spec in enumerate(circuit.gates):
        try:
            out.append(_compile_gate(spec, circuit.n, tol))
        except MgsimError as exc:
            raise GateClassError(f"gate {idx + 1} ({spec.cls}): {exc}") from exc
    return out


def _compile_gate(spec: GateSpec, n: int, tol: float) -> GateExponent:
    if spec.cls == "diag":
        return compile_diag(spec.param("d"), spec.lines[0], spec.lines[1], n)
    if spec.cls == "u1":
        return compile_u1(spec.param("U"), n)
    if spec.cls == "exp":
        return spec.exponent(n)
    return compile_matrix(spec.matrix(), spec.lines[0], n, tol)


def _render_state_token(pair) -> str:
    a, b = complex(pair[0]), complex(pair[1])
    for tok, val in _STATE_TOKENS.items():
        if a == complex(val[0]) and b == complex(val[1]):
            return tok
    return f"({a.real!r},{a.imag!r})({b.real!r},{b.imag!r})"


def render(circuit: Circuit) -> str:
    """Canonical text form; parse(render(c)) reproduces c exactly."""
    lines = [f"circuit n={circuit.n}"]
    lines.append("state " + " ".join(_render_state_token(p) for p in circuit.state))
    for g in circuit.gates:
        if g.cls == "gvw":
            lines.append(f"gate gvw {g.lines[0]} V={_render_matrix(g.param('V'))} "
                         f"W={_render_matrix(g.param('W'))}")
        elif g.cls == "diag":
            lines.append(f"gate diag {g.lines[0]} {g.lines[1]} "
                         + _render_matrix((g.param("d"),)))
        elif g.cls == "mg12":
            lines.append(f"gate mg12 B={_render_matrix(g.param('B'))}")
        elif g.cls == "u1":
            lines.append(f"gate u1 U={_render_matrix(g.param('U'))}")
        else:
            parts = ["gate exp"]
            for (mu, nu), val in g.param("a"):
                parts.append(f"a:{mu},{nu}={render_complex(val)}")
            for sigma, val in g.param("b"):
                parts.append(f"b:{sigma}={render_complex(val)}")
            if g.param("s") != 0:
                parts.append(f"s={render_complex(g.param('s'))}")
            lines.append(" ".join(parts))
    lines.append(f"measure {circuit.k}")
    return "\n".join(lines) + "\n"


def classify(B) -> list[str]:
    """Which gate classes a 4x4 (or 2x2) matrix fits, by direct structural tests."""
    B = np.asarray(B, dtype=complex)
    out = []
    if B.shape == (2, 2):
        if abs(np.linalg.det(B)) > 1e-12:
            out.append("u1")
        return out
    if B.shape != (4, 4):
        return out
    tol = 1e-10
    if matchgate.is_matchgate(matchgate.swap_convention(B), tol=tol):
        out.append("mg12")
    V, W = matchgate.extract_vw(B)
    off_block = B - matchgate.g_vw(V, W)
    if (np.abs(off_block).max() <= 1e-12
            and _dets_match(np.linalg.det(V), np.linalg.det(W), tol)):
        out.append("gvw")
    d = np.diag(B)
    if (np.abs(B - np.diag(d)).max() <= 1e-12 and np.all(d != 0)
            and _diag_condition_holds(d, tol)):
        out.append("diag")
    return out
