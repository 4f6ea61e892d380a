"""Line-oriented circuit files, gate-class validation, and compilation.

``parse`` validates every gate once and keeps its raw parameters in a GateSpec.
``compile`` turns each gate into the exp gate e^A of its Jordan-Wigner exponent
(see ``exponents``), so a compiled circuit is one an all-exp circuit file would
parse to, and every engine reads it as it reads a parsed exp line.

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
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import matchgate
from .errors import GateClassError, MgsimError, ParseError
from .exponents import (compile_diag, compile_matrix, compile_u1, matrix_exponent, u1_coords,
                        u1_exponent)
from .pauli import ProductState

GATE_CLASSES = ("gvw", "diag", "mg12", "u1", "exp")

_DEFAULT_TOL = 1e-9  # parse's tolerance, by which classify also judges a matrix

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
        for key, val in self.params:
            if key == name:
                return val
        raise KeyError(name)

    def matrix(self) -> np.ndarray:
        """The 4x4 matrix of a gvw, diag, mg12 or u1 gate on its two lines, in
        standard qubit order; u1 gives U (x) I on lines (1, 2)."""
        if self.cls not in _MATRIX_PARAMS:
            raise GateClassError(f"{self.cls} gates have no matrix form")
        return _class_matrices(self.cls, {name: np.array(val, dtype=complex)
                                          for name, val in self.params})


def exp_spec(a: dict, b: dict, s) -> GateSpec:
    """The exp gate of coefficients a {(mu, nu): a_{mu,nu}}, b {sigma: b_sigma} and s,
    kept as given, on the lines its indices touch."""
    support = {(mu + 1) // 2 for pair in a for mu in pair} | {(sigma + 1) // 2 for sigma in b}
    return GateSpec("exp", tuple(sorted(support)),
                    (("a", tuple(sorted(a.items()))), ("b", tuple(sorted(b.items()))), ("s", s)))


_DIAGONAL = np.arange(4)

# The raw matrix parameters of each matrix class, with the shape of one value.
_MATRIX_PARAMS = {"gvw": {"V": (2, 2), "W": (2, 2)}, "diag": {"d": (4,)},
                  "mg12": {"B": (4, 4)}, "u1": {"U": (2, 2)}}


def _positions(gates) -> dict[str, list[int]]:
    """The list positions of the gates of each class."""
    at = {cls: [] for cls in GATE_CLASSES}
    for i, g in enumerate(gates):
        at[g.cls].append(i)
    return at


def _param_stacks(specs, cls: str) -> dict[str, np.ndarray]:
    """The raw matrix parameters of specs of one matrix class, one complex stack per name."""
    return {name: np.array([g.param(name) for g in specs], dtype=complex).reshape((-1,) + shape)
            for name, shape in _MATRIX_PARAMS[cls].items()}


def _class_matrices(cls: str, params: dict) -> np.ndarray:
    """The 4x4 matrices of one matrix class from its parameters, one gate's or
    (G, ...) stacks of them."""
    if cls == "gvw":
        return matchgate.g_vw(params["V"], params["W"])
    if cls == "diag":
        d = params["d"]
        B = np.zeros(d.shape[:-1] + (4, 4), dtype=complex)
        B[..., _DIAGONAL, _DIAGONAL] = d
        return B
    if cls == "mg12":
        return params["B"]
    U = params["U"]  # U (x) I
    B = np.zeros(U.shape[:-2] + (4, 4), dtype=complex)
    B[..., ::2, ::2] = B[..., 1::2, 1::2] = U
    return B


def gate_matrices(specs) -> np.ndarray:
    """The 4x4 matrices of gvw, diag, mg12 and u1 specs as one (G, 4, 4) stack in their
    order, built class by class from stacked raw parameters; u1 gives U (x) I on lines
    (1, 2)."""
    out = np.empty((len(specs), 4, 4), dtype=complex)
    for cls, at in _positions(specs).items():
        if not at:
            continue
        if cls not in _MATRIX_PARAMS:
            raise GateClassError(f"{cls} gates have no matrix form")
        out[at] = _class_matrices(cls, _param_stacks([specs[i] for i in at], cls))
    return out


def _scaled_dets(M: np.ndarray, m: np.ndarray) -> np.ndarray:
    """det(M_g / m_g) for a (G, k, k) stack in one call, so that large entries cannot
    overflow it; where m_g is 1, M_g is used as given, so for entries up to 1 every
    determinant rule is unchanged."""
    mm = m[:, None, None]
    return np.linalg.det(np.where(mm > 1, M / mm, M))


@dataclass(frozen=True)
class Circuit:
    n: int
    state: tuple  # n pairs of complex amplitudes
    gates: tuple  # GateSpec records in application order
    k: int  # measured line
    unitary: bool

    def input_state(self) -> ProductState:
        return ProductState(np.array(self.state, dtype=complex))


def parse_complex(tok: str, lineno: int = 0) -> complex:
    try:
        val = complex(tok.replace("i", "j"))
    except ValueError:
        raise ParseError(f"bad complex literal {tok!r}", lineno) from None
    if not (cmath.isfinite(val)):
        raise ParseError(f"non-finite complex literal {tok!r}", lineno)
    return val


def render_complex(val: complex) -> str:
    re, im = float(val.real), float(val.imag)
    if im == 0:
        return repr(re)
    if re == 0:
        return f"{im!r}i"
    sign = "+" if im > 0 or math.isnan(im) else "-"
    return f"{re!r}{sign}{abs(im)!r}i"


def _parse_matrix(tok: str, lineno: int) -> tuple:
    if not (tok.startswith("[") and tok.endswith("]")):
        raise ParseError(f"expected bracketed matrix, got {tok!r}", lineno)
    # one replace and one conversion pass cost less than a parse_complex call per
    # entry, and convert each literal as it does; a malformed, non-finite or ragged
    # matrix (or one whose sum overflows) goes entry by entry below, naming the fault
    try:
        rows = tuple(tuple(map(complex, row.split(",")))
                     for row in tok[1:-1].replace("i", "j").split(";"))
    except ValueError:
        rows = None
    if rows and len(set(map(len, rows))) == 1 and cmath.isfinite(sum(map(sum, rows))):
        return rows
    rows = []
    width = None
    for row in tok[1:-1].split(";"):
        entries = tuple(parse_complex(e, lineno) for e in row.split(","))
        if width is None:
            width = len(entries)
        elif len(entries) != width:
            raise ParseError("ragged matrix rows", lineno)
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


# Every byte but the structure of (re,im)(re,im) tokens and the space between them.
_NOT_STRUCTURE = bytes(c for c in range(256) if c not in b"(), ")


def _parse_state(toks, lineno: int) -> tuple:
    """The state line's amplitude pairs: named tokens by lookup, (re,im)(re,im) tokens in
    one bulk conversion with a vectorised finiteness and norm test.

    Rows whose norm is not within 1e-12 of 1, and every line the bulk path does not
    take, go through _parse_state_token, which normalises them with math.hypot and
    raises every error, so the result and the errors are those of the per-token parser.
    """
    out = [_STATE_TOKENS.get(t) for t in toks]
    at = [i for i, v in enumerate(out) if v is None]
    if not at:
        return tuple(out)
    text = " ".join(toks[i] for i in at).encode()
    # the tokens are all (re,im)(re,im) when their structure bytes read "(,)(,) (,)(,) ...";
    # then deleting "(" and " " and turning ")" into "," lists their numbers
    if text.translate(None, _NOT_STRUCTURE) != b" ".join([b"(,)(,)"] * len(at)):
        return tuple(_parse_state_token(t, lineno) for t in toks)
    try:
        xy = np.array(list(map(float, text.translate(None, b"( ").replace(b")", b",")
                               .split(b",")[:-1]))).reshape(-1, 4)
    except ValueError:
        return tuple(_parse_state_token(t, lineno) for t in toks)
    # |norm^2 - 1| <= 1e-12 puts the norm within about 0.5e-12 of 1, far inside
    # _parse_state_token's 1e-12 whatever the rounding; a non-finite, zero or
    # overflowing row fails the test and goes through _parse_state_token
    with np.errstate(over="ignore", invalid="ignore"):
        near = np.abs((xy * xy).sum(axis=1) - 1.0) <= 1e-12
    rows = list(map(tuple, xy.view(complex).tolist()))
    if len(at) == len(toks) and near.all():
        return tuple(rows)
    for i, row, keep in zip(at, rows, near.tolist()):
        out[i] = row if keep else _parse_state_token(toks[i], lineno)
    return tuple(out)


def _gates_are_unitary(gates, tol: float) -> bool:
    """Whether every gate is unitary."""
    at = _positions(gates)
    return _stacks_are_unitary(gates, at, _class_params(gates, at), tol)


def _class_params(gates, at) -> dict[str, dict[str, np.ndarray]]:
    """The parameter stacks of every matrix class of a gate list."""
    return {cls: _param_stacks([gates[i] for i in at[cls]], cls) for cls in _MATRIX_PARAMS}


def _stacks_are_unitary(gates, at, params, tol: float) -> bool:
    """Whether every gate is unitary, from the classes' parameter stacks.

    The V, W, U and B matrices pass when M^H M = I entrywise within
    tol + 1e-5 |I|, the rule of np.allclose(M^H M, I, atol=tol); they are
    checked in one batch per shape.  diag entries must have unit modulus, and
    an exp gate needs a real, b and s imaginary (unitary up to global phase).
    """
    if np.any(np.abs(np.abs(params["diag"]["d"]) - 1.0) > tol):
        return False
    for g in (gates[i] for i in at["exp"]):
        if not (all(abs(val.imag) <= tol for _, val in g.param("a"))
                and all(abs(val.real) <= tol for _, val in g.param("b"))
                and abs(g.param("s").real) <= tol):
            return False
    square = (np.concatenate([params["gvw"]["V"], params["gvw"]["W"], params["u1"]["U"]]),
              params["mg12"]["B"])
    for m in square:
        if len(m):
            eye = np.eye(m.shape[-1])
            with np.errstate(over="ignore", invalid="ignore"):  # inf or nan fails the test
                gap = np.abs(m.conj().transpose(0, 2, 1) @ m - eye)
            if not np.all(gap <= tol + 1e-5 * eye):
                return False
    return True


def _not_invertible(cls: str, det: float) -> str:
    shown = f"|det| = {det:.3e}" if np.isfinite(det) else "its determinant is not finite"
    return f"{cls} gate rejected: matrix is not invertible ({shown})"


def _rule_faults(cls: str, stacks: dict, tol: float) -> list:
    """The rules of one matrix class, run on its parameter stacks: each rule's mask of
    failing gates and a function from a failing gate's position to its message, in
    the order a gate's rules run.

    gvw: det V = det W, then invertible; diag: nonzero entries, then B11*B44 =
    B22*B33; mg12: the matchgate identities, then invertible; u1: invertible.  Each
    rule runs on entries divided by m = max(1, max |entry|) of each gate, so that no
    entry size overflows it.  |det| = |det(M/m)| m^k may overflow to inf (callers
    ignore the warning): a nonzero det, which passes.  A nan (0 * inf, or a scaled
    det that numpy cannot form) fails: a gate passes only on a |det| known to exceed tol.
    """
    if cls == "gvw":
        V, W = stacks["V"], stacks["W"]
        m = matchgate.entry_scale(np.concatenate([V, W], axis=2)).ravel()
        dv, dw = np.split(_scaled_dets(np.concatenate([V, W]), np.concatenate([m, m])), 2)
        det = np.abs(dv) * np.abs(dw) * m * m * m * m  # det G(V, W) = det V det W
        return [(~(np.abs(dv - dw) <= tol * (np.abs(dv) + np.abs(dw) + 1)),
                 lambda j: (f"gvw gate rejected: determinant mismatch: det V = "
                            f"{dv[j] if m[j] == 1 else dv[j] * m[j] * m[j]}, "
                            f"det W = {dw[j] if m[j] == 1 else dw[j] * m[j] * m[j]}")),
                (~(det > tol), lambda j: _not_invertible("gvw", det[j]))]
    if cls == "diag":
        d = stacks["d"]
        # e = d / max(1, max |d|) and |e1 e4 - e2 e3|, from the float operations and hypot
        # that Python's complex arithmetic uses: numpy's complex abs and product loops
        # round differently, which would move the decision for a gap within rounding of tol
        x, y = d.real, d.imag
        m = np.maximum(1.0, np.hypot(x, y).max(axis=1, keepdims=True))
        x, y = (x / m).T, (y / m).T
        gap = np.hypot((x[0] * x[3] - y[0] * y[3]) - (x[1] * x[2] - y[1] * y[2]),
                       (x[0] * y[3] + y[0] * x[3]) - (x[1] * y[2] + y[1] * x[2]))
        return [((d == 0).any(axis=1), lambda j: "diag entries must be nonzero"),
                (gap > tol, lambda j: _diag_violation(d[j].tolist()))]
    if cls == "mg12":
        B = stacks["B"]
        m = matchgate.entry_scale(B).ravel()
        det = np.abs(_scaled_dets(B, m)) * m * m * m * m
        return [(~matchgate.is_matchgate(matchgate.swap_convention(B), tol=max(tol, 1e-10)),
                 lambda j: "mg12 gate rejected: matrix fails the matchgate identities"),
                (~(det > tol), lambda j: _not_invertible("mg12", det[j]))]
    U = stacks["U"]
    m = matchgate.entry_scale(U).ravel()
    det = np.abs(_scaled_dets(U, m)) * m * m
    return [(~(det > tol), lambda j: _not_invertible("u1", det[j]))]


def _diag_violation(d) -> str:
    return ("diagonal matchgate condition B11*B44 = B22*B33 violated: "
            f"{d[0] * d[3]} != {d[1] * d[2]}")


def _check_gates(gates, linenos, tol: float):
    """parse's class rules, one batch per class (see _rule_faults).

    Raises the ParseError, with its line, of the earliest gate that fails a rule, with
    the message of the first rule it fails; otherwise returns the gates' positions by
    class and the classes' parameter stacks.
    """
    at = _positions(gates)
    params = _class_params(gates, at)
    failed = {}
    with np.errstate(over="ignore"):
        for cls, stacks in params.items():
            if at[cls]:
                for mask, message in _rule_faults(cls, stacks, tol):
                    for j in np.flatnonzero(mask):
                        failed.setdefault(at[cls][j], message(j))
    if failed:
        first = min(failed)
        raise ParseError(failed[first], linenos[first])
    return at, params


def _parse_gate(fields, n: int, lineno: int) -> GateSpec:
    cls = fields[0]
    if cls not in GATE_CLASSES:
        raise ParseError(f"unknown gate class {cls!r}; one of {GATE_CLASSES}", lineno)
    args = fields[1:]

    def named(prefix, what, shape):
        for tok in args:
            if tok.startswith(prefix + "="):
                rows = _parse_matrix(tok[len(prefix) + 1:], lineno)
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
        return GateSpec("gvw", (k, k + 1), (("V", V), ("W", W)))

    if cls == "diag":
        if len(args) != 3:
            raise ParseError("diag takes two line numbers and a [d1,d2,d3,d4] vector", lineno)
        k = _parse_int(args[0], lineno, "line")
        l = _parse_int(args[1], lineno, "line")
        if not 1 <= k < l <= n:
            raise ParseError(f"diag needs lines 1 <= k < l <= n, got {k}, {l}", lineno)
        rows = _parse_matrix(args[2], lineno)
        _require_shape(rows, (1, 4), "diag vector", lineno)
        return GateSpec("diag", (k, l), (("d", rows[0]),))

    if cls == "mg12":
        if n < 2:
            raise ParseError("mg12 needs at least two lines", lineno)
        if len(args) != 1:
            raise ParseError("mg12 takes a single B= matrix", lineno)
        return GateSpec("mg12", (1, 2), (("B", named("B", "B", (4, 4))),))

    if cls == "u1":
        if len(args) != 1:
            raise ParseError("u1 takes a single U= matrix", lineno)
        return GateSpec("u1", (1,), (("U", named("U", "U", (2, 2))),))

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
    return exp_spec(a, b, s)


def parse(text: str, tol: float = _DEFAULT_TOL) -> Circuit:
    """The circuit of a .mg text, every gate validated.

    The class rules (see _rule_faults) run once per gate class, after the gate
    lines are read; before any later error is raised they run on the gates read so
    far, so the error reported is always the first in the file.
    """
    n = None
    state = None
    gates = []
    linenos = []
    k = None
    try:
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
                state = _parse_state(toks, lineno)
            elif head == "gate":
                if n is None:
                    raise ParseError("gate before circuit header", lineno)
                if len(fields) < 2:
                    raise ParseError("gate line needs a class tag", lineno)
                gates.append(_parse_gate(fields[1:], n, lineno))
                linenos.append(lineno)
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
    except ParseError:
        _check_gates(gates, linenos, tol)
        raise
    at, params = _check_gates(gates, linenos, tol)
    unitary = _stacks_are_unitary(gates, at, params, max(tol, 1e-8))
    return Circuit(n, state, tuple(gates), k, unitary)


def compile(circuit: Circuit, tol: float = 1e-9) -> list[GateSpec]:
    """The exp gate of each gate of a parsed circuit, in application order.

    The principal logarithms of the gvw and mg12 gates are taken as one 4x4 stack,
    and those of the u1 gates as one 2x2 stack (see _eigen_logs).  A gate whose
    eigenbasis is ill conditioned, or whose principal log misses the generator
    span, goes on alone to ``matchgate.span_log`` or ``principal_log``.  Exact zero
    coefficients are dropped and the rest made complex.  No check that ``parse``
    made is repeated; errors carry the offending gate index.
    """
    logs = _eigen_logs(circuit.gates, tol)
    out = []
    for idx, spec in enumerate(circuit.gates):
        try:
            a, b, s = _compile_gate(spec, tol, logs.get(idx))
        except MgsimError as exc:
            raise GateClassError(f"gate {idx + 1} ({spec.cls}): {exc}") from exc
        out.append(exp_spec({key: complex(v) for key, v in a.items() if v != 0},
                            {key: complex(v) for key, v in b.items() if v != 0}, complex(s)))
    return out


def _eigen_logs(gates, tol: float) -> dict:
    """Position -> the logarithm's coefficients, for the gates whose log the stacked
    eigendecompositions give: the 11 generator coefficients of a gvw or mg12 gate
    whose principal log lies in the span, the u1_coords of a u1 gate."""
    at = _positions(gates)
    out = {}
    pos = at["gvw"] + at["mg12"]
    if pos:
        ok, L = matchgate.eigen_logs(matchgate.swap_convention(
            gate_matrices([gates[i] for i in pos])))
        fits, coeffs = matchgate.span_coefficients(L, tol)
        out.update(zip(itertools.compress(itertools.compress(pos, ok), fits), coeffs))
    if at["u1"]:
        ok, L = matchgate.eigen_logs(_param_stacks([gates[i] for i in at["u1"]], "u1")["U"])
        out.update(zip(itertools.compress(at["u1"], ok), u1_coords(L).T))
    return out


def _compile_gate(spec: GateSpec, tol: float, log=None) -> tuple[dict, dict, complex]:
    """(a, b, s) of one gate; ``log`` is its coefficients from _eigen_logs, if any."""
    if spec.cls == "diag":
        return compile_diag(spec.param("d"), spec.lines[0], spec.lines[1])
    if spec.cls == "u1":
        return compile_u1(spec.param("U")) if log is None else u1_exponent(*log)
    if spec.cls == "exp":
        return dict(spec.param("a")), dict(spec.param("b")), spec.param("s")
    if log is None:
        return compile_matrix(spec.matrix(), spec.lines[0], tol)
    return matrix_exponent(log, spec.lines[0], tol)


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
    """The gate lines that would take a 4x4 (or 2x2) matrix at parse's default tolerance.

    B has the layout of a u1 gate when it is 2x2; a 4x4 B has the mg12 layout, the gvw
    layout when it is zero outside the two parity blocks, and the diag layout when it
    is diagonal, each to within 1e-12 of its largest entry.  Of these, the classes
    whose rules B passes are returned, by the rules and the tolerance parse applies to
    a gate line, so a singular matchgate fits none.
    """
    B = np.asarray(B, dtype=complex)
    if B.shape == (2, 2):
        layouts = {"u1": {"U": B}}
    elif B.shape == (4, 4):
        V, W = matchgate.extract_vw(B)
        layouts = {cls: params for cls, params in
                   (("mg12", {"B": B}), ("gvw", {"V": V, "W": W}), ("diag", {"d": np.diag(B)}))
                   if np.abs(B - _class_matrices(cls, params)).max() <= 1e-12 * np.abs(B).max()}
    else:
        return []
    with np.errstate(over="ignore"):
        return [cls for cls, params in layouts.items()
                if not any(mask[0] for mask, _ in _rule_faults(
                    cls, {name: val[None] for name, val in params.items()}, _DEFAULT_TOL))]
