"""Line-oriented circuit files, gate-class validation, and compilation.

``parse`` validates every gate once and keeps its raw parameters in a GateSpec.
It converts the numbers of a file in one pass per gate class: the bracketed texts of
all gvw (diag, mg12, u1) gates are joined, their ','/';' layout is checked at once,
and their entries go through one complex conversion and one finiteness test; the exp
values are converted the same way, and the state line is read from its text in one
float conversion.  A file with a line written otherwise than ``render`` writes it
(arguments out of order, a bad literal, shape or line number) is read line by line,
which names its first error.
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
An exp line gives each a:mu,nu, b:sigma and s at most once.
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
from .exponents import compile_diag, matrix_exponent, u1_coords, u1_exponent
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


# Every byte but the structure of (re,im)(re,im) tokens, the space between them and the
# whitespace that float() would strip from a number.
_NOT_STRUCTURE = bytes(c for c in range(256) if c not in b"(), \t\n\x0b\x0c\r")
# turning "(" and ")" into "," and deleting " " splits n such tokens into 6n + 1 fields:
# the numbers, and an empty field at every index divisible by 3
_TO_FIELDS = bytes.maketrans(b"()", b",,"), b" "


def _read_state(body: str, n: int, lineno: int):
    """The amplitude pairs of a state line body of exactly n (re,im)(re,im) tokens
    between single spaces, in one float conversion; None for any other body.

    A pair whose norm is not within about 0.5e-12 of 1 is normalised, or refused, by
    _parse_state_token.
    """
    text = body.encode()
    if text.translate(None, _NOT_STRUCTURE) != b" ".join([b"(,)(,)"] * n):
        return None
    nums = text.translate(*_TO_FIELDS).split(b",")
    if any(nums[::3]):  # a byte before, after or between the pairs
        return None
    del nums[::3]
    try:
        xy = np.fromiter(map(float, nums), float, len(nums)).reshape(-1, 4)
    except ValueError:
        return None
    # |norm^2 - 1| <= 1e-12 puts the norm within about 0.5e-12 of 1, far inside
    # _parse_state_token's 1e-12 whatever the rounding, so those pairs are kept as
    # written there too; a non-finite, zero or overflowing row fails the test
    with np.errstate(over="ignore", invalid="ignore"):
        off = np.flatnonzero(~(np.abs((xy * xy).sum(axis=1) - 1.0) <= 1e-12)).tolist()
    pairs = list(zip(*[iter(xy.view(complex).ravel().tolist())] * 2))
    if off:
        toks = body.split(" ")
        for i in off:
            pairs[i] = _parse_state_token(toks[i], lineno)
    return tuple(pairs)


def _parse_state(body: str, n: int, lineno: int) -> tuple:
    """The state line's amplitude pairs, from the text after 'state': by _read_state, or
    token by token through _parse_state_token, which normalises pairs and raises every
    error."""
    pairs = _read_state(body, n, lineno)
    if pairs is not None:
        return pairs
    toks = body.split()
    if len(toks) != n:
        raise ParseError(f"state needs {n} tokens, got {len(toks)}", lineno)
    return tuple(_parse_state_token(t, lineno) for t in toks)


def _gates_are_unitary(gates, tol: float) -> bool:
    """Whether every gate is unitary."""
    return _stacks_are_unitary(_class_params(gates, _positions(gates)), tol)


def _class_params(gates, at) -> dict[str, dict[str, np.ndarray]]:
    """The parameter stacks of every class of a gate list: each matrix class's raw
    matrices, and the a, b and s values of the exp gates."""
    params = {cls: _param_stacks([gates[i] for i in at[cls]], cls) for cls in _MATRIX_PARAMS}
    exp = [gates[i] for i in at["exp"]]
    params["exp"] = {"a": np.array([v for g in exp for _, v in g.param("a")], dtype=complex),
                     "b": np.array([v for g in exp for _, v in g.param("b")], dtype=complex),
                     "s": np.array([g.param("s") for g in exp], dtype=complex)}
    return params


def _stacks_are_unitary(params, tol: float) -> bool:
    """Whether every gate is unitary, from the classes' parameter stacks.

    The V, W, U and B matrices pass when M^H M = I entrywise within
    tol + 1e-5 |I|, the rule of np.allclose(M^H M, I, atol=tol); they are
    checked in one batch per shape.  diag entries must have unit modulus, and
    an exp gate needs a real, b and s imaginary (unitary up to global phase).
    """
    exp = params["exp"]
    if (np.any(np.abs(np.abs(params["diag"]["d"]) - 1.0) > tol)
            or not (np.all(np.abs(exp["a"].imag) <= tol) and np.all(np.abs(exp["b"].real) <= tol)
                    and np.all(np.abs(exp["s"].real) <= tol))):
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


def _raise_first_fault(lines, at, params, tol: float):
    """parse's class rules, one batch per matrix class (see _rule_faults), on the gates of
    gate lines [(lineno, fields)] read so far.

    Raises the ParseError, with its line, of the earliest gate that fails a rule, with
    the message of the first rule it fails.
    """
    failed = {}
    # an overflowing or singular matrix fails its rule by its inf or nan, without a warning
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for cls in _MATRIX_PARAMS:
            if at[cls]:
                for mask, message in _rule_faults(cls, params[cls], tol):
                    for j in np.flatnonzero(mask):
                        failed.setdefault(at[cls][j], message(j))
    if failed:
        first = min(failed)
        raise ParseError(failed[first], lines[first][0])


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
    entries = {}
    for tok in args:
        if "=" not in tok:
            raise ParseError(f"bad exp parameter {tok!r}", lineno)
        key, _, sval = tok.partition("=")
        val = parse_complex(sval, lineno)
        idx = _exp_key(key, n, lineno)
        if idx in entries:
            raise ParseError(f"repeated exp parameter {key!r}", lineno)
        entries[idx] = val
    return _exp_gate(entries)


def _exp_key(key: str, n: int, lineno: int) -> tuple:
    """An exp parameter's key as ("a", (mu, nu)), ("b", sigma) or ("s", None)."""
    if key.startswith("a:"):
        idx = key[2:].split(",")
        if len(idx) != 2:
            raise ParseError(f"bad quadratic index {key!r}; want a:mu,nu", lineno)
        mu = _parse_int(idx[0], lineno, "index")
        nu = _parse_int(idx[1], lineno, "index")
        if not 1 <= mu < nu <= 2 * n:
            raise ParseError(f"quadratic index pair ({mu},{nu}) invalid for n={n}", lineno)
        return "a", (mu, nu)
    if key.startswith("b:"):
        sigma = _parse_int(key[2:], lineno, "index")
        if not 1 <= sigma <= 2 * n:
            raise ParseError(f"linear index {sigma} outside 1..{2 * n}", lineno)
        return "b", sigma
    if key == "s":
        return "s", None
    raise ParseError(f"unknown exp parameter {key!r}", lineno)


def _exp_gate(entries: dict) -> GateSpec:
    """The exp gate of {_exp_key: value} entries; s is 0 when not given."""
    a, b, s = {}, {}, 0j
    for (kind, idx), val in entries.items():
        if kind == "a":
            a[idx] = val
        elif kind == "b":
            b[idx] = val
        else:
            s = val
    return exp_spec(a, b, s)


# The separators of one matrix of each matrix class: ',' between entries, ';' between rows.
_LAYOUTS = {"gvw": ",;,", "diag": ",,,", "mg12": ",,,;,,,;,,,;,,,", "u1": ",;,"}
# Every byte but those separators and the '/' that _convert puts between texts.
_NOT_SEPARATOR = bytes(c for c in range(256) if c not in b",;/")
# turning every separator into ',' (and 'i' into 'j') lists the entries
_TO_ENTRIES = bytes.maketrans(b";/i", b",,j")


def _inside(tok: str, prefix: str) -> str:
    """The text inside an argument `<prefix>...]`; ValueError for any other argument."""
    if tok.startswith(prefix) and tok.endswith("]"):
        return tok[len(prefix):-1]
    raise ValueError(tok)


def _convert(texts, layout: str):
    """The complex entries of texts that each have the separators layout gives, as one
    list and one array, in one conversion; None when a text has other separators or an
    entry is malformed or not finite."""
    if not texts:
        return [], np.zeros(0, dtype=complex)
    data = "/".join(texts).encode()
    if data.translate(None, _NOT_SEPARATOR) != "/".join([layout] * len(texts)).encode():
        return None
    try:
        vals = list(map(complex, data.translate(_TO_ENTRIES).decode().split(",")))
    except ValueError:
        return None
    arr = np.array(vals, dtype=complex)
    return (vals, arr) if np.isfinite(arr).all() else None


def _nest(vals, shape):
    """Consecutive values of an iterable grouped into nested tuples of a shape."""
    for size in reversed(shape):
        vals = zip(*[iter(vals)] * size)
    return vals


def _read_batched(lines, n: int):
    """The gates of parse's gate lines [(lineno, fields)], their positions by class and
    the classes' parameter stacks, with the values of each class converted in one pass
    (see _convert); the class rules are not run.

    None when a line is not in the form render writes (an unknown class, a wrong
    argument count, arguments out of render's order, a line number out of range or a
    bad exp key), a value is malformed or not finite, or an exp key is given twice;
    _parse_gate then reads every line and names the fault.
    """
    at = {cls: [] for cls in GATE_CLASSES}
    supports = {cls: [] for cls in _LAYOUTS}
    texts = {cls: [] for cls in _LAYOUTS}
    exp_keys, exp_texts, keys = [], [], {}
    try:
        for i, (lineno, fields) in enumerate(lines):
            cls = fields[0]
            if cls == "gvw":
                _, k, V, W = fields
                k = int(k)
                if not 1 <= k < n:
                    return None
                supports[cls].append((k, k + 1))
                texts[cls] += _inside(V, "V=["), _inside(W, "W=[")
            elif cls == "diag":
                _, k, l, d = fields
                k, l = int(k), int(l)
                if not 1 <= k < l <= n:
                    return None
                supports[cls].append((k, l))
                texts[cls].append(_inside(d, "["))
            elif cls == "mg12" or cls == "u1":
                _, M = fields
                if cls == "mg12" and n < 2:
                    return None
                supports[cls].append((1, 2) if cls == "mg12" else (1,))
                texts[cls].append(_inside(M, "B=[" if cls == "mg12" else "U=["))
            elif cls == "exp":
                line_keys = []
                for tok in fields[1:]:
                    key, _, val = tok.partition("=")
                    if key not in keys:
                        keys[key] = _exp_key(key, n, lineno)
                    line_keys.append(keys[key])
                    exp_texts.append(val)
                exp_keys.append(line_keys)
            else:
                return None
            at[cls].append(i)
    except (ValueError, ParseError):  # a wrong argument count or form, a bad line or key
        return None
    gates = [None] * len(lines)
    params = {}
    for cls, named in _MATRIX_PARAMS.items():
        read = _convert(texts[cls], _LAYOUTS[cls])
        if read is None:
            return None
        vals, arr = read
        names = tuple(named)
        shape = named[names[0]]
        arr = arr.reshape((-1, len(names)) + shape)
        params[cls] = {name: arr[:, j] for j, name in enumerate(names)}
        for i, support, values in zip(at[cls], supports[cls], _nest(vals, (len(names),) + shape)):
            gates[i] = GateSpec(cls, support, tuple(zip(names, values)))
    read = _convert(exp_texts, "")
    if read is None:
        return None
    vals, arr = read
    it = iter(vals)
    for i, line_keys in zip(at["exp"], exp_keys):
        entries = dict(zip(line_keys, it))  # takes len(line_keys) values from it
        if len(entries) < len(line_keys):
            return None
        gates[i] = _exp_gate(entries)
    kinds = np.array([kind for line_keys in exp_keys for kind, _ in line_keys])
    params["exp"] = {kind: arr[kinds == kind] for kind in "abs"}
    return gates, at, params


def _read_gates(lines, n: int, tol: float):
    """The gates of parse's gate lines [(lineno, fields)] and their classes' parameter
    stacks, every gate checked; raises the first error among the lines' own errors and
    the class rules, by line.

    The values of each class are converted in one pass (see _read_batched).  A file
    with a line that pass does not take goes line by line through _parse_gate, which
    holds every gate line error.
    """
    read = _read_batched(lines, n)
    if read is not None:
        gates, at, params = read
    else:
        gates = []
        try:
            for lineno, fields in lines:
                gates.append(_parse_gate(fields, n, lineno))
        except ParseError:
            at = _positions(gates)
            _raise_first_fault(lines, at, _class_params(gates, at), tol)
            raise
        at = _positions(gates)
        params = _class_params(gates, at)
    _raise_first_fault(lines, at, params, tol)
    return gates, params


def parse(text: str, tol: float = _DEFAULT_TOL) -> Circuit:
    """The circuit of a .mg text, every gate validated.

    The gate lines are read after the other lines (see _read_gates), and the class
    rules (see _rule_faults) run once per gate class; before any later error is raised
    the gate lines above it are read and checked, so the error reported is always the
    first in the file.
    """
    n = None
    state = None
    gate_lines = []
    k = None
    try:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            head, *rest = line.split(None, 1)
            body = rest[0] if rest else ""
            if head == "circuit":
                if n is not None:
                    raise ParseError("duplicate circuit header", lineno)
                args = body.split()
                if len(args) != 1 or not args[0].startswith("n="):
                    raise ParseError("header must be 'circuit n=<int>'", lineno)
                n = _parse_int(args[0][2:], lineno, "line count")
                if n < 1:
                    raise ParseError(f"need n >= 1, got {n}", lineno)
            elif head == "state":
                if n is None:
                    raise ParseError("state before circuit header", lineno)
                if state is not None:
                    raise ParseError("duplicate state line", lineno)
                state = _parse_state(body, n, lineno)
            elif head == "gate":
                if n is None:
                    raise ParseError("gate before circuit header", lineno)
                args = body.split()
                if not args:
                    raise ParseError("gate line needs a class tag", lineno)
                gate_lines.append((lineno, args))
            elif head == "measure":
                if n is None:
                    raise ParseError("measure before circuit header", lineno)
                if k is not None:
                    raise ParseError("duplicate measure line", lineno)
                args = body.split()
                if len(args) != 1:
                    raise ParseError("measure takes a single line number", lineno)
                k = _parse_int(args[0], lineno, "measured line")
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
        _read_gates(gate_lines, n, tol)
        raise
    gates, params = _read_gates(gate_lines, n, tol)
    return Circuit(n, state, tuple(gates), k, _stacks_are_unitary(params, max(tol, 1e-8)))


def compile(circuit: Circuit, tol: float = 1e-9) -> list[GateSpec]:
    """The exp gate of each gate of a parsed circuit, in application order.

    The logarithms of the gvw and mg12 gates come from one ``matchgate.span_logs``
    call on their 4x4 stack, those of the u1 gates from one ``principal_logs`` call
    on their 2x2 stack (see _logarithms).  Exact zero coefficients are dropped and
    the rest made complex.  No check that ``parse`` made is repeated.  The first
    gate in circuit order that cannot be compiled raises, with its index.
    """
    logs = _logarithms(circuit.gates, tol)
    out = []
    for idx, spec in enumerate(circuit.gates):
        try:
            a, b, s = _exponent(spec, logs.get(idx), tol)
        except MgsimError as exc:
            raise GateClassError(f"gate {idx + 1} ({spec.cls}): {exc}") from exc
        out.append(exp_spec({key: complex(v) for key, v in a.items() if v != 0},
                            {key: complex(v) for key, v in b.items() if v != 0}, complex(s)))
    return out


def _logarithms(gates, tol: float) -> dict:
    """Position -> the logarithm's coefficients of each gvw, mg12 and u1 gate, or the
    LogBranchError that refuses it: the 11 generator coefficients of a gvw or mg12
    gate, the u1_coords of a u1 gate."""
    at = _positions(gates)
    out = {}
    pos = at["gvw"] + at["mg12"]
    if pos:
        coeffs, faults = matchgate.span_logs(matchgate.swap_convention(
            gate_matrices([gates[i] for i in pos])), tol)
        out.update(zip(pos, [c if f is None else f for c, f in zip(coeffs, faults)]))
    if at["u1"]:
        L, faults = matchgate.principal_logs(_param_stacks([gates[i] for i in at["u1"]],
                                                           "u1")["U"])
        out.update(zip(at["u1"], [c if f is None else f
                                  for c, f in zip(u1_coords(L).T, faults)]))
    return out


def _exponent(spec: GateSpec, log, tol: float) -> tuple[dict, dict, complex]:
    """(a, b, s) of one gate; ``log`` is its entry from _logarithms, if any."""
    if spec.cls == "diag":
        return compile_diag(spec.param("d"), spec.lines[0], spec.lines[1])
    if spec.cls == "exp":
        return dict(spec.param("a")), dict(spec.param("b")), spec.param("s")
    if isinstance(log, MgsimError):
        raise log
    if spec.cls == "u1":
        return u1_exponent(*log)
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
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return [cls for cls, params in layouts.items()
                if not any(mask[0] for mask, _ in _rule_faults(
                    cls, {name: val[None] for name, val in params.items()}, _DEFAULT_TOL))]
