"""Line-oriented circuit files, gate-class validation, and compilation.

``parse`` validates every gate once and keeps its raw parameters in a GateSpec.
It has one reader.  One structural walk per gate line checks the line in the order
it is read and collects the text of each matrix and exp value; each gate class's texts
then go through one check of their separators, one complex conversion and one
finiteness test.  Only when that fails, or the walk met a fault, are a class's texts
read one at a time, to name the first error in the file.  The state line's pairs go
through one check of their marks and one float conversion the same way.
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

Matrices are row-major in brackets, rows separated by ';', entries by ','.  V= and W=
may come in either order.
An exp line gives each a:mu,nu, b:sigma and s at most once.
Complex literals are `a`, `bi`, or `a+bi` (17 significant digits round-trip).
Line numbers are 1-based; gvw acts on the nearest-neighbour pair (k, k+1),
mg12 on lines (1, 2), u1 on line 1, diag on any pair k < l.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left
from itertools import chain
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
    support = {(index + 1) // 2 for index in chain(*a, b)}  # the mu, nu of a and sigma of b
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


def _det2(M: np.ndarray, m: np.ndarray) -> tuple:
    """The real and imaginary parts of det(M_g / m_g) for a (G, 2, 2) stack, from the
    float operations of Python's complex arithmetic (M / m part by part, then
    M00 M11 - M01 M10): numpy's complex products and LAPACK's determinant round by CPU,
    which would move a decision for a determinant within rounding of tol."""
    x0, x1, x2, x3 = (M.real / m[:, None, None]).reshape(-1, 4).T
    y0, y1, y2, y3 = (M.imag / m[:, None, None]).reshape(-1, 4).T
    return (x0 * x3 - y0 * y3) - (x1 * x2 - y1 * y2), (x0 * y3 + y0 * x3) - (x1 * y2 + y1 * x2)


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


def _render_matrix(rows) -> str:
    return "[" + ";".join(",".join(render_complex(e) for e in row) for row in rows) + "]"


def _parse_int(tok: str, lineno: int, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"expected integer {what}, got {tok!r}", lineno) from None


# Every byte but the marks of (re,im)(re,im) tokens and the ASCII whitespace, which
# str.split and float() both take as whitespace.
_ALL_BUT_PAIR_MARKS = bytes(c for c in range(256)
                            if c not in b"(), \t\n\x0b\x0c\r\x1c\x1d\x1e\x1f")
# "(" and ")" read as "," and " " deleted: k such tokens between single spaces split into
# 6k + 1 fields, the numbers and an empty field at every index divisible by 3
_PAIR_FIELDS = str.maketrans("()", ",,", " ")


def _pair_numbers(text: str, k: int):
    """The 4 numbers of each of k (re,im)(re,im) tokens between single spaces, as a (k, 4)
    float array, from one check of the text's marks and one float conversion; None for
    any other text, or when a number is malformed or not finite."""
    if text.encode().translate(None, _ALL_BUT_PAIR_MARKS) != b" ".join([b"(,)(,)"] * k):
        return None
    nums = text.translate(_PAIR_FIELDS).split(",")
    if any(nums[::3]):  # text before, after or between the pairs of a token
        return None
    del nums[::3]
    try:
        xy = np.fromiter(map(float, nums), float, len(nums)).reshape(-1, 4)
    except ValueError:
        return None
    return xy if np.isfinite(xy).all() else None


def _parse_state(body: str, n: int, lineno: int) -> tuple:
    """The amplitude pairs of a state line's text after 'state'.

    The text of n (re,im)(re,im) tokens between single spaces, as render writes it, is
    read in one pass (_pair_numbers).  Any other text is split into its n tokens: a named
    token is taken as it is, and the others go through the same pass.  Only when that
    fails are they read one at a time (_raise_amplitude_fault), to name the first fault
    in token order.  A pair whose norm is not within about 0.5e-12 of 1 is normalised
    (see _normalised).
    """
    toks = None
    xy = _pair_numbers(body, n) if body.isascii() else None  # no whitespace but " "
    if xy is None:
        toks = body.split()
        if len(toks) != n:
            raise ParseError(f"state needs {n} tokens, got {len(toks)}", lineno)
        pairs = [tok for tok in toks if tok not in _STATE_TOKENS]
        xy = _pair_numbers(" ".join(pairs), len(pairs))
        if xy is None:
            _raise_amplitude_fault(pairs, lineno)
    # |norm^2 - 1| <= 1e-12 puts the norm within about 0.5e-12 of 1, far inside
    # _normalised's 1e-12 whatever the rounding, so those pairs are kept as written there
    # too; a zero or overflowing row fails the test
    with np.errstate(over="ignore", invalid="ignore"):
        off = np.flatnonzero(~(np.abs((xy * xy).sum(axis=1) - 1.0) <= 1e-12)).tolist()
    amps = list(zip(*[iter(xy.view(complex).ravel().tolist())] * 2))
    for t in off:
        amps[t] = _normalised(*amps[t], lineno)
    if len(amps) < n:  # named tokens in between
        rest = iter(amps)
        amps = [_STATE_TOKENS.get(tok) or next(rest) for tok in toks]
    return tuple(amps)


def _normalised(a: complex, b: complex, lineno: int) -> tuple:
    """The amplitude pair (a, b) divided by its norm, or as given when that is within 1e-12
    of 1, so that normalised pairs stay bit-exact."""
    norm = math.hypot(abs(a), abs(b))
    if norm == 0:
        raise ParseError("zero state vector on a line", lineno)
    return (a, b) if abs(norm - 1.0) <= 1e-12 else (a / norm, b / norm)


def _raise_amplitude_fault(pairs, lineno: int) -> None:
    """Raises the first fault, in token order, of a state line's (re,im)(re,im) tokens,
    read one at a time: a token of another form, a malformed or non-finite amplitude
    pair, or a zero token.  _parse_state reads them so only when they hold one."""
    for tok in pairs:
        halves = tok[1:-1].split(")(")
        if len(halves) != 2 or tok[0] != "(" or tok[-1] != ")":
            raise ParseError(f"bad state token {tok!r}", lineno)
        amps = []
        for half in halves:
            try:
                x, y = map(float, half.split(","))
            except ValueError:  # not two numbers
                raise ParseError(f"bad amplitude pair {half!r}", lineno) from None
            amp = complex(x, y)
            if not cmath.isfinite(amp):
                raise ParseError(f"non-finite amplitude pair {half!r}", lineno)
            amps.append(amp)
        _normalised(*amps, lineno)


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
    entry size overflows it.  The 2x2 determinants of gvw, diag and u1 come from _det2
    and their moduli from hypot, as in Python's complex arithmetic, so that a gate at
    a gap within rounding of tol is decided alike on every CPU; mg12 keeps LAPACK's
    determinant and is_matchgate.  |det| = |det(M/m)| m^k may overflow to inf (callers
    ignore the warning): a nonzero det, which passes.  A nan (0 * inf, or a scaled
    det that numpy cannot form) fails: a gate passes only on a |det| known to exceed tol.
    """
    if cls == "gvw":
        V, W = stacks["V"], stacks["W"]
        m = matchgate.entry_scale(np.concatenate([V, W], axis=2)).ravel()
        x, y = _det2(np.concatenate([V, W]), np.concatenate([m, m]))  # det V, then det W
        a, g = np.hypot(x, y), len(m)
        vx, vy, av, wx, wy, aw = x[:g], y[:g], a[:g], x[g:], y[g:], a[g:]
        det = av * aw * m * m * m * m  # det G(V, W) = det V det W

        def mismatch(j):
            dv, dw = complex(vx[j], vy[j]), complex(wx[j], wy[j])
            if m[j] != 1:
                dv, dw = dv * m[j] * m[j], dw * m[j] * m[j]
            return f"gvw gate rejected: determinant mismatch: det V = {dv}, det W = {dw}"

        return [(~(np.hypot(vx - wx, vy - wy) <= tol * (av + aw + 1)), mismatch),
                (~(det > tol), lambda j: _not_invertible("gvw", det[j]))]
    if cls == "diag":
        d = stacks["d"]
        B = d.reshape(-1, 2, 2)  # |e1 e4 - e2 e3| is the modulus of a 2x2 determinant
        gap = np.hypot(*_det2(B, matchgate.entry_scale(B).ravel()))
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
    det = np.hypot(*_det2(U, m)) * m * m
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


# The matrix arguments of a gate line of each matrix class, in the order they are read:
# prefix, name in messages and (rows, columns); diag's vector is its third argument.
_LINE_MATRICES = {cls: tuple((f"{name}=", name, shape) for name, shape in named.items())
                  for cls, named in _MATRIX_PARAMS.items()}
_LINE_MATRICES["diag"] = (("", "diag vector", (1, 4)),)
# The separators of one text the walk collects, of each class: those of a matrix of its
# class's shape, ',' between entries and ';' between rows; none in an exp value.
_SEPARATORS = {cls: b";".join([b"," * (width - 1)] * height)
               for cls, ((_, _, (height, width)), *_) in _LINE_MATRICES.items()}
_SEPARATORS["exp"] = b""
# Every byte but the separators ',' and ';'.
_ALL_BUT_SEPARATORS = bytes(c for c in range(256) if c not in b",;")


def _walk_gates(lines, n: int):
    """One structural walk over parse's gate lines [(lineno, fields)], each line checked
    in the order it is read: class, argument count, line numbers, then each matrix's
    prefix and bracket or each exp parameter's '=', key and repetition.  The texts of the
    entries are collected, unconverted, in walk order: each exp value, and the text inside
    each matrix's brackets, whose separators _convert checks against its shape.

    Returns the positions of each class's gates, the supports of the matrix-class gates,
    each class's texts, each exp gate's keys, and (position, ParseError) of the first
    structural fault, or (len(lines), None).  The walk stops at that fault; the texts its
    line gave before it are the last of their class.
    """
    at = {cls: [] for cls in GATE_CLASSES}
    supports = {cls: [] for cls in _MATRIX_PARAMS}
    texts = {cls: [] for cls in GATE_CLASSES}
    exp_keys, keys = [], {}
    try:
        for i, (lineno, fields) in enumerate(lines):
            cls, args = fields[0], fields[1:]
            out = texts.get(cls)
            if out is None:
                raise ParseError(f"unknown gate class {cls!r}; one of {GATE_CLASSES}", lineno)
            if cls == "exp":  # a:mu,nu=<c>  b:sigma=<c>  s=<c>, each at most once
                line_keys = {}
                for tok in args:
                    key, eq, text = tok.partition("=")
                    if not eq:
                        raise ParseError(f"bad exp parameter {tok!r}", lineno)
                    out.append(text)
                    idx = keys.get(key)
                    if idx is None:
                        idx = keys[key] = _exp_key(key, n, lineno)
                    if idx in line_keys:
                        raise ParseError(f"repeated exp parameter {key!r}", lineno)
                    line_keys[idx] = None
                exp_keys.append(tuple(line_keys))
                at[cls].append(i)
                continue
            if cls == "gvw":
                if len(args) != 3:
                    raise ParseError("gvw takes a line number and V=, W= matrices", lineno)
                k = _parse_int(args[0], lineno, "line")
                if not 1 <= k <= n - 1:
                    raise ParseError(
                        f"gvw acts on a nearest-neighbour pair; line {k} invalid for n={n}", lineno
                    )
                support = (k, k + 1)
            elif cls == "diag":
                if len(args) != 3:
                    raise ParseError("diag takes two line numbers and a [d1,d2,d3,d4] vector",
                                     lineno)
                k = _parse_int(args[0], lineno, "line")
                l = _parse_int(args[1], lineno, "line")
                if not 1 <= k < l <= n:
                    raise ParseError(f"diag needs lines 1 <= k < l <= n, got {k}, {l}", lineno)
                support = (k, l)
            elif cls == "mg12":
                if n < 2:
                    raise ParseError("mg12 needs at least two lines", lineno)
                if len(args) != 1:
                    raise ParseError("mg12 takes a single B= matrix", lineno)
                support = (1, 2)
            else:
                if len(args) != 1:
                    raise ParseError("u1 takes a single U= matrix", lineno)
                support = (1,)
            for prefix, _, _ in _LINE_MATRICES[cls]:
                if not prefix:
                    tok = args[2]
                else:
                    for tok in args:
                        if tok.startswith(prefix):
                            tok = tok[len(prefix):]
                            break
                    else:
                        raise ParseError(f"gate {cls} is missing its {prefix} matrix", lineno)
                if not (tok.startswith("[") and tok.endswith("]")):
                    raise ParseError(f"expected bracketed matrix, got {tok!r}", lineno)
                out.append(tok[1:-1])
            supports[cls].append(support)
            at[cls].append(i)
    except ParseError as fault:
        return at, supports, texts, exp_keys, (i, fault)
    return at, supports, texts, exp_keys, (len(lines), None)


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


def _convert(cls: str, texts):
    """The complex values of one class's walk texts, with i read as j, in one conversion
    and one finiteness test, as a list and an array; None when a text's separators are
    not those of its class (see _SEPARATORS) or an entry is malformed or not finite."""
    if not texts:
        return [], np.zeros(0, dtype=complex)
    data = ",".join(texts)
    if data.encode().translate(None, _ALL_BUT_SEPARATORS) != b",".join(
            [_SEPARATORS[cls]] * len(texts)):
        return None
    try:
        vals = list(map(complex, data.replace(";", ",").replace("i", "j").split(",")))
    except ValueError:
        return None
    arr = np.array(vals, dtype=complex)
    return (vals, arr) if np.isfinite(arr).all() else None


def _read_gates(lines, n: int, tol: float):
    """The gates of parse's gate lines [(lineno, fields)] and their classes' parameter
    stacks, every gate checked; raises the first error among the lines' own errors and
    the class rules, by line.

    One walk (_walk_gates) checks every line's structure and collects the entry texts,
    and each class's texts go through one check of their separators and one conversion
    (_convert).  Only when that fails, or the walk met a fault, are a class's texts
    read one at a time, each matrix's rows walked and its entries converted by
    parse_complex, up to the first fault: the line error is the earliest such fault or
    the walk's, by line (on the walk's own line, a fault in a text it collected comes
    first).  The class rules then run on the gates above that line, and their first
    fault is raised before it.
    """
    at, supports, texts, exp_keys, (fault, error) = _walk_gates(lines, n)
    stop = fault
    values = {cls: None if error else _convert(cls, texts[cls]) for cls in GATE_CLASSES}
    for cls in GATE_CLASSES:
        if values[cls] is None:
            matrices = _LINE_MATRICES.get(cls)
            counts = ([len(keys) for keys in exp_keys] if matrices is None else
                      [len(matrices)] * len(at[cls]))
            owners = [i for i, count in zip(at[cls], counts) for _ in range(count)]
            vals = []
            for t, text in enumerate(texts[cls]):
                i = owners[t] if t < len(owners) else fault  # past the last gate: the fault's line
                lineno = lines[i][0]
                try:
                    if matrices is None:
                        vals.append(parse_complex(text, lineno))
                        continue
                    _, what, (height, width) = matrices[t % len(matrices)]
                    rows = text.split(";")
                    first = rows[0].count(",") + 1
                    for row in rows:  # a row's entries are read before its width
                        row = row.split(",")
                        vals += [parse_complex(entry, lineno) for entry in row]
                        if len(row) != first:
                            raise ParseError("ragged matrix rows", lineno)
                    if len(rows) != height or first != width:
                        raise ParseError(f"{what} must be {height}x{width}, "
                                         f"got {len(rows)}x{first}", lineno)
                except ParseError as exc:
                    if i <= stop:
                        stop, error = i, exc
                    break
            values[cls] = vals, np.array(vals, dtype=complex)
    if error:
        at = {cls: pos[:bisect_left(pos, stop)] for cls, pos in at.items()}
    gates = [None] * stop
    params = {}
    for cls, named in _MATRIX_PARAMS.items():
        vals, arr = values[cls]
        names = tuple(named)
        shape = (len(at[cls]), len(names)) + named[names[0]]
        stacks = arr[:math.prod(shape)].reshape(shape)
        params[cls] = {name: stacks[:, j] for j, name in enumerate(names)}
        groups = iter(vals)  # consecutive values grouped into nested tuples of shape[1:]
        for size in reversed(shape[1:]):
            groups = zip(*[groups] * size)
        for i, support, group in zip(at[cls], supports[cls], groups):
            gates[i] = GateSpec(cls, support, tuple(zip(names, group)))
    vals, arr = values["exp"]
    it = iter(vals)
    for i, line_keys in zip(at["exp"], exp_keys):
        a, b, s = {}, {}, 0j
        for (kind, idx), val in zip(line_keys, it):  # takes len(line_keys) values from it
            if kind == "a":
                a[idx] = val
            elif kind == "b":
                b[idx] = val
            else:
                s = val
        gates[i] = exp_spec(a, b, s)
    kinds = np.array([kind for line_keys in exp_keys[:len(at["exp"])] for kind, _ in line_keys])
    params["exp"] = {kind: arr[:len(kinds)][kinds == kind] for kind in "abs"}
    _raise_first_fault(lines, at, params, tol)
    if error:
        raise error
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
            fields = raw.split("#", 1)[0].split(None, 1)
            if not fields:
                continue
            head, body = fields[0], fields[1] if len(fields) == 2 else ""
            args = [] if head == "state" else body.split()
            if head == "gate":
                if n is None:
                    raise ParseError("gate before circuit header", lineno)
                if not args:
                    raise ParseError("gate line needs a class tag", lineno)
                gate_lines.append((lineno, args))
            elif head == "circuit":
                if n is not None:
                    raise ParseError("duplicate circuit header", lineno)
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
            elif head == "measure":
                if n is None:
                    raise ParseError("measure before circuit header", lineno)
                if k is not None:
                    raise ParseError("duplicate measure line", lineno)
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
