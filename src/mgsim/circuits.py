"""Line-oriented circuit files, gate-class validation, and compilation.

``parse`` validates every gate once and keeps its raw parameters in a ``Gates`` record:
one stack per class and parameter, the gates' lines as integer arrays and one array of
their classes in order.  It has one reader.  One structural walk per gate line checks
the line in the order it is read and collects the text of each matrix and exp value;
each gate class's texts then go through one check of their separators, one complex
conversion and one finiteness test, straight into the class's stacks.  Only when that
fails, or the walk met a fault, are a class's texts read one at a time, to name the
first error in the file.  The state line's pairs go through one check of their marks
and one float conversion the same way, into an (n, 2) array.  ``compile`` writes the
record of each gate's exp gate e^A, A its Jordan-Wigner exponent (see ``exponents``), as
an all-exp circuit file would parse to, and the engines and ``render`` read records.  A
``GateSpec`` is a per-gate view of a record for callers outside the package, and
``as_gates`` reads a sequence of them into a record.

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
from .errors import DimensionError, GateClassError, MgsimError, ParseError
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
    """One gate as a record of plain values: class tag, 1-based line support, raw
    parameters.

    Parameters are a sorted tuple of (name, value) pairs, matrix values nested tuples
    of complex numbers, so specs are hashable and compare exactly.  A ``Gates`` record
    gives its gates as these views, built on demand; nothing in the package reads them.
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


_CODES = {cls: code for code, cls in enumerate(GATE_CLASSES)}
# The number of lines of a gate of each matrix class.
_LINE_COUNTS = {"gvw": 2, "diag": 2, "mg12": 2, "u1": 1}


class Gates:
    """A circuit's gates, in application order, as the stacks ``parse`` reads them into.

    ``order`` holds each gate's class, as its index in GATE_CLASSES, and ``at`` the
    positions of each class's gates.  A matrix class keeps the 1-based lines of its
    gates as one integer array, ``lines[cls]``, and its raw matrices as one complex
    stack per name, ``params[cls]`` (see _MATRIX_PARAMS), in the order of its gates.
    Each coefficient of an exp gate (of a parsed one, each its line writes, in line
    order; else a by (mu, nu), then b by sigma, then s) is one entry: ``exp_pairs``
    holds its indices, (mu, nu) for a:mu,nu, (0, sigma) for b:sigma and (0, 0) for s,
    and ``exp_values`` its value; exp gate j has the entries ``exp_starts[j]`` up to
    ``exp_starts[j + 1]``.

    It reads as a sequence of GateSpecs, built on first use; two records are equal
    when their GateSpecs are.
    """

    def __init__(self, order, lines, params, exp_pairs, exp_values, exp_starts):
        self.order = order
        ranked = np.argsort(order, kind="stable")
        ends = np.cumsum(np.bincount(order, minlength=len(GATE_CLASSES))).tolist()
        self.at = {cls: ranked[start:end]
                   for cls, start, end in zip(GATE_CLASSES, [0] + ends, ends)}
        self.lines = lines
        self.params = params
        self.exp_pairs = exp_pairs
        self.exp_values = exp_values
        self.exp_starts = exp_starts
        self._specs = None

    def __len__(self) -> int:
        return len(self.order)

    def __getitem__(self, i):
        return self._views()[i]

    def __iter__(self):
        return iter(self._views())

    def __eq__(self, other) -> bool:
        return isinstance(other, Gates) and self._views() == other._views()

    def __repr__(self) -> str:
        return f"Gates({self._views()!r})"

    def _views(self) -> tuple:
        """The GateSpec of every gate, built class by class on the first call."""
        if self._specs is None:
            specs = [None] * len(self)
            for cls, named in _MATRIX_PARAMS.items():
                stacks = [stack.tolist() for stack in self.params[cls].values()]
                for i, lines, *values in zip(self.at[cls].tolist(), self.lines[cls].tolist(),
                                             *stacks):  # a matrix as a tuple of row tuples
                    rows = [tuple(v) if cls == "diag" else tuple(map(tuple, v)) for v in values]
                    specs[i] = GateSpec(cls, tuple(lines), tuple(zip(named, rows)))
            for i, entries in zip(self.at["exp"].tolist(), self.exp_entries()):
                specs[i] = exp_spec(*_exp_parts(entries))
            self._specs = tuple(specs)
        return self._specs

    def exp_entries(self) -> list:
        """Each exp gate's entries as one list [((mu, nu), value)], in the record's order."""
        entries = list(zip(self.exp_pairs.tolist(), self.exp_values.tolist()))
        starts = self.exp_starts.tolist()
        return [entries[start:stop] for start, stop in zip(starts, starts[1:])]

    def matrices(self, pos) -> np.ndarray:
        """The 4x4 matrices of the gvw, diag, mg12 and u1 gates at positions ``pos``, as
        one (len(pos), 4, 4) stack in that order, built class by class from their stacks;
        u1 gives U (x) I on lines (1, 2)."""
        pos = np.asarray(pos, dtype=np.intp)
        codes = self.order[pos]
        out = np.empty((len(pos), 4, 4), dtype=complex)
        for code in set(codes.tolist()):
            cls = GATE_CLASSES[code]
            sel = codes == code
            rank = np.searchsorted(self.at[cls], pos[sel])
            out[sel] = _class_matrices(cls, {name: stack[rank]
                                             for name, stack in self.params[cls].items()})
        return out

    def check_lines(self, n: int) -> None:
        """A DimensionError when a gate acts beyond line n."""
        for cls, lines in self.lines.items():
            if len(lines) and lines.max() > n:
                beyond = lines[np.argmax(lines.max(axis=1) > n)]
                raise DimensionError(f"{cls} gate on lines {tuple(beyond.tolist())}, "
                                     f"register has n={n}")
        if len(self.exp_pairs) and self.exp_pairs[:, 1].max() > 2 * n:
            raise DimensionError(f"exp gate on index {self.exp_pairs[:, 1].max()}, "
                                 f"register has n={n}")


def as_gates(gates) -> Gates:
    """The record of a sequence of GateSpecs in application order; a record is returned
    as it is."""
    if isinstance(gates, Gates):
        return gates
    gates = list(gates)
    of = {cls: [g for g in gates if g.cls == cls] for cls in GATE_CLASSES}
    lines = {cls: np.array([g.lines for g in of[cls]], dtype=np.intp).reshape(-1, width)
             for cls, width in _LINE_COUNTS.items()}
    params = {cls: {name: np.array([g.param(name) for g in of[cls]],
                                   dtype=complex).reshape((-1,) + shape)
                    for name, shape in named.items()}
              for cls, named in _MATRIX_PARAMS.items()}
    return Gates(np.array([_CODES[g.cls] for g in gates], dtype=np.int8), lines, params,
                 *_exp_arrays((g.param("a"), g.param("b"), g.param("s")) for g in of["exp"]))


def _exp_arrays(exps) -> tuple:
    """A record's exp arrays for exp gates (a, b, s), a and b as sorted items (see Gates)."""
    pairs, values, starts = [], [], [0]
    for a, b, s in exps:
        pairs += [pair for pair, _ in a] + [(0, sigma) for sigma, _ in b] + [(0, 0)]
        values += [val for _, val in a] + [val for _, val in b] + [s]
        starts.append(len(pairs))
    return (np.array(pairs, dtype=np.intp).reshape(-1, 2), np.array(values, dtype=complex),
            np.array(starts))


def _exp_parts(entries) -> tuple[dict, dict, complex]:
    """(a, b, s) of an exp gate's entries [((mu, nu), value)]: a {(mu, nu): value},
    b {sigma: value} and s, 0 when no entry gives it."""
    a, b, s = {}, {}, 0j
    for (mu, nu), val in entries:
        if mu:
            a[mu, nu] = val
        elif nu:
            b[nu] = val
        else:
            s = val
    return a, b, s


@dataclass(frozen=True, eq=False)
class Circuit:
    """A parsed circuit: n lines, the input state as a read-only (n, 2) complex array of
    amplitude pairs, the gates as a Gates record (GateSpecs given here are read into one),
    the measured line k and whether every gate is unitary."""

    n: int
    state: np.ndarray
    gates: Gates
    k: int
    unitary: bool

    def __post_init__(self):
        state = np.asarray(self.state, dtype=complex)
        if state.flags.writeable:
            state = state.copy()
            state.setflags(write=False)
        object.__setattr__(self, "state", state)
        object.__setattr__(self, "gates", as_gates(self.gates))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Circuit) and (self.n, self.k, self.unitary)
                == (other.n, other.k, other.unitary)
                and np.array_equal(self.state, other.state) and self.gates == other.gates)

    def __repr__(self) -> str:  # the amplitudes as Python's complex repr gives them, exactly
        return (f"Circuit(n={self.n!r}, state={self.state.tolist()!r}, gates={self.gates!r}, "
                f"k={self.k!r}, unitary={self.unitary!r})")

    def input_state(self) -> ProductState:
        return ProductState(self.state)


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
# 6k + 1 fields, the numbers and an empty field at every index divisible by 3.  An ASCII
# text is split as bytes, which float() reads as it reads their text.
_PAIR_FIELDS = str.maketrans("()", ",,", " ")
_PAIR_BYTES = bytes.maketrans(b"()", b",,")


def _pair_numbers(text: str, k: int):
    """The 4 numbers of each of k (re,im)(re,im) tokens between single spaces, as a (k, 4)
    float array, from one check of the text's marks and one float conversion; None for
    any other text, or when a number is malformed or not finite."""
    data = text.encode()
    if data.translate(None, _ALL_BUT_PAIR_MARKS) != b" ".join([b"(,)(,)"] * k):
        return None
    nums = (data.translate(_PAIR_BYTES, b" ").split(b",") if len(data) == len(text)
            else text.translate(_PAIR_FIELDS).split(","))
    if any(nums[::3]):  # text before, after or between the pairs of a token
        return None
    del nums[::3]
    try:
        xy = np.fromiter(map(float, nums), float, len(nums)).reshape(-1, 4)
    except ValueError:
        return None
    return xy if np.isfinite(xy).all() else None


def _parse_state(body: str, n: int, lineno: int) -> np.ndarray:
    """The amplitude pairs of a state line's text after 'state', as a read-only (n, 2)
    complex array.

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
    amps = xy.view(complex)
    for t in off:
        amps[t] = _normalised(*amps[t].tolist(), lineno)
    if len(amps) < n:  # named tokens in between
        rest = iter(amps.tolist())
        amps = np.array([_STATE_TOKENS.get(tok) or next(rest) for tok in toks], dtype=complex)
    amps.setflags(write=False)
    return amps


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


def _gates_are_unitary(gates: Gates, tol: float) -> bool:
    """Whether every gate of a record is unitary.

    The V, W, U and B matrices pass when M^H M = I entrywise within
    tol + 1e-5 |I|, the rule of np.allclose(M^H M, I, atol=tol); they are
    checked in one batch per shape.  diag entries must have unit modulus, and
    an exp gate needs a real, b and s imaginary (unitary up to global phase).
    """
    params, vals, d = gates.params, gates.exp_values, gates.params["diag"]["d"]
    a = gates.exp_pairs[:, 0] != 0  # the entries of a; the others are b's and s
    if len(d) and np.any(np.abs(np.abs(d) - 1.0) > tol):
        return False
    if len(vals) and not (np.all(np.abs(vals[a].imag) <= tol)
                          and np.all(np.abs(vals[~a].real) <= tol)):
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

    Returns the positions of each class's gates, the lines of the matrix-class gates one
    after another, each class's texts, each exp gate's number of entries with their index
    pairs (see _exp_key) one after another, and (position, ParseError) of the first
    structural fault, or (len(lines), None).  The walk stops at that fault; the texts its
    line gave before it are the last of their class.
    """
    at = {cls: [] for cls in GATE_CLASSES}
    supports = {cls: [] for cls in _MATRIX_PARAMS}
    texts = {cls: [] for cls in GATE_CLASSES}
    exp_counts, exp_pairs, keys = [], [], {}
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
                    exp_pairs += idx
                exp_counts.append(len(line_keys))
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
            supports[cls] += support
            at[cls].append(i)
    except ParseError as fault:
        return at, supports, texts, (exp_counts, exp_pairs), (i, fault)
    return at, supports, texts, (exp_counts, exp_pairs), (len(lines), None)


def _exp_key(key: str, n: int, lineno: int) -> tuple:
    """An exp parameter's key as its index pair: (mu, nu) for a:mu,nu, (0, sigma) for
    b:sigma and (0, 0) for s."""
    if key.startswith("a:"):
        idx = key[2:].split(",")
        if len(idx) != 2:
            raise ParseError(f"bad quadratic index {key!r}; want a:mu,nu", lineno)
        mu = _parse_int(idx[0], lineno, "index")
        nu = _parse_int(idx[1], lineno, "index")
        if not 1 <= mu < nu <= 2 * n:
            raise ParseError(f"quadratic index pair ({mu},{nu}) invalid for n={n}", lineno)
        return mu, nu
    if key.startswith("b:"):
        sigma = _parse_int(key[2:], lineno, "index")
        if not 1 <= sigma <= 2 * n:
            raise ParseError(f"linear index {sigma} outside 1..{2 * n}", lineno)
        return 0, sigma
    if key == "s":
        return 0, 0
    raise ParseError(f"unknown exp parameter {key!r}", lineno)


def _convert(cls: str, texts):
    """The complex values of one class's walk texts, with i read as j, as an array from
    one conversion and one finiteness test; None when a text's separators are not those
    of its class (see _SEPARATORS) or an entry is malformed or not finite."""
    if not texts:
        return np.zeros(0, dtype=complex)
    data = ",".join(texts)
    if data.encode().translate(None, _ALL_BUT_SEPARATORS) != b",".join(
            [_SEPARATORS[cls]] * len(texts)):
        return None
    try:
        arr = np.array(list(map(complex, data.replace(";", ",").replace("i", "j").split(","))),
                       dtype=complex)
    except ValueError:
        return None
    return arr if np.isfinite(arr).all() else None


def _read_gates(lines, n: int, tol: float) -> Gates:
    """The Gates record of parse's gate lines [(lineno, fields)], every gate checked;
    raises the first error among the lines' own errors and the class rules, by line.

    One walk (_walk_gates) checks every line's structure and collects the entry texts,
    and each class's texts go through one check of their separators and one conversion
    (_convert).  Only when that fails, or the walk met a fault, are a class's texts
    read one at a time, each matrix's rows walked and its entries converted by
    parse_complex, up to the first fault: the line error is the earliest such fault or
    the walk's, by line (on the walk's own line, a fault in a text it collected comes
    first).  The class rules then run on the gates above that line, and their first
    fault is raised before it.
    """
    at, supports, texts, (exp_counts, exp_pairs), (fault, error) = _walk_gates(lines, n)
    stop = fault
    values = {cls: None if error else _convert(cls, texts[cls]) for cls in GATE_CLASSES}
    for cls in GATE_CLASSES:
        if values[cls] is None:
            matrices = _LINE_MATRICES.get(cls)
            counts = exp_counts if matrices is None else [len(matrices)] * len(at[cls])
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
            values[cls] = np.array(vals, dtype=complex)
    if error:
        at = {cls: pos[:bisect_left(pos, stop)] for cls, pos in at.items()}
    params = {}
    for cls, named in _MATRIX_PARAMS.items():
        shape = (len(at[cls]), len(named)) + next(iter(named.values()))
        stacks = values[cls][:math.prod(shape)].reshape(shape)
        params[cls] = {name: stacks[:, j] for j, name in enumerate(named)}
    _raise_first_fault(lines, at, params, tol)
    if error:
        raise error
    order = np.empty(len(lines), dtype=np.int8)
    for cls, code in _CODES.items():
        order[at[cls]] = code
    return Gates(order, {cls: np.array(supports[cls], dtype=np.intp).reshape(-1, width)
                         for cls, width in _LINE_COUNTS.items()}, params,
                 np.array(exp_pairs, dtype=np.intp).reshape(-1, 2), values["exp"],
                 np.cumsum([0] + exp_counts))


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
            if "#" in raw:
                raw = raw[:raw.index("#")]
            fields = raw.split(None, 1)
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
    gates = _read_gates(gate_lines, n, tol)
    return Circuit(n, state, gates, k, _gates_are_unitary(gates, max(tol, 1e-8)))


def compile(circuit: Circuit, tol: float = 1e-9) -> Gates:
    """The exp gate of each gate of a parsed circuit, in application order, as a record.

    The logarithms of the gvw and mg12 gates come from one ``matchgate.span_logs``
    call on their 4x4 stack, those of the u1 gates from one ``principal_logs`` call
    on their 2x2 stack (see _logarithms).  Each gate's entries are written from its
    class's stacks or its logarithm; exact zero coefficients of a and b are dropped
    and the rest made complex.  No check that ``parse`` made is repeated.  The first
    gate in circuit order that cannot be compiled raises, with its index.
    """
    gates = circuit.gates
    logs, entries, d = _logarithms(gates, tol), gates.exp_entries(), gates.params["diag"]["d"]
    lines = {cls: stack.tolist() for cls, stack in gates.lines.items()}
    places, exps = {cls: iter(range(len(pos))) for cls, pos in gates.at.items()}, []
    for i, code in enumerate(gates.order.tolist()):
        cls = GATE_CLASSES[code]
        j = next(places[cls])  # the gate's place in its class
        try:
            if cls == "exp":
                a, b, s = _exp_parts(entries[j])
            elif cls == "diag":
                a, b, s = compile_diag(d[j], *lines["diag"][j])
            elif isinstance(logs[i], MgsimError):
                raise logs[i]
            elif cls == "u1":
                a, b, s = u1_exponent(*logs[i])
            else:
                a, b, s = matrix_exponent(logs[i], lines[cls][j][0], tol)
        except MgsimError as exc:
            raise GateClassError(f"gate {i + 1} ({cls}): {exc}") from exc
        exps.append((sorted((key, complex(v)) for key, v in a.items() if v != 0),
                     sorted((key, complex(v)) for key, v in b.items() if v != 0), complex(s)))
    none = as_gates(())  # the empty stacks of the matrix classes
    return Gates(np.full(len(exps), _CODES["exp"], dtype=np.int8), none.lines, none.params,
                 *_exp_arrays(exps))


def _logarithms(gates: Gates, tol: float) -> dict:
    """Position -> the logarithm's coefficients of each gvw, mg12 and u1 gate, or the
    LogBranchError that refuses it: the 11 generator coefficients of a gvw or mg12
    gate, the u1_coords of a u1 gate."""
    at = gates.at
    out = {}
    pos = np.concatenate([at["gvw"], at["mg12"]])
    if len(pos):
        coeffs, faults = matchgate.span_logs(matchgate.swap_convention(gates.matrices(pos)), tol)
        out.update(zip(pos.tolist(), [c if f is None else f for c, f in zip(coeffs, faults)]))
    if len(at["u1"]):
        L, faults = matchgate.principal_logs(gates.params["u1"]["U"])
        out.update(zip(at["u1"].tolist(), [c if f is None else f
                                           for c, f in zip(u1_coords(L).T, faults)]))
    return out


def _render_state_token(pair) -> str:
    a, b = complex(pair[0]), complex(pair[1])
    for tok, val in _STATE_TOKENS.items():
        if a == complex(val[0]) and b == complex(val[1]):
            return tok
    return f"({a.real!r},{a.imag!r})({b.real!r},{b.imag!r})"


def render(circuit: Circuit) -> str:
    """Canonical text form, written from the record; parse(render(c)) reproduces c exactly.
    An exp line writes a by (mu, nu), then b by sigma, then s unless it is 0."""
    gates = circuit.gates
    out = [None] * len(gates)
    for cls, matrices in _LINE_MATRICES.items():
        written = {"gvw": 1, "diag": 2}.get(cls, 0)  # the line numbers a gate line gives
        stacks = [stack.reshape((-1,) + shape).tolist()
                  for stack, (_, _, shape) in zip(gates.params[cls].values(), matrices)]
        for i, lines, *values in zip(gates.at[cls].tolist(), gates.lines[cls].tolist(), *stacks):
            args = [str(line) for line in lines[:written]]
            args += [prefix + _render_matrix(m) for (prefix, _, _), m in zip(matrices, values)]
            out[i] = f"gate {cls} " + " ".join(args)
    for i, entries in zip(gates.at["exp"].tolist(), gates.exp_entries()):
        a, b, s = _exp_parts(entries)
        args = [f"a:{mu},{nu}={render_complex(v)}" for (mu, nu), v in sorted(a.items())]
        args += [f"b:{sigma}={render_complex(v)}" for sigma, v in sorted(b.items())]
        out[i] = " ".join(["gate exp"] + args + [f"s={render_complex(s)}"] * (s != 0))
    state = " ".join(_render_state_token(p) for p in circuit.state)
    return "\n".join([f"circuit n={circuit.n}", f"state {state}", *out, f"measure {circuit.k}\n"])


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
