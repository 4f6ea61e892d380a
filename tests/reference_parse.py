"""A frozen line-by-line reader of .mg files: the reference that ``circuits.parse`` is
compared against.

Each gate line is read on its own by ``_parse_gate`` and each state token by
``_parse_state_token``, converting every number where it stands, so the first fault
of a line is the first one met in reading it.  Before a line's own error is raised,
the class rules run on the gates above it, so the error reported is the first in the
file.  Only the data types and the class rules (``_rule_faults`` behind
``_raise_first_fault``, and the unitary test) come from ``mgsim.circuits``; what the
reader accepts, its values and its messages are fixed here.
"""

import cmath
import math

from mgsim.circuits import (GATE_CLASSES, Circuit, GateSpec, _gates_are_unitary,
                            _raise_first_fault, as_gates, exp_spec)
from mgsim.errors import ParseError

_STATE_TOKENS = {
    "0": (1.0, 0.0),
    "1": (0.0, 1.0),
    "+": (1 / math.sqrt(2), 1 / math.sqrt(2)),
    "-": (1 / math.sqrt(2), -1 / math.sqrt(2)),
    "i": (1 / math.sqrt(2), 1j / math.sqrt(2)),
    "-i": (1 / math.sqrt(2), -1j / math.sqrt(2)),
}


def parse_complex(tok: str, lineno: int = 0) -> complex:
    try:
        val = complex(tok.replace("i", "j"))
    except ValueError:
        raise ParseError(f"bad complex literal {tok!r}", lineno) from None
    if not (cmath.isfinite(val)):
        raise ParseError(f"non-finite complex literal {tok!r}", lineno)
    return val


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


def _parse_state(body: str, n: int, lineno: int) -> tuple:
    toks = body.split()
    if len(toks) != n:
        raise ParseError(f"state needs {n} tokens, got {len(toks)}", lineno)
    return tuple(_parse_state_token(t, lineno) for t in toks)


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
    a, b, s = {}, {}, 0j
    for (kind, idx), val in entries.items():
        if kind == "a":
            a[idx] = val
        elif kind == "b":
            b[idx] = val
        else:
            s = val
    return exp_spec(a, b, s)


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


def _read_gates(lines, n: int, tol: float):
    """The gates of gate lines [(lineno, fields)], read one line at a time; on a line's
    own error the class rules run first on the gates read before it."""
    gates = []
    try:
        for lineno, fields in lines:
            gates.append(_parse_gate(fields, n, lineno))
    except ParseError:
        _raise_class_rules(lines, gates, tol)
        raise
    return _raise_class_rules(lines, gates, tol)


def _raise_class_rules(lines, gates, tol: float):
    """The record of the gates, after the class rules ran on it."""
    record = as_gates(gates)
    at = {cls: pos.tolist() for cls, pos in record.at.items()}
    _raise_first_fault(lines, at, record.params, tol)
    return record


def parse(text: str, tol: float = 1e-9) -> Circuit:
    """The circuit of a .mg text, read line by line, or the first error in the file."""
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
    gates = _read_gates(gate_lines, n, tol)
    return Circuit(n, state, gates, k, _gates_are_unitary(gates, max(tol, 1e-8)))
