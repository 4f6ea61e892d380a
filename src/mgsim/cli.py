"""Command-line interface: run, verify-matchgate, classify, compare, bench.

All results go to stdout as a single JSON object carrying "schema": 1;
diagnostics go to stderr.  Complex values are encoded as [re, im] pairs.
Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import sys
import time

import numpy as np

from . import circuits, engine_lie, engine_quadratic, matchgate, oracle, sampling
from .errors import MgsimError

SCHEMA = 1

ENGINES = ("quadratic", "lie", "dense")


def _c2j(val: complex):
    return [float(val.real), float(val.imag)]


def _emit(payload: dict) -> int:
    sys.stdout.write(json.dumps({"schema": SCHEMA, **payload}) + "\n")
    return 0


def _load_matrix(path: str) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:  # also ints of 4300+ digits, deep nesting
            raise MgsimError(f"{path}: invalid JSON: {exc}") from None
    if isinstance(data, dict):
        data = data.get("matrix", data.get("B"))
    if not (isinstance(data, list) and data and all(isinstance(row, list) for row in data)):
        raise MgsimError(f"{path}: expected a list of rows or an object with a 'matrix' key")
    if len({len(row) for row in data}) != 1:
        raise MgsimError(f"{path}: ragged matrix rows")

    def entry(e):
        parts = e if isinstance(e, list) else [e, 0]
        if len(parts) != 2:
            raise MgsimError(f"{path}: complex entries must be [re, im] pairs")
        if not all(type(x) in (int, float) for x in parts):  # a JSON bool is no number
            raise MgsimError(f"{path}: non-numeric matrix entry {e!r}")
        try:
            val = complex(parts[0], parts[1])
        except OverflowError:  # an int beyond the float range
            raise MgsimError(f"{path}: matrix entry too large for a float") from None
        if not cmath.isfinite(val):
            raise MgsimError(f"{path}: non-finite matrix entry {e!r}")
        return val

    return np.array([[entry(e) for e in row] for row in data], dtype=complex)


def _result_payload(res) -> dict:
    return {
        "expectation": _c2j(res.expectation),
        "p0": res.p0,
        "p1": res.p1,
        "engine": res.engine,
        "gates": res.gates,
        "ms": res.ms,
    }


_SIMULATORS = {"quadratic": engine_quadratic.simulate, "lie": engine_lie.simulate}


def _run_engine(engine: str, circ, tol: float, mode: str = oracle.INVERSE):
    """One engine's result on a parsed circuit.  The quadratic engine and the oracle read
    matrix gates off the parsed specs; only the Lie engine works on the compiled exp gates."""
    state = circ.input_state()
    gates = circuits.compile(circ, tol=tol) if engine == "lie" else circ.gates
    if engine in _SIMULATORS:
        return _SIMULATORS[engine](gates, state, circ.k, unitary=circ.unitary, tol=tol)
    t0 = time.perf_counter()
    value = oracle.expectation_heisenberg(gates, state, circ.k, mode=mode)
    ms = (time.perf_counter() - t0) * 1e3
    return engine_quadratic.SimResult.from_value(value, "dense", len(gates), ms,
                                                 circ.unitary, tol)


def cmd_run(args) -> int:
    with open(args.circuit, encoding="utf-8") as fh:
        circ = circuits.parse(fh.read(), tol=args.tol)
    if args.heisenberg_mode == oracle.ADJOINT and args.engine != "dense" and not circ.unitary:
        raise MgsimError(
            "--heisenberg-mode adjoint on a non-unitary circuit requires --engine dense"
        )
    res = _run_engine(args.engine, circ, args.tol, args.heisenberg_mode)
    return _emit({**_result_payload(res), "n": circ.n, "k": circ.k, "unitary": circ.unitary})


def cmd_verify_matchgate(args) -> int:
    B = _load_matrix(args.matrix)
    if B.shape != (4, 4):
        raise MgsimError(f"expected a 4x4 matrix, got {B.shape}")
    if args.physical:
        B = matchgate.swap_convention(B)
    vals = matchgate.identities(B)
    if not np.isfinite(vals).all():
        raise MgsimError(f"matchgate identity values overflow: entries up to "
                         f"{np.abs(B).max():.3e} are too large to square")
    return _emit({
        "is_matchgate": matchgate.is_matchgate(B, tol=args.tol),
        "identities": [_c2j(v) for v in vals],
        "eigenvector_predicate": matchgate.eigenvector_predicate(B, tol=args.tol),
    })


def cmd_classify(args) -> int:
    B = _load_matrix(args.matrix)
    return _emit({"classes": circuits.classify(B)})


def cmd_compare(args) -> int:
    with open(args.circuit, encoding="utf-8") as fh:
        circ = circuits.parse(fh.read(), tol=args.tol)
    engines = ["quadratic", "lie"]
    if circ.n <= oracle.MAX_LINES:
        engines.append("dense")
    results = {eng: _run_engine(eng, circ, args.tol) for eng in engines}
    values = [r.expectation for r in results.values()]
    dev = max(abs(u - v) for u in values for v in values)
    return _emit({
        "engines": {name: _result_payload(r) for name, r in results.items()},
        "max_deviation": dev,
        "agree": bool(dev <= max(args.tol, 1e-9) * max(1.0, max(abs(v) for v in values))),
    })


def _parse_and_simulate(text: str):
    """The quadratic engine's result on .mg text, with the seconds taken by parse and
    by parse plus simulate."""
    t0 = time.perf_counter()
    circ = circuits.parse(text)
    parsed = time.perf_counter()
    res = engine_quadratic.simulate(circ.gates, circ.input_state(), circ.k, unitary=circ.unitary)
    return res, parsed - t0, time.perf_counter() - t0


def cmd_bench(args) -> int:
    # each random circuit is rendered to .mg text first, so that a row times what
    # `mgsim run` pays after reading the file: parse, then simulate.  Each row runs
    # once untimed first, so that no row pays the first call's one-off costs
    rng = np.random.default_rng(args.seed)
    rows = []
    for n in args.n:
        text = circuits.render(sampling.random_circuit(n, args.gates, rng,
                                                       classes=("gvw", "diag", "exp")))
        _parse_and_simulate(text)
        res, parse_s, dt = _parse_and_simulate(text)
        rows.append({"n": n, "gates": args.gates, "seconds": dt, "parse_s": parse_s,
                     "gates_per_sec": args.gates / dt, "p0": res.p0})
        print(f"n={n}: {dt:.3f} s ({parse_s:.3f} s parse), {args.gates / dt:.0f} gates/s",
              file=sys.stderr)
    exponent = None
    if len(args.n) >= 2:
        logn = np.log([r["n"] for r in rows])
        logt = np.log([max(r["seconds"], 1e-9) for r in rows])
        exponent = float(np.polyfit(logn, logt, 1)[0])
        print(f"fitted time ~ n^{exponent:.2f}", file=sys.stderr)
    return _emit({"engine": "quadratic", "runs": rows, "fitted_exponent": exponent})


def _line_counts(text: str) -> list[int]:
    """A comma-separated list of line counts, each >= 1."""
    try:
        sizes = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None
    if min(sizes) < 1:
        raise argparse.ArgumentTypeError(f"line counts must be >= 1, got {text!r}")
    return sizes


def _gate_count(text: str) -> int:
    """A gate count >= 1."""
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"gate count must be >= 1, got {text!r}")
    return count


def _tolerance(text: str) -> float:
    """A finite tolerance >= 0."""
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not (math.isfinite(tol) and tol >= 0):
        raise argparse.ArgumentTypeError(f"tolerance must be finite and >= 0, got {text!r}")
    return tol


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; each argv gets a fresh namespace."""
    top = argparse.ArgumentParser(prog="mgsim",
                                  description="Matchgate circuit simulator and verifier")
    sub = top.add_subparsers(dest="command", required=True)

    def tol(p):
        p.add_argument("--tol", type=_tolerance, default=1e-9)

    p = sub.add_parser("run", help="simulate a circuit file")
    p.add_argument("circuit")
    p.add_argument("--engine", choices=ENGINES, default="quadratic")
    tol(p)
    p.add_argument("--heisenberg-mode", choices=(oracle.INVERSE, oracle.ADJOINT),
                   default=oracle.INVERSE, dest="heisenberg_mode")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("verify-matchgate", help="check the ten identities on a JSON matrix")
    p.add_argument("matrix")
    p.add_argument("--physical", action="store_true",
                   help="relabel basis 1,2,3,4 -> 1,3,2,4 before checking")
    tol(p)
    p.set_defaults(func=cmd_verify_matchgate)

    p = sub.add_parser("classify", help="report which gate classes a JSON matrix fits")
    p.add_argument("matrix")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("compare", help="run all engines on a circuit and compare")
    p.add_argument("circuit")
    tol(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("bench", help="time parse and the quadratic engine on random circuits")
    p.add_argument("--n", type=_line_counts, default="50,100,200",
                   help="comma-separated line counts")
    p.add_argument("--gates", type=_gate_count, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)

    for p in sub.choices.values():
        p.set_defaults(usage_error=p.error)
    return top


def main(argv=None) -> int:
    args, extra = build_parser().parse_known_args(argv)
    if extra:
        # a flag the subcommand lacks gets that subcommand's usage line, like a bad value
        args.usage_error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        # an overflowing gate is reported by the finite guard as one error line,
        # not preceded by numpy's floating-point warnings
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except (MgsimError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
