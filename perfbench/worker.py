"""Workload process: one client, closed loop, through mgsim's public entry points.

Started by run.py with PYTHONPATH pointing at the checkout's `src` and BLAS
pinned to one thread.  Usage:

    python3 perfbench/worker.py MANIFEST RESULT [--setup-only | --trace]

It imports `mgsim.cli`, runs the manifest's warm-up circuits, then prints
`ready` on stdout, so that the parent can time set-up.  Without a flag it
then times the pass through `mgsim.cli.main` `passes` times over, goes on
until `seconds` have elapsed, checks the mirror sentinels untimed, and
writes RESULT.  With `--trace` it times each circuit of one pass untraced
and traced, in alternating order (a span around each call into a module's
public function),
runs a tracemalloc pass, and writes the spans too.
"""

from __future__ import annotations

import cmath
import contextlib
import dataclasses
import io
import json
import resource
import sys
import time
import tracemalloc
from pathlib import Path

TOL = 1e-9  # the CLI's default --tol


def _load_mgsim(src: str):
    import mgsim
    import mgsim.cli

    if Path(mgsim.__file__).resolve().parent.parent != Path(src).resolve():
        raise SystemExit(f"imported mgsim from {mgsim.__file__}, expected it under {src}")
    return mgsim.cli


# ------------------------------------------------------------------ untraced

def cli_op(cli, item: dict):
    """One circuit through `mgsim.cli.main`: (seconds, exit code, stdout, exception, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    code = error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([item["cmd"], item["path"]])
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # any escape from the CLI is a failed circuit
        error = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, code, out.getvalue(), error, err.getvalue()


def _record(check, item, dt, code, stdout, error, stderr):
    reason = check(item, code, stdout, error)
    if reason and stderr.strip():
        reason += f" ({stderr.strip().splitlines()[-1][:160]})"
    # refused: the CLI declined with a non-zero exit, as opposed to a wrong answer
    return {"name": item["name"], "n": item["n"], "s": dt, "ok": reason is None, "why": reason,
            "refused": reason is not None and error is None and code != 0}


def timed_loop(cli, check, items, seconds: float, min_ops: int):
    """Run items round-robin, at least ``min_ops`` of them and until ``seconds`` pass."""
    ops = []
    t0 = time.perf_counter()
    i = 0
    while i < min_ops or time.perf_counter() - t0 < seconds:
        item = items[i % len(items)]
        ops.append(_record(check, item, *cli_op(cli, item)))
        i += 1
    return ops, time.perf_counter() - t0


# -------------------------------------------------------------------- traced

class Tracer:
    """Spans kept in memory: (name, circuit id, parent index, start, end)."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.quadratic_errors = 0  # quadratic calls that raised or gave a non-finite value

    @contextlib.contextmanager
    def span(self, name: str, cid: int):
        idx = len(self.spans)
        self.spans.append([name, cid, self._stack[-1] if self._stack else None,
                           time.perf_counter(), None])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][4] = time.perf_counter()


def traced_op(mods, item: dict, cid: int, tr: Tracer):
    """The CLI's run/compare path, re-assembled from public module calls.

    Compile runs once per gate class on a sub-circuit of that class's gates;
    compile is per gate, so the class spans sum to one whole compile.
    Returns (seconds, exit code, stdout, exception, stderr) like cli_op.
    """
    circuits, engine_quadratic, engine_lie, oracle, errors = mods
    t0 = time.perf_counter()
    code, stdout, error, stderr = 0, "", None, ""
    with tr.span("circuit", cid):
        try:
            with open(item["path"], encoding="utf-8") as fh:
                text = fh.read()
            with tr.span("circuits.parse", cid):
                circ = circuits.parse(text, tol=TOL)
            gates = [None] * len(circ.gates)
            with tr.span("circuits.compile", cid):
                for cls in circuits.GATE_CLASSES:
                    idx = [i for i, g in enumerate(circ.gates) if g.cls == cls]
                    if not idx:
                        continue
                    sub = dataclasses.replace(circ, gates=tuple(circ.gates[i] for i in idx))
                    with tr.span(f"circuits.compile.{cls}", cid):
                        compiled = circuits.compile(sub, tol=TOL)
                    for i, g in zip(idx, compiled):
                        gates[i] = g
            state = circ.input_state()
            try:
                with tr.span("engine_quadratic.simulate", cid):
                    quad = engine_quadratic.simulate(gates, state, circ.k, unitary=circ.unitary,
                                                     tol=TOL)
            except Exception:
                tr.quadratic_errors += 1
                raise
            if not cmath.isfinite(quad.expectation):
                tr.quadratic_errors += 1
            if item["cmd"] == "run":
                payload = {"expectation": [quad.expectation.real, quad.expectation.imag],
                           "p0": quad.p0, "p1": quad.p1, "n": circ.n, "k": circ.k,
                           "unitary": circ.unitary}
            else:
                with tr.span("engine_lie.simulate", cid):
                    lie = engine_lie.simulate(gates, state, circ.k, unitary=circ.unitary, tol=TOL)
                with tr.span("oracle.expectation_heisenberg", cid):
                    dense = oracle.expectation_heisenberg(gates, state, circ.k)
                values = {"quadratic": quad.expectation, "lie": lie.expectation, "dense": dense}
                dev = max(abs(u - v) for u in values.values() for v in values.values())
                scale = max(1.0, max(abs(v) for v in values.values()))
                payload = {"engines": {k: {"expectation": [v.real, v.imag]}
                                       for k, v in values.items()},
                           "max_deviation": dev, "agree": bool(dev <= TOL * scale)}
            stdout = json.dumps(payload) + "\n"
        except (errors.MgsimError, OSError) as exc:  # the CLI's exit-1 path
            code, stderr = 1, f"error: {exc}"
        except Exception as exc:
            code, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, code, stdout, error, stderr


def peak_alloc_mb(mods, items):
    """Largest tracemalloc peak around one quadratic (and one oracle) call."""
    circuits, engine_quadratic, _, oracle, _ = mods
    peaks = {"quadratic": 0.0, "oracle": 0.0}
    for item in items:
        with open(item["path"], encoding="utf-8") as fh:
            circ = circuits.parse(fh.read(), tol=TOL)
        gates = circuits.compile(circ, tol=TOL)
        state = circ.input_state()
        calls = [("quadratic", lambda: engine_quadratic.simulate(
            gates, state, circ.k, unitary=circ.unitary, tol=TOL))]
        if item["cmd"] == "compare":
            calls.append(("oracle", lambda: oracle.expectation_heisenberg(gates, state, circ.k)))
        for name, call in calls:
            tracemalloc.start()
            try:
                call()
            except Exception:  # the failure itself is counted by the timed passes
                pass
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            peaks[name] = max(peaks[name], peak / 2**20)
    return peaks


# ---------------------------------------------------------------------- main

def main(argv) -> int:
    manifest_path, result_path = argv[0], argv[1]
    mode = argv[2] if len(argv) > 2 else ""
    with open(manifest_path, encoding="utf-8") as fh:
        m = json.load(fh)
    cli = _load_mgsim(m["src"])
    from mgsim import circuits, engine_lie, engine_quadratic, errors, oracle
    from check import CHECKS

    check = CHECKS[m["cmd"]]
    for item in m["warmup"]:
        cli_op(cli, item)
    sys.__stdout__.write("ready\n")
    sys.__stdout__.flush()
    if mode == "--setup-only":
        return 0

    timed, sentinels = m["timed"], m["sentinels"]
    result = {}
    if mode == "--trace":
        # Each circuit runs untraced and traced back to back, so that load from
        # elsewhere on the machine falls on both sums alike; the order
        # alternates, because a circuit's second run finds warmer caches.
        mods = (circuits, engine_quadratic, engine_lie, oracle, errors)
        tr = Tracer()
        ops, traced = [], []
        for cid, item in enumerate(timed):
            if cid % 2:
                traced.append(_record(check, item, *traced_op(mods, item, cid, tr)))
            ops.append(_record(check, item, *cli_op(cli, item)))
            if not cid % 2:
                traced.append(_record(check, item, *traced_op(mods, item, cid, tr)))
        wall = sum(op["s"] for op in ops)
        traced_wall = sum(op["s"] for op in traced)
        firsts = list({it["n"]: it for it in reversed(timed)}.values())
        result.update(untraced_wall=wall, traced_wall=traced_wall, traced=traced, spans=tr.spans,
                      quadratic_errors=tr.quadratic_errors,
                      peak_alloc_mb=peak_alloc_mb(mods, firsts))
    else:
        ops, wall = timed_loop(cli, check, timed, m["seconds"], m["passes"] * len(timed))
    result.update(ops=ops, loop_s=wall,
                  sentinels=[_record(check, it, *cli_op(cli, it)) for it in sentinels],
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
