#!/usr/bin/env python3
"""mgsim benchmark: seeded `.mg` workloads timed end to end through the CLI.

    python3 perfbench/run.py --workload wide|deep|crosscheck|all --seed N \
        --seconds S --trace 0|1

Run it from the repository root (any checkout that holds `src/mgsim`).  For
each workload it renders a seeded pass of circuits to `.mg` files, then
starts one workload process (perfbench/worker.py) with BLAS pinned to one
thread.  That process is a single client in a closed loop: it sends the next
circuit to `mgsim.cli.main(["run" | "compare", file])` only after the previous
one returned, and it checks every output.

`--trace 0` prints the end-to-end metrics; `--trace 1` prints per-layer
metrics from a traced pass, with spans around each public module call, and
writes the spans to `.perfbench_out/`.  The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics.  The line
before it holds the inputs' sha256, the environment and the raw counts.
Exit status is 0 when a result is printed, 2 on a usage or set-up error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import scipy

import gen

# Thread-count variables of the BLAS libraries numpy may load.  The workload
# process runs with each set to 1, so a timing does not depend on how many
# cores BLAS finds or on what else runs on them.
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUPS = 7  # set-up samples per run, before and after the timed loop; the median is reported
# Every circuit is timed this many times, in separate passes.  wide's pass is
# short and its times swing most with other load on the machine, so it is
# timed more often; one pass of crosscheck or deep takes most of a run.
PASSES = {"wide": 10, "deep": 2, "crosscheck": 2}
DEADLINE_S = 170.0  # a run that has not ended by then is stopped and fails
TAIL_BEYOND = 10  # timings the tail percentile leaves above it


class SetupError(Exception):
    """The checkout or the workload process cannot produce a result."""


# ------------------------------------------------------------- environment

def environment() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():  # a checkout made by export has no commit to report
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: _child_env().get(v) for v in BLAS_ENV},
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
    }


# ---------------------------------------------------------- workload process

def _write_inputs(inp: gen.Inputs, work: Path) -> dict:
    def items(circs):
        out = []
        for c in circs:
            path = work / f"{c.name}.mg"
            path.write_text(gen.render(c), encoding="utf-8")
            out.append({"name": c.name, "path": str(path), "cmd": c.cmd, "n": c.n, "k": c.k,
                        "unitary": c.unitary, "gates": len(c.gates),
                        "classes": Counter(g.cls for g in c.gates),
                        "expected": c.expected_mirror() if c.mirror else None})
        return out

    return {"warmup": items(inp.warmup), "timed": items(inp.timed),
            "sentinels": items(inp.sentinels)}


def _child_env() -> dict:
    env = dict(os.environ, **{v: "1" for v in BLAS_ENV})
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


def _run_worker(manifest: Path, result: Path, mode: str | None, deadline: float) -> float:
    """Run one workload process to its end; return seconds from spawn to its `ready`."""
    argv = [sys.executable, str(HERE / "worker.py"), str(manifest), str(result)]
    if mode:
        argv.append(mode)
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=_child_env(), cwd=str(ROOT))
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            ready = (sel.select(timeout=max(deadline - time.monotonic(), 0.1))
                     and proc.stdout.readline().strip() == b"ready")
        setup = time.perf_counter() - t0
        if not ready:
            raise SetupError("workload process did not finish set-up")
        proc.wait(timeout=max(deadline - time.monotonic(), 0.1))
    except subprocess.TimeoutExpired:
        raise SetupError("workload process overran the run deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise SetupError(f"workload process failed with status {proc.returncode}")
    return setup


def drive(workload: str, seed: int, seconds: float, trace: bool, deadline: float):
    """Render inputs, time set-up SETUPS times, run the workload; return raw results.

    Half the extra set-ups run before the workload process and half after
    it, so that a slow spell of the machine falls on few of them.
    """
    inp = gen.inputs(workload, seed)
    work_root = ROOT / ".perfbench_work"
    work = work_root / f"{workload}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        manifest = {"src": str(SRC), "cmd": gen.command(workload), "seconds": seconds,
                    "passes": PASSES[workload], **_write_inputs(inp, work)}
        mpath, rpath = work / "manifest.json", work / "result.json"
        mpath.write_text(json.dumps(manifest), encoding="utf-8")
        before = (SETUPS - 1) // 2
        setups = [_run_worker(mpath, rpath, "--setup-only", deadline) for _ in range(before)]
        setups.append(_run_worker(mpath, rpath, "--trace" if trace else None, deadline))
        result = json.loads(rpath.read_text(encoding="utf-8"))
        setups += [_run_worker(mpath, rpath, "--setup-only", deadline)
                   for _ in range(SETUPS - 1 - before)]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work_root.is_dir() and not any(work_root.iterdir()):
            work_root.rmdir()
    return inp, manifest, setups, result


# ------------------------------------------------------------------ metrics

def tail_rank(samples: int) -> float:
    """The highest percentile that leaves TAIL_BEYOND of ``samples`` timings above it."""
    return 1.0 - TAIL_BEYOND / samples


def at_rank(values, p: float) -> tuple[float, int]:
    """Nearest-rank value at percentile p and the number of samples above it."""
    xs = sorted(values)
    idx = max(math.ceil(p * len(xs) - 1e-9) - 1, 0)  # p * len is often integral
    return xs[idx], len(xs) - idx - 1


def end_to_end(manifest, setups, result) -> dict:
    """End-to-end metrics over the pass's circuits.

    Each circuit's time is the best of its first PASSES timings, taken in
    separate passes: other load on the machine only ever adds time, and the
    fixed count keeps a slow and a fast program on equal terms.  Throughput
    is circuits passed per pass over the summed best times: what the closed
    loop sustains without outside interference.  The latencies are taken
    over all those timings; failed circuits count with the time they took.
    """
    passes = manifest["passes"]
    by_circuit = {}
    for op in result["ops"]:
        ops = by_circuit.setdefault(op["name"], [])
        if len(ops) < passes:
            ops.append(op)
    secs = [min(op["s"] for op in ops) for ops in by_circuit.values()]
    oks = [statistics.fmean(op["ok"] for op in ops) for ops in by_circuit.values()]
    sentinel_oks = [op["ok"] for op in result["sentinels"]]
    samples = [op["s"] for ops in by_circuit.values() for op in ops]
    p = tail_rank(len(samples))
    tail, beyond = at_rank(samples, p)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "circuits_per_s": (sum(oks) / sum(secs), "1/s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "pass_frac": ((sum(oks) + sum(sentinel_oks)) / (len(oks) + len(sentinel_oks)), "frac"),
    }
    # Latencies are reported with every run but are not among the metrics a
    # change is held to: on light circuits they move with the load other
    # tenants put on a shared machine more than any bound allows.
    latency = {"circuit_s_p50": (statistics.median(samples), "s"),
               "circuit_s_tail": (tail, "s")}
    names = list(by_circuit)
    detail = {"latency": {k: {"value": v, "unit": u} for k, (v, u) in latency.items()},
              "tail_percentile": 100 * p, "tail_timings_beyond": beyond,
              "circuits": len(secs), "timed_ops": len(result["ops"]), "loop_s": result["loop_s"],
              "loop_circuits_per_s": sum(op["ok"] for op in result["ops"]) / result["loop_s"],
              "setup_samples_s": setups, "failed_frac": 1 - metrics["pass_frac"][0],
              "slowest": sorted(zip(secs, names), reverse=True)[:5]}
    return metrics, detail


def _self_time(spans, idx: int, children) -> float:
    _, _, _, t0, t1 = spans[idx]
    return (t1 - t0) - sum(spans[c][4] - spans[c][3] for c in children.get(idx, ()))


def per_layer(manifest, result) -> dict:
    spans = result["spans"]
    timed = manifest["timed"]
    children = {}
    for i, s in enumerate(spans):
        if s[2] is not None:
            children.setdefault(s[2], []).append(i)
    busy = {}
    for name, _, _, t0, t1 in spans:
        busy[name] = busy.get(name, 0.0) + (t1 - t0)
    gates = sum(it["gates"] for it in timed)
    by_class = {c: sum(it["classes"].get(c, 0) for it in timed) for c in gen.CLASSES}
    quad_s = {}
    for name, cid, _, t0, t1 in spans:
        if name == "engine_quadratic.simulate":
            quad_s.setdefault(timed[cid]["n"], []).append(t1 - t0)

    def per_gate(total, count):
        return 1e6 * total / count if count else 0.0

    return {
        "compile.busy_s": (busy.get("circuits.compile", 0.0), "s"),
        "compile.us_per_gate": (per_gate(busy.get("circuits.compile", 0.0), gates), "us"),
        **{f"compile.{c}.us_per_gate": (per_gate(busy.get(f"circuits.compile.{c}", 0.0),
                                                 by_class[c]), "us") for c in gen.CLASSES},
        "parse.busy_s": (busy.get("circuits.parse", 0.0), "s"),
        "parse.us_per_gate": (per_gate(busy.get("circuits.parse", 0.0), gates), "us"),
        "quadratic.busy_s": (busy.get("engine_quadratic.simulate", 0.0), "s"),
        "quadratic.errors": (result["quadratic_errors"], "count"),
        "quadratic.peak_alloc_mb": (result["peak_alloc_mb"]["quadratic"], "MB"),
        **{f"quadratic.s.n{n}": (statistics.median(quad_s[n]) if n in quad_s else 0.0, "s")
           for n in gen.WIDE_NS},
        "oracle.busy_s": (busy.get("oracle.expectation_heisenberg", 0.0), "s"),
        "oracle.peak_alloc_mb": (result["peak_alloc_mb"]["oracle"], "MB"),
        "lie.busy_s": (busy.get("engine_lie.simulate", 0.0), "s"),
        "cli.busy_s": (sum(_self_time(spans, i, children)
                           for i, s in enumerate(spans) if s[0] == "circuit"), "s"),
        "trace.overhead_frac": (result["traced_wall"] / result["untraced_wall"] - 1, "frac"),
        **{f"gates.{c}": (by_class[c], "count") for c in gen.CLASSES},
        **{f"circuits.n{n}": (sum(it["n"] == n for it in timed), "count")
           for n in all_line_counts()},
    }


def all_line_counts() -> list[int]:
    return sorted({s.n for w in gen.WORKLOADS for s in gen.slots(w)})


# --------------------------------------------------------------------- main

def tally(checked) -> tuple[int, list[str]]:
    """Circuits attempted and one failure line per failed circuit.

    These count circuits, not loop iterations: the pass and the sentinels are
    fixed by the seed, while how often the timed loop goes round them depends
    on the machine's speed.  A circuit fails if any of its runs failed.
    """
    why = {}
    for op in checked:
        if op["ok"]:
            why.setdefault(op["name"], None)
        elif why.get(op["name"]) is None:
            why[op["name"]] = op["why"]
    return len(why), [f"{name}: {r}" for name, r in why.items() if r is not None]


def run_workload(workload: str, seed: int, seconds: float, trace: bool, deadline: float,
                 env: dict) -> dict:
    inp, manifest, setups, result = drive(workload, seed, seconds, trace, deadline)
    if trace:
        checked = result["ops"] + result["traced"] + result["sentinels"]
        metrics = per_layer(manifest, result)
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        spans_path = out / f"spans-{workload}-seed{seed}.json"
        spans_path.write_text(json.dumps(
            {"fields": ["name", "circuit", "parent", "start_s", "end_s"],
             "circuits": [it["name"] for it in manifest["timed"]],
             "spans": result["spans"]}), encoding="utf-8")
        detail = {"spans_file": str(spans_path.relative_to(ROOT)),
                  "untraced_wall_s": result["untraced_wall"],
                  "traced_wall_s": result["traced_wall"]}
    else:
        checked = result["ops"] + result["sentinels"]
        metrics, detail = end_to_end(manifest, setups, result)
    attempted, failures = tally(checked)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "inputs_sha256": inp.sha256(), "environment": env,
        "circuits_by_n": Counter(it["n"] for it in manifest["timed"]),
        "gates_by_class": {c: sum(it["classes"].get(c, 0) for it in manifest["timed"])
                           for c in gen.CLASSES},
        "sentinels": len(result["sentinels"]), **detail,
        "failures": failures[:20], "failures_total": len(failures),
    }
    # A failed circuit is one the CLI refused (non-zero exit) or answered wrongly;
    # `correct` is false only when some answer was wrong.
    return {"record": record, "correct": all(op["ok"] or op["refused"] for op in checked),
            "attempted": attempted, "failed": len(failures), "metrics": metrics}


def _line(res: dict, prefix: str = "") -> dict:
    metrics = {prefix + k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()}
    return {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "mgsim" / "cli.py").is_file():
        print(f"error: no mgsim sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    env = environment()
    names = gen.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            if args.workload == "all":
                deadline = time.monotonic() + DEADLINE_S
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                         deadline, env)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name, res in results.items():
        print(json.dumps(res["record"]))
        rows = [(k, v, u) for k, (v, u) in res["metrics"].items()]
        rows += [(k, m["value"], m["unit"])
                 for k, m in res["record"].get("latency", {}).items()]
        for metric, value, unit in rows:
            print(f"{name:>10}  {metric:<26} {value:>14.6g} {unit}", file=sys.stderr)
    if len(results) == 1:
        print(json.dumps(_line(results[names[0]])))
    else:
        for name, res in results.items():
            print(json.dumps({"workload": name, **_line(res)}))
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {k: v for name, r in results.items()
                        for k, v in _line(r, name + ".")["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
