"""Tests of the benchmark itself: seeded generation and the output checks.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import sys
from pathlib import Path

import pytest

import check
import gen
import run

sys.path.insert(0, str(run.SRC))

from mgsim import circuits  # noqa: E402
from mgsim.cli import main as cli_main  # noqa: E402


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generation_is_deterministic_per_seed(workload):
    a, b, c = gen.inputs(workload, 7), gen.inputs(workload, 7), gen.inputs(workload, 8)
    assert a.sha256() == b.sha256()
    assert [gen.render(x) for x in a.all()] == [gen.render(x) for x in b.all()]
    assert a.sha256() != c.sha256()
    # the seed changes values only: every run times the same shapes
    assert [(x.n, tuple(g.cls for g in x.gates)) for x in a.timed] == \
           [(x.n, tuple(g.cls for g in x.gates)) for x in c.timed]


def test_workload_shapes_match_their_description():
    wide = gen.slots("wide")
    assert [s.n for s in wide[:3]] == list(gen.WIDE_NS)
    assert all(len(s.classes) == gen.WIDE_GATES and s.unitary for s in wide)
    assert {c for s in wide for c in s.classes} == {"gvw", "diag", "exp"}
    deep = gen.slots("deep")
    assert all(s.n == gen.DEEP_N for s in deep)
    assert [s.unitary for s in deep[:4]] == [True, False, True, False]
    assert {c for s in deep for c in s.classes} == set(gen.CLASSES)
    cross = gen.slots("crosscheck")
    assert {s.n for s in cross} == set(range(1, gen.CROSS_MAX_N + 1))
    assert all(1 <= len(s.classes) <= gen.CROSS_MAX_DEPTH for s in cross)
    assert {s.unitary for s in cross} == {True, False}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_rendered_files_parse_as_generated(workload):
    inp = gen.inputs(workload, 3)
    for c in inp.warmup + inp.timed[:4] + inp.sentinels:
        parsed = circuits.parse(gen.render(c))
        assert (parsed.n, parsed.k, len(parsed.gates), parsed.unitary) == \
               (c.n, c.k, len(c.gates), c.unitary)


def _cli(tmp_path: Path, c: gen.Circuit):
    path = tmp_path / f"{c.name}.mg"
    path.write_text(gen.render(c))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main([c.cmd, str(path)])
    item = {"n": c.n, "k": c.k, "unitary": c.unitary,
            "expected": c.expected_mirror() if c.mirror else None}
    return item, code, out.getvalue()


@pytest.fixture(scope="module")
def mirror_output(tmp_path_factory):
    c = gen.inputs("deep", 5).sentinels[0]
    assert abs(c.expected_mirror()) > 1e-3  # a flipped sign must be visible
    return _cli(tmp_path_factory.mktemp("mirror"), c)


@pytest.fixture(scope="module")
def compare_output(tmp_path_factory):
    c = next(x for x in gen.inputs("crosscheck", 5).timed if x.n == 4)
    return _cli(tmp_path_factory.mktemp("compare"), c)


def test_real_outputs_pass(mirror_output, compare_output):
    assert check.check_run(*mirror_output) is None
    assert check.check_compare(*compare_output) is None


def _plant(stdout: str, edit) -> str:
    out = json.loads(stdout)
    edit(out)
    return json.dumps(out)


def _flip(pair):
    pair[0] = -pair[0]


def test_run_check_flags_planted_wrong_values(mirror_output):
    item, code, stdout = mirror_output
    flipped = _plant(stdout, lambda o: _flip(o["expectation"]))
    nan = _plant(stdout, lambda o: o.update(expectation=[float("nan"), 0.0]))
    assert "mirror" in check.check_run(item, 0, flipped)
    assert "non-finite" in check.check_run(item, 0, nan)
    assert check.check_run(item, 1, "") == "exit 1"
    assert check.check_run(item, None, "", "ValueError: boom").startswith("exception")
    assert check.check_run(item, 0, "not json") is not None
    unitary = dict(item, expected=None, unitary=True)
    assert "non-real" in check.check_run(unitary, 0, _plant(
        stdout, lambda o: o.update(expectation=[0.5, 0.25])))
    assert "> 1" in check.check_run(unitary, 0, _plant(
        stdout, lambda o: o.update(expectation=[1.5, 0.0])))


def test_compare_check_flags_planted_wrong_values(compare_output):
    item, code, stdout = compare_output
    flipped = _plant(stdout, lambda o: _flip(o["engines"]["quadratic"]["expectation"]))
    nan = _plant(stdout, lambda o: o["engines"]["dense"].update(expectation=[float("nan"), 0.0]))
    assert check.check_compare(item, 0, flipped) is not None
    assert "non-finite" in check.check_compare(item, 0, nan)
    assert check.check_compare(item, 1, "") == "exit 1"

    def nudge(name, by):
        return _plant(stdout, lambda o: o["engines"][name]["expectation"].__setitem__(
            0, o["engines"][name]["expectation"][0] + by))

    # gaps just past the criterion-7 tolerances, with `agree` left true
    assert "lie vs quadratic" in check.check_compare(item, 0, nudge("lie", 5e-9))
    assert "quadratic vs oracle" in check.check_compare(item, 0, nudge("dense", 5e-8))


def test_end_to_end_takes_each_circuits_best_of_its_first_passes():
    n = 15
    timed = [{"name": f"c{i}"} for i in range(n)]
    ops = []
    for rep, slow in enumerate((2.0, 1.0, 0.5)):  # a third pass beyond `passes` is ignored
        ops += [{"name": f"c{i}", "s": slow * (i + 1), "ok": i % 3 != 0 or rep > 0}
                for i in range(n)]
    result = {"ops": ops, "sentinels": [{"ok": False}], "loop_s": 1.0, "peak_rss_mb": 7.0}
    metrics, detail = run.end_to_end({"timed": timed, "passes": 2}, [0.3, 0.1, 0.2], result)
    best = [1.0 * (i + 1) for i in range(n)]
    oks = [1.0 if i % 3 else 0.5 for i in range(n)]
    samples = sorted(best + [2 * b for b in best])  # every timing of the first two passes
    assert detail["latency"]["circuit_s_p50"]["value"] == pytest.approx(statistics.median(samples))
    assert detail["latency"]["circuit_s_tail"]["value"] == samples[19]  # 10 of 30 above it
    assert metrics["circuits_per_s"][0] == pytest.approx(sum(oks) / sum(best))
    assert metrics["pass_frac"][0] == pytest.approx(sum(oks) / (n + 1))
    assert metrics["setup_s"][0] == 0.2
    assert detail["tail_timings_beyond"] == run.TAIL_BEYOND


def test_tail_percentile_leaves_ten_timings_above_it():
    for workload in gen.WORKLOADS:
        n = run.PASSES[workload] * len(gen.slots(workload))
        p = run.tail_rank(n)
        assert p >= 0.5  # a tail, not a body: each run gives enough timings
        for samples in (n, n + 1, 2 * n + 5):
            _, beyond = run.at_rank(range(samples), p)
            assert beyond >= run.TAIL_BEYOND
        assert run.at_rank(range(n), p)[1] == run.TAIL_BEYOND


def test_tally_counts_each_circuit_once_however_often_it_ran():
    def op(name, ok):
        return {"name": name, "ok": ok, "why": None if ok else "exit 1"}

    # a: passed both runs; b: failed on its second; c: failed its only run
    ops = [op("a", True), op("b", True), op("c", False), op("a", True), op("b", False)]
    attempted, failures = run.tally(ops)
    assert attempted == 3
    assert failures == ["b: exit 1", "c: exit 1"]
    # one more lap of the loop changes neither count
    assert run.tally(ops + ops[:3]) == (attempted, failures)
