"""Smoke test of the benchmark itself.

    python3 -m pytest setbench/test_smoke.py

Runs every workload for one cycle, with and without tracing, and checks
that every metric named in BENCHMARK.json is printed with its unit; that a
planted wrong answer is counted as failed and a planted malformed one as
malformed; that a problem's latency is its fastest pass and a failure in
any pass fails it; that a seed gives the same problems and verdicts in
every pass; that tracing wraps every binding it names and restores them;
and that without the program the benchmark exits non-zero without
printing a result.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd: Path, workload: str, trace: int, seconds: str = "0.1"):
    command = [sys.executable, *SPEC["command"][1:]]
    return subprocess.run(
        [*command, "--workload", workload, "--seed", "5", "--seconds", seconds,
         "--trace", str(trace)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
# every workload the command accepts, BENCHMARK.json's and noisy_fit alike
@pytest.mark.parametrize("workload", ["gmm_cluster", "noisy_fit", "build_roundtrip"])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"])
        assert f"# {m['name']} = " in proc.stdout
    assert "failed_share" in proc.stdout


def test_failed_share_counts_planted_wrong_answers(monkeypatch):
    import run  # pins BLAS and puts src/ on the path

    run._import_program()
    import setloss.extraction as extraction
    import workloads
    from setloss.extraction import ZeroSet

    workload = workloads.make_workload("build_roundtrip", run.OUT / "work")
    honest = run.run_cycles(workload, 5, 1)
    assert honest[0].verdict.passed and honest[1].verdict.passed

    original = extraction.extract_zero_set
    calls = []

    def planted(gm, seed=0):
        zeros = original(gm, seed)
        calls.append(gm)
        if len(calls) == 1:  # a well-formed but wrong point
            points = zeros.points.copy()
            points[0] += 0.5
            return ZeroSet(points, zeros.residuals, zeros.approximate, zeros.commutator_norm)
        if len(calls) == 2:  # one point short
            return ZeroSet(zeros.points[1:], zeros.residuals[1:], zeros.approximate,
                           zeros.commutator_norm)
        return zeros

    monkeypatch.setattr(extraction, "extract_zero_set", planted)
    records = run.run_cycles(workload, 5, 1)
    assert not records[0].verdict.passed and not records[0].verdict.malformed
    assert not records[1].verdict.passed and records[1].verdict.malformed
    assert [r.verdict.passed for r in records[2:]] == [r.verdict.passed for r in honest[2:]]

    honest_summary, summary = run.summarize(honest), run.summarize(records)
    assert summary["failed"] == honest_summary["failed"] + 2
    assert summary["malformed"] == honest_summary["malformed"] + 1
    assert summary["failed_share"] == summary["failed"] / summary["attempted"]


def test_fastest_pass_sets_latency_and_any_failing_pass_fails_the_problem():
    import run
    from workloads import Verdict

    ok, wrong, bad = Verdict(True), Verdict(False, "wrong"), Verdict(False, "bad", malformed=True)
    first = [run.Record("a", 0.3, ok), run.Record("b", 0.1, wrong), run.Record("c", 0.2, ok)]
    second = [run.Record("a", 0.2, ok), run.Record("b", 0.4, ok), run.Record("c", 0.5, bad)]
    merged = run.fastest([first, second])
    assert [r.seconds for r in merged] == [0.2, 0.1, 0.2]
    assert [r.verdict for r in merged] == [ok, wrong, bad]


def test_a_seed_gives_the_same_problems_and_verdicts_in_every_pass():
    import run

    run._import_program()
    import workloads

    workload = workloads.make_workload("build_roundtrip", run.OUT / "work")
    assert run.planned_cycles(workload, 0.1) == 1
    first, second = run.run_cycles(workload, 7, 1), run.run_cycles(workload, 7, 1)
    assert [r.cell for r in first] == [r.cell for r in second]
    assert [r.verdict for r in first] == [r.verdict for r in second]


def test_tracing_wraps_every_binding_and_restores_it():
    import run

    run._import_program()
    import layers
    from tracer import Tracer

    def bindings():
        return [vars(owner).get(attr) for owner, attr, _, _ in layers.WRAPS]

    before = bindings()
    with Tracer().installed(layers.WRAPS) as tracer:
        assert tracer.missing == []
        assert all(now is not then for now, then in zip(bindings(), before))
    assert all(now is then for now, then in zip(bindings(), before))


def test_exits_without_result_when_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, SPEC["workloads"][0]["name"], 0, seconds="1")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
