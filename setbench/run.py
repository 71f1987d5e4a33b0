"""The setloss benchmark: one workload, one seed, one run.

    python3 setbench/run.py --workload gmm_cluster --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Each workload runs as a closed loop in this one process, one problem at
a time with BLAS pinned to one thread.  Problems come in whole cycles of
the workload's cells (see ``workloads.py``).  A run makes the workload's
``passes`` passes over the same problems, and holds as many cycles as
those passes take in ``--seconds`` at the workload's nominal pace
(``cycle_seconds``): the problems, and so ``attempted`` and ``failed``,
follow from the seed and ``--seconds`` alone.  Every output is checked,
and a problem that raises or fails its check in any pass counts in
``failed``.  A problem's latency is its fastest pass: the host is shared,
and bursts of load from its other tenants only ever add time.

With ``--trace 0`` the end-to-end metrics are measured:

* ``problems_per_s``: problems attempted per second of their summed
  latencies (input generation and checks excluded);
* ``setup_s``: median over this process and four fresh ones, started
  before, between and after the passes, of the time to import
  ``setloss`` and ``setloss.cli`` and warm up (one ``describe``, which
  imports sympy, and one problem of the workload);
* ``peak_rss_mb``: peak resident memory of this process.

With ``--trace 1`` the run makes two passes over the same problems:
untraced, then traced through ``layers.WRAPS``.  The traced pass gives
the per-layer metrics of ``layers.UNITS``; the two passes give the
tracing overhead.  Spans are written to ``setbench_out/<workload>.spans.jsonl.gz``.

The report lines before the result carry what the result line has no
room for: failed_share; latency_ms_p50 and latency_ms_tail, the wall time
per problem at the median and at the highest percentile with at least
ten problems beyond it, with that percentile and the problem count;
set_distance_median and accuracy_median; the failure reasons; and the
commit, library versions and core count.  The two latencies are not in
the result line: a run holds too few problems of the cell they fall in
for either to repeat from seed to seed within a quarter of its median.
The last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``correct`` is false when an
output broke the program's own contract (wrong shape, label out of
range) or could not be checked; answers that are well formed but outside
the workload's tolerance, and problems that raise, count in ``failed``
only.
"""

import os
import sys
import time

T0 = time.perf_counter()

# pin BLAS before numpy is first imported; threadpoolctl is not assumed
for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / "setbench_out"
sys.path.insert(0, str(SRC))

WORKLOADS = ("gmm_cluster", "noisy_fit", "build_roundtrip")
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 60
TAIL_BEYOND = 10
WARMUP_SEED = 2**31 - 1

END_TO_END_UNITS = {
    "problems_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
TRACING_UNITS = {
    "tracing.problems_per_s_untraced": "1/s",
    "tracing.problems_per_s_traced": "1/s",
}


@dataclass
class Record:
    cell: str
    seconds: float
    verdict: object


def _import_program():
    """Import setloss from this checkout's src/, or exit without a result."""
    if not (SRC / "setloss" / "__init__.py").is_file():
        print(f"error: no setloss package under {SRC}", file=sys.stderr)
        sys.exit(2)
    import setloss
    import setloss.cli  # noqa: F401

    if Path(setloss.__file__).resolve().parent != (SRC / "setloss").resolve():
        print(f"error: setloss imported from {setloss.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def warm_up(workload) -> None:
    import numpy as np
    from setloss.generating_system import PointSet
    from setloss.loss_functions import build_transformed_loss

    # the first describe() carries the lazy sympy import
    build_transformed_loss(PointSet(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))).describe()
    workload.solve(workload.problem(WARMUP_SEED, 0, 0))


def planned_cycles(workload, seconds: float) -> int:
    """Whole cycles per pass: as many as all passes take in ``seconds`` at the nominal pace."""
    return max(1, int(seconds / (workload.passes * workload.cycle_seconds)))


def run_cycles(workload, seed: int, cycles: int, tracer=None) -> list[Record]:
    """One pass over the first ``cycles`` cycles of the seed's problems."""
    from sympy.core.cache import clear_cache
    from workloads import Verdict

    # every pass starts from an empty sympy cache, or a repeated describe()
    # would be served from the cache the first pass filled
    clear_cache()
    records: list[Record] = []
    for cycle in range(cycles):
        for slot in range(len(workload.cycle)):
            problem = workload.problem(seed, cycle, slot)
            if tracer is not None:
                tracer.problem_id = len(records)
                span = tracer.open("bench.problem")
            t0 = time.perf_counter()
            try:
                output, error = workload.solve(problem), None
            except Exception as exc:  # a raising problem is a failed problem
                output, error = None, exc
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.close(span)
            if error is not None:
                verdict = Verdict(False, f"raised {type(error).__name__}: {error}")
            else:
                try:
                    verdict = workload.check(problem, output)
                except Exception as exc:  # output the check cannot read
                    verdict = Verdict(False, f"unreadable output: {exc!r}", malformed=True)
            records.append(Record(problem.cell, elapsed, verdict))
    return records


def fastest(passes: list[list[Record]]) -> list[Record]:
    """Per problem, its fastest pass, with the verdict of a failing pass if any failed."""
    merged = []
    for solves in zip(*passes):
        # a malformed verdict outranks a merely failing one
        failing = sorted(
            (r.verdict for r in solves if not r.verdict.passed), key=lambda v: not v.malformed
        )
        merged.append(
            Record(
                solves[0].cell,
                min(r.seconds for r in solves),
                failing[0] if failing else solves[0].verdict,
            )
        )
    return merged


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND values beyond it."""
    ordered = sorted(values)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1], 100.0
    idx = len(ordered) - TAIL_BEYOND - 1
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


def summarize(records: list[Record]) -> dict:
    times = [r.seconds for r in records]
    failed = [r for r in records if not r.verdict.passed]
    distances = [r.verdict.distance for r in records if r.verdict.distance is not None]
    accuracies = [r.verdict.accuracy for r in records if r.verdict.accuracy is not None]
    tail_s, tail_pct = tail(times)
    return {
        "attempted": len(records),
        "failed": len(failed),
        "malformed": sum(r.verdict.malformed for r in records),
        "failed_share": len(failed) / len(records),
        "busy_s": sum(times),
        "problems_per_s": len(records) / sum(times),
        "latency_ms_p50": 1e3 * statistics.median(times),
        "latency_ms_tail": 1e3 * tail_s,
        "tail_percentile": tail_pct,
        "set_distance_median": statistics.median(distances) if distances else None,
        "accuracy_median": statistics.median(accuracies) if accuracies else None,
        "failures": [f"{r.cell}: {r.verdict.reason}" for r in failed],
    }


def measure_setup(workload_name: str, probes: int) -> list[float]:
    """Set-up times of ``probes`` fresh processes, one after the other."""
    samples = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload_name],
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed ({proc.returncode}): {proc.stderr[-2000:]}")
        samples.append(float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]))
    return samples


def environment() -> dict:
    import numpy
    import scipy
    import sympy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sympy": sympy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _report(label: str, summary: dict) -> None:
    print(
        f"# {label}: {summary['attempted']} problems, {summary['failed']} failed "
        f"(failed_share {summary['failed_share']:.4f} ratio), "
        f"{summary['problems_per_s']:.4f} problems/s over {summary['busy_s']:.2f} s busy, "
        f"p50 {summary['latency_ms_p50']:.3f} ms, tail {summary['latency_ms_tail']:.3f} ms "
        f"at p{summary['tail_percentile']:.2f} of {summary['attempted']}"
    )
    if summary["set_distance_median"] is not None:
        print(f"# {label}: set_distance_median {summary['set_distance_median']:.6g} coord")
    if summary["accuracy_median"] is not None:
        print(f"# {label}: accuracy_median {summary['accuracy_median']:.6f} ratio")
    for line in summary["failures"]:
        print(f"# {label}: failed {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    _import_program()
    import workloads

    workload = workloads.make_workload(args.workload, OUT / "work")
    warm_up(workload)
    setup_s = time.perf_counter() - T0
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    env = environment()
    print(f"# env: {json.dumps(env)}")
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env}
    if args.trace == 0:
        # the fresh set-ups are spread over the gaps before, between and
        # after the passes, so that their median spans the run's length
        # rather than the few seconds that the host may be busy at its start
        cycles = planned_cycles(workload, args.seconds)
        gaps = workload.passes + 1
        setup_samples = [setup_s]
        passes = []
        for gap in range(gaps):
            probes = SETUP_PROBES * (gap + 1) // gaps - SETUP_PROBES * gap // gaps
            setup_samples += measure_setup(args.workload, probes)
            if gap < workload.passes:
                passes.append(run_cycles(workload, args.seed, cycles))
        records = fastest(passes)
        summary = summarize(records)
        for i, one in enumerate(passes):
            print(
                f"# pass {i}: {sum(r.seconds for r in one):.3f} s busy, "
                f"p50 {1e3 * statistics.median(r.seconds for r in one):.3f} ms"
            )
        _report(args.workload, summary)
        metrics = {
            "problems_per_s": summary["problems_per_s"],
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        print(f"# setup samples (s): {', '.join(f'{s:.4f}' for s in setup_samples)}")
        result["summary"] = summary
    else:
        import layers
        from tracer import Tracer

        # the same problems as a --trace 0 run of this length, solved once
        # untraced and once traced
        cycles = planned_cycles(workload, args.seconds)
        plain = run_cycles(workload, args.seed, cycles)
        tracer = Tracer()
        with tracer.installed(layers.WRAPS):
            traced = run_cycles(workload, args.seed, cycles, tracer=tracer)
        records = fastest([plain, traced])
        plain_summary, traced_summary = summarize(plain), summarize(traced)
        _report(f"{args.workload} untraced", plain_summary)
        _report(f"{args.workload} traced", traced_summary)
        metrics = layers.layer_metrics(tracer, len(traced), traced_summary["busy_s"])
        metrics["tracing.problems_per_s_untraced"] = plain_summary["problems_per_s"]
        metrics["tracing.problems_per_s_traced"] = traced_summary["problems_per_s"]
        units = {**layers.UNITS, **TRACING_UNITS}
        overhead = 1.0 - traced_summary["problems_per_s"] / plain_summary["problems_per_s"]
        print(
            f"# tracing overhead: {plain_summary['problems_per_s']:.4f} problems/s untraced, "
            f"{traced_summary['problems_per_s']:.4f} traced ({100 * overhead:.1f}% slower), "
            f"{len(tracer)} spans"
        )
        if tracer.missing:
            print(f"# not traced (attribute gone): {', '.join(tracer.missing)}")
        if tracer.hook_errors:
            print(f"# counter hooks failed: {tracer.hook_errors}")
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{args.workload}.spans.jsonl.gz")
        result.update(
            untraced=plain_summary,
            traced=traced_summary,
            tracing_overhead=overhead,
            not_traced=tracer.missing,
        )
    for name, unit in units.items():
        print(f"# {name} = {metrics[name]:.6g} {unit}")
    result["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n"
    )
    attempted = len(records)
    failed = sum(not r.verdict.passed for r in records)
    malformed = sum(r.verdict.malformed for r in records)
    print(
        json.dumps(
            {
                "correct": malformed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
