"""Command-line front end.

Four commands cover the library surface:

* ``build``    interpolate the generating system and losses of an exact set
* ``fit``      recover a set from noisy samples
* ``cluster``  label samples by loss descent
* ``bench``    rerun the bundled benchmark scenarios

Exit codes: 0 success; 1 usage or parse failure; 2 an error of
``setloss.errors`` (degenerate input, a numerical failure such as zeros
refused as not real, or an invalid state), raised where its condition was
found and written as its own ``kind``; 3 output written as best
effort, exactly when the result carries a concern (``RecoveryResult.concerns``):
"non-convergence" at stage "fit", or from ``fit --complex`` "numerical-failure"
at stage "extract" with ``max_imag``.  ``bench`` exits 3 when a trial carries
a concern or any package error refused its recovery past the fit stage.  For
codes 2 and 3 stderr is one JSON line: the first reason, any others under
``also``, and the text of each Python warning raised meanwhile under
``warnings``; with codes 0 and 1 such warnings print as Python prints them.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import warnings
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import add
from pathlib import Path

import numpy as np

from .clustering import (
    MAX_ALIGNMENT_SIZE,
    Concern,
    assign_labels,
    bounded_noise_sample,
    build_loss,
    clustering_accuracy,
    gmm_sample,
    nearest_point_assignment,
    random_gmm_spec,
    recover_point_set,
)
from .errors import DegenerateConfigurationError, InvalidStateError, NumericalFailureError
from .extraction import real_projection, set_distance
from .fitting import FitOptions, SampleSet
from .generating_system import (
    PointSet,
    generator_strings,
    generator_terms,
    solve_generating_matrix,
)
from .loss_functions import build_transformed_loss
from .numeric_kernels import integer_array, real_array

__all__ = ["main", "console_main"]

# reference six-point benchmark set reused by the bench scenarios
BENCH_SET = np.array(
    [[1.0, 1.0], [3.0, 2.0], [1.5, 2.5], [2.5, 3.0], [2.0, 1.5], [3.0, 1.0]]
)
UNEVEN_RADII = np.array([0.4, 0.2, 0.6, 0.2, 0.32, 0.4])
UNEVEN_COUNTS = np.array([50, 25, 100, 30, 40, 70])
BENCH_EPS_GRID = (0.05, 0.1, 0.5)
_PACKAGE_ERRORS = (DegenerateConfigurationError, InvalidStateError, NumericalFailureError)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _count(text: str) -> int:
    # an argparse type, so a count below 1 is refused as the arguments are parsed
    value = int(text) if text.strip().isdecimal() else 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _seed(text: str) -> int:
    # an argparse type: numpy refuses a negative seed, but only once a trial runs
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _derived_seed(base: int, *path: int) -> int:
    return int(np.random.SeedSequence(entropy=(int(base), *path)).generate_state(1)[0])


def _diagnostic(reason, **extra) -> dict:
    """The stderr object of a Concern, or of the error that ended a command."""
    payload = {"error": reason.kind, "message": str(getattr(reason, "message", reason))}
    stage = getattr(reason, "stage", None)
    if stage is not None:
        payload["stage"] = stage
    condition = getattr(reason, "condition", None)
    if condition is not None:
        # strict JSON has no Infinity; the message still prints "inf"
        payload["condition"] = condition if math.isfinite(condition) else None
    payload.update(extra)
    return payload


def _read_csv_rows(path: str) -> list[tuple[int, list[str]]]:
    """The rows of a UTF-8 CSV file that are not blank, each with its line number."""
    try:
        # utf-8-sig drops a leading byte-order mark, which would spoil the first cell
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            rows = [(reader.line_num, row) for row in reader if any(map(str.strip, row))]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise _UsageError(f"{path} contains no data rows")
    return rows


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _parse_points(path: str, truth: bool = False):
    """Parse a CSV of points; with ``truth``, split off the last column as labels.

    Every column is a coordinate unless ``truth`` is set; then the last one
    must hold non-negative whole numbers that int64 holds.  The first row
    is a header only when none of its cells is a number.
    """
    rows = _read_csv_rows(path)
    start = 0 if any(map(_is_number, rows[0][1])) else 1
    if start == len(rows):
        raise _UsageError(f"{path} contains only a header")
    width = len(rows[start][1])
    data = []
    for line, row in rows[start:]:
        if len(row) != width:
            raise _UsageError(f"{path}:{line}: expected {width} columns, got {len(row)}")
        try:
            data.append([float(cell) for cell in row])
        except ValueError as exc:
            raise _UsageError(f"{path}:{line}: {exc}") from None
    arr = np.array(data, dtype=float)
    if not truth:
        return arr, None
    if width < 2:
        raise _UsageError(f"{path}: a truth column needs at least two columns")
    try:
        labels = integer_array(arr[:, -1], "truth labels")
    except ValueError:
        labels = None
    if labels is None or (labels < 0).any():
        raise _UsageError(f"{path}: trailing column is not an integer truth column")
    return arr[:, :-1], labels


def _csv_text(header: list[str], rows) -> str:
    """CSV lines of ``rows`` under ``header``: floats by ``repr``, the rest by ``str``."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _write_text(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc}") from exc


def _write_json(payload: dict, path: str | None) -> None:
    # one line: without ``indent`` json runs its C encoder, several times
    # faster than the pure-Python one on a fit payload.  Payloads are
    # trees built fresh per call, so the encoder's cycle check can go
    _write_text(json.dumps(payload, check_circular=False) + "\n", path)


# -- build -----------------------------------------------------------------


def _build_text(points: PointSet, gm, loss) -> str:
    """``json.dumps`` of the build payload, with each float formatted once.

    Each coefficient of ``generator_terms`` is ``repr``'d once; G's entries
    are those coefficients negated as text, in G's row order, and one
    text of the points serves ``points`` and ``loss.points``.  Nothing is
    kept from one build to the next.
    """
    terms = generator_terms(gm)
    texts = generator_strings(gm)
    coeffs = list(map(repr, chain.from_iterable(map(dict.values, terms))))
    # row i of G is the (i + 1)-th coefficient of every generator; a "-"
    # before each entry and "--" dropped negates them all, as the repr of
    # a finite float holds no other "-" than its sign and its exponent's
    step = gm.k + 1
    negated = ", -".join(chain.from_iterable(coeffs[i::step] for i in range(1, step)))
    g_text = "[" + ("-" + negated).replace("--", "") + "]"
    b0, b1 = gm.basis.powers.tolist(), gm.border.powers.tolist()
    # a list of ints prints as its JSON; each term is [exponents, coefficient]
    heads = [f"[{alpha}, " for alpha in b0]
    generators = ", ".join(
        '{"terms": ['
        + "], ".join(map(add, [f"[{beta}, ", *heads], coeffs[j * step : (j + 1) * step]))
        + ']], "text": '
        + encode_basestring_ascii(text)
        + "}"
        for j, (beta, text) in enumerate(zip(b1, texts))
    )
    points_text = json.dumps(points.points.tolist())
    # the loss was built on these very points
    loss_text = "{" + ", ".join(
        f"{encode_basestring_ascii(key)}: "
        + (points_text if key == "points" else json.dumps(value))
        for key, value in loss.to_json().items()
    ) + "}"
    closed_form = encode_basestring_ascii(loss.describe()) if loss.has_closed_form else "null"
    n, k = gm.n, gm.k
    return (
        f'{{"n": {n}, "k": {k}, "points": {points_text}, '
        f'"generating_matrix": {{"n": {n}, "k": {k}, "b0": {json.dumps(b0)}, '
        f'"b1": {json.dumps(b1)}, "g": {g_text}}}, "generators": [{generators}], '
        f'"loss": {loss_text}, "closed_form": {closed_form}}}\n'
    )


# Each command returns the concerns of what it wrote: none for exit 0, some for 3.


def cmd_build(args) -> tuple[Concern, ...]:
    coords, _ = _parse_points(args.input)
    points = PointSet(coords)
    gm = solve_generating_matrix(points)
    loss = build_transformed_loss(points)
    _write_text(_build_text(points, gm, loss), args.output)
    return ()


# -- fit -------------------------------------------------------------------


def cmd_fit(args) -> tuple[Concern, ...]:
    coords, _ = _parse_points(args.input)
    samples = SampleSet(coords)
    result = recover_point_set(
        samples,
        args.k,
        want_real=not args.complex_points,
        loss_kind="generating" if args.loss == "fg" else "transformed",
    )
    zero_set = result.zero_set.to_json()
    payload = {
        "k": result.k,
        "n": result.zero_set.n,
        "fit": result.fit.to_json(),
        "zero_set": zero_set,
        # --complex writes the zeros as [re, im] pairs, in the zero set's order
        "s_star": zero_set["points"] if args.complex_points else result.recovered.points.tolist(),
        # zeros that are not real are no set to build a loss on
        "loss": None if result.loss is None else result.loss.to_json(),
    }
    _write_json(payload, args.output)
    return result.concerns


# -- cluster ---------------------------------------------------------------


def _check_truth(truth, k: int) -> None:
    """Refuse a truth column that cannot be aligned with k recovered points.

    Runs before any output, so a usage error leaves none behind.
    """
    if truth is None:
        return
    if k > MAX_ALIGNMENT_SIZE:
        raise _UsageError(
            f"a truth column can be scored against at most {MAX_ALIGNMENT_SIZE} points, "
            f"got k = {k}; drop --truth-column to cluster without scoring"
        )
    if truth.max() >= k:
        raise _UsageError("truth labels exceed the recovered set size")
    empty = np.setdiff1d(np.arange(k), truth)
    if empty.size:
        raise _UsageError(f"truth label {int(empty[0])} has no samples")


def _read_sstar(path: str, n: int) -> PointSet:
    """The real set under ``s_star``, else ``points``, of a JSON object; refused unless in R^n."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:  # a JSONDecodeError or UnicodeDecodeError
        raise _UsageError(f"cannot read {path}: {exc}") from exc
    rows = payload.get("s_star", payload.get("points")) if isinstance(payload, dict) else None
    try:
        pts = real_array(rows)
    except (TypeError, ValueError):  # ragged or not numbers
        pts = np.empty(0)
    points = None
    if pts.ndim == 3 and pts.shape[2] == 2:  # complex [re, im] pairs, refused unless real
        points = real_projection(pts[:, :, 0] + 1j * pts[:, :, 1])
        pts = points.points
    if pts.ndim != 2 or pts.shape[1] != n:
        raise _UsageError(f"{path} carries no point set in R^{n}, where the samples lie")
    return PointSet(pts) if points is None else points


def _accuracies(assignment, recovered, samples, truth, means) -> tuple[float, float]:
    """Accuracies of ``assignment`` and of nearest-point labels, aligned to ``means``."""
    nearest = nearest_point_assignment(recovered, samples)
    return tuple(clustering_accuracy(a, truth, recovered, means) for a in (assignment, nearest))


def cmd_cluster(args) -> tuple[Concern, ...]:
    coords, truth = _parse_points(args.input, args.truth_column)
    samples = SampleSet(coords)
    loss_kind = "generating" if args.loss == "fg" else "transformed"

    concerns = ()
    if args.sstar is not None:
        recovered = _read_sstar(args.sstar, samples.n)
        _check_truth(truth, recovered.k)
        loss = build_loss(recovered, loss_kind)
    else:
        # --k fixes the set size, so a bad truth column costs no fit
        _check_truth(truth, args.k)
        result = recover_point_set(samples, args.k, loss_kind=loss_kind)
        recovered, loss, concerns = result.recovered, result.loss, result.concerns

    assignment = assign_labels(loss, recovered, samples)
    header = ["label", "converged", "iterations"] + [f"x{i + 1}" for i in range(samples.n)]
    rows = (
        [label, int(converged), iterations, *x]
        for label, converged, iterations, x in zip(
            assignment.labels.tolist(),
            assignment.converged.tolist(),
            assignment.iterations.tolist(),
            assignment.minimizers.tolist(),
        )
    )
    _write_text(_csv_text(header, rows), args.output)

    summary = {
        "k": recovered.k,
        "n": recovered.n,
        "samples": samples.size,
        "descents_converged": int(assignment.converged.sum()),
        "s_star": recovered.points.tolist(),
    }
    if truth is not None:
        means = np.array([samples.samples[truth == i].mean(axis=0) for i in range(recovered.k)])
        acc, nearest_acc = _accuracies(assignment, recovered, samples, truth, means)
        summary.update(accuracy=acc, nearest_point_accuracy=nearest_acc)
    print(json.dumps(summary))
    return concerns


# -- bench -----------------------------------------------------------------


def _bench_trials(args, radii, counts, *path: int):
    """Sample, recover and score ``args.seeds`` trials of one noise setting.

    Returns one [trial, set_distance, max_loss, converged] row per trial,
    whether any trial carries a concern and the layered points of trial 0.
    """
    reference = PointSet(BENCH_SET)
    rows, best_effort = [], False
    for trial in range(args.seeds):
        seed = _derived_seed(args.seed, *path, trial)
        samples, _ = bounded_noise_sample(reference, radii, counts, seed, args.noise_model)
        result = recover_point_set(samples, reference.k, FitOptions(seed), loss_kind="generating")
        dist = set_distance(result.recovered, reference)
        max_loss = float(result.loss.value_and_grad(BENCH_SET)[0].max())
        rows.append([trial, dist, max_loss, int(result.fit.converged)])
        best_effort |= bool(result.concerns)
        if trial == 0:
            layers = {"T": samples.samples, "S": BENCH_SET, "Sstar": result.recovered.points}
    return rows, best_effort, layers


def _gmm_trial(args, trial: int) -> tuple[list, bool]:
    """[trial, accuracy, converged, nearest_point_accuracy] of one mixture, and its best effort."""
    seed = _derived_seed(args.seed, trial)
    spec = random_gmm_spec(args.n, args.k, seed=seed, diagonal=args.diagonal)
    samples, truth = gmm_sample(spec, args.samples, seed=_derived_seed(seed, 1))
    try:
        result = recover_point_set(samples, args.k, FitOptions(seed))
    except _PACKAGE_ERRORS as exc:
        if exc.stage == "fit":
            raise
        # extraction failed or refused the zeros, or the loss refused the points
        return [trial, 0.0, 0, 0.0], True
    assignment = assign_labels(result.loss, result.recovered, samples)
    acc, nearest_acc = _accuracies(assignment, result.recovered, samples, truth, spec.means)
    return [trial, acc, int(result.fit.converged), nearest_acc], bool(result.concerns)


def _median(rows, column: int) -> float:
    return float(np.median([row[column] for row in rows]))


def cmd_bench(args) -> tuple[Concern, ...]:
    if args.scenario == "gmm" and args.k > MAX_ALIGNMENT_SIZE:
        raise _UsageError(
            f"bench --scenario gmm scores at most {MAX_ALIGNMENT_SIZE} components, got --k {args.k}"
        )
    # layered points by file name; like every output, written after the last trial
    points = {}

    if args.scenario == "table1":
        rows, medians, best_effort = [], {}, False
        counts = np.full(len(BENCH_SET), args.ni)
        for ei, eps in enumerate(BENCH_EPS_GRID):
            trials, flagged, points[f"points_eps{eps}.csv"] = _bench_trials(args, eps, counts, ei)
            rows += [[eps, *row] for row in trials]
            best_effort |= flagged
            dist, loss = _median(trials, 1), _median(trials, 2)
            medians[str(eps)] = {"set_distance": dist, "max_loss": loss}
        header = ["eps", "seed", "set_distance", "max_loss", "converged"]
        summary = {
            "scenario": "table1",
            "ni": args.ni,
            "seeds": args.seeds,
            "noise_model": args.noise_model,
            "medians": medians,
        }

    elif args.scenario == "example62":
        rows, best_effort, points["points.csv"] = _bench_trials(args, UNEVEN_RADII, UNEVEN_COUNTS)
        header = ["seed", "set_distance", "max_loss", "converged"]
        summary = {
            "scenario": "example62",
            "seeds": args.seeds,
            "noise_model": args.noise_model,
            "median_set_distance": _median(rows, 1),
            "median_max_loss": _median(rows, 2),
        }

    else:  # gmm
        trials, flagged = zip(*(_gmm_trial(args, trial) for trial in range(args.seeds)))
        best_effort = any(flagged)
        # the nearest-point accuracy is a summary figure alone
        rows = [row[:3] for row in trials]
        header = ["seed", "accuracy", "converged"]
        summary = {
            "scenario": "gmm",
            "n": args.n,
            "k": args.k,
            "samples": args.samples,
            "diagonal": args.diagonal,
            "seeds": args.seeds,
            "median_accuracy": _median(trials, 1),
            "min_accuracy": min(row[1] for row in trials),
            "max_accuracy": max(row[1] for row in trials),
            "median_nearest_point_accuracy": _median(trials, 3),
        }

    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, layers in points.items():
            layered = ([layer, *p] for layer, pts in layers.items() for p in pts.tolist())
            (out_dir / name).write_text(_csv_text(["layer", "x1", "x2"], layered))
        (out_dir / "results.csv").write_text(_csv_text(header, rows))
        (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    except OSError as exc:
        raise _UsageError(f"cannot write {out_dir}: {exc}") from exc
    print(json.dumps(summary))
    message = "some bench fits hit their round budget or had their recovery refused"
    return (Concern("non-convergence", None, message, {}),) if best_effort else ()


# -- wiring ------------------------------------------------------------------


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built once per process.

    Each ``parse_args`` call fills a fresh namespace, so reusing the
    parser carries nothing from one ``main`` call to the next.
    """
    parser = _Parser(prog="setloss", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="interpolate the system and losses of an exact set")
    p.add_argument("--input", required=True, help="CSV of points, one per row")
    p.add_argument("--output", help="output JSON path (default stdout)")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("fit", help="recover a point set from noisy samples")
    p.add_argument("--input", required=True, help="CSV of samples, one per row")
    p.add_argument("--k", type=_count, required=True, help="number of points to recover")
    p.add_argument("--output", help="output JSON path (default stdout)")
    p.add_argument("--loss", choices=["transformed", "fg"], default="transformed")
    p.add_argument(
        "--complex",
        dest="complex_points",
        action="store_true",
        help="report the extracted zeros without projecting to the reals",
    )
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("cluster", help="label samples by loss descent")
    p.add_argument("--input", required=True, help="CSV of samples, one per row")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--k", type=_count, help="recover this many points from the samples")
    source.add_argument("--sstar", help="JSON with a previously recovered set")
    p.add_argument("--output", help="labels CSV path (default stdout)")
    p.add_argument("--loss", choices=["transformed", "fg"], default="transformed")
    p.add_argument(
        "--truth-column",
        action="store_true",
        help="read the last column as ground-truth labels and score against them",
    )
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("bench", help="rerun a bundled benchmark scenario")
    p.add_argument("--scenario", choices=["table1", "example62", "gmm"], required=True)
    p.add_argument("--seeds", type=_count, default=5, help="number of trials")
    p.add_argument("--seed", type=_seed, default=0, help="base seed for splitting")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--ni", type=_count, default=50, help="samples per point (table1)")
    p.add_argument(
        "--noise-model",
        choices=["truncated-normal", "uniform"],
        default="truncated-normal",
    )
    p.add_argument("--n", type=_count, default=2, help="dimension (gmm)")
    p.add_argument("--k", type=_count, default=3, help="components (gmm)")
    p.add_argument("--samples", type=_count, default=300, help="sample count (gmm)")
    p.add_argument("--diagonal", action="store_true", help="diagonal covariances (gmm)")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)

    code, diagnostic = 2, None
    try:
        with warnings.catch_warnings(record=True) as caught:
            try:
                concerns = args.func(args)
                code = 3 if concerns else 0
                if concerns:
                    # one object: the first concern, naming any others in "also"
                    first, *also = (_diagnostic(c, **c.numbers) for c in concerns)
                    diagnostic = {**first, "also": also} if also else first
            except _UsageError as exc:
                print(f"error: {exc}", file=sys.stderr)
                code = 1
            except _PACKAGE_ERRORS as exc:
                diagnostic = _diagnostic(exc)
    finally:
        # stderr of codes 2 and 3 is the one diagnostic, which carries the warnings
        if diagnostic is None:
            for w in caught:
                warnings.showwarning(w.message, w.category, w.filename, w.lineno, w.file, w.line)
        else:
            diagnostic["warnings"] = [str(w.message) for w in caught]
            print(json.dumps(diagnostic, allow_nan=False), file=sys.stderr)
    return code


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
