import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import setloss
import setloss.cli as cli
import setloss.clustering as clustering
import setloss.fitting as fitting
from setloss.cli import main
from setloss.clustering import bounded_noise_sample, gmm_sample, random_gmm_spec, recover_point_set
from setloss.errors import DegenerateConfigurationError, InvalidStateError, NumericalFailureError
from setloss.fitting import SampleSet
from setloss.generating_system import GeneratingMatrix, PointSet, solve_generating_matrix
from setloss.loss_functions import TransformedLoss, build_transformed_loss

from helpers import random_points, reference_build_payload

BENCH_SET = np.array(
    [[1.0, 1.0], [3.0, 2.0], [1.5, 2.5], [2.5, 3.0], [2.0, 1.5], [3.0, 1.0]]
)

THREE_POINTS = np.array([[2.0, -1.0], [-1.0, 3.0], [-2.0, -2.0]])
G_THREE = (
    np.array(
        [
            [58.0, -14.0, 82.0],
            [3.0, -23.0, -20.0],
            [-12.0, -22.0, 23.0],
        ]
    )
    / 19.0
)


# the map's matrices that files of earlier releases carried in "loss";
# readers rebuild them from "points" and "lift_basis"
DROPPED_LOSS_KEYS = {"u", "u_pinv", "anchor", "l", "anchor_lift"}


def write_points(path, points, truth=None, header=None):
    lines = []
    if header:
        lines.append(header)
    for i, row in enumerate(points):
        cells = [repr(float(v)) for v in row]
        if truth is not None:
            cells.append(str(int(truth[i])))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture()
def sample_csv(tmp_path):
    samples, truth = bounded_noise_sample(PointSet(BENCH_SET), 0.1, 50, seed=7)
    path = tmp_path / "samples.csv"
    write_points(path, samples.samples, header="x1,x2")
    truth_path = tmp_path / "samples_truth.csv"
    write_points(truth_path, samples.samples, truth=truth)
    return path, truth_path


def read_stderr_json(capsys):
    # strict JSON: Infinity or NaN in a diagnostic fails the test
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    err = capsys.readouterr().err.strip().splitlines()
    return json.loads(err[-1], parse_constant=refuse)


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "build" in capsys.readouterr().out


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 1
    assert "error:" in capsys.readouterr().err


def test_build_golden_output(tmp_path, capsys):
    inp = tmp_path / "pts.csv"
    write_points(inp, THREE_POINTS)
    out = tmp_path / "build.json"
    assert main(["build", "--input", str(inp), "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["k"] == 3 and payload["n"] == 2
    np.testing.assert_allclose(
        np.array(payload["generating_matrix"]["g"]).reshape(3, 3), G_THREE, atol=1e-10
    )
    assert len(payload["generators"]) == 3
    assert payload["closed_form"] is not None
    assert payload["loss"]["kind"] == "affine"
    assert list(payload["loss"]) == ["kind", "n", "k", "points"]


@pytest.mark.parametrize(("n", "k"), [(2, 3), (3, 2), (2, 6), (3, 10), (4, 12)])
def test_build_loss_rebuilds_bit_for_bit(tmp_path, n, k):
    rng = np.random.default_rng(80 + n * k)
    pts = random_points(rng, k, n)
    inp, out = tmp_path / "pts.csv", tmp_path / "build.json"
    write_points(inp, pts)
    assert main(["build", "--input", str(inp), "--output", str(out)]) == 0
    payload = json.loads(out.read_text())["loss"]
    assert not DROPPED_LOSS_KEYS & set(payload)
    loaded = TransformedLoss.from_json(payload)
    built = build_transformed_loss(PointSet(pts))
    assert loaded.kind == built.kind == ("affine" if k <= n + 1 else "lifted")
    for name in ("to_simplex", "diff_mat", "anchor_lift"):
        np.testing.assert_array_equal(getattr(loaded, name), getattr(built, name))
    xs = rng.uniform(-3.0, 3.0, size=(9, n))
    for got, want in zip(loaded.value_and_grad(xs), built.value_and_grad(xs), strict=True):
        np.testing.assert_array_equal(got, want)


def _chebyshev_nodes(k):
    # on a line random points are too ill-conditioned to interpolate at
    # large k; these nodes build up to k = 26, and no set of 27 or more does
    return np.cos(np.pi * (np.arange(k) + 0.5) / k)[:, None]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_build_writes_one_line_of_the_same_json(tmp_path, n):
    # the file is one line: json.dumps of the payload that the helpers
    # assemble from the library's parts, byte for byte, for every shape
    # that the benchmark builds
    rng = np.random.default_rng(60 + n)
    inp, out = tmp_path / "pts.csv", tmp_path / "build.json"
    for k in range(2, 27 if n == 1 else 36):
        pts = _chebyshev_nodes(k) if n == 1 else random_points(rng, k, n)
        write_points(inp, pts)
        assert main(["build", "--input", str(inp), "--output", str(out)]) == 0
        points = PointSet(pts)
        payload = reference_build_payload(
            points, solve_generating_matrix(points), build_transformed_loss(points)
        )
        assert out.read_bytes() == (json.dumps(payload) + "\n").encode(), (n, k)


# the entries where formatting a number once and negating it as text can
# go wrong: signed zeros, units, exponents and the smallest subnormal
SPECIAL_ENTRIES = [-0.0, 0.0, 1e-05, -1e16, 5e-324, -1.0, 1.0, 2.0, -5e-324, 1e16, -1e-05, -2.0]


@pytest.mark.parametrize(("points", "kind"), [(THREE_POINTS, "affine"), (BENCH_SET, "lifted")])
def test_build_file_is_the_default_encoding(tmp_path, monkeypatch, points, kind):
    # a G holding every special entry, not square in the lifted case, is
    # written as plain json.dumps writes the reference payload
    pts = PointSet(points)
    exact = solve_generating_matrix(pts)
    values = np.resize(SPECIAL_ENTRIES + np.linspace(-3.7, 5.1, 7).tolist(), exact.entries.size)
    planted = GeneratingMatrix(exact.basis, values.reshape(exact.entries.shape))
    monkeypatch.setattr(cli, "solve_generating_matrix", lambda _: planted)
    inp, out = tmp_path / "pts.csv", tmp_path / "build.json"
    write_points(inp, points)
    assert main(["build", "--input", str(inp), "--output", str(out)]) == 0
    loss = build_transformed_loss(pts)
    assert loss.kind == kind
    payload = reference_build_payload(pts, planted, loss)
    assert out.read_bytes() == (json.dumps(payload) + "\n").encode()
    g = json.loads(out.read_text())["generating_matrix"]["g"]
    assert [np.copysign(1.0, v) for v in g[:2]] == [-1.0, 1.0]


def test_build_to_stdout(tmp_path, capsys):
    inp = tmp_path / "pts.csv"
    write_points(inp, THREE_POINTS)
    assert main(["build", "--input", str(inp)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["k"] == 3


def test_build_duplicate_points_exit_two(tmp_path, capsys):
    inp = tmp_path / "dup.csv"
    write_points(inp, np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 0.0]]))
    assert main(["build", "--input", str(inp)]) == 2
    err = read_stderr_json(capsys)
    assert err["error"] == "degenerate-configuration"


def test_build_collinear_points_exit_two(tmp_path, capsys):
    # interpolation's rank check refuses three points on a line
    inp = tmp_path / "line.csv"
    write_points(inp, np.array([[0.0, 1.0], [1.0, 3.0], [2.0, 5.0]]))
    out = tmp_path / "build.json"
    assert main(["build", "--input", str(inp), "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    err = json.loads(captured.err)
    assert err["error"] == "degenerate-configuration"
    assert err["message"].startswith("point set is degenerate for interpolation")
    assert err["condition"] > 1e10 and err["warnings"] == []


def test_build_unreadable_csv_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,1\n2,oops\n")
    assert main(["build", "--input", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        # blank lines are skipped but still counted
        ("1.0,2.0\n\n\n3.0,4.0\n5.0,x\n", "5: could not convert string to float: 'x'"),
        ("x,y\n1.0,2.0\n\n3.0\n", "4: expected 2 columns, got 1"),
        # a first row with a number in it is data, not a header to drop
        ("1.0,abc\n2.0,-1.0\n-1.0,3.0\n", "1: could not convert string to float: 'abc'"),
    ],
)
def test_csv_errors_name_the_physical_line(tmp_path, capsys, text, message):
    path = tmp_path / "blank.csv"
    path.write_text(text)
    assert main(["build", "--input", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}:{message}\n"


def test_a_byte_order_mark_changes_no_byte_of_the_build(tmp_path, capsys):
    # a mark left in the first cell would pass the first point off as a header
    text = "2.0,-1.0\n-1.0,3.0\n-2.0,-2.0\n0.5,0.25\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes()[:3] == b"\xef\xbb\xbf"
    outputs = []
    for path in (plain, marked):
        assert main(["build", "--input", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] and json.loads(outputs[1])["k"] == 4


@pytest.mark.parametrize("command", [["build"], ["fit", "--k", "2"], ["cluster", "--k", "2"]])
@pytest.mark.parametrize(
    "content",
    # a Latin-1 byte that is no UTF-8, and a cell past the csv module's field limit
    [b"2.0,-1.0\n-1.0,3.0\n\xe9,0.5\n", b"2.0,-1.0\n-1.0,3.0\n" + b"1" * 200_000 + b",0.5\n"],
    ids=["latin1", "oversized"],
)
def test_unreadable_csv_exits_one_with_one_error_line(tmp_path, capsys, command, content):
    path = tmp_path / "input.csv"
    path.write_bytes(content)
    out = tmp_path / "out"
    assert main([*command, "--input", str(path), "--output", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot read {path}: ")
    assert captured.err.splitlines() == [captured.err.strip()]
    assert captured.out == "" and not out.exists()


def test_undecodable_sstar_exits_one_with_one_error_line(tmp_path, capsys):
    inp, sstar = tmp_path / "pts.csv", tmp_path / "sstar.json"
    write_points(inp, THREE_POINTS)
    sstar.write_bytes(b'{"points": [[2.0, -1.0], [-1.0, 3.0]], "note": "\xe9"}')
    out = tmp_path / "labels.csv"
    argv = ["cluster", "--input", str(inp), "--sstar", str(sstar), "--output", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot read {sstar}: ")
    assert captured.err.splitlines() == [captured.err.strip()]
    assert captured.out == "" and not out.exists()


def test_fit_writes_the_generating_loss_as_its_matrix(tmp_path, capsys, sample_csv):
    samples_path, _ = sample_csv
    out = tmp_path / "fit.json"
    code = main(["fit", "--input", str(samples_path), "--k", "6", "--loss", "fg",
                 "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["loss"]["kind"] == "generating"
    # the matrix interpolated through the recovered points, bit for bit
    written = GeneratingMatrix.from_json(payload["loss"]["g"])
    expected = solve_generating_matrix(PointSet(payload["s_star"]))
    np.testing.assert_array_equal(written.entries, expected.entries)


def test_build_missing_file_exit_one(tmp_path, capsys):
    assert main(["build", "--input", str(tmp_path / "absent.csv")]) == 1
    assert "error:" in capsys.readouterr().err


def test_fit_and_cluster_roundtrip(tmp_path, capsys, sample_csv):
    samples_path, truth_path = sample_csv
    fit_out = tmp_path / "fit.json"
    code = main(
        [
            "fit",
            "--input",
            str(samples_path),
            "--k",
            "6",
            "--output",
            str(fit_out),
        ]
    )
    assert code == 0
    fit_payload = json.loads(fit_out.read_text())
    assert fit_payload["fit"]["converged"] is True
    recovered = np.array(fit_payload["s_star"])
    assert recovered.shape == (6, 2)
    assert not DROPPED_LOSS_KEYS & set(fit_payload["loss"])
    loaded = TransformedLoss.from_json(fit_payload["loss"])
    np.testing.assert_array_equal(
        loaded.to_simplex, build_transformed_loss(PointSet(recovered)).to_simplex
    )
    # every benchmark point is matched to about the noise level
    gaps = np.linalg.norm(
        recovered[None, :, :] - BENCH_SET[:, None, :], axis=2
    ).min(axis=1)
    assert gaps.max() < 0.1
    capsys.readouterr()

    labels_out = tmp_path / "labels.csv"
    code = main(
        [
            "cluster",
            "--input",
            str(truth_path),
            "--sstar",
            str(fit_out),
            "--output",
            str(labels_out),
        ]
    )
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["samples"] == 300
    assert summary["accuracy"] >= 0.98
    assert summary["nearest_point_accuracy"] >= 0.98
    lines = labels_out.read_text().strip().splitlines()
    assert lines[0] == "label,converged,iterations,x1,x2"
    assert len(lines) == 301


def test_cluster_ignores_truth_when_told(tmp_path, capsys, sample_csv):
    _, truth_path = sample_csv
    # treating the truth column as a coordinate makes the samples 3d
    code = main(
        [
            "cluster",
            "--input",
            str(truth_path),
            "--no-truth-column",
            "--k",
            "6",
        ]
    )
    assert code in (0, 2, 3)
    if code == 0:
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["n"] == 3


def test_cluster_needs_k_or_sstar(tmp_path, capsys, sample_csv):
    samples_path, _ = sample_csv
    assert main(["cluster", "--input", str(samples_path)]) == 1
    assert "one of the arguments --k --sstar is required" in capsys.readouterr().err


def test_cluster_names_a_truth_label_with_no_samples(tmp_path, capsys):
    # three clusters, but the truth column calls the middle one 2, so
    # label 1 has no samples and no mean to align with
    samples, truth = bounded_noise_sample(PointSet(THREE_POINTS), 0.1, 50, seed=3)
    truth = np.where(truth == 1, 2, truth)
    path = tmp_path / "skips_one.csv"
    write_points(path, samples.samples, truth=truth)
    assert main(["cluster", "--input", str(path), "--k", "3"]) == 1
    captured = capsys.readouterr()
    assert "truth label 1 has no samples" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""  # no labels are written before the refusal


@pytest.mark.parametrize(
    "relabel, message",
    [(3, "truth labels exceed the recovered set size"), (2, "truth label 1 has no samples")],
)
def test_cluster_checks_truth_before_fitting(tmp_path, capsys, monkeypatch, relabel, message):
    # with --k the truth column is checked against --k, before any fit
    samples, truth = bounded_noise_sample(PointSet(THREE_POINTS), 0.1, 50, seed=3)
    truth = np.where(truth == 1, relabel, truth)
    path = tmp_path / "bad_truth.csv"
    write_points(path, samples.samples, truth=truth)

    def no_fit(*args, **kwargs):
        raise AssertionError("recover_point_set ran before the truth check")

    monkeypatch.setattr(cli, "recover_point_set", no_fit)
    assert main(["cluster", "--input", str(path), "--k", "3"]) == 1
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


# a whole-number last column with a cell int64 cannot hold
INFINITE_TRUTH = "0.1,0.2,0\n0.3,0.1,inf\n2.0,2.1,1\n2.2,1.9,1\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["fit", "--k", "0"], "argument --k: must be a positive integer, got '0'"),
        (["fit", "--k", "-2"], "argument --k: must be a positive integer, got '-2'"),
        (["fit", "--k", "2.0"], "argument --k: must be a positive integer, got '2.0'"),
        (["cluster", "--k", "0"], "argument --k: must be a positive integer, got '0'"),
        (["cluster", "--k", "-1"], "argument --k: must be a positive integer, got '-1'"),
        (["bench", "--scenario", "gmm", "--seeds", "0"], "argument --seeds: must be a positive"),
        (["bench", "--scenario", "gmm", "--samples", "0"], "argument --samples: must be a positive"),
        (["bench", "--scenario", "table1", "--ni", "0"], "argument --ni: must be a positive"),
        (["bench", "--scenario", "gmm", "--k", "9"], "at most 8 components, got --k 9"),
        (["cluster", "--sstar", "{set_in_r3}"], "carries no point set in R^2"),
        (["cluster", "--sstar", "{list_file}"], "carries no point set in R^2"),
        (["cluster", "--sstar", "{ragged}"], "carries no point set in R^2"),
        (["fit", "--k", "3", "--seed", "1"], "unrecognized arguments: --seed 1"),
        (["cluster", "--k", "3", "--seed", "1"], "unrecognized arguments: --seed 1"),
        (["bench", "--scenario", "example62", "--seed", "-1"], "argument --seed: must be a non"),
        (["cluster", "--sstar", "{list_file}", "--k", "5"], "not allowed with argument"),
        (["cluster"], "one of the arguments --k --sstar is required"),
        (["fit", "--k", "3", "--config", "{list_file}"], "unrecognized arguments: --config"),
        (["cluster", "--sstar", "{list_file}", "--seed", "7"], "unrecognized arguments: --seed 7"),
        (["build", "--threads", "2"], "unrecognized arguments: --threads 2"),
        (["build", "--input", "{empty}"], "empty.csv contains no data rows"),
        (["build", "--input", "{header_only}"], "header_only.csv contains only a header"),
        (
            ["cluster", "--k", "2", "--truth-column", "--input", "{one_column}"],
            "a truth column needs at least two columns",
        ),
        (
            ["cluster", "--k", "2", "--truth-column", "--input", "{fractional_truth}"],
            "trailing column is not an integer truth column",
        ),
        # coordinates are JSON numbers: text that spells one is no point set
        (["cluster", "--sstar", "{text_points}"], "carries no point set in R^2"),
        (["cluster", "--sstar", "{one_text_cell}"], "carries no point set in R^2"),
        # and a JSON true is no coordinate, though numpy would read it as 1
        (["cluster", "--sstar", "{one_bool_cell}"], "carries no point set in R^2"),
        # whole numbers that int64 cannot hold are no labels either
        (
            ["cluster", "--k", "2", "--truth-column", "--input", "{infinite_truth}"],
            "trailing column is not an integer truth column",
        ),
        (
            ["cluster", "--k", "2", "--truth-column", "--input", "{huge_truth}"],
            "trailing column is not an integer truth column",
        ),
    ],
)
def test_refusals_exit_one_with_one_error_line(tmp_path, capsys, sample_csv, argv, message):
    # each refusal ends in one "error:" line, exit 1 and no output file
    files = {
        "set_in_r3.json": json.dumps({"points": [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]}),
        "list_file.json": json.dumps([[0.0, 0.0], [1.0, 1.0]]),
        "ragged.json": json.dumps({"s_star": [[0.0, 0.0], [1.0]]}),
        "text_points.json": json.dumps({"points": [["1", "1"], ["3", "2"], ["1.5", "2.5"]]}),
        "one_text_cell.json": json.dumps({"s_star": [[1.0, 1.0], [3.0, "2"], [1.5, 2.5]]}),
        "one_bool_cell.json": json.dumps({"s_star": [[1.0, 1.0], [3.0, True], [1.5, 2.5]]}),
        "empty.csv": "",
        "header_only.csv": "x1,x2\n",
        "one_column.csv": "1.0\n2.0\n3.0\n",
        "fractional_truth.csv": "0.0,0.0,0\n1.0,1.0,1\n2.0,0.0,0.5\n",
        "infinite_truth.csv": INFINITE_TRUTH,
        "huge_truth.csv": INFINITE_TRUTH.replace("inf", "1e19"),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [arg.format(**{name.split(".")[0]: tmp_path / name for name in files}) for arg in argv]
    out = tmp_path / "out"
    if argv[0] == "bench":
        argv += ["--out-dir", str(out)]
    else:
        if "--input" not in argv:
            argv += ["--input", str(sample_csv[0])]
        argv += ["--output", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert captured.err.splitlines() == [captured.err.strip()]
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.out == "" and not out.exists()


def test_a_column_with_an_infinite_cell_is_read_as_coordinates(tmp_path, capsys):
    # without --truth-column such a column is no truth column, so its inf
    # is a coordinate and the samples are refused before any labels
    inp, out = tmp_path / "infinite_truth.csv", tmp_path / "labels.csv"
    inp.write_text(INFINITE_TRUTH)
    assert main(["cluster", "--input", str(inp), "--k", "2", "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    err = one_json_line(captured.err)
    assert err["error"] == "degenerate-configuration" and err["warnings"] == []
    assert "samples must be finite" in err["message"]
    assert captured.out == "" and not out.exists()


def test_cluster_refuses_a_truth_column_beyond_the_alignment_cap(tmp_path, capsys, monkeypatch):
    # a truth column is scored by aligning every permutation of the
    # recovered points, which stops at 8; the refusal comes before labels
    rng = np.random.default_rng(9)
    points = random_points(rng, 9, 2, min_gap=1.0)
    samples = tmp_path / "nine.csv"
    write_points(samples, points, truth=np.arange(9))
    sstar = tmp_path / "nine.json"
    sstar.write_text(json.dumps({"points": points.tolist()}))
    out = tmp_path / "labels.csv"

    def no_fit(*args, **kwargs):
        raise AssertionError("recover_point_set ran before the truth check")

    monkeypatch.setattr(cli, "recover_point_set", no_fit)
    for source in (["--sstar", str(sstar)], ["--k", "9"]):
        assert main(["cluster", "--input", str(samples), *source, "--output", str(out)]) == 1
        captured = capsys.readouterr()
        assert "--no-truth-column" in captured.err and "Traceback" not in captured.err
        assert captured.out == "" and not out.exists()
    # told there is no truth column, the same file clusters in three columns
    args = ["--sstar", str(sstar), "--no-truth-column"]
    points3 = np.column_stack([points, np.arange(9.0)])
    sstar.write_text(json.dumps({"points": points3.tolist()}))
    assert main(["cluster", "--input", str(samples), *args, "--output", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 10


def test_parser_is_reused_without_leaking_arguments(capsys, monkeypatch, sample_csv):
    # the parser is built once per process; each call must still see only
    # its own arguments
    samples_path, truth_path = sample_csv
    assert cli._build_parser() is cli._build_parser()
    seen = []
    parse = cli._parse_points

    def spy_parse(path, truth=False):
        seen.append(truth)
        return parse(path, truth)

    def stop_before_fit(samples, k, want_real=True, loss_kind="transformed"):
        seen.append((k, want_real, loss_kind))
        raise cli._UsageError("stopped before the fit")

    monkeypatch.setattr(cli, "_parse_points", spy_parse)
    monkeypatch.setattr(cli, "recover_point_set", stop_before_fit)
    fit = ["fit", "--input", str(samples_path), "--k", "6"]
    cluster = ["cluster", "--input", str(truth_path), "--k", "6"]
    for argv in (
        [*fit, "--complex", "--loss", "fg"],
        fit,
        [*cluster, "--no-truth-column", "--loss", "fg"],
        cluster,
        [*cluster, "--truth-column"],
    ):
        assert main(argv) == 1
    assert "stopped before the fit" in capsys.readouterr().err
    assert seen == [
        False, (6, False, "generating"),
        False, (6, True, "transformed"),
        False, (6, True, "generating"),
        None, (6, True, "transformed"),
        True, (6, True, "transformed"),
    ]


def test_fit_best_effort_exit_three(tmp_path, capsys, monkeypatch, sample_csv):
    samples_path, _ = sample_csv
    monkeypatch.setattr(fitting, "MAX_ROUNDS", 4)
    out = tmp_path / "fit.json"
    code = main(["fit", "--input", str(samples_path), "--k", "6", "--output", str(out)])
    assert code == 3
    err = read_stderr_json(capsys)
    assert err["error"] == "non-convergence"
    # best-effort output is still written
    payload = json.loads(out.read_text())
    assert payload["fit"]["converged"] is False


def test_fit_has_no_real_flag(tmp_path, capsys, sample_csv):
    # projecting to the reals is the default; only --complex changes it
    samples_path, _ = sample_csv
    argv = ["fit", "--input", str(samples_path), "--k", "6", "--real"]
    assert main(argv) == 1
    assert "unrecognized arguments: --real" in capsys.readouterr().err


def test_fit_too_few_samples_exit_two(tmp_path, capsys):
    inp = tmp_path / "tiny.csv"
    write_points(inp, np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    assert main(["fit", "--input", str(inp), "--k", "6"]) == 2
    err = read_stderr_json(capsys)
    assert err["error"] == "degenerate-configuration"
    assert err["stage"] == "fit"
    # a rank-deficient moment matrix has an infinite condition number
    assert err["condition"] is None and "condition estimate inf" in err["message"]


def test_cluster_refuses_non_real_zeros_exit_two(tmp_path, capsys):
    # the fit converges, but two of its four zeros are a conjugate pair
    spec = random_gmm_spec(2, 4, seed=207)
    samples, _ = gmm_sample(spec, 300, seed=257)
    inp = tmp_path / "samples.csv"
    write_points(inp, samples.samples)
    code = main(["cluster", "--input", str(inp), "--k", "4"])
    assert code == 2
    err = read_stderr_json(capsys)
    assert err["error"] == "numerical-failure"
    assert err["stage"] == "extract"
    assert "imaginary parts up to 8." in err["message"]


def one_json_line(err):
    # stderr of exit codes 2 and 3: exactly one line, one strict JSON object
    assert err.endswith("\n") and err.count("\n") == 1, err
    return json.loads(err, parse_constant=lambda name: pytest.fail(f"{name} in {err}"))


BIG_POINTS = np.array([[1e200, 0.0], [0.0, 1e200], [-1e200, 0.0], [3e200, 1e200]])


@pytest.mark.parametrize("command", ["build", "cluster --sstar", "fit"])
def test_overflowing_monomials_exit_two_with_one_json_line(tmp_path, capsys, command):
    # finite coordinates whose monomials overflow to inf: LAPACK cannot
    # factor such a matrix, and a rank check on it sees NaN singular values
    if command == "build":
        write_points(tmp_path / "big.csv", BIG_POINTS)
        argv = ["build", "--input", str(tmp_path / "big.csv")]
    elif command == "cluster --sstar":
        (tmp_path / "bigs.json").write_text(json.dumps({"points": BIG_POINTS.tolist()}))
        write_points(tmp_path / "few.csv", np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 1.0]]))
        argv = ["cluster", "--input", str(tmp_path / "few.csv"), "--no-truth-column"]
        argv += ["--sstar", str(tmp_path / "bigs.json")]
    else:
        rng = np.random.default_rng(5)
        samples = np.repeat(THREE_POINTS[:2] * 1e200, 20, axis=0)
        write_points(tmp_path / "big.csv", samples * rng.uniform(0.99, 1.01, samples.shape))
        argv = ["fit", "--input", str(tmp_path / "big.csv"), "--k", "2"]
    out = tmp_path / "out"
    assert main([*argv, "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    err = one_json_line(captured.err)
    assert err["error"] == "degenerate-configuration"
    assert "overflow" in err["message"] and "rank" not in err["message"]
    assert err["warnings"] == []


@pytest.mark.parametrize("command", ["build", "fit", "cluster", "bench"])
def test_unwritable_output_exits_one_with_one_error_line(tmp_path, capsys, sample_csv, command):
    (tmp_path / "some_file").write_text("")
    if command == "bench":
        target = tmp_path / "some_file" / "sub"
        argv = ["bench", "--scenario", "example62", "--seeds", "1", "--out-dir", str(target)]
    else:
        target = tmp_path / "nodir" / "out"
        inp = sample_csv[0]
        if command == "build":
            inp = tmp_path / "points.csv"
            write_points(inp, THREE_POINTS)
        argv = [command, "--input", str(inp), "--output", str(target)]
        if command != "build":
            argv += ["--k", "6"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert captured.err.splitlines() == [captured.err.strip()]
    assert captured.err.startswith(f"error: cannot write {target}: ")
    assert not target.exists() and not (tmp_path / "nodir").exists()
    assert (tmp_path / "some_file").is_file()


def test_fit_complex_non_real_stderr_is_one_json_object(tmp_path, capsys):
    # the seed-207 conjugate pair is written as it is, with no loss built
    # on its real parts and nothing projected to warn about
    spec = random_gmm_spec(2, 4, seed=207)
    samples, _ = gmm_sample(spec, 300, seed=257)
    inp = tmp_path / "samples.csv"
    write_points(inp, samples.samples)
    out = tmp_path / "fit.json"
    assert main(["fit", "--input", str(inp), "--k", "4", "--complex", "--output", str(out)]) == 3
    err = one_json_line(capsys.readouterr().err)
    assert err["error"] == "numerical-failure" and "also" not in err
    assert err["stage"] == "extract" and 0.8 < err["max_imag"] < 0.9
    assert err["warnings"] == []
    payload = json.loads(out.read_text())
    assert payload["loss"] is None
    assert (payload["k"], payload["n"]) == (4, 2)
    assert payload["s_star"] == payload["zero_set"]["points"]


def test_fit_names_every_exit_three_reason_in_one_object(tmp_path, capsys, monkeypatch):
    # a recovery that warns, is not converged and has non-real zeros; the
    # warning goes into the diagnostic rather than ahead of it
    spec = random_gmm_spec(2, 4, seed=207)
    samples, _ = gmm_sample(spec, 300, seed=257)
    inp = tmp_path / "samples.csv"
    write_points(inp, samples.samples)
    recover = cli.recover_point_set

    def unconverged(*args, **kwargs):
        warnings.warn("recovery was told to warn", RuntimeWarning)
        result = recover(*args, **kwargs)
        return dataclasses.replace(result, fit=dataclasses.replace(result.fit, converged=False))

    monkeypatch.setattr(cli, "recover_point_set", unconverged)
    argv = ["fit", "--input", str(inp), "--k", "4", "--complex"]
    with warnings.catch_warnings():
        # recorded into the diagnostic even where RuntimeWarning is an error
        warnings.simplefilter("always", RuntimeWarning)
        assert main([*argv, "--output", str(tmp_path / "fit.json")]) == 3
    err = one_json_line(capsys.readouterr().err)
    assert err["error"] == "non-convergence" and "penalty rounds" in err["message"]
    [also] = err["also"]
    assert also["error"] == "numerical-failure" and also["stage"] == "extract"
    assert 0.8 < also["max_imag"] < 0.9
    assert err["warnings"] == ["recovery was told to warn"]


def test_exit_zero_lets_warnings_print_as_python_prints_them(tmp_path, monkeypatch):
    # only the diagnostic of codes 2 and 3 takes the warnings in; a run
    # that succeeds hands them back to Python's warning machinery
    build = cli.build_transformed_loss

    def warning_build(points):
        warnings.warn("the build was told to warn", UserWarning)
        return build(points)

    monkeypatch.setattr(cli, "build_transformed_loss", warning_build)
    inp = tmp_path / "pts.csv"
    write_points(inp, THREE_POINTS)
    with pytest.warns(UserWarning, match="the build was told to warn") as record:
        assert main(["build", "--input", str(inp), "--output", str(tmp_path / "b.json")]) == 0
    assert [w.filename for w in record] == [__file__]


def test_cluster_sstar_refuses_non_real_complex_zeros(tmp_path, capsys):
    # the seed-207 conjugate pair, kept complex by fit --complex, is refused
    # by cluster --sstar as by recovery, before any descent
    spec = random_gmm_spec(2, 4, seed=207)
    samples, _ = gmm_sample(spec, 300, seed=257)
    inp = tmp_path / "samples.csv"
    write_points(inp, samples.samples)
    fit_out = tmp_path / "fit.json"
    args = ["--input", str(inp), "--k", "4", "--complex"]
    assert main(["fit", *args, "--output", str(fit_out)]) == 3
    # fit --complex writes the zeros but says they are not real
    err = read_stderr_json(capsys)
    assert err["error"] == "numerical-failure"
    assert err["stage"] == "extract"
    assert 0.8 < err["max_imag"] < 0.9
    assert "imaginary parts up to 8." in err["message"]
    fit_payload = json.loads(fit_out.read_text())
    assert len(fit_payload["s_star"]) == 4
    # [re, im] pairs of the same zeros, written in the same order
    assert fit_payload["s_star"] == fit_payload["zero_set"]["points"]
    code = main(["cluster", "--input", str(inp), "--sstar", str(fit_out)])
    assert code == 2
    err = read_stderr_json(capsys)
    assert err["error"] == "numerical-failure"
    assert err["stage"] == "extract"
    assert "imaginary parts up to 8." in err["message"]

    # imaginary parts within the tolerance cluster on the real parts
    near_real = tmp_path / "near_real.json"
    rows = [[[float(v), 1e-9] for v in row] for row in THREE_POINTS]
    near_real.write_text(json.dumps({"s_star": rows}))
    near, _ = bounded_noise_sample(PointSet(THREE_POINTS), 0.1, 20, seed=3)
    write_points(inp, near.samples)
    out = tmp_path / "labels.csv"
    code = main(["cluster", "--input", str(inp), "--sstar", str(near_real), "--output", str(out)])
    assert code == 0
    labels = [int(line.split(",")[0]) for line in out.read_text().splitlines()[1:]]
    assert len(labels) == 60 and sorted(set(labels)) == [0, 1, 2]


def test_bench_rerun_is_byte_identical(tmp_path, capsys):
    scenarios = (
        (["example62", "--seeds", "2"], ["points.csv"]),
        (
            ["table1", "--seeds", "2", "--ni", "12"],
            ["points_eps0.05.csv", "points_eps0.1.csv", "points_eps0.5.csv"],
        ),
    )
    for args, point_files in scenarios:
        first = tmp_path / args[0] / "run1"
        second = tmp_path / args[0] / "run2"
        for out_dir in (first, second):
            code = main(["bench", "--scenario", *args, "--out-dir", str(out_dir)])
            assert code == 0
            capsys.readouterr()
        for name in ("results.csv", "summary.json", *point_files):
            assert (first / name).read_bytes() == (second / name).read_bytes()


def test_bench_seed_is_the_base_of_every_draw(tmp_path, capsys):
    # a valid --seed reaches the trials: seed 7 draws other samples than
    # the default 0, and --seed 0 is that default
    results = {}
    for seed in (None, "0", "7"):
        out_dir = tmp_path / str(seed)
        argv = ["bench", "--scenario", "example62", "--seeds", "1", "--out-dir", str(out_dir)]
        assert main(argv + (["--seed", seed] if seed else [])) == 0
        results[seed] = (out_dir / "results.csv").read_bytes()
    capsys.readouterr()
    assert results[None] == results["0"] != results["7"]


def test_bench_gmm_summary(tmp_path, capsys):
    out_dir = tmp_path / "gmm"
    code = main(
        [
            "bench",
            "--scenario",
            "gmm",
            "--seeds",
            "2",
            "--n",
            "2",
            "--k",
            "3",
            "--samples",
            "200",
            "--out-dir",
            str(out_dir),
        ]
    )
    assert code == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["median_accuracy"] >= 0.8
    assert summary["median_nearest_point_accuracy"] >= 0.8
    rows = (out_dir / "results.csv").read_text().strip().splitlines()
    assert rows[0] == "seed,accuracy,converged"
    assert len(rows) == 3


def test_bench_gmm_scores_extract_failures_as_failed(tmp_path, capsys, monkeypatch):
    # trial 1 has its zeros refused, trial 3 fails inside the extraction;
    # both are extract-stage failures and score 0 without ending the run
    failures = {
        2: "extracted zeros are not real",
        4: "eigenvalues of every random combination stayed clustered",
    }
    calls = []
    recover = cli.recover_point_set

    def fail_some(*args, **kwargs):
        calls.append(len(calls))
        if len(calls) in failures:
            exc = NumericalFailureError(failures[len(calls)])
            exc.stage = "extract"
            raise exc
        return recover(*args, **kwargs)

    monkeypatch.setattr(cli, "recover_point_set", fail_some)
    out_dir = tmp_path / "gmm"
    args = ["bench", "--scenario", "gmm", "--seeds", "4", "--samples", "200"]
    code = main([*args, "--out-dir", str(out_dir)])
    assert code == 3
    assert read_stderr_json(capsys)["error"] == "non-convergence"
    rows = [row.split(",") for row in (out_dir / "results.csv").read_text().strip().splitlines()]
    assert rows[2] == ["1", "0.0", "0"] and rows[4] == ["3", "0.0", "0"]
    assert [row[2] for row in rows[1:]] == ["1", "0", "1", "0"]
    assert min(float(rows[1][1]), float(rows[3][1])) >= 0.8
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["min_accuracy"] == 0.0


def test_bench_gmm_scores_loss_refusals_as_failed(tmp_path, capsys):
    # seven points on a line: in trials 0 and 1 the recovered points are
    # too close to dependent for the lifted loss, which refuses them at the
    # loss stage; the run goes on and trial 2 recovers
    out_dir = tmp_path / "gmm"
    args = ["bench", "--scenario", "gmm", "--n", "1", "--k", "7", "--seeds", "3"]
    assert main([*args, "--out-dir", str(out_dir)]) == 3
    assert one_json_line(capsys.readouterr().err)["error"] == "non-convergence"
    rows = [row.split(",") for row in (out_dir / "results.csv").read_text().strip().splitlines()]
    assert rows[1:3] == [["0", "0.0", "0"], ["1", "0.0", "0"]]
    assert len(rows) == 4 and float(rows[3][1]) >= 0.9


def test_bench_gmm_stops_on_a_fit_refusal(tmp_path, capsys):
    # fewer samples than components: the fit refuses them, and no trial is scored
    out_dir = tmp_path / "gmm"
    args = ["bench", "--scenario", "gmm", "--k", "4", "--samples", "3", "--seeds", "2"]
    assert main([*args, "--out-dir", str(out_dir)]) == 2
    err = one_json_line(capsys.readouterr().err)
    assert err["error"] == "degenerate-configuration" and err["stage"] == "fit"
    assert not out_dir.exists()


def test_bench_gmm_stops_on_other_numerical_failures(tmp_path, capsys, monkeypatch):
    def fail_fit(*args, **kwargs):
        exc = NumericalFailureError("fit lost all accuracy")
        exc.stage = "fit"
        raise exc

    monkeypatch.setattr(cli, "recover_point_set", fail_fit)
    out_dir = tmp_path / "gmm"
    args = ["bench", "--scenario", "gmm", "--seeds", "2", "--out-dir", str(out_dir)]
    assert main(args) == 2
    err = read_stderr_json(capsys)
    assert err["error"] == "numerical-failure" and err["stage"] == "fit"
    # every file is written after the last trial, so nothing is left behind
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "error, stage",
    [
        (DegenerateConfigurationError, "extract"),
        (InvalidStateError, "extract"),
        (NumericalFailureError, "loss"),
    ],
)
def test_bench_gmm_scores_every_refusal_after_the_fit(tmp_path, capsys, monkeypatch, error, stage):
    # coincident real zeros are refused at the extract stage, so are
    # multiplication matrices that do not commute, and a loss may fail
    # numerically: past the fit, each of the three refusals scores 0
    recover = cli.recover_point_set
    calls = []

    def fail_second(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            exc = error("refused after the fit")
            exc.stage = stage
            raise exc
        return recover(*args, **kwargs)

    monkeypatch.setattr(cli, "recover_point_set", fail_second)
    out_dir = tmp_path / "gmm"
    args = ["bench", "--scenario", "gmm", "--seeds", "2", "--samples", "200"]
    assert main([*args, "--out-dir", str(out_dir)]) == 3
    assert one_json_line(capsys.readouterr().err)["error"] == "non-convergence"
    rows = (out_dir / "results.csv").read_text().strip().splitlines()
    assert rows[2] == "1,0.0,0"


@pytest.mark.parametrize(
    "error", [DegenerateConfigurationError, InvalidStateError, NumericalFailureError]
)
def test_each_package_error_names_its_own_kind(tmp_path, capsys, monkeypatch, sample_csv, error):
    # main writes the kind the error names, whatever raised it
    assert error.kind == {
        DegenerateConfigurationError: "degenerate-configuration",
        InvalidStateError: "invalid-state",
        NumericalFailureError: "numerical-failure",
    }[error]

    def refuse(*args, **kwargs):
        raise error("refused where it was found")

    monkeypatch.setattr(cli, "recover_point_set", refuse)
    out = tmp_path / "fit.json"
    assert main(["fit", "--input", str(sample_csv[0]), "--k", "6", "--output", str(out)]) == 2
    err = one_json_line(capsys.readouterr().err)
    assert err == {"error": error.kind, "message": "refused where it was found", "warnings": []}
    assert not out.exists()


def test_cluster_sstar_refuses_unusable_points_exit_two(tmp_path, capsys, sample_csv):
    # PointSet's own refusal reaches the diagnostic, real or as [re, im] pairs
    inp = str(sample_csv[0])
    for rows, message in (
        ([[1.0, 1.0], [3.0, 2.0], [1.0, 1.0]], "points 0 and 2 coincide"),
        (
            [[[1.0, 0.0], [1.0, 0.0]], [[3.0, 0.0], [2.0, 0.0]], [[1.0, 0.0], [1.0, 1e-9]]],
            "points 0 and 2 coincide",
        ),
        # pairs are projected before their dimension is checked: R^3 here, not R^2
        (
            [[[1.0, 0.0]] * 3, [[3.0, 0.0], [2.0, 0.0], [0.0, 0.0]], [[1.0, 0.0]] * 3],
            "points 0 and 2 coincide",
        ),
        ([[1.0, 1.0], [3.0, 2.0], [float("nan"), 1.0]], "points must be finite"),
        (
            [[[1.0, 0.0], [1.0, 0.0]], [[3.0, 0.0], [2.0, 0.0]], [[float("nan"), 0.0], [1.0, 0.0]]],
            "points must be finite",
        ),
    ):
        sstar, out = tmp_path / "sstar.json", tmp_path / "labels.csv"
        sstar.write_text(json.dumps({"s_star": rows}))
        assert main(["cluster", "--input", inp, "--sstar", str(sstar), "--output", str(out)]) == 2
        captured = capsys.readouterr()
        err = one_json_line(captured.err)
        assert err == {"error": "degenerate-configuration", "message": message, "warnings": []}
        assert captured.out == "" and not out.exists()


def test_cluster_sstar_refuses_dependent_points_with_one_message(tmp_path, capsys, sample_csv):
    # three collinear points (affine loss) and four on y = x^2 (lifted
    # loss) are refused alike: exit 2, one JSON line and no labels
    inp = str(sample_csv[0])
    for rows in (
        [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]],
        [[0.0, 0.0], [1.0, 1.0], [2.0, 4.0], [-1.0, 1.0]],
    ):
        sstar, out = tmp_path / "sstar.json", tmp_path / "labels.csv"
        sstar.write_text(json.dumps({"points": rows}))
        assert main(["cluster", "--input", inp, "--sstar", str(sstar), "--output", str(out)]) == 2
        captured = capsys.readouterr()
        err = one_json_line(captured.err)
        assert err["error"] == "degenerate-configuration" and err["warnings"] == []
        message = "point differences are numerically dependent (condition estimate "
        assert err["message"].startswith(message)
        assert captured.out == "" and not out.exists()


def test_cluster_sstar_loss_is_built_by_clustering(tmp_path, capsys, monkeypatch, sample_csv):
    # clustering.build_loss chooses the loss of a given set, for recovery
    # and for cluster --sstar alike, through clustering's own bindings
    calls = []
    for name in ("build_transformed_loss", "solve_generating_matrix"):
        func = getattr(clustering, name)
        monkeypatch.setattr(
            clustering, name, lambda pts, name=name, func=func: calls.append(name) or func(pts)
        )
    sstar = tmp_path / "sstar.json"
    sstar.write_text(json.dumps({"points": BENCH_SET[:3].tolist()}))
    for loss in ("transformed", "fg"):
        argv = ["cluster", "--input", str(sample_csv[0]), "--sstar", str(sstar), "--loss", loss]
        assert main([*argv, "--output", str(tmp_path / f"labels_{loss}.csv")]) == 0
    assert calls == ["build_transformed_loss", "solve_generating_matrix"]


def test_build_and_describe_leave_sympy_unimported(tmp_path):
    # the closed form is summed and printed without sympy, so a fresh
    # process that builds and describes never pays for importing it
    inp, out = tmp_path / "pts.csv", tmp_path / "build.json"
    write_points(inp, THREE_POINTS)
    script = f"""
import json, sys
import numpy as np
import setloss
import setloss.cli
from setloss.generating_system import PointSet
from setloss.loss_functions import TransformedLoss, build_transformed_loss
from setloss.loss_functions import build_transformed_loss

assert setloss.cli.main(["build", "--input", {str(inp)!r}, "--output", {str(out)!r}]) == 0
with open({str(out)!r}) as fh:
    assert json.load(fh)["closed_form"] is not None
build_transformed_loss(PointSet(np.array({THREE_POINTS.tolist()!r}))).describe()
print(json.dumps(sorted(m for m in ("sympy", "mpmath") if m in sys.modules)))
"""
    src = str(Path(setloss.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


@pytest.fixture()
def mixture_csv(tmp_path):
    # a (2, 3) Gaussian mixture whose fit converges to three real points
    samples, _ = gmm_sample(random_gmm_spec(2, 3, seed=1), 300, seed=2)
    path = tmp_path / "mixture.csv"
    write_points(path, samples.samples)
    return path


def test_cluster_sstar_descends_the_generating_loss(tmp_path, capsys, mixture_csv):
    # the generating loss rebuilt from a fit file labels as the one that
    # recovery builds on the same points
    fit_out = tmp_path / "fit.json"
    assert main(["fit", "--input", str(mixture_csv), "--k", "3", "--output", str(fit_out)]) == 0
    labels = {}
    for name, source in (("sstar", ["--sstar", str(fit_out)]), ("k", ["--k", "3"])):
        out = tmp_path / f"labels_{name}.csv"
        argv = ["cluster", "--input", str(mixture_csv), *source, "--loss", "fg"]
        assert main([*argv, "--output", str(out)]) == 0
        labels[name] = out.read_text()
    assert labels["sstar"] == labels["k"]
    assert len(labels["k"].splitlines()) == 301


def test_cluster_best_effort_exit_three(tmp_path, capsys, monkeypatch, mixture_csv):
    monkeypatch.setattr(fitting, "MAX_ROUNDS", 5)
    out = tmp_path / "labels.csv"
    assert main(["cluster", "--input", str(mixture_csv), "--k", "3", "--output", str(out)]) == 3
    captured = capsys.readouterr()
    err = one_json_line(captured.err)
    # the fit's own concern, as fit writes it
    assert err["error"] == "non-convergence" and err["stage"] == "fit"
    assert "penalty rounds; best effort written" in err["message"]
    # the labels and the summary are still written
    assert len(out.read_text().splitlines()) == 301
    assert json.loads(captured.out)["k"] == 3


@pytest.mark.parametrize("command", ["fit", "cluster", "bench"])
def test_a_fit_out_of_rounds_is_one_exit_three_object(
    tmp_path, capsys, monkeypatch, mixture_csv, command
):
    # five penalty rounds leave these fits above target but extractable:
    # fit and cluster write the recovery's own concern, bench its aggregate
    monkeypatch.setattr(fitting, "MAX_ROUNDS", 5)
    out = str(tmp_path / "out")
    argv = {
        "fit": ["fit", "--input", str(mixture_csv), "--k", "3", "--output", out],
        "cluster": ["cluster", "--input", str(mixture_csv), "--k", "3", "--output", out],
        "bench": ["bench", "--scenario", "example62", "--seeds", "1", "--out-dir", out],
    }[command]
    assert main(argv) == 3
    err = one_json_line(capsys.readouterr().err)
    assert err["error"] == "non-convergence" and err["warnings"] == []
    if command == "bench":
        assert set(err) == {"error", "message", "warnings"}
        return
    assert set(err) == {"error", "message", "stage", "warnings"}
    [concern] = recover_point_set(SampleSet(np.loadtxt(mixture_csv, delimiter=",")), 3).concerns
    assert (err["stage"], err["message"]) == (concern.stage, concern.message)
    assert concern.stage == "fit" and "after 5 penalty rounds" in concern.message


@pytest.mark.parametrize("command", ["fit", "cluster"])
def test_non_finite_samples_exit_two(tmp_path, capsys, command):
    samples, _ = gmm_sample(random_gmm_spec(2, 3, seed=1), 300, seed=2)
    points = samples.samples.copy()
    points[5, 0] = np.nan
    inp, out = tmp_path / "nan.csv", tmp_path / "out"
    write_points(inp, points)
    assert main([command, "--input", str(inp), "--k", "3", "--output", str(out)]) == 2
    err = one_json_line(capsys.readouterr().err)
    assert err["error"] == "degenerate-configuration"
    assert "samples must be finite" in err["message"]
    assert not out.exists()


def test_extraction_refusal_is_an_invalid_state(tmp_path, capsys, monkeypatch, mixture_csv):
    # one penalty round leaves the commutators far above extraction's limit
    monkeypatch.setattr(fitting, "MAX_ROUNDS", 1)
    out = tmp_path / "fit.json"
    assert main(["fit", "--input", str(mixture_csv), "--k", "3", "--output", str(out)]) == 2
    err = one_json_line(capsys.readouterr().err)
    assert err["error"] == "invalid-state" and err["stage"] == "extract"
    assert err["message"].startswith("multiplication matrices do not commute (residual ")
    assert err["warnings"] == [] and not out.exists()
