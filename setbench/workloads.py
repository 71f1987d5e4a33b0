"""The three workloads of the setloss benchmark.

Each workload is a fixed cycle of cells (problem shapes).  Problem inputs
are drawn from ``numpy.random.SeedSequence((seed, cycle, slot))``, so the
same seed gives the same problems in the same order, and the program under
test only ever sees the generated arrays or files.  Nothing here imports
the package's own samplers or the test helpers: the generators below are
the benchmark's own.

A workload exposes ``problem(seed, cycle, slot)`` (untimed input
generation), ``solve(problem)`` (the timed call into setloss) and
``check(problem, output)`` (untimed verification).  ``passes`` is how
often a run solves each problem (its latency is the fastest of them), and
``cycle_seconds`` the wall time of one pass over one cycle, checks
included, on a shared 2-vCPU x86 host at this commit: together they fix
how many cycles a run of a given length holds, so the problems of a run
depend on its seed and length only, never on how fast the host happened
to be.  ``check`` returns a
``Verdict``: ``malformed`` marks output that breaks the program's own
contract (wrong shape, labels out of range, wrong n or k in the JSON);
``reason`` is set for every failed problem, malformed or merely outside
the workload's tolerance.

Calls go through module attributes (``sl_clustering.recover_point_set``
and so on), looked up at call time, so the tracer can wrap them.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

import setloss.cli as sl_cli
import setloss.clustering as sl_clustering
import setloss.extraction as sl_extraction
from setloss.fitting import FitOptions, SampleSet
from setloss.generating_system import GeneratingMatrix

# the reference six-point set of the paper's Table 1, copied so that the
# benchmark's inputs do not depend on the program under test
BENCH_SET = np.array(
    [[1.0, 1.0], [3.0, 2.0], [1.5, 2.5], [2.5, 3.0], [2.0, 1.5], [3.0, 1.0]]
)

GMM_ACCURACY_BOUND = 0.80
ROUNDTRIP_BOUND = 1e-8


@dataclass
class Verdict:
    passed: bool
    reason: str = ""
    malformed: bool = False
    distance: float | None = None
    accuracy: float | None = None


def _rng(seed: int, cycle: int, slot: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, cycle, slot)))


# -- input generators --------------------------------------------------------


def separated_points(rng, k: int, n: int, half_width: float, min_gap: float, tries=1000):
    """k points uniform in [-half_width, half_width]^n, pairwise >= min_gap apart."""
    for _ in range(tries):
        pts = rng.uniform(-half_width, half_width, (k, n))
        gaps = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        gaps[np.diag_indices(k)] = np.inf
        if gaps.min() >= min_gap:
            return pts
    raise RuntimeError(f"no separated set of {k} points in R^{n} at gap {min_gap}")


def bounded_noise(rng, points: np.ndarray, eps: float, per_point: int):
    """Samples around each point inside its box [-eps, eps]^n.

    Offsets are normal with scale eps/2, redrawn until inside the box, so
    no sample sits farther than eps * sqrt(n) from its point.
    """
    k, n = points.shape
    chunks = []
    for i in range(k):
        kept = np.empty((0, n))
        while kept.shape[0] < per_point:
            cand = rng.normal(0.0, eps / 2.0, (2 * per_point, n))
            kept = np.vstack([kept, cand[np.max(np.abs(cand), axis=1) <= eps]])
        chunks.append(points[i] + kept[:per_point])
    return np.vstack(chunks)


def gaussian_mixture(rng, n: int, k: int, separation: float = 6.0, scale: float = 0.5):
    """Equal-weight mixture with means separated relative to the covariances.

    Covariances are R^T R for random factors R of entries of order
    ``scale``; means are redrawn in a box until every pair is at least
    ``separation`` times the largest singular value of any factor apart.
    """
    factors = rng.uniform(-scale, scale, (k, n, n)) + np.eye(n) * 0.3 * scale
    sigma_max = max(float(np.linalg.svd(r, compute_uv=False)[0]) for r in factors)
    gap = separation * sigma_max
    box = gap * max(2.0, 1.5 * k ** (1.0 / n))
    while True:
        means = rng.uniform(0.0, box, (k, n))
        dists = np.linalg.norm(means[:, None, :] - means[None, :, :], axis=2)
        if dists[np.triu_indices(k, 1)].min() >= gap:
            break
    covs = np.transpose(factors, (0, 2, 1)) @ factors
    return means, covs


def mixture_draw(rng, means: np.ndarray, covs: np.ndarray, size: int):
    k, n = means.shape
    comps = rng.integers(0, k, size)
    chols = np.linalg.cholesky(covs)
    normals = rng.standard_normal((size, n))
    samples = means[comps] + np.einsum("sij,sj->si", chols[comps], normals)
    return samples, comps


# -- checks --------------------------------------------------------------------


def set_distance(recovered: np.ndarray, truth: np.ndarray) -> float:
    """max over true points of the distance to the nearest recovered point."""
    d = np.linalg.norm(truth[:, None, :] - recovered[None, :, :], axis=2)
    return float(d.min(axis=1).max())


def aligned_accuracy(labels, truth, recovered: np.ndarray, means: np.ndarray) -> float:
    """Share of labels matching the truth after aligning recovered points to means."""
    k = means.shape[0]
    best = min(
        itertools.permutations(range(k)),
        key=lambda perm: float(np.sum((recovered - means[list(perm)]) ** 2)),
    )
    return float(np.mean(np.asarray(best)[labels] == truth))


def _recovered_points(result, k: int, n: int):
    pts = np.asarray(result.recovered.points)
    if pts.shape != (k, n) or not np.all(np.isfinite(pts)):
        return None
    return pts.real


# -- workloads -----------------------------------------------------------------


@dataclass
class Problem:
    cell: str
    data: dict


class GmmCluster:
    """Samples in, labels out: recover the set, then label by descent."""

    name = "gmm_cluster"
    # the acceptance cells.  (2,4), the one lifted loss, is listed twice:
    # the affine and lifted descents then take about equal time, the
    # median problem falls inside the (3,4) cell and the tail inside the
    # (2,4) cell, not on the gap between two cells, which keeps both
    # steady from seed to seed
    cycle = ((2, 3), (2, 4), (3, 3), (2, 4), (3, 4))
    samples = 300
    # two passes: a third would leave too few problems in a run for the
    # tail to lie well above the median
    passes = 2
    cycle_seconds = 2.8

    def problem(self, seed: int, cycle: int, slot: int) -> Problem:
        n, k = self.cycle[slot]
        rng = _rng(seed, cycle, slot)
        means, covs = gaussian_mixture(rng, n, k)
        samples, truth = mixture_draw(rng, means, covs, self.samples)
        return Problem(
            f"n{n}k{k}",
            {"n": n, "k": k, "means": means, "samples": samples, "truth": truth,
             "fit_seed": int(rng.integers(0, 2**31))},
        )

    def solve(self, p: Problem):
        samples = SampleSet(p.data["samples"])
        result = sl_clustering.recover_point_set(
            samples, p.data["k"], FitOptions(seed=p.data["fit_seed"])
        )
        assignment = sl_clustering.assign_labels(result.loss, result.recovered, samples)
        return result, assignment

    def check(self, p: Problem, output) -> Verdict:
        result, assignment = output
        k, n = p.data["k"], p.data["n"]
        rec = _recovered_points(result, k, n)
        labels = np.asarray(assignment.labels)
        if rec is None or labels.shape != (self.samples,):
            return Verdict(False, "malformed recovered set or labels", malformed=True)
        if labels.min() < 0 or labels.max() >= k:
            return Verdict(False, "label out of range", malformed=True)
        dist = set_distance(rec, p.data["means"])
        acc = aligned_accuracy(labels, p.data["truth"], rec, p.data["means"])
        if acc < GMM_ACCURACY_BOUND:
            return Verdict(False, f"accuracy {acc:.3f} < {GMM_ACCURACY_BOUND}", distance=dist, accuracy=acc)
        return Verdict(True, distance=dist, accuracy=acc)


class NoisyFit:
    """Bounded-noise recovery on a ladder of set sizes; no labeling.

    Not among BENCHMARK.json's workloads, whose runs must all end within
    a fixed time: with a third workload a run could last only about 30 s,
    and at that length problems_per_s spread up to 0.28 of its median
    from run to run on a shared 2-vCPU host.  Run it by name to measure a
    change to the fit.
    """

    name = "noisy_fit"
    # (n, k, eps, samples per point); (2,6) is the Table 1 set.  A (3,20)
    # fit takes 1 to 3.5 s depending on the drawn set, so with one (3,20)
    # problem per cycle and (4,12) four times the run-to-run spread of the
    # timings is about two thirds of what equal weights give, and the
    # median and the tail fall inside the (4,12) cell rather than on the
    # gap between two cells
    cycle = (
        (2, 6, 0.1, 100),
        (4, 12, 0.05, 60),
        (3, 10, 0.05, 60),
        (4, 12, 0.05, 60),
        (3, 20, 0.05, 60),
        (4, 12, 0.05, 60),
        (4, 12, 0.05, 60),
    )
    # one pass: problems take 0.5 to 3 s and differ more from one drawn set
    # to the next than from one solve to the next, so distinct problems
    # steady the figures more than repeats do
    passes = 1
    cycle_seconds = 6.0

    def problem(self, seed: int, cycle: int, slot: int) -> Problem:
        n, k, eps, per_point = self.cycle[slot]
        rng = _rng(seed, cycle, slot)
        if (n, k) == (2, 6):
            points = BENCH_SET
        else:
            points = separated_points(rng, k, n, half_width=3.0, min_gap=0.6)
        samples = bounded_noise(rng, points, eps, per_point)
        return Problem(
            f"n{n}k{k}",
            {"n": n, "k": k, "eps": eps, "points": points, "samples": samples,
             "fit_seed": int(rng.integers(0, 2**31))},
        )

    def solve(self, p: Problem):
        return sl_clustering.recover_point_set(
            SampleSet(p.data["samples"]),
            p.data["k"],
            FitOptions(seed=p.data["fit_seed"]),
            loss_kind="generating",
        )

    def check(self, p: Problem, result) -> Verdict:
        rec = _recovered_points(result, p.data["k"], p.data["n"])
        if rec is None:
            return Verdict(False, "malformed recovered set", malformed=True)
        dist = set_distance(rec, p.data["points"])
        bound = p.data["eps"] * math.sqrt(p.data["n"])
        if dist > bound:
            converged = "converged" if result.fit.converged else "not converged"
            return Verdict(False, f"distance {dist:.3g} > {bound:.3g} ({converged})", distance=dist)
        return Verdict(True, distance=dist)


class BuildRoundtrip:
    """Exact points through ``setloss build`` and back out of G by extraction."""

    name = "build_roundtrip"
    cycle = tuple((n, k) for n in (2, 3, 4) for k in range(2, 36))
    passes = 3
    cycle_seconds = 3.6

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def problem(self, seed: int, cycle: int, slot: int) -> Problem:
        # each cycle visits every (n, k) once, in a seeded order
        order = np.random.default_rng(np.random.SeedSequence((seed, cycle))).permutation(
            len(self.cycle)
        )
        n, k = self.cycle[int(order[slot])]
        rng = _rng(seed, cycle, slot)
        gap = min(0.35, 0.7 * 2.0 * math.sqrt(n) / k)
        points = separated_points(rng, k, n, half_width=2.0, min_gap=gap)
        self.workdir.mkdir(parents=True, exist_ok=True)
        csv_path = self.workdir / "points.csv"
        csv_path.write_text(
            "\n".join(",".join(repr(float(v)) for v in row) for row in points) + "\n"
        )
        return Problem(
            f"n{n}k{k}",
            {"n": n, "k": k, "points": points, "csv": csv_path,
             "json": self.workdir / "system.json"},
        )

    def solve(self, p: Problem):
        out = p.data["json"]
        out.unlink(missing_ok=True)
        code = sl_cli.main(["build", "--input", str(p.data["csv"]), "--output", str(out)])
        if code != 0:
            return code, None, None
        payload = json.loads(out.read_text())
        gm = GeneratingMatrix.from_json(payload["generating_matrix"])
        return code, payload, sl_extraction.extract_zero_set(gm)

    def check(self, p: Problem, output) -> Verdict:
        code, payload, zeros = output
        if code != 0:
            return Verdict(False, f"build exit {code}")
        k, n = p.data["k"], p.data["n"]
        pts = np.asarray(zeros.points)
        if payload.get("k") != k or payload.get("n") != n or pts.shape != (k, n):
            return Verdict(False, "malformed build output or zero set", malformed=True)
        truth = p.data["points"]
        cost = np.linalg.norm(pts.real[:, None, :] - truth[None, :, :], axis=2)
        rows, cols = linear_sum_assignment(cost)
        err = max(float(cost[rows, cols].max()), float(np.abs(pts.imag).max()))
        if not err <= ROUNDTRIP_BOUND:
            return Verdict(False, f"round-trip error {err:.3g} > {ROUNDTRIP_BOUND}")
        return Verdict(True)


def make_workload(name: str, workdir: Path):
    if name == GmmCluster.name:
        return GmmCluster()
    if name == NoisyFit.name:
        return NoisyFit()
    if name == BuildRoundtrip.name:
        return BuildRoundtrip(workdir)
    raise ValueError(f"unknown workload {name!r}")
