"""End-to-end acceptance scorecard.

Ten checks, one per shipping requirement, each printing a single line
with the measured quantity next to its required bound (visible under
``pytest -s``; ``pytest -v`` gives the one-line pass/fail verdicts).
Every check carries the runtime budget it must finish inside.
"""

import time

import numpy as np
import pytest
import scipy.linalg

import setloss.clustering as clustering
from setloss.clustering import (
    assign_labels,
    bounded_noise_sample,
    clustering_accuracy,
    gmm_sample,
    minimize_from,
    random_gmm_spec,
    recover_point_set,
)
from setloss.extraction import extract_zero_set, set_distance
from setloss.fitting import FitOptions, PenaltyModel, SampleSet
from setloss.generating_system import (
    PointSet,
    commutator_residual,
    generator_terms,
    multiplication_matrices,
    solve_generating_matrix,
)
from setloss.loss_functions import GeneratingLoss, build_transformed_loss
from setloss.monomial_basis import standard_monomials

from helpers import (
    fd_gradient,
    fd_hessian,
    fd_jacobian,
    match_as_multisets,
    random_points,
    reference_penalty_jacobian,
    reference_penalty_residuals,
    simplex_loss,
)

# -- golden interpolation problems -------------------------------------------

SET_A = np.array([[2.0, 1.0, 3.0], [-1.0, -2.0, 4.0]])
G_A = np.array(
    [
        [-1.0, 11.0 / 3.0, 2.0, 2.0, -2.0 / 3.0],
        [1.0, -1.0 / 3.0, 1.0, 0.0, 10.0 / 3.0],
    ]
)
TERMS_A = [
    {(0, 1, 0): 1.0, (1, 0, 0): -1.0, (0, 0, 0): 1.0},
    {(0, 0, 1): 1.0, (1, 0, 0): 1.0 / 3.0, (0, 0, 0): -11.0 / 3.0},
    {(2, 0, 0): 1.0, (1, 0, 0): -1.0, (0, 0, 0): -2.0},
    {(1, 1, 0): 1.0, (0, 0, 0): -2.0},
    {(1, 0, 1): 1.0, (1, 0, 0): -10.0 / 3.0, (0, 0, 0): 2.0 / 3.0},
]

SET_B = np.array([[2.0, -1.0], [-1.0, 3.0], [-2.0, -2.0]])
G_B = (
    np.array(
        [[58.0, -14.0, 82.0], [3.0, -23.0, -20.0], [-12.0, -22.0, 23.0]]
    )
    / 19.0
)
TERMS_B = [
    {(2, 0): 1.0, (0, 1): 12.0 / 19.0, (1, 0): -3.0 / 19.0, (0, 0): -58.0 / 19.0},
    {(1, 1): 1.0, (0, 1): 22.0 / 19.0, (1, 0): 23.0 / 19.0, (0, 0): 14.0 / 19.0},
    {(0, 2): 1.0, (0, 1): -23.0 / 19.0, (1, 0): 20.0 / 19.0, (0, 0): -82.0 / 19.0},
]

SET_C = np.array([[3.0, -1.0], [-1.0, 2.0], [2.0, 1.0], [-2.0, -1.0]])
G_C = np.array(
    [
        [20.0, -5.0, -36.0, 22.0],
        [3.5, -1.5, -2.0, 4.5],
        [-7.0, 3.0, 12.0, -5.0],
        [-4.5, 1.5, 9.0, -5.5],
    ]
)
TERMS_C = [
    {(1, 1): 1.0, (2, 0): 4.5, (0, 1): 7.0, (1, 0): -3.5, (0, 0): -20.0},
    {(0, 2): 1.0, (2, 0): -1.5, (0, 1): -3.0, (1, 0): 1.5, (0, 0): 5.0},
    {(3, 0): 1.0, (2, 0): -9.0, (0, 1): -12.0, (1, 0): 2.0, (0, 0): 36.0},
    {(2, 1): 1.0, (2, 0): 5.5, (0, 1): 5.0, (1, 0): -4.5, (0, 0): -22.0},
]

CASE1_SET = np.array([[4.0, -2.0, 1.0], [-1.0, 3.0, -5.0]])
CASE2_SET = np.array([[2.0, 3.0], [-1.0, -2.0], [1.0, -3.0], [-2.0, 2.0]])
L_EXPECTED = np.array([[4.0, 1.0, 3.0], [1.0, -4.0, -5.0], [0.0, -3.0, -3.0]])
L_INV_18 = np.array([[3.0, 6.0, -7.0], [-3.0, 12.0, -23.0], [3.0, -12.0, 17.0]])

SPURIOUS_SET = np.array([[5.0, -2.0], [4.0, 3.0]])
SPURIOUS_MINIMIZER = np.array([-2.2588, -49.7911])

BENCH_SET = np.array(
    [[1.0, 1.0], [3.0, 2.0], [1.5, 2.5], [2.5, 3.0], [2.0, 1.5], [3.0, 1.0]]
)


def report(label, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def symmetric_distance(a, b):
    pa, pb = PointSet(a), PointSet(b)
    return max(set_distance(pa, pb), set_distance(pb, pa))


def test_golden_generating_matrices():
    t0 = time.perf_counter()
    worst = 0.0
    for pts, g_true, terms_true in (
        (SET_A, G_A, TERMS_A),
        (SET_B, G_B, TERMS_B),
        (SET_C, G_C, TERMS_C),
    ):
        gm = solve_generating_matrix(PointSet(pts))
        worst = max(worst, float(np.abs(gm.entries - g_true).max()))
        for got, expected in zip(generator_terms(gm), terms_true):
            for key in set(got) | set(expected):
                worst = max(
                    worst, abs(got.get(key, 0.0) - expected.get(key, 0.0))
                )
    elapsed = time.perf_counter() - t0
    report(
        "golden generating matrices",
        worst <= 1e-10 and elapsed < 1.0,
        f"max entry error {worst:.2e} (bound 1e-10), {elapsed:.2f}s (budget 1s)",
    )


def test_golden_transform_matrices():
    t0 = time.perf_counter()
    affine = build_transformed_loss(PointSet(CASE1_SET))
    err_u = float(
        np.abs(affine.to_simplex - np.array([[5.0, -5.0, 6.0]]) / 86.0).max()
    )
    lifted = build_transformed_loss(PointSet(CASE2_SET))
    err_l = float(np.abs(lifted.diff_mat - L_EXPECTED).max())
    err_linv = float(np.abs(lifted.to_simplex * 18.0 - L_INV_18).max())
    worst = max(err_u, err_l, err_linv)
    elapsed = time.perf_counter() - t0
    report(
        "golden transform matrices",
        worst <= 1e-10 and elapsed < 1.0,
        f"max entry error {worst:.2e} (bound 1e-10), {elapsed:.2f}s (budget 1s)",
    )


def test_documented_spurious_minimizer(monkeypatch):
    monkeypatch.setattr(clustering, "DESCENT_GRADIENT_TOL", 1e-8)
    t0 = time.perf_counter()
    loss = GeneratingLoss(solve_generating_matrix(PointSet(SPURIOUS_SET)))
    result = minimize_from(loss.value_and_grad, np.array([[-2.0, -50.0]]))
    dist = float(np.linalg.norm(result.x[0] - SPURIOUS_MINIMIZER))
    grad_norm = float(np.linalg.norm(loss.value_and_grad(result.x)[1][0]))
    hess = fd_hessian(loss.value_and_grad, result.x[0])
    min_eig = float(np.linalg.eigvalsh(hess).min())
    elapsed = time.perf_counter() - t0
    ok = (
        result.converged[0]
        and dist <= 1e-3
        and grad_norm <= 1e-6
        and min_eig >= -1e-8
        and elapsed < 5.0
    )
    report(
        "documented spurious minimizer",
        ok,
        f"distance {dist:.2e} (bound 1e-3), |grad| {grad_norm:.2e} (bound 1e-6), "
        f"min Hessian eig {min_eig:.3f} (bound -1e-8), {elapsed:.2f}s (budget 5s)",
    )


def test_descents_only_reach_vertices():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    starts_per_config = 200
    total = misses = failures = 0
    configs = []
    for i in range(20):
        family = ("simplicial", "affine", "lifted")[i % 3]
        if family == "simplicial":
            n = int(rng.integers(1, 7))
            configs.append((family, n, None))
        elif family == "affine":
            n = int(rng.integers(2, 7))
            k = int(rng.integers(2, min(n + 1, 6) + 1))
            configs.append((family, n, k))
        else:
            n = int(rng.integers(1, 5))
            k = int(rng.integers(n + 2, 7))
            configs.append((family, n, k))

    for family, n, k in configs:
        if family == "simplicial":
            a = rng.uniform(0.6, 2.5, size=n) * rng.choice([-1.0, 1.0], size=n)
            # the transformed loss of {a_1 e_1, ..., a_n e_n, 0}, checked
            # against its vertices in x
            loss = simplex_loss(a)
            vertices = loss.points.points
            dim = n

            def z_of(x, loss=loss):
                return x

            descend = loss.value_and_grad
        else:
            pts = PointSet(random_points(rng, k, n, min_gap=0.6))
            loss = build_transformed_loss(pts)
            assert loss.kind == family
            eye = np.eye(k - 1)
            vertices = np.vstack([np.zeros((1, k - 1)), eye])
            if family == "affine":
                dim = n

                def z_of(x, loss=loss):
                    return loss.simplex_coords(x)

                descend = loss.value_and_grad
            else:
                # the no-spurious guarantee lives in the lift coordinates
                dim = k - 1

                def z_of(zeta, loss=loss):
                    return np.linalg.solve(loss.diff_mat, (zeta - loss.anchor_lift).T).T

                descend = loss.lift_value_and_grad

        # one batched descent per config, from the same starts in the same
        # order as one draw per start would give
        starts = rng.uniform(-3.0, 3.0, size=(starts_per_config, dim))
        result = minimize_from(descend, starts)
        z = z_of(result.x[result.converged])
        off = np.linalg.norm(z[:, None, :] - vertices[None, :, :], axis=2).min(axis=1)
        total += starts_per_config
        failures += int((~result.converged).sum())
        misses += int((off > 1e-4).sum())
    elapsed = time.perf_counter() - t0
    fail_rate = failures / total
    ok = misses == 0 and fail_rate <= 0.01 and elapsed < 120.0
    report(
        "descents only reach vertices",
        ok,
        f"{total} descents, {misses} off-vertex (bound 0), "
        f"non-convergence {fail_rate:.2%} (bound 1%), {elapsed:.1f}s (budget 120s)",
    )


def test_interpolation_extraction_roundtrip():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst_dist = worst_comm = 0.0
    for _ in range(50):
        k = int(rng.integers(1, 9))
        n = int(rng.integers(1, 5))
        pts = random_points(rng, k, n)
        gm = solve_generating_matrix(PointSet(pts))
        zs = extract_zero_set(gm)
        worst_dist = max(worst_dist, match_as_multisets(zs.points.real, pts))
        worst_dist = max(worst_dist, float(np.abs(zs.points.imag).max()))
        worst_comm = max(worst_comm, commutator_residual(multiplication_matrices(gm)))
    elapsed = time.perf_counter() - t0
    ok = worst_dist <= 1e-8 and worst_comm <= 1e-10 and elapsed < 30.0
    report(
        "interpolation extraction roundtrip",
        ok,
        f"50 sets, worst recovery error {worst_dist:.2e} (bound 1e-8), "
        f"worst commutator {worst_comm:.2e} (bound 1e-10), {elapsed:.1f}s (budget 30s)",
    )


# computed once, consumed by the two noisy-recovery checks below
_noisy_runs: dict = {}


def noisy_recovery_runs():
    if _noisy_runs:
        return _noisy_runs
    t0 = time.perf_counter()
    bench = PointSet(BENCH_SET)
    for eps in (0.05, 0.1, 0.5):
        rows = []
        for trial in range(5):
            samples, _ = bounded_noise_sample(bench, eps, 100, seed=1000 + trial)
            result = recover_point_set(
                samples, 6, FitOptions(seed=trial), loss_kind="generating"
            )
            dist = symmetric_distance(result.recovered.points.real, BENCH_SET)
            max_loss = float(result.loss.value_and_grad(BENCH_SET)[0].max())
            rows.append((dist, max_loss))
        _noisy_runs[eps] = rows
    _noisy_runs["elapsed"] = time.perf_counter() - t0
    return _noisy_runs


def test_noisy_recovery_distance_medians():
    runs = noisy_recovery_runs()
    med = {eps: float(np.median([d for d, _ in runs[eps]])) for eps in (0.05, 0.1, 0.5)}
    elapsed = runs["elapsed"]
    ok = (
        med[0.05] <= 0.02
        and med[0.1] <= 0.05
        and med[0.5] <= 0.3
        and med[0.05] <= med[0.1] <= med[0.5]
        and elapsed < 300.0
    )
    report(
        "noisy recovery distance medians",
        ok,
        f"medians {med[0.05]:.4f}/{med[0.1]:.4f}/{med[0.5]:.4f} "
        f"(bounds 0.02/0.05/0.3, monotone), {elapsed:.1f}s (budget 300s)",
    )


def test_recovered_loss_small_on_true_points():
    runs = noisy_recovery_runs()
    worst = max(loss for _, loss in runs[0.05])
    report(
        "recovered loss small on true points",
        worst <= 1e-2,
        f"max loss over the true points {worst:.2e} (bound 1e-2)",
    )


def test_gmm_clustering_accuracy():
    t0 = time.perf_counter()
    medians = {}
    for cell, (n, k) in enumerate([(2, 3), (2, 4), (3, 3), (3, 4)]):
        accs = []
        for trial in range(10):
            seed = 100 * (cell + 1) + trial
            spec = random_gmm_spec(n, k, seed=seed, separation=6.0)
            samples, truth = gmm_sample(spec, 300, seed=seed + 50)
            try:
                result = recover_point_set(samples, k, FitOptions(seed=trial))
                assignment = assign_labels(result.loss, result.recovered, samples)
                accs.append(
                    clustering_accuracy(assignment, truth, result.recovered, spec.means)
                )
            except Exception:
                accs.append(0.0)
        medians[(n, k)] = float(np.median(accs))
    elapsed = time.perf_counter() - t0
    ok = all(v >= 0.80 for v in medians.values()) and elapsed < 600.0
    detail = ", ".join(f"n={n} k={k}: {v:.3f}" for (n, k), v in medians.items())
    report(
        "gmm clustering accuracy",
        ok,
        f"median accuracy {detail} (bound 0.80 each), {elapsed:.1f}s (budget 600s)",
    )


def test_affine_null_space_invariance():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(2, n + 1))
        loss = build_transformed_loss(PointSet(random_points(rng, k, n)))
        null = loss.null_directions()
        for _ in range(10):
            x = rng.uniform(-3, 3, size=(1, n))
            y = null @ rng.standard_normal(null.shape[1])
            (base, moved), _ = loss.value_and_grad(np.vstack([x, x + y]))
            rel = abs(moved - base) / (1 + abs(base))
            worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 5.0
    report(
        "affine null space invariance",
        ok,
        f"worst relative drift {worst:.2e} (bound 1e-10), {elapsed:.2f}s (budget 5s)",
    )


def test_gradients_match_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(13)
    worst = 0.0

    def rel_err(got, ref):
        scale = max(1e-8, float(np.abs(ref).max()))
        return float(np.abs(got - ref).max()) / scale

    gm = solve_generating_matrix(PointSet(random_points(rng, 5, 2)))
    g_loss = GeneratingLoss(gm)
    simp = simplex_loss(np.array([1.5, -2.0, 1.0, 0.8]))
    affine = build_transformed_loss(PointSet(CASE1_SET))
    lifted = build_transformed_loss(PointSet(CASE2_SET))
    for _ in range(20):
        for loss, n in ((g_loss, 2), (simp, 4), (affine, 3), (lifted, 2)):
            x = rng.uniform(-2, 2, size=(1, n))
            worst = max(
                worst,
                rel_err(loss.value_and_grad(x)[1][0], fd_gradient(loss.value_and_grad, x[0])),
            )

    samples = SampleSet(
        np.repeat(random_points(rng, 4, 2), 10, axis=0)
        + rng.uniform(-0.1, 0.1, (40, 2))
    )
    model = PenaltyModel(samples, standard_monomials(samples.n, 4))
    for _ in range(20):
        g = rng.standard_normal((model.k, model.m))
        jac = reference_penalty_jacobian(model, g, 2.0)
        ref = fd_jacobian(
            lambda v: reference_penalty_residuals(model, v.reshape(model.m, model.k).T, 2.0),
            g.T.reshape(-1),
        )
        worst = max(worst, rel_err(jac, ref))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and elapsed < 10.0
    report(
        "gradients match finite differences",
        ok,
        f"worst relative error {worst:.2e} (bound 1e-5), {elapsed:.1f}s (budget 10s)",
    )
