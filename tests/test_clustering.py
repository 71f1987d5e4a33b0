import dataclasses
import inspect
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import setloss.clustering as clustering
from setloss.clustering import (
    ClusterAssignment,
    GmmSpec,
    assign_labels,
    bounded_noise_sample,
    clustering_accuracy,
    gmm_sample,
    minimize_from,
    nearest_point_assignment,
    random_gmm_spec,
    recover_point_set,
)
from setloss.errors import DegenerateConfigurationError
from setloss.fitting import FitOptions, SampleSet
from setloss.generating_system import PointSet
from setloss.loss_functions import (
    GeneratingLoss,
    TransformedLoss,
    build_transformed_loss,
)

from helpers import (
    match_as_multisets,
    random_points,
    reference_alignment,
    reference_assign_labels,
    reference_bounded_noise_sample,
    simplex_loss,
)


class Quadratic:
    def __init__(self, center):
        self.center = np.asarray(center, dtype=float)

    def value_and_grad(self, x):
        d = x - self.center
        return (d * d).sum(axis=1), 2 * d


def rosenbrock(x):
    a, b = x.T
    value = (1 - a) ** 2 + 100 * (b - a * a) ** 2
    grad = np.stack([-2 * (1 - a) - 400 * a * (b - a * a), 200 * (b - a * a)], axis=1)
    return value, grad


class UphillBeyondTen:
    """The simplex loss of (1, 2) with its gradient's sign flipped beyond x1 = 10.

    There the gradient leaves no descent direction, so a row started
    there stalls in its first line search.  ``calls`` counts evaluations.
    """

    def __init__(self):
        self.inner = simplex_loss(np.array([1.0, 2.0]))
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        value, grad = self.inner.value_and_grad(x)
        return value, np.where(x[:, :1] > 10.0, -grad, grad)


def descend_at_most(iterations, fun, starts, **kwargs):
    """``minimize_from`` with MAX_DESCENT_ITERATIONS set to ``iterations`` for one call."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(clustering, "MAX_DESCENT_ITERATIONS", iterations)
        return minimize_from(fun, starts, **kwargs)


def test_descent_schedule_is_fixed():
    # as the fit's, the descent's tolerance and iteration cap are fixed
    # parts of the method; the step cap and the settle threshold are what
    # assign_labels works out from each input
    assert (clustering.DESCENT_GRADIENT_TOL, clustering.MAX_DESCENT_ITERATIONS) == (1e-8, 500)
    assert list(inspect.signature(minimize_from).parameters) == [
        "fun",
        "starts",
        "max_step",
        "settle_below",
    ]
    assert list(inspect.signature(random_gmm_spec).parameters) == [
        "n",
        "k",
        "seed",
        "separation",
        "diagonal",
    ]


def test_minimize_from_quadratic():
    result = minimize_from(Quadratic([1.0, -2.0, 0.5]).value_and_grad, np.zeros((1, 3)))
    assert result.converged[0]
    np.testing.assert_allclose(result.x, [[1.0, -2.0, 0.5]], atol=1e-6)
    assert result.grad_norm[0] <= 1e-8


def test_minimize_from_accepts_plain_callable():
    result = minimize_from(
        lambda x: ((x * x).sum(axis=1), 2 * x), np.array([[3.0, -4.0]])
    )
    assert result.converged[0]
    np.testing.assert_allclose(result.x, 0, atol=1e-7)


def test_an_uphill_direction_restarts_from_steepest_descent():
    # the first step, from h = I, is s = -g0 = (1, -1), and the curvature
    # pair y = g1 - g0 has s.y = 20: above the update's guard of 1e-12 |s| |y|
    # (about 0.02) but a billionth of |s| |y|, so the rounded update leaves
    # an inverse Hessian under which -h g1 points uphill.  The row drops
    # that model and steps along -g1
    g0, g1 = np.array([[-1.0, 1.0]]), np.array([[1e10 + 9.0, 1e10 - 9.0]])
    scripted = [(1.0, g0), (0.0, g1)]
    calls = []

    def fun(x):
        calls.append(x.copy())
        value, grad = scripted[len(calls) - 1] if len(calls) <= 2 else (-1e300, 0.0 * x)
        return np.array([value]), grad.copy()

    result = minimize_from(fun, np.zeros((1, 2)))
    x0, x1, x2 = calls
    s, y = (x1 - x0)[0], (g1 - g0)[0]
    assert np.array_equal(s, -g0[0])
    scale = np.linalg.norm(s) * np.linalg.norm(y)
    assert 1e-12 * scale < s @ y <= 1e-9 * scale
    np.testing.assert_array_equal(x2 - x1, -g1)
    assert result.converged[0] and result.iterations[0] == 2


def test_minimize_from_respects_iteration_cap(monkeypatch):
    monkeypatch.setattr(clustering, "MAX_DESCENT_ITERATIONS", 1)
    loss = simplex_loss(np.ones(4))
    result = minimize_from(loss.value_and_grad, np.full((1, 4), 0.7))
    assert not result.converged[0]
    assert result.iterations[0] == 1


def test_minimize_from_descends_rosenbrock_valley(monkeypatch):
    monkeypatch.setattr(clustering, "MAX_DESCENT_ITERATIONS", 2000)
    result = minimize_from(rosenbrock, np.array([[-1.2, 1.0]]))
    assert result.converged[0]
    np.testing.assert_allclose(result.x, [[1.0, 1.0]], atol=1e-5)


def test_simplicial_descents_land_on_vertices():
    loss = simplex_loss(np.array([1.5, -2.0, 1.0]))
    rng = np.random.default_rng(0)
    vertices = loss.points.points
    starts = rng.uniform(-2.5, 2.5, size=(50, 3))
    result = minimize_from(loss.value_and_grad, starts)
    assert result.converged.all()
    gaps = np.linalg.norm(result.x[:, None, :] - vertices[None, :, :], axis=2)
    assert gaps.min(axis=1).max() < 1e-5


def random_family_loss(family, seed):
    """A simplicial, affine or lifted loss and one to six starts in [-3, 3]^n."""
    rng = np.random.default_rng(seed)
    if family == "simplicial":
        n = int(rng.integers(1, 5))
        a = rng.uniform(0.6, 2.5, size=n) * rng.choice([-1.0, 1.0], size=n)
        loss = simplex_loss(a)
    elif family == "affine":
        n = int(rng.integers(2, 5))
        k = int(rng.integers(2, n + 2))
        loss = build_transformed_loss(PointSet(random_points(rng, k, n, min_gap=0.6)))
    else:
        n = int(rng.integers(1, 3))
        k = int(rng.integers(n + 2, 6))
        loss = build_transformed_loss(PointSet(random_points(rng, k, n, min_gap=0.6)))
    starts = rng.uniform(-3.0, 3.0, size=(int(rng.integers(1, 7)), n))
    return loss, starts


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(["simplicial", "affine", "lifted"]),
    st.integers(0, 2**32 - 1),
    st.floats(0.01, 3.0),
)
def test_batched_descent_matches_single_starts(family, seed, max_step):
    # a row's outcome does not depend on its batch: each row descends as a
    # batch of that one row to the same bits
    loss, starts = random_family_loss(family, seed)
    for cap in (np.inf, max_step):
        batch = descend_at_most(200, loss.value_and_grad, starts, max_step=cap)
        assert batch.x.shape == starts.shape
        for i in range(len(starts)):
            single = descend_at_most(200, loss.value_and_grad, starts[i : i + 1], max_step=cap)
            assert batch.iterations[i] == single.iterations[0]
            assert batch.converged[i] == single.converged[0]
            np.testing.assert_array_equal(batch.x[i : i + 1], single.x)
            assert batch.grad_norm[i] == single.grad_norm[0]


def huber(x):
    # 0.5 x^2 within 1 of the origin and |x| - 0.5 beyond it, in each coordinate
    inside = np.abs(x) <= 1.0
    return np.where(inside, 0.5 * x * x, np.abs(x) - 0.5).sum(axis=1), np.where(inside, x, np.sign(x))


def test_batched_descent_updates_some_rows_and_skips_others():
    # In the first iteration row 0 steps along a linear stretch, where the
    # gradient does not change, so it has no usable curvature pair and keeps
    # its inverse Hessian; row 2 steps into the quadratic part and updates.
    starts = np.array([[6.0, -4.5, 3.0], [0.4, -0.3, 0.2], [0.9, 5.0, -0.7]])
    first = descend_at_most(1, huber, starts).x
    np.testing.assert_array_equal(huber(first[:1])[1], huber(starts[:1])[1])
    assert np.dot(first[2] - starts[2], huber(first[2:])[1][0] - huber(starts[2:])[1][0]) > 0
    batch = minimize_from(huber, starts)
    np.testing.assert_array_equal(batch.iterations, [12, 1, 10])
    assert batch.converged.all()
    for i in range(len(starts)):
        single = minimize_from(huber, starts[i : i + 1])
        for got, want in zip(single, batch, strict=True):
            np.testing.assert_array_equal(got, want[i : i + 1])


def test_capped_descent_never_steps_further_than_max_step():
    def iterates(cap, count):
        # cutting a descent after i iterations returns its i-th accepted iterate
        return [start[0]] + [
            descend_at_most(i, rosenbrock, start, max_step=cap).x[0]
            for i in range(1, count + 1)
        ]

    start, cap = np.array([[-1.2, 1.0]]), 0.1
    uncapped = iterates(np.inf, minimize_from(rosenbrock, start).iterations[0])
    assert max(np.linalg.norm(np.diff(uncapped, axis=0), axis=1)) > 5 * cap

    seen = []

    def recording(x):
        seen.extend(x.copy())
        return rosenbrock(x)

    result = descend_at_most(2000, recording, start, max_step=cap)
    assert result.converged[0]
    np.testing.assert_allclose(result.x, [[1.0, 1.0]], atol=1e-5)
    capped = iterates(cap, result.iterations[0])
    for before, after in zip(capped, capped[1:]):
        assert any(np.array_equal(after, p) for p in seen)
        assert np.linalg.norm(after - before) <= cap * (1 + 1e-12)
    # every point evaluated along the way lies within the cap of an iterate
    reach = np.linalg.norm(
        np.array(seen)[:, None, :] - np.array(capped)[None, :, :], axis=2
    ).min(axis=1)
    assert reach.max() <= cap * (1 + 1e-12)


def test_capped_descent_crosses_flat_concave_stretches():
    def well(x):
        # a Gaussian well at 5: concave, and nearly flat, beyond one unit from it
        e = np.exp(-0.5 * (x - 5.0) ** 2)
        return -e.sum(axis=-1), (x - 5.0) * e

    # the curvature pairs are negative, so BFGS never lengthens the
    # gradient-sized steps and the uncapped descent crawls
    crawl = minimize_from(well, np.array([[0.0]]))
    assert not crawl.converged[0] and abs(crawl.x[0, 0]) < 0.1
    starts = np.array([[0.0], [1.0], [2.5], [9.0]])
    result = minimize_from(well, starts, max_step=0.5)
    assert result.converged.all()
    np.testing.assert_allclose(result.x, 5.0, atol=1e-6)
    assert result.iterations.max() <= 15


def test_batched_descent_with_mixed_outcomes():
    loss = UphillBeyondTen()
    starts = np.array(
        [
            [0.0, 2.0],  # on a vertex
            [0.7, 0.4],
            [12.0, 1.0],  # line search stalls
            [-1.5, 2.5],
        ]
    )
    res = descend_at_most(1, loss, starts)
    np.testing.assert_array_equal(res.iterations, [0, 1, 1, 1])
    np.testing.assert_array_equal(res.converged, [True, False, False, False])
    np.testing.assert_array_equal(res.x[0], starts[0])
    np.testing.assert_array_equal(res.x[2], starts[2])
    assert res.grad_norm[2] == pytest.approx(np.linalg.norm(loss.inner.value_and_grad(starts[2:3])[1]))
    # the stalled row changes nothing for the others
    rest = descend_at_most(1, loss, starts[[0, 1, 3]])
    for name in ("x", "iterations", "converged", "grad_norm"):
        np.testing.assert_array_equal(getattr(res, name)[[0, 1, 3]], getattr(rest, name))
    assert not np.allclose(res.x[[1, 3]], starts[[1, 3]])
    # at the default cap the stalled row leaves after its one step while
    # the others descend on, and they end as they do without it
    full = minimize_from(loss, starts)
    np.testing.assert_array_equal(full.iterations, [0, 7, 1, 14])
    np.testing.assert_array_equal(full.converged, [True, True, False, True])
    np.testing.assert_array_equal(full.x[2], starts[2])
    assert full.grad_norm[2] == res.grad_norm[2]
    rest = minimize_from(loss, starts[[0, 1, 3]])
    for name in ("x", "iterations", "converged", "grad_norm"):
        np.testing.assert_array_equal(getattr(full, name)[[0, 1, 3]], getattr(rest, name))


def test_a_backtracked_step_that_does_not_move_is_a_stall():
    # Halving a capped step reaches steps that round away to nothing, and
    # the loss there equals the loss at the iterate, which f plus a tiny
    # negative Armijo term rounds back to.  Such a step is no decrease: the
    # row stalls in its first line search, as it does uncapped, rather
    # than standing still up to the iteration cap.
    start = np.array([[12.0, 1.0]])
    loss = UphillBeyondTen()
    free = minimize_from(loss, start)
    assert loss.calls == 61
    loss.calls = 0
    capped = minimize_from(loss, start, max_step=0.1)
    assert capped.iterations[0] == free.iterations[0] == 1
    assert loss.calls <= 61
    for got, want in zip(capped, free, strict=True):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(capped.x, start)
    assert not capped.converged[0]


def test_minimize_from_rejects_bad_start_shape():
    # starts are an (N, d) batch: a (d,) vector is refused, not adapted
    fun = Quadratic([0.0, 0.0]).value_and_grad
    for starts in (np.zeros((2, 2, 1)), np.zeros(2)):
        with pytest.raises(ValueError, match=r"expected starts of shape \(N, d\)"):
            minimize_from(fun, starts)
    # starts are real: a complex start is refused, its imaginary part not dropped
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TypeError):
            minimize_from(fun, np.array([[0.5 + 1j, 0.2]]))


def test_minimize_from_refuses_complex_values_and_gradients():
    # what fun returns is real too: a complex value or gradient raises
    # TypeError rather than losing its imaginary part with a warning
    def complex_fun(x):
        value, grad = Quadratic([1.0, -2.0]).value_and_grad(x)
        return value + 0j, grad + 1j

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TypeError):
            minimize_from(complex_fun, np.zeros((1, 2)))


def test_assign_labels_descends_in_one_batch(monkeypatch):
    rng = np.random.default_rng(19)
    pts = PointSet(random_points(rng, 3, 2, min_gap=1.2))
    samples, truth = bounded_noise_sample(pts, 0.05, 100, seed=20)
    assert samples.size == 300
    calls = []
    original = TransformedLoss.value_and_grad

    def counted(self, x):
        calls.append(np.shape(x))
        return original(self, x)

    monkeypatch.setattr(TransformedLoss, "value_and_grad", counted)
    assignment = assign_labels(build_transformed_loss(pts), pts, samples)
    np.testing.assert_array_equal(assignment.labels, truth)
    # a per-sample descent would need at least one call per sample
    assert len(calls) < samples.size
    assert calls[0] == (300, 2)


def test_minimize_from_settles_rows_below_the_threshold():
    start = np.array([[-1.2, 1.0]])
    full = minimize_from(rosenbrock, start)
    default = minimize_from(rosenbrock, start, settle_below=-np.inf)
    for got, want in zip(default, full, strict=True):
        np.testing.assert_array_equal(got, want)
    settled = minimize_from(rosenbrock, start, settle_below=1e-3)
    steps = int(settled.iterations[0])
    assert settled.converged[0] and 0 < steps < full.iterations[0]
    # it stops at the first iterate of the full descent below the threshold
    at = descend_at_most(steps, rosenbrock, start)
    before = descend_at_most(steps - 1, rosenbrock, start)
    np.testing.assert_array_equal(settled.x, at.x)
    np.testing.assert_array_equal(settled.grad_norm, at.grad_norm)
    assert rosenbrock(at.x)[0][0] < 1e-3 <= rosenbrock(before.x)[0][0]
    # an iterate below the threshold at the iteration cap counts as settled
    assert not at.converged[0]
    capped = descend_at_most(steps, rosenbrock, start, settle_below=1e-3)
    assert capped.converged[0]
    np.testing.assert_array_equal(capped.x, at.x)
    # batched rows settle on their own, from the start when it is low enough
    starts = np.vstack([start, [[1.0, 1.001], [2.0, 2.0]]])
    rows = minimize_from(rosenbrock, starts, settle_below=1e-3)
    assert rows.iterations[1] == 0 and rows.converged.all()
    np.testing.assert_array_equal(rows.x[1], starts[1])
    assert rows.iterations[0] == steps


def _vertex_bound(z):
    # h(min(dist(z, V), 1/2)) with h(r) = r^2 (1 - r)^2, V = {0, e_1, ...}
    d = z.shape[1]
    vertices = np.vstack([np.zeros(d), np.eye(d)])
    dist = np.linalg.norm(z[:, None, :] - vertices[None, :, :], axis=2).min(axis=1)
    r = np.minimum(dist, 0.5)
    return (r * (1.0 - r)) ** 2


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_simplicial_loss_bounds_the_distance_to_the_vertices(d):
    # the lemma behind assign_labels' early stop: f(z) >= h(min(dist, 1/2))
    rng = np.random.default_rng(60 + d)
    vertices = np.vstack([np.zeros(d), np.eye(d)])
    mids = np.array([(a + b) / 2 for a, b in itertools.combinations(vertices, 2)])
    dirs = rng.standard_normal((3000, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    near = vertices[rng.integers(0, d + 1, 3000)] + dirs * rng.uniform(0, 0.7, (3000, 1))
    z = np.vstack([rng.uniform(-1.0, 2.0, (5000, d)), rng.normal(0.3, 0.4, (5000, d)), mids, near])
    loss = simplex_loss(np.ones(d))
    values = loss.value_and_grad(z)[0]
    assert np.all(values >= _vertex_bound(z) * (1.0 - 1e-12))
    # tight halfway between the origin and each e_i
    halfway = loss.value_and_grad(np.eye(d) / 2)[0]
    np.testing.assert_array_equal(halfway, 1 / 16)


def _gmm_problem(n, k, seed, separation=6.0):
    spec = random_gmm_spec(n, k, seed=seed, separation=separation)
    samples, _ = gmm_sample(spec, 300, seed=seed + 50)
    pts = PointSet(spec.means)
    return build_transformed_loss(pts), pts, samples


@pytest.mark.parametrize(
    "n, k, seed, separation",
    [(2, 3, 1, 6.0), (2, 3, 11, 3.0), (3, 3, 3, 6.0), (3, 4, 4, 6.0), (3, 4, 14, 3.0),
     (2, 4, 5, 6.0), (2, 4, 15, 3.0)],
)
def test_settled_labels_equal_full_descent_labels(n, k, seed, separation):
    # (3,3) maps R^3 onto a plane, (2,4) is the lifted map
    loss, pts, samples = _gmm_problem(n, k, seed, separation)
    assert loss.kind == ("lifted" if k > n + 1 else "affine")
    settled = assign_labels(loss, pts, samples)
    full = reference_assign_labels(loss, pts, samples)
    np.testing.assert_array_equal(settled.labels, full.labels)
    assert settled.converged.all()
    assert np.all(settled.iterations <= full.iterations)
    early = settled.iterations < full.iterations
    assert early.sum() >= samples.size // 2
    np.testing.assert_array_equal(settled.minimizers[~early], full.minimizers[~early])


def test_no_settling_when_a_step_can_cross_between_vertices():
    # a flat triangle: |P|_2 max_step is 1.42, so the settle radius is
    # negative and every field is the full descent's, bit for bit
    pts = PointSet(np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 0.05]]))
    samples, _ = bounded_noise_sample(pts, 0.01, 100, seed=7)
    loss = build_transformed_loss(pts)
    settled = assign_labels(loss, pts, samples)
    full = reference_assign_labels(loss, pts, samples)
    for name in ("labels", "converged", "iterations", "minimizers"):
        np.testing.assert_array_equal(getattr(settled, name), getattr(full, name))


def test_generating_loss_never_settles():
    rng = np.random.default_rng(3)
    pts = PointSet(random_points(rng, 3, 2, min_gap=1.5))
    samples, _ = bounded_noise_sample(pts, 0.3, 30, seed=4)
    from setloss.generating_system import solve_generating_matrix

    loss = GeneratingLoss(solve_generating_matrix(pts))
    settled = assign_labels(loss, pts, samples)
    full = reference_assign_labels(loss, pts, samples)
    for name in ("labels", "converged", "iterations", "minimizers"):
        np.testing.assert_array_equal(getattr(settled, name), getattr(full, name))


def test_assign_labels_stops_descents_once_labels_settle(monkeypatch):
    # batched value_and_grad calls with descents run in full: 21 (affine)
    # and 24 (lifted); with the early stop: 4 and 9
    calls = []
    original = TransformedLoss.value_and_grad

    def counted(self, x):
        calls.append(np.shape(x))
        return original(self, x)

    monkeypatch.setattr(TransformedLoss, "value_and_grad", counted)
    for (n, k, seed), bound in (((2, 3, 1), 8), ((2, 4, 5), 15)):
        loss, pts, samples = _gmm_problem(n, k, seed)
        calls.clear()
        assign_labels(loss, pts, samples)
        assert calls[0] == (300, n)
        assert len(calls) <= bound


def test_assign_labels_keeps_lifted_descents_in_their_basin():
    # uncapped, the first quasi-Newton step (unit inverse Hessian) sent 14
    # of these samples onto a neighbouring point
    rng = np.random.default_rng(19)
    pts = PointSet(random_points(rng, 5, 2, min_gap=1.2))
    samples, truth = bounded_noise_sample(pts, 0.05, 60, seed=20)
    loss = build_transformed_loss(pts)
    assert loss.kind == "lifted"
    assignment = assign_labels(loss, pts, samples)
    assert assignment.converged.all()
    np.testing.assert_array_equal(assignment.labels, truth)
    # the cap costs no extra iterations here (9.3 per sample uncapped)
    assert assignment.iterations.mean() < 10.0


def test_nearest_point_accuracy_on_the_basin_jump_case(monkeypatch):
    # the case of the test above: the nearest recovered point labels every
    # sample right, and through the same alignment it scores what an
    # uncapped descent, which jumps basins here, loses
    import setloss.clustering as clustering

    rng = np.random.default_rng(19)
    pts = PointSet(random_points(rng, 5, 2, min_gap=1.2))
    samples, truth = bounded_noise_sample(pts, 0.05, 60, seed=20)
    nearest = nearest_point_assignment(pts, samples)
    np.testing.assert_array_equal(nearest.labels, truth)
    assert nearest.converged.all() and not nearest.iterations.any()
    np.testing.assert_array_equal(nearest.minimizers, pts.points[truth])
    # true means listed in another order are aligned back by the permutation
    order = np.array([2, 0, 4, 1, 3])
    relabeled = np.argsort(order)[truth]
    assert clustering_accuracy(nearest, relabeled, pts, pts.points[order]) == 1.0
    monkeypatch.setattr(clustering, "STEP_CAP_FRACTION", np.inf)
    descent = assign_labels(build_transformed_loss(pts), pts, samples)
    descent_accuracy = clustering_accuracy(descent, relabeled, pts, pts.points[order])
    assert descent_accuracy == pytest.approx(1.0 - 14 / 300)


def test_nearest_point_assignment_rejects_dimension_mismatch():
    pts = PointSet(np.array([[0.0, 0.0], [1.0, 1.0]]))
    with pytest.raises(ValueError):
        nearest_point_assignment(pts, SampleSet(np.zeros((3, 3))))
    with pytest.raises(ValueError, match="dimension mismatch"):
        assign_labels(build_transformed_loss(pts), pts, SampleSet(np.zeros((3, 3))))


def test_assign_labels_on_exact_clusters():
    rng = np.random.default_rng(1)
    pts = PointSet(random_points(rng, 4, 2, min_gap=1.2))
    samples, truth = bounded_noise_sample(pts, 0.05, 30, seed=2)
    loss = build_transformed_loss(pts)
    assignment = assign_labels(loss, pts, samples)
    assert assignment.size == samples.size
    assert assignment.converged.all()
    np.testing.assert_array_equal(assignment.labels, truth)


def test_assign_labels_generating_loss_nearest_point():
    rng = np.random.default_rng(3)
    pts = PointSet(random_points(rng, 3, 2, min_gap=1.5))
    samples, truth = bounded_noise_sample(pts, 0.05, 20, seed=4)
    from setloss.generating_system import solve_generating_matrix

    loss = GeneratingLoss(solve_generating_matrix(pts))
    assignment = assign_labels(loss, pts, samples)
    np.testing.assert_array_equal(assignment.labels, truth)


def test_anchor_point_gets_last_label():
    pts = PointSet(np.array([[2.0, 0.0], [0.0, 2.0], [-2.0, -2.0]]))
    loss = build_transformed_loss(pts)
    samples = SampleSet(pts.points.copy())
    assignment = assign_labels(loss, pts, samples)
    np.testing.assert_array_equal(assignment.labels, [0, 1, 2])


def test_accuracy_is_permutation_invariant():
    rng = np.random.default_rng(5)
    means = random_points(rng, 4, 2, min_gap=2.0)
    pts = PointSet(means)
    samples, truth = bounded_noise_sample(pts, 0.1, 25, seed=6)
    loss = build_transformed_loss(pts)
    assignment = assign_labels(loss, pts, samples)
    base = clustering_accuracy(assignment, truth, pts, means)
    assert base == pytest.approx(1.0)
    # shuffle the recovered points; the matching must absorb the relabeling
    perm = np.array([2, 0, 3, 1])
    shuffled = PointSet(means[perm])
    relabeled = assign_labels(build_transformed_loss(shuffled), shuffled, samples)
    assert clustering_accuracy(relabeled, truth, shuffled, means) == pytest.approx(
        base
    )


def test_accuracy_aligns_as_the_permutation_loop_does():
    # labels 0..k-1 with the loop's permutation as truth score 1 exactly when
    # clustering_accuracy picks that permutation; grid points and repeated
    # means give totals that tie to the bit
    rng = np.random.default_rng(11)
    for case in range(150):
        # the loop takes about 0.1 s at k = 7, so only a few cases go there
        k = 7 if case % 25 == 0 else int(rng.integers(1, 7))
        n = int(rng.integers(1, 4))
        pts = random_points(rng, k, n, min_gap=0.1)
        if case % 3 == 0:
            means = rng.integers(-1, 2, (k, n)).astype(float)
        elif case % 3 == 1:
            means = pts[rng.integers(0, k, k)] + rng.integers(-1, 2, (k, n))
        else:
            means = rng.standard_normal((k, n))
        perm = reference_alignment(pts, means)
        assignment = ClusterAssignment(
            labels=np.arange(k),
            converged=np.ones(k, dtype=bool),
            iterations=np.zeros(k, dtype=np.int64),
            minimizers=pts,
        )
        assert clustering_accuracy(assignment, np.array(perm), PointSet(pts), means) == 1.0


def test_cluster_assignment_copies_its_arrays():
    # freezing the assignment leaves the caller's arrays writeable
    fields = {
        "labels": np.array([0, 1, 1]),
        "converged": np.ones(3, dtype=bool),
        "iterations": np.array([2, 0, 5]),
        "minimizers": np.zeros((3, 2)),
    }
    assignment = ClusterAssignment(**fields)
    for name, arr in fields.items():
        assert arr.flags.writeable
        assert not getattr(assignment, name).flags.writeable
        np.testing.assert_array_equal(getattr(assignment, name), arr)


def test_accuracy_rejects_oversized_alignment():
    rng = np.random.default_rng(7)
    means = random_points(rng, 9, 2, min_gap=1.0)
    pts = PointSet(means)
    truth = np.zeros(9, dtype=np.int64)
    assignment = ClusterAssignment(
        labels=np.zeros(9, dtype=np.int64),
        converged=np.ones(9, dtype=bool),
        iterations=np.zeros(9, dtype=np.int64),
        minimizers=means.copy(),
    )
    with pytest.raises(NotImplementedError):
        clustering_accuracy(assignment, truth, pts, means)


def test_accuracy_rejects_non_finite_means():
    pts = PointSet(np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]]))
    samples = SampleSet(pts.points.copy())
    assignment = assign_labels(build_transformed_loss(pts), pts, samples)
    means = pts.points.copy()
    means[1] = np.nan  # the mean of a label with no samples
    with pytest.raises(ValueError, match="finite"):
        clustering_accuracy(assignment, np.array([0, 2, 2]), pts, means)


def test_accuracy_refuses_truth_and_means_that_do_not_fit():
    pts = PointSet(np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]]))
    samples = SampleSet(pts.points.copy())
    assignment = assign_labels(build_transformed_loss(pts), pts, samples)
    # fractional labels are refused, not truncated to [0, 1, 1]
    cases = [
        ([0.5, 1.7, 1.2], pts.points, "truth labels must be integers"),
        ([0, 1, 2], pts.points[:2], "expected 3 true means"),
        ([0, 1], pts.points, "one truth label per sample"),
        ([0, 1, 3], pts.points, "must index the true means"),
        ([-1, 1, 2], pts.points, "must index the true means"),
    ]
    for truth, means, message in cases:
        with pytest.raises(ValueError, match=message):
            clustering_accuracy(assignment, truth, pts, means)


def test_accuracy_refuses_complex_means():
    pts = PointSet(np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]]))
    samples = SampleSet(pts.points.copy())
    assignment = assign_labels(build_transformed_loss(pts), pts, samples)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TypeError):
            clustering_accuracy(assignment, np.array([0, 1, 2]), pts, pts.points + 1j)
        # and complex truth labels
        with pytest.raises(TypeError):
            clustering_accuracy(assignment, np.array([0, 1, 2]) + 0j, pts, pts.points)


def test_recover_point_set_end_to_end():
    rng = np.random.default_rng(8)
    pts = random_points(rng, 4, 2, min_gap=1.0)
    samples, _ = bounded_noise_sample(PointSet(pts), 0.05, 40, seed=9)
    result = recover_point_set(samples, 4, FitOptions(seed=1))
    assert result.fit.converged
    # converged to real zeros: not best effort
    assert result.concerns == ()
    assert result.k == 4
    assert match_as_multisets(result.recovered.points.real, pts) < 0.05
    assert result.loss.kind in ("affine", "lifted")


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_recovery_reports_non_real_zeros_without_a_loss(seed):
    # a (2, 4) mixture whose fitted zeros hold a conjugate pair: told to
    # keep complex zeros, recovery returns them as they are, at every
    # extraction seed, and builds no loss on their real parts
    samples, _ = gmm_sample(random_gmm_spec(2, 4, seed=207), 300, seed=257)
    result = recover_point_set(samples, 4, FitOptions(seed=seed), want_real=False)
    assert not result.zero_set.is_real
    assert result.recovered is None and result.loss is None
    assert result.k == 4


def test_recovery_concerns_say_when_the_answer_is_best_effort():
    # the seed-207 conjugate pair: one concern, at the extract stage
    samples, _ = gmm_sample(random_gmm_spec(2, 4, seed=207), 300, seed=257)
    result = recover_point_set(samples, 4, want_real=False)
    assert result.fit.converged
    [concern] = result.concerns
    assert (concern.kind, concern.stage) == ("numerical-failure", "extract")
    assert 0.8 < concern.numbers["max_imag"] < 0.9
    assert concern.numbers["max_imag"] == result.zero_set.max_imaginary()
    # derived on each read: a fit replaced by an unconverged one comes first
    unconverged = dataclasses.replace(result.fit, converged=False)
    first, second = dataclasses.replace(result, fit=unconverged).concerns
    assert (first.kind, first.stage, first.numbers) == ("non-convergence", "fit", {})
    assert first.message == (
        f"commutator norm {result.fit.commutator_norm:.3e} above target after "
        f"{result.fit.rounds} penalty rounds; best effort written"
    )
    assert second == concern


def test_recover_tags_failure_stage():
    samples = SampleSet(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    try:
        recover_point_set(samples, 6)
    except DegenerateConfigurationError as exc:
        assert exc.stage == "fit"
    else:
        pytest.fail("rank-deficient recovery did not raise")


def test_recover_generating_loss_kind():
    rng = np.random.default_rng(10)
    pts = random_points(rng, 3, 2, min_gap=1.2)
    samples, _ = bounded_noise_sample(PointSet(pts), 0.05, 30, seed=11)
    result = recover_point_set(samples, 3, loss_kind="generating")
    assert isinstance(result.loss, GeneratingLoss)
    value, _ = result.loss.value_and_grad(result.recovered.points[:1])
    assert value[0] == pytest.approx(0.0, abs=1e-6)
    with pytest.raises(ValueError, match="unknown loss kind 'product'"):
        recover_point_set(samples, 3, loss_kind="product")


def test_bounded_noise_counts_and_containment():
    pts = PointSet(np.array([[0.0, 0.0], [5.0, 5.0]]))
    for model in ("uniform", "truncated-normal"):
        samples, truth = bounded_noise_sample(
            pts, np.array([0.5, 0.1]), np.array([30, 70]), seed=12, model=model
        )
        assert samples.size == 100
        assert (truth[:30] == 0).all() and (truth[30:] == 1).all()
        first = samples.samples[:30] - pts.points[0]
        second = samples.samples[30:] - pts.points[1]
        assert np.abs(first).max() <= 0.5
        assert np.abs(second).max() <= 0.1


@pytest.mark.parametrize("model", ["truncated-normal", "uniform"])
def test_bounded_noise_matches_row_by_row_reference(model):
    # the masked acceptance keeps the same rows of the same draws as a
    # loop testing one candidate at a time, so the samples are identical
    rng = np.random.default_rng(31)
    for trial in range(24):
        n, k = int(rng.integers(1, 5)), int(rng.integers(1, 8))
        pts = random_points(rng, k, n, min_gap=0.5)
        eps = rng.uniform(0.05, 1.0, k) if trial % 2 else float(rng.uniform(0.05, 1.0))
        counts = rng.integers(1, 40, k) if trial % 3 else int(rng.integers(1, 40))
        samples, truth = bounded_noise_sample(
            PointSet(pts), eps, counts, seed=trial, model=model
        )
        ref_samples, ref_truth = reference_bounded_noise_sample(
            pts, eps, counts, seed=trial, model=model
        )
        assert samples.samples.tobytes() == ref_samples.tobytes()
        np.testing.assert_array_equal(truth, ref_truth)


def test_bounded_noise_is_deterministic():
    pts = PointSet(np.array([[1.0, 2.0], [3.0, -1.0]]))
    a, _ = bounded_noise_sample(pts, 0.2, 15, seed=13)
    b, _ = bounded_noise_sample(pts, 0.2, 15, seed=13)
    c, _ = bounded_noise_sample(pts, 0.2, 15, seed=14)
    np.testing.assert_array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


def test_bounded_noise_validation():
    pts = PointSet(np.array([[0.0, 0.0]]))
    with pytest.raises(ValueError):
        bounded_noise_sample(pts, -0.1, 5)
    with pytest.raises(ValueError):
        bounded_noise_sample(pts, 0.1, 0)
    with pytest.raises(ValueError):
        bounded_noise_sample(pts, 0.1, 5, model="cauchy")
    # counts are whole numbers, not truncated to one
    three = PointSet(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]]))
    for counts in (5.7, [2.5, 3.9, 1.2]):
        with pytest.raises(ValueError, match="integers"):
            bounded_noise_sample(three, 0.1, counts)
    assert bounded_noise_sample(three, 0.1, 4.0)[0].size == 12
    assert bounded_noise_sample(three, 0.1, np.array([2.0, 3.0, 1.0]))[0].size == 6
    # a complex radius or count raises TypeError, not a cast to its real part
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TypeError):
            bounded_noise_sample(pts, 0.1 + 0.1j, 5)
        with pytest.raises(TypeError):
            bounded_noise_sample(PointSet(np.eye(2)), 0.1, np.array([3 + 0j, 2]))


def test_gmm_spec_validation():
    good = GmmSpec(
        weights=np.array([0.5, 0.5]),
        means=np.zeros((2, 2)),
        covariances=np.array([np.eye(2), np.eye(2)]),
    )
    assert good.k == 2 and good.n == 2
    with pytest.raises(ValueError):
        GmmSpec(
            weights=np.array([0.9, 0.2]),
            means=np.zeros((2, 2)),
            covariances=np.array([np.eye(2), np.eye(2)]),
        )
    with pytest.raises(ValueError):
        GmmSpec(
            weights=np.array([0.5, 0.5]),
            means=np.zeros((2, 2)),
            covariances=np.array([np.eye(2), -np.eye(2)]),
        )
    with pytest.raises(ValueError, match="one weight per mean"):
        GmmSpec(np.full(3, 1 / 3), np.zeros((2, 2)), np.array([np.eye(2), np.eye(2)]))
    with pytest.raises(ValueError, match="covariances of shape"):
        GmmSpec(np.array([0.5, 0.5]), np.zeros((2, 2)), np.eye(2))
    skew = np.array([np.eye(2), [[1.0, 0.5], [0.0, 1.0]]])
    with pytest.raises(ValueError, match="covariance 1 is not symmetric"):
        GmmSpec(np.array([0.5, 0.5]), np.zeros((2, 2)), skew)
    for size in (0, -3):
        with pytest.raises(ValueError, match="positive sample count"):
            gmm_sample(good, size)


def test_gmm_spec_refuses_complex_entries():
    # each field is cast as real_batch casts points: complex raises TypeError
    fields = {
        "weights": np.array([1.0]),
        "means": np.array([[0.0, 2.0]]),
        "covariances": np.eye(2)[None],
    }
    for name in fields:
        bad = {**fields, name: fields[name] + 1j}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TypeError):
                GmmSpec(**bad)


def test_gmm_sample_statistics():
    spec = GmmSpec(
        weights=np.array([0.3, 0.7]),
        means=np.array([[0.0, 0.0], [50.0, 50.0]]),
        covariances=np.array([np.eye(2), 4 * np.eye(2)]),
    )
    samples, comps = gmm_sample(spec, 4000, seed=15)
    assert samples.size == 4000
    frac = float((comps == 1).mean())
    assert abs(frac - 0.7) < 0.03
    far = samples.samples[comps == 1]
    np.testing.assert_allclose(far.mean(axis=0), [50.0, 50.0], atol=0.25)
    np.testing.assert_allclose(np.cov(far.T), 4 * np.eye(2), atol=0.5)


def test_gmm_sample_deterministic():
    spec = random_gmm_spec(2, 3, seed=16)
    a, ca = gmm_sample(spec, 100, seed=17)
    b, cb = gmm_sample(spec, 100, seed=17)
    np.testing.assert_array_equal(a.samples, b.samples)
    np.testing.assert_array_equal(ca, cb)


def test_random_gmm_spec_separation():
    for seed in range(5):
        spec = random_gmm_spec(3, 4, seed=seed, separation=6.0)
        sigma = max(
            np.sqrt(np.linalg.eigvalsh(c).max()) for c in spec.covariances
        )
        gaps = [
            np.linalg.norm(spec.means[i] - spec.means[j])
            for i in range(4)
            for j in range(i + 1, 4)
        ]
        assert min(gaps) >= 6.0 * sigma - 1e-9
        np.testing.assert_allclose(spec.weights, 0.25, atol=0)


def test_random_gmm_spec_diagonal():
    spec = random_gmm_spec(3, 2, seed=18, diagonal=True)
    for cov in spec.covariances:
        np.testing.assert_allclose(cov, np.diag(np.diag(cov)), atol=0)
