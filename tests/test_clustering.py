import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setloss.clustering import (
    ClusterAssignment,
    GmmSpec,
    assign_labels,
    bounded_noise_sample,
    clustering_accuracy,
    gmm_sample,
    minimize_from,
    random_gmm_spec,
    recover_point_set,
)
from setloss.errors import DegenerateConfigurationError
from setloss.fitting import FitOptions, SampleSet
from setloss.generating_system import PointSet
from setloss.loss_functions import (
    GeneratingLoss,
    SimplicialLoss,
    TransformedLoss,
    build_transformed_loss,
)

from helpers import match_as_multisets, random_points


class Quadratic:
    def __init__(self, center):
        self.center = np.asarray(center, dtype=float)

    def value_and_grad(self, x):
        d = x - self.center
        return float(d @ d), 2 * d


def test_minimize_from_quadratic():
    result = minimize_from(Quadratic([1.0, -2.0, 0.5]), np.zeros(3))
    assert result.converged
    np.testing.assert_allclose(result.x, [1.0, -2.0, 0.5], atol=1e-6)
    assert result.grad_norm <= 1e-8


def test_minimize_from_accepts_plain_callable():
    result = minimize_from(
        lambda x: (float(x @ x), 2 * x), np.array([3.0, -4.0])
    )
    assert result.converged
    np.testing.assert_allclose(result.x, 0, atol=1e-7)


def test_minimize_from_respects_iteration_cap():
    loss = SimplicialLoss(np.ones(4))
    result = minimize_from(loss, np.full(4, 0.7), max_iterations=1)
    assert not result.converged
    assert result.iterations == 1


def test_minimize_from_descends_rosenbrock_valley():
    def rosenbrock(x):
        a, b = x
        value = (1 - a) ** 2 + 100 * (b - a * a) ** 2
        grad = np.array(
            [-2 * (1 - a) - 400 * a * (b - a * a), 200 * (b - a * a)]
        )
        return value, grad

    result = minimize_from(rosenbrock, np.array([-1.2, 1.0]), max_iterations=2000)
    assert result.converged
    np.testing.assert_allclose(result.x, [1.0, 1.0], atol=1e-5)


def test_simplicial_descents_land_on_vertices():
    loss = SimplicialLoss(np.array([1.5, -2.0, 1.0]))
    rng = np.random.default_rng(0)
    vertices = loss.vertices()
    for _ in range(50):
        start = rng.uniform(-2.5, 2.5, size=3)
        result = minimize_from(loss, start)
        assert result.converged
        assert min(np.linalg.norm(result.x - v) for v in vertices) < 1e-5


def random_family_loss(family, seed):
    """A simplicial, affine or lifted loss and one to six starts in [-3, 3]^n."""
    rng = np.random.default_rng(seed)
    if family == "simplicial":
        n = int(rng.integers(1, 5))
        a = rng.uniform(0.6, 2.5, size=n) * rng.choice([-1.0, 1.0], size=n)
        loss = SimplicialLoss(a)
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
@given(st.sampled_from(["simplicial", "affine", "lifted"]), st.integers(0, 2**32 - 1))
def test_batched_descent_matches_single_starts(family, seed):
    loss, starts = random_family_loss(family, seed)
    batch = minimize_from(loss, starts, max_iterations=200)
    assert batch.x.shape == starts.shape
    for i, start in enumerate(starts):
        single = minimize_from(loss, start, max_iterations=200)
        assert batch.iterations[i] == single.iterations
        assert batch.converged[i] == single.converged
        np.testing.assert_allclose(batch.x[i], single.x, rtol=0, atol=1e-10)
        assert batch.grad_norm[i] == pytest.approx(single.grad_norm, rel=1e-6, abs=1e-12)


def test_batched_descent_with_mixed_outcomes():
    inner = SimplicialLoss(np.array([1.0, 2.0]))

    def loss(x):
        # the wrong-sign gradient beyond x1 = 10 leaves no descent direction
        value, grad = inner.value_and_grad(x)
        return value, np.where(x[:, :1] > 10.0, -grad, grad)

    starts = np.array(
        [
            [0.0, 2.0],  # on a vertex
            [0.7, 0.4],
            [12.0, 1.0],  # line search stalls
            [-1.5, 2.5],
        ]
    )
    res = minimize_from(loss, starts, max_iterations=1)
    np.testing.assert_array_equal(res.iterations, [0, 1, 1, 1])
    np.testing.assert_array_equal(res.converged, [True, False, False, False])
    np.testing.assert_array_equal(res.x[0], starts[0])
    np.testing.assert_array_equal(res.x[2], starts[2])
    assert res.grad_norm[2] == pytest.approx(np.linalg.norm(inner.value_and_grad(starts[2])[1]))
    # the stalled row changes nothing for the others
    rest = minimize_from(loss, starts[[0, 1, 3]], max_iterations=1)
    for name in ("x", "iterations", "converged", "grad_norm"):
        np.testing.assert_array_equal(getattr(res, name)[[0, 1, 3]], getattr(rest, name))
    assert not np.allclose(res.x[[1, 3]], starts[[1, 3]])


def test_minimize_from_rejects_bad_start_shape():
    with pytest.raises(ValueError):
        minimize_from(Quadratic([0.0]), np.zeros((2, 2, 1)))


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


def test_recover_point_set_end_to_end():
    rng = np.random.default_rng(8)
    pts = random_points(rng, 4, 2, min_gap=1.0)
    samples, _ = bounded_noise_sample(PointSet(pts), 0.05, 40, seed=9)
    result = recover_point_set(samples, 4, FitOptions(seed=1))
    assert result.fit.converged
    assert result.k == 4
    assert match_as_multisets(result.recovered.points.real, pts) < 0.05
    assert result.loss.kind in ("affine", "lifted")
    assert set(result.timings) == {"fit", "extract", "loss"}


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
    value = result.loss.value(result.recovered.points.real[0])
    assert value == pytest.approx(0.0, abs=1e-6)


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
