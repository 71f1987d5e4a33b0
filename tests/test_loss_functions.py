import numpy as np
import pytest

from setloss.generating_system import PointSet, solve_generating_matrix
from setloss.loss_functions import (
    GeneratingLoss,
    SimplicialLoss,
    TransformedLoss,
    build_affine_loss,
    build_lifted_loss,
    build_transformed_loss,
    eval_transformed,
    generating_loss,
    simplicial_loss,
)

from helpers import fd_gradient, fd_hessian, random_points

CASE1_SET = np.array([[4.0, -2.0, 1.0], [-1.0, 3.0, -5.0]])
CASE2_SET = np.array([[2.0, 3.0], [-1.0, -2.0], [1.0, -3.0], [-2.0, 2.0]])
L_EXPECTED = np.array([[4.0, 1.0, 3.0], [1.0, -4.0, -5.0], [0.0, -3.0, -3.0]])
L_INV_18 = np.array([[3.0, 6.0, -7.0], [-3.0, 12.0, -23.0], [3.0, -12.0, 17.0]])

SPURIOUS_SET = np.array([[5.0, -2.0], [4.0, 3.0]])


def simplicial_reference(a, x):
    """Direct evaluation of the defining polynomial."""
    a = np.asarray(a, dtype=float)
    x = np.asarray(x, dtype=float)
    value = np.sum(x**2 * (x - a) ** 2)
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            value += x[i] ** 2 * x[j] ** 2
    return float(value)


def test_simplicial_value_matches_polynomial():
    rng = np.random.default_rng(0)
    for _ in range(30):
        n = int(rng.integers(1, 7))
        a = rng.uniform(0.5, 3.0, size=n) * rng.choice([-1.0, 1.0], size=n)
        x = rng.uniform(-2.0, 2.0, size=n)
        value, _, _ = simplicial_loss(a, x)
        assert value == pytest.approx(simplicial_reference(a, x), rel=1e-12)


def test_simplicial_zeros_are_exactly_the_vertices():
    a = np.array([2.0, -3.0, 1.5])
    loss = SimplicialLoss(a)
    for v in loss.vertices():
        assert loss.value(v) == 0.0
    rng = np.random.default_rng(1)
    for _ in range(50):
        x = rng.uniform(-4, 4, size=3)
        if min(np.linalg.norm(x - v) for v in loss.vertices()) > 1e-3:
            assert loss.value(x) > 0


def test_simplicial_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        a = rng.uniform(0.5, 2.5, size=n) * rng.choice([-1.0, 1.0], size=n)
        x = rng.uniform(-2, 2, size=n)
        _, grad, _ = simplicial_loss(a, x)
        ref = fd_gradient(lambda y: simplicial_loss(a, y)[0], x)
        np.testing.assert_allclose(grad, ref, rtol=1e-5, atol=1e-6)


def test_simplicial_hessian_matches_finite_differences():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        a = rng.uniform(0.5, 2.5, size=n)
        x = rng.uniform(-2, 2, size=n)
        _, _, hess = simplicial_loss(a, x)
        ref = fd_hessian(lambda y: simplicial_loss(a, y)[1], x)
        np.testing.assert_allclose(hess, ref, rtol=1e-4, atol=1e-5)


def test_simplicial_hessian_cross_term_coefficient():
    # d^2/dx1 dx2 of x1^2 x2^2 is 4 x1 x2
    x = np.array([0.7, 0.3])
    _, _, hess = simplicial_loss(np.ones(2), x)
    assert hess[0, 1] == pytest.approx(4 * 0.7 * 0.3, rel=1e-12)
    assert hess[0, 1] != pytest.approx(8 * 0.7 * 0.3, rel=1e-2)


def test_simplicial_rejects_zero_scale():
    with pytest.raises(ValueError):
        simplicial_loss(np.array([1.0, 0.0]), np.zeros(2))


def test_univariate_simplicial_closed_form():
    loss = SimplicialLoss(np.array([1.0]))
    for z in np.linspace(-2, 2, 41):
        assert loss.value(np.array([z])) == pytest.approx(
            z**2 * (z - 1) ** 2, abs=1e-14
        )


def test_generating_loss_is_squared_residual_norm():
    rng = np.random.default_rng(4)
    pts = PointSet(random_points(rng, 5, 2))
    gm = solve_generating_matrix(pts)
    loss = GeneratingLoss(gm)
    from setloss.generating_system import evaluate_generators

    for _ in range(10):
        x = rng.uniform(-2, 2, size=2)
        phi = evaluate_generators(gm, x)
        assert loss.value(x) == pytest.approx(float(phi @ phi), rel=1e-12)
        _, grad = generating_loss(gm, x)
        ref = fd_gradient(loss.value, x)
        np.testing.assert_allclose(grad, ref, rtol=1e-4, atol=1e-5)


def test_spurious_example_expanded_form():
    gm = solve_generating_matrix(PointSet(SPURIOUS_SET))
    loss = GeneratingLoss(gm)
    rng = np.random.default_rng(5)
    for _ in range(20):
        x1, x2 = rng.uniform(-5, 8, size=2)
        expected = (
            (x2 + 5 * x1 - 23) ** 2
            + (x1**2 - 9 * x1 + 20) ** 2
            + (x1 * x2 + 22 * x1 - 100) ** 2
        )
        assert loss.value(np.array([x1, x2])) == pytest.approx(expected, rel=1e-10)


def test_affine_transform_golden_values():
    loss = build_affine_loss(PointSet(CASE1_SET))
    assert loss.kind == "affine"
    np.testing.assert_allclose(
        loss.u_pinv, np.array([[5.0, -5.0, 6.0]]) / 86.0, atol=1e-12
    )
    np.testing.assert_allclose(loss.anchor, CASE1_SET[1], atol=0)


def test_affine_loss_closed_form():
    loss = build_affine_loss(PointSet(CASE1_SET))
    rng = np.random.default_rng(6)
    for _ in range(20):
        x = rng.uniform(-5, 5, size=3)
        z = (5 * x[0] - 5 * x[1] + 6 * x[2] + 50) / 86.0
        assert loss.value(x) == pytest.approx(z**2 * (z - 1) ** 2, abs=1e-13)


def test_lifted_transform_golden_values():
    loss = build_lifted_loss(PointSet(CASE2_SET))
    assert loss.kind == "lifted"
    np.testing.assert_allclose(loss.l_mat, L_EXPECTED, atol=1e-12)
    np.testing.assert_allclose(
        np.linalg.inv(loss.l_mat) * 18.0, L_INV_18, atol=1e-10
    )
    # lift coordinates are (x1, x2, x1^2)
    np.testing.assert_allclose(loss.lift(np.array([2.0, 3.0])), [2.0, 3.0, 4.0])


def test_transformed_losses_vanish_on_their_sets():
    for pts in (CASE1_SET, CASE2_SET):
        loss = build_transformed_loss(PointSet(pts))
        for i, u in enumerate(pts):
            assert loss.value(u) == pytest.approx(0.0, abs=1e-12)
            z = loss.simplex_coords(u)
            expected = np.zeros(len(pts) - 1)
            if i < len(pts) - 1:
                expected[i] = 1.0
            np.testing.assert_allclose(z, expected, atol=1e-10)


def test_dispatch_by_cardinality():
    rng = np.random.default_rng(7)
    affine = build_transformed_loss(PointSet(random_points(rng, 3, 3)))
    lifted = build_transformed_loss(PointSet(random_points(rng, 5, 3)))
    assert affine.kind == "affine"
    assert lifted.kind == "lifted"


def test_transformed_gradients_match_finite_differences():
    rng = np.random.default_rng(8)
    for pts_arr in (CASE1_SET, CASE2_SET):
        loss = build_transformed_loss(PointSet(pts_arr))
        for _ in range(10):
            x = rng.uniform(-2, 2, size=loss.n)
            value, grad = loss.value_and_grad(x)
            assert value == pytest.approx(loss.value(x))
            ref = fd_gradient(loss.value, x)
            np.testing.assert_allclose(grad, ref, rtol=1e-4, atol=1e-6)


def test_lift_space_gradient_matches_finite_differences():
    loss = build_lifted_loss(PointSet(CASE2_SET))
    rng = np.random.default_rng(9)
    for _ in range(10):
        zeta = rng.uniform(-2, 2, size=loss.simplex_dim)
        value, grad = loss.lift_value_and_grad(zeta)
        ref = fd_gradient(lambda w: loss.lift_value_and_grad(w)[0], zeta)
        np.testing.assert_allclose(grad, ref, rtol=1e-4, atol=1e-6)
        assert value >= 0


def test_lift_space_zeros_are_the_lifted_points():
    loss = build_lifted_loss(PointSet(CASE2_SET))
    for u in CASE2_SET:
        value, grad = loss.lift_value_and_grad(loss.lift(u))
        assert value == pytest.approx(0.0, abs=1e-13)
        np.testing.assert_allclose(grad, 0, atol=1e-10)


def test_null_directions_leave_loss_unchanged():
    rng = np.random.default_rng(10)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(2, n + 1))
        loss = build_affine_loss(PointSet(random_points(rng, k, n)))
        null = loss.null_directions()
        assert null.shape == (n, n - k + 1)
        for _ in range(5):
            x = rng.uniform(-3, 3, size=n)
            y = null @ rng.standard_normal(null.shape[1])
            base = loss.value(x)
            assert abs(loss.value(x + y) - base) <= 1e-10 * (1 + abs(base))


def test_single_point_loss_is_flat():
    loss = build_transformed_loss(PointSet(np.array([[1.5, -0.5]])))
    value, grad = loss.value_and_grad(np.array([9.0, 9.0]))
    assert value == 0.0
    np.testing.assert_allclose(grad, 0, atol=0)


def test_eval_transformed_wrapper():
    loss = build_affine_loss(PointSet(CASE1_SET))
    x = np.array([0.5, 0.5, 0.5])
    value, grad = eval_transformed(loss, x)
    assert value == pytest.approx(loss.value(x))
    np.testing.assert_allclose(grad, loss.value_and_grad(x)[1], atol=0)


def test_json_roundtrip_both_kinds():
    for pts in (CASE1_SET, CASE2_SET):
        loss = build_transformed_loss(PointSet(pts))
        again = TransformedLoss.from_json(loss.to_json())
        assert again.kind == loss.kind
        x = np.full(loss.n, 0.3)
        assert again.value(x) == pytest.approx(loss.value(x), rel=1e-12)


def test_describe_small_cases():
    text = build_affine_loss(PointSet(CASE1_SET)).describe()
    assert isinstance(text, str) and len(text) > 0
    big = build_transformed_loss(
        PointSet(np.arange(10.0).reshape(5, 2) ** 2)
    ).describe()
    assert isinstance(big, str) and len(big) > 0


def test_batched_losses_stack_per_row_results():
    rng = np.random.default_rng(21)
    pts = PointSet(random_points(rng, 5, 2, min_gap=0.6))
    losses = [
        SimplicialLoss(np.array([1.5, -2.0])),
        build_transformed_loss(PointSet(random_points(rng, 3, 2, min_gap=0.6))),
        build_transformed_loss(pts),
        GeneratingLoss(solve_generating_matrix(pts)),
    ]
    xs = rng.uniform(-2.0, 2.0, size=(6, 2))
    xs[2] = 0.0
    xs[4, 1] = 0.0
    for loss in losses:
        values, grads = loss.value_and_grad(xs)
        assert values.shape == (6,) and grads.shape == (6, 2)
        for x, value, grad in zip(xs, values, grads):
            one_value, one_grad = loss.value_and_grad(x)
            assert value == one_value
            np.testing.assert_array_equal(grad, one_grad)
        with pytest.raises(ValueError):
            loss.value_and_grad(np.zeros((2, 3)))
    lifted = losses[2]
    np.testing.assert_array_equal(
        lifted.simplex_coords(xs), [lifted.simplex_coords(x) for x in xs]
    )
