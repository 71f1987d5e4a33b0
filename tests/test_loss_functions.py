import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from setloss.clustering import minimize_from
from setloss.errors import DegenerateConfigurationError
from setloss.generating_system import PointSet, solve_generating_matrix
from setloss.loss_functions import (
    GeneratingLoss,
    TransformedLoss,
    _format_sum,
    _KEY_BASE,
    _matvec,
    _rational,
    build_transformed_loss,
)

from setloss.monomial_basis import MonomialBasis, standard_monomials
from setloss.numeric_kernels import UNROLLED_WIDTH, row_sum

from helpers import (
    fd_gradient,
    random_points,
    reference_describe,
    reference_settle_threshold,
    reference_simplicial,
    reference_transformed_value_and_grad,
    simplex_loss,
)

CASE1_SET = np.array([[4.0, -2.0, 1.0], [-1.0, 3.0, -5.0]])
CASE2_SET = np.array([[2.0, 3.0], [-1.0, -2.0], [1.0, -3.0], [-2.0, 2.0]])
L_EXPECTED = np.array([[4.0, 1.0, 3.0], [1.0, -4.0, -5.0], [0.0, -3.0, -3.0]])
L_INV_18 = np.array([[3.0, 6.0, -7.0], [-3.0, 12.0, -23.0], [3.0, -12.0, 17.0]])

SPURIOUS_SET = np.array([[5.0, -2.0], [4.0, 3.0]])

# to_json output of CASE1_SET and CASE2_SET as earlier releases wrote it,
# when each kind kept its own constructor arguments
CASE1_PAYLOAD = {
    "kind": "affine",
    "n": 3,
    "k": 2,
    "points": [[4.0, -2.0, 1.0], [-1.0, 3.0, -5.0]],
    "u": [[5.0], [-5.0], [6.0]],
    "u_pinv": [[0.05813953488372092, -0.05813953488372092, 0.0697674418604651]],
    "anchor": [-1.0, 3.0, -5.0],
}
CASE2_PAYLOAD = {
    "kind": "lifted",
    "n": 2,
    "k": 4,
    "points": [[2.0, 3.0], [-1.0, -2.0], [1.0, -3.0], [-2.0, 2.0]],
    "lift_basis": {"n": 2, "members": [[0, 0], [1, 0], [0, 1], [2, 0]]},
    "l": [[4.0, 1.0, 3.0], [1.0, -4.0, -5.0], [0.0, -3.0, -3.0]],
    "anchor_lift": [-2.0, 2.0, 4.0],
}


def simplicial_reference(z):
    """Direct evaluation of the standard-simplex polynomial."""
    value = np.sum(z**2 * (z - 1.0) ** 2)
    for i in range(len(z)):
        for j in range(i + 1, len(z)):
            value += z[i] ** 2 * z[j] ** 2
    return float(value)


def random_scales(rng, n):
    return rng.uniform(0.5, 3.0, size=n) * rng.choice([-1.0, 1.0], size=n)


def test_simplicial_value_matches_polynomial():
    # the loss of the scaled simplex is the standard one of z = x / a
    rng = np.random.default_rng(0)
    for _ in range(30):
        n = int(rng.integers(1, 7))
        a = random_scales(rng, n)
        x = rng.uniform(-2.0, 2.0, size=(1, n))
        value, _ = simplex_loss(a).value_and_grad(x)
        assert value[0] == pytest.approx(simplicial_reference(x[0] / a), rel=1e-12, abs=1e-15)


def test_simplicial_zeros_are_exactly_the_vertices():
    loss = simplex_loss(np.array([2.0, -3.0, 1.5]))
    vertices = loss.points.points
    np.testing.assert_allclose(loss.value_and_grad(vertices)[0], 0.0, rtol=0, atol=1e-15)
    rng = np.random.default_rng(1)
    xs = rng.uniform(-4, 4, size=(50, 3))
    away = np.linalg.norm(xs[:, None, :] - vertices[None, :, :], axis=2).min(axis=1) > 1e-3
    assert np.all(loss.value_and_grad(xs[away])[0] > 0)
    # the standard simplex's map is the identity, bit for bit
    standard = simplex_loss(np.ones(3))
    np.testing.assert_array_equal(standard.to_simplex, np.eye(3))
    np.testing.assert_array_equal(standard.value_and_grad(standard.points.points)[0], 0.0)


def test_simplicial_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        loss = simplex_loss(random_scales(rng, n))
        x = rng.uniform(-2, 2, size=(1, n))
        _, grad = loss.value_and_grad(x)
        ref = fd_gradient(loss.value_and_grad, x[0])
        np.testing.assert_allclose(grad[0], ref, rtol=1e-5, atol=1e-6)


def test_simplicial_rejects_zero_scale():
    # a zero scale puts a vertex on the origin
    with pytest.raises(ValueError):
        simplex_loss(np.array([1.0, 0.0]))


def test_univariate_simplicial_closed_form():
    loss = simplex_loss(np.array([1.0]))
    z = np.linspace(-2, 2, 41)
    value, _ = loss.value_and_grad(z[:, None])
    np.testing.assert_allclose(value, z**2 * (z - 1) ** 2, rtol=0, atol=1e-14)


def test_generating_loss_is_squared_residual_norm():
    rng = np.random.default_rng(4)
    pts = PointSet(random_points(rng, 5, 2))
    gm = solve_generating_matrix(pts)
    loss = GeneratingLoss(gm)
    from setloss.generating_system import evaluate_generators

    for _ in range(10):
        x = rng.uniform(-2, 2, size=(1, 2))
        phi = evaluate_generators(gm, x)[0]
        value, grad = loss.value_and_grad(x)
        assert value[0] == pytest.approx(float(phi @ phi), rel=1e-12)
        ref = fd_gradient(loss.value_and_grad, x[0])
        np.testing.assert_allclose(grad[0], ref, rtol=1e-4, atol=1e-5)


def test_spurious_example_expanded_form():
    gm = solve_generating_matrix(PointSet(SPURIOUS_SET))
    loss = GeneratingLoss(gm)
    rng = np.random.default_rng(5)
    xs = rng.uniform(-5, 8, size=(20, 2))
    x1, x2 = xs.T
    expected = (
        (x2 + 5 * x1 - 23) ** 2
        + (x1**2 - 9 * x1 + 20) ** 2
        + (x1 * x2 + 22 * x1 - 100) ** 2
    )
    np.testing.assert_allclose(loss.value_and_grad(xs)[0], expected, rtol=1e-10, atol=0)


def test_affine_transform_golden_values():
    loss = build_transformed_loss(PointSet(CASE1_SET))
    assert loss.kind == "affine"
    np.testing.assert_allclose(
        loss.to_simplex, np.array([[5.0, -5.0, 6.0]]) / 86.0, atol=1e-12
    )
    np.testing.assert_allclose(loss.anchor_lift, CASE1_SET[1], atol=0)


def test_affine_loss_closed_form():
    loss = build_transformed_loss(PointSet(CASE1_SET))
    rng = np.random.default_rng(6)
    x = rng.uniform(-5, 5, size=(20, 3))
    z = (5 * x[:, 0] - 5 * x[:, 1] + 6 * x[:, 2] + 50) / 86.0
    np.testing.assert_allclose(loss.value_and_grad(x)[0], z**2 * (z - 1) ** 2, rtol=0, atol=1e-13)


def test_lifted_transform_golden_values():
    loss = build_transformed_loss(PointSet(CASE2_SET))
    assert loss.kind == "lifted"
    np.testing.assert_allclose(loss.diff_mat, L_EXPECTED, atol=1e-12)
    np.testing.assert_allclose(loss.to_simplex * 18.0, L_INV_18, atol=1e-10)
    # lift coordinates are (x1, x2, x1^2)
    np.testing.assert_allclose(loss.lift(np.array([[2.0, 3.0]])), [[2.0, 3.0, 4.0]])


def test_transformed_losses_vanish_on_their_sets():
    for pts in (CASE1_SET, CASE2_SET):
        loss = build_transformed_loss(PointSet(pts))
        np.testing.assert_allclose(loss.value_and_grad(pts)[0], 0.0, rtol=0, atol=1e-12)
        # point i goes to vertex e_(i+1), the last point to the origin
        expected = np.vstack([np.eye(len(pts) - 1), np.zeros(len(pts) - 1)])
        np.testing.assert_array_equal(loss.simplex_vertices, expected)
        np.testing.assert_allclose(loss.simplex_coords(pts), loss.simplex_vertices, atol=1e-10)


def test_settle_threshold_matches_the_reference():
    # bit for bit, on a square affine map, an affine map with k < n + 1 and
    # a lifted map, up to a step long enough to settle nothing
    rng = np.random.default_rng(11)
    losses = [
        build_transformed_loss(PointSet(random_points(rng, 3, 2, min_gap=1.0))),
        build_transformed_loss(PointSet(CASE1_SET)),
        build_transformed_loss(PointSet(CASE2_SET)),
    ]
    assert [loss.kind for loss in losses] == ["affine", "affine", "lifted"]
    for loss in losses:
        steps = [f * loss.points.min_gap() for f in (0.0, 0.01, 0.1, 0.5, 1.0)]
        thresholds = [loss.settle_threshold(step) for step in steps]
        assert thresholds == [reference_settle_threshold(loss, step) for step in steps]
        assert thresholds[0] > 0.0 and thresholds[-1] == -np.inf


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
            x = rng.uniform(-2, 2, size=(1, loss.n))
            _, grad = loss.value_and_grad(x)
            ref = fd_gradient(loss.value_and_grad, x[0])
            np.testing.assert_allclose(grad[0], ref, rtol=1e-4, atol=1e-6)


def test_lift_space_gradient_matches_finite_differences():
    loss = build_transformed_loss(PointSet(CASE2_SET))
    rng = np.random.default_rng(9)
    for _ in range(10):
        zeta = rng.uniform(-2, 2, size=(1, loss.simplex_dim))
        value, grad = loss.lift_value_and_grad(zeta)
        ref = fd_gradient(loss.lift_value_and_grad, zeta[0])
        np.testing.assert_allclose(grad[0], ref, rtol=1e-4, atol=1e-6)
        assert value[0] >= 0


def test_lift_space_zeros_are_the_lifted_points():
    loss = build_transformed_loss(PointSet(CASE2_SET))
    value, grad = loss.lift_value_and_grad(loss.lift(CASE2_SET))
    np.testing.assert_allclose(value, 0.0, rtol=0, atol=1e-13)
    np.testing.assert_allclose(grad, 0, atol=1e-10)


def test_null_directions_leave_loss_unchanged():
    rng = np.random.default_rng(10)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(2, n + 1))
        loss = build_transformed_loss(PointSet(random_points(rng, k, n)))
        null = loss.null_directions()
        assert null.shape == (n, n - k + 1)
        # an orthonormal basis of the null space scipy finds
        np.testing.assert_allclose(null.T @ null, np.eye(n - k + 1), atol=1e-12)
        ref = scipy.linalg.null_space(loss.to_simplex)
        np.testing.assert_allclose(null @ null.T, ref @ ref.T, atol=1e-12)
        for _ in range(5):
            x = rng.uniform(-3, 3, size=(1, n))
            y = null @ rng.standard_normal(null.shape[1])
            (base, moved), _ = loss.value_and_grad(np.vstack([x, x + y]))
            assert abs(moved - base) <= 1e-10 * (1 + abs(base))
    # the monomial lift is injective, and one point's loss ignores every direction
    lifted = build_transformed_loss(PointSet(CASE2_SET))
    assert lifted.kind == "lifted" and lifted.null_directions().shape == (2, 0)
    single = build_transformed_loss(PointSet(np.array([[1.5, -0.5, 2.0]])))
    np.testing.assert_array_equal(single.null_directions(), np.eye(3))


def test_single_point_loss_is_flat():
    loss = build_transformed_loss(PointSet(np.array([[1.5, -0.5]])))
    value, grad = loss.value_and_grad(np.array([[9.0, 9.0]]))
    np.testing.assert_array_equal(value, [0.0])
    np.testing.assert_allclose(grad, 0, atol=0)


def test_json_roundtrip_both_kinds():
    for pts in (CASE1_SET, CASE2_SET):
        loss = build_transformed_loss(PointSet(pts))
        again = TransformedLoss.from_json(loss.to_json())
        assert again.kind == loss.kind
        x = np.full((1, loss.n), 0.3)
        np.testing.assert_allclose(
            again.value_and_grad(x)[0], loss.value_and_grad(x)[0], rtol=1e-12, atol=0
        )
        # the points are numbers: text that spells them raises TypeError
        text = [[repr(v) for v in row] for row in loss.to_json()["points"]]
        with pytest.raises(TypeError):
            TransformedLoss.from_json({**loss.to_json(), "points": text})


def test_both_kinds_refuse_dependent_differences_with_one_message():
    # three collinear points for the affine map, four on y = x^2 for the
    # lifted one (its lift holds x, y and x^2): one refusal, one wording
    sets = (
        ([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]], None),
        ([[0.0, 0.0], [1.0, 1.0], [2.0, 4.0], [-1.0, 1.0]], standard_monomials(2, 4)),
    )
    for rows, basis in sets:
        with pytest.raises(DegenerateConfigurationError) as info:
            TransformedLoss(PointSet(rows), basis)
        message = "point differences are numerically dependent (condition estimate "
        assert str(info.value).startswith(message)
        assert info.value.condition > 1e10
        with pytest.raises(DegenerateConfigurationError, match="^point differences are"):
            build_transformed_loss(PointSet(rows))


def test_json_refuses_booleans_inside_points_and_lift_basis():
    # a JSON true is no coordinate and no exponent, inside an array too
    payload = build_transformed_loss(PointSet(CASE2_SET)).to_json()
    points = [row[:] for row in payload["points"]]
    points[1][0] = True
    members = [[True if e == 1 else e for e in row] for row in payload["lift_basis"]["members"]]
    for bad in ({"points": points}, {"lift_basis": {**payload["lift_basis"], "members": members}}):
        with pytest.raises(TypeError, match="booleans"):
            TransformedLoss.from_json({**payload, **bad})


def test_json_from_earlier_releases_loads_bit_equal():
    rng = np.random.default_rng(22)
    for pts, payload in ((CASE1_SET, CASE1_PAYLOAD), (CASE2_SET, CASE2_PAYLOAD)):
        built = build_transformed_loss(PointSet(pts))
        loaded = TransformedLoss.from_json(payload)
        assert loaded.kind == payload["kind"]
        # the map's matrices are rebuilt from the points, so none is written
        dropped = {"u", "u_pinv", "anchor", "l", "anchor_lift"}
        assert built.to_json() == {key: v for key, v in payload.items() if key not in dropped}
        np.testing.assert_array_equal(loaded.to_simplex, built.to_simplex)
        xs = rng.uniform(-3.0, 3.0, size=(7, built.n))
        for got, expected in zip(loaded.value_and_grad(xs), built.value_and_grad(xs)):
            np.testing.assert_array_equal(got, expected)
        with pytest.raises(ValueError, match="kind"):
            other = "lifted" if payload["kind"] == "affine" else "affine"
            TransformedLoss.from_json({**payload, "kind": other})


def test_describe_small_cases():
    import sympy as sp

    rng = np.random.default_rng(23)
    for pts in (CASE1_SET, CASE2_SET):
        loss = build_transformed_loss(PointSet(pts))
        assert loss.has_closed_form
        expr = sp.sympify(loss.describe())
        # the affine form is in x1..xn, the lifted one in the lift coordinates
        syms = sp.symbols(f"{'x' if loss.kind == 'affine' else 'z'}1:{loss.anchor_lift.size + 1}")
        xs = rng.uniform(-3.0, 3.0, size=(10, loss.n))
        for lifted, value in zip(loss.lift(xs), loss.value_and_grad(xs)[0]):
            exact = expr.subs({s: sp.Rational(v) for s, v in zip(syms, lifted)})
            assert float(exact) == pytest.approx(value, rel=1e-9)
    big = build_transformed_loss(PointSet(np.arange(10.0).reshape(5, 2) ** 2))
    assert not big.has_closed_form
    assert big.describe() == "transformed simplicial loss (lifted) for 5 points in R^2"


def _closed_form_losses(rng):
    # every (n, k) cell with a closed form, four kinds of input each: a
    # random set, a small integer grid (anchored at the origin in every
    # other cell, which leaves a factor or a z without a constant term),
    # a random set rounded to 0.1, and one scaled by 10^3 or 10^-3; a
    # dependent draw is drawn again
    nonzero = np.array([-6.0, -5.0, -4.0, -3.0, -2.0, -1.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    for idx, (n, k) in enumerate((n, k) for n in (1, 2, 3) for k in (1, 2, 3, 4)):
        for kind in range(4):
            while True:
                if kind == 0:
                    pts = random_points(rng, k, n)
                elif kind == 1:
                    pts = rng.choice(nonzero, size=(k, n), replace=False)
                    if idx % 2 == 0:
                        pts[-1] = 0.0
                elif kind == 2:
                    pts = np.round(rng.uniform(-3.0, 3.0, size=(k, n)), 1)
                else:
                    pts = random_points(rng, k, n) * 10.0 ** (3 if idx % 2 else -3)
                try:
                    loss = build_transformed_loss(PointSet(pts))
                except DegenerateConfigurationError:
                    continue
                yield loss
                break


def test_describe_matches_expression_rendering_byte_for_byte():
    rng = np.random.default_rng(24)
    losses = [build_transformed_loss(PointSet(pts)) for pts in (CASE1_SET, CASE2_SET)]
    losses += _closed_form_losses(rng)
    seen = set()
    for loss in losses:
        assert loss.has_closed_form
        assert loss.describe() == reference_describe(loss), loss.points.points
        seen.add((loss.kind, loss.simplex_dim))
    assert seen == {("affine", d) for d in (0, 1, 2, 3)} | {("lifted", 2), ("lifted", 3)}


@pytest.mark.parametrize(
    "pts, expected",
    [
        # z = (x1 - 1)/2 and z - 1 = (x1 - 3)/2: the factor of z - 1 leads
        ([[3.0], [1.0]], "(x1 - 3)**2*(x1 - 1)**2/16"),
        # z = (2 x1 + 1) 2/3 and z - 1 = (4 x1 - 1)/3: the factor of z leads
        ([[0.25], [-0.5]], "4*(2*x1 + 1)**2*(4*x1 - 1)**2/81"),
        # z = x1/3 has no constant term: the shorter factor of z leads
        ([[3.0], [0.0]], "x1**2*(x1 - 3)**2/81"),
        # z - 1 = -x1/3 has none: the shorter factor of z - 1 leads
        ([[0.0], [3.0]], "x1**2*(x1 - 3)**2/81"),
        # an integer content
        ([[0.5], [0.0]], "4*x1**2*(2*x1 - 1)**2"),
        ([[1.0, 2.0], [-1.0, 0.0]], "(x1 + x2 - 3)**2*(x1 + x2 + 1)**2/256"),
    ],
)
def test_describe_factors_a_single_simplex_coordinate(pts, expected):
    loss = build_transformed_loss(PointSet(np.array(pts)))
    assert loss.describe() == expected
    assert reference_describe(loss) == expected


def test_rational_reader_matches_nsimplify():
    import sympy as sp

    # values without a fraction of denominator <= 10^12 within 1e-12
    capped = [math.pi, -math.sqrt(2.0), 1.0 / 3.0 + 1e-9, 0.1234567891234567, 2.718281828e-3]
    exact = [0.0, -0.0, 1.0, -7.0, 1e8, 1.0 / 3.0, -2.0 / 3.0, 0.1, 1e-12, 1e-13, -1e-13, 6e-13]
    for v in exact + capped:
        got = _rational(v)
        expected = sp.nsimplify(v, rational=True, tolerance=1e-12)
        assert (got.numerator, got.denominator) == (expected.p, expected.q), v
    for v in capped:
        assert 10**11 < _rational(v).denominator <= 10**12, v


def test_sum_printer_matches_sympy_str():
    import sympy as sp

    x1, x2, x3 = syms = sp.symbols("x1:4")
    names, units = ["x1", "x2", "x3"], [_KEY_BASE**2, _KEY_BASE, 1]
    half = sp.Rational(1, 2)
    cases = [
        # a positive constant and one negative term in one variable: c - a*x
        3 - 2 * x1,
        half - x3,
        3 - 2 * x2**3 / 5,
        # otherwise descending lex order with the constant last
        3 - x1 * x2,
        -3 - 2 * x1,
        3 + 2 * x1,
        -x1 + 2 * x2,
        -x2**2 + x1 * x3 / 7 - half,
        x1**4 - 4 * x1**3 * x2 / 3 + 6 * x2**2 * x3**2 - x3 + 5,
        -x1,
        -sp.Rational(5, 3),
    ]
    for expr in cases:
        poly = sp.Poly(expr, *syms)
        terms = [
            (sum(e * u for e, u in zip(monom, units)), Fraction(int(c.p), int(c.q)))
            for monom, c in poly.terms()
        ]
        assert _format_sum(terms, names, units) == str(expr), expr


def test_lift_basis_must_start_with_the_constant_monomial():
    basis = MonomialBasis(2, [[1, 0], [0, 1], [1, 1], [2, 0]])
    with pytest.raises(ValueError, match="constant monomial"):
        TransformedLoss(PointSet(CASE2_SET), basis)
    with pytest.raises(ValueError, match="constant monomial"):
        TransformedLoss.from_json({**CASE2_PAYLOAD, "lift_basis": basis.to_json()})


def test_lift_basis_must_have_one_member_per_point():
    points = PointSet(np.array([[2.0, 3.0], [-1.0, -2.0], [1.0, -3.0], [0.0, 1.0]]))
    payload = build_transformed_loss(points).to_json()
    for members in ([[0, 0], [1, 0], [0, 1]], [[0, 0], [1, 0], [0, 1], [2, 0], [1, 1]]):
        basis = MonomialBasis(2, members)
        message = f"a lift basis for 4 points needs 4 members, got {len(members)}"
        with pytest.raises(ValueError, match=message):
            TransformedLoss(points, basis)
        with pytest.raises(ValueError, match=message):
            TransformedLoss.from_json({**payload, "lift_basis": basis.to_json()})


def test_lift_basis_must_hold_every_degree_one_monomial():
    # without y the lift (x, xy, x^2) is constant on the line x = 0, so the
    # loss vanished at (0, 1), (0, -5) and (0, 40), while null_directions
    # reported none
    points = PointSet(np.array([[2.0, 3.0], [-1.0, -2.0], [1.0, -3.0], [0.0, 1.0]]))
    basis = MonomialBasis(2, [[0, 0], [1, 0], [1, 1], [2, 0]])
    with pytest.raises(ValueError, match="every degree-1 monomial"):
        TransformedLoss(points, basis)
    payload = {**build_transformed_loss(points).to_json(), "lift_basis": basis.to_json()}
    with pytest.raises(ValueError, match="every degree-1 monomial"):
        TransformedLoss.from_json(payload)
    full = MonomialBasis(2, [[0, 0], [1, 0], [0, 1], [2, 0]])
    assert TransformedLoss(points, full).kind == "lifted"


def test_batched_losses_stack_per_row_results():
    rng = np.random.default_rng(21)
    pts = PointSet(random_points(rng, 5, 2, min_gap=0.6))
    losses = [
        simplex_loss(np.array([1.5, -2.0])),
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
        # each row as a batch of one row gets what the whole batch gave it
        for i in range(len(xs)):
            one_value, one_grad = loss.value_and_grad(xs[i : i + 1])
            assert values[i : i + 1].tobytes() == one_value.tobytes()
            assert grads[i : i + 1].tobytes() == one_grad.tobytes()
        with pytest.raises(ValueError):
            loss.value_and_grad(np.zeros((2, 3)))
    lifted = losses[2]
    coords = lifted.simplex_coords(xs)
    for i in range(len(xs)):
        np.testing.assert_array_equal(coords[i : i + 1], lifted.simplex_coords(xs[i : i + 1]))
    zetas = lifted.lift(xs) + rng.uniform(-0.5, 0.5, size=(6, lifted.simplex_dim))
    values, grads = lifted.lift_value_and_grad(zetas)
    assert values.shape == (6,) and grads.shape == (6, lifted.simplex_dim)
    for i in range(len(zetas)):
        one_value, one_grad = lifted.lift_value_and_grad(zetas[i : i + 1])
        assert values[i : i + 1].tobytes() == one_value.tobytes()
        assert grads[i : i + 1].tobytes() == one_grad.tobytes()
    with pytest.raises(ValueError):
        lifted.lift_value_and_grad(np.zeros((2, 2)))


def test_loss_methods_refuse_a_single_point_vector():
    # every method that takes points, and the descent that takes starts,
    # takes an (N, d) batch; one point is a batch of one row, and a (d,)
    # vector is refused rather than adapted
    rng = np.random.default_rng(22)
    pts = PointSet(random_points(rng, 5, 2, min_gap=0.6))
    generating = GeneratingLoss(solve_generating_matrix(pts))
    affine = build_transformed_loss(PointSet(random_points(rng, 3, 2, min_gap=0.6)))
    lifted = build_transformed_loss(pts)
    assert (affine.kind, lifted.kind) == ("affine", "lifted")
    x = rng.uniform(-2.0, 2.0, size=2)
    calls = [(generating.value_and_grad, x)]
    for loss in (affine, lifted):
        zeta = loss.lift(x[None, :])[0]
        calls += [
            (loss.lift, x),
            (loss.simplex_coords, x),
            (loss.value_and_grad, x),
            (loss.lift_value_and_grad, zeta),
        ]
    for method, point in calls:
        with pytest.raises(ValueError, match=r"expected shape \(N, \d+\)"):
            method(point)
        method(point[None, :])
        # points are real: a complex batch is refused, its imaginary parts
        # not dropped with a ComplexWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TypeError):
                method(point[None, :] + 1j)
    assert not hasattr(generating, "value") and not hasattr(affine, "value")
    with pytest.raises(ValueError, match=r"expected starts of shape \(N, d\)"):
        minimize_from(affine.value_and_grad, x)


def test_matvec_is_numpys_plain_formula_bit_for_bit():
    # the plain formula sums each row pairwise for a C-ordered matrix; an
    # F-ordered one, as to_simplex.T is, makes its products strided along
    # the row, and numpy then adds them left to right
    rng = np.random.default_rng(62)
    for width in range(0, 13):
        for rows in range(1, 5):
            for size in (1, 7, 300):
                v = rng.standard_normal((size, width)) * 10.0 ** rng.integers(-8, 9, (size, width))
                for mat in (
                    rng.standard_normal((rows, width)),
                    np.asfortranarray(rng.standard_normal((rows, width))),
                ):
                    want = (np.ascontiguousarray(v)[:, None, :] * mat).sum(axis=-1)
                    assert _matvec(mat, v).tobytes() == want.tobytes(), (width, rows, size)


def test_row_sum_is_numpys_reduction_bit_for_bit():
    # below width 8 numpy's add.reduce adds a row left to right; row_sum
    # spells that out, and from width 8 calls the reduction itself
    rng = np.random.default_rng(60)
    for width in range(0, 11):
        rows = rng.standard_normal((20000, width)) * 10.0 ** rng.integers(-8, 9, (20000, width))
        rows[:50] = rng.choice([0.0, -0.0, 1.0, -1.0], (50, width))
        got = row_sum(rows)
        want = rows.sum(axis=-1)
        assert got.tobytes() == want.tobytes(), width
        assert row_sum(rows[0]).tobytes() == rows[0].sum().tobytes()
    assert UNROLLED_WIDTH == 8


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_affine_loss_matches_the_broadcast_formulas_bit_for_bit(k):
    rng = np.random.default_rng(61 + k)
    for n in (1, 2, 3):
        if k > n + 1:
            continue
        loss = build_transformed_loss(PointSet(random_points(rng, k, n)))
        assert loss.kind == "affine"
        x = rng.uniform(-3.0, 3.0, (57, n))
        value, grad = loss.value_and_grad(x)
        ref_value, ref_grad = reference_transformed_value_and_grad(loss, x)
        np.testing.assert_array_equal(value, ref_value)
        np.testing.assert_array_equal(grad, ref_grad)
        one_value, one_grad = loss.value_and_grad(x[3:4])
        assert one_value[0] == ref_value[3]
        np.testing.assert_array_equal(one_grad[0], ref_grad[3])


@pytest.mark.parametrize("k", [3, 4, 5, 6, 8, 9, 12])
def test_lifted_loss_matches_the_broadcast_formulas_bit_for_bit(k):
    # k <= 8 sums rows of width k - 1 < 8 column by column; from k = 9 the
    # sums are numpy's reductions, as in the formulas
    rng = np.random.default_rng(70 + k)
    for n in (1, 2, 3):
        if k <= n + 1:
            continue
        loss = build_transformed_loss(PointSet(random_points(rng, k, n, min_gap=0.5)))
        assert loss.kind == "lifted"
        x = loss.points.points[rng.integers(0, k, 41)] + rng.uniform(-0.2, 0.2, (41, n))
        value, grad = loss.value_and_grad(x)
        ref_value, ref_grad = reference_transformed_value_and_grad(loss, x)
        np.testing.assert_array_equal(value, ref_value)
        np.testing.assert_array_equal(grad, ref_grad)


def test_simplicial_loss_matches_the_broadcast_formulas_bit_for_bit():
    # the transformed loss of the standard simplex {e_1, ..., e_d, 0} is
    # the standard-simplex loss itself, to the last bit
    rng = np.random.default_rng(80)
    for width in (1, 2, 5, 7, 8, 11):
        x = rng.uniform(-1.0, 2.0, (33, width))
        loss = simplex_loss(np.ones(width))
        assert loss.kind == "affine"
        value, grad = loss.value_and_grad(x)
        ref_value, ref_grad = reference_simplicial(np.ones(width), x)
        np.testing.assert_array_equal(value, ref_value)
        np.testing.assert_array_equal(grad, ref_grad)
