import numpy as np
import pytest
import sympy

from setloss.generating_system import (
    GeneratingMatrix,
    PointSet,
    commutator_residual,
    evaluate_generators,
    generator_strings,
    generator_terms,
    generators_jacobian,
    multiplication_matrices,
    solve_generating_matrix,
    vandermonde,
)
from setloss.monomial_basis import evaluate_monomials, standard_monomials

from helpers import fd_jacobian, product_loss, random_points

# worked interpolation problems with exact rational solutions
SET_A = np.array([[2.0, 1.0, 3.0], [-1.0, -2.0, 4.0]])
G_A = np.array(
    [
        [-1.0, 11.0 / 3.0, 2.0, 2.0, -2.0 / 3.0],
        [1.0, -1.0 / 3.0, 1.0, 0.0, 10.0 / 3.0],
    ]
)
B0_A = [(0, 0, 0), (1, 0, 0)]
B1_A = [(0, 1, 0), (0, 0, 1), (2, 0, 0), (1, 1, 0), (1, 0, 1)]

SET_B = np.array([[2.0, -1.0], [-1.0, 3.0], [-2.0, -2.0]])
G_B = (
    np.array(
        [
            [58.0, -14.0, 82.0],
            [3.0, -23.0, -20.0],
            [-12.0, -22.0, 23.0],
        ]
    )
    / 19.0
)

SET_C = np.array([[3.0, -1.0], [-1.0, 2.0], [2.0, 1.0], [-2.0, -1.0]])
G_C = np.array(
    [
        [20.0, -5.0, -36.0, 22.0],
        [3.5, -1.5, -2.0, 4.5],
        [-7.0, 3.0, 12.0, -5.0],
        [-4.5, 1.5, 9.0, -5.5],
    ]
)
B0_C = [(0, 0), (1, 0), (0, 1), (2, 0)]
B1_C = [(1, 1), (0, 2), (3, 0), (2, 1)]

TERMS_C = [
    {(1, 1): 1.0, (2, 0): 4.5, (0, 1): 7.0, (1, 0): -3.5, (0, 0): -20.0},
    {(0, 2): 1.0, (2, 0): -1.5, (0, 1): -3.0, (1, 0): 1.5, (0, 0): 5.0},
    {(3, 0): 1.0, (2, 0): -9.0, (0, 1): -12.0, (1, 0): 2.0, (0, 0): 36.0},
    {(2, 1): 1.0, (2, 0): 5.5, (0, 1): 5.0, (1, 0): -4.5, (0, 0): -22.0},
]


def assert_same_terms(got, expected, tol=1e-10):
    for key in set(got) | set(expected):
        assert abs(got.get(key, 0.0) - expected.get(key, 0.0)) <= tol, key


def test_point_set_validation():
    with pytest.raises(ValueError):
        PointSet(np.array([[1.0, 2.0], [1.0, 2.0]]))
    with pytest.raises(ValueError):
        PointSet(np.zeros((0, 2)))
    ps = PointSet(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert ps.k == 2 and ps.n == 2 and ps.is_real


def test_point_set_names_first_coincident_pair():
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 1.0 + 1e-13], [0.0, 0.0], [2.0, 0.0]])
    with pytest.raises(ValueError, match="points 0 and 3 coincide"):
        PointSet(pts)
    with pytest.raises(ValueError, match="points 1 and 3 coincide"):
        PointSet(pts[[4, 1, 0, 2, 3]])
    # complex coordinates compare by the modulus of their difference
    assert PointSet(np.array([[1.0 + 1e-6j], [1.0 - 1e-6j]])).k == 2


def test_point_set_is_immutable():
    ps = PointSet(np.array([[1.0, 2.0], [3.0, 4.0]]))
    with pytest.raises(ValueError):
        ps.points[0, 0] = 7.0


def test_vandermonde_entries():
    basis = standard_monomials(2, 3)
    pts = PointSet(np.array([[2.0, 3.0], [-1.0, 1.0]]))
    v = vandermonde(pts, basis)
    assert v.shape == (3, 2)
    np.testing.assert_allclose(v[:, 0], [1.0, 2.0, 3.0])
    np.testing.assert_allclose(v[:, 1], [1.0, -1.0, 1.0])


def test_worked_problem_three_dimensional_pair():
    gm = solve_generating_matrix(PointSet(SET_A))
    assert [m.exponents for m in gm.basis] == B0_A
    assert [m.exponents for m in gm.border] == B1_A
    np.testing.assert_allclose(gm.entries, G_A, atol=1e-10)


def test_worked_problem_three_points_plane():
    gm = solve_generating_matrix(PointSet(SET_B))
    np.testing.assert_allclose(gm.entries, G_B, atol=1e-10)


def test_worked_problem_four_points_plane():
    gm = solve_generating_matrix(PointSet(SET_C))
    assert [m.exponents for m in gm.basis] == B0_C
    assert [m.exponents for m in gm.border] == B1_C
    np.testing.assert_allclose(gm.entries, G_C, atol=1e-10)
    for got, expected in zip(generator_terms(gm), TERMS_C):
        assert_same_terms(got, expected)


def test_generators_vanish_on_their_set():
    rng = np.random.default_rng(0)
    for _ in range(20):
        k = int(rng.integers(1, 9))
        n = int(rng.integers(1, 5))
        pts = PointSet(random_points(rng, k, n))
        gm = solve_generating_matrix(pts)
        for u in pts.points:
            np.testing.assert_allclose(
                evaluate_generators(gm, u), 0, atol=1e-8 * (1 + gm.frobenius_norm())
            )


def test_value_at_origin_is_negated_constant_row():
    gm = solve_generating_matrix(PointSet(SET_C))
    np.testing.assert_allclose(
        evaluate_generators(gm, np.zeros(2)), -gm.entries[0], atol=1e-12
    )


def test_zero_set_matches_product_loss_on_grid():
    # both losses vanish on the set and nowhere else
    gm = solve_generating_matrix(PointSet(SET_B))
    grid = np.linspace(-3.0, 3.0, 13)
    for x1 in grid:
        for x2 in grid:
            x = np.array([x1, x2])
            near = product_loss(SET_B, x) < 1e-16
            phi = evaluate_generators(gm, x)
            assert (float(phi @ phi) < 1e-14) == near


def test_generators_jacobian_matches_finite_differences():
    rng = np.random.default_rng(1)
    pts = PointSet(random_points(rng, 5, 3))
    gm = solve_generating_matrix(pts)
    for _ in range(5):
        x = rng.uniform(-2, 2, size=3)
        jac = generators_jacobian(gm, x)
        ref = fd_jacobian(lambda y: evaluate_generators(gm, y), x)
        np.testing.assert_allclose(jac, ref, rtol=1e-5, atol=1e-6)


def test_conjugate_pair_yields_real_matrix():
    pts = PointSet(
        np.array(
            [[1.0 + 2.0j, 0.5 - 1.0j], [1.0 - 2.0j, 0.5 + 1.0j], [2.0, 1.0]]
        )
    )
    gm = solve_generating_matrix(pts)
    assert gm.entries.dtype == np.float64
    for u in pts.points:
        np.testing.assert_allclose(evaluate_generators(gm, u), 0, atol=1e-10)


def test_unbalanced_complex_set_is_rejected():
    pts = PointSet(np.array([[1.0 + 2.0j, 0.0], [2.0, 1.0]]))
    with pytest.raises(ValueError):
        solve_generating_matrix(pts)


def test_multiplication_matrix_columns():
    # columns are unit vectors inside the basis and matrix columns outside
    gm = solve_generating_matrix(PointSet(SET_C))
    mats = multiplication_matrices(gm)
    m1, m2 = mats.mats
    # x1 * 1 = x1 and x1 * x1 = x1^2 stay inside the basis
    np.testing.assert_allclose(m1[:, 0], [0, 1, 0, 0], atol=0)
    np.testing.assert_allclose(m1[:, 1], [0, 0, 0, 1], atol=0)
    # x1 * x2 leaves it through border column (1, 1)
    np.testing.assert_allclose(m1[:, 2], gm.entries[:, 0], atol=0)
    # x1 * x1^2 leaves through (3, 0)
    np.testing.assert_allclose(m1[:, 3], gm.entries[:, 2], atol=0)
    # x2 * 1 = x2 stays, x2 * x1 and x2 * x2 leave through (1,1), (0,2)
    np.testing.assert_allclose(m2[:, 0], [0, 0, 1, 0], atol=0)
    np.testing.assert_allclose(m2[:, 1], gm.entries[:, 0], atol=0)
    np.testing.assert_allclose(m2[:, 2], gm.entries[:, 1], atol=0)
    np.testing.assert_allclose(m2[:, 3], gm.entries[:, 3], atol=0)


def test_basis_vector_is_left_eigenvector():
    # [u]_B0 is a left eigenvector of each coordinate matrix
    rng = np.random.default_rng(2)
    for _ in range(10):
        k = int(rng.integers(2, 7))
        n = int(rng.integers(1, 4))
        pts = PointSet(random_points(rng, k, n))
        gm = solve_generating_matrix(pts)
        mats = multiplication_matrices(gm).mats
        for u in pts.points:
            v = evaluate_monomials(u, gm.basis)
            for i in range(n):
                np.testing.assert_allclose(
                    mats[i].T @ v, u[i] * v, atol=1e-7 * (1 + np.abs(v).max())
                )


def test_commutators_vanish_for_interpolated_sets():
    rng = np.random.default_rng(3)
    for _ in range(10):
        k = int(rng.integers(2, 8))
        n = int(rng.integers(2, 4))
        gm = solve_generating_matrix(PointSet(random_points(rng, k, n)))
        res = commutator_residual(gm)
        assert res.total <= 1e-9 * (1 + gm.frobenius_norm())
        assert len(res.pairs) == n * (n - 1) // 2


def test_combine_weights():
    gm = solve_generating_matrix(PointSet(SET_B))
    mats = multiplication_matrices(gm)
    w = np.array([0.3, -0.7])
    np.testing.assert_allclose(
        mats.combine(w), 0.3 * mats.mats[0] - 0.7 * mats.mats[1], atol=0
    )


def test_strings_agree_with_term_maps():
    # the rendering must parse back to exactly the same polynomial
    x1, x2 = sympy.symbols("x1 x2")
    gm = solve_generating_matrix(PointSet(SET_C))
    for text, terms in zip(generator_strings(gm), generator_terms(gm)):
        parsed = sympy.expand(sympy.sympify(text.replace("^", "**")))
        rebuilt = sympy.expand(
            sum(c * x1 ** e[0] * x2 ** e[1] for e, c in terms.items())
        )
        diff = sympy.expand(parsed - rebuilt)
        bound = max(abs(c) for c in diff.as_coefficients_dict().values())
        assert bound <= 1e-9


def test_json_roundtrip():
    gm = solve_generating_matrix(PointSet(SET_A))
    again = GeneratingMatrix.from_json(gm.to_json())
    assert again.basis == gm.basis
    assert again.border == gm.border
    np.testing.assert_allclose(again.entries, gm.entries, atol=0)
