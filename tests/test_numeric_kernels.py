import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import linear_sum_assignment

from setloss.clustering import recover_point_set
from setloss.errors import DegenerateConfigurationError
from setloss.fitting import FitOptions, SampleSet
from setloss.generating_system import (
    PointSet,
    multiplication_matrices,
    solve_generating_matrix,
)
from setloss.loss_functions import TransformedLoss
from setloss.monomial_basis import standard_monomials
from setloss.numeric_kernels import (
    complex_schur,
    integer_array,
    min_eigenvalue_sym,
    pseudo_inverse,
    real_array,
    require_finite,
    require_full_rank,
    solve_linear,
)

from helpers import reference_complex_schur


def gauss_solve(a, b):
    """Textbook elimination with partial pivoting, used as an oracle."""
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    if b.ndim == 1:
        b = b[:, None]
    n = a.shape[0]
    for col in range(n):
        pivot = col + np.argmax(np.abs(a[col:, col]))
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            b[[col, pivot]] = b[[pivot, col]]
        for row in range(col + 1, n):
            factor = a[row, col] / a[col, col]
            a[row, col:] -= factor * a[col, col:]
            b[row] -= factor * b[col]
    x = np.zeros_like(b)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1 :] @ x[row + 1 :]) / a[row, row]
    return x


def char_poly_eigenvalues(m):
    """Eigenvalues via the characteristic polynomial, used as an oracle."""
    coefs = np.poly(m)
    return np.sort_complex(np.roots(coefs))


def eigenvalue_mismatch(got, ref):
    """Best-matching max deviation; sorting alone flips conjugate pairs."""
    cost = np.abs(np.asarray(got)[:, None] - np.asarray(ref)[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def test_solve_linear_matches_elimination():
    rng = np.random.default_rng(0)
    for _ in range(30):
        n = int(rng.integers(1, 9))
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, int(rng.integers(1, 4))))
        got = solve_linear(a, b)
        ref = gauss_solve(a, b)
        np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-11)


def test_solve_linear_vector_rhs_keeps_shape():
    a = np.array([[2.0, 0.0], [0.0, 4.0]])
    b = np.array([2.0, 8.0])
    x = solve_linear(a, b)
    assert x.shape == (2,)
    np.testing.assert_allclose(x, [1.0, 2.0])


def test_pseudo_inverse_tall_matrix():
    rng = np.random.default_rng(1)
    for _ in range(20):
        rows = int(rng.integers(2, 8))
        cols = int(rng.integers(1, rows + 1))
        u = rng.standard_normal((rows, cols))
        dag = pseudo_inverse(u, "unused")
        assert dag.shape == (cols, rows)
        np.testing.assert_allclose(dag @ u, np.eye(cols), atol=1e-10)
        # Moore-Penrose identities
        np.testing.assert_allclose(u @ dag @ u, u, atol=1e-10)
        np.testing.assert_allclose(dag @ u @ dag, dag, atol=1e-10)


def test_pseudo_inverse_refuses_complex_input():
    # TypeError rather than the real part with a ComplexWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TypeError):
            pseudo_inverse(np.eye(3, 2) + 1j, "unused")
    # and a matrix of the wrong shape raises ValueError
    with pytest.raises(ValueError, match="expected a matrix"):
        pseudo_inverse(np.ones(3), "unused")
    with pytest.raises(ValueError, match="at least as many rows as columns"):
        pseudo_inverse(np.ones((2, 3)), "unused")


def test_pseudo_inverse_zero_columns():
    dag = pseudo_inverse(np.zeros((3, 0)), "unused")
    assert dag.shape == (0, 3)


def test_input_rules_refuse_booleans():
    # a JSON true is no number: it is refused like text, not read as 1
    assert real_array([1, 2.5]).tolist() == [1.0, 2.5]
    assert integer_array(4.0, "n").dtype == np.int64
    for values in (True, [True, False], np.ones((2, 2), dtype=bool)):
        with pytest.raises(TypeError, match="booleans"):
            real_array(values)
        with pytest.raises(TypeError, match="booleans"):
            integer_array(values, "n")


def test_input_rules_refuse_booleans_inside_lists():
    # numpy reads [2.0, True] as [2.0, 1.0]; a list is scanned for bools
    for values in ([2.0, True], [[1.0, 2.0], [np.True_, 0.5]], [np.zeros(2), np.ones(2, bool)]):
        with pytest.raises(TypeError, match="booleans"):
            real_array(values)
        with pytest.raises(TypeError, match="booleans"):
            integer_array(values, "n")
    assert real_array([[1, 2.5], (0, -1.0)]).tolist() == [[1.0, 2.5], [0.0, -1.0]]


def test_rank_and_finiteness_checks_refuse_nan_and_inf():
    require_full_rank(np.array([2.0, 1.0]), "unused")
    require_finite(np.ones((2, 2)), "unused")
    # every comparison with NaN is False, so a NaN singular value must
    # count as deficient rather than pass the gap test
    for s in ([np.nan, 1.0], [2.0, np.nan], [0.0, 0.0], [1.0, 1e-11]):
        with pytest.raises(DegenerateConfigurationError, match="deficient"):
            require_full_rank(np.array(s), "deficient")
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(DegenerateConfigurationError, match="overflow"):
            require_finite(np.array([[1.0, bad]]), "overflow")
        with pytest.raises(ValueError, match="entries must be finite"):
            complex_schur(np.array([[1.0, bad], [0.0, 1.0]]))
    for shape in ((3,), (2, 3)):
        with pytest.raises(ValueError, match="expected a square matrix"):
            complex_schur(np.ones(shape))


BIG_POINTS = np.array([[1e200, 0.0], [0.0, 1e200], [-1e200, 0.0], [3e200, 1e200]])


def _refuse_big(path):
    if path == "interpolate":
        solve_generating_matrix(PointSet(BIG_POINTS))
    elif path == "lift":
        TransformedLoss(PointSet(BIG_POINTS), standard_monomials(2, 4))
    else:
        rng = np.random.default_rng(5)
        samples = np.repeat(BIG_POINTS[:2], 20, axis=0) * rng.uniform(0.99, 1.01, (40, 2))
        recover_point_set(SampleSet(samples), 2, FitOptions(seed=1))


@pytest.mark.parametrize("path", ["interpolate", "lift", "fit"])
def test_overflow_refusals_come_without_numpy_warnings(path):
    # the monomials overflow to inf and their products to NaN; the refusal
    # names that, so numpy's own overflow warnings would only repeat it
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DegenerateConfigurationError, match="overflow"):
            _refuse_big(path)
    assert [str(w.message) for w in caught] == []


def test_schur_eigenvalues_match_char_poly():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        m = rng.standard_normal((n, n))
        p, _ = complex_schur(m)
        ref = char_poly_eigenvalues(m)
        assert eigenvalue_mismatch(np.diag(p), ref) < 1e-7


def test_schur_factors_are_consistent():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((6, 6))
    p, q = complex_schur(m)
    np.testing.assert_allclose(
        q @ q.conj().T, np.eye(6), atol=1e-12
    )
    np.testing.assert_allclose(np.tril(p, -1), 0, atol=1e-10)
    np.testing.assert_allclose(q @ p @ q.conj().T, m, atol=1e-10)
    assert not p.flags.writeable and not q.flags.writeable


def test_schur_diagonal_sorted_by_real_then_imaginary():
    rng = np.random.default_rng(4)
    sizes = [int(n) for n in rng.integers(2, 8, size=20)] + [12, 20, 28, 35]
    for n in sizes:
        m = rng.standard_normal((n, n))
        p, q = complex_schur(m)
        keys = [(v.real, v.imag) for v in np.diag(p)]
        assert keys == sorted(keys)
        # the reordered factors are still a Schur form of m
        np.testing.assert_allclose(q.conj().T @ q, np.eye(n), atol=1e-12)
        np.testing.assert_array_equal(np.tril(p, -1), 0)
        np.testing.assert_allclose(q @ p @ q.conj().T, m, atol=1e-12 * n)
        assert eigenvalue_mismatch(np.diag(p), np.linalg.eigvals(m)) < 1e-10 * n


def test_schur_order_is_the_position_by_position_loop_bit_for_bit():
    # complex_schur sorts the first diagonal once; moving each entry up
    # after sorting what is left, position by position, gives the same
    # factors, exact ties included
    rng = np.random.default_rng(41)
    rotation = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    ties = np.triu(rng.standard_normal((5, 5)), 1) + np.diag([1.0, 0.0, 1.0, 2.0, 1.0])
    mats = [rng.standard_normal((k, k)) for k in rng.integers(2, 36, size=40)]
    mats += [rotation @ np.diag([2.0, 1.0, 1.0, 0.0]) @ rotation.T, ties, np.diag([3.0, 1.0, 1.0])]
    for m in mats:
        p, q = complex_schur(m)
        ref_p, ref_q = reference_complex_schur(m)
        assert p.tobytes() == ref_p.tobytes()
        assert q.tobytes() == ref_q.tobytes()
    first = np.diag(scipy.linalg.schur(ties.astype(complex), output="complex")[0])
    assert len(set(first.tolist())) < len(first)


def test_schur_multiplication_matrix_spectrum():
    # eigenvalues of the first coordinate matrix are the first coordinates
    pts = PointSet(np.array([[2.0, 1.0], [-1.0, 0.5], [-2.0, 3.0]]))
    gm = solve_generating_matrix(pts)
    m1 = multiplication_matrices(gm)[0]
    p, _ = complex_schur(m1)
    np.testing.assert_allclose(
        np.sort(np.diag(p).real), [-2.0, -1.0, 2.0], atol=1e-10
    )
    np.testing.assert_allclose(np.diag(p).imag, 0, atol=1e-10)


def test_min_eigenvalue_sym():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        half = rng.standard_normal((n, n))
        sym = half + half.T
        got = min_eigenvalue_sym(sym)
        ref = char_poly_eigenvalues(sym).real.min()
        np.testing.assert_allclose(got, ref, rtol=1e-7, atol=1e-8)


def test_min_eigenvalue_sym_rejects_asymmetric():
    with pytest.raises(ValueError):
        min_eigenvalue_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))
    for shape in ((3,), (2, 3)):
        with pytest.raises(ValueError, match="expected a square matrix"):
            min_eigenvalue_sym(np.ones(shape))


def test_min_eigenvalue_sym_refuses_complex_input():
    # TypeError rather than the real part with a ComplexWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TypeError):
            min_eigenvalue_sym(np.array([[1.0, 1j], [-1j, 1.0]]))
