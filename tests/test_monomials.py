import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from setloss.errors import InvalidStateError
from setloss.monomial_basis import (
    ExponentVector,
    MonomialBasis,
    basis_jacobian,
    border_monomials,
    evaluate_monomials,
    grlex_compare,
    grlex_key,
    monomial_lift,
    monomial_matrix,
    standard_monomials,
)

from helpers import fd_jacobian


def brute_order(n, max_degree):
    """All exponent vectors up to max_degree, sorted by the graded rule."""
    alphas = [
        a
        for a in itertools.product(range(max_degree + 1), repeat=n)
        if sum(a) <= max_degree
    ]
    return sorted(alphas, key=grlex_key)


def test_exponent_vector_basics():
    a = ExponentVector((2, 0, 1))
    assert a.degree == 3
    assert a.n == 3
    assert len(a) == 3
    assert list(a) == [2, 0, 1]
    assert a[0] == 2
    assert a.shifted(1) == ExponentVector((2, 1, 1))


def test_exponent_vector_rejects_negative():
    with pytest.raises(ValueError):
        ExponentVector((1, -1))


def test_order_two_variables():
    # first variable outranks the second at equal degree
    first_six = [m.exponents for m in standard_monomials(2, 6)]
    assert first_six == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def test_order_matches_brute_force():
    for n in (1, 2, 3, 4):
        expected = brute_order(n, 3)
        got = [m.exponents for m in standard_monomials(n, len(expected))]
        assert got == expected


def test_compare_is_sign_of_key_difference():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = rng.integers(1, 5)
        a = tuple(int(v) for v in rng.integers(0, 4, size=n))
        b = tuple(int(v) for v in rng.integers(0, 4, size=n))
        c = grlex_compare(a, b)
        if grlex_key(a) < grlex_key(b):
            assert c == -1
        elif grlex_key(a) > grlex_key(b):
            assert c == 1
        else:
            assert c == 0


def test_compare_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        grlex_compare((1, 0), (1, 0, 0))


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(0, 5), min_size=n, max_size=n),
            st.lists(st.integers(0, 5), min_size=n, max_size=n),
            st.lists(st.integers(0, 5), min_size=n, max_size=n),
        )
    )
)
def test_order_is_total_and_transitive(triple):
    a, b, c = (tuple(v) for v in triple)
    assert grlex_compare(a, b) == -grlex_compare(b, a)
    if grlex_compare(a, b) <= 0 and grlex_compare(b, c) <= 0:
        assert grlex_compare(a, c) <= 0
    # degree dominates everything else
    if sum(a) < sum(b):
        assert grlex_compare(a, b) == -1


def test_standard_monomials_always_divisor_closed():
    for n in (1, 2, 3):
        for k in range(1, 16):
            basis = standard_monomials(n, k)
            members = {m.exponents for m in basis}
            for alpha in members:
                for i in range(n):
                    if alpha[i] > 0:
                        lowered = list(alpha)
                        lowered[i] -= 1
                        assert tuple(lowered) in members


def test_basis_position_and_contains():
    basis = standard_monomials(3, 7)
    for i, m in enumerate(basis):
        assert basis.position(m) == i
        assert m in basis
    assert (9, 9, 9) not in basis
    with pytest.raises(ValueError):
        basis.position((9, 9, 9))


def test_basis_rejects_duplicates_and_keeps_order():
    with pytest.raises(ValueError):
        MonomialBasis(2, (ExponentVector((0, 0)), ExponentVector((0, 0))))
    # member order is preserved as given, not re-sorted
    basis = MonomialBasis(2, (ExponentVector((1, 0)), ExponentVector((0, 0))))
    assert basis.position((1, 0)) == 0


def test_border_of_simplex_basis():
    # border of {1, x1, ..., xn} is every degree-2 monomial
    basis = standard_monomials(3, 4)
    border = border_monomials(basis)
    assert [m.exponents for m in border] == [
        (2, 0, 0),
        (1, 1, 0),
        (1, 0, 1),
        (0, 2, 0),
        (0, 1, 1),
        (0, 0, 2),
    ]


def test_border_disjoint_sorted_and_covering():
    rng = np.random.default_rng(1)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, 12))
        basis = standard_monomials(n, k)
        border = border_monomials(basis)
        inside = {m.exponents for m in basis}
        edge = [m.exponents for m in border]
        assert edge == sorted(set(edge), key=grlex_key)
        assert not inside.intersection(edge)
        shifts = {
            m.shifted(i).exponents for m in basis for i in range(n)
        } - inside
        assert shifts == set(edge)


def test_evaluate_monomials_values():
    basis = standard_monomials(2, 6)
    x = np.array([2.0, 3.0])
    got = evaluate_monomials(x, basis)
    np.testing.assert_allclose(got, [1, 2, 3, 4, 6, 9], rtol=0, atol=0)


def test_evaluate_monomials_complex():
    basis = standard_monomials(2, 4)
    x = np.array([1j, 2.0])
    got = evaluate_monomials(x, basis)
    np.testing.assert_allclose(got, [1, 1j, 2, -1], rtol=0, atol=1e-15)


def test_monomial_matrix_stacks_rows():
    basis = standard_monomials(2, 5)
    pts = np.array([[1.0, 2.0], [-1.0, 0.5], [0.0, 0.0]])
    mat = monomial_matrix(pts, basis)
    assert mat.shape == (3, 5)
    for j, p in enumerate(pts):
        np.testing.assert_allclose(mat[j], evaluate_monomials(p, basis))


def test_basis_jacobian_matches_finite_differences():
    rng = np.random.default_rng(2)
    for n, k in [(1, 4), (2, 6), (3, 9), (4, 12)]:
        basis = standard_monomials(n, k)
        x = rng.uniform(-1.5, 1.5, size=n)
        jac = basis_jacobian(x, basis)
        ref = fd_jacobian(lambda y: evaluate_monomials(y, basis), x)
        np.testing.assert_allclose(jac, ref, rtol=1e-6, atol=1e-7)


def test_basis_jacobian_at_zero():
    # derivative of x_i is 1 at the origin, all higher terms vanish
    basis = standard_monomials(2, 6)
    jac = basis_jacobian(np.zeros(2), basis)
    expected = np.zeros((6, 2))
    expected[1, 0] = 1.0
    expected[2, 1] = 1.0
    np.testing.assert_allclose(jac, expected, atol=0)


def test_batched_jacobian_and_lift_stack_per_row_results():
    rng = np.random.default_rng(3)
    for n, k in [(1, 4), (2, 6), (3, 9)]:
        basis = standard_monomials(n, k)
        pts = rng.uniform(-1.5, 1.5, size=(5, n))
        pts[1] = 0.0
        pts[3, 0] = 0.0
        jac = basis_jacobian(pts, basis)
        assert jac.shape == (5, k, n)
        np.testing.assert_array_equal(jac, [basis_jacobian(p, basis) for p in pts])
        np.testing.assert_array_equal(
            monomial_lift(pts, basis), [monomial_lift(p, basis) for p in pts]
        )
    with pytest.raises(ValueError):
        basis_jacobian(np.zeros((2, 2, 2)), standard_monomials(2, 3))


def test_monomial_lift_drops_constant():
    basis = standard_monomials(2, 4)
    x = np.array([2.0, -1.0])
    lift = monomial_lift(x, basis)
    np.testing.assert_allclose(lift, [2.0, -1.0, 4.0])


def test_monomial_lift_requires_leading_constant():
    shifted = MonomialBasis(
        2, (ExponentVector((1, 0)), ExponentVector((0, 1)))
    )
    with pytest.raises(InvalidStateError):
        monomial_lift(np.ones(2), shifted)


def test_json_roundtrip():
    basis = standard_monomials(3, 8)
    again = MonomialBasis.from_json(basis.to_json())
    assert again == basis
