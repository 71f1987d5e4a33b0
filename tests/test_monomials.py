import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from setloss.generating_system import GeneratingMatrix, PointSet, solve_generating_matrix
from setloss.monomial_basis import (
    MonomialBasis,
    basis_jacobian,
    border_monomials,
    grlex_key,
    monomial_matrix,
    standard_monomials,
)

from helpers import (
    fd_jacobian,
    reference_basis_jacobian,
    reference_monomial_matrix,
)


def brute_order(n, max_degree):
    """All exponent vectors up to max_degree, sorted by the graded rule."""
    alphas = [
        a
        for a in itertools.product(range(max_degree + 1), repeat=n)
        if sum(a) <= max_degree
    ]
    return sorted(alphas, key=grlex_key)


def test_order_two_variables():
    # first variable outranks the second at equal degree
    first_six = list(standard_monomials(2, 6))
    assert first_six == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def test_order_matches_brute_force():
    for n in (1, 2, 3, 4):
        expected = brute_order(n, 3)
        got = list(standard_monomials(n, len(expected)))
        assert got == expected


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
    ka, kb, kc = grlex_key(a), grlex_key(b), grlex_key(c)
    # total: equal keys only for equal vectors
    assert (ka == kb) == (a == b)
    if ka <= kb and kb <= kc:
        assert ka <= kc
    # degree dominates everything else
    if sum(a) < sum(b):
        assert ka < kb
    # at equal degree the heavier first variable comes first
    if sum(a) == sum(b) and a[0] > b[0]:
        assert ka < kb


def test_standard_monomials_always_divisor_closed():
    for n in (1, 2, 3):
        for k in range(1, 16):
            basis = standard_monomials(n, k)
            members = set(basis)
            for alpha in members:
                for i in range(n):
                    if alpha[i] > 0:
                        lowered = list(alpha)
                        lowered[i] -= 1
                        assert tuple(lowered) in members


def test_standard_monomials_refuse_non_integer_sizes():
    # a fractional k used to round up to a whole degree level, and a
    # fractional n never reached the one-variable case
    for n, k in ((2, 2.5), (2, 3.7), (2.5, 3), (2, float("nan"))):
        with pytest.raises(ValueError, match="integers"):
            standard_monomials(n, k)
    # integral floats and numpy integers name the same cached basis
    basis = standard_monomials(2, 4)
    assert standard_monomials(2, 4.0) is basis
    assert standard_monomials(np.int64(2), np.int64(4)) is basis
    assert type(standard_monomials(3.0, 5).n) is int


def test_basis_rejects_duplicates_and_keeps_order():
    with pytest.raises(ValueError):
        MonomialBasis(2, ((0, 0), (0, 0)))
    # member order is preserved as given, not re-sorted
    basis = MonomialBasis(2, ((1, 0), (0, 0)))
    assert basis[0] == (1, 0)
    assert basis[1] == (0, 0)


def test_basis_keeps_no_position_map():
    # a basis lives as long as its shape is in use: iteration and
    # membership read ``powers`` and leave nothing behind on the object
    basis = standard_monomials(2, 10)
    assert list(basis) == [tuple(row) for row in basis.powers.tolist()]
    assert (0, 3) in basis and (4, 0) not in basis
    assert (0, 0, 0) not in basis
    assert not hasattr(basis, "_positions")
    assert "_positions" not in vars(basis)
    with pytest.raises(ValueError, match="distinct"):
        MonomialBasis(2, ((0, 0), (1, 0), (0, 1), (1, 0)))


def test_basis_rejects_negative_and_wrong_width():
    with pytest.raises(ValueError, match="nonnegative"):
        MonomialBasis(2, ((0, 0), (1, -1)))
    for members in (((0, 0, 0),), ((1,),), ((0, 0), (1, 0, 0)), (1, 0)):
        with pytest.raises(ValueError):
            MonomialBasis(2, members)
    assert len(MonomialBasis(2, ())) == 0
    # a fractional exponent is refused, not truncated to the integer below it
    for members in (((1.5, 0), (0, 1)), np.array([[0.0, 0.0], [0.5, 0.0]])):
        with pytest.raises(ValueError, match="exponents must be integers"):
            MonomialBasis(2, members)
    with pytest.raises(ValueError, match="exponents must be integers"):
        MonomialBasis.from_json({"n": 2, "members": [[0, 0], [0.5, 0]]})
    assert MonomialBasis(2, ((0.0, 0.0), (1.0, 0.0))) == MonomialBasis(2, ((0, 0), (1, 0)))
    # a complex exponent is refused, not cast to its real part
    with pytest.raises(TypeError):
        MonomialBasis(2, np.array([[0, 0], [1 + 0j, 0]]))
    with pytest.raises(ValueError, match="dimension must be positive"):
        MonomialBasis(0, ())
    # a build file whose b0 has 1.5 in place of a 1 is not read as the standard basis
    payload = solve_generating_matrix(
        PointSet(np.array([[2.0, -1.0], [-1.0, 3.0], [-2.0, -2.0], [0.5, 0.25]]))
    ).to_json()
    payload["b0"][1] = [1.5, 0]
    with pytest.raises(ValueError, match="exponents must be integers"):
        GeneratingMatrix.from_json(payload)


def test_border_of_simplex_basis():
    # border of {1, x1, ..., xn} is every degree-2 monomial
    basis = standard_monomials(3, 4)
    border = border_monomials(basis)
    assert list(border) == [
        (2, 0, 0),
        (1, 1, 0),
        (1, 0, 1),
        (0, 2, 0),
        (0, 1, 1),
        (0, 0, 2),
    ]


def test_json_members_refuse_booleans():
    # numpy reads [[0, 0], [True, 0]] as integers; a JSON true is no exponent
    with pytest.raises(TypeError, match="booleans"):
        MonomialBasis.from_json({"n": 2, "members": [[0, 0], [True, 0]]})
    assert len(MonomialBasis.from_json({"n": 2, "members": [[0, 0], [1, 0]]})) == 2


def test_border_disjoint_sorted_and_covering():
    rng = np.random.default_rng(1)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, 12))
        basis = standard_monomials(n, k)
        border = border_monomials(basis)
        inside = set(basis)
        edge = list(border)
        assert edge == sorted(set(edge), key=grlex_key)
        assert not inside.intersection(edge)
        shifts = {
            m[:i] + (m[i] + 1,) + m[i + 1 :] for m in basis for i in range(n)
        } - inside
        assert shifts == set(edge)


def test_monomial_matrix_values():
    basis = standard_monomials(2, 6)
    got = monomial_matrix(np.array([[2.0, 3.0], [0.0, 0.0]]), basis)
    np.testing.assert_array_equal(got, [[1, 2, 3, 4, 6, 9], [1, 0, 0, 0, 0, 0]])


def test_evaluators_refuse_complex_points():
    # points are real: a complex point is refused, not cast to its real part
    basis = standard_monomials(2, 4)
    with pytest.raises(TypeError):
        monomial_matrix(np.array([[1j, 2.0]]), basis)
    with pytest.raises(TypeError):
        basis_jacobian(np.array([[1j, 2.0]]), basis)


def test_monomial_matrix_stacks_rows():
    basis = standard_monomials(2, 5)
    pts = np.array([[1.0, 2.0], [-1.0, 0.5], [0.0, 0.0]])
    mat = monomial_matrix(pts, basis)
    assert mat.shape == (3, 5)
    for j, p in enumerate(pts):
        np.testing.assert_array_equal(mat[j], monomial_matrix(p[None, :], basis)[0])


def test_basis_jacobian_matches_finite_differences():
    rng = np.random.default_rng(2)
    for n, k in [(1, 4), (2, 6), (3, 9), (4, 12)]:
        basis = standard_monomials(n, k)
        x = rng.uniform(-1.5, 1.5, size=n)
        jac = basis_jacobian(x[None, :], basis)[0]
        ref = fd_jacobian(lambda y: monomial_matrix(y[None, :], basis)[0], x)
        np.testing.assert_allclose(jac, ref, rtol=1e-6, atol=1e-7)


def test_basis_jacobian_at_zero():
    # derivative of x_i is 1 at the origin, all higher terms vanish
    basis = standard_monomials(2, 6)
    jac = basis_jacobian(np.zeros((1, 2)), basis)[0]
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
        rows = pts[:, None, :]
        np.testing.assert_array_equal(jac, [basis_jacobian(p, basis)[0] for p in rows])
        np.testing.assert_array_equal(
            monomial_matrix(pts, basis)[:, 1:], [monomial_matrix(p, basis)[0, 1:] for p in rows]
        )
    with pytest.raises(ValueError):
        basis_jacobian(np.zeros((2, 2, 2)), standard_monomials(2, 3))


def test_json_roundtrip():
    basis = standard_monomials(3, 8)
    again = MonomialBasis.from_json(basis.to_json())
    assert again == basis


def test_standard_bases_are_shared_and_read_only():
    basis = standard_monomials(3, 8)
    assert standard_monomials(3, 8) is basis
    assert standard_monomials(3, 7) is not basis
    assert border_monomials(basis) is border_monomials(standard_monomials(3, 8))
    with pytest.raises(ValueError):
        basis.powers[0, 0] = 5
    assert basis[0] == (0, 0, 0)
    payload = basis.to_json()
    assert payload == {"n": 3, "members": [list(m) for m in basis]}
    again = MonomialBasis.from_json(payload)
    assert again == basis and again is not basis
    assert not again.powers.flags.writeable
    assert again != standard_monomials(3, 7)
    assert again != MonomialBasis(4, np.zeros((1, 4), dtype=int))


def _bases_up_to_exponent_seven(rng, n):
    # standard bases, random exponent sets with entries 0..7, one basis
    # with a single member (its broadcast power has a single exponent)
    bases = [standard_monomials(n, k) for k in (1, 2, 4, 9, 20)]
    for _ in range(3):
        bases.append(MonomialBasis(n, np.unique(rng.integers(0, 8, (12, n)), axis=0)))
    bases.append(MonomialBasis(n, [[2] * n]))
    return bases


@pytest.mark.parametrize("n", [1, 2, 3, 4], ids="real-{}".format)
def test_evaluation_matches_the_broadcast_formulas_bit_for_bit(n):
    # powers run only where the exponent is 2 or more, and the products
    # skip the factors x ** 0 and use x for x ** 1; numpy's pow loop
    # rounds squares differently from x * x, so both are checked
    rng = np.random.default_rng(40 + n)
    for basis in _bases_up_to_exponent_seven(rng, n):
        powers = basis.powers
        for size in (1, 2, 7, 8, 33):
            pts = rng.uniform(-3.0, 3.0, (size, n))
            np.testing.assert_array_equal(
                monomial_matrix(pts, basis), reference_monomial_matrix(pts, powers)
            )
            np.testing.assert_array_equal(
                basis_jacobian(pts, basis), reference_basis_jacobian(pts, powers)
            )


def test_evaluation_keeps_the_layout_of_the_broadcast_formulas():
    # downstream matmuls and reductions read the layout, not just the values
    rng = np.random.default_rng(45)
    basis = standard_monomials(3, 10)
    pts = rng.uniform(-2.0, 2.0, (9, 3))
    mat = monomial_matrix(pts, basis)
    jac = basis_jacobian(pts, basis)
    ref = reference_basis_jacobian(pts, basis.powers)
    assert mat.flags.c_contiguous
    assert jac.strides == ref.strides
