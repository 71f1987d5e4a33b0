import warnings

import numpy as np
import pytest
import sympy

from setloss.errors import DegenerateConfigurationError
from setloss.fitting import SampleSet
from setloss.generating_system import (
    GeneratingMatrix,
    PointSet,
    commutator_residual,
    commutators,
    evaluate_generators,
    generator_strings,
    generator_terms,
    generators_jacobian,
    multiplication_matrices,
    shift_table,
    solve_generating_matrix,
)
from setloss.monomial_basis import (
    MonomialBasis,
    basis_jacobian,
    border_monomials,
    monomial_matrix,
    standard_monomials,
)

from helpers import (
    fd_jacobian,
    product_loss,
    random_points,
    reference_generator_strings,
    reference_generator_terms,
)

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
    assert ps.k == 2 and ps.n == 2 and ps.points.dtype == np.float64


def test_point_set_names_first_coincident_pair():
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 1.0 + 1e-13], [0.0, 0.0], [2.0, 0.0]])
    with pytest.raises(ValueError, match="points 0 and 3 coincide"):
        PointSet(pts)
    with pytest.raises(ValueError, match="points 1 and 3 coincide"):
        PointSet(pts[[4, 1, 0, 2, 3]])


@pytest.mark.parametrize("make", [PointSet, SampleSet])
def test_point_and_sample_sets_refuse_complex_entries(make):
    # the entries pass real_array: a cast to float would keep the real
    # parts and drop the rest, even when every imaginary part is zero
    for values in (
        np.array([[1.0 + 2.0j, 0.0], [2.0, 1.0]]),
        np.array([[1.0, 0.0], [2.0, 1.0]], dtype=complex),
        [[1.0 + 0j, 0.0], [2.0, 1.0]],
        # and text is not parsed as numbers
        [["1.5", "2"], ["0", "1"]],
    ):
        with pytest.raises(TypeError, match="same_kind"):
            make(values)


@pytest.mark.parametrize("make", [PointSet, SampleSet])
def test_unusable_values_are_degenerate_configurations(make):
    # the refusal the CLI reports is raised here, not converted on the way
    # out; a malformed shape stays a plain ValueError
    for bad in (np.nan, np.inf):
        with pytest.raises(DegenerateConfigurationError, match="must be finite"):
            make(np.array([[1.0, 2.0], [bad, 0.0]]))
    with pytest.raises(ValueError) as info:
        make(np.array([1.0, 2.0]))
    assert not isinstance(info.value, DegenerateConfigurationError)
    coincident = np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0]])
    if make is PointSet:
        with pytest.raises(DegenerateConfigurationError, match="points 0 and 2 coincide"):
            make(coincident)
    else:
        assert make(coincident).size == 3


def test_point_set_takes_no_labels():
    # a point set is its rows; labels belong to samples, not to the set
    with pytest.raises(TypeError):
        PointSet(np.array([[1.0, 2.0], [3.0, 4.0]]), labels=(0, 1))


def test_point_set_always_refuses_coincident_points():
    # no switch lets duplicate rows through
    with pytest.raises(TypeError):
        PointSet(np.array([[1.0, 2.0], [1.0, 2.0]]), check_distinct=False)


def test_point_set_is_immutable():
    ps = PointSet(np.array([[1.0, 2.0], [3.0, 4.0]]))
    with pytest.raises(ValueError):
        ps.points[0, 0] = 7.0


def test_worked_problem_three_dimensional_pair():
    gm = solve_generating_matrix(PointSet(SET_A))
    assert list(gm.basis) == B0_A
    assert list(gm.border) == B1_A
    np.testing.assert_allclose(gm.entries, G_A, atol=1e-10)


def test_worked_problem_three_points_plane():
    gm = solve_generating_matrix(PointSet(SET_B))
    np.testing.assert_allclose(gm.entries, G_B, atol=1e-10)


def test_worked_problem_four_points_plane():
    gm = solve_generating_matrix(PointSet(SET_C))
    assert list(gm.basis) == B0_C
    assert list(gm.border) == B1_C
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
        np.testing.assert_allclose(
            evaluate_generators(gm, pts.points), 0, atol=1e-8 * (1 + gm.frobenius_norm())
        )


def test_value_at_origin_is_negated_constant_row():
    gm = solve_generating_matrix(PointSet(SET_C))
    np.testing.assert_allclose(
        evaluate_generators(gm, np.zeros((1, 2))), -gm.entries[:1], atol=1e-12
    )


def test_zero_set_matches_product_loss_on_grid():
    # both losses vanish on the set and nowhere else
    gm = solve_generating_matrix(PointSet(SET_B))
    grid = np.linspace(-3.0, 3.0, 13)
    xs = np.array([[x1, x2] for x1 in grid for x2 in grid])
    phi = evaluate_generators(gm, xs)
    for x, row in zip(xs, phi):
        near = product_loss(SET_B, x) < 1e-16
        assert (float(row @ row) < 1e-14) == near


def test_generators_jacobian_matches_finite_differences():
    rng = np.random.default_rng(1)
    pts = PointSet(random_points(rng, 5, 3))
    gm = solve_generating_matrix(pts)
    for _ in range(5):
        x = rng.uniform(-2, 2, size=3)
        jac = generators_jacobian(gm, x[None, :])[0]
        ref = fd_jacobian(lambda y: evaluate_generators(gm, y[None, :])[0], x)
        np.testing.assert_allclose(jac, ref, rtol=1e-5, atol=1e-6)


def test_interpolation_refuses_collinear_points():
    # X0 on the basis {1, x1, x2} is singular for points on a line; the rank
    # check refuses it before the solve, with a condition estimate
    line = PointSet(np.array([[0.0, 1.0], [1.0, 3.0], [2.0, 5.0]]))
    with pytest.raises(DegenerateConfigurationError) as info:
        solve_generating_matrix(line)
    assert str(info.value).startswith("point set is degenerate for interpolation")
    assert "condition estimate" in str(info.value)
    assert info.value.condition is not None and info.value.condition > 1e10


def test_batched_evaluators_refuse_a_single_point():
    # below the loss objects every evaluator takes an (N, n) batch only
    gm = solve_generating_matrix(PointSet(SET_C))
    evaluators = (
        lambda x: monomial_matrix(x, gm.basis),
        lambda x: basis_jacobian(x, gm.basis),
        lambda x: evaluate_generators(gm, x),
        lambda x: generators_jacobian(gm, x),
    )
    point = SET_C[0]
    for evaluate in evaluators:
        assert evaluate(point[None, :]).shape[0] == 1
        with pytest.raises(ValueError, match=r"expected shape \(N, 2\)"):
            evaluate(point)


def test_multiplication_matrix_columns():
    # columns are unit vectors inside the basis and matrix columns outside
    gm = solve_generating_matrix(PointSet(SET_C))
    m1, m2 = multiplication_matrices(gm)
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


def _loop_multiplication_matrices(gm):
    # one monomial lookup per column, the reference for the shift table
    mats = []
    for i in range(gm.n):
        mat = np.zeros((gm.k, gm.k))
        for col, nu in enumerate(gm.basis):
            target = nu[:i] + (nu[i] + 1,) + nu[i + 1 :]
            if target in gm.basis:
                mat[list(gm.basis).index(target), col] = 1.0
            else:
                mat[:, col] = gm.entries[:, list(gm.border).index(target)]
        mats.append(mat)
    return mats


def test_multiplication_matrices_match_monomial_loop():
    rng = np.random.default_rng(20)
    for n in (1, 2, 3, 4):
        for k in range(1, 36):
            b0 = standard_monomials(n, k)
            b1 = border_monomials(b0)
            gm = GeneratingMatrix(b0, rng.standard_normal((k, len(b1))))
            mats = multiplication_matrices(gm)
            assert mats.shape == (n, k, k) and not mats.flags.writeable
            for got, want in zip(mats, _loop_multiplication_matrices(gm), strict=True):
                np.testing.assert_array_equal(got, want)


def test_shift_table_of_the_three_member_basis():
    b0 = standard_monomials(2, 3)
    table = shift_table(b0)
    assert table.unit.shape == (2, 3, 3) and table.unit.dtype == bool
    # only the constant column stays inside the basis, for either variable
    assert sorted(zip(table.var.tolist(), table.col.tolist())) == [
        (0, 1), (0, 2), (1, 1), (1, 2)
    ]


@pytest.mark.parametrize(("n", "k"), [(1, 5), (2, 9), (3, 12), (4, 15)])
def test_shift_table_matrices_are_the_float_formula(n, k):
    # the boolean table cast to 0.0 and 1.0, then every border product's
    # generating-matrix column written in, one product at a time
    b0 = standard_monomials(n, k)
    b1 = border_monomials(b0)
    table = shift_table(b0)
    entries = np.random.default_rng(n).standard_normal((k, len(b1)))
    want = table.unit.astype(float)
    for i, c, q in zip(table.var, table.col, table.border, strict=True):
        want[i, :, c] = entries[:, q]
    got = table.matrices(entries)
    assert got.dtype == np.float64 and got.shape == (n, k, k)
    assert got.tobytes() == want.tobytes()


def test_basis_vector_is_left_eigenvector():
    # [u]_B0 is a left eigenvector of each coordinate matrix
    rng = np.random.default_rng(2)
    for _ in range(10):
        k = int(rng.integers(2, 7))
        n = int(rng.integers(1, 4))
        pts = PointSet(random_points(rng, k, n))
        gm = solve_generating_matrix(pts)
        mats = multiplication_matrices(gm)
        for u, v in zip(pts.points, monomial_matrix(pts.points, gm.basis)):
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
        assert commutator_residual(multiplication_matrices(gm)) <= 1e-9 * (
            1 + gm.frobenius_norm()
        )


def test_commutators_match_pairwise_products():
    # one (i, j) pair at a time, i < j, the order the fit's residuals use
    rng = np.random.default_rng(21)
    for n in (1, 2, 3, 4):
        k = 7
        b0 = standard_monomials(n, k)
        b1 = border_monomials(b0)
        gm = GeneratingMatrix(b0, rng.standard_normal((k, len(b1))))
        mats = multiplication_matrices(gm)
        got = commutators(mats)
        want = [
            mats[i] @ mats[j] - mats[j] @ mats[i]
            for i in range(n)
            for j in range(i + 1, n)
        ]
        assert got.shape == (n * (n - 1) // 2, k, k)
        for c, w in zip(got, want, strict=True):
            np.testing.assert_array_equal(c, w)
        total = np.sqrt(sum(float(np.sum(w * w)) for w in want))
        assert commutator_residual(mats) == pytest.approx(total, rel=1e-14)


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


def assert_terms_match_reference(gm):
    # the keys, their order and every value to the bit, signed zeros
    # included: a build file writes the maps item by item
    got, want = generator_terms(gm), reference_generator_terms(gm)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert [(e, repr(c)) for e, c in g.items()] == [(e, repr(c)) for e, c in w.items()]
        assert all(type(c) is float for c in g.values())
        assert all(type(e) is int for key in g for e in key)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_strings_match_the_reference_renderer(n):
    rng = np.random.default_rng(40 + n)
    for k in range(2, 36):
        gm = solve_generating_matrix(PointSet(random_points(rng, k, n)))
        want = reference_generator_strings(gm)
        assert generator_strings(gm) == want, (n, k)
        assert_terms_match_reference(gm)
        # the same system with its basis rows in another order reads the same
        perm = rng.permutation(k)
        shuffled = GeneratingMatrix(
            basis=MonomialBasis(n=n, powers=gm.basis.powers[perm]),
            entries=gm.entries[perm],
        )
        assert generator_strings(shuffled) == want, (n, k)


def test_strings_place_every_term_by_its_key():
    # a basis that skips the constant, x1*x2 and x1^2, whose border holds
    # the last two: border terms land before and between basis terms (a
    # border term divides by a basis term, so none comes after them all),
    # and the entries hit the zero, signed-zero and unit-magnitude cases
    basis = MonomialBasis.from_json(
        {"n": 2, "members": [[0, 1], [1, 0], [0, 2], [2, 1], [0, 3], [1, 2]]}
    )
    border = border_monomials(basis)
    assert list(border) == [(2, 0), (1, 1), (3, 1), (2, 2), (1, 3), (0, 4)]
    rng = np.random.default_rng(8)
    values = np.array([0.0, -0.0, 1.0, -1.0, 2.5, -1e-13, 1 / 3, -7.0])
    for _ in range(50):
        entries = rng.choice(values, size=(len(basis), len(border)))
        entries[:, rng.integers(len(border))] = 0.0  # a generator that is a bare monomial
        for perm in (np.arange(len(basis)), rng.permutation(len(basis))):
            gm = GeneratingMatrix(
                basis=MonomialBasis(n=2, powers=basis.powers[perm]),
                entries=entries[perm],
            )
            assert generator_strings(gm) == reference_generator_strings(gm)
            assert_terms_match_reference(gm)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_strings_and_terms_on_special_entries(n):
    # standard bases with entries that random sets never give: zeros of
    # both signs, unit magnitudes, and +-1 on the constant monomial; the
    # border term of highest degree leads its generator
    rng = np.random.default_rng(70 + n)
    values = np.array([0.0, -0.0, 1.0, -1.0, 2.5, -1e-13, 1 / 3, -7.0])
    leads = 0
    for k in (2, 3, 4, 6, 10):
        basis = standard_monomials(n, k)
        border = border_monomials(basis)
        assert not any(basis[0])  # the constant comes first
        for _ in range(10):
            entries = rng.choice(values, size=(k, len(border)))
            entries[0] = rng.choice([1.0, -1.0], size=len(border))
            gm = GeneratingMatrix(basis=basis, entries=entries)
            texts = generator_strings(gm)
            assert texts == reference_generator_strings(gm), (n, k)
            assert_terms_match_reference(gm)
            for text, alpha in zip(texts, border):
                lead = "*".join(
                    f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}" for i, e in enumerate(alpha) if e
                )
                leads += text.startswith(lead + " ")
            assert all(text.endswith((" + 1", " - 1")) for text in texts)
    assert leads > 0


# the points that CI builds; their b1 is [[1,1],[0,2],[3,0],[2,1]]
BUILD_POINTS = np.array([[2.0, -1.0], [-1.0, 3.0], [-2.0, -2.0], [0.5, 0.25]])


@pytest.mark.parametrize("case", ["short", "extra", "swapped"])
def test_json_refuses_a_b1_that_is_not_the_border_of_b0(case):
    # G's columns are edited along with b1, so the shapes agree and only b1 is wrong
    gm = solve_generating_matrix(PointSet(BUILD_POINTS))
    payload = gm.to_json()
    b1, g = payload["b1"], gm.entries
    assert b1 == [[1, 1], [0, 2], [3, 0], [2, 1]]
    if case == "short":
        b1, g = b1[:-1], g[:, :-1]
    elif case == "extra":
        b1, g = b1 + [[5, 5]], np.column_stack([g, np.ones(len(g))])
    else:
        b1, g = [b1[1], b1[0], *b1[2:]], g[:, [1, 0, 2, 3]]
    with pytest.raises(ValueError, match="b1 must list the border of b0"):
        GeneratingMatrix.from_json({**payload, "b1": b1, "g": g.reshape(-1).tolist()})


def test_generating_matrix_refuses_complex_entries():
    # complex entries raise TypeError rather than losing their imaginary
    # parts with a warning; real ones are copied, so freezing the matrix
    # leaves the caller's array writeable
    gm = solve_generating_matrix(PointSet(SET_A))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TypeError):
            GeneratingMatrix(gm.basis, gm.entries + 1j)
    entries = gm.entries.copy()
    again = GeneratingMatrix(gm.basis, entries)
    assert entries.flags.writeable and not again.entries.flags.writeable
    np.testing.assert_array_equal(again.entries, gm.entries)
    # real entries of the wrong shape, or not finite, raise ValueError
    with pytest.raises(ValueError, match="entries must have shape"):
        GeneratingMatrix(gm.basis, gm.entries.T)
    entries[0, 0] = np.nan
    with pytest.raises(ValueError, match="entries must be finite"):
        GeneratingMatrix(gm.basis, entries)
    # and so does a file whose k is not the size of its b0
    with pytest.raises(ValueError, match="declared k=4 but basis has 2 members"):
        GeneratingMatrix.from_json({**gm.to_json(), "k": 4})
    # a file's "g" holds numbers: text that spells them raises TypeError
    payload = gm.to_json()
    for g in ([repr(v) for v in payload["g"]], [*payload["g"][:-1], "1.5"]):
        with pytest.raises(TypeError):
            GeneratingMatrix.from_json({**payload, "g": g})


def test_json_roundtrip():
    gm = solve_generating_matrix(PointSet(SET_A))
    again = GeneratingMatrix.from_json(gm.to_json())
    assert again.basis == gm.basis
    assert again.border == gm.border
    np.testing.assert_allclose(again.entries, gm.entries, atol=0)


def test_json_and_point_sets_refuse_booleans_inside_arrays():
    # numpy reads [2.0, True] as [2.0, 1.0]; the readers refuse it instead
    payload = solve_generating_matrix(PointSet(SET_A)).to_json()
    assert payload["b0"][1] == [1, 0, 0] and payload["b1"][0] == [0, 1, 0]
    g = [*payload["g"][:-1], True]
    b0 = [payload["b0"][0], [True, 0, 0]]
    b1 = [[0, True, 0], *payload["b1"][1:]]
    for bad in ({"g": g}, {"b0": b0}, {"b1": b1}):
        with pytest.raises(TypeError, match="booleans"):
            GeneratingMatrix.from_json({**payload, **bad})
    with pytest.raises(TypeError, match="booleans"):
        PointSet([[0.0, 2.0], [True, 2.0]])
