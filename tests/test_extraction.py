import gc
import tracemalloc
import warnings

import numpy as np
import pytest

import setloss.clustering as clustering
from setloss.clustering import gmm_sample, random_gmm_spec, recover_point_set
from setloss.errors import DegenerateConfigurationError, InvalidStateError, NumericalFailureError
from setloss.extraction import (
    ZeroSet,
    _sort_order,
    extract_zero_set,
    real_projection,
    set_distance,
)
from setloss.fitting import FitOptions, SampleSet, fit_generating_matrix
from setloss.generating_system import (
    GeneratingMatrix,
    PointSet,
    _index_pairs,
    _strings_prelude,
    commutator_residual,
    generator_strings,
    generator_terms,
    multiplication_matrices,
    solve_generating_matrix,
)
from setloss.monomial_basis import MonomialBasis, border_monomials, standard_monomials

from helpers import (
    CONJUGATE_PAIR_SET,
    conjugate_pair_system,
    counting_calls,
    forget_shapes,
    match_as_multisets,
    random_points,
    reference_generator_strings,
    reference_sort_order,
)

BENCH_SET = np.array(
    [[1.0, 1.0], [3.0, 2.0], [1.5, 2.5], [2.5, 3.0], [2.0, 1.5], [3.0, 1.0]]
)

# a recovered set published for the uneven-radius benchmark
UNEVEN_RECOVERED = np.array(
    [
        [0.8820, 0.9557],
        [3.0807, 1.7892],
        [1.1759, 2.5383],
        [2.3481, 3.0050],
        [1.9854, 1.6354],
        [3.0292, 0.8541],
    ]
)


def test_roundtrip_recovers_the_set():
    rng = np.random.default_rng(0)
    for _ in range(25):
        k = int(rng.integers(1, 9))
        n = int(rng.integers(1, 5))
        pts = random_points(rng, k, n)
        gm = solve_generating_matrix(PointSet(pts))
        zs = extract_zero_set(gm)
        assert zs.k == k
        assert not zs.approximate
        assert zs.max_imaginary() <= 1e-8
        assert match_as_multisets(zs.points.real, pts) <= 1e-8
        assert zs.residuals.max() <= 1e-7 * (1 + gm.frobenius_norm())


def test_simplex_set_roundtrip():
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 3.0]])
    gm = solve_generating_matrix(PointSet(pts))
    zs = extract_zero_set(gm)
    assert match_as_multisets(zs.points.real, pts) <= 1e-10


def test_canonical_order_is_seed_independent():
    rng = np.random.default_rng(1)
    pts = random_points(rng, 6, 3)
    gm = solve_generating_matrix(PointSet(pts))
    base = extract_zero_set(gm, seed=0)
    for seed in (1, 2, 3, 17):
        again = extract_zero_set(gm, seed=seed)
        np.testing.assert_allclose(again.points, base.points, atol=1e-8)


def test_order_is_graded_on_real_parts():
    pts = np.array([[3.0, 0.2], [0.4, 1.1], [1.0, 1.5], [-2.0, 0.3]])
    zs = extract_zero_set(solve_generating_matrix(PointSet(pts)))
    sums = zs.points.real.sum(axis=1)
    assert list(np.round(sums, 6)) == sorted(np.round(sums, 6))


def complex_points(real, imag):
    # set part by part: arithmetic such as real + 0j turns -0.0 into 0.0
    pts = np.empty(real.shape, dtype=complex)
    pts.real, pts.imag = real, imag
    return pts


def assert_sorted_as_reference(points):
    got = _sort_order(points)
    want = reference_sort_order(points)
    np.testing.assert_array_equal(got, want)
    assert got.dtype == want.dtype


def test_sort_order_matches_sorted_on_random_points():
    rng = np.random.default_rng(90)
    for k in (1, 2, 5, 12, 35):
        for n in (1, 2, 3, 4, 9, 12):
            real = rng.uniform(-2.0, 2.0, size=(k, n))
            assert_sorted_as_reference(complex_points(real, np.zeros((k, n))))
            assert_sorted_as_reference(
                complex_points(real, rng.uniform(-1e-3, 1e-3, size=(k, n)))
            )


def test_sort_order_matches_sorted_on_ties():
    # coordinates that round to the same multiple of 1e-9, exact
    # duplicates (which keep their index order), signed zeros, and
    # conjugate pairs, whose real parts tie and whose imaginary parts
    # order the pair
    rng = np.random.default_rng(91)
    grid = np.array([0.0, -0.0, 1.0, -1.0, 1.0 + 3e-10, 1.0 - 4e-10, 2e-10, -2e-10, 0.5])
    for n in (1, 2, 3, 4):
        for _ in range(200):
            k = int(rng.integers(1, 10))
            real = rng.choice(grid, size=(k, n))
            imag = rng.choice(grid, size=(k, n))
            assert_sorted_as_reference(complex_points(real, np.zeros((k, n))))
            assert_sorted_as_reference(complex_points(real, imag))
            pairs = np.vstack([complex_points(real, imag), complex_points(real, -imag)])
            assert_sorted_as_reference(pairs[rng.permutation(2 * k)])


def test_conjugate_zeros_come_back_as_pairs():
    # a real system whose zeros include the pair (1 +- 2i, -1)
    zs = extract_zero_set(conjugate_pair_system())
    assert zs.max_imaginary() > 1.0
    assert not zs.is_real
    assert match_as_multisets(
        np.concatenate([zs.points.real, zs.points.imag], axis=1),
        np.concatenate([CONJUGATE_PAIR_SET.real, CONJUGATE_PAIR_SET.imag], axis=1),
    ) <= 1e-8


def test_real_projection_of_real_zeros():
    rng = np.random.default_rng(2)
    pts = random_points(rng, 5, 2)
    zs = extract_zero_set(solve_generating_matrix(PointSet(pts)))
    projected = real_projection(zs.points)
    assert projected.points.dtype == np.float64
    assert match_as_multisets(projected.points, pts) <= 1e-8


def test_real_projection_refuses_a_conjugate_pair():
    # a conjugate pair is no point of a real set, and its real parts would
    # be one doubled point
    zs = extract_zero_set(conjugate_pair_system())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(
            NumericalFailureError,
            match=r"^extracted zeros are not real: imaginary parts up to 2\.000e\+00$",
        ) as info:
            real_projection(zs.points)
    assert info.value.stage == "extract"


def test_real_projection_refuses_non_finite_zeros_as_non_finite():
    # a NaN real part would make the realness test compare with NaN and
    # call the zeros not real; they are refused as what they are
    for bad in (np.nan, np.inf, complex(0.0, np.nan)):
        pts = np.array([[1.0, 2.0], [bad, 0.5]], dtype=complex)
        with pytest.raises(DegenerateConfigurationError, match="^points must be finite$"):
            real_projection(pts)


def test_real_projection_refuses_coincident_real_zeros():
    # x^2 = 0: the double zero passes the gap test and comes back twice
    zs = extract_zero_set(GeneratingMatrix(standard_monomials(1, 2), np.zeros((2, 1))))
    assert zs.is_real
    with pytest.raises(DegenerateConfigurationError, match="points 0 and 1 coincide"):
        real_projection(zs.points)


def test_real_projection_is_silent_on_real_zeros():
    rng = np.random.default_rng(4)
    zs = extract_zero_set(solve_generating_matrix(PointSet(random_points(rng, 6, 3))))
    assert zs.is_real
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        real_projection(zs.points)


def test_real_projection_refuses_dropped_imaginary_parts():
    # a noisy (2, 4) fit whose zeros include a conjugate pair with imaginary
    # parts near 0.3 and 0.8; the fit itself reports convergence
    spec = random_gmm_spec(2, 4, seed=207)
    samples, _ = gmm_sample(spec, 300, seed=257)
    fit = fit_generating_matrix(samples, standard_monomials(samples.n, 4))
    assert fit.converged
    zeros = extract_zero_set(fit.g_star, seed=7)
    assert not zeros.is_real
    with pytest.raises(NumericalFailureError, match=r"imaginary parts up to 8\.\d+e-01") as own:
        real_projection(zeros.points)
    # recovery refuses the same zeros, by the same raise, instead of
    # building a loss on them
    with pytest.raises(NumericalFailureError) as info:
        recover_point_set(samples, 4, FitOptions(seed=7))
    assert str(info.value) == str(own.value)
    assert info.value.stage == own.value.stage == "extract"


def test_recovery_refuses_coincident_real_zeros_at_the_extract_stage(monkeypatch):
    # real zeros that coincide are no point set: real_projection's
    # PointSet refuses them, inside recovery's extract stage
    double = extract_zero_set(GeneratingMatrix(standard_monomials(1, 2), np.zeros((2, 1))))
    monkeypatch.setattr(clustering, "extract_zero_set", lambda gm, seed: double)
    samples = SampleSet(np.array([[-1.0], [-0.9], [1.0], [1.1]]))
    with pytest.raises(DegenerateConfigurationError, match="points 0 and 1 coincide") as info:
        recover_point_set(samples, 2)
    assert info.value.stage == "extract"


def test_large_k_roundtrip_needs_the_sorted_schur_form():
    # with the Schur diagonal left in LAPACK's order this set comes back
    # 9.6e-8 from the truth; sorted by (real, imag) it is within 1.2e-9
    pts = random_points(np.random.default_rng(774), 35, 3)
    zeros = extract_zero_set(solve_generating_matrix(PointSet(pts)))
    assert match_as_multisets(zeros.points.real, pts) <= 1e-8
    assert np.abs(zeros.points.imag).max() <= 1e-8


def test_extraction_builds_one_shift_table(monkeypatch):
    # a matrix read from JSON gets the interned basis of its shape, so its
    # commutator gate and Schur step, and every later matrix of that shape,
    # share one table
    import setloss.generating_system as gs

    forget_shapes()
    tables = counting_calls(monkeypatch, gs, "shift_table")
    payload = solve_generating_matrix(PointSet(BENCH_SET)).to_json()
    first = extract_zero_set(GeneratingMatrix.from_json(payload))
    assert len(tables) == 1
    again = GeneratingMatrix.from_json(payload)
    assert again.basis is standard_monomials(2, 6)
    assert again.border is border_monomials(again.basis)
    second = extract_zero_set(again)
    assert len(tables) == 1
    np.testing.assert_array_equal(second.points, first.points)


def test_extraction_builds_the_multiplication_matrices_once(monkeypatch):
    # the commutator gate and the Schur step read one (n, k, k) stack
    import setloss.generating_system as gs

    gm = solve_generating_matrix(PointSet(BENCH_SET))
    builds = counting_calls(monkeypatch, gs.ShiftTable, "matrices")
    zeros = extract_zero_set(gm, seed=3)
    assert len(builds) == 1
    assert zeros.commutator_norm == commutator_residual(multiplication_matrices(gm))


def test_the_structures_of_102_shapes_stay_under_1_mib():
    # every (n, k) of the benchmark's round-trip cycle, built from scratch:
    # interpolation, generator terms and text, and extraction keep each
    # shape's basis, border, shift table and text prelude for the rest of
    # the process.  They hold about 0.8 MiB.  A member-to-position map per
    # basis would add 0.35 MiB, one name string per monomial per shape
    # 0.16 MiB, and index pairs cached per extracted k 0.11 MiB
    forget_shapes()
    rng = np.random.default_rng(29)
    shapes = [(n, k) for n in (2, 3, 4) for k in range(2, 36)]
    point_sets = [PointSet(random_points(rng, k, n)) for n, k in shapes]
    tracemalloc.start()
    try:
        gc.collect()
        start = tracemalloc.get_traced_memory()[0]
        for points in point_sets:
            gm = solve_generating_matrix(points)
            generator_terms(gm)
            generator_strings(gm)
            try:
                extract_zero_set(gm)
            except NumericalFailureError:
                # the shape's structures are built before any refusal
                pass
        del gm
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert retained < 2**20, f"{retained / 2**20:.2f} MiB retained"


def test_extraction_caches_no_index_pairs_per_k():
    # the gap test reads the full k x k distance matrix; the pair indices
    # stay cached only for the n-variable commutator stacks
    _index_pairs.cache_clear()
    rng = np.random.default_rng(30)
    for k in range(5, 36, 5):
        extract_zero_set(solve_generating_matrix(PointSet(random_points(rng, k, 2))))
    assert _index_pairs.cache_info().currsize == 1


def test_preludes_of_two_shapes_share_their_names():
    small, large = standard_monomials(2, 6), standard_monomials(2, 10)
    names = [_strings_prelude(basis)[1] for basis in (small, large)]
    first, second = (next(x for x in found if x == "x1^2") for found in names)
    assert first is second


def test_gap_test_passes_an_all_coincident_spectrum():
    # x^2 = 0: both eigenvalues are 0, so the largest gap is 0 as well and
    # the two zeros come back with multiplicity
    basis = standard_monomials(1, 2)
    gm = GeneratingMatrix(basis, np.zeros((2, 1)))
    zeros = extract_zero_set(gm)
    np.testing.assert_array_equal(zeros.points, [[0.0], [0.0]])


def test_gap_test_refuses_a_cluster_among_separated_zeros():
    # x^3 = x^2 has zeros {0, 0, 1}: the double zero is clustered against
    # the distance 1, whatever the combination
    basis = standard_monomials(1, 3)
    gm = GeneratingMatrix(basis, np.array([[0.0], [0.0], [1.0]]))
    with pytest.raises(NumericalFailureError, match="stayed clustered"):
        extract_zero_set(gm)


def test_gap_test_splits_a_lone_double_zero():
    # x^2 = 2x - 1: one distance between two eigenvalues is both the min and
    # the max, and rounding splits the double zero at 1 by about 6e-8
    basis = standard_monomials(1, 2)
    gm = GeneratingMatrix(basis, np.array([[-1.0], [2.0]]))
    zeros = extract_zero_set(gm)
    assert np.abs(zeros.points - 1.0).max() < 1e-6


def test_permuted_basis_keeps_its_own_structures(monkeypatch):
    # the same monomials in another order are a basis of their own: not
    # interned, with a table and a rendering prelude of their own
    import setloss.generating_system as gs

    forget_shapes()
    rng = np.random.default_rng(31)
    pts = random_points(rng, 6, 2)
    gm = solve_generating_matrix(PointSet(pts))
    perm = np.array([3, 0, 5, 1, 4, 2])
    basis = MonomialBasis(n=2, powers=gm.basis.powers[perm])
    permuted = GeneratingMatrix(basis, gm.entries[perm])
    loaded = GeneratingMatrix.from_json(permuted.to_json())
    assert loaded.basis == basis and loaded.basis is not gm.basis
    assert loaded.border == gm.border and loaded.border is not gm.border
    tables = counting_calls(monkeypatch, gs, "shift_table")
    preludes = counting_calls(monkeypatch, gs, "_strings_prelude")
    zeros = extract_zero_set(loaded)
    assert generator_strings(loaded) == reference_generator_strings(loaded)
    assert tables == [loaded.basis] and preludes == [loaded.basis]
    parent = extract_zero_set(gm)
    assert generator_strings(gm) == reference_generator_strings(gm)
    assert tables == [loaded.basis, gm.basis] and preludes == [loaded.basis, gm.basis]
    assert gs._shifts(loaded.basis) is not gs._shifts(gm.basis)
    # the same zeros, in the same sorted order
    np.testing.assert_allclose(zeros.points, parent.points, rtol=0, atol=1e-9)
    assert match_as_multisets(zeros.points.real, pts) <= 1e-9
    # another matrix on either basis builds nothing new
    extract_zero_set(GeneratingMatrix(loaded.basis, loaded.entries))
    generator_strings(loaded)
    extract_zero_set(GeneratingMatrix.from_json(gm.to_json()))
    assert len(tables) == len(preludes) == 2
    # while a permuted basis read again is a new object, with a new table
    reread = GeneratingMatrix.from_json(permuted.to_json())
    extract_zero_set(reread)
    assert tables[2:] == [reread.basis] and reread.basis is not loaded.basis


def test_commuting_gate_rejects_garbage():
    rng = np.random.default_rng(3)
    pts = random_points(rng, 5, 2)
    gm = solve_generating_matrix(PointSet(pts))
    wrecked = GeneratingMatrix(
        basis=gm.basis,
        entries=gm.entries + rng.standard_normal(gm.entries.shape),
    )
    with pytest.raises(InvalidStateError):
        extract_zero_set(wrecked)


def test_approximate_flag_between_limits():
    rng = np.random.default_rng(4)
    pts = random_points(rng, 4, 2)
    gm = solve_generating_matrix(PointSet(pts))
    direction = rng.standard_normal(gm.entries.shape)
    probe = GeneratingMatrix(basis=gm.basis, entries=gm.entries + direction)
    slope = commutator_residual(multiplication_matrices(probe))
    scale = 1.0 + gm.frobenius_norm()
    # aim the residual midway between the soft and hard thresholds
    delta = 1e-7 * scale / slope
    bent = GeneratingMatrix(basis=gm.basis, entries=gm.entries + delta * direction)
    residual = commutator_residual(multiplication_matrices(bent))
    assert 1e-8 * scale < residual < 1e-6 * scale
    zs = extract_zero_set(bent)
    assert zs.approximate
    assert match_as_multisets(zs.points.real, pts) <= 1e-4


def test_set_distance_matches_published_benchmark():
    recovered = PointSet(UNEVEN_RECOVERED)
    reference = PointSet(BENCH_SET)
    # max over recovered points of the distance to the nearest benchmark point
    assert set_distance(reference, recovered) == pytest.approx(0.3264, abs=2e-4)


def test_set_distance_directionality():
    a = PointSet(np.array([[0.0, 0.0], [1.0, 0.0]]))
    b = PointSet(np.array([[0.0, 0.0]]))
    # every b point is near an a point, but not vice versa
    assert set_distance(a, b) == 0.0
    assert set_distance(b, a) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="dimension mismatch"):
        set_distance(a, PointSet(np.zeros((1, 3))))


def test_zero_set_json_roundtrip():
    rng = np.random.default_rng(5)
    pts = random_points(rng, 4, 3)
    zs = extract_zero_set(solve_generating_matrix(PointSet(pts)))
    again = ZeroSet.from_json(zs.to_json())
    np.testing.assert_allclose(again.points, zs.points, atol=0)
    np.testing.assert_allclose(again.residuals, zs.residuals, atol=0)
    assert again.approximate == zs.approximate


def test_zero_set_json_takes_numbers_only():
    # the [re, im] pairs read back to the bit, signed zeros included;
    # residuals or pairs given as text are refused, not parsed
    gm = solve_generating_matrix(PointSet(np.array([[-1.0, 0.0], [2.0, -3.0], [0.5, 1.0]])))
    payload = extract_zero_set(gm).to_json()
    payload["points"][0][1] = [-0.0, -0.0]
    again = ZeroSet.from_json(payload)
    assert again.to_json() == payload
    assert np.signbit(again.points[0, 1].real) and np.signbit(again.points[0, 1].imag)
    texts = {
        "residuals": [str(r) for r in payload["residuals"]],
        "points": [[[str(re), im] for re, im in row] for row in payload["points"]],
    }
    for key, text in texts.items():
        with pytest.raises(TypeError):
            ZeroSet.from_json({**payload, key: text})


def test_zero_set_json_refuses_booleans_inside_arrays():
    # numpy reads [2.0, True] as [2.0, 1.0]; the points and residuals refuse it
    gm = solve_generating_matrix(PointSet(np.array([[-1.0, 0.0], [2.0, -3.0], [0.5, 1.0]])))
    payload = extract_zero_set(gm).to_json()
    points = [[pair[:] for pair in row] for row in payload["points"]]
    points[0][0][1] = False
    residuals = [*payload["residuals"][:-1], True]
    for bad in ({"points": points}, {"residuals": residuals}):
        with pytest.raises(TypeError, match="booleans"):
            ZeroSet.from_json({**payload, **bad})


def test_json_scalar_fields_take_numbers_only():
    # n and k pass integer_array, commutator_norm real_array, and
    # approximate must be a JSON boolean: text is refused, not parsed, and
    # a boolean is no number
    gm = solve_generating_matrix(PointSet(np.array([[-1.0, 0.0], [2.0, -3.0], [0.5, 1.0]])))
    matrix, zeros, basis = gm.to_json(), extract_zero_set(gm).to_json(), gm.basis.to_json()
    readers = ((GeneratingMatrix, matrix), (ZeroSet, zeros), (MonomialBasis, basis))
    for reader, payload in readers:
        assert reader.from_json(payload).to_json() == payload
        for key in ("n", "k") if "k" in payload else ("n",):
            for value in (str(payload[key]), True):
                with pytest.raises(TypeError):
                    reader.from_json({**payload, key: value})
            with pytest.raises(ValueError, match=f"{key} must be integers"):
                reader.from_json({**payload, key: payload[key] + 0.5})
    for key, value in (
        ("commutator_norm", "1e-3"),
        ("commutator_norm", True),
        ("approximate", "no"),
        ("approximate", 0),
    ):
        with pytest.raises(TypeError):
            ZeroSet.from_json({**zeros, key: value})


def test_zero_set_refuses_complex_residuals():
    # residuals are real: a complex one raises TypeError, its imaginary
    # part not dropped with a warning; real ones are copied before freezing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TypeError):
            ZeroSet(np.zeros((2, 2)), np.array([1 + 1j, 0]), False, 0.0)
    residuals = np.array([1.0, 0.0])
    zs = ZeroSet(np.zeros((2, 2)), residuals, False, 0.0)
    assert residuals.flags.writeable and not zs.residuals.flags.writeable
    # one residual per point of a (k, n) array, or ValueError
    for points, res in ((np.zeros((3, 2)), residuals), (np.zeros(2), residuals)):
        with pytest.raises(ValueError, match="shapes are inconsistent"):
            ZeroSet(points, res, False, 0.0)


def test_single_point_extraction():
    gm = solve_generating_matrix(PointSet(np.array([[2.5, -1.5]])))
    zs = extract_zero_set(gm)
    np.testing.assert_allclose(zs.points.real, [[2.5, -1.5]], atol=1e-12)
    # k = 1 passes the gap test without a distance to measure, in any n
    for point in ([0.75], [1.0, -2.0, 3.0]):
        zs = extract_zero_set(solve_generating_matrix(PointSet(np.array([point]))))
        np.testing.assert_array_equal(zs.points, [point])
