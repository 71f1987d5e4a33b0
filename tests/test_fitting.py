import json
import re
from dataclasses import fields

import numpy as np
import pytest

from setloss.clustering import gmm_sample, random_gmm_spec, recover_point_set
from setloss.errors import DegenerateConfigurationError
from setloss.extraction import extract_zero_set
import setloss.fitting as fitting
from setloss.fitting import (
    FitOptions,
    PenaltyModel,
    SampleSet,
    fit_generating_matrix,
)
import setloss.generating_system as gs
from setloss.generating_system import (
    GeneratingMatrix,
    PointSet,
    commutator_residual,
    commutators,
    multiplication_matrices,
    solve_generating_matrix,
)
from setloss.monomial_basis import MonomialBasis, standard_monomials

from helpers import (
    counting_calls,
    fd_jacobian,
    forget_shapes,
    match_as_multisets,
    random_points,
    reference_average_loss,
    reference_penalty_jacobian,
    reference_penalty_residuals,
)


def noisy_samples(rng, points, eps, per_point):
    reps = np.repeat(points, per_point, axis=0)
    jitter = rng.uniform(-eps, eps, size=reps.shape)
    return SampleSet(reps + jitter)


def test_sample_set_validation():
    with pytest.raises(ValueError):
        SampleSet(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        SampleSet(np.array([1.0, 2.0]))
    s = SampleSet(np.array([[1.0, 2.0], [3.0, 4.0], [1.0, 2.0]]))
    assert s.size == 3 and s.n == 2


def test_fit_options_are_the_seed_alone():
    # the penalty schedule and the tolerances are fixed parts of the
    # method; the one option left is the seed of the extraction draws
    assert [f.name for f in fields(FitOptions)] == ["seed"]
    assert FitOptions().seed == 0
    assert (fitting.RHO0, fitting.RHO_GROWTH) == (1.0, 10.0)
    assert (fitting.MAX_ROUNDS, fitting.MAX_INNER_ITERATIONS) == (8, 200)
    assert (fitting.GRADIENT_TOL, fitting.STEP_TOL) == (1e-10, 1e-12)
    assert (fitting.DECREASE_TOL, fitting.FEASIBILITY_FACTOR) == (1e-12, 1e-8)
    with pytest.raises(ValueError, match="seed must be non-negative"):
        FitOptions(seed=-1)


def test_average_loss_vanishes_on_exact_samples():
    rng = np.random.default_rng(0)
    pts = random_points(rng, 4, 2)
    gm = solve_generating_matrix(PointSet(pts))
    exact = SampleSet(np.repeat(pts, 5, axis=0))
    model = PenaltyModel(exact, standard_monomials(2, 4))
    assert model.theta(gm.entries) == pytest.approx(0.0, abs=1e-18)


def test_fit_start_recovers_exact_system():
    # on exact samples the least-squares start is the interpolant, which
    # already commutes, so the fit returns it after no penalty round
    rng = np.random.default_rng(1)
    for _ in range(10):
        k = int(rng.integers(2, 7))
        n = int(rng.integers(1, 4))
        pts = random_points(rng, k, n)
        exact = SampleSet(np.repeat(pts, 3, axis=0))
        result = fit_generating_matrix(exact, standard_monomials(exact.n, k))
        ref = solve_generating_matrix(PointSet(pts))
        assert result.converged and result.rounds == 0 and result.history == ()
        assert result.theta_init == pytest.approx(0.0, abs=1e-18)
        np.testing.assert_allclose(
            result.g_star.entries, ref.entries, atol=1e-7 * (1 + ref.frobenius_norm())
        )


def test_fit_rejects_fewer_samples_than_k():
    # fewer samples than k give a singular moment matrix, whose smallest
    # eigenvalue the error reports
    for points, k in (([[1.0, 2.0], [0.5, -1.0]], 4), ([[1.0, 2.0], [0.5, -1.0], [0.0, 1.0]], 5)):
        with pytest.raises(DegenerateConfigurationError, match=r"rank \d < \d") as info:
            fit_generating_matrix(SampleSet(np.array(points)), standard_monomials(2, k))
        min_eig = re.search(r"min eigenvalue (\S+)\)", str(info.value)).group(1)
        assert float(min_eig) == pytest.approx(0.0, abs=1e-12)


def test_fit_keeps_a_basis_other_than_the_standard_one():
    # samples of the grid {0, 3}^2 fitted on {1, x, y, xy}: the fit keeps
    # the basis it is given, and its zeros are the grid
    rng = np.random.default_rng(0)
    grid = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0], [3.0, 3.0]])
    samples = SampleSet(np.repeat(grid, 50, axis=0) + rng.normal(0.0, 0.05, (200, 2)))
    ideal = MonomialBasis(2, ((0, 0), (1, 0), (0, 1), (1, 1)))
    result = fit_generating_matrix(samples, ideal)
    assert result.converged and result.g_star.basis is ideal
    assert list(result.g_star.border) == [(2, 0), (0, 2), (2, 1), (1, 2)]
    zeros = extract_zero_set(result.g_star)
    assert zeros.is_real
    assert match_as_multisets(zeros.points.real, grid) <= 0.05


def test_fit_takes_a_basis_not_k():
    samples = SampleSet(np.random.default_rng(5).uniform(-1.0, 1.0, (20, 2)))
    for call in (PenaltyModel, fit_generating_matrix):
        with pytest.raises(TypeError, match=r"standard_monomials\(n, k\)"):
            call(samples, 4)
        with pytest.raises(ValueError, match="at least one member"):
            call(samples, MonomialBasis(2, ()))
    # recovery still takes k, and a k that gives no basis fails at the fit
    with pytest.raises(ValueError, match="k >= 1") as info:
        recover_point_set(samples, 0)
    assert info.value.stage == "fit"


def test_penalty_residual_jacobian_matches_finite_differences():
    # n = 2 has one commutator pair; n = 3 and n = 4 have three and six
    rng = np.random.default_rng(2)
    rho = 3.0
    for n, k in ((2, 4), (3, 4), (3, 6), (4, 6)):
        pts = random_points(rng, k, n)
        samples = noisy_samples(rng, pts, 0.1, 10)
        model = PenaltyModel(samples, standard_monomials(samples.n, k))
        for _ in range(5):
            g = rng.standard_normal((model.k, model.m))

            def stacked(v):
                return reference_penalty_residuals(model, v.reshape(model.m, model.k).T, rho)

            jac = reference_penalty_jacobian(model, g, rho)
            ref = fd_jacobian(stacked, g.T.reshape(-1))
            np.testing.assert_allclose(jac, ref, rtol=1e-5, atol=1e-7)


def test_penalty_gram_matches_dense_jacobian():
    rng = np.random.default_rng(3)
    rho = 7.0
    for n, k in ((2, 5), (3, 5), (4, 7)):
        pts = random_points(rng, k, n)
        samples = noisy_samples(rng, pts, 0.05, 8)
        model = PenaltyModel(samples, standard_monomials(samples.n, k))
        g = rng.standard_normal((model.k, model.m))
        jac = reference_penalty_jacobian(model, g, rho)
        res = reference_penalty_residuals(model, g, rho)
        gram, grad, value = model.gram_and_gradient(model.evaluate(g), rho)
        np.testing.assert_allclose(gram, jac.T @ jac, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(grad, jac.T @ res, rtol=1e-10, atol=1e-12)
        assert value == pytest.approx(float(res @ res), rel=1e-12)


def _loop_commutator_jacobian(model, mats):
    # entry-by-entry reference: dM_i = e_p e_c^T for the basis column c that
    # x_i lifts border column q into
    k, m = model.k, model.m
    pairs = [(i, j) for i in range(model.n) for j in range(i + 1, model.n)]
    jac = np.zeros((len(pairs) * k * k, k * m))
    for block, (i, j) in enumerate(pairs):
        mi, mj = mats[i], mats[j]
        for q, alpha in enumerate(model.b1):
            lifts = []
            for var in (i, j):
                lowered = list(alpha)
                lowered[var] -= 1
                inside = lowered[var] >= 0 and tuple(lowered) in model.b0
                lifts.append(list(model.b0).index(tuple(lowered)) if inside else -1)
            ci, cj = lifts
            for p in range(k):
                d = np.zeros((k, k))
                if ci >= 0:
                    d[p, :] += mj[ci, :]
                    d[:, ci] -= mj[:, p]
                if cj >= 0:
                    d[:, cj] += mi[:, p]
                    d[p, :] -= mi[cj, :]
                jac[block * k * k : (block + 1) * k * k, q * k + p] = d.reshape(-1)
    return jac


def test_commutator_jacobian_matches_entrywise_loop():
    # the closed form adds the same terms in the same order as the loop
    rng = np.random.default_rng(11)
    for n, k in ((2, 4), (2, 9), (3, 4), (3, 10), (4, 12)):
        samples = SampleSet(rng.uniform(-2.0, 2.0, size=(k + 5, n)))
        model = PenaltyModel(samples, standard_monomials(samples.n, k))
        mats = model.shifts.matrices(rng.standard_normal((model.k, model.m)))
        np.testing.assert_array_equal(
            model.commutator_jacobian(mats), _loop_commutator_jacobian(model, mats)
        )


def test_penalty_model_mult_mats_share_the_extraction_table():
    # the fit builds its multiplication matrices from the one shift table
    # of its basis, the table extraction reads
    rng = np.random.default_rng(12)
    for n in (1, 2, 3, 4):
        for k in range(1, 36):
            samples = SampleSet(rng.uniform(-2.0, 2.0, size=(k + 3, n)))
            model = PenaltyModel(samples, standard_monomials(samples.n, k))
            g = rng.standard_normal((model.k, model.m))
            gm = GeneratingMatrix(model.b0, g)
            assert model.shifts is gs._shifts(gm.basis)
            np.testing.assert_array_equal(model.shifts.matrices(g), multiplication_matrices(gm))


def test_single_variable_fit_has_no_commutators():
    rng = np.random.default_rng(13)
    samples = noisy_samples(rng, random_points(rng, 4, 1), 0.05, 20)
    model = PenaltyModel(samples, standard_monomials(samples.n, 4))
    g = rng.standard_normal((model.k, model.m))
    mats = model.shifts.matrices(g)
    assert commutators(mats).size == 0
    assert model.commutator_jacobian(mats).shape == (0, model.k * model.m)
    gram, _, _ = model.gram_and_gradient(model.evaluate(g), 5.0)
    np.testing.assert_array_equal(gram, np.kron(np.eye(model.m), model.ata))
    result = fit_generating_matrix(samples, standard_monomials(samples.n, 4))
    assert result.converged
    assert result.rounds == 0 and result.iterations == 0


def test_fit_looks_up_monomials_only_while_setting_up(monkeypatch):
    # the first fit of a shape builds its one shift table; every fit after
    # it, however many iterations it runs, and the extraction of its
    # result, read that table
    forget_shapes()
    tables = counting_calls(monkeypatch, gs, "shift_table")
    rng = np.random.default_rng(14)
    samples = noisy_samples(rng, random_points(rng, 4, 2, min_gap=0.8), 0.1, 30)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fitting, "MAX_ROUNDS", 1)
        mp.setattr(fitting, "MAX_INNER_ITERATIONS", 1)
        short = fit_generating_matrix(samples, standard_monomials(samples.n, 4))
    assert short.iterations == 1 and len(tables) == 1
    result = fit_generating_matrix(samples, standard_monomials(samples.n, 4))
    assert result.converged and result.iterations > 5
    extract_zero_set(result.g_star)
    assert len(tables) == 1


def test_fits_of_one_shape_build_the_jacobian_plans_once(monkeypatch):
    # the commutator-Jacobian plans hang off the basis, so
    # every fit of one (n, k) shares them until the shapes are forgotten
    forget_shapes()
    builds = counting_calls(monkeypatch, fitting, "_commutator_jacobian_steps")
    rng = np.random.default_rng(17)
    samples = noisy_samples(rng, random_points(rng, 4, 2, min_gap=0.8), 0.1, 30)
    first = fit_generating_matrix(samples, standard_monomials(samples.n, 4))
    second = fit_generating_matrix(samples, standard_monomials(samples.n, 4))
    assert len(builds) == 1 and first.iterations > 0
    np.testing.assert_array_equal(first.g_star.entries, second.g_star.entries)
    forget_shapes()
    third = fit_generating_matrix(samples, standard_monomials(samples.n, 4))
    assert len(builds) == 2
    np.testing.assert_array_equal(third.g_star.entries, first.g_star.entries)


def test_fit_builds_no_gram_matrix_a_round_does_not_use():
    # a round that stops on its decrease test after an accepted step needs
    # no normal equations at its last g: the Gram builds are one per round
    # plus one per accepted step that did not end its round
    rng = np.random.default_rng(15)
    samples = noisy_samples(rng, random_points(rng, 5, 2, min_gap=0.8), 0.05, 40)
    builds, accepted = [], []
    state = {}
    gram = PenaltyModel.gram_and_gradient
    penalized = PenaltyModel.penalized_value

    def counting_gram(self, ev, rho):
        out = gram(self, ev, rho)
        builds.append(ev.g.copy())
        state["phi"] = out[2]
        return out

    def counting_penalized(self, trial, rho):
        value = penalized(self, trial, rho)
        # the damped step's predicted decrease is always positive, so a
        # trial is accepted exactly when it lowers phi
        if value < state["phi"]:
            accepted.append(trial.g.copy())
            state["phi"] = value
        return value

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PenaltyModel, "gram_and_gradient", counting_gram)
        mp.setattr(PenaltyModel, "penalized_value", counting_penalized)
        result = fit_generating_matrix(samples, standard_monomials(samples.n, 5))
    reference = fit_generating_matrix(samples, standard_monomials(samples.n, 5))
    assert result.history == reference.history
    ended = sum(r.stop == "decrease" for r in result.history)
    assert result.converged and result.rounds > 1 and ended > 0
    assert len(builds) == result.rounds + len(accepted) - ended
    # no two builds in a row are at one g: a round's last accepted g is
    # built only once, by the round after it
    assert not any(np.array_equal(a, b) for a, b in zip(builds, builds[1:]))


def test_theta_is_the_average_loss():
    rng = np.random.default_rng(4)
    pts = random_points(rng, 4, 2)
    samples = noisy_samples(rng, pts, 0.1, 12)
    model = PenaltyModel(samples, standard_monomials(samples.n, 4))
    g = rng.standard_normal((model.k, model.m))
    gm = GeneratingMatrix(model.b0, g)
    assert model.theta(g) == pytest.approx(reference_average_loss(gm, samples), rel=1e-12)


def test_noiseless_fit_reproduces_interpolation():
    rng = np.random.default_rng(5)
    for _ in range(5):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(2, 4))
        pts = random_points(rng, k, n)
        exact = SampleSet(np.repeat(pts, 4, axis=0))
        result = fit_generating_matrix(exact, standard_monomials(exact.n, k))
        assert result.converged
        ref = solve_generating_matrix(PointSet(pts))
        np.testing.assert_allclose(
            result.g_star.entries,
            ref.entries,
            atol=1e-6 * (1 + ref.frobenius_norm()),
        )


def test_noisy_fit_drives_commutators_to_feasibility():
    rng = np.random.default_rng(6)
    pts = random_points(rng, 5, 2, min_gap=0.8)
    samples = noisy_samples(rng, pts, 0.05, 40)
    result = fit_generating_matrix(samples, standard_monomials(samples.n, 5))
    assert result.converged
    scale = 1.0 + result.g_star.frobenius_norm()
    assert result.commutator_norm <= 1e-8 * scale
    assert commutator_residual(multiplication_matrices(result.g_star)) == pytest.approx(
        result.commutator_norm, rel=1e-9
    )
    # the fitted zeros sit near the true points
    zs = extract_zero_set(result.g_star)
    assert match_as_multisets(zs.points.real, pts) < 0.1


def test_fit_lowers_little_over_init_theta():
    # the feasible fit cannot beat the unconstrained minimum of theta
    rng = np.random.default_rng(7)
    pts = random_points(rng, 4, 2)
    samples = noisy_samples(rng, pts, 0.1, 30)
    result = fit_generating_matrix(samples, standard_monomials(samples.n, 4))
    assert result.objective >= result.theta_init - 1e-12
    assert result.h_min_eig > 0


def test_fit_is_deterministic():
    rng = np.random.default_rng(8)
    pts = random_points(rng, 4, 2)
    samples = noisy_samples(rng, pts, 0.1, 25)
    a = fit_generating_matrix(samples, standard_monomials(samples.n, 4))
    b = fit_generating_matrix(samples, standard_monomials(samples.n, 4))
    np.testing.assert_array_equal(a.g_star.entries, b.g_star.entries)
    assert a.objective == b.objective
    assert a.iterations == b.iterations


def test_best_effort_flag_when_budget_too_small(monkeypatch):
    rng = np.random.default_rng(9)
    pts = random_points(rng, 5, 2)
    samples = noisy_samples(rng, pts, 0.3, 30)
    monkeypatch.setattr(fitting, "MAX_ROUNDS", 1)
    monkeypatch.setattr(fitting, "MAX_INNER_ITERATIONS", 2)
    result = fit_generating_matrix(samples, standard_monomials(samples.n, 5))
    assert not result.converged
    assert result.commutator_norm > 0


def test_fit_result_json():
    rng = np.random.default_rng(10)
    pts = random_points(rng, 3, 2)
    samples = noisy_samples(rng, pts, 0.05, 20)
    result = fit_generating_matrix(samples, standard_monomials(samples.n, 3))
    payload = result.to_json()
    assert payload["converged"] is True
    assert payload["g_star"]["k"] == 3
    assert isinstance(payload["objective"], float)
    keys = {"rho", "decrease_tol", "mu_start", "mu_final", "iterations", "commutator_norm", "stop"}
    history = json.loads(json.dumps(payload))["history"]
    assert len(history) == payload["rounds"] == len(result.history) >= 1
    for entry, r in zip(history, result.history):
        assert set(entry) == keys
        assert entry["iterations"] == r.iterations and entry["stop"] == r.stop
        assert entry["commutator_norm"] == r.commutator_norm


def test_acceptance_first_trials_fit_within_iteration_budget():
    # the first trial of each GMM acceptance cell; warm-started, inexact
    # rounds take 95 LM iterations here, rounds that restart the damping
    # and solve each subproblem to decrease_tol take 317
    total = 0
    for n, k, seed in ((2, 3, 100), (2, 4, 200), (3, 3, 300), (3, 4, 400)):
        samples, _ = gmm_sample(random_gmm_spec(n, k, seed), 300, seed + 50)
        result = fit_generating_matrix(samples, standard_monomials(samples.n, k))
        assert result.converged
        total += result.iterations
    assert total <= 150


def test_history_records_warm_started_inexact_rounds(monkeypatch):
    rng = np.random.default_rng(15)
    samples = noisy_samples(rng, random_points(rng, 5, 2, min_gap=0.8), 0.05, 40)
    result = fit_generating_matrix(samples, standard_monomials(samples.n, 5))
    history = result.history
    assert result.converged and len(history) == result.rounds >= 3
    assert sum(r.iterations for r in history) == result.iterations
    assert history[-1].commutator_norm == result.commutator_norm
    for i, r in enumerate(history):
        assert r.rho == fitting.RHO0 * fitting.RHO_GROWTH**i
        assert fitting.DECREASE_TOL <= r.decrease_tol <= fitting.DECREASE_TOL**0.5
        assert r.stop in ("gradient", "step", "decrease", "mu overflow", "budget")
    model = PenaltyModel(samples, standard_monomials(samples.n, 5))
    carried = 0
    for i in range(1, len(history)):
        # the fit cut after i rounds ends where round i + 1 starts
        monkeypatch.setattr(fitting, "MAX_ROUNDS", i)
        g = fit_generating_matrix(samples, standard_monomials(samples.n, 5)).g_star.entries
        gram = model.gram_and_gradient(model.evaluate(g), history[i].rho)[0]
        fresh = 1e-3 * float(np.max(np.diag(gram)))
        assert history[i].mu_start <= fresh
        assert history[i].mu_start == min(fresh, history[i - 1].mu_final * fitting.RHO_GROWTH)
        carried += history[i].mu_start < fresh
    assert carried > 0
    # the first round, far from the target, stops at the loosest tolerance,
    # and the tolerance tightens as the commutator nears the target
    assert history[0].decrease_tol == fitting.DECREASE_TOL**0.5
    assert history[0].stop == "decrease" and history[-1].decrease_tol < history[0].decrease_tol


def test_accepted_steps_reuse_their_trial_evaluation(monkeypatch):
    counts = {"matrices": 0, "penalized_value": 0, "gram_and_gradient": 0}
    owners = {"matrices": gs.ShiftTable, "penalized_value": PenaltyModel,
              "gram_and_gradient": PenaltyModel}
    for name, owner in owners.items():
        original = getattr(owner, name)

        def counting(self, *args, _name=name, _original=original):
            counts[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(owner, name, counting)
    rng = np.random.default_rng(16)
    samples = noisy_samples(rng, random_points(rng, 5, 2, min_gap=0.8), 0.05, 40)
    result = fit_generating_matrix(samples, standard_monomials(samples.n, 5))
    trials = counts["penalized_value"]
    # one Gram build starts each round and one follows each accepted step,
    # except a step that ends its round on the decrease test
    ended = sum(r.stop == "decrease" for r in result.history)
    accepted = counts["gram_and_gradient"] - result.rounds + ended
    assert result.converged and accepted > result.rounds + 1
    # once per trial step, plus the start: test_a_fit_evaluates_each_g_once
    # counts them exactly
    assert counts["matrices"] <= trials + result.rounds + 1


def test_a_fit_evaluates_each_g_once(monkeypatch):
    # the start and every trial are evaluated once, and their records are
    # passed along: theta_init, the round ends and the objective compute
    # nothing again, whether the last trial of a round was accepted or not
    thetas = counting_calls(monkeypatch, PenaltyModel, "theta")
    mats = counting_calls(monkeypatch, gs.ShiftTable, "matrices")
    trials = counting_calls(monkeypatch, PenaltyModel, "penalized_value")
    rng = np.random.default_rng(16)
    samples = noisy_samples(rng, random_points(rng, 5, 2, min_gap=0.8), 0.05, 40)
    result = fit_generating_matrix(samples, standard_monomials(samples.n, 5))
    assert result.converged and len(trials) > result.rounds
    assert len(thetas) == len(mats) == len(trials) + 1


def stop_samples():
    rng = np.random.default_rng(15)
    return noisy_samples(rng, random_points(rng, 5, 2, min_gap=0.8), 0.05, 40)


def test_a_flat_gradient_stops_every_round_before_a_step(monkeypatch):
    samples = stop_samples()
    monkeypatch.setattr(fitting, "MAX_ROUNDS", 0)
    start = fit_generating_matrix(samples, standard_monomials(2, 5)).g_star.entries
    monkeypatch.setattr(fitting, "MAX_ROUNDS", 3)
    monkeypatch.setattr(fitting, "GRADIENT_TOL", np.inf)
    result = fit_generating_matrix(samples, standard_monomials(2, 5))
    assert [r.stop for r in result.history] == ["gradient"] * 3
    assert [r.iterations for r in result.history] == [0, 0, 0] and result.iterations == 0
    assert all(r.mu_final == r.mu_start for r in result.history)
    # no round moved g, so the fit ends where it started, out of rounds
    np.testing.assert_array_equal(result.g_star.entries, start)
    assert not result.converged


def test_a_failed_solve_doubles_the_damping_and_counts_as_an_iteration(monkeypatch):
    samples = stop_samples()
    plain = fit_generating_matrix(samples, standard_monomials(2, 5))
    solve = np.linalg.solve
    systems = []

    def fail_first(a, b):
        systems.append((a.copy(), b.copy()))
        if len(systems) == 1:
            raise np.linalg.LinAlgError("singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", fail_first)
    result = fit_generating_matrix(samples, standard_monomials(2, 5))
    # one solve per iteration, the failed one included
    assert len(systems) == result.iterations
    assert result.history[0].iterations >= 2
    assert result.history[0].mu_start == plain.history[0].mu_start
    # the retry solves the same system at twice the damping
    (first, rhs), (second, rhs_again) = systems[:2]
    np.testing.assert_array_equal(rhs, rhs_again)
    np.testing.assert_allclose(np.diag(second) - np.diag(first), result.history[0].mu_start)
    off = ~np.eye(len(first), dtype=bool)
    np.testing.assert_array_equal(first[off], second[off])
    assert result.converged
    assert all(r.stop in ("step", "decrease") for r in result.history)


def test_rejected_steps_stop_a_round_once_the_damping_overflows(monkeypatch):
    samples = stop_samples()
    monkeypatch.setattr(fitting, "MAX_ROUNDS", 2)
    # heavier damping shortens the step, so no step is too short to take
    monkeypatch.setattr(fitting, "STEP_TOL", 0.0)
    monkeypatch.setattr(PenaltyModel, "penalized_value", lambda self, trial, rho: np.inf)
    result = fit_generating_matrix(samples, standard_monomials(2, 5))
    assert [r.stop for r in result.history] == ["mu overflow"] * 2
    for r in result.history:
        # every step is rejected: the damping doubles, then doubles twice, ...
        # and the round stops at the first damping above 1e32
        m = r.iterations
        assert m >= 1 and r.mu_final == r.mu_start * 2.0 ** (m * (m + 1) // 2)
        assert r.mu_final > 1e32 >= r.mu_final / 2.0**m
    assert result.iterations == sum(r.iterations for r in result.history)
    assert not result.converged
