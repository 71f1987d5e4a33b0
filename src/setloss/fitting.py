"""Fitting a generating system to noisy samples of a finite set.

The sample objective is the averaged squared generator residual

    theta(G) = (1/N) sum_j ||phi_G(v_j)||^2,

a convex quadratic in G because every generator is linear in G.  Its
unconstrained minimizer is a column-wise linear least-squares problem on
the sample moment matrix, and the fit starts there.  To force the fitted
system to actually have k common zeros, theta is minimized subject to all
multiplication-matrix commutators vanishing.  That constraint is handled by
a quadratic penalty with geometrically growing weight rho, each round
solved by a damped Gauss-Newton (Levenberg-Marquardt) loop on the stacked
residuals

    { phi_G(v_j) / sqrt(N) }  union  { sqrt(rho) * entries of [M_i, M_j] }.

Rounds are warm-started and inexact (Nocedal and Wright, Numerical
Optimization, Framework 17.1).  Each round after the first starts its
damping at the smaller of the fresh value 1e-3 max diag(J^T J) and the
previous round's final damping times the rho growth factor.  Each round
stops on a relative decrease of DECREASE_TOL * |c| / target, clipped to
[DECREASE_TOL, sqrt(DECREASE_TOL)], so early rounds, far from the
commutator target, stop early, and the last ones run to DECREASE_TOL.
The schedule and the tolerances are module constants, not options: rho
starts at RHO0 and grows by RHO_GROWTH for at most MAX_ROUNDS rounds of
at most MAX_INNER_ITERATIONS iterations each, GRADIENT_TOL and STEP_TOL
also end a round on a flat gradient or a negligible step, and the fit is
feasible once |c| <= FEASIBILITY_FACTOR * (1 + |G|_F).

The data block of the Jacobian is constant, so the normal equations are
assembled from its precomputed Gram blocks; only the small commutator
block is rebuilt per iteration.  Each g is evaluated once, by
``PenaltyModel.evaluate``, and its record (g, multiplication matrices,
commutators, theta) is passed along: an accepted trial's record serves
the next Gram build, and the fit reads theta_init, each round's
commutator norm and the objective off the records.  A round that ends on
its decrease test builds no normal equations at its last g: the next
round builds them there for its own rho.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateConfigurationError
from .generating_system import (
    GeneratingMatrix,
    _basis_structure,
    _index_pairs,
    _real_rows,
    _shifts,
    commutators,
)
from .monomial_basis import MonomialBasis, border_monomials, monomial_matrix
from .numeric_kernels import min_eigenvalue_sym, require_finite

__all__ = [
    "SampleSet",
    "FitOptions",
    "FitResult",
    "PenaltyRound",
    "PenaltyEvaluation",
    "PenaltyModel",
    "fit_generating_matrix",
]

# penalty schedule of the fit
RHO0 = 1.0
RHO_GROWTH = 10.0
MAX_ROUNDS = 8
MAX_INNER_ITERATIONS = 200

# stopping and feasibility tolerances of the penalty method
GRADIENT_TOL = 1e-10
STEP_TOL = 1e-12
DECREASE_TOL = 1e-12
FEASIBILITY_FACTOR = 1e-8


@dataclass(frozen=True)
class SampleSet:
    """A cloud of N real sample vectors in R^n; duplicates are allowed, non-finite entries not."""

    samples: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "samples", _real_rows(self.samples, "samples"))

    @property
    def size(self) -> int:
        return self.samples.shape[0]

    @property
    def n(self) -> int:
        return self.samples.shape[1]


@dataclass(frozen=True)
class FitOptions:
    """The seed of the extraction draws of ``recover_point_set``.

    The fit itself takes no options: its penalty schedule (``RHO0``,
    ``RHO_GROWTH``, ``MAX_ROUNDS``, ``MAX_INNER_ITERATIONS``) and its
    tolerances are module constants.
    """

    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class PenaltyRound:
    """One penalty round of ``fit_generating_matrix``.

    ``stop`` says why its Levenberg-Marquardt loop ended: "gradient",
    "step", "decrease", "mu overflow" or "budget" (``MAX_INNER_ITERATIONS``
    spent).  ``commutator_norm`` is the norm after the round.
    """

    rho: float
    decrease_tol: float
    mu_start: float
    mu_final: float
    iterations: int
    commutator_norm: float
    stop: str


@dataclass(frozen=True)
class FitResult:
    """Outcome of a constrained fit; ``history`` holds one entry per round."""

    g_star: GeneratingMatrix
    objective: float
    commutator_norm: float
    h_min_eig: float
    iterations: int
    rounds: int
    converged: bool
    theta_init: float
    warnings: tuple[str, ...] = ()
    history: tuple[PenaltyRound, ...] = ()

    def to_json(self) -> dict:
        return {
            "g_star": self.g_star.to_json(),
            "objective": self.objective,
            "commutator_norm": self.commutator_norm,
            "h_min_eig": self.h_min_eig,
            "iterations": self.iterations,
            "rounds": self.rounds,
            "converged": self.converged,
            "theta_init": self.theta_init,
            "warnings": list(self.warnings),
            "history": [asdict(r) for r in self.history],
        }


def _commutator_jacobian_steps(basis: MonomialBasis):
    """Flat (jacobian, mats) index pairs of commutator_jacobian's steps.

    The shift table read backwards gives C_i, the (m, k) one-hot map with
    dM_i = dG C_i: border column q lifts to basis column c_i(q) when x_i
    times basis monomial c_i(q) is border monomial q.  The steps depend
    only on the basis, so every fit on one basis shares them.
    """
    n, k, m = basis.n, len(basis), len(border_monomials(basis))
    shifts = _shifts(basis)
    lifted = np.full((n, m), -1)
    lifted[shifts.var, shifts.border] = shifts.col
    ks = np.arange(k)

    def step(own, other, rows):
        # pairs whose x_own lifts border column q; with rows, the entries
        # (p, b, q, p) read M_other[c, b], else the entries (a, c, q, p)
        # read M_other[a, p]
        pair, q = np.nonzero(lifted[own] >= 0)
        c = lifted[own][pair, q]
        pair, q, c, var = (v[:, None, None] for v in (pair, q, c, other[pair]))
        r, t = ks[None, :, None], ks[None, None, :]
        if rows:
            at = (((pair * k + r) * k + t) * m + q) * k + r
            src = (var * k + c) * k + t
        else:
            at = (((pair * k + r) * k + c) * m + q) * k + t
            src = (var * k + r) * k + t
        out = tuple(v.reshape(-1) for v in np.broadcast_arrays(at, src))
        for arr in out:
            arr.flags.writeable = False
        return out

    first, second = _index_pairs(n)
    return (
        step(first, second, rows=True),
        step(first, second, rows=False),
        step(second, first, rows=False),
        step(second, first, rows=True),
    )


class PenaltyEvaluation(NamedTuple):
    """One g with its multiplication matrices, flat commutators and theta; none depends on rho."""

    g: np.ndarray
    mats: np.ndarray
    cvec: np.ndarray
    theta: float


class PenaltyModel:
    """Normal equations of the penalized fitting problem.

    Parameters are the generating-matrix entries, flattened column by
    column (one border monomial at a time).  Residuals are the per-sample
    generator values scaled by 1/sqrt(N), followed by every commutator
    entry scaled by sqrt(rho).  ``evaluate`` computes the pieces at one g;
    the solver reads J^T J and J^T r off that record with
    ``gram_and_gradient``, which never forms the data block of J.

    ``basis`` is the quotient basis of the fitted system, a
    ``MonomialBasis`` in the samples' n variables such as
    ``standard_monomials(n, k)``; k and the border are read off it.
    """

    def __init__(self, samples: SampleSet, basis: MonomialBasis):
        if not isinstance(basis, MonomialBasis):
            raise TypeError(
                "basis must be a MonomialBasis, such as standard_monomials(n, k), "
                f"got {type(basis).__name__}"
            )
        if len(basis) == 0:
            raise ValueError("basis must have at least one member")
        self.b0 = basis
        self.b1 = border_monomials(basis)
        # overflowing monomials are refused below, not warned about first
        with np.errstate(over="ignore", invalid="ignore"):
            self.a = monomial_matrix(samples.samples, self.b0)
            self.b = monomial_matrix(samples.samples, self.b1)
        for x in (self.a, self.b):
            require_finite(x, "monomials of the samples overflow: coordinates too large to fit")
        self.size = samples.size
        self.k = len(basis)
        self.m = len(self.b1)
        self.n = samples.n
        self.shifts = _shifts(basis)
        self._jacobian_steps = _basis_structure("jacobian steps", _commutator_jacobian_steps, basis)
        self.ata = (self.a.T @ self.a) / samples.size
        self.atb = (self.a.T @ self.b) / samples.size
        # Gram block of the data residuals, constant in g
        self.data_gram = np.kron(np.eye(self.m), self.ata)

    # -- assembly ---------------------------------------------------------

    def commutator_jacobian(self, mats: np.ndarray) -> np.ndarray:
        """d vec([M_i, M_j]) / d g, stacked over pairs; unscaled by rho.

        With C_i the one-hot map with dM_i = dG C_i, the entry at row
        (a, b) of pair (i, j) and at the column of g[p, q] is

            delta_ap (C_i M_j)[q, b] - M_j[a, p] C_i[q, b]
                + M_i[a, p] C_j[q, b] - delta_ap (C_j M_i)[q, b],

        summed in this order, the order of the entry-wise reference in the
        tests, which this matches bit for bit.  C_i is one-hot, so each
        term gathers entries of M_i or M_j; the four steps gather and
        scatter them through index plans made once per basis.
        """
        flat = mats.reshape(-1)
        # one (k, k) block of rows per pair i < j, one column per entry of g
        jac = np.zeros(self.n * (self.n - 1) // 2 * self.k * self.k * self.m * self.k)
        (at1, src1), (at2, src2), (at3, src3), (at4, src4) = self._jacobian_steps
        jac[at1] = flat[src1]
        jac[at2] -= flat[src2]
        jac[at3] += flat[src3]
        jac[at4] -= flat[src4]
        return jac.reshape(-1, self.m * self.k)

    def theta(self, g: np.ndarray) -> float:
        r = self.b - self.a @ g
        return float((r * r).sum()) / self.size

    def evaluate(self, g: np.ndarray) -> PenaltyEvaluation:
        mats = self.shifts.matrices(g)
        return PenaltyEvaluation(g, mats, commutators(mats).reshape(-1), self.theta(g))

    # -- normal-equation pieces used by the solver, read off a record ------

    def gram_and_gradient(self, ev: PenaltyEvaluation, rho: float):
        """(J^T J, J^T r, phi) at ``ev.g`` without materializing the data block."""
        jc = self.commutator_jacobian(ev.mats)
        jtj = self.data_gram + rho * (jc.T @ jc)
        jtr = (self.ata @ ev.g - self.atb).T.reshape(-1) + rho * (jc.T @ ev.cvec)
        phi = ev.theta + rho * float(ev.cvec @ ev.cvec)
        return jtj, jtr, phi

    def penalized_value(self, ev: PenaltyEvaluation, rho: float) -> float:
        return ev.theta + rho * float(ev.cvec @ ev.cvec)

    def commutator_norm(self, ev: PenaltyEvaluation) -> float:
        return float(np.linalg.norm(ev.cvec))


def _norm(v: np.ndarray) -> float:
    # np.linalg.norm(v) for a real v, without its argument handling
    v = v.ravel(order="K")
    return math.sqrt(v.dot(v))


def _lm_round(
    model: PenaltyModel, current: PenaltyEvaluation, rho: float, tol: float, mu_cap: float
):
    """One Levenberg-Marquardt descent on the rho-penalized residuals from ``current``.

    The damping starts at min(1e-3 max diag(J^T J), mu_cap), and the loop
    stops once an accepted step lowers phi by at most tol * (|phi| + tol).
    Each trial g is evaluated once; an accepted trial's record becomes
    ``current``.  Returns the last accepted record, the iterations, the
    starting and final damping and the stop reason.
    """
    k, m = model.k, model.m
    jtj, jtr, phi = model.gram_and_gradient(current, rho)
    mu = min(1e-3 * float(np.max(np.diag(jtj))), mu_cap)
    mu_start = mu
    nu = 2.0
    iterations = 0
    stop = "budget"
    # these change only with g, not on a rejected step
    flat_gradient = float(np.abs(jtr).max()) <= GRADIENT_TOL
    step_floor = STEP_TOL * (_norm(current.g) + STEP_TOL)
    for _ in range(MAX_INNER_ITERATIONS):
        if flat_gradient:
            stop = "gradient"
            break
        iterations += 1
        damped = jtj.copy()
        damped.reshape(-1)[:: k * m + 1] += mu
        try:
            delta = np.linalg.solve(damped, -jtr)
        except np.linalg.LinAlgError:
            mu *= nu
            nu *= 2.0
            continue
        if _norm(delta) <= step_floor:
            stop = "step"
            break
        trial = model.evaluate(current.g + delta.reshape(m, k).T)
        phi_new = model.penalized_value(trial, rho)
        predicted = -(2.0 * float(jtr @ delta) + float(delta @ (jtj @ delta)))
        actual = phi - phi_new
        if predicted <= 0.0 or actual <= 0.0:
            mu *= nu
            nu *= 2.0
            if mu > 1e32:
                stop = "mu overflow"
                break
            continue
        gain = actual / predicted
        current = trial
        phi = phi_new
        mu *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
        nu = 2.0
        if actual <= tol * (abs(phi) + tol):
            stop = "decrease"
            break
        # the round goes on, so it needs the normal equations at the new g
        jtj, jtr, _ = model.gram_and_gradient(current, rho)
        flat_gradient = float(np.abs(jtr).max()) <= GRADIENT_TOL
        step_floor = STEP_TOL * (_norm(current.g) + STEP_TOL)
    return current, iterations, mu_start, mu, stop


def fit_generating_matrix(samples: SampleSet, basis: MonomialBasis) -> FitResult:
    """Fit a generating system on ``basis`` to noisy samples.

    The basis, such as ``standard_monomials(n, k)``, fixes the system: its
    k members, its border and so the k zeros sought; ``g_star.basis`` is
    the object passed, and anything but a ``MonomialBasis`` raises
    TypeError.  Starts from the unconstrained least-squares minimizer of
    theta, one solve per border column, and drives the commutator norm below the
    feasibility target by penalized Gauss-Newton rounds.  When
    ``MAX_ROUNDS`` rounds end first, the best iterate is returned with
    ``converged=False`` rather than raising.  Raises
    DegenerateConfigurationError when the sample monomials overflow or
    are rank deficient (in particular whenever N < k).
    """
    model = PenaltyModel(samples, basis)
    k = model.k
    # H = (2/N) sum_j [v_j]_B0 [v_j]_B0^T: a strictly positive smallest
    # eigenvalue certifies that the least-squares start is strongly convex
    h_min_eig = min_eigenvalue_sym(2.0 * model.ata)
    # a cutoff of eps relative, not numpy's default eps * max(N, k): the
    # rank test refuses only moment matrices singular to working precision
    g, _, rank, _ = np.linalg.lstsq(model.a, model.b, rcond=np.finfo(float).eps)
    if rank < k:
        raise DegenerateConfigurationError(
            f"sample moment matrix is rank deficient (rank {rank} < {k}, "
            f"min eigenvalue {h_min_eig:.3e})",
            condition=float("inf"),
        )
    warnings: list[str] = []
    if h_min_eig <= 1e-12:
        warnings.append(
            f"moment matrix is barely positive (min eigenvalue {h_min_eig:.3e})"
        )
    current = model.evaluate(g)
    theta_init = current.theta

    def target_of(g):
        return FEASIBILITY_FACTOR * (1.0 + float(np.linalg.norm(g)))

    rho = RHO0
    com, target = model.commutator_norm(current), target_of(g)
    # the commutator block of J^T J grows with rho, and so may the damping
    mu_cap = float("inf")
    history: list[PenaltyRound] = []
    while len(history) < MAX_ROUNDS and com > target:
        tol = min(max(DECREASE_TOL * com / target, DECREASE_TOL), DECREASE_TOL**0.5)
        current, iterations, mu_start, mu, stop = _lm_round(model, current, rho, tol, mu_cap)
        com, target = model.commutator_norm(current), target_of(current.g)
        history.append(PenaltyRound(rho, tol, mu_start, mu, iterations, com, stop))
        mu_cap = mu * RHO_GROWTH
        rho *= RHO_GROWTH
    return FitResult(
        g_star=GeneratingMatrix(model.b0, np.ascontiguousarray(current.g)),
        objective=current.theta,
        commutator_norm=com,
        h_min_eig=h_min_eig,
        iterations=sum(r.iterations for r in history),
        rounds=len(history),
        converged=com <= target,
        theta_init=theta_init,
        warnings=tuple(warnings),
        history=tuple(history),
    )
