"""Set recovery and clustering built on the fitting and extraction stages.

``recover_point_set`` chains the noisy fit, the Schur extraction, and the
construction of a loss whose minimizers are the recovered points.  Samples
are then clustered by descending that loss from each sample and reading
off which simplex vertex the descent reached.  Utilities for generating
benchmark data (bounded perturbations of a set, Gaussian mixtures) live
here too, all driven by explicit seeds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .extraction import ZeroSet, extract_zero_set, real_projection
from .fitting import FitOptions, FitResult, SampleSet, fit_generating_matrix
from .generating_system import PointSet, solve_generating_matrix
from .loss_functions import GeneratingLoss, TransformedLoss, build_transformed_loss
from .monomial_basis import real_batch, standard_monomials
from .numeric_kernels import integer_array, real_array, row_sum

__all__ = [
    "MinimizeResult",
    "ClusterAssignment",
    "Concern",
    "RecoveryResult",
    "GmmSpec",
    "minimize_from",
    "assign_labels",
    "nearest_point_assignment",
    "clustering_accuracy",
    "build_loss",
    "recover_point_set",
    "bounded_noise_sample",
    "gmm_sample",
    "random_gmm_spec",
]

# exhaustive permutation alignment is factorial; cap where it stays instant
MAX_ALIGNMENT_SIZE = 8
# assign_labels caps each descent step at this fraction of the smallest
# gap between recovered points, so that no single step crosses that gap
STEP_CAP_FRACTION = 0.1
# the descent's fixed schedule: its gradient tolerance and iteration cap
DESCENT_GRADIENT_TOL = 1e-8
MAX_DESCENT_ITERATIONS = 500


class MinimizeResult(NamedTuple):
    """Where each descent of a batch stopped, one array entry per start."""

    x: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    grad_norm: np.ndarray


def _norms(v: np.ndarray) -> np.ndarray:
    return np.sqrt(row_sum(v * v))


def minimize_from(fun, starts, max_step: float = np.inf, settle_below: float = -np.inf):
    """Quasi-Newton descent with backtracking from a batch of starts.

    The starts (N, d) run in one loop, and one start is a batch of one
    row.  ``fun`` is called with the (M, d) rows still descending and
    returns (M,) values and (M, d) gradients, as the ``value_and_grad``
    of the losses in ``loss_functions`` does; the result holds per-row
    arrays.  Each row keeps its own BFGS inverse Hessian and Armijo
    step and iterates until its gradient norm drops to
    DESCENT_GRADIENT_TOL, its line search stalls, or it has taken
    MAX_DESCENT_ITERATIONS steps; the last iterate is returned either
    way, with ``converged`` telling the cases apart.  A step too short to
    move the iterate is no decrease, so the line search stalls there.

    ``max_step`` caps the length of every step: a longer search direction
    is shortened to it before the line search.  A shorter full step that
    passes the Armijo test, but after which the loss still falls along
    the direction at least 0.9 times as steeply as before it, was too
    short (the Wolfe curvature condition fails).  The row then also tries
    the step of length ``max_step`` and takes it if that passes the test
    and lowers the loss further.  On stretches of negative curvature,
    where BFGS updates are skipped, this keeps a row from crawling at
    the length of its gradient.  The default, no cap, leaves every step
    as it is.

    A row whose loss value falls below ``settle_below`` finishes at its
    current iterate, flagged converged, however large its gradient: the
    caller has shown that its outcome can no longer change (see
    ``assign_labels``).  Such a row reports the iterations it took to get
    there and the gradient norm where it stopped.  The default, -inf,
    settles no row and leaves every result as it is, bit for bit.

    A row's outcome does not depend on the other rows of its batch, to
    the last bit when the loss rounds each row the same way whatever the
    batch (the losses in ``loss_functions`` do).  The arrays ``fun``
    returns are updated in place, so it must return new ones on every
    call, as those losses do.
    """
    x = np.asarray(starts)
    if x.ndim != 2:
        raise ValueError(f"expected starts of shape (N, d), got {x.shape}")
    x = real_batch(x, x.shape[1])

    def evaluate(pts):
        values, grads = fun(pts)
        return real_array(values), real_array(grads)

    count, dim = x.shape
    out_x = x.copy()
    iterations = np.empty(count, dtype=np.int64)
    converged = np.empty(count, dtype=bool)
    grad_norm = np.empty(count)
    eye = np.eye(dim)

    # The state arrays hold only the rows still descending, and rows maps
    # them back.  Rows are picked by index with take, several times
    # cheaper on these small arrays than a boolean or fancy index.  Every
    # row leaves the state at the top of an iteration, written out once.
    rows = np.arange(count)
    f, g = evaluate(x)
    # each row's inverse Hessian, (N, d, d), starts as the identity
    h = np.repeat(eye[None], count, axis=0)
    stalled = None
    for it in range(MAX_DESCENT_ITERATIONS + 1):
        gnorm = _norms(g)
        ok = (gnorm <= DESCENT_GRADIENT_TOL) | (f < settle_below)
        leave = ok if stalled is None else ok | stalled
        if it == MAX_DESCENT_ITERATIONS:
            leave = np.ones_like(ok)
        picked = leave.nonzero()[0]
        if picked.size:
            out = rows[picked]
            out_x[out] = x.take(picked, axis=0)
            iterations[out] = it
            converged[out] = ok[picked]
            grad_norm[out] = gnorm[picked]
            keep = (~leave).nonzero()[0]
            rows, f, h = rows[keep], f[keep], h.take(keep, axis=0)
            x, g = x.take(keep, axis=0), g.take(keep, axis=0)
        if rows.size == 0:
            break
        d = -(h @ g[:, :, None])[:, :, 0]
        slope = row_sum(d * g)
        restart = (slope >= 0.0).nonzero()[0]
        if restart.size:
            # curvature model went bad; restart from steepest descent
            gr = g.take(restart, axis=0)
            h[restart] = eye
            d[restart] = -gr
            slope[restart] = -row_sum(gr * gr)
        length = _norms(d)
        long = length > max_step
        if long.any():
            # a short row is scaled by exactly 1
            shrink = np.divide(max_step, length, out=np.ones(rows.size), where=long)
            d *= shrink[:, None]
            slope *= shrink
        # Armijo backtracking: every row tries t = 1, 1/2, 1/4, ... and
        # only the rows still short of a decrease are re-evaluated
        x_new = x + d
        f_new, g_new = evaluate(x_new)
        passed = f_new <= f + 1e-4 * slope
        if max_step < np.inf:
            # a passing step the curvature condition calls too short also
            # tries the full cap length
            steep = row_sum(g_new * d) < 0.9 * slope
            grow = (passed & steep & (length < max_step)).nonzero()[0]
            if grow.size:
                t_cap = max_step / length[grow]
                cand = x.take(grow, axis=0) + t_cap[:, None] * d.take(grow, axis=0)
                fc, gc = evaluate(cand)
                ok = (fc <= f[grow] + 1e-4 * t_cap * slope[grow]) & (fc < f_new[grow])
                ok = ok.nonzero()[0]
                took = grow[ok]
                x_new[took], f_new[took], g_new[took] = (
                    cand.take(ok, axis=0), fc[ok], gc.take(ok, axis=0)
                )
        pending = (~passed).nonzero()[0]
        t = 1.0
        for _ in range(59):
            if pending.size == 0:
                break
            t *= 0.5
            xp = x.take(pending, axis=0)
            cand = xp + t * d.take(pending, axis=0)
            fc, gc = evaluate(cand)
            # a step that rounds away to nothing is no decrease
            ok = (fc <= f[pending] + 1e-4 * t * slope[pending]) & (cand != xp).any(axis=1)
            picked = ok.nonzero()[0]
            took = pending[picked]
            x_new[took], f_new[took], g_new[took] = (
                cand.take(picked, axis=0), fc[picked], gc.take(picked, axis=0)
            )
            pending = pending[~ok]
        stalled = None
        if pending.size:
            # line search stalled: keep the iterate, leave at the next top
            x_new[pending] = x.take(pending, axis=0)
            f_new[pending], g_new[pending] = f[pending], g.take(pending, axis=0)
            stalled = np.zeros(rows.size, dtype=bool)
            stalled[pending] = True
        s = x_new - x
        y = g_new - g
        sy = row_sum(s * y)
        update = sy > 1e-12 * _norms(s) * _norms(y)
        # BFGS update where the curvature pair is usable:
        # h += (sy + y.hy) / sy^2 s s^T - (hy s^T + s hy^T) / sy
        # h stays exactly symmetric: s_a s_b is s_b s_a, and hy_a s_b + s_a hy_b
        # is hy_b s_a + s_b hy_a added in the other order
        sel = update.nonzero()[0]
        s, y, sy = s.take(sel, axis=0), y.take(sel, axis=0), sy[sel]
        hu = h.take(sel, axis=0)
        hy = (hu @ y[:, :, None])[:, :, 0]
        hu += ((sy + row_sum(y * hy)) / sy**2)[:, None, None] * (s[:, :, None] * s[:, None, :])
        cross = hy[:, :, None] * s[:, None, :] + s[:, :, None] * hy[:, None, :]
        cross /= sy[:, None, None]
        hu -= cross
        h[sel] = hu
        x, f, g = x_new, f_new, g_new
    return MinimizeResult(out_x, iterations, converged, grad_norm)


@dataclass(frozen=True)
class ClusterAssignment:
    """Per-sample labels plus the descent diagnostics behind them.

    ``minimizers`` is where each descent stopped and ``iterations`` the
    steps it took.  ``converged`` means the label is final: the descent
    reached a gradient below its tolerance, or ``assign_labels`` settled
    it early, once no later step could change its label.  A settled row's
    minimizer is its iterate at that point, near but not at a recovered
    point, and it counts fewer steps than a full descent would.
    """

    labels: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray
    minimizers: np.ndarray

    def __post_init__(self):
        for name in ("labels", "converged", "iterations", "minimizers"):
            # a copy: freezing it leaves the caller's array writable
            arr = np.array(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def size(self) -> int:
        return self.labels.shape[0]


def assign_labels(loss, recovered: PointSet, samples: SampleSet) -> ClusterAssignment:
    """Cluster every sample by descending the loss it sits on.

    All samples descend together in one ``minimize_from`` call on the
    loss's ``value_and_grad``.  With a ``TransformedLoss``
    the final iterates are mapped to simplex coordinates and labeled by
    their nearest vertex: vertex e_(i+1) carries label i, the origin
    carries label k-1 (the anchor point).  Any other loss labels by the
    nearest recovered point.  Ties resolve to the lowest label.  Descents
    that hit the iteration cap still get a label from their last iterate,
    flagged not converged.  No descent step is longer than
    STEP_CAP_FRACTION times the smallest gap between recovered points
    (uncapped for a single point): a long first step, taken before the
    curvature model has learnt anything, could land in another point's
    basin.  The same length is what a row on a flat stretch tries when
    its quasi-Newton step is too short (see ``minimize_from``).

    With a ``TransformedLoss`` and k > 1, a row stops as soon as its label
    is settled, with the label the full descent would give it: once its
    loss falls below ``TransformedLoss.settle_threshold`` of the step cap,
    which proves that no later step changes its nearest vertex.

    A settled row is flagged converged, its minimizer is the iterate
    where it stopped, and it counts fewer iterations than a full descent
    would.  ``GeneratingLoss`` descents always run in full.
    """
    if samples.n != recovered.n:
        raise ValueError(f"dimension mismatch: samples in R^{samples.n}, set in R^{recovered.n}")
    max_step = np.inf
    settle_below = -np.inf
    if recovered.k > 1:
        max_step = STEP_CAP_FRACTION * recovered.min_gap()
        if isinstance(loss, TransformedLoss):
            settle_below = loss.settle_threshold(max_step)
    res = minimize_from(
        loss.value_and_grad, samples.samples, max_step=max_step, settle_below=settle_below
    )
    if isinstance(loss, TransformedLoss):
        labels = _nearest(loss.simplex_coords(res.x), loss.simplex_vertices)
    else:
        labels = _nearest(res.x, recovered.points)
    return ClusterAssignment(
        labels=labels,
        converged=res.converged,
        iterations=res.iterations,
        minimizers=res.x,
    )


def _nearest(coords: np.ndarray, targets: np.ndarray) -> np.ndarray:
    # index of the nearest target to each row, ties to the lowest index
    dists = np.linalg.norm(coords[:, None, :] - targets[None, :, :], axis=2)
    return np.argmin(dists, axis=1)


def nearest_point_assignment(recovered: PointSet, samples: SampleSet) -> ClusterAssignment:
    """Label every sample by its nearest recovered point, without descent.

    The baseline that descent labels are judged against: a Voronoi
    partition by the recovered points, ties to the lowest label.  Each
    sample counts as converged in zero iterations, with its nearest
    recovered point as its minimizer, so the result scores through
    ``clustering_accuracy`` like ``assign_labels``.
    """
    if samples.n != recovered.n:
        raise ValueError(f"dimension mismatch: samples in R^{samples.n}, set in R^{recovered.n}")
    pts = recovered.points
    labels = _nearest(samples.samples, pts)
    return ClusterAssignment(
        labels=labels,
        converged=np.ones(samples.size, dtype=bool),
        iterations=np.zeros(samples.size, dtype=np.int64),
        minimizers=pts[labels],
    )


def clustering_accuracy(
    assignment: ClusterAssignment,
    truth,
    recovered: PointSet,
    true_means,
) -> float:
    """Fraction of samples labeled consistently with the ground truth.

    Recovered points are aligned to the true means by the permutation
    minimizing the summed squared distances (exhaustive search, so the
    set size is capped at 8; of equal sums, the first permutation in
    lexicographic order), and labels are compared through that alignment.
    """
    truth = integer_array(truth, "truth labels")
    means = real_array(true_means)
    k = recovered.k
    if k > MAX_ALIGNMENT_SIZE:
        raise NotImplementedError(
            f"exhaustive alignment is limited to {MAX_ALIGNMENT_SIZE} points, got {k}"
        )
    if means.shape != (k, recovered.n):
        raise ValueError(f"expected {k} true means in R^{recovered.n}, got {means.shape}")
    if truth.shape != (assignment.size,):
        raise ValueError("one truth label per sample required")
    if truth.min() < 0 or truth.max() >= k:
        raise ValueError("truth labels must index the true means")
    if not np.all(np.isfinite(means)):
        raise ValueError("true means must be finite")
    pts = recovered.points
    # cost[i, j] is the squared distance from recovered point i to mean j
    cost = ((pts[:, None] - means[None]) ** 2).sum(axis=2)
    perms = np.array(list(itertools.permutations(range(k))))
    picked = cost[np.arange(k), perms]
    # each permutation's total summed left to right, as a Python sum over
    # its points, so that equal totals tie to the bit; argmin keeps the first
    totals = sum(picked.T)
    mapped = perms[np.argmin(totals)][assignment.labels]
    return float(np.mean(mapped == truth))


class Concern(NamedTuple):
    """Why a result is best effort: kind, stage (None for an aggregate), message, figures."""

    kind: str
    stage: str | None
    message: str
    numbers: dict


@dataclass(frozen=True)
class RecoveryResult:
    """Everything the recovery pipeline produced, stage by stage.

    ``recovered`` and ``loss`` are None when the zeros are not real, which
    only ``want_real=False`` lets through.
    """

    fit: FitResult
    zero_set: ZeroSet
    recovered: PointSet | None
    loss: object

    @property
    def k(self) -> int:
        return self.zero_set.k

    @property
    def concerns(self) -> tuple[Concern, ...]:
        """Why the answer is best effort, derived from ``fit`` and ``zero_set`` on each read.

        "non-convergence" at stage "fit" when the commutator norm is above
        target after the fit's rounds; "numerical-failure" at stage "extract",
        with ``max_imag``, for zeros that are not real (``want_real=False`` only).
        ``FitResult.warnings`` and ``ZeroSet.approximate`` are not concerns yet.
        """
        fit, zeros = self.fit, self.zero_set
        found = []
        if not fit.converged:
            norm, rounds = fit.commutator_norm, fit.rounds
            message = f"commutator norm {norm:.3e} above target after {rounds} penalty rounds"
            found.append(Concern("non-convergence", "fit", message + "; best effort written", {}))
        if not zeros.is_real:
            imag = zeros.max_imaginary()
            message = f"extracted zeros are not real: imaginary parts up to {imag:.3e}"
            message += "; complex zeros written"
            found.append(Concern("numerical-failure", "extract", message, {"max_imag": imag}))
        return tuple(found)


def build_loss(points: PointSet, loss_kind: str = "transformed"):
    """``build_transformed_loss``, or for "generating" the interpolated system's squared norm."""
    if loss_kind == "generating":
        return GeneratingLoss(solve_generating_matrix(points))
    if loss_kind != "transformed":
        raise ValueError(f"unknown loss kind {loss_kind!r}")
    return build_transformed_loss(points)


def recover_point_set(
    samples: SampleSet,
    k: int,
    opts: FitOptions | None = None,
    want_real: bool = True,
    loss_kind: str = "transformed",
) -> RecoveryResult:
    """Fit, extract, and wrap a loss around the recovered k points.

    The fit runs on ``standard_monomials(samples.n, k)``, built inside the
    "fit" stage, so a k that gives no basis fails there.  ``opts.seed``
    seeds the extraction draws; the fit takes no options.  The recovered
    set is ``real_projection`` of the zeros, which ``zero_set`` keeps
    complex, so zeros that are not real raise its NumericalFailureError
    and coincident ones its DegenerateConfigurationError, at the "extract"
    stage; without ``want_real`` the result carries zeros that are not
    real alone, with no recovered set and no loss.  The loss is
    ``build_loss`` of kind ``loss_kind``.  Errors propagate from the failing
    stage, tagged with a ``stage`` attribute ("fit", "extract", or
    "loss").  A returned result is best effort exactly when its
    ``concerns`` are not empty (see ``RecoveryResult.concerns``); fit
    warnings and an approximate zero set are not concerns yet.
    """
    if loss_kind not in ("transformed", "generating"):
        raise ValueError(f"unknown loss kind {loss_kind!r}")
    opts = opts or FitOptions()
    stage = "fit"
    try:
        fit = fit_generating_matrix(samples, standard_monomials(samples.n, k))
        stage = "extract"
        zeros = extract_zero_set(fit.g_star, seed=opts.seed)
        if not (want_real or zeros.is_real):
            return RecoveryResult(fit=fit, zero_set=zeros, recovered=None, loss=None)
        recovered = real_projection(zeros.points)
        stage = "loss"
        loss = build_loss(recovered, loss_kind)
    except Exception as exc:
        # tagged with the stage it arose in, unless it names its own
        if not hasattr(exc, "stage"):
            exc.stage = stage
        raise
    return RecoveryResult(fit=fit, zero_set=zeros, recovered=recovered, loss=loss)


# -- sample generators ----------------------------------------------------


def bounded_noise_sample(
    points: PointSet,
    eps,
    counts,
    seed: int = 0,
    model: str = "truncated-normal",
):
    """Perturb each point inside its own box [-eps_i, eps_i]^n.

    ``eps`` is a single radius or one radius per point; ``counts`` gives
    the number of samples drawn around each point.  ``model`` is
    "truncated-normal" (normal draws with scale eps_i / 2, redrawn until
    inside the box; the default) or "uniform".  Returns the stacked
    ``SampleSet`` and the per-sample source index, grouped by point.
    """
    if model not in ("truncated-normal", "uniform"):
        raise ValueError(f"unknown noise model {model!r}")
    k, n = points.k, points.n
    radii = np.broadcast_to(real_array(eps), (k,)).copy()
    if np.any(radii <= 0):
        raise ValueError("noise radii must be positive")
    sizes = integer_array(counts, "sample counts")
    if sizes.shape == ():
        sizes = np.full(k, int(sizes))
    if sizes.shape != (k,) or np.any(sizes < 1):
        raise ValueError("need a positive sample count per point")
    rng = np.random.default_rng(seed)
    chunks = []
    truth = []
    for i in range(k):
        need = int(sizes[i])
        if model == "uniform":
            offsets = rng.uniform(-radii[i], radii[i], (need, n))
        else:
            # each round draws `need` rows and keeps those inside the box,
            # in draw order, until `need` are kept
            kept = []
            missing = need
            while missing > 0:
                cand = rng.normal(0.0, radii[i] / 2.0, (need, n))
                inside = cand[np.max(np.abs(cand), axis=1) <= radii[i]][:missing]
                kept.append(inside)
                missing -= len(inside)
            offsets = np.concatenate(kept)
        chunks.append(points.points[i] + offsets)
        truth.extend([i] * need)
    return SampleSet(np.vstack(chunks)), np.array(truth, dtype=np.int64)


@dataclass(frozen=True)
class GmmSpec:
    """A Gaussian mixture: weights, means, and full covariances."""

    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray

    def __post_init__(self):
        w, mu, cov = (real_array(v).copy() for v in (self.weights, self.means, self.covariances))
        if w.ndim != 1 or mu.ndim != 2 or w.shape[0] != mu.shape[0]:
            raise ValueError("need one weight per mean")
        k, n = mu.shape
        if cov.shape != (k, n, n):
            raise ValueError(f"expected covariances of shape ({k}, {n}, {n}), got {cov.shape}")
        if np.any(w <= 0) or abs(float(w.sum()) - 1.0) > 1e-12:
            raise ValueError("weights must be positive and sum to 1")
        for i in range(k):
            defect = float(np.max(np.abs(cov[i] - cov[i].T)))
            if defect > 1e-12 * max(1.0, float(np.max(np.abs(cov[i])))):
                raise ValueError(f"covariance {i} is not symmetric")
            if float(np.linalg.eigvalsh(cov[i])[0]) <= 0.0:
                raise ValueError(f"covariance {i} is not positive definite")
        for arr in (w, mu, cov):
            arr.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "covariances", cov)

    @property
    def k(self) -> int:
        return self.means.shape[0]

    @property
    def n(self) -> int:
        return self.means.shape[1]


def gmm_sample(spec: GmmSpec, size: int, seed: int = 0):
    """Draw ``size`` samples from the mixture; returns samples and labels."""
    if size < 1:
        raise ValueError(f"need a positive sample count, got {size}")
    rng = np.random.default_rng(seed)
    comps = rng.choice(spec.k, size=size, p=spec.weights)
    normals = rng.standard_normal((size, spec.n))
    chols = [np.linalg.cholesky(spec.covariances[i]) for i in range(spec.k)]
    out = np.empty((size, spec.n))
    for j in range(size):
        c = comps[j]
        out[j] = spec.means[c] + chols[c] @ normals[j]
    return SampleSet(out), comps.astype(np.int64)


def random_gmm_spec(
    n: int,
    k: int,
    seed: int = 0,
    separation: float = 6.0,
    diagonal: bool = False,
) -> GmmSpec:
    """A mixture with means separated relative to its covariance factors.

    Covariances are R^T R for random factors R with entries of order
    0.5; means are redrawn until every pair is at least ``separation``
    times the largest singular value of any factor apart.
    """
    rng = np.random.default_rng(seed)
    factors = []
    for _ in range(k):
        if diagonal:
            r = np.diag(rng.uniform(0.15, 0.5, n))
        else:
            r = rng.uniform(-0.5, 0.5, (n, n)) + np.eye(n) * 0.15
        factors.append(r)
    sigma_max = max(float(np.linalg.svd(r, compute_uv=False)[0]) for r in factors)
    gap = separation * sigma_max
    box = gap * max(2.0, 1.5 * k ** (1.0 / n))
    while True:
        means = rng.uniform(0.0, box, (k, n))
        ok = all(
            float(np.linalg.norm(means[i] - means[j])) >= gap
            for i in range(k)
            for j in range(i + 1, k)
        )
        if ok:
            break
    covs = np.array([r.T @ r for r in factors])
    return GmmSpec(weights=np.full(k, 1.0 / k), means=means, covariances=covs)
