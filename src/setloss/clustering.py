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
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .extraction import ZeroSet, extract_zero_set, real_projection
from .fitting import FitOptions, FitResult, SampleSet, fit_generating_matrix
from .generating_system import PointSet, solve_generating_matrix
from .loss_functions import GeneratingLoss, TransformedLoss, build_transformed_loss

__all__ = [
    "MinimizeResult",
    "ClusterAssignment",
    "RecoveryResult",
    "GmmSpec",
    "minimize_from",
    "assign_labels",
    "clustering_accuracy",
    "recover_point_set",
    "bounded_noise_sample",
    "gmm_sample",
    "random_gmm_spec",
]

# exhaustive permutation alignment is factorial; cap where it stays instant
MAX_ALIGNMENT_SIZE = 8


class MinimizeResult(NamedTuple):
    """Where a descent stopped; per-row arrays when started from a batch."""

    x: np.ndarray
    iterations: int | np.ndarray
    converged: bool | np.ndarray
    grad_norm: float | np.ndarray


def _norms(v: np.ndarray) -> np.ndarray:
    return np.sqrt((v * v).sum(axis=-1))


def minimize_from(loss, start, gradient_tol: float = 1e-8, max_iterations: int = 500):
    """Quasi-Newton descent with backtracking from one start or a batch.

    ``loss`` is either an object exposing ``value_and_grad`` or a callable
    returning ``(value, gradient)``.  A start of shape (d,) calls it with
    (d,) vectors and returns scalars.  Starts of shape (N, d) run every row
    in one loop: the loss is called with the (M, d) rows still descending
    and must return (M,) values and (M, d) gradients, and the result holds
    per-row arrays.  Each row keeps its own BFGS inverse Hessian and Armijo
    step and iterates until its gradient norm drops below
    ``gradient_tol``, its line search stalls, or the iteration budget runs
    out; the last iterate is returned either way, with ``converged``
    telling the cases apart.  A row's outcome does not depend on the other
    rows of its batch, to the last bit when the loss rounds each row the
    same way whatever the batch (the losses in ``loss_functions`` do).
    """
    fun = loss.value_and_grad if hasattr(loss, "value_and_grad") else loss
    x = np.array(start, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[None, :]

        def evaluate(pts):
            value, grad = fun(pts[0])
            return np.array([value], dtype=float), np.array(grad, dtype=float)[None, :]

    elif x.ndim == 2:

        def evaluate(pts):
            values, grads = fun(pts)
            return np.array(values, dtype=float), np.array(grads, dtype=float)

    else:
        raise ValueError(f"expected a start vector or a (N, d) batch, got shape {x.shape}")

    count, dim = x.shape
    out_x = x.copy()
    iterations = np.full(count, max_iterations, dtype=np.int64)
    converged = np.zeros(count, dtype=bool)
    grad_norm = np.empty(count)
    eye = np.eye(dim)

    def finish(mask, done_iterations, ok, norms):
        picked = rows[mask]
        out_x[picked] = x[mask]
        iterations[picked] = done_iterations
        converged[picked] = ok
        grad_norm[picked] = norms[mask]

    # the state arrays hold only the rows still descending; rows maps them back
    rows = np.arange(count)
    f, g = evaluate(x)
    h = np.tile(eye, (count, 1, 1))
    for it in range(max_iterations):
        gnorm = _norms(g)
        done = gnorm <= gradient_tol
        if done.any():
            finish(done, it, True, gnorm)
            keep = ~done
            rows, x, f, g, h, gnorm = rows[keep], x[keep], f[keep], g[keep], h[keep], gnorm[keep]
        if rows.size == 0:
            break
        d = -(h @ g[:, :, None])[:, :, 0]
        slope = (d * g).sum(axis=-1)
        restart = slope >= 0.0
        if restart.any():
            # curvature model went bad; restart from steepest descent
            h[restart] = eye
            d[restart] = -g[restart]
            slope[restart] = -(g[restart] * g[restart]).sum(axis=-1)
        # Armijo backtracking: every row tries t = 1, 1/2, 1/4, ... and
        # only the rows still short of a decrease are re-evaluated
        x_new = x + d
        f_new, g_new = evaluate(x_new)
        pending = (~(f_new <= f + 1e-4 * slope)).nonzero()[0]
        t = 1.0
        for _ in range(59):
            if pending.size == 0:
                break
            t *= 0.5
            cand = x[pending] + t * d[pending]
            fc, gc = evaluate(cand)
            ok = fc <= f[pending] + 1e-4 * t * slope[pending]
            took = pending[ok]
            x_new[took], f_new[took], g_new[took] = cand[ok], fc[ok], gc[ok]
            pending = pending[~ok]
        if pending.size:
            # line search stalled; no usable decrease left
            stalled = np.zeros(rows.size, dtype=bool)
            stalled[pending] = True
            finish(stalled, it + 1, False, gnorm)
            keep = ~stalled
            rows, x, f, g, h = rows[keep], x[keep], f[keep], g[keep], h[keep]
            x_new, f_new, g_new = x_new[keep], f_new[keep], g_new[keep]
        s = x_new - x
        y = g_new - g
        sy = (s * y).sum(axis=-1)
        update = sy > 1e-12 * _norms(s) * _norms(y)
        # BFGS update where the curvature pair is usable; a full slice
        # takes views, so h is then updated in place
        sel = slice(None) if update.all() else update.nonzero()[0]
        s, y, sy, hu = s[sel], y[sel], sy[sel, None, None], h[sel]
        hy = (hu @ y[:, :, None])[:, :, 0]
        yhy = (y * hy).sum(axis=-1)[:, None, None]
        hu += ((sy + yhy) / sy**2) * (s[:, :, None] * s[:, None, :])
        hu -= (hy[:, :, None] * s[:, None, :] + s[:, :, None] * hy[:, None, :]) / sy
        h[sel] = hu
        x, f, g = x_new, f_new, g_new
    else:
        gnorm = _norms(g)
        finish(np.ones(rows.size, dtype=bool), max_iterations, gnorm <= gradient_tol, gnorm)
    if single:
        return MinimizeResult(out_x[0], int(iterations[0]), bool(converged[0]), float(grad_norm[0]))
    return MinimizeResult(out_x, iterations, converged, grad_norm)


@dataclass(frozen=True)
class ClusterAssignment:
    """Per-sample labels plus the descent diagnostics behind them."""

    labels: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray
    minimizers: np.ndarray

    def __post_init__(self):
        for name in ("labels", "converged", "iterations", "minimizers"):
            arr = np.asarray(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def size(self) -> int:
        return self.labels.shape[0]


def assign_labels(loss, recovered: PointSet, samples: SampleSet) -> ClusterAssignment:
    """Cluster every sample by descending the loss it sits on.

    All samples descend together in one batched ``minimize_from`` call,
    so the loss must accept a batch of points.  With a ``TransformedLoss``
    the converged points are mapped to simplex coordinates and labeled by
    their nearest vertex: vertex e_(i+1) carries label i, the origin
    carries label k-1 (the anchor point).  Any other loss labels by the
    nearest recovered point.  Ties resolve to the lowest label.  Descents
    that hit the iteration cap still get a label from their last iterate,
    flagged not converged.
    """
    if samples.n != recovered.n:
        raise ValueError(f"dimension mismatch: samples in R^{samples.n}, set in R^{recovered.n}")
    k = recovered.k
    res = minimize_from(loss, samples.samples)
    if isinstance(loss, TransformedLoss) and k > 1:
        coords = loss.simplex_coords(res.x)
        targets = np.vstack([np.eye(k - 1), np.zeros(k - 1)])
    else:
        coords = res.x
        targets = np.asarray(recovered.points.real)
    dists = np.linalg.norm(coords[:, None, :] - targets[None, :, :], axis=2)
    return ClusterAssignment(
        labels=np.argmin(dists, axis=1),
        converged=res.converged,
        iterations=res.iterations,
        minimizers=res.x,
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
    set size is capped at 8), and labels are compared through that
    alignment.
    """
    truth = np.asarray(truth, dtype=np.int64)
    means = np.asarray(true_means, dtype=float)
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
    pts = np.asarray(recovered.points.real)
    best_perm = None
    best_cost = np.inf
    for perm in itertools.permutations(range(k)):
        cost = sum(float(np.sum((pts[i] - means[perm[i]]) ** 2)) for i in range(k))
        if cost < best_cost:
            best_cost = cost
            best_perm = perm
    mapped = np.array([best_perm[label] for label in assignment.labels])
    return float(np.mean(mapped == truth))


@dataclass(frozen=True)
class RecoveryResult:
    """Everything the recovery pipeline produced, stage by stage."""

    fit: FitResult
    zero_set: ZeroSet
    recovered: PointSet
    loss: object
    timings: dict

    @property
    def k(self) -> int:
        return self.recovered.k


def _tag_stage(exc: Exception, stage: str) -> Exception:
    if not hasattr(exc, "stage"):
        exc.stage = stage
    return exc


def recover_point_set(
    samples: SampleSet,
    k: int,
    opts: FitOptions | None = None,
    want_real: bool = True,
    loss_kind: str = "transformed",
) -> RecoveryResult:
    """Fit, extract, and wrap a loss around the recovered k points.

    ``loss_kind`` selects the loss built on the recovered set:
    "transformed" (default) composes the simplicial loss with the
    appropriate coordinate change, "generating" interpolates a fresh
    generating system through the recovered points and squares it.  With
    ``want_real`` the recovered set is the real projection of the
    extracted zeros; otherwise the complex zeros are kept (the loss is
    still built on the projection, since the transforms are real).
    Errors propagate from the failing stage, tagged with a ``stage``
    attribute ("fit", "extract", or "loss").
    """
    if loss_kind not in ("transformed", "generating"):
        raise ValueError(f"unknown loss kind {loss_kind!r}")
    opts = opts or FitOptions()
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    try:
        fit = fit_generating_matrix(samples, k, opts)
    except Exception as exc:
        raise _tag_stage(exc, "fit")
    timings["fit"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    try:
        zeros = extract_zero_set(fit.g_star, seed=opts.seed)
    except Exception as exc:
        raise _tag_stage(exc, "extract")
    timings["extract"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    try:
        projected = real_projection(zeros)
        recovered = projected if want_real else PointSet(zeros.points, check_distinct=False)
        if loss_kind == "transformed":
            loss = build_transformed_loss(projected)
        else:
            loss = GeneratingLoss(solve_generating_matrix(projected))
    except Exception as exc:
        raise _tag_stage(exc, "loss")
    timings["loss"] = time.perf_counter() - t0

    return RecoveryResult(
        fit=fit, zero_set=zeros, recovered=recovered, loss=loss, timings=timings
    )


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
    if not points.is_real:
        raise ValueError("noise sampling needs a real point set")
    k, n = points.k, points.n
    radii = np.broadcast_to(np.asarray(eps, dtype=float), (k,)).copy()
    if np.any(radii <= 0):
        raise ValueError("noise radii must be positive")
    sizes = np.asarray(counts, dtype=np.int64)
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
            rows = []
            while len(rows) < need:
                cand = rng.normal(0.0, radii[i] / 2.0, (need, n))
                for row in cand:
                    if np.max(np.abs(row)) <= radii[i]:
                        rows.append(row)
                        if len(rows) == need:
                            break
            offsets = np.array(rows)
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
        w = np.array(self.weights, dtype=float)
        mu = np.array(self.means, dtype=float)
        cov = np.array(self.covariances, dtype=float)
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
    scale: float = 0.5,
) -> GmmSpec:
    """A mixture with means separated relative to its covariance factors.

    Covariances are R^T R for random factors R with entries of order
    ``scale``; means are redrawn until every pair is at least
    ``separation`` times the largest singular value of any factor apart.
    """
    rng = np.random.default_rng(seed)
    factors = []
    for _ in range(k):
        if diagonal:
            r = np.diag(rng.uniform(0.3 * scale, scale, n))
        else:
            r = rng.uniform(-scale, scale, (n, n)) + np.eye(n) * 0.3 * scale
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
