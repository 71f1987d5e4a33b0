"""Smooth nonnegative losses whose zero sets are prescribed finite sets.

Three families live here.

* ``generating_loss``: the squared norm of an interpolated generating
  system.  Vanishes exactly on the interpolated set but may pick up
  spurious local minimizers away from it.
* ``simplicial_loss``: the standard loss for the scaled simplex
  {0, a_1 e_1, ..., a_n e_n}, built so that every local minimizer is a
  global one.
* ``TransformedLoss``: the simplicial loss pulled back through a linear
  or polynomial change of coordinates so that its zero set becomes an
  arbitrary point set.  Sets with k <= n + 1 points use an affine map
  ("affine" kind); larger sets are first embedded through the monomial
  lift ("lifted" kind).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import DegenerateConfigurationError
from .generating_system import (
    GeneratingMatrix,
    PointSet,
    evaluate_generators,
    generators_jacobian,
)
from .monomial_basis import (
    MonomialBasis,
    basis_jacobian,
    monomial_lift,
    monomial_matrix,
    standard_monomials,
)
from .numeric_kernels import SINGULARITY_RTOL, pseudo_inverse

__all__ = [
    "simplicial_loss",
    "SimplicialLoss",
    "generating_loss",
    "GeneratingLoss",
    "TransformedLoss",
    "build_affine_loss",
    "build_lifted_loss",
    "build_transformed_loss",
    "eval_transformed",
]


def _simplicial_value_and_grad(a, x):
    # x is (n,) or (N, n); the cross term sum_{i<j} x_i^2 x_j^2 is
    # (s^2 - sum x_i^4) / 2 with s = sum x_i^2
    sq = x * x
    s = sq.sum(axis=-1, keepdims=True)
    value = (sq * (x - a) ** 2).sum(axis=-1) + 0.5 * (
        s[..., 0] * s[..., 0] - (sq * sq).sum(axis=-1)
    )
    grad = 2.0 * x * (2.0 * sq - 3.0 * a * x + (s - sq + a * a))
    return value, grad


def simplicial_loss(a, x):
    """Value, gradient, and Hessian of the scaled-simplex loss.

    f(x) = sum_i x_i^2 (x_i - a_i)^2  +  sum_{i<j} x_i^2 x_j^2

    vanishes exactly on {0, a_1 e_1, ..., a_n e_n} and has no other local
    minimizers.  All a_i must be nonzero, otherwise two simplex vertices
    collide.
    """
    a = np.asarray(a, dtype=float)
    x = np.asarray(x, dtype=float)
    if a.ndim != 1 or a.shape != x.shape:
        raise ValueError(f"shape mismatch: a {a.shape}, x {x.shape}")
    if np.any(np.abs(a) <= 1e-12):
        raise ValueError("all simplex scales a_i must be nonzero")
    value, grad = _simplicial_value_and_grad(a, x)
    sq = x * x
    hess = 4.0 * np.outer(x, x)
    np.fill_diagonal(hess, 12.0 * sq - 12.0 * a * x + 2.0 * (float(sq.sum()) - sq + a * a))
    return float(value), grad, hess


def _matvec(mat: np.ndarray, v: np.ndarray) -> np.ndarray:
    # mat @ v for v of shape (c,) or (N, c), one row at a time.  BLAS picks
    # its kernel by batch size, which changes the rounding of a row with
    # the batch it sits in; an elementwise product summed per row does not.
    return (v[..., None, :] * mat).sum(axis=-1)


def _check_points(x, n: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != n:
        raise ValueError(f"expected shape ({n},) or (N, {n}), got {x.shape}")
    return x


class SimplicialLoss:
    """Callable bundle around ``simplicial_loss`` for a fixed scale vector."""

    def __init__(self, a):
        a = np.array(a, dtype=float)
        if a.ndim != 1 or a.size < 1:
            raise ValueError(f"expected a scale vector, got shape {a.shape}")
        if np.any(np.abs(a) <= 1e-12):
            raise ValueError("all simplex scales a_i must be nonzero")
        a.flags.writeable = False
        self.a = a

    @property
    def n(self) -> int:
        return self.a.size

    def value_and_grad(self, x):
        """Value and gradient at x (n,), or per row of a batch (N, n)."""
        return _simplicial_value_and_grad(self.a, _check_points(x, self.n))

    def value(self, x) -> float:
        return self.value_and_grad(x)[0]

    def hessian(self, x) -> np.ndarray:
        return simplicial_loss(self.a, x)[2]

    def vertices(self) -> np.ndarray:
        """The n + 1 zeros: the origin followed by a_i e_i, shape (n+1, n)."""
        return np.vstack([np.zeros(self.n), np.diag(self.a)])

    def simplex_coords(self, x) -> np.ndarray:
        """Coordinates in which the zeros become the unit simplex vertices."""
        return np.asarray(x, dtype=float) / self.a


def generating_loss(gm: GeneratingMatrix, x):
    """Value and gradient of ||phi(x)||^2 for a generating system.

    x of shape (n,) gives a float and an (n,) gradient; a batch (N, n)
    gives (N,) values and (N, n) gradients.
    """
    phi = evaluate_generators(gm, x)
    jac = generators_jacobian(gm, x)
    value = np.real((np.conj(phi) * phi).sum(axis=-1))
    grad = 2.0 * (phi[..., :, None] * jac).sum(axis=-2)
    if not np.iscomplexobj(np.asarray(x)):
        grad = np.real(grad)
    return (float(value) if np.ndim(x) == 1 else value), grad


class GeneratingLoss:
    """Callable bundle around ``generating_loss`` for a fixed system."""

    def __init__(self, gm: GeneratingMatrix):
        self.gm = gm

    @property
    def n(self) -> int:
        return self.gm.n

    def value_and_grad(self, x):
        return generating_loss(self.gm, x)

    def value(self, x) -> float:
        return self.value_and_grad(x)[0]


class TransformedLoss:
    """Simplicial loss composed with a coordinate change targeting a point set.

    The last point of the set is the anchor mapped to the origin of the
    simplex; point i (1-based) maps to the i-th unit vertex.  Use
    ``simplex_coords`` to read off which vertex a given x sits near.
    """

    def __init__(self, kind: str, points: PointSet, **data):
        if kind not in ("affine", "lifted"):
            raise ValueError(f"unknown transform kind {kind!r}")
        if not points.is_real:
            raise ValueError("transformed losses are defined for real point sets")
        self.kind = kind
        self.points = points
        self.inner = SimplicialLoss(np.ones(points.k - 1)) if points.k > 1 else None
        if kind == "affine":
            self.u_mat = data["u_mat"]
            self.u_pinv = data["u_pinv"]
            self.anchor = data["anchor"]
            self._to_simplex, self._lift_anchor = self.u_pinv, self.anchor
        else:
            self.lift_basis: MonomialBasis = data["lift_basis"]
            self.l_mat = data["l_mat"]
            self.anchor_lift = data["anchor_lift"]
            self._to_simplex, self._lift_anchor = np.linalg.inv(self.l_mat), self.anchor_lift

    @property
    def n(self) -> int:
        return self.points.n

    @property
    def k(self) -> int:
        return self.points.k

    @property
    def simplex_dim(self) -> int:
        return self.k - 1

    # -- coordinate maps -------------------------------------------------

    def lift(self, x) -> np.ndarray:
        """The intermediate coordinates fed into the simplex map.

        For the affine kind this is x itself; for the lifted kind it is
        the monomial lift of x.
        """
        if self.kind == "affine":
            return np.asarray(x, dtype=float)
        return monomial_lift(np.asarray(x, dtype=float), self.lift_basis)

    def simplex_coords(self, x) -> np.ndarray:
        """Simplex coordinates of x (n,), or of each row of a batch (N, n)."""
        x = _check_points(x, self.n)
        return _matvec(self._to_simplex, self.lift(x) - self._lift_anchor)

    # -- evaluation ------------------------------------------------------

    def value_and_grad(self, x):
        """Value and gradient at x (n,), or per row of a batch (N, n)."""
        x = _check_points(x, self.n)
        if self.inner is None:
            return np.zeros(x.shape[:-1])[()], np.zeros(x.shape)
        z = _matvec(self._to_simplex, self.lift(x) - self._lift_anchor)
        value, gz = _simplicial_value_and_grad(self.inner.a, z)
        w = _matvec(self._to_simplex.T, gz)
        if self.kind == "affine":
            return value, w
        jac = basis_jacobian(x, self.lift_basis)[..., 1:, :]
        return value, (w[..., :, None] * jac).sum(axis=-2)

    def value(self, x) -> float:
        return self.value_and_grad(x)[0]

    def lift_value_and_grad(self, zeta):
        """The loss as a function of the lift coordinates.

        For the lifted kind this is the function on R^(k-1) whose local
        minimizers are exactly the lifted points; its gradient is taken in
        zeta.  For the affine kind the lift is the identity, so this is
        just ``value_and_grad``.
        """
        if self.kind == "affine":
            return self.value_and_grad(zeta)
        zeta = np.asarray(zeta, dtype=float)
        if zeta.shape != (self.simplex_dim,):
            raise ValueError(f"expected shape ({self.simplex_dim},), got {zeta.shape}")
        z = _matvec(self._to_simplex, zeta - self.anchor_lift)
        value, gz = _simplicial_value_and_grad(self.inner.a, z)
        return value, _matvec(self._to_simplex.T, gz)

    def null_directions(self) -> np.ndarray:
        """Orthonormal basis of directions the affine map ignores, (n, n-k+1).

        Adding any combination of these to x leaves the loss unchanged;
        the zero set of the loss is the point set plus this subspace.
        Only meaningful for the affine kind; the lifted map has no such
        directions.
        """
        if self.kind != "affine":
            return np.zeros((self.n, 0))
        if self.u_pinv.shape[0] == 0:
            return np.eye(self.n)
        return scipy.linalg.null_space(self.u_pinv)

    # -- serialization and rendering --------------------------------------

    def to_json(self) -> dict:
        payload = {
            "kind": self.kind,
            "n": self.n,
            "k": self.k,
            "points": [[float(v) for v in row] for row in self.points.points],
        }
        if self.kind == "affine":
            payload["u"] = [[float(v) for v in row] for row in self.u_mat]
            payload["u_pinv"] = [[float(v) for v in row] for row in self.u_pinv]
            payload["anchor"] = [float(v) for v in self.anchor]
        else:
            payload["lift_basis"] = self.lift_basis.to_json()
            payload["l"] = [[float(v) for v in row] for row in self.l_mat]
            payload["anchor_lift"] = [float(v) for v in self.anchor_lift]
        return payload

    @classmethod
    def from_json(cls, payload: dict) -> "TransformedLoss":
        points = PointSet(np.array(payload["points"], dtype=float))
        if payload["kind"] == "affine":
            return cls(
                "affine",
                points,
                u_mat=np.array(payload["u"], dtype=float),
                u_pinv=np.array(payload["u_pinv"], dtype=float),
                anchor=np.array(payload["anchor"], dtype=float),
            )
        return cls(
            "lifted",
            points,
            lift_basis=MonomialBasis.from_json(payload["lift_basis"]),
            l_mat=np.array(payload["l"], dtype=float),
            anchor_lift=np.array(payload["anchor_lift"], dtype=float),
        )

    def describe(self) -> str:
        """Closed-form rendering for small cases, a summary otherwise.

        For n <= 3 and k <= 4 returns the loss as an explicit polynomial:
        in the original variables for the affine kind, in the lift
        variables z1..z_(k-1) for the lifted kind.
        """
        if self.n > 3 or self.k > 4:
            return (
                f"transformed simplicial loss ({self.kind}) for {self.k} points in R^{self.n}"
            )
        import sympy as sp

        if self.kind == "affine":
            xs = sp.symbols(f"x1:{self.n + 1}")
            vec = sp.Matrix(xs) - sp.Matrix(self.anchor.tolist())
            m = sp.Matrix(self.u_pinv.tolist())
        else:
            xs = sp.symbols(f"z1:{self.simplex_dim + 1}")
            vec = sp.Matrix(xs) - sp.Matrix(self.anchor_lift.tolist())
            m = sp.Matrix(self._to_simplex.tolist())
        m = m.applyfunc(lambda v: sp.nsimplify(v, rational=True, tolerance=1e-12))
        vec = vec.applyfunc(lambda v: sp.nsimplify(v, rational=True, tolerance=1e-12))
        zs = list(m @ vec)
        if not zs:
            return "0"
        terms = [z**2 * (z - 1) ** 2 for z in zs]
        terms += [zs[i] ** 2 * zs[j] ** 2 for i in range(len(zs)) for j in range(i + 1, len(zs))]
        total = sp.Add(*[sp.expand(t) for t in terms])
        return str(sp.factor(total)) if len(zs) == 1 else str(total)


def build_affine_loss(points: PointSet) -> TransformedLoss:
    """Transformed loss through an affine map, for sets with k <= n + 1.

    The map sends x to U^+ (x - u_k) where the columns of U are the
    differences u_i - u_k.  Requires those differences to be linearly
    independent; affinely dependent sets raise
    DegenerateConfigurationError.
    """
    if not points.is_real:
        raise ValueError("transformed losses are defined for real point sets")
    k, n = points.k, points.n
    if k > n + 1:
        raise ValueError(f"affine transform needs k <= n + 1, got k={k}, n={n}")
    anchor = points.points[-1]
    u_mat = (points.points[:-1] - anchor).T
    u_pinv = pseudo_inverse(u_mat)
    return TransformedLoss("affine", points, u_mat=u_mat, u_pinv=u_pinv, anchor=anchor)


def build_lifted_loss(points: PointSet) -> TransformedLoss:
    """Transformed loss through the monomial lift, for sets with k > n + 1.

    Points are first lifted through the non-constant members of the first
    k graded-lexicographic monomials, which is injective and puts the k
    lifted points in general position in R^(k-1) for generic sets.  The
    loss is the simplicial loss of the lifted simplex pulled back through
    the lift.  A singular lifted difference matrix raises
    DegenerateConfigurationError.
    """
    if not points.is_real:
        raise ValueError("transformed losses are defined for real point sets")
    k, n = points.k, points.n
    if k <= n + 1:
        raise ValueError(f"lifted transform needs k > n + 1, got k={k}, n={n}")
    lift_basis = standard_monomials(n, k)
    lifts = monomial_matrix(points.points, lift_basis)[:, 1:]
    anchor_lift = lifts[-1]
    l_mat = (lifts[:-1] - anchor_lift).T
    s = np.linalg.svd(l_mat, compute_uv=False)
    if s[0] == 0.0 or s[-1] <= SINGULARITY_RTOL * s[0]:
        cond = float("inf") if s[-1] == 0.0 else float(s[0] / s[-1])
        raise DegenerateConfigurationError(
            "lifted point differences are numerically dependent", condition=cond
        )
    return TransformedLoss(
        "lifted",
        points,
        lift_basis=lift_basis,
        l_mat=l_mat,
        anchor_lift=anchor_lift,
    )


def build_transformed_loss(points: PointSet) -> TransformedLoss:
    """Pick the affine or lifted construction based on the set size."""
    if points.k <= points.n + 1:
        return build_affine_loss(points)
    return build_lifted_loss(points)


def eval_transformed(loss: TransformedLoss, x):
    """Functional form of ``TransformedLoss.value_and_grad``."""
    return loss.value_and_grad(x)
