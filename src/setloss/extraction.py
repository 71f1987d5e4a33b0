"""Recovering the common zeros of a near-commuting generating system.

A generating system with (numerically) commuting multiplication matrices
has exactly k common complex zeros counted with multiplicity.  They are
read off a single Schur decomposition: form a random unit combination
M1 = sum_i xi_i M_i, triangularize it as Q^H M1 Q, and evaluate the
diagonal of Q^H M_i Q for every variable.  The same orthonormal columns
triangularize all M_i simultaneously because the family commutes, so the
i-th diagonal entries assemble the coordinates of one zero each.
"""

from __future__ import annotations

import warnings as _warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidStateError, NumericalFailureError
from .generating_system import (
    GeneratingMatrix,
    MultiplicationMatrices,
    PointSet,
    coincident_pairs,
    commutator_residual,
    multiplication_matrices,
)
from .numeric_kernels import complex_schur

__all__ = [
    "ZeroSet",
    "combine_multiplication_matrices",
    "extract_zero_set",
    "real_projection",
    "set_distance",
]

# commutator ceiling (relative to 1 + |G|_F) above which extraction refuses
COMMUTATOR_HARD_LIMIT = 1e-6
# below this the system counts as exactly commuting; in between results
# are flagged as coming from an approximate system
COMMUTATOR_SOFT_LIMIT = 1e-8
# eigenvalue spread guard for the random combination
MIN_GAP_FACTOR = 1e-8
MAX_COMBINATION_DRAWS = 10


@dataclass(frozen=True)
class ZeroSet:
    """The k common zeros of a generating system, with diagnostics.

    ``points`` is a read-only (k, n) complex array in a deterministic
    order: sorted by the graded-lexicographic key of the real parts
    rounded to 1e-9, then by the rounded imaginary parts.  ``residuals``
    holds one invariant-subspace residual per point (for the first point
    this is the plain eigenvector residual).  ``approximate`` marks
    systems whose commutator norm fell in the tolerated-but-nonzero band.
    """

    points: np.ndarray
    residuals: np.ndarray
    approximate: bool
    commutator_norm: float

    def __post_init__(self):
        pts = np.array(self.points, dtype=complex)
        res = np.array(self.residuals, dtype=float)
        if pts.ndim != 2 or res.shape != (pts.shape[0],):
            raise ValueError("points and residuals shapes are inconsistent")
        pts.flags.writeable = False
        res.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "residuals", res)

    @property
    def k(self) -> int:
        return self.points.shape[0]

    @property
    def n(self) -> int:
        return self.points.shape[1]

    @property
    def real_points(self) -> np.ndarray:
        return self.points.real

    def max_imaginary(self) -> float:
        return float(np.max(np.abs(self.points.imag))) if self.points.size else 0.0

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "points": [[[float(v.real), float(v.imag)] for v in row] for row in self.points],
            "residuals": [float(r) for r in self.residuals],
            "approximate": self.approximate,
            "commutator_norm": self.commutator_norm,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "ZeroSet":
        pts = np.array(
            [[complex(re, im) for re, im in row] for row in payload["points"]],
            dtype=complex,
        ).reshape(int(payload["k"]), int(payload["n"]))
        return cls(
            points=pts,
            residuals=np.array(payload["residuals"], dtype=float),
            approximate=bool(payload["approximate"]),
            commutator_norm=float(payload["commutator_norm"]),
        )


def combine_multiplication_matrices(mats: MultiplicationMatrices, weights) -> np.ndarray:
    """Weighted combination sum_i weights_i M_i of the multiplication matrices."""
    return mats.combine(weights)


def _sort_order(points: np.ndarray) -> np.ndarray:
    re = np.round(points.real / 1e-9) * 1e-9
    im = np.round(points.imag / 1e-9) * 1e-9
    keys = [(float(re[i].sum()), *(-re[i]), *(-im[i])) for i in range(points.shape[0])]
    # graded key on real parts: total first, heavier first coordinates earlier
    return np.array(sorted(range(points.shape[0]), key=lambda i: keys[i]), dtype=np.int64)


def extract_zero_set(gm: GeneratingMatrix, seed: int = 0) -> ZeroSet:
    """Extract all k common zeros of a commuting generating system.

    Requires the total commutator norm to be at most
    1e-6 * (1 + |G|_F); between 1e-8 and 1e-6 the result is flagged
    approximate.  The random combination weights are drawn from ``seed``
    and redrawn (at most 10 times) until the combined matrix has a
    healthy eigenvalue spread; persistent clustering raises
    NumericalFailureError.  Points come back with multiplicity when the
    system has repeated zeros.
    """
    com = commutator_residual(gm)
    scale = 1.0 + gm.frobenius_norm()
    if com.total > COMMUTATOR_HARD_LIMIT * scale:
        raise InvalidStateError(
            f"multiplication matrices do not commute (residual {com.total:.3e}, "
            f"limit {COMMUTATOR_HARD_LIMIT * scale:.3e})"
        )
    approximate = com.total > COMMUTATOR_SOFT_LIMIT * scale

    mats = multiplication_matrices(gm)
    k, n = gm.k, gm.n
    rng = np.random.default_rng(seed)
    m1 = None
    for _ in range(MAX_COMBINATION_DRAWS):
        xi = rng.standard_normal(n)
        xi /= np.linalg.norm(xi)
        candidate = mats.combine(xi)
        if k < 2:
            m1 = candidate
            break
        eigs = np.linalg.eigvals(candidate)
        gaps = np.abs(eigs[:, None] - eigs[None, :])[np.triu_indices(k, 1)]
        if gaps.min() >= MIN_GAP_FACTOR * gaps.max():
            m1 = candidate
            break
    if m1 is None:
        raise NumericalFailureError(
            "eigenvalues of every random combination stayed clustered; "
            "the zero structure cannot be separated"
        )

    schur = complex_schur(m1)
    q = schur.q
    reduced = [q.conj().T @ mat @ q for mat in mats.mats]
    points = np.empty((k, n), dtype=complex)
    residuals = np.zeros(k)
    for i in range(k):
        points[i] = [t[i, i] for t in reduced]
        low = 0.0
        for t in reduced:
            col = t[i + 1 :, i]
            low += float(np.real(np.vdot(col, col)))
        residuals[i] = np.sqrt(low)

    order = _sort_order(points)
    return ZeroSet(
        points=points[order],
        residuals=residuals[order],
        approximate=approximate,
        commutator_norm=com.total,
    )


def real_projection(zeros: ZeroSet) -> PointSet:
    """Drop imaginary parts, keeping duplicates that the projection creates.

    Complex zeros of real systems come in conjugate pairs, so projecting
    can make two rows collide; a warning is emitted in that case and the
    returned set skips the distinctness check.
    """
    pts = zeros.real_points.copy()
    if len(coincident_pairs(pts)):
        _warnings.warn(
            "real projection produced coincident points (conjugate pair collapsed)",
            RuntimeWarning,
            stacklevel=2,
        )
    return PointSet(pts, check_distinct=False)


def set_distance(recovered: PointSet, reference: PointSet) -> float:
    """One-sided distance max over reference points of the nearest recovered point.

    Zero exactly when every reference point is matched by a recovered
    point; recovered points with no nearby reference point do not
    contribute.  Both sets must be nonempty and share a dimension.
    """
    if recovered.n != reference.n:
        raise ValueError(
            f"dimension mismatch: {recovered.n} vs {reference.n}"
        )
    a = np.asarray(recovered.points)
    b = np.asarray(reference.points)
    diff = b[:, None, :] - a[None, :, :]
    dists = np.sqrt(np.sum(np.abs(diff) ** 2, axis=2))
    return float(dists.min(axis=1).max())
