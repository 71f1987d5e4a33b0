"""Recovering the common zeros of a near-commuting generating system.

A generating system with (numerically) commuting multiplication matrices
has exactly k common complex zeros counted with multiplicity.  They are
read off a single Schur decomposition: form a random unit combination
M1 = sum_i xi_i M_i, triangularize it as Q^H M1 Q, and evaluate the
diagonal of Q^H M_i Q for every variable.  The same orthonormal columns
triangularize all M_i simultaneously because the family commutes, so the
i-th diagonal entries assemble the coordinates of one zero each.

The zeros are the only complex numbers in the package: ``ZeroSet`` holds
them, and ``real_projection`` hands real ones on as a ``PointSet`` and
refuses any others.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidStateError, NumericalFailureError
from .generating_system import (
    GeneratingMatrix,
    PointSet,
    commutator_residual,
    multiplication_matrices,
)
from .numeric_kernels import complex_schur, integer_array, real_array, require_finite

__all__ = [
    "ZeroSet",
    "extract_zero_set",
    "real_projection",
    "set_distance",
    "zeros_are_real",
]

# commutator ceiling (relative to 1 + |G|_F) above which extraction refuses
COMMUTATOR_HARD_LIMIT = 1e-6
# below this the system counts as exactly commuting; in between results
# are flagged as coming from an approximate system
COMMUTATOR_SOFT_LIMIT = 1e-8
# eigenvalue spread guard for the random combination
MIN_GAP_FACTOR = 1e-8
MAX_COMBINATION_DRAWS = 10
# zeros with imaginary parts above this, relative to 1 + the largest real
# part, are not real: real_projection refuses them
IMAG_DROP_TOL = 1e-6


@dataclass(frozen=True)
class ZeroSet:
    """The k common zeros of a generating system, with diagnostics.

    ``points`` is a read-only (k, n) complex array in a deterministic
    order: sorted by the graded-lexicographic key of the real parts
    rounded to 1e-9, then by the rounded imaginary parts.  ``residuals``
    holds one residual per point: the norm, over all reduced matrices
    Q^H M_i Q, of the strictly-lower part of the Schur column the point
    was read from.  Only the point of the first Schur column has the plain
    eigenvector residual, and after sorting it need not be the first
    row.  ``approximate`` marks systems whose commutator norm fell in the
    tolerated-but-nonzero band.
    """

    points: np.ndarray
    residuals: np.ndarray
    approximate: bool
    commutator_norm: float

    def __post_init__(self):
        pts = np.array(self.points, dtype=complex)
        res = np.array(real_array(self.residuals))
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

    def max_imaginary(self) -> float:
        return float(np.max(np.abs(self.points.imag))) if self.points.size else 0.0

    @property
    def is_real(self) -> bool:
        """Whether no imaginary part exceeds IMAG_DROP_TOL * (1 + max |real part|)."""
        return zeros_are_real(self.points)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "points": np.stack((self.points.real, self.points.imag), axis=-1).tolist(),
            "residuals": self.residuals.tolist(),
            "approximate": self.approximate,
            "commutator_norm": self.commutator_norm,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "ZeroSet":
        k, n = (int(integer_array(payload[key], key)) for key in ("k", "n"))
        if not isinstance(payload["approximate"], bool):
            raise TypeError(f"approximate must be a boolean, got {payload['approximate']!r}")
        # each [re, im] pair, as two float64s in a row, is one complex128
        pairs = real_array(payload["points"]).reshape(k, n, 2)
        return cls(
            points=pairs.view(complex)[..., 0],
            residuals=payload["residuals"],
            approximate=payload["approximate"],
            commutator_norm=float(real_array(payload["commutator_norm"])),
        )


def zeros_are_real(points: np.ndarray) -> bool:
    """Whether no imaginary part exceeds IMAG_DROP_TOL * (1 + max |real part|)."""
    pts = np.asarray(points)
    scale = 1.0 + float(np.max(np.abs(pts.real), initial=0.0))
    return float(np.max(np.abs(pts.imag), initial=0.0)) <= IMAG_DROP_TOL * scale


def _sort_order(points: np.ndarray) -> np.ndarray:
    re = np.round(points.real / 1e-9) * 1e-9
    im = np.round(points.imag / 1e-9) * 1e-9
    # graded key on real parts: total first, heavier first coordinates
    # earlier, then the imaginary parts; lexsort is stable and reads its
    # last key first
    keys = np.vstack([-im[:, ::-1].T, -re[:, ::-1].T, re.sum(axis=1)])
    return np.lexsort(keys)


def extract_zero_set(gm: GeneratingMatrix, seed: int = 0) -> ZeroSet:
    """Extract all k common zeros of a commuting generating system.

    Requires the total commutator norm to be at most
    1e-6 * (1 + |G|_F); between 1e-8 and 1e-6 the result is flagged
    approximate.  Each draw of random combination weights (from ``seed``)
    is Schur-factored once, and its diagonal is the eigenvalue spread
    test: the draw passes when the smallest distance between two
    eigenvalues is at least 1e-8 times the largest, or when k = 1.  A
    clustered spread redraws (at most 10 draws), and persistent
    clustering raises NumericalFailureError.  The accepted unitary factor
    reduces every multiplication matrix at once; the diagonals are the
    points and the strictly-lower column norms their residuals.

    Repeated zeros come back with multiplicity only when every eigenvalue
    coincides (the largest distance is 0 too), or when the split that
    rounding gives a near-repeated zero passes the relative gap: a double
    zero at 1 comes back as about 1 - 3e-8 and 1 + 3e-8.  A repeated zero
    among separated ones fails the gap test on every draw.
    """
    mats = multiplication_matrices(gm)
    com = commutator_residual(mats)
    scale = 1.0 + gm.frobenius_norm()
    if com > COMMUTATOR_HARD_LIMIT * scale:
        raise InvalidStateError(
            f"multiplication matrices do not commute (residual {com:.3e}, "
            f"limit {COMMUTATOR_HARD_LIMIT * scale:.3e})"
        )
    approximate = com > COMMUTATOR_SOFT_LIMIT * scale

    k, n = gm.k, gm.n
    rng = np.random.default_rng(seed)
    for _ in range(MAX_COMBINATION_DRAWS):
        xi = rng.standard_normal(n)
        xi /= np.linalg.norm(xi)
        p, q = complex_schur((xi[:, None, None] * mats).sum(axis=0))
        # every |e_i - e_j|: the diagonal's zeros leave the max alone, and
        # |a - b| == |b - a| exactly, so with the diagonal set to inf the
        # min is the min over i < j too
        eigs = np.diag(p)
        gaps = np.abs(eigs[:, None] - eigs)
        widest = gaps.max()
        np.fill_diagonal(gaps, np.inf)
        if k < 2 or gaps.min() >= MIN_GAP_FACTOR * widest:
            break
    else:
        raise NumericalFailureError(
            "eigenvalues of every random combination stayed clustered; "
            "the zero structure cannot be separated"
        )

    reduced = q.conj().T @ mats @ q
    points = np.diagonal(reduced, axis1=1, axis2=2).T
    residuals = np.sqrt(np.sum(np.abs(np.tril(reduced, -1)) ** 2, axis=(0, 1)))

    order = _sort_order(points)
    return ZeroSet(
        points=points[order],
        residuals=residuals[order],
        approximate=approximate,
        commutator_norm=com,
    )


def real_projection(points: np.ndarray) -> PointSet:
    """The real parts of (k, n) zeros that are real (``zeros_are_real``), as a ``PointSet``.

    A zero with a NaN or infinite part is no point, and the realness test
    cannot judge it: it raises DegenerateConfigurationError, "points must
    be finite", as ``PointSet`` does.  Finite zeros that are not real get
    the package's one refusal of them, as a conjugate pair is no point of
    a real set: NumericalFailureError naming the largest imaginary part,
    with ``stage`` "extract".  Real zeros that coincide raise
    ``PointSet``'s DegenerateConfigurationError.
    """
    require_finite(points, "points must be finite")
    if not zeros_are_real(points):
        exc = NumericalFailureError(
            "extracted zeros are not real: imaginary parts up to "
            f"{np.max(np.abs(points.imag)):.3e}"
        )
        exc.stage = "extract"
        raise exc
    return PointSet(points.real)


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
    dists = np.sqrt(np.sum(diff**2, axis=2))
    return float(dists.min(axis=1).max())
