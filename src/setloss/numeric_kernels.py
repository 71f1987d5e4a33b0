"""Dense linear-algebra kernels, and the package's two rules for input arrays.

Thin wrappers around LAPACK-backed routines, with the conditioning checks
and deterministic orderings the rest of the package relies on, and the
row sums that the losses and the descent share.  Inputs are small dense
matrices; nothing here is tuned for scale.  Reals pass ``real_array``,
whole numbers ``integer_array``.
"""

from __future__ import annotations

from itertools import chain

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import ztrexc

from .errors import DegenerateConfigurationError, NumericalFailureError

__all__ = [
    "solve_linear",
    "pseudo_inverse",
    "require_full_rank",
    "require_finite",
    "complex_schur",
    "min_eigenvalue_sym",
    "row_sum",
]

# relative singular-value cutoff below which a matrix is treated as singular
SINGULARITY_RTOL = 1e-10

# numpy's add.reduce over a last axis of fewer than 8 entries starts from
# +0 and adds the entries strictly left to right, so below this width
# row_sum's explicit column sums are the reduction to the last bit.  On
# small arrays they take a few calls of under a microsecond where the
# reduction takes several microseconds.  From width 8 numpy sums pairwise,
# and the reduction is kept.
UNROLLED_WIDTH = 8


def real_array(values) -> np.ndarray:
    """``values`` as floats; boolean, complex, string and object input raises TypeError."""
    arr = np.asarray(values)
    # numpy reads [2.0, True] as [2.0, 1.0]: a list, nested arr.ndim deep, is scanned for bools
    entries = [values]
    for _ in range(0 if isinstance(values, np.ndarray) else arr.ndim):
        entries = chain.from_iterable(entries)
    if arr.dtype == bool or not {bool, np.bool_}.isdisjoint(map(type, entries)):
        raise TypeError("expected real numbers, got booleans")
    return arr.astype(float, casting="same_kind", copy=False)


def integer_array(values, name: str) -> np.ndarray:
    """A new int64 ``real_array(values)``; entries int64 cannot hold raise ValueError."""
    arr = real_array(values)
    # a fractional entry fails the first test; NaN, inf and magnitudes from 2**63 the second
    if not ((np.round(arr) == arr) & (np.abs(arr) < 2.0**63)).all():
        raise ValueError(f"{name} must be integers")
    return arr.astype(np.int64)


def row_sum(v: np.ndarray) -> np.ndarray:
    """``v.sum(axis=-1)`` of a C-ordered v, bit for bit, for any layout of v."""
    width = v.shape[-1]
    if not 0 < width < UNROLLED_WIDTH:
        # the pairwise sum of numpy's contiguous loop, whatever v's layout
        return np.ascontiguousarray(v).sum(axis=-1)
    if width == 1:
        # + 0.0 as the reduction's start: a sum of -0.0 alone is +0.0
        return v[..., 0] + 0.0
    out = v[..., 0] + v[..., 1]
    for t in range(2, width):
        out += v[..., t]
    # starting from +0 changes only a sum of nothing but -0.0 entries
    out += 0.0
    return out


def solve_linear(a, b) -> np.ndarray:
    """Solve the real square system a @ x = b via column-pivoted QR.

    ``b`` may be a vector or a matrix of stacked right-hand sides.  Nothing
    here checks a: its caller, ``solve_generating_matrix``, has already
    refused any a whose smallest singular value is at most SINGULARITY_RTOL
    times its largest.  The diagonal of a triangular factor lies between
    those two values, so the factor is invertible.
    """
    q, r, piv = scipy.linalg.qr(a, pivoting=True)
    y = scipy.linalg.solve_triangular(r, q.T @ b)
    x = np.empty_like(y)
    x[piv] = y
    return x


def pseudo_inverse(u, message: str) -> np.ndarray:
    """Moore-Penrose inverse of a tall full-column-rank matrix.

    ``u`` has shape (r, m) with m <= r; a square u gives its inverse.
    Uses the SVD, so the result matches (u^T u)^(-1) u^T without forming
    the normal equations.  Rank deficiency raises
    DegenerateConfigurationError(message) through ``require_full_rank``.
    """
    u = real_array(u)
    if u.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {u.shape}")
    rows, m = u.shape
    if m > rows:
        raise ValueError(f"expected at least as many rows as columns, got {u.shape}")
    if m == 0:
        return np.zeros((0, rows))
    w, s, vt = np.linalg.svd(u, full_matrices=False)
    require_full_rank(s, message)
    return (vt.T / s) @ w.T


def require_full_rank(s, message: str) -> None:
    """Raise DegenerateConfigurationError(message) on a rank deficiency.

    ``s`` holds singular values in descending order; the matrix counts as
    rank deficient when the smallest is at most SINGULARITY_RTOL times the
    largest, and also when a value is NaN.  The error carries the
    condition number s[0] / s[-1].
    """
    if not s[-1] > SINGULARITY_RTOL * s[0]:
        cond = float("inf") if s[-1] == 0.0 else float(s[0] / s[-1])
        raise DegenerateConfigurationError(message, condition=cond)


def require_finite(a: np.ndarray, message: str) -> None:
    """Raise DegenerateConfigurationError(message) when ``a`` holds inf or NaN.

    Monomials of finite coordinates overflow once the coordinates are
    large enough for their degree, and LAPACK's factorizations of such a
    matrix fail or return NaN.
    """
    if not np.isfinite(a).all():
        raise DegenerateConfigurationError(message)


def complex_schur(m) -> tuple[np.ndarray, np.ndarray]:
    """Sorted complex Schur form (p, q) of a square matrix, as ``scipy.linalg.schur``.

    The read-only factors are an upper-triangular p and a unitary q with
    q^H m q = p; the diagonal of p holds the eigenvalues of m.  Delegates
    the factorization to LAPACK and then reorders the diagonal into the
    (real, imaginary) ascending order with LAPACK's ``ztrexc``: position
    by position, the remaining eigenvalue with the smallest
    (real, imaginary) key is moved up to it by unitary swaps of adjacent
    diagonal entries (Bai and Demmel, LAA 1993).  A swap exchanges two
    diagonal entries exactly, so the order is the stable sort of the
    first diagonal, computed once.  Raises NumericalFailureError when the
    backend does not converge or reports a failed move, or when the
    reordered factors lose the decomposition invariants.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(np.asarray(m, dtype=complex).view(float))):
        raise ValueError("matrix entries must be finite")
    try:
        p, q = scipy.linalg.schur(np.asarray(m, dtype=complex), output="complex")
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare backend failure
        raise NumericalFailureError(f"Schur iteration failed: {exc}") from exc
    k = p.shape[0]
    d = np.diag(p)
    # current[i] is the first-diagonal position of the entry now at i
    current = list(range(k))
    for i, entry in enumerate(np.lexsort((d.imag, d.real)).tolist()):
        j = current.index(entry, i)
        if j != i:
            p, q, info = ztrexc(p, q, j + 1, i + 1, overwrite_a=1, overwrite_q=1)
            if info != 0:
                raise NumericalFailureError(f"Schur reordering failed (ztrexc info {info})")
            current.insert(i, current.pop(j))

    scale = np.linalg.norm(np.asarray(m, dtype=complex))
    unitary_defect = np.linalg.norm(q.conj().T @ q - np.eye(k))
    triangular_defect = np.linalg.norm(np.tril(p, -1))
    rebuild_defect = np.linalg.norm(q @ p @ q.conj().T - m)
    if (
        unitary_defect > 1e-10 * max(k, 1)
        or triangular_defect > 1e-8 * max(np.linalg.norm(p), 1.0)
        or rebuild_defect > 1e-8 * max(scale, 1.0)
    ):
        raise NumericalFailureError(
            "Schur factors lost accuracy "
            f"(unitary {unitary_defect:.2e}, triangular {triangular_defect:.2e}, "
            f"rebuild {rebuild_defect:.2e})"
        )
    q.flags.writeable = False
    p.flags.writeable = False
    return p, q


def min_eigenvalue_sym(a) -> float:
    """Smallest eigenvalue of a symmetric matrix.

    The input must be symmetric up to an absolute defect of
    1e-12 * max(1, |a|_max); anything else raises ValueError rather than
    being silently symmetrized.
    """
    a = real_array(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    scale = max(1.0, float(np.max(np.abs(a))) if a.size else 1.0)
    defect = float(np.max(np.abs(a - a.T))) if a.size else 0.0
    if defect > 1e-12 * scale:
        raise ValueError(f"matrix is not symmetric (defect {defect:.3e})")
    return float(np.linalg.eigvalsh(a)[0])
