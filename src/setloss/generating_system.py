"""Generating polynomial systems interpolated through a finite point set.

For a set S of k points in R^n, take the first k graded-lexicographic
monomials as a quotient basis and its border as the led monomials.  The
generating matrix G collects, column by column, the coefficients that
rewrite each border monomial as a combination of basis monomials on S:

    phi_a(x) = x^a - sum_b G[b, a] x^b,     a in border, b in basis.

The k common zeros of the system (phi_a) are exactly S, which makes
||phi(x)||^2 a smooth loss vanishing precisely on S.  Multiplication
matrices assemble the same data into n commuting k x k matrices whose
joint eigenvalues are the points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DegenerateConfigurationError
from .monomial_basis import (
    MonomialBasis,
    basis_jacobian,
    border_monomials,
    evaluate_monomials,
    monomial_matrix,
    standard_monomials,
)
from .numeric_kernels import SINGULARITY_RTOL, solve_linear

__all__ = [
    "PointSet",
    "GeneratingMatrix",
    "MultiplicationMatrices",
    "CommutatorResidual",
    "vandermonde",
    "solve_generating_matrix",
    "evaluate_generators",
    "generators_jacobian",
    "multiplication_matrices",
    "commutator_residual",
    "generator_terms",
    "generator_strings",
]

# two points closer than this in the infinity norm count as duplicates
DISTINCT_TOL = 1e-12


def coincident_pairs(points: np.ndarray) -> np.ndarray:
    """Index pairs (i, j), i < j, of rows within DISTINCT_TOL, in (i, j) order."""
    gaps = np.max(np.abs(points[:, None, :] - points[None, :, :]), axis=2)
    return np.argwhere(np.triu(gaps <= DISTINCT_TOL, k=1))


@dataclass(frozen=True)
class PointSet:
    """An ordered set of k points in n dimensions.

    Points are stored as the rows of a read-only (k, n) array.  Entries
    are real, or complex for sets coming out of zero extraction.  By
    default construction rejects duplicate rows; pass
    ``check_distinct=False`` for projected sets that may collide.
    """

    points: np.ndarray
    labels: tuple | None = None
    check_distinct: bool = field(default=True, repr=False, compare=False)

    def __post_init__(self):
        pts = np.array(self.points)
        if pts.ndim != 2:
            raise ValueError(f"expected a (k, n) array of points, got shape {pts.shape}")
        if pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError(f"need at least one point and one coordinate, got {pts.shape}")
        pts = pts.astype(complex if np.iscomplexobj(pts) else float)
        if not np.all(np.isfinite(pts.view(float))):
            raise ValueError("points must be finite")
        if self.labels is not None and len(self.labels) != pts.shape[0]:
            raise ValueError("one label per point required")
        if self.check_distinct:
            pairs = coincident_pairs(pts)
            if len(pairs):
                i, j = pairs[0]
                raise ValueError(f"points {i} and {j} coincide")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def k(self) -> int:
        return self.points.shape[0]

    @property
    def n(self) -> int:
        return self.points.shape[1]

    @property
    def is_real(self) -> bool:
        return not np.iscomplexobj(self.points)


def vandermonde(points: PointSet, basis: MonomialBasis) -> np.ndarray:
    """Column-per-point monomial evaluation matrix, shape (m, k)."""
    if points.n != basis.n:
        raise ValueError(f"dimension mismatch: points in R^{points.n}, basis in R^{basis.n}")
    return monomial_matrix(points.points, basis).T


@dataclass(frozen=True)
class GeneratingMatrix:
    """Coefficient matrix of a border generating system.

    ``entries`` has shape (k, m): rows are indexed by the k basis
    monomials, columns by the m border monomials.
    """

    basis: MonomialBasis
    border: MonomialBasis
    entries: np.ndarray

    def __post_init__(self):
        ent = np.array(self.entries, dtype=float)
        if ent.shape != (len(self.basis), len(self.border)):
            raise ValueError(
                f"entries must have shape ({len(self.basis)}, {len(self.border)}), got {ent.shape}"
            )
        if not np.all(np.isfinite(ent)):
            raise ValueError("entries must be finite")
        if self.basis.n != self.border.n:
            raise ValueError("basis and border dimensions differ")
        ent.flags.writeable = False
        object.__setattr__(self, "entries", ent)

    @property
    def n(self) -> int:
        return self.basis.n

    @property
    def k(self) -> int:
        return len(self.basis)

    @property
    def border_size(self) -> int:
        return len(self.border)

    def frobenius_norm(self) -> float:
        return float(np.linalg.norm(self.entries))

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "b0": [list(m.exponents) for m in self.basis],
            "b1": [list(m.exponents) for m in self.border],
            "g": [float(v) for v in self.entries.reshape(-1)],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "GeneratingMatrix":
        n = int(payload["n"])
        k = int(payload["k"])
        basis = MonomialBasis.from_json({"n": n, "members": payload["b0"]})
        border = MonomialBasis.from_json({"n": n, "members": payload["b1"]})
        if len(basis) != k:
            raise ValueError(f"declared k={k} but basis has {len(basis)} members")
        entries = np.array(payload["g"], dtype=float).reshape(k, len(border))
        return cls(basis=basis, border=border, entries=entries)


def solve_generating_matrix(points: PointSet) -> GeneratingMatrix:
    """Interpolate the generating matrix of a point set in closed form.

    Solves X0^T G = X1^T where X0, X1 are the Vandermonde matrices of the
    basis and border monomials on the points.  Requires X0 nonsingular
    (relative singular-value gap above 1e-10); near-collinear or otherwise
    non-generic configurations raise DegenerateConfigurationError.

    Complex point sets are accepted only when they are closed under
    conjugation, in which case the matrix is real and is returned as such.
    """
    b0 = standard_monomials(points.n, points.k)
    b1 = border_monomials(b0)
    x0 = vandermonde(points, b0)
    x1 = vandermonde(points, b1)
    s = np.linalg.svd(x0, compute_uv=False)
    if s[0] == 0.0 or s[-1] <= SINGULARITY_RTOL * s[0]:
        cond = float("inf") if s[-1] == 0.0 else float(s[0] / s[-1])
        raise DegenerateConfigurationError(
            "point set is degenerate for interpolation", condition=cond
        )
    g = solve_linear(x0.T, x1.T)
    if np.iscomplexobj(g):
        drift = float(np.max(np.abs(g.imag)))
        if drift > 1e-8 * (1.0 + float(np.max(np.abs(g.real)))):
            raise ValueError(
                f"complex point set is not conjugation closed (imaginary drift {drift:.3e})"
            )
        g = g.real
    return GeneratingMatrix(basis=b0, border=b1, entries=np.ascontiguousarray(g))


def evaluate_generators(gm: GeneratingMatrix, x) -> np.ndarray:
    """Evaluate all generating polynomials at x, in border order.

    x of shape (n,) gives shape (m,); a batch (N, n) gives (N, m).
    """
    monomials = monomial_matrix if np.ndim(x) == 2 else evaluate_monomials
    rest = monomials(x, gm.basis)
    # summed per row, so a row's rounding does not depend on its batch
    return monomials(x, gm.border) - (rest[..., :, None] * gm.entries).sum(axis=-2)


def generators_jacobian(gm: GeneratingMatrix, x) -> np.ndarray:
    """Jacobian of the generator evaluation map, shape (m, n) or (N, m, n)."""
    rest = basis_jacobian(x, gm.basis)
    return basis_jacobian(x, gm.border) - (
        gm.entries[..., :, :, None] * rest[..., :, None, :]
    ).sum(axis=-3)


@dataclass(frozen=True)
class MultiplicationMatrices:
    """The n matrices of multiplication by each variable on the quotient basis."""

    basis: MonomialBasis
    mats: tuple[np.ndarray, ...]

    @property
    def n(self) -> int:
        return len(self.mats)

    @property
    def k(self) -> int:
        return len(self.basis)

    def combine(self, weights) -> np.ndarray:
        w = np.asarray(weights)
        if w.shape != (self.n,):
            raise ValueError(f"expected {self.n} weights, got shape {w.shape}")
        out = np.zeros((self.k, self.k), dtype=np.result_type(w.dtype, float))
        for wi, mat in zip(w, self.mats):
            out += wi * mat
        return out


def multiplication_matrices(gm: GeneratingMatrix) -> MultiplicationMatrices:
    """Assemble the multiplication-by-x_i matrices from a generating matrix.

    Column nu of the i-th matrix holds the coefficients of x_i * x^nu on
    the quotient basis: a unit vector when the shifted monomial stays in
    the basis, the matching generating-matrix column when it crosses into
    the border.
    """
    k = gm.k
    mats = []
    for i in range(gm.n):
        mat = np.zeros((k, k))
        for col, nu in enumerate(gm.basis):
            target = nu.shifted(i)
            if target in gm.basis:
                mat[gm.basis.position(target), col] = 1.0
            else:
                mat[:, col] = gm.entries[:, gm.border.position(target)]
        mat.flags.writeable = False
        mats.append(mat)
    return MultiplicationMatrices(basis=gm.basis, mats=tuple(mats))


class CommutatorResidual(NamedTuple):
    """Frobenius-norm summary of all pairwise commutators."""

    total: float
    pairs: tuple[np.ndarray, ...]
    index_pairs: tuple[tuple[int, int], ...]


def commutator_residual(gm: GeneratingMatrix) -> CommutatorResidual:
    """All pairwise commutators [M_i, M_j], i < j, and their total norm.

    The total is the square root of the summed squared Frobenius norms.
    It vanishes (up to roundoff) exactly when the generators admit k
    common zeros counted with multiplicity; for n = 1 there are no pairs
    and the total is zero.
    """
    mats = multiplication_matrices(gm).mats
    pairs = []
    index_pairs = []
    total_sq = 0.0
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            c = mats[i] @ mats[j] - mats[j] @ mats[i]
            pairs.append(c)
            index_pairs.append((i, j))
            total_sq += float(np.sum(c * c))
    return CommutatorResidual(
        total=float(np.sqrt(total_sq)),
        pairs=tuple(pairs),
        index_pairs=tuple(index_pairs),
    )


def generator_terms(gm: GeneratingMatrix) -> list[dict[tuple[int, ...], float]]:
    """Coefficient maps of every generator, keyed by exponent tuple.

    Each map carries the +1 leading border coefficient and the negated
    matrix column on the basis monomials, zeros included.
    """
    out = []
    for j, alpha in enumerate(gm.border):
        terms = {alpha.exponents: 1.0}
        for i, beta in enumerate(gm.basis):
            terms[beta.exponents] = -float(gm.entries[i, j])
        out.append(terms)
    return out


def _monomial_str(exps: tuple[int, ...]) -> str:
    parts = []
    for i, e in enumerate(exps):
        if e == 0:
            continue
        name = f"x{i + 1}"
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def _coeff_str(c: float) -> str:
    return f"{c:.12g}"


def generator_strings(gm: GeneratingMatrix) -> list[str]:
    """Human-readable rendering of each generator polynomial."""
    from .monomial_basis import grlex_key

    out = []
    for terms in generator_terms(gm):
        ordered = sorted(
            ((e, c) for e, c in terms.items() if c != 0.0),
            key=lambda item: grlex_key(item[0]),
            reverse=True,
        )
        pieces = []
        for e, c in ordered:
            mono = _monomial_str(e)
            mag = abs(c)
            if mono == "1":
                body = _coeff_str(mag)
            elif mag == 1.0:
                body = mono
            else:
                body = f"{_coeff_str(mag)}*{mono}"
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        out.append(" ".join(pieces) if pieces else "0")
    return out
