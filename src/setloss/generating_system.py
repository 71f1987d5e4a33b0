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

from bisect import bisect_right
from dataclasses import dataclass
from functools import cache, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DegenerateConfigurationError
from .monomial_basis import (
    MonomialBasis,
    basis_jacobian,
    border_monomials,
    grlex_key,
    monomial_matrix,
    standard_monomials,
)
from .numeric_kernels import (
    integer_array,
    real_array,
    require_finite,
    require_full_rank,
    solve_linear,
)

__all__ = [
    "PointSet",
    "GeneratingMatrix",
    "ShiftTable",
    "solve_generating_matrix",
    "evaluate_generators",
    "generators_jacobian",
    "shift_table",
    "multiplication_matrices",
    "commutators",
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


def _real_rows(values, name: str) -> np.ndarray:
    """``values`` as a new read-only finite float (rows, n) array, rows and n >= 1.

    The entries pass ``real_array``; any other shape raises ValueError,
    and a NaN or infinite entry DegenerateConfigurationError.
    """
    arr = np.array(real_array(values))
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-d array of {name}, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"need at least one row of {name} and one coordinate, got {arr.shape}")
    require_finite(arr, f"{name} must be finite")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class PointSet:
    """An ordered set of k real points in n dimensions.

    Points are stored as the rows of a read-only float (k, n) array.
    Construction refuses non-finite entries and duplicate rows with
    DegenerateConfigurationError.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = _real_rows(self.points, "points")
        pairs = coincident_pairs(pts)
        if len(pairs):
            i, j = pairs[0]
            raise DegenerateConfigurationError(f"points {i} and {j} coincide")
        object.__setattr__(self, "points", pts)

    @property
    def k(self) -> int:
        return self.points.shape[0]

    @property
    def n(self) -> int:
        return self.points.shape[1]

    def min_gap(self) -> float:
        """The smallest Euclidean distance between two of the points; needs k > 1."""
        gaps = np.linalg.norm(self.points[:, None, :] - self.points[None, :, :], axis=2)
        return float(gaps[np.triu_indices(self.k, 1)].min())


@dataclass(frozen=True)
class GeneratingMatrix:
    """Coefficient matrix of a border generating system.

    The basis fixes the system: its border, the led monomials, is
    ``border_monomials(basis)``.  ``entries`` has shape (k, m): rows are
    indexed by the k basis monomials, columns by the m border monomials.
    """

    basis: MonomialBasis
    entries: np.ndarray

    def __post_init__(self):
        ent = np.array(real_array(self.entries))
        if ent.shape != (len(self.basis), len(self.border)):
            raise ValueError(
                f"entries must have shape ({len(self.basis)}, {len(self.border)}), got {ent.shape}"
            )
        if not np.all(np.isfinite(ent)):
            raise ValueError("entries must be finite")
        ent.flags.writeable = False
        object.__setattr__(self, "entries", ent)

    @property
    def border(self) -> MonomialBasis:
        return border_monomials(self.basis)

    @property
    def n(self) -> int:
        return self.basis.n

    @property
    def k(self) -> int:
        return len(self.basis)

    def frobenius_norm(self) -> float:
        return float(np.linalg.norm(self.entries))

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "b0": self.basis.powers.tolist(),
            "b1": self.border.powers.tolist(),
            "g": self.entries.reshape(-1).tolist(),
        }

    @classmethod
    def from_json(cls, payload: dict) -> "GeneratingMatrix":
        """Read a matrix back; a standard basis comes back interned.

        When ``b0`` lists the members of ``standard_monomials(n, k)``, the
        matrix gets that very object, and with it the shift table and
        rendering structures already built for it.  Any other basis gets
        an object of its own.  ``b1`` must be the border of the basis, row
        for row, as ``to_json`` writes it; anything else raises ValueError.
        Every field passes ``integer_array`` or ``real_array``, so text or
        a boolean anywhere in them raises TypeError.
        """
        n, k = (int(integer_array(payload[key], key)) for key in ("n", "k"))
        b0 = integer_array(payload["b0"], "exponents")
        standard = n >= 1 and k >= 1 and len(b0) == k
        if standard and np.array_equal(b0, standard_monomials(n, k).powers):
            basis = standard_monomials(n, k)
        else:
            basis = MonomialBasis.from_json({"n": n, "members": b0})
        if len(basis) != k:
            raise ValueError(f"declared k={k} but basis has {len(basis)} members")
        border = border_monomials(basis)
        if not np.array_equal(real_array(payload["b1"]), border.powers):
            raise ValueError("b1 must list the border of b0 in graded lexicographic order")
        entries = real_array(payload["g"]).reshape(k, len(border))
        return cls(basis=basis, entries=entries)


def solve_generating_matrix(points: PointSet) -> GeneratingMatrix:
    """Interpolate the generating matrix of a point set in closed form.

    Solves X0^T G = X1^T where X0, X1 are the Vandermonde matrices of the
    basis and border monomials on the points.  Requires X0 nonsingular
    (relative singular-value gap above 1e-10); near-collinear or otherwise
    non-generic configurations raise DegenerateConfigurationError, and so
    do points whose monomials overflow.
    """
    b0 = standard_monomials(points.n, points.k)
    b1 = border_monomials(b0)
    # overflowing monomials are refused below, not warned about first
    with np.errstate(over="ignore", invalid="ignore"):
        x0 = monomial_matrix(points.points, b0).T
        x1 = monomial_matrix(points.points, b1).T
    for x in (x0, x1):
        require_finite(x, "monomials of the points overflow: coordinates too large to interpolate")
    require_full_rank(
        np.linalg.svd(x0, compute_uv=False), "point set is degenerate for interpolation"
    )
    g = solve_linear(x0.T, x1.T)
    return GeneratingMatrix(basis=b0, entries=g)


def evaluate_generators(gm: GeneratingMatrix, points) -> np.ndarray:
    """Evaluate all generating polynomials at a batch (N, n), shape (N, m) in border order."""
    rest = monomial_matrix(points, gm.basis)
    # summed per row, so a row's rounding does not depend on its batch
    return monomial_matrix(points, gm.border) - (rest[:, :, None] * gm.entries).sum(axis=1)


def generators_jacobian(gm: GeneratingMatrix, points) -> np.ndarray:
    """Jacobians of the generator evaluation map at a batch (N, n), shape (N, m, n)."""
    rest = basis_jacobian(points, gm.basis)
    return basis_jacobian(points, gm.border) - (
        gm.entries[:, :, None] * rest[:, :, None, :]
    ).sum(axis=1)


class ShiftTable(NamedTuple):
    """The constant structure of the multiplication matrices of a basis.

    ``unit`` is a boolean (n, k, k) array: entry (i, r, c) is True when
    x_i times basis monomial c is basis monomial r.  The other fields
    list the products that cross into the border, one entry per product:
    x_i times basis monomial ``col[t]`` is border monomial ``border[t]``,
    with i = ``var[t]``.  A table lives as long as its basis, so it keeps
    the 0/1 pattern at one byte an entry, not eight.
    """

    unit: np.ndarray
    var: np.ndarray
    col: np.ndarray
    border: np.ndarray

    def matrices(self, entries: np.ndarray) -> np.ndarray:
        """The float (n, k, k) stack of M_i for a (k, m) generating matrix.

        The stack starts as ``unit`` cast to 0.0 and 1.0, and each border
        product writes its generating-matrix column in.
        """
        mats = self.unit.astype(float)
        mats[self.var, :, self.col] = entries[:, self.border].T
        return mats


def _basis_structure(name: str, build, basis: MonomialBasis):
    """``build(basis)``, made once per basis object.

    Kept on the basis, so it lives as long as the basis does: for the
    interned ``standard_monomials(n, k)`` that is the whole process, and a
    basis of its own takes its structures with it.
    """
    entry = basis._derived.get(name)
    if entry is None:
        entry = basis._derived[name] = build(basis)
    return entry


def _shifts(basis: MonomialBasis) -> "ShiftTable":
    """The one shift table of a basis."""
    return _basis_structure("shifts", shift_table, basis)


def shift_table(basis: MonomialBasis) -> ShiftTable:
    """Where x_i * x^nu lands, for every variable i and basis monomial nu.

    A product that is itself a basis monomial gives a unit column of
    M_i; otherwise it is a border monomial, by the border's definition,
    whose generating-matrix column becomes that column of M_i.
    """
    n = basis.n
    border = border_monomials(basis)
    # shifted[i, c] = exponents of x_i * basis[c]
    shifted = basis.powers[None, :, :] + np.eye(n, dtype=np.int64)[:, None, :]
    # in_basis[i, r, c]: x_i * basis[c] == basis[r]; in_border[i, c, q] likewise.
    # Compared one coordinate at a time: np.all over the short last axis
    # is several times slower at k = 35.
    in_basis = np.ones((n, len(basis), len(basis)), dtype=bool)
    in_border = np.ones((n, len(basis), len(border)), dtype=bool)
    for t in range(n):
        in_basis &= shifted[:, None, :, t] == basis.powers[None, :, None, t]
        in_border &= shifted[:, :, None, t] == border.powers[None, None, :, t]
    stays = in_basis.any(axis=1)
    var, col, target = np.nonzero(in_border & ~stays[:, :, None])
    table = ShiftTable(unit=in_basis, var=var, col=col, border=target)
    # every matrix and fit on the basis shares its table, so no caller may change it
    for arr in table:
        arr.flags.writeable = False
    return table


def multiplication_matrices(gm: GeneratingMatrix) -> np.ndarray:
    """The read-only (n, k, k) stack of multiplication-by-x_i matrices.

    Column nu of the i-th matrix holds the coefficients of x_i * x^nu on
    the quotient basis: a unit vector when the shifted monomial stays in
    the basis, the matching generating-matrix column when it crosses into
    the border.
    """
    mats = _shifts(gm.basis).matrices(gm.entries)
    mats.flags.writeable = False
    return mats


@lru_cache(maxsize=None)
def _index_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    # np.triu_indices costs several times a small commutator stack, and the
    # fit asks for one stack per trial step; n is the number of variables,
    # so the cache stays a few entries long
    pairs = np.triu_indices(n, k=1)
    for arr in pairs:
        arr.flags.writeable = False
    return pairs


def commutators(mats: np.ndarray) -> np.ndarray:
    """The (n(n-1)/2, k, k) stack of [M_i, M_j] over i < j, in np.triu_indices order."""
    first, second = _index_pairs(len(mats))
    mi, mj = mats.take(first, axis=0), mats.take(second, axis=0)
    return mi @ mj - mj @ mi


def commutator_residual(mats: np.ndarray) -> float:
    """Total Frobenius norm of all pairwise commutators [M_i, M_j], i < j.

    ``mats`` is the (n, k, k) stack of ``multiplication_matrices``.  The
    total vanishes (up to roundoff) exactly when the generators admit k
    common zeros counted with multiplicity; for n = 1 there are no pairs
    and it is zero.
    """
    return float(np.linalg.norm(commutators(mats)))


def generator_terms(gm: GeneratingMatrix) -> list[dict[tuple[int, ...], float]]:
    """Coefficient maps of every generator, keyed by exponent tuple.

    Each map carries the +1 leading border coefficient and the negated
    matrix column on the basis monomials, zeros included.
    """
    basis = list(gm.basis)
    out = []
    for alpha, column in zip(gm.border, (-gm.entries).T.tolist()):
        terms = {alpha: 1.0}
        terms.update(zip(basis, column))
        out.append(terms)
    return out


@cache
def _monomial_str(exps: tuple[int, ...]) -> str:
    # one string object per monomial for the whole process: the rendering
    # preludes of every shape that holds the monomial share it
    parts = []
    for i, e in enumerate(exps):
        if e == 0:
            continue
        name = f"x{i + 1}"
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def _strings_prelude(basis: MonomialBasis):
    """What ``generator_strings`` needs of a basis and its border.

    The basis order, descending in grlex, and the basis names in that
    order; per border monomial, only the place of its -1 term in that
    order and its own name, in two lists.  The structure lives as long as
    the basis, so the k + 1 names of a generator are put together as it
    is written, not kept once per border monomial.  The names come from
    ``_monomial_str``'s cache, so the preludes of all shapes hold one
    string per monomial between them.
    """
    border = border_monomials(basis)
    keys = [grlex_key(b) for b in basis]
    order = sorted(range(len(basis)), key=keys.__getitem__, reverse=True)
    ascending = [keys[i] for i in reversed(order)]
    monos = [_monomial_str(basis[i]) for i in order]
    # the border term follows every basis term with a larger key
    places = [len(ascending) - bisect_right(ascending, grlex_key(alpha)) for alpha in border]
    border_names = [_monomial_str(alpha) for alpha in border]
    return order, monos, places, border_names


def generator_strings(gm: GeneratingMatrix) -> list[str]:
    """Human-readable rendering of each generator polynomial.

    Terms run in descending grlex order with zero coefficients left out;
    magnitudes print to 12 significant digits, and a unit magnitude is
    left out except on the constant monomial.  The monomials are ordered
    and named once per basis; each generator then reads
    its column of ``entries`` once, with its border monomial placed as a
    term of coefficient -1, and every term is written with its sign as
    " + " or " - " before the first is trimmed.
    """
    order, monos, places, border_names = _basis_structure("strings", _strings_prelude, gm.basis)
    out = []
    for at, name, column in zip(places, border_names, gm.entries[order].T.tolist()):
        column[at:at] = (-1.0,)
        names = monos[:at] + [name] + monos[at:]
        pieces = []
        for g, mono in zip(column, names):
            # the term is -g x^b
            if g > 0.0:
                sign = " - "
            elif g < 0.0:
                sign, g = " + ", -g
            else:
                continue
            if mono == "1":
                pieces.append(f"{sign}{g:.12g}")
            elif g == 1.0:
                pieces.append(sign + mono)
            else:
                pieces.append(f"{sign}{g:.12g}*{mono}")
        text = "".join(pieces)
        out.append(text[3:] if text[1] == "+" else "-" + text[3:])
    return out
