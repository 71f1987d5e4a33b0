"""Monomial bases under the graded lexicographic order.

Monomials x^a are identified with their exponent vectors a in NN^n.  The
order used everywhere is graded lexicographic: lower total degree comes
first, and within a degree the variable x1 dominates x2, which dominates
x3, and so on.  For n = 2 the enumeration starts

    (0,0), (1,0), (0,1), (2,0), (1,1), (0,2), (3,0), ...

The first k monomials of this enumeration always form a divisor-closed
set, so they can serve as a basis of a k-dimensional polynomial quotient.
The "border" of such a set collects the monomials reachable from it by one
multiplication with a variable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import InvalidStateError

__all__ = [
    "MonomialBasis",
    "grlex_key",
    "standard_monomials",
    "border_monomials",
    "evaluate_monomials",
    "monomial_matrix",
    "basis_jacobian",
    "monomial_lift",
]


def grlex_key(alpha):
    """Sort key realizing the graded lexicographic enumeration order."""
    exps = tuple(int(e) for e in alpha)
    return (sum(exps), tuple(-e for e in exps))


@dataclass(frozen=True, eq=False)
class MonomialBasis:
    """An ordered list of distinct monomials in n variables.

    The members are the rows of ``powers``, a read-only int64 array of
    shape (m, n).  Iterating over a basis or indexing it yields plain
    exponent tuples.
    """

    n: int
    powers: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"dimension must be positive, got {self.n}")
        arr = np.array(self.powers, dtype=np.int64)
        if arr.shape == (0,):
            arr = arr.reshape(0, self.n)
        if arr.ndim != 2 or arr.shape[1] != self.n:
            raise ValueError(f"members must be exponent vectors in {self.n} variables")
        if (arr < 0).any():
            raise ValueError("exponents must be nonnegative")
        arr.flags.writeable = False
        object.__setattr__(self, "powers", arr)
        if len(self._positions) != len(arr):
            raise ValueError("basis members must be distinct")

    def __eq__(self, other) -> bool:
        if not isinstance(other, MonomialBasis):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.powers, other.powers)

    def __len__(self) -> int:
        return len(self.powers)

    def __iter__(self):
        return iter(self._positions)

    def __getitem__(self, i: int) -> tuple[int, ...]:
        return tuple(self.powers[i].tolist())

    @cached_property
    def _lowered_powers(self) -> np.ndarray:
        """Exponents after differentiating in each variable, shape (n, m, n).

        Slice i holds the exponents with a_ji - 1 in column i, clamped at
        zero so that 0 * x^(-1) cannot produce inf at x_i = 0.
        """
        arr = np.repeat(self.powers[None, :, :], self.n, axis=0)
        for i in range(self.n):
            arr[i, :, i] = np.maximum(arr[i, :, i] - 1, 0)
        arr.flags.writeable = False
        return arr

    @cached_property
    def _positions(self) -> dict[tuple[int, ...], int]:
        return {tuple(m): i for i, m in enumerate(self.powers.tolist())}

    def position(self, alpha) -> int:
        """Index of a monomial in this basis; ValueError when absent."""
        key = tuple(int(e) for e in alpha)
        try:
            return self._positions[key]
        except KeyError:
            raise ValueError(f"monomial {key} is not a member") from None

    def __contains__(self, alpha) -> bool:
        return tuple(int(e) for e in alpha) in self._positions

    def to_json(self) -> dict:
        return {"n": self.n, "members": self.powers.tolist()}

    @classmethod
    def from_json(cls, payload: dict) -> "MonomialBasis":
        return cls(n=int(payload["n"]), powers=payload["members"])


def _degree_level(n: int, d: int):
    # enumerate all exponent vectors of total degree d, first variable heaviest
    if n == 1:
        yield (d,)
        return
    for head in range(d, -1, -1):
        for tail in _degree_level(n - 1, d - head):
            yield (head,) + tail


@cache
def standard_monomials(n: int, k: int) -> MonomialBasis:
    """First k monomials of NN^n in graded lexicographic order.

    The result is divisor closed: every divisor of a member is an earlier
    member, because a proper divisor has strictly smaller degree and all
    complete degree levels below the last one are included.  Bases are
    immutable, so one object per (n, k) serves every caller.
    """
    if n < 1 or k < 1:
        raise ValueError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    out: list[tuple[int, ...]] = []
    d = 0
    while len(out) < k:
        for exps in _degree_level(n, d):
            out.append(exps)
            if len(out) == k:
                break
        d += 1
    return MonomialBasis(n=n, powers=out)


def border_monomials(basis: MonomialBasis) -> MonomialBasis:
    """Monomials one variable-multiplication away from ``basis``.

    Computes the union of x_i * basis over all variables, minus the basis
    itself, sorted in graded lexicographic order.
    """
    shifted = basis.powers[:, None, :] + np.eye(basis.n, dtype=np.int64)
    out = {tuple(e) for e in shifted.reshape(-1, basis.n).tolist()}
    out.difference_update(basis._positions)
    return MonomialBasis(n=basis.n, powers=sorted(out, key=grlex_key))


def _points(x, basis: MonomialBasis, batched: bool) -> np.ndarray:
    # real input is computed in float, complex input stays complex
    x = np.asarray(x)
    if x.ndim != (2 if batched else 1) or x.shape[-1] != basis.n:
        want = f"(N, {basis.n})" if batched else f"({basis.n},)"
        raise ValueError(f"expected shape {want}, got {x.shape}")
    return x if np.iscomplexobj(x) else x.astype(float, copy=False)


def evaluate_monomials(x, basis: MonomialBasis) -> np.ndarray:
    """Vector (x^a for a in basis), in basis order.

    Accepts real or complex x of shape (n,).  The constant monomial
    evaluates to 1 everywhere, including at x = 0.
    """
    x = _points(x, basis, batched=False)
    return np.prod(x[None, :] ** basis.powers, axis=1)


def monomial_matrix(points, basis: MonomialBasis) -> np.ndarray:
    """Rows of monomial evaluations for a batch of points, shape (N, m)."""
    pts = _points(points, basis, batched=True)
    return np.prod(pts[:, None, :] ** basis.powers[None, :, :], axis=2)


def basis_jacobian(x, basis: MonomialBasis) -> np.ndarray:
    """Jacobian of the monomial evaluation map, shape (m, n) or (N, m, n).

    Entry (j, i) is d(x^a_j)/dx_i = a_ji * x^(a_j - e_i), with the usual
    convention that the derivative is zero when a_ji = 0.  A batch of
    points of shape (N, n) gives one Jacobian per row.
    """
    x = _points(x, basis, batched=np.ndim(x) == 2)
    # (..., n, m): the monomials lowered in x_i, differentiated in x_i
    lowered = np.prod(x[..., None, None, :] ** basis._lowered_powers, axis=-1)
    return np.swapaxes(basis.powers.T * lowered, -1, -2)


def monomial_lift(x, basis: MonomialBasis) -> np.ndarray:
    """Evaluate every non-constant member of a basis headed by 1.

    The basis must start with the constant monomial; the returned vector
    drops that leading 1, giving a polynomial embedding of x into
    dimension m - 1.  A batch of points (N, n) gives one lift per row.
    """
    if len(basis) == 0 or any(basis[0]):
        raise InvalidStateError("basis must start with the constant monomial")
    if np.ndim(x) == 2:
        return monomial_matrix(x, basis)[:, 1:]
    return evaluate_monomials(x, basis)[1:]
