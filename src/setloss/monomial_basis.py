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

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .errors import InvalidStateError

__all__ = [
    "ExponentVector",
    "MonomialBasis",
    "grlex_key",
    "grlex_compare",
    "standard_monomials",
    "border_monomials",
    "evaluate_monomials",
    "monomial_matrix",
    "basis_jacobian",
    "monomial_lift",
]


@dataclass(frozen=True)
class ExponentVector:
    """Exponent vector of a monomial in n variables."""

    exponents: tuple[int, ...]

    def __post_init__(self):
        exps = tuple(int(e) for e in self.exponents)
        if any(e < 0 for e in exps):
            raise ValueError(f"exponents must be nonnegative, got {exps}")
        object.__setattr__(self, "exponents", exps)

    @cached_property
    def degree(self) -> int:
        return sum(self.exponents)

    @property
    def n(self) -> int:
        return len(self.exponents)

    def shifted(self, i: int) -> "ExponentVector":
        """Exponent vector of x_i times this monomial (i is 0-based)."""
        e = list(self.exponents)
        e[i] += 1
        return ExponentVector(tuple(e))

    def __len__(self) -> int:
        return len(self.exponents)

    def __iter__(self) -> Iterator[int]:
        return iter(self.exponents)

    def __getitem__(self, i: int) -> int:
        return self.exponents[i]

    def __repr__(self) -> str:
        return f"ExponentVector{self.exponents}"


def _as_exponents(alpha) -> tuple[int, ...]:
    if isinstance(alpha, ExponentVector):
        return alpha.exponents
    return tuple(int(e) for e in alpha)


def grlex_key(alpha):
    """Sort key realizing the graded lexicographic enumeration order."""
    exps = _as_exponents(alpha)
    return (sum(exps), tuple(-e for e in exps))


def grlex_compare(a, b) -> int:
    """Three-way comparison; -1 means a is enumerated before b.

    Raises ValueError when the two vectors live in different dimensions.
    """
    ea, eb = _as_exponents(a), _as_exponents(b)
    if len(ea) != len(eb):
        raise ValueError(f"dimension mismatch: {len(ea)} vs {len(eb)}")
    ka, kb = grlex_key(ea), grlex_key(eb)
    if ka < kb:
        return -1
    if ka > kb:
        return 1
    return 0


@dataclass(frozen=True)
class MonomialBasis:
    """An ordered list of distinct monomials in a fixed dimension."""

    n: int
    members: tuple[ExponentVector, ...]

    def __post_init__(self):
        members = tuple(
            m if isinstance(m, ExponentVector) else ExponentVector(tuple(m))
            for m in self.members
        )
        object.__setattr__(self, "members", members)
        if self.n < 1:
            raise ValueError(f"dimension must be positive, got {self.n}")
        for m in members:
            if m.n != self.n:
                raise ValueError(f"member {m} does not live in {self.n} variables")
        if len({m.exponents for m in members}) != len(members):
            raise ValueError("basis members must be distinct")

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[ExponentVector]:
        return iter(self.members)

    def __getitem__(self, i: int) -> ExponentVector:
        return self.members[i]

    @cached_property
    def powers(self) -> np.ndarray:
        """Member exponents stacked as an integer array of shape (m, n)."""
        arr = np.array([m.exponents for m in self.members], dtype=np.int64)
        arr = arr.reshape(len(self.members), self.n)
        arr.flags.writeable = False
        return arr

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
        return {m.exponents: i for i, m in enumerate(self.members)}

    def position(self, alpha) -> int:
        """Index of a monomial in this basis; ValueError when absent."""
        key = _as_exponents(alpha)
        try:
            return self._positions[key]
        except KeyError:
            raise ValueError(f"monomial {key} is not a member") from None

    def __contains__(self, alpha) -> bool:
        return _as_exponents(alpha) in self._positions

    def to_json(self) -> dict:
        return {"n": self.n, "members": [list(m.exponents) for m in self.members]}

    @classmethod
    def from_json(cls, payload: dict) -> "MonomialBasis":
        return cls(
            n=int(payload["n"]),
            members=tuple(ExponentVector(tuple(m)) for m in payload["members"]),
        )


def _degree_level(n: int, d: int) -> Iterator[tuple[int, ...]]:
    # enumerate all exponent vectors of total degree d, first variable heaviest
    if n == 1:
        yield (d,)
        return
    for head in range(d, -1, -1):
        for tail in _degree_level(n - 1, d - head):
            yield (head,) + tail


def standard_monomials(n: int, k: int) -> MonomialBasis:
    """First k monomials of NN^n in graded lexicographic order.

    The result is divisor closed: every divisor of a member is an earlier
    member, because a proper divisor has strictly smaller degree and all
    complete degree levels below the last one are included.
    """
    if n < 1 or k < 1:
        raise ValueError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    out: list[ExponentVector] = []
    d = 0
    while len(out) < k:
        for exps in _degree_level(n, d):
            out.append(ExponentVector(exps))
            if len(out) == k:
                break
        d += 1
    return MonomialBasis(n=n, members=tuple(out))


def border_monomials(basis: MonomialBasis) -> MonomialBasis:
    """Monomials one variable-multiplication away from ``basis``.

    Computes the union of x_i * basis over all variables, minus the basis
    itself, sorted in graded lexicographic order.
    """
    inside = {m.exponents for m in basis.members}
    out = {
        m.shifted(i).exponents
        for m in basis.members
        for i in range(basis.n)
    } - inside
    members = tuple(ExponentVector(e) for e in sorted(out, key=grlex_key))
    return MonomialBasis(n=basis.n, members=members)


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
    if len(basis) == 0 or basis.members[0].degree != 0:
        raise InvalidStateError("basis must start with the constant monomial")
    if np.ndim(x) == 2:
        return monomial_matrix(x, basis)[:, 1:]
    return evaluate_monomials(x, basis)[1:]
