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
from typing import NamedTuple

import numpy as np

from .numeric_kernels import integer_array, real_array

__all__ = [
    "MonomialBasis",
    "grlex_key",
    "standard_monomials",
    "border_monomials",
    "monomial_matrix",
    "basis_jacobian",
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
    exponent tuples, built afresh from ``powers`` on every call: a basis
    lives as long as its shape is in use, so it keeps no map from member
    to position.
    """

    n: int
    powers: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"dimension must be positive, got {self.n}")
        arr = integer_array(self.powers, "exponents")
        if arr.shape == (0,):
            arr = arr.reshape(0, self.n)
        if arr.ndim != 2 or arr.shape[1] != self.n:
            raise ValueError(f"members must be exponent vectors in {self.n} variables")
        if (arr < 0).any():
            raise ValueError("exponents must be nonnegative")
        arr.flags.writeable = False
        object.__setattr__(self, "powers", arr)
        if len(set(self)) != len(arr):
            raise ValueError("basis members must be distinct")

    def __eq__(self, other) -> bool:
        if not isinstance(other, MonomialBasis):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.powers, other.powers)

    def __len__(self) -> int:
        return len(self.powers)

    def __iter__(self):
        return map(tuple, self.powers.tolist())

    def __getitem__(self, i: int) -> tuple[int, ...]:
        return tuple(self.powers[i].tolist())

    @cached_property
    def _value_plan(self) -> "_ProductPlan":
        return _product_plan(self.powers, len(self))

    @cached_property
    def _jacobian_plan(self) -> "_ProductPlan":
        # entry (i, j) is a_ji x^(a_j - e_i), in the (n, m) layout of the
        # broadcast formula; a zero exponent gives a zero entry
        lowered = self.powers[None, :, :] - np.eye(self.n, dtype=np.int64)[:, None, :]
        scale = self.powers.T.astype(float)
        rows = np.where((scale > 0)[:, :, None], lowered, -1)
        return _product_plan(rows.reshape(-1, self.n), len(self), scale.reshape(-1))

    @cached_property
    def _border(self) -> "MonomialBasis":
        shifted = self.powers[:, None, :] + np.eye(self.n, dtype=np.int64)
        out = {tuple(e) for e in shifted.reshape(-1, self.n).tolist()}
        out.difference_update(self)
        return MonomialBasis(n=self.n, powers=sorted(out, key=grlex_key))

    @cached_property
    def _derived(self) -> dict:
        # structures that other modules build from this basis alone, such
        # as its shift table, keyed by name; they live as long as the basis
        return {}

    def to_json(self) -> dict:
        return {"n": self.n, "members": self.powers.tolist()}

    @classmethod
    def from_json(cls, payload: dict) -> "MonomialBasis":
        return cls(n=int(integer_array(payload["n"], "n")), powers=payload["members"])


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
    immutable, so one object per (n, k) serves every caller, and so do
    its border and every structure derived from it, for the whole
    process.
    """
    n, k = integer_array((n, k), f"n={n} and k={k}").tolist()
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
    itself, sorted in graded lexicographic order.  Bases are immutable, so
    the border is built once per basis object and shared, along with the
    evaluation plans it caches.
    """
    return basis._border


class _ProductPlan(NamedTuple):
    """How to multiply out a list of exponent rows in a few numpy calls.

    Entry r is the product, left to right over the variables, of x_i for
    an exponent of 1 and of x_i ** a for an exponent a >= 2, times
    ``scale[r]`` when a scale is given; a row of -1 stands for a zero
    entry, whose scale is 0.  An exponent of 0 contributes no factor:
    x ** 0 is exactly 1 and y * 1 exactly y, so the result is the
    broadcast formula ``prod(x ** rows)`` to the last bit.  Only the
    power needs care, as numpy's power loop rounds differently from
    x * x, and differently again when its exponent operand is a single
    value: ``pow_rows`` packs the distinct exponents of 2 or more of each
    variable into the rows of a (q, n) array, raised in the broadcast
    shape of the full formula, so the same loop runs on fewer elements.
    ``factors`` (r, L) indexes each entry's factors in the source columns
    [x_1 .. x_n, 1, x ** pow_rows], padded with the 1.
    """

    pow_rows: np.ndarray
    factors: np.ndarray
    scale: np.ndarray | None


def _product_plan(rows: np.ndarray, members: int, scale=None) -> _ProductPlan:
    n = rows.shape[1]
    high = [sorted(set(rows[rows[:, i] >= 2, i].tolist())) for i in range(n)]
    q = max(map(len, high), default=0)
    if n == 1 and q == 1 and members > 1:
        # the full formula broadcasts one exponent per member here; a
        # single one would take numpy's scalar-exponent path
        q = 2
    pow_rows = np.zeros((q, n), dtype=np.int64)
    column = {}
    for i, exps in enumerate(high):
        for t, e in enumerate(exps):
            pow_rows[t, i] = e
            column[i, e] = n + 1 + t * n + i
    factors = []
    for row in rows.tolist():
        if min(row) < 0:
            factors.append([])
        else:
            factors.append([i if e == 1 else column[i, e] for i, e in enumerate(row) if e])
    # column n holds the 1
    table = np.full((len(factors), max([1, *map(len, factors)])), n, dtype=np.intp)
    for r, cols in enumerate(factors):
        table[r, : len(cols)] = cols
    for arr in (pow_rows, table, scale):
        if arr is not None:
            arr.flags.writeable = False
    return _ProductPlan(pow_rows, table, scale)


def _multiply_out(x: np.ndarray, plan: _ProductPlan) -> np.ndarray:
    # x is (N, n); returns (N, r), C-ordered like the broadcast formula's
    count, n = x.shape
    src = np.empty((count, n + 1 + plan.pow_rows.size))
    src[:, :n] = x
    src[:, n] = 1
    if len(plan.pow_rows):
        src[:, n + 1 :] = (x[:, None, :] ** plan.pow_rows).reshape(count, -1)
    factors = src.take(plan.factors, axis=1)
    out = factors[..., 0]
    for t in range(1, plan.factors.shape[1]):
        out = out * factors[..., t]
    return out if plan.scale is None else out * plan.scale


def real_batch(x, d: int) -> np.ndarray:
    """x as a float (N, d) batch, the one check of every batch of points.

    Points are real: x passes ``real_array``, so a complex x raises
    TypeError, not a cast to its real part.
    """
    x = real_array(x)
    if x.ndim != 2 or x.shape[1] != d:
        raise ValueError(f"expected shape (N, {d}), got {x.shape}")
    return x


def monomial_matrix(points, basis: MonomialBasis) -> np.ndarray:
    """Rows of monomial evaluations for a batch of points, shape (N, m).

    Takes real points of shape (N, n); row p is (x_p^a for a in basis),
    in basis order.  The constant monomial evaluates to 1 everywhere,
    including at x = 0.
    """
    return _multiply_out(real_batch(points, basis.n), basis._value_plan)


def basis_jacobian(points, basis: MonomialBasis) -> np.ndarray:
    """Jacobians of the monomial evaluation map at a batch (N, n), shape (N, m, n).

    Entry (p, j, i) is d(x^a_j)/dx_i = a_ji * x^(a_j - e_i) at point p,
    with the usual convention that the derivative is zero when a_ji = 0.
    """
    x = real_batch(points, basis.n)
    jac = _multiply_out(x, basis._jacobian_plan).reshape(len(x), basis.n, len(basis))
    return np.swapaxes(jac, 1, 2)

