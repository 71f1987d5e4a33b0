"""Smooth nonnegative losses whose zero sets are prescribed finite sets.

Two families live here.

* ``GeneratingLoss``: the squared norm of an interpolated generating
  system.  Vanishes exactly on the interpolated set but may pick up
  spurious local minimizers away from it.
* ``TransformedLoss``: the standard-simplex loss

      f(z) = sum_i z_i^2 (z_i - 1)^2 + sum_{i<j} z_i^2 z_j^2,

  whose only local minimizers are its zeros {0, e_1, ..., e_d}, pulled
  back through the map z = P (lift(x) - lift(anchor)) so that its zero
  set becomes an arbitrary point set.  The lift is the identity for sets
  with k <= n + 1 points and the monomial lift for larger sets.  The
  scaled simplex {a_1 e_1, ..., a_n e_n, 0} is the transformed loss of
  its vertices.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .generating_system import (
    GeneratingMatrix,
    PointSet,
    evaluate_generators,
    generators_jacobian,
)
from .monomial_basis import (
    MonomialBasis,
    basis_jacobian,
    monomial_matrix,
    real_batch,
    standard_monomials,
)
from .numeric_kernels import UNROLLED_WIDTH, pseudo_inverse, require_finite, row_sum

__all__ = [
    "GeneratingLoss",
    "TransformedLoss",
    "build_transformed_loss",
]

# TransformedLoss.settle_threshold lowers its settle radius by this much,
# in simplex coordinates (vertices 1 apart), to cover rounding
SETTLE_MARGIN = 0.01


def _simplicial_value_and_grad(z):
    # the standard-simplex loss sum_i z_i^2 (z_i - 1)^2 + sum_{i<j} z_i^2 z_j^2
    # for z (N, d); the cross term is (s^2 - sum z_i^4) / 2 with s = sum z_i^2
    sq = z * z
    s = row_sum(sq)
    value = row_sum(sq * (z - 1.0) ** 2) + 0.5 * (s * s - row_sum(sq * sq))
    grad = 2.0 * z * (2.0 * sq - 3.0 * z + (s[..., None] - sq + 1.0))
    return value, grad


def _matvec(mat: np.ndarray, v: np.ndarray) -> np.ndarray:
    # mat @ v for each row of v (N, c): the products mat[:, t] v_t, summed
    # per row by row_sum, left to right below width 8 as numpy's reduction
    # does.  BLAS picks its kernel by batch size, which changes the
    # rounding of a row with the batch it sits in; this does not.  The
    # products are formed one coordinate per row, (r, c, N), so that
    # numpy's loops run over the N points rather than over c entries at a
    # time; the result is (N, r) in column-major order.  The descent's
    # h @ g stays a matmul: no simple summation order reproduces numpy's
    # batched matmul.
    if not 0 < mat.shape[1] < UNROLLED_WIDTH:
        # numpy's own sums, on the layout they had in the plain formula:
        # pairwise for a C-ordered mat, left to right for the F-ordered
        # to_simplex.T, whose products are strided along each row
        return (np.ascontiguousarray(v)[:, None, :] * mat).sum(axis=-1)
    prod = mat[:, :, None] * np.ascontiguousarray(v.T)[None, :, :]
    return row_sum(prod.transpose(2, 0, 1))


class GeneratingLoss:
    """The squared norm ||phi(x)||^2 of a fixed generating system."""

    def __init__(self, gm: GeneratingMatrix):
        self.gm = gm

    @property
    def n(self) -> int:
        return self.gm.n

    def value_and_grad(self, x):
        """Values (N,) and gradients (N, n) at the rows of x (N, n)."""
        x = real_batch(x, self.n)
        phi = evaluate_generators(self.gm, x)
        jac = generators_jacobian(self.gm, x)
        value = (phi * phi).sum(axis=1)
        return value, 2.0 * (phi[:, :, None] * jac).sum(axis=1)

    def to_json(self) -> dict:
        """``kind`` "generating" and the generating matrix as ``g``."""
        return {"kind": "generating", "g": self.gm.to_json()}


# -- the closed form, summed in integers and printed as sympy's str() would --
#
# A polynomial is a dict from monomial key to coefficient.  The key of
# x1^e1 ... xd^ed is the base-5 number e1 e2 ... ed: the loss is a quartic,
# so no exponent reaches 5, keys of a product are sums of keys, and
# descending keys are descending lex order over x1 > x2 > ... > xd.

_KEY_BASE = 5


def _rational(v: float) -> Fraction:
    # sympy's nsimplify(v, rational=True, tolerance=1e-12): the exact value
    # of the float, limited to denominators of at most ceiling(1 / 1e-12)
    return Fraction(v).limit_denominator(10**12)


def _poly_add(p: dict, q: dict) -> dict:
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + c
    return out


def _poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for ep, cp in p.items():
        for eq, cq in q.items():
            out[ep + eq] = out.get(ep + eq, 0) + cp * cq
    return out


def _format_sum(terms: list, names: list[str], units: list[int]) -> str:
    """sympy's str() of a sum of (key, nonzero coefficient) terms, keys descending.

    The terms print in descending lex order with the constant last, except
    that a positive constant and one negative term in a single variable
    print as "c - a*x".  A term is p*monomial/q, without p = 1 or /q = 1.
    """
    pieces = []
    for key, c in terms:
        exps = [key // u % _KEY_BASE for u in units]
        mono = "*".join(n if e == 1 else f"{n}**{e}" for n, e in zip(names, exps) if e)
        pieces.append((c, mono, sum(map(bool, exps))))
    if (
        len(pieces) == 2
        and (pieces[0][2], pieces[1][2]) == (1, 0)
        and pieces[1][0] > 0 > pieces[0][0]
    ):
        pieces.reverse()
    out = []
    for c, mono, _ in pieces:
        p, q = abs(c).numerator, abs(c).denominator
        if not mono:
            body = str(p)
        elif p == 1:
            body = mono
        else:
            body = f"{p}*{mono}"
        if q != 1:
            body = f"{body}/{q}"
        if not out:
            out.append(body if c > 0 else f"-{body}")
        else:
            out.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(out)


def _format_factored(lin: dict, den: int, names: list[str], units: list[int]) -> str:
    """z^2 (z - 1)^2 for z = lin / den, as sympy's str(factor(...)) prints it.

    That is the rational content squared, then the squares of the
    primitive integer parts of z and z - 1, each with a positive leading
    (lex) coefficient.  The factors follow sympy's sort key: fewer terms
    first, then coefficient by coefficient in printed order.  The content's
    numerator leads and its denominator follows as /q.
    """
    scale, factors = 1, []
    for part in (lin, _poly_add(lin, {0: -den})):
        terms = sorted(((e, c) for e, c in part.items() if c), reverse=True)
        g = math.gcd(*(c for _, c in terms))
        if terms[0][1] < 0:
            g = -g
        scale *= g * g
        factors.append([(e, c // g) for e, c in terms])
    factors.sort(key=lambda terms: (len(terms), [c for _, c in terms]))
    coeff = Fraction(scale, den**4)
    parts = [] if coeff.numerator == 1 else [str(coeff.numerator)]
    for terms in factors:
        body = _format_sum(terms, names, units)
        parts.append(f"{body}**2" if len(terms) == 1 else f"({body})**2")
    text = "*".join(parts)
    return text if coeff.denominator == 1 else f"{text}/{coeff.denominator}"


class TransformedLoss:
    """Simplicial loss pulled back through one change of coordinates.

    The map is z = P (lift(x) - lift(u_k)), where the lift is the
    identity when ``lift_basis`` is None and the monomial lift through
    its non-constant members otherwise (the basis must start with 1 and
    hold every x_i, which makes the lift injective), and P is the
    ``pseudo_inverse`` of the matrix of lifted differences lift(u_i) -
    lift(u_k), square for the monomial lift.  The last point of the set is
    the anchor mapped to the origin of the simplex; point i (1-based) maps
    to the i-th unit vertex.  Use ``simplex_coords`` to read off which
    vertex a given x sits near.
    """

    def __init__(self, points: PointSet, lift_basis: MonomialBasis | None = None):
        if lift_basis is not None:
            if len(lift_basis) != points.k:
                raise ValueError(
                    f"a lift basis for {points.k} points needs {points.k} members, "
                    f"got {len(lift_basis)}"
                )
            if any(lift_basis[0]):
                # the lift drops the first member as the constant monomial
                raise ValueError("a lift basis must start with the constant monomial")
            if np.count_nonzero(lift_basis.powers.sum(axis=1) == 1) < points.n:
                # the rows are distinct, so this counts the x_i present; without
                # all of them the lift is not injective and the loss vanishes
                # off the point set
                raise ValueError("a lift basis must hold every degree-1 monomial")
        self.points = points
        self.lift_basis = lift_basis
        # overflowing lifts are refused below, not warned about first
        with np.errstate(over="ignore", invalid="ignore"):
            lifts = self.lift(points.points)
            self.anchor_lift = lifts[-1]
            self.diff_mat = (lifts[:-1] - self.anchor_lift).T
        require_finite(
            self.diff_mat, "lifted point differences overflow: coordinates too large"
        )
        self.to_simplex = pseudo_inverse(
            self.diff_mat, "point differences are numerically dependent"
        )

    @property
    def kind(self) -> str:
        """"affine" for the identity lift, "lifted" for the monomial lift."""
        return "affine" if self.lift_basis is None else "lifted"

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

        x itself for the identity lift, the monomial lift of x otherwise,
        per row of x (N, n).
        """
        x = real_batch(x, self.n)
        # the constructor checked that the basis starts with the constant 1
        return x if self.lift_basis is None else monomial_matrix(x, self.lift_basis)[:, 1:]

    def simplex_coords(self, x) -> np.ndarray:
        """Simplex coordinates (N, k-1) of the rows of x (N, n)."""
        return _matvec(self.to_simplex, self.lift(x) - self.anchor_lift)

    @property
    def simplex_vertices(self) -> np.ndarray:
        """Each point's vertex, (k, k-1): e_(i+1) for point i, the origin for the anchor."""
        return np.vstack([np.eye(self.simplex_dim), np.zeros(self.simplex_dim)])

    # -- evaluation ------------------------------------------------------

    def value_and_grad(self, x):
        """Values (N,) and gradients (N, n) at the rows of x (N, n)."""
        value, grad = self.lift_value_and_grad(self.lift(x))
        if self.lift_basis is not None:
            jac = basis_jacobian(x, self.lift_basis)[:, 1:, :]
            grad = row_sum(np.swapaxes(grad[:, :, None] * jac, 1, 2))
        # C order, as the gradient's consumers (the descent's matmul) expect
        return value, np.ascontiguousarray(grad)

    def lift_value_and_grad(self, zeta):
        """The loss as a function of the lift coordinates, per row of zeta (N, d).

        Its local minimizers are exactly the lifted points, and its
        gradient is taken in zeta.  For the identity lift this is
        ``value_and_grad``.
        """
        zeta = real_batch(zeta, self.anchor_lift.size)
        value, gz = _simplicial_value_and_grad(_matvec(self.to_simplex, zeta - self.anchor_lift))
        return value, _matvec(self.to_simplex.T, gz)

    def null_directions(self) -> np.ndarray:
        """Orthonormal basis of directions the map ignores, (n, n-k+1).

        Adding any combination of these to x leaves the loss unchanged;
        the zero set of the loss is the point set plus this subspace.
        The monomial lift is injective, so it has no such directions.
        """
        if self.lift_basis is not None:
            return np.zeros((self.n, 0))
        if self.simplex_dim == 0:
            return np.eye(self.n)
        # to_simplex has rank k - 1, so vh's rows after the first k - 1 span its null space
        return np.linalg.svd(self.to_simplex)[2][self.simplex_dim :].T

    def settle_threshold(self, max_step: float) -> float:
        """h(r) for the settle radius r of steps up to ``max_step``; -inf if r <= 0.

        A descent whose loss never rises ends nearest the vertex of its
        first iterate below h(r).  Needs k > 1.  Write z = z(x) for the
        simplex coordinates, V = {0, e_1, ..., e_(k-1)} for the vertices,
        f for the simplicial loss and h(r) = r^2 (1 - r)^2.

        * f(z) >= h(min(dist(z, V), 1/2)) for every z.  Near the origin,
          with r = |z| <= 1/2, f >= sum z_i^2 (z_i - 1)^2 >= (1 - r)^2 r^2.
          Near e_i, with r = |z - e_i| <= 1/2, f >= z_i^2 ((z_i - 1)^2 +
          sum_(j != i) z_j^2) = z_i^2 r^2 >= (1 - r)^2 r^2.  When
          dist(z, V) >= 1/2, let z_i^2 be the largest square: if
          z_i^2 >= 1/4 then f >= z_i^2 |z - e_i|^2 >= 1/16, and otherwise
          every |z_j| < 1/2 and f > |z|^2 / 4 >= 1/16.
        * So f(z) < h(r), with r <= 1/2, puts z within r of one vertex v.
          Every later iterate lies within r of some vertex too, as the loss
          does not rise.  It stays near the same one if no step of at most
          ``max_step`` joins two such regions.  Affine map: z is affine in
          x and vertices are at least 1 apart, so r = (1 - |P|_2 max_step)
          / 2 suffices, P = ``to_simplex``.  Lifted map: the lift holds
          every x_i, so x - p_v = D_lin (z - v), where p_v is the point of
          vertex v and D_lin the degree-1 rows of ``diff_mat``; a region
          then lies in the ball of radius |D_lin|_2 r about p_v, and
          r = (g_min - max_step) / (2 |D_lin|_2) suffices, g_min the
          smallest gap between the loss's points.
        * Every vertex other than v is more than 1 - r > r away, so the
          vertex nearest the iterate where the loss first falls below h(r)
          is the vertex nearest the final iterate, whatever stops the
          descent.

        The radius is capped at 1/2 and then lowered by SETTLE_MARGIN (0.01)
        for rounding.  Rounding enters in three places.  Step lengths and
        the norms above are off by a few units in the last place, which
        moves r by about 1e-15.  The computed coordinates are off by about
        d = eps |P|_2 |lift(x)|, so the nearest vertex, read with a
        separation of 1 - 2r, does not move.  The computed loss differs
        from f at the exact coordinates by about d, while the margin
        lowers the threshold by h(r) - h(r - 0.01) > 4.9e-5 (the least is
        at r = 1/2); that covers any d below 1e-5, that is |P|_2 |lift(x)|
        below about 1e10.  On the mixtures of ``setbench``'s gmm_cluster
        it is at most about 500, at the samples and at the final iterates.
        """
        if self.lift_basis is None:
            radius = 0.5 * (1.0 - np.linalg.norm(self.to_simplex, 2) * max_step)
        else:
            linear = self.lift_basis.powers[1:].sum(axis=1) == 1
            spread = np.linalg.norm(self.diff_mat[linear], 2)
            radius = (self.points.min_gap() - max_step) / (2.0 * spread)
        radius = min(radius, 0.5) - SETTLE_MARGIN
        if not radius > 0.0:
            return -np.inf
        return (radius * (1.0 - radius)) ** 2

    # -- serialization and rendering --------------------------------------

    def to_json(self) -> dict:
        """``kind``, ``n``, ``k``, ``points`` and, when lifted, ``lift_basis``.

        The points and the lift basis fix the map, so its matrices are not
        written: ``from_json`` rebuilds them bit for bit.  Files of earlier
        releases also carry ``u``, ``u_pinv`` and ``anchor`` (affine) or
        ``l`` and ``anchor_lift`` (lifted); ``from_json`` ignores those.
        """
        payload = {
            "kind": self.kind,
            "n": self.n,
            "k": self.k,
            "points": self.points.points.tolist(),
        }
        if self.lift_basis is not None:
            payload["lift_basis"] = self.lift_basis.to_json()
        return payload

    @classmethod
    def from_json(cls, payload: dict) -> "TransformedLoss":
        """Rebuild the loss from its points; the stored kind must match."""
        basis = payload.get("lift_basis")
        loss = cls(
            PointSet(payload["points"]),
            None if basis is None else MonomialBasis.from_json(basis),
        )
        if payload["kind"] != loss.kind:
            raise ValueError(f"payload of kind {payload['kind']!r} describes a {loss.kind} map")
        return loss

    @property
    def has_closed_form(self) -> bool:
        """Whether ``describe`` renders the loss as an explicit polynomial."""
        return self.n <= 3 and self.k <= 4

    def describe(self) -> str:
        """Closed-form rendering for small cases, a summary otherwise.

        When ``has_closed_form`` (n <= 3 and k <= 4) returns the loss as
        an explicit polynomial: in the original variables x1..xn for the
        identity lift, in the lift variables z1..z_(k-1) for the monomial
        lift.  Every entry of the map is read as the nearest rational
        within 1e-12, as sympy's ``nsimplify`` reads it.  Each simplex
        coordinate is written as z_i = L_i / D, with integer linear forms
        L_i over one common denominator, and the polynomial is summed
        exactly in integers; only its final coefficients become fractions.
        The text is what sympy's ``str`` prints for that polynomial, and a
        single simplex coordinate z gives z^2 (z - 1)^2 as ``str`` prints
        sympy's ``factor`` of it.  sympy itself is not imported.
        """
        if not self.has_closed_form:
            return (
                f"transformed simplicial loss ({self.kind}) for {self.k} points in R^{self.n}"
            )
        prefix = "x" if self.lift_basis is None else "z"
        dim = self.anchor_lift.size
        names = [f"{prefix}{j + 1}" for j in range(dim)]
        units = [_KEY_BASE ** (dim - 1 - j) for j in range(dim)]
        # the constant of x_j - a_j is the float -a_j read as a rational,
        # which need not be minus the rational read from a_j
        shifts = [_rational(-a) for a in self.anchor_lift.tolist()]
        rows = [[_rational(m) for m in row] for row in self.to_simplex.tolist()]
        if not rows:
            return "0"
        # one denominator D with z_i = L_i / D for integer linear forms L_i
        den = math.lcm(
            *(m.denominator * s.denominator for row in rows for m, s in zip(row, shifts))
        )
        lins = []
        for row in rows:
            lin = {u: m.numerator * (den // m.denominator) for u, m in zip(units, row) if m}
            const = sum(
                m.numerator * s.numerator * (den // (m.denominator * s.denominator))
                for m, s in zip(row, shifts)
            )
            if const:
                lin[0] = const
            lins.append(lin)
        if len(lins) == 1:
            return _format_factored(lins[0], den, names, units)
        # sum_i z_i^2 (z_i - 1)^2 + sum_{i<j} z_i^2 z_j^2, times D^4, is
        # sum_i L_i^2 ((L_i - D)^2 + sum_{j>i} L_j^2)
        squares = [_poly_mul(lin, lin) for lin in lins]
        total: dict[int, int] = {}
        for i, lin in enumerate(lins):
            shifted = _poly_add(lin, {0: -den})
            rest = _poly_mul(shifted, shifted)
            for sq in squares[i + 1 :]:
                rest = _poly_add(rest, sq)
            total = _poly_add(total, _poly_mul(squares[i], rest))
        scale = den**4
        terms = [(e, Fraction(c, scale)) for e, c in sorted(total.items(), reverse=True) if c]
        return _format_sum(terms, names, units)


def build_transformed_loss(points: PointSet) -> TransformedLoss:
    """The transformed loss of a point set.

    Sets with k <= n + 1 points use the identity lift, an affine map
    that needs the differences u_i - u_k linearly independent.  Larger
    sets are lifted through the non-constant members of the first k
    graded-lexicographic monomials, which is injective and puts the k
    lifted points in general position in R^(k-1) for generic sets.
    Dependent or overflowing (lifted) differences raise
    DegenerateConfigurationError.
    """
    if points.k <= points.n + 1:
        return TransformedLoss(points)
    return TransformedLoss(points, standard_monomials(points.n, points.k))
