"""Shared oracles and generators for the test suite."""

import itertools

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import ztrexc
from scipy.optimize import linear_sum_assignment


def _shifted(x, h):
    # the batch x + h e_1, ..., x + h e_d, x - h e_1, ..., x - h e_d
    x = np.asarray(x, dtype=float)
    step = h * np.eye(x.size)
    return np.vstack([x + step, x - step])


def fd_gradient(value_and_grad, x, h=1e-6):
    """Central-difference gradient at x (d,) of the values of a batched loss.

    ``value_and_grad`` maps (N, d) points to (N,) values and (N, d)
    gradients, as the losses do; the shifted points go in one batch.
    """
    values = value_and_grad(_shifted(x, h))[0]
    return (values[: len(values) // 2] - values[len(values) // 2 :]) / (2 * h)


def fd_jacobian(func, x, h=1e-6):
    """Central-difference Jacobian of a vector function."""
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(func(x))
    jac = np.zeros((f0.size, x.size))
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        jac[:, i] = (np.asarray(func(x + step)) - np.asarray(func(x - step))) / (2 * h)
    return jac


def fd_hessian(value_and_grad, x, h=1e-5):
    """Central differences at x (d,) of a batched loss's gradient, symmetrized."""
    grads = value_and_grad(_shifted(x, h))[1]
    hess = (grads[: len(grads) // 2] - grads[len(grads) // 2 :]).T / (2 * h)
    return 0.5 * (hess + hess.T)


def random_points(rng, k, n, scale=2.0, min_gap=0.35, max_tries=500):
    """k points in [-scale, scale]^n with pairwise distance >= min_gap.

    The gap shrinks automatically when k points cannot comfortably pack
    into the box at the requested separation (many points on a line).
    """
    min_gap = min(min_gap, 0.7 * scale * np.sqrt(n) / k)
    for _ in range(max_tries):
        pts = rng.uniform(-scale, scale, size=(k, n))
        gaps = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        gaps[np.diag_indices(k)] = np.inf
        if gaps.min() >= min_gap:
            return pts
    raise RuntimeError(f"no separated configuration found for k={k}, n={n}")


def match_as_multisets(found, expected):
    """Max pointwise distance under the best one-to-one matching."""
    found = np.asarray(found)
    expected = np.asarray(expected)
    assert found.shape == expected.shape
    cost = np.linalg.norm(found[:, None, :] - expected[None, :, :], axis=2)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def product_loss(points, x):
    """Brute-force reference loss: prod_j ||x - u_j||^2.

    Vanishes exactly on the point set and is positive elsewhere, so it
    shares zero sets with any interpolated loss even though the two
    functions differ away from the zeros.
    """
    points = np.asarray(points)
    x = np.asarray(x)
    return float(np.prod(np.sum(np.abs(x - points) ** 2, axis=1)))


def reference_describe(loss):
    """The closed form of a transformed loss, rendered with sympy expressions.

    Expands every term of the loss as an expression and, for a single
    simplex coordinate, factors the sum: slow, but a direct reading of the
    formula, which ``TransformedLoss.describe`` must reproduce byte for byte.
    """
    import sympy as sp

    prefix = "x" if loss.lift_basis is None else "z"
    xs = sp.symbols(f"{prefix}1:{loss.anchor_lift.size + 1}")
    vec = sp.Matrix(xs) - sp.Matrix(loss.anchor_lift.tolist())
    m = sp.Matrix(*loss.to_simplex.shape, loss.to_simplex.ravel().tolist())
    m = m.applyfunc(lambda v: sp.nsimplify(v, rational=True, tolerance=1e-12))
    vec = vec.applyfunc(lambda v: sp.nsimplify(v, rational=True, tolerance=1e-12))
    zs = list(m @ vec)
    if not zs:
        return "0"
    terms = [z**2 * (z - 1) ** 2 for z in zs]
    terms += [zs[i] ** 2 * zs[j] ** 2 for i in range(len(zs)) for j in range(i + 1, len(zs))]
    total = sp.Add(*[sp.expand(t) for t in terms])
    return str(sp.factor(total)) if len(zs) == 1 else str(total)


def reference_generator_terms(gm):
    """The term map of every generator, built entry by entry.

    The +1 border coefficient first, then -G[i, j] on each basis monomial
    in basis order: the keys, their order and the values (signed zeros
    included) that ``generator_terms`` must reproduce.
    """
    out = []
    for j, alpha in enumerate(gm.border):
        terms = {alpha: 1.0}
        for i, beta in enumerate(gm.basis):
            terms[beta] = -float(gm.entries[i, j])
        out.append(terms)
    return out


def reference_generator_strings(gm):
    """Generator text rendered term by term from ``reference_generator_terms``.

    Sorts the nonzero terms of every generator by descending grlex key and
    formats each monomial afresh: slow, but a direct reading of the
    format, which ``generator_strings`` must reproduce byte for byte.
    """
    from setloss.monomial_basis import grlex_key

    def monomial(exps):
        parts = [
            f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}" for i, e in enumerate(exps) if e != 0
        ]
        return "*".join(parts) if parts else "1"

    out = []
    for terms in reference_generator_terms(gm):
        ordered = sorted(
            ((e, c) for e, c in terms.items() if c != 0.0),
            key=lambda item: grlex_key(item[0]),
            reverse=True,
        )
        pieces = []
        for e, c in ordered:
            mono = monomial(e)
            mag = abs(c)
            if mono == "1":
                body = f"{mag:.12g}"
            elif mag == 1.0:
                body = mono
            else:
                body = f"{mag:.12g}*{mono}"
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        out.append(" ".join(pieces) if pieces else "0")
    return out


def reference_build_payload(points, gm, loss):
    """The payload that ``setloss build`` writes, assembled from the library's parts.

    The points, ``gm.to_json()``, each generator's ``generator_terms`` items
    and ``generator_strings`` text, ``loss.to_json()`` and, for a loss with a
    closed form, ``describe``: a build file must be ``json.dumps`` of this
    dict and a newline, byte for byte.
    """
    from setloss.generating_system import generator_strings, generator_terms

    return {
        "n": points.n,
        "k": points.k,
        "points": points.points.tolist(),
        "generating_matrix": gm.to_json(),
        "generators": [
            {"terms": [[list(alpha), c] for alpha, c in terms.items()], "text": text}
            for terms, text in zip(generator_terms(gm), generator_strings(gm), strict=True)
        ],
        "loss": loss.to_json(),
        "closed_form": loss.describe() if loss.has_closed_form else None,
    }


def forget_shapes():
    """Drop every structure the package keeps per (n, k).

    Those structures hang off the interned ``standard_monomials(n, k)``,
    so the next use of any shape builds its basis, border, shift table,
    commutator-Jacobian plans and rendering structures afresh, and a test
    that counts those builds reads the same counts whichever tests ran
    before it.
    """
    from setloss.monomial_basis import standard_monomials

    standard_monomials.cache_clear()


def counting_calls(monkeypatch, owner, name):
    """Replace ``owner.name`` by a wrapper; returns the list of its calls' first arguments."""
    calls = []
    func = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args[0] if args else None)
        return func(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def reference_sort_order(points):
    """The order of extracted zeros, by Python's ``sorted`` over key tuples.

    Per point: the real parts rounded to 1e-9 summed, then the negated
    rounded real parts, then the negated rounded imaginary parts; ties keep
    their index order.  ``extraction._sort_order`` must return the same
    permutation.
    """
    re = np.round(points.real / 1e-9) * 1e-9
    im = np.round(points.imag / 1e-9) * 1e-9
    keys = [(float(re[i].sum()), *(-re[i]), *(-im[i])) for i in range(points.shape[0])]
    return np.array(sorted(range(points.shape[0]), key=lambda i: keys[i]), dtype=np.int64)


def reference_complex_schur(m):
    """complex_schur's factors (p, q), reordered one position at a time.

    At each position the diagonal from there on is sorted afresh by
    (real, imaginary) part with the stable ``lexsort``, and its first
    entry is moved up with ``ztrexc``: the loop ``complex_schur`` must
    reproduce bit for bit.
    """
    p, q = scipy.linalg.schur(np.asarray(m, dtype=complex), output="complex")
    for i in range(p.shape[0] - 1):
        d = np.diag(p)[i:]
        j = i + int(np.lexsort((d.imag, d.real))[0])
        if j != i:
            p, q, info = ztrexc(p, q, j + 1, i + 1, overwrite_a=1, overwrite_q=1)
            assert info == 0
    return p, q


# -- broadcast reference formulas ----------------------------------------------
#
# The package evaluates monomials and sums short rows in fewer numpy calls
# than these one-line broadcast formulas, and must match them bit for bit.


def reference_monomial_matrix(points, powers):
    """Rows of monomial values, (N, m): the product of x ** powers per row."""
    return np.prod(points[:, None, :] ** powers[None, :, :], axis=2)


# three points in C^2, two of them a conjugate pair: the common zeros of a
# real generating system
CONJUGATE_PAIR_SET = np.array([[1.0 + 2.0j, -1.0], [1.0 - 2.0j, -1.0], [0.5, 2.0]])


def conjugate_pair_system():
    """The real generating matrix whose zeros are CONJUGATE_PAIR_SET.

    The package interpolates real sets only.  This solves X0^T G = X1^T on
    the complex Vandermonde matrices of the set and keeps the real part:
    the set is closed under conjugation, so G is real up to roundoff.
    """
    from setloss.generating_system import GeneratingMatrix
    from setloss.monomial_basis import border_monomials, standard_monomials

    basis = standard_monomials(2, 3)
    border = border_monomials(basis)
    g = np.linalg.solve(
        reference_monomial_matrix(CONJUGATE_PAIR_SET, basis.powers),
        reference_monomial_matrix(CONJUGATE_PAIR_SET, border.powers),
    )
    assert np.abs(g.imag).max() <= 1e-12 * (1.0 + np.abs(g.real).max())
    return GeneratingMatrix(basis, g.real)


def _lowered_powers(powers):
    # exponents after differentiating in each variable, (n, m, n), clamped
    # at zero so that 0 * x^(-1) cannot produce inf at x_i = 0
    n = powers.shape[1]
    arr = np.repeat(powers[None, :, :], n, axis=0)
    for i in range(n):
        arr[i, :, i] = np.maximum(arr[i, :, i] - 1, 0)
    return arr


def reference_basis_jacobian(x, powers):
    """d(x^a_j)/dx_i = a_ji x^(a_j - e_i) per row of x (N, n), (N, m, n)."""
    lowered = np.prod(x[..., None, None, :] ** _lowered_powers(powers), axis=-1)
    return np.swapaxes(powers.T * lowered, -1, -2)


def reference_matvec(mat, v):
    """mat @ v per row of v, as an elementwise product summed per row."""
    return (v[..., None, :] * mat).sum(axis=-1)


def reference_simplicial(a, x):
    """Value and gradient of the scaled-simplex loss, summed per row by numpy."""
    sq = x * x
    s = sq.sum(axis=-1, keepdims=True)
    value = (sq * (x - a) ** 2).sum(axis=-1) + 0.5 * (
        s[..., 0] * s[..., 0] - (sq * sq).sum(axis=-1)
    )
    grad = 2.0 * x * (2.0 * sq - 3.0 * a * x + (s - sq + a * a))
    return value, grad


def simplex_loss(a):
    """The transformed loss of the scaled simplex {a_1 e_1, ..., a_n e_n, 0}.

    Its map is z = x / a, so it is the standard-simplex loss of x / a.
    """
    from setloss.generating_system import PointSet
    from setloss.loss_functions import build_transformed_loss

    a = np.asarray(a, dtype=float)
    return build_transformed_loss(PointSet(np.vstack([np.diag(a), np.zeros(a.size)])))


def reference_transformed_value_and_grad(loss, x):
    """TransformedLoss.value_and_grad composed from the formulas above."""
    basis = loss.lift_basis
    zeta = x if basis is None else reference_monomial_matrix(x, basis.powers)[:, 1:]
    z = reference_matvec(loss.to_simplex, zeta - loss.anchor_lift)
    value, gz = reference_simplicial(1.0, z)
    w = reference_matvec(loss.to_simplex.T, gz)
    if basis is None:
        return value, w
    jac = reference_basis_jacobian(x, basis.powers)[:, 1:, :]
    return value, (w[:, :, None] * jac).sum(axis=-2)


def reference_assign_labels(loss, recovered, samples):
    """``assign_labels`` with every descent run to its own end.

    The same step cap and labeling rule, without the early stop for rows
    whose label is settled: the labels ``assign_labels`` must reproduce.
    """
    from setloss.clustering import STEP_CAP_FRACTION, ClusterAssignment, minimize_from
    from setloss.loss_functions import TransformedLoss

    k = recovered.k
    pts = np.asarray(recovered.points.real)
    max_step = np.inf
    if k > 1:
        gaps = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        max_step = STEP_CAP_FRACTION * float(gaps[np.triu_indices(k, 1)].min())
    res = minimize_from(loss.value_and_grad, samples.samples, max_step=max_step)
    if isinstance(loss, TransformedLoss) and k > 1:
        coords = loss.simplex_coords(res.x)
        targets = np.vstack([np.eye(k - 1), np.zeros(k - 1)])
    else:
        coords, targets = res.x, pts
    dists = np.linalg.norm(coords[:, None, :] - targets[None, :, :], axis=2)
    return ClusterAssignment(
        labels=np.argmin(dists, axis=1),
        converged=res.converged,
        iterations=res.iterations,
        minimizers=res.x,
    )


def reference_settle_threshold(loss, max_step):
    """TransformedLoss.settle_threshold read off the loss's matrices.

    h(r) = (r (1 - r))^2 for the settle radius r, capped at 1/2 and lowered
    by a margin of 0.01; -inf when r <= 0.
    """
    if loss.lift_basis is None:
        radius = 0.5 * (1.0 - np.linalg.norm(loss.to_simplex, 2) * max_step)
    else:
        pts = loss.points.points
        gaps = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        linear = loss.lift_basis.powers[1:].sum(axis=1) == 1
        spread = np.linalg.norm(loss.diff_mat[linear], 2)
        radius = (float(gaps[np.triu_indices(len(pts), 1)].min()) - max_step) / (2.0 * spread)
    radius = min(radius, 0.5) - 0.01
    if not radius > 0.0:
        return -np.inf
    return (radius * (1.0 - radius)) ** 2


def reference_bounded_noise_sample(points, eps, counts, seed=0, model="truncated-normal"):
    """``bounded_noise_sample`` accepting one candidate row at a time.

    The same draws in the same order; returns the (N, n) sample array and
    the per-sample source index that the library must reproduce bit for
    bit.
    """
    k, n = points.shape
    radii = np.broadcast_to(np.asarray(eps, dtype=float), (k,))
    sizes = np.broadcast_to(np.asarray(counts, dtype=np.int64), (k,))
    rng = np.random.default_rng(seed)
    chunks = []
    truth = []
    for i in range(k):
        need = int(sizes[i])
        if model == "uniform":
            offsets = rng.uniform(-radii[i], radii[i], (need, n))
        else:
            rows = []
            while len(rows) < need:
                cand = rng.normal(0.0, radii[i] / 2.0, (need, n))
                for row in cand:
                    if np.max(np.abs(row)) <= radii[i]:
                        rows.append(row)
                        if len(rows) == need:
                            break
            offsets = np.array(rows)
        chunks.append(points[i] + offsets)
        truth.extend([i] * need)
    return np.vstack(chunks), np.array(truth, dtype=np.int64)


def reference_average_loss(gm, samples):
    """theta(G): the mean over the samples of ||phi_G(v_j)||^2."""
    from setloss.generating_system import evaluate_generators

    phi = evaluate_generators(gm, samples.samples)
    return float((phi * phi).sum()) / samples.size


def reference_penalty_residuals(model, g, rho):
    """The penalized fit's residual stack; squared norm theta(g) + rho |c(g)|^2.

    The per-sample generator values scaled by 1/sqrt(N), column by column
    of g, then every commutator entry scaled by sqrt(rho).
    """
    from setloss.generating_system import commutators

    data = (model.b - model.a @ g).T.reshape(-1) / np.sqrt(model.size)
    comm = commutators(model.shifts.matrices(g)).reshape(-1)
    return np.concatenate([data, np.sqrt(rho) * comm])


def reference_penalty_jacobian(model, g, rho):
    """Dense Jacobian of ``reference_penalty_residuals`` in g, flattened column by column."""
    data = -np.kron(np.eye(model.m), model.a) / np.sqrt(model.size)
    comm = np.sqrt(rho) * model.commutator_jacobian(model.shifts.matrices(g))
    return np.vstack([data, comm])


def reference_alignment(points, means):
    """The permutation that ``clustering_accuracy`` aligns by, one at a time.

    Each permutation's cost is its summed squared distances, in a Python
    sum over the points; the first of the least costs, in
    ``itertools.permutations`` order, wins.
    """
    k = len(points)
    best_perm = None
    best_cost = np.inf
    for perm in itertools.permutations(range(k)):
        cost = sum(float(np.sum((points[i] - means[perm[i]]) ** 2)) for i in range(k))
        if cost < best_cost:
            best_cost = cost
            best_perm = perm
    return best_perm
