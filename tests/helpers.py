"""Independent oracles shared by the test suite.

Everything here is deliberately written against the public surface
only: a dispatch-table interpreter for potential ASTs, nested
central-difference Wirtinger derivatives with Richardson extrapolation,
a random AST generator, a scatter over every pair of the truncated jet
product and a whole-table jet interpreter built on it, brute-force
triple loops for the algebra axioms, a term-by-term theta series, group
checks in complex coordinates with a bounded search for fixed points,
Lefschetz numbers by an integer Bareiss determinant, metric spectra by
``svd`` and Cholesky, a per-point loop for the sample points and a
per-row one for their report rows (``sample_rows`` rebuilds those rows
from a report's columns), the row and per-point loops that
the verdict and the theta residuals once ran in, and the tensor
contractions as single multi-operand einsums (these read the jet
table's gather indices).  These stay independent of the code paths they check.  Two more routes
that no command takes live here too: dbar Gamma by the chain rule on the
order-4 jet partials, with the Ricci tensor as its fiber trace, and the
Hopf-surface flags; ``flat_torus_entry``, ``curved_bundles`` and
``jet_partials`` are fixtures.
"""

from __future__ import annotations

import cmath
import dataclasses
import functools
import hashlib
import itertools
import math

import numpy as np

from frobenius_verify.catalog import EXACT_TOL, CatalogEntry, flat_potential, square_lattice
from frobenius_verify.expr import (
    LOG_MODULUS_FLOOR,
    Const,
    ConjVar,
    Exp,
    Im,
    Log,
    PotentialExpr,
    Power,
    Product,
    Re,
    Sum,
    Var,
)

# --- reference interpreter (dispatch table) ---------------------------

_DISPATCH = {
    Const: lambda node, z, ev: complex(node.value),
    Var: lambda node, z, ev: complex(z[node.axis]),
    ConjVar: lambda node, z, ev: complex(z[node.axis]).conjugate(),
    Sum: lambda node, z, ev: sum(
        s * ev(t, z) for s, t in zip(node.signs, node.terms)
    ),
    Product: lambda node, z, ev: np.prod([ev(f, z) for f in node.factors]),
    Power: lambda node, z, ev: ev(node.base, z) ** node.exponent,
    Exp: lambda node, z, ev: cmath.exp(ev(node.arg, z)),
    Log: lambda node, z, ev: cmath.log(ev(node.arg, z)),
    Re: lambda node, z, ev: complex(ev(node.arg, z).real),
    Im: lambda node, z, ev: complex(ev(node.arg, z).imag),
}


def reference_eval(expr: PotentialExpr, point) -> complex:
    def ev(node, z):
        return _DISPATCH[type(node)](node, z, ev)

    return complex(ev(expr.root, list(point)))


# --- finite differences ------------------------------------------------


def wirtinger_fd(f, point, alpha, beta, h):
    """Nested central differences for d^alpha dbar^beta f at point."""
    ops = []
    for axis, count in enumerate(alpha):
        ops.extend([(axis, False)] * count)
    for axis, count in enumerate(beta):
        ops.extend([(axis, True)] * count)

    def rec(pt, remaining):
        if not remaining:
            return f(pt)
        (axis, bar), rest = remaining[0], remaining[1:]
        ex = np.zeros(len(pt), dtype=np.complex128)
        ex[axis] = h
        ey = np.zeros(len(pt), dtype=np.complex128)
        ey[axis] = 1j * h
        dx = (rec(pt + ex, rest) - rec(pt - ex, rest)) / (2 * h)
        dy = (rec(pt + ey, rest) - rec(pt - ey, rest)) / (2 * h)
        return 0.5 * (dx + 1j * dy) if bar else 0.5 * (dx - 1j * dy)

    return rec(np.asarray(point, dtype=np.complex128), tuple(ops))


def richardson(sample, h, levels=2):
    """Extrapolate an O(h^2) central-difference value through `levels`
    halvings; kills the h^2..h^(2*levels) error terms."""
    table = [sample(h / 2**k) for k in range(levels + 1)]
    for lev in range(1, levels + 1):
        factor = 4.0**lev
        table = [
            (factor * table[i + 1] - table[i]) / (factor - 1.0)
            for i in range(len(table) - 1)
        ]
    return table[0]


def fd_partial(f, point, alpha, beta, h=0.05, levels=2):
    return richardson(lambda hh: wirtinger_fd(f, point, alpha, beta, hh), h, levels)


# --- random ASTs --------------------------------------------------------


def random_node(rng, dim, depth):
    if depth <= 0:
        kind = rng.integers(0, 4)
        if kind == 0:
            return Const(float(rng.integers(-4, 5)))
        if kind == 1:
            return Const(float(np.round(rng.uniform(-3, 3), 4)))
        if kind == 2:
            return Var(int(rng.integers(0, dim)))
        return ConjVar(int(rng.integers(0, dim)))
    kind = rng.integers(0, 7)
    if kind == 0:
        count = int(rng.integers(2, 4))
        terms = tuple(random_node(rng, dim, depth - 1) for _ in range(count))
        signs = (1,) + tuple(int(rng.choice([1, -1])) for _ in range(count - 1))
        return Sum(terms, signs)
    if kind == 1:
        count = int(rng.integers(2, 4))
        return Product(tuple(random_node(rng, dim, depth - 1) for _ in range(count)))
    if kind == 2:
        return Power(random_node(rng, dim, depth - 1), int(rng.integers(0, 5)))
    if kind == 3:
        return Exp(random_node(rng, dim, depth - 1))
    if kind == 4:
        return Log(random_node(rng, dim, depth - 1))
    if kind == 5:
        return Re(random_node(rng, dim, depth - 1))
    return Im(random_node(rng, dim, depth - 1))


def random_potential_expr(rng, dim, depth):
    return PotentialExpr(random_node(rng, dim, depth), dim)


# --- dense jet product ---------------------------------------------------


@functools.lru_cache(maxsize=None)
def _jet_entries(dim):
    """The order-4 multi-index simplex in jet table order (total order,
    then lexicographic)."""
    return sorted(
        (g for g in itertools.product(range(5), repeat=2 * dim) if sum(g) <= 4),
        key=lambda g: (sum(g), g),
    )


@functools.lru_cache(maxsize=None)
def _jet_pairs(dim):
    """Index pairs of the order-4 truncated product over the multi-index
    simplex in jet table order: the entries of every (i, j) with
    |g_i| + |g_j| <= 4, i outer, j inner, and the entry of g_i + g_j."""
    entries = _jet_entries(dim)
    index = {g: k for k, g in enumerate(entries)}
    pairs = [
        (i, j, index[tuple(a + b for a, b in zip(gi, gj))])
        for i, gi in enumerate(entries)
        for j, gj in enumerate(entries)
        if sum(gi) + sum(gj) <= 4
    ]
    return tuple(np.array(col, dtype=np.intp) for col in zip(*pairs))


def brute_jet_mul(dim, left, right, supports=None):
    """Truncated product of two coefficient arrays (``(E,)``, or ``(E, N)``
    with a trailing sample axis) by one unbuffered scatter over every
    pair, in pair order, starting from zero.

    ``supports``, a pair of boolean entry masks, keeps only the pairs with
    both operands inside them: the same sum where every skipped term is an
    exact zero, and the product of jets with those supports where a skipped
    zero would meet an infinite or NaN coefficient."""
    i, j, k = _jet_pairs(dim)
    if supports is not None:
        keep = supports[0][i] & supports[1][j]
        i, j, k = i[keep], j[keep], k[keep]
    out = np.zeros_like(left)
    np.add.at(out, k, left[i] * right[j])
    return out


def dense_jet_eval(expr, point):
    """Whole-table jet of ``expr`` at ``point`` (``(n,)``, or a stack
    ``(N, n)`` on a trailing sample axis), and the set of samples outside
    the domain of a ``log`` or ``exp``; such a sample takes the constant
    term 1 there, so its coefficients mean nothing.

    Every intermediate jet holds the whole table and every product is
    :func:`brute_jet_mul`.  The steps are those of the jet calculus in
    its order: ``exp`` and ``log`` as Horner series in the nilpotent part
    with the constant term's factors in Python complex arithmetic,
    powers by squaring, scalars as complex factors."""
    dim = expr.dim
    entries = _jet_entries(dim)
    index = {g: k for k, g in enumerate(entries)}
    swap = np.array([index[g[dim:] + g[:dim]] for g in entries])
    pts = np.asarray(point, dtype=np.complex128)
    shape = (len(entries),) + pts.shape[:-1]
    failed = set()

    def const(value):
        c = np.zeros(shape, dtype=np.complex128)
        c[0] = value
        return c

    def seed(axis, conj):
        c = const(np.conj(pts[..., axis]) if conj else pts[..., axis])
        c[index[tuple(int(k == axis + conj * dim) for k in range(2 * dim))]] = 1.0
        return c

    def times(c, factor):
        return c * np.asarray(factor, dtype=np.complex128)

    def nilpotent(c):
        c = c.copy()
        c[0] = 0.0
        return c

    def per_sample(c0, terms):
        rows = []
        for s, value in enumerate(np.ravel(c0).tolist()):
            try:
                rows.append(terms(value))
            except (OverflowError, ValueError):
                failed.add(s)
                rows.append(terms(1.0))
        return [np.array(col).reshape(np.shape(c0)) for col in zip(*rows)]

    def log_terms(c0):
        if abs(c0) < LOG_MODULUS_FLOOR:
            raise ValueError("log argument below floor")
        return 1.0 / c0, cmath.log(c0)

    def ev(node):
        if isinstance(node, Const):
            return const(node.value)
        if isinstance(node, (Var, ConjVar)):
            return seed(node.axis, isinstance(node, ConjVar))
        if isinstance(node, Sum):
            acc = ev(node.terms[0])
            for sign, term in zip(node.signs[1:], node.terms[1:]):
                acc = acc + ev(term) if sign == 1 else acc - ev(term)
            return acc
        if isinstance(node, Product):
            acc = ev(node.factors[0])
            for factor in node.factors[1:]:
                acc = brute_jet_mul(dim, acc, ev(factor))
            return acc
        if isinstance(node, Power):
            result, base, k = const(1.0), ev(node.base), node.exponent
            while k:
                if k & 1:
                    result = brute_jet_mul(dim, result, base)
                k >>= 1
                if k:
                    base = brute_jet_mul(dim, base, base)
            return result
        arg = ev(node.arg)
        if isinstance(node, Exp):
            (scale,) = per_sample(arg[0], lambda c0: (cmath.exp(c0),))
            acc = const(1.0)
            for k in (4, 3, 2, 1):
                acc = times(brute_jet_mul(dim, acc, nilpotent(arg)), 1.0 / k) + const(1.0)
            return times(acc, scale)
        if isinstance(node, Log):
            inverse, log_c0 = per_sample(arg[0], log_terms)
            m = times(nilpotent(arg), inverse)
            acc = const(0.0)
            for k in (4, 3, 2, 1):
                acc = brute_jet_mul(dim, acc + const((-1.0) ** (k + 1) / k), m)
            return acc + const(log_c0)
        conj = np.conj(arg[swap])
        if isinstance(node, Re):
            return times(arg + conj, 0.5)
        out = times(arg - conj, complex(0, -0.5))
        out[0] = out[0].real
        return out

    return ev(expr.root), failed


# --- brute-force algebra oracles ----------------------------------------


def brute_multiply(C, x, y):
    n = len(x)
    out = np.zeros(n, dtype=np.complex128)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                out[k] += C[k][i][j] * x[i] * y[j]
    return out


def brute_associator(C):
    n = C.shape[0]
    worst = 0.0
    basis = np.eye(n, dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                left = brute_multiply(C, brute_multiply(C, basis[i], basis[j]), basis[k])
                right = brute_multiply(C, basis[i], brute_multiply(C, basis[j], basis[k]))
                worst = max(worst, float(np.max(np.abs(left - right))))
    return worst


def brute_compat(C, form):
    n = C.shape[0]
    worst = 0.0
    basis = np.eye(n, dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                left = brute_multiply(C, basis[i], basis[j]) @ form @ basis[k]
                right = basis[i] @ form @ brute_multiply(C, basis[j], basis[k])
                worst = max(worst, abs(left - right))
    return worst


# --- multi-operand einsum contractions -------------------------------------
# The verify path's contractions written as single ``np.einsum`` calls over
# all indices (one n^5-n^6 loop per sample).  The pairwise matrix products
# in the package must agree with them to round-off, with any leading axes.


def einsum_metric_tensors(phi3, h, ddbar):
    """``(christoffel, curvature)`` from phi3, H and the second-derivative
    term ``ddbar[a][b][c][d] = d_c dbar_d g_{a bbar}``."""
    christoffel = np.einsum("...ije,...ek->...kij", phi3, h)
    grad = np.einsum("...acg,...ge,...bde->...abcd", phi3, h, np.conj(phi3))
    return christoffel, ddbar - grad


def einsum_wdvv_sides(phi3, h):
    """``(lhs, rhs)`` of the WDVV constraint on third potential derivatives."""
    phi3_bar = np.conj(phi3)
    lhs = np.einsum("...abe,...ef,...cdf->...abcd", phi3, h, phi3_bar)
    rhs = np.einsum("...ceb,...ef,...fad->...abcd", phi3_bar, h, phi3)
    return lhs, rhs


def einsum_christoffel_derivatives(md, partials):
    """``(dgam, dgam_bar)``: d_c and dbar_d of Gamma^k_{ij}, [c|d][k][i][j],
    from the bundle ``md`` and the jet ``partials`` of its points."""
    from frobenius_verify.wirtinger import _table

    t = _table(md.dim)
    h, phi3, phi3_bar = md.g_inv, md.phi3, np.conj(md.phi3)
    p4a = np.take(partials, t.d4_idx, axis=-1)
    p4b = np.take(partials, t.ddbar_idx.transpose(0, 2, 1, 3), axis=-1)
    dg_hol = np.einsum("...pcq->...cpq", phi3)
    dh_hol = -np.einsum("...pe,...cef,...fk->...cpk", h, dg_hol, h)
    dg_anti = np.einsum("...qdp->...dpq", phi3_bar)
    dh_anti = -np.einsum("...pe,...def,...fk->...dpk", h, dg_anti, h)
    dgam = np.einsum("...ijce,...ek->...ckij", p4a, h) + np.einsum(
        "...ije,...cek->...ckij", phi3, dh_hol
    )
    dgam_bar = np.einsum("...ijed,...ek->...dkij", p4b, h) + np.einsum(
        "...ije,...dek->...dkij", phi3, dh_anti
    )
    return dgam, dgam_bar


def einsum_pencil_comm(gamma):
    """[A_c, A_d]^k_j of the pencil, indexed [c][d][k][j]."""
    return np.einsum("...kcm,...mdj->...cdkj", gamma, gamma) - np.einsum(
        "...kdm,...mcj->...cdkj", gamma, gamma
    )


def einsum_associator_sides(C):
    """``((e_i e_j) e_k, e_i (e_j e_k))`` componentwise, [i][j][k][l]."""
    left = np.einsum("...mij,...lmk->...ijkl", C, C)
    right = np.einsum("...mjk,...lim->...ijkl", C, C)
    return left, right


def jet_partials(potential, points):
    """Jet partials (coefficients times ``alpha! beta!``, in table order)
    at one point ``(n,)`` or a stack ``(N, n)``: ``(E,)`` or ``(N, E)``,
    the array ``metric_batch`` gathers its tensors from."""
    from frobenius_verify.wirtinger import _table, jet_eval

    pts = np.asarray(points, dtype=np.complex128)
    jet = jet_eval(potential, pts.reshape(-1, potential.dim))
    dense = jet.dense().T * _table(potential.dim).fact
    return dense[0] if pts.ndim == 1 else dense


def curved_bundles(dim, seed):
    """``(bundle, partials)`` of a curved random chart at four points:
    batched ``(4, ...)``, one point with no sample axis, and two sample
    axes ``(2, 2, ...)`` (the batch reshaped)."""
    from frobenius_verify.kahler import metric_at, metric_batch

    rng = np.random.default_rng(seed)
    potential = random_polynomial_potential(rng, dim)
    points = rng.uniform(-0.4, 0.4, (4, dim)) + 1j * rng.uniform(-0.4, 0.4, (4, dim))
    md, failures = metric_batch(potential, points)
    assert not failures and np.max(np.abs(md.curvature)) > 1e-3
    # every array field; the bundle's zero-block pattern is kept as it is
    pairs = dataclasses.replace(
        md,
        **{
            f.name: getattr(md, f.name).reshape((2, 2) + getattr(md, f.name).shape[1:])
            for f in dataclasses.fields(md)
            if f.name != "zero"
        },
    )
    partials = jet_partials(potential, points)
    return (
        (md, partials),
        (metric_at(potential, points[0]), partials[0]),
        (pairs, partials.reshape((2, 2, -1))),
    )


def svd_spectrum(g):
    """``(smallest, largest, positive)`` of each metric of a stack
    ``(..., n, n)``: its extreme singular values by ``svd``, and whether a
    Cholesky factor of it exists."""
    sv = np.linalg.svd(g, compute_uv=False)
    positive = []
    for m in np.reshape(g, (-1,) + np.shape(g)[-2:]):
        try:
            np.linalg.cholesky(m)
            positive.append(True)
        except np.linalg.LinAlgError:
            positive.append(False)
    return sv[..., -1], sv[..., 0], np.reshape(positive, np.shape(g)[:-2])


def assert_close(got, expected, rel=1e-13):
    """``got`` equals ``expected`` to ``rel`` times the largest |expected|."""
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.shape == expected.shape
    assert np.max(np.abs(got - expected)) <= rel * np.max(np.abs(expected))


# --- finite-difference curvature pipeline ---------------------------------


def _metric_fn(potential):
    from frobenius_verify.wirtinger import jet_eval, partial as jet_partial

    n = potential.dim

    def metric(z):
        jet = jet_eval(potential, np.asarray(z, dtype=np.complex128))
        g = np.empty((n, n), dtype=np.complex128)
        for a in range(n):
            for b in range(n):
                alpha = [0] * n
                alpha[a] = 1
                beta = [0] * n
                beta[b] = 1
                g[a, b] = jet_partial(jet, alpha, beta)
        return g

    return metric


def _unit_index(n, axis):
    v = [0] * n
    v[axis] = 1
    return tuple(v)


def fd_curvature(potential, point, h=0.02, levels=2):
    """Curvature tensor assembled from finite differences of the metric
    (never from higher jet coefficients); explicit-loop contraction."""
    n = potential.dim
    metric = _metric_fn(potential)
    zero = (0,) * n
    point = np.asarray(point, dtype=np.complex128)
    g = metric(point)
    h_inv = np.linalg.inv(g)
    dg = [fd_partial(metric, point, _unit_index(n, c), zero, h, levels) for c in range(n)]
    dbarg = [fd_partial(metric, point, zero, _unit_index(n, d), h, levels) for d in range(n)]
    curv = np.empty((n, n, n, n), dtype=np.complex128)
    for c in range(n):
        for d in range(n):
            ddbar = fd_partial(
                metric, point, _unit_index(n, c), _unit_index(n, d), h, levels
            )
            for a in range(n):
                for b in range(n):
                    grad = 0.0 + 0.0j
                    for gam in range(n):
                        for e in range(n):
                            grad += dg[c][a][gam] * h_inv[gam][e] * dbarg[d][e][b]
                    curv[a, b, c, d] = ddbar[a][b] - grad
    return curv


def fd_wdvv_residual(potential, point, h=0.02, levels=2):
    """Associativity residual assembled from metric differences only."""
    n = potential.dim
    metric = _metric_fn(potential)
    zero = (0,) * n
    point = np.asarray(point, dtype=np.complex128)
    h_inv = np.linalg.inv(metric(point))
    # phi3[a][b][c] = d_a g[b][c]
    dg = [fd_partial(metric, point, _unit_index(n, a), zero, h, levels) for a in range(n)]
    phi3 = np.empty((n, n, n), dtype=np.complex128)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                phi3[a, b, c] = dg[a][b][c]
    phi3_bar = np.conj(phi3)
    worst = 0.0
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    lhs = 0.0 + 0.0j
                    rhs = 0.0 + 0.0j
                    for e in range(n):
                        for f in range(n):
                            lhs += phi3[a][b][e] * h_inv[e][f] * phi3_bar[c][d][f]
                            rhs += phi3_bar[c][e][b] * h_inv[e][f] * phi3[f][a][d]
                    worst = max(worst, abs(lhs - rhs))
    return worst


# --- random real polynomial potentials -----------------------------------


def random_polynomial_potential(rng, dim=2):
    """Flat quadratic plus small real polynomial perturbations; metric
    stays nondegenerate on moderate boxes."""
    from frobenius_verify.expr import PotentialExpr as PE

    terms = [Product((Var(a), ConjVar(a))) for a in range(dim)]
    signs = [1] * dim
    n_extra = int(rng.integers(1, 4))
    for _ in range(n_extra):
        coeff = float(np.round(rng.uniform(0.02, 0.15), 4))
        a = int(rng.integers(0, dim))
        b = int(rng.integers(0, dim))
        shape = rng.integers(0, 3)
        if shape == 0:
            # c * (z_a zbar_a)^2
            body = Power(Product((Var(a), ConjVar(a))), 2)
        elif shape == 1:
            # c * z_a zbar_a z_b zbar_b
            body = Product((Var(a), ConjVar(a), Var(b), ConjVar(b)))
        else:
            # c * re(z_a^2 zbar_b^2)
            body = Re(Product((Power(Var(a), 2), Power(ConjVar(b), 2))))
        terms.append(Product((Const(coeff), body)))
        signs.append(1)
    return PE(Sum(tuple(terms), tuple(signs)), dim)


# --- pencil of connections -------------------------------------------------


def brute_pencil(gamma, dgam, dgam_bar, g_inv, lam):
    """Curvature norm and Hermitian-Einstein trace norm of the pencil at one
    point and one parameter, by explicit loops over the defining formulas:
    F_hol = lam (d_c Gamma^k_dj - d_d Gamma^k_cj) + lam^2 [A_c, A_d]^k_j,
    F_mix = -lam dbar_d Gamma^k_cj, tr^b_a = -lam H[k][j] dbar_k Gamma^b_ja:
    the trace pairs the form indices (j, kbar) with g^{j kbar} = H[k][j]."""
    n = len(gamma)
    curvature = 0.0
    for c in range(n):
        for d in range(n):
            for k in range(n):
                for j in range(n):
                    comm = 0j
                    for m in range(n):
                        comm += gamma[k][c][m] * gamma[m][d][j]
                        comm -= gamma[k][d][m] * gamma[m][c][j]
                    f_hol = lam * (dgam[c][k][d][j] - dgam[d][k][c][j]) + lam * lam * comm
                    f_mix = -lam * dgam_bar[d][k][c][j]
                    curvature = max(curvature, abs(f_hol), abs(f_mix))
    tr = [[0j] * n for _ in range(n)]
    for b in range(n):
        for a in range(n):
            for j in range(n):
                for k in range(n):
                    tr[b][a] += -lam * g_inv[k][j] * dgam_bar[k][b][j][a]
    kappa = sum(tr[i][i] for i in range(n)) / n
    trace = max(
        abs(tr[b][a] - (kappa if a == b else 0)) for a in range(n) for b in range(n)
    )
    return curvature, trace


def per_lambda_einstein_trace(md, grid):
    """The pencil's Einstein defect formed separately at each lambda:
    ``tr = -lam (Ric H)^T``, then ``max |tr - kappa Id|`` with kappa the
    mean diagonal; one entry per (sample, lambda)."""
    ric_h = np.swapaxes(md.ricci @ md.g_inv, -1, -2)
    n = md.dim
    defects = []
    for lam in grid:
        tr = -lam * ric_h
        kappa = np.trace(tr, axis1=-2, axis2=-1) / n
        defects.append(np.max(np.abs(tr - kappa[..., None, None] * np.eye(n)), axis=(-2, -1)))
    return np.stack(defects, axis=-1)


def ricci_via_connection(md, partials):
    """Ricci tensor recomputed as the fiber trace of the chain-rule dbar
    Gamma; must agree with the metric-route Ricci to round-off."""
    _, dgam_bar = einsum_christoffel_derivatives(md, partials)
    return np.einsum("...daca->...cd", dgam_bar)


# --- theta series ------------------------------------------------------------


def brute_theta(tau, alpha, beta, z, radius):
    """Riemann theta with characteristics by a plain loop over the box
    |n|_inf <= radius: sum of exp(pi i w^T tau w + 2 pi i w^T (z + beta))
    with w = n + alpha."""
    g = len(z)
    total = 0j
    for n in itertools.product(range(-radius, radius + 1), repeat=g):
        w = [n[i] + alpha[i] for i in range(g)]
        quad = sum(w[i] * tau[i][j] * w[j] for i in range(g) for j in range(g))
        lin = sum(w[i] * (z[i] + beta[i]) for i in range(g))
        total += cmath.exp(1j * cmath.pi * quad + 2j * cmath.pi * lin)
    return total


def scalar_theta_residuals(tau, zs, radius, mult_rows=8):
    """The ``theta`` command's residuals one point and one Python complex
    at a time: the quasi-periodicity residuals of the characteristic
    [0, 0] (generator-major, as the report lists them) and the worst
    multiplicativity residual of [0, 0] times [1/2, 0] over the first
    ``mult_rows`` points.  The floor of each residual is RESIDUAL_FLOOR
    times the largest term modulus at the shifted point (of each factor,
    for a product), found by scanning the terms of a box around it."""
    from frobenius_verify.theta import (
        RESIDUAL_FLOOR,
        RiemannThetaSpec,
        eval_riemann_theta,
        multiply_types,
        riemann_type_of,
    )

    g = len(tau)
    spec1 = RiemannThetaSpec(tau=tau, alpha=np.zeros(g), beta=np.zeros(g))
    spec2 = RiemannThetaSpec(tau=tau, alpha=np.full(g, 0.5), beta=np.zeros(g))
    t1 = riemann_type_of(spec1)
    tsum = multiply_types(t1, riemann_type_of(spec2))
    gens = t1.lattice.generators

    def value(spec, z):
        return complex(eval_riemann_theta(spec, z, radius).value)

    def factor(ttype, z, k):
        lin = complex(sum(ttype.rows[k][i] * z[i] for i in range(g)))
        return complex(np.exp(2j * np.pi * (lin + ttype.j_values[k])))

    def largest_term(alpha, z):
        # |term| = exp(-pi w^T Y w - 2 pi w^T Im z), w = n + alpha; the
        # box |n|_inf <= 4 holds the centres of these points
        y = [v.imag for v in z]
        return max(
            math.exp(-math.pi * sum(w[i] * tau[i][j].imag * w[j] for i in range(g) for j in range(g))
                     - 2 * math.pi * sum(w[i] * y[i] for i in range(g)))
            for n in itertools.product(range(-4, 5), repeat=g)
            for w in [[n[i] + alpha[i] for i in range(g)]]
        )

    def residual(f, base, shifted, scale):
        rhs = f * base
        return abs(shifted - rhs) / max(abs(shifted), abs(rhs), RESIDUAL_FLOOR * scale)

    qp = [
        residual(factor(t1, z, k), value(spec1, z), value(spec1, z + gens[k]),
                 largest_term(spec1.alpha, z + gens[k]))
        for k in range(2 * g)
        for z in zs
    ]
    mult = max(
        residual(
            factor(tsum, z, k),
            value(spec1, z) * value(spec2, z),
            value(spec1, z + gens[k]) * value(spec2, z + gens[k]),
            largest_term(spec1.alpha, z + gens[k]) * largest_term(spec2.alpha, z + gens[k]),
        )
        for k in range(2 * g)
        for z in zs[:mult_rows]
    )
    return qp, mult


# --- verdicts read off report rows --------------------------------------------


# The verdict's checks as the paper defines them, written apart from the
# code's table.  Core: the metric and Ricci forms are Hermitian.  The
# pencil d + lam Gamma has curvature (lam^2 - lam)[A_c, A_d] - lam dbar
# Gamma and trace lam tr(F_1), so it is flat for every lam iff each
# coefficient vanishes.  Flatness: the curvature dbar Gamma (the mixed
# norm) and the Einstein defect of tr(F_1) vanish.  Associativity: the
# associator [A_c, A_d] and the WDVV residual vanish.
SAMPLE_CHECKS = (
    ("metric_hermiticity", "core"),
    ("ricci_hermiticity", "core"),
    ("mixed_norm", "flatness"),
    ("einstein_defect", "flatness"),
    ("wdvv", "associativity"),
    ("associator", "associativity"),
)


def failed_classes_from_rows(samples, tol):
    """The classes that fail on the report rows: a check fails when its
    value is not below ``tol`` in some row."""
    failed = set()
    for sample in samples:
        failed |= {cls for key, cls in SAMPLE_CHECKS if not sample[key] < tol}
    return failed


# --- group actions on a torus -------------------------------------------------

GROUP_TOL = 1e-9
ORDER_LIMIT = 512


def _lattice_coords(lattice, vector):
    """Real coordinates of a vector of C^n in the lattice generators, by one
    solve."""
    gens = np.asarray(lattice.generators)
    basis = np.concatenate([gens.real, gens.imag], axis=1).T
    vec = np.asarray(vector, dtype=np.complex128)
    return np.linalg.solve(basis, np.concatenate([vec.real, vec.imag]))


def _in_lattice(lattice, vector, tol=GROUP_TOL):
    coords = _lattice_coords(lattice, vector)
    return bool(np.all(np.abs(coords - np.round(coords)) < tol))


def _same_map(lattice, g, h):
    """``(A, t)`` pairs that are one map of the torus."""
    return bool(np.all(np.abs(g[0] - h[0]) < GROUP_TOL)) and _in_lattice(
        lattice, g[1] - h[1]
    )


def _has_finite_order(lattice, g):
    a, t = g
    if not abs(abs(np.linalg.det(a)) - 1.0) <= GROUP_TOL:
        return False
    n = len(t)
    identity = (np.eye(n), np.zeros(n))
    power = g
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(ORDER_LIMIT):
            if _same_map(lattice, power, identity):
                return True
            power = (power[0] @ a, power[0] @ t + power[1])
    return False


def fixes_mod_lattice(lattice, g, point, tol=1e-8):
    """Whether ``z -> A z + t`` moves ``point`` by a lattice vector."""
    a, t = g
    return _in_lattice(lattice, a @ point + t - point, tol)


def exact_det(mat) -> int:
    """Bareiss fraction-free determinant over the integers."""
    a = [[int(v) for v in row] for row in mat]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _integer_part(lattice, a):
    """``T = M - I`` for the linear part ``a``, in lattice coordinates:
    column k is ``a gen_k - gen_k``, rounded to integers."""
    cols = [_lattice_coords(lattice, a @ gen - gen) for gen in np.asarray(lattice.generators)]
    return np.round(np.stack(cols, axis=1))


def lefschetz_numbers(action):
    """``det(I - M)`` of each non-identity element, exactly.  A nonzero
    Lefschetz number forces a fixed point (``(M - I) x = -s`` then has a
    real solution), so on a free action every one is 0."""
    lat = action.lattice
    n = lat.generators.shape[1]
    identity = (np.eye(n), np.zeros(n))
    maps = [(el.A, el.t) for el in action.elements]
    return [exact_det(-_integer_part(lat, a)) for a, t in maps
            if not _same_map(lat, (a, t), identity)]


def _fixed_point(lattice, g):
    """A fixed point of ``z -> A z + t`` on the torus, or None.

    In lattice coordinates the map is ``x -> (T + I) x + tau`` with T an
    integer matrix.  A fixed point is an x with ``T x + tau`` integral;
    writing x = x0 + k with k integral and x0 in [0, 1)^2n shows that the
    integral ``m = T x0 + tau`` then lies in the box ``tau + T [0, 1]^2n``.
    Each integer m in that box is tested for ``m - tau`` in the column
    space of T.
    """
    a, t = g
    n = len(t)
    gens = np.asarray(lattice.generators)
    big_t = _integer_part(lattice, a)
    tau = _lattice_coords(lattice, t)
    low = tau + np.minimum(big_t, 0).sum(axis=1)
    high = tau + np.maximum(big_t, 0).sum(axis=1)
    ranges = [range(math.ceil(lo - GROUP_TOL), math.floor(hi + GROUP_TOL) + 1)
              for lo, hi in zip(low, high)]
    for m in itertools.product(*ranges):
        rhs = np.array(m, dtype=np.float64) - tau
        x, *_ = np.linalg.lstsq(big_t, rhs, rcond=None)
        if np.max(np.abs(big_t @ x - rhs)) < 1e-7:
            real = np.concatenate([gens.real, gens.imag], axis=1).T @ x
            return real[:n] + 1j * real[n:]
    return None


def brute_group_checks(action):
    """Every group check of a torus action, in complex coordinates.

    Closure and faithfulness by explicit loops over pairs and triples,
    with one lattice solve per compared pair; stability as each A mapping
    every generator into the lattice with an integer ``M`` of ``exact_det``
    +-1, so onto it; finiteness by powers of each element; freeness
    (decided only on a stable lattice, else None) by a bounded search for
    a fixed point of each non-identity element.
    """
    lat = action.lattice
    maps = [(el.A, el.t) for el in action.elements]
    n = lat.generators.shape[1]
    identity = (np.eye(n), np.zeros(n))
    moving = [g for g in maps if not _same_map(lat, g, identity)]
    stable = all(
        all(_in_lattice(lat, a @ gen) for gen in lat.generators)
        and abs(exact_det(_integer_part(lat, a) + np.eye(2 * n))) == 1
        for a, _ in maps
    )
    closure = all(
        any(_same_map(lat, (ga @ ha, ga @ ht + gt), k) for k in maps)
        for ga, gt in maps
        for ha, ht in maps
    )
    faithful = not any(
        _same_map(lat, maps[i], maps[j])
        for i in range(len(maps))
        for j in range(i + 1, len(maps))
    )
    free = None
    if stable:
        free = all(_fixed_point(lat, g) is None for g in moving)
    return {
        "closure": closure,
        "lattice_stable": stable,
        "finite": all(_has_finite_order(lat, g) for g in maps),
        "faithful": faithful,
        "contains_translations": any(
            np.all(np.abs(a - np.eye(n)) < GROUP_TOL) for a, _ in moving
        ),
        "free": free,
        "moving": moving,
    }


def flat_torus_entry(n, name=None):
    """The flat square torus of dimension ``n`` as a catalog entry."""
    return CatalogEntry(
        name=name or f"torus-{n}",
        dim=n,
        potential=flat_potential(n),
        lattice=square_lattice(n),
        action=None,
        expected_class="torus",
        metadata={"holonomy": "1"},
    )


# --- Hopf surfaces ------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class HopfVerdict:
    valid: bool
    affine: bool
    frobenius: bool  # always False: no Kahler metric exists
    kahler: bool  # always False


def hopf_affine_condition(a, b, c, m):
    """Classify contraction data (x, y) -> (a x + c y^m, b y).

    Valid Hopf data requires 0 < |a| <= |b| < 1 and (a - b^m) c = 0.
    A holomorphic affine structure exists iff c = 0 or m = 1; the
    Frobenius and Kahler flags are always False for this class.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    valid = (0.0 < abs(a) <= abs(b) < 1.0) and abs((a - b**m) * c) < EXACT_TOL
    affine = (abs(c) < EXACT_TOL) or (m == 1)
    return HopfVerdict(valid=valid, affine=affine, frobenius=False, kahler=False)


# --- sample points ------------------------------------------------------------

_SAMPLE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def reference_sample_points(spec_domain, dim, count, seed, label):
    """Kronecker points in the domain box, one point and one axis at a time."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "big"))
    offsets = rng.random(2 * dim)
    alphas = np.sqrt(np.array(_SAMPLE_PRIMES[: 2 * dim], dtype=np.float64))
    alphas -= np.floor(alphas)
    points = []
    for k in range(1, count + 1):
        u = np.mod(offsets + k * alphas, 1.0)
        z = np.empty(dim, dtype=np.complex128)
        for a in range(dim):
            lo_r, hi_r = (float(v) for v in spec_domain["re"][a])
            lo_i, hi_i = (float(v) for v in spec_domain["im"][a])
            z[a] = complex(lo_r + u[a] * (hi_r - lo_r), lo_i + u[dim + a] * (hi_i - lo_i))
        points.append(z)
    return np.array(points).reshape(count, dim)


def reference_sample_records(points, good, columns, failures):
    """The report rows of ``cli._sample_records``, one row and one key at
    a time: index and ``[re, im]`` point, then the error of a failure or
    the column values of a good point."""
    records = []
    for idx, z in enumerate(np.asarray(points).tolist()):
        records.append({"index": idx, "point": [[float(c.real), float(c.imag)] for c in z]})
    for idx, exc in failures.items():
        records[idx]["error"] = str(exc)
    for k, idx in enumerate(np.asarray(good).tolist()):
        for key, column in columns.items():
            records[idx][key] = column[k].item()
    return records


def sample_rows(report):
    """The sample rows of a 0.7.0 report, rebuilt from the columns of
    ``report["samples"]`` and the rows of ``report.get("errors", [])``:
    a row per entry of the columns, then the error rows, in index order
    where the rows have one.  ``report`` is in-process or loaded JSON."""
    columns = {key: col.tolist() if isinstance(col, np.ndarray) else col
               for key, col in report["samples"].items()}
    rows = [dict(zip(columns, values)) for values in zip(*columns.values())]
    if "index" not in columns:
        return rows
    return sorted(rows + report["errors"], key=lambda row: row["index"])
