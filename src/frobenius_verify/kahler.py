"""Metric, Christoffel, curvature, Ricci and WDVV tensors at chart points.

Every tensor carries leading sample axes in front of its index axes:
``g`` has shape ``(..., n, n)``, with ``(N, n, n)`` for a batch of N
points and ``(n, n)`` for the single point of :func:`metric_at`.  The
functions below broadcast over those axes and reduce each check to one
value per sample, a float for a single point.  Contractions are
pairwise: matrix products (``@``, batched BLAS) on views that merge the
trailing index axes, so a product of three tensors costs two n^5 matrix
products per sample, not one n^6 loop.  Each batch makes one LAPACK
``eigvalsh`` of g (its spectrum) and one ``inv`` (H).  Index conventions
below name the trailing axes only.

Tensors are read once per batch, by fancy indexing, from the stacked
partials of the root jet's support rows (``(N, S + 1)``: the S stored
coefficients times their ``alpha! beta!``, then a zero column that every
entry off the support reads), and the partials are then dropped;
``wirtinger.partial`` is the scalar form of the same read.

A block of partials that lies wholly outside the root jet's support is
zero at every point: ``phi3`` (third partials ``d_a d_b dbar_c``) and
``ddbar`` (fourth partials ``d_a d_c dbar_b dbar_d``).  The support is
a property of the parsed potential, so the columns and this pattern are
read once per support, and the bundle carries it as ``MetricData.zero``.
A support holds each entry's lower entries (every jet has a constant
term), so a zero phi3 makes ddbar zero too: then Gamma, R and Ric are
zero, as on every flat chart ``sum M_ab z_a zbar_b`` plus pluriharmonic
terms, and :func:`metric_batch` forms none of their products and keeps
zeros in their place.  Where the inverse metric is finite these zeros
are what the products give.

Index conventions (G is the matrix ``G[a][b] = g_{a bbar}`` of second
mixed partials of the potential, H = G^{-1}):

* ``phi3[a][b][c]``     holds Phi_{a b cbar}   (two holomorphic, one anti);
  its conjugate ``conj(phi3)[a][b][c]`` is Phi_{abar bbar c};
* ``christoffel[k][i][j] = sum_e phi3[i][j][e] H[e][k]``  (Gamma^k_{ij});
* curvature ``R[a][b][c][d]`` (indices a, bbar, c, dbar) is

      d_c dbar_d g_{a bbar}
        - sum_{gamma,e} (d_c g_{a gammabar}) H[gamma][e] (dbar_d g_{e bbar}),

  i.e. second-derivative term minus the H-sandwich of metric gradients;
* ``ricci[c][d] = sum_{a,b} H[b][a] R[a][b][c][d]`` (trace over (a, bbar)).

With these pairings the identity
``R[a][b][c][d] = sum_k g_{k bbar} dbar_d Gamma^k_{ca}`` holds exactly,
so ``dbar_d Gamma^k_{ca} = sum_b R[a][b][c][d] H[b][k]`` and the Ricci
tensor is the fiber trace of ``dbar Gamma``.  The pencil reads
``dbar Gamma`` this way; the tests keep the second, independent route
(``dbar Gamma`` by the chain rule on the order-4 partials) and check
that the two agree to round-off.  The sandwich position of H (rather
than its transpose) is what makes this exact; it is validated against a
finite-difference pipeline in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import lru_cache
from typing import Sequence

import numpy as np

from .expr import ExprError, PotentialExpr
from .wirtinger import PRODUCT_CACHE, _entries, _table, hermiticity_defect, jet_eval
from .wirtinger import partial  # noqa: F401  (re-exported: the one-entry read)

# min |eigenvalue| of g (its smallest singular value) must exceed floor * max
DEGENERACY_FLOOR = 1e-8
REALNESS_TOL = 1e-8


class KahlerError(Exception):
    pass


class DegenerateMetricError(KahlerError):
    pass


class RealnessError(KahlerError):
    pass


@dataclass(frozen=True, eq=False)
class MetricData:
    """Bundle of all tensors derived from the potential's jets at one
    point, or at a batch of points stacked along leading axes.  Indexing
    copies every array, so the verify pass indexes a batch's bundle only
    when a sample is dropped from it."""

    g: np.ndarray
    g_inv: np.ndarray  # the batch's one inv(g)
    phi3: np.ndarray
    christoffel: np.ndarray
    curvature: np.ndarray
    ricci: np.ndarray
    # from the batch's one eigvalsh(g): min |eigenvalue|, max / min |eigenvalue|
    # and, reported, not certified, whether the least eigenvalue is > 0
    min_singular: np.ndarray
    cond: np.ndarray
    positive_definite: np.ndarray
    # the jet blocks ("phi3", "ddbar") that are zero by the potential's
    # support, as zero_blocks reads them; a bundle built by hand has none
    zero: frozenset = frozenset()

    @property
    def dim(self) -> int:
        return self.g.shape[-1]

    def __getitem__(self, k) -> "MetricData":
        """The bundle of sample ``k`` (or of the samples a mask or slice picks)."""
        return replace(self, **{f.name: getattr(self, f.name)[k]
                                for f in fields(self) if f.name != "zero"})


def worst(x: np.ndarray, axes: int):
    """Max |x| over the last ``axes`` axes: one value per sample, a float
    for a single point."""
    m = np.max(np.abs(x), axis=tuple(range(-axes, 0)))
    return float(m) if m.ndim == 0 else m


def hermiticity(m: np.ndarray):
    """Max |m - m^H| over the last two axes."""
    return worst(m - np.conj(np.swapaxes(m, -1, -2)), 2)


def split(x: np.ndarray, axes: int, *shape: int) -> np.ndarray:
    """``x`` with its last ``axes`` axes reshaped to ``shape``, the leading
    sample axes kept: a view where the axes merge or split in place."""
    return x.reshape(x.shape[: x.ndim - axes] + shape)


@lru_cache(maxsize=PRODUCT_CACHE)
def _columns(dim: int, support: int) -> tuple[dict[str, np.ndarray], frozenset]:
    """The storage columns of the "g", "phi3" and "ddbar" blocks in the
    partials of a jet with ``support``, S (the zero column) off the support;
    and the blocks, of "phi3" and "ddbar", that read only S: zero everywhere."""
    t, rows = _table(dim), _entries(dim, support)
    column = np.full(len(t.entries), len(rows), dtype=np.intp)
    column[rows] = np.arange(len(rows))
    maps = {name: column[getattr(t, f"{name}_idx")] for name in ("g", "phi3", "ddbar")}
    for m in maps.values():
        m.flags.writeable = False
    return maps, frozenset(b for b in ("phi3", "ddbar") if np.all(maps[b] == len(rows)))


def zero_blocks(dim: int, support: int) -> frozenset:
    """The blocks of partials that hold no entry of ``support``, as :func:`_columns` finds."""
    return _columns(dim, support)[1]


def metric_batch(
    potential: PotentialExpr, points: Sequence
) -> tuple[MetricData, dict[int, KahlerError | ExprError]]:
    """All metric-level tensors at a batch of points.

    The jets of all the points are evaluated in one stacked pass, their
    support rows read into stacked partials, and dropped; everything after
    them runs once on those, so the caller's batch bounds both layers.
    The bundle keeps the tensors gathered from the partials, not the partials,
    and no product is formed where :func:`zero_blocks` finds both blocks zero.
    A point whose jet fails (log domain, exp out of range), whose potential
    is not real there, whose partials are not all finite or whose metric is
    degenerate is left out of the bundle and returned as
    ``{index: exception}``; the bundle holds the other points in order, and
    is copied only when a point is left out.
    """
    n = potential.dim
    t = _table(n)
    point = np.asarray(points, dtype=np.complex128).reshape(-1, n)
    failures: dict[int, KahlerError | ExprError] = {}
    # an overflow in the jets leaves non-finite partials, which the sample's
    # error record below reports in place of a warning
    with np.errstate(over="ignore", invalid="ignore"):
        jet = jet_eval(potential, point, failures)
        zero = zero_blocks(n, jet.support)
        # the zeros off the support cannot raise a max floored at 1
        scale = np.maximum(1.0, np.max(np.abs(jet.coeffs), axis=0))
        not_real = hermiticity_defect(jet) > REALNESS_TOL * scale
        columns = _columns(n, jet.support)[0]
        partials = np.zeros((len(point), len(jet.coeffs) + 1), dtype=complex)
        np.multiply(jet.coeffs.T, t.fact[_entries(n, jet.support)], out=partials[:, :-1])
        del jet
    finite = np.all(np.isfinite(partials), axis=1)
    for idx in np.flatnonzero(not_real):
        failures.setdefault(
            int(idx), RealnessError("potential is not real-valued near the point")
        )
    for idx in np.flatnonzero(~finite):
        failures.setdefault(int(idx), KahlerError("non-finite partials of the potential"))
    good = [idx for idx in range(len(point)) if idx not in failures]
    if len(good) < len(point):
        partials = partials[good]

    g = np.take(partials, columns["g"], axis=-1)
    # g is Hermitian, so its singular values are its |eigenvalues|: one
    # spectrum decides degeneracy, conditioning and positivity
    eig = np.linalg.eigvalsh(g)
    smax, smin = np.max(np.abs(eig), axis=-1), np.min(np.abs(eig), axis=-1)
    degenerate = smin <= DEGENERACY_FLOOR * smax
    for k in np.flatnonzero(degenerate):
        failures[good[k]] = DegenerateMetricError(
            f"metric degenerate at point (min singular {smin[k]:.3e}, max {smax[k]:.3e})"
        )
    if degenerate.any():
        keep = ~degenerate
        partials, g, eig = partials[keep], g[keep], eig[keep]
        smax, smin = smax[keep], smin[keep]

    h = np.linalg.inv(g)  # LAPACK LU with partial pivoting
    if zero == {"phi3", "ddbar"}:  # Gamma, R and Ric are zero: no product is formed
        lead = g.shape[:-2]
        phi3 = christoffel = np.zeros(lead + (n,) * 3, dtype=complex)
        curvature = np.zeros(lead + (n,) * 4, dtype=complex)
        ricci = np.zeros(lead + (n, n), dtype=complex)
    else:
        phi3 = np.take(partials, columns["phi3"], axis=-1)
        # gam[(i, j), k] = sum_e phi3[i][j][e] H[e][k], so Gamma^k_{ij} = gam[i, j, k]
        gam = split(phi3, 3, n * n, n) @ h
        christoffel = np.ascontiguousarray(np.einsum("...ijk->...kij", split(gam, 2, n, n, n)))
        # gradient term sum_e gam[(a, c), e] conj(phi3)[b][d][e], from
        # (d_c G)[a][gamma] = phi3[a][c][gamma] and (dbar_d G)[e][b] = conj(phi3)[b][d][e]
        grad = gam @ np.swapaxes(split(np.conj(phi3), 3, n * n, n), -1, -2)
        curvature = np.take(partials, columns["ddbar"], axis=-1) - np.einsum(
            "...acbd->...abcd", split(grad, 2, n, n, n, n)
        )
        ricci = np.einsum("...ba,...abcd->...cd", h, curvature)

    md = MetricData(
        g=g,
        g_inv=h,
        phi3=phi3,
        christoffel=christoffel,
        curvature=curvature,
        ricci=ricci,
        min_singular=smin,
        cond=smax / smin,
        positive_definite=eig[:, 0] > 0,
        zero=zero,
    )
    return md, failures


def metric_at(potential: PotentialExpr, point) -> MetricData:
    """All metric-level tensors at ``point``: the one-point batch."""
    md, failures = metric_batch(potential, [point])
    if failures:
        raise failures[0]
    return md[0]


def kahler_residuals(md: MetricData, partials: np.ndarray):
    """Integrity check of a metric bundle against jet partials.

    First value: max of the metric-symmetry defect
    ``|d_a g_{b cbar} - d_b g_{a cbar}|`` (with derivatives read from
    ``partials``), the hermiticity defect of ``md.g`` and the deviation of
    ``md.g`` from the second partials.  Second value: the same for the
    rank-3 tensor, ``|Phi_{a b cbar} - Phi_{b a cbar}|`` plus the
    deviation of ``md.phi3`` from the third partials.  Both are 0 by
    construction for a bundle derived from ``partials`` (``md.phi3`` is
    the very gather it is compared with), so the verify pipeline does not
    call this; it detects a bundle that was corrupted or paired with the
    wrong partials.
    """
    t = _table(md.dim)
    g_jet = np.take(partials, t.g_idx, axis=-1)
    phi3_jet = np.take(partials, t.phi3_idx, axis=-1)

    sym_g = worst(phi3_jet - np.swapaxes(phi3_jet, -3, -2), 3)
    cons_g = worst(md.g - g_jet, 2)
    sym_p = worst(md.phi3 - np.swapaxes(md.phi3, -3, -2), 3)
    cons_p = worst(md.phi3 - phi3_jet, 3)

    return np.maximum.reduce([sym_g, hermiticity(md.g), cons_g]), np.maximum(sym_p, cons_p)


def wdvv_residual_at(md: MetricData):
    """Max deviation between the two contraction routes of the
    associativity constraint on third potential derivatives.

    lhs[a,b,c,d] = sum_{e,f} Phi_{a b ebar} g^{ebar f} Phi_{f cbar dbar}
    rhs[a,b,c,d] = sum_{e,f} Phi_{b cbar ebar} g^{ebar f} Phi_{f a dbar}

    with Phi_{f cbar dbar} = conj(phi3)[c][d][f] and
    Phi_{b cbar ebar} = conj(phi3)[c][e][b].  The inner sum of lhs is
    ``md.christoffel`` (Gamma^f_{ab}), that of rhs is ``H @ phi3``.
    """
    n, phi3_bar = md.dim, np.conj(md.phi3)
    # lhs[c, d, (a, b)] = sum_f conj(phi3)[c][d][f] Gamma^f_{ab}
    lhs = split(phi3_bar, 3, n * n, n) @ split(md.christoffel, 3, n, n * n)
    # rhs[c, b, (a, d)] = sum_e conj(phi3)[c][e][b] (H @ phi3)[e, (a, d)]
    rhs = split(np.swapaxes(phi3_bar, -1, -2), 3, n * n, n) @ (
        md.g_inv @ split(md.phi3, 3, n, n * n)
    )
    # the max runs over all entries, so both sides only need the same layout
    rhs = np.swapaxes(split(rhs, 2, n, n, n, n), -3, -1)
    return worst(split(lhs, 2, n, n, n, n) - rhs, 4)


def ricci_c1_check(md: MetricData):
    """Hermiticity defect of the Ricci tensor and its max entry.

    The Ricci tensor represents the first Chern form up to the factor
    i/(2*pi); flat entries must give a vanishing max entry.
    """
    return hermiticity(md.ricci), worst(md.ricci, 2)


def christoffel_derivatives(md: MetricData, partials: np.ndarray) -> np.ndarray:
    """Holomorphic first derivatives of the Christoffel symbols at the
    points of ``md``: ``dgam[c][k][i][j] = d_c Gamma^k_{ij}``, from their
    jet partials ``partials`` (order-4 data), with d_c H = -H (d_c G) H.

    The verify path does not need them: the Chern connection has no (2,0)
    curvature, so their antisymmetric part is ``-[A_c, A_d]``, which the
    pencil reads off the Christoffel symbols.
    """
    n, t = md.dim, _table(md.dim)
    h, phi3 = md.g_inv, md.phi3
    # (d_c G)[p][q] = phi3[p][c][q], so d_c H is [(e, c), k]
    dh = -(split(h @ split(phi3, 3, n, n * n), 2, n * n, n) @ h)
    # p4[i, j, c, e] = d_c Phi_{ij ebar}: [(i, j, c), k] as [(i, j), (c, k)],
    # plus [(i, j), (c, k)] in place
    both = split(split(np.take(partials, t.d4_idx, axis=-1), 4, n**3, n) @ h, 2, n * n, n * n)
    both += split(phi3, 3, n * n, n) @ split(dh, 2, n, n * n)
    return np.einsum("...ijck->...ckij", split(both, 2, n, n, n, n))
