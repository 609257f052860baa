"""Metric, Christoffel, curvature, Ricci and WDVV tensors at chart points.

Every tensor carries leading sample axes in front of its index axes:
``g`` has shape ``(..., n, n)``, with ``(N, n, n)`` for a batch of N
points and ``(n, n)`` for the single point of :func:`metric_at`.  The
functions below broadcast over those axes (``...`` einsums, batched
LAPACK) and reduce each check to one value per sample, a float for a
single point.  Index conventions below name the trailing axes only.

Tensors are read from the stacked jet partials ``partials`` (shape
``(..., E)``: jet coefficients times ``alpha! beta!`` in the order of
``wirtinger._table(n).entries``) by fancy indexing with the table's
gather indices, once per batch; ``wirtinger.partial`` is the scalar
form of the same read.

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
so the Ricci tensor equals the fiber trace of ``dbar Gamma`` and the two
independent contraction routes agree to round-off.  The sandwich
position of H (rather than its transpose) is what makes this exact; it
is validated against a finite-difference pipeline in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .expr import ExprError, PotentialExpr
from .wirtinger import _table, hermiticity_defect, jet_eval
from .wirtinger import partial  # noqa: F401  (re-exported: the one-entry read)

DEGENERACY_FLOOR = 1e-8  # min singular value must exceed floor * max
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
    point, or at a batch of points stacked along leading axes."""

    point: np.ndarray
    g: np.ndarray
    g_inv: np.ndarray
    phi3: np.ndarray
    christoffel: np.ndarray
    curvature: np.ndarray
    ricci: np.ndarray
    min_singular: np.ndarray
    cond: np.ndarray
    positive_definite: np.ndarray  # reported, not certified: spectrum at the point
    partials: np.ndarray  # jet coefficients times alpha! beta!

    @property
    def dim(self) -> int:
        return self.g.shape[-1]

    def __getitem__(self, k) -> "MetricData":
        """The bundle of sample ``k`` (or of the samples a mask or slice picks)."""
        return MetricData(**{f.name: getattr(self, f.name)[k] for f in fields(self)})


def worst(x: np.ndarray, axes: int):
    """Max |x| over the last ``axes`` axes: one value per sample, a float
    for a single point."""
    m = np.max(np.abs(x), axis=tuple(range(-axes, 0)))
    return float(m) if m.ndim == 0 else m


def hermiticity(m: np.ndarray):
    """Max |m - m^H| over the last two axes."""
    return worst(m - np.conj(np.swapaxes(m, -1, -2)), 2)


def metric_batch(
    potential: PotentialExpr, points: Sequence
) -> tuple[MetricData, dict[int, KahlerError | ExprError]]:
    """All metric-level tensors at a batch of points.

    The jets of all points are evaluated in one stacked pass; everything
    after them runs once on the stacked partials.  A point whose jet fails
    (log domain, exp out of range), whose potential is not real there,
    whose partials are not all finite or whose metric is degenerate is
    left out of the bundle and returned as ``{index: exception}``; the
    bundle holds the other points in order.
    """
    n = potential.dim
    t = _table(n)
    point = np.asarray(points, dtype=np.complex128).reshape(-1, n)
    failures: dict[int, KahlerError | ExprError] = {}
    # an overflow in the jets leaves non-finite partials, which the sample's
    # error record below reports in place of a warning
    with np.errstate(over="ignore", invalid="ignore"):
        jet = jet_eval(potential, point, failures)
        scale = np.maximum(1.0, np.max(np.abs(jet.coeffs), axis=0))
        not_real = hermiticity_defect(jet) > REALNESS_TOL * scale
        partials = np.ascontiguousarray(jet.coeffs.T) * t.fact
    finite = np.all(np.isfinite(partials), axis=1)
    for idx in np.flatnonzero(not_real):
        failures.setdefault(
            int(idx), RealnessError("potential is not real-valued near the point")
        )
    for idx in np.flatnonzero(~finite):
        failures.setdefault(int(idx), KahlerError("non-finite partials of the potential"))
    good = [idx for idx in range(len(point)) if idx not in failures]
    point, partials = point[good], partials[good]

    g = np.take(partials, t.g_idx, axis=-1)
    sv = np.linalg.svd(g, compute_uv=False)
    smax, smin = sv[:, 0], sv[:, -1]
    degenerate = smin <= DEGENERACY_FLOOR * smax
    for k in np.flatnonzero(degenerate):
        failures[good[k]] = DegenerateMetricError(
            f"metric degenerate at point (min singular {smin[k]:.3e}, max {smax[k]:.3e})"
        )
    keep = ~degenerate
    point, partials, g = point[keep], partials[keep], g[keep]
    smax, smin = smax[keep], smin[keep]

    positive = np.linalg.eigvalsh(g)[:, 0] > 0
    h = np.linalg.inv(g)  # LAPACK LU with partial pivoting
    phi3 = np.take(partials, t.phi3_idx, axis=-1)
    christoffel = np.einsum("...ije,...ek->...kij", phi3, h)
    # gradient term: (d_c G)[a][gamma] = phi3[a][c][gamma],
    #                (dbar_d G)[e][b]  = conj(phi3)[b][d][e]
    grad = np.einsum("...acg,...ge,...bde->...abcd", phi3, h, np.conj(phi3))
    curvature = np.take(partials, t.ddbar_idx, axis=-1) - grad
    ricci = np.einsum("...ba,...abcd->...cd", h, curvature)

    md = MetricData(
        point=point,
        g=g,
        g_inv=h,
        phi3=phi3,
        christoffel=christoffel,
        curvature=curvature,
        ricci=ricci,
        min_singular=smin,
        cond=smax / smin,
        positive_definite=positive,
        partials=partials,
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
    Phi_{b cbar ebar} = conj(phi3)[c][e][b].
    """
    h, phi3, phi3_bar = md.g_inv, md.phi3, np.conj(md.phi3)
    lhs = np.einsum("...abe,...ef,...cdf->...abcd", phi3, h, phi3_bar)
    rhs = np.einsum("...ceb,...ef,...fad->...abcd", phi3_bar, h, phi3)
    return worst(lhs - rhs, 4)


def ricci_c1_check(md: MetricData):
    """Hermiticity defect of the Ricci tensor and its max entry.

    The Ricci tensor represents the first Chern form up to the factor
    i/(2*pi); flat entries must give a vanishing max entry.
    """
    return hermiticity(md.ricci), worst(md.ricci, 2)


def christoffel_derivatives(md: MetricData) -> tuple[np.ndarray, np.ndarray]:
    """First derivatives of the Christoffel symbols at the points.

    Returns ``(dgam, dgam_bar)`` with
    ``dgam[c][k][i][j] = d_c Gamma^k_{ij}`` and
    ``dgam_bar[d][k][i][j] = dbar_d Gamma^k_{ij}``.
    Uses order-4 jet data: d(H) = -H dG H for both derivative types.
    """
    t = _table(md.dim)
    h, phi3, phi3_bar = md.g_inv, md.phi3, np.conj(md.phi3)
    p4a = np.take(md.partials, t.d4_idx, axis=-1)  # [i, j, c, e] = d_c Phi_{ij ebar}
    # [i, j, e, d] = dbar_d Phi_{ij ebar}
    p4b = np.take(md.partials, t.ddbar_idx.transpose(0, 2, 1, 3), axis=-1)

    # d_c H = -H (d_c G) H with (d_c G)[p][q] = phi3[p][c][q]
    dg_hol = np.einsum("...pcq->...cpq", phi3)
    dh_hol = -np.einsum("...pe,...cef,...fk->...cpk", h, dg_hol, h)
    # dbar_d H = -H (dbar_d G) H with (dbar_d G)[p][q] = conj(phi3)[q][d][p]
    dg_anti = np.einsum("...qdp->...dpq", phi3_bar)
    dh_anti = -np.einsum("...pe,...def,...fk->...dpk", h, dg_anti, h)

    dgam = np.einsum("...ijce,...ek->...ckij", p4a, h) + np.einsum(
        "...ije,...cek->...ckij", phi3, dh_hol
    )
    dgam_bar = np.einsum("...ijed,...ek->...dkij", p4b, h) + np.einsum(
        "...ije,...dek->...dkij", phi3, dh_anti
    )
    return dgam, dgam_bar
