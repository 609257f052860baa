"""Frobenius-algebra structure on tangent fibers and the connection pencil.

Structure constants are stored upper-index first: ``C[k][i][j]`` is the
coefficient of ``e_k`` in ``e_i * e_j``, matching the Christoffel layout
``christoffel[k][i][j]`` of the metric module.  The pencil of
connections deforms the flat background by ``lambda * C``; its curvature
2-form is exactly quadratic in lambda (linear on the mixed block).

Like the metric module, everything here broadcasts over leading sample
axes and reduces each check to one value per sample (a float for a
single point).  A pencil parameter may be a scalar or a 1-d grid; a grid
adds its axis after the sample axes, and the point data are computed
once for the whole grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .kahler import MetricData, christoffel_derivatives, worst
from .wirtinger import partial  # noqa: F401  (re-exported: the one-entry read)

UNIT_RESIDUAL_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class FiberAlgebra:
    """Finite-dimensional complex algebra with a symmetric bilinear form
    (or a batch of them along leading axes)."""

    dim: int
    C: np.ndarray  # C[k][i][j]
    form: np.ndarray

    def __post_init__(self) -> None:
        C = np.asarray(self.C, dtype=np.complex128)
        form = np.asarray(self.form, dtype=np.complex128)
        if C.shape[-3:] != (self.dim,) * 3 or form.shape[-2:] != (self.dim,) * 2:
            raise ValueError("structure constant / form shape mismatch")
        if not np.all(np.isfinite(C)):
            raise ValueError("non-finite structure constants")
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "form", form)


@dataclass(frozen=True)
class PencilSample:
    curvature_norm: float
    trace_norm: float


def commutator(alg: FiberAlgebra):
    """Max |C^k_{ij} - C^k_{ji}|; zero iff the algebra is commutative, and
    exactly zero on :func:`fiber_algebra_from_metric` algebras."""
    return worst(alg.C - np.swapaxes(alg.C, -1, -2), 3)


def associator(alg: FiberAlgebra):
    """Max componentwise |(e_i e_j) e_k - e_i (e_j e_k)| over basis triples."""
    left = np.einsum("...mij,...lmk->...ijkl", alg.C, alg.C)
    right = np.einsum("...mjk,...lim->...ijkl", alg.C, alg.C)
    return worst(left - right, 4)


def frobenius_compat(alg: FiberAlgebra):
    """Max |<e_i e_j, e_k> - <e_i, e_j e_k>| over basis triples; exactly
    zero on :func:`fiber_algebra_from_metric` algebras (zero form)."""
    left = np.einsum("...mij,...mk->...ijk", alg.C, alg.form)
    right = np.einsum("...im,...mjk->...ijk", alg.form, alg.C)
    return worst(left - right, 3)


def find_unit(alg: FiberAlgebra):
    """Least-squares unit: solve u * e_i = e_i for all i.

    Returns the coefficient vector when the residual is below
    ``UNIT_RESIDUAL_TOL``, otherwise None (e.g. for the zero algebra,
    which has no unit); for a batch, a list with one entry per sample.
    """
    n = alg.dim
    # row (k,i): sum_j C[k][j][i] u_j = delta_{ki}
    rows = np.swapaxes(alg.C, -1, -2).reshape(-1, n * n, n)
    b = np.eye(n, dtype=np.complex128).reshape(n * n)
    units = []
    for a in rows:  # LAPACK least squares does not take a stack
        u, *_ = np.linalg.lstsq(a, b, rcond=None)
        units.append(u if float(np.max(np.abs(a @ u - b))) < UNIT_RESIDUAL_TOL else None)
    return units if alg.C.ndim > 3 else units[0]


def fiber_algebra_from_metric(md: MetricData) -> FiberAlgebra:
    """Holomorphic tangent-fiber algebra at the point.

    Structure constants are the Christoffel symbols; the antiholomorphic
    fiber carries their conjugates.  The bilinear form is the metric
    restricted to the fiber, which vanishes identically because the
    pure-index metric blocks are zero; the zero form is stored explicitly.
    """
    return FiberAlgebra(md.dim, md.christoffel, np.zeros_like(md.g))


def _on_grid(lam, blocks: Sequence[np.ndarray], axes: int):
    """``lam`` and ``blocks`` shaped to broadcast against each other: a
    scalar leaves them as they are, a 1-d grid gets an axis in front of
    the blocks' last ``axes`` axes."""
    if np.ndim(lam) == 0:
        return lam, blocks
    grid = np.asarray(lam, dtype=float).reshape((-1,) + (1,) * axes)
    return grid, [np.expand_dims(x, -axes - 1) for x in blocks]


def _curvature_form(md: MetricData, dgam: np.ndarray, dgam_bar: np.ndarray, lam):
    gamma = md.christoffel
    antisym = np.einsum("...ckdj->...cdkj", dgam) - np.einsum("...dkcj->...cdkj", dgam)
    comm = np.einsum("...kcm,...mdj->...cdkj", gamma, gamma) - np.einsum(
        "...kdm,...mcj->...cdkj", gamma, gamma
    )
    mix = np.einsum("...dkcj->...cdkj", dgam_bar)
    lam, (antisym, comm, mix) = _on_grid(lam, (antisym, comm, mix), 4)
    return lam * antisym + lam * lam * comm, -lam * mix


def _trace_endomorphism(md: MetricData, dgam_bar: np.ndarray, lam) -> np.ndarray:
    trace = np.einsum("...jk,...kbja->...ba", md.g_inv, dgam_bar)
    lam, (trace,) = _on_grid(lam, (trace,), 2)
    return -lam * trace


def _einstein_defect(tr: np.ndarray):
    kappa = np.trace(tr, axis1=-2, axis2=-1) / tr.shape[-1]
    return worst(tr - kappa[..., None, None] * np.eye(tr.shape[-1]), 2)


def pencil_curvature_form(
    md: MetricData, lam
) -> tuple[np.ndarray, np.ndarray]:
    """Curvature 2-form blocks of the connection with coefficients
    lambda * Gamma in the flat background gauge.

    Returns ``(f_hol, f_mix)`` with
    ``f_hol[c][d][k][j] = lam*(d_c Gamma^k_{dj} - d_d Gamma^k_{cj})
                          + lam^2 * [A_c, A_d]^k_j``
    and ``f_mix[c][d][k][j] = -lam * dbar_d Gamma^k_{cj}``.
    Both blocks are polynomial in lambda (degree 2 and 1) with
    coefficients fixed by the point data.
    """
    return _curvature_form(md, *christoffel_derivatives(md), lam)


def trace_endomorphism(md: MetricData, lam) -> np.ndarray:
    """Metric trace of the mixed curvature block over the form indices:
    tr(F_lam)^b_a = -lam * sum_{j,k} H[j][k] dbar_k Gamma^b_{ja}."""
    return _trace_endomorphism(md, christoffel_derivatives(md)[1], lam)


def hermitian_einstein_trace(md: MetricData, lam):
    """Max entry of |tr(F_lam) - kappa Id| with kappa the mean diagonal."""
    return _einstein_defect(trace_endomorphism(md, lam))


def pencil_curvature(md: MetricData, lam) -> PencilSample:
    """Curvature and trace norms of the pencil at ``lam``; with a grid of
    parameters each norm has one entry per (sample, lambda)."""
    dgam, dgam_bar = christoffel_derivatives(md)
    f_hol, f_mix = _curvature_form(md, dgam, dgam_bar, lam)
    norm = np.maximum(worst(f_hol, 4), worst(f_mix, 4))
    return PencilSample(norm, _einstein_defect(_trace_endomorphism(md, dgam_bar, lam)))


def ricci_via_connection(md: MetricData) -> np.ndarray:
    """Ricci tensor recomputed as the fiber trace of dbar Gamma; must
    agree with the metric-route Ricci to round-off."""
    _, dgam_bar = christoffel_derivatives(md)
    return np.einsum("...daca->...cd", dgam_bar)

