"""Frobenius-algebra structure on tangent fibers and the connection pencil.

An algebra is its array of structure constants, upper-index first:
``C[k][i][j]`` is the coefficient of ``e_k`` in ``e_i * e_j``, the
Christoffel layout ``christoffel[k][i][j]`` of the metric module.  The
pencil of connections deforms the flat background by ``lambda * C``; its
curvature 2-form is ``(lambda^2 - lambda) [A_c, A_d]`` on the holomorphic
block and ``-lambda dbar Gamma`` on the mixed one, both read off the
Christoffel symbols, the curvature and the inverse metric of the metric
bundle.  Its lambda^2 block ``[A_c, A_d]`` is also the associator of the
commutative fiber algebra.

So the pencil is flat for every lambda iff ``[A_c, A_d]`` and ``dbar
Gamma`` vanish, and its trace ``lambda tr(F_1)`` is Einstein iff that of
``F_1`` is: :func:`pencil_curvature` returns these three coefficients'
per-sample norms, and no norm is formed at any lambda.  Like the metric
module, everything here broadcasts over leading sample axes and reduces
each check to one value per sample (a float for a single point).

On a chart whose jet support leaves out the third and fourth mixed
partials (``MetricData.zero``: every flat chart ``sum M_ab z_a zbar_b``
plus pluriharmonic terms), Gamma, R and Ric are zero by structure: the
fiber algebra is the zero algebra, each norm here is +0.0, and the verify
pass writes them without calling :func:`pencil_curvature`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kahler import MetricData, split, worst
from .kahler import christoffel_derivatives  # noqa: F401  (re-exported: perfbench traces this name)
from .wirtinger import partial  # noqa: F401  (re-exported: the one-entry read)

UNIT_RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class PencilSample:
    associator: np.ndarray
    mixed_norm: np.ndarray
    einstein_defect: np.ndarray


def commutator(C: np.ndarray):
    """Max |C^k_{ij} - C^k_{ji}|; zero iff the algebra is commutative, and
    exactly zero on :func:`fiber_algebra_from_metric` algebras."""
    return worst(C - np.swapaxes(C, -1, -2), 3)


def multiplication_commutator(C: np.ndarray) -> np.ndarray:
    """``[A_c, A_d]^k_j`` indexed [c][d][k][j], with ``(A_c)^k_j = C^k_{cj}``
    multiplication by ``e_c``.  For commutative ``C``, ``(e_a e_b) e_c -
    e_a (e_b e_c) = [A_c, A_a] e_b``; without commutativity this fails (M_2
    is associative, and its commutator is not zero)."""
    n = C.shape[-1]
    # prod[(k, c), (d, j)] = sum_m C^k_{cm} C^m_{dj}; the bracket is prod minus its (c, d) swap
    prod = split(C, 3, n * n, n) @ split(C, 3, n, n * n)
    prod = np.einsum("...kcdj->...cdkj", split(prod, 2, n, n, n, n))
    return prod - np.swapaxes(prod, -4, -3)


def associator(C: np.ndarray):
    """Max componentwise |(e_i e_j) e_k - e_i (e_j e_k)| over basis triples
    of a commutative algebra, read as ``max |[A_c, A_d]|``."""
    return worst(multiplication_commutator(C), 4)


def frobenius_compat(C: np.ndarray, form: np.ndarray):
    """Max |<e_i e_j, e_k> - <e_i, e_j e_k>| over basis triples for the
    bilinear ``form``; the fiber form of :func:`fiber_algebra_from_metric`
    algebras is zero, so there it is exactly zero."""
    left = np.einsum("...mij,...mk->...ijk", C, form)
    right = np.einsum("...im,...mjk->...ijk", form, C)
    return worst(left - right, 3)


# No pipeline calls this (perfbench/tracer.py traces the name): a flat verdict's algebra is zero
def find_unit(C: np.ndarray):
    """Least-squares unit: solve u * e_i = e_i for all i.

    Returns the coefficient vector when the residual is below
    ``UNIT_RESIDUAL_TOL``, otherwise None (e.g. for the zero algebra,
    which has no unit); for a batch, a list with one entry per sample.
    """
    n = C.shape[-1]
    # row (k,i): sum_j C[k][j][i] u_j = delta_{ki}
    rows = np.swapaxes(C, -1, -2).reshape(-1, n * n, n)
    b = np.eye(n, dtype=np.complex128).reshape(n * n)
    u = np.linalg.pinv(rows) @ b  # one minimum-norm solution per sample
    residual = np.max(np.abs(rows @ u[..., None] - b[:, None]), axis=(1, 2))
    units = [x if r < UNIT_RESIDUAL_TOL else None for x, r in zip(u, residual)]
    return units if C.ndim > 3 else units[0]


def fiber_algebra_from_metric(md: MetricData) -> np.ndarray:
    """Structure constants of the holomorphic tangent-fiber algebra at the
    point: the Christoffel symbols; the antiholomorphic fiber carries their
    conjugates.  The bilinear form is the metric restricted to the fiber,
    which vanishes identically because the pure-index metric blocks are
    zero."""
    return md.christoffel


def _mixed_block(md: MetricData) -> np.ndarray:
    """``dbar_d Gamma^k_{cj} = sum_b R[j][b][c][d] H[b][k]`` (a Kahler
    identity) indexed [(c, d, j)][k]: the pencil's mixed block over -lam."""
    n = md.dim
    return split(np.einsum("...jbcd->...cdjb", md.curvature), 4, n**3, n) @ md.g_inv


def pencil_curvature_form(md: MetricData, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Curvature 2-form blocks ``(f_hol, f_mix)``, indexed [c][d][k][j], of
    the connection with coefficients lambda * Gamma in the flat background
    gauge: ``f_hol = lam*(d_c Gamma^k_{dj} - d_d Gamma^k_{cj}) + lam^2 *
    [A_c, A_d]^k_j = (lam^2 - lam) * [A_c, A_d]^k_j`` (the Chern connection
    has no (2,0) curvature) and ``f_mix = -lam * dbar_d Gamma^k_{cj}``."""
    n = md.dim
    mix = np.swapaxes(split(_mixed_block(md), 2, n, n, n, n), -1, -2)
    return (lam * lam - lam) * multiplication_commutator(md.christoffel), -lam * mix


def trace_endomorphism(md: MetricData) -> np.ndarray:
    """Metric trace of the mixed curvature block at lam = 1 over the form
    indices, paired as the metric pairs them:
    ``tr(F_1)^b_a = -sum_{j,k} H[k][j] dbar_k Gamma^b_{ja}``, the mean
    curvature ``g^{j kbar} F_{j kbar}`` (Kobayashi, *Differential
    Geometry of Complex Vector Bundles*, 1987, IV.1); at lam it is
    ``lam`` times this.  By the symmetries of the Kahler curvature it is
    ``-(Ric @ H)^T``."""
    return -np.swapaxes(md.ricci @ md.g_inv, -1, -2)


def hermitian_einstein_trace(md: MetricData):
    """Max entry of |tr(F_1) - kappa Id| with kappa the mean diagonal: the
    Einstein defect at lam = 1, which ``|lam|`` scales."""
    tr = trace_endomorphism(md)
    kappa = np.trace(tr, axis1=-2, axis2=-1) / tr.shape[-1]
    return worst(tr - kappa[..., None, None] * np.eye(tr.shape[-1]), 2)


def pencil_curvature(md: MetricData) -> PencilSample:
    """The pencil's per-sample norms, which lambda only scales: at ``lam``
    the curvature norm over the blocks of :func:`pencil_curvature_form`
    is ``max(|lam^2 - lam| * associator, |lam| * mixed_norm)``, with
    ``mixed_norm = max|dbar Gamma|``, and the trace norm ``|lam| *
    einstein_defect``."""
    return PencilSample(associator(md.christoffel), worst(_mixed_block(md), 2),
                        hermitian_einstein_trace(md))
