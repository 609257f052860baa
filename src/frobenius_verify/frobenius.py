"""Frobenius-algebra structure on tangent fibers and the connection pencil.

An algebra is its array of structure constants, upper-index first:
``C[k][i][j]`` is the coefficient of ``e_k`` in ``e_i * e_j``, the
Christoffel layout ``christoffel[k][i][j]`` of the metric module.  The
pencil of connections deforms the flat background by ``lambda * C``; its
curvature 2-form is exactly quadratic in lambda (linear on the mixed
block), and both of its blocks are read off the Christoffel symbols, the
curvature and the inverse metric of the metric bundle.  Its lambda^2
block ``[A_c, A_d]`` is also the associator of the commutative fiber
algebra.

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

from .kahler import MetricData, split, worst
from .kahler import christoffel_derivatives  # noqa: F401  (re-exported: perfbench traces this name)
from .wirtinger import partial  # noqa: F401  (re-exported: the one-entry read)

UNIT_RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class PencilSample:
    curvature_norm: float
    trace_norm: float


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


def _on_grid(lam, blocks: Sequence[np.ndarray], axes: int):
    """``lam`` and ``blocks`` shaped to broadcast against each other: a
    scalar leaves them as they are, a 1-d grid gets an axis in front of
    the blocks' last ``axes`` axes."""
    if np.ndim(lam) == 0:
        return lam, blocks
    grid = np.asarray(lam, dtype=float).reshape((-1,) + (1,) * axes)
    return grid, [np.expand_dims(x, -axes - 1) for x in blocks]


def _curvature_blocks(md: MetricData):
    """``(comm, mix)``, each indexed [c][d][k][j]: the pencil's blocks are
    ``(lam^2 - lam) * comm`` and ``-lam * mix``.

    Two exact Kahler identities give them from the bundle.  The Chern
    connection has no (2,0) curvature, so
    ``d_c Gamma^k_{dj} - d_d Gamma^k_{cj} = -[A_c, A_d]^k_j``; and
    ``dbar_d Gamma^k_{cj} = sum_b R[j][b][c][d] H[b][k]``.
    """
    n = md.dim
    # mix[(c, d, j), k] = sum_b R[j][b][c][d] H[b][k]
    mix = split(np.einsum("...jbcd->...cdjb", md.curvature), 4, n**3, n) @ md.g_inv
    mix = np.swapaxes(split(mix, 2, n, n, n, n), -1, -2)
    return multiplication_commutator(md.christoffel), mix


def pencil_curvature_form(
    md: MetricData, lam
) -> tuple[np.ndarray, np.ndarray]:
    """Curvature 2-form blocks of the connection with coefficients
    lambda * Gamma in the flat background gauge.

    Returns ``(f_hol, f_mix)`` with
    ``f_hol[c][d][k][j] = lam*(d_c Gamma^k_{dj} - d_d Gamma^k_{cj})
                          + lam^2 * [A_c, A_d]^k_j = (lam^2 - lam) * [A_c, A_d]^k_j``
    and ``f_mix[c][d][k][j] = -lam * dbar_d Gamma^k_{cj}``.
    Both blocks are polynomial in lambda (degree 2 and 1) with
    coefficients fixed by the point data.
    """
    lam, (comm, mix) = _on_grid(lam, _curvature_blocks(md), 4)
    return (lam * lam - lam) * comm, -lam * mix


def trace_endomorphism(md: MetricData, lam) -> np.ndarray:
    """Metric trace of the mixed curvature block over the form indices,
    paired as the metric pairs them:
    ``tr(F_lam)^b_a = -lam * sum_{j,k} H[k][j] dbar_k Gamma^b_{ja}``, the
    mean curvature ``g^{j kbar} F_{j kbar}`` (Kobayashi, *Differential
    Geometry of Complex Vector Bundles*, 1987, IV.1).  By the symmetries
    of the Kahler curvature it is ``-lam * (Ric @ H)^T``."""
    lam, (ric_h,) = _on_grid(lam, (md.ricci @ md.g_inv,), 2)
    return -lam * np.swapaxes(ric_h, -1, -2)


def hermitian_einstein_trace(md: MetricData, lam):
    """Max entry of |tr(F_lam) - kappa Id| with kappa the mean diagonal."""
    tr = trace_endomorphism(md, lam)
    kappa = np.trace(tr, axis1=-2, axis2=-1) / tr.shape[-1]
    return worst(tr - kappa[..., None, None] * np.eye(tr.shape[-1]), 2)


def pencil_curvature(md: MetricData, lam) -> PencilSample:
    """Curvature and trace norms of the pencil at ``lam``; with a grid of
    parameters each norm has one entry per (sample, lambda).  The curvature
    norm is ``max(|lam^2 - lam| max|comm|, |lam| max|mix|)`` in the blocks
    of :func:`pencil_curvature_form`: each block's max is taken once per
    sample, so no (sample, lambda, n^4) grid is built."""
    grid, (comm, mix) = _on_grid(lam, [worst(x, 4) for x in _curvature_blocks(md)], 0)
    norm = np.maximum(np.abs(grid * grid - grid) * comm, np.abs(grid) * mix)
    return PencilSample(norm, hermitian_einstein_trace(md, lam))
