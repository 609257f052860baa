"""Theta functions on complex tori: series evaluation, transformation
types and level-space dimension counts.

The series realization with characteristics (alpha, beta) is

    theta(z) = sum_{n in Z^g} exp( pi*i (n+alpha)^T tau (n+alpha)
                                   + 2*pi*i (n+alpha)^T (z+beta) )

truncated to the box |n|_inf <= R.  Under a lattice shift the value
picks up the factor e(L(x,l) + J(l)) with e(x) = exp(2*pi*i*x):

    l = e_j:      L = 0,          J = alpha_j
    l = tau e_j:  L(x) = -x_j,    J = -tau_jj / 2 - beta_j

A transformation type stores one (L, J) pair per lattice generator and
extends to integer combinations linearly in the generator slot,
``L(x, sum m_l l) = sum m_l L(x, l)``; the quadratic corrections that
appear when iterating shifts are shifts of J by integers times L-rows
and do not change the stored data.  Types add under multiplication of
theta functions, which is the group law checked here.

Evaluation is batched: one call takes a single point or a stack of
points.  The index box is built once per (genus, radius) and shared
read-only, the quadratic term once per call, and the points are walked
in blocks of at most ``BLOCK_ENTRIES`` series terms, so peak memory does
not grow with the batch.  Each row of a block is formed with the same
matrix-vector product as a one-point call, so a batched value equals the
one-point value bit for bit.  The radius is bounded by ``MAX_RADIUS``:
the box holds (2R+1)^g terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence, Union

import numpy as np

from .catalog import Lattice

RANK_THRESHOLD = 1e-8
RESIDUAL_FLOOR = 1e-6
MAX_RADIUS = 200
# Series terms per exp(quad + lin) block: rows of a block are points, so
# at genus 1 (61 terms at radius 30) a block holds 67 points, at genus 2
# (3721 terms) one.
BLOCK_ENTRIES = 4096


class ThetaError(Exception):
    pass


class SiegelDomainError(ThetaError):
    """tau is not in the Siegel upper half space."""


class LatticeMismatchError(ThetaError):
    pass


class RankUnstableError(ThetaError):
    pass


@dataclass(frozen=True, eq=False)
class RiemannThetaSpec:
    """Series data: g x g period matrix, characteristics and level."""

    tau: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    level: int = 1

    def __post_init__(self) -> None:
        tau = np.asarray(self.tau, dtype=np.complex128)
        if tau.ndim != 2 or tau.shape[0] != tau.shape[1]:
            raise SiegelDomainError("tau must be square")
        if np.max(np.abs(tau - tau.T)) > 1e-12:
            raise SiegelDomainError("tau must be symmetric")
        eigs = np.linalg.eigvalsh(tau.imag)
        if eigs[0] <= 0:
            raise SiegelDomainError("tau not in Siegel upper half space")
        object.__setattr__(self, "tau", tau)
        object.__setattr__(
            self, "alpha", np.asarray(self.alpha, dtype=np.float64).reshape(tau.shape[0])
        )
        object.__setattr__(
            self, "beta", np.asarray(self.beta, dtype=np.float64).reshape(tau.shape[0])
        )
        if self.level < 1:
            raise ValueError("level must be a positive integer")

    @property
    def genus(self) -> int:
        return self.tau.shape[0]


class ThetaValue(NamedTuple):
    """One point gives a complex value and a float bound; a batch of
    points gives an array of each."""

    value: Union[complex, np.ndarray]
    tail_bound: Union[float, np.ndarray]


@lru_cache(maxsize=8)
def _index_box(g: int, radius: int) -> np.ndarray:
    axes = [np.arange(-radius, radius + 1)] * g
    grid = np.meshgrid(*axes, indexing="ij")
    box = np.stack([a.reshape(-1) for a in grid], axis=1).astype(np.float64)
    box.flags.writeable = False
    return box


def _tail_estimate(spec: RiemannThetaSpec, zs: np.ndarray, radius: int) -> np.ndarray:
    """Gaussian-decay estimate of the discarded tail (heuristic bound),
    one per row of ``zs``: 60 shells beyond the box."""
    g = spec.genus
    lam = float(np.linalg.eigvalsh(spec.tau.imag)[0])
    start = radius + 1 - float(np.max(np.abs(spec.alpha)))
    if start <= 0:
        return np.full(len(zs), np.inf)
    drift = np.linalg.norm(np.imag(zs + spec.beta), axis=1)[:, None]
    s = start + np.arange(60.0)
    shell = (2 * s + 1) ** g - np.maximum(0.0, 2 * s - 1) ** g
    exponent = -np.pi * lam * s * s + 2.0 * np.pi * drift * np.sqrt(g) * s
    with np.errstate(over="ignore"):
        total = np.sum(shell * np.exp(exponent), axis=1)
    return np.where(np.max(exponent, axis=1) > 700.0, np.inf, total)


def eval_riemann_theta(
    spec: RiemannThetaSpec, z: Sequence[complex], radius: int
) -> ThetaValue:
    """Truncated series value plus a tail-bound estimate.

    ``z`` is one point of shape ``(g,)`` or a batch of shape
    ``(Nz, g)``; a batch gives ``(Nz,)`` arrays whose rows equal the
    one-point results bit for bit.  ``1 <= radius <= MAX_RADIUS``.
    """
    if not 1 <= radius <= MAX_RADIUS:
        raise ValueError(f"radius must be between 1 and {MAX_RADIUS}")
    g = spec.genus
    zs = np.asarray(z, dtype=np.complex128)
    single = zs.ndim < 2
    if single:
        zs = zs.reshape(1, g)
    elif zs.ndim != 2 or zs.shape[1] != g:
        raise ValueError(f"z must have shape ({g},) or (Nz, {g})")
    w = _index_box(g, radius) + spec.alpha
    quad = 1j * np.pi * np.einsum("ni,ij,nj->n", w, spec.tau, w)
    values = np.empty(len(zs), dtype=np.complex128)
    step = max(1, BLOCK_ENTRIES // len(w))
    for start in range(0, len(zs), step):
        shifted = zs[start : start + step] + spec.beta
        # a stack of matrix-vector products, one per point, as a one-point
        # call makes; one (rows, g) @ w.T product rounds differently
        lin = 2j * np.pi * np.matmul(w, shifted[:, :, None])[:, :, 0]
        values[start : start + step] = np.sum(np.exp(quad + lin), axis=1)
    tails = _tail_estimate(spec, zs, radius)
    if single:
        return ThetaValue(complex(values[0]), float(tails[0]))
    return ThetaValue(values, tails)


@dataclass(frozen=True, eq=False)
class ThetaType:
    """Transformation data (L, J) per lattice generator.

    ``rows[k]`` is the linear functional of L(., l_k) (so
    ``L(x, l_k) = rows[k] @ x``), ``j_values[k]`` is
    J(l_k).  Extension to integer combinations of generators is linear
    in the generator slot.
    """

    genus: int
    lattice: Lattice
    rows: np.ndarray
    j_values: np.ndarray

    def __post_init__(self) -> None:
        rows = np.asarray(self.rows, dtype=np.complex128)
        jv = np.asarray(self.j_values, dtype=np.complex128)
        k = 2 * self.genus
        if rows.shape != (k, self.genus) or jv.shape != (k,):
            raise ValueError("type data shape mismatch")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "j_values", jv)

    def l_value(self, x: Sequence[complex], gen_index: int) -> complex:
        xv = np.asarray(x, dtype=np.complex128)
        return complex(self.rows[gen_index] @ xv)

    def factor(self, x: Sequence[complex], gen_index: int) -> complex:
        """e(L(x,l) + J(l)) for the given generator."""
        return complex(
            np.exp(2j * np.pi * (self.l_value(x, gen_index) + self.j_values[gen_index]))
        )


def trivial_type(lattice: Lattice) -> ThetaType:
    g = lattice.dim
    return ThetaType(
        g,
        lattice,
        np.zeros((2 * g, g), dtype=np.complex128),
        np.zeros(2 * g, dtype=np.complex128),
    )


def riemann_type_of(spec: RiemannThetaSpec) -> ThetaType:
    """(L, J) data of the truncated-series realization with respect to
    the lattice Z^g + tau Z^g."""
    g = spec.genus
    gens = []
    for j in range(g):
        e = np.zeros(g, dtype=np.complex128)
        e[j] = 1.0
        gens.append(e)
    for j in range(g):
        gens.append(spec.tau[:, j])
    lattice = Lattice(np.stack(gens))
    rows = np.zeros((2 * g, g), dtype=np.complex128)
    jv = np.zeros(2 * g, dtype=np.complex128)
    for j in range(g):
        jv[j] = spec.alpha[j]
        rows[g + j, j] = -1.0
        jv[g + j] = -spec.tau[j, j] / 2.0 - spec.beta[j]
    return ThetaType(g, lattice, rows, jv)


def multiply_types(t1: ThetaType, t2: ThetaType) -> ThetaType:
    """Type of a product of theta functions: componentwise sums."""
    if t1.genus != t2.genus:
        raise LatticeMismatchError("genus mismatch")
    if np.max(np.abs(t1.lattice.generators - t2.lattice.generators)) > 1e-12:
        raise LatticeMismatchError("types live on different lattices")
    return ThetaType(
        t1.genus,
        t1.lattice,
        t1.rows + t2.rows,
        t1.j_values + t2.j_values,
    )


def values_with_shifts(
    spec: RiemannThetaSpec, zs: np.ndarray, shifts: np.ndarray, radius: int
) -> tuple[list, list]:
    """Theta at each row of ``zs`` and at ``zs + shifts[k]`` for every
    row of ``shifts``, from one batched call: ``(base, shifted)`` with
    ``shifted[k][i]`` the value at ``zs[i] + shifts[k]``, as Python
    complex numbers."""
    zs = np.asarray(zs, dtype=np.complex128)
    points = np.concatenate([zs, (zs + shifts[:, None, :]).reshape(-1, spec.genus)])
    values = eval_riemann_theta(spec, points, radius).value.tolist()
    n = len(zs)
    return values[:n], [values[n * (k + 1) : n * (k + 2)] for k in range(len(shifts))]


def shift_residual(factor: complex, base: complex, shifted: complex) -> float:
    """|H(z+l) - factor H(z)| / max(|H(z)|, floor) with
    ``factor = e(L(z,l)+J(l))``."""
    return abs(shifted - factor * base) / max(abs(base), RESIDUAL_FLOOR)


def quasi_periodicity_residual(
    spec: RiemannThetaSpec,
    z: Sequence[complex],
    gen_index: int,
    radius: int,
) -> float:
    """Quasi-periodicity residual (:func:`shift_residual`) at ``z`` for
    the lattice generator with the given index (0..2g-1).

    The default tolerances downstream assume the smallest eigenvalue of
    Im tau is at least 0.5, so the truncation error at radius 30 sits far
    below them; slower-decaying period matrices need a larger radius.
    """
    ttype = riemann_type_of(spec)
    zv = np.asarray(z, dtype=np.complex128).reshape(1, spec.genus)
    shift = ttype.lattice.generators[[gen_index]]
    (base,), ((lhs,),) = values_with_shifts(spec, zv, shift, radius)
    return shift_residual(ttype.factor(zv[0], gen_index), base, lhs)


def level_space_dimension(
    g: int,
    s: int,
    tau: np.ndarray,
    samples: int,
    radius: int = 30,
    seed: int = 7,
    resamplings: int = 3,
) -> int:
    """Numerical dimension of the space of level-s theta functions.

    Candidate basis: f_k(z) = theta[k/s, 0](s z, s tau) for
    k in (Z/s)^g; all f_k share one transformation type, so the space
    dimension is the rank of their evaluation matrix at generic points.
    Rank must be stable across re-samplings, otherwise a
    RankUnstableError advises increasing ``samples``.
    """
    if g not in (1, 2):
        raise ValueError("supported genus: 1 or 2")
    if s < 1 or s > 4:
        raise ValueError("supported level: 1..4")
    if samples < 4 * s**g:
        raise ValueError(f"need at least {4 * s ** g} samples")
    tau = np.asarray(tau, dtype=np.complex128).reshape(g, g)
    ks = [np.array(k) for k in np.ndindex(*([s] * g))]
    specs = [
        RiemannThetaSpec(tau=s * tau, alpha=k / s, beta=np.zeros(g), level=s)
        for k in ks
    ]
    rng = np.random.default_rng(seed)
    zs = np.concatenate(
        [rng.random((samples, g)) + 0.25j * rng.random((samples, g))
         for _ in range(resamplings)]
    )
    # rows: the points of every resampling in turn; columns: the f_k
    values = np.stack(
        [eval_riemann_theta(sp, s * zs, radius).value for sp in specs], axis=1
    )
    ranks = []
    for mat in np.split(values, resamplings):
        col_scale = np.max(np.abs(mat), axis=0)
        col_scale[col_scale == 0] = 1.0
        sv = np.linalg.svd(mat / col_scale, compute_uv=False)
        ranks.append(int(np.sum(sv > RANK_THRESHOLD * sv[0])))
    if len(set(ranks)) != 1:
        raise RankUnstableError(
            f"rank unstable across re-samplings {ranks}; increase samples"
        )
    return ranks[0]
