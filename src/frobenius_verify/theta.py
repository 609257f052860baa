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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .catalog import Lattice

RANK_THRESHOLD = 1e-8
RESIDUAL_FLOOR = 1e-6


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
    value: complex
    tail_bound: float


def _index_box(g: int, radius: int) -> np.ndarray:
    axes = [np.arange(-radius, radius + 1)] * g
    grid = np.meshgrid(*axes, indexing="ij")
    return np.stack([a.reshape(-1) for a in grid], axis=1).astype(np.float64)


def _tail_estimate(spec: RiemannThetaSpec, z: np.ndarray, radius: int) -> float:
    """Gaussian-decay estimate of the discarded tail (heuristic bound)."""
    g = spec.genus
    lam = float(np.linalg.eigvalsh(spec.tau.imag)[0])
    drift = float(np.linalg.norm(np.imag(z + spec.beta)))
    start = radius + 1 - float(np.max(np.abs(spec.alpha))) if g else radius + 1
    if start <= 0:
        return float("inf")
    total = 0.0
    for k in range(60):
        s = start + k
        shell = float((2 * s + 1) ** g - max(0.0, 2 * s - 1) ** g)
        exponent = -np.pi * lam * s * s + 2.0 * np.pi * drift * np.sqrt(g) * s
        if exponent > 700.0:
            return float("inf")
        total += shell * float(np.exp(exponent))
    return total


def eval_riemann_theta(
    spec: RiemannThetaSpec, z: Sequence[complex], radius: int
) -> ThetaValue:
    """Truncated series value plus a tail-bound estimate."""
    if radius < 1:
        raise ValueError("radius must be >= 1")
    zv = np.asarray(z, dtype=np.complex128).reshape(spec.genus)
    n = _index_box(spec.genus, radius)
    w = n + spec.alpha
    quad = 1j * np.pi * np.einsum("ni,ij,nj->n", w, spec.tau, w)
    lin = 2j * np.pi * (w @ (zv + spec.beta))
    value = complex(np.sum(np.exp(quad + lin)))
    return ThetaValue(value, _tail_estimate(spec, zv, radius))


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


def quasi_periodicity_residual(
    spec: RiemannThetaSpec,
    z: Sequence[complex],
    gen_index: int,
    radius: int,
) -> float:
    """|H(z+l) - e(L(z,l)+J(l)) H(z)| / max(|H(z)|, floor) for the
    lattice generator with the given index (0..2g-1).

    The default tolerances downstream assume the smallest eigenvalue of
    Im tau is at least 0.5, so the truncation error at radius 30 sits far
    below them; slower-decaying period matrices need a larger radius.
    """
    ttype = riemann_type_of(spec)
    zv = np.asarray(z, dtype=np.complex128).reshape(spec.genus)
    shift = ttype.lattice.generators[gen_index]
    lhs = eval_riemann_theta(spec, zv + shift, radius).value
    base = eval_riemann_theta(spec, zv, radius).value
    rhs = ttype.factor(zv, gen_index) * base
    return abs(lhs - rhs) / max(abs(base), RESIDUAL_FLOOR)


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
    ranks = []
    for _ in range(resamplings):
        zs = rng.random((samples, g)) + 0.25j * rng.random((samples, g))
        mat = np.empty((samples, len(specs)), dtype=np.complex128)
        for col, sp in enumerate(specs):
            for row in range(samples):
                mat[row, col] = eval_riemann_theta(sp, s * zs[row], radius).value
        col_scale = np.max(np.abs(mat), axis=0)
        col_scale[col_scale == 0] = 1.0
        sv = np.linalg.svd(mat / col_scale, compute_uv=False)
        ranks.append(int(np.sum(sv > RANK_THRESHOLD * sv[0])))
    if len(set(ranks)) != 1:
        raise RankUnstableError(
            f"rank unstable across re-samplings {ranks}; increase samples"
        )
    return ranks[0]
