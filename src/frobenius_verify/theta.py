"""Theta functions on complex tori: series evaluation, transformation
types and level-space dimension counts.

The series realization with characteristics (alpha, beta) is

    theta(z) = sum_{n in Z^g} exp( pi*i (n+alpha)^T tau (n+alpha)
                                   + 2*pi*i (n+alpha)^T (z+beta) )

With Y = Im tau, y = Im(z + beta) and the Gaussian centre
c = -Y^-1 y, the modulus of the n-th term is

    exp(pi y^T Y^-1 y) * exp(-pi |Y^(1/2) (n + alpha - c)|^2),

an envelope times a Gaussian in n.  The sum is truncated to the
ellipsoid pi |Y^(1/2) (n + alpha - c)|^2 <= R^2 (Deconinck, Heil,
Bobenko, van Hoeij and Schmies, "Computing Riemann theta functions",
Math. Comp. 73, 2004).  Their bound on the omitted terms, relative to
the envelope,

    (g/2) (2/rho)^g Gamma(g/2, (R - rho/2)^2)

holds for R >= rho/2 + sqrt(g/2), where rho is at most the length of the
shortest nonzero vector of sqrt(pi) Y^(1/2) Z^g; here
rho = sqrt(pi lambda_min(Y)).  (Balls of radius rho/2 around the lattice
points are disjoint, and exp(-|p|^2) is subharmonic where
|p| >= sqrt(g/2), so each omitted term is at most its ball's mean.)  R
is the smallest radius that brings the bound to ``TAIL_TARGET``, which
is rounding level.

One template of offsets m serves every point of a call: the lattice
points with sqrt(pi) |Y^(1/2) m| <= R + sqrt(pi/4 sum |Y_ij|), which
holds every point's ellipsoid whatever the fractional part of its centre
(triangle inequality over the cube [-1/2, 1/2]^g).  Point z sums
n = k + m with k + alpha the lattice point nearest c.  The ``radius``
argument is an upper limit, as the box |n|_inf <= radius it once fixed:
the template's half-widths are capped at the radius and k is clipped so
that no summed n leaves that box.  A point whose window was capped or
clipped gets the bound of the largest ellipsoid around its centre that
the window still holds (infinite when it holds none in the bound's
range).

Under a lattice shift the value picks up the factor e(L(x,l) + J(l))
with e(x) = exp(2*pi*i*x):

    l = e_j:      L = 0,          J = alpha_j
    l = tau e_j:  L(x) = -x_j,    J = -tau_jj / 2 - beta_j

A transformation type stores one (L, J) pair per lattice generator and
extends to integer combinations linearly in the generator slot,
``L(x, sum m_l l) = sum m_l L(x, l)``; the quadratic corrections that
appear when iterating shifts are shifts of J by integers times L-rows
and do not change the stored data.  Types add under multiplication of
theta functions, which is the group law checked here.

Evaluation is batched: one call takes a single point or a stack of
points, and the characteristics may be given per point, so one call
serves every characteristic on a period matrix.  Every point sums the
same number of terms, so the points are walked in dense blocks of at
most ``BLOCK_ENTRIES`` series terms and peak memory does not grow with
the batch.  A row is formed from elementwise operations on that point's
data alone, so a batched value equals the one-point value bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .catalog import Lattice

RESIDUAL_FLOOR = 1e-6
MAX_RADIUS = 200
MAX_GENUS = 2
# levels of the level-space count: s^g candidate functions, 16 at genus 2
MAX_LEVEL = 4
# Points z at which each level function is summed: the second decides
# where the first lies too near a zero of theta(s z, s tau).
LEVEL_POINTS = np.array([[0.0, 0.0], [0.3 + 0.1j, 0.2 + 0.15j]])
# Theta values and shift factors grow like exp(pi Im tau_jj); products of
# two stay inside double precision while |tau| <= 100.
MAX_TAU = 100.0
# Series terms per exp block: rows of a block are points, so a block holds
# hundreds of points at genus 1 (about 10 terms each) and dozens at genus 2.
BLOCK_ENTRIES = 4096
# The omitted tail, relative to the envelope, that sets the ellipsoid.
TAIL_TARGET = 1e-16
# Templates (and Siegel checks) kept: a command uses two period matrices,
# tau for the checked characteristics and level * tau for the level count.
# A template holds at most (2 MAX_RADIUS + 1)^g offsets, 2.6 MB at genus 2.
TEMPLATE_CACHE = 8


class ThetaError(Exception):
    pass


class SiegelDomainError(ThetaError):
    """tau is not in the Siegel upper half space."""


class LatticeMismatchError(ThetaError):
    pass


@functools.lru_cache(maxsize=TEMPLATE_CACHE)
def _check_siegel(tau_bytes: bytes, g: int) -> None:
    """Raise unless the g x g tau with C-order bytes ``tau_bytes`` is finite and symmetric
    with positive definite imaginary part.  Cached: a command's specs share two period matrices."""
    tau = np.frombuffer(tau_bytes, dtype=np.complex128).reshape(g, g)
    if not np.isfinite(tau).all():
        raise SiegelDomainError("tau must have finite entries")
    if np.max(np.abs(tau - tau.T)) > 1e-12:
        raise SiegelDomainError("tau must be symmetric")
    if np.linalg.eigvalsh(tau.imag)[0] <= 0:
        raise SiegelDomainError("tau not in Siegel upper half space")


@dataclass(frozen=True, eq=False)
class RiemannThetaSpec:
    """Series data: g x g period matrix and real characteristics, each
    ``(g,)`` or one row per point of a call, ``(Nz, g)``."""

    tau: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self) -> None:
        tau = np.asarray(self.tau, dtype=np.complex128)
        if tau.ndim != 2 or tau.shape[0] != tau.shape[1]:
            raise SiegelDomainError("tau must be square")
        g = len(tau)
        _check_siegel(tau.tobytes(), g)
        object.__setattr__(self, "tau", tau)
        for name in ("alpha", "beta"):
            c = np.asarray(getattr(self, name), dtype=np.float64)
            object.__setattr__(self, name, c.reshape((len(c), g) if c.ndim == 2 else g))

    @property
    def genus(self) -> int:
        return self.tau.shape[0]


class ThetaValue(NamedTuple):
    """One point gives a complex value and a float bound; a batch of
    points gives an array of each."""

    value: Union[complex, np.ndarray]
    tail_bound: Union[float, np.ndarray]


def _upper_gamma(g: int, x: float) -> float:
    """Gamma(g/2, x) by the recursion Gamma(s+1, x) = s Gamma(s, x) + x^s e^-x."""
    if g % 2:
        s, value = 0.5, math.sqrt(math.pi) * math.erfc(math.sqrt(x))
    else:
        s, value = 1.0, math.exp(-x)
    while s < g / 2:
        value = s * value + x**s * math.exp(-x)
        s += 1.0
    return value


def _ellipsoid_tail(g: int, rho: float, r: float) -> float:
    """Deconinck et al. bound on the sum of exp(-|p|^2) over the points p
    of a shifted lattice with |p| >= r, where rho is at most the length
    of the lattice's shortest nonzero vector; inf below its range."""
    if not r >= rho / 2 + math.sqrt(g / 2):
        return math.inf
    try:
        return g / 2 * (2 / rho) ** g * _upper_gamma(g, (r - rho / 2) ** 2)
    except OverflowError:
        return math.inf


class _Template(NamedTuple):
    """The offsets m every point of a call sums, what bounds the rest, and
    the (Im tau)^-1 that centres each point."""

    offsets: np.ndarray  # (terms, g), read-only
    half: np.ndarray  # per-axis half-widths of the offsets, at most the radius; read-only
    r: float  # ellipsoid radius that meets TAIL_TARGET
    outer: float  # radius of the offsets' own ellipsoid, r plus the cube pad
    rho: float  # at most the shortest nonzero vector of sqrt(pi) Y^(1/2) Z^g
    y_inv: np.ndarray  # (Im tau)^-1, read-only


@functools.lru_cache(maxsize=TEMPLATE_CACHE)
def _template(y_bytes: bytes, g: int, radius: int) -> _Template:
    """The template for the g x g Im tau with C-order bytes ``y_bytes``,
    capped at ``radius``.  Cached: the characteristics of one command
    share their Im tau, so a command builds two templates, not six."""
    y = np.frombuffer(y_bytes).reshape(g, g)
    y_inv = np.linalg.inv(y)
    rho = math.sqrt(math.pi * float(np.linalg.eigvalsh(y)[0]))
    # bisection for r to within 40 / 2**24; hi always meets the target
    # (unless even lo + 40 does not, and then the bounds say so)
    lo = hi = rho / 2 + math.sqrt(g / 2)
    hi += 40.0
    for _ in range(24):
        mid = (lo + hi) / 2
        lo, hi = (lo, mid) if _ellipsoid_tail(g, rho, mid) <= TAIL_TARGET else (mid, hi)
    # pi d^T Y d <= pi/4 sum |Y_ij| for d in [-1/2, 1/2]^g
    outer = hi + math.sqrt(math.pi * float(np.sum(np.abs(y)))) / 2
    half = np.minimum(np.floor(outer * np.sqrt(np.diag(y_inv) / math.pi)), radius)
    grid = np.meshgrid(*[np.arange(-h, h + 1) for h in half], indexing="ij")
    box = np.stack([a.reshape(-1) for a in grid], axis=1)
    offsets = box[math.pi * np.einsum("ki,ij,kj->k", box, y, box) <= outer * outer]
    for a in (offsets, half, y_inv):
        a.flags.writeable = False
    return _Template(offsets, half, hi, outer, rho, y_inv)


def _rows_times(rows: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """``rows @ mat.T`` with each row formed by the same elementwise
    operations whatever the batch, so a row does not depend on the rest."""
    return sum(rows[:, j, None] * mat[:, j] for j in range(mat.shape[1]))


def _point_bounds(tpl: _Template, y: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Tail bound per point whose window origin k + alpha lies at e from
    its centre.  A term the window omits lies outside the offsets'
    ellipsoid, at distance >= outer - |e| (in the Y metric), or beyond a
    half-width, at |v_j| >= half_j + 1 - |e_j| with pi v^T Y v >=
    pi v_j^2 / (Y^-1)_jj.  Unless the window was clipped, both are >= r."""
    ye = _rows_times(e, y)
    r_outer = tpl.outer - np.sqrt(math.pi * sum(e[:, j] * ye[:, j] for j in range(len(y))))
    r_axis = np.min(np.sqrt(math.pi / np.diag(tpl.y_inv)) * (tpl.half + 1 - np.abs(e)), axis=1)
    radii = np.minimum(tpl.r, np.minimum(r_outer, r_axis)).tolist()
    bounds = {r: _ellipsoid_tail(len(y), tpl.rho, r) for r in set(radii)}
    return np.array([bounds[r] for r in radii])


def eval_riemann_theta(
    spec: RiemannThetaSpec, z: Sequence[complex], radius: int
) -> ThetaValue:
    """Truncated series value plus the bound on what it omits.

    ``z`` is one point of shape ``(g,)`` or a batch of shape
    ``(Nz, g)``; a batch gives ``(Nz,)`` arrays whose rows equal the
    one-point results bit for bit, also where the spec gives each row
    its own characteristics.  ``1 <= radius <= MAX_RADIUS``: no term with
    |n|_inf > radius is summed.  The bound is relative to the envelope
    exp(pi y^T Y^-1 y), with y = Im(z + beta) and Y = Im tau.
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
    if any(c.ndim == 2 and len(c) != len(zs) for c in (spec.alpha, spec.beta)):
        raise ValueError(f"characteristics must have one row per point, {len(zs)}")
    tau, y = spec.tau, spec.tau.imag
    # a tiny Im tau or a huge Im z overflows somewhere below; a value that
    # is not finite raises, and a bound that is not finite reads inf
    with np.errstate(all="ignore"):
        tpl = _template(y.tobytes(), g, radius)
        shifted = zs + spec.beta
        centre = -_rows_times(shifted.imag, tpl.y_inv)
        # w = n + alpha = k + m: k + alpha is the lattice point nearest the
        # centre (ties round up, so a shift by tau e_j moves k by exactly
        # -e_j), clipped so that the window k + offsets stays in the box
        k = np.floor(centre - spec.alpha + 0.5)
        k = np.clip(k, tpl.half - radius, radius - tpl.half)
        bounds = _point_bounds(tpl, y, k + spec.alpha - centre)
        k += spec.alpha
        tk = _rows_times(k, tau)
        # exponent = a (per point) + b (per offset) + m . lin (per pair)
        a = 1j * np.pi * sum(k[:, i] * (tk[:, i] + 2 * shifted[:, i]) for i in range(g))
        m = tpl.offsets
        b = 1j * np.pi * np.einsum("ti,ij,tj->t", m, tau, m)
        lin = 2j * np.pi * (tk + shifted)
        values = np.empty(len(zs), dtype=np.complex128)
        step = max(1, BLOCK_ENTRIES // len(m))
        for start in range(0, len(zs), step):
            rows = slice(start, start + step)
            exponent = a[rows, None] + b
            for j in range(g):
                exponent = exponent + lin[rows, j, None] * m[:, j]
            values[rows] = np.sum(np.exp(exponent), axis=1)
    if not np.all(np.isfinite(values)):
        raise ThetaError(f"theta series overflows at radius {radius}")
    if single:
        return ThetaValue(complex(values[0]), float(bounds[0]))
    return ThetaValue(values, bounds)


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

    def l_value(self, x: Sequence[complex], gen_index) -> np.ndarray:
        """L(x, l_k), k = ``gen_index``, broadcast over points x (..., g) and k."""
        return np.sum(self.rows[gen_index] * np.asarray(x, dtype=np.complex128), axis=-1)

    def factor(self, x: Sequence[complex], gen_index) -> np.ndarray:
        """e(L(x,l) + J(l)) for the given generator, broadcast as in l_value."""
        return np.exp(2j * np.pi * (self.l_value(x, gen_index) + self.j_values[gen_index]))


def riemann_type_of(spec: RiemannThetaSpec) -> ThetaType:
    """(L, J) data of the truncated-series realization with respect to
    the lattice Z^g + tau Z^g."""
    g = spec.genus
    lattice = Lattice(np.concatenate([np.eye(g), spec.tau.T]))
    rows = np.concatenate([np.zeros((g, g)), np.diag(np.full(g, -1.0))])
    jv = np.concatenate([spec.alpha, -np.diag(spec.tau) / 2.0 - spec.beta])
    return ThetaType(g, lattice, rows, jv)


def multiply_types(t1: ThetaType, t2: ThetaType) -> ThetaType:
    """Type of a product of theta functions: componentwise sums."""
    if t1.genus != t2.genus:
        raise LatticeMismatchError("genus mismatch")
    if np.max(np.abs(t1.lattice.generators - t2.lattice.generators)) > 1e-12:
        raise LatticeMismatchError("types live on different lattices")
    return ThetaType(t1.genus, t1.lattice, t1.rows + t2.rows, t1.j_values + t2.j_values)


def nearest_term(tau: np.ndarray, alpha: np.ndarray, z) -> np.ndarray:
    """Modulus of the term of theta[alpha, beta] on tau at each point of
    ``z`` (..., g) whose n + alpha is nearest the Gaussian centre c, per
    axis as the series centres its window: the envelope times
    exp(-pi d^T Y d), d = n + alpha - c.  Rounding noise in the sum
    scales with it, and a shift by tau e_j multiplies it by |e(L + J)|."""
    y, big = np.asarray(z).imag, tau.imag
    c = -y @ np.linalg.inv(big)
    d = np.floor(c - alpha + 0.5) + alpha - c
    with np.errstate(over="ignore"):
        return np.exp(np.pi * np.sum(-y * c - d * (d @ big), axis=-1))


def values_with_shifts(
    spec: RiemannThetaSpec, zs: np.ndarray, shifts: np.ndarray, radius: int,
    tails: Optional[list] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Theta at each row of ``zs`` and at ``zs + shifts[k]`` for every
    row of ``shifts``, from one batched call: ``(base, shifted)`` with
    ``base`` (N,) and ``shifted[k, i]`` the value at ``zs[i] + shifts[k]``.
    A spec with characteristic rows gives one per point of that call:
    the N rows of ``zs``, then the N of each shift in turn.  Given a
    ``tails`` list, the largest tail bound of the call is appended."""
    zs = np.asarray(zs, dtype=np.complex128)
    points = np.concatenate([zs, (zs + shifts[:, None, :]).reshape(-1, spec.genus)])
    result = eval_riemann_theta(spec, points, radius)
    if tails is not None:
        tails.append(float(np.max(result.tail_bound)))
    n = len(zs)
    return result.value[:n], result.value[n:].reshape(len(shifts), n)


def shift_residual(factor, base, shifted, scale) -> np.ndarray:
    """|lhs - rhs| / max(|lhs|, |rhs|, RESIDUAL_FLOOR scale) with
    lhs = H(z+l), rhs = factor H(z), ``factor = e(L(z,l)+J(l))`` and
    ``scale`` the :func:`nearest_term` of H at z + l, which is |factor|
    times that at z (for a product, the product of theirs): relative to
    the compared values, which grow like exp(pi Im tau) along tau, and
    near a zero of H to the scale of its rounding noise.  The arguments
    broadcast; a NaN, or a value or scale past double range, gives NaN."""
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = factor * base
        floor = RESIDUAL_FLOOR * np.where(np.isfinite(scale), scale, np.nan)
        return np.abs(shifted - rhs) / np.maximum(np.maximum(np.abs(shifted), np.abs(rhs)), floor)


def quasi_periodicity_residual(
    spec: RiemannThetaSpec, z: Sequence[complex], gen_index: int, radius: int
) -> float:
    """Quasi-periodicity residual (:func:`shift_residual`) at ``z`` for
    the lattice generator with the given index (0..2g-1).

    The series sum to rounding level unless ``radius`` cuts them
    short; :func:`eval_riemann_theta` bounds what a cut leaves out.
    """
    ttype = riemann_type_of(spec)
    zv = np.asarray(z, dtype=np.complex128).reshape(1, spec.genus)
    shift = ttype.lattice.generators[[gen_index]]
    base, shifted = values_with_shifts(spec, zv, shift, radius)
    scale = nearest_term(spec.tau, spec.alpha, zv + shift)
    return float(shift_residual(ttype.factor(zv, gen_index), base, shifted, scale)[0, 0])


def level_space_dimension(
    g: int, s: int, tau: np.ndarray, radius: int = 30, tails: Optional[list] = None
) -> int:
    """Certified count of independent level-s theta functions.

    The f_k(z) = theta[k/s, 0](s z, s tau), k in (Z/s)^g, share one type,
    whose space has dimension s^g (Mumford, Tata Lectures on Theta I, II.1).
    As f_k(z + b/s) = e(k.b/s) f_k(z) for b in Z^g, a relation
    sum_k c_k f_k = 0 gives sum_k e(k.b/s) c_k f_k(z) = 0 for every b; the
    character matrix (e(k.b/s))_{b,k} is invertible, so c_k f_k = 0.  So
    the f_k with a certified nonzero value are independent: the count is
    exact at s^g and a lower bound below it.

    Every f_k is summed, in one call on s tau with a characteristic row
    per point, at z - tau a', z in ``LEVEL_POINTS`` and a' the shortest
    k/s - c, c in {0, 1}^g, in the Im tau metric (k/s - round(k/s) for a
    diagonal Im tau; off it, that choice can overflow at |tau| = 100).
    There f_k is theta(s z, s tau) times a factor that its envelope
    exp(pi y^T Y^-1 y) shares, so |f_k| / envelope is of order 1.  f_k is
    certified where |f_k| > envelope (tail bound + rounding): the sum adds
    at most (2 MAX_RADIUS + 1)^g terms of modulus at most the envelope, and
    ``rounding`` allows 2^-52 of the envelope (two roundings) for each, at
    most 3.6e-11, far below |f_k| / envelope away from a zero.  Given a
    ``tails`` list, the largest tail bound of the call is appended to it.
    """
    if not 1 <= g <= MAX_GENUS:
        raise ValueError(f"supported genus: 1..{MAX_GENUS}")
    if not 1 <= s <= MAX_LEVEL:
        raise ValueError(f"supported level: 1..{MAX_LEVEL}")
    tau = np.asarray(tau, dtype=np.complex128).reshape(g, g)
    y_inv = np.linalg.inv(s * tau.imag)
    rounding = (2 * MAX_RADIUS + 1) ** g * 2.0**-52
    corners = np.array(list(np.ndindex(*([2] * g))))
    alphas = np.array(list(np.ndindex(*([s] * g)))) / s
    zs = []
    for a in alphas:
        reps = a - corners
        shift = reps[np.argmin(np.einsum("ci,ij,cj->c", reps, tau.imag, reps))]
        zs.append(s * (LEVEL_POINTS[:, :g] - tau @ shift))
    zs, n = np.concatenate(zs), len(LEVEL_POINTS)
    spec = RiemannThetaSpec(tau=s * tau, alpha=np.repeat(alphas, n, axis=0), beta=np.zeros(g))
    result = eval_riemann_theta(spec, zs, radius)
    with np.errstate(all="ignore"):
        envelope = np.exp(np.pi * np.einsum("pi,ij,pj->p", zs.imag, y_inv, zs.imag))
        nonzero = np.abs(result.value) > envelope * (result.tail_bound + rounding)
    if tails is not None:
        tails.append(float(np.max(result.tail_bound)))
    return int(np.sum(np.any(nonzero.reshape(-1, n), axis=1)))
