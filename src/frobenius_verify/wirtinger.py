"""Truncated power-series (jet) arithmetic for Wirtinger derivatives.

A :class:`Jet` stores the Taylor coefficients of a function of
``(z, zbar)`` around a base point in the 2n formal displacement
variables ``(u_1..u_n, ubar_1..ubar_n)``, through total order 4.
``z`` and ``zbar`` are treated as independent variables, which is
exactly the Wirtinger calculus: the coefficient at the multi-index
pair ``(alpha, beta)`` times ``alpha! * beta!`` is the mixed partial
``d^alpha dbar^beta`` of the function at the point.

Storage is dense over the full multi-index simplex (at chart dimension
n <= 4 this is at most 495 entries); products are truncated
convolutions driven by a precomputed index table.  Conjugating a jet
swaps ``alpha <-> beta`` and conjugates the coefficients, which is how
``zbar`` dependence is handled without a second differentiation pass.

The same table holds gather indices for the partials the metric layer
needs (``g_idx``, ``phi3_idx``, ``ddbar_idx``, ``d4_idx``): indexing
coefficients times ``fact`` with them reads a whole tensor, for one jet
or for a stack of jets, in one step.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .expr import (
    LOG_MODULUS_FLOOR,
    Const,
    ConjVar,
    Exp,
    Im,
    Log,
    LogDomainError,
    Node,
    PotentialExpr,
    Power,
    Product,
    Re,
    Sum,
    Var,
)

JET_ORDER = 4


class MultiIndexPair(NamedTuple):
    """Holomorphic / antiholomorphic derivative orders, |alpha|+|beta| <= 4."""

    alpha: tuple[int, ...]
    beta: tuple[int, ...]


class _Table(NamedTuple):
    dim: int
    entries: tuple[tuple[int, ...], ...]
    index: dict
    fact: np.ndarray
    conj_perm: np.ndarray
    mul_i: np.ndarray
    mul_j: np.ndarray
    mul_k: np.ndarray
    g_idx: np.ndarray  # [a, b]       -> d_a dbar_b
    phi3_idx: np.ndarray  # [a, b, c]    -> d_a d_b dbar_c
    ddbar_idx: np.ndarray  # [a, b, c, d] -> d_a d_c dbar_b dbar_d
    d4_idx: np.ndarray  # [i, j, c, e] -> d_i d_j d_c dbar_e


def _simplex(nvars: int, order: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], remaining: int, budget: int) -> None:
        if remaining == 0:
            out.append(prefix)
            return
        for k in range(budget + 1):
            rec(prefix + (k,), remaining - 1, budget - k)

    rec((), nvars, order)
    out.sort(key=lambda g: (sum(g), g))
    return out


@lru_cache(maxsize=None)
def _table(dim: int) -> _Table:
    nvars = 2 * dim
    entries = tuple(_simplex(nvars, JET_ORDER))
    index = {g: i for i, g in enumerate(entries)}
    fact = np.array([math.prod(math.factorial(k) for k in g) for g in entries], float)
    conj_perm = np.array(
        [index[g[dim:] + g[:dim]] for g in entries], dtype=np.intp
    )
    mi, mj, mk = [], [], []
    for i, gi in enumerate(entries):
        oi = sum(gi)
        for j, gj in enumerate(entries):
            if oi + sum(gj) > JET_ORDER:
                continue
            mi.append(i)
            mj.append(j)
            mk.append(index[tuple(a + b for a, b in zip(gi, gj))])

    def gather(rank: int, holo: tuple[int, ...], anti: tuple[int, ...]) -> np.ndarray:
        # entry [k_0..k_{rank-1}] of the partial d^(k at holo) dbar^(k at anti)
        out = np.empty((dim,) * rank, dtype=np.intp)
        for ks in np.ndindex(out.shape):
            key = [0] * nvars
            for pos in holo:
                key[ks[pos]] += 1
            for pos in anti:
                key[dim + ks[pos]] += 1
            out[ks] = index[tuple(key)]
        return out

    return _Table(
        dim,
        entries,
        index,
        fact,
        conj_perm,
        np.array(mi, dtype=np.intp),
        np.array(mj, dtype=np.intp),
        np.array(mk, dtype=np.intp),
        gather(2, (0,), (1,)),
        gather(3, (0, 1), (2,)),
        gather(4, (0, 2), (1, 3)),
        gather(4, (0, 1, 2), (3,)),
    )


class Jet:
    """Immutable truncated series; all arithmetic returns new jets."""

    __slots__ = ("dim", "coeffs")

    def __init__(self, dim: int, coeffs: np.ndarray):
        self.dim = dim
        self.coeffs = coeffs

    @staticmethod
    def constant(dim: int, value: complex) -> "Jet":
        c = np.zeros(len(_table(dim).entries), dtype=np.complex128)
        c[0] = value
        return Jet(dim, c)

    def value(self) -> complex:
        return complex(self.coeffs[0])

    def _binary(self, other: "Jet | complex", op) -> "Jet":
        if isinstance(other, Jet):
            if other.dim != self.dim:
                raise ValueError("jet dimension mismatch")
            return op(other)
        return op(Jet.constant(self.dim, complex(other)))

    def __add__(self, other):
        return self._binary(other, lambda o: Jet(self.dim, self.coeffs + o.coeffs))

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, lambda o: Jet(self.dim, self.coeffs - o.coeffs))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Jet(self.dim, -self.coeffs)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.dim, self.coeffs * complex(other))
        if other.dim != self.dim:
            raise ValueError("jet dimension mismatch")
        t = _table(self.dim)
        out = np.zeros_like(self.coeffs)
        np.add.at(out, t.mul_k, self.coeffs[t.mul_i] * other.coeffs[t.mul_j])
        return Jet(self.dim, out)

    __rmul__ = __mul__

    def conjugate(self) -> "Jet":
        # swap alpha <-> beta and conjugate; the swap is an involution
        t = _table(self.dim)
        return Jet(self.dim, np.conj(self.coeffs[t.conj_perm]))

    def real(self) -> "Jet":
        return (self + self.conjugate()) * 0.5

    def imag(self) -> "Jet":
        return (self - self.conjugate()) * complex(0, -0.5)

    def pow_int(self, k: int) -> "Jet":
        if k < 0:
            raise ValueError("negative powers are not supported")
        result = Jet.constant(self.dim, 1.0)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def _nilpotent(self) -> "Jet":
        c = self.coeffs.copy()
        c[0] = 0.0
        return Jet(self.dim, c)

    def exp(self) -> "Jet":
        # exp(c0 + N) = exp(c0) * sum_{k<=4} N^k / k!; N^5 truncates to 0.
        n = self._nilpotent()
        acc = Jet.constant(self.dim, 1.0)
        for k in (4, 3, 2, 1):
            acc = acc * n * (1.0 / k) + 1.0
        return acc * cmath.exp(self.value())

    def log(self) -> "Jet":
        c0 = self.value()
        if abs(c0) < LOG_MODULUS_FLOOR:
            raise LogDomainError(f"log argument modulus {abs(c0)} below floor")
        m = self._nilpotent() * (1.0 / c0)
        acc = Jet.constant(self.dim, 0.0)
        for k in (4, 3, 2, 1):
            acc = (acc + ((-1.0) ** (k + 1)) / k) * m
        return acc + cmath.log(c0)


def seed(point: Sequence[complex]) -> list[Jet]:
    """Jets of the coordinate functions at ``point``.

    Returns 2n jets: entries ``0..n-1`` are ``z_a`` (constant term
    ``point[a]``, unit coefficient at ``alpha = e_a``), entries
    ``n..2n-1`` are ``zbar_a``.
    """
    pt = np.asarray(point, dtype=np.complex128)
    dim = len(pt)
    t = _table(dim)
    out = []
    for slot in range(2 * dim):
        c = np.zeros(len(t.entries), dtype=np.complex128)
        c[0] = pt[slot] if slot < dim else np.conj(pt[slot - dim])
        unit = tuple(1 if k == slot else 0 for k in range(2 * dim))
        c[t.index[unit]] = 1.0
        out.append(Jet(dim, c))
    return out


def _jet_of(node: Node, seeds: list[Jet], dim: int) -> Jet:
    if isinstance(node, Const):
        return Jet.constant(dim, node.value)
    if isinstance(node, Var):
        return seeds[node.axis]
    if isinstance(node, ConjVar):
        return seeds[dim + node.axis]
    if isinstance(node, Sum):
        acc = _jet_of(node.terms[0], seeds, dim)
        for s, t in zip(node.signs[1:], node.terms[1:]):
            nxt = _jet_of(t, seeds, dim)
            acc = acc + nxt if s == 1 else acc - nxt
        return acc
    if isinstance(node, Product):
        acc = _jet_of(node.factors[0], seeds, dim)
        for f in node.factors[1:]:
            acc = acc * _jet_of(f, seeds, dim)
        return acc
    if isinstance(node, Power):
        return _jet_of(node.base, seeds, dim).pow_int(node.exponent)
    if isinstance(node, Exp):
        return _jet_of(node.arg, seeds, dim).exp()
    if isinstance(node, Log):
        return _jet_of(node.arg, seeds, dim).log()
    if isinstance(node, Re):
        return _jet_of(node.arg, seeds, dim).real()
    if isinstance(node, Im):
        return _jet_of(node.arg, seeds, dim).imag()
    raise TypeError(f"unknown node {node!r}")


def jet_eval(expr: PotentialExpr, point: Sequence[complex]) -> Jet:
    """Jet of the potential at ``point``; coefficients times alpha!beta!
    are the mixed Wirtinger partials."""
    if len(point) != expr.dim:
        raise ValueError(f"point length {len(point)} != dim {expr.dim}")
    return _jet_of(expr.root, seed(point), expr.dim)


def partial(jet: Jet, alpha: Sequence[int], beta: Sequence[int]) -> complex:
    """Mixed partial d^alpha dbar^beta extracted from a jet."""
    t = _table(jet.dim)
    key = tuple(int(k) for k in alpha) + tuple(int(k) for k in beta)
    if len(key) != 2 * jet.dim:
        raise ValueError("multi-index length mismatch")
    if key not in t.index:
        raise ValueError(f"multi-index {key} outside truncation order {JET_ORDER}")
    i = t.index[key]
    return complex(jet.coeffs[i] * t.fact[i])


def hermiticity_defect(jet: Jet) -> float:
    """Max |c(alpha,beta) - conj(c(beta,alpha))|; zero for real potentials."""
    t = _table(jet.dim)
    return float(np.max(np.abs(jet.coeffs - np.conj(jet.coeffs[t.conj_perm]))))
