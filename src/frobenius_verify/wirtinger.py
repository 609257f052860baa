"""Truncated power-series (jet) arithmetic for Wirtinger derivatives.

A :class:`Jet` stores the Taylor coefficients of a function of
``(z, zbar)`` around a base point in the 2n formal displacement
variables ``(u_1..u_n, ubar_1..ubar_n)``, through total order 4.
``z`` and ``zbar`` are treated as independent variables, which is
exactly the Wirtinger calculus: the coefficient at the multi-index
pair ``(alpha, beta)`` times ``alpha! * beta!`` is the mixed partial
``d^alpha dbar^beta`` of the function at the point.

A jet carries its structural support: a bit mask of the entries of the
multi-index simplex (E = C(2n+4, 4) entries: 495 at chart dimension 4,
1,820 at 6) that can be nonzero given the expression it came from, always
including the constant term.  It stores those S entries only, in table
order, with an optional trailing sample axis: ``coeffs`` is ``(S,)`` for
one base point and ``(S, N)`` for N points evaluated together, and every
operation acts on each sample column alone.  Conjugating a jet swaps
``alpha <-> beta`` and conjugates the coefficients, which is how
``zbar`` dependence is handled without a second differentiation pass.

A sum places each operand in zeros of the union's support and adds: the
dense sum restricted to the union.  Products are truncated convolutions
driven by a precomputed index table, restricted to the pairs whose
operands are both in support.  The surviving pairs are added in at most
16 columns, column c holding each output entry's c-th pair in table
order, so every entry sums the same terms in the same order as a scatter
over the whole table; the skipped terms are exact zeros, which leave
such a sum unchanged, so finite jets come out bit for bit the same.  The
constant terms of ``exp`` and ``log`` are computed per sample in Python
complex arithmetic for the same reason.  A product gathers and multiplies
its columns in runs of at most one pair per output entry, not all its
pairs at once.  A product with a constant jet (support 1) has one pair
per entry of the other operand: it scales that operand, with no table.

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
    ExpOverflowError,
    ExprError,
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
    # the product pairs: every (i, j) of total order <= JET_ORDER, i outer and
    # j inner; entries are sorted by order, so i pairs with the first width[i].
    # In base JET_ORDER + 1 no digit of a kept g_i + g_j carries: codes add.
    order = np.array([sum(g) for g in entries])
    width = np.searchsorted(order, JET_ORDER - order, side="right")
    mul_i = np.repeat(np.arange(len(entries)), width)
    mul_j = np.arange(len(mul_i)) - np.repeat(np.cumsum(width) - width, width)
    codes = np.array(entries, dtype=np.int64) @ (JET_ORDER + 1) ** np.arange(nvars)
    by_code = np.argsort(codes)
    mul_k = by_code[np.searchsorted(codes[by_code], codes[mul_i] + codes[mul_j])]

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
        mul_i,
        mul_j,
        mul_k,
        gather(2, (0,), (1,)),
        gather(3, (0, 1), (2,)),
        gather(4, (0, 2), (1, 3)),
        gather(4, (0, 1, 2), (3,)),
    )


# Row maps seen so far, per support or (left, right) support pair; a
# potential needs tens of them, each at most a few tens of KiB.
PRODUCT_CACHE = 256


def _mask(dim: int, support: int) -> np.ndarray:
    """Boolean entry mask of a support bit mask."""
    size = len(_table(dim).entries)
    raw = np.frombuffer(support.to_bytes((size + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:size].astype(bool)


def _bits(mask: np.ndarray) -> int:
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


@lru_cache(maxsize=PRODUCT_CACHE)
def _entries(dim: int, support: int) -> np.ndarray:
    """The table entries of a support, sorted: a jet's storage row r
    holds entry ``_entries(dim, support)[r]``."""
    return np.flatnonzero(_mask(dim, support))


def _rows(dim: int, support: int, entries: np.ndarray) -> np.ndarray:
    """Storage rows of table ``entries`` in ``support``, read-only: caches share them."""
    rows = np.searchsorted(_entries(dim, support), entries)
    rows.flags.writeable = False
    return rows


def _placed(coeffs: np.ndarray, rows: np.ndarray, size: int) -> np.ndarray:
    """``coeffs`` at ``rows`` of zeros with ``size`` rows; ``coeffs``
    itself where the rows fill them."""
    if len(rows) == size:
        return coeffs
    out = np.zeros((size,) + coeffs.shape[1:], coeffs.dtype)
    out[rows] = coeffs
    return out


@lru_cache(maxsize=PRODUCT_CACHE)
def _union(dim: int, left: int, right: int) -> tuple[int, np.ndarray, np.ndarray]:
    """The support of a sum and the rows of each operand in it."""
    both = left | right
    return both, _rows(dim, both, _entries(dim, left)), _rows(dim, both, _entries(dim, right))


class _Product(NamedTuple):
    """The operand rows of a product's pairs with both operands in support,
    in runs of whole columns: column c holds the c-th pair of the first
    ``stop - start`` sums (sorted by pair count, most first, so each column
    covers a prefix of them); a run ``(left, right, columns)`` holds its
    pairs' rows and each ``(start, stop)`` in them of its columns but
    column 0; output row r is sum ``order[r]``."""

    runs: tuple[tuple[np.ndarray, np.ndarray, tuple[tuple[int, int], ...]], ...]
    order: np.ndarray
    support: int


@lru_cache(maxsize=PRODUCT_CACHE)
def _product(dim: int, left: int, right: int) -> _Product:
    t = _table(dim)
    keep = np.flatnonzero(_mask(dim, left)[t.mul_i] & _mask(dim, right)[t.mul_j])
    out = t.mul_k[keep]
    counts = np.bincount(out, minlength=len(t.entries))
    # rank of each pair among the pairs of its output entry, in table order
    order = np.argsort(out, kind="stable")
    rank = np.empty_like(keep)
    rank[order] = np.arange(len(keep)) - (np.cumsum(counts) - counts)[out[order]]
    rows = np.argsort(-counts, kind="stable")[: np.count_nonzero(counts)]
    slot = np.empty_like(counts)
    slot[rows] = np.arange(len(rows))
    starts = np.cumsum([0] + [np.count_nonzero(counts > c) for c in range(counts.max())])
    place = starts[rank] + slot[out]
    left_idx, right_idx = np.empty_like(keep), np.empty_like(keep)
    left_idx[place] = t.mul_i[keep]
    right_idx[place] = t.mul_j[keep]
    columns = tuple((int(a), int(b)) for a, b in zip(starts[:-1], starts[1:]))
    left_idx, right_idx = _rows(dim, left, left_idx), _rows(dim, right, right_idx)
    bases = [0]  # a run ends before a column that would take it past len(order) pairs
    for a, b in columns:
        if b - bases[-1] > starts[1]:
            bases.append(a)
    runs = []
    for a, b in zip(bases, bases[1:] + [len(keep)]):
        spans = tuple((s - a, e - a) for s, e in columns[1:] if a <= s < b)
        runs.append((left_idx[a:b], right_idx[a:b], spans))
    order = slot[counts > 0]  # output rows are the entries with a pair
    order.flags.writeable = False
    return _Product(tuple(runs), order, _bits(counts > 0))


@lru_cache(maxsize=PRODUCT_CACHE)
def _conjugation(dim: int, support: int) -> tuple[int, np.ndarray]:
    """The conjugate support and, for each of its rows, the row of the
    entry with ``alpha`` and ``beta`` swapped in ``support``."""
    swap = _table(dim).conj_perm
    conj = _bits(_mask(dim, support)[swap])
    return conj, _rows(dim, support, swap[_entries(dim, conj)])


class Jet:
    """Immutable truncated series; all arithmetic returns new jets.

    ``support`` has bit k set when table entry k can be nonzero (bit 0
    always), and ``coeffs`` holds those S entries in table order: ``(S,)``
    for one point or ``(S, N)`` for N samples."""

    __slots__ = ("dim", "coeffs", "support")

    def __init__(self, dim: int, coeffs: np.ndarray, support: int):
        self.dim = dim
        self.coeffs = coeffs
        self.support = support

    def dense(self) -> np.ndarray:
        """The coefficients of every table entry in table order, ``(E,)`` or
        ``(E, N)``, zero outside the support."""
        rows = _entries(self.dim, self.support)
        return _placed(self.coeffs, rows, len(_table(self.dim).entries))

    def _constant(self, value) -> "Jet":
        """The constant jet ``value`` (one per sample, or shared) with this
        jet's dimension and sample axis."""
        c = np.empty((1,) + self.coeffs.shape[1:], self.coeffs.dtype)
        c[0] = value
        return Jet(self.dim, c, 1)

    def _sum(self, other: "Jet | complex", op) -> "Jet":
        if not isinstance(other, Jet):
            other = self._constant(other)
        elif other.dim != self.dim:
            raise ValueError("jet dimension mismatch")
        support, mine, theirs = _union(self.dim, self.support, other.support)
        size = len(_entries(self.dim, support))
        coeffs = op(_placed(self.coeffs, mine, size), _placed(other.coeffs, theirs, size))
        return Jet(self.dim, coeffs, support)

    def __add__(self, other):
        return self._sum(other, np.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._sum(other, np.subtract)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Jet(self.dim, -self.coeffs, self.support)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            # a scalar, or one factor per sample
            return Jet(self.dim, self.coeffs * np.asarray(other, np.complex128), self.support)
        if other.dim != self.dim:
            raise ValueError("jet dimension mismatch")
        if self.support == 1 or other.support == 1:
            # a constant scales: one pair per entry of the other operand, the
            # constant gathered as the pair rows gather it, then +0 as below
            jet = other if self.support == 1 else self
            zeros = np.zeros(len(jet.coeffs), np.intp)
            acc = (self.coeffs[zeros] * other.coeffs if jet is other
                   else self.coeffs * other.coeffs[zeros])
            acc += 0.0
            return Jet(self.dim, acc, jet.support)
        plan = _product(self.dim, self.support, other.support)
        acc = None
        for left, right, columns in plan.runs:
            # out of place: numpy rounds a one-element product in place as
            # Python complex arithmetic does, not as in a longer array
            terms = self.coeffs[left] * other.coeffs[right]
            if acc is None:
                # column 0 accumulates in place; adding +0 first, as a scatter
                # into zeros does, turns an exact -0 sum into +0
                acc = terms[: len(plan.order)]
                acc += 0.0
            for start, stop in columns:
                acc[: stop - start] += terms[start:stop]
        return Jet(self.dim, acc[plan.order], plan.support)

    __rmul__ = __mul__

    def conjugate(self) -> "Jet":
        # swap alpha <-> beta and conjugate; the swap is an involution
        support, rows = _conjugation(self.dim, self.support)
        return Jet(self.dim, np.conj(self.coeffs[rows]), support)

    def real(self) -> "Jet":
        return (self + self.conjugate()) * 0.5

    def imag(self) -> "Jet":
        out = (self - self.conjugate()) * complex(0, -0.5)
        # a +0.0 imaginary part, as complex(x.imag) has: log of a negative
        # result then lands at +pi i
        out.coeffs[0] = out.coeffs[0].real
        return out

    def pow_int(self, k: int) -> "Jet":
        if k < 0:
            raise ValueError("negative powers are not supported")
        result = self._constant(1.0)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def _nilpotent(self) -> "Jet":
        c = self.coeffs.copy()
        c[0] = 0.0
        return Jet(self.dim, c, self.support)

    def _per_sample(self, terms, failures: dict | None) -> np.ndarray:
        """``terms(c0)`` at the constant term c0 of every sample, in Python
        complex arithmetic as for one point: one row per returned value,
        each shaped like one coefficient (``()``, or ``(N,)`` for a stack).

        ``terms`` raises an ExprError outside its domain.  Without
        ``failures`` that error propagates; with it, the sample is
        recorded there under its index (its first error kept) and takes
        the terms at c0 = 1, so its column stays finite."""
        c0 = self.coeffs[0]
        fallback = terms(1.0)
        out = np.empty((len(fallback), c0.size), dtype=np.complex128)
        for s, value in enumerate(c0.reshape(-1).tolist()):
            try:
                out[:, s] = terms(value)
            except ExprError as exc:
                if failures is None:
                    raise
                failures.setdefault(s, exc)
                out[:, s] = fallback
        return out.reshape((len(fallback),) + c0.shape)

    def exp(self, failures: dict | None = None) -> "Jet":
        # exp(c0 + N) = exp(c0) * sum_{k<=4} N^k / k!; N^5 truncates to 0.
        (scale,) = self._per_sample(_exp_terms, failures)
        n = self._nilpotent()
        acc = self._constant(1.0)
        for k in (4, 3, 2, 1):
            acc = acc * n * (1.0 / k) + 1.0
        return acc * scale

    def log(self, failures: dict | None = None) -> "Jet":
        inverse, log_c0 = self._per_sample(_log_terms, failures)
        m = self._nilpotent() * inverse
        acc = self._constant(0.0)
        for k in (4, 3, 2, 1):
            acc = (acc + ((-1.0) ** (k + 1)) / k) * m
        return acc + log_c0


def _exp_terms(c0: complex) -> tuple[complex]:
    try:
        return (cmath.exp(c0),)
    except (OverflowError, ValueError):
        raise ExpOverflowError(f"exp argument {c0} out of range") from None


def _log_terms(c0: complex) -> tuple[complex, complex]:
    # a part at or above the floor puts the modulus there too; abs() of a
    # complex whose modulus is past double range raises OverflowError
    if max(abs(c0.real), abs(c0.imag)) < LOG_MODULUS_FLOOR and abs(c0) < LOG_MODULUS_FLOOR:
        raise LogDomainError(f"log argument modulus {abs(c0)} below floor")
    return 1.0 / c0, cmath.log(c0)


def seed(point: Sequence[complex]) -> list[Jet]:
    """Jets of the coordinate functions at ``point`` (shape ``(n,)``), or
    at each point of a stack ``(N, n)``.

    Returns 2n jets: entries ``0..n-1`` are ``z_a`` (constant term
    ``point[a]``, unit coefficient at ``alpha = e_a``), entries
    ``n..2n-1`` are ``zbar_a``.
    """
    pt = np.asarray(point, dtype=np.complex128)
    dim = pt.shape[-1]
    t = _table(dim)
    out = []
    for slot in range(2 * dim):
        c = np.empty((2,) + pt.shape[:-1], dtype=np.complex128)
        c[0] = pt[..., slot] if slot < dim else np.conj(pt[..., slot - dim])
        c[1] = 1.0
        unit = t.index[tuple(1 if k == slot else 0 for k in range(2 * dim))]
        out.append(Jet(dim, c, 1 | 1 << unit))
    return out


def _jet_of(node: Node, seeds: list[Jet], failures: dict | None) -> Jet:
    dim = seeds[0].dim
    if isinstance(node, Const):
        return seeds[0]._constant(node.value)
    if isinstance(node, Var):
        return seeds[node.axis]
    if isinstance(node, ConjVar):
        return seeds[dim + node.axis]
    if isinstance(node, Sum):
        acc = _jet_of(node.terms[0], seeds, failures)
        for s, t in zip(node.signs[1:], node.terms[1:]):
            nxt = _jet_of(t, seeds, failures)
            acc = acc + nxt if s == 1 else acc - nxt
        return acc
    if isinstance(node, Product):
        acc = _jet_of(node.factors[0], seeds, failures)
        for f in node.factors[1:]:
            acc = acc * _jet_of(f, seeds, failures)
        return acc
    if isinstance(node, Power):
        return _jet_of(node.base, seeds, failures).pow_int(node.exponent)
    if isinstance(node, Exp):
        return _jet_of(node.arg, seeds, failures).exp(failures)
    if isinstance(node, Log):
        return _jet_of(node.arg, seeds, failures).log(failures)
    if isinstance(node, Re):
        return _jet_of(node.arg, seeds, failures).real()
    if isinstance(node, Im):
        return _jet_of(node.arg, seeds, failures).imag()
    raise TypeError(f"unknown node {node!r}")


def jet_eval(
    expr: PotentialExpr, point: Sequence[complex], failures: dict | None = None
) -> Jet:
    """Jet of the potential at ``point`` (shape ``(n,)``), or at each point
    of a stack ``(N, n)`` with the samples on the last coefficient axis;
    coefficients times alpha!beta! are the mixed Wirtinger partials.

    A sample outside the domain of a ``log`` or ``exp`` raises its
    ExprError, or, given a ``failures`` dict, is recorded there under its
    index (its first error kept) while the other samples are computed as
    alone; the coefficients of a recorded sample mean nothing.
    """
    pts = np.asarray(point, dtype=np.complex128)
    if pts.ndim not in (1, 2) or pts.shape[-1] != expr.dim:
        raise ValueError(f"points of shape {pts.shape} do not have dim {expr.dim}")
    return _jet_of(expr.root, seed(pts), failures)


def partial(jet: Jet, alpha: Sequence[int], beta: Sequence[int]) -> complex:
    """Mixed partial d^alpha dbar^beta extracted from a one-point jet."""
    t = _table(jet.dim)
    key = tuple(int(k) for k in alpha) + tuple(int(k) for k in beta)
    if len(key) != 2 * jet.dim:
        raise ValueError("multi-index length mismatch")
    if key not in t.index:
        raise ValueError(f"multi-index {key} outside truncation order {JET_ORDER}")
    i = t.index[key]
    return complex(jet.dense()[i] * t.fact[i])


def hermiticity_defect(jet: Jet):
    """Max |c(alpha,beta) - conj(c(beta,alpha))| over the support of the
    difference (zero elsewhere); zero for real potentials.  A float for
    one point, one value per sample for a stack."""
    d = np.max(np.abs((jet - jet.conjugate()).coeffs), axis=0)
    return float(d) if d.ndim == 0 else d
