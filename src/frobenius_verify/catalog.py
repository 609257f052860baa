"""Classification data: lattices, torus group actions and surface entries.

The geometric catalog holds the flat torus and the seven quotient
families of a product of elliptic curves E x F by a finite group.  In
the stored presentation every action is cyclic, free and contains no
translations: the three product families (Z2+Z2, Z4+Z2, Z3+Z3) are
recorded after absorbing their pure-translation generator into an
enlarged lattice, which is the unique presentation on which freeness
and translation-freeness can hold simultaneously (the linear image of
a free translation-free action on a complex torus embeds into the
diagonal stabilizer of a fixed eigenvector, hence is cyclic).  The
original family group is kept as metadata under ``holonomy``.

The families are data: ``FAMILIES`` has one row per family, from which
:func:`hyperelliptic_catalog` builds every chart.  The surfaces that are
not Frobenius (:func:`negative_controls`) and the higher-dimensional
rows (:func:`metadata_rows`) have no chart and are plain report rows:
``{"spec", "flags", "metadata"}`` and ``{"spec", "metadata"}``.

Every group check reads one form of the action: each element
``z -> A z + t`` in lattice coordinates is ``x -> M x + s`` (mod Z^2n).
The lattice is stable iff every M is an automorphism of Z^2n, and a
closed stable list is a finite group: the powers of each g stay in it,
so g^i = g^j for some i < j, and g^(j-i) is the identity.  Two elements
are one map of the torus iff their M agree and their s differ by an
integer vector.  Freeness is read off the Smith normal form of ``M - I``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .expr import PotentialExpr, Product, Sum, Var, ConjVar

MATCH_TOL = 1e-9
EXACT_TOL = 1e-12
# half-width of the sample box (every real and imaginary part) of an
# entry that names none
SAMPLE_BOX = 0.45


# --- integer Smith normal form --------------------------------------


def smith_normal_form(mat: Sequence[Sequence[int]]):
    """Diagonalize an integer matrix by unimodular row/column operations.

    Returns ``(U, D, V)`` with ``U @ mat @ V == D``, U and V unimodular,
    and D diagonal with nonnegative entries in divisibility order.
    Exact Python-int arithmetic, one pass over the diagonal: every change
    of the pivot ``a[t][t]`` strictly lowers its modulus.
    """
    a = [[int(v) for v in row] for row in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a + v:
            row[i], row[j] = row[j], row[i]

    def add_row(i, j, q):  # row_i += q * row_j
        a[i] = [x + q * y for x, y in zip(a[i], a[j])]
        u[i] = [x + q * y for x, y in zip(u[i], u[j])]

    def add_col(i, j, q):  # col_i += q * col_j
        for row in a + v:
            row[i] += q * row[j]

    for t in range(min(m, n)):
        block = [(abs(a[i][j]), i, j) for i in range(t, m) for j in range(t, n) if a[i][j]]
        if not block:
            break
        _, i, j = min(block)
        swap_rows(t, i)
        swap_cols(t, j)
        while True:
            # Euclid on column t, then row t: a nonzero remainder is
            # swapped in as the new, smaller pivot
            for i in range(t + 1, m):
                while a[i][t]:
                    add_row(i, t, -(a[i][t] // a[t][t]))
                    if a[i][t]:
                        swap_rows(i, t)
            for j in range(t + 1, n):
                while a[t][j]:
                    add_col(j, t, -(a[t][j] // a[t][t]))
                    if a[t][j]:
                        swap_cols(j, t)
            if any(a[i][t] for i in range(t + 1, m)):
                continue  # a column swap refilled column t
            # a row the pivot does not divide, added to row t, leaves a
            # remainder smaller than the pivot
            bad = [i for i in range(t + 1, m) if any(x % a[t][t] for x in a[i][t + 1 :])]
            if not bad:
                break
            add_row(t, bad[0], 1)
        if a[t][t] < 0:
            a[t][t] = -a[t][t]  # the only nonzero entry of row t
            u[t] = [-x for x in u[t]]
    return (
        np.array(u, dtype=object),
        np.array(a, dtype=object),
        np.array(v, dtype=object),
    )


# --- domain types ----------------------------------------------------


def _singular(m: np.ndarray) -> bool:
    """Whether the finite real square ``m``, divided by its largest entry,
    has det 0 or an inverse entry >= 1/EXACT_TOL."""
    s = m / (abs(m).max() or 1.0)
    return np.linalg.det(s) == 0 or not abs(np.linalg.inv(s)).max() * EXACT_TOL < 1.0


def _det(rows: list) -> int:
    """The determinant of a square matrix of Python ints, by fraction-free
    elimination (E. H. Bareiss, *Math. Comp.* 22, 1968): each division is
    exact, so every entry stays an int."""
    a = [list(row) for row in rows]
    sign, prev = 1, 1
    for k in range(len(a) - 1):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, len(a)) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap], sign = a[swap], a[k], -sign
        for i in range(k + 1, len(a)):
            for j in range(k + 1, len(a)):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


@dataclass(frozen=True, eq=False)
class Lattice:
    """Full-rank lattice in C^n given by 2n generator vectors."""

    generators: np.ndarray  # shape (2n, n), complex

    def __post_init__(self) -> None:
        gens = np.asarray(self.generators, dtype=np.complex128)
        object.__setattr__(self, "generators", gens)
        if gens.ndim != 2 or gens.shape[0] != 2 * gens.shape[1]:
            raise ValueError("lattice needs 2n generators in C^n")
        if not np.all(np.isfinite(gens)):
            raise ValueError("lattice generators must be finite")
        if _singular(self.real_basis()):
            raise ValueError("lattice generators are linearly dependent over R")

    @property
    def dim(self) -> int:
        return self.generators.shape[1]

    def real_basis(self) -> np.ndarray:
        """Columns are the generators as stacked (Re, Im) vectors."""
        cols = [np.concatenate([g.real, g.imag]) for g in self.generators]
        return np.stack(cols, axis=1)

    def coordinates(self, vector: np.ndarray) -> np.ndarray:
        vec = np.asarray(vector, dtype=np.complex128)
        rhs = np.concatenate([vec.real, vec.imag])
        return np.linalg.solve(self.real_basis(), rhs)

    def contains(self, vector: np.ndarray, tol: float = MATCH_TOL) -> bool:
        coords = self.coordinates(vector)
        return bool(np.max(np.abs(coords - np.round(coords))) < tol)


@dataclass(frozen=True, eq=False)
class AffineMap:
    """z -> A z + t on C^n."""

    A: np.ndarray
    t: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.A, dtype=np.complex128)
        t = np.asarray(self.t, dtype=np.complex128)
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "t", t)
        # a non-finite t fails the action's lattice form; a singular A has a
        # singular M there, which the group checks read as not lattice-stable
        if not np.all(np.isfinite(a)):
            raise ValueError("affine map A must be finite")


@dataclass(frozen=True, eq=False)
class GroupAction:
    lattice: Lattice
    elements: tuple[AffineMap, ...]
    name: str = ""

    def __post_init__(self) -> None:
        self._lattice_form  # built now: an action whose form overflows is never made

    @functools.cached_property
    def _lattice_form(self) -> tuple[np.ndarray, np.ndarray]:
        """Every element as ``x -> M x + s`` in lattice coordinates: ``M``
        (G, 2n, 2n) is ``B^-1 R(A) B`` for the real lattice basis ``B``, and
        ``s`` (G, 2n) is ``B^-1 [Re t; Im t]``, one matrix-vector product per
        element so that fixed-point witnesses keep their last bits.  Built
        once per action, when it is made; both arrays are read-only.  An
        entry of A or t far above the lattice's scale overflows the form:
        ValueError names A or t."""
        basis = self.lattice.real_basis()
        inv = np.linalg.inv(basis)
        a = np.stack([el.A for el in self.elements])
        with np.errstate(over="ignore", invalid="ignore"):
            m = inv @ np.block([[a.real, -a.imag], [a.imag, a.real]]) @ basis
            s = np.stack([inv @ np.concatenate([el.t.real, el.t.imag]) for el in self.elements])
        for key, part in (("A", m), ("t", s)):
            if not np.all(np.isfinite(part)):
                raise ValueError(
                    f"group element {key} has lattice coordinates that are not finite"
                )
        m.flags.writeable = s.flags.writeable = False
        return m, s

    @functools.cached_property
    def _integer_form(self) -> Optional[np.ndarray]:
        """Every ``M`` as a read-only int64 array, or None when some ``M`` is no automorphism
        of Z^2n: an integer ``R`` within MATCH_TOL with |det R| = 1, decided exactly."""
        m, _ = self._lattice_form
        r = np.round(m)
        # below 2**53 the cast is exact (NaN is not below it)
        if np.all((np.abs(m - r) < MATCH_TOL) & (np.abs(m) < 2**53)):
            ints = r.astype(np.int64)
            if all(abs(_det(mat)) == 1 for mat in ints.tolist()):
                ints.flags.writeable = False
                return ints
        return None


@dataclass(frozen=True, eq=False)
class CatalogEntry:
    """A chart to verify: a surface of the catalog, or a spec file once
    loaded.  Rows with no chart (negative controls, metadata) are plain
    dicts, not entries."""

    name: str
    dim: int
    potential: PotentialExpr
    lattice: Optional[Lattice]
    action: Optional[GroupAction]
    # torus | hyperelliptic | negative-control, or any verdict name; None
    # on a spec file that expects nothing
    expected_class: Optional[str]
    metadata: dict = field(default_factory=dict)
    # {"re": [[lo, hi], ...], "im": [[lo, hi], ...]}; None gives the
    # +-SAMPLE_BOX box
    sample_domain: Optional[dict] = None

    def __post_init__(self) -> None:
        if self.potential.dim != self.dim:
            raise ValueError("potential dimension mismatch")
        if self.sample_domain is None:
            box = {part: [[-SAMPLE_BOX, SAMPLE_BOX]] * self.dim for part in ("re", "im")}
            object.__setattr__(self, "sample_domain", box)


# --- group validation -------------------------------------------------


def _same_linear(m1, m2) -> np.ndarray:
    """Whether the linear parts ``m1`` and ``m2`` are one matrix, broadcast
    over the leading axes.  NaN compares unequal."""
    return np.all(np.abs(m1 - m2) < MATCH_TOL, axis=(-2, -1))


def _same(m1, s1, m2, s2) -> np.ndarray:
    """Whether ``(m1, s1)`` and ``(m2, s2)`` are one map of the torus,
    broadcast over the leading axes.  NaN compares unequal."""
    ds = s1 - s2
    return _same_linear(m1, m2) & np.all(np.abs(ds - np.round(ds)) < MATCH_TOL, axis=-1)


# a huge element overflows its composites; an overflowed value matches nothing
@np.errstate(over="ignore", invalid="ignore")
def validate_group(action: GroupAction) -> dict[str, bool]:
    """``{"closure", "lattice_stable", "faithful"}``: closure mod lattice, every M
    an automorphism of Z^2n, faithfulness; closure and stability make it finite."""
    m, s = action._lattice_form
    comp_m = np.einsum("gij,hjk->ghik", m, m)
    comp_s = np.einsum("gij,hj->ghi", m, s) + s[:, None]
    # one left factor at a time: memory grows as |G|^2, not |G|^3
    rows = zip(comp_m[:, :, None], comp_s[:, :, None])
    closure = all(np.any(_same(cm, cs, m, s), axis=-1).all() for cm, cs in rows)

    same = _same(m[:, None], s[:, None], m, s)
    faithful = not np.any(np.triu(same, 1))

    stable = action._integer_form is not None
    return {"closure": closure, "lattice_stable": stable, "faithful": faithful}


def is_free(action: GroupAction) -> tuple[bool, Optional[np.ndarray]]:
    """Decide whether the action has no fixed point on the torus.

    For each non-identity element ``x -> M x + s`` in lattice coordinates
    the fixed-point condition is ``(M - I) x = -s (mod Z^2n)`` with the
    integer matrix ``T = M - I``.  With ``U T V = D`` in Smith normal form
    a solution exists iff ``(U s)_i`` is an integer (within MATCH_TOL) on
    every zero row of D.  Each float of ``s`` is a dyadic rational, so
    ``U s`` is formed exactly, over the common denominator of ``s``.  On
    failure the fixed point ``x = V eta``, with ``eta_i = -(U s)_i / d_i``
    on the nonzero rows, is reduced into [0, 1)^2n in exact rationals and
    returned in C^n.
    """
    ints = action._integer_form
    if ints is None:
        raise ValueError("lattice is not stable under the linear part")
    n = action.lattice.dim
    m, s = action._lattice_form
    eye = np.eye(2 * n, dtype=np.int64)
    moving = ~_same(m, s, eye, 0.0)

    for t_int, tau in zip(ints[moving] - eye, s[moving]):
        u, d, v = smith_normal_form(t_int)
        ratios = [x.as_integer_ratio() for x in tau.tolist()]
        den = max(q for _, q in ratios)
        w = u @ np.array([p * (den // q) for p, q in ratios], dtype=object)
        diag = np.diagonal(d)
        pivot = diag != 0
        if all(min(r, 1 - r) < MATCH_TOL for r in (w[~pivot] % den / den).tolist()):
            eta = [Fraction(-wi, den * di) if di else 0 for wi, di in zip(w, diag)]
            xi = np.array([float(x % 1) for x in v @ np.array(eta, dtype=object)])
            moved = t_int @ xi + tau
            if not np.max(np.abs(moved - np.round(moved))) < 1e-6:
                raise AssertionError("fixed-point witness failed verification")
            x_real = action.lattice.real_basis() @ xi
            return False, x_real[:n] + 1j * x_real[n:]
    return True, None


def contains_translations(action: GroupAction) -> bool:
    """True iff a non-identity element is a pure translation: M is I as
    :func:`_same` compares linear parts."""
    m, s = action._lattice_form
    eye = np.eye(m.shape[-1])
    return bool(np.any(_same_linear(m, eye) & ~_same(m, s, eye, 0.0)))


def isometry_defect(action: GroupAction) -> float:
    """Unitarity defect max |A* A - I| of the linear parts; the flat
    metric is invariant iff this vanishes."""
    a = np.stack([el.A for el in action.elements])
    # a huge linear part overflows A* A: the defect is then inf or NaN and fails
    with np.errstate(over="ignore", invalid="ignore"):
        defect = np.abs(np.conj(np.swapaxes(a, -1, -2)) @ a - np.eye(action.lattice.dim))
    return float(np.max(defect))


# --- catalog construction --------------------------------------------


def flat_potential(n: int) -> PotentialExpr:
    """sum_a z_a zbar_a, the flat chart potential."""
    terms = tuple(Product((Var(a), ConjVar(a))) for a in range(n))
    root = terms[0] if n == 1 else Sum(terms, (1,) * n)
    return PotentialExpr(root, n)


def product_lattice(moduli: Sequence[complex]) -> Lattice:
    """Product of elliptic-curve lattices Z + Z*tau_a in each factor."""
    eye = np.eye(len(moduli), dtype=np.complex128)
    return Lattice(np.stack([e for a, tau in enumerate(moduli) for e in (eye[a], eye[a] * tau)]))


def square_lattice(n: int) -> Lattice:
    return product_lattice([1j] * n)


_RHO = complex(-0.5, np.sqrt(3.0) / 2.0)  # primitive cube root of unity

# The seven quotient families of E x F, one row each, in catalog order:
# (group, tau, rotation, order, absorbed translation or None).  Both
# factors are C/(Z + Z tau); the generator z -> (z1 + 1/order, rotation
# z2) shifts E by 1/order and rotates F.  A product group's
# pure-translation generator is absorbed into the lattice.
FAMILIES = (
    ("Z2", 1j, -1.0, 2, None),  # F-symmetry x -> -x
    ("Z2xZ2", 1j, -1.0, 2, (0.5j, 0.5)),  # half-period on both factors
    ("Z4", 1j, 1j, 4, None),  # x -> i x on F = C/(Z + Zi)
    ("Z4xZ2", 1j, 1j, 4, (0.5j, 0.5 + 0.5j)),
    ("Z3", _RHO, _RHO, 3, None),  # x -> rho x on F = C/(Z + Z rho)
    ("Z3xZ3", _RHO, _RHO, 3, (_RHO / 3.0, (1.0 - _RHO) / 3.0)),
    ("Z6", _RHO, -_RHO, 6, None),  # x -> -rho x
)


def hyperelliptic_catalog() -> list[CatalogEntry]:
    """The eight flat Kahler surface entries: the torus, then one entry
    ``hyperelliptic-<group>`` per row of ``FAMILIES``, in its order.

    ``metadata['holonomy']`` is the family group label (``x`` read as
    ``+``) and ``metadata['reduced_order']`` the order of the stored
    cyclic action.  A family with an absorbed translation acts on the
    enlarged lattice; ``metadata['absorbed_translation']`` keeps the
    vector as ``[re, im]`` pairs.
    """
    phi2 = flat_potential(2)
    torus_meta = {"holonomy": "1", "b1": 4, "b2": 6, "pg": 1}
    entries = [CatalogEntry("torus", 2, phi2, square_lattice(2), None, "torus", torus_meta)]
    for group, tau, rotation, order, absorbed in FAMILIES:
        name = f"hyperelliptic-{group}"
        meta = {"holonomy": group.replace("x", "+"), "b1": 2, "b2": 2, "pg": 0,
                "reduced_order": order}
        lattice = product_lattice([tau, tau])
        if absorbed is not None:
            # the translation replaces the generator tau e_1, which stays in
            # the integer span of the enlarged lattice
            e1, tau_e1, e2, tau_e2 = lattice.generators
            extra = np.array(absorbed)
            lattice = Lattice(np.stack([e1, extra, e2, tau_e2]))
            if not lattice.contains(tau_e1):
                raise ValueError("enlarged lattice does not contain the product lattice")
            meta["absorbed_translation"] = [[x.real, x.imag] for x in extra]
        shift = np.array([1.0 / order, 0.0], dtype=np.complex128)
        gen = AffineMap(np.diag([1.0 + 0j, rotation]), shift)
        elements = [AffineMap(np.eye(2), np.zeros(2)), gen]
        while len(elements) < order:
            last = elements[-1]  # gen, then last
            elements.append(AffineMap(last.A @ gen.A, last.A @ gen.t + last.t))
        action = GroupAction(lattice, tuple(elements), name)
        entries.append(CatalogEntry(name, 2, phi2, lattice, action, "hyperelliptic", meta))
    return entries


# --- negative controls and metadata rows ------------------------------


def negative_controls() -> list[dict]:
    """Surface-classification rows that are not Frobenius and carry no
    chart: ``{"spec", "flags", "metadata"}`` each, new on every call."""
    rows = (
        # (name, affine, kahler, metadata)
        ("minimal-elliptic-VIII0", True, False, {"b1": "odd", "pg": ">0"}),
        ("inoue-VII0", True, False, {"b1": 1, "b2": 0, "pg": 0}),
        ("hopf-VII0", True, False,
         {"b1": 1, "b2": 0, "pg": 0, "affine_condition": "c*(m-1) == 0"}),
        ("ruled", False, True, {"b2": 2}),
        ("k3", False, True, {"b1": 0, "b2": 22, "pg": 1}),
    )
    return [
        {"spec": name, "flags": {"frobenius": False, "affine": affine, "kahler": kahler},
         "metadata": meta}
        for name, affine, kahler, meta in rows
    ]


def metadata_rows() -> list[dict]:
    """Higher-dimensional classification rows with no chart:
    ``{"spec", "metadata"}`` each, new on every call."""
    return [
        {"spec": "hantzsche-wendt",
         "metadata": {"holonomy": "(Z2)^(n-1)", "b1": 0, "spin": True}},
        {"spec": "calabi-yau-3d-flat", "metadata": {"holonomy": "nontrivial"}},
        {"spec": "calabi-yau-odd-dim", "metadata": {"betti": "b1..b_{2n-1} = 0, b_n = 2^n"}},
    ]


def classification_counts() -> tuple[int, int]:
    """(surfaces, threefolds) = (8, 174): the torus and the rows of
    ``FAMILIES``; the threefold count is recorded as asserted metadata
    (enumerating the three-dimensional families is out of scope)."""
    return 1 + len(FAMILIES), 174
