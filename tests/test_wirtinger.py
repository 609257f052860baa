import itertools

import numpy as np
import pytest
from helpers import (
    brute_jet_mul,
    dense_jet_eval,
    fd_partial,
    random_potential_expr,
    reference_eval,
)

from frobenius_verify.expr import ExprError, LogDomainError, parse
from frobenius_verify.wirtinger import (
    Jet,
    _product,
    _table,
    hermiticity_defect,
    jet_eval,
    partial,
    seed,
)


def test_seed_variable_at_origin():
    jets = seed([0.0])
    z1 = jets[0]
    assert complex(z1.coeffs[0]) == 0
    assert partial(z1, (1,), (0,)) == 1.0
    # all other coefficients vanish
    coeffs = z1.dense()
    assert np.count_nonzero(coeffs) == 1


def test_seed_conjugate_variable():
    jets = seed([1 + 1j])
    zbar1 = jets[1]
    assert complex(zbar1.coeffs[0]) == 1 - 1j
    assert partial(zbar1, (0,), (1,)) == 1.0


def test_seed_higher_coefficients_zero():
    jets = seed([0.3 + 0.2j, -0.1j])
    for jet in jets:
        nonzero = np.count_nonzero(jet.coeffs)
        assert nonzero <= 2  # constant term and the unit coefficient


def test_modulus_squared_jet():
    expr = parse("z1*zbar1", 1)
    for pt in ([0.0], [0.4 - 0.2j]):
        jet = jet_eval(expr, pt)
        assert partial(jet, (1,), (1,)) == pytest.approx(1.0)
        assert partial(jet, (2,), (1,)) == pytest.approx(0.0)
        assert partial(jet, (2,), (2,)) == pytest.approx(0.0)


def test_log_potential_fourth_partial():
    # series log(1+r) = r - r^2/2 + ..., so the (2,2) coefficient is -1/2
    # and the mixed fourth partial is 2! * 2! * (-1/2) = -2; confirmed by
    # the finite-difference oracle below.
    expr = parse("log(1 + z1*zbar1)", 1)
    jet = jet_eval(expr, [0.0])
    assert partial(jet, (1,), (1,)) == pytest.approx(1.0)
    assert partial(jet, (2,), (2,)) == pytest.approx(-2.0)

    f = lambda z: reference_eval(expr, z)
    oracle = fd_partial(f, [0.0], (2,), (2,), h=1e-3, levels=1)
    assert abs(oracle - (-2.0)) < 1e-3


def test_quartic_fourth_partial():
    expr = parse("(z1*zbar1)^2", 1)
    jet = jet_eval(expr, [0.0])
    assert partial(jet, (1,), (1,)) == pytest.approx(0.0)
    assert partial(jet, (2,), (2,)) == pytest.approx(4.0)
    f = lambda z: reference_eval(expr, z)
    oracle = fd_partial(f, [0.0], (2,), (2,), h=0.05)
    assert oracle == pytest.approx(4.0, abs=1e-7)


def test_partial_order_zero_is_value():
    expr = parse("log(1 + z1*zbar1)", 1)
    pt = [0.3 + 0.1j]
    jet = jet_eval(expr, pt)
    assert partial(jet, (0,), (0,)) == pytest.approx(reference_eval(expr, pt))


def test_partial_outside_simplex():
    jet = jet_eval(parse("z1*zbar1", 1), [0.0])
    with pytest.raises(ValueError):
        partial(jet, (3,), (2,))


def test_multi_index_pair_unpacks_into_partial():
    pair = ((1,), (1,))  # (alpha, beta)
    jet = jet_eval(parse("z1*zbar1", 1), [0.2 + 0.1j])
    assert partial(jet, *pair) == pytest.approx(1.0)


REAL_POTENTIALS = [
    ("z1*zbar1 + z2*zbar2", 2, [0.3 + 0.1j, -0.2 + 0.05j]),
    ("log(1 + z1*zbar1 + z2*zbar2)", 2, [0.25 - 0.1j, 0.15 + 0.2j]),
    ("z1*zbar1 + 0.25*(z1*zbar1)^2", 1, [0.4 + 0.3j]),
    ("exp(0.2*z1*zbar1)", 1, [0.5 - 0.25j]),
    ("z1*zbar1 + 0.1*re(z1^2*zbar2^2) + z2*zbar2", 2, [0.3, 0.2 + 0.1j]),
]


@pytest.mark.parametrize("text,dim,pt", REAL_POTENTIALS)
def test_reality_hermiticity(text, dim, pt):
    jet = jet_eval(parse(text, dim), pt)
    assert hermiticity_defect(jet) < 1e-12
    # partial(a, b) == conj(partial(b, a)) spot checks
    rng = np.random.default_rng(5)
    entries = list(np.ndindex(*(5,) * (2 * dim)))
    for _ in range(20):
        idx = entries[rng.integers(0, len(entries))]
        alpha, beta = idx[:dim], idx[dim:]
        if sum(idx) > 4:
            continue
        left = partial(jet, alpha, beta)
        right = partial(jet, beta, alpha)
        assert left == pytest.approx(np.conj(right), abs=1e-12)


@pytest.mark.parametrize("text,dim,pt", REAL_POTENTIALS[:3])
def test_finite_difference_oracle_full_simplex(text, dim, pt):
    expr = parse(text, dim)
    jet = jet_eval(expr, pt)
    f = lambda z: reference_eval(expr, z)
    for idx in np.ndindex(*(5,) * (2 * dim)):
        if sum(idx) > 4:
            continue
        alpha, beta = idx[:dim], idx[dim:]
        exact = partial(jet, alpha, beta)
        approx = fd_partial(f, pt, alpha, beta, h=0.05, levels=2)
        assert abs(approx - exact) <= 1e-5 * max(1.0, abs(exact)), (idx, exact, approx)


def test_product_of_jets_is_jet_of_product():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 25:
        dim = int(rng.integers(1, 3))
        e1 = random_potential_expr(rng, dim, int(rng.integers(0, 4)))
        e2 = random_potential_expr(rng, dim, int(rng.integers(0, 4)))
        pt = rng.uniform(0.2, 0.8, dim) + 1j * rng.uniform(0.1, 0.5, dim)
        try:
            j1, j2 = jet_eval(e1, pt), jet_eval(e2, pt)
        except Exception:
            continue
        c1, c2 = j1.dense(), j2.dense()
        if not (np.all(np.isfinite(c1)) and np.all(np.isfinite(c2))):
            continue
        scale = max(1.0, np.max(np.abs(c1)) * np.max(np.abs(c2)))
        if scale > 1e8:
            continue
        from frobenius_verify.expr import PotentialExpr, Product

        prod = PotentialExpr(Product((e1.root, e2.root)), dim)
        direct = jet_eval(prod, pt)
        composed = j1 * j2
        assert np.max(np.abs(direct.dense() - composed.dense())) <= 1e-14 * scale
        checked += 1


def test_conjugate_involution():
    jet = jet_eval(parse("log(1 + z1*zbar1)", 1), [0.2 + 0.4j])
    twice = jet.conjugate().conjugate()
    assert np.array_equal(twice.coeffs, jet.coeffs)


def test_exp_log_roundtrip_on_jets():
    jet = jet_eval(parse("1 + z1*zbar1", 1), [0.3 - 0.2j])
    back = jet.log().exp()
    assert np.max(np.abs(back.dense() - jet.dense())) < 1e-13


def _support_of(mask) -> int:
    return sum(1 << int(k) for k in np.flatnonzero(mask))


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_product_table_is_the_pair_scan(dim):
    """The table's pairs are those of a scan over every (i, j) of the
    multi-index simplex, i outer and j inner, keeping total order <= 4."""
    entries = sorted(
        (g for g in itertools.product(range(5), repeat=2 * dim) if sum(g) <= 4),
        key=lambda g: (sum(g), g),
    )
    index = {g: k for k, g in enumerate(entries)}
    pairs = [
        (i, j, index[tuple(a + b for a, b in zip(gi, gj))])
        for i, gi in enumerate(entries)
        for j, gj in enumerate(entries)
        if sum(gi) + sum(gj) <= 4
    ]
    t = _table(dim)
    assert list(t.entries) == entries
    for got, want in zip((t.mul_i, t.mul_j, t.mul_k), zip(*pairs)):
        assert got.dtype == np.intp
        assert got.tolist() == list(want)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_restricted_product_matches_dense_scatter(dim):
    rng = np.random.default_rng(40 + dim)
    size = len(_table(dim).entries)
    for samples in ((), (5,)):
        for trial in range(8):
            jets, tables = [], []
            for _ in range(2):
                mask = rng.random(size) < rng.choice([0.03, 0.2, 0.6])
                mask[0] = True
                shape = (size,) + samples
                c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
                # entries outside the support are exact zeros of either sign
                c[~mask] = -0.0 if trial % 2 else 0.0
                jets.append(Jet(dim, c[mask], _support_of(mask)))
                tables.append(c)
            jets.append(Jet(dim, tables[0].copy(), (1 << size) - 1))  # dense
            tables.append(tables[0])
            for a, b in ((0, 1), (1, 0), (2, 1)):
                prod = jets[a] * jets[b]
                dense = brute_jet_mul(dim, tables[a], tables[b])
                assert prod.dense().tobytes() == dense.tobytes()
                # the product's support covers every nonzero entry
                nonzero = np.flatnonzero(np.any(dense != 0, axis=tuple(range(1, dense.ndim))))
                assert all(prod.support >> int(k) & 1 for k in nonzero)


@pytest.mark.parametrize("samples", [(), (7,)], ids=["one-point", "stack"])
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_a_constant_factor_is_the_dense_scatter(dim, samples):
    """A product with a constant jet (support 1) scales the other operand,
    one pair per entry, and is still the scatter over the pairs in support
    bit for bit (over the whole table where every operand is finite):
    complex constants with nonzero imaginary parts (one per sample on a
    stack), signed zeros, infinities and NaN in the other operand, a
    constant times a constant, in both orders."""
    rng = np.random.default_rng(60 + dim)
    size = len(_table(dim).entries)
    shape = (size,) + samples
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, 5e-324])
    constant = np.arange(size) == 0
    for trial in range(12):
        mask = rng.random(size) < rng.choice([0.05, 0.3, 1.0])
        mask[0] = True
        c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        if trial % 2:
            for part in (c.real, c.imag):
                hit = rng.random(shape) < 0.2
                part[hit] = rng.choice(specials, np.count_nonzero(hit))
        c[~mask] = 0.0
        consts = []
        for _ in range(2):
            k = np.zeros(shape, complex)
            k[0] = rng.normal(size=samples) + 1j * rng.normal(size=samples) * (trial % 3 > 0)
            consts.append(k)
        jet = Jet(dim, c[mask], _support_of(mask))
        one, two = (Jet(dim, k[:1].copy(), 1) for k in consts)
        cases = (
            (one, jet, consts[0], c, (constant, mask)),
            (jet, one, c, consts[0], (mask, constant)),
            (one, two, *consts, (constant, constant)),
            (two, one, *consts[::-1], (constant, constant)),
        )
        for left, right, a, b, supports in cases:
            with np.errstate(invalid="ignore", over="ignore"):
                prod = left * right
                want = brute_jet_mul(dim, a, b, supports)
                whole = brute_jet_mul(dim, a, b)
            assert prod.support == right.support | left.support
            assert prod.dense().tobytes() == want.tobytes()
            if np.all(np.isfinite(a)) and np.all(np.isfinite(b)):
                assert want.tobytes() == whole.tobytes()


def test_products_in_several_runs_match_dense_scatter(monkeypatch):
    """The last Horner step of ``log`` for the dim-4 ball, 1,803 pairs into
    495 rows, runs in several runs and is the scatter over the whole table,
    bit for bit, at one point and on a stack of 5; so is a product of one
    pair at one point, which takes one run, as a product of one column does."""
    products = []
    mul = Jet.__mul__

    def recording(self, other):
        if isinstance(other, Jet):
            products.append((self, other))
        return mul(self, other)

    monkeypatch.setattr(Jet, "__mul__", recording)
    expr = parse("log(1 + z1*zbar1 + z2*zbar2 + z3*zbar3 + z4*zbar4)", 4)
    rng = np.random.default_rng(17)
    for shape in ((4,), (5, 4)):
        products.clear()
        jet_eval(expr, rng.uniform(-0.4, 0.4, shape) + 1j * rng.uniform(-0.4, 0.4, shape))
        left, right = products[-1]
        plan = _product(4, left.support, right.support)
        assert sum(len(run[0]) for run in plan.runs) == 1803 and len(plan.order) == 495
        assert len(plan.runs) > 1
        dense = brute_jet_mul(4, left.dense(), right.dense())
        assert mul(left, right).dense().tobytes() == dense.tobytes()
    z1, zbar1 = seed([0.3 - 0.1j])
    assert len(_product(1, z1.support, zbar1.support).runs) == 1
    assert len(_product(1, 1, 1).runs) == 1
    size = len(_table(1).entries)
    for a, b in rng.normal(size=(50, 2)) + 1j * rng.normal(size=(50, 2)):
        one, other = np.zeros(size, complex), np.zeros(size, complex)
        one[0], other[0] = a, b
        prod = mul(Jet(1, one[:1], 1), Jet(1, other[:1], 1))
        assert prod.dense().tobytes() == brute_jet_mul(1, one, other).tobytes()


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_jet_eval_is_the_dense_oracle_on_its_support(dim, monkeypatch):
    """Every jet stores exactly its support's entries; the root jet's
    table is the whole-table oracle's, bit for bit, on the support and
    zero elsewhere, at one point and on a stack of 11, and so is its
    hermiticity defect.  The potentials
    are (r1 - r2) * r3 of random ones, so supports mix and grow."""
    from frobenius_verify.expr import PotentialExpr, Product, Sum

    made = []
    init = Jet.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(Jet, "__init__", recording)
    rng = np.random.default_rng(90 + dim)
    compared = largest = 0
    for _ in range(8):
        r1, r2, r3 = (random_potential_expr(rng, dim, int(rng.integers(1, 4))).root for _ in "123")
        expr = PotentialExpr(Product((Sum((r1, r2), (1, -1)), r3)), dim)
        for shape in ((dim,), (11, dim)):
            pts = rng.uniform(-0.8, 0.8, shape) + 1j * rng.uniform(-0.8, 0.8, shape)
            made.clear()
            failures: dict = {}
            with np.errstate(all="ignore"):
                jet = jet_eval(expr, pts, failures)
                want, failed = dense_jet_eval(expr, pts)
            assert set(failures) == failed
            assert made and all(len(j.coeffs) == bin(j.support).count("1") for j in made)
            got, want = jet.dense().reshape(len(want), -1), want.reshape(len(want), -1)
            keep = [
                s for s in range(got.shape[1])
                if s not in failed and np.all(np.isfinite(want[:, s]))
            ]
            on = np.array([bool(jet.support >> k & 1) for k in range(len(want))])
            assert got[on][:, keep].tobytes() == want[on][:, keep].tobytes()
            assert not np.any(got[~on]) and not np.any(want[~on][:, keep])
            # the realness defect, read off the support rows, is the whole table's
            with np.errstate(all="ignore"):
                defect = np.reshape(hermiticity_defect(jet), -1)
                table = np.max(np.abs(want - np.conj(want[_table(dim).conj_perm])), axis=0)
            assert defect[keep].tobytes() == table[keep].tobytes()
            compared += len(keep)
            largest = max(largest, len(jet.coeffs))
    assert compared >= 8 * 12 // 2 and largest > 10 * dim


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_stack_equals_one_point_jets_bit_for_bit(dim):
    rng = np.random.default_rng(70 + dim)
    count = 11  # not a multiple of the 16-point dim-4 batch
    failed = 0
    for _ in range(6):
        expr = random_potential_expr(rng, dim, int(rng.integers(1, 4)))
        pts = rng.uniform(-0.8, 0.8, (count, dim)) + 1j * rng.uniform(-0.8, 0.8, (count, dim))
        failures: dict = {}
        with np.errstate(all="ignore"):
            stack = jet_eval(expr, pts, failures)
            for s in range(count):
                try:
                    one = jet_eval(expr, pts[s])
                except ExprError as exc:
                    assert (type(failures[s]), str(failures[s])) == (type(exc), str(exc))
                    failed += 1
                    continue
                assert s not in failures
                assert stack.coeffs[:, s].tobytes() == one.coeffs.tobytes()
    assert failed < 6 * count


def test_log_domain_sample_in_a_stack_keeps_its_index():
    expr = parse("log(z1*zbar1) + z2*zbar2*z1", 2)
    pts = np.array(
        [[0.3, 0.1j], [0.2 + 0.1j, 0.5], [0.0, 0.2], [-0.4j, 0.3], [0.1, -0.2]]
    )
    failures: dict = {}
    stack = jet_eval(expr, pts, failures)
    message = "log argument modulus 0.0 below floor"
    assert {i: (type(e), str(e)) for i, e in failures.items()} == {
        2: (LogDomainError, message)
    }
    for s in (0, 1, 3, 4):
        assert stack.coeffs[:, s].tobytes() == jet_eval(expr, pts[s]).coeffs.tobytes()
    with pytest.raises(LogDomainError, match=message):
        jet_eval(expr, pts[2])
    # without a failures dict the stack raises like a single point
    with pytest.raises(LogDomainError, match=message):
        jet_eval(expr, pts)
