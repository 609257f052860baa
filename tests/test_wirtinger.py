import numpy as np
import pytest
from helpers import brute_jet_mul, fd_partial, random_potential_expr

from frobenius_verify.expr import ExprError, LogDomainError, eval_point, parse
from frobenius_verify.wirtinger import (
    Jet,
    hermiticity_defect,
    jet_eval,
    partial,
    seed,
)


def test_seed_variable_at_origin():
    jets = seed([0.0])
    z1 = jets[0]
    assert z1.value() == 0
    assert partial(z1, (1,), (0,)) == 1.0
    # all other coefficients vanish
    coeffs = z1.coeffs.copy()
    assert np.count_nonzero(coeffs) == 1


def test_seed_conjugate_variable():
    jets = seed([1 + 1j])
    zbar1 = jets[1]
    assert zbar1.value() == 1 - 1j
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

    f = lambda z: eval_point(expr, z)
    oracle = fd_partial(f, [0.0], (2,), (2,), h=1e-3, levels=1)
    assert abs(oracle - (-2.0)) < 1e-3


def test_quartic_fourth_partial():
    expr = parse("(z1*zbar1)^2", 1)
    jet = jet_eval(expr, [0.0])
    assert partial(jet, (1,), (1,)) == pytest.approx(0.0)
    assert partial(jet, (2,), (2,)) == pytest.approx(4.0)
    f = lambda z: eval_point(expr, z)
    oracle = fd_partial(f, [0.0], (2,), (2,), h=0.05)
    assert oracle == pytest.approx(4.0, abs=1e-7)


def test_partial_order_zero_is_value():
    expr = parse("log(1 + z1*zbar1)", 1)
    pt = [0.3 + 0.1j]
    jet = jet_eval(expr, pt)
    assert partial(jet, (0,), (0,)) == pytest.approx(eval_point(expr, pt))


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
    f = lambda z: eval_point(expr, z)
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
        if not (np.all(np.isfinite(j1.coeffs)) and np.all(np.isfinite(j2.coeffs))):
            continue
        scale = max(1.0, np.max(np.abs(j1.coeffs)) * np.max(np.abs(j2.coeffs)))
        if scale > 1e8:
            continue
        from frobenius_verify.expr import PotentialExpr, Product

        prod = PotentialExpr(Product((e1.root, e2.root)), dim)
        direct = jet_eval(prod, pt)
        composed = j1 * j2
        assert np.max(np.abs(direct.coeffs - composed.coeffs)) <= 1e-14 * scale
        checked += 1


def test_conjugate_involution():
    jet = jet_eval(parse("log(1 + z1*zbar1)", 1), [0.2 + 0.4j])
    twice = jet.conjugate().conjugate()
    assert np.array_equal(twice.coeffs, jet.coeffs)


def test_exp_log_roundtrip_on_jets():
    jet = jet_eval(parse("1 + z1*zbar1", 1), [0.3 - 0.2j])
    back = jet.log().exp()
    assert np.max(np.abs(back.coeffs - jet.coeffs)) < 1e-13


def _support_of(mask) -> int:
    return sum(1 << int(k) for k in np.flatnonzero(mask))


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_restricted_product_matches_dense_scatter(dim):
    rng = np.random.default_rng(40 + dim)
    size = len(seed([0.0] * dim)[0].coeffs)
    for samples in ((), (5,)):
        for trial in range(8):
            jets = []
            for _ in range(2):
                mask = rng.random(size) < rng.choice([0.03, 0.2, 0.6])
                mask[0] = True
                shape = (size,) + samples
                c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
                # entries outside the support are exact zeros of either sign
                c[~mask] = -0.0 if trial % 2 else 0.0
                jets.append(Jet(dim, c, _support_of(mask)))
            jets.append(Jet(dim, jets[0].coeffs.copy()))  # no support: dense
            for left, right in ((jets[0], jets[1]), (jets[1], jets[0]), (jets[2], jets[1])):
                prod = left * right
                dense = brute_jet_mul(dim, left.coeffs, right.coeffs)
                assert prod.coeffs.tobytes() == dense.tobytes()
                # the product's support covers every nonzero entry
                nonzero = np.flatnonzero(np.any(dense != 0, axis=tuple(range(1, dense.ndim))))
                assert all(prod.support >> int(k) & 1 for k in nonzero)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_stack_equals_one_point_jets_bit_for_bit(dim):
    rng = np.random.default_rng(70 + dim)
    count = 11  # not a multiple of the 8-point dim-4 batch
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
