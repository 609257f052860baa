import cmath

import numpy as np
import pytest

from frobenius_verify.cli import Config, run_theta
from frobenius_verify.theta import (
    BLOCK_ENTRIES,
    MAX_RADIUS,
    LatticeMismatchError,
    RiemannThetaSpec,
    SiegelDomainError,
    ThetaError,
    ThetaType,
    eval_riemann_theta,
    level_space_dimension,
    multiply_types,
    quasi_periodicity_residual,
    riemann_type_of,
)

from helpers import brute_theta


def _spec1(alpha=0.0, beta=0.0):
    return RiemannThetaSpec(tau=[[1j]], alpha=[alpha], beta=[beta])


def _loop_oracle(z, tau=1j, radius=50, alpha=0.0, beta=0.0):
    total = 0.0 + 0.0j
    for n in range(-radius, radius + 1):
        w = n + alpha
        total += cmath.exp(1j * cmath.pi * w * w * tau + 2j * cmath.pi * w * (z + beta))
    return total


def test_series_matches_independent_loop():
    spec = _spec1()
    for z in (0.5, 0.13 + 0.21j, -0.4 + 0.05j):
        fast = eval_riemann_theta(spec, [z], 30).value
        slow = _loop_oracle(z)
        assert abs(fast - slow) < 1e-12


def test_series_matches_loop_with_characteristics():
    spec = _spec1(alpha=0.5, beta=0.25)
    for z in (0.1, 0.3 - 0.2j):
        fast = eval_riemann_theta(spec, [z], 30).value
        slow = _loop_oracle(z, alpha=0.5, beta=0.25)
        assert abs(fast - slow) < 1e-12


def test_evenness():
    spec = _spec1()
    rng = np.random.default_rng(9)
    for _ in range(20):
        z = rng.uniform(-0.7, 0.7) + 0.3j * rng.uniform(-1, 1)
        plus = eval_riemann_theta(spec, [z], 30).value
        minus = eval_riemann_theta(spec, [-z], 30).value
        assert abs(plus - minus) < 1e-12


def test_classical_odd_zero():
    spec = _spec1()
    value = eval_riemann_theta(spec, [(1 + 1j) / 2], 30).value
    assert abs(value) < 1e-10


def test_quasi_periodicity_both_generators():
    spec = _spec1()
    for z in (0.13 + 0.07j, -0.42 + 0.31j, 0.25):
        assert quasi_periodicity_residual(spec, [z], 0, 30) < 1e-8
        assert quasi_periodicity_residual(spec, [z], 1, 30) < 1e-8


def test_quasi_periodicity_at_theta_zero_uses_floor():
    spec = _spec1()
    z = [(1 + 1j) / 2]
    assert quasi_periodicity_residual(spec, z, 0, 30) < 1e-8
    assert quasi_periodicity_residual(spec, z, 1, 30) < 1e-8


def test_quasi_periodicity_genus_two():
    spec = RiemannThetaSpec(tau=np.diag([1j, 2j]), alpha=[0, 0], beta=[0, 0])
    rng = np.random.default_rng(12)
    for gen in range(4):
        for _ in range(5):
            z = rng.random(2) + 0.2j * rng.random(2)
            assert quasi_periodicity_residual(spec, z, gen, 30) < 1e-8


def test_truncation_monotonicity():
    spec = _spec1()
    rng = np.random.default_rng(21)
    for _ in range(10):
        z = [rng.uniform(-0.5, 0.5) + 0.25j * rng.uniform(-1, 1)]
        r20 = max(
            quasi_periodicity_residual(spec, z, k, 20) for k in (0, 1)
        )
        r40 = max(
            quasi_periodicity_residual(spec, z, k, 40) for k in (0, 1)
        )
        assert r40 <= r20 + 1e-12


def test_tail_bound_decreases_with_radius():
    spec = RiemannThetaSpec(tau=[[0.5j]], alpha=[0.0], beta=[0.0])
    z = [0.3 + 0.4j]
    tails = [eval_riemann_theta(spec, z, r).tail_bound for r in (2, 4, 8, 16)]
    assert all(a >= b for a, b in zip(tails, tails[1:]))


def test_riemann_type_values():
    spec = _spec1()
    ttype = riemann_type_of(spec)
    # period direction: trivial factor; tau direction: L(z) = -z, J = -tau/2
    assert ttype.l_value([0.37], 0) == 0
    assert ttype.j_values[0] == 0
    assert ttype.l_value([0.37], 1) == pytest.approx(-0.37)
    assert ttype.j_values[1] == pytest.approx(-0.5j)


def test_multiply_types_identity_element():
    spec = _spec1(alpha=0.5)
    ttype = riemann_type_of(spec)
    triv = ThetaType(1, ttype.lattice, np.zeros((2, 1)), np.zeros(2))
    combined = multiply_types(ttype, triv)
    assert np.array_equal(combined.rows, ttype.rows)
    assert np.array_equal(combined.j_values, ttype.j_values)


def test_multiply_types_commutative_associative():
    rng = np.random.default_rng(33)
    lattice = riemann_type_of(_spec1()).lattice
    types = []

    def dyadic(shape):
        # dyadic rationals add without rounding, so the group laws hold
        # bitwise and not just up to float error
        return (
            rng.integers(-32, 33, size=shape) / 8.0
            + 1j * rng.integers(-32, 33, size=shape) / 8.0
        )

    for _ in range(3):
        from frobenius_verify.theta import ThetaType

        types.append(ThetaType(1, lattice, dyadic((2, 1)), dyadic(2)))
    t1, t2, t3 = types
    ab = multiply_types(t1, t2)
    ba = multiply_types(t2, t1)
    assert np.array_equal(ab.rows, ba.rows)
    assert np.array_equal(ab.j_values, ba.j_values)
    left = multiply_types(multiply_types(t1, t2), t3)
    right = multiply_types(t1, multiply_types(t2, t3))
    assert np.array_equal(left.rows, right.rows)
    assert np.array_equal(left.j_values, right.j_values)


def test_multiply_types_lattice_mismatch():
    t1 = riemann_type_of(_spec1())
    t2 = riemann_type_of(RiemannThetaSpec(tau=[[2j]], alpha=[0], beta=[0]))
    with pytest.raises(LatticeMismatchError):
        multiply_types(t1, t2)


def test_product_transforms_with_summed_type():
    s1 = _spec1()
    s2 = _spec1(alpha=0.5)
    t_sum = multiply_types(riemann_type_of(s1), riemann_type_of(s2))
    rng = np.random.default_rng(8)
    worst = 0.0
    for gen in (0, 1):
        shift = t_sum.lattice.generators[gen]
        for _ in range(6):
            z = np.array([rng.uniform(0, 1) + 0.2j * rng.uniform(0, 1)])
            h1 = eval_riemann_theta(s1, z, 30).value
            h2 = eval_riemann_theta(s2, z, 30).value
            h1s = eval_riemann_theta(s1, z + shift, 30).value
            h2s = eval_riemann_theta(s2, z + shift, 30).value
            factor = t_sum.factor(z, gen)
            denom = max(abs(h1 * h2), 1e-6)
            worst = max(worst, abs(h1s * h2s - factor * h1 * h2) / denom)
    assert worst < 1e-7


@pytest.mark.parametrize(
    "g,s,tau,expected",
    [
        (1, 2, [[1j]], 2),
        (1, 3, [[1j]], 3),
        (2, 2, np.diag([1j, 2j]), 4),
    ],
)
def test_level_space_dimension(g, s, tau, expected):
    assert level_space_dimension(g, s, tau, samples=max(16, 4 * s**g)) == expected


def test_level_space_dimension_requires_enough_samples():
    with pytest.raises(ValueError):
        level_space_dimension(1, 2, [[1j]], samples=4)


def test_tau_validation():
    with pytest.raises(SiegelDomainError):
        RiemannThetaSpec(tau=[[1.0]], alpha=[0], beta=[0])
    with pytest.raises(SiegelDomainError):
        RiemannThetaSpec(tau=[[1j, 0.2], [0.1, 1j]], alpha=[0, 0], beta=[0, 0])


def test_radius_validation():
    with pytest.raises(ValueError):
        eval_riemann_theta(_spec1(), [0.1], 0)
    with pytest.raises(ValueError):
        eval_riemann_theta(_spec1(), [0.1], MAX_RADIUS + 1)


# (tau, alpha, beta, radius): at genus 2 a smaller radius, so a block
# holds several points
BATCH_CASES = [
    ([[0.3 + 0.9j]], [0.25], [-0.4], 30),
    ([[0.2 + 1.1j, -0.3 + 0.2j], [-0.3 + 0.2j, -0.1 + 0.8j]], [0.5, -0.2], [0.1, 0.35], 10),
]


def _one_point_series(spec, z, radius):
    """The truncated series in the floating-point order reports have
    always used: one matrix-vector product w @ (z + beta) per point."""
    axes = [np.arange(-radius, radius + 1)] * spec.genus
    n = np.stack([a.reshape(-1) for a in np.meshgrid(*axes, indexing="ij")], axis=1)
    w = n.astype(np.float64) + spec.alpha
    quad = 1j * np.pi * np.einsum("ni,ij,nj->n", w, spec.tau, w)
    return complex(np.sum(np.exp(quad + 2j * np.pi * (w @ (z + spec.beta)))))


@pytest.mark.parametrize("tau, alpha, beta, radius", BATCH_CASES)
def test_batch_equals_single_points_bitwise(tau, alpha, beta, radius):
    spec = RiemannThetaSpec(tau=tau, alpha=alpha, beta=beta)
    g = spec.genus
    per_block = BLOCK_ENTRIES // (2 * radius + 1) ** g
    count = 12 * per_block + 5
    assert per_block > 1 and count % per_block != 0
    rng = np.random.default_rng(41)
    zs = rng.uniform(-1, 1, (count, g)) + 0.3j * rng.uniform(-1, 1, (count, g))
    batch = eval_riemann_theta(spec, zs, radius)
    singles = [eval_riemann_theta(spec, z, radius) for z in zs]
    assert batch.value.tolist() == [v.value for v in singles]
    assert batch.tail_bound.tolist() == [v.tail_bound for v in singles]
    assert batch.value.tolist() == [_one_point_series(spec, z, radius) for z in zs]


@pytest.mark.parametrize("tau, alpha, beta, radius", BATCH_CASES)
def test_batch_matches_brute_loop(tau, alpha, beta, radius):
    spec = RiemannThetaSpec(tau=tau, alpha=alpha, beta=beta)
    rng = np.random.default_rng(42)
    zs = rng.uniform(-1, 1, (5, spec.genus)) + 0.3j * rng.uniform(-1, 1, (5, spec.genus))
    values = eval_riemann_theta(spec, zs, radius).value
    for z, value in zip(zs, values):
        slow = brute_theta(tau, alpha, beta, z, radius)
        assert abs(value - slow) <= 1e-12 * abs(slow)
        assert eval_riemann_theta(spec, z, radius).value == value


@pytest.mark.parametrize("genus, tau", [(1, [[1j]]), (2, [[1.1j, 0.2], [0.2, 0.7j]])])
def test_run_theta_residuals_equal_one_point_residuals(genus, tau):
    config = Config(seed=5)
    report = run_theta(np.array(tau), 2, config)
    spec = RiemannThetaSpec(tau=tau, alpha=np.zeros(genus), beta=np.zeros(genus))
    assert len(report["samples"]) == 2 * genus * 20
    for row in report["samples"]:
        z = [re + 1j * im for re, im in row["z"]]
        expected = quasi_periodicity_residual(spec, z, row["generator"], config.radius)
        assert row["residual"] == expected


def test_batch_shape_validation():
    with pytest.raises(ValueError):
        eval_riemann_theta(_spec1(), np.zeros((3, 2)), 30)


def test_series_overflow_raises_instead_of_warning():
    """With Im tau tiny the Gaussian decay is gone and exp(2 pi n Im z)
    leaves double precision at a large radius."""
    spec = RiemannThetaSpec(tau=np.array([[1e-300j]]), alpha=[0.0], beta=[0.0])
    with pytest.raises(ThetaError, match="overflows"):
        eval_riemann_theta(spec, [[0.1 + 1.0j]], MAX_RADIUS)
    assert np.isfinite(eval_riemann_theta(spec, [0.1 + 1.0j], 5).value)
