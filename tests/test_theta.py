import cmath

import numpy as np
import pytest

from frobenius_verify.theta import (
    LatticeMismatchError,
    RiemannThetaSpec,
    SiegelDomainError,
    eval_riemann_theta,
    level_space_dimension,
    multiply_types,
    quasi_periodicity_residual,
    riemann_type_of,
    trivial_type,
)


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
    triv = trivial_type(ttype.lattice)
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
