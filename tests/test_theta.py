import cmath

import numpy as np
import pytest

from frobenius_verify import theta as th
from frobenius_verify.cli import Config, run_theta
from frobenius_verify.theta import (
    BLOCK_ENTRIES,
    MAX_RADIUS,
    RESIDUAL_FLOOR,
    TAIL_TARGET,
    LatticeMismatchError,
    RiemannThetaSpec,
    SiegelDomainError,
    ThetaError,
    ThetaType,
    _template,
    eval_riemann_theta,
    level_space_dimension,
    multiply_types,
    nearest_term,
    quasi_periodicity_residual,
    riemann_type_of,
    shift_residual,
    values_with_shifts,
)

from helpers import brute_theta, scalar_theta_residuals


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


@pytest.mark.parametrize("gen", [0, 1])
def test_shift_residual_catches_a_perturbed_factor(gen):
    """At Im tau = 3 the compared values reach exp(3 pi) ~ 1e4; a factor
    whose J is off by 1e-6 is still far outside the tolerance."""
    spec = RiemannThetaSpec(tau=[[0.2 + 3j]], alpha=[0.0], beta=[0.0])
    ttype = riemann_type_of(spec)
    bad = ThetaType(1, ttype.lattice, ttype.rows, ttype.j_values + 1e-6)
    zs = np.array([[0.13 + 0.07j], [-0.42 + 0.19j]])
    shift = ttype.lattice.generators[[gen]]
    base, (shifted,) = values_with_shifts(spec, zs, shift, 30)
    scales = nearest_term(spec.tau, spec.alpha, zs + shift)
    for z, h, hs, scale in zip(zs, base, shifted, scales):
        assert shift_residual(ttype.factor(z, gen), h, hs, scale) < 1e-13
        assert shift_residual(bad.factor(z, gen), h, hs, scale) > 1e-6


def _theta_zero_shifted_by_tau():
    """theta at the zero z = (1+i)/2 of tau = i and at z + tau, with the
    factor, and the nearest-term scale at z + tau, which is |factor|
    times that at z."""
    spec = _spec1()
    ttype = riemann_type_of(spec)
    z = np.array([[(1 + 1j) / 2]])
    shift = ttype.lattice.generators[[1]]
    (base,), ((shifted,),) = values_with_shifts(spec, z, shift, 30)
    scale = nearest_term(spec.tau, spec.alpha, z + shift)[0]
    factor = ttype.factor(z[0], 1)
    assert scale == pytest.approx(abs(factor) * nearest_term(spec.tau, spec.alpha, z)[0])
    return factor, base, shifted, scale


def test_shift_residual_at_a_zero_reads_noise_relative_to_the_nearest_term():
    """Rounding noise of 1e-16 of the envelope in each compared value stays
    far below the 1e-8 tolerance, where an absolute floor of
    RESIDUAL_FLOOR would read it as over 1e-8."""
    factor, base, shifted, scale = _theta_zero_shifted_by_tau()
    envelope = np.exp(np.pi * 1.5**2)  # exp(pi y^2 / Y) at z + tau, y = 3/2
    assert scale <= envelope
    noise = 1e-16 * envelope
    # the two values moved apart by the noise, each on its own side
    base_off = base - noise / factor
    shifted_off = shifted + noise
    assert shift_residual(factor, base_off, shifted_off, scale) < 1e-8
    assert abs(shifted_off - factor * base_off) / RESIDUAL_FLOOR > 1e-8


@pytest.mark.parametrize("noise", [0.0, 1e-16])
def test_shift_residual_is_unchanged_by_a_common_scale(noise):
    """Theta values and their scale grow together (by exp(pi Im tau) along
    tau), so one common factor on all three leaves the residual as it was,
    where the floor decides it and where the values do."""
    factor, base, shifted, scale = _theta_zero_shifted_by_tau()
    base, shifted = base + noise, shifted + 1e4 * noise
    residual = shift_residual(factor, base, shifted, scale)
    for common in (2.0**-60, 2.0**40):
        assert shift_residual(factor, common * base, common * shifted, common * scale) == residual


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
        # large Im tau: each f_k is summed where its series is centred
        (1, 4, [[100j]], 4),
        (1, 2, [[40j]], 2),
        (2, 2, np.diag([100j, 100j]), 4),
        (2, 4, np.diag([70j, 70j]), 16),
        # off the diagonal, k/s - round(k/s) would overflow at level 4
        (2, 4, [[100j, 99j], [99j, 100j]], 16),
    ],
)
def test_level_space_dimension(g, s, tau, expected):
    assert level_space_dimension(g, s, tau) == expected


@pytest.mark.parametrize("radius", [2, 30])
def test_level_space_dimension_appends_its_largest_tail_bound(monkeypatch, radius):
    bounds = []

    def recording(spec, z, radius):
        result = original(spec, z, radius)
        bounds.extend(result.tail_bound.tolist())
        return result

    original = th.eval_riemann_theta
    monkeypatch.setattr(th, "eval_riemann_theta", recording)
    tails = [1.0]
    assert level_space_dimension(2, 2, np.diag([0.6j, 0.9j]), radius, tails=tails) == 4
    assert len(bounds) == 4 * 2
    assert tails == [1.0, max(bounds)]


LEVEL_TAUS = [
    (1, 2, [[0.3 + 1.1j]]),
    (1, 4, [[-0.2 + 0.8j]]),
    (2, 2, [[0.1 + 1.0j, 0.2 + 0.3j], [0.2 + 0.3j, -0.4 + 0.9j]]),
    (2, 3, np.diag([1.2j, 0.7j])),
]


def _level_function(tau, s, k, z):
    """f_k(z) = theta[k/s, 0](s z, s tau), summed by the plain loop."""
    g = len(k)
    big = (s * np.asarray(tau)).tolist()
    return brute_theta(big, [kj / s for kj in k], [0.0] * g, [s * zj for zj in z], 8)


@pytest.mark.parametrize("g,s,tau", LEVEL_TAUS)
def test_level_functions_at_the_shifted_points_are_a_dft(g, s, tau):
    """f_k(z0 + b/s) = e(k.b/s) f_k(z0): the s^g x s^g matrix of values is
    the character (DFT) matrix times diag(f_k(z0))."""
    z0 = np.array([0.31 + 0.07j, 0.13 + 0.11j][:g])
    ks = list(np.ndindex(*([s] * g)))
    values = np.array([[_level_function(tau, s, k, z0 + np.array(b) / s) for k in ks] for b in ks])
    dft = np.exp(2j * np.pi * np.array(ks) @ np.array(ks).T / s)
    at_z0 = np.array([_level_function(tau, s, k, z0) for k in ks])
    assert np.max(np.abs(values - dft * at_z0)) <= 1e-12 * np.max(np.abs(values))


@pytest.mark.parametrize("g,s,tau", LEVEL_TAUS)
def test_level_function_centred_shift_is_theta_times_a_factor(g, s, tau):
    """f_k(z - tau a') = e(a'.s z - a'.s tau a'/2) theta(s z, s tau) for
    every a' = k/s - c, c in {0, 1}^g, among them the shift the count sums."""
    tau = np.asarray(tau, dtype=complex)
    z = np.array([0.21 + 0.05j, 0.4 + 0.02j][:g])
    theta = brute_theta((s * tau).tolist(), [0.0] * g, [0.0] * g, (s * z).tolist(), 8)
    for k in np.ndindex(*([s] * g)):
        for c in np.ndindex(*([2] * g)):
            a = np.array(k) / s - np.array(c)
            factor = np.exp(2j * np.pi * (a @ (s * z) - a @ (s * tau) @ a / 2))
            value = _level_function(tau, s, k, z - tau @ a)
            assert abs(value - factor * theta) <= 1e-12 * abs(factor * theta)


def test_tau_validation():
    with pytest.raises(SiegelDomainError):
        RiemannThetaSpec(tau=[[1.0]], alpha=[0], beta=[0])
    with pytest.raises(SiegelDomainError):
        RiemannThetaSpec(tau=[[1j, 0.2], [0.1, 1j]], alpha=[0, 0], beta=[0, 0])


@pytest.mark.parametrize(
    "entry",
    [complex(0, np.nan), complex(np.nan, 1), complex(np.inf, 1), complex(-np.inf, 1),
     complex(0, np.inf), complex(0, -np.inf)],
    ids=["nan-imag", "nan-real", "inf-real", "-inf-real", "inf-imag", "-inf-imag"],
)
@pytest.mark.parametrize("g", [1, 2])
def test_tau_with_a_non_finite_entry_is_rejected_by_name(entry, g):
    """A NaN or infinite entry of tau, on or off the diagonal, is rejected
    before any arithmetic on it: the error names tau, and nothing warns
    (the suite turns a RuntimeWarning into an error)."""
    tau = np.eye(g, dtype=complex) * 1j
    tau[0, -1] = tau[-1, 0] = entry
    with pytest.raises(SiegelDomainError, match="tau must have finite entries"):
        RiemannThetaSpec(tau=tau, alpha=[0] * g, beta=[0] * g)


def test_radius_validation():
    with pytest.raises(ValueError):
        eval_riemann_theta(_spec1(), [0.1], 0)
    with pytest.raises(ValueError):
        eval_riemann_theta(_spec1(), [0.1], MAX_RADIUS + 1)


# (tau, alpha, beta, radius)
BATCH_CASES = [
    ([[0.3 + 0.9j]], [0.25], [-0.4], 30),
    ([[0.2 + 1.1j, -0.3 + 0.2j], [-0.3 + 0.2j, -0.1 + 0.8j]], [0.5, -0.2], [0.1, 0.35], 10),
]


@pytest.mark.parametrize("tau, alpha, beta, radius", BATCH_CASES)
def test_batch_equals_single_points_bitwise(tau, alpha, beta, radius):
    """Rows of one call equal one-point calls bit for bit, with the case's
    characteristics on every row and with rows that alternate between
    them and [1/2 - alpha, 0]; the batch crosses block boundaries."""
    spec = RiemannThetaSpec(tau=tau, alpha=alpha, beta=beta)
    g = spec.genus
    y = spec.tau.imag
    per_block = BLOCK_ENTRIES // len(_template(y.tobytes(), g, radius).offsets)
    count = 3 * per_block + 5
    assert per_block > 1 and count % per_block != 0
    rng = np.random.default_rng(41)
    # |Im z| up to 2 moves the Gaussian centres, so rows sum different n
    zs = rng.uniform(-1, 1, (count, g)) + 2j * rng.uniform(-1, 1, (count, g))
    other = RiemannThetaSpec(tau=tau, alpha=0.5 - spec.alpha, beta=np.zeros(g))
    mixed = [other if i % 2 else spec for i in range(count)]
    rows = RiemannThetaSpec(
        tau=tau, alpha=[s.alpha for s in mixed], beta=[s.beta for s in mixed]
    )
    for batch_spec, specs in ((spec, [spec] * count), (rows, mixed)):
        batch = eval_riemann_theta(batch_spec, zs, radius)
        singles = [eval_riemann_theta(s, z, radius) for s, z in zip(specs, zs)]
        assert batch.value.tolist() == [v.value for v in singles]
        assert batch.tail_bound.tolist() == [v.tail_bound for v in singles]


def test_characteristic_rows_must_match_the_points():
    spec = RiemannThetaSpec(tau=[[1j]], alpha=np.zeros((3, 1)), beta=[0.0])
    assert eval_riemann_theta(spec, np.zeros((3, 1)), 30).value.shape == (3,)
    for points in (np.zeros((2, 1)), np.zeros((4, 1)), [0.1]):
        with pytest.raises(ValueError, match="one row per point"):
            eval_riemann_theta(spec, points, 30)
    rows = RiemannThetaSpec(tau=[[1j]], alpha=[0.0], beta=np.zeros((2, 1)))
    with pytest.raises(ValueError, match="one row per point"):
        eval_riemann_theta(rows, np.zeros((3, 1)), 30)


@pytest.mark.parametrize("level", [1, 2, 3, 4])
@pytest.mark.parametrize("genus, tau", [(1, [[0.2 + 0.9j]]), (2, [[1.1j, 0.2], [0.2, 0.7j]])])
def test_run_theta_makes_one_series_call_per_period_matrix(monkeypatch, genus, tau, level):
    """One call on level * tau for the level count and one on tau for
    every checked characteristic."""
    taus = []

    def counting(spec, z, radius):
        taus.append(spec.tau)
        return original(spec, z, radius)

    original = th.eval_riemann_theta
    monkeypatch.setattr(th, "eval_riemann_theta", counting)
    run_theta(np.array(tau), level, Config())
    assert len(taus) == 2
    assert np.array_equal(taus[0], level * np.array(tau)) and np.array_equal(taus[1], tau)


# (tau, alpha, beta): genus 1 and 2 with nonzero characteristics, and a
# full Im tau with eigenvalues 0.5 and 1.3 whose axes are skewed
ORACLE_CASES = [
    ([[0.3 + 0.9j]], [0.25], [-0.4]),
    ([[0.4 + 0.6j, 0], [0, -0.2 + 1.4j]], [0.5, 0.5], [0.5, 0.0]),
    ([[0.2 + 0.9j, -0.3 + 0.4j], [-0.3 + 0.4j, -0.1 + 0.9j]], [0.5, -0.2], [0.1, 0.35]),
]
# Each term's exponent is formed with absolute error about eps times its
# size (up to a few hundred here), so both sums are good to about 1e-13
# of the envelope.
ROUNDING = 1e-13


@pytest.mark.parametrize("tau, alpha, beta", ORACLE_CASES)
def test_template_holds_every_centre_ellipsoid(tau, alpha, beta):
    """Whatever the centre's offset d from its nearest lattice point (the
    cube's corners and random points), every m with
    pi (m - d)^T Y (m - d) <= r^2 is a template offset."""
    y = np.array(tau).imag
    y_inv = np.linalg.inv(y)
    tpl = _template(y.tobytes(), len(y), 30)
    offsets = {tuple(m) for m in tpl.offsets.tolist()}
    g = len(y)
    rng = np.random.default_rng(44)
    corners = np.array(np.meshgrid(*[[-0.5, 0.5]] * g)).reshape(g, -1).T
    # |m_j - d_j| <= r sqrt((Y^-1)_jj / pi) on the ellipsoid
    reach = int(np.ceil(tpl.r * np.sqrt(np.max(np.diag(y_inv)) / np.pi))) + 1
    box = np.array(np.meshgrid(*[np.arange(-reach, reach + 1.0)] * g)).reshape(g, -1).T
    for d in np.concatenate([corners, rng.uniform(-0.5, 0.5, (40, g))]):
        v = box - d
        inside = box[np.pi * np.einsum("ki,ij,kj->k", v, y, v) <= tpl.r**2]
        assert len(inside) > 0
        assert {tuple(m) for m in inside.tolist()} <= offsets


def test_template_is_built_once_per_im_tau():
    """A genus-2 level-2 command makes two series calls, one per Im tau
    (tau and level * tau), and builds two templates, each looked up
    once; a cached template cannot be written to."""
    _template.cache_clear()
    run_theta(np.diag([1j, 2j]), 2, Config())
    info = _template.cache_info()
    assert (info.misses, info.hits) == (2, 0)
    tpl = _template(np.diag([1.0, 2.0]).tobytes(), 2, Config().radius)
    assert _template.cache_info().misses == 2
    assert not tpl.offsets.flags.writeable and not tpl.half.flags.writeable


def _assert_within_tail_bound(tau, alpha, beta, zs, radius):
    """Each value is the full series (``brute_theta`` over |n|_inf <= 30)
    up to its tail bound plus rounding, both relative to the envelope."""
    spec = RiemannThetaSpec(tau=tau, alpha=alpha, beta=beta)
    y_inv = np.linalg.inv(spec.tau.imag)
    result = eval_riemann_theta(spec, zs, radius)
    for z, value, tail in zip(zs, result.value, result.tail_bound):
        y = (z + spec.beta).imag
        envelope = np.exp(np.pi * y @ y_inv @ y)
        slow = brute_theta(tau, alpha, beta, z, 30)
        assert abs(value - slow) <= (tail + ROUNDING) * envelope
    return result.tail_bound


# radius 30 holds every window; 1-3 cap them, and the per-point bound
# must still cover what they leave out of the full series
@pytest.mark.parametrize("radius", [30, 3, 2, 1])
@pytest.mark.parametrize("tau, alpha, beta", ORACLE_CASES)
def test_series_matches_brute_box_within_tail_bound(tau, alpha, beta, radius):
    g = len(tau)
    rng = np.random.default_rng(43)
    zs = rng.uniform(-1, 1, (6, g)) + 2j * rng.uniform(-1, 1, (6, g))
    tails = _assert_within_tail_bound(tau, alpha, beta, zs, radius)
    assert (np.max(tails) <= TAIL_TARGET) == (radius == 30)


def test_window_clipped_off_its_centre_stays_within_its_tail_bound():
    """Radius 6 leaves the skewed template (half-widths 5) room for
    k in [-1, 1]^2; centres t (1, 1) beyond that lose the terms in the
    corners of the box that the template's ellipse leaves out, which only
    the distance from the centre to the ellipse bounds."""
    tau, alpha, beta = ORACLE_CASES[2]
    y = np.array(tau).imag
    centres = np.outer([2.5, 2.75, 3.0, 3.25], [1.0, 1.0])
    zs = np.array([0.3, -0.2]) - 1j * centres @ y
    tails = _assert_within_tail_bound(tau, alpha, beta, zs, 6)
    assert np.all((1e-8 < tails) & (tails < 1))


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


@pytest.mark.parametrize("genus, tau", [(1, [[1j]]), (2, [[1.1j, 0.2], [0.2, 0.7j]])])
def test_run_theta_residuals_match_the_scalar_loop(genus, tau):
    """The array residuals against the per-point loop with Python complex
    arithmetic.  Residuals are relative errors near 1e-16; numpy's complex
    multiply and abs may round each operand a few ulps of 1 away from
    Python's, so 1e-15 absolute, fixed beforehand, bounds the change."""
    config = Config(seed=5)
    report = run_theta(np.array(tau), 2, config)
    zs = np.array([[re + 1j * im for re, im in row["z"]] for row in report["samples"][:20]])
    qp, mult = scalar_theta_residuals(np.array(tau), zs, config.radius)
    residuals = [row["residual"] for row in report["samples"]]
    assert residuals == pytest.approx(qp, rel=0, abs=1e-15)
    assert report["multiplicativity"] == pytest.approx(mult, rel=0, abs=1e-15)


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
