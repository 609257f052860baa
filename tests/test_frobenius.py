import math
import types

import numpy as np
import pytest
from helpers import (
    assert_close,
    curved_bundles,
    einsum_associator_sides,
    einsum_christoffel_derivatives,
    einsum_pencil_comm,
    brute_associator,
    brute_compat,
    brute_pencil,
    jet_partials,
    per_lambda_einstein_trace,
    random_polynomial_potential,
    ricci_via_connection,
)

from frobenius_verify.expr import parse
from frobenius_verify.frobenius import (
    UNIT_RESIDUAL_TOL,
    associator,
    commutator,
    fiber_algebra_from_metric,
    find_unit,
    frobenius_compat,
    hermitian_einstein_trace,
    multiplication_commutator,
    pencil_curvature,
    pencil_curvature_form,
    trace_endomorphism,
)
from frobenius_verify.kahler import metric_at, metric_batch, worst

FLAT2 = parse("z1*zbar1 + z2*zbar2", 2)
FS1 = parse("log(1 + z1*zbar1)", 1)
FS2 = parse("log(1 + z1*zbar1 + z2*zbar2)", 2)
QUARTIC1 = parse("z1*zbar1 + 0.25*(z1*zbar1)^2", 1)
POLY2 = parse(
    "z1*zbar1 + z2*zbar2 + 0.1*(z1*zbar1)^2 + 0.05*re(z1^2*zbar2^2)", 2
)


def _alg(dim, entries):
    C = np.zeros((dim, dim, dim), dtype=np.complex128)
    for (k, i, j), v in entries.items():
        C[k, i, j] = v
    return C


def test_commutator_dim1():
    assert commutator(_alg(1, {(0, 0, 0): 1.0})) == 0.0


def test_commutator_metric_algebra():
    md = metric_at(FS2, [0.2, 0.3 - 0.1j])
    hol = fiber_algebra_from_metric(md)
    assert commutator(hol) < 1e-12


def test_commutator_constructed_fixture():
    alg = _alg(1 + 1, {(0, 0, 1): 1.0})
    assert commutator(alg) == pytest.approx(1.0)


def test_associator_dim1_always_zero():
    for c in (0.0, 1.0, -2.5, 0.3 + 0.4j):
        assert associator(_alg(1, {(0, 0, 0): c})) == 0.0


def test_associator_zero_algebra():
    assert associator(_alg(3, {})) == 0.0


DIM2_FIXTURE = {(0, 0, 0): 1.0, (1, 0, 1): 1.0, (1, 1, 0): 1.0, (0, 1, 1): 1.0}


def test_associator_dim2_fixture_matches_brute_force():
    # this fixture is the regular representation of the two-element group,
    # so the brute-force golden value over all 8 basis triples is 0
    alg = _alg(2, DIM2_FIXTURE)
    golden = brute_associator(alg)
    assert golden == 0.0
    assert associator(alg) == pytest.approx(golden, abs=1e-14)


def test_associator_random_matches_brute_force():
    rng = np.random.default_rng(31)
    for dim in (2, 3, 4):
        for _ in range(5):
            raw = rng.normal(size=(dim,) * 3) + 1j * rng.normal(size=(dim,) * 3)
            C = raw + np.transpose(raw, (0, 2, 1))  # commutative, generic
            golden = brute_associator(C)
            assert golden > 1e-3
            assert associator(C) == pytest.approx(golden, rel=1e-12)
            # the identity associator reads: for commutative C the associator's
            # entries are those of [A_c, A_d], by two independent oracles
            assert worst(einsum_pencil_comm(C), 4) == pytest.approx(golden, rel=1e-12)


def test_associator_needs_a_commutative_algebra():
    # M_2 in the matrix-unit basis, e_(a,b) at index 2a + b:
    # E_ab E_cd = delta_bc E_ad is associative but not commutative
    M2 = np.zeros((4, 4, 4))
    for a, b, d in np.ndindex(2, 2, 2):
        M2[2 * a + d, 2 * a + b, 2 * b + d] = 1.0
    assert brute_associator(M2) == 0.0
    assert commutator(M2) == 1.0
    assert worst(einsum_pencil_comm(M2), 4) == 1.0
    assert associator(M2) == 1.0  # the commutator, not the associator


def test_frobenius_compat_zero_algebra():
    rng = np.random.default_rng(4)
    form = rng.normal(size=(3, 3))
    form = form + form.T
    alg = np.zeros((3, 3, 3), dtype=complex)
    assert frobenius_compat(alg, form) == 0.0


def test_frobenius_compat_group_algebra_z2():
    # regular form <g, h> = [gh = identity]
    entries = {(0, 0, 0): 1.0, (1, 0, 1): 1.0, (1, 1, 0): 1.0, (0, 1, 1): 1.0}
    form = np.eye(2)
    alg = _alg(2, entries)
    assert frobenius_compat(alg, form) == pytest.approx(brute_compat(alg, form), abs=1e-14)
    assert frobenius_compat(alg, form) < 1e-14


def test_frobenius_compat_broken_fixture():
    entries = {(0, 0, 0): 1.0, (1, 0, 1): 1.0, (1, 1, 0): 1.0, (0, 1, 1): 1.0}
    form = np.array([[1.0, 0.0], [0.0, 1.0 + 1e-2]])
    alg = _alg(2, entries)
    assert frobenius_compat(alg, form) >= 1e-2


def test_find_unit_dim1():
    unit = find_unit(_alg(1, {(0, 0, 0): 1.0}))
    assert unit is not None
    assert unit[0] == pytest.approx(1.0)


def test_find_unit_zero_algebra():
    assert find_unit(_alg(2, {})) is None


def test_find_unit_diagonal_algebra():
    alg = _alg(3, {(k, k, k): 1.0 for k in range(3)})
    unit = find_unit(alg)
    assert unit is not None
    assert np.allclose(unit, np.ones(3))


def _unit_by_least_squares(C):
    """One LAPACK least-squares solve for the unit, with the residual test
    of ``find_unit``: the per-sample loop the batched solve replaced."""
    n = C.shape[-1]
    a = np.swapaxes(C, -1, -2).reshape(n * n, n)
    b = np.eye(n).reshape(n * n)
    u = np.linalg.lstsq(a, b, rcond=None)[0]
    return u if np.max(np.abs(a @ u - b)) < UNIT_RESIDUAL_TOL else None


def test_batched_find_unit_agrees_with_per_sample_least_squares():
    rng = np.random.default_rng(3)
    diag = _alg(3, {(k, k, k): 1.0 for k in range(3)})
    # the same unital algebra in a random basis: C'^k_ij = Q^k_a C^a_bc P^b_i P^c_j
    p = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    skew = np.einsum("ka,abc,bi,cj->kij", np.linalg.inv(p), diag, p, p)
    stack = [
        diag,
        skew,
        diag + 1e-12 * rng.normal(size=(3, 3, 3)),
        diag + 1e-3 * rng.normal(size=(3, 3, 3)),
        rng.normal(size=(3, 3, 3)),
        np.zeros((3, 3, 3)),
    ]
    units = find_unit(np.stack(stack))
    expected = [_unit_by_least_squares(C) for C in stack]
    assert [u is not None for u in expected] == [True, True, True, False, False, False]
    assert [u is not None for u in units] == [u is not None for u in expected]
    for u, ref in zip(units, expected):
        if ref is not None:
            assert np.allclose(u, ref, rtol=0, atol=1e-12)


def test_fiber_algebra_flat_is_zero():
    md = metric_at(FLAT2, [0.3, -0.2 + 0.1j])
    hol = fiber_algebra_from_metric(md)
    assert np.max(np.abs(hol)) == 0.0
    assert find_unit(hol) is None


def test_fiber_algebra_scalar_structure_constant():
    # g = 1 + z zbar, Gamma = (dg/dz) / g = zbar / (1 + z zbar)
    md = metric_at(QUARTIC1, [0.5])
    hol = fiber_algebra_from_metric(md)
    assert hol[0, 0, 0] == pytest.approx(0.5 / 1.25)


def _norms(pencil, lam):
    """``(curvature_norm, trace_norm)`` of the pencil at one lambda, read
    off its per-sample norms, the coefficients that lambda only scales."""
    return (np.maximum(abs(lam * lam - lam) * pencil.associator, abs(lam) * pencil.mixed_norm),
            abs(lam) * pencil.einstein_defect)


def test_pencil_flat_torus():
    md = metric_at(FLAT2, [0.2, -0.3])
    for lam in (-1.0, 0.5, 1.0, 2.0):
        curvature, trace = _norms(pencil_curvature(md), lam)
        assert curvature < 1e-10
        assert trace < 1e-10


def test_pencil_lambda_zero_any_metric():
    md = metric_at(FS2, [0.3, 0.1])
    assert _norms(pencil_curvature(md), 0.0)[0] == 0.0


def test_pencil_quadratic_in_lambda():
    md = metric_at(POLY2, [0.3 + 0.05j, -0.2 + 0.1j])
    forms = {lam: pencil_curvature_form(md, lam) for lam in (1.0, 2.0, 3.0, 4.0)}
    for block in (0, 1):
        # Lagrange weights for extrapolating a quadratic from 1,2,3 to 4
        predicted = (
            forms[1.0][block] - 3.0 * forms[2.0][block] + 3.0 * forms[3.0][block]
        )
        assert np.max(np.abs(predicted - forms[4.0][block])) < 1e-8


FS3 = parse("log(1 + z1*zbar1 + z2*zbar2 + z3*zbar3)", 3)


def test_hermitian_einstein_flat():
    # Fubini-Study is Kahler-Einstein; at points off the real axes H is
    # not symmetric, so a trace that pairs H[j][k] instead of H[k][j]
    # reads up to 0.25 (dim 2) and 0.13 (dim 3) on this grid
    for potential, point in (
        (FLAT2, [0.1, 0.4]),
        (FS2, [0.3 + 0.2j, 0.1 - 0.15j]),
        (FS3, [0.2 - 0.1j, -0.15 + 0.25j, 0.1 + 0.05j]),
    ):
        md = metric_at(potential, point)
        for lam in (-1.0, 0.5, 1.0, 2.0):
            assert abs(lam) * hermitian_einstein_trace(md) < 1e-12


def test_trace_vs_ricci_cross_check():
    # the endomorphism trace of the background-curvature block must equal
    # minus the metric trace of the Ricci tensor; at the non-real point H
    # is not symmetric, so the pairing of the form indices shows
    for potential, pt in (
        (FS1, [0.0]),
        (FS2, [0.3, 0.1]),
        (POLY2, [0.2 - 0.15j, 0.25 + 0.1j]),
    ):
        md = metric_at(potential, pt)
        tr = trace_endomorphism(md)
        g_trace_ricci = complex(np.einsum("dc,cd->", md.g_inv, md.ricci))
        assert np.trace(tr) == pytest.approx(-g_trace_ricci, abs=1e-9)


def test_trace_value_log_potential():
    md = metric_at(FS1, [0.0])
    tr = trace_endomorphism(md)
    assert tr[0, 0] == pytest.approx(2.0)  # minus the Ricci value -2


def test_ricci_via_connection_agrees():
    point = [0.2 - 0.15j, 0.25 + 0.1j]
    md = metric_at(POLY2, point)
    assert np.max(np.abs(ricci_via_connection(md, jet_partials(POLY2, point)) - md.ricci)) < 1e-11


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_metric_algebra_is_commutative_and_compatible_by_construction(dim):
    """The verdict has no commutator or form-compatibility check because
    both are exact zeros on the Christoffel algebra; if the construction
    changes, this fails and those checks must come back."""
    rng = np.random.default_rng(600 + dim)
    for _ in range(4):
        potential = random_polynomial_potential(rng, dim)
        points = [0.3 * (rng.uniform(-1, 1, dim) + 1j * rng.uniform(-1, 1, dim))
                  for _ in range(6)]
        md, failures = metric_batch(potential, points)
        assert not failures
        hol = fiber_algebra_from_metric(md)
        assert np.all(commutator(hol) == 0.0)
        # the fiber form: the metric's pure-index block, which is zero
        assert np.all(frobenius_compat(hol, np.zeros_like(md.g)) == 0.0)
        # a nonzero algebra: the zeros are not those of a vanishing C
        assert np.max(np.abs(hol)) > 0


CURVED3 = parse(
    "log(1 + z1*zbar1 + 2*z2*zbar2 + z3*zbar3) + 0.1*(z1*zbar1)^2"
    " + 0.05*re(z1^2*zbar3^2)",
    3,
)
CURVED3_POINTS = [
    np.array([0.2 + 0.1j, -0.3, 0.1j]),
    np.array([-0.25, 0.15 - 0.2j, 0.3]),
    np.array([0.05j, 0.35, -0.2 + 0.1j]),
]


def test_pencil_grid_matches_loop_oracle():
    # a grid that is not all powers of two: the scaled norms must not rely
    # on exact scaling of a single evaluation
    grid = (-1.7, 0.3, 2.5)
    md, failures = metric_batch(CURVED3, CURVED3_POINTS)
    assert failures == {}
    pencil = pencil_curvature(md)
    assert pencil.associator.shape == pencil.mixed_norm.shape == pencil.einstein_defect.shape == (3,)
    for k, point in enumerate(CURVED3_POINTS):
        single = metric_at(CURVED3, point)
        dgam, dgam_bar = einsum_christoffel_derivatives(single, jet_partials(CURVED3, point))
        for lam in grid:
            curvature, trace = brute_pencil(
                single.christoffel, dgam, dgam_bar, single.g_inv, lam
            )
            assert curvature > 0.1 and trace > 0.1
            curvature_norm, trace_norm = _norms(pencil, lam)
            assert curvature_norm[k] == pytest.approx(curvature, rel=1e-12)
            assert trace_norm[k] == pytest.approx(trace, rel=1e-12)


def test_pencil_grid_equals_one_point_one_lambda():
    grid = (-1.7, 0.3, 2.5)
    md, _ = metric_batch(CURVED3, CURVED3_POINTS)
    pencil = pencil_curvature(md)
    for lam in grid:
        f_hol, f_mix = pencil_curvature_form(md, lam)
        assert f_hol.shape == f_mix.shape == (3, 3, 3, 3, 3)
        curvature, trace = _norms(pencil, lam)
        for k, point in enumerate(CURVED3_POINTS):
            single = metric_at(CURVED3, point)
            one = pencil_curvature(single)
            assert curvature[k] == _norms(one, lam)[0]
            assert trace[k] == _norms(one, lam)[1]
            assert pencil.einstein_defect[k] == hermitian_einstein_trace(single)
            one_hol, one_mix = pencil_curvature_form(single, lam)
            assert np.array_equal(f_hol[k], one_hol)
            assert np.array_equal(f_mix[k], one_mix)


def test_batched_algebra_checks_equal_one_point():
    md, _ = metric_batch(CURVED3, CURVED3_POINTS)
    hol = fiber_algebra_from_metric(md)
    units = find_unit(hol)
    assert len(units) == len(CURVED3_POINTS)
    for k, point in enumerate(CURVED3_POINTS):
        one = fiber_algebra_from_metric(metric_at(CURVED3, point))
        assert commutator(hol)[k] == commutator(one)
        assert associator(hol)[k] == associator(one)
        zero = np.zeros((3, 3))
        assert frobenius_compat(hol, zero)[k] == frobenius_compat(one, zero)
        unit = find_unit(one)
        assert (units[k] is None) == (unit is None)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", [5, 17])
def test_pencil_and_associator_match_the_einsum_formulas(dim, seed):
    grid = (-1.7, 0.5, 2.0)
    for md, partials in curved_bundles(dim, seed):
        dgam, dgam_bar = einsum_christoffel_derivatives(md, partials)
        antisym = np.einsum("...ckdj->...cdkj", dgam) - np.einsum("...dkcj->...cdkj", dgam)
        mix = np.einsum("...dkcj->...cdkj", dgam_bar)
        comm = einsum_pencil_comm(md.christoffel)
        # the two identities the pencil's blocks rest on: no (2,0) curvature,
        # and dbar_d Gamma^k_{cj} = sum_b R[j][b][c][d] H[b][k]
        assert_close(antisym, -comm)
        assert_close(mix, np.einsum("...jbcd,...bk->...cdkj", md.curvature, md.g_inv))
        assert_close(multiplication_commutator(md.christoffel), comm)
        assert_close(-pencil_curvature_form(md, 1.0)[1], mix)
        pencil = pencil_curvature(md)
        assert np.shape(pencil.mixed_norm) == np.shape(pencil.einstein_defect) == md.g.shape[:-2]
        for lam in grid:
            f_hol, f_mix = lam * antisym + lam * lam * comm, -lam * mix
            for got, expected in zip(pencil_curvature_form(md, lam), (f_hol, f_mix)):
                assert_close(got, expected)
            assert_close(_norms(pencil, lam)[0], np.maximum(worst(f_hol, 4), worst(f_mix, 4)))
        left, right = einsum_associator_sides(md.christoffel)
        residual = associator(fiber_algebra_from_metric(md))
        # the verdict's associator and the pencil's lambda^2 block are one number
        assert np.array_equal(residual, worst(multiplication_commutator(md.christoffel), 4))
        assert np.array_equal(pencil.associator, residual)
        assert np.shape(residual) == md.g.shape[:-2]
        scale = np.max(np.abs(left)) + np.max(np.abs(right))
        assert np.all(np.abs(residual - worst(left - right, 4)) <= 1e-13 * scale)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", [5, 17])
def test_trace_norm_is_the_defect_at_one_scaled_by_lambda(dim, seed):
    # scaling by a power of two commutes with rounding, so on such grids
    # |lam| * defect(1) is the per-lambda defect bit for bit
    def trace_norms(md, grid):
        pencil = pencil_curvature(md)
        return np.stack([_norms(pencil, lam)[1] for lam in grid], axis=-1)

    for md, _ in curved_bundles(dim, seed):
        for grid in ((-1.0, -0.5, 0.5, 1.0, 2.0), (-4.0, 0.125, 8.0)):
            assert np.array_equal(trace_norms(md, grid), per_lambda_einstein_trace(md, grid))
        # elsewhere the two round -lam * (Ric H)^T differently before the
        # defect's cancellation: they agree to round-off of the entries,
        # not of the defect, which can be far smaller than they are
        grid = (-1.7, 0.3, 2.5)
        expected = per_lambda_einstein_trace(md, grid)
        # a 1x1 trace is its own mean: the defect is zero at dim 1
        assert np.all(expected > 0) or dim == 1
        scale = np.multiply.outer(worst(md.ricci @ md.g_inv, 2), np.abs(grid))
        got = trace_norms(md, grid)
        assert np.all(np.abs(got - expected) <= 1e-15 * scale)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_per_lambda_table_rebuilt_from_the_report_fields(dim):
    """The pencil at each lambda, rebuilt from the three per-sample norms
    a report row writes, is the pencil the loop oracle forms at that
    lambda, and its trace the per-lambda Einstein defect: the three
    coefficients decide the pencil at every lambda."""
    md, partials = curved_bundles(dim, 29)[0]
    dgam, dgam_bar = einsum_christoffel_derivatives(md, partials)
    pencil = pencil_curvature(md)
    fields = ("associator", "mixed_norm", "einstein_defect")
    rows = [types.SimpleNamespace(**dict(zip(fields, values)))
            for values in zip(*(getattr(pencil, f).tolist() for f in fields))]
    for grid in ((-1.0, -0.5, 0.5, 1.0, 2.0), (-1.7, 0.3, 2.5, 1e-3, 7.1)):
        tables = [[_norms(row, lam) for lam in grid] for row in rows]
        for k, table in enumerate(tables):
            for lam, (curvature_norm, trace_norm) in zip(grid, table):
                curvature, trace = brute_pencil(
                    md.christoffel[k], dgam[k], dgam_bar[k], md.g_inv[k], lam
                )
                assert curvature_norm == pytest.approx(curvature, rel=1e-12)
                assert trace_norm == pytest.approx(trace, rel=1e-12, abs=1e-15)
        got = np.array([[trace_norm for _, trace_norm in table] for table in tables])
        expected = per_lambda_einstein_trace(md, grid)
        if all(math.frexp(abs(lam))[0] == 0.5 for lam in grid):
            # a power of two scales without rounding: bit for bit
            assert np.array_equal(got, expected)
        else:
            scale = np.multiply.outer(worst(md.ricci @ md.g_inv, 2), np.abs(grid))
            assert np.all(np.abs(got - expected) <= 1e-15 * scale)
