import numpy as np
import pytest
from helpers import brute_associator, brute_compat, brute_pencil, random_polynomial_potential

from frobenius_verify.expr import parse
from frobenius_verify.frobenius import (
    FiberAlgebra,
    associator,
    commutator,
    fiber_algebra_from_metric,
    find_unit,
    frobenius_compat,
    hermitian_einstein_trace,
    pencil_curvature,
    pencil_curvature_form,
    ricci_via_connection,
    trace_endomorphism,
)
from frobenius_verify.kahler import christoffel_derivatives, metric_at, metric_batch

FLAT2 = parse("z1*zbar1 + z2*zbar2", 2)
FS1 = parse("log(1 + z1*zbar1)", 1)
FS2 = parse("log(1 + z1*zbar1 + z2*zbar2)", 2)
QUARTIC1 = parse("z1*zbar1 + 0.25*(z1*zbar1)^2", 1)
POLY2 = parse(
    "z1*zbar1 + z2*zbar2 + 0.1*(z1*zbar1)^2 + 0.05*re(z1^2*zbar2^2)", 2
)


def _alg(dim, entries, form=None):
    C = np.zeros((dim, dim, dim), dtype=np.complex128)
    for (k, i, j), v in entries.items():
        C[k, i, j] = v
    if form is None:
        form = np.zeros((dim, dim))
    return FiberAlgebra(dim, C, form)


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
    golden = brute_associator(alg.C)
    assert golden == 0.0
    assert associator(alg) == pytest.approx(golden, abs=1e-14)


def test_associator_random_matches_brute_force():
    rng = np.random.default_rng(31)
    for _ in range(5):
        raw = rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))
        C = raw + np.transpose(raw, (0, 2, 1))  # commutative, generic
        alg = FiberAlgebra(2, C, np.zeros((2, 2)))
        golden = brute_associator(C)
        assert golden > 1e-3
        assert associator(alg) == pytest.approx(golden, rel=1e-12)


def test_frobenius_compat_zero_algebra():
    rng = np.random.default_rng(4)
    form = rng.normal(size=(3, 3))
    form = form + form.T
    alg = FiberAlgebra(3, np.zeros((3, 3, 3), dtype=complex), form)
    assert frobenius_compat(alg) == 0.0


def test_frobenius_compat_group_algebra_z2():
    # regular form <g, h> = [gh = identity]
    entries = {(0, 0, 0): 1.0, (1, 0, 1): 1.0, (1, 1, 0): 1.0, (0, 1, 1): 1.0}
    form = np.eye(2)
    alg = _alg(2, entries, form)
    assert frobenius_compat(alg) == pytest.approx(brute_compat(alg.C, form), abs=1e-14)
    assert frobenius_compat(alg) < 1e-14


def test_frobenius_compat_broken_fixture():
    entries = {(0, 0, 0): 1.0, (1, 0, 1): 1.0, (1, 1, 0): 1.0, (0, 1, 1): 1.0}
    form = np.array([[1.0, 0.0], [0.0, 1.0 + 1e-2]])
    alg = _alg(2, entries, form)
    assert frobenius_compat(alg) >= 1e-2


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


def test_fiber_algebra_flat_is_zero():
    md = metric_at(FLAT2, [0.3, -0.2 + 0.1j])
    hol = fiber_algebra_from_metric(md)
    assert np.max(np.abs(hol.C)) == 0.0
    assert find_unit(hol) is None


def test_fiber_algebra_scalar_structure_constant():
    # g = 1 + z zbar, Gamma = (dg/dz) / g = zbar / (1 + z zbar)
    md = metric_at(QUARTIC1, [0.5])
    hol = fiber_algebra_from_metric(md)
    assert hol.C[0, 0, 0] == pytest.approx(0.5 / 1.25)


def test_pencil_flat_torus():
    md = metric_at(FLAT2, [0.2, -0.3])
    for lam in (-1.0, 0.5, 1.0, 2.0):
        sample = pencil_curvature(md, lam)
        assert sample.curvature_norm < 1e-10
        assert sample.trace_norm < 1e-10


def test_pencil_lambda_zero_any_metric():
    md = metric_at(FS2, [0.3, 0.1])
    assert pencil_curvature(md, 0.0).curvature_norm == 0.0


def test_pencil_quadratic_in_lambda():
    md = metric_at(POLY2, [0.3 + 0.05j, -0.2 + 0.1j])
    forms = {lam: pencil_curvature_form(md, lam) for lam in (1.0, 2.0, 3.0, 4.0)}
    for block in (0, 1):
        # Lagrange weights for extrapolating a quadratic from 1,2,3 to 4
        predicted = (
            forms[1.0][block] - 3.0 * forms[2.0][block] + 3.0 * forms[3.0][block]
        )
        assert np.max(np.abs(predicted - forms[4.0][block])) < 1e-8


def test_hermitian_einstein_flat():
    md = metric_at(FLAT2, [0.1, 0.4])
    for lam in (-1.0, 0.5, 1.0, 2.0):
        assert hermitian_einstein_trace(md, lam) < 1e-12


def test_trace_vs_ricci_cross_check():
    # the endomorphism trace of the background-curvature block must equal
    # minus the metric trace of the Ricci tensor
    for text, n, pt in (
        ("log(1 + z1*zbar1)", 1, [0.0]),
        ("log(1 + z1*zbar1 + z2*zbar2)", 2, [0.3, 0.1]),
    ):
        md = metric_at(parse(text, n), pt)
        tr = trace_endomorphism(md, 1.0)
        g_trace_ricci = complex(np.einsum("dc,cd->", md.g_inv, md.ricci))
        assert np.trace(tr) == pytest.approx(-g_trace_ricci, abs=1e-9)


def test_trace_value_log_potential():
    md = metric_at(FS1, [0.0])
    tr = trace_endomorphism(md, 1.0)
    assert tr[0, 0] == pytest.approx(2.0)  # minus the Ricci value -2


def test_ricci_via_connection_agrees():
    md = metric_at(POLY2, [0.2 - 0.15j, 0.25 + 0.1j])
    assert np.max(np.abs(ricci_via_connection(md) - md.ricci)) < 1e-11


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
        assert np.all(frobenius_compat(hol) == 0.0)
        # a nonzero algebra: the zeros are not those of a vanishing C
        assert np.max(np.abs(hol.C)) > 0


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
    # a grid that is not all powers of two: the broadcast must not rely on
    # exact scaling of a single evaluation
    grid = (-1.7, 0.3, 2.5)
    md, failures = metric_batch(CURVED3, CURVED3_POINTS)
    assert failures == {}
    table = pencil_curvature(md, grid)
    assert table.curvature_norm.shape == table.trace_norm.shape == (3, 3)
    for k, point in enumerate(CURVED3_POINTS):
        single = metric_at(CURVED3, point)
        dgam, dgam_bar = christoffel_derivatives(single)
        for j, lam in enumerate(grid):
            curvature, trace = brute_pencil(
                single.christoffel, dgam, dgam_bar, single.g_inv, lam
            )
            assert curvature > 0.1 and trace > 0.1
            assert table.curvature_norm[k, j] == pytest.approx(curvature, rel=1e-12)
            assert table.trace_norm[k, j] == pytest.approx(trace, rel=1e-12)


def test_pencil_grid_equals_one_point_one_lambda():
    grid = (-1.7, 0.3, 2.5)
    md, _ = metric_batch(CURVED3, CURVED3_POINTS)
    table = pencil_curvature(md, grid)
    f_hol, f_mix = pencil_curvature_form(md, grid)
    assert f_hol.shape == f_mix.shape == (3, 3, 3, 3, 3, 3)
    for k, point in enumerate(CURVED3_POINTS):
        single = metric_at(CURVED3, point)
        for j, lam in enumerate(grid):
            one = pencil_curvature(single, lam)
            assert table.curvature_norm[k, j] == one.curvature_norm
            assert table.trace_norm[k, j] == one.trace_norm
            assert table.trace_norm[k, j] == hermitian_einstein_trace(single, lam)
            one_hol, one_mix = pencil_curvature_form(single, lam)
            assert np.array_equal(f_hol[k, j], one_hol)
            assert np.array_equal(f_mix[k, j], one_mix)


def test_batched_algebra_checks_equal_one_point():
    md, _ = metric_batch(CURVED3, CURVED3_POINTS)
    hol = fiber_algebra_from_metric(md)
    units = find_unit(hol)
    assert len(units) == len(CURVED3_POINTS)
    for k, point in enumerate(CURVED3_POINTS):
        one = fiber_algebra_from_metric(metric_at(CURVED3, point))
        assert commutator(hol)[k] == commutator(one)
        assert associator(hol)[k] == associator(one)
        assert frobenius_compat(hol)[k] == frobenius_compat(one)
        unit = find_unit(one)
        assert (units[k] is None) == (unit is None)
