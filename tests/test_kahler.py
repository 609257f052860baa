import dataclasses
import re

import numpy as np
import pytest
from helpers import (
    assert_close,
    curved_bundles,
    einsum_christoffel_derivatives,
    einsum_metric_tensors,
    einsum_wdvv_sides,
    fd_curvature,
    fd_wdvv_residual,
    jet_partials,
    svd_spectrum,
)

from frobenius_verify.expr import (
    Const,
    ConjVar,
    PotentialExpr,
    Product,
    Sum,
    Var,
    parse,
)
from frobenius_verify.cli import _sample_columns, _sample_records
from frobenius_verify.expr import LogDomainError
from frobenius_verify.kahler import (
    DEGENERACY_FLOOR,
    DegenerateMetricError,
    MetricData,
    christoffel_derivatives,
    kahler_residuals,
    metric_at,
    metric_batch,
    ricci_c1_check,
    wdvv_residual_at,
    worst,
)
from frobenius_verify.wirtinger import Jet, _table

FLAT2 = parse("z1*zbar1 + z2*zbar2", 2)
FS1 = parse("log(1 + z1*zbar1)", 1)
FS2 = parse("log(1 + z1*zbar1 + z2*zbar2)", 2)
QUARTIC1 = parse("z1*zbar1 + 0.25*(z1*zbar1)^2", 1)


def test_flat_torus_tensors_vanish():
    for point in ([0.0, 0.0], [0.3 - 0.2j, -0.1 + 0.4j]):
        md = metric_at(FLAT2, point)
        assert np.allclose(md.g, np.eye(2))
        assert np.max(np.abs(md.christoffel)) == 0.0
        assert np.max(np.abs(md.curvature)) == 0.0
        assert np.max(np.abs(md.ricci)) == 0.0


def test_fubini_study_curvature_value():
    md = metric_at(FS1, [0.0])
    assert md.g[0, 0] == pytest.approx(1.0)
    # sign convention: second-derivative term enters with +; value frozen
    # after agreement with the finite-difference pipeline below
    assert md.curvature[0, 0, 0, 0] == pytest.approx(-2.0)
    fd = fd_curvature(FS1, [0.0])
    assert fd[0, 0, 0, 0] == pytest.approx(-2.0, abs=1e-6)


def test_quartic_curvature_value():
    md = metric_at(QUARTIC1, [0.0])
    assert md.g[0, 0] == pytest.approx(1.0)
    assert md.curvature[0, 0, 0, 0] == pytest.approx(1.0)


def test_kahler_residuals_zero_for_derived_bundle():
    point = [0.2 + 0.1j, -0.3]
    md = metric_at(FS2, point)
    r1, r2 = kahler_residuals(md, jet_partials(FS2, point))
    assert r1 < 1e-12
    assert r2 < 1e-12


def test_kahler_residuals_flat_exactly_zero():
    md = metric_at(FLAT2, [0.1, 0.2])
    assert kahler_residuals(md, jet_partials(FLAT2, [0.1, 0.2])) == (0.0, 0.0)


def test_kahler_residuals_detect_corruption():
    md = metric_at(FS2, [0.2, 0.1])
    g_bad = md.g.copy()
    g_bad[0, 1] += 1e-3
    corrupted = dataclasses.replace(md, g=g_bad)
    r1, _ = kahler_residuals(corrupted, jet_partials(FS2, [0.2, 0.1]))
    assert r1 >= 1e-3


def test_wdvv_flat_torus():
    for n, text in ((1, "z1*zbar1"), (2, "z1*zbar1 + z2*zbar2"),
                    (3, "z1*zbar1 + z2*zbar2 + z3*zbar3")):
        md = metric_at(parse(text, n), [0.1 * (k + 1) for k in range(n)])
        assert wdvv_residual_at(md) < 1e-10


def test_wdvv_one_dimensional_collapse():
    for text in ("log(1 + z1*zbar1)", "z1*zbar1 + 0.25*(z1*zbar1)^2",
                 "exp(0.3*z1*zbar1)"):
        md = metric_at(parse(text, 1), [0.35 - 0.2j])
        assert wdvv_residual_at(md) < 1e-12


def test_wdvv_fubini_study_violation():
    md = metric_at(FS2, [0.3, 0.1])
    value = wdvv_residual_at(md)
    assert value > 0.01
    # golden value frozen after agreement with the metric-difference oracle
    assert value == pytest.approx(0.0758076634, abs=1e-8)
    oracle = fd_wdvv_residual(FS2, [0.3, 0.1])
    assert value == pytest.approx(oracle, rel=1e-4)


def test_ricci_c1_flat():
    md = metric_at(FLAT2, [0.05, -0.1])
    herm, max_ricci = ricci_c1_check(md)
    assert herm < 1e-12
    assert max_ricci < 1e-12


def test_ricci_value_log_potential():
    md = metric_at(FS1, [0.0])
    _, max_ricci = ricci_c1_check(md)
    assert max_ricci == pytest.approx(2.0)
    assert md.ricci[0, 0] == pytest.approx(-2.0)


def test_einstein_proportionality_probe():
    rng = np.random.default_rng(17)
    ratios = []
    for _ in range(20):
        z = rng.uniform(-0.5, 0.5) + 1j * rng.uniform(-0.5, 0.5)
        md = metric_at(FS1, [z])
        ratios.append(md.ricci[0, 0] / md.g[0, 0])
    ratios = np.array(ratios)
    assert np.max(np.abs(ratios - ratios[0])) < 1e-6


def test_hermiticity_everywhere():
    rng = np.random.default_rng(3)
    for _ in range(10):
        z = rng.uniform(-0.4, 0.4, 2) + 1j * rng.uniform(-0.4, 0.4, 2)
        md = metric_at(FS2, z)
        assert np.max(np.abs(md.g - np.conj(md.g.T))) < 1e-12
        assert np.max(np.abs(md.ricci - np.conj(md.ricci.T))) < 1e-12


def _rotate_potential(expr: PotentialExpr, u: np.ndarray) -> PotentialExpr:
    """Substitute z -> U z for a real matrix U (builds the composed AST)."""
    n = expr.dim

    def linear(node_cls, a):
        terms = tuple(
            Product((Const(float(u[a, b])), node_cls(b))) for b in range(n)
        )
        return Sum(terms, (1,) * n) if n > 1 else terms[0]

    zsubs = [linear(Var, a) for a in range(n)]
    zbsubs = [linear(ConjVar, a) for a in range(n)]

    from frobenius_verify.expr import Exp, Im, Log, Power, Re

    def sub(node):
        if isinstance(node, Var):
            return zsubs[node.axis]
        if isinstance(node, ConjVar):
            return zbsubs[node.axis]
        if isinstance(node, Sum):
            return Sum(tuple(sub(t) for t in node.terms), node.signs)
        if isinstance(node, Product):
            return Product(tuple(sub(f) for f in node.factors))
        if isinstance(node, Power):
            return Power(sub(node.base), node.exponent)
        if isinstance(node, Exp):
            return Exp(sub(node.arg))
        if isinstance(node, Log):
            return Log(sub(node.arg))
        if isinstance(node, Re):
            return Re(sub(node.arg))
        if isinstance(node, Im):
            return Im(sub(node.arg))
        return node

    return PotentialExpr(sub(expr.root), n)


@pytest.mark.parametrize(
    "text",
    ["z1*zbar1 + z2*zbar2", "z1*zbar1 + z2*zbar2 + 0.25*(z1*zbar1)^2"],
)
def test_unitary_chart_change_preserves_status(text):
    expr = parse(text, 2)
    theta = 0.37
    u = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    rotated = _rotate_potential(expr, u)
    tol = 1e-9
    rng = np.random.default_rng(23)
    for _ in range(5):
        p = rng.uniform(-0.3, 0.3, 2) + 1j * rng.uniform(-0.3, 0.3, 2)
        md_rot = metric_at(rotated, p)
        md_orig = metric_at(expr, u @ p)
        flat_rot = np.max(np.abs(md_rot.curvature)) < tol
        flat_orig = np.max(np.abs(md_orig.curvature)) < tol
        assert flat_rot == flat_orig
        wdvv_rot = wdvv_residual_at(md_rot) < tol
        wdvv_orig = wdvv_residual_at(md_orig) < tol
        assert wdvv_rot == wdvv_orig


def test_degenerate_metric_rejected():
    quartic = parse("(z1*zbar1)^2", 1)
    with pytest.raises(DegenerateMetricError):
        metric_at(quartic, [0.0])


def _assert_spectrum_columns(md, g):
    smin, smax, positive = svd_spectrum(g)
    np.testing.assert_allclose(md.min_singular, smin, rtol=1e-14, atol=0)
    np.testing.assert_allclose(md.cond, smax / smin, rtol=1e-14, atol=0)
    assert np.array_equal(md.positive_definite, positive)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_spectrum_columns_match_the_svd_oracle(dim):
    for md, _ in curved_bundles(dim, 23):
        _assert_spectrum_columns(md, md.g)


# constant metrics: indefinite, singular, and one on each side of the floor
@pytest.mark.parametrize("text, g", [
    ("z1*zbar1 - z2*zbar2 + 0.1*(z1*zbar2 + z2*zbar1)", [[1, 0.1], [0.1, -1]]),
    ("z1*zbar1", [[1, 0], [0, 0]]),
    ("z1*zbar1 + 5e-9*z2*zbar2", [[1, 0], [0, 5e-9]]),
    ("z1*zbar1 + 2e-8*z2*zbar2", [[1, 0], [0, 2e-8]]),
])
def test_degenerate_set_matches_the_svd_oracle(text, g):
    rng = np.random.default_rng(31)
    points = rng.uniform(-0.4, 0.4, (5, 2)) + 1j * rng.uniform(-0.4, 0.4, (5, 2))
    md, failures = metric_batch(parse(text, 2), points)
    g = np.array(g, dtype=complex)
    smin, smax, _ = svd_spectrum(g)
    if smin <= DEGENERACY_FLOOR * smax:
        message = f"metric degenerate at point (min singular {smin:.3e}, max {smax:.3e})"
        assert {i: (type(e), str(e)) for i, e in failures.items()} == {
            i: (DegenerateMetricError, message) for i in range(len(points))
        }
        assert md.g.shape == (0, 2, 2)
    else:
        assert failures == {}
        assert np.array_equal(md.g, np.broadcast_to(g, md.g.shape))
        _assert_spectrum_columns(md, md.g)


def test_one_pass_builds_no_dense_table(monkeypatch):
    """The realness test and the partials read the root jet's support
    rows, so a pass never builds the whole jet table."""
    calls = []
    dense = Jet.dense

    def counting(self):
        calls.append(self.coeffs.shape)
        return dense(self)

    monkeypatch.setattr(Jet, "dense", counting)
    rng = np.random.default_rng(37)
    points = rng.uniform(-0.4, 0.4, (6, 2)) + 1j * rng.uniform(-0.4, 0.4, (6, 2))
    md, failures = metric_batch(FS2, points)
    assert not failures and len(md.g) == 6
    assert calls == []


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_support_row_gathers_are_the_dense_table_gathers(dim, monkeypatch):
    """metric_batch reads g, phi3 and ddbar from the root jet's support rows
    and one zero column; each block equals its gather from the dense table
    (``jet.dense().T * fact``) bit for bit, on random real jets whose
    supports miss some of a block's entries, or all of them."""
    from frobenius_verify import kahler

    t = _table(dim)
    size = len(t.entries)
    rng = np.random.default_rng(80 + dim)
    diag = t.g_idx[np.arange(dim), np.arange(dim)]
    blocks = {2: t.g_idx, 3: t.phi3_idx, 4: t.ddbar_idx}
    missed, flat = set(), 0
    take = np.take
    for density in (0.0, 0.05, 0.2, 0.5, 1.0) * 2:
        mask = rng.random(size) < density
        mask[0] = mask[diag] = True  # a nondegenerate metric
        mask |= mask[t.conj_perm]  # a real potential's support
        c = rng.normal(size=(size, 5)) + 1j * rng.normal(size=(size, 5))
        c[diag] += 3 * dim
        c = (c + np.conj(c[t.conj_perm])) / 2
        c[~mask] = 0.0
        jet = Jet(dim, c[mask], sum(1 << int(k) for k in np.flatnonzero(mask)))
        gathered = []

        def recording(a, indices, axis=None):
            gathered.append(take(a, indices, axis=axis))
            return gathered[-1]

        with monkeypatch.context() as m:
            m.setattr(kahler, "jet_eval", lambda *args: jet)
            m.setattr(np, "take", recording)
            md, failures = metric_batch(parse(" + ".join(
                f"z{a}*zbar{a}" for a in range(1, dim + 1)), dim), np.zeros((5, dim)))
        assert failures == {}
        dense = jet.dense().T * t.fact
        want = {rank: take(dense, idx, axis=-1) for rank, idx in blocks.items()}
        both = md.zero == {"phi3", "ddbar"}
        assert sorted(got.ndim - 1 for got in gathered) == ([2] if both else [2, 3, 4])
        for got in gathered:
            assert got.tobytes() == want[got.ndim - 1].tobytes()
        assert md.g.tobytes() == want[2].tobytes() and md.phi3.tobytes() == want[3].tobytes()
        missed |= {rank for rank, idx in blocks.items() if not mask[idx].all()}
        flat += both
    assert missed == ({3, 4} if dim == 1 else {2, 3, 4}) and 0 < flat < 10


def test_fd_oracle_on_curvature_entries():
    rng = np.random.default_rng(29)
    for _ in range(3):
        z = rng.uniform(-0.3, 0.3, 2) + 1j * rng.uniform(-0.3, 0.3, 2)
        md = metric_at(FS2, z)
        fd = fd_curvature(FS2, z)
        scale = max(1.0, float(np.max(np.abs(md.curvature))))
        assert np.max(np.abs(fd - md.curvature)) <= 1e-4 * scale


def test_ricci_equals_fiber_trace_of_dbar_gamma():
    for text, n, pt in (
        ("log(1 + z1*zbar1 + z2*zbar2)", 2, [0.3, 0.1 - 0.2j]),
        ("z1*zbar1 + 0.25*(z1*zbar1)^2", 1, [0.45]),
    ):
        potential = parse(text, n)
        md = metric_at(potential, pt)
        _, dgam_bar = einsum_christoffel_derivatives(md, jet_partials(potential, pt))
        fiber_trace = np.einsum("daca->cd", dgam_bar)
        assert np.max(np.abs(fiber_trace - md.ricci)) < 1e-11


# degenerate metric on z1 = 0, log-domain failure at z1 = 0.5, curved elsewhere
MIXED2 = parse(
    "(z1*zbar1)^2 + z2*zbar2 + 0.1*(z2*zbar2)^2 + log((z1 - 0.5)*(zbar1 - 0.5))", 2
)
MIXED_POINTS = [
    np.array([0.2 + 0.1j, 0.3]),
    np.array([0.5, 0.1]),
    np.array([0.0, 0.2]),
    np.array([-0.3j, 0.1 + 0.2j]),
    np.array([0.25, -0.1j]),
]
# messages the one-point pipeline raises at indices 1 and 2
MIXED_ERRORS = {
    1: (LogDomainError, "log argument modulus 0.0 below floor"),
    2: (
        DegenerateMetricError,
        "metric degenerate at point (min singular 0.000e+00, max 1.016e+00)",
    ),
}


def test_mixed_batch_matches_one_point_results():
    md, failures = metric_batch(MIXED2, MIXED_POINTS)
    assert {i: (type(e), str(e)) for i, e in failures.items()} == MIXED_ERRORS
    good = [i for i in range(len(MIXED_POINTS)) if i not in failures]
    assert md.g.shape == (len(good), 2, 2)
    partials = jet_partials(MIXED2, [MIXED_POINTS[i] for i in good])
    for k, idx in enumerate(good):
        single = metric_at(MIXED2, MIXED_POINTS[idx])
        for f in dataclasses.fields(MetricData):
            assert np.array_equal(getattr(md[k], f.name), getattr(single, f.name)), f.name
        one = jet_partials(MIXED2, MIXED_POINTS[idx])
        assert np.array_equal(
            christoffel_derivatives(md, partials)[k], christoffel_derivatives(single, one)
        )
        residuals = kahler_residuals(single, one)
        assert kahler_residuals(md, partials)[0][k] == residuals[0]
        assert wdvv_residual_at(md)[k] == wdvv_residual_at(single)
        assert ricci_c1_check(md)[1][k] == ricci_c1_check(single)[1]
    for idx, (kind, message) in MIXED_ERRORS.items():
        with pytest.raises(kind, match=re.escape(message)):
            metric_at(MIXED2, MIXED_POINTS[idx])


def _records(points):
    points = np.array(points)
    return _sample_records(points, *_sample_columns(MIXED2, points))


def test_mixed_batch_records_keep_their_indices():
    records = _records(MIXED_POINTS)
    assert len(records) == len(MIXED_POINTS)
    for idx, rec in enumerate(records):
        assert rec["index"] == idx
        if idx in MIXED_ERRORS:
            assert rec["error"] == MIXED_ERRORS[idx][1]
        else:
            assert "error" not in rec
            assert rec == dict(_records([MIXED_POINTS[idx]])[0], index=idx)


def test_batch_with_no_good_sample():
    bad = [MIXED_POINTS[1], MIXED_POINTS[2]]
    md, failures = metric_batch(MIXED2, bad)
    assert sorted(failures) == [0, 1]
    assert md.g.shape == (0, 2, 2)
    records = _records(bad)
    assert [rec["error"] for rec in records] == [MIXED_ERRORS[1][1], MIXED_ERRORS[2][1]]


@pytest.mark.parametrize("potential", [FS2, FLAT2], ids=["log", "polynomial"])
def test_batch_of_zero_samples_is_an_empty_bundle(potential):
    """A log potential takes each sample's log in Python; with no sample
    there is nothing to take, and the bundle is as empty as a polynomial's."""
    md, failures = metric_batch(potential, np.zeros((0, 2)))
    assert failures == {}
    assert md.g.shape == (0, 2, 2)
    assert md.curvature.shape == (0, 2, 2, 2, 2)
    assert md.positive_definite.shape == (0,)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", [5, 17])
def test_pairwise_contractions_match_the_einsum_formulas(dim, seed):
    for md, partials in curved_bundles(dim, seed):
        ddbar = np.take(partials, _table(dim).ddbar_idx, axis=-1)
        christoffel, curvature = einsum_metric_tensors(md.phi3, md.g_inv, ddbar)
        assert_close(md.christoffel, christoffel)
        assert_close(md.curvature, curvature)
        lhs, rhs = einsum_wdvv_sides(md.phi3, md.g_inv)
        scale = np.max(np.abs(lhs)) + np.max(np.abs(rhs))
        assert np.shape(wdvv_residual_at(md)) == md.g.shape[:-2]
        assert np.all(np.abs(wdvv_residual_at(md) - worst(lhs - rhs, 4)) <= 1e-13 * scale)
        dgam, _ = einsum_christoffel_derivatives(md, partials)
        assert_close(christoffel_derivatives(md, partials), dgam)
