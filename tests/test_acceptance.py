"""Acceptance battery.

Each test covers one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line.  Per-sample residual triples from the
verification sweeps are accumulated so the equivalence probe
(criterion 6) scans the whole corpus.
"""

import time

import numpy as np
import pytest
from helpers import (
    fd_curvature,
    flat_torus_entry,
    hopf_affine_condition,
    jet_partials,
    random_polynomial_potential,
    ricci_via_connection,
    sample_rows,
)

from frobenius_verify.catalog import (
    AffineMap,
    CatalogEntry,
    GroupAction,
    classification_counts,
    contains_translations,
    hyperelliptic_catalog,
    is_free,
    isometry_defect,
    negative_controls,
    square_lattice,
    validate_group,
)
from frobenius_verify.cli import Config, run_catalog, run_verify, to_json
from frobenius_verify.expr import parse
from frobenius_verify.frobenius import hermitian_einstein_trace, pencil_curvature_form
from frobenius_verify.kahler import metric_at
from frobenius_verify.theta import (
    level_space_dimension,
    quasi_periodicity_residual,
    RiemannThetaSpec,
    riemann_type_of,
    multiply_types,
    eval_riemann_theta,
)

TOL = 1e-9
# pencil parameters at which criterion 09 reads the Einstein trace
LAMBDA_GRID = (-1.0, -0.5, 0.5, 1.0, 2.0)
CONFIG = Config(samples=64)

# (max_curvature, wdvv, associator) triples from every verification sweep
CORPUS: list[tuple[float, float, float]] = []


def _announce(num: int, name: str, ok: bool) -> None:
    print(f"\nACCEPTANCE {num:02d} [{name}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def _flat_suite_ok(report) -> bool:
    for sample in sample_rows(report):
        if "error" in sample:
            return False
        CORPUS.append(
            (sample["max_curvature"], sample["wdvv"], sample["associator"])
        )
        # the pencil is flat for every lambda iff its three coefficients
        # (associator, mixed_norm, einstein_defect) vanish
        residuals = [
            sample["metric_hermiticity"],
            sample["max_curvature"],
            sample["wdvv"],
            sample["associator"],
            sample["mixed_norm"],
            sample["einstein_defect"],
        ]
        if max(residuals) >= TOL:
            return False
    return True


def test_criterion_01_flat_case_end_to_end():
    start = time.monotonic()
    ok = True
    for n in (1, 2, 3):
        report = run_verify(flat_torus_entry(n), CONFIG)
        ok = ok and report["verdict"] == "frobenius" and _flat_suite_ok(report)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10.0
    _announce(1, f"flat tori dims 1-3, 64 samples, {elapsed:.2f}s", ok)


def test_criterion_02_surface_classification():
    entries = hyperelliptic_catalog()
    ok = len(entries) == 8
    for entry in entries:
        if entry.action is not None:
            checks = validate_group(entry.action)
            free, _ = is_free(entry.action)
            ok = ok and all(checks.values()) and free
            ok = ok and not contains_translations(entry.action)
            ok = ok and isometry_defect(entry.action) < 1e-12
        verify = run_verify(entry, CONFIG)
        ok = ok and verify["verdict"] == "frobenius" and _flat_suite_ok(verify)
    _announce(2, "eight surface entries, full flat suite", ok)


def test_criterion_03_threefold_count_metadata():
    surfaces, threefolds = classification_counts()
    ok = surfaces == 8 and threefolds == 174
    ok = ok and surfaces == len(hyperelliptic_catalog())
    _announce(3, "classification counts (8, 174)", ok)


def test_criterion_04_negative_controls():
    fs = parse("log(1 + z1*zbar1 + z2*zbar2)", 2)
    report = run_verify(
        CatalogEntry(
            name="fubini-study",
            dim=2,
            potential=fs,
            lattice=None,
            action=None,
            expected_class=None,
        ),
        CONFIG,
    )
    rows = sample_rows(report)
    wdvv_max = max(s["wdvv"] for s in rows)
    curv_max = max(s["max_curvature"] for s in rows)
    for sample in rows:
        CORPUS.append(
            (sample["max_curvature"], sample["wdvv"], sample["associator"])
        )
    ok = wdvv_max > 1e-2 and curv_max > 1e-2
    ok = ok and report["verdict"] == "not-frobenius"

    hopf = hopf_affine_condition(0.5, 0.5, 0.0, 3)
    ok = ok and hopf.valid and hopf.affine and not hopf.frobenius and not hopf.kahler
    ok = ok and not hopf_affine_condition(0.5, 0.7, 1.0, 1).valid
    ok = ok and not hopf_affine_condition(0.5, 0.5, 0.5, 2).affine
    # the catalog's Hopf row carries the same flags
    hopf_row = {r["spec"]: r for r in negative_controls()}["hopf-VII0"]
    ok = ok and hopf_row["flags"] == {
        "frobenius": False,
        "kahler": False,
        "affine": True,
    }

    lattice = square_lattice(1)
    rotation = GroupAction(
        lattice,
        (AffineMap(np.eye(1), np.zeros(1)), AffineMap(-np.eye(1), np.zeros(1))),
        "z2-rotation",
    )
    free, witness = is_free(rotation)
    ok = ok and not free and witness is not None
    if witness is not None:
        el = rotation.elements[1]
        moved = el.A @ witness + el.t - witness
        ok = ok and lattice.contains(moved, tol=1e-8)
    _announce(4, "curved detector + Hopf flags + non-free witness", ok)


def test_criterion_05_curvature_oracle():
    rng = np.random.default_rng(20240605)
    ok = True
    for _ in range(5):
        potential = random_polynomial_potential(rng, dim=2)
        for _ in range(20):
            z = rng.uniform(-0.35, 0.35, 2) + 1j * rng.uniform(-0.35, 0.35, 2)
            md = metric_at(potential, z)
            fd = fd_curvature(potential, z)
            scale = max(1.0, float(np.max(np.abs(md.curvature))))
            ok = ok and float(np.max(np.abs(fd - md.curvature))) <= 1e-4 * scale
            CORPUS.append(
                (
                    float(np.max(np.abs(md.curvature))),
                    float(
                        np.max(
                            np.abs(
                                np.einsum(
                                    "abe,ef,cdf->abcd",
                                    md.phi3,
                                    md.g_inv,
                                    np.conj(md.phi3),
                                )
                                - np.einsum(
                                    "ceb,ef,fad->abcd",
                                    np.conj(md.phi3),
                                    md.g_inv,
                                    md.phi3,
                                )
                            )
                        )
                    ),
                    0.0,
                )
            )
    _announce(5, "finite-difference curvature oracle, 5 potentials x 20", ok)


def test_criterion_06_equivalence_probe():
    # add a fresh sweep so the probe is meaningful standalone
    sweep = [(flat_torus_entry(n), 16) for n in (1, 2, 3)]
    for entry, count in sweep:
        report = run_verify(entry, Config(samples=count))
        for sample in sample_rows(report):
            CORPUS.append(
                (sample["max_curvature"], sample["wdvv"], sample["associator"])
            )
    ok = len(CORPUS) > 0
    for max_r, wdvv, assoc in CORPUS:
        if max_r < TOL:
            ok = ok and wdvv < TOL and assoc < TOL
    _announce(6, f"flatness implies associativity over {len(CORPUS)} samples", ok)


def test_criterion_07_pencil_polynomiality():
    rng = np.random.default_rng(20240607)
    ok = True
    for _ in range(3):
        potential = random_polynomial_potential(rng, dim=2)
        z = rng.uniform(-0.3, 0.3, 2) + 1j * rng.uniform(-0.3, 0.3, 2)
        md = metric_at(potential, z)
        forms = {lam: pencil_curvature_form(md, lam) for lam in (1.0, 2.0, 3.0, 4.0)}
        for block in (0, 1):
            predicted = (
                forms[1.0][block]
                - 3.0 * forms[2.0][block]
                + 3.0 * forms[3.0][block]
            )
            ok = ok and float(np.max(np.abs(predicted - forms[4.0][block]))) < 1e-8
    _announce(7, "pencil curvature exactly quadratic in the parameter", ok)


def test_criterion_08_theta_suite():
    start = time.monotonic()
    rng = np.random.default_rng(20240608)
    ok = True
    for tau in (np.array([[1j]]), np.diag([1j, 2j])):
        g = tau.shape[0]
        spec = RiemannThetaSpec(tau=tau, alpha=np.zeros(g), beta=np.zeros(g))
        for gen in range(2 * g):
            for _ in range(20):
                z = rng.random(g) + 0.2j * rng.random(g)
                ok = ok and quasi_periodicity_residual(spec, z, gen, 30) < 1e-8

    # multiplicativity at g = 1
    s1 = RiemannThetaSpec(tau=[[1j]], alpha=[0.0], beta=[0.0])
    s2 = RiemannThetaSpec(tau=[[1j]], alpha=[0.5], beta=[0.0])
    t_sum = multiply_types(riemann_type_of(s1), riemann_type_of(s2))
    for gen in (0, 1):
        shift = t_sum.lattice.generators[gen]
        for _ in range(8):
            z = np.array([rng.uniform(0, 1) + 0.2j * rng.uniform(0, 1)])
            h1 = eval_riemann_theta(s1, z, 30).value
            h2 = eval_riemann_theta(s2, z, 30).value
            h1s = eval_riemann_theta(s1, z + shift, 30).value
            h2s = eval_riemann_theta(s2, z + shift, 30).value
            resid = abs(h1s * h2s - t_sum.factor(z, gen) * h1 * h2) / max(
                abs(h1 * h2), 1e-6
            )
            ok = ok and resid < 1e-7

    ok = ok and level_space_dimension(1, 2, [[1j]]) == 2
    ok = ok and level_space_dimension(1, 3, [[1j]]) == 3
    ok = ok and level_space_dimension(2, 2, np.diag([1j, 2j])) == 4
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30.0
    _announce(8, f"theta suite ({elapsed:.2f}s)", ok)


def test_criterion_09_hermitian_einstein():
    ok = True
    # flat catalog entries: trace residual across the grid
    for entry in hyperelliptic_catalog():
        potential = entry.potential
        rng = np.random.default_rng(20240609)
        for _ in range(8):
            z = rng.uniform(-0.4, 0.4, 2) + 1j * rng.uniform(-0.4, 0.4, 2)
            md = metric_at(potential, z)
            for lam in LAMBDA_GRID:
                ok = ok and abs(lam) * hermitian_einstein_trace(md) < TOL
    # the two Ricci contraction routes agree, including on curved examples
    probes = [
        (parse("log(1 + z1*zbar1 + z2*zbar2)", 2), [0.3, 0.1]),
        (parse("z1*zbar1 + 0.25*(z1*zbar1)^2", 1), [0.45]),
        (random_polynomial_potential(np.random.default_rng(99), 2), [0.2, -0.15]),
    ]
    for potential, pt in probes:
        pt = np.asarray(pt, dtype=np.complex128)
        md = metric_at(potential, pt)
        via = ricci_via_connection(md, jet_partials(potential, pt))
        ok = ok and float(np.max(np.abs(via - md.ricci))) < TOL
    _announce(9, "Hermitian-Einstein trace + Ricci cross-check", ok)


def test_criterion_10_determinism():
    cfg = Config(samples=16, seed=20240610)
    first = to_json(run_catalog(None, cfg))
    second = to_json(run_catalog(None, cfg))
    ok = first == second and len(first) > 0
    _announce(10, "byte-identical catalog reports under a fixed seed", ok)
