"""Spec-file ingestion, verification pipelines and the command line.

Reports are deterministic: sample points come from a seeded
low-discrepancy sequence, aggregation is ordered, and :mod:`.report`
writes JSON with sorted keys, so identical spec + seed + version gives
byte-identical output.

Exit codes: 0 all expected, 1 verdict mismatch, 2 input error,
3 internal numeric error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import __version__, catalog as cat, frobenius as frob, kahler, theta as th
from .expr import ExprError, ParseError, PotentialExpr, parse, to_source
from .report import RowTable, to_json

DEFAULT_SEED = 20240613
DEFAULT_SAMPLES = 64
DEFAULT_RADIUS = 30
# A report holds 0.6 KB (dim 1) to 0.9 KB (dim 4) per sample: under 9 MB at the cap.
MAX_SAMPLES = 10_000
# Two above the largest dim the tests check; sample_points has primes to dim 8.
# Cost is no bound: the jet table builds in 25 ms at dim 6, and `verify` of a
# curved chart, 64 samples, takes 0.6 s at dim 6 and 1.2 s at 8 (2-vCPU, Py 3.11).
MAX_DIM = 6
# Group checks build all |G|^2 composites: about 0.1 s at 64 elements.
MAX_GROUP_ELEMENTS = 64
# Points of the theta quasi-periodicity table (the first MULT_POINTS also test products)
THETA_POINTS = 20
MULT_POINTS = 8
# Sample points per pass: about this many entries of an n^4 tensor (32 points
# at dim 4, 13 at 5, 6 at 6, all 64 default samples at dims 1-3).  One jet pass
# feeds one tensor pass.  A whole dim-4 verify in 32-point passes peaks at about
# 0.22 MiB on a flat chart, and 1.40 MiB in the product runs of the log ball's
# jets (tracemalloc); one 64-point pass would take about 2.4 MiB.
BATCH_ENTRIES = 8192
DEFAULT_TOLERANCES = {
    "structural": 1e-9,
    "theta": 1e-8,
    "theta_mult": 1e-7,
    "isometry": 1e-12,
}
DISCLAIMER = (
    "verification is chart-local at sampled points; compactness and "
    "global structure are not checked from a single chart"
)

# The verdict's checks: (report column, class), filed by what the column
# measures.  A class fails when one of its columns is not below the
# structural tolerance at some sample, so a NaN fails too.  The pencil is
# read by its lambda coefficients: mixed_norm (dbar Gamma = g^-1 R) and
# einstein_defect are flatness, associator ([A_c, A_d]) is associativity.
# Commutativity and form compatibility hold by construction (symmetric
# Christoffel symbols, zero fiber form); tests pin them, no check reads them.
CHECKS = (
    ("metric_hermiticity", "core"),
    ("ricci_hermiticity", "core"),
    ("mixed_norm", "flatness"),
    ("einstein_defect", "flatness"),
    ("wdvv", "associativity"),
    ("associator", "associativity"),
)
# The jet blocks each report column of a sample reads besides the metric
# (d_a dbar_b), which every column reads: "phi3" (d_a d_b dbar_c, so Gamma)
# and "ddbar" (d_a d_c dbar_b dbar_d).  Each column that reads one is a max
# of |x| over tensors built from them, so where all of its blocks are zero
# by the chart's jet support (kahler.MetricData.zero) it is +0.0 at every
# sample, and _sample_columns writes that without computing it.
READS = {
    "metric_hermiticity": (),
    "min_singular": (),
    "condition_number": (),
    "max_curvature": ("phi3", "ddbar"),
    "wdvv": ("phi3",),
    "ricci_hermiticity": ("phi3", "ddbar"),
    "max_ricci": ("phi3", "ddbar"),
    "associator": ("phi3",),
    "mixed_norm": ("phi3", "ddbar"),
    "einstein_defect": ("phi3", "ddbar"),
    "positive_definite": (),
}
# (group report key, passing value, reason when it does not pass); a
# None value is undecided and gives no reason: freeness is only asked of
# an action that maps the lattice onto itself
GROUP_CHECKS = (
    ("closure", True, "group check failed: closure"),
    ("lattice_stable", True, "group check failed: lattice_stable"),
    ("faithful", True, "group check failed: faithful"),
    ("free", True, "action not free"),
    ("contains_translations", False, "action contains translations"),
    ("isometry_ok", True, "group check failed: isometry"),
)
# (exception class, reason of an "error" verdict): a failed sample gives
# the first reason whose class it is (ExprError: log floor, exp overflow)
FAILURE_REASONS = (
    (kahler.DegenerateMetricError, "degenerate metric at sampled points"),
    (kahler.RealnessError, "potential not real at sampled points"),
    (ExprError, "domain error at sampled points"),
    (kahler.KahlerError, "non-finite values at sampled points"),
)
# expected_class of a spec -> the verdict it expects; any other class
# names the verdict itself
EXPECTED_VERDICT = {
    "torus": "frobenius",
    "hyperelliptic": "frobenius",
    "negative-control": "not-frobenius",
}
# the verdicts of run_verify; a spec's expected_class is one of these or a
# key of EXPECTED_VERDICT
VERDICTS = ("frobenius", "pre-frobenius", "not-frobenius", "error")

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3


class SpecError(Exception):
    pass


@dataclass(frozen=True)
class ManifoldSpec:
    """The JSON shape of a spec file, as :func:`entry_to_spec` writes it."""

    name: str
    dim: int
    potential: str
    sample_domain: dict  # {"re": [[lo, hi], ...], "im": [[lo, hi], ...]}
    lattice: Optional[list] = None  # [[ [re, im], ... ], ...]
    group: Optional[list] = None  # [{"A": [[[re,im],...],...], "t": [[re,im],...]}]
    expected_class: Optional[str] = None


@dataclass(frozen=True)
class Config:
    seed: int = DEFAULT_SEED
    samples: int = DEFAULT_SAMPLES
    radius: int = DEFAULT_RADIUS
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))

    def __post_init__(self) -> None:
        # each of these would otherwise yield a verdict resting on no evidence
        if not 1 <= self.samples <= MAX_SAMPLES:
            raise SpecError(f"--samples must be in 1..{MAX_SAMPLES}, got {self.samples}")
        # a theta series sums at most (2 radius + 1)^genus terms
        if not 1 <= self.radius <= th.MAX_RADIUS:
            raise SpecError(
                f"--radius must be between 1 and {th.MAX_RADIUS}, got {self.radius}"
            )
        for name, value in self.tolerances.items():
            if not (math.isfinite(value) and value > 0):
                raise SpecError(
                    f"tolerance {name} must be positive and finite, got {value}"
                )


# --- spec files -------------------------------------------------------


def _number(value, where: str) -> float:
    try:
        if not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    except (TypeError, OverflowError):
        pass
    raise SpecError(f"{where} must be finite numbers")


def _pairs(row, count: int, where: str) -> list[complex]:
    """``count`` complex numbers given as ``[re, im]`` pairs."""
    if not (
        isinstance(row, list)
        and len(row) == count
        and all(isinstance(pair, list) and len(pair) == 2 for pair in row)
    ):
        raise SpecError(f"{where} must list {count} [re, im] pairs")
    where += " entries"
    return [complex(_number(re, where), _number(im, where)) for re, im in row]


def _pair_list(values) -> list:
    """Complex numbers as ``[re, im]`` pairs, the inverse of :func:`_pairs`."""
    return [[float(v.real), float(v.imag)] for v in values]


def _unwrap(value, key: str):
    """The list of a ``{key: [...]}`` object; any other value as it is."""
    return value.get(key, value) if isinstance(value, dict) else value


def load_manifold_spec(payload) -> cat.CatalogEntry:
    """The chart of a spec file's JSON payload, its potential, lattice and
    group built here and only here; every fault raises a SpecError that
    names the field."""
    if not isinstance(payload, dict):
        raise SpecError("spec must be a JSON object")
    try:
        name = payload["name"]
        dim = payload["dim"]
        source = payload["potential"]
        domain = payload["sample_domain"]
    except KeyError as exc:
        raise SpecError(f"missing spec key: {exc}") from exc
    if not isinstance(name, str):
        raise SpecError("name must be a string")
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise SpecError("dim must be an integer")
    if dim < 1:
        raise SpecError("dim must be >= 1")
    if dim > MAX_DIM:
        raise SpecError(f"dim must be at most {MAX_DIM}")
    if not isinstance(source, str):
        raise SpecError("potential must be a string")
    if not isinstance(domain, dict):
        raise SpecError("sample_domain must be an object with re and im ranges")
    for part in ("re", "im"):
        ranges = domain.get(part)
        if not isinstance(ranges, list) or len(ranges) != dim:
            raise SpecError(f"sample_domain.{part} must list {dim} ranges")
        for lo_hi in ranges:
            if not isinstance(lo_hi, list) or len(lo_hi) != 2:
                raise SpecError(f"sample_domain.{part} ranges must be [lo, hi] pairs")
            lo, hi = (_number(v, f"sample_domain.{part} bounds") for v in lo_hi)
            if not hi > lo:
                raise SpecError("sample_domain ranges must be non-degenerate")
            if not math.isfinite(hi - lo):
                raise SpecError(f"sample_domain.{part} range is too wide")
    try:
        potential = parse(source, dim)
    except ParseError as exc:
        raise SpecError(f"potential does not parse: {exc}") from exc
    generators = _unwrap(payload.get("lattice"), "generators")
    elements = _unwrap(payload.get("group"), "elements")
    if elements is not None and generators is None:
        raise SpecError("a group requires a lattice")
    lattice = action = None
    if generators is not None:
        lattice = _lattice_from_spec(generators, dim)
        if elements is not None:
            action = _group_from_spec(elements, lattice, name)
    expected_class = payload.get("expected_class")
    classes = (*EXPECTED_VERDICT, *VERDICTS)
    if expected_class is not None and expected_class not in classes:
        raise SpecError(
            f"expected_class must be one of {', '.join(classes)}, got {expected_class!r}"
        )
    return cat.CatalogEntry(
        name=name,
        dim=dim,
        potential=potential,
        lattice=lattice,
        action=action,
        expected_class=expected_class,
        sample_domain={"re": domain["re"], "im": domain["im"]},
    )


def _lattice_from_spec(generators, dim: int) -> cat.Lattice:
    if not isinstance(generators, list) or len(generators) != 2 * dim:
        raise SpecError(f"lattice needs {2 * dim} generators")
    gens = [_pairs(row, dim, "lattice generator") for row in generators]
    try:
        return cat.Lattice(np.array(gens, dtype=np.complex128))
    except ValueError as exc:
        raise SpecError(str(exc)) from exc


def _group_from_spec(elements, lattice: cat.Lattice, name: str) -> cat.GroupAction:
    if not isinstance(elements, list) or not elements:
        raise SpecError("group elements must be a non-empty list")
    if len(elements) > MAX_GROUP_ELEMENTS:
        raise SpecError(f"group elements must number at most {MAX_GROUP_ELEMENTS}")
    dim = lattice.dim
    maps = []
    for el in elements:
        if not isinstance(el, dict) or el.get("A") is None or el.get("t") is None:
            raise SpecError("group element needs A and t")
        if not isinstance(el["A"], list) or len(el["A"]) != dim:
            raise SpecError(f"group element A must have {dim} rows")
        a = [_pairs(row, dim, "group element A row") for row in el["A"]]
        t = _pairs(el["t"], dim, "group element t")
        try:
            maps.append(cat.AffineMap(np.array(a), np.array(t)))
        except ValueError as exc:
            raise SpecError(f"group element: {exc}") from exc
    try:
        return cat.GroupAction(lattice, tuple(maps), name)
    except ValueError as exc:
        raise SpecError(str(exc)) from exc


# --- sampling ---------------------------------------------------------

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def _derive_seed(seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def sample_points(
    spec_domain: dict, dim: int, count: int, seed: int, label: str
) -> np.ndarray:
    """Seeded Kronecker (additive-recurrence) low-discrepancy points
    inside the domain box, one per row of a (count, dim) array."""
    rng = np.random.default_rng(_derive_seed(seed, label))
    offsets = rng.random(2 * dim)
    alphas = np.sqrt(np.array(_PRIMES[: 2 * dim], dtype=np.float64))
    alphas -= np.floor(alphas)
    lo, hi = np.array([*spec_domain["re"], *spec_domain["im"]], dtype=np.float64).T
    u = np.mod(offsets + np.arange(1, count + 1)[:, None] * alphas, 1.0)
    x = lo + u * (hi - lo)
    z = np.empty((count, dim), dtype=np.complex128)
    z.real, z.imag = x[:, :dim], x[:, dim:]
    return z


# --- manifold verification --------------------------------------------


def _sample_columns(
    potential: PotentialExpr, points: np.ndarray
) -> tuple[np.ndarray, dict, dict]:
    """``(good, columns, failures)`` of a batch of points: the indices of the points that pass
    every numeric check (Gamma and the pencil's coefficients finite), one array per report key
    over those points, and ``{index: exception}`` for the others.  One tensor pass for all; no
    column that ``READS`` finds zero by the chart's jet support is computed."""
    md, failures = kahler.metric_batch(potential, points)
    good = np.array([idx for idx in range(len(points)) if idx not in failures], dtype=int)
    zero = {key for key, reads in READS.items() if reads and md.zero.issuperset(reads)}

    def need(*keys):
        return not zero.issuperset(keys)

    columns = {}
    if need("associator", "mixed_norm", "einstein_defect"):
        gamma_ok = np.all(np.isfinite(md.christoffel), axis=(-3, -2, -1))
        # a huge potential overflows the pencil (Ric @ H) and a non-finite Gamma
        # spreads into it: error records, not warnings
        with np.errstate(over="ignore", invalid="ignore"):
            pencil = vars(frob.pencil_curvature(md))
        ok = gamma_ok & np.all([np.isfinite(norm) for norm in pencil.values()], axis=0)
        for idx, finite in zip(good[~ok].tolist(), gamma_ok[~ok].tolist()):
            why = "non-finite pencil curvature" if finite else "non-finite structure constants"
            failures[idx] = kahler.KahlerError(why)
        if not ok.all():
            good, md = good[ok], md[ok]
        columns.update({key: norm[ok] for key, norm in pencil.items()})

    columns.update(metric_hermiticity=kahler.hermiticity(md.g), min_singular=md.min_singular,
                   condition_number=md.cond, positive_definite=md.positive_definite)
    if need("max_curvature"):
        columns["max_curvature"] = kahler.worst(md.curvature, 4)
    if need("wdvv"):
        columns["wdvv"] = kahler.wdvv_residual_at(md)
    if need("ricci_hermiticity", "max_ricci"):
        columns["ricci_hermiticity"], columns["max_ricci"] = kahler.ricci_c1_check(md)
    columns.update(dict.fromkeys(zero, np.zeros(len(good))))
    return good, {key: columns[key] for key in READS}, failures


def _sample_records(points: np.ndarray, good: np.ndarray, columns: dict, failures: dict) -> RowTable:
    """The report rows of the sample points, in order (the arguments as
    :func:`_sample_columns` returns them): each row has its index and
    point, then its report columns or the error of its failure."""
    xy = np.stack([points.real, points.imag], axis=-1)

    def good_row(index, point, *values):
        return dict(zip(columns, values), index=index, point=point)

    def error_row(index, point, error):
        return {"index": index, "point": point, "error": error}

    bad = np.array(sorted(failures), dtype=int)
    errors = np.array([str(failures[idx]) for idx in bad.tolist()], dtype=object)
    return RowTable(len(points), [
        (("sample", tuple(columns)), good_row, good.tolist(), (good, xy[good], *columns.values())),
        (("error",), error_row, bad.tolist(), (bad, xy[bad], errors)),
    ])


def _group_record(action: cat.GroupAction, tol: float) -> dict:
    record = cat.validate_group(action)
    free, witness = cat.is_free(action) if record["lattice_stable"] else (None, None)
    defect = cat.isometry_defect(action)
    record.update(
        free=free,
        fixed_point_witness=None if witness is None else _pair_list(witness),
        contains_translations=cat.contains_translations(action),
        isometry_defect=defect,
        isometry_ok=defect <= tol,
    )
    return record


def run_verify(entry: cat.CatalogEntry, config: Config) -> dict:
    """The report of one chart: a catalog entry, or a spec file as
    :func:`load_manifold_spec` loads it.

    Verdict semantics, decided by ``CHECKS`` and ``GROUP_CHECKS``:
    "error" when a sample hit a numeric failure (one reason per kind, from
    ``FAILURE_REASONS``); "not-frobenius" when the metric is not positive
    definite or a core check fails; otherwise "frobenius" iff every
    check and every group check passes, and "pre-frobenius" iff only
    the associativity checks fail; "not-frobenius" in all other cases.
    """
    tol = config.tolerances
    points = sample_points(
        entry.sample_domain, entry.dim, config.samples, config.seed, entry.name
    )
    batch = max(1, BATCH_ENTRIES // entry.dim**4)
    goods, batches, failures = [], [], {}
    for start in range(0, len(points), batch):
        good, cols, fails = _sample_columns(entry.potential, points[start : start + batch])
        goods.append(good + start)
        batches.append(cols)
        failures.update({start + k: exc for k, exc in fails.items()})
    good = np.concatenate(goods)
    columns = {key: np.concatenate([cols[key] for cols in batches]) for key in batches[0]}

    reasons: list[str] = []
    group_rec: Optional[dict] = None
    if entry.action is not None:
        group_rec = _group_record(entry.action, tol["isometry"])
        reasons = [
            why for key, passing, why in GROUP_CHECKS
            if group_rec[key] not in (passing, None)
        ]
    group_ok = not reasons

    if failures:
        reasons += [next(why for cls, why in FAILURE_REASONS if isinstance(exc, cls))
                    for exc in failures.values()]
        verdict = "error"
    else:
        failed = {cls for key, cls in CHECKS if not np.all(columns[key] < tol["structural"])}
        positive = np.all(columns["positive_definite"])
        if not positive:
            reasons.append("metric not positive definite at sampled points")
        if "core" in failed:
            reasons.append("structural identities violated")
        if "core" in failed or not positive:
            verdict = "not-frobenius"
        elif not failed and group_ok:
            verdict = "frobenius"
        elif failed == {"associativity"} and group_ok:
            verdict = "pre-frobenius"
            reasons.append("associativity / pencil flatness failed")
        else:
            verdict = "not-frobenius"
            if "flatness" in failed:
                reasons.append("curvature constraint violated")

    return {
        "spec": entry.name,
        "version": __version__,
        "seed": config.seed,
        "tolerances": tol,
        "disclaimer": DISCLAIMER,
        "samples": _sample_records(points, good, columns, failures),
        "group": group_rec,
        "verdict": verdict,
        "reasons": sorted(set(reasons)),
    }


# --- catalog pipeline --------------------------------------------------


def entry_to_spec(entry: cat.CatalogEntry) -> ManifoldSpec:
    """A chart in the spec-file shape, which :func:`load_manifold_spec`
    loads back to the same chart."""
    lattice = group = None
    if entry.lattice is not None:
        lattice = [_pair_list(gen) for gen in entry.lattice.generators]
    if entry.action is not None:
        group = [
            {"A": [_pair_list(row) for row in el.A], "t": _pair_list(el.t)}
            for el in entry.action.elements
        ]
    return ManifoldSpec(
        name=entry.name,
        dim=entry.dim,
        potential=to_source(entry.potential),
        sample_domain=entry.sample_domain,
        lattice=lattice,
        group=group,
        expected_class=entry.expected_class,
    )


def run_catalog(name_filter: Optional[str], config: Config) -> list:
    """Verify all catalog entries, or those whose name contains
    ``name_filter``; negative-control and metadata rows are reported
    flag-only.  A filter that matches no row is a SpecError."""
    reports: list = []
    for entry in cat.hyperelliptic_catalog():
        if name_filter and name_filter not in entry.name:
            continue
        report = run_verify(entry, config)
        expected = EXPECTED_VERDICT.get(entry.expected_class, entry.expected_class)
        report["expected_class"] = entry.expected_class
        report["expected_verdict"] = expected
        report["matches_expected"] = report["verdict"] == expected
        report["metadata"] = entry.metadata
        reports.append(report)
    for kind, rows in (("negative-control", cat.negative_controls()),
                       ("metadata", cat.metadata_rows())):
        reports += [
            {**row, "version": __version__, "seed": config.seed, "kind": kind,
             "flags": row.get("flags"), "verdict": kind, "matches_expected": True}
            for row in rows
            if not name_filter or name_filter in row["spec"]
        ]
    if not reports:
        raise SpecError(f"--catalog {name_filter!r} matches no catalog row")
    return reports


def catalog_exit_code(reports: list) -> int:
    if any(r.get("verdict") == "error" for r in reports):
        return EXIT_NUMERIC
    return EXIT_OK if all(r.get("matches_expected", False) for r in reports) else EXIT_MISMATCH


# --- theta pipeline -----------------------------------------------------


def run_theta(tau: np.ndarray, level: int, config: Config) -> dict:
    """Quasi-periodicity, multiplicativity and dimension checks."""
    tau = np.asarray(tau, dtype=np.complex128)
    g = tau.shape[0]
    spec = th.RiemannThetaSpec(tau=tau, alpha=np.zeros(g), beta=np.zeros(g))
    tails: list = []  # the largest tail bound of each series call
    # the level count first: it rejects an unsupported genus or level
    # before any series is summed
    dim_result = th.level_space_dimension(g, level, tau, config.radius, tails)
    rng = np.random.default_rng(_derive_seed(config.seed, f"theta-{g}-{level}"))
    zs = rng.random((THETA_POINTS, g)) + 0.2j * rng.random((THETA_POINTS, g))
    t1 = th.riemann_type_of(spec)
    shifts = t1.lattice.generators
    gens = np.arange(2 * g)[:, None]  # a row of residuals per lattice generator
    # one series on tau: theta[0, 0] at the points and theta[1/2, 0] at the
    # first MULT_POINTS (columns n: of the values), each with its 2g shifts
    half, n = np.full(g, 0.5), THETA_POINTS
    chars = np.repeat([spec.alpha, half], [n, MULT_POINTS], axis=0)
    batch = th.RiemannThetaSpec(tau=tau, alpha=np.tile(chars, (2 * g + 1, 1)), beta=spec.beta)
    points = np.concatenate([zs, zs[:MULT_POINTS]])
    values, shifted = th.values_with_shifts(batch, points, shifts, config.radius, tails)
    scale = th.nearest_term(tau, spec.alpha, zs + shifts[:, None, :])
    qp = th.shift_residual(t1.factor(zs, gens), values[:n], shifted[:, :n], scale)

    # multiplicativity: product of two characteristics obeys the summed
    # type; theta[1/2, 0] has t1's lattice and L, and J differs on the e_j
    t2 = th.ThetaType(g, t1.lattice, t1.rows, np.concatenate([half, t1.j_values[g:]]))
    m = slice(MULT_POINTS)
    with np.errstate(over="ignore"):  # a scale past double range floors at inf
        mult = th.shift_residual(
            th.multiply_types(t1, t2).factor(zs[m], gens),
            values[m] * values[n:], shifted[:, m] * shifted[:, n:],
            scale[:, m] * th.nearest_term(tau, half, zs[m] + shifts[:, None, :]),
        )
    worst_qp, worst_mult = float(np.max(qp)), float(np.max(mult))
    # a row per generator and point, generator-major
    qp_rows = RowTable(qp.size, [(
        ("theta",),
        lambda generator, z, residual: {"generator": generator, "z": z, "residual": residual},
        range(qp.size),
        (np.repeat(np.arange(2 * g), THETA_POINTS),
         np.tile(np.stack([zs.real, zs.imag], axis=-1), (2 * g, 1, 1)),
         qp.ravel()),
    )])

    tail, tol = max(tails), config.tolerances
    expected_dim = level**g
    reasons = []
    if not tail <= tol["theta"]:
        reasons.append(f"theta truncation bound exceeds tolerance at radius {config.radius}")
    if not (worst_qp < tol["theta"] and worst_mult < tol["theta_mult"]):
        reasons.append("theta residuals exceed tolerance")
    if dim_result != expected_dim:
        reasons.append(f"theta level count {dim_result} below level^g = {expected_dim}")
    return {
        "spec": f"theta(g={g}, level={level})",
        "version": __version__,
        "seed": config.seed,
        "tolerances": tol,
        "radius": config.radius,
        "samples": qp_rows,
        "multiplicativity": worst_mult,
        "level_dimension": dim_result,
        "expected_dimension": expected_dim,
        "tail_bound": tail,
        "verdict": "fail" if reasons else "pass",
        "reasons": reasons,
    }


# --- command line -------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line, built once per process: parsing leaves it as it
    was (``append`` copies its default list before adding to it)."""
    parser = argparse.ArgumentParser(
        prog="frobenius-verify",
        description="Verify flat-Kahler / Frobenius structure from chart data.",
    )
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    parser.add_argument("--radius", type=int, default=DEFAULT_RADIUS)
    parser.add_argument(
        "--tolerance",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="override a named tolerance (repeatable)",
    )
    out = parser.add_mutually_exclusive_group()
    out.add_argument("--json", action="store_true", dest="as_json")
    out.add_argument("--text", action="store_true", dest="as_text")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="verify a manifold spec file")
    p_verify.add_argument("specfile")

    p_catalog = sub.add_parser("catalog", help="verify catalog entries")
    p_catalog.add_argument("--catalog", dest="name_filter", default=None)

    p_theta = sub.add_parser("theta", help="run theta-function checks")
    p_theta.add_argument(
        "--genus", type=int, default=None, help="size of tau (default: that of --tau; 1 for i)"
    )
    p_theta.add_argument(
        "--tau",
        default="i",
        help="'i' (g=1), 'diag:a,b' with imaginary parts, or JSON matrix",
    )
    p_theta.add_argument("--level", type=int, default=2)
    return parser


def _resolve_seed(arg_seed: Optional[int]) -> int:
    if arg_seed is not None:
        return arg_seed
    env = os.environ.get("FROBENIUS_VERIFY_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise SpecError(f"bad FROBENIUS_VERIFY_SEED: {env!r}") from exc
    return DEFAULT_SEED


def _config_from_args(args) -> Config:
    tolerances = dict(DEFAULT_TOLERANCES)
    for item in args.tolerance:
        if "=" not in item:
            raise SpecError(f"bad --tolerance {item!r}; expected NAME=VALUE")
        name, value = item.split("=", 1)
        if name not in tolerances:
            raise SpecError(f"unknown tolerance {name!r}")
        try:
            tolerances[name] = float(value)
        except ValueError as exc:
            raise SpecError(f"tolerance {name} is not a number: {value!r}") from exc
    return Config(
        seed=_resolve_seed(args.seed),
        samples=args.samples,
        radius=args.radius,
        tolerances=tolerances,
    )


def _parse_tau(raw: str, genus: Optional[int]) -> np.ndarray:
    if genus is not None and not 1 <= genus <= th.MAX_GENUS:
        raise SpecError(f"--genus must be between 1 and {th.MAX_GENUS}, got {genus}")
    raw = raw.strip()
    if raw == "i":
        return 1j * np.eye(genus or 1)
    if raw.startswith("diag:"):
        try:
            parts = [float(v) for v in raw[len("diag:") :].split(",")]
        except ValueError:
            raise SpecError("--tau diag entries must be finite numbers") from None
        tau = 1j * np.diag([_number(v, "--tau diag entries") for v in parts])
    else:
        try:
            data = json.loads(raw)
        except (ValueError, RecursionError) as exc:
            raise SpecError(f"--tau is not i, diag:... or a JSON matrix: {exc}") from None
        if not isinstance(data, list) or not data:
            raise SpecError("--tau must be a non-empty JSON list of rows")
        tau = np.array([_pairs(row, len(data), "--tau row") for row in data])
    if genus is not None and genus != len(tau):
        raise SpecError(f"--genus {genus} does not match --tau of size {len(tau)}")
    if np.max(np.abs(tau)) > th.MAX_TAU:
        raise SpecError(f"--tau entries must have modulus at most {th.MAX_TAU:g}")
    return tau


def _print_report(payload, as_json: bool) -> None:
    if as_json:
        sys.stdout.write(to_json(payload))
        return
    for d in payload if isinstance(payload, list) else [payload]:
        name = d.get("spec", "?")
        verdict = d.get("verdict", "?")
        line = f"{name}: {verdict}"
        if d.get("reasons"):
            line += f" ({'; '.join(d['reasons'])})"
        sys.stdout.write(line + "\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
    except SpecError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT

    try:
        if args.command == "verify":
            try:
                with open(args.specfile, "r", encoding="utf-8") as fh:
                    payload = json.load(fh)
                entry = load_manifold_spec(payload)
            except (OSError, ValueError, RecursionError, SpecError) as exc:
                sys.stderr.write(f"error: {exc}\n")
                return EXIT_INPUT
            report = run_verify(entry, config)
            _print_report(report, args.as_json)
            if report["verdict"] == "error":
                return EXIT_NUMERIC
            if entry.expected_class is None:
                return EXIT_OK
            expected = EXPECTED_VERDICT.get(entry.expected_class, entry.expected_class)
            return EXIT_OK if report["verdict"] == expected else EXIT_MISMATCH

        if args.command == "catalog":
            try:
                reports = run_catalog(args.name_filter, config)
            except SpecError as exc:
                sys.stderr.write(f"error: {exc}\n")
                return EXIT_INPUT
            _print_report(reports, args.as_json)
            return catalog_exit_code(reports)

        if args.command == "theta":
            try:
                if not 1 <= args.level <= th.MAX_LEVEL:
                    raise SpecError(
                        f"--level must be between 1 and {th.MAX_LEVEL}, got {args.level}"
                    )
                tau = _parse_tau(args.tau, args.genus)
                try:
                    report = run_theta(tau, args.level, config)
                except (th.ThetaError, ValueError) as exc:
                    # the level is checked above, so a fault here is tau's
                    raise SpecError(f"--tau {args.tau}: {exc}") from exc
            except SpecError as exc:
                sys.stderr.write(f"error: {exc}\n")
                return EXIT_INPUT
            _print_report(report, args.as_json)
            return EXIT_OK if report["verdict"] == "pass" else EXIT_MISMATCH
    except Exception as exc:  # pragma: no cover - defensive
        sys.stderr.write(f"internal error: {exc}\n")
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
