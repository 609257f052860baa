"""Spec-file ingestion, verification pipelines and report emission.

Reports are deterministic: sample points come from a seeded
low-discrepancy sequence, aggregation is ordered, and JSON is emitted
with sorted keys, so identical spec + seed + version gives
byte-identical output.

Exit codes: 0 all expected, 1 verdict mismatch, 2 input error,
3 internal numeric error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields
from typing import Optional, Sequence

import numpy as np

from . import __version__, catalog as cat, frobenius as frob, kahler, theta as th
from .expr import ParseError, PotentialExpr, parse, to_source

DEFAULT_SEED = 20240613
DEFAULT_SAMPLES = 64
DEFAULT_LAMBDA_GRID = (-1.0, -0.5, 0.5, 1.0, 2.0)
DEFAULT_RADIUS = 30
# A report holds about 1.3 KB per sample, so the cap keeps it near 13 MB.
MAX_SAMPLES = 10_000
# Points of the theta quasi-periodicity table (the first 8 also test products)
THETA_POINTS = 20
# Sample points per tensor batch: about this many entries of an n^4 tensor
# (8 points at dim 4), so peak memory does not grow with the batch.
BATCH_ENTRIES = 2048
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

# The verdict's checks: (per-sample report key, class); a dotted key
# is read in every row of the sample's list under its first part (the
# pencil over the lambda grid).  A class fails when one of its checks is
# not below the structural tolerance at some sample, so a NaN fails too.
# Commutativity and form compatibility hold by construction (symmetric
# Christoffel symbols, zero fiber form); tests pin them, no check reads them.
CHECKS = (
    ("metric_hermiticity", "core"),
    ("ricci_hermiticity", "core"),
    ("max_curvature", "flatness"),
    ("wdvv", "flatness"),
    ("pencil.trace_norm", "flatness"),
    ("associator", "associativity"),
    ("pencil.curvature_norm", "associativity"),
)
# (group report key, passing value, reason when it does not pass); a
# None value is undecided and gives no reason: freeness is only asked of
# an action that maps the lattice onto itself
GROUP_CHECKS = (
    ("closure", True, "group check failed: closure"),
    ("lattice_stable", True, "group check failed: lattice_stable"),
    ("finite", True, "group check failed: finite"),
    ("faithful", True, "group check failed: faithful"),
    ("free", True, "action not free"),
    ("contains_translations", False, "action contains translations"),
    ("isometry_ok", True, "group check failed: isometry"),
)
# expected_class of a spec -> the verdict it expects; any other class
# names the verdict itself
EXPECTED_VERDICT = {
    "torus": "frobenius",
    "hyperelliptic": "frobenius",
    "negative-control": "not-frobenius",
}

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3


class SpecError(Exception):
    pass


@dataclass(frozen=True)
class ManifoldSpec:
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
    lambda_grid: tuple[float, ...] = DEFAULT_LAMBDA_GRID
    radius: int = DEFAULT_RADIUS
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))

    def __post_init__(self) -> None:
        # each of these would otherwise yield a verdict resting on no evidence
        if not 1 <= self.samples <= MAX_SAMPLES:
            raise SpecError(f"--samples must be in 1..{MAX_SAMPLES}, got {self.samples}")
        if not self.lambda_grid:
            raise SpecError("lambda grid is empty")
        if not all(math.isfinite(lam) for lam in self.lambda_grid):
            raise SpecError(f"--lambda-grid entries must be finite, got {self.lambda_grid}")
        # the theta index box holds (2 radius + 1)^genus terms
        if not 1 <= self.radius <= th.MAX_RADIUS:
            raise SpecError(
                f"--radius must be between 1 and {th.MAX_RADIUS}, got {self.radius}"
            )
        for name, value in self.tolerances.items():
            if not (math.isfinite(value) and value > 0):
                raise SpecError(
                    f"tolerance {name} must be positive and finite, got {value}"
                )


@dataclass
class Report:
    """Verification outcome for one chart spec.

    Verdict semantics, decided by ``CHECKS`` and ``GROUP_CHECKS``:
    "error" when a sample hit a numeric failure (degenerate metric,
    domain error); "not-frobenius" when the metric is not positive
    definite or a core check fails; otherwise "frobenius" iff every
    check and every group check passes, and "pre-frobenius" iff only
    the associativity checks fail; "not-frobenius" in all other cases.
    """

    spec: str
    version: str
    seed: int
    tolerances: dict
    disclaimer: str
    samples: list
    group: Optional[dict]
    verdict: str
    reasons: list

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def to_json(payload) -> str:
    if isinstance(payload, Report):
        payload = payload.to_dict()
    elif isinstance(payload, list):
        payload = [p.to_dict() if isinstance(p, Report) else p for p in payload]
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


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


def _unwrap(value, key: str):
    """The list of a ``{key: [...]}`` object; any other value as it is."""
    return value.get(key, value) if isinstance(value, dict) else value


def load_manifold_spec(payload) -> ManifoldSpec:
    """Validate the JSON payload of a spec file, lattice and group
    included; every fault raises a SpecError that names the field."""
    if not isinstance(payload, dict):
        raise SpecError("spec must be a JSON object")
    try:
        name = payload["name"]
        dim = payload["dim"]
        potential = payload["potential"]
        domain = payload["sample_domain"]
    except KeyError as exc:
        raise SpecError(f"missing spec key: {exc}") from exc
    if not isinstance(name, str):
        raise SpecError("name must be a string")
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise SpecError("dim must be an integer")
    if dim < 1:
        raise SpecError("dim must be >= 1")
    if not isinstance(potential, str):
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
        parse(potential, dim)
    except ParseError as exc:
        raise SpecError(f"potential does not parse: {exc}") from exc
    lattice = _unwrap(payload.get("lattice"), "generators")
    group = _unwrap(payload.get("group"), "elements")
    if group is not None and lattice is None:
        raise SpecError("a group requires a lattice")
    if lattice is not None:
        lat = _lattice_from_spec(lattice, dim)
        if group is not None:
            _group_from_spec(group, lat, name)
    expected_class = payload.get("expected_class")
    if expected_class is not None and not isinstance(expected_class, str):
        raise SpecError("expected_class must be a string")
    return ManifoldSpec(
        name=name,
        dim=dim,
        potential=potential,
        sample_domain={"re": domain["re"], "im": domain["im"]},
        lattice=lattice,
        group=group,
        expected_class=expected_class,
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
    if not isinstance(elements, list):
        raise SpecError("group elements must be a list")
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
    return cat.GroupAction(lattice, tuple(maps), name)


# --- sampling ---------------------------------------------------------

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def _derive_seed(seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def sample_points(
    spec_domain: dict, dim: int, count: int, seed: int, label: str
) -> list[np.ndarray]:
    """Seeded Kronecker (additive-recurrence) low-discrepancy points
    inside the domain box."""
    rng = np.random.default_rng(_derive_seed(seed, label))
    offsets = rng.random(2 * dim)
    alphas = np.sqrt(np.array(_PRIMES[: 2 * dim], dtype=np.float64))
    alphas -= np.floor(alphas)
    re_ranges = [(float(lo), float(hi)) for lo, hi in spec_domain["re"]]
    im_ranges = [(float(lo), float(hi)) for lo, hi in spec_domain["im"]]
    points = []
    for k in range(1, count + 1):
        u = np.mod(offsets + k * alphas, 1.0)
        z = np.empty(dim, dtype=np.complex128)
        for a in range(dim):
            lo_r, hi_r = re_ranges[a]
            lo_i, hi_i = im_ranges[a]
            z[a] = complex(
                lo_r + u[a] * (hi_r - lo_r), lo_i + u[dim + a] * (hi_i - lo_i)
            )
        points.append(z)
    return points


# --- manifold verification --------------------------------------------


def _sample_records(
    potential: PotentialExpr, points: Sequence[np.ndarray], lambda_grid: Sequence[float]
) -> list:
    """Records of a batch of sample points, in order.  The tensors of all
    points are computed together; a point that fails a numeric check gets
    an error record and leaves the others untouched."""
    md, failures = kahler.metric_batch(potential, points)

    def keep(ok: np.ndarray, why: str) -> np.ndarray:
        """``ok``, one entry per sample left; each False gets an error record."""
        good = [idx for idx in range(len(points)) if idx not in failures]
        for k in np.flatnonzero(~ok):
            failures[good[k]] = kahler.KahlerError(why)
        return ok

    md = md[keep(np.all(np.isfinite(md.christoffel), axis=(-3, -2, -1)),
                 "non-finite structure constants")]
    # a large lambda can overflow the pencil: an error record, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        pencil = frob.pencil_curvature(md, lambda_grid)
    # both norms are >= 0, so their sum is finite iff both are
    finite = np.isfinite(pencil.curvature_norm + pencil.trace_norm)
    ok = keep(np.all(finite, axis=-1), "non-finite pencil curvature")
    md, curvature_norm, trace_norm = md[ok], pencil.curvature_norm[ok], pencil.trace_norm[ok]

    ricci_herm, ricci_max = kahler.ricci_c1_check(md)
    hol = frob.fiber_algebra_from_metric(md)
    units = frob.find_unit(hol)
    columns = {
        "metric_hermiticity": kahler.hermiticity(md.g),
        "min_singular": md.min_singular,
        "condition_number": md.cond,
        "max_curvature": kahler.worst(md.curvature, 4),
        "wdvv": kahler.wdvv_residual_at(md),
        "ricci_hermiticity": ricci_herm,
        "max_ricci": ricci_max,
        "associator": frob.associator(hol),
    }

    records = []
    k = 0
    for idx, point in enumerate(points):
        rec = {"point": [[float(z.real), float(z.imag)] for z in point]}
        if idx in failures:
            rec["error"] = str(failures[idx])
        else:
            rec.update({key: float(col[k]) for key, col in columns.items()})
            rec["positive_definite"] = bool(md.positive_definite[k])
            rec["unit_exists"] = units[k] is not None
            rec["pencil"] = [
                {
                    "lambda": lam,
                    "curvature_norm": float(curvature_norm[k, j]),
                    "trace_norm": float(trace_norm[k, j]),
                }
                for j, lam in enumerate(lambda_grid)
            ]
            k += 1
        records.append(rec)
    return records


def _group_record(action: cat.GroupAction, tol: float) -> dict:
    report = cat.validate_group(action)
    free, witness = cat.is_free(action) if report.lattice_stable else (None, None)
    translations = cat.contains_translations(action)
    defect = cat.isometry_defect(action)
    return {
        "closure": report.closure,
        "lattice_stable": report.lattice_stable,
        "finite": report.finite,
        "faithful": report.faithful,
        "free": free,
        "fixed_point_witness": None
        if witness is None
        else [[float(w.real), float(w.imag)] for w in witness],
        "contains_translations": translations,
        "isometry_defect": defect,
        "isometry_ok": defect <= tol,
    }


def _failed_classes(samples: list, tol: float) -> set:
    failed = set()
    for key, cls in CHECKS:
        head, _, leaf = key.rpartition(".")
        rows = [row for s in samples for row in s[head]] if head else samples
        if not all(row[leaf] < tol for row in rows):
            failed.add(cls)
    return failed


def run_verify(spec: ManifoldSpec, config: Config) -> Report:
    """Full verification pipeline for one chart spec (as validated by
    :func:`load_manifold_spec`)."""
    tol = config.tolerances
    potential = parse(spec.potential, spec.dim)
    points = sample_points(
        spec.sample_domain, spec.dim, config.samples, config.seed, spec.name
    )
    samples: list = []
    batch = max(1, BATCH_ENTRIES // spec.dim**4)
    for start in range(0, len(points), batch):
        chunk = points[start : start + batch]
        records = _sample_records(potential, chunk, config.lambda_grid)
        for idx, rec in enumerate(records, start):
            rec["index"] = idx
            samples.append(rec)

    reasons: list[str] = []
    group_rec: Optional[dict] = None
    if spec.group is not None:
        lattice = _lattice_from_spec(spec.lattice, spec.dim)
        action = _group_from_spec(spec.group, lattice, spec.name)
        group_rec = _group_record(action, tol["isometry"])
        reasons = [
            why for key, passing, why in GROUP_CHECKS
            if group_rec[key] not in (passing, None)
        ]
    group_ok = not reasons

    if any("error" in s for s in samples):
        reasons.append("degenerate metric or domain error at sampled points")
        verdict = "error"
    else:
        failed = _failed_classes(samples, tol["structural"])
        positive = all(s["positive_definite"] for s in samples)
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
                reasons.append("curvature or associativity constraint violated")

    return Report(
        spec=spec.name,
        version=__version__,
        seed=config.seed,
        tolerances=tol,
        disclaimer=DISCLAIMER,
        samples=samples,
        group=group_rec,
        verdict=verdict,
        reasons=sorted(set(reasons)),
    )


# --- catalog pipeline --------------------------------------------------


def entry_to_spec(entry: cat.CatalogEntry) -> ManifoldSpec:
    """Serialize a catalog entry into the spec-file shape (entries stay
    addressable by name through the catalog filter)."""
    n = entry.dim
    box = {
        "re": [[-0.45, 0.45]] * n,
        "im": [[-0.45, 0.45]] * n,
    }
    lattice = None
    group = None
    if entry.lattice is not None:
        lattice = [
            [[float(v.real), float(v.imag)] for v in gen]
            for gen in entry.lattice.generators
        ]
    if entry.action is not None:
        group = [
            {
                "A": [[[float(v.real), float(v.imag)] for v in row] for row in el.A],
                "t": [[float(v.real), float(v.imag)] for v in el.t],
            }
            for el in entry.action.elements
        ]
    return ManifoldSpec(
        name=entry.name,
        dim=n,
        potential=to_source(entry.potential),
        sample_domain=box,
        lattice=lattice,
        group=group,
        expected_class=entry.expected_class,
    )


def run_catalog(name_filter: Optional[str], config: Config) -> list:
    """Verify all (or filtered) catalog entries; negative-control and
    metadata rows are reported flag-only."""
    reports: list = []
    for entry in cat.hyperelliptic_catalog():
        if name_filter and name_filter not in entry.name:
            continue
        report = run_verify(entry_to_spec(entry), config)
        expected = EXPECTED_VERDICT.get(entry.expected_class, entry.expected_class)
        payload = report.to_dict()
        payload["expected_class"] = entry.expected_class
        payload["expected_verdict"] = expected
        payload["matches_expected"] = report.verdict == expected
        payload["metadata"] = entry.metadata
        reports.append(payload)
    for entry in cat.negative_controls() + cat.metadata_rows():
        if name_filter and name_filter not in entry.name:
            continue
        reports.append(
            {
                "spec": entry.name,
                "version": __version__,
                "seed": config.seed,
                "kind": entry.expected_class,
                "flags": entry.metadata.get("flags"),
                "metadata": {
                    k: v for k, v in entry.metadata.items() if k != "flags"
                },
                "verdict": "negative-control"
                if entry.expected_class == "negative-control"
                else "metadata",
                "matches_expected": True,
            }
        )
    return reports


def catalog_exit_code(reports: list) -> int:
    return EXIT_OK if all(r.get("matches_expected", False) for r in reports) else EXIT_MISMATCH


# --- theta pipeline -----------------------------------------------------


def run_theta(tau: np.ndarray, level: int, config: Config) -> dict:
    """Quasi-periodicity, multiplicativity and dimension checks."""
    tau = np.asarray(tau, dtype=np.complex128)
    g = tau.shape[0]
    spec = th.RiemannThetaSpec(tau=tau, alpha=np.zeros(g), beta=np.zeros(g))
    # the level count first: it rejects an unsupported genus or level
    # before any series is summed
    dim_result = th.level_space_dimension(
        g, level, tau, samples=max(4 * level**g, 16), radius=config.radius,
        seed=_derive_seed(config.seed, f"theta-rank-{g}-{level}"),
    )
    rng = np.random.default_rng(_derive_seed(config.seed, f"theta-{g}-{level}"))
    zs = rng.random((THETA_POINTS, g)) + 0.2j * rng.random((THETA_POINTS, g))
    t1 = th.riemann_type_of(spec)
    gens = t1.lattice.generators
    # one batched series per characteristic: the points and their 2g shifts
    base1, shifted1 = th.values_with_shifts(spec, zs, gens, config.radius)

    qp_rows = []
    worst_qp = 0.0
    for gen_index in range(2 * g):
        for row in range(THETA_POINTS):
            res = th.shift_residual(
                t1.factor(zs[row], gen_index), base1[row], shifted1[gen_index][row]
            )
            worst_qp = max(worst_qp, res)
            qp_rows.append(
                {
                    "generator": gen_index,
                    "z": [[float(v.real), float(v.imag)] for v in zs[row]],
                    "residual": res,
                }
            )

    # multiplicativity: product of two characteristics obeys the summed type
    spec2 = th.RiemannThetaSpec(tau=tau, alpha=np.full(g, 0.5), beta=np.zeros(g))
    tsum = th.multiply_types(t1, th.riemann_type_of(spec2))
    mult_rows = 8
    base2, shifted2 = th.values_with_shifts(spec2, zs[:mult_rows], gens, config.radius)
    worst_mult = 0.0
    for gen_index in range(2 * g):
        for row in range(mult_rows):
            h1, h2 = base1[row], base2[row]
            lhs = shifted1[gen_index][row] * shifted2[gen_index][row]
            rhs = tsum.factor(zs[row], gen_index) * h1 * h2
            worst_mult = max(
                worst_mult, abs(lhs - rhs) / max(abs(h1 * h2), th.RESIDUAL_FLOOR)
            )

    expected_dim = level**g
    ok = (
        worst_qp < config.tolerances["theta"]
        and worst_mult < config.tolerances["theta_mult"]
        and dim_result == expected_dim
    )
    return {
        "spec": f"theta(g={g}, level={level})",
        "version": __version__,
        "seed": config.seed,
        "tolerances": config.tolerances,
        "radius": config.radius,
        "samples": qp_rows,
        "multiplicativity": worst_mult,
        "level_dimension": dim_result,
        "expected_dimension": expected_dim,
        "verdict": "pass" if ok else "fail",
        "reasons": [] if ok else ["theta residuals exceed tolerance"],
    }


# --- command line -------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frobenius-verify",
        description="Verify flat-Kahler / Frobenius structure from chart data.",
    )
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    parser.add_argument(
        "--lambda-grid",
        default=",".join(str(v) for v in DEFAULT_LAMBDA_GRID),
        help="comma-separated pencil parameters",
    )
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
    p_theta.add_argument("--genus", type=int, default=1)
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
    try:
        grid = tuple(float(v) for v in args.lambda_grid.split(",") if v.strip())
    except ValueError as exc:
        raise SpecError(f"bad --lambda-grid {args.lambda_grid!r}") from exc
    return Config(
        seed=_resolve_seed(args.seed),
        samples=args.samples,
        lambda_grid=grid,
        radius=args.radius,
        tolerances=tolerances,
    )


def _parse_tau(raw: str, genus: int) -> np.ndarray:
    if not 1 <= genus <= th.MAX_GENUS:
        raise SpecError(f"--genus must be between 1 and {th.MAX_GENUS}, got {genus}")
    raw = raw.strip()
    if raw == "i":
        return 1j * np.eye(genus)
    if raw.startswith("diag:"):
        try:
            parts = [float(v) for v in raw[len("diag:") :].split(",")]
        except ValueError:
            raise SpecError("--tau diag entries must be finite numbers") from None
        tau = 1j * np.diag([_number(v, "--tau diag entries") for v in parts])
    else:
        try:
            data = json.loads(raw)
        except ValueError as exc:
            raise SpecError(f"--tau is not i, diag:... or a JSON matrix: {exc}") from None
        if not isinstance(data, list) or not data:
            raise SpecError("--tau must be a non-empty JSON list of rows")
        tau = np.array([_pairs(row, len(data), "--tau row") for row in data])
    if np.max(np.abs(tau)) > th.MAX_TAU:
        raise SpecError(f"--tau entries must have modulus at most {th.MAX_TAU:g}")
    return tau


def _print_report(payload, as_json: bool) -> None:
    if as_json:
        sys.stdout.write(to_json(payload))
        return
    items = payload if isinstance(payload, list) else [payload]
    for item in items:
        d = item.to_dict() if isinstance(item, Report) else item
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
                spec = load_manifold_spec(payload)
            except (OSError, ValueError, RecursionError, SpecError) as exc:
                sys.stderr.write(f"error: {exc}\n")
                return EXIT_INPUT
            report = run_verify(spec, config)
            _print_report(report, args.as_json)
            if report.verdict == "error":
                return EXIT_NUMERIC
            if spec.expected_class is None:
                return EXIT_OK
            expected = EXPECTED_VERDICT.get(spec.expected_class, spec.expected_class)
            return EXIT_OK if report.verdict == expected else EXIT_MISMATCH

        if args.command == "catalog":
            reports = run_catalog(args.name_filter, config)
            _print_report(reports, args.as_json)
            return catalog_exit_code(reports)

        if args.command == "theta":
            try:
                tau = _parse_tau(args.tau, args.genus)
                report = run_theta(tau, args.level, config)
            except (th.ThetaError, ValueError, SpecError) as exc:
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
