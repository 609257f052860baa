import contextlib
import dataclasses
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frobenius_verify.cli import (
    MAX_SAMPLES,
    Config,
    ManifoldSpec,
    SpecError,
    catalog_exit_code,
    load_manifold_spec,
    main,
    run_catalog,
    run_theta,
    run_verify,
    to_json,
)
from frobenius_verify.theta import MAX_RADIUS

CFG = Config(samples=12)

TORUS_SPEC = {
    "name": "torus-2",
    "dim": 2,
    "potential": "z1*zbar1 + z2*zbar2",
    "sample_domain": {"re": [[-0.4, 0.4], [-0.4, 0.4]], "im": [[-0.4, 0.4], [-0.4, 0.4]]},
    "lattice": {
        "generators": [
            [[1, 0], [0, 0]],
            [[0, 1], [0, 0]],
            [[0, 0], [1, 0]],
            [[0, 0], [0, 1]],
        ]
    },
    "expected_class": "torus",
}

FS_SPEC = {
    "name": "fubini-study-2",
    "dim": 2,
    "potential": "log(1 + z1*zbar1 + z2*zbar2)",
    "sample_domain": {"re": [[-0.45, 0.45], [-0.45, 0.45]], "im": [[-0.45, 0.45], [-0.45, 0.45]]},
}

ROTATION_SPEC = {
    "name": "z2-rotation",
    "dim": 1,
    "potential": "z1*zbar1",
    "sample_domain": {"re": [[-0.4, 0.4]], "im": [[-0.4, 0.4]]},
    "lattice": {"generators": [[[1, 0]], [[0, 1]]]},
    "group": {
        "elements": [
            {"A": [[[1, 0]]], "t": [[0, 0]]},
            {"A": [[[-1, 0]]], "t": [[0, 0]]},
        ]
    },
}


def test_torus_spec_end_to_end():
    report = run_verify(load_manifold_spec(TORUS_SPEC), CFG)
    assert report.verdict == "frobenius"
    for sample in report.samples:
        assert sample["max_curvature"] < 1e-9
        assert sample["wdvv"] < 1e-9
        for row in sample["pencil"]:
            assert row["curvature_norm"] < 1e-9


def test_fubini_study_not_frobenius():
    report = run_verify(load_manifold_spec(FS_SPEC), CFG)
    assert report.verdict == "not-frobenius"
    assert max(s["wdvv"] for s in report.samples) > 1e-2


def test_rotation_action_not_free():
    report = run_verify(load_manifold_spec(ROTATION_SPEC), CFG)
    assert report.verdict == "not-frobenius"
    assert "action not free" in report.reasons
    assert report.group["free"] is False
    assert report.group["fixed_point_witness"] is not None


def test_catalog_full_run():
    reports = run_catalog(None, Config(samples=8))
    geometric = [r for r in reports if "expected_verdict" in r]
    assert len(geometric) == 8
    assert all(r["verdict"] == "frobenius" for r in geometric)
    assert catalog_exit_code(reports) == 0


def test_catalog_filter_torus():
    reports = run_catalog("torus", Config(samples=4))
    assert len(reports) == 1
    assert reports[0]["spec"] == "torus"


def test_catalog_filter_hopf():
    reports = run_catalog("hopf", Config(samples=4))
    assert len(reports) == 1
    assert reports[0]["kind"] == "negative-control"
    assert reports[0]["flags"] == {
        "frobenius": False,
        "affine": True,
        "kahler": False,
    }


def test_catalog_determinism_bytes():
    r1 = run_catalog(None, Config(samples=6, seed=777))
    r2 = run_catalog(None, Config(samples=6, seed=777))
    assert to_json(r1) == to_json(r2)


def test_catalog_seed_changes_points():
    r1 = run_catalog("torus", Config(samples=6, seed=1))
    r2 = run_catalog("torus", Config(samples=6, seed=2))
    assert to_json(r1) != to_json(r2)


def test_run_theta_report():
    import time

    start = time.monotonic()
    report = run_theta(np.array([[1j]]), 3, Config())
    elapsed = time.monotonic() - start
    assert report["verdict"] == "pass"
    assert report["level_dimension"] == 3
    assert all(s["residual"] < 1e-8 for s in report["samples"])
    assert elapsed < 5.0


def test_spec_errors():
    with pytest.raises(SpecError):
        load_manifold_spec({"name": "x", "dim": 1})  # missing keys
    bad = dict(TORUS_SPEC)
    bad["potential"] = "z1*(zbar1"
    with pytest.raises(SpecError):
        load_manifold_spec(bad)
    degenerate = json.loads(json.dumps(TORUS_SPEC))
    degenerate["sample_domain"]["re"][0] = [0.5, 0.5]
    with pytest.raises(SpecError):
        load_manifold_spec(degenerate)
    orphan_group = json.loads(json.dumps(ROTATION_SPEC))
    del orphan_group["lattice"]
    with pytest.raises(SpecError):
        load_manifold_spec(orphan_group)


def test_report_schema_keys():
    report = run_verify(load_manifold_spec(TORUS_SPEC), Config(samples=4))
    payload = json.loads(to_json(report))
    for key in ("spec", "version", "seed", "tolerances", "samples", "group",
                "verdict", "reasons", "disclaimer"):
        assert key in payload


def test_main_verify_exit_codes(tmp_path, capsys):
    path = tmp_path / "torus.json"
    path.write_text(json.dumps(TORUS_SPEC))
    assert main(["--samples", "4", "verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "frobenius" in out

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["verify", str(bad)]) == 2

    # a flat potential declared as negative-control mismatches
    mismatch = dict(TORUS_SPEC)
    mismatch["expected_class"] = "negative-control"
    path2 = tmp_path / "mismatch.json"
    path2.write_text(json.dumps(mismatch))
    assert main(["--samples", "4", "verify", str(path2)]) == 1


def test_main_json_output_deterministic(tmp_path, capsys):
    path = tmp_path / "torus.json"
    path.write_text(json.dumps(TORUS_SPEC))
    assert main(["--samples", "4", "--seed", "5", "--json", "verify", str(path)]) == 0
    first = capsys.readouterr().out
    assert main(["--samples", "4", "--seed", "5", "--json", "verify", str(path)]) == 0
    second = capsys.readouterr().out
    assert first == second
    json.loads(first)  # valid JSON


def test_main_theta_and_catalog(capsys):
    assert main(["--samples", "4", "theta", "--genus", "1", "--tau", "i",
                 "--level", "2"]) == 0
    capsys.readouterr()
    assert main(["--samples", "4", "catalog", "--catalog", "torus"]) == 0


def test_main_theta_invalid_tau(capsys):
    code = main(["theta", "--tau", "[[[1.0, 0.0]]]", "--genus", "1"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_env_seed_override(tmp_path, monkeypatch, capsys):
    path = tmp_path / "torus.json"
    path.write_text(json.dumps(TORUS_SPEC))
    monkeypatch.setenv("FROBENIUS_VERIFY_SEED", "4242")
    assert main(["--samples", "4", "--json", "verify", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["seed"] == 4242
    # explicit flag wins over the environment
    assert main(["--samples", "4", "--seed", "7", "--json", "verify", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["seed"] == 7


def test_tolerance_flag_override(tmp_path, capsys):
    path = tmp_path / "fs.json"
    path.write_text(json.dumps(FS_SPEC))
    # with an absurdly loose structural tolerance even the curved example passes
    assert (
        main(
            ["--samples", "4", "--tolerance", "structural=100", "--json",
             "verify", str(path)]
        )
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "frobenius"
    assert payload["tolerances"]["structural"] == 100.0


DEGENERATE_SPEC = {
    "name": "degenerate",
    "dim": 2,
    "potential": "z1*zbar1 + (z2*zbar2)^2",
    "sample_domain": {
        "re": [[-0.4, 0.4], [-1e-5, 1e-5]],
        "im": [[-0.4, 0.4], [-1e-5, 1e-5]],
    },
}


def test_degenerate_sample_reports_error():
    report = run_verify(load_manifold_spec(DEGENERATE_SPEC), Config(samples=4))
    assert report.verdict == "error"
    assert any("error" in s for s in report.samples)


def test_main_numeric_error_exit_code(tmp_path, capsys):
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(DEGENERATE_SPEC))
    assert main(["--samples", "4", "verify", str(path)]) == 3
    assert "error" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, field",
    [
        (["--samples", "0"], "samples"),
        (["--samples", "-3"], "samples"),
        (["--lambda-grid=,"], "lambda grid"),
        (["--tolerance", "structural=nan"], "structural"),
        (["--tolerance", "structural=inf"], "structural"),
        (["--tolerance", "structural=0"], "structural"),
        (["--tolerance", "isometry=-1e-9"], "isometry"),
        (["--tolerance", "structural=tight"], "structural"),
        (["--radius", "0"], "--radius"),
        (["--radius", str(MAX_RADIUS + 1)], "--radius"),
        (["--samples", str(MAX_SAMPLES + 1)], "--samples"),
        (["--samples", str(10**30)], "--samples"),
        (["--lambda-grid=nan"], "--lambda-grid"),
        (["--lambda-grid=inf"], "--lambda-grid"),
        (["--lambda-grid=1,-inf"], "--lambda-grid"),
        (["--lambda-grid=1e999"], "--lambda-grid"),
        (["--tolerance", "fd=1e-4"], "fd"),
    ],
)
def test_input_without_evidence_is_rejected(tmp_path, capsys, argv, field):
    path = tmp_path / "torus.json"
    path.write_text(json.dumps(TORUS_SPEC))
    assert main(argv + ["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert field in captured.err


@pytest.mark.parametrize(
    "argv, field",
    [
        (["--tau", "[[1]]"], "--tau"),
        (["--tau", "[[[1, 0], [0, 1]]]"], "--tau"),
        (["--tau", "[]"], "--tau"),
        (["--tau", "diag:nan"], "--tau"),
        (["--tau", "diag:1,inf"], "--tau"),
        (["--tau", "diag:1,x"], "--tau"),
        (["--tau", "[[1"], "--tau"),
        (["--genus", "0"], "--genus"),
        (["--tau", "diag:1e308"], "--tau"),
        (["--tau", "[[[1e308, 1]]]"], "--tau"),
        (["--tau", "diag:100.5"], "--tau"),
        (["--genus", "3"], "--genus"),
        (["--genus", str(10**40)], "--genus"),
    ],
)
def test_theta_input_fault_names_the_flag(capsys, argv, field):
    assert main(["theta"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert field in captured.err


def test_samples_cap_is_checked_before_sampling():
    assert Config(samples=MAX_SAMPLES).samples == MAX_SAMPLES
    for samples in (MAX_SAMPLES + 1, 10**30):
        with pytest.raises(SpecError, match="--samples"):
            Config(samples=samples)
    for grid in ((math.nan,), (1.0, math.inf), (-math.inf,)):
        with pytest.raises(SpecError, match="--lambda-grid"):
            Config(lambda_grid=grid)


def _verify_json(tmp_path, capsys, spec, samples, *flags):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code = main(["--samples", str(samples), *flags, "--json", "verify", str(path)])
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("spec", [TORUS_SPEC, FS_SPEC], ids=["flat", "curved"])
def test_pencil_overflow_is_an_error_record(tmp_path, capsys, spec):
    """lambda^2 overflows at 1e160: on the flat torus inf * 0 gives NaN,
    which no verdict may rest on."""
    code, report = _verify_json(tmp_path, capsys, spec, 3, "--lambda-grid=1,1e160")
    assert code == 3
    assert report["verdict"] == "error"
    assert [s["error"] for s in report["samples"]] == ["non-finite pencil curvature"] * 3


def test_exp_overflow_is_an_error_record_at_its_sample(tmp_path, capsys):
    spec = {
        "name": "exp-overflow",
        "dim": 1,
        "potential": "exp(3000*z1*zbar1)",
        "sample_domain": {"re": [[-0.6, 0.6]], "im": [[-0.6, 0.6]]},
    }
    code, report = _verify_json(tmp_path, capsys, spec, 8)
    assert code == 3
    assert report["verdict"] == "error"
    overflowed = []
    for sample in report["samples"]:
        ((x, y),) = sample["point"]
        exponent = 3000 * (x * x + y * y)
        if exponent > math.log(np.finfo(float).max):
            assert sample["error"].startswith("exp argument (")
            assert sample["error"].endswith(") out of range")
            overflowed.append(sample["index"])
        elif exponent < 600:
            assert "error" not in sample
    assert 0 < len(overflowed) < len(report["samples"])


def test_non_finite_partials_are_error_records(tmp_path, capsys):
    spec = dict(FS_SPEC, name="non-finite", potential="(1e200*z1*zbar1)^2 + z2*zbar2")
    code, report = _verify_json(tmp_path, capsys, spec, 4)
    assert code == 3
    assert report["verdict"] == "error"
    assert [s["error"] for s in report["samples"]] == [
        "non-finite partials of the potential"
    ] * 4


@pytest.mark.parametrize(
    "potential", ["0 - z1*zbar1 - z2*zbar2", "z1*zbar1 - z2*zbar2"]
)
def test_metric_not_positive_definite_is_not_frobenius(potential):
    spec = dict(FS_SPEC, name="indefinite", potential=potential)
    report = run_verify(load_manifold_spec(spec), Config(samples=4))
    assert report.verdict == "not-frobenius"
    assert report.reasons == ["metric not positive definite at sampled points"]
    assert not any(s["positive_definite"] for s in report.samples)
    # every other check passes: the gate alone decides
    assert all(s["max_curvature"] == 0.0 for s in report.samples)


def test_non_finite_structure_constants_give_an_error_record(monkeypatch):
    from frobenius_verify import cli

    metric_batch = cli.kahler.metric_batch

    def poisoned(potential, points):
        md, failures = metric_batch(potential, points)
        christoffel = md.christoffel.copy()
        christoffel[1, 0, 0, 0] = np.nan
        return dataclasses.replace(md, christoffel=christoffel), failures

    monkeypatch.setattr(cli.kahler, "metric_batch", poisoned)
    report = run_verify(load_manifold_spec(FS_SPEC), Config(samples=4))
    assert report.verdict == "error"
    assert [s.get("error") for s in report.samples] == [
        None, "non-finite structure constants", None, None
    ]


def _two_dim(name, potential, **extra):
    box = [[-0.4, 0.4], [-0.4, 0.4]]
    return dict(name=name, dim=2, potential=potential,
                sample_domain={"re": box, "im": box}, **extra)


SQUARE_LATTICE_2 = TORUS_SPEC["lattice"]
IDENTITY_2 = {"A": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]], "t": [[0, 0], [0, 0]]}
FLAT_2 = "z1*zbar1 + z2*zbar2"
# the cyclic group of rotations by 60 degrees: finite, but Z + iZ is not
# mapped onto itself
ROTATION_60 = [
    {"A": [[[math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)]]], "t": [[0, 0]]}
    for k in range(6)
]


def _linear_group(*rows):
    """Identity plus the linear map with the given real 2x2 matrix."""
    a = [[[v, 0] for v in row] for row in rows]
    return {"elements": [IDENTITY_2, {"A": a, "t": [[0, 0], [0, 0]]}]}


@pytest.mark.parametrize(
    "spec, verdict, reasons",
    [
        (_two_dim("flat", FLAT_2), "frobenius", []),
        (_two_dim("non-hermitian", FLAT_2 + " + 0.000000005*z1*zbar2"), "not-frobenius",
         ["structural identities violated"]),
        (_two_dim("curved", "log(1 + z1*zbar1 + z2*zbar2)"), "not-frobenius",
         ["curvature or associativity constraint violated"]),
        (_two_dim("translation", FLAT_2, lattice=SQUARE_LATTICE_2, group={"elements": [
            IDENTITY_2, {"A": IDENTITY_2["A"], "t": [[0.5, 0], [0, 0]]}]}),
         "not-frobenius", ["action contains translations"]),
        (_two_dim("shear", FLAT_2, lattice=SQUARE_LATTICE_2, group={"elements": [
            IDENTITY_2, {"A": [[[1, 0], [1, 0]], [[0, 0], [1, 0]]], "t": [[0, 0], [0, 0]]}]}),
         "not-frobenius", ["action not free", "group check failed: closure",
                           "group check failed: finite", "group check failed: isometry"]),
        (_two_dim("log-domain", "log(z1*zbar1) + z2*zbar2"), "error",
         ["degenerate metric or domain error at sampled points"]),
        (dict(ROTATION_SPEC, name="rotation-60", group={"elements": ROTATION_60}),
         "not-frobenius", ["group check failed: lattice_stable"]),
        (_two_dim("contracting", FLAT_2, lattice=SQUARE_LATTICE_2,
                  group=_linear_group([0.5, 0], [0, 1])),
         "not-frobenius", ["group check failed: closure", "group check failed: finite",
                           "group check failed: isometry",
                           "group check failed: lattice_stable"]),
        (_two_dim("tiny", FLAT_2, lattice=SQUARE_LATTICE_2,
                  group=_linear_group([1e-7, 0], [0, 1])),
         "not-frobenius", ["group check failed: closure", "group check failed: finite",
                           "group check failed: isometry",
                           "group check failed: lattice_stable"]),
        (_two_dim("hyperbolic", FLAT_2, lattice=SQUARE_LATTICE_2,
                  group=_linear_group([2, 1], [1, 1])),
         "not-frobenius", ["action not free", "group check failed: closure",
                           "group check failed: finite", "group check failed: isometry"]),
    ],
    ids=lambda v: v["name"] if isinstance(v, dict) else None,
)
def test_verdict_branches(spec, verdict, reasons):
    report = run_verify(load_manifold_spec(spec), Config(samples=8))
    assert (report.verdict, report.reasons) == (verdict, reasons)


def test_sample_record_keys():
    report = run_verify(load_manifold_spec(FS_SPEC), Config(samples=2))
    assert {key for sample in report.samples for key in sample} == {
        "index", "point", "metric_hermiticity", "min_singular", "condition_number",
        "max_curvature", "wdvv", "ricci_hermiticity", "max_ricci",
        "associator", "positive_definite", "unit_exists", "pencil",
    }
    assert {key for s in report.samples for row in s["pencil"] for key in row} == {
        "lambda", "curvature_norm", "trace_norm",
    }


def _with(**changes):
    spec = json.loads(json.dumps(TORUS_SPEC))
    spec.update(changes)
    return spec


def _with_domain(part, ranges):
    spec = _with()
    spec["sample_domain"][part] = ranges
    return spec


def _with_group(elements):
    return _with(group={"elements": elements})


@pytest.mark.parametrize(
    "payload, field",
    [
        (_with(sample_domain=[[-1, 1], [-1, 1]]), "sample_domain"),
        (_with_domain("re", [["a", 1], [-1, 1]]), "sample_domain.re"),
        (_with_domain("im", [[-1, 1], [1]]), "sample_domain.im"),
        (_with_domain("re", [[-0.4, 1e400], [-1, 1]]), "sample_domain.re"),
        ([TORUS_SPEC], "spec"),
        (_with(dim="x"), "dim"),
        (_with(dim=1.5), "dim"),
        (_with(lattice={"generators": SQUARE_LATTICE_2["generators"][:3]}), "lattice"),
        (_with(lattice=[[["a", 0], [0, 0]]] + SQUARE_LATTICE_2["generators"][1:]), "lattice"),
        (_with(lattice=[SQUARE_LATTICE_2["generators"][0]] * 4), "lattice"),
        (_with_group([{"A": [[[1, 0]]], "t": [[0, 0], [0, 0]]}]), "group element A"),
        (_with_group(3), "group elements"),
        (_with_group([IDENTITY_2, 5]), "group element"),
        (_with(potential="(" * 2000 + FLAT_2 + ")" * 2000), "potential"),
        (_with(potential="1e999*" + FLAT_2), "potential"),
        (_with(expected_class=["torus"]), "expected_class"),
    ],
)
def test_malformed_spec_is_an_input_error(tmp_path, capsys, payload, field):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(payload))
    assert main(["--samples", "2", "verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert field in captured.err


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


def _paths(value, prefix=()):
    """Every position inside a JSON value, as a tuple of keys/indices."""
    yield prefix
    if isinstance(value, dict):
        items = value.items()
    else:
        items = enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _replaced(spec, path, value):
    if not path:
        return value
    out = json.loads(json.dumps(spec))
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


GROUP_SPEC = dict(ROTATION_SPEC, name="rotation")


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(JSON_VALUES)
@example(None)
@example(True)
@example(3)
@example(-1.5)
@example("z1")
@example([])
@example({})
def test_spec_loading_never_fails_outside_spec_error(value):
    """Any JSON gives a typed spec or a SpecError: a valid group spec with
    the value put at each of its positions in turn (the whole spec
    included)."""
    for path in _paths(GROUP_SPEC):
        try:
            spec = load_manifold_spec(_replaced(GROUP_SPEC, path, value))
        except SpecError:
            continue
        assert isinstance(spec, ManifoldSpec)
        assert isinstance(spec.name, str) and isinstance(spec.potential, str)
        assert type(spec.dim) is int
        assert spec.expected_class is None or isinstance(spec.expected_class, str)


# --- fuzzing main -----------------------------------------------------------

BAD_NUMBERS = st.sampled_from(
    ["nan", "inf", "-inf", "1e999", "1e308", "1e160", "-1", "0", "1.5", "x", ""]
)


def _mostly(valid, bad):
    """``valid`` about seven times in eight, else ``bad`` (hypothesis draws
    the ends of an integer range more often than the middle)."""
    return st.integers(0, 7).flatmap(lambda k: bad if k == 3 else valid)


def _count(valid):
    """A count flag: small and valid, or above any cap, non-finite or malformed."""
    huge = st.integers(MAX_SAMPLES + 1, 10**40)
    return _mostly(valid, st.one_of(huge, BAD_NUMBERS, st.text(max_size=4))).map(str)


def _small(valid):
    """A genus or level: valid, or out of range without being a size that
    would allocate if it were accepted, or malformed."""
    return st.one_of(valid, st.sampled_from([10**40, -1, 0, 5])).map(str) | BAD_NUMBERS


HUGE = st.sampled_from([1e160, -1e200, 1.7e308, 1e-320])
LAMBDA_GRIDS = st.one_of(
    st.lists(st.one_of(st.floats(-3, 3), HUGE), min_size=1, max_size=3),
    st.lists(st.one_of(st.floats(), BAD_NUMBERS), max_size=3),
).map(lambda xs: ",".join(map(str, xs)))
TOLERANCES = st.lists(
    _mostly(
        st.tuples(
            st.sampled_from(["structural", "theta", "theta_mult", "isometry"]),
            st.one_of(st.floats(1e-12, 1e3), HUGE),
        ),
        st.tuples(
            st.sampled_from(["structural", "isometry", "fd", "", "x=1"]),
            st.one_of(st.floats(), BAD_NUMBERS),
        ),
    ).map(lambda pair: f"{pair[0]}={pair[1]}"),
    max_size=2,
).map(lambda items: [tok for item in items for tok in ("--tolerance", item)])
TAUS = st.one_of(
    st.just("i"),
    st.lists(st.one_of(st.floats(0.5, 3), HUGE, BAD_NUMBERS), min_size=1, max_size=2).map(
        lambda xs: "diag:" + ",".join(map(str, xs))
    ),
    st.sampled_from(["[[[0.1, 1]]]", "[[[0.2, 1], [0, 0.1]], [[0, 0.1], [0.3, 2]]]",
                     "[[[0, 1e308]]]", "[[[1e308, 1]]]", "[[[0, -1]]]", "[[1]]", "[]", "{}",
                     "[[[1, 1], [0, 0]], [[0, 0], [1, 1]]]"]),
    st.text(max_size=8),
)


def _subcommand(files):
    verify = st.sampled_from(files).map(lambda path: ["verify", path])
    catalog = st.one_of(
        st.just(["catalog"]),
        st.sampled_from(["torus", "Z4", "hopf", "none-such", ""]).map(
            lambda name: ["catalog", "--catalog", name]
        ),
    )
    theta = st.tuples(
        st.just(["theta"]),
        _small(st.integers(1, 2)).map(lambda v: ["--genus", v]),
        TAUS.map(lambda v: ["--tau", v]),
        _small(st.integers(1, 3)).map(lambda v: ["--level", v]),
    ).map(lambda parts: [tok for part in parts for tok in part])
    junk = st.lists(
        st.sampled_from(["verify", "theta", "--json", "--genus", "--help", "-x", "1"]),
        max_size=3,
    )
    return _mostly(st.one_of(theta, verify, catalog), junk)


@pytest.fixture(scope="module")
def spec_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, payload in (("torus", TORUS_SPEC), ("fs", FS_SPEC), ("rotation", ROTATION_SPEC)):
        (root / f"{name}.json").write_text(json.dumps(payload))
    (root / "broken.json").write_text('{"name": ')
    return [str(root / name) for name in
            ("torus.json", "fs.json", "rotation.json", "broken.json", "missing.json")]


def _run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: 2 on bad usage, 0 for --help
            code = exc.code
    return code, err.getvalue()


def _argvs(files):
    flags = st.tuples(
        _count(st.integers(1, 4)).map(lambda v: ["--samples", v]),
        _count(st.integers(1, 5)).map(lambda v: ["--radius", v]),
        st.one_of(st.just([]), _count(st.integers(-3, 10**20)).map(lambda v: ["--seed", v])),
        st.one_of(st.just([]), LAMBDA_GRIDS.map(lambda v: [f"--lambda-grid={v}"])),
        TOLERANCES,
        _mostly(st.sampled_from([[], ["--json"], ["--text"]]), st.just(["--json", "--text"])),
        _subcommand(files),
    )
    return flags.map(lambda parts: [tok for part in parts for tok in part])


def test_main_fuzz_exits_0_to_3_without_internal_error(spec_files):
    """Every argv gives exit code 0-3 and never reaches ``internal error``.
    ``--samples`` stays at most 4 and ``--radius`` at most 5 (or outside
    their ranges), so no example computes much.  The explicit examples
    are inputs that once reached a verdict or the internal-error path
    through an overflow."""
    torus = spec_files[0]

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_argvs(spec_files))
    @example(["--samples", "2", "--lambda-grid=1e160", "verify", torus])
    @example(["--samples", "2", "--lambda-grid=nan", "catalog", "--catalog", "Z4"])
    @example(["--samples", "2", "theta", "--tau", "diag:1e308"])
    @example(["--samples", "2", "theta", "--tau", "[[[1e308, 1]]]", "--level", "4"])
    @example(["--samples", "2", "theta", "--genus", str(10**40)])
    @example(["--radius", "200", "theta", "--tau", "diag:1e-300", "--level", "4"])
    def check(argv):
        code, err = _run_main(argv)
        assert code in (0, 1, 2, 3), (argv, code, err)
        assert "internal error" not in err, (argv, err)

    check()
