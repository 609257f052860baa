import contextlib
import dataclasses
import io
import json
import math
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from helpers import (
    failed_classes_from_rows,
    reference_sample_points,
    reference_sample_records,
)

from frobenius_verify import cli, theta as th
from frobenius_verify.catalog import CatalogEntry, hyperelliptic_catalog
from frobenius_verify.cli import (
    CHECKS,
    EXPECTED_VERDICT,
    MAX_DIM,
    MAX_GROUP_ELEMENTS,
    MAX_SAMPLES,
    VERDICTS,
    Config,
    SpecError,
    _build_parser,
    catalog_exit_code,
    entry_to_spec,
    load_manifold_spec,
    main,
    run_catalog,
    run_theta,
    run_verify,
    sample_points,
    to_json,
)
from frobenius_verify.expr import PotentialExpr, parse
from frobenius_verify.report import RowTable
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

# Fubini-Study at 1e-308: H ~ 1e308, so Ric @ H overflows the Einstein
# defect at every sample though the metric is fine
TINY_FS_SPEC = dict(FS_SPEC, name="fubini-study-1e-308",
                    potential="1e-308*log(1 + z1*zbar1 + z2*zbar2)")

# exp overflows where |z|^2 > log(max float) / 3000: errors among good rows
EXP_OVERFLOW_SPEC = {
    "name": "exp-overflow",
    "dim": 1,
    "potential": "exp(3000*z1*zbar1)",
    "sample_domain": {"re": [[-0.6, 0.6]], "im": [[-0.6, 0.6]]},
}


def test_torus_spec_end_to_end():
    report = run_verify(load_manifold_spec(TORUS_SPEC), CFG)
    assert report["verdict"] == "frobenius"
    for sample in report["samples"]:
        assert sample["max_curvature"] < 1e-9
        assert sample["wdvv"] < 1e-9
        # the pencil's coefficients: flat for every lambda
        for key in ("associator", "mixed_norm", "einstein_defect"):
            assert sample[key] < 1e-9


def test_fubini_study_not_frobenius():
    report = run_verify(load_manifold_spec(FS_SPEC), CFG)
    assert report["verdict"] == "not-frobenius"
    assert max(s["wdvv"] for s in report["samples"]) > 1e-2


def test_rotation_action_not_free():
    report = run_verify(load_manifold_spec(ROTATION_SPEC), CFG)
    assert report["verdict"] == "not-frobenius"
    assert "action not free" in report["reasons"]
    assert report["group"]["free"] is False
    assert report["group"]["fixed_point_witness"] is not None


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


def test_catalog_flag_rows_are_report_rows():
    reports = run_catalog("", Config(samples=2))
    rows = [r for r in reports if "kind" in r]
    assert len(reports) == 16 and len(rows) == 8
    keys = {"spec", "version", "seed", "kind", "flags", "metadata", "verdict", "matches_expected"}
    assert all(set(r) == keys for r in rows)
    wendt = {r["spec"]: r for r in rows}["hantzsche-wendt"]
    assert wendt["kind"] == wendt["verdict"] == "metadata"
    assert wendt["flags"] is None


def test_catalog_filter_matching_nothing_is_an_input_error(capsys):
    with pytest.raises(SpecError, match="--catalog"):
        run_catalog("none-such", Config(samples=2))
    assert main(["catalog", "--catalog", "Z5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --catalog 'Z5' matches no catalog row\n"


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


@pytest.mark.parametrize("name", [*EXPECTED_VERDICT, *VERDICTS])
def test_every_expected_class_loads(name):
    assert load_manifold_spec(dict(TORUS_SPEC, expected_class=name)).expected_class == name


def test_report_schema_keys():
    report = run_verify(load_manifold_spec(TORUS_SPEC), Config(samples=4))
    payload = json.loads(to_json(report))
    for key in ("spec", "version", "seed", "tolerances", "samples", "group",
                "verdict", "reasons", "disclaimer"):
        assert key in payload


def test_verify_parses_the_potential_once(tmp_path, capsys, monkeypatch):
    calls = []

    def counted(text, dim):
        calls.append(text)
        return parse(text, dim)

    monkeypatch.setattr(cli, "parse", counted)
    code, report = _verify_json(tmp_path, capsys, TORUS_SPEC, 2)
    assert (code, report["verdict"]) == (0, "frobenius")
    assert calls == [TORUS_SPEC["potential"]]


@pytest.mark.parametrize("entry", hyperelliptic_catalog(), ids=lambda e: e.name)
def test_catalog_entry_verifies_as_its_spec_file(entry):
    """The ``catalog`` command verifies the entry itself, a spec file holds
    what ``entry_to_spec`` writes: both give one report, byte for byte."""
    spec = json.loads(json.dumps(dataclasses.asdict(entry_to_spec(entry))))
    config = Config(samples=16)
    direct = to_json(run_verify(entry, config))
    assert direct == to_json(run_verify(load_manifold_spec(spec), config))
    assert json.loads(direct)["verdict"] == "frobenius"


# --- report emission ---------------------------------------------------------


def _json_dumps(payload) -> str:
    """The format ``to_json`` promises, from the standard library."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# surrogates included: a lone one is written as a \ud8xx escape
JSON_TEXT = st.one_of(
    st.text(st.characters(exclude_categories=()), max_size=6),
    st.sampled_from(["", '"', "\\", "\x00\x1f\x7f", "\ud800", "\udfff", "é", " ", "𝔽"]),
)
JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**80), 2**80),
    st.floats(),
    st.floats().map(np.float64),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 2**70,
                     np.float64(math.nan), np.float64(-math.inf)]),
    JSON_TEXT,
)
JSON_PAYLOADS = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(JSON_TEXT, inner, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(JSON_PAYLOADS)
@example({"a": [], "b": {}, "c": (), "": [[{}]]})
@example([math.nan, math.inf, -math.inf, -0.0, np.float64(0.1), 2**70, True, None])
def test_to_json_matches_json_dumps(payload):
    assert to_json(payload) == _json_dumps(payload)


@pytest.mark.parametrize("value", [1j, np.int64(1), np.bool_(True), {1, 2}, b"x", object()])
def test_to_json_rejects_what_json_rejects(value):
    for payload in (value, [value], {"k": value}):
        with pytest.raises(TypeError):
            _json_dumps(payload)
        with pytest.raises(TypeError):
            to_json(payload)


def test_to_json_matches_json_dumps_on_reports():
    report = run_verify(load_manifold_spec(ROTATION_SPEC), Config(samples=3))
    assert to_json(report) == _json_dumps(report)
    reports = run_catalog(None, Config(samples=2))
    # catalog metadata holds np.float64 values
    notes = [r["metadata"]["absorbed_translation"] for r in reports
             if "absorbed_translation" in r.get("metadata", {})]
    assert notes and type(notes[0][0][0]) is np.float64
    assert to_json(reports) == _json_dumps(reports)
    theta = run_theta(np.diag([1j, 2j]), 2, Config())
    assert to_json(theta) == _json_dumps(theta)
    mixed = run_verify(load_manifold_spec(EXP_OVERFLOW_SPEC), Config(samples=8))
    assert {"error" in row for row in mixed["samples"]} == {True, False}
    assert to_json(mixed) == _json_dumps(mixed)


# one column per report key, with its dtype, as _sample_columns gives them
SAMPLE_COLUMN_DTYPES = {
    key: col.dtype
    for key, col in cli._sample_columns(
        parse("z1*zbar1", 1), np.zeros((1, 1))
    )[1].items()
}
SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308]
ERROR_TEXT = st.one_of(
    JSON_TEXT, st.sampled_from(["exp argument (1e+308) out of range", '100% "%s" %(k)d \\'])
)


@st.composite
def _special_floats(draw):
    """``floats(rng, shape)``: floats of every scale, holding drawn special
    values (non-finite, signed zero, subnormal, huge) at random places."""
    specials = draw(st.lists(st.sampled_from(SPECIAL_FLOATS) | st.floats(), max_size=12))

    def floats(rng, shape):
        values = rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 30, shape)
        flat = values.reshape(-1)
        for value in specials if flat.size else ():
            flat[rng.integers(flat.size)] = value
        return values

    return floats


@st.composite
def sample_tables(draw):
    """The arguments of ``_sample_records``: 1-70 points at dims 1-4,
    failures at random indices, and random float and bool columns."""
    dim, count = draw(st.integers(1, 4)), draw(st.integers(1, 70))
    failed = draw(st.sets(st.integers(0, count - 1)))
    failures = {idx: cli.kahler.KahlerError(draw(ERROR_TEXT)) for idx in sorted(failed)}
    good = np.array([idx for idx in range(count) if idx not in failed], dtype=int)
    floats = draw(_special_floats())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = np.empty((count, dim), dtype=np.complex128)
    points.real, points.imag = floats(rng, (count, dim)), floats(rng, (count, dim))
    columns = {}
    shape = (len(good),)
    for key, dtype in SAMPLE_COLUMN_DTYPES.items():
        columns[key] = rng.random(shape) < 0.5 if dtype == bool else floats(rng, shape)
    return points, good, columns, failures


def _zero_table(*signs):
    """``_sample_records`` arguments of 5 points, one failed, whose float
    columns hold zeros signed as ``signs`` gives them, cycled over the rows."""
    zeros = np.array([math.copysign(0.0, signs[k % len(signs)]) for k in range(4)])
    columns = {key: np.ones(4, dtype=bool) if dtype == bool else zeros.copy()
               for key, dtype in SAMPLE_COLUMN_DTYPES.items()}
    points = np.array([[0.1j], [-0.0], [0.2], [0.3 - 0.1j], [0.0]])
    return points, np.array([0, 1, 3, 4]), columns, {2: cli.kahler.KahlerError("e")}


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(sample_tables())
@example(_zero_table(1.0))  # the columns the jet support makes zero
@example(_zero_table(-1.0))
@example(_zero_table(1.0, -1.0))
@example(_zero_table(-1.0, 1.0, 1.0, 1.0))
def test_sample_tables_are_written_as_json_dumps_writes_them(args):
    table = cli._sample_records(*args)
    # as text, where NaN equals NaN
    assert _json_dumps(table) == _json_dumps(reference_sample_records(*args))
    # the rows are written from the columns, at every depth of the report
    payload = {"samples": table, "nested": [[table]]}
    assert to_json(payload) == _json_dumps(payload)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    genus=st.integers(1, 2),
    level=st.integers(1, 2),
    floats=_special_floats(),
    seed=st.integers(0, 2**32 - 1),
)
def test_theta_tables_are_written_as_json_dumps_writes_them(genus, level, floats, seed):
    rng = np.random.default_rng(seed)
    tau = np.diag(1j * rng.uniform(0.5, 2.0, genus))
    shift_residual = th.shift_residual

    def with_specials(*args):
        residuals = shift_residual(*args)
        return floats(rng, residuals.shape) if rng.random() < 0.5 else residuals

    with mock.patch.object(th, "shift_residual", with_specials):
        report = run_theta(tau, level, Config(seed=seed))
    assert len(report["samples"]) == 2 * genus * cli.THETA_POINTS
    assert to_json(report) == _json_dumps(report)


def test_row_table_writes_literal_text_and_empty_tables():
    """A ``%`` in a row's keys is text, not a template slot; an empty
    table is ``[]``; a column of any dtype is written per entry."""
    columns = (np.array([-0.0, math.nan]), np.array([[True], [False]]), np.array([3, -4]),
               np.array(["50%", "%s"], dtype=object))

    def row(x, flags, n, text):
        return {"100%": x, "%s": flags, "%(n)d": [n, {"t": text}]}
    for size, layouts in ((2, [(("percent",), row, [1, 0], columns)]), (0, [])):
        table = RowTable(size, layouts)
        payload = [table, {"deeper": table}]
        assert to_json(payload) == _json_dumps(payload)


def test_parser_is_reused_without_carrying_state(capsys):
    """``main`` builds its parser once; a ``--tolerance`` or ``--seed``
    of one call does not reach the next."""
    argv = ["--json", "theta", "--tau", "diag:1", "--level", "1"]
    assert main(["--tolerance", "theta=1e-3", "--seed", "5"] + argv) == 0
    assert json.loads(capsys.readouterr().out)["tolerances"]["theta"] == 1e-3
    assert main(argv) == 0
    reused = capsys.readouterr().out
    assert _build_parser() is _build_parser()
    _build_parser.cache_clear()
    assert main(argv) == 0
    assert reused == capsys.readouterr().out
    assert json.loads(reused)["tolerances"] == Config().tolerances


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


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="no int-string conversion limit")
def test_exponent_past_the_int_conversion_limit_names_the_potential(tmp_path, capsys):
    digits = "9" * (sys.get_int_max_str_digits() + 1)
    spec = dict(TORUS_SPEC, potential=f"z1*zbar1 + z2*zbar2 + re(z1^{digits})")
    path = tmp_path / "long-exponent.json"
    path.write_text(json.dumps(spec))
    assert main(["--samples", "2", "verify", str(path)]) == 2
    assert "potential does not parse: exponent out of range" in capsys.readouterr().err


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
    assert report["verdict"] == "error"
    assert any("error" in s for s in report["samples"])


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
        (["--lambda-grid=1"], "--lambda-grid"),
        (["--tolerance", "structural=nan"], "structural"),
        (["--tolerance", "structural=inf"], "structural"),
        (["--tolerance", "structural=0"], "structural"),
        (["--tolerance", "isometry=-1e-9"], "isometry"),
        (["--tolerance", "structural=tight"], "structural"),
        (["--radius", "0"], "--radius"),
        (["--radius", str(MAX_RADIUS + 1)], "--radius"),
        (["--samples", str(MAX_SAMPLES + 1)], "--samples"),
        (["--samples", str(10**30)], "--samples"),
        (["--tolerance", "fd=1e-4"], "fd"),
    ],
)
def test_input_without_evidence_is_rejected(tmp_path, capsys, argv, field):
    """A bad value exits 2 naming its field; so does the removed
    ``--lambda-grid`` flag, which argparse rejects."""
    path = tmp_path / "torus.json"
    path.write_text(json.dumps(TORUS_SPEC))
    try:
        code = main(argv + ["verify", str(path)])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
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
        (["--genus", "1", "--tau", "diag:1,2"], "--genus"),
        (["--level", "5"], "--level"),
        (["--level", "0"], "--level"),
        (["--genus", "2", "--tau", "diag:1,2", "--level", str(th.MAX_LEVEL + 1)], "--level"),
        (["--tau", "diag:1,2,3"], "--tau"),
        (["--level", "1", "--tau", "[[[0, 1e-300]]]"], "--tau"),
        (["--tau", "[[[0, 1e-300]]]"], "--tau"),
        (["--tau", "[[[0, 1e-300]]]"], "lattice generators are linearly dependent over R"),
        # json.loads gives up with a RecursionError, not a ValueError
        (["--tau", "[" * 5000], "--tau"),
    ],
)
def test_theta_input_fault_names_the_flag(capsys, argv, field):
    assert main(["theta"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert field in captured.err
    # theta takes no --samples, so no message may advise changing them
    assert "samples" not in captured.err


@pytest.mark.parametrize(
    "argv, spec",
    [
        (["--tau", "diag:1,2"], "theta(g=2, level=1)"),
        (["--genus", "2", "--tau", "diag:1,2"], "theta(g=2, level=1)"),
        (["--genus", "2"], "theta(g=2, level=1)"),
        ([], "theta(g=1, level=1)"),
    ],
)
def test_theta_genus_defaults_to_the_size_of_tau(capsys, argv, spec):
    assert main(["--json", "theta", "--level", "1"] + argv) == 0
    assert json.loads(capsys.readouterr().out)["spec"] == spec


@pytest.mark.parametrize("tau", ["diag:3", "diag:5"])
def test_theta_laws_hold_at_large_im_tau(capsys, tau):
    """Values and shift factors grow like exp(pi Im tau); the residuals
    are relative to the compared values, so rounding stays small."""
    assert main(["--json", "theta", "--tau", tau, "--level", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "pass"
    assert max(row["residual"] for row in report["samples"]) < 1e-13
    assert report["multiplicativity"] < 1e-13


def test_theta_truncation_bound_over_tolerance_fails(capsys):
    """Im tau = 0.05 needs about 30 terms a side; radius 2 cuts the
    series short, and the verdict says so."""
    assert main(["--json", "--radius", "2", "theta", "--tau", "diag:0.05"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "fail"
    assert report["tail_bound"] > report["tolerances"]["theta"]
    assert "theta truncation bound exceeds tolerance at radius 2" in report["reasons"]
    # at z = 0 the cut level series still have finite bounds below |f_k|
    assert report["level_dimension"] == 2


def test_theta_level_count_short_of_level_power_has_its_own_reason(monkeypatch):
    monkeypatch.setattr(th, "level_space_dimension", lambda *args, **kwargs: 3)
    report = run_theta(np.diag([1j, 2j]), 2, Config())
    assert report["verdict"] == "fail"
    assert report["reasons"] == ["theta level count 3 below level^g = 4"]
    assert (report["level_dimension"], report["expected_dimension"]) == (3, 4)


def test_theta_report_tail_bound_is_the_largest_of_its_series(monkeypatch):
    bounds = []

    def recording(spec, z, radius):
        result = original(spec, z, radius)
        bounds.extend(np.ravel(result.tail_bound).tolist())
        return result

    original = th.eval_riemann_theta
    monkeypatch.setattr(th, "eval_riemann_theta", recording)
    tau = np.array([[0.2 + 0.6j, 0.1 + 0.2j], [0.1 + 0.2j, -0.3 + 0.8j]])
    for radius in (3, 30):
        bounds.clear()
        report = run_theta(tau, 2, Config(radius=radius))
        assert len(bounds) == 4 * 2 + 20 * 5 + 8 * 5
        assert report["tail_bound"] == max(bounds)


def test_samples_cap_is_checked_before_sampling():
    assert Config(samples=MAX_SAMPLES).samples == MAX_SAMPLES
    for samples in (MAX_SAMPLES + 1, 10**30):
        with pytest.raises(SpecError, match="--samples"):
            Config(samples=samples)


def test_sample_points_match_a_per_point_loop():
    rng = np.random.default_rng(17)
    for trial in range(40):
        dim = 1 + trial % 4
        domain = {}
        for part in ("re", "im"):
            scale = 10.0 ** rng.uniform(-3, 3, dim)
            lo = rng.uniform(-1, 1, dim) * scale
            domain[part] = [[a, a + w] for a, w in zip(lo, rng.uniform(0.1, 2, dim) * scale)]
        count = int(rng.integers(1, 300))
        got = sample_points(domain, dim, count, trial, f"chart-{trial}")
        want = reference_sample_points(domain, dim, count, trial, f"chart-{trial}")
        assert got.shape == (count, dim)
        assert got.tobytes() == want.tobytes()


def _verify_json(tmp_path, capsys, spec, samples, *flags):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code = main(["--samples", str(samples), *flags, "--json", "verify", str(path)])
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("spec", [TINY_FS_SPEC], ids=["curved"])
def test_pencil_overflow_is_an_error_record(tmp_path, capsys, spec):
    """The pencil's coefficients overflow without any lambda: an error
    record at each sample, with no warning, which no verdict may rest on."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, report = _verify_json(tmp_path, capsys, spec, 3)
    assert code == 3
    assert report["verdict"] == "error"
    assert [s["error"] for s in report["samples"]] == ["non-finite pencil curvature"] * 3


def _poison_christoffel(monkeypatch):
    """Make the Christoffel symbols of the second sample of every pass NaN."""
    metric_batch = cli.kahler.metric_batch

    def poisoned(potential, points):
        md, failures = metric_batch(potential, points)
        christoffel = md.christoffel.copy()
        christoffel[1, 0, 0, 0] = np.nan
        return dataclasses.replace(md, christoffel=christoffel), failures

    monkeypatch.setattr(cli.kahler, "metric_batch", poisoned)


def test_catalog_numeric_error_exit_code(monkeypatch, capsys):
    """An error verdict exits 3 from catalog as from verify, before the
    mismatch with the row's expected verdict is counted."""
    metric_batch = cli.kahler.metric_batch

    def failing(potential, points):
        # the torus's Gamma is zero by its jet support and never read, so the
        # second sample of every pass fails in the metric layer
        md, failures = metric_batch(potential, points)
        assert not failures
        failures[1] = cli.kahler.KahlerError("non-finite partials of the potential")
        return md[np.arange(len(points)) != 1], failures

    monkeypatch.setattr(cli.kahler, "metric_batch", failing)
    argv = ["--json", "--samples", "2", "catalog", "--catalog", "torus"]
    assert main(argv) == 3
    (report,) = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "error" and not report["matches_expected"]
    assert [s.get("error") for s in report["samples"]] == [
        None, "non-finite partials of the potential"
    ]
    assert report["reasons"] == ["non-finite values at sampled points"]


def test_exp_overflow_is_an_error_record_at_its_sample(tmp_path, capsys):
    code, report = _verify_json(tmp_path, capsys, EXP_OVERFLOW_SPEC, 8)
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
    assert report["reasons"] == ["domain error at sampled points"]


def test_non_finite_partials_are_error_records(tmp_path, capsys):
    spec = dict(FS_SPEC, name="non-finite", potential="(1e200*z1*zbar1)^2 + z2*zbar2")
    code, report = _verify_json(tmp_path, capsys, spec, 4)
    assert code == 3
    assert report["verdict"] == "error"
    assert [s["error"] for s in report["samples"]] == [
        "non-finite partials of the potential"
    ] * 4
    assert report["reasons"] == ["non-finite values at sampled points"]


@pytest.mark.parametrize(
    "potential", ["0 - z1*zbar1 - z2*zbar2", "z1*zbar1 - z2*zbar2"]
)
def test_metric_not_positive_definite_is_not_frobenius(potential):
    spec = dict(FS_SPEC, name="indefinite", potential=potential)
    report = run_verify(load_manifold_spec(spec), Config(samples=4))
    assert report["verdict"] == "not-frobenius"
    assert report["reasons"] == ["metric not positive definite at sampled points"]
    assert not any(s["positive_definite"] for s in report["samples"])
    # every other check passes: the gate alone decides
    assert all(s["max_curvature"] == 0.0 for s in report["samples"])


# at 1e-308 the pencil of every sample overflows; the sample whose Gamma
# is not finite is named for its Gamma all the same
@pytest.mark.parametrize("spec, others", [
    (FS_SPEC, None), (TINY_FS_SPEC, "non-finite pencil curvature"),
], ids=["default", "overflowing"])
def test_non_finite_structure_constants_give_an_error_record(monkeypatch, spec, others):
    _poison_christoffel(monkeypatch)
    report = run_verify(load_manifold_spec(spec), Config(samples=4))
    assert report["verdict"] == "error"
    assert [s.get("error") for s in report["samples"]] == [
        others, "non-finite structure constants", others, others
    ]


def _two_dim(name, potential, **extra):
    box = [[-0.4, 0.4], [-0.4, 0.4]]
    return dict(name=name, dim=2, potential=potential,
                sample_domain={"re": box, "im": box}, **extra)


SQUARE_LATTICE_2 = TORUS_SPEC["lattice"]
NON_AFFINE_FLAT = "(z1+z2^2)*(zbar1+zbar2^2) + z2*zbar2"
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
         ["curvature constraint violated"]),
        (_two_dim("translation", FLAT_2, lattice=SQUARE_LATTICE_2, group={"elements": [
            IDENTITY_2, {"A": IDENTITY_2["A"], "t": [[0.5, 0], [0, 0]]}]}),
         "not-frobenius", ["action contains translations"]),
        (_two_dim("shear", FLAT_2, lattice=SQUARE_LATTICE_2, group={"elements": [
            IDENTITY_2, {"A": [[[1, 0], [1, 0]], [[0, 0], [1, 0]]], "t": [[0, 0], [0, 0]]}]}),
         "not-frobenius", ["action not free", "group check failed: closure",
                           "group check failed: isometry"]),
        (_two_dim("log-domain", "log(z1*zbar1) + z2*zbar2"), "error",
         ["degenerate metric at sampled points"]),
        (dict(ROTATION_SPEC, name="rotation-60", group={"elements": ROTATION_60}),
         "not-frobenius", ["group check failed: lattice_stable"]),
        (_two_dim("contracting", FLAT_2, lattice=SQUARE_LATTICE_2,
                  group=_linear_group([0.5, 0], [0, 1])),
         "not-frobenius", ["group check failed: closure", "group check failed: isometry",
                           "group check failed: lattice_stable"]),
        (_two_dim("tiny", FLAT_2, lattice=SQUARE_LATTICE_2,
                  group=_linear_group([1e-7, 0], [0, 1])),
         "not-frobenius", ["group check failed: closure", "group check failed: isometry",
                           "group check failed: lattice_stable"]),
        (_two_dim("hyperbolic", FLAT_2, lattice=SQUARE_LATTICE_2,
                  group=_linear_group([2, 1], [1, 1])),
         "not-frobenius", ["action not free", "group check failed: closure",
                           "group check failed: isometry"]),
        # integral entries beyond 2**53: M - I would wrap in int64, and A* A
        # overflows
        (_two_dim("huge", FLAT_2, lattice=SQUARE_LATTICE_2, group={"elements": [
            {"A": [[[1e200, 0], [0, 0]], [[0, 0], [1e-200, 0]]], "t": [[0, 0], [0, 0]]}]}),
         "not-frobenius", ["group check failed: closure", "group check failed: isometry",
                           "group check failed: lattice_stable"]),
        (_two_dim("not-real", FLAT_2 + " + z1"), "error",
         ["potential not real at sampled points"]),
        # exp overflows at some samples, and at others its metric block
        # dwarfs the other one: one reason per kind of failure
        (dict(_two_dim("exp-overflow-2", "exp(3000*z1*zbar1) + z2*zbar2"),
              sample_domain={"re": [[-0.6, 0.6]] * 2, "im": [[-0.6, 0.6]] * 2}), "error",
         ["degenerate metric at sampled points", "domain error at sampled points"]),
        # flat metrics in non-affine coordinates: Gamma is not zero, so the
        # associator or WDVV residual reads the chart, and only they fail
        (_two_dim("non-affine-flat", NON_AFFINE_FLAT), "pre-frobenius",
         ["associativity / pencil flatness failed"]),
        (_two_dim("non-affine-flat-2", "(z1+z2^2)*(zbar1+zbar2^2) + (z2+z1^2)*(zbar2+zbar1^2)"),
         "pre-frobenius", ["associativity / pencil flatness failed"]),
        # flatness reads the curvature as g^-1 R, which does not scale with
        # the potential: R reads 1.8e-12 on this round metric, g^-1 R 1.9 ...
        (dict(name="round-1e-12", dim=1, potential="1e-12*log(1 + z1*zbar1)",
              sample_domain=ROTATION_SPEC["sample_domain"]),
         "not-frobenius", ["curvature constraint violated"]),
        # ... and R reads up to 3.7e-9 on this flat chart, g^-1 R 9.3e-16
        (_two_dim("non-affine-flat-4e6", f"4e6*({NON_AFFINE_FLAT})"), "pre-frobenius",
         ["associativity / pencil flatness failed"]),
        # the inverse metric overflows to inf, but the jet support makes Gamma,
        # R and Ric zero: no product reads H (0 * inf would be NaN), and the
        # scaled torus is flat as the torus is
        (dict(name="torus-1e-309", dim=1, potential="1e-309*z1*zbar1",
              sample_domain=ROTATION_SPEC["sample_domain"]), "frobenius", []),
        (_two_dim("torus-1e-320", "1e-320*(z1*zbar1 + z2*zbar2)"), "frobenius", []),
    ],
    ids=lambda v: v["name"] if isinstance(v, dict) else None,
)
def test_verdict_branches(spec, verdict, reasons):
    report = run_verify(load_manifold_spec(spec), Config(samples=8))
    assert (report["verdict"], report["reasons"]) == (verdict, reasons)


def _row_verdict(samples, tol):
    """(verdict, reasons) of group-free report rows as the row loop
    decided them before the verdict was read from columns."""
    failed = failed_classes_from_rows(samples, tol)
    positive = all(s["positive_definite"] for s in samples)
    reasons = []
    if not positive:
        reasons.append("metric not positive definite at sampled points")
    if "core" in failed:
        reasons.append("structural identities violated")
    if "core" in failed or not positive:
        return "not-frobenius", sorted(reasons)
    if not failed:
        return "frobenius", []
    if failed == {"associativity"}:
        return "pre-frobenius", ["associativity / pencil flatness failed"]
    return "not-frobenius", ["curvature constraint violated"]


VERDICT_SPECS = [
    _two_dim("flat", FLAT_2),
    _two_dim("curved", "log(1 + z1*zbar1 + z2*zbar2)"),
    _two_dim("non-hermitian", FLAT_2 + " + 0.000000005*z1*zbar2"),
    _two_dim("not-positive-definite", "z1*zbar1 - z2*zbar2"),
]


@pytest.mark.parametrize("spec", VERDICT_SPECS, ids=lambda v: v["name"])
def test_column_verdict_agrees_with_row_verdict(spec):
    config = Config(samples=8)
    report = run_verify(load_manifold_spec(spec), config)
    expected = _row_verdict(report["samples"], config.tolerances["structural"])
    assert (report["verdict"], report["reasons"]) == expected


@pytest.mark.parametrize("key", [key for key, _ in CHECKS])
def test_nan_in_a_column_fails_its_check_as_in_the_rows(monkeypatch, key):
    columns_of = cli._sample_columns

    def poisoned(*args):
        good, columns, failures = columns_of(*args)
        columns[key] = columns[key].copy()
        columns[key].flat[0] = np.nan
        return good, columns, failures

    monkeypatch.setattr(cli, "_sample_columns", poisoned)
    config = Config(samples=8)
    report = run_verify(load_manifold_spec(VERDICT_SPECS[0]), config)
    tol = config.tolerances["structural"]
    assert report["verdict"] != "frobenius"
    samples = report["samples"]
    assert (report["verdict"], report["reasons"]) == _row_verdict(samples, tol)
    assert failed_classes_from_rows(samples, tol) == {cls for col, cls in CHECKS if col == key}


def test_one_pass_forms_the_commutator_once(monkeypatch):
    """The associator column is read off the pencil, whose lambda^2 block
    it is."""
    formed = cli.frob.multiplication_commutator
    calls = []

    def counted(C):
        calls.append(C.shape)
        return formed(C)

    monkeypatch.setattr(cli.frob, "multiplication_commutator", counted)
    points = np.array([[0.1 + 0.2j, -0.3], [0.2j, 0.1 - 0.1j]])
    _, columns, _ = cli._sample_columns(parse(FS_SPEC["potential"], 2), points)
    assert calls == [(2, 2, 2, 2)]
    assert columns["associator"].shape == (2,)


def _flat_chart(dim):
    """A flat metric in affine coordinates plus pluriharmonic terms, whose
    jets fill pure (anti)holomorphic entries and none of phi3 or ddbar."""
    metric = " + ".join(f"{1 + 0.1 * a}*z{a}*zbar{a}" for a in range(1, dim + 1))
    return (f"{metric} + 0.05*(z1*zbar{dim} + z{dim}*zbar1) + re(exp(0.5*z1 - 0.3*z{dim}))"
            f" + im((0.4*z{dim} + z1)^3) + re(0.3*z1*z{dim}*(z1 - 0.7*z{dim})^2)")


# (potential, whether its jet support leaves out phi3 and ddbar) at dims 1-4
SUPPORT_CHARTS = [
    *((_flat_chart(dim), dim, True) for dim in (1, 2, 3, 4)),
    *((f"log(1 + {' + '.join(f'z{a}*zbar{a}' for a in range(1, dim + 1))})", dim, False)
      for dim in (1, 2, 3, 4)),
    *((f"{' + '.join(f'z{a}*zbar{a}' for a in range(1, dim + 1))}"
       f" + 0.1*(z{dim}*zbar{dim})^2 + 0.05*re(z1^2*zbar{dim}^2)", dim, False)
      for dim in (1, 2, 3, 4)),
]


@pytest.mark.parametrize("text, dim, flat", SUPPORT_CHARTS)
def test_a_column_reads_only_its_blocks(monkeypatch, text, dim, flat):
    """Zero every jet entry outside the metric and a column's READS blocks
    (and their conjugates), on the full support so that nothing is
    skipped: the column is bit for bit what the chart gives, skip or no
    skip.  Where a column is not zero (curved charts, bar wdvv and the
    associator at dim 1), zeroing any one block it reads moves it."""
    from frobenius_verify.wirtinger import Jet, _table

    potential = parse(text, dim)
    points = sample_points({"re": [[-0.4, 0.4]] * dim, "im": [[-0.4, 0.4]] * dim},
                           dim, 6, 7, text)
    good, columns, failures = cli._sample_columns(potential, points)
    assert not failures and len(good) == 6
    t = _table(dim)
    gathers = {"g": t.g_idx, "phi3": t.phi3_idx, "ddbar": t.ddbar_idx}
    jet_eval = cli.kahler.jet_eval

    def column_of(key, blocks):
        keep = np.zeros(len(t.entries), dtype=bool)
        for block in ("g", *blocks):
            keep[gathers[block].ravel()] = True
        keep |= keep[t.conj_perm]

        def kept(potential, point, failures=None):
            dense = jet_eval(potential, point, failures).dense()
            return Jet(dim, np.where(keep[:, None], dense, 0), (1 << len(t.entries)) - 1)

        monkeypatch.setattr(cli.kahler, "jet_eval", kept)
        _, alone, _ = cli._sample_columns(potential, points)
        monkeypatch.undo()
        return alone[key].tobytes()

    for key, reads in cli.READS.items():
        assert column_of(key, reads) == columns[key].tobytes(), key
        for block in reads if columns[key].any() else ():
            assert column_of(key, set(reads) - {block}) != columns[key].tobytes(), (key, block)
    md, _ = cli.kahler.metric_batch(potential, points)
    assert md.zero == ({"phi3", "ddbar"} if flat else set())


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_a_flat_chart_forms_no_tensor_of_a_zero_block(monkeypatch, dim):
    """Where the support leaves out phi3 and ddbar, no column that reads
    them is computed: each is +0.0 at every sample."""
    for name in ("wdvv_residual_at", "ricci_c1_check"):
        monkeypatch.setattr(cli.kahler, name, mock.Mock(side_effect=AssertionError(name)))
    monkeypatch.setattr(cli.frob, "pencil_curvature", mock.Mock(side_effect=AssertionError))
    points = sample_points({"re": [[-0.4, 0.4]] * dim, "im": [[-0.4, 0.4]] * dim}, dim, 5, 1, "x")
    good, columns, failures = cli._sample_columns(parse(_flat_chart(dim), dim), points)
    assert not failures and len(good) == 5
    zero = [key for key, reads in cli.READS.items() if reads]
    assert all(columns[key].tobytes() == np.zeros(5).tobytes() for key in zero)


@pytest.mark.parametrize(
    "entry",
    [*hyperelliptic_catalog(),
     *(load_manifold_spec(dict(name=f"flat-{dim}", dim=dim, potential=_flat_chart(dim),
                               sample_domain={"re": [[-0.4, 0.4]] * dim,
                                              "im": [[-0.4, 0.4]] * dim}))
       for dim in (1, 2, 3, 4))],
    ids=lambda entry: entry.name,
)
def test_reports_do_not_depend_on_the_skip(monkeypatch, entry):
    """With the pattern forced to "nothing zero" every tensor is formed,
    and the report keeps its bytes."""
    config = Config(samples=16)
    skipped = to_json(run_verify(entry, config))
    monkeypatch.setattr(cli.kahler, "zero_blocks", lambda dim, support: frozenset())
    assert to_json(run_verify(entry, config)) == skipped


def test_sample_record_keys():
    report = run_verify(load_manifold_spec(FS_SPEC), Config(samples=2))
    assert {key for sample in report["samples"] for key in sample} == {
        "index", "point", "metric_hermiticity", "min_singular", "condition_number",
        "max_curvature", "wdvv", "ricci_hermiticity", "max_ricci",
        "associator", "mixed_norm", "einstein_defect", "positive_definite",
    }
    # every check reads a column of every good row
    assert all({key for key, _ in CHECKS} <= set(sample) for sample in report["samples"])
    assert "lambda_grid" not in report


def _with(**changes):
    spec = json.loads(json.dumps(TORUS_SPEC))
    spec.update(changes)
    return spec


def _with_domain(part, ranges):
    spec = _with()
    spec["sample_domain"][part] = ranges
    return spec


# the flat chart on Z[i]
GAUSSIAN_1 = {
    "name": "gaussian-1", "dim": 1, "potential": "z1*zbar1",
    "sample_domain": {"re": [[-0.4, 0.4]], "im": [[-0.4, 0.4]]},
    "lattice": [[[1, 0]], [[0, 1]]],
}
IDENTITY_1 = {"A": [[[1, 0]]], "t": [[0, 0]]}


@pytest.mark.parametrize(
    "spec",
    [
        dict(GAUSSIAN_1, lattice=[[[1e308, 0]], [[0, 1e308]]]),
        dict(GAUSSIAN_1, lattice=[[[1e-7, 0]], [[0, 1e-7]]]),
        dict(GAUSSIAN_1, group=[IDENTITY_1, {"A": [[[1e-13, 0]]], "t": [[0, 0]]}]),
        dict(GAUSSIAN_1, group=[IDENTITY_1, {"A": [[[5e-324, 0]]], "t": [[0, 0]]}]),
        _two_dim("subnormal-2", FLAT_2, lattice=SQUARE_LATTICE_2,
                 group=_linear_group([5e-324, 0], [0, 1])),
    ],
    ids=["lattice-1e308", "lattice-1e-7", "contracting-1e-13", "subnormal-1", "subnormal-2"],
)
def test_lattice_and_linear_part_at_any_scale_reach_the_verdict(tmp_path, capsys, spec):
    """A lattice or a linear part is singular only at its own scale: these
    reach the verdict, with no warning, and a contracting map fails the
    group checks instead of the boundary.  Its M rounds to an integer
    matrix that is not invertible over Z, so the lattice is not stable and
    freeness is not asked."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, report = _verify_json(tmp_path, capsys, spec, 2)
    assert code == 0
    if "group" not in spec:
        assert (report["verdict"], report["group"]) == ("frobenius", None)
    else:
        assert report["verdict"] == "not-frobenius"
        assert "group check failed: isometry" in report["reasons"]
        assert (report["group"]["lattice_stable"], report["group"]["free"]) == (False, None)


def test_a_small_tau_is_judged_by_its_truncation_bound(capsys):
    """Im tau = 1e-7 I spans a lattice at its own scale: the theta sums,
    not the lattice check, fail, as at 1e-6."""
    for tau in ("diag:1e-7,1e-7", "diag:1e-6,1e-6"):
        assert main(["theta", "--tau", tau]) == 1
        out = capsys.readouterr().out
        assert "theta truncation bound exceeds tolerance" in out


def _with_group(elements):
    return _with(group={"elements": elements})


def _tiny_torus(element):
    """The identity and ``element`` on the dim-1 torus with periods 1e-5 and
    1e-5 i: an entry of 1e308 has lattice coordinates beyond the largest
    float."""
    return {
        "name": "tiny-torus", "dim": 1, "potential": "z1*zbar1",
        "sample_domain": {"re": [[-0.4, 0.4]], "im": [[-0.4, 0.4]]},
        "lattice": [[[1e-5, 0]], [[0, 1e-5]]],
        "group": [{"A": [[[1, 0]]], "t": [[0, 0]]}, element],
    }


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
        (_with_group([]), "group elements"),
        (_with_group([IDENTITY_2] * (MAX_GROUP_ELEMENTS + 1)), "group elements"),
        (_with(dim=MAX_DIM + 1), "dim"),
        (_with(expected_class="banana"), "expected_class"),
        (_with(expected_class="frobenious"), "expected_class"),
        (_tiny_torus({"A": [[[-1, 0]]], "t": [[1e308, 0]]}), "group element t"),
        (_tiny_torus({"A": [[[1e308, 0]]], "t": [[0, 0]]}), "group element A"),
        # dependent at every scale: det overflows to NaN here
        (dict(_tiny_torus({}), group=None, lattice=[[[1e308, 1e308]], [[1e308, 1e308]]]),
         "lattice generators are linearly dependent over R"),
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
    """Any JSON gives a loaded chart or a SpecError: a valid group spec with
    the value put at each of its positions in turn (the whole spec
    included)."""
    for path in _paths(GROUP_SPEC):
        try:
            spec = load_manifold_spec(_replaced(GROUP_SPEC, path, value))
        except SpecError:
            continue
        assert isinstance(spec, CatalogEntry)
        assert isinstance(spec.name, str) and isinstance(spec.potential, PotentialExpr)
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
    for name, payload in (("torus", TORUS_SPEC), ("fs", FS_SPEC), ("rotation", ROTATION_SPEC),
                          ("tiny-fs", TINY_FS_SPEC)):
        (root / f"{name}.json").write_text(json.dumps(payload))
    (root / "broken.json").write_text('{"name": ')
    return [str(root / name) for name in
            ("torus.json", "fs.json", "rotation.json", "broken.json", "missing.json",
             "tiny-fs.json")]


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
    tiny_fs = spec_files[-1]

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_argvs(spec_files))
    @example(["--samples", "2", "verify", tiny_fs])
    @example(["--samples", "2", "theta", "--tau", "diag:1e308"])
    @example(["--samples", "2", "theta", "--tau", "[[[1e308, 1]]]", "--level", "4"])
    @example(["--samples", "2", "theta", "--genus", str(10**40)])
    @example(["--radius", "200", "theta", "--tau", "diag:1e-300", "--level", "4"])
    @example(["--radius", "5", "theta", "--tau", "diag:1e-310", "--level", "4"])
    def check(argv):
        code, err = _run_main(argv)
        assert code in (0, 1, 2, 3), (argv, code, err)
        assert "internal error" not in err, (argv, err)

    check()


BALL4_SPEC = {
    "name": "ball-4",
    "dim": 4,
    "potential": "log(1 + z1*zbar1 + z2*zbar2 + z3*zbar3 + z4*zbar4)",
    "sample_domain": {"re": [[-0.4, 0.4]] * 4, "im": [[-0.4, 0.4]] * 4},
}
CURVED3_SPEC = {
    "name": "curved-3",
    "dim": 3,
    "potential": "exp(0.9*z1*zbar1 + 1.2*z2*zbar2) + 0.7*z3*zbar3 + re(exp(0.5*z1 - 0.8*z3))",
    "sample_domain": {"re": [[-0.45, 0.45]] * 3, "im": [[-0.45, 0.45]] * 3},
}


# a flat dim-4 chart whose peak is in the tensor pass, not the jets
FLAT4_SPEC = {
    "name": "flat-4",
    "dim": 4,
    "potential": "1.3*z1*zbar1 + 1.1*z2*zbar2 + 1.7*z3*zbar3 + 1.2*z4*zbar4"
    " + 0.05*(z1*zbar3 + z3*zbar1) + re(exp(0.7*z2 - 1.1*z3))",
    "sample_domain": {"re": [[-0.4, 0.4]] * 4, "im": [[-0.4, 0.4]] * 4},
}
BATCH_SPECS = {"ball-4": BALL4_SPEC, "flat-4": FLAT4_SPEC, "curved-3": CURVED3_SPEC}


@pytest.mark.parametrize("which", ["ball-4", "flat-4", "curved-3", "catalog"])
def test_reports_do_not_depend_on_the_batch_sizes(monkeypatch, which):
    if which == "catalog":
        entry = hyperelliptic_catalog()[-1]
    else:
        entry = load_manifold_spec(BATCH_SPECS[which])
    report = to_json(run_verify(entry, Config()))
    odd = to_json(run_verify(entry, Config(samples=33)))
    # one point per pass, then the whole chart in one
    for entries in (entry.dim**4, 2**20):
        monkeypatch.setattr(cli, "BATCH_ENTRIES", entries)
        assert to_json(run_verify(entry, Config())) == report
    # 33 samples: a full pass and a one-point pass at dim 4, one pass below
    monkeypatch.setattr(cli, "BATCH_ENTRIES", entry.dim**4)
    assert to_json(run_verify(entry, Config(samples=33))) == odd


@pytest.mark.parametrize("dim, passes", [(1, 1), (2, 1), (3, 1), (4, 2)])
def test_default_samples_take_one_pass_below_dim_4_and_two_at_4(monkeypatch, dim, passes):
    calls = []
    metric_batch = cli.kahler.metric_batch

    def counting(potential, points):
        calls.append(len(points))
        return metric_batch(potential, points)

    monkeypatch.setattr(cli.kahler, "metric_batch", counting)
    potential = " + ".join(f"z{a}*zbar{a}" for a in range(1, dim + 1))
    spec = {"name": f"flat-{dim}", "dim": dim, "potential": potential,
            "sample_domain": {"re": [[-0.4, 0.4]] * dim, "im": [[-0.4, 0.4]] * dim}}
    run_verify(load_manifold_spec(spec), Config())
    assert len(calls) == passes
    assert sum(calls) == Config().samples


@pytest.mark.parametrize("which", ["ball-4", "flat-4"])
def test_verify_memory_is_bounded_by_the_batches(which):
    import tracemalloc

    entry = load_manifold_spec(BATCH_SPECS[which])
    run_verify(entry, Config(samples=2))  # builds the dim-4 jet table outside the count
    tracemalloc.start()
    try:
        run_verify(entry, Config())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # in 32-point passes: about 1.40 MiB for ball-4, in the product runs of
    # its jets, and 0.22 MiB for flat-4; a single 64-point pass takes about
    # 2.4 MiB for ball-4
    assert peak <= 1.5 * 2**20


def test_verify_reads_the_pencil_without_christoffel_derivatives(monkeypatch):
    """The pencil's blocks come from Gamma, R and H; verify never asks for
    the derivatives of Gamma, under either name they are imported by."""
    from frobenius_verify import frobenius, kahler

    def forbidden(*args, **kwargs):
        raise AssertionError("christoffel_derivatives called by verify")

    monkeypatch.setattr(kahler, "christoffel_derivatives", forbidden)
    monkeypatch.setattr(frobenius, "christoffel_derivatives", forbidden)
    report = run_verify(load_manifold_spec(CURVED3_SPEC), Config(samples=8))
    assert report["verdict"] == "not-frobenius"
    assert all("error" not in s for s in report["samples"])
    # the pencil's lambda coefficient, dbar Gamma = R H, is read at every sample
    assert all(s["mixed_norm"] > 0 for s in report["samples"])
