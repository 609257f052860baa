"""The benchmark's own checks.

Usage (from the repository root; takes about a minute)::

    python3 perfbench/selfcheck.py

Checks that the inputs are a pure function of the seed, that the tracer
wraps every name a layer function is reached through and restores each
one, that traced and untraced commands give byte-identical reports,
that every workload answers correctly on the current sources in both
modes with the metrics ``BENCHMARK.json`` names, and that the benchmark
fails without a result where the package sources are missing.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run

run.pin_threads()
sys.path.insert(0, str(run.SRC))

import inputs  # noqa: E402
import tracer  # noqa: E402
from frobenius_verify import cli, frobenius, kahler, wirtinger  # noqa: E402


def scratch() -> Path:
    run.WORK_DIR.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="selfcheck-", dir=run.WORK_DIR))


class SelfCheck(unittest.TestCase):
    def setUp(self) -> None:
        self.work = scratch()

    def tearDown(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def test_inputs_follow_the_seed(self) -> None:
        def files(d: Path) -> dict:
            return {p.name: p.read_text().replace(str(d), "<dir>") for p in d.glob("*.json")}

        for workload in inputs.WORKLOADS:
            a, b, c = (self.work / f"{workload}-{k}" for k in "abc")
            inputs.generate(workload, 5, a)
            inputs.generate(workload, 5, b)
            inputs.generate(workload, 6, c)
            self.assertEqual(files(a), files(b), workload)
            self.assertNotEqual(files(a)["answers.json"], files(c)["answers.json"], workload)

    def test_tracer_wraps_and_restores_every_name(self) -> None:
        lookups = {
            "kahler.partial": lambda: kahler.partial,
            "frobenius.partial": lambda: frobenius.partial,
            "kahler.jet_eval": lambda: kahler.jet_eval,
            "cli.parse": lambda: cli.parse,
            "frobenius.christoffel_derivatives": lambda: frobenius.christoffel_derivatives,
            "cli.kahler.metric_at": lambda: cli.kahler.metric_at,
            "cli.frob.pencil_curvature": lambda: cli.frob.pencil_curvature,
            "cli.cat.is_free": lambda: cli.cat.is_free,
            "cli.th.eval_riemann_theta": lambda: cli.th.eval_riemann_theta,
            "Jet.__mul__": lambda: wirtinger.Jet.__mul__,
            "Jet.__rmul__": lambda: wirtinger.Jet.__rmul__,
        }

        def snapshot() -> dict:
            return {(id(o), a): v for o in tracer.OWNERS for a, v in vars(o).items()}

        before = snapshot()
        originals = {name: get() for name, get in lookups.items()}
        with tracer.Tracer():
            for name, get in lookups.items():
                self.assertIsNot(get(), originals[name], name)
        self.assertEqual(snapshot(), before)
        with self.assertRaises(KeyError), tracer.Tracer():
            raise KeyError("restored on the error path too")
        self.assertEqual(snapshot(), before)

    def test_traced_reports_are_byte_identical(self) -> None:
        for workload in inputs.WORKLOADS:
            cases = inputs.generate(workload, 3, self.work / workload)
            firsts = list({c["group"]: c for c in cases}.values())
            runner = run.Runner()
            for case in firsts:
                runner.run(case)
            with tracer.Tracer() as tr:
                for case in firsts:
                    runner.run(case)
            self.assertEqual(runner.problems, [], workload)
            self.assertEqual(runner.attempted, 2 * len(firsts))
            self.assertEqual(tr.stats["cli.main"].calls, len(firsts))

    def test_every_workload_answers_correctly(self) -> None:
        bench = run.load_benchmark()
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in bench[kind]}
            for workload in inputs.WORKLOADS:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = run.main(["--workload", workload, "--seed", "7",
                                     "--seconds", "1", "--trace", str(trace)])
                self.assertEqual(code, 0)
                result = json.loads(out.getvalue().splitlines()[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], out.getvalue())
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, expected)

    def test_fails_without_package_sources(self) -> None:
        bare = self.work / "bare"
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        bench = run.load_benchmark()
        proc = subprocess.run(
            bench["command"] + ["--workload", "verify-charts", "--seed", "1",
                                "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
