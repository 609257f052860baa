"""Benchmark of frobenius_verify: verdict latency, throughput, set-up time
and memory on three seeded workloads, plus a traced per-layer run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload verify-charts --seed 1 --seconds 25 --trace 0

Load: one process, one client, closed loop.  Each operation is one CLI
command, run in-process through ``frobenius_verify.cli.main(argv)`` with
stdout captured; it yields one verdict and its JSON report.  The next
command starts only after the previous one returned.  The workload's
inputs come from ``inputs.generate`` and are issued in order, cycling.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``:

* ``setup_s``: median of ``SETUP_PROBES`` fresh interpreters, each
  timed from outside while it imports the package, writes the inputs
  and runs the first command of each dimension (``probe.py``).  The
  probes run one after another before the loop.
* ``verdicts_per_s``: verdicts over the summed command latency.
* ``verdict_ms_p50`` / ``verdict_ms_p90``: command latency percentiles.
  The loop runs for ``--seconds`` and then on until it holds at least
  ``MIN_VERDICTS`` verdicts (at most twice ``--seconds``), so that ten
  or more samples lie beyond the 90th percentile; the count is printed.
* ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` runs the loop untraced for half of ``--seconds``, then
replays the same commands under ``tracer.Tracer`` and reports the
per-layer metrics of ``BENCHMARK.json``, normalised per verdict, plus
``trace.overhead_ratio`` (traced over untraced median latency).

Every command is checked against its known answer (exit code, verdict,
theta level dimension), and every repeat of an input, traced or not,
must give a byte-identical report.  ``failed_ratio`` is the number of
commands that missed either check over the commands attempted; it is
printed with its base and returned as ``failed`` / ``attempted``.  The
last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"

# Set before numpy is imported, so BLAS and OpenMP run single-threaded
# and the numbers measure the program rather than the scheduler.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_PROBES = 9
MIN_VERDICTS = 100


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


class Runner:
    """Issues commands through ``cli.main`` and checks every answer."""

    def __init__(self) -> None:
        from frobenius_verify import cli

        self.cli = cli
        self.reference: dict[str, str] = {}
        self.attempted = 0
        self.problems: list[str] = []

    def run(self, case: dict) -> float:
        """Run one command; return its latency in seconds."""
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(case["argv"])  # looked up per call, so tracing sees it
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = f"exception: {traceback.format_exc(limit=3)}"
        latency = time.perf_counter() - start
        self.attempted += 1
        problem = self._check(case, code, out.getvalue())
        if problem:
            self.problems.append(f"{case['label']}: {problem} {err.getvalue().strip()}")
        return latency

    def _check(self, case: dict, code, report: str) -> str | None:
        if code != case["exit"]:
            return f"exit {code!r}, expected {case['exit']}"
        try:
            payload = json.loads(report)
        except json.JSONDecodeError:
            return "report is not JSON"
        if payload.get("verdict") != case["verdict"]:
            return f"verdict {payload.get('verdict')!r}, expected {case['verdict']!r}"
        if "level_dimension" in case and payload.get("level_dimension") != case["level_dimension"]:
            return f"level dimension {payload.get('level_dimension')!r}"
        digest = hashlib.sha256(report.encode()).hexdigest()
        if self.reference.setdefault(case["label"], digest) != digest:
            return "report differs from an earlier run of the same command"
        return None


def closed_loop(runner: Runner, cases: list[dict], seconds: float, min_verdicts: int) -> list[float]:
    latencies: list[float] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (len(latencies) >= min_verdicts or elapsed >= 2 * seconds):
            return latencies
        latencies.append(runner.run(cases[len(latencies) % len(cases)]))


def warm_up(runner: Runner, cases: list[dict]) -> None:
    """First command of each dimension: builds the lazy jet tables,
    which ``setup_s`` measures, outside the timed loop."""
    seen = set()
    for case in cases:
        if case["group"] not in seen:
            seen.add(case["group"])
            runner.run(case)


def setup_seconds(workload: str, seed: int, work: Path) -> float:
    times = []
    for k in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed), str(work / f"probe{k}")],
            capture_output=True,
            text=True,
            timeout=120,
        )
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return statistics.median(times)


def group_medians(cases: list[dict], latencies: list[float]) -> dict:
    groups: dict[str, list[float]] = {}
    for i, latency in enumerate(latencies):
        groups.setdefault(cases[i % len(cases)]["group"], []).append(latency)
    return {g: round(1e3 * statistics.median(v), 3) for g, v in sorted(groups.items())}


def measure(workload: str, seed: int, seconds: float, work: Path, bench: dict) -> tuple[Runner, dict]:
    setup = setup_seconds(workload, seed, work)
    cases = inputs.generate(workload, seed, work / "inputs")
    runner = Runner()
    warm_up(runner, cases)
    latencies = closed_loop(runner, cases, seconds, MIN_VERDICTS)
    values = {
        "setup_s": setup,
        "verdicts_per_s": len(latencies) / sum(latencies),
        "verdict_ms_p50": 1e3 * statistics.median(latencies),
        "verdict_ms_p90": 1e3 * statistics.quantiles(latencies, n=10)[-1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"verdicts: {len(latencies)} timed (p90 has {len(latencies) // 10} beyond it); "
          f"median ms by group: {group_medians(cases, latencies)}")
    return runner, {m["name"]: (values[m["name"]], m["unit"]) for m in bench["end_to_end"]}


def measure_traced(workload: str, seed: int, seconds: float, work: Path, bench: dict) -> tuple[Runner, dict]:
    from tracer import Tracer

    cases = inputs.generate(workload, seed, work / "inputs")
    runner = Runner()
    warm_up(runner, cases)
    untraced = closed_loop(runner, cases, seconds / 2, 1)
    with Tracer() as tracer:
        traced = [runner.run(cases[i % len(cases)]) for i in range(len(untraced))]
    values = {"trace.overhead_ratio": statistics.median(traced) / statistics.median(untraced)}
    for metric in bench["per_layer"]:
        if metric["name"] not in values:
            values[metric["name"]] = tracer.metric(metric["name"], len(traced))
    print(f"verdicts: {len(untraced)} untraced, {len(traced)} traced")
    for name, stat in sorted(s for s in tracer.stats.items() if s[1].calls):
        print(f"span {name}: calls={stat.calls} total_ms={stat.total_ns / 1e6:.3f} "
              f"self_ms={stat.self_ns / 1e6:.3f} errors={stat.errors}")
    for (parent, child), calls in sorted(tracer.edges.items()):
        print(f"edge {parent or '<root>'} -> {child}: {calls}")
    return runner, {m["name"]: (values[m["name"]], m["unit"]) for m in bench["per_layer"]}


def main(argv=None) -> int:
    pin_threads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "frobenius_verify" / "cli.py").is_file():
        sys.stderr.write(f"error: no frobenius_verify sources under {SRC}\n")
        return 2
    if args.seconds <= 0:
        sys.stderr.write("error: --seconds must be positive\n")
        return 2
    sys.path.insert(0, str(SRC))
    bench = load_benchmark()
    print(f"env: {json.dumps(environment(), sort_keys=True)}")
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        measure_fn = measure_traced if args.trace else measure
        runner, metrics = measure_fn(args.workload, args.seed, args.seconds, work, bench)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = len(runner.problems)
    for problem in runner.problems[:20]:
        print(f"failed: {problem}")
    print(f"failed_ratio: {failed}/{runner.attempted} = {failed / runner.attempted:.4f} "
          "(commands with a wrong answer or a non-identical repeat / commands attempted)")
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
