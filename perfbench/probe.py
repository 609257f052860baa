"""Set-up probe: what one fresh CLI process pays before its first verdicts.

Usage: ``python3 perfbench/probe.py <workload> <seed> <out-dir>``

Imports ``frobenius_verify``, writes the workload's inputs into
``out-dir`` and runs the first command of each dimension (or genus), so
the jet tables and every other lazy set-up are built once.  ``run.py``
times the whole process from outside.  Exits 1 if a command's exit code
differs from its known answer.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(workload: str, seed: int, out: Path) -> int:
    from frobenius_verify import cli

    import inputs

    first: dict[str, dict] = {}
    for case in inputs.generate(workload, seed, out):
        first.setdefault(case["group"], case)
    for case in first.values():
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(case["argv"])
        if code != case["exit"]:
            sys.stderr.write(f"{case['label']}: exit {code}, expected {case['exit']}\n")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])))
