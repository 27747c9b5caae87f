"""The benchmark still runs against this program.

perfbench wraps public functions by their names (`cli.parse_decimal`,
`families.from_fractions`, `partition.solve_sigma`, ...). A refactor that
deletes or renames one of them, or breaks a checker's view of a report,
fails here rather than in a benchmark run. Both checks run in a fresh
interpreter in perfbench/, the way `python3 perfbench/run.py` does, and
write no bytecode there.
"""

import os
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def run_in_perfbench(*args):
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(
        [sys.executable, *args], cwd=PERFBENCH, env=env,
        capture_output=True, text=True, timeout=300,
    )


def test_trace_targets_resolve():
    proc = run_in_perfbench(
        "-c",
        "import run, spans\n"
        "spans.Tracer(run.trace_targets(run.import_cli()))\n",
    )
    assert proc.returncode == 0, proc.stderr


def test_benchmark_selftest_passes():
    proc = run_in_perfbench("selftest.py")
    assert proc.returncode == 0, proc.stderr
