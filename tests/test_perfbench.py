"""The benchmark still runs against this program.

perfbench wraps public functions by their names (`cli.parse_decimal`,
`families.from_fractions`, `partition.solve_sigma`, ...) and its counter
hooks read the instances they are called with. A refactor that deletes or
renames one of them, or breaks a checker's view of a report, fails here
rather than in a benchmark run. Every check runs in a fresh interpreter in
perfbench/, the way `python3 perfbench/run.py` does, and writes no files
there.
"""

import json
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


TRACED_JOBS = """
import json, sys
from pathlib import Path
import run, spans, workloads
from checks import check_report

cli = run.import_cli()
pool = workloads.build_pool("exact", 1, Path(sys.argv[1]))
jobs = [next(job for job in pool if job.kind == kind)
        for kind in ("enumerate", "zcheck")]
tracer = spans.Tracer(run.trace_targets(cli))
problems = []
for job in jobs:
    outcome = run.run_job(cli, job, tracer, job.id)
    if outcome.code != 0:
        problems.append(f"{job.id}: exit {outcome.code}: {outcome.err}")
    else:
        problems += check_report(job.kind, job.spec, json.loads(outcome.out))
print(json.dumps({
    "argv": [job.argv[0] for job in jobs],
    "problems": problems,
    "counts": tracer.counts,
    "spans": sorted({span.name for span in tracer.spans}),
    "acceptance": tracer.samples["oracle.sample_uniform.acceptance"],
}))
"""


def test_counter_hooks_run_on_traced_jobs(tmp_path):
    # one `enumerate --l --samples` job and one zcheck job of the exact
    # workload, traced: every hook they reach runs on a real report
    proc = run_in_perfbench("-c", TRACED_JOBS, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["argv"] == ["enumerate", "zcheck"]
    assert got["problems"] == []
    assert got["counts"]["partition.z_exact.cells"] > 0
    assert got["counts"]["partition.z_integral.points"] > 0
    assert 0 < got["acceptance"][0] <= 1
    assert {"model.with_total", "oracle.cumulative_stats",
            "oracle.sample_uniform", "partition.z_integral"} <= set(
        got["spans"])
