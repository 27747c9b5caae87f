"""bealloc benchmark: one process, one client, closed loop.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 60 --trace 0

Each job is an in-process call of `bealloc.cli.main(argv)` with stdout and
stderr captured. The run builds its workload's job pool from the seed
(`workloads.py`), warms up on the first job, then replays the pool in whole
passes until another pass would not fit in --seconds (at least two passes,
so every job has a rerun). Every report is checked (`checks.py`) and every
rerun must be byte-identical to the first run of its job.

--trace 0 prints the end-to-end metrics, with tracing off. --trace 1 runs
each job twice per pass, untraced and then traced (`spans.py`), and prints
the per-layer self times and counters per traced job, the tracing overhead
and each job group's largest self-time shares. The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics; the
lines before it print every metric with its unit, the job outcomes, and
the environment.

A job fails when it exits nonzero or fails a check. Every nonzero exit
makes the run incorrect (it prints "correct": false and exits 1), except
the one the parent program gave on that very solve-wide instance, recorded
in the catalog as the job's baseline_exit: those known defects count as
failed jobs only. A program cannot buy speed by failing jobs.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy is imported, here and in the probes.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Optional  # noqa: E402

from checks import check_report  # noqa: E402
from spans import Target, Tracer, call_counts, self_times  # noqa: E402
from summary import median, percentile, tail_percentile  # noqa: E402
from workloads import WORKLOADS, Job, build_pool, group_of  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120

# name -> (unit, better); the order is the print order. job_tail_ms is
# printed but not in BENCHMARK.json: on a shared 2-CPU host its spread over
# seeds (0.27-0.30 on crosscheck and zcheck) exceeds the largest bound a
# metric may have.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "jobs_per_s": ("1/s", "higher"),
    "job_p50_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# Per-layer self times: metric -> span names whose self time it sums.
LAYER_TIMES = {
    "cli.self_ms": ("cli.main",),
    "model.build_instance.ms": (
        "model.build_instance", "model.parse_decimal", "model.from_fractions",
        "model.unit_price_family", "model.with_total"),
    "model.composition_energy.ms": ("model.composition_energy",),
    "solver.solve_params.ms": ("solver.solve_params",),
    "solver.solve_sigma.ms": ("solver.solve_sigma",),
    "solver.build_allocation.ms": ("solver.build_allocation",),
    "oracle.count_configurations.ms": ("oracle.count_configurations",),
    "oracle.cumulative_stats.ms": ("oracle.cumulative_stats",),
    "oracle.sample_uniform.ms": ("oracle.sample_uniform",),
    "partition.z_saddle.ms": ("partition.z_saddle",),
    "partition.saddle_nu.ms": ("partition.saddle_nu",),
    "partition.z_exact.ms": ("partition.z_exact",),
    "partition.z_integral.ms": ("partition.z_integral",),
}
# Per-layer counters, per traced job: metric -> (unit, better).
LAYER_COUNTS = {
    "model.composition_energy.calls": ("count", "lower"),
    "solver.solve_params.calls": ("count", "lower"),
    "solver.solve_params.failed": ("count", "lower"),
    "solver.rounding_shift": ("count", "lower"),
    "oracle.members": ("count", "lower"),
    "oracle.sample_uniform.acceptance": ("ratio", "higher"),
    "partition.z_exact.cells": ("count", "lower"),
    "partition.z_integral.points": ("count", "lower"),
    "trace.overhead": ("ratio", "lower"),
}
PER_LAYER = {**{m: ("ms", "lower") for m in LAYER_TIMES}, **LAYER_COUNTS}


def import_cli():
    """Import bealloc from this checkout's src/, and nowhere else."""
    package = SRC / "bealloc"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no bealloc package at {package}")
    sys.path.insert(0, str(SRC))
    import bealloc.cli

    if Path(bealloc.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported bealloc from {bealloc.__file__}")
    return bealloc.cli


@dataclass
class Outcome:
    code: object
    out: str
    err: str
    seconds: float


def run_job(cli, job: Job, tracer: Optional[Tracer] = None,
            tag: str = "") -> Outcome:
    """One closed-loop job; the time covers the whole in-process call."""
    out, err = io.StringIO(), io.StringIO()
    trace = tracer.job(tag, "cli.main") if tracer else contextlib.nullcontext()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            with trace:
                code = cli.main(list(job.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a result to report, not to die on
            code = "crash"
            err.write(traceback.format_exc())
    seconds = time.perf_counter() - t0
    return Outcome(code, out.getvalue(), err.getvalue(), seconds)


@dataclass
class Ledger:
    """Every execution of the run, and the first outcome of each job."""

    first: dict[str, Outcome] = field(default_factory=dict)
    runs: list[tuple[int, str, float, object]] = field(default_factory=list)
    unstable: dict[str, str] = field(default_factory=dict)

    def add(self, pass_no: int, job: Job, outcome: Outcome) -> None:
        self.runs.append((pass_no, job.id, outcome.seconds, outcome.code))
        seen = self.first.get(job.id)
        if seen is None:
            self.first[job.id] = outcome
        elif (seen.code, seen.out, seen.err) != \
                (outcome.code, outcome.out, outcome.err):
            self.unstable.setdefault(
                job.id, f"pass {pass_no} differs from its first run")


def run_passes(seconds: float, min_passes: int, one_pass) -> tuple[int, float]:
    """Whole passes until the next one would overrun seconds."""
    start = time.perf_counter()
    passes = 0
    while True:
        t0 = time.perf_counter()
        one_pass(passes)
        passes += 1
        now = time.perf_counter()
        if passes >= min_passes and (now - start) + (now - t0) > seconds:
            return passes, now - start


def expected_failure(job: Job, code: object) -> bool:
    """A nonzero exit the parent program also gave on this instance."""
    return code != 0 and code == job.spec.get("baseline_exit")


def check_jobs(pool: list[Job], ledger: Ledger) -> dict[str, list[str]]:
    """Problems per job id: report checks, exit codes, rerun stability."""
    problems: dict[str, list[str]] = {}
    for job in pool:
        outcome = ledger.first[job.id]
        found: list[str] = []
        if outcome.code == 0:
            try:
                report = json.loads(outcome.out)
            except json.JSONDecodeError as exc:
                found.append(f"report is not JSON: {exc}")
            else:
                found.extend(check_report(job.kind, job.spec, report))
        elif not expected_failure(job, outcome.code):
            found.append(f"exit {outcome.code}: {outcome.err.strip()[-300:]}")
        if job.id in ledger.unstable:
            found.append(ledger.unstable[job.id])
        if found:
            problems[job.id] = found
    return problems


def probe_setup(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter: import, inputs, one warm-up job."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--setup-probe"]
    t0 = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True,
                          timeout=PROBE_TIMEOUT_S)
    seconds = time.perf_counter() - t0
    if done.returncode != 0:
        raise RuntimeError(f"setup probe exit {done.returncode}: {done.stderr}")
    return seconds


def environment(args: argparse.Namespace) -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def trace_targets(cli) -> list[Target]:
    """Public functions, wrapped where their callers look them up."""
    from bealloc import families, oracle, partition, solver

    def add(counter, value):
        def hook(tracer, args, kwargs, result):
            tracer.counts[counter] += value(args, kwargs, result)
        return hook

    def modes(instance) -> int:
        return sum(instance.degeneracies)

    def acceptance(tracer, args, kwargs, result):
        tracer.samples["oracle.sample_uniform.acceptance"].append(
            result.acceptance_rate)

    return [
        Target(cli, "build_instance", "model.build_instance"),
        Target(cli, "parse_decimal", "model.parse_decimal"),
        Target(families, "from_fractions", "model.from_fractions"),
        Target(families, "unit_price_family", "model.unit_price_family"),
        Target(families, "with_total", "model.with_total"),
        Target(oracle.Composition, "energy", "model.composition_energy"),
        Target(solver, "solve_params", "solver.solve_params"),
        Target(partition, "solve_sigma", "solver.solve_sigma"),
        Target(solver, "build_allocation", "solver.build_allocation",
               add("solver.rounding_shift", lambda a, k, r: r.rounding_shift)),
        Target(oracle, "count_configurations", "oracle.count_configurations",
               add("oracle.members", lambda a, k, r: r)),
        Target(oracle, "cumulative_stats", "oracle.cumulative_stats"),
        Target(oracle, "sample_uniform", "oracle.sample_uniform", acceptance),
        Target(partition, "z_saddle", "partition.z_saddle"),
        Target(partition, "saddle_nu", "partition.saddle_nu"),
        Target(partition, "z_exact", "partition.z_exact",
               add("partition.z_exact.cells",
                   lambda a, k, r: a[0].n * modes(a[0]))),
        Target(partition, "z_integral", "partition.z_integral",
               add("partition.z_integral.points",
                   lambda a, k, r: modes(a[0]) *
                   (a[3] if len(a) > 3 else k.get("grid", 4096)))),
    ]


def layer_metrics(tracer: Tracer, traced_jobs: int,
                  traced_s: float, untraced_s: float) -> dict[str, float]:
    """Self ms and counters per traced job."""
    own = self_times(tracer.spans)
    calls = call_counts(tracer.spans)
    per_job = 1.0 / traced_jobs
    out = {m: 1000.0 * per_job * sum(own.get(n, 0.0) for n in names)
           for m, names in LAYER_TIMES.items()}
    rates = tracer.samples["oracle.sample_uniform.acceptance"]
    out.update({
        "model.composition_energy.calls":
            per_job * calls.get("model.composition_energy", 0),
        "solver.solve_params.calls":
            per_job * calls.get("solver.solve_params", 0),
        "solver.solve_params.failed":
            per_job * tracer.counts["solver.solve_params.failed"],
        "solver.rounding_shift": per_job * tracer.counts["solver.rounding_shift"],
        "oracle.members": per_job * tracer.counts["oracle.members"],
        "oracle.sample_uniform.acceptance":
            sum(rates) / len(rates) if rates else 0.0,
        "partition.z_exact.cells":
            per_job * tracer.counts["partition.z_exact.cells"],
        "partition.z_integral.points":
            per_job * tracer.counts["partition.z_integral.points"],
        "trace.overhead": traced_s / untraced_s,
    })
    return out


def group_shares(tracer: Tracer, top: int = 4) -> dict[str, list]:
    """Per job group, its largest span self times as shares of the group's
    traced time, largest first."""
    own = self_times(tracer.spans, key=lambda span: (
        group_of(span.job.split(":", 1)[1]), span.name))
    totals: dict[str, float] = {}
    for (group, _), seconds in own.items():
        totals[group] = totals.get(group, 0.0) + seconds
    return {group: sorted(((name, seconds / totals[group])
                           for (g, name), seconds in own.items() if g == group),
                          key=lambda item: -item[1])[:top]
            for group in totals}


def print_metric(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"  {name:34s} {value:>16.6g} {unit:6s} {note}".rstrip())


def setup_probe(args: argparse.Namespace) -> int:
    cli = import_cli()
    workdir = WORK_DIR / f"probe-{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        pool = build_pool(args.workload, args.seed, workdir)
        outcome = run_job(cli, pool[0])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if outcome.code == 0 or expected_failure(pool[0], outcome.code) \
        else 1


def measure(args: argparse.Namespace, cli, workdir: Path) -> int:
    env = environment(args)
    pool = build_pool(args.workload, args.seed, workdir)
    run_job(cli, pool[0])  # warm-up, untimed
    ledger = Ledger()
    tracer = Tracer(trace_targets(cli)) if args.trace else None
    paired = {"traced": 0.0, "untraced": 0.0}

    def one_pass(pass_no: int) -> None:
        for job in pool:
            outcome = run_job(cli, job)
            ledger.add(pass_no, job, outcome)
            if tracer is not None:
                traced = run_job(cli, job, tracer, f"{pass_no}:{job.id}")
                ledger.add(pass_no, job, traced)
                paired["untraced"] += outcome.seconds
                paired["traced"] += traced.seconds

    setup = [] if args.trace else \
        [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    min_passes = 1 if args.trace else 2
    passes, wall = run_passes(args.seconds, min_passes, one_pass)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = check_jobs(pool, ledger)
    attempted = len(ledger.runs)
    failed = sum(1 for _, job_id, _, code in ledger.runs
                 if code != 0 or job_id in problems)
    known = {job.id: ledger.first[job.id] for job in pool
             if expected_failure(job, ledger.first[job.id].code)}
    completed = [(pass_no, seconds) for pass_no, job_id, seconds, code
                 in ledger.runs if code == 0 and job_id not in problems]

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{passes} passes x {len(pool)} jobs in {wall:.2f} s")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"  error_rate {failed}/{attempted} = {failed / attempted:.4f}")
    for job_id, outcome in known.items():
        reason = outcome.err.strip().splitlines()[-1] if outcome.err else ""
        print(f"  known failure {job_id}: exit {outcome.code} {reason}")
    for job_id, found in problems.items():
        for problem in found:
            print(f"  CHECK FAILED {job_id}: {problem}")
    per_job: dict[str, list[float]] = {}
    for _, job_id, seconds, _ in ledger.runs:
        per_job.setdefault(job_id, []).append(1000.0 * seconds)
    slowest = sorted(per_job, key=lambda j: -median(per_job[j]))[:3]
    print("  slowest jobs: " + ", ".join(
        f"{j} {median(per_job[j]):.1f} ms" for j in slowest))

    metrics: dict[str, dict] = {}
    if tracer is not None:
        traced_jobs = passes * len(pool)
        values = layer_metrics(tracer, traced_jobs, paired["traced"],
                               paired["untraced"])
        job_ms = 1000.0 * paired["traced"] / traced_jobs
        print(f"per-layer, per traced job (traced job {job_ms:.3f} ms):")
        for name, (unit, _) in PER_LAYER.items():
            note = f"{values[name] / job_ms:6.1%} of job" if unit == "ms" else ""
            print_metric(name, values[name], unit, note)
            metrics[name] = {"value": values[name], "unit": unit}
        print("self-time shares of traced job time, per job group:")
        for group, shares in group_shares(tracer).items():
            print(f"  {group:14s} " + ", ".join(
                f"{name} {share:.1%}" for name, share in shares))
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(spans_path)
        print(f"  {len(tracer.spans)} spans written to "
              f"{spans_path.relative_to(ROOT)}")
    else:
        if not completed:
            raise RuntimeError("no job completed; nothing to time")
        times_ms = [1000.0 * seconds for _, seconds in completed]
        # The percentile is chosen from the jobs every run has (its first
        # min_passes passes), so it does not shift with the pass count.
        ref = sum(1 for pass_no, _ in completed if pass_no < min_passes)
        tail = tail_percentile(ref)
        values = {
            "setup_s": median(setup),
            "jobs_per_s": len(completed) / wall,
            "job_p50_ms": median(times_ms),
            "peak_rss_mb": rss_mb,
        }
        notes = {
            "setup_s": f"median of {len(setup)} fresh interpreters",
            "jobs_per_s": f"{len(completed)} completed jobs",
            "job_p50_ms": f"of {len(times_ms)} completed jobs",
        }
        print("end-to-end:")
        for name, (unit, _) in END_TO_END.items():
            print_metric(name, values[name], unit, notes.get(name, ""))
            metrics[name] = {"value": values[name], "unit": unit}
        if tail is not None:
            print_metric("job_tail_ms", percentile(times_ms, tail), "ms",
                         f"p{tail:g} of {len(times_ms)} jobs (chosen for "
                         f"{ref}); printed only")

    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def parse_args(argv: Optional[list[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[list[str]] = None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    cli = import_cli()
    workdir = WORK_DIR / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return measure(args, cli, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()


if __name__ == "__main__":
    sys.exit(main())
