"""Seeded job pools, one per workload.

A job is one in-process call of `bealloc.cli.main(argv)`. Each workload
builds a fixed-size pool of jobs from its seed; the run loop replays the
pool in whole passes, so every run of one seed executes the same job mix.
Price files are written into a work directory that the caller owns.

There are two workloads of two job groups each: `solve` (solve-narrow,
solve-wide) and `exact` (crosscheck, zcheck). Two long runs are steadier
on a shared host than four short ones in the same time.

The program receives only the generated CSV files and argv. Expected values
that do not come from the program itself (exact spend inputs, golden counts
and partition values, the parent program's exit code on a solve-wide
instance) travel in `Job.spec` for the checkers.

The crosscheck, zcheck and solve-wide groups draw from the fixed catalogs in
`golden.json` (rebuilt by `make_golden.py`): the seed picks one variant per
zcheck class or solve-wide cell, and runs every crosscheck instance with
its own sampler seeds, so every seed has the same size profile.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("solve", "exact")
# Job id prefix -> job group; each group is one generator below.
GROUPS = {"narrow": "solve-narrow", "wide": "solve-wide",
          "cross": "crosscheck", "z": "zcheck"}

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

# solve-narrow cells: s in 3..50 by bands of 4, n in 1..30 by bands of 3.
NARROW_S_BANDS = 12
NARROW_N_BANDS = 10
# (s, n) grid and budget positions (percent of the attainable energy range)
# of solve-wide. Mid-range budgets are left out: at s = 5000, n = 100 one
# such job spends 10-12 s in the repair loop (243k moves) and at n = 300 up
# to 29 s, longer than a pass. The repair defect still dominates the t = 75
# cells (2.5 s at s = 5000, n = 100), and n >= 1000 with t >= 75 keeps the
# NoConvergence defect.
WIDE_S = (200, 500, 1000, 2000, 5000)
WIDE_N = (100, 1000, 10000)
WIDE_T = (5, 25, 75, 95)
WIDE_VARIANTS = 4
CROSS_SAMPLES = 10000
VERIFY_SAMPLES = 2000
ZCHECK_GRID = 4096


@dataclass(frozen=True)
class Job:
    """One CLI invocation plus what its checker needs to know."""

    id: str
    kind: str
    argv: tuple[str, ...]
    spec: dict = field(default_factory=dict, compare=False)


def cents_prices(rng: random.Random, s: int) -> list[str]:
    """s random prices between 0.01 and 100.00, as decimal strings."""
    cents = [rng.randint(1, 10000) for _ in range(s)]
    return [f"{c // 100}.{c % 100:02d}" for c in cents]


def interior_budget(prices: list[str], k: int, n: int, percent: int) -> str:
    """Budget placing the effective budget at percent of the range
    (n * lambda_s, n * lambda_2), plus the floor cost k * lambda_1.

    Exact integer arithmetic: prices are whole cents, so the budget is a
    whole number of 1e-4 units; it is written with six decimals."""
    cents = [int(p.replace(".", "")) for p in prices]
    lam2 = sum(cents[1:])
    low, high = n * cents[-1], n * lam2
    units = 100 * low + percent * (high - low) + 100 * k * (cents[0] + lam2)
    return f"{units // 10**4}.{units % 10**4:04d}00"


def _write_prices(workdir: Path, job_id: str, prices: list[str]) -> str:
    path = workdir / f"{job_id}.csv"
    path.write_text("".join(f"{p}\n" for p in prices))
    return str(path)


def _solve_job(workdir: Path, job_id: str, prices: list[str], k: int,
               n: int, budget: str) -> Job:
    path = _write_prices(workdir, job_id, prices)
    argv = ("solve", "--prices", path, "--min-shares", str(k),
            "--max-shares", str(k + n), "--budget", budget)
    spec = {"prices": prices, "k": k, "m": k + n, "budget": budget}
    return Job(job_id, "solve", argv, spec)


def solve_narrow(rng: random.Random, workdir: Path) -> list[Job]:
    """Criterion-2-style instances: s <= 50, n <= 30, interior budgets.

    One job per cell of NARROW_S_BANDS s-bands x NARROW_N_BANDS n-bands,
    with budget positions drawn from a shuffled ladder of equal bands over
    5-95 %, so every seed has the same size profile."""
    cells = [(a, b) for a in range(NARROW_S_BANDS)
             for b in range(NARROW_N_BANDS)]
    ladder = list(range(len(cells)))
    rng.shuffle(ladder)
    jobs = []
    for i, ((a, b), band) in enumerate(zip(cells, ladder)):
        s = rng.randint(3 + 4 * a, 6 + 4 * a)
        prices = cents_prices(rng, s)
        k = rng.randint(0, 3)
        n = rng.randint(1 + 3 * b, 3 + 3 * b)
        percent = 5 + (90 * band + rng.randrange(90)) // len(cells)
        budget = interior_budget(prices, k, n, percent)
        jobs.append(_solve_job(workdir, f"narrow-{i:03d}", prices, k, n, budget))
    return jobs


def wide_variant(s: int, n: int, t: int, v: int) -> tuple[list[str], int, str]:
    """Prices, K and budget of variant v of the solve-wide cell (s, n, t).

    Variants are generated from their own name, not from a run's seed, so
    the catalog can record the parent program's exit code on each one."""
    rng = random.Random(f"perfbench-wide-v1:s{s}-n{n}-t{t}-v{v}")
    prices = cents_prices(rng, s)
    k = rng.randint(0, 3)
    return prices, k, interior_budget(prices, k, n, t)


def solve_wide(rng: random.Random, workdir: Path, golden: dict) -> list[Job]:
    """One catalog variant per (s, n, t) cell of the wide grid. A variant
    the parent program fails on carries that exit code as baseline_exit."""
    jobs = []
    for cell in golden["solve-wide"]:
        entry = rng.choice(cell["variants"])
        prices, k, budget = wide_variant(cell["s"], cell["n"], cell["t"],
                                         entry["v"])
        if budget != entry["budget"]:
            raise ValueError(f"{cell['id']} v{entry['v']}: generated budget "
                             f"{budget} != catalog {entry['budget']}")
        job = _solve_job(workdir, cell["id"], prices, k, cell["n"], budget)
        job.spec["baseline_exit"] = entry["baseline_exit"]
        jobs.append(job)
    return jobs


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def crosscheck(rng: random.Random, workdir: Path, golden: dict) -> list[Job]:
    """Every catalog instance through `enumerate --l --samples`, then one
    sampled `verify`. Golden counts come from the catalog. The seed draws
    the sampler seeds only: instances of one stratum differ in job time by
    up to 2x, so drawing instances would move the metrics with the seed."""
    jobs = []
    for entry in golden["crosscheck"]:
        job_id = f"cross-{entry['stratum']:02d}-{entry['id']}"
        path = _write_prices(workdir, job_id, entry["prices"])
        argv = ("enumerate", "--prices", path, "--min-shares", "0",
                "--max-shares", str(entry["n"]), "--budget", entry["budget"],
                "--l", str(entry["l"]), "--samples", str(CROSS_SAMPLES),
                "--seed", str(rng.randrange(2**31)))
        jobs.append(Job(job_id, "enumerate", argv, dict(entry)))
    seed = rng.randrange(2**31)
    jobs.append(Job("cross-verify", "verify",
                    ("verify", "--samples", str(VERIFY_SAMPLES),
                     "--seed", str(seed)),
                    {"samples": VERIFY_SAMPLES, "seed": seed}))
    return jobs


def zcheck(rng: random.Random, workdir: Path, golden: dict) -> list[Job]:
    """One catalog variant per size class through `zcheck --beta`."""
    jobs = []
    for cls in golden["zcheck"]:
        entry = rng.choice(cls["variants"])
        job_id = f"z-n{cls['n0']}-s{cls['s']}-{entry['id']}"
        path = _write_prices(workdir, job_id, entry["prices"])
        argv = ("zcheck", "--prices", path, "--min-shares", "0",
                "--max-shares", str(cls["n0"]), "--beta", entry["beta"],
                "--grid", str(ZCHECK_GRID))
        spec = dict(entry, n0=cls["n0"], grid=ZCHECK_GRID)
        jobs.append(Job(job_id, "zcheck", argv, spec))
    return jobs


def build_pool(workload: str, seed: int, workdir: Path) -> list[Job]:
    """The job pool of one workload and seed; pool[0] is the warm-up job.

    `solve` runs the solve-narrow jobs, then the solve-wide ones; `exact`
    runs the crosscheck jobs, then the zcheck ones. A job's group is the
    prefix of its id (see GROUPS)."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "solve":
        return solve_narrow(rng, workdir) + solve_wide(rng, workdir,
                                                       load_golden())
    if workload == "exact":
        golden = load_golden()
        return crosscheck(rng, workdir, golden) + zcheck(rng, workdir, golden)
    raise ValueError(f"unknown workload {workload!r}")


def group_of(job_id: str) -> str:
    return GROUPS[job_id.split("-", 1)[0]]
