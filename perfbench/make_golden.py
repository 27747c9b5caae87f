"""Regenerate perfbench/golden.json, the fixed catalogs behind the
crosscheck, zcheck and solve-wide workloads.

    python3 perfbench/make_golden.py [crosscheck] [zcheck] [solve-wide]

With no argument every catalog is rebuilt; naming some keeps the others.
Selection depends on the inputs and the program's outputs, never on
timings, so a rebuild gives the same file. Each entry carries its inputs and the values the
checkers compare against, so a run never trusts the code it measures:

- crosscheck: instances whose `walk_size` (see `walk_size`) falls in the
  middle half of one of CROSS_STRATA log-spaced strata of
  CROSS_WALK_RANGE, CROSS_PER_STRATUM per stratum but one in the top one
  (a run takes every instance), and whose uniform sampler accepts at
  least CROSS_MIN_ACCEPTANCE of its proposals (|M| over the compositions
  without a budget): below that the proposals, not the walk, set the cost.
  The exact |M| comes from `count_configurations`, confirmed by a full
  `enumerate_compositions` walk wherever the set has at most WALK_LIMIT
  members (`walk_checked`).
- zcheck: `log_z_exact` for the three doubling rows from an independent
  evaluation (Newton's identities for the complete homogeneous polynomial
  h_n of the mode weights, in log space with numpy). A row where the
  program's own value differs by more than LOG_Z_ADMIT relative stops the
  build.
- solve-wide: WIDE_VARIANTS variants per (s, n, t) cell, each with the
  exit code the program gave when the catalog was built (`baseline_exit`).
  The run accepts that exit from that variant and no other failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path
from tempfile import TemporaryDirectory
from typing import Optional

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from bealloc import (  # noqa: E402
    build_instance,
    count_configurations,
    enumerate_compositions,
    solve_params,
)
from bealloc.cli import main as cli_main  # noqa: E402
from bealloc.oracle import unconstrained_count  # noqa: E402

from checks import LOG_Z_TOL  # noqa: E402
from workloads import (  # noqa: E402
    CROSS_SAMPLES,
    GOLDEN_PATH,
    WIDE_N,
    WIDE_S,
    WIDE_T,
    WIDE_VARIANTS,
    ZCHECK_GRID,
    cents_prices,
    interior_budget,
    wide_variant,
)

# walk_size from 1e3 to 1e5 spans about 0.1-0.7 s of `enumerate --l
# --samples 10000` on a 2-CPU Xeon; |M| alone predicts that time poorly.
# With walks up to 3e5 (jobs up to 2 s) ten-seed spreads of jobs_per_s and
# job_p50_ms reached 0.24-0.32 on a shared 2-CPU host, above their bound.
CROSS_WALK_RANGE = (1_000, 100_000)
CROSS_STRATA = 8
CROSS_MIN_ACCEPTANCE = 0.05
CROSS_PER_STRATUM = 2
WALK_LIMIT = 10**6
LOG_Z_ADMIT = LOG_Z_TOL
Z_VARIANTS = 5
# (n0, s): rows run at n0, 2*n0, 4*n0 units over s - 1 modes. The last
# class sits at the DP caps (10^4 units, 999 modes).
Z_CLASSES = (
    (10, 12), (120, 12), (2500, 12), (50, 20), (2500, 20), (40, 30),
    (640, 30), (2500, 30), (100, 60), (2500, 60), (300, 90), (160, 120),
    (40, 240), (40, 1000), (2500, 1000),
)


def _run(argv: list[str]) -> tuple[int, dict, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, json.loads(out.getvalue()) if code == 0 else {}, err.getvalue()


def _write(tmp: Path, prices: list[str]) -> str:
    path = tmp / "p.csv"
    path.write_text("".join(f"{p}\n" for p in prices))
    return str(path)


def walk_size(inst) -> int:
    """Calls of the memoized recursion that counts M: the mode i, units left
    and budget left of each call, pruned where every or no completion fits.
    It is the size of the exact oracle's work on the instance, which
    dominates an `enumerate` job, and depends on the inputs alone."""
    lams = [w for w, g in zip(inst.mode_weights_scaled(), inst.degeneracies)
            for _ in range(g)]
    lmin = lams[-1]
    seen: set[tuple[int, int, int]] = set()
    calls = 0

    def rec(i: int, units: int, left: int) -> None:
        nonlocal calls
        calls += 1
        key = (i, units, left)
        if units * lams[i] <= left or units * lmin > left or key in seen:
            return
        seen.add(key)
        vmax = min(units, (left - units * lmin) // (lams[i] - lmin))
        for v in range(vmax + 1):
            rec(i + 1, units - v, left - v * lams[i])

    rec(0, inst.n, inst.effective_budget_scaled())
    return calls


def _stratum(size: int) -> Optional[int]:
    """The log-spaced stratum of a walk_size in the middle half of one,
    else None: the narrower band keeps the variants of a stratum alike."""
    low, high = (math.log(x) for x in CROSS_WALK_RANGE)
    place = CROSS_STRATA * (math.log(size) - low) / (high - low)
    stratum = math.floor(place)
    if not 0 <= stratum < CROSS_STRATA or not 0.25 <= place - stratum < 0.75:
        return None
    return stratum


def crosscheck_catalog(rng: random.Random, tmp: Path) -> list[dict]:
    # The top stratum holds one instance: the largest walk sets the run's
    # peak memory, which then does not vary with the seed.
    want = [CROSS_PER_STRATUM] * (CROSS_STRATA - 1) + [1]
    filled = [0] * CROSS_STRATA
    out: list[dict] = []
    tried = 0
    while filled != want:
        tried += 1
        s = rng.randint(8, 14)
        n = rng.randint(12, 16)
        prices = cents_prices(rng, s)
        budget = interior_budget(prices, 0, n, rng.randint(20, 80))
        l = rng.randint(2, s)
        inst = build_instance(prices, 0, n, budget)
        size = walk_size(inst)
        stratum = _stratum(size)
        if stratum is None or filled[stratum] >= want[stratum]:
            continue
        total = count_configurations(inst)
        if total < CROSS_MIN_ACCEPTANCE * unconstrained_count(inst):
            continue
        argv = ["enumerate", "--prices", _write(tmp, prices), "--min-shares",
                "0", "--max-shares", str(n), "--budget", budget, "--l", str(l),
                "--samples", str(CROSS_SAMPLES), "--seed", "1"]
        code, report, err = _run(argv)
        if code != 0:
            raise SystemExit(f"crosscheck candidate {tried}: exit {code} {err}")
        if report["total_count"] != str(total):
            raise SystemExit(f"count mismatch on candidate {tried}")
        walk_checked = total <= WALK_LIMIT
        if walk_checked:
            visits = enumerate_compositions(inst, lambda comp: None)
            if visits != total:
                raise SystemExit(f"walk {visits} != count {total}")
        filled[stratum] += 1
        out.append({
            "id": f"c{tried:03d}", "stratum": stratum, "walk_size": size,
            "prices": prices,
            "n": n, "budget": budget, "l": l, "total_count": str(total),
            "walk_checked": walk_checked, "beta": _beta_of(inst),
        })
        print(f"crosscheck {len(out)}: stratum {stratum} s={s} n={n} "
              f"walk_size={size} |M|={total}", file=sys.stderr)
    return sorted(out, key=lambda e: (e["stratum"], e["id"]))


def _beta_of(inst) -> float:
    beta = solve_params(inst).beta
    if beta == 0.0:
        raise SystemExit("crosscheck instances need beta != 0")
    return beta


def log_h_newton(lams: np.ndarray, beta: float, n: int) -> float:
    """log h_n(w) for w_j = exp(-beta * lam_j), by Newton's identities
    k h_k = sum_{i=1..k} p_i h_{k-i} with power sums p_i = sum_j w_j^i.
    Every term is positive, so the log-space sums lose no precision."""
    logw = -beta * lams
    i = np.arange(1, n + 1, dtype=float)[:, None]
    log_p = np.empty(n + 1)
    log_p[0] = -np.inf
    for start in range(0, n, 512):
        block = i[start:start + 512] * logw[None, :]
        top = block.max(axis=1, keepdims=True)
        log_p[1 + start:1 + start + len(block)] = (
            top[:, 0] + np.log(np.exp(block - top).sum(axis=1))
        )
    log_h = np.empty(n + 1)
    log_h[0] = 0.0
    for k in range(1, n + 1):
        terms = log_p[1:k + 1] + log_h[k - 1::-1]
        top = terms.max()
        log_h[k] = top + math.log(np.exp(terms - top).sum()) - math.log(k)
    return float(log_h[n])


def zcheck_catalog(rng: random.Random, tmp: Path) -> list[dict]:
    classes = []
    worst = 0.0
    for n0, s in Z_CLASSES:
        variants = []
        for v in range(Z_VARIANTS):
            prices = cents_prices(rng, s)
            mean_price = sum(Fraction(p) for p in prices) / s
            beta = f"{rng.uniform(0.05, 1.0) / float(mean_price):.6g}"
            argv = ["zcheck", "--prices", _write(tmp, prices),
                    "--min-shares", "0", "--max-shares", str(n0),
                    "--beta", beta, "--grid", str(ZCHECK_GRID)]
            code, report, err = _run(argv)
            if code != 0:
                raise SystemExit(f"zcheck class ({n0}, {s}) exit {code} {err}")
            lams = np.array([float(x) for x in _tail_weights(prices)[1:]])
            rows = []
            for row in report["rows"]:
                ref = log_h_newton(lams, float(beta), row["n"])
                rel = abs(float(row["log_z_exact"]) - ref) / max(1.0, abs(ref))
                if rel > LOG_Z_ADMIT:
                    raise SystemExit(
                        f"z_exact {row['log_z_exact']} vs Newton {ref!r} "
                        f"(rel {rel:.1e}) at n={row['n']} s={s}"
                    )
                worst = max(worst, rel)
                rows.append({"n": row["n"], "log_z_exact": repr(ref)})
            variants.append({"id": f"v{v}", "prices": prices, "beta": beta,
                             "rows": rows})
        print(f"zcheck ({n0}, {s}): worst program vs Newton {worst:.1e}",
              file=sys.stderr)
        classes.append({"n0": n0, "s": s, "variants": variants})
    return classes


def wide_catalog(_rng: random.Random, tmp: Path) -> list[dict]:
    """Variants come from their own names (`wide_variant`), not from rng."""
    cells = []
    for s in WIDE_S:
        for n in WIDE_N:
            for t in WIDE_T:
                variants = []
                for v in range(WIDE_VARIANTS):
                    prices, k, budget = wide_variant(s, n, t, v)
                    argv = ["solve", "--prices", _write(tmp, prices),
                            "--min-shares", str(k), "--max-shares", str(k + n),
                            "--budget", budget]
                    code, _, err = _run(argv)
                    variants.append({"v": v, "budget": budget,
                                     "baseline_exit": code})
                    if code != 0:
                        print(f"wide s={s} n={n} t={t} v{v}: exit {code} "
                              f"{err.strip()[:80]}", file=sys.stderr)
                cells.append({"id": f"wide-s{s}-n{n}-t{t}", "s": s, "n": n,
                              "t": t, "variants": variants})
    return cells


def _tail_weights(prices: list[str]) -> list[Fraction]:
    acc = Fraction(0)
    out = []
    for p in reversed(prices):
        acc += Fraction(p)
        out.append(acc)
    return out[::-1]


def main(sections: list[str]) -> None:
    golden = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    catalogs = {"crosscheck": crosscheck_catalog, "zcheck": zcheck_catalog,
                "solve-wide": wide_catalog}
    work = HERE.parent / ".perfbench_work"
    work.mkdir(exist_ok=True)
    with TemporaryDirectory(dir=work) as tmp:
        for name in sections or list(catalogs):
            rng = random.Random(f"perfbench-golden-v1:{name}")
            golden[name] = catalogs[name](rng, Path(tmp))
    with contextlib.suppress(OSError):
        work.rmdir()
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
