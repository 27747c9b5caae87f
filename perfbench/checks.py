"""Per-job correctness checks.

Each checker takes the job spec and the parsed JSON report of a run that
exited 0, and returns a list of problems (empty when the report passes).
Expected values are computed here from the job's own inputs or read from
the golden catalog, never taken from the program under test.
"""

from __future__ import annotations

import math
from fractions import Fraction

RESIDUAL_TOL = 1e-9
LOG_Z_TOL = 1e-12
INTEGRAL_TOL = 1e-8
# integral_rel_err is held to INTEGRAL_TOL only on rows with
# n * INTEGRAL_GRID_RATIO <= grid. Larger rows alias at the default grid
# 4096; over the zcheck catalog the worst errors are 4e-13 at n = 120, 1e-9 at
# n = 200, 4e-8 at n = 240 and 0.25 at n = 2500.
INTEGRAL_GRID_RATIO = 32
VERIFY_ROWS = [6, 9, 12, 15, 20, 25]


def _finite(x: object) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) \
        and math.isfinite(x)


def check_solve(spec: dict, report: dict) -> list[str]:
    """Counts monotone from K to M, exact spend within budget, residuals."""
    problems: list[str] = []
    prices = [Fraction(p) for p in spec["prices"]]
    k, m = spec["k"], spec["m"]
    budget = Fraction(spec["budget"])
    counts = report.get("counts")
    if not isinstance(counts, list) or len(counts) != len(prices) \
            or not all(isinstance(c, int) for c in counts):
        return [f"counts malformed: expected {len(prices)} integers"]
    if counts[0] != k or counts[-1] != m:
        problems.append(f"counts run {counts[0]}..{counts[-1]}, want {k}..{m}")
    if any(b < a for a, b in zip(counts, counts[1:])):
        problems.append("counts not monotone")
    spend = sum(p * c for p, c in zip(prices, counts))
    if Fraction(report.get("spend", "nan")) != spend:
        problems.append(f"spend {report.get('spend')} != exact {spend}")
    if spend > budget:
        problems.append(f"spend {spend} exceeds budget {budget}")
    if Fraction(report.get("budget_residual", "nan")) != budget - spend:
        problems.append("budget_residual != budget - spend")
    n = m - k
    e = float(budget - k * sum(prices))
    for key, scale in (("residual_n", max(1.0, n)),
                       ("residual_e", max(1.0, abs(e)))):
        r = report.get(key)
        if not _finite(r) or abs(r) > RESIDUAL_TOL * scale:
            problems.append(f"{key} = {r} above {RESIDUAL_TOL} relative")
    for key in ("beta", "sigma"):
        if not _finite(report.get(key)):
            problems.append(f"{key} not finite")
    shift = report.get("rounding_shift")
    if not isinstance(shift, int) or shift < 0:
        problems.append(f"rounding_shift {shift} not a count")
    return problems


def check_enumerate(spec: dict, report: dict) -> list[str]:
    """Golden |M|, last cumulative mean = n exactly, acceptance in (0, 1]."""
    problems: list[str] = []
    if report.get("total_count") != spec["total_count"]:
        problems.append(f"total_count {report.get('total_count')} != golden "
                        f"{spec['total_count']}")
    if report.get("l") != spec["l"]:
        problems.append(f"l {report.get('l')} != {spec['l']}")
    means = report.get("cumulative_means")
    if not isinstance(means, list) or len(means) != len(spec["prices"]) - 1:
        problems.append("cumulative_means malformed")
    else:
        values = [Fraction(v) for v in means]
        if values[-1] != spec["n"]:
            problems.append(f"last cumulative mean {means[-1]} != n = {spec['n']}")
        if values[0] < 0 or any(b < a for a, b in zip(values, values[1:])):
            problems.append("cumulative means not nondecreasing from >= 0")
    frac = report.get("deviation_fraction")
    if not _finite(frac) or not 0.0 <= frac <= 1.0:
        problems.append(f"deviation_fraction {frac} outside [0, 1]")
    rate = report.get("acceptance_rate")
    if not _finite(rate) or not 0.0 < rate <= 1.0:
        problems.append(f"acceptance_rate {rate} outside (0, 1]")
    return problems


def check_verify(spec: dict, report: dict) -> list[str]:
    """Sampled trend rows: the six sizes, fractions in [0, 1]."""
    problems: list[str] = []
    if report.get("samples") != spec["samples"] \
            or report.get("seed") != spec["seed"]:
        problems.append("samples or seed not echoed")
    rows = report.get("rows")
    if not isinstance(rows, list) or [r.get("n") for r in rows] != VERIFY_ROWS:
        return problems + [f"rows are not n = {VERIFY_ROWS}"]
    for row in rows:
        dev, shell = row.get("deviation_fraction"), row.get("shell_weight")
        if not _finite(dev) or not 0.0 <= dev <= 1.0:
            problems.append(f"n={row['n']}: deviation_fraction {dev}")
        if not _finite(shell) or shell < 0.0:
            problems.append(f"n={row['n']}: shell_weight {shell}")
    return problems


def check_zcheck(spec: dict, report: dict) -> list[str]:
    """Golden log Z to 1e-12 relative; quadrature error on small rows."""
    problems: list[str] = []
    rows = report.get("rows")
    golden = spec["rows"]
    if not isinstance(rows, list) or [r.get("n") for r in rows] != \
            [g["n"] for g in golden]:
        return [f"rows are not n = {[g['n'] for g in golden]}"]
    for row, gold in zip(rows, golden):
        want = float(gold["log_z_exact"])
        got = float(row.get("log_z_exact", "nan"))
        if not abs(got - want) <= LOG_Z_TOL * max(1.0, abs(want)):
            problems.append(f"n={row['n']}: log_z_exact {got!r} vs golden "
                            f"{want!r}")
        if row["n"] * INTEGRAL_GRID_RATIO <= spec["grid"]:
            err = float(row.get("integral_rel_err", "nan"))
            if not abs(err) <= INTEGRAL_TOL:
                problems.append(f"n={row['n']}: integral_rel_err {err}")
    if report.get("grid") != spec["grid"]:
        problems.append("grid not echoed")
    return problems


CHECKERS = {
    "solve": check_solve,
    "enumerate": check_enumerate,
    "verify": check_verify,
    "zcheck": check_zcheck,
}


def check_report(kind: str, spec: dict, report: dict) -> list[str]:
    """Problems with one report; a malformed field is a problem too."""
    if not isinstance(report, dict) or report.get("command") != kind:
        return [f"not a {kind} report"]
    try:
        return CHECKERS[kind](spec, report)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [f"malformed report: {type(exc).__name__}: {exc}"]
