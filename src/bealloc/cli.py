"""Command-line front end.

Four commands: solve (fit multipliers and emit the rounded allocation),
enumerate (exact ensemble statistics of the configuration set), verify (the
scaled trend suite), zcheck (partition identities on a doubling schedule).
Reports are single JSON documents on stdout with sorted keys, so a rerun
with the same inputs is byte-identical; diagnostics go to stderr. Exact
integers and rationals are serialized as strings to avoid precision loss.

Exit codes: 0 success, 2 infeasible or degenerate budget, 3 numeric
failure, 4 input error, 5 enumeration or sampling capacity exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

from . import families, oracle, partition, solver
from .errors import (
    AllocError,
    BudgetInfeasible,
    CapExceeded,
    DegenerateBoundary,
    DomainError,
    InputError,
    LowAcceptance,
    NoConvergence,
    RepairFailed,
)
from .model import (  # noqa: F401  (perfbench wraps cli.parse_decimal)
    DEFAULT_SCALE,
    ProblemInstance,
    build_instance,
    format_scaled,
    parse_decimal,
)

_VERIFY_EXACT_N = (6, 9, 12, 15)
_VERIFY_SAMPLED_N = (6, 9, 12, 15, 20, 25)
_SHELL_EPSILON = 0.25


@dataclass(frozen=True)
class RunConfig:
    """Parsed invocation, one field per flag."""

    command: str
    prices_path: Optional[str] = None
    min_shares: Optional[int] = None
    max_shares: Optional[int] = None
    budget: Optional[str] = None
    epsilon: float = 0.0
    l: Optional[int] = None
    beta_override: Optional[float] = None
    samples: Optional[int] = None
    seed: int = 0
    cap: int = oracle.DEFAULT_CAP
    grid: int = 4096
    scale: int = DEFAULT_SCALE
    out_path: Optional[str] = None


class _Parser(argparse.ArgumentParser):
    """argparse normally exits 2 on usage errors; remap onto exit code 4."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(4)


def read_prices(path: str) -> list[str]:
    """Read the price CSV: one `price` or `index,price` line per enterprise."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read prices file {path}: {exc}") from exc
    out: list[str] = []
    last_index: Optional[int] = None
    for ln_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) == 1:
            out.append(fields[0])
        elif len(fields) == 2:
            try:
                index = int(fields[0])
            except ValueError as exc:
                raise InputError(
                    f"{path}:{ln_no}: bad priority index {fields[0]!r}"
                ) from exc
            if last_index is not None and index <= last_index:
                raise InputError(
                    f"{path}:{ln_no}: priority indices must ascend"
                )
            last_index = index
            out.append(fields[1])
        else:
            raise InputError(f"{path}:{ln_no}: expected `price` or `index,price`")
    return out


def _instance_doc(inst: ProblemInstance) -> dict:
    scale = inst.scale
    return {
        "prices": [format_scaled(v, scale) for v in inst.schedule.numerators],
        "scale": scale,
        "k": inst.bounds.min_shares,
        "m": inst.bounds.max_shares,
        "budget": format_scaled(inst.bounds.budget_numerator, scale),
        "lambda": [format_scaled(v, scale) for v in inst.weights.numerators],
        "n": inst.n,
        "e": format_scaled(inst.effective_budget_scaled(), scale),
    }


def _sci(x: float) -> str:
    return f"{x:.17e}"


def _build_from_config(cfg: RunConfig) -> ProblemInstance:
    if cfg.prices_path is None:
        raise InputError(f"{cfg.command} requires --prices")
    if cfg.min_shares is None or cfg.max_shares is None:
        raise InputError(f"{cfg.command} requires --min-shares and --max-shares")
    if cfg.budget is None:
        raise InputError(f"{cfg.command} requires --budget")
    return build_instance(
        read_prices(cfg.prices_path),
        cfg.min_shares,
        cfg.max_shares,
        cfg.budget,
        scale=cfg.scale,
    )


def cmd_solve(cfg: RunConfig) -> dict:
    inst = _build_from_config(cfg)
    params = solver.solve_params(inst)
    alloc = solver.build_allocation(inst, params)
    scale = inst.scale
    effective = inst.effective_budget_scaled()
    first_price_budget = (
        inst.bounds.budget_numerator
        - inst.bounds.min_shares * inst.schedule.numerators[0]
    )
    return {
        "command": "solve",
        "instance": _instance_doc(inst),
        "beta": params.beta,
        "sigma": params.sigma,
        "residual_n": params.residual_n,
        "residual_e": params.residual_e,
        "negative_beta": params.beta < 0,
        "occupancies": list(alloc.occupancies),
        "counts": list(alloc.counts),
        "spend": str(alloc.spend),
        "budget_residual": str(alloc.budget_residual),
        "rounding_shift": alloc.rounding_shift,
        "deviation_budget": float(inst.n) ** 0.75 if inst.n else 0.0,
        "effective_budget": format_scaled(effective, scale),
        "effective_budget_first_price": format_scaled(
            first_price_budget, scale
        ),
    }


def _regime_note(inst: ProblemInstance) -> None:
    s, n = inst.size, inst.n
    if n > 0 and not (n / 4 <= s <= 4 * n):
        sys.stderr.write(
            f"note: s = {s} far from n = {n}; concentration statements "
            "assume s comparable to n\n"
        )


def cmd_enumerate(cfg: RunConfig) -> dict:
    inst = _build_from_config(cfg)
    report: dict = {
        "command": "enumerate",
        "instance": _instance_doc(inst),
        "cap": cfg.cap,
        "total_count": str(oracle.count_configurations(inst, cfg.cap)),
    }
    if cfg.l is not None:
        _regime_note(inst)
        try:
            params = solver.solve_params(inst)
        except DegenerateBoundary as exc:
            sys.stderr.write(f"note: skipping ensemble statistics: {exc}\n")
        else:
            stats = oracle.cumulative_stats(
                inst, params, cfg.l, cfg.epsilon, cfg.cap
            )
            report.update(
                {
                    "l": stats.l,
                    "epsilon": cfg.epsilon,
                    "delta": stats.delta,
                    "deviation_fraction": stats.deviation_fraction,
                    "cumulative_means": [str(f) for f in stats.cumulative_mean],
                }
            )
    if cfg.samples is not None:
        result = oracle.sample_uniform(inst, cfg.samples, cfg.seed)
        report.update(
            {
                "samples": cfg.samples,
                "seed": cfg.seed,
                "acceptance_rate": result.acceptance_rate,
            }
        )
    return report


def _sampled_row_stats(
    inst: ProblemInstance,
    params: solver.ThermoParams,
    l: int,
    delta: float,
    samples: int,
    seed: int,
) -> tuple[float, float]:
    """Estimate deviation fraction and shell weight from uniform draws."""
    result = oracle.sample_uniform(inst, samples, seed)
    center = solver.predicted_cumulative(inst, params, l)
    offset = float(inst.n) ** (0.5 + _SHELL_EPSILON)
    threshold = inst.effective_budget - Fraction(offset)
    deviations = 0
    shell = 0.0
    for comp in result.compositions:
        s_l = sum(comp.parts[: l - 1])
        if abs(s_l - center) >= delta:
            deviations += 1
        energy = comp.energy(inst)
        if energy <= threshold:
            shell += math.exp(-params.beta * float(energy))
    return deviations / samples, shell / samples


def cmd_verify(cfg: RunConfig) -> dict:
    ns = _VERIFY_EXACT_N if cfg.samples is None else _VERIFY_SAMPLED_N
    rows = []
    devs: list[float] = []
    shells: list[float] = []
    for offset, n in enumerate(ns):
        inst = families.unit_price_family(n, "mean")
        params = solver.solve_params(inst)
        l = -(-n // 2)  # ceil(s/2) with s = n
        delta = float(n) ** (0.75 + cfg.epsilon)
        if cfg.samples is None:
            stats = oracle.cumulative_stats(inst, params, l, cfg.epsilon, cfg.cap)
            dev = stats.deviation_fraction
            shell = oracle.low_energy_shell_weight(
                inst, params.beta, _SHELL_EPSILON, cfg.cap
            )
            total: Optional[str] = str(stats.total_count)
        else:
            dev, shell = _sampled_row_stats(
                inst, params, l, delta, cfg.samples, cfg.seed + offset
            )
            total = None
        rows.append(
            {
                "n": n,
                "l": l,
                "delta": delta,
                "total_count": total,
                "deviation_fraction": dev,
                "shell_weight": shell,
            }
        )
        devs.append(dev)
        shells.append(shell)
    return {
        "command": "verify",
        "epsilon": cfg.epsilon,
        "shell_epsilon": _SHELL_EPSILON,
        "samples": cfg.samples,
        "seed": cfg.seed if cfg.samples is not None else None,
        "rows": rows,
        "deviation_nonincreasing": all(
            b <= a for a, b in zip(devs, devs[1:])
        ),
        "shell_weight_decreasing": all(
            b < a for a, b in zip(shells, shells[1:])
        ),
    }


def cmd_zcheck(cfg: RunConfig) -> dict:
    if cfg.prices_path is None:
        raise InputError("zcheck requires --prices")
    if cfg.min_shares is None or cfg.max_shares is None:
        raise InputError("zcheck requires --min-shares and --max-shares")
    prices = read_prices(cfg.prices_path)
    if cfg.budget is None and cfg.beta_override is None:
        raise InputError("zcheck needs --beta when --budget is omitted")
    # without --budget the budget sits at M*lambda_1, where it never binds
    inst = build_instance(
        prices, cfg.min_shares, cfg.max_shares, cfg.budget, scale=cfg.scale
    )
    beta = (
        cfg.beta_override
        if cfg.beta_override is not None
        else solver.solve_params(inst).beta
    )
    if inst.n < 1:
        raise InputError("zcheck needs at least one increment (M > K)")

    rows = []
    ratios: list[float] = []
    for n in (inst.n, 2 * inst.n, 4 * inst.n):
        inst_n = families.with_total(inst, n)
        est = partition.z_saddle(inst_n, beta)
        zq = partition.z_integral(inst_n, beta, est.nu_star, cfg.grid)
        rows.append(
            {
                "n": n,
                "nu_star": _sci(est.nu_star),
                "log_z_exact": _sci(est.z_exact.log),
                "log_z_saddle": _sci(est.z_saddle.log),
                "log_z_integral": _sci(zq.log),
                "ratio": _sci(est.ratio),
                "integral_rel_err": _sci(
                    math.expm1(zq.log - est.z_exact.log)
                ),
            }
        )
        ratios.append(est.ratio)
    changes = [
        abs(b / a - 1.0) for a, b in zip(ratios, ratios[1:])
    ]
    return {
        "command": "zcheck",
        "beta": beta,
        "grid": cfg.grid,
        "rows": rows,
        "relative_changes": [_sci(c) for c in changes],
        "stabilizing": changes[1] <= 0.5 * changes[0],
    }


_COMMANDS = {
    "solve": cmd_solve,
    "enumerate": cmd_enumerate,
    "verify": cmd_verify,
    "zcheck": cmd_zcheck,
}


def _add_instance_flags(p: argparse.ArgumentParser, budget_required: bool) -> None:
    p.add_argument("--prices", dest="prices_path", required=True,
                   help="CSV of prices, ascending priority")
    p.add_argument("--min-shares", dest="min_shares", type=int, required=True)
    p.add_argument("--max-shares", dest="max_shares", type=int, required=True)
    p.add_argument("--budget", required=budget_required)
    p.add_argument("--scale", type=int, default=DEFAULT_SCALE,
                   help="decimal scale denominator (default 10^6)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bealloc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("solve", help="fit multipliers, emit the allocation")
    _add_instance_flags(p, budget_required=True)
    p.add_argument("--out", dest="out_path")

    p = sub.add_parser("enumerate", help="exact configuration statistics")
    _add_instance_flags(p, budget_required=True)
    p.add_argument("--l", type=int)
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap", type=int, default=oracle.DEFAULT_CAP)
    p.add_argument("--out", dest="out_path")

    p = sub.add_parser("verify", help="scaled concentration trend suite")
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap", type=int, default=oracle.DEFAULT_CAP)
    p.add_argument("--out", dest="out_path")

    p = sub.add_parser("zcheck", help="partition identities, doubling schedule")
    _add_instance_flags(p, budget_required=False)
    p.add_argument("--beta", dest="beta_override", type=float)
    p.add_argument("--grid", type=int, default=4096)
    p.add_argument("--out", dest="out_path")

    return parser


def _config_from(ns: argparse.Namespace) -> RunConfig:
    fields = (
        "prices_path", "min_shares", "max_shares", "budget", "epsilon", "l",
        "beta_override", "samples", "seed", "cap", "grid", "scale", "out_path",
    )
    kwargs = {}
    for f in fields:
        if hasattr(ns, f) and getattr(ns, f) is not None:
            kwargs[f] = getattr(ns, f)
    return RunConfig(command=ns.command, **kwargs)


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    cfg = _config_from(ns)
    try:
        report = _COMMANDS[cfg.command](cfg)
    except (BudgetInfeasible, DegenerateBoundary) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (NoConvergence, DomainError, RepairFailed) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 4
    except (CapExceeded, LowAcceptance) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 5
    except AllocError as exc:  # unmapped library error: treat as numeric
        sys.stderr.write(f"error: {exc}\n")
        return 3
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if cfg.out_path is not None:
        Path(cfg.out_path).write_text(text)
    sys.stdout.write(text)
    return 0


def entry() -> None:
    sys.exit(main())
