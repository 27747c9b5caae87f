"""Command-line front end.

Four commands: solve (fit multipliers and emit the rounded allocation),
enumerate (exact ensemble statistics of the configuration set), verify (the
scaled trend suite), zcheck (partition identities on a doubling schedule).
Reports are single JSON documents on stdout with sorted keys, so a rerun
with the same inputs is byte-identical; diagnostics go to stderr. Exact
integers and rationals are serialized as strings to avoid precision loss.

Exit codes: 0 on success; otherwise the code that _EXIT_CODES gives the
error (3 for any error it does not list).
"""

# Not in the docstring above, which is the --help text: the argument parser
# is built once per process, and a report is the same bytes as
# json.dumps(report, sort_keys=True, indent=2).

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Optional

import numpy as np

from . import families, oracle, partition, solver
from .errors import (
    AllocError,
    BudgetInfeasible,
    CapExceeded,
    DegenerateBoundary,
    InputError,
    LowAcceptance,
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


# An error exits with the code of the first class in its MRO listed here, so
# NoConvergence, DomainError, RepairFailed and any unlisted AllocError exit 3
# (numeric failure). Usage errors exit with the InputError code.
_EXIT_CODES = {
    BudgetInfeasible: 2,
    DegenerateBoundary: 2,
    AllocError: 3,
    InputError: 4,
    CapExceeded: 5,
    LowAcceptance: 5,
}


class _Parser(argparse.ArgumentParser):
    """argparse normally exits 2 on usage errors; remap onto exit code 4."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(_EXIT_CODES[InputError])


def read_prices(path: str) -> list[str]:
    """Read the price CSV: one `price` or `index,price` line per enterprise.

    Lines end at newlines only; read_text has already turned \r\n and \r
    into \n. Other characters that str.splitlines breaks at (\v, \f,
    \x85, \u2028, ...) stay inside their line.
    """
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read prices file {path}: {exc}") from exc
    lines = text.split("\n")
    if "," not in text:  # bare prices only: drop the blank lines
        return list(filter(None, map(str.strip, lines)))
    out: list[str] = []
    last_index: Optional[int] = None
    for ln_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if "," not in line:  # a bare price; only `index,price` is split
            if line:
                out.append(line)
            continue
        head, _, price = line.partition(",")
        if "," in price:
            raise InputError(f"{path}:{ln_no}: expected `price` or `index,price`")
        head = head.strip()
        try:
            index = int(head)
        except ValueError as exc:
            raise InputError(
                f"{path}:{ln_no}: bad priority index {head!r}"
            ) from exc
        if last_index is not None and index <= last_index:
            raise InputError(f"{path}:{ln_no}: priority indices must ascend")
        last_index = index
        out.append(price.strip())
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


def _build(args: argparse.Namespace) -> ProblemInstance:
    prices = read_prices(args.prices_path)
    # only zcheck may omit --budget: the budget then sits at M*lambda_1,
    # where it never binds, and no fit can supply beta
    if args.budget is None and args.beta_override is None:
        raise InputError("zcheck needs --beta when --budget is omitted")
    return build_instance(
        prices, args.min_shares, args.max_shares, args.budget, scale=args.scale
    )


def cmd_solve(args: argparse.Namespace) -> dict:
    inst = _build(args)
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
        "deviation_budget": oracle.deviation_band(inst.n),
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


def _require_finite(flag: str, value: Optional[float]) -> None:
    if value is not None and not math.isfinite(value):
        raise InputError(f"{flag} must be finite, got {value}")


def _check_ensemble_flags(args: argparse.Namespace) -> None:
    """The --epsilon, --cap, --samples and --seed checks that enumerate and
    verify share; --seed is checked only when --samples uses it."""
    _require_finite("--epsilon", args.epsilon)
    if args.cap < 0:
        raise InputError(f"--cap must be nonnegative, got {args.cap}")
    if args.samples is not None:
        oracle.check_sampling(args.samples, args.seed)


def cmd_enumerate(args: argparse.Namespace) -> dict:
    _check_ensemble_flags(args)
    inst = _build(args)
    if args.l is not None:  # before the fit, which a boundary budget skips
        solver.check_index(inst, args.l)
    report: dict = {
        "command": "enumerate",
        "instance": _instance_doc(inst),
        "cap": args.cap,
    }
    total: Optional[int] = None
    if args.l is not None:
        oracle.check_cap(inst, args.cap)
        _regime_note(inst)
        try:
            params = solver.solve_params(inst)
        except DegenerateBoundary as exc:
            sys.stderr.write(f"note: skipping ensemble statistics: {exc}\n")
        else:
            stats = oracle.cumulative_stats(
                inst, params, args.l, args.epsilon, args.cap
            )
            total = stats.total_count
            report.update(
                {
                    "l": stats.l,
                    "epsilon": args.epsilon,
                    "delta": stats.delta,
                    "deviation_fraction": stats.deviation_fraction,
                    "cumulative_means": [str(f) for f in stats.cumulative_mean],
                }
            )
    if total is None:  # no stats walk ran to count |M|
        total = oracle.count_configurations(inst, args.cap)
    report["total_count"] = str(total)
    if args.samples is not None:
        if total == 0:  # no member to draw: the sampler would only reject
            raise DegenerateBoundary("configuration set is empty")
        result = oracle.sample_uniform(inst, args.samples, args.seed)
        report.update(
            {
                "samples": args.samples,
                "seed": args.seed,
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
    """Estimate deviation fraction and shell weight from uniform draws.

    Works on the draw matrix: S_l is a row sum, and a draw is in the shell
    when its exact scaled energy is within `oracle.shell_budget`. The shell
    terms exp(-beta * energy) are added one by one in draw order.
    """
    parts = oracle.sample_uniform(inst, samples, seed).parts
    center = solver.predicted_cumulative(inst, params, l)
    s_l = parts[:, : l - 1].sum(axis=1)
    deviations = int(np.count_nonzero(np.abs(s_l - center) >= delta))
    energies = oracle.scaled_energies(inst, parts)
    in_shell = energies <= oracle.shell_budget(inst, _SHELL_EPSILON)
    shell = 0.0
    for energy in energies[in_shell].tolist():
        shell += math.exp(-params.beta * (energy / inst.scale))
    return deviations / samples, shell / samples


def cmd_verify(args: argparse.Namespace) -> dict:
    _check_ensemble_flags(args)
    if args.samples == 0:  # each sampled row averages over its draws
        raise InputError("verify --samples must be positive, got 0")
    ns = _VERIFY_EXACT_N if args.samples is None else _VERIFY_SAMPLED_N
    rows = []
    devs: list[float] = []
    shells: list[float] = []
    # the bands depend only on n and epsilon: reject an overflowing one
    # before any row is fitted
    bands = [oracle.deviation_band(n, args.epsilon) for n in ns]
    for offset, (n, delta) in enumerate(zip(ns, bands)):
        inst = families.unit_price_family(n, "mean")
        params = solver.solve_params(inst)
        l = -(-n // 2)  # ceil(s/2) with s = n
        if args.samples is None:
            stats = oracle.cumulative_stats(
                inst, params, l, args.epsilon, args.cap
            )
            dev = stats.deviation_fraction
            shell = oracle.low_energy_shell_weight(
                inst, params.beta, _SHELL_EPSILON, args.cap,
                total=stats.total_count,
            )
            total: Optional[str] = str(stats.total_count)
        else:
            dev, shell = _sampled_row_stats(
                inst, params, l, delta, args.samples, args.seed + offset
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
        "epsilon": args.epsilon,
        "shell_epsilon": _SHELL_EPSILON,
        "samples": args.samples,
        "seed": args.seed if args.samples is not None else None,
        "rows": rows,
        "deviation_nonincreasing": all(
            b <= a for a, b in zip(devs, devs[1:])
        ),
        "shell_weight_decreasing": all(
            b < a for a, b in zip(shells, shells[1:])
        ),
    }


def cmd_zcheck(args: argparse.Namespace) -> dict:
    _require_finite("--beta", args.beta_override)
    partition.check_grid(args.grid)
    inst = _build(args)
    if inst.n < 1:
        raise InputError("zcheck needs at least one increment (M > K)")
    beta = (
        args.beta_override
        if args.beta_override is not None
        else solver.solve_params(inst).beta
    )
    # past float range every mode's Boltzmann exponent is inf or nan, and
    # the recurrence would only end in a misleading pole error; its largest
    # tilt k*beta*(lambda_j - lambda_p) is at k = 4n and the widest gap
    lams, scale = inst.weights.numerators, inst.scale
    lam2 = lams[1] / scale
    if not math.isfinite(beta * lam2):
        raise InputError(
            f"--beta {beta} overflows beta * lambda_2 (lambda_2 = {lam2})"
        )
    gap = (lams[1] - lams[-1]) / scale
    if not math.isfinite(4 * inst.n * abs(beta) * gap):
        raise InputError(
            f"--beta {beta} overflows 4n * |beta| * (lambda_2 - lambda_s) "
            f"(n = {inst.n}, lambda_2 - lambda_s = {gap})"
        )

    # One recurrence serves the three rows: the 4n profile starts with the
    # n and 2n ones. A row past the caps is still rejected by z_exact.
    try:
        profile = partition.z_profile(inst, beta, 4 * inst.n)
    except CapExceeded:  # too many modes: z_exact rejects the first row
        profile = None
    rows = []
    ratios: list[float] = []
    for n in (inst.n, 2 * inst.n, 4 * inst.n):
        inst_n = families.with_total(inst, n)
        est = partition.z_saddle(inst_n, beta, profile)
        zq = partition.z_integral(inst_n, beta, est.nu_star, args.grid)
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
        "grid": args.grid,
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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bealloc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)
    solve = sub.add_parser("solve",
                           help="fit multipliers, emit the allocation")
    enum = sub.add_parser("enumerate", help="exact configuration statistics")
    verify = sub.add_parser("verify", help="scaled concentration trend suite")
    zcheck = sub.add_parser("zcheck",
                            help="partition identities, doubling schedule")
    for p in (solve, enum, zcheck):
        p.add_argument("--prices", dest="prices_path", required=True,
                       help="CSV of prices, ascending priority")
        p.add_argument("--min-shares", type=int, required=True)
        p.add_argument("--max-shares", type=int, required=True)
        p.add_argument("--budget", required=p is not zcheck)
        p.add_argument("--scale", type=int, default=DEFAULT_SCALE,
                       help="decimal scale denominator (default 10^6)")
    enum.add_argument("--l", type=int)
    for p in (enum, verify):
        p.add_argument("--epsilon", type=float, default=0.0)
        p.add_argument("--samples", type=int)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--cap", type=int, default=oracle.DEFAULT_CAP)
    zcheck.add_argument("--beta", dest="beta_override", type=float)
    zcheck.add_argument("--grid", type=int, default=4096)
    for p in (solve, enum, verify, zcheck):
        p.add_argument("--out", dest="out_path")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # argparse formats usage and help when it prints them, so one parser
    # serves every call; parse_args leaves it unchanged
    return build_parser()


_SCALAR_TYPES = frozenset({str, int, float, bool, type(None)})


def _dumps(obj: object) -> str:
    """json.dumps(obj, sort_keys=True, indent=2), byte for byte.

    indent= runs CPython's pure-Python encoder. A flat list of scalars, the
    bulk of a report, instead goes to the C encoder in one call, with the
    item separator the pure encoder writes: a comma, a newline and the
    indent. Dict keys must be strings.
    """
    parts: list[str] = []
    _encode(obj, "\n", parts)
    return "".join(parts)


def _encode(obj: object, newline: str, parts: list[str]) -> None:
    """Append obj's indented JSON to parts; newline ends obj's first line."""
    if isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            parts.append(sep + encode_basestring_ascii(key) + ": ")
            _encode(value, inner, parts)
            sep = "," + inner
        parts.append(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
            return
        inner = newline + "  "
        if set(map(type, obj)) <= _SCALAR_TYPES:
            body = json.dumps(obj, separators=("," + inner, ": "))[1:-1]
            parts.append("[" + inner + body + newline + "]")
            return
        sep = "[" + inner
        for value in obj:
            parts.append(sep)
            _encode(value, inner, parts)
            sep = "," + inner
        parts.append(newline + "]")
    else:
        parts.append(json.dumps(obj))


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        report = _COMMANDS[args.command](args)
        text = _dumps(report) + "\n"
        if args.out_path is not None:
            try:
                Path(args.out_path).write_text(text)
            except OSError as exc:
                raise InputError(
                    f"cannot write report {args.out_path}: {exc}"
                ) from exc
    except AllocError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return next(
            _EXIT_CODES[c] for c in type(exc).__mro__ if c in _EXIT_CODES
        )
    sys.stdout.write(text)
    return 0


def entry() -> None:
    sys.exit(main())
