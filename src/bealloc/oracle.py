"""Exact ground truth over the configuration set M.

M is the set of compositions (N_2, ..., N_s) of n units over the modes with
total energy sum(N_j * lambda_j) <= E. Everything here works in scaled
integer arithmetic: energies are exact ints, membership is never decided by
a float. Two walks go over M mode by mode, pruning any prefix whose cheapest
completion already overshoots the budget. The visitor walk
(iter_compositions) yields every member in lexicographic order and is the
reference. The level sweep (`_levels`) also closes every suffix whose most
expensive completion still fits into a closed form. It holds one frontier
per mode: the distinct states (units, budget left) as a pair of numpy
arrays. The open states expand to all their children at once, and equal
children merge after one argsort per level of one integer key per child,
units * (budget + 1) + left, so a state reached by many prefixes is walked
once; where int64 keys could pass 2^63, the rank of left among the
level's children stands for left. The state arrays are int64 while
units * lambda and the budget fit, and the count arrays while every
count and total fits; past its bound each is an object array of Python
ints, chosen by one comparison (`_levels`, `_count_dtype`).

The sweep's aggregates are read off its levels. The count |M| sums
completion counts back from the last level, with stars-and-bars binomials
for the closed suffixes. The ensemble statistics (|M|, the S_l histogram
and per-mode totals, all exact integers) weigh each state by its prefix
times its completion count. The shell weight is a sum of exp(-beta *
energy) that is a product over modes, so it is summed back like the
count, in log space, and is the count ratio at beta = 0
(`_log_shell_sum`). Each open state's children make one log-sum-exp:
their terms and max are arrays, and the exps, sums and logs are
math.exp, math.fsum and math.log per run. Its closed form for a suffix
is a complete homogeneous polynomial, tabulated by the log-space
geometric prefix-sum recurrence that the partition layer runs for Z
(`partition.geometric_prefix_sums`). `enumerate --l` takes |M| from the
statistics walk and runs no separate count walk.

The sweep's last two modes are closed too (the pair). A suffix from the
penultimate mode puts v = 0..vmax units there and the rest on the last
mode, whose completion always fits, so each aggregate sums those vmax + 1
closed forms in closed form: vmax + 1 members, their S_l histogram as a
run of ones or a single bin, their per-mode totals from one triangular
number, and the shell weight as a log-sum-exp over a slice of the last
mode's table row. That level opens no states. A suffix's closed form
depends only on its mode and units, so each aggregate computes it once
per (mode, units).

The sampler draws a proposal as n + m - 1 uniform values, whose m - 1
smallest mark the bars of a stars-and-bars composition. It draws chunks
of _CHUNK proposals, each as a run of row blocks of about _CELLS values,
so a block's sort and mask stay in cache and memory stays bounded
whatever n + m - 1 is. The generator fills row-major, so the blocks of a
chunk hold exactly the chunk's values. A block is drawn as the raw
64-bit PCG64 words w that Generator.random turns into the doubles
(w >> 11) * 2^-53. Only the values' order matters, and a smaller top 32
bits means a smaller double, so a block's bars are read off one sort of
those 32-bit keys (`_word_bars`): the (m-1)-th smallest key of a row is
its threshold, and the positions at or below it, in order, are the
row's bars. A block with a tie at a threshold in the keys rebuilds its
doubles exactly and takes argpartition on them. A proposal's scaled
energy is linear in its bar positions, so acceptance is decided on the
bars, and only the accepted rows are turned into compositions; once
count are kept, the rest of the chunk is only counted. The acceptance
rate, and the pilot that checks it, count whole chunks. `sample_uniform`
reads that block stream (`_draws`) to its chunk's end, `draw_parts` only
up to the block of its last kept draw, with the same draws and errors.
When n = 0 or m = 1, M has one composition at most, and its fit is
decided once, with no proposals drawn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice
from typing import Callable, Iterator, Optional

import numpy as np

from .errors import (
    CapExceeded,
    DegenerateBoundary,
    DomainError,
    InputError,
    LowAcceptance,
)
from .model import ProblemInstance
from .partition import geometric_prefix_sums
from .solver import (ThermoParams, check_index, check_tilt_range,
                     predicted_cumulative)

DEFAULT_CAP = 10**8
_PILOT_TRIALS = 100_000
_PILOT_RATE = 1e-4
_CHUNK = 20_000
_CELLS = 2**16  # raw words per sampler block: 512 kB


@dataclass(frozen=True)
class Composition:
    """One member of M: increments per mode in priority order."""

    parts: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.parts)

    def energy(self, instance: ProblemInstance) -> Fraction:
        lams = instance.mode_weights_scaled()
        if len(self.parts) != len(lams):
            raise InputError(
                f"composition has {len(self.parts)} parts, instance has "
                f"{len(lams)} modes"
            )
        scaled = sum(p * w for p, w in zip(self.parts, lams))
        return Fraction(scaled, instance.scale)


@dataclass(frozen=True)
class EnsembleStats:
    """Exact ensemble statistics of M at one cumulative index l."""

    total_count: int
    cumulative_mean: tuple[Fraction, ...]
    deviation_fraction: float
    delta: float
    l: int


@dataclass(frozen=True, eq=False)
class SampleResult:
    """Uniform draws from M with the achieved acceptance rate.

    parts holds the draws as a read-only (count, m) int64 matrix, one row
    per draw in the order drawn; compositions builds Composition objects
    from it on demand. Two results are equal when their draws, rate and
    seed are.
    """

    parts: np.ndarray
    acceptance_rate: float
    seed: int

    @property
    def compositions(self) -> tuple[Composition, ...]:
        return tuple(Composition(tuple(row)) for row in self.parts.tolist())

    def _key(self) -> tuple:
        return (self.parts.shape, self.parts.tobytes(), self.acceptance_rate,
                self.seed)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SampleResult):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


def unconstrained_count(instance: ProblemInstance) -> int:
    """Compositions of n units over the modes, ignoring the budget."""
    m = instance.size - 1
    return math.comb(instance.n + m - 1, m - 1)


def check_cap(instance: ProblemInstance, cap: int) -> None:
    """Raise CapExceeded when the budget-free count exceeds cap."""
    bound = unconstrained_count(instance)
    if bound > cap:
        raise CapExceeded(
            f"unconstrained composition count {bound} exceeds cap {cap}"
        )


def check_sampling(count: int, seed: int) -> None:
    """Raise InputError unless the sample count and seed are nonnegative."""
    if count < 0:
        raise InputError(f"sample count must be nonnegative, got {count}")
    if seed < 0:
        raise InputError(f"seed must be nonnegative, got {seed}")


def iter_compositions(
    instance: ProblemInstance, cap: int = DEFAULT_CAP
) -> Iterator[Composition]:
    """Yield every member of M in lexicographic order of its parts."""
    check_cap(instance, cap)
    lams = instance.mode_weights_scaled()
    budget = instance.effective_budget_scaled()
    n = instance.n
    m = len(lams)
    lmin = lams[-1]
    if n * lmin > budget:
        return
    parts = [0] * m

    def rec(i: int, units: int, left: int) -> Iterator[Composition]:
        # precondition: the cheapest completion fits (units * lmin <= left)
        if i == m - 1:
            parts[i] = units
            yield Composition(tuple(parts))
            parts[i] = 0
            return
        # weights strictly decrease, so span > 0 before the last mode
        span = lams[i] - lmin
        vmax = min(units, (left - units * lmin) // span)
        for v in range(vmax + 1):
            parts[i] = v
            yield from rec(i + 1, units - v, left - v * lams[i])
        parts[i] = 0

    yield from rec(0, n, budget)


def enumerate_compositions(
    instance: ProblemInstance,
    visitor: Callable[[Composition], None],
    cap: int = DEFAULT_CAP,
) -> int:
    """Call visitor on every member of M; return the visit count."""
    visits = 0
    for comp in iter_compositions(instance, cap):
        visitor(comp)
        visits += 1
    return visits


@dataclass(frozen=True)
class _Level:
    """One mode's frontier of the walk: the units of its distinct states
    (units, budget left), sorted by both (by their key units * (budget +
    1) + left), each with units * lambda_last <= left.

    fit marks the states whose every completion fits (units * lambda_i <=
    left). The others, in state order, can put v = 0..vmax units on the
    mode, reps = vmax + 1 choices. At the penultimate mode the pair closes
    them (the rest goes on the last mode); before it they are open, and
    their children make one run each, reps long, from starts, in v order.
    Child j is the next level's state kids[j].
    """

    units: np.ndarray
    fit: np.ndarray
    reps: np.ndarray
    starts: np.ndarray
    kids: np.ndarray


def _steps(reps: np.ndarray, starts: np.ndarray, dtype) -> np.ndarray:
    """v = 0..vmax for each open state, the runs laid end to end."""
    v = np.arange(reps.sum()) - np.repeat(starts, reps)
    return v.astype(dtype, copy=False)


def _levels(lams: tuple[int, ...], n: int, budget: int) -> list[_Level]:
    """The walk over the compositions of n over lams with energy <= budget,
    one level per mode from the root (n, budget), up to the penultimate
    mode; [] when nothing fits at all.

    A state (units, left) is the integer key units * (budget + 1) + left,
    which orders states by both. A level's open states expand to their
    children at once, and equal children merge after one argsort of their
    keys, so every state of a level is walked once, however many prefixes
    reach it. The arrays are int64 while units * lambda and the budget fit,
    else object arrays of Python ints; where an int64 key could reach
    2^63, the rank of left among the level's children stands for left.
    """
    m = len(lams)
    lmin = lams[-1]
    if n * lmin > budget:
        return []
    base = budget + 1
    dtype = np.int64 if max(max(n, 1) * lams[0], budget) < 2**63 else object
    ranked = dtype is np.int64 and (n + 1) * base >= 2**63
    units = np.array([n], dtype=dtype)
    left = np.array([budget], dtype=dtype)
    levels = []
    for i, lam in enumerate(lams):
        fit = units * lam <= left
        shut = ~fit
        # lam > lmin wherever a state is shut: vmax < units, since the most
        # expensive completion overshoots
        vmax = (left[shut] - units[shut] * lmin) // (lam - lmin)
        reps = (vmax + 1).astype(np.intp)
        starts = np.cumsum(reps) - reps
        if i == m - 2:
            levels.append(_Level(units, fit, reps, starts, reps[:0]))
            break
        v = _steps(reps, starts, dtype)
        key = np.repeat(left[shut], reps) - v * lam
        if ranked:
            values, key = np.unique(key, return_inverse=True)
            base = len(values)
        key += (np.repeat(units[shut], reps) - v) * base
        order = np.argsort(key)
        key = key[order]
        new = np.ones(len(order), dtype=bool)
        new[1:] = key[1:] != key[:-1]
        kids = np.empty(len(order), dtype=np.intp)
        kids[order] = np.cumsum(new) - 1
        levels.append(_Level(units, fit, reps, starts, kids))
        units, left = key[new] // base, key[new] % base
        if ranked:
            left = values[left]
    return levels


def _count_dtype(n: int, m: int):
    """The dtype of the walk's counts and totals over m modes: int64 while
    max(n, 1) times the compositions ignoring the budget, a bound on every
    one of them, is below 2^63, else object (Python ints)."""
    bound = max(n, 1) * math.comb(n + m - 1, m - 1)
    return np.int64 if bound < 2**63 else object


def _spread(units: np.ndarray, modes: int, dtype) -> np.ndarray:
    """comb(u + modes - 1, modes - 1) for each u of units: the compositions
    of u over that many modes."""
    values, where = np.unique(units, return_inverse=True)
    table = [math.comb(u + modes - 1, modes - 1) for u in values.tolist()]
    return np.array(table, dtype=dtype)[where]


def _completions(
    levels: list[_Level], m: int, dtype
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per level, each state's completion count (the compositions of its
    suffix that fit) and each child's, summed back from the last level."""
    above = np.zeros(0, dtype=dtype)
    counts = []
    kid_counts = []
    for i in reversed(range(len(levels))):
        level = levels[i]
        here = np.empty(len(level.units), dtype=dtype)
        here[level.fit] = _spread(level.units[level.fit], m - i, dtype)
        kids = above[level.kids]
        if i == m - 2:  # pair: vmax + 1 members
            here[~level.fit] = level.reps
        else:
            here[~level.fit] = np.add.reduceat(kids, level.starts)
        counts.append(here)
        kid_counts.append(kids)
        above = here
    counts.reverse()
    kid_counts.reverse()
    return counts, kid_counts


def _prefixes(levels: list[_Level], dtype) -> list[np.ndarray]:
    """Per level, each state's prefix count: the ways the modes before it
    reach it from the root."""
    counts = [np.ones(1, dtype=dtype)]
    for level, below in zip(levels, levels[1:]):
        here = np.zeros(len(below.units), dtype=dtype)
        parents = counts[-1][~level.fit]
        np.add.at(here, level.kids, np.repeat(parents, level.reps))
        counts.append(here)
    return counts


def _count(lams: tuple[int, ...], n: int, budget: int) -> int:
    """Exact |{compositions of n over lams with energy <= budget}|."""
    levels = _levels(lams, n, budget)
    if not levels:
        return 0
    m = len(lams)
    return int(_completions(levels, m, _count_dtype(n, m))[0][0][0])


def count_configurations(
    instance: ProblemInstance, cap: int = DEFAULT_CAP
) -> int:
    """|M|, computed independently of the visitor walk."""
    check_cap(instance, cap)
    return _count(
        instance.mode_weights_scaled(),
        instance.n,
        instance.effective_budget_scaled(),
    )


def deviation_band(n: int, epsilon: float = 0.0) -> float:
    """The concentration band delta = n^(3/4 + epsilon); 0.0 at n = 0.
    A non-finite epsilon raises InputError at any n."""
    if not math.isfinite(epsilon):
        raise InputError(f"epsilon must be finite, got {epsilon}")
    if not n:
        return 0.0
    try:
        return float(n) ** (0.75 + epsilon)
    except OverflowError as exc:
        raise InputError(
            f"band n^(3/4 + epsilon) overflows a float at n = {n}, "
            f"epsilon = {epsilon}"
        ) from exc


def shell_budget(instance: ProblemInstance, epsilon: float) -> int:
    """The low-energy shell's cut on scaled energies,
    floor((E - n^(1/2 + epsilon)) * scale), exact from the float offset
    (0 at n = 0). The offset is never negative, so the cut never exceeds
    the budget."""
    n = instance.n
    try:
        offset = Fraction(float(n) ** (0.5 + epsilon) if n else 0.0)
    except (OverflowError, ValueError) as exc:
        raise InputError(
            f"shell cut n^(1/2 + epsilon) is not a finite float at n = {n}, "
            f"epsilon = {epsilon}"
        ) from exc
    return instance.effective_budget_scaled() - math.ceil(
        offset * instance.scale
    )


def _ensemble(
    lams: tuple[int, ...], n: int, budget: int, lead: int
) -> tuple[int, list[int], list[int]]:
    """(|M|, hist, totals) over the compositions of n over lams with energy
    <= budget: hist[a] counts those whose first lead parts sum to a, and
    totals[t] sums part t over them.

    They are read off the walk's levels (`_levels`) with the prefix and
    completion counts of their states. A member reaching level lead has
    share n - units there, so hist bins prefix times completion counts at
    that level, and the suffixes closed before it add their closed forms.
    Mode t's total sums v * prefix * completion over the children of its
    open states, plus the closed forms of the suffixes closed at or before
    it.
    """
    m = len(lams)
    levels = _levels(lams, n, budget)
    if not levels:
        return 0, [0] * (n + 1), [0] * m
    dtype = _count_dtype(n, m)
    after, kid_after = _completions(levels, m, dtype)
    before = _prefixes(levels, dtype)

    # compositions[p][b]: the compositions of b over p modes, b = 0..n
    none = np.zeros(n + 1, dtype=dtype)
    none[0] = 1
    compositions = list(
        accumulate(range(m), lambda c, _: np.cumsum(c), initial=none)
    )
    hist = np.zeros(n + 1, dtype=dtype)
    totals = [0] * m
    closed = [0] * m  # units per mode of the fitting suffixes closed at t
    for i, (level, pre, post) in enumerate(zip(levels, before, after)):
        shut = ~level.fit
        units = level.units[level.fit]
        weight = pre[level.fit]
        # a suffix from mode i that fits puts comb(u + m - i - 1, m - i) =
        # u * completions / (m - i) units on each of its modes in all
        closed[i] = int(
            (weight * (units * post[level.fit] // (m - i))).sum()
        )
        if i == lead:
            np.add.at(hist, (n - level.units).astype(np.intp), pre * post)
        elif i < lead and len(units):
            # a fitting suffix's share a = 0..u on the lead - i counting
            # modes, bin n - u + a, weighs the compositions of a over those
            # times those of u - a over the m - lead others: a correlation
            # over the units lo..hi that fit here
            lo, hi = int(units.min()), int(units.max())
            by_units = np.zeros(hi - lo + 1, dtype=dtype)
            np.add.at(by_units, (units - lo).astype(np.intp), weight)
            head = compositions[lead - i][: hi + 1]
            tail = compositions[m - lead][hi::-1]
            hist[n - hi :] += tail * np.convolve(by_units[::-1], head)[: hi + 1]
        if i == m - 2:  # pair: v = 0..vmax here, units - v on the last mode
            reps = level.reps
            units, weight = level.units[shut], pre[shut]
            first = reps * (reps - 1) // 2  # the sum of v
            totals[i] += int((weight * first).sum())
            totals[i + 1] += int((weight * (reps * units - first)).sum())
            if lead == m - 1:  # the share gains v: bins n - units + 0..vmax
                edges = np.zeros(n + 2, dtype=dtype)
                start = (n - units).astype(np.intp)
                np.add.at(edges, start, weight)
                np.subtract.at(edges, start + reps, weight)
                hist += np.cumsum(edges[:-1])
            elif lead == m:  # the share is n whatever v is
                hist[n] += (weight * reps).sum()
        else:
            v = _steps(level.reps, level.starts, dtype)
            totals[i] += int(
                (v * np.repeat(pre[shut], level.reps) * kid_after[i]).sum()
            )
    totals = [t + c for t, c in zip(totals, accumulate(closed))]
    return int(after[0][0]), hist.tolist(), totals


def cumulative_stats(
    instance: ProblemInstance,
    params: ThermoParams,
    l: int,
    epsilon: float = 0.0,
    cap: int = DEFAULT_CAP,
) -> EnsembleStats:
    """Exact S_l = sum(N_2..N_l) statistics over M.

    deviation_fraction is the fraction of M at distance >= delta from the
    occupancy prediction, with band delta = n^(3/4 + epsilon). |M|, the S_l
    histogram and the per-mode totals come from one walk (`_ensemble`).
    """
    check_index(instance, l)
    delta = deviation_band(instance.n, epsilon)
    check_cap(instance, cap)
    total, hist, totals = _ensemble(
        instance.mode_weights_scaled(),
        instance.n,
        instance.effective_budget_scaled(),
        l - 1,  # modes 2..l, the ones that count into S_l
    )
    if total == 0:
        raise DegenerateBoundary("configuration set is empty")

    center = predicted_cumulative(instance, params, l)
    bad = sum(c for a, c in enumerate(hist) if abs(a - center) >= delta)
    means = tuple(Fraction(c, total) for c in accumulate(totals))

    return EnsembleStats(
        total_count=total,
        cumulative_mean=means,
        deviation_fraction=bad / total,
        delta=delta,
        l=l,
    )


def _log_shell_sum(
    levels: list[_Level], logx: list[float], table: list[np.ndarray]
) -> float:
    """The root's log sum of exp(-beta * energy), summed back from the last
    level: a state that fits weighs table[i][units]; an open state adds
    v * log x_i to its kids' weights, v = 0..vmax, and takes the log of
    the sum of their exps, shifted by their max. The exps, sums and logs
    are math.exp, math.fsum and math.log, one call per term or run, so
    the bits are those of a fold over one state at a time whatever the
    order within a run."""
    m = len(logx)
    above = np.zeros(0)
    for i in reversed(range(len(levels))):
        level = levels[i]
        here = np.empty(len(level.units))
        here[level.fit] = table[i][level.units[level.fit].astype(np.intp)]
        v = _steps(level.reps, level.starts, np.intp)
        if i == m - 2:  # pair: units - v on the last mode
            units = level.units[~level.fit].astype(np.intp)
            kids = table[-1][np.repeat(units, level.reps) - v]
        else:
            kids = above[level.kids]
        terms = v * logx[i] + kids
        top = np.maximum.reduceat(terms, level.starts)
        exps = map(math.exp, (terms - np.repeat(top, level.reps)).tolist())
        sums = [math.fsum(islice(exps, r)) for r in level.reps.tolist()]
        here[~level.fit] = top + np.array(list(map(math.log, sums)))
        above = here
    return float(above[0])


def low_energy_shell_weight(
    instance: ProblemInstance,
    beta: float,
    epsilon: float = 0.25,
    cap: int = DEFAULT_CAP,
    total: Optional[int] = None,
) -> float:
    """(1/|M|) * sum of exp(-beta * energy) over the low-energy shell.

    The shell keeps members with energy <= E - n^(1/2 + epsilon), compared
    exactly against scaled integer energies (`shell_budget`; a cut beyond
    float range raises InputError). At beta = 0 the weight is the exact
    count ratio. A beta that `check_tilt_range` rejects raises InputError,
    a weight beyond float range DomainError. total, if given, is |M| as an
    earlier walk counted it (`cumulative_stats`), and is not counted again;
    a negative total raises InputError.
    """
    check_tilt_range(instance, beta)
    check_cap(instance, cap)
    cut = shell_budget(instance, epsilon)
    lams = instance.mode_weights_scaled()
    if total is None:
        total = _count(lams, instance.n, instance.effective_budget_scaled())
    elif total < 0:
        raise InputError(f"total must be nonnegative, got {total}")
    if total == 0:
        raise DegenerateBoundary("configuration set is empty")
    if beta == 0.0:
        return _count(lams, instance.n, cut) / total

    # The weight is a product over modes, so it sums back like the count. A
    # suffix from mode i where every completion fits weighs h_k(x_i, ...),
    # the complete homogeneous polynomial in x_j = exp(-beta * lambda_j),
    # tabulated for all k by h_k(x_i, ...) = sum_j x_i^(k-j) h_j(x_i+1, ...):
    # the geometric prefix sums of Z, run from the last mode to the first.
    # All of it is in log space, so no partial sum over- or underflows.
    logx = [-beta * (lam / instance.scale) for lam in lams]
    table = list(geometric_prefix_sums(instance.n, reversed(logx)))
    table.reverse()
    levels = _levels(lams, instance.n, cut)
    if not levels:  # the empty shell
        return 0.0
    log_weight = _log_shell_sum(levels, logx, table)
    try:
        return math.exp(log_weight - math.log(total))
    except OverflowError:
        raise DomainError(
            f"shell weight at beta = {beta} exceeds float range"
        ) from None


def scaled_energies(instance: ProblemInstance, parts: np.ndarray) -> np.ndarray:
    """Exact scaled energy of each row of parts, a matrix of compositions of
    instance.n over its modes: int64 while max(n, 1) * max(lambda) fits in
    2^62, else an object array of Python ints."""
    lams = instance.mode_weights_scaled()
    if max(instance.n, 1) * max(lams) > 2**62:
        return parts.astype(object) @ np.array(lams, dtype=object)
    return parts @ np.array(lams, dtype=np.int64)


def _bar_weights(
    lams: tuple[int, ...], slots: int
) -> tuple[np.ndarray, int]:
    """(diffs, const) with scaled energy = bars @ diffs + const for the
    composition whose m - 1 bars sit at sorted slot positions bars.

    diffs_j = lambda_j - lambda_(j+1) > 0 and every bar is at most
    slots - 1, so |bars @ diffs| <= (slots - 1) * (lambda_first -
    lambda_last), every partial sum included. diffs is int64 while that
    bound plus |const| is below 2^63, else an object array of Python ints.
    """
    diffs = [a - b for a, b in zip(lams, lams[1:])]
    const = lams[-1] * (slots - 1) - sum(lams[1:-1])
    if (slots - 1) * (lams[0] - lams[-1]) + abs(const) < 2**63:
        return np.array(diffs, dtype=np.int64), const
    return np.array(diffs, dtype=object), const


def _word_bars(words: np.ndarray, k: int) -> np.ndarray:
    """Column positions of the k smallest of the doubles (w >> 11) * 2^-53
    that Generator.random makes of each row of the raw 64-bit words w, in
    increasing order.

    They are read off the words' top 32 bits: a smaller key means a
    smaller double, so the entries at or below a row's k-th smallest key
    are its bars when there are exactly k of them, found by one key sort
    and one mask. A block with a tie at some row's threshold rebuilds its
    doubles exactly and takes argpartition on them, which gives the mask's
    bars on every row whose doubles do not tie: their k smallest are
    unique.
    """
    rows, slots = words.shape
    keys = (words >> 32).astype(np.uint32)
    # a copy, so the sorted matrix is freed at once
    threshold = np.sort(keys, axis=1)[:, k - 1].copy()
    flat = np.flatnonzero(keys <= threshold[:, None])
    if flat.size != rows * k:
        u = (words >> 11) * 2.0**-53
        return np.sort(np.argpartition(u, k - 1, axis=1)[:, :k], axis=1)
    bars = flat.reshape(rows, k)
    bars -= np.arange(0, rows * slots, slots)[:, None]
    return bars


def _parts_from_bars(bars: np.ndarray, slots: int) -> np.ndarray:
    """The compositions whose m - 1 bars sit at the sorted positions bars."""
    first = bars[:, :1]
    middle = bars[:, 1:] - bars[:, :-1] - 1
    last = (slots - 1) - bars[:, -1:]
    return np.concatenate([first, middle, last], axis=1)


def _low_acceptance(accepted: int, drawn: int) -> LowAcceptance:
    """The pilot's error after accepted of drawn proposals."""
    return LowAcceptance(
        f"acceptance rate {accepted / drawn:.2e} below {_PILOT_RATE} "
        f"after {drawn} trials"
    )


def _draws(
    instance: ProblemInstance, count: int, seed: int
) -> Iterator[tuple[np.ndarray, int, int]]:
    """The sampler's block stream: per block, (the accepted compositions
    still wanted toward count, in the order drawn; the proposals the block
    accepted; the proposals it drew).

    Chunks of _CHUNK proposals are drawn, as row blocks of about _CELLS raw
    words, until a chunk ends with count accepted; past count a block's
    accepted proposals are only counted. A chunk that ends at or past
    the pilot's 10^5 trials short of count, with fewer than 1 in 10^4
    proposals accepted, raises LowAcceptance. When n = 0 or m = 1, M
    holds one composition at most: one block of it count times, with no
    proposals drawn, if it fits, and if not the pilot fails at rate 0
    (for any count > 0).
    """
    check_sampling(count, seed)
    m = instance.size - 1
    n = instance.n
    budget = instance.effective_budget_scaled()
    if n == 0 or m == 1:
        # no bars: the one composition, n units on one mode or none at all,
        # costs n * sum(lambda); if it does not fit, every proposal of the
        # chunks up to the pilot would have been rejected
        if count and n * sum(instance.mode_weights_scaled()) > budget:
            raise _low_acceptance(0, -(-_PILOT_TRIALS // _CHUNK) * _CHUNK)
        yield np.full((count, m), n, dtype=np.int64), count, 0
        return

    slots = n + m - 1
    diffs, const = _bar_weights(instance.mode_weights_scaled(), slots)
    rows = max(1, _CELLS // slots)
    draw = np.random.default_rng(seed).bit_generator.random_raw
    none = np.zeros((0, m), dtype=np.int64)
    accepted = drawn = 0
    while accepted < count:
        for start in range(0, _CHUNK, rows):
            block = min(rows, _CHUNK - start)
            bars = _word_bars(draw((block, slots)), m - 1)
            energies = bars.astype(diffs.dtype, copy=False) @ diffs + const
            fits = energies <= budget
            kept = none  # past count, a block is only counted
            if accepted < count:
                kept = _parts_from_bars(bars[fits][: count - accepted], slots)
            taken = int(np.count_nonzero(fits))
            yield kept, taken, block
            accepted += taken
        drawn += _CHUNK
        if drawn >= _PILOT_TRIALS and accepted < count:
            if accepted / drawn < _PILOT_RATE:
                raise _low_acceptance(accepted, drawn)


def _read_only(kept: list[np.ndarray]) -> np.ndarray:
    parts = np.concatenate(kept)
    parts.flags.writeable = False
    return parts


def sample_uniform(
    instance: ProblemInstance, count: int, seed: int = 0
) -> SampleResult:
    """Uniform rejection sampling from M, deterministic per seed.

    Proposals are uniform compositions drawn by the stars-and-bars bijection
    (a uniform (m-1)-subset of n+m-1 slot positions: those of the m-1
    smallest of n+m-1 uniform values); a proposal is accepted iff its exact
    scaled energy, read from its bar positions, fits the budget. Chunks of
    _CHUNK proposals are drawn and decided per block of about _CELLS
    values (`_draws`), so memory does not grow with n + m - 1 past one
    row. The first
    count accepted draws are returned as the rows of SampleResult.parts;
    the rate is accepted over drawn proposals, whole chunks, so the last
    chunk's accepted draws past count enter it too. Raises LowAcceptance
    when fewer than 1 in 10^4 proposals survive a 10^5-trial pilot. When
    n = 0 or m = 1, M holds one composition at most: it is returned count
    times at rate 1.0 if it fits, and if not the pilot fails at rate 0.
    """
    kept = [np.zeros((0, instance.size - 1), dtype=np.int64)]
    accepted = drawn = 0
    for parts, taken, block in _draws(instance, count, seed):
        kept.append(parts)
        accepted += taken
        drawn += block
    return SampleResult(
        _read_only(kept), accepted / drawn if drawn else 1.0, seed
    )


def draw_parts(
    instance: ProblemInstance, count: int, seed: int = 0
) -> np.ndarray:
    """sample_uniform(instance, count, seed).parts, drawn only up to the
    block of its last row: the same draws and errors, without the rate,
    which counts whole chunks."""
    kept = [np.zeros((0, instance.size - 1), dtype=np.int64)]
    wanted = count
    for parts, _, _ in _draws(instance, count, seed):
        kept.append(parts)
        wanted -= len(parts)
        if wanted == 0:
            break
    return _read_only(kept)
