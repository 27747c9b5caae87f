"""Exact ground truth over the configuration set M.

M is the set of compositions (N_2, ..., N_s) of n units over the modes with
total energy sum(N_j * lambda_j) <= E. Everything here works in scaled
integer arithmetic: energies are exact ints, membership is never decided by
a float. Two walks go over M mode by mode, pruning any prefix whose cheapest
completion already overshoots the budget. The visitor walk
(iter_compositions) yields every member in lexicographic order and is the
reference. The memoized walk also collapses every suffix whose most
expensive completion still fits into a closed form, and a memo on (mode,
units, remaining budget) makes repeated suffixes free. Its aggregates are
the count |M| (stars-and-bars binomials), the ensemble statistics (|M|, the
S_l histogram and per-mode totals, all exact integers) and the shell weight,
a sum of exp(-beta * energy) that is a product over modes, so it joins like
the count; it is summed in log space, and is the count ratio at beta = 0.
Its closed form for a suffix is a complete homogeneous polynomial, tabulated
by the log-space geometric prefix-sum recurrence that the partition layer
runs for Z (`partition.geometric_prefix_sums`).
`enumerate --l` takes |M| from the statistics walk and runs no separate
count walk.

The statistics walk packs a suffix's S_l histogram and its per-mode totals
into one int each, a polynomial evaluated at 2^w (Kronecker substitution):
hist = sum of c_a * 2^(w*a), where c_a counts the suffix's completions
whose S_l share is a, and totals = sum of T_t * 2^(w*t), where T_t sums
the units on the suffix's mode t over them. Every digit is a nonnegative
integer no larger than max(n, 1) * |compositions ignoring the budget|, and
w is one bit wider than that bound, so adding packed values adds the
digits and shifting by w*v moves a histogram up by v units, and no digit
ever carries into the next. A join is then a few big-int additions and
shifts per kid, and the digits are read out once, after the walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Iterator, Optional, TypeVar

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
from .solver import ThermoParams, check_index, predicted_cumulative

DEFAULT_CAP = 10**8
_PILOT_TRIALS = 100_000
_PILOT_RATE = 1e-4
_CHUNK = 20_000

_T = TypeVar("_T")


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


def _walk(
    lams: tuple[int, ...],
    n: int,
    budget: int,
    fits: Callable[[int, int], _T],
    join: Callable[[int, list[_T]], _T],
) -> _T:
    """Aggregate over the compositions of n over lams with energy <= budget.

    fits(i, units) is the closed form for a suffix from mode i whose every
    completion fits; join(i, kids) combines kids[v], the aggregates of the
    suffix after v units on mode i, v = 0..vmax. Below the root the cheapest
    completion always fits, so kids is empty only when nothing fits at all.
    """
    lmin = lams[-1]
    if n * lmin > budget:
        return join(0, [])
    memo: dict[tuple[int, int, int], _T] = {}

    def rec(i: int, units: int, left: int) -> _T:
        # precondition: the cheapest completion fits (units * lmin <= left)
        if units * lams[i] <= left:
            return fits(i, units)
        key = (i, units, left)
        cached = memo.get(key)
        if cached is not None:
            return cached
        lam = lams[i]
        span = lam - lmin  # > 0 here, else the first cut would have fired
        vmax = min(units, (left - units * lmin) // span)
        # a loop, not a comprehension: before Python 3.12 a comprehension
        # turns rec's locals into closure cells, 1.3x slower on the count
        kids: list[_T] = []
        for v in range(vmax + 1):
            kids.append(rec(i + 1, units - v, left - v * lam))
        result = memo[key] = join(i, kids)
        return result

    try:
        return rec(0, n, budget)
    finally:
        # rec's closure holds rec itself; breaking that cycle frees the memo
        # and whatever fits and join hold now, not at the next cyclic
        # garbage collection
        rec = None  # type: ignore[assignment]


def _count(lams: tuple[int, ...], n: int, budget: int) -> int:
    """Exact |{compositions of n over lams with energy <= budget}|."""
    m = len(lams)
    return _walk(
        lams,
        n,
        budget,
        lambda i, units: math.comb(units + m - i - 1, m - i - 1),
        lambda i, kids: sum(kids),
    )


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


def _unpack(packed: int, w: int, size: int) -> list[int]:
    """The size lowest base-2^w digits of packed, least significant first."""
    mask = (1 << w) - 1
    return [(packed >> w * k) & mask for k in range(size)]


def cumulative_stats(
    instance: ProblemInstance,
    params: ThermoParams,
    l: int,
    epsilon: float = 0.0,
    cap: int = DEFAULT_CAP,
) -> EnsembleStats:
    """Exact S_l = sum(N_2..N_l) statistics over M.

    deviation_fraction is the fraction of M at distance >= delta from the
    occupancy prediction, with band delta = n^(3/4 + epsilon).

    The walk carries (count, hist, totals) per suffix, hist and totals
    packed in base 2^w: digit a of hist counts the completions with S_l
    share a, digit t of totals sums the units on the suffix's mode t. No
    digit exceeds max(n, 1) * unconstrained_count(instance) < 2^(w - 1),
    and all are nonnegative, so no sum of packed values ever carries
    between digits, whatever cap admits.
    """
    check_index(instance, l)
    delta = deviation_band(instance.n, epsilon)
    check_cap(instance, cap)
    lams = instance.mode_weights_scaled()
    lead = l - 1  # modes 2..l, the ones that count into S_l

    # One walk aggregates |M|, the S_l histogram and the per-mode totals.
    # Those of a suffix are relative to it, so the memo reuses them at any
    # prefix.
    n = instance.n
    w = (max(n, 1) * unconstrained_count(instance)).bit_length() + 1

    def fits(i: int, units: int) -> tuple[int, int, int]:
        m = len(lams) - i
        count = math.comb(units + m - 1, m - 1)
        per_mode = math.comb(units + m - 1, m)  # sum of one part over all
        totals = per_mode * (((1 << w * m) - 1) // ((1 << w) - 1))
        if i >= lead:
            hist = count
        else:
            nl = lead - i
            nt = m - nl
            if nt == 0:
                hist = count << w * units
            else:
                hist = 0
                for a in range(units + 1):
                    hist += (
                        math.comb(a + nl - 1, nl - 1)
                        * math.comb(units - a + nt - 1, nt - 1)
                    ) << w * a
        return count, hist, totals

    def join(
        i: int, kids: list[tuple[int, int, int]]
    ) -> tuple[int, int, int]:
        count = hist = first = rest = 0
        step = w if i < lead else 0  # from lead on, S_l gains nothing
        for v, (c, h, t) in enumerate(kids):
            count += c
            hist += h << step * v
            first += v * c
            rest += t
        return count, hist, first + (rest << w)

    budget = instance.effective_budget_scaled()
    total, hist, totals = _walk(lams, n, budget, fits, join)
    if total == 0:
        raise DegenerateBoundary("configuration set is empty")

    center = predicted_cumulative(instance, params, l)
    bad = sum(
        c for a, c in enumerate(_unpack(hist, w, n + 1))
        if abs(a - center) >= delta
    )

    means = tuple(
        Fraction(c, total) for c in accumulate(_unpack(totals, w, len(lams)))
    )

    return EnsembleStats(
        total_count=total,
        cumulative_mean=means,
        deviation_fraction=bad / total,
        delta=delta,
        l=l,
    )


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
    count ratio; a weight beyond float range raises DomainError. total, if
    given, is |M| as an earlier walk counted it (`cumulative_stats`), and
    is not counted again; a negative total raises InputError.
    """
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

    # The weight is a product over modes, so it joins like the count. A
    # suffix from mode i where every completion fits weighs h_k(x_i, ...),
    # the complete homogeneous polynomial in x_j = exp(-beta * lambda_j),
    # tabulated for all k by h_k(x_i, ...) = sum_j x_i^(k-j) h_j(x_i+1, ...):
    # the geometric prefix sums of Z, run from the last mode to the first.
    # All of it is in log space, so no partial sum over- or underflows.
    logx = [-beta * (lam / instance.scale) for lam in lams]
    table = list(geometric_prefix_sums(instance.n, reversed(logx)))
    table.reverse()

    def join(i: int, kids: list[float]) -> float:
        if not kids:  # the empty shell
            return -math.inf
        terms = [v * logx[i] + w for v, w in enumerate(kids)]
        top = max(terms)
        return top + math.log(math.fsum(math.exp(t - top) for t in terms))

    log_weight = _walk(
        lams, instance.n, cut, lambda i, u: float(table[i][u]), join
    )
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


def sample_uniform(
    instance: ProblemInstance, count: int, seed: int = 0
) -> SampleResult:
    """Uniform rejection sampling from M, deterministic per seed.

    Proposals are uniform compositions drawn by the stars-and-bars bijection
    (a uniform (m-1)-subset of n+m-1 slot positions); a proposal is accepted
    iff its exact scaled energy fits the budget. The first count accepted
    draws are returned as the rows of SampleResult.parts; the last chunk's
    accepted draws past count still enter the acceptance rate. Raises
    LowAcceptance when fewer than 1 in 10^4 proposals survive a 10^5-trial
    pilot.
    """
    check_sampling(count, seed)
    m = instance.size - 1
    n = instance.n
    kept = [np.zeros((0, m), dtype=np.int64)]
    accepted = drawn = 0
    budget = instance.effective_budget_scaled()
    rng = np.random.default_rng(seed)
    while accepted < count:
        if n == 0:
            parts_mat = np.zeros((_CHUNK, m), dtype=np.int64)
        elif m == 1:
            parts_mat = np.full((_CHUNK, 1), n, dtype=np.int64)
        else:
            slots = n + m - 1
            u = rng.random((_CHUNK, slots))
            bars = np.sort(
                np.argpartition(u, m - 2, axis=1)[:, : m - 1], axis=1
            )
            first = bars[:, :1]
            middle = bars[:, 1:] - bars[:, :-1] - 1
            last = (slots - 1) - bars[:, -1:]
            parts_mat = np.concatenate([first, middle, last], axis=1)
        ok = parts_mat[scaled_energies(instance, parts_mat) <= budget]
        kept.append(ok[: count - accepted])
        accepted += len(ok)
        drawn += _CHUNK
        if drawn >= _PILOT_TRIALS and accepted < count:
            if accepted / drawn < _PILOT_RATE:
                raise LowAcceptance(
                    f"acceptance rate {accepted / drawn:.2e} below "
                    f"{_PILOT_RATE} after {drawn} trials"
                )

    parts = np.concatenate(kept)
    parts.flags.writeable = False
    return SampleResult(parts, accepted / drawn if drawn else 1.0, seed)
