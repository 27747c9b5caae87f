"""Domain model: price schedules, share bounds, problem instances.

An instance describes s enterprises ordered by priority, each with a strictly
positive unit price p_i. A portfolio assigns every enterprise a share count
C_i with K = C_1 <= C_2 <= ... <= C_s = M, so it is determined by the
increments N_i = C_i - C_{i-1} >= 0 for i = 2..s, which distribute
N = M - K units over the s - 1 modes. Mode i carries the tail weight

    lambda_i = p_i + p_{i+1} + ... + p_s,

the marginal cost of raising every count from position i onward by one.
Total spending is K*lambda_1 plus the mode energy sum(N_i * lambda_i), so a
budget Phi leaves the effective budget E = Phi - K*lambda_1 for the modes.

An instance is its prices and its bounds (K, M and the budget Phi), with
every price and the budget held as an exact integer numerator over one
common denominator, the instance `scale`. The tail weights are not an
input: they are derived from the prices as integer suffix sums, so each
enterprise i >= 2 adds exactly one mode. `build_instance` parses decimal
strings straight to those integers and `families.from_fractions` converts
exact rationals once; each part has the one constructor that takes the
integers. Every validation is
an integer comparison, so feasibility decisions never go through floats.
The Fraction attributes (`prices`, `values`, `mode_weights`, `budget`,
`effective_budget`) are views derived from the integers on demand.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Callable, Iterable, Optional, Sequence

from .errors import (
    BoundsInverted,
    BudgetInfeasible,
    EmptyPrices,
    InputError,
    NonPositivePrice,
    ScaleMismatch,
    TooFewEnterprises,
)

DEFAULT_SCALE = 10**6


def format_scaled(numerator: int, scale: int) -> str:
    """str(Fraction(numerator, scale)) for scale > 0, without the Fraction."""
    g = math.gcd(numerator, scale)
    if g == scale:
        return str(numerator // scale)
    return f"{numerator // g}/{scale // g}"


def _scale_mismatch(text: str, scale: int, what: str) -> ScaleMismatch:
    return ScaleMismatch(
        f"{what} {text!r} is not a multiple of 1/{scale}; "
        f"raise --scale or round the input"
    )


def parse_decimal(text: str, scale: int, what: str) -> Fraction:
    """Parse a decimal (or rational) string into an exact Fraction.

    The value must be an integer multiple of 1/scale.
    """
    try:
        value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"could not parse {what} {text!r}") from exc
    if (value * scale).denominator != 1:
        raise _scale_mismatch(text, scale, what)
    return value


def parse_scaled(text: str, scale: int, what: str) -> int:
    """Parse a decimal (or rational) string into the integer value * scale.

    The one-item case of parse_scaled_column, labelled `what`.
    """
    return parse_scaled_column((text,), scale, lambda i: what)[0]


def parse_scaled_column(
    texts: Sequence[str], scale: int, label: Callable[[int], str]
) -> list[int]:
    """Parse decimal (or rational) strings into the integers value * scale.

    One loop over the texts, in order. A plain decimal (`12`, `12.5`, `.5`,
    `12.`: ASCII digits and at most one dot, surrounding whitespace allowed,
    no more digits than int() reads) with digits d, dot dropped, and f of
    them after the dot is read as value * scale = d * scale / 10^f. Every
    other form (signs, exponents, `a/b`, underscores, non-ASCII digits,
    longer digit strings) goes through parse_decimal, with its errors. Each
    value must be an integer multiple of 1/scale, else ScaleMismatch. The
    first text that fails raises, labelled label(index).
    """
    # 0 means no limit (Python 3.10 before 3.10.7); longer digits are left
    # to parse_decimal, which reads them or fails
    limit = getattr(sys, "get_int_max_str_digits", int)() or math.inf
    values = []
    for i, text in enumerate(texts):
        item = str.strip(text)
        whole, _, frac = item.partition(".")
        digits = whole + frac
        if item.isascii() and digits.isdigit() and len(digits) <= limit:
            value, rest = divmod(int(digits) * scale, 10 ** len(frac))
            if rest:
                raise _scale_mismatch(text, scale, label(i))
        else:
            value = int(parse_decimal(text, scale, label(i)) * scale)
        values.append(value)
    return values


@dataclass(frozen=True)
class PriceSchedule:
    """Strictly positive unit prices in priority order, at one scale.

    numerators[i] is price i+1 times scale; `prices` is the Fraction view.
    """

    numerators: tuple[int, ...]
    scale: int

    def __post_init__(self) -> None:
        nums, scale = self.numerators, self.scale
        if scale <= 0:
            raise InputError(f"scale must be positive, got {scale}")
        if not nums:
            raise EmptyPrices("price schedule is empty")
        if len(nums) < 2:
            raise TooFewEnterprises(
                f"need at least 2 enterprises, got {len(nums)}"
            )
        # set/map/min run in C: no per-price Python loop on valid input
        if set(map(type, nums)) != {int}:
            i, v = next(
                (i, v) for i, v in enumerate(nums) if type(v) is not int
            )
            raise InputError(f"price {i + 1} numerator {v!r} is not an int")
        if min(nums) <= 0:
            i, v = next((i, v) for i, v in enumerate(nums) if v <= 0)
            raise NonPositivePrice(
                f"price {i + 1} is {format_scaled(v, scale)}; must be > 0"
            )

    @property
    def size(self) -> int:
        return len(self.numerators)

    @cached_property
    def prices(self) -> tuple[Fraction, ...]:
        """The prices as exact Fractions."""
        return tuple(Fraction(v, self.scale) for v in self.numerators)


@dataclass(frozen=True)
class InvestmentBounds:
    """Common lower/upper share counts K <= M and the total budget Phi.

    budget_numerator is Phi times scale; `budget` is the Fraction view.
    """

    min_shares: int
    max_shares: int
    budget_numerator: int
    scale: int

    def __post_init__(self) -> None:
        k, m, budget = self.min_shares, self.max_shares, self.budget_numerator
        if k < 0 or m < 0:
            raise InputError(
                f"share bounds must be nonnegative, got K={k}, M={m}"
            )
        if k > m:
            raise BoundsInverted(f"K={k} exceeds M={m}")
        if type(budget) is not int:
            raise InputError(f"budget numerator {budget!r} is not an int")
        if budget <= 0:
            raise InputError(
                f"budget must be positive, "
                f"got {format_scaled(budget, self.scale)}"
            )

    @property
    def budget(self) -> Fraction:
        return Fraction(self.budget_numerator, self.scale)

    @property
    def span(self) -> int:
        """Number of increments N = M - K to distribute."""
        return self.max_shares - self.min_shares


@dataclass(frozen=True)
class TailWeights:
    """Suffix sums lambda_i = p_i + ... + p_s of a schedule, at its scale.

    numerators[i] is lambda_{i+1} times scale; `values` is the Fraction view.
    Only ProblemInstance.weights builds them, from positive prices, so they
    strictly decrease and stay positive.
    """

    numerators: tuple[int, ...]
    scale: int

    @cached_property
    def values(self) -> tuple[Fraction, ...]:
        """The weights as exact Fractions."""
        return tuple(Fraction(v, self.scale) for v in self.numerators)


@dataclass(frozen=True)
class ProblemInstance:
    """A validated allocation problem: prices and bounds.

    The schedule and the bounds share one scale. The tail weights, n = M - K
    and the effective budget E = Phi - K*lambda_1 are derived from them.
    """

    schedule: PriceSchedule
    bounds: InvestmentBounds

    def __post_init__(self) -> None:
        scale = self.schedule.scale
        if self.bounds.scale != scale:
            raise ScaleMismatch(
                f"bounds scale {self.bounds.scale} differs from the schedule "
                f"scale {scale}"
            )
        lam1 = self.weights.numerators[0]
        phi = self.bounds.budget_numerator
        low = self.bounds.min_shares * lam1
        high = self.bounds.max_shares * lam1
        if not (low <= phi <= high):
            raise BudgetInfeasible(
                f"budget {format_scaled(phi, scale)} outside the feasible "
                f"window [{format_scaled(low, scale)}, "
                f"{format_scaled(high, scale)}] = [K*lambda_1, M*lambda_1]"
            )

    @cached_property
    def weights(self) -> TailWeights:
        """lambda_i = p_i + ... + p_s: the schedule's integer suffix sums."""
        nums = self.schedule.numerators
        return TailWeights(tuple(accumulate(reversed(nums)))[::-1], self.scale)

    @property
    def size(self) -> int:
        return self.schedule.size

    @property
    def n(self) -> int:
        return self.bounds.span

    @property
    def scale(self) -> int:
        return self.schedule.scale

    @property
    def mode_weights(self) -> tuple[Fraction, ...]:
        """Weights of the modes 2..s (lambda_2 .. lambda_s)."""
        return self.weights.values[1:]

    def mode_weights_scaled(self) -> tuple[int, ...]:
        """Mode weights lambda_2..lambda_s as exact integers at the scale."""
        return self._mode_weights_scaled

    @cached_property
    def _mode_weights_scaled(self) -> tuple[int, ...]:
        # one tuple per (frozen) instance: the solver, the partition layer
        # and every Composition.energy call ask for it
        return self.weights.numerators[1:]

    @cached_property
    def _offsets_memo(self) -> dict:
        # solver.mode_offsets keeps one entry per pole side here, so the fit
        # and the rounding of one solve convert the weights to floats once
        return {}

    @property
    def degeneracies(self) -> tuple[int, ...]:
        # every mode is simple; kept only for perfbench until its next change
        return (1,) * (self.size - 1)

    def effective_budget_scaled(self) -> int:
        """E = Phi - K*lambda_1 as an exact integer at the scale."""
        return (
            self.bounds.budget_numerator
            - self.bounds.min_shares * self.weights.numerators[0]
        )

    @property
    def effective_budget(self) -> Fraction:
        return Fraction(self.effective_budget_scaled(), self.scale)

    @property
    def interior(self) -> bool:
        """True when E lies strictly inside the attainable energy range."""
        lams, e = self.weights.numerators, self.effective_budget_scaled()
        return self.n * lams[-1] < e < self.n * lams[1]


def energy_range(instance: ProblemInstance) -> tuple[Fraction, Fraction]:
    """Attainable mode-energy range (n*lambda_s, n*lambda_2).

    Lower and upper bound coincide exactly when s = 2 or n = 0.
    """
    lams, scale = instance.weights.numerators, instance.scale
    return (
        Fraction(instance.n * lams[-1], scale),
        Fraction(instance.n * lams[1], scale),
    )


def build_instance(
    prices: Iterable[str],
    min_shares: int,
    max_shares: int,
    budget: Optional[str],
    *,
    scale: int = DEFAULT_SCALE,
) -> ProblemInstance:
    """Validate raw inputs and assemble a ProblemInstance.

    Prices and budget are decimal strings, parsed straight to integers at
    the given scale. A budget of None places Phi at M*lambda_1, the top of
    the feasible window, where the energy cut never binds.
    """
    prices = tuple(prices)  # read a one-shot iterable once
    if not prices:
        raise EmptyPrices("price schedule is empty")
    schedule = PriceSchedule(
        tuple(parse_scaled_column(prices, scale, lambda i: f"price {i + 1}")),
        scale,
    )
    phi = (
        max_shares * sum(schedule.numerators)  # M * lambda_1
        if budget is None
        else parse_scaled(budget, scale, "budget")
    )
    return ProblemInstance(
        schedule, InvestmentBounds(min_shares, max_shares, phi, scale)
    )
