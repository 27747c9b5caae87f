"""Domain model: price schedules, share bounds, tail weights, problem instances.

An instance describes s enterprises ordered by priority, each with a strictly
positive unit price p_i. A portfolio assigns every enterprise a share count
C_i with K = C_1 <= C_2 <= ... <= C_s = M, so it is determined by the
increments N_i = C_i - C_{i-1} >= 0 for i = 2..s, which distribute
N = M - K units over the s - 1 modes. Mode i carries the tail weight

    lambda_i = p_i + p_{i+1} + ... + p_s,

the marginal cost of raising every count from position i onward by one.
Total spending is K*lambda_1 plus the mode energy sum(N_i * lambda_i), so a
budget Phi leaves the effective budget E = Phi - K*lambda_1 for the modes.

All prices are decimal strings scaled to exact integers (denominator
`scale`); feasibility comparisons never go through floats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

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


def parse_decimal(text: str, scale: int, what: str) -> Fraction:
    """Parse a decimal (or rational) string into an exact Fraction.

    The value must be an integer multiple of 1/scale.
    """
    try:
        value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"could not parse {what} {text!r}") from exc
    if (value * scale).denominator != 1:
        raise ScaleMismatch(
            f"{what} {text!r} is not a multiple of 1/{scale}; "
            f"raise --scale or round the input"
        )
    return value


@dataclass(frozen=True)
class PriceSchedule:
    """Strictly positive unit prices in priority order, with their scale."""

    prices: tuple[Fraction, ...]
    scale: int = DEFAULT_SCALE

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise InputError(f"scale must be positive, got {self.scale}")
        if not self.prices:
            raise EmptyPrices("price schedule is empty")
        if len(self.prices) < 2:
            raise TooFewEnterprises(
                f"need at least 2 enterprises, got {len(self.prices)}"
            )
        for i, p in enumerate(self.prices):
            if p <= 0:
                raise NonPositivePrice(f"price {i + 1} is {p}; must be > 0")
            if (p * self.scale).denominator != 1:
                raise ScaleMismatch(
                    f"price {i + 1} = {p} is not a multiple of 1/{self.scale}"
                )

    @property
    def size(self) -> int:
        return len(self.prices)

    def scaled(self) -> tuple[int, ...]:
        """Prices as exact integers at the schedule scale."""
        return self._scaled

    @cached_property
    def _scaled(self) -> tuple[int, ...]:
        # computed once per (frozen) schedule; the solver asks repeatedly
        return tuple(int(p * self.scale) for p in self.prices)


@dataclass(frozen=True)
class InvestmentBounds:
    """Common lower/upper share counts K <= M and the total budget Phi."""

    min_shares: int
    max_shares: int
    budget: Fraction

    def __post_init__(self) -> None:
        if self.min_shares < 0 or self.max_shares < 0:
            raise InputError(
                f"share bounds must be nonnegative, got "
                f"K={self.min_shares}, M={self.max_shares}"
            )
        if self.min_shares > self.max_shares:
            raise BoundsInverted(
                f"K={self.min_shares} exceeds M={self.max_shares}"
            )
        if self.budget <= 0:
            raise InputError(f"budget must be positive, got {self.budget}")

    @property
    def span(self) -> int:
        """Number of increments N = M - K to distribute."""
        return self.max_shares - self.min_shares


@dataclass(frozen=True)
class TailWeights:
    """Suffix sums lambda_i = p_i + ... + p_s; strictly decreasing."""

    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.values) < 2:
            raise TooFewEnterprises("tail weights need at least 2 entries")
        for a, b in zip(self.values, self.values[1:]):
            if a <= b:
                raise InputError(
                    f"tail weights must strictly decrease, got {a} then {b}"
                )
        if self.values[-1] <= 0:
            raise NonPositivePrice("tail weights must stay positive")

    @classmethod
    def from_schedule(cls, schedule: PriceSchedule) -> "TailWeights":
        acc = Fraction(0)
        out = []
        for p in reversed(schedule.prices):
            acc += p
            out.append(acc)
        return cls(tuple(reversed(out)))

    def scaled(self, scale: int) -> tuple[int, ...]:
        return tuple(int(v * scale) for v in self.values)


def tail_weights(schedule: PriceSchedule) -> TailWeights:
    """Tail weights of a schedule: lambda_i = sum of prices i..s."""
    return TailWeights.from_schedule(schedule)


@dataclass(frozen=True)
class ProblemInstance:
    """A validated allocation problem.

    Fields n and effective_budget are derived from the bounds and budget:
    n = M - K units over modes 2..s, effective budget
    E = Phi - K*lambda_1. degeneracies holds one multiplicity per mode
    (all 1 unless modes are explicitly duplicated).
    """

    schedule: PriceSchedule
    bounds: InvestmentBounds
    weights: TailWeights
    n: int
    effective_budget: Fraction
    degeneracies: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        s = self.schedule.size
        if len(self.weights.values) != s:
            raise InputError("weights do not match the schedule length")
        if not self.degeneracies:
            object.__setattr__(self, "degeneracies", (1,) * (s - 1))
        if len(self.degeneracies) != s - 1:
            raise InputError("need one degeneracy per mode 2..s")
        if any(q < 1 for q in self.degeneracies):
            raise InputError("degeneracies must be >= 1")
        if self.n != self.bounds.span:
            raise InputError("n must equal M - K")
        lam1 = self.weights.values[0]
        phi = self.bounds.budget
        low = self.bounds.min_shares * lam1
        high = self.bounds.max_shares * lam1
        if not (low <= phi <= high):
            raise BudgetInfeasible(
                f"budget {phi} outside the feasible window "
                f"[{low}, {high}] = [K*lambda_1, M*lambda_1]"
            )
        if self.effective_budget != phi - self.bounds.min_shares * lam1:
            raise InputError("effective budget must equal Phi - K*lambda_1")

    @property
    def size(self) -> int:
        return self.schedule.size

    @property
    def mode_weights(self) -> tuple[Fraction, ...]:
        """Weights of the modes 2..s (lambda_2 .. lambda_s)."""
        return self.weights.values[1:]

    @property
    def scale(self) -> int:
        return self.schedule.scale

    def mode_weights_scaled(self) -> tuple[int, ...]:
        """Mode weights lambda_2..lambda_s as exact integers at the scale."""
        return self._mode_weights_scaled

    @cached_property
    def _mode_weights_scaled(self) -> tuple[int, ...]:
        # computed once per (frozen) instance: the solver, the partition
        # layer and every Composition.energy call ask for it
        return tuple(int(v * self.scale) for v in self.mode_weights)

    @cached_property
    def _expanded_modes(self) -> tuple[int, ...]:
        # the scaled mode weights with each mode repeated q times: the
        # oracle's columns, which every Composition.energy call reads
        return tuple(
            w
            for w, q in zip(self.mode_weights_scaled(), self.degeneracies)
            for _ in range(q)
        )

    def effective_budget_scaled(self) -> int:
        scaled = self.effective_budget * self.scale
        if scaled.denominator != 1:
            raise ScaleMismatch(
                f"effective budget {self.effective_budget} not a multiple "
                f"of 1/{self.scale}"
            )
        return int(scaled)

    @property
    def interior(self) -> bool:
        """True when E lies strictly inside the attainable energy range."""
        low, high = energy_range(self)
        return low < self.effective_budget < high


def energy_range(instance: ProblemInstance) -> tuple[Fraction, Fraction]:
    """Attainable mode-energy range (n*lambda_s, n*lambda_2).

    Lower and upper bound coincide exactly when s = 2 or n = 0.
    """
    lam = instance.weights.values
    return instance.n * lam[-1], instance.n * lam[1]


def build_instance(
    prices: Sequence[str],
    min_shares: int,
    max_shares: int,
    budget: str,
    *,
    scale: int = DEFAULT_SCALE,
    degeneracies: Optional[Sequence[int]] = None,
) -> ProblemInstance:
    """Validate raw inputs and assemble a ProblemInstance.

    Prices and budget are decimal strings; all arithmetic from here on is
    exact at the given scale.
    """
    if not list(prices):
        raise EmptyPrices("price schedule is empty")
    parsed = tuple(
        parse_decimal(p, scale, f"price {i + 1}") for i, p in enumerate(prices)
    )
    schedule = PriceSchedule(parsed, scale)
    bounds = InvestmentBounds(
        min_shares, max_shares, parse_decimal(budget, scale, "budget")
    )
    weights = TailWeights.from_schedule(schedule)
    effective = bounds.budget - bounds.min_shares * weights.values[0]
    return ProblemInstance(
        schedule=schedule,
        bounds=bounds,
        weights=weights,
        n=bounds.span,
        effective_budget=effective,
        degeneracies=tuple(degeneracies) if degeneracies else (),
    )
