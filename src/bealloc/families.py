"""Reference instance families used by the verification suites and CLI."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import InputError, ScaleMismatch
from .model import (
    DEFAULT_SCALE,
    InvestmentBounds,
    PriceSchedule,
    ProblemInstance,
)


def _scaled(value: Fraction, scale: int, what: str) -> int:
    """value * scale as an exact int; ScaleMismatch when it is not one."""
    scaled = Fraction(value) * scale
    if scaled.denominator != 1:
        raise ScaleMismatch(f"{what} is not a multiple of 1/{scale}")
    return scaled.numerator


def from_fractions(
    prices: Sequence[Fraction],
    min_shares: int,
    max_shares: int,
    budget: Fraction,
    scale: int = DEFAULT_SCALE,
) -> ProblemInstance:
    """Assemble a validated instance from exact rationals.

    The one entry point for Fraction inputs: prices and budget are converted
    once to integer numerators at the scale.
    """
    schedule = PriceSchedule(
        tuple(
            _scaled(p, scale, f"price {i + 1} = {p}")
            for i, p in enumerate(prices)
        ),
        scale,
    )
    phi = _scaled(budget, scale, f"budget {Fraction(budget)}")
    return ProblemInstance(
        schedule, InvestmentBounds(min_shares, max_shares, phi, scale)
    )


def unit_price_family(
    n: int, budget: str = "mean", scale: int = DEFAULT_SCALE
) -> ProblemInstance:
    """The scaled trend family: s = n enterprises at unit price, K = 0, M = n.

    budget="mean" pins the effective budget at the uniform (beta = 0) mean
    energy n^2/2; budget="slack" lifts it to the upper feasibility bound so
    the energy cut never binds.
    """
    if n < 2:
        raise InputError(f"family needs n >= 2, got {n}")
    prices = [Fraction(1)] * n
    if budget == "mean":
        phi = Fraction(n * n, 2)
    elif budget == "slack":
        phi = Fraction(n * n)
    else:
        raise InputError(f"unknown budget placement {budget!r}")
    return from_fractions(prices, 0, n, phi, scale)


def with_total(instance: ProblemInstance, n: int) -> ProblemInstance:
    """Copy an instance with n increments and a slack budget.

    Used by the partition doubling schedule, where only the mode weights
    and the unit total matter.
    """
    k, scale = instance.bounds.min_shares, instance.scale
    phi = (k + n) * instance.weights.numerators[0]
    return ProblemInstance(
        instance.schedule, InvestmentBounds(k, k + n, phi, scale)
    )
