"""Instance construction, validation, and exact arithmetic."""

import inspect
import random
from fractions import Fraction
from itertools import accumulate

import pytest

from bealloc import (
    BoundsInverted,
    BudgetInfeasible,
    EmptyPrices,
    InputError,
    InvestmentBounds,
    NonPositivePrice,
    PriceSchedule,
    ProblemInstance,
    ScaleMismatch,
    TooFewEnterprises,
    build_allocation,
    build_instance,
    energy_range,
    from_fractions,
    parse_decimal,
    solve_params,
)
from bealloc.model import parse_scaled
from conftest import random_instance


def build_example(budget="8"):
    return build_instance(["1", "2", "3"], 0, 2, budget)


def test_parse_decimal_exact():
    assert parse_decimal("0.25", 100, "x") == Fraction(1, 4)
    assert parse_decimal("  7 ", 10, "x") == 7
    assert parse_decimal("3/4", 4, "x") == Fraction(3, 4)


def test_parse_decimal_rejects_garbage():
    with pytest.raises(InputError, match="could not parse"):
        parse_decimal("1.2.3", 100, "price 1")
    with pytest.raises(InputError):
        parse_decimal("", 100, "budget")


def test_parse_decimal_scale_mismatch():
    with pytest.raises(ScaleMismatch):
        parse_decimal("0.001", 100, "price 1")
    # the same string is fine at a finer scale
    assert parse_decimal("0.001", 1000, "price 1") == Fraction(1, 1000)


def reference_parse(text, scale, what):
    """The Fraction parse that instances were built from before the integer
    path: value * scale, with the same errors."""
    try:
        value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"could not parse {what} {text!r}") from exc
    if (value * scale).denominator != 1:
        raise ScaleMismatch(
            f"{what} {text!r} is not a multiple of 1/{scale}; "
            f"raise --scale or round the input"
        )
    return int(value * scale)


def parse_outcome(parse, text, scale):
    try:
        return parse(text, scale, "price 1")
    except InputError as exc:
        return type(exc), str(exc)


PARSE_CORPUS = [
    "0.25", "  7 ", "\t2.5\n", ".5", "5.", "1.50000000", "0.001",
    "+1.5", "-0", "-2",
    "1e-3", "1E2", "3/4", "1_000", "\uff11\uff12", "\u00b2",
    "nan", "", "1.2.3", ".", "1." + "0" * 5000,
]


def test_parse_scaled_matches_fraction_reference():
    for text in PARSE_CORPUS:
        for scale in (10**6, 1000, 100, 7, 3, 0, -5):
            assert parse_outcome(parse_scaled, text, scale) == parse_outcome(
                reference_parse, text, scale
            ), (text, scale)
    # anchors, so that a fault shared with the reference shows too
    assert parse_scaled("1.50000000", 10**6, "x") == 1_500_000
    assert parse_scaled("\uff11\uff12", 7, "x") == 84
    assert parse_scaled("0.001", 1000, "x") == 1
    with pytest.raises(ScaleMismatch, match=r"not a multiple of 1/100;"):
        parse_scaled("0.001", 100, "x")
    with pytest.raises(ScaleMismatch):
        parse_scaled("0.5", 3, "x")
    with pytest.raises(InputError, match="could not parse"):
        parse_scaled("\u00b2", 10**6, "x")


def test_build_instance_reads_a_one_shot_iterable():
    inst = build_instance((p for p in ["1", "2", "3"]), 0, 2, "8")
    assert inst.schedule.prices == (1, 2, 3)
    assert inst == build_example()


def test_example_instance_fields():
    inst = build_example()
    assert inst.weights.values == (Fraction(6), Fraction(5), Fraction(3))
    assert inst.mode_weights == (Fraction(5), Fraction(3))
    assert inst.n == 2
    assert inst.effective_budget == 8
    assert inst.size == 3
    assert inst.interior


def test_effective_budget_subtracts_floor_cost():
    # K = 1 at lambda_1 = 6 consumes 6 of the budget
    inst = build_instance(["1", "2", "3"], 1, 3, "14")
    assert inst.effective_budget == 8
    assert inst.n == 2


def test_energy_range_example():
    assert energy_range(build_example()) == (Fraction(6), Fraction(10))


def test_schedule_rejections():
    with pytest.raises(EmptyPrices):
        build_instance([], 0, 1, "1")
    with pytest.raises(TooFewEnterprises):
        build_instance(["1"], 0, 1, "1")
    with pytest.raises(NonPositivePrice):
        build_instance(["1", "0"], 0, 1, "1")
    with pytest.raises(NonPositivePrice):
        build_instance(["1", "-2"], 0, 1, "1")


def test_bounds_rejections():
    with pytest.raises(BoundsInverted):
        InvestmentBounds(3, 2, 10, 1)
    with pytest.raises(InputError):
        InvestmentBounds(-1, 2, 10, 1)
    with pytest.raises(InputError):
        InvestmentBounds(0, 2, 0, 1)


def test_budget_window_low_and_high():
    # window for K=1, M=2 is [6, 12]
    with pytest.raises(BudgetInfeasible, match=r"\[6, 12\]"):
        build_instance(["1", "2", "3"], 1, 2, "5")
    with pytest.raises(BudgetInfeasible, match=r"\[6, 12\]"):
        build_instance(["1", "2", "3"], 1, 2, "12.5")
    # both endpoints are feasible
    build_instance(["1", "2", "3"], 1, 2, "6")
    build_instance(["1", "2", "3"], 1, 2, "12")


def test_parts_are_held_at_the_schedule_scale():
    prices = (Fraction(1), Fraction(2), Fraction(3))
    inst = from_fractions(prices, 0, 2, Fraction(8))
    assert inst == build_example()
    assert inst.bounds.scale == inst.weights.scale == inst.scale
    with pytest.raises(
        ScaleMismatch, match=r"^budget 25/3 is not a multiple of 1/1000000$"
    ):
        from_fractions(prices, 0, 2, Fraction(25, 3))
    with pytest.raises(
        ScaleMismatch, match=r"^price 3 = 1/3 is not a multiple of 1/1000000$"
    ):
        from_fractions((6, 5, Fraction(1, 3)), 0, 2, Fraction(8))
    # bounds at another scale are refused, never rescaled
    with pytest.raises(ScaleMismatch, match="bounds scale 1 differs"):
        ProblemInstance(inst.schedule, InvestmentBounds(0, 2, 8, 1))


def test_each_part_takes_integers_only():
    with pytest.raises(InputError, match="price 1 numerator"):
        PriceSchedule((Fraction(1), Fraction(2)), 10**6)
    with pytest.raises(InputError, match="budget numerator"):
        InvestmentBounds(0, 2, Fraction(8), 10**6)
    with pytest.raises(InputError, match="scale must be positive"):
        PriceSchedule((1, 2), 0)
    with pytest.raises(NonPositivePrice, match="price 2 is -1/2"):
        PriceSchedule((1, -1), 2)
    # the tail weights are derived, so they cannot disagree with the prices
    assert list(inspect.signature(ProblemInstance).parameters) == [
        "schedule", "bounds",
    ]
    inst = ProblemInstance(
        PriceSchedule((1, 2, 3), 1), InvestmentBounds(1, 3, 18, 1)
    )
    assert inst.weights.numerators == (6, 5, 3)



def test_scaled_views_are_exact_ints():
    inst = build_instance(["0.10", "0.25"], 0, 4, "1.00")
    assert inst.schedule.numerators == (100_000, 250_000)
    assert inst.mode_weights_scaled() == (250_000,)
    assert inst.effective_budget_scaled() == 1_000_000


def test_scaled_views_are_computed_once():
    rng = random.Random(4321)
    for _ in range(20):
        inst = random_instance(rng, s_max=20, n_max=20)
        weights = inst.mode_weights_scaled()
        prices = inst.schedule.numerators
        assert inst.mode_weights_scaled() is weights
        assert weights == tuple(
            int(v * inst.scale) for v in inst.weights.values[1:]
        )
        assert prices == tuple(
            int(p * inst.scale) for p in inst.schedule.prices
        )


def test_random_instances_satisfy_invariants():
    rng = random.Random(1234)
    for _ in range(200):
        inst = random_instance(rng, s_max=20, n_max=20)
        vals = inst.weights.values
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] == inst.schedule.prices[-1]
        assert inst.n == inst.bounds.max_shares - inst.bounds.min_shares
        low, high = energy_range(inst)
        assert low < inst.effective_budget < high
        k, lam1 = inst.bounds.min_shares, vals[0]
        assert inst.effective_budget == inst.bounds.budget - k * lam1


def test_weights_and_spend_follow_the_prices():
    """One integer view: the weights are the price suffix sums, and the
    allocation's spend is what its counts cost at the schedule's prices."""
    rng = random.Random(808)
    for _ in range(100):
        inst = random_instance(rng, s_max=20, n_max=20)
        nums = inst.schedule.numerators
        assert inst.weights.numerators == tuple(
            accumulate(reversed(nums))
        )[::-1]
        alloc = build_allocation(inst, solve_params(inst))
        assert alloc.spend == sum(
            c * p for c, p in zip(alloc.counts, inst.schedule.prices)
        )
