"""Instance construction, validation, and exact arithmetic."""

import gc
import inspect
import random
import sys
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
from bealloc.model import parse_scaled, parse_scaled_column
from conftest import random_instance, traced_peak


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


def price_label(i):
    return f"price {i + 1}"


def column_outcome(texts, scale):
    try:
        return parse_scaled_column(texts, scale, price_label)
    except InputError as exc:
        return type(exc), str(exc)


def itemwise_outcome(parse, texts, scale):
    """parse on each text in order; the first failure is the outcome."""
    try:
        return [parse(t, scale, price_label(i)) for i, t in enumerate(texts)]
    except InputError as exc:
        return type(exc), str(exc)


def random_plain(rng):
    """A plain decimal with 0-8 fraction digits, in one of its spellings."""
    whole, frac = rng.randint(0, 10**4), rng.randint(0, 10**8)
    digits = rng.randint(0, 8)
    frac_text = str(frac).zfill(8)[:digits]
    text = rng.choice([
        f"{whole}.{frac_text}" if digits else str(whole),
        f".{frac_text}" if digits else f"{whole}.",
        f"{whole:03d}.{frac_text}",
    ])
    return rng.choice(["", " ", "\t"]) + text + rng.choice(["", " ", "\n"])


def assert_column_matches_itemwise(texts, scale):
    expected = itemwise_outcome(reference_parse, texts, scale)
    assert itemwise_outcome(parse_scaled, texts, scale) == expected
    assert column_outcome(texts, scale) == expected, (texts, scale)


SCALES = (10**6, 1000, 100, 7, 3, 0, -5)


def test_parse_scaled_column_matches_itemwise_on_random_lists():
    rng = random.Random(41)
    for _ in range(300):
        texts = [random_plain(rng) for _ in range(rng.randint(1, 30))]
        if rng.random() < 0.7:  # one other form at a random position
            texts.insert(rng.randint(0, len(texts)), rng.choice(PARSE_CORPUS))
        for scale in SCALES:
            assert_column_matches_itemwise(texts, scale)


@pytest.mark.parametrize("odd", [
    "1,2", "1\n2", " 1\n2 ", "1\r\n2", "\n", "1\u20282"])
def test_parse_scaled_column_keeps_a_separator_inside_one_price(odd):
    # a price holding a line break or a comma stays one price, and fails
    # as itself
    texts = ["1.5", odd, "2"]
    assert_column_matches_itemwise(texts, 10**6)
    with pytest.raises(InputError, match=r"could not parse price 2 "):
        parse_scaled_column(texts, 10**6, price_label)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python's int() has no digit limit")
def test_parse_scaled_column_at_the_int_digit_limit():
    limit = sys.get_int_max_str_digits()
    assert limit > 0
    for texts in (
        ["1", "9" * limit, "2.5"],                # at the limit: read
        ["1", "9" * (limit - 1) + ".5", "2.5"],
        ["1", "9" * (limit + 1), "2.5"],          # past it: could not parse
        ["1", "1." + "0" * limit, "2"],
        ["1", "0.0000001", "9" * (limit + 1)],    # the mismatch comes first
    ):
        for scale in (10**6, 10):
            assert_column_matches_itemwise(texts, scale)
    assert parse_scaled_column(["9" * limit], 1, price_label) == [
        int("9" * limit)
    ]
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # no limit: every digit string is read
    try:
        texts = ["1", "9" * (limit + 1), "2.5"]
        assert_column_matches_itemwise(texts, 10)
        assert column_outcome(texts, 10)[1] == int("9" * (limit + 1)) * 10
    finally:
        sys.set_int_max_str_digits(previous)


@pytest.mark.parametrize("texts, error, message", [
    # a plain ScaleMismatch before an unparseable price
    (["1", " 0.0000001", "xyz"], ScaleMismatch,
     "price 2 ' 0.0000001' is not a multiple of 1/1000000; "
     "raise --scale or round the input"),
    # an unparseable price before a plain ScaleMismatch
    (["1", "xyz ", "0.0000001"], InputError, "could not parse price 2 'xyz '"),
    # a non-plain ScaleMismatch before a plain one, and after
    (["1", "1e-7", "0.0000001"], ScaleMismatch,
     "price 2 '1e-7' is not a multiple of 1/1000000; "
     "raise --scale or round the input"),
    (["1", "0.0000001", "1e-7"], ScaleMismatch,
     "price 2 '0.0000001' is not a multiple of 1/1000000; "
     "raise --scale or round the input"),
    (["3/4", "+1.5", "1_0", "0.0000001\t"], ScaleMismatch,
     "price 4 '0.0000001\\t' is not a multiple of 1/1000000; "
     "raise --scale or round the input"),
])
def test_parse_scaled_column_raises_at_the_first_failing_price(
    texts, error, message
):
    assert_column_matches_itemwise(texts, 10**6)
    with pytest.raises(InputError) as info:
        parse_scaled_column(texts, 10**6, price_label)
    assert (type(info.value), str(info.value)) == (error, message)


def test_parse_scaled_column_holds_no_column_sized_temporaries():
    # 5000 prices in whole cents, the shape of perfbench's solve prices: the
    # peak while parsing stays near what the returned list itself holds
    rng = random.Random(5)
    cents = [rng.randint(1, 10000) for _ in range(5000)]
    texts = [f"{c // 100}.{c % 100:02d}" for c in cents]
    gc.disable()
    try:
        values, kept, peak = traced_peak(
            lambda: parse_scaled_column(texts, 10**6, price_label)
        )
    finally:
        gc.enable()
    assert values == [c * 10**4 for c in cents]
    assert peak <= 1.5 * kept, (peak, kept)


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
