"""Exact enumeration, ensemble statistics, shell weights, uniform sampling."""

import gc
import json
import math
import random
import tracemalloc
from collections import defaultdict
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest

from bealloc import (
    CapExceeded,
    Composition,
    DegenerateBoundary,
    DomainError,
    IndexRange,
    InputError,
    LowAcceptance,
    ThermoParams,
    build_instance,
    count_configurations,
    cumulative_stats,
    enumerate_compositions,
    from_fractions,
    iter_compositions,
    low_energy_shell_weight,
    sample_uniform,
    solve_params,
    unconstrained_count,
    unit_price_family,
)
from bealloc import oracle
from bealloc.oracle import (
    DEFAULT_CAP,
    EnsembleStats,
    _count,
    _walk,
    check_cap,
    deviation_band,
    shell_budget,
)
from bealloc.solver import predicted_cumulative
from conftest import random_instance

LN2 = math.log(2.0)
UNIFORM = ThermoParams(0.0, -LN2, 0.0, 0.0)


def build_example(budget="8"):
    return build_instance(["1", "2", "3"], 0, 2, budget)


def test_enumeration_hand_cases():
    # weights (5, 3), two units: energies 6, 8, 10
    got = [c.parts for c in iter_compositions(build_example("10"))]
    assert got == [(0, 2), (1, 1), (2, 0)]
    assert [c.parts for c in iter_compositions(build_example("9"))] == [
        (0, 2),
        (1, 1),
    ]
    assert list(iter_compositions(build_example("5"))) == []


def test_counts_hand_cases():
    assert count_configurations(build_example("10")) == 3
    assert count_configurations(build_example("9")) == 2
    assert count_configurations(build_example("5")) == 0


def test_visitor_count_agrees_with_closed_count():
    rng = random.Random(21)
    for _ in range(40):
        inst = random_instance(rng, s_max=8, n_max=8)
        seen = []
        visits = enumerate_compositions(inst, seen.append)
        assert visits == len(seen) == count_configurations(inst)
        assert len(set(c.parts for c in seen)) == visits
        budget = inst.effective_budget
        for comp in seen:
            assert comp.total == inst.n
            assert comp.energy(inst) <= budget


def test_slack_budget_count_is_stars_and_bars():
    for s in range(2, 13):
        for n in range(1, 16):
            prices = [Fraction(1)] * s
            inst = from_fractions(prices, 0, n, Fraction(n * s))
            assert unconstrained_count(inst) == math.comb(n + s - 2, s - 2)
            assert count_configurations(inst) == math.comb(n + s - 2, s - 2)


def test_zero_span_counts_one_empty_composition():
    inst = from_fractions([Fraction(1), Fraction(1)], 2, 2, Fraction(4))
    assert count_configurations(inst) == 1
    assert [c.parts for c in iter_compositions(inst)] == [(0,)]


def test_cap_guard():
    inst = build_example("10")
    with pytest.raises(CapExceeded):
        count_configurations(inst, cap=2)
    with pytest.raises(CapExceeded):
        list(iter_compositions(inst, cap=2))


def test_composition_energy_exact():
    inst = build_example("10")
    assert Composition((1, 1)).energy(inst) == Fraction(8)
    assert Composition((2, 0)).energy(inst) == Fraction(10)
    with pytest.raises(InputError):
        Composition((1, 1, 1)).energy(inst)


def test_cumulative_stats_hand_case():
    # S_2 takes values 0, 1, 2 with one composition each; the uniform-point
    # center is 1, so a band of width 1 marks the outer two as deviant
    inst = build_example("10")
    stats = cumulative_stats(inst, UNIFORM, 2, epsilon=-0.75)
    assert stats.total_count == 3
    assert stats.delta == pytest.approx(1.0)
    assert stats.deviation_fraction == pytest.approx(2.0 / 3.0)
    assert stats.cumulative_mean == (Fraction(1), Fraction(2))
    assert stats.l == 2


def test_cumulative_stats_band_covers_support():
    # default band 2^0.75 > 1 swallows every composition
    stats = cumulative_stats(build_example("10"), UNIFORM, 2, epsilon=0.0)
    assert stats.deviation_fraction == 0.0


def test_cumulative_stats_rejects_bad_index():
    inst = build_example("10")
    with pytest.raises(IndexRange):
        cumulative_stats(inst, UNIFORM, 1)
    with pytest.raises(IndexRange):
        cumulative_stats(inst, UNIFORM, 4)


def test_cumulative_stats_empty_set():
    with pytest.raises(DegenerateBoundary):
        cumulative_stats(build_example("5"), UNIFORM, 2)


def test_cumulative_stats_against_direct_walk():
    rng = random.Random(33)
    for _ in range(30):
        inst = random_instance(rng, s_max=7, n_max=6)
        params = solve_params(inst)
        l = rng.randint(2, inst.size)
        eps = rng.choice([-0.5, 0.0, 0.25])
        stats = cumulative_stats(inst, params, l, epsilon=eps)

        comps = list(iter_compositions(inst))
        assert stats.total_count == len(comps)
        lead = l - 1
        sums = [sum(c.parts[:lead]) for c in comps]
        center = sum(
            1.0 / (math.exp(params.beta * float(inst.mode_weights[j])
                            - params.sigma) - 1.0)
            for j in range(lead)
        )
        delta = float(inst.n) ** (0.75 + eps)
        bad = sum(1 for v in sums if abs(v - center) >= delta)
        assert stats.deviation_fraction == pytest.approx(bad / len(comps))
        # exact per-enterprise cumulative means, recomputed with Fractions
        for idx in range(inst.size - 1):
            mean = Fraction(
                sum(sum(c.parts[: idx + 1]) for c in comps), len(comps)
            )
            assert stats.cumulative_mean[idx] == mean
        assert stats.cumulative_mean[-1] == inst.n


def reference_stats(instance, params, l, epsilon=0.0, cap=DEFAULT_CAP):
    """cumulative_stats with the dict S_l histogram and per-mode total lists
    that the packed aggregate replaced, on the same memoized walk."""
    delta = deviation_band(instance.n, epsilon)
    check_cap(instance, cap)
    lams = instance.mode_weights_scaled()
    lead = l - 1

    def fits(i, units):
        m = len(lams) - i
        count = math.comb(units + m - 1, m - 1)
        per_mode = math.comb(units + m - 1, m)
        if i >= lead:
            hist = {0: count}
        else:
            nl = lead - i
            nt = m - nl
            if nt == 0:
                hist = {units: count}
            else:
                hist = {
                    a: math.comb(a + nl - 1, nl - 1)
                    * math.comb(units - a + nt - 1, nt - 1)
                    for a in range(units + 1)
                }
        return count, hist, [per_mode] * m

    def join(i, kids):
        count = 0
        hist = defaultdict(int)
        totals = [0] * (len(lams) - i)
        for v, (c2, h2, t2) in enumerate(kids):
            count += c2
            offset = v if i < lead else 0
            for a, c in h2.items():
                hist[a + offset] += c
            totals[0] += v * c2
            for t, val in enumerate(t2):
                totals[1 + t] += val
        return count, dict(hist), totals

    budget = instance.effective_budget_scaled()
    total, hist, totals = _walk(lams, instance.n, budget, fits, join)
    if total == 0:
        raise DegenerateBoundary("configuration set is empty")
    center = predicted_cumulative(instance, params, l)
    bad = sum(c for a, c in hist.items() if abs(a - center) >= delta)
    means = tuple(Fraction(c, total) for c in accumulate(totals))
    return EnsembleStats(total, means, bad / total, delta, l)


def golden_crosscheck():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"
    return [
        (build_instance(e["prices"], 0, e["n"], e["budget"]), e["l"])
        for e in json.loads(path.read_text())["crosscheck"]
    ]


def wide_digit_instance():
    # comb(69, 29) > 2^64 compositions ignoring the budget: the packed
    # digits are 71 bits wide, past any machine word
    return build_instance(["1"] * 31, 0, 40, "1160")


def test_stats_match_the_dict_aggregate_on_random_instances():
    rng = random.Random(71)
    for trial in range(60):
        # every other trial with up to 15 modes
        inst = random_instance(rng, s_max=16 if trial % 2 else 8, n_max=8)
        params = solve_params(inst)
        for l in {2, rng.randint(2, inst.size), inst.size}:
            eps = rng.choice([-0.5, 0.0, 0.25])
            assert cumulative_stats(inst, params, l, eps) == reference_stats(
                inst, params, l, eps
            )


@pytest.mark.parametrize("case", ["n = 0", "golden crosscheck", "wide digits"])
def test_stats_match_the_dict_aggregate(case):
    cap = DEFAULT_CAP
    if case == "n = 0":
        inst = build_instance(["1", "2", "3"], 2, 2, "12")
        assert inst.n == 0
        cases = [(inst, 2), (inst, 3)]
    elif case == "golden crosscheck":
        cases = golden_crosscheck()
        assert len(cases) == 15
    else:
        inst = wide_digit_instance()
        assert unconstrained_count(inst) > 2**64
        cap = 10**30
        cases = [(inst, 2), (inst, 16), (inst, inst.size)]
    for inst, l in cases:
        params = UNIFORM if inst.n == 0 else solve_params(inst)
        got = cumulative_stats(inst, params, l, cap=cap)
        assert got == reference_stats(inst, params, l, cap=cap)


def old_shell_weight(inst, beta, epsilon=0.25):
    """The former member-by-member shell sum, kept as a reference."""
    lams = inst.mode_weights_scaled()
    budget = inst.effective_budget_scaled()
    offset = float(inst.n) ** (0.5 + epsilon)
    threshold = inst.effective_budget - Fraction(offset)
    shell_budget = min(math.floor(threshold * inst.scale), budget)
    lmin = lams[-1]
    m = len(lams)

    def rec(i, units, left, acc):
        if units == 0:
            yield acc
            return
        if i == m - 1:
            yield acc + units * lams[i]
            return
        span = lams[i] - lmin
        vmax = units if span == 0 else min(units, (left - units * lmin) // span)
        for v in range(vmax + 1):
            e = v * lams[i]
            yield from rec(i + 1, units - v, left - e, acc + e)

    scale = float(inst.scale)
    weight = math.fsum(
        math.exp(-beta * (e / scale)) for e in rec(0, inst.n, shell_budget, 0)
    )
    return weight / count_configurations(inst)


def test_shell_weight_matches_member_by_member_sum():
    inst = unit_price_family(12, "mean")
    for beta in (-0.05, 0.05):
        assert low_energy_shell_weight(inst, beta) == pytest.approx(
            old_shell_weight(inst, beta), rel=1e-12, abs=0.0
        )


def test_shell_weight_takes_a_given_total():
    # a caller that has counted |M| already hands it in; it is used as is
    inst = unit_price_family(12, "mean")
    total = count_configurations(inst)
    for beta in (0.0, 0.05):
        weight = low_energy_shell_weight(inst, beta)
        assert low_energy_shell_weight(inst, beta, total=total) == weight
        assert low_energy_shell_weight(
            inst, beta, total=2 * total
        ) == pytest.approx(weight / 2, rel=1e-15)


def test_shell_weight_beyond_float_range():
    # the shell holds energies up to 4900, and exp(0.5 * 4900) overflows
    inst = build_instance(["100"] * 8, 0, 8, "5000")
    with pytest.raises(DomainError):
        low_energy_shell_weight(inst, -0.5)


def test_shell_weight_hand_case():
    # threshold 10 - 2^0.75 ~ 8.32 keeps energies 6 and 8 out of the 3
    inst = build_example("10")
    assert low_energy_shell_weight(inst, 0.0, epsilon=0.25) == pytest.approx(
        2.0 / 3.0
    )


def test_shell_weight_empty_shell():
    # threshold 8 - 2^0.75 ~ 6.32 still admits energy 6, but at E = 6.5 the
    # threshold drops below the minimal energy and the shell empties
    inst = build_example("6.5")
    assert low_energy_shell_weight(inst, 0.7, epsilon=0.25) == 0.0


def test_shell_weight_empty_set():
    with pytest.raises(DegenerateBoundary):
        low_energy_shell_weight(build_example("5"), 0.0)


def test_shell_weight_against_direct_sum():
    rng = random.Random(77)
    for _ in range(25):
        inst = random_instance(rng, s_max=7, n_max=6)
        beta = rng.uniform(-1.0, 1.5)
        eps = rng.choice([0.1, 0.25, 0.4])
        got = low_energy_shell_weight(inst, beta, epsilon=eps)

        comps = list(iter_compositions(inst))
        threshold = inst.effective_budget - Fraction(
            float(inst.n) ** (0.5 + eps)
        )
        members = [c for c in comps if c.energy(inst) <= threshold]
        expected = math.fsum(
            math.exp(-beta * float(c.energy(inst))) for c in members
        ) / len(comps)
        assert got == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_shell_weight_beta_zero_is_count_ratio():
    inst = unit_price_family(6, "mean")
    got = low_energy_shell_weight(inst, 0.0, epsilon=0.25)
    comps = list(iter_compositions(inst))
    threshold = inst.effective_budget - Fraction(6.0 ** 0.75)
    members = [c for c in comps if c.energy(inst) <= threshold]
    assert got == len(members) / len(comps)


def h_table_shell_weight(inst, beta, epsilon=0.25):
    """The shell weight with its own copy of the h_k table and of the cut.

    The table starts at the last mode's row k * log x_s and adds one mode
    at a time toward the first, each a log-space geometric prefix sum; the
    shipped weight runs the partition layer's recurrence from the unit row.
    """
    lams = inst.mode_weights_scaled()
    budget = inst.effective_budget_scaled()
    total = _count(lams, inst.n, budget)
    offset = float(inst.n) ** (0.5 + epsilon) if inst.n else 0.0
    threshold = inst.effective_budget - Fraction(offset)
    cut = min(math.floor(threshold * inst.scale), budget)
    if beta == 0.0:
        return _count(lams, inst.n, cut) / total
    logx = [-beta * (lam / inst.scale) for lam in lams]
    k = np.arange(inst.n + 1)
    table = [k * logx[-1]]
    for a in reversed(logx[:-1]):
        table.append(k * a + np.logaddexp.accumulate(table[-1] - k * a))
    table.reverse()

    def join(i, kids):
        if not kids:
            return -math.inf
        terms = [v * logx[i] + w for v, w in enumerate(kids)]
        top = max(terms)
        return top + math.log(math.fsum(math.exp(t - top) for t in terms))

    log_weight = _walk(
        lams, inst.n, cut, lambda i, u: float(table[i][u]), join
    )
    return math.exp(log_weight - math.log(total))


def test_shell_weight_bit_identical_to_mode_by_mode_table():
    rng = random.Random(1607)
    cases = [
        (build_instance(["1", "2", "3"], 2, 2, "12"), 0.5),  # n = 0
        (build_instance(["0.5", "1.25", "2"], 1, 1, "3.75"), -2.0),  # n = 0
        (build_example("6.5"), 0.7),  # the empty shell
        (build_example("6.5"), -0.7),
    ]
    for _ in range(120):
        inst = random_instance(rng, s_max=9, n_max=12)
        beta = rng.choice([0.05, -0.05, 0.5, -0.5, 1e-3, 2.0,
                           rng.uniform(-1.0, 1.0)])
        cases.append((inst, beta))
    compared = 0
    for inst, beta in cases:
        for eps in (0.1, 0.25):
            try:
                got = low_energy_shell_weight(inst, beta, epsilon=eps)
            except DomainError:  # the weight leaves float range
                with pytest.raises(OverflowError):
                    h_table_shell_weight(inst, beta, epsilon=eps)
                continue
            want = h_table_shell_weight(inst, beta, epsilon=eps)
            assert got == want
            assert math.copysign(1.0, got) == math.copysign(1.0, want)
            compared += 1
    assert compared > 200
    assert low_energy_shell_weight(build_example("6.5"), 0.7) == 0.0


def test_shell_budget_matches_both_inline_cuts():
    # the oracle's cut was min(floor((E - offset) * scale), budget), with
    # offset 0 at n = 0; the sampled verify rows' cut had no min and no
    # n = 0 case
    rng = random.Random(1608)
    for _ in range(200):
        inst = random_instance(rng, s_max=9, n_max=40)
        eps = rng.choice([-0.4, 0.0, 0.1, 0.25, 0.4, 1.0])
        offset = float(inst.n) ** (0.5 + eps)
        threshold = inst.effective_budget - Fraction(offset)
        budget = inst.effective_budget_scaled()
        oracle_cut = min(math.floor(threshold * inst.scale), budget)
        sampled_cut = math.floor(threshold * inst.scale)
        assert shell_budget(inst, eps) == oracle_cut == sampled_cut
    no_units = build_instance(["1", "2", "3"], 2, 2, "12")
    assert shell_budget(no_units, 0.25) == 0


@pytest.mark.parametrize("epsilon", [1000.0, math.inf, math.nan])
def test_shell_cut_beyond_float_range_is_an_input_error(epsilon):
    # n^(1/2 + epsilon) overflows before any walk, as the band n^(3/4 +
    # epsilon) does in deviation_band
    with pytest.raises(InputError, match="shell cut"):
        low_energy_shell_weight(unit_price_family(6), 0.0, epsilon=epsilon)


@pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf])
def test_non_finite_epsilon_is_an_input_error(epsilon, monkeypatch):
    # rejected at any n, and before the statistics walk starts
    for n in (0, 1, 6):
        with pytest.raises(InputError, match="epsilon must be finite"):
            deviation_band(n, epsilon)
    inst = build_instance(["1", "2", "3", "1.5"], 0, 5, "14")
    params = solve_params(inst)

    def no_walk(*args):
        raise AssertionError("walked")

    monkeypatch.setattr(oracle, "_walk", no_walk)
    with pytest.raises(InputError, match="epsilon must be finite"):
        cumulative_stats(inst, params, 3, epsilon=epsilon)


def test_shell_weight_rejects_a_negative_total():
    inst = unit_price_family(6)
    with pytest.raises(InputError, match="total must be nonnegative"):
        low_energy_shell_weight(inst, 0.5, total=-1)
    with pytest.raises(DegenerateBoundary):
        low_energy_shell_weight(inst, 0.5, total=0)


@pytest.mark.parametrize("args, message", [
    ((1,), "family needs n >= 2, got 1"),
    ((6, "middle"), "unknown budget placement 'middle'"),
])
def test_unit_price_family_raises_input_errors(args, message):
    with pytest.raises(InputError) as info:
        unit_price_family(*args)
    assert str(info.value) == message


def test_sampling_acceptance_rate_hand_case():
    # 2 of the 3 stars-and-bars proposals fit the 9-unit budget... the
    # proposal space has 3 compositions so the rate estimates 2/3
    result = sample_uniform(build_example("9"), 2000, seed=4)
    assert len(result.compositions) == 2000
    assert result.acceptance_rate == pytest.approx(2.0 / 3.0, abs=0.02)
    for comp in result.compositions:
        assert comp.parts in ((0, 2), (1, 1))


def test_sampling_is_uniform_on_hand_case():
    inst = build_example("10")
    result = sample_uniform(inst, 100_000, seed=9)
    freq = {}
    for comp in result.compositions:
        freq[comp.parts] = freq.get(comp.parts, 0) + 1
    assert set(freq) == {(0, 2), (1, 1), (2, 0)}
    tv = 0.5 * sum(abs(v / 100_000 - 1.0 / 3.0) for v in freq.values())
    assert tv < 0.05


def test_sampling_membership_random():
    rng = random.Random(13)
    inst = random_instance(rng, s_max=10, n_max=10)
    result = sample_uniform(inst, 500, seed=2)
    for comp in result.compositions:
        assert comp.total == inst.n
        assert comp.energy(inst) <= inst.effective_budget


def test_sampling_deterministic_per_seed():
    inst = build_example("9")
    a = sample_uniform(inst, 100, seed=42)
    b = sample_uniform(inst, 100, seed=42)
    c = sample_uniform(inst, 100, seed=43)
    assert a.compositions == b.compositions
    assert a.acceptance_rate == b.acceptance_rate
    assert a.compositions != c.compositions


def test_sampling_low_acceptance_aborts():
    # budget pinned at the minimum: exactly one member in a space of
    # C(38, 18) proposals, so the pilot must trip
    tight = from_fractions([Fraction(1)] * 20, 0, 20, Fraction(20))
    with pytest.raises(LowAcceptance):
        sample_uniform(tight, 10, seed=0)


def test_sampling_zero_count():
    result = sample_uniform(build_example("9"), 0, seed=0)
    assert result.compositions == ()
    assert result.acceptance_rate == 1.0


def test_sampling_rejects_negative_seed():
    with pytest.raises(InputError, match="seed must be nonnegative, got -1"):
        sample_uniform(build_example("9"), 10, seed=-1)


def reference_sample(instance, count, seed):
    """The row-by-row sampler the matrix version replaced: Python-int rows
    converted one element at a time, every accepted row kept."""
    if count == 0:
        return (), 1.0
    lams = instance.mode_weights_scaled()
    m, n = len(lams), instance.n
    budget = instance.effective_budget_scaled()
    rng = np.random.default_rng(seed)
    exact_fallback = n * max(lams) > 2**62
    accepted, drawn = [], 0
    while len(accepted) < count:
        if n == 0:
            parts_mat = np.zeros((20_000, m), dtype=np.int64)
        elif m == 1:
            parts_mat = np.full((20_000, 1), n, dtype=np.int64)
        else:
            slots = n + m - 1
            u = rng.random((20_000, slots))
            bars = np.sort(
                np.argpartition(u, m - 2, axis=1)[:, : m - 1], axis=1
            )
            parts_mat = np.concatenate(
                [bars[:, :1], bars[:, 1:] - bars[:, :-1] - 1,
                 (slots - 1) - bars[:, -1:]], axis=1)
        if exact_fallback:
            ok = np.array([sum(int(p) * w for p, w in zip(row, lams))
                           <= budget for row in parts_mat])
        else:
            ok = parts_mat @ np.array(lams, dtype=np.int64) <= budget
        drawn += 20_000
        for row in parts_mat[ok]:
            accepted.append(tuple(int(x) for x in row))
    comps = tuple(Composition(p) for p in accepted[:count])
    return comps, len(accepted) / drawn


SAMPLER_CASES = {
    "random": (lambda: random_instance(random.Random(21), 12, 12), 700),
    "two chunks": (lambda: build_example("10"), 25_000),
    "n = 0": (lambda: build_instance(["1", "2", "3"], 2, 2, "12"), 40),
    "m = 1": (lambda: build_instance(["1", "2"], 0, 3, "7.5"), 40),
    # n * max(lambda) = 3 * 5e18 > 2^62: energies in Python ints
    "exact fallback": (
        lambda: build_instance(["3000000000000", "3000000000000",
                                "2000000000000"], 0, 3, "10000000000000"),
        300,
    ),
}


@pytest.mark.parametrize("case", SAMPLER_CASES)
def test_sampler_matches_the_row_loop(case):
    make, count = SAMPLER_CASES[case]
    inst = make()
    m = inst.size - 1
    if case == "exact fallback":
        assert inst.n * max(inst.mode_weights_scaled()) > 2**62
    for seed in (0, 1, 7, 12345):
        result = sample_uniform(inst, count, seed)
        comps, rate = reference_sample(inst, count, seed)
        assert result.acceptance_rate == rate
        assert result.compositions == comps
        assert result.parts.dtype == np.int64
        assert result.parts.shape == (count, m)
        assert not result.parts.flags.writeable
        with pytest.raises(ValueError):
            result.parts[0, 0] = 1


def test_sample_result_equality_and_hash():
    inst = build_example("9")
    a = sample_uniform(inst, 50, seed=3)
    b = sample_uniform(inst, 50, seed=3)
    c = sample_uniform(inst, 50, seed=4)
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert len({a, b, c}) == 2
    empty = sample_uniform(inst, 0, seed=3)
    assert empty.parts.shape == (0, 2) and empty.compositions == ()
    assert empty != sample_uniform(inst, 0, seed=4)


@pytest.mark.parametrize("k, m, budget", [(2, 2, "100000000000000"),
                                          (0, 1, "50000000000000")])
def test_sampling_with_weights_past_int64(k, m, budget):
    # lambda_2 = 2e19 > 2^63 scaled units: energies stay exact Python ints
    inst = build_instance(["30000000000000", "20000000000000"], k, m, budget)
    result = sample_uniform(inst, 5, seed=0)
    assert result.parts.tolist() == [[inst.n]] * 5
    assert result.acceptance_rate == 1.0


def test_walks_free_their_memo_without_a_gc_pass():
    # the memoized walk's recursion is a reference cycle; its memo must not
    # wait for the cyclic collector to be freed
    inst = unit_price_family(15, "mean")
    params = solve_params(inst)
    gc.disable()
    tracemalloc.start()
    try:
        count_configurations(inst)
        cumulative_stats(inst, params, 8)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert retained < 200_000
