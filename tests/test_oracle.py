"""Exact enumeration, ensemble statistics, shell weights, uniform sampling."""

import gc
import json
import math
import random
import warnings
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
    _count_dtype,
    _ensemble,
    _levels,
    check_cap,
    deviation_band,
    shell_budget,
)
from bealloc.solver import predicted_cumulative
from conftest import random_instance, traced_peak

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


def _walk(lams, n, budget, fits, join, pair):
    """Aggregate over the compositions of n over lams with energy <= budget.

    fits(i, units) is the closed form for a suffix from mode i whose every
    completion fits; join(i, kids) combines kids[v], the aggregates of the
    suffix after v units on mode i, v = 0..vmax. Below the root the cheapest
    completion always fits, so kids is empty only when nothing fits at all.
    pair(units, vmax) is the closed form of join(m - 2, [fits(m - 1,
    units - v) for v in 0..vmax]): v units on the penultimate mode, the
    rest on the last, whose completion always fits. The fold runs over
    `_levels`, last level first: each state's aggregate is computed once,
    and fits once per (i, units). A test-only reference: the oracle reads
    its aggregates off the levels with array sums.
    """
    levels = _levels(lams, n, budget)
    if not levels:
        return join(0, [])
    penult = len(lams) - 2
    above = []
    for i in reversed(range(len(levels))):
        level = levels[i]
        here = [None] * len(level.units)
        values, where = np.unique(level.units[level.fit], return_inverse=True)
        fitted = [fits(i, units) for units in values.tolist()]
        for j, k in zip(np.flatnonzero(level.fit).tolist(), where.tolist()):
            here[j] = fitted[k]
        shut = np.flatnonzero(~level.fit).tolist()
        reps = level.reps.tolist()
        if i == penult:
            for j, units, choices in zip(
                shut, level.units[~level.fit].tolist(), reps
            ):
                here[j] = pair(units, choices - 1)
        else:
            kids = level.kids.tolist()
            for j, start, choices in zip(shut, level.starts.tolist(), reps):
                here[j] = join(
                    i, [above[k] for k in kids[start : start + choices]]
                )
        above = here
    return above[0]


def reference_stats(instance, params, l, epsilon=0.0, cap=DEFAULT_CAP):
    """cumulative_stats with a dict S_l histogram and per-mode total lists,
    folded over the same levels by `_walk` rather than read off them with
    array sums."""
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

    def pair(units, vmax):
        # the generic join of the last mode's fits, no closed form
        return join(len(lams) - 2,
                    [fits(len(lams) - 1, units - v) for v in range(vmax + 1)])

    budget = instance.effective_budget_scaled()
    total, hist, totals = _walk(lams, instance.n, budget, fits, join, pair)
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
    # comb(69, 29) > 2^64 compositions ignoring the budget: the walk's
    # counts leave int64 and are Python ints
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


def member_ensembles(inst):
    """Per lead = 1..s - 1: (|M|, hist, totals) added up member by member
    from the visitor walk, hist[a] counting the members whose first lead
    parts sum to a and totals[t] summing part t."""
    members = [c.parts for c in iter_compositions(inst)]
    m = inst.size - 1
    totals = [sum(parts[t] for parts in members) for t in range(m)]
    out = {}
    for lead in range(1, m + 1):
        hist = [0] * (inst.n + 1)
        for parts in members:
            hist[sum(parts[:lead])] += 1
        out[lead] = (len(members), hist, totals)
    return out


def small_integer_instance(rng):
    """s <= 7, n <= 9 and prices 1..4 at scale 1, with the budget anywhere
    from just under the cheapest energy to the top: many walk states
    merge, and some instances have an empty M."""
    s = rng.randint(2, 7)
    n = rng.randint(0, 9)
    prices = [str(rng.randint(1, 4)) for _ in range(s)]
    lam = [sum(map(int, prices[j:])) for j in range(s)]
    k = rng.randint(0 if n else 1, 2)
    budget = rng.randint(max(0, n * lam[-1] - 2), n * lam[0]) + k * lam[0]
    return build_instance(prices, k, k + n, str(max(budget, 1)), scale=1)


ENSEMBLE_EDGES = {
    "n = 0": build_instance(["1", "2", "3"], 2, 2, "12"),
    "s = 2": build_instance(["3", "2"], 0, 5, "11", scale=1),
    "empty M": build_example("5"),
    # the most expensive completion fits: no state is ever opened
    "every state closed at the root": build_instance(
        ["1", "2", "3", "1.5"], 0, 5, None
    ),
    # s = 3: the root is the penultimate mode's state, closed by pair
    "pair at the root": build_example("8"),
}


def assert_ensembles_match(inst):
    lams = inst.mode_weights_scaled()
    budget = inst.effective_budget_scaled()
    for lead, want in member_ensembles(inst).items():
        assert _ensemble(lams, inst.n, budget, lead) == want
        total, hist, totals = want
        if not total:
            with pytest.raises(DegenerateBoundary):
                cumulative_stats(inst, UNIFORM, lead + 1)
            continue
        stats = cumulative_stats(inst, UNIFORM, lead + 1, epsilon=-0.5)
        center = predicted_cumulative(inst, UNIFORM, lead + 1)
        bad = sum(c for a, c in enumerate(hist)
                  if abs(a - center) >= stats.delta)
        assert stats.total_count == total
        assert stats.deviation_fraction == bad / total
        assert stats.cumulative_mean == tuple(
            Fraction(c, total) for c in accumulate(totals)
        )


@pytest.mark.parametrize("edge", list(ENSEMBLE_EDGES))
def test_ensemble_edges_match_the_visitor_walk(edge):
    # every l in 2..s, so l = s and l = s - 1 reach both histogram forms
    # of the penultimate pair
    assert_ensembles_match(ENSEMBLE_EDGES[edge])


def test_ensembles_match_the_visitor_walk_on_merging_instances():
    rng = random.Random(2207)
    empty = 0
    for _ in range(150):
        inst = small_integer_instance(rng)
        assert_ensembles_match(inst)
        empty += count_configurations(inst) == 0
    assert empty > 0


# Prices near 10^15 at scale 10^6: the weights, budgets left and units *
# lambda leave int64 although |M| is 30, so the walk's states are Python
# ints and its counts int64.
HUGE_PRICES = ["1000000000000000.5", "999999999999999.25",
               "700000000000000.125", "300000000000000.75", "2"]


def huge_weight_instance():
    return build_instance(HUGE_PRICES, 1, 5, "9000000000000000")


def test_walk_leaves_int64_at_its_bounds():
    # n * lambda_2 = 2^63 - 2 keeps the states int64, 2^63 takes Python
    # ints; both must count and histogram exactly

    for lam2, dtype in ((2**62 - 1, np.int64), (2**62, object)):
        inst = build_instance(["1", str(lam2 - 1), "1"], 0, 2, str(2**62),
                              scale=1)
        assert inst.n * inst.mode_weights_scaled()[0] == 2 * lam2
        levels = _levels(inst.mode_weights_scaled(), inst.n,
                         inst.effective_budget_scaled())
        assert levels[0].units.dtype == dtype
        assert_ensembles_match(inst)
    # the counts compare max(n, 1) * comb(n + m - 1, m - 1) with 2^63:
    # n at m = 1, and n * (n + 1) at m = 2
    assert _count_dtype(2**63 - 1, 1) is np.int64
    assert _count_dtype(2**63, 1) is object
    assert _count_dtype(3037000499, 2) is np.int64
    assert _count_dtype(3037000500, 2) is object


def test_walk_past_int64_matches_the_visitor_walk_and_pins():
    huge = huge_weight_instance()
    lams = huge.mode_weights_scaled()
    assert huge.n * lams[0] > 2**63
    levels = _levels(lams, huge.n, huge.effective_budget_scaled())
    assert levels[0].units.dtype == object
    assert _count_dtype(huge.n, len(lams)) is np.int64
    assert count_configurations(huge) == 30
    assert_ensembles_match(huge)
    # weights from the recursive walk over Python ints that the level
    # sweep replaced
    for beta, eps, weight in [
        (1e-15, 0.1, "0x1.53a59ac5c2432p-3"),
        (-1e-15, 0.25, "0x1.31c573cfdf638p+5"),
        (3e-16, 0.25, "0x1.eef58c66b546ap-2"),
    ]:
        assert low_energy_shell_weight(huge, beta, eps).hex() == weight

    wide = wide_digit_instance()
    cap = 10**30
    levels = _levels(wide.mode_weights_scaled(), wide.n,
                     wide.effective_budget_scaled())
    assert levels[0].units.dtype == np.int64
    assert _count_dtype(wide.n, wide.size - 1) is object
    total = 23720460024918468226
    assert count_configurations(wide, cap) == total
    params = solve_params(wide)
    means = [Fraction(31627280033219656397, total),
             Fraction(63254560066443732741, total),
             Fraction(47440920049834120863, total // 2)]
    for l, fraction in [(2, "0x1.ffec5342378d0p-1"),
                        (16, "0x1.87801eea8bd96p-1"), (31, "0x0.0p+0")]:
        stats = cumulative_stats(wide, params, l, cap=cap)
        assert stats.total_count == total
        assert stats.deviation_fraction.hex() == fraction
        assert list(stats.cumulative_mean[:3]) == means
        assert stats.cumulative_mean[-1] == wide.n
    for beta, weight in [(0.05, "0x1.94e7b07db3e6dp-34"),
                         (-0.05, "0x1.13ff4272ac399p+56")]:
        assert low_energy_shell_weight(wide, beta, cap=cap).hex() == weight


# Per golden crosscheck instance, from the recursive walk the level sweep
# replaced: its memo entries (the open states before the penultimate
# mode) and its pair calls (one per visit of a penultimate state that
# fits does not close).
RECURSIVE_WORK = {
    "c030": (736, 28), "c042": (411, 248), "c017": (402, 389),
    "c051": (1010, 123), "c028": (339, 667), "c037": (1132, 626),
    "c010": (2787, 178), "c018": (3667, 384), "c007": (1618, 2112),
    "c019": (3859, 1382), "c009": (2259, 4375), "c117": (8827, 3573),
    "c002": (7244, 7980), "c015": (25855, 2167), "c016": (14615, 13169),
}


def test_sweep_work_on_the_golden_catalog():
    # machine-independent: the sweep opens exactly the states the memo
    # held, and merges the penultimate states the recursion visited
    # one by one. One statistics call on the two largest walks traces
    # less than the 6.2 MiB the recursive walk peaked at.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"
    entries = json.loads(path.read_text())["crosscheck"]
    assert {e["id"] for e in entries} == set(RECURSIVE_WORK)
    for entry in entries:
        inst = build_instance(entry["prices"], 0, entry["n"], entry["budget"])
        levels = _levels(inst.mode_weights_scaled(), inst.n,
                         inst.effective_budget_scaled())
        assert len(levels) == inst.size - 2
        opened = sum(int((~level.fit).sum()) for level in levels[:-1])
        paired = int((~levels[-1].fit).sum())
        memo, pairs = RECURSIVE_WORK[entry["id"]]
        assert opened == memo
        assert paired <= pairs
        if entry["id"] in ("c015", "c016"):
            params = solve_params(inst)
            _, _, peak = traced_peak(
                lambda: cumulative_stats(inst, params, entry["l"])
            )
            assert peak <= 6.2 * 2**20


def test_shell_weight_matches_its_pinned_bits():
    # float.hex of the weights that the recursive walk gave: about 60
    # seeded instances (the empty shell and n = 0 among them), beta of
    # both signs, epsilon 0.1 and 0.25
    path = Path(__file__).parent / "data" / "shell_weight_pins.json"
    pins = json.loads(path.read_text())
    assert len(pins) == 240
    for pin in pins:
        inst = build_instance(*pin["instance"])
        beta = float.fromhex(pin["beta"])
        try:
            got = low_energy_shell_weight(inst, beta, pin["epsilon"]).hex()
        except DomainError:
            got = "DomainError"
        assert got == pin["weight"], pin


def test_shell_weight_matches_its_edge_pins():
    # float.hex of the weights that the per-state callback fold (`_walk`)
    # gave on the sweep's edges: s = 2 and s = 3 (the root level is the
    # penultimate one), n = 0, the empty shell, a root that fits closes,
    # object-dtype states, and the wide-digit and n = 20 unit family
    # instances with the cap lifted
    path = Path(__file__).parent / "data" / "shell_weight_edge_pins.json"
    pins = json.loads(path.read_text())
    assert len(pins) == 52
    for pin in pins:
        if "build" in pin:
            inst = build_instance(*pin["build"])
        else:
            inst = unit_price_family(*pin["family"])
        beta = float.fromhex(pin["beta"])
        cap = pin.get("cap", DEFAULT_CAP)
        got = low_energy_shell_weight(inst, beta, pin["epsilon"], cap)
        assert got.hex() == pin["weight"], pin


def test_shell_weight_builds_the_levels_once(monkeypatch):
    # with |M| handed in, a weight at beta != 0 is one sweep of the shell
    inst = unit_price_family(8, "mean")
    total = count_configurations(inst)
    want = low_energy_shell_weight(inst, 0.05, total=total)
    budgets = []
    levels = oracle._levels

    def recording(lams, n, budget):
        budgets.append((n, budget))
        return levels(lams, n, budget)

    monkeypatch.setattr(oracle, "_levels", recording)
    assert low_energy_shell_weight(inst, 0.05, total=total) == want
    assert budgets == [(inst.n, shell_budget(inst, 0.25))]


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


@pytest.mark.parametrize("beta, outcome", [
    (math.nan, InputError), (math.inf, InputError), (-math.inf, InputError),
    (1e308, InputError), (-1e308, InputError),
    (300.0, 0.0), (-300.0, DomainError),
])
def test_shell_weight_at_extreme_beta(beta, outcome):
    # a beta that is not finite or whose log weights leave float range is an
    # input error; one whose weight leaves it is a domain error; neither
    # warns or gives NaN
    inst = unit_price_family(6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if isinstance(outcome, float):
            assert low_energy_shell_weight(inst, beta) == outcome
        else:
            with pytest.raises(outcome):
                low_energy_shell_weight(inst, beta)


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

    def fits(i, u):
        return float(table[i][u])

    def pair(units, vmax):
        return join(len(lams) - 2,
                    [fits(len(lams) - 1, units - v) for v in range(vmax + 1)])

    log_weight = _walk(lams, inst.n, cut, fits, join, pair)
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
    # rejected at any n, and before the statistics walk builds a level
    for n in (0, 1, 6):
        with pytest.raises(InputError, match="epsilon must be finite"):
            deviation_band(n, epsilon)
    inst = build_instance(["1", "2", "3", "1.5"], 0, 5, "14")
    params = solve_params(inst)

    def no_walk(*args):
        raise AssertionError("walked")

    monkeypatch.setattr(oracle, "_levels", no_walk)
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


def many_block_instance():
    """n = 60 units over m = 41 modes, budget at the uniform mean energy
    (acceptance about 1/2): 100 slots, which do not divide oracle._CELLS."""
    prices = [str(1 + j % 7) for j in range(42)]
    lams = list(accumulate(int(p) for p in reversed(prices)))[::-1]
    return build_instance(prices, 0, 60, str(60 * sum(lams[1:]) // 41))


SAMPLER_CASES = {
    "random": (lambda: random_instance(random.Random(21), 12, 12), 700),
    # two chunks of 30 full blocks and one partial one each; the draws
    # stop inside the second chunk
    "many blocks": (many_block_instance, 12_000),
    "two chunks": (lambda: build_example("10"), 25_000),
    "n = 0": (lambda: build_instance(["1", "2", "3"], 2, 2, "12"), 40),
    "m = 1": (lambda: build_instance(["1", "2"], 0, 3, "7.5"), 40),
    # n * max(lambda) = 3 * 5e18 > 2^62: energies in Python ints
    "exact fallback": (
        lambda: build_instance(["3000000000000", "3000000000000",
                                "2000000000000"], 0, 3, "10000000000000"),
        300,
    ),
    # one bar: weights (5, 3), energies 90..150 under a budget of 120
    "m = 2": (lambda: build_instance(["1", "2", "3"], 0, 30, "120"), 900),
    # one star over 5 modes, 3 of which fit
    "n = 1": (
        lambda: build_instance(["1", "2", "3", "4", "5", "6"], 0, 1, "15"),
        500,
    ),
    # about 327 draws kept per 655-row block: the count is reached in the
    # first block, and the rest of the chunk is only counted
    "first block": (many_block_instance, 100),
    "count = 0": (many_block_instance, 0),
}


@pytest.mark.parametrize("case", SAMPLER_CASES)
def test_sampler_matches_the_row_loop(case):
    make, count = SAMPLER_CASES[case]
    inst = make()
    m = inst.size - 1
    if case == "exact fallback":
        assert inst.n * max(inst.mode_weights_scaled()) > 2**62
    if case == "many blocks":
        rows = oracle._CELLS // (inst.n + m - 1)
        assert 1 < rows < oracle._CHUNK and oracle._CHUNK % rows
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


def test_raw_words_make_the_generators_doubles():
    # Generator.random turns each raw word w into (w >> 11) * 2^-53, in
    # the same order, and the 32-bit keys give the doubles' bars
    for seed, shape, k in ((0, (300, 7), 1), (5, (40, 101), 50),
                           (12345, (1, 65536), 65535)):
        words = np.random.default_rng(seed).bit_generator.random_raw(shape)
        u = np.random.default_rng(seed).random(shape)
        assert np.array_equal((words >> 11) * 2.0**-53, u)
        assert np.array_equal(
            oracle._word_bars(words, k), oracle._sorted_bars(u, k)
        )


class TiedBitGenerator:
    """numpy's PCG64 stream for a seed, except that the first block of raw
    words it draws ties row 0's (bars + 1)-th smallest word to its
    bars-th smallest in the top 32 bits, and in all 64 unless low_bits.
    random() makes its doubles from these words as Generator.random does,
    so the row loop of `reference_sample` draws the same values."""

    def __init__(self, real, seed, bars, low_bits=False):
        self._words = real(seed).bit_generator.random_raw
        self._bars = bars
        self._low_bits = low_bits
        self._tied = False
        self.bit_generator = self

    def random_raw(self, shape):
        w = self._words(shape)
        if not self._tied:
            self._tied = True
            order = np.argsort(w[0])
            tied = w[0, order[self._bars - 1]]
            if self._low_bits:  # flip bit 31: another double, the same key
                tied ^= np.uint64(2**31)
            w[0, order[self._bars]] = tied
        return w

    def random(self, shape):
        return (self.random_raw(shape) >> 11) * 2.0**-53


def tied_sampler_calls(monkeypatch, inst, low_bits):
    """Patch numpy's generator with TiedBitGenerator and count the calls of
    oracle._sorted_bars and np.argpartition, by name."""
    real_rng = np.random.default_rng
    calls = []
    for owner, name in ((oracle, "_sorted_bars"), (np, "argpartition")):
        def counting(*args, _real=getattr(owner, name), _name=name,
                     **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    monkeypatch.setattr(
        np.random, "default_rng",
        lambda seed: TiedBitGenerator(real_rng, seed, inst.size - 2,
                                      low_bits),
    )
    return calls


def test_sampler_takes_argpartition_on_a_tie_at_the_threshold(monkeypatch):
    # two chunks of 20,000 proposals (acceptance ~0.13) in blocks of
    # oracle._CELLS words: the tied first block holds m keys and m doubles
    # at or below row 0's threshold, one too many for either mask, and
    # takes argpartition; no other block does
    inst = random_instance(random.Random(21), 12, 12)
    m = inst.size - 1
    real_argpartition = np.argpartition
    calls = tied_sampler_calls(monkeypatch, inst, low_bits=False)
    u = np.random.default_rng(3).random((4, inst.n + m - 1))
    threshold = np.sort(u, axis=1)[:, m - 2]
    assert np.count_nonzero(u <= threshold[:, None]) == 4 * (m - 1) + 1
    assert oracle._sorted_bars(u, m - 1).tolist() == np.sort(
        real_argpartition(u, m - 2, axis=1)[:, : m - 1], axis=1
    ).tolist()
    calls.clear()
    result = sample_uniform(inst, 3000, seed=5)
    assert calls.count("argpartition") == 1
    comps, rate = reference_sample(inst, 3000, 5)
    assert result.acceptance_rate == rate
    assert result.compositions == comps


def test_sampler_rebuilds_the_doubles_on_a_tie_of_the_keys(monkeypatch):
    # row 0 of the first block ties at its threshold in the top 32 bits
    # only: that block sorts its doubles, which do not tie, and no block
    # takes argpartition
    inst = random_instance(random.Random(21), 12, 12)
    m = inst.size - 1
    calls = tied_sampler_calls(monkeypatch, inst, low_bits=True)
    words = np.random.default_rng(3).bit_generator.random_raw(
        (4, inst.n + m - 1)
    )
    keys = words >> 32
    threshold = np.sort(keys, axis=1)[:, m - 2]
    assert np.count_nonzero(keys <= threshold[:, None]) == 4 * (m - 1) + 1
    u = (words >> 11) * 2.0**-53
    threshold = np.sort(u, axis=1)[:, m - 2]
    assert np.count_nonzero(u <= threshold[:, None]) == 4 * (m - 1)
    result = sample_uniform(inst, 3000, seed=5)
    assert calls == ["_sorted_bars"]
    comps, rate = reference_sample(inst, 3000, 5)
    assert result.acceptance_rate == rate
    assert result.compositions == comps


def low_rate_instance():
    """n = 12 units over m = 12 unit-price modes under budget 19: 45 of
    1,352,078 proposals fit, a rate of 3.3e-5, below the pilot's 10^-4."""
    return build_instance(["1"] * 13, 0, 12, "19")


def sampler_outcome(sample, inst, count, seed):
    """The parts sample draws, or the text of its LowAcceptance."""
    try:
        return sample(inst, count, seed)
    except LowAcceptance as exc:
        return str(exc)


@pytest.mark.parametrize("case", SAMPLER_CASES)
def test_draw_parts_are_the_samplers_first_rows(case):
    make, count = SAMPLER_CASES[case]
    inst = make()
    for seed in (0, 1, 7, 12345):
        parts = oracle.draw_parts(inst, count, seed)
        assert parts.dtype == np.int64
        assert not parts.flags.writeable
        assert np.array_equal(parts, sample_uniform(inst, count, seed).parts)


def sampled_parts(inst, count, seed):
    return sample_uniform(inst, count, seed).parts


def test_draw_parts_fail_the_pilot_where_the_sampler_does():
    outcomes = []
    for inst, count, seed in [
        *((low_rate_instance(), c, s) for c in (1, 2, 4, 50) for s in (0, 3)),
        (from_fractions([Fraction(1)] * 20, 0, 20, Fraction(20)), 10, 0),
        (build_instance(["1", "2"], 0, 3, "5"), 10, 0),  # m = 1, no fit
        (build_instance(["1", "2"], 0, 3, "5"), 0, 0),
    ]:
        want = sampler_outcome(sampled_parts, inst, count, seed)
        got = sampler_outcome(oracle.draw_parts, inst, count, seed)
        if isinstance(want, str):
            assert got == want
        else:
            assert np.array_equal(got, want)
        outcomes.append(isinstance(want, str))
    # at rate 3.3e-5 the pilot passes 1 and 2 draws, fails 50, and fails 4
    # at one seed only
    assert outcomes == [False] * 4 + [True, False] + [True] * 4 + [False]


def bar_energy_instance(past):
    """m = 3 modes, n = 3 at scale 1, whose bar-energy bound (slots - 1) *
    (lambda_first - lambda_last) + |const| is 2^63 - 1 + past, with const
    = lambda_last * (slots - 1) - lambda_2 (the middle mode's weight)."""
    # lambda = (l0, l1, 1), slots = 5: bound = 4 * l0 + l1 - 8, with l1
    # chosen so that 4 divides 2^63 + 7 + past - l1
    l1 = 2**60 + 3 - 3 * past
    l0 = (2**63 + 7 + past - l1) // 4
    prices = ["1", str(l0 - l1), str(l1 - 1), "1"]
    return build_instance(prices, 0, 3, str(l0 + l1), scale=1)


@pytest.mark.parametrize("past", [0, 1])
def test_sampler_bar_energies_past_int64_use_python_ints(past):
    inst = bar_energy_instance(past)
    lams = inst.mode_weights_scaled()
    slots = inst.n + len(lams) - 1
    const = lams[-1] * (slots - 1) - sum(lams[1:-1])
    bound = (slots - 1) * (lams[0] - lams[-1]) + abs(const)
    assert bound == 2**63 - 1 + past
    diffs, got_const = oracle._bar_weights(lams, slots)
    assert got_const == const
    assert diffs.dtype == (object if past else np.int64)
    for seed in (0, 9):
        result = sample_uniform(inst, 500, seed)
        comps, rate = reference_sample(inst, 500, seed)
        assert 0 < rate < 1
        assert result.acceptance_rate == rate
        assert result.compositions == comps


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


def test_sampler_memory_stays_within_a_block():
    # n = m = 200 under a budget every composition fits: a whole chunk at
    # once is 20,000 x 399 doubles and a sorted copy, 122.7 MB traced
    inst = build_instance(["1"] * 201, 0, 200, str(200 * 200))
    result, _, peak = traced_peak(lambda: sample_uniform(inst, 1000, 1))
    assert result.parts.shape == (1000, 200)
    assert result.acceptance_rate == 1.0
    assert peak < 8 * 2**20, peak


def test_one_composition_sampler_holds_no_chunk():
    # n = 0 over 499 modes: one (20,000, m) chunk of the composition and
    # its energies is 152 MB traced
    inst = build_instance(["1"] * 500, 5, 5, "2500")
    result, _, peak = traced_peak(lambda: sample_uniform(inst, 10, 3))
    assert result.parts.tolist() == [[0] * 499] * 10
    assert result.acceptance_rate == 1.0
    assert peak < 2**20, peak


def test_one_composition_past_the_budget_fails_the_pilot():
    # m = 1 and n = 3: the one composition costs 3 * 2 > 5
    inst = build_instance(["1", "2"], 0, 3, "5")
    with pytest.raises(LowAcceptance) as info:
        sample_uniform(inst, 10, seed=0)
    assert str(info.value) == (
        "acceptance rate 0.00e+00 below 0.0001 after 100000 trials"
    )
    empty = sample_uniform(inst, 0, seed=0)
    assert empty.parts.shape == (0, 1) and empty.acceptance_rate == 1.0


def test_walks_free_their_memo_without_a_gc_pass():
    # no walk may leave its levels, its counts or its fits table for the
    # cyclic collector to free
    inst = unit_price_family(15, "mean")
    params = solve_params(inst)
    golden, _ = golden_crosscheck()[13]  # the largest |M|, 2,647,857
    lams = inst.mode_weights_scaled()
    fitted = []

    def fits(i, units):
        # 8 kB per slot of the table: a kept table would hold > 200 kB
        fitted.append(None)
        return bytes(8192)

    def walks():
        count_configurations(inst)
        cumulative_stats(inst, params, 8)
        low_energy_shell_weight(inst, 0.05)
        count_configurations(golden)
        _walk(lams, inst.n, inst.effective_budget_scaled(), fits,
              lambda i, kids: kids[0], lambda units, vmax: b"")

    gc.disable()
    try:
        _, retained, _ = traced_peak(walks)
    finally:
        gc.enable()
    assert len(fitted) * 8192 > 200_000
    assert retained < 200_000
