"""Multiplier fitting and integer allocation."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from bealloc import (
    DegenerateBoundary,
    DomainError,
    IndexRange,
    InputError,
    RepairFailed,
    ThermoParams,
    build_allocation,
    build_instance,
    occupancy,
    predicted_cumulative,
    solve_params,
    solve_sigma,
)
from bealloc.solver import largest_remainder, mode_offsets, occupancy_sums
from conftest import decimal_string, random_instance

LN2 = math.log(2.0)


def build_example(budget="8"):
    return build_instance(["1", "2", "3"], 0, 2, budget)


def test_occupancy_closed_values():
    # at beta = 0, sigma = -ln 2 every mode holds exactly one unit
    assert occupancy(0.0, -LN2, 5.0) == pytest.approx(1.0, abs=1e-14)
    assert occupancy(0.0, -LN2, 3.0) == pytest.approx(1.0, abs=1e-14)
    # large argument decays like exp(-x)
    assert occupancy(1.0, 0.0, 40.0) == pytest.approx(math.exp(-40.0), rel=1e-12)


def test_mode_offsets_built_once_per_pole_side():
    # the fit and the rounding of one solve share one float view
    inst = random_instance(random.Random(3))
    params = solve_params(inst)
    modes = mode_offsets(inst, params.beta)
    build_allocation(inst, params)
    assert mode_offsets(inst, params.beta) is modes
    assert mode_offsets(inst, 0.5) is mode_offsets(inst, 2.0)
    assert mode_offsets(inst, 0.0) is mode_offsets(inst, 2.0)
    assert mode_offsets(inst, -0.5) is mode_offsets(inst, -3.0)
    assert mode_offsets(inst, -0.5) is not mode_offsets(inst, 0.5)
    # shared, so nobody may write to it
    assert not modes.d.flags.writeable


def test_occupancy_pole_rejected():
    with pytest.raises(DomainError):
        occupancy(0.0, 0.0, 5.0)
    with pytest.raises(DomainError):
        occupancy(1.0, 4.0, 3.0)


@pytest.mark.parametrize("args", [
    (math.nan, 0.0, 1.0), (1.0, math.nan, 1.0), (1.0, 0.0, math.nan),
    (math.inf, 0.0, 1.0), (1.0, -math.inf, 1.0), (1.0, 0.0, math.inf),
    (-math.inf, 0.0, 1.0), (1.0, math.inf, 1.0), (1.0, 0.0, -math.inf),
])
def test_occupancy_non_finite_argument_is_an_input_error(args):
    # nan passes the x <= 0 guard, and beta = inf or sigma = -inf gives an
    # occupancy of 0.0: neither is a value
    with pytest.raises(InputError, match="occupancy needs finite"):
        occupancy(*args)


def test_sums_on_example():
    modes = mode_offsets(build_example(), 0.0)
    sums = occupancy_sums(modes, 0.0, modes.x0(0.0, -LN2))
    energy = sums.energy + float(modes.pole) * sums.count
    assert sums.count == pytest.approx(2.0, abs=1e-12)
    assert energy == pytest.approx(8.0, abs=1e-12)


def test_solve_sigma_closed_form():
    assert solve_sigma(build_example(), 0.0) == pytest.approx(-LN2, abs=1e-9)


def test_solve_sigma_matches_count_at_random_beta():
    rng = random.Random(7)
    for _ in range(50):
        inst = random_instance(rng, s_max=12, n_max=12)
        beta = rng.uniform(-2.0, 3.0)
        sigma = solve_sigma(inst, beta)
        modes = mode_offsets(inst, beta)
        sums = occupancy_sums(modes, beta, modes.x0(beta, sigma))
        assert sums.count == pytest.approx(
            inst.n, abs=1e-9 * max(1, inst.n)
        )


def test_solve_params_uniform_point():
    params = solve_params(build_example("8"))
    assert abs(params.beta) <= 1e-9
    assert params.sigma == pytest.approx(-LN2, abs=1e-9)


def test_solve_params_tight_budget_pushes_beta_up():
    # energy barely above the minimum 6: mass must sit at the cheap mode
    inst = build_example("6.000001")
    params = solve_params(inst)
    assert params.beta > 1.0
    assert abs(params.residual_n) <= 1e-9 * max(1, inst.n)
    assert abs(params.residual_e) <= 1e-9 * max(1.0, float(inst.effective_budget))


def test_solve_params_rich_budget_goes_negative():
    inst = build_example("9.4")
    params = solve_params(inst)
    assert params.beta < 0.0


@pytest.mark.parametrize("budget", [
    "3e308", str(10**4 * (5 * 10**304 + 2) // 2),
], ids=["above the mean energy", "at the mean energy"])
def test_solve_params_energies_past_float_range(budget):
    # 2n * lambda_2 = 2e4 * 5e304 is no float; at the mean energy (beta = 0
    # in closed form) E - n*lambda_s = 2.5e308 is none either
    inst = build_instance(["1e305", "5e304", "1"], 0, 10**4, budget, scale=1)
    with pytest.raises(InputError, match=r"^2n \* lambda_2 must be a float"):
        solve_params(inst)


def test_solve_params_boundary_rejected():
    for budget in ("6", "10", "12"):
        with pytest.raises(DegenerateBoundary):
            solve_params(build_instance(["1", "2", "3"], 0, 2, budget))


def test_solve_params_empty_span_rejected():
    with pytest.raises(DegenerateBoundary):
        solve_params(build_instance(["1", "2", "3"], 2, 2, "12"))


def test_allocation_closed_form_pipeline():
    inst = build_example("8")
    alloc = build_allocation(inst, solve_params(inst))
    assert alloc.counts == (0, 1, 2)
    assert alloc.occupancies == pytest.approx((1.0, 1.0), abs=1e-9)
    assert alloc.spend == Fraction(8)
    assert alloc.budget_residual == 0
    assert alloc.rounding_shift == 0


def test_allocation_budget_repair():
    # occupancies (1.7, 0.3) round to (2, 0) which spends 10 > 9.4; one unit
    # must move to the cheaper mode, saving price p_2 = 2
    inst = build_example("9.4")
    alloc = build_allocation(inst, solve_params(inst))
    assert alloc.occupancies == pytest.approx((1.7, 0.3), abs=1e-6)
    assert alloc.counts == (0, 1, 2)
    assert alloc.rounding_shift == 1
    assert alloc.spend == Fraction(8)
    assert alloc.budget_residual == Fraction(14, 10)


def test_allocation_empty_span():
    inst = build_instance(["1", "2", "3"], 2, 2, "12")
    alloc = build_allocation(inst, ThermoParams(0.0, 0.0, 0.0, 0.0))
    assert alloc.counts == (2, 2, 2)
    assert alloc.spend == Fraction(12)
    assert alloc.budget_residual == 0
    assert alloc.rounding_shift == 0


def test_allocation_invariants_random():
    rng = random.Random(99)
    for _ in range(300):
        inst = random_instance(rng, s_max=20, n_max=20)
        params = solve_params(inst)
        assert abs(params.residual_n) <= 1e-9 * max(1, inst.n)
        assert abs(params.residual_e) <= 1e-9 * max(
            1.0, float(inst.effective_budget)
        )
        alloc = build_allocation(inst, params)
        counts = alloc.counts
        assert counts[0] == inst.bounds.min_shares
        assert counts[-1] == inst.bounds.max_shares
        assert all(a <= b for a, b in zip(counts, counts[1:]))
        assert alloc.spend <= inst.bounds.budget
        assert alloc.spend + alloc.budget_residual == inst.bounds.budget
        # spend is the floor cost plus the exact mode energy of the increments
        incr = [b - a for a, b in zip(counts, counts[1:])]
        energy = sum(
            u * w for u, w in zip(incr, inst.mode_weights)
        )
        assert alloc.spend == inst.bounds.min_shares * inst.weights.values[0] + energy


def test_scale_covariance_spot_check():
    # multiplying prices and budget by 7 must not change the integer counts
    rng = random.Random(5)
    for _ in range(20):
        s = rng.randint(3, 12)
        cents = [rng.randint(1, 500) for _ in range(s)]
        n = rng.randint(1, 12)
        lam = [sum(Fraction(c, 100) for c in cents[i:]) for i in range(s)]
        t = Fraction(rng.randint(10, 90), 100)
        phi = n * lam[-1] + t * n * (lam[1] - lam[-1])

        def fmt(fr):
            scaled = int(fr * 10**6)
            return f"{scaled // 10**6}.{scaled % 10**6:06d}"

        base = build_instance(
            [fmt(Fraction(c, 100)) for c in cents], 0, n, fmt(phi)
        )
        scaled = build_instance(
            [fmt(Fraction(7 * c, 100)) for c in cents], 0, n, fmt(7 * phi)
        )
        p1, p7 = solve_params(base), solve_params(scaled)
        assert abs(7 * p7.beta - p1.beta) <= 1e-8 * max(1.0, abs(p1.beta))
        a1 = build_allocation(base, p1)
        a7 = build_allocation(scaled, p7)
        assert a1.counts == a7.counts
        assert a7.spend == 7 * a1.spend


def test_predicted_cumulative_bounds_and_total():
    inst = build_example("8")
    params = solve_params(inst)
    with pytest.raises(IndexRange):
        predicted_cumulative(inst, params, 1)
    with pytest.raises(IndexRange):
        predicted_cumulative(inst, params, 4)
    assert predicted_cumulative(inst, params, 2) == pytest.approx(1.0, abs=1e-9)
    # at l = s the prediction must recover the full unit total
    assert predicted_cumulative(inst, params, 3) == pytest.approx(2.0, abs=1e-9)


def unit_loop_allocation(inst, params):
    """Reference allocation: per-mode occupancies and the unit-by-unit
    repair that rescans from the first mode on every move."""
    k = inst.bounds.min_shares
    phi = inst.bounds.budget
    occ = [
        occupancy(params.beta, params.sigma, float(w))
        for w in inst.mode_weights
    ]
    m = len(occ)
    parts = [math.floor(v) for v in occ]
    missing = inst.n - sum(parts)
    order = sorted(range(m), key=lambda j: (parts[j] - occ[j], -j))
    for j in order[:missing]:
        parts[j] += 1
    prices = inst.schedule.numerators
    phi_scaled = int(phi * inst.scale)
    spend = k * int(inst.weights.values[0] * inst.scale) + sum(
        p * w for p, w in zip(parts, inst.mode_weights_scaled())
    )
    shift = 0
    while spend > phi_scaled:
        movable = next(j for j in range(m - 1) if parts[j] >= 1)
        parts[movable] -= 1
        parts[movable + 1] += 1
        spend -= prices[movable + 1]
        shift += 1
    counts = [k]
    for p in parts:
        counts.append(counts[-1] + p)
    return tuple(counts), Fraction(spend, inst.scale), shift


def assert_matches_unit_loop(inst):
    params = solve_params(inst)
    alloc = build_allocation(inst, params)
    counts, spend, shift = unit_loop_allocation(inst, params)
    assert (alloc.counts, alloc.spend, alloc.rounding_shift) == (
        counts, spend, shift
    )
    return shift


def test_stack_repair_matches_unit_loop_on_suites():
    # the criterion-2 suite and the random-invariants instances
    for seed, count, s_max, n_max in ((20260823, 1000, 50, 30),
                                      (99, 300, 20, 20)):
        rng = random.Random(seed)
        moves = sum(
            assert_matches_unit_loop(random_instance(rng, s_max, n_max))
            for _ in range(count)
        )
        assert moves > 0


def test_stack_repair_matches_unit_loop_large_s():
    # s = 1000, n = 10^4 at a quarter of the energy range: over 10^4 moves
    rng = random.Random(8)
    cents = [rng.randint(1, 10000) for _ in range(1000)]
    prices = [f"{c // 100}.{c % 100:02d}" for c in cents]
    n = 10_000
    low, high = n * cents[-1], n * sum(cents[1:])
    budget = Fraction(low + (high - low) // 4, 100)
    inst = build_instance(prices, 0, n, decimal_string(budget))
    assert assert_matches_unit_loop(inst) >= 10_000


def sorted_apportionment(occ, n):
    """Largest remainder as build_allocation wrote it with sorted()."""
    parts = [math.floor(v) for v in occ]
    order = sorted(range(len(occ)), key=lambda j: (parts[j] - occ[j], -j))
    for j in order[: n - sum(parts)]:
        parts[j] += 1
    return parts


def test_largest_remainder_matches_sorted_order_on_ties():
    rng = random.Random(2718)
    for _ in range(400):
        m = rng.randint(1, 60)
        # few distinct fractional parts, so most of them tie exactly
        fracs = rng.sample([0.0, 0.125, 0.25, 0.5, 0.75, 0.1, 1 / 3],
                           rng.randint(1, 3))
        occ = [rng.randint(0, 4) + rng.choice(fracs) for _ in range(m)]
        floor_sum = sum(math.floor(v) for v in occ)
        n = floor_sum + rng.randint(0, m)
        got = largest_remainder(np.array(occ), n)
        assert got == sorted_apportionment(occ, n), (occ, n)
        assert sum(got) == n
    # ties go to the larger mode index
    assert largest_remainder(np.array([0.5, 0.5, 0.5, 0.25]), 2) == [
        0, 1, 1, 0]


def test_largest_remainder_rejects_an_unreachable_total():
    with pytest.raises(RepairFailed, match="cannot apportion 5"):
        largest_remainder(np.array([0.5, 0.5]), 5)
    with pytest.raises(RepairFailed, match="cannot apportion 0"):
        largest_remainder(np.array([1.5, 0.5]), 0)
