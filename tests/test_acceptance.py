"""Acceptance suite: one check per contract criterion, one verdict line each.

Each test prints `PASS criterion N: ...` or `FAIL criterion N: ...` with the
computed numbers before asserting, so a red run still shows exactly what was
measured. Criteria 4 and 5 encode trend claims that do not hold at these
sizes; the computed values are printed and the asserts record the failure
honestly (see the decisions ledger for the analysis).
"""

import math
import random
import time
from fractions import Fraction

from bealloc import (
    build_allocation,
    build_instance,
    count_configurations,
    cumulative_stats,
    enumerate_compositions,
    from_fractions,
    grand_partition,
    iter_compositions,
    low_energy_shell_weight,
    saddle_nu,
    solve_params,
    unit_price_family,
    z_exact,
    z_integral,
    z_saddle,
)
from conftest import random_instance


def verdict(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    return ok


def test_criterion_1_closed_form_pipeline():
    start = time.perf_counter()
    inst = build_instance(["1", "2", "3"], 0, 2, "8")
    params = solve_params(inst)
    alloc = build_allocation(inst, params)
    elapsed = time.perf_counter() - start

    ok = (
        abs(params.beta) <= 1e-9
        and abs(params.sigma + math.log(2.0)) <= 1e-9
        and alloc.counts == (0, 1, 2)
        and alloc.spend == Fraction(8)
        and elapsed < 1.0
    )
    assert verdict(
        1, ok,
        f"beta={params.beta:.3e} sigma={params.sigma:.12f} "
        f"counts={alloc.counts} spend={alloc.spend} time={elapsed:.3f}s",
    )


def test_criterion_2_residual_suite():
    start = time.perf_counter()
    rng = random.Random(20260823)
    worst_n = worst_e = 0.0
    for _ in range(1000):
        inst = random_instance(rng, s_max=50, n_max=30)
        params = solve_params(inst)
        rn = abs(params.residual_n) / max(1.0, float(inst.n))
        re = abs(params.residual_e) / max(1.0, float(inst.effective_budget))
        worst_n, worst_e = max(worst_n, rn), max(worst_e, re)
        alloc = build_allocation(inst, params)
        c = alloc.counts
        assert c[0] == inst.bounds.min_shares
        assert c[-1] == inst.bounds.max_shares
        assert all(a <= b for a, b in zip(c, c[1:]))
        assert alloc.spend <= inst.bounds.budget
    elapsed = time.perf_counter() - start

    ok = worst_n <= 1e-9 and worst_e <= 1e-9 and elapsed < 30.0
    assert verdict(
        2, ok,
        f"1000 instances, worst residuals n={worst_n:.2e} e={worst_e:.2e} "
        f"time={elapsed:.1f}s",
    )


def test_criterion_3_oracle_ground_truth():
    start = time.perf_counter()
    counts = {}
    for budget, expected in (("10", 3), ("9", 2), ("5", 0)):
        inst = build_instance(["1", "2", "3"], 0, 2, budget)
        walked = enumerate_compositions(inst, lambda c: None)
        counted = count_configurations(inst)
        counts[budget] = (walked, counted, expected)

    slack_ok = True
    for s in range(2, 13):
        for n in range(1, 16):
            inst = from_fractions([Fraction(1)] * s, 0, n, Fraction(n * s))
            if count_configurations(inst) != math.comb(n + s - 2, s - 2):
                slack_ok = False
    elapsed = time.perf_counter() - start

    hand_ok = all(w == c == e for w, c, e in counts.values())
    ok = hand_ok and slack_ok and elapsed < 10.0
    assert verdict(
        3, ok,
        f"hand counts {[v[:2] for v in counts.values()]} expected [3, 2, 0], "
        f"slack grid s<=12 n<=15 {'exact' if slack_ok else 'MISMATCH'} "
        f"time={elapsed:.1f}s",
    )


def test_criterion_4_concentration_trend():
    start = time.perf_counter()
    fractions = []
    for n in (6, 9, 12, 15):
        inst = unit_price_family(n, "mean")
        params = solve_params(inst)
        stats = cumulative_stats(inst, params, -(-n // 2), epsilon=0.0)
        fractions.append(stats.deviation_fraction)
    elapsed = time.perf_counter() - start

    nonincreasing = all(b <= a for a, b in zip(fractions, fractions[1:]))
    gap = fractions[-1] <= fractions[0] - 0.05
    ok = nonincreasing and gap and elapsed < 300.0
    assert verdict(
        4, ok,
        f"deviation fractions {fractions} nonincreasing={nonincreasing} "
        f"gap(last<=first-0.05)={gap} time={elapsed:.1f}s",
    ), (
        "the deviation band n^0.75 exceeds the largest possible deviation at "
        "these sizes, so every fraction is exactly 0 and no 0.05 gap can "
        "exist between equal endpoints"
    )


def test_criterion_5_shell_decay_trend():
    start = time.perf_counter()
    weights = []
    for n in (6, 9, 12, 15):
        inst = unit_price_family(n, "mean")
        params = solve_params(inst)
        weights.append(
            low_energy_shell_weight(inst, params.beta, epsilon=0.25)
        )
    elapsed = time.perf_counter() - start

    decreasing = all(b < a for a, b in zip(weights, weights[1:]))
    ok = decreasing and elapsed < 300.0
    assert verdict(
        5, ok,
        f"shell weights {[f'{w:.6f}' for w in weights]} "
        f"strictly_decreasing={decreasing} time={elapsed:.1f}s",
    ), (
        "the shell weight increases along this family because the mode "
        "weights grow with n; the decay claim needs bounded weights"
    )


def test_criterion_6_partition_identities():
    start = time.perf_counter()
    rng = random.Random(6)

    worst_dp = 0.0
    for _ in range(25):
        inst = random_instance(rng, s_max=6, n_max=12)
        beta = rng.uniform(-1.0, 1.0)
        slack = from_fractions(
            inst.schedule.prices,
            inst.bounds.min_shares,
            inst.bounds.max_shares,
            inst.bounds.max_shares * inst.weights.values[0],
        )
        xs = [
            -beta * float(c.energy(slack)) for c in iter_compositions(slack)
        ]
        shift = max(xs)
        brute_log = shift + math.log(
            math.fsum(math.exp(x - shift) for x in xs)
        )
        err = abs(z_exact(inst, beta) - brute_log) / max(
            1.0, abs(brute_log)
        )
        worst_dp = max(worst_dp, err)

    worst_q = 0.0
    for _ in range(5):
        inst = random_instance(rng, s_max=6, n_max=10)
        beta = rng.uniform(-0.5, 1.0)
        nu = saddle_nu(inst, beta)
        err = abs(
            z_integral(inst, beta, nu, grid=4096) - z_exact(inst, beta)
        ) / max(1.0, abs(z_exact(inst, beta)))
        worst_q = max(worst_q, err)

    h = 1e-5
    worst_d1 = worst_d2 = 0.0
    for _ in range(100):
        inst = random_instance(rng, s_max=10, n_max=10)
        beta = rng.uniform(-1.0, 1.5)
        pole = min(beta * float(w) for w in inst.mode_weights)
        nu = pole - rng.uniform(0.05, 2.0)
        gp = grand_partition(inst, beta, nu)
        lp = grand_partition(inst, beta, nu + h).log_zeta
        lm = grand_partition(inst, beta, nu - h).log_zeta
        d1 = (lp - lm) / (2.0 * h)
        d2 = (lp - 2.0 * gp.log_zeta + lm) / (h * h)
        worst_d1 = max(
            worst_d1, abs(d1 - gp.count) / max(1.0, abs(gp.count))
        )
        worst_d2 = max(
            worst_d2, abs(d2 - gp.curvature) / max(1.0, abs(gp.curvature))
        )
    elapsed = time.perf_counter() - start

    ok = (
        worst_dp <= 1e-12
        and worst_q <= 1e-8
        and worst_d1 <= 1e-6
        and worst_d2 <= 1e-5
        and elapsed < 60.0
    )
    assert verdict(
        6, ok,
        f"recurrence-vs-brute {worst_dp:.2e}, quadrature {worst_q:.2e}, "
        f"fd1 {worst_d1:.2e}, fd2 {worst_d2:.2e} time={elapsed:.1f}s",
    )


def test_criterion_7_saddle_stabilization():
    start = time.perf_counter()
    ratios = []
    for n in (20, 40, 80):
        inst = unit_price_family(n, "slack")
        ratios.append(z_saddle(inst, 0.5).ratio)
    rc_first = abs(ratios[1] / ratios[0] - 1.0)
    rc_second = abs(ratios[2] / ratios[1] - 1.0)
    elapsed = time.perf_counter() - start

    ok = rc_second < rc_first and elapsed < 60.0
    assert verdict(
        7, ok,
        f"ratios {[f'{r:.8f}' for r in ratios]} changes "
        f"{rc_first:.6f} -> {rc_second:.6f} time={elapsed:.1f}s",
    )


def test_criterion_8_scale_covariance():
    start = time.perf_counter()
    rng = random.Random(8)
    worst = 0.0
    mismatches = 0
    for _ in range(100):
        base = random_instance(rng, s_max=50, n_max=30)
        scaled_inst = _scaled_by_seven(base)
        p1, p7 = solve_params(base), solve_params(scaled_inst)
        worst = max(
            worst, abs(7.0 * p7.beta - p1.beta) / max(1.0, abs(p1.beta))
        )
        a1 = build_allocation(base, p1)
        a7 = build_allocation(scaled_inst, p7)
        if a1.counts != a7.counts:
            mismatches += 1
    elapsed = time.perf_counter() - start

    ok = worst <= 1e-8 and mismatches == 0 and elapsed < 10.0
    assert verdict(
        8, ok,
        f"100 instances, count mismatches {mismatches}, "
        f"worst beta deviation {worst:.2e} time={elapsed:.1f}s",
    )


def _scaled_by_seven(base):
    return from_fractions(
        [7 * p for p in base.schedule.prices],
        base.bounds.min_shares,
        base.bounds.max_shares,
        7 * base.bounds.budget,
    )
