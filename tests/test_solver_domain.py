"""Solver convergence over the whole input domain.

s and n run up to 10^4 and budgets from 1 % to 99 % of the attainable
energy range, which covers both signs of beta. Every solve must converge
(no NoConvergence) within the 1e-9 contract; on the criterion-2 suite the
1e-12 target must be reached.
"""

import dataclasses
import random
from fractions import Fraction

import pytest

from bealloc import (
    InvestmentBounds,
    NoConvergence,
    build_instance,
    solve_params,
    solve_sigma,
)
from bealloc import solver
from bealloc.solver import mode_offsets, occupancy_sums, solve_offset
from conftest import decimal_string, random_instance


def relative_residual(inst, params):
    return max(
        abs(params.residual_n) / max(1, inst.n),
        abs(params.residual_e) / max(1.0, abs(float(inst.effective_budget))),
    )


def cents_schedule(rng, s):
    """An instance with s random cent prices; only its schedule is used."""
    cents = [rng.randint(1, 10000) for _ in range(s)]
    prices = [f"{c // 100}.{c % 100:02d}" for c in cents]
    return build_instance(prices, 0, 1, decimal_string(Fraction(sum(cents), 100)))


def placed(base, n, percent):
    """base's schedule with K = 0, M = n and the effective budget at percent
    of the attainable range (n*lambda_s, n*lambda_2)."""
    lam = base.weights.numerators
    low, high = n * lam[-1], n * lam[1]
    phi, rest = divmod(100 * low + percent * (high - low), 100)
    assert rest == 0  # cent prices: phi is exact at the scale
    return dataclasses.replace(
        base, bounds=InvestmentBounds(0, n, phi, base.scale)
    )


def test_ladder_converges_on_whole_domain():
    rng = random.Random(2026)
    failures, worst = [], 0.0
    for s in (3, 50, 1000, 10_000):
        base = cents_schedule(rng, s)
        for n in (1, 30, 1000, 10_000):
            for percent in (1, 50, 99):
                inst = placed(base, n, percent)
                try:
                    params = solve_params(inst)
                except NoConvergence as exc:
                    failures.append((s, n, percent, str(exc)))
                    continue
                worst = max(worst, relative_residual(inst, params))
                if percent == 1:
                    assert params.beta > 0
                if percent == 99:
                    assert params.beta < 0
    assert failures == []
    assert worst <= 1e-9


def test_interior_budgets_at_large_s():
    # s in 1000..5000 and n = 1000: sigma sits next to the pole here, where
    # its absolute value has ulp(beta*lambda_p) of resolution only
    rng = random.Random(1000)
    for _ in range(8):
        inst = placed(
            cents_schedule(rng, rng.randint(1000, 5000)), 1000,
            rng.randint(1, 99),
        )
        assert relative_residual(inst, solve_params(inst)) <= 1e-9


def test_solve_sigma_next_to_a_far_pole():
    # s = 50, n = 10^4, beta = -0.5: the pole beta*lambda_2 lies near -1000
    # and sigma about 1e-4 below it
    inst = placed(cents_schedule(random.Random(50), 50), 10_000, 50)
    beta = -0.5
    sigma = solve_sigma(inst, beta)
    modes = mode_offsets(inst, beta)
    x0 = solve_offset(modes, inst.n, beta)
    assert sigma == beta * float(modes.pole) - x0
    assert x0 < 1e-3
    count = occupancy_sums(modes, beta, x0).count
    assert abs(count - inst.n) <= 1e-9 * inst.n


def test_criterion_2_suite_reaches_target():
    rng = random.Random(20260823)
    worst = max(
        relative_residual(inst, solve_params(inst))
        for inst in (random_instance(rng, s_max=50, n_max=30)
                     for _ in range(1000))
    )
    assert worst <= 1e-12


def test_exhausted_iterations_raise_no_convergence(monkeypatch):
    monkeypatch.setattr(solver, "MAX_ITERATIONS", 1)
    with pytest.raises(NoConvergence, match="above tolerance"):
        solve_params(build_instance(["1", "2", "3"], 0, 2, "9.4"))
