"""Partition recurrence, grand partition, saddle point, contour quadrature."""

import math
import random
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from bealloc import (
    CapExceeded,
    DomainError,
    InputError,
    build_instance,
    from_fractions,
    grand_partition,
    iter_compositions,
    saddle_nu,
    solve_sigma,
    with_total,
    z_exact,
    z_integral,
    z_saddle,
)
from bealloc.partition import (
    DP_MAX_MODES,
    DP_MAX_UNITS,
    NEGLIGIBLE_LOG_RATIO,
    _contour_product,
    geometric_prefix_sums,
    resolved_tilts,
    z_profile,
)
from bealloc.solver import mode_offsets
from conftest import decimal_string, random_instance

LN2 = math.log(2.0)


def build_example():
    return build_instance(["1", "2", "3"], 0, 2, "8")


def slack_copy(inst):
    """Same modes and unit total, budget lifted so every composition fits."""
    k = inst.bounds.min_shares
    m = inst.bounds.max_shares
    return from_fractions(
        inst.schedule.prices, k, m, m * inst.weights.values[0]
    )


def brute_force_log_z(inst, beta):
    # shifted sum: the raw terms overflow for beta < 0 at cent-scale weights
    slack = slack_copy(inst)
    xs = [-beta * float(c.energy(slack)) for c in iter_compositions(slack)]
    shift = max(xs)
    return shift + math.log(math.fsum(math.exp(x - shift) for x in xs))


@pytest.mark.parametrize("beta", [-0.4, 0.0, 0.3])
@pytest.mark.parametrize("more_prices", [None, ["0.25", "1.5", "0.5"]])
def test_z_profile_prefix_is_bit_identical(beta, more_prices):
    # zcheck reads rows n and 2n from the 4n profile: every entry must be
    # the one a shorter run gives, exactly
    prices = ["1.25", "0.5", "2", "0.75"] + (more_prices or [])
    inst = build_instance(prices, 0, 7, "30")
    n = inst.n
    long = z_profile(inst, beta, 4 * n)
    assert long.shape == (4 * n + 1,)
    for k in (0, 1, n, 2 * n):
        assert np.array_equal(long[: k + 1], z_profile(inst, beta, k))
    for k in (n, 2 * n, 4 * n):
        inst_k = with_total(inst, k)
        # the doubling copy is the instance built with k units directly
        assert inst_k == build_instance(prices, 0, k, None)
        assert z_exact(inst_k, beta, long) == z_exact(inst_k, beta)


def test_geometric_prefix_sums_hand_rows():
    # from the unit row, modes of ratio 1/2 then 1/4: after the first,
    # z(k) = 2^-k; after the second, z(k) = sum_{a+b=k} 2^-a * 4^-b
    rows = list(geometric_prefix_sums(3, [-LN2, -2.0 * LN2]))
    assert len(rows) == 2
    assert np.allclose(np.exp(rows[0]), [1.0, 0.5, 0.25, 0.125], rtol=1e-15,
                       atol=0.0)
    want = [sum(2.0**-a * 4.0**-(k - a) for a in range(k + 1))
            for k in range(4)]
    assert np.allclose(np.exp(rows[1]), want, rtol=1e-15, atol=0.0)
    assert rows[0] is not rows[1]
    # no mode: nothing to yield; zero units: the row [log 1]
    assert list(geometric_prefix_sums(3, [])) == []
    assert [r.tolist() for r in geometric_prefix_sums(0, [-1.0])] == [[0.0]]


def test_z_profile_stops_at_the_unit_cap():
    inst = build_example()
    assert z_profile(inst, 0.2, DP_MAX_UNITS + 5).shape == (DP_MAX_UNITS + 1,)
    many = from_fractions([Fraction(1)] * (DP_MAX_MODES + 2), 0, 2,
                          Fraction(DP_MAX_MODES + 2))
    with pytest.raises(CapExceeded, match="capped"):
        z_profile(many, 0.2, 2)


def test_z_exact_beta_zero_counts_compositions():
    # every composition contributes 1: C(2 + 1, 1) = 3
    zx = z_exact(build_example(), 0.0)
    assert zx.mantissa * math.exp(zx.exponent) == pytest.approx(3.0, rel=1e-12)
    assert zx.log == pytest.approx(math.log(3.0), rel=1e-12)


def test_z_exact_two_mode_hand_value():
    # weights (5, 3), one unit, beta 0.1: e^-0.5 + e^-0.3
    inst = build_instance(["1", "2", "3"], 0, 1, "5")
    expected = math.exp(-0.5) + math.exp(-0.3)
    assert z_exact(inst, 0.1).log == pytest.approx(
        math.log(expected), rel=1e-12
    )


def test_z_exact_empty_span_is_one():
    inst = from_fractions([Fraction(1), Fraction(2)], 1, 1, Fraction(3))
    zx = z_exact(inst, 0.7)
    assert zx.mantissa == 1.0
    assert zx.exponent == 0


def test_z_exact_against_brute_force():
    rng = random.Random(41)
    for _ in range(30):
        inst = random_instance(rng, s_max=6, n_max=12)
        beta = rng.uniform(-1.0, 1.0)
        assert z_exact(inst, beta).log == pytest.approx(
            brute_force_log_z(inst, beta), rel=1e-12, abs=1e-12
        )


def reference_log_z(inst, beta):
    """The unit-by-unit log-add-exp loop over absolute mode weights that the
    per-mode prefix evaluation replaced."""
    log_z = [0.0] + [-math.inf] * inst.n
    for lam in inst.mode_weights:
        lw = -beta * float(lam)
        for i in range(1, inst.n + 1):
            a, b = log_z[i], lw + log_z[i - 1]
            if a < b:
                a, b = b, a
            if b > -math.inf:
                a += math.log1p(math.exp(b - a))
            log_z[i] = a
    return log_z[inst.n]


def test_z_exact_matches_reference_loop():
    # both signs of beta and beta = 0, up to 60 modes and a few hundred
    # units
    rng = random.Random(89)
    for case in range(30):
        s = rng.randint(2, 61)
        n = rng.choice([1, rng.randint(2, 40), rng.randint(100, 300)])
        cents = [rng.randint(1, 10000) for _ in range(s)]
        prices = [decimal_string(Fraction(c, 100)) for c in cents]
        budget = decimal_string(n * Fraction(sum(cents), 100))
        inst = build_instance(prices, 0, n, budget)
        beta = (case % 3 - 1) * 10.0 ** rng.uniform(-4.0, 0.0)
        assert z_exact(inst, beta).log == pytest.approx(
            reference_log_z(inst, beta), rel=1e-12, abs=1e-12
        )


def test_z_exact_beta_zero_at_the_caps():
    # DP_MAX_MODES modes and DP_MAX_UNITS units: every composition weighs
    # 1, so Z = C(n + m - 1, m - 1)
    n, m = DP_MAX_UNITS, DP_MAX_MODES
    inst = build_instance(["1"] * (m + 1), 0, n, str(n * (m + 1)))
    assert inst.size - 1 == m
    assert z_exact(inst, 0.0).log == pytest.approx(
        math.log(math.comb(n + m - 1, m - 1)), rel=1e-12
    )


def test_z_exact_respects_caps():
    inst = from_fractions([Fraction(1)] * 2, 0, 10_001, Fraction(20_002))
    with pytest.raises(CapExceeded):
        z_exact(inst, 0.1)


def test_grand_partition_hand_value():
    gp = grand_partition(build_example(), 0.0, -LN2)
    # both occupancies are 1, so the count derivative is 2 and the
    # curvature sums occ*(occ+1) = 2 per mode
    assert gp.dlog_dnu == pytest.approx(2.0, abs=1e-12)
    assert gp.d2log_dnu2 == pytest.approx(4.0, abs=1e-12)
    assert gp.log_value == pytest.approx(2.0 * math.log(2.0), abs=1e-12)


def test_grand_partition_pole_rejected():
    inst = build_example()
    with pytest.raises(DomainError):
        grand_partition(inst, 0.0, 0.0)
    with pytest.raises(DomainError):
        grand_partition(inst, 1.0, 3.0)


def test_grand_partition_derivative_identities():
    # finite differences of log zeta must match the analytic sums
    rng = random.Random(17)
    h = 1e-5
    for _ in range(100):
        inst = random_instance(rng, s_max=10, n_max=10)
        beta = rng.uniform(-1.0, 1.5)
        pole = min(beta * float(w) for w in inst.mode_weights)
        nu = pole - rng.uniform(0.05, 2.0)
        gp = grand_partition(inst, beta, nu)
        lp = grand_partition(inst, beta, nu + h).log_value
        lm = grand_partition(inst, beta, nu - h).log_value
        d1 = (lp - lm) / (2.0 * h)
        d2 = (lp - 2.0 * gp.log_value + lm) / (h * h)
        assert d1 == pytest.approx(gp.dlog_dnu, rel=1e-6, abs=1e-8)
        assert d2 == pytest.approx(gp.d2log_dnu2, rel=1e-5, abs=1e-6)


def test_saddle_point_matches_sigma_solve():
    inst = build_example()
    assert saddle_nu(inst, 0.0) == pytest.approx(-LN2, abs=1e-9)
    assert saddle_nu(inst, 0.4) == solve_sigma(inst, 0.4)


def test_z_saddle_single_mode_closed_form():
    # one mode: Z = t^n exactly, and the Gaussian estimate has the closed
    # ratio (1 + 1/n)^(-n) * sqrt(2*pi*n/(n+1)) -> e^-1 sqrt(2*pi)
    n = 500
    inst = from_fractions([Fraction(1), Fraction(1)], 0, n, Fraction(2 * n))
    beta = 0.8
    est = z_saddle(inst, beta)
    assert est.z_exact.log == pytest.approx(-beta * n, rel=1e-12)
    expected = (1.0 + 1.0 / n) ** (-n) * math.sqrt(2.0 * math.pi * n / (n + 1))
    assert est.ratio == pytest.approx(expected, rel=1e-7)
    assert abs(est.ratio - math.exp(-1.0) * math.sqrt(2.0 * math.pi)) < 0.01


def test_z_saddle_consistency_random():
    rng = random.Random(53)
    for _ in range(20):
        inst = random_instance(rng, s_max=8, n_max=30)
        beta = rng.uniform(-0.5, 1.0)
        est = z_saddle(inst, beta)
        assert est.nu_star < beta * float(min(inst.mode_weights))
        assert est.ratio > 0.0
        assert est.ratio == pytest.approx(
            math.exp(est.z_exact.log - est.z_saddle.log), rel=1e-12
        )


def test_z_integral_matches_exact():
    inst = from_fractions(
        [Fraction(i) for i in range(1, 7)], 0, 10, Fraction(210)
    )
    beta = 0.3
    nu = saddle_nu(inst, beta)
    zq = z_integral(inst, beta, nu, grid=4096)
    assert zq.log == pytest.approx(z_exact(inst, beta).log, rel=1e-8, abs=1e-8)


def test_z_integral_random_contours():
    # the contour location does not matter as long as it avoids the poles
    rng = random.Random(71)
    for _ in range(10):
        inst = random_instance(rng, s_max=6, n_max=10)
        beta = rng.uniform(-0.5, 1.0)
        pole = min(beta * float(w) for w in inst.mode_weights)
        nu = pole - rng.uniform(0.1, 1.0)
        zq = z_integral(inst, beta, nu, grid=4096)
        assert zq.log == pytest.approx(
            z_exact(inst, beta).log, rel=1e-7, abs=1e-7
        )


def cent_instance(rng, clusters, n, cluster=1):
    """clusters * cluster cent-priced modes and n units; the budget sits at
    the top, so it never binds. cluster - 1 one-cent prices ahead of each
    random price make a cluster of modes whose weights are one cent apart."""
    cents = [rng.randint(1, 10000)]
    for _ in range(clusters):
        cents += [1] * (cluster - 1) + [rng.randint(1, 10000)]
    prices = [decimal_string(Fraction(c, 100)) for c in cents]
    budget = decimal_string(n * Fraction(sum(cents), 100))
    return build_instance(prices, 0, n, budget)


def reference_log_z_integral(inst, beta, nu, grid):
    """The complex-log kernel the blocked product replaced: one row per
    mode and a complex log of every (mode, grid point) entry."""
    modes = mode_offsets(inst, beta)
    x = beta * modes.d + modes.x0(beta, nu)
    alphas = -math.pi + (2.0 * math.pi / grid) * np.arange(grid)
    t = np.exp(-x)[:, None] * np.exp(1j * alphas)[None, :]
    log_integrand = -np.sum(np.log(1.0 - t), axis=0) - 1j * inst.n * alphas
    shift = float(log_integrand.real.max())
    value = complex(np.exp(log_integrand - shift).sum()).real / grid
    return math.log(value) + shift - nu * inst.n


# (clusters, units, grid, modes per cluster, sign of beta); at most
# DP_MAX_MODES modes and DP_MAX_UNITS units
REFERENCE_CASES = [
    (11, 10, 64, 3, -1),
    (11, 10, 64, 1, 0),
    (40, 300, 4096, 2, 1),
    (60, 1000, 8192, 3, -1),
    (333, 2500, 4096, 3, 0),
    (200, DP_MAX_UNITS, 8192, 3, 1),
    (999, DP_MAX_UNITS, 4096, 1, -1),
    (999, 40, 4096, 1, 1),
]


@pytest.mark.parametrize("clusters, n, grid, cluster, sign", REFERENCE_CASES)
def test_z_integral_matches_reference_kernel(clusters, n, grid, cluster, sign):
    rng = random.Random(f"{clusters}:{n}:{grid}:{cluster}:{sign}")
    inst = cent_instance(rng, clusters, n, cluster)
    assert inst.size - 1 == clusters * cluster <= DP_MAX_MODES
    beta = sign * 10.0 ** rng.uniform(-4.0, -1.0)
    nu = saddle_nu(inst, beta)
    assert z_integral(inst, beta, nu, grid).log == pytest.approx(
        reference_log_z_integral(inst, beta, nu, grid), rel=1e-12
    )


def test_z_integral_product_beyond_float_range():
    # 999 modes next to the pole at DP_MAX_UNITS units: the product
    # prod_j (1 - r_j) at alpha = 0 underflows a double unless rescaled
    inst = cent_instance(random.Random(5), 999, DP_MAX_UNITS)
    beta = 3e-5
    nu = saddle_nu(inst, beta)
    modes = mode_offsets(inst, beta)
    x0 = modes.x0(beta, nu)
    assert x0 < 1e-3
    log_product = float(np.log(-np.expm1(-(beta * modes.d + x0))).sum())
    assert log_product < math.log(sys.float_info.min)
    zq = z_integral(inst, beta, nu)
    assert math.isfinite(zq.log)
    assert zq.log == pytest.approx(
        reference_log_z_integral(inst, beta, nu, 4096), rel=1e-12
    )


def test_z_integral_memory_below_one_mode_grid_array():
    # the complex-log kernel held 999 x 4096 complex entries (65 MB) at once
    grid = 4096
    inst = cent_instance(random.Random(7), 999, 40)
    beta = 0.01
    nu = saddle_nu(inst, beta)
    z_integral(inst, beta, nu, grid)
    tracemalloc.start()
    try:
        z_integral(inst, beta, nu, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    one_array = 999 * grid * np.dtype(complex).itemsize
    assert peak < one_array / 16


def test_z_integral_guards():
    inst = build_example()
    with pytest.raises(InputError):
        z_integral(inst, 0.0, -LN2, grid=32)
    with pytest.raises(DomainError):
        z_integral(inst, 0.0, 0.5, grid=64)
    # below the pole, but exp(nu) rounds to 1: the integrand has a pole
    with pytest.raises(DomainError):
        z_integral(inst, 0.0, -1e-20, grid=64)


def all_modes_log_z(inst, beta):
    """log Z(n) from the recurrence over every mode, none skipped."""
    modes = mode_offsets(inst, beta)
    k = np.arange(inst.n + 1, dtype=float)
    log_z = np.full(k.size, -np.inf)
    log_z[0] = 0.0
    for log_r in -beta * modes.d:
        tilt = k * log_r
        log_z = tilt + np.logaddexp.accumulate(log_z - tilt)
    return float(log_z[inst.n]) - beta * float(modes.pole) * inst.n


def all_modes_log_z_integral(inst, beta, nu, grid):
    """z_integral's quadrature over every mode, none skipped."""
    modes = mode_offsets(inst, beta)
    r = np.exp(-(beta * modes.d + modes.x0(beta, nu)))
    alphas = -math.pi + (2.0 * math.pi / grid) * np.arange(grid)
    mantissa, exponent = _contour_product(r, np.exp(1j * alphas))
    modulus = np.abs(mantissa)
    log_zeta = -(np.log(modulus) + math.log(2.0) * exponent)
    shift = float(log_zeta.max())
    integrand = (
        np.exp(log_zeta - shift) * (modulus / mantissa)
        * np.exp(-1j * inst.n * alphas)
    )
    value = float(integrand.real.sum()) / grid
    return math.log(value) + shift - nu * inst.n


@pytest.mark.parametrize("sign", [-1, 1])
@pytest.mark.parametrize("n", [40, 2500])
def test_skipped_modes_do_not_move_log_z(sign, n):
    # 999 cent-priced modes at a catalog-sized beta: most modes sit far
    # above the pole and are skipped, which moves log Z by < 1e-18
    rng = random.Random(f"skip:{sign}:{n}")
    inst = cent_instance(rng, 999, n)
    beta = sign * 0.01
    kept = resolved_tilts(inst, beta)
    assert 1 <= kept.size < (inst.size - 1) // 2
    want = all_modes_log_z(inst, beta)
    assert abs(z_exact(inst, beta).log - want) <= 1e-15 * max(1.0, abs(want))
    nu = saddle_nu(inst, beta)
    want = all_modes_log_z_integral(inst, beta, nu, 4096)
    got = z_integral(inst, beta, nu, 4096).log
    assert abs(got - want) <= 1e-15 * max(1.0, abs(want))


@pytest.mark.parametrize("beta", [-0.01, 0.0, 2e-4])
def test_no_skipped_mode_is_bit_identical(beta):
    inst = cent_instance(random.Random(f"keep:{beta}"), 59, 300)
    tilts = beta * mode_offsets(inst, beta).d
    assert tilts.max() < NEGLIGIBLE_LOG_RATIO
    assert np.array_equal(resolved_tilts(inst, beta), tilts)
    assert z_exact(inst, beta).log == all_modes_log_z(inst, beta)
    nu = saddle_nu(inst, beta)
    assert z_integral(inst, beta, nu, 4096).log == all_modes_log_z_integral(
        inst, beta, nu, 4096
    )


def test_pole_mode_is_always_kept():
    # every mode but the pole is skipped, on either side of beta = 0
    prices = ["0.001"] + ["100"] * 998 + ["0.001"]
    inst = build_instance(prices, 0, 40, None)
    for beta in (-1.0, 1.0):
        assert np.array_equal(resolved_tilts(inst, beta), [0.0])
    # nu sits so close below the pole (lambda_s = 0.001) that its ratio
    # rounds to 1: the pole error still fires
    beta = 1.0
    nu = beta * float(mode_offsets(inst, beta).pole) - 1e-18
    assert mode_offsets(inst, beta).x0(beta, nu) > 0.0
    with pytest.raises(DomainError, match="pole"):
        z_integral(inst, beta, nu, 64)


def test_cap_counts_skipped_modes():
    # DP_MAX_MODES + 1 modes, all but one negligible at this beta
    inst = build_instance(["100"] * (DP_MAX_MODES + 2), 0, 2, None)
    assert resolved_tilts(inst, 1.0).size == 1
    with pytest.raises(CapExceeded, match="capped"):
        z_profile(inst, 1.0, 2)
    with pytest.raises(CapExceeded, match="capped"):
        z_exact(inst, 1.0)


def test_scaled_real_round_trip():
    from bealloc import ScaledReal

    for log_value in (-700.0, -1.0, 0.0, 3.5, 1000.0):
        sr = ScaledReal.from_log(log_value)
        assert 1.0 <= sr.mantissa < math.e + 1e-12
        assert sr.log == pytest.approx(log_value, abs=1e-12)
