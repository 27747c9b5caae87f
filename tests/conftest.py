"""Shared helpers: a seeded random-instance generator used across suites,
and a traced-memory probe."""

import tracemalloc
from fractions import Fraction

from bealloc import ProblemInstance, build_instance


def random_instance(rng, s_max: int = 50, n_max: int = 30) -> ProblemInstance:
    """A random feasible instance with an interior effective budget.

    Prices are cent-valued decimal strings, and the budget is placed at a
    random interior point of the attainable energy range, so solve_params is
    guaranteed to have a solution. Everything goes through the public string
    parsing path.
    """
    s = rng.randint(3, s_max)
    cents = [rng.randint(1, 10000) for _ in range(s)]
    prices = [f"{c // 100}.{c % 100:02d}" for c in cents]
    k = rng.randint(0, 3)
    n = rng.randint(1, n_max)

    lam = []
    acc = Fraction(0)
    for c in reversed(cents):
        acc += Fraction(c, 100)
        lam.append(acc)
    lam.reverse()

    low, high = n * lam[-1], n * lam[1]
    t = Fraction(rng.randint(5, 95), 100)
    phi = low + t * (high - low) + k * lam[0]
    return build_instance(prices, k, k + n, decimal_string(phi))


def decimal_string(value: Fraction, scale: int = 10**6) -> str:
    """Exact decimal rendering of a Fraction representable at the scale."""
    scaled = value * scale
    assert scaled.denominator == 1, f"{value} not representable at {scale}"
    scaled = int(scaled)
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    return f"{sign}{scaled // scale}.{scaled % scale:06d}"


def traced_peak(run):
    """(run(), bytes traced when it returns, peak bytes traced while it
    ran), with tracemalloc on for the call only."""
    tracemalloc.start()
    try:
        result = run()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, kept, peak
