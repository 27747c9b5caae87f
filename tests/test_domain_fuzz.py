"""Seeded domain fuzz of the public entry points.

Every public function with a beta, nu, sigma, epsilon or params parameter
is called at extreme values of those parameters, on small cent-priced
instances, on instances whose weights or energies sit at the edge of
float range and on a price at the 4300-digit limit of int(). The index l
is drawn from 2..s and the quadrature grid from GRIDS. Each call must
return finite fields or raise an AllocError, with warnings turned into
errors.
"""

import dataclasses
import inspect
import itertools
import math
import random
import warnings
from fractions import Fraction

import numpy as np

import bealloc
from bealloc import AllocError, ThermoParams, build_instance
from conftest import random_instance

FUZZED = {"beta", "nu", "sigma", "epsilon", "params"}
VALUES = [
    0.0, 1e-300, -1e-300, 0.5, -0.5, 1e306, -1e306, 3e307, 1e308, -1e308,
    math.inf, -math.inf, math.nan,
]
# the smallest grid, one that is not a power of two, and the default
GRIDS = [64, 1000, 4096]


def params(beta, sigma):
    return ThermoParams(beta, sigma, 0.0, 0.0)


def index(inst, rng):
    """An index l in 2..s."""
    return rng.randint(2, inst.size)


# One call per entry point, from an instance, a seeded random.Random for
# the index and the grid, and the values of its fuzzed scalars (params
# counts as beta and sigma).
ENTRY_POINTS = {
    "build_allocation":
        lambda inst, _, b, s: bealloc.build_allocation(inst, params(b, s)),
    "cumulative_stats": lambda inst, rng, b, s, e: bealloc.cumulative_stats(
        inst, params(b, s), index(inst, rng), e),
    "grand_partition":
        lambda inst, _, b, nu: bealloc.grand_partition(inst, b, nu),
    "low_energy_shell_weight":
        lambda inst, _, b, e: bealloc.low_energy_shell_weight(inst, b, e),
    "occupancy": lambda inst, _, b, s: bealloc.occupancy(b, s, 1.5),
    "predicted_cumulative": lambda inst, rng, b, s:
        bealloc.predicted_cumulative(inst, params(b, s), index(inst, rng)),
    "saddle_nu": lambda inst, _, b: bealloc.saddle_nu(inst, b),
    "solve_sigma": lambda inst, _, b: bealloc.solve_sigma(inst, b),
    "z_exact": lambda inst, _, b: bealloc.z_exact(inst, b),
    "z_integral": lambda inst, rng, b, nu:
        bealloc.z_integral(inst, b, nu, rng.choice(GRIDS)),
    "z_saddle": lambda inst, _, b: bealloc.z_saddle(inst, b),
}


def instances():
    rng = random.Random(21)
    yield from (random_instance(rng, s_max=6, n_max=4) for _ in range(3))
    # the occupancy pass's energy sum leaves float range at beta = 0
    yield build_instance(["1e305", "5e304", "1"], 0, 10**4, "1e308", scale=1)
    # a nu just below the pole at beta = 0 overflows the curvature
    yield build_instance(["1", "2", "3"], 0, 2, "8")
    # -nu * n leaves float range on the contour integral's log Z
    yield build_instance(["1e300", "5e299", "1"], 0, 50, "1e301", scale=1)
    # lambda_2 itself is past float range
    yield build_instance(["1e309", "1e309"], 0, 2, "3e309", scale=1)
    # offsets past float range in scaled units, within it in real ones
    yield build_instance(["1", "1e303", "2"], 0, 4, "2e303")
    # a price of 4300 nines, the longest text int() reads
    yield build_instance(["1", "9" * 4300, "2"], 0, 4, "20")


def finite(value) -> bool:
    """Whether every float in a result, field by field, is finite."""
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, np.ndarray):
        return bool(np.isfinite(value).all())
    if dataclasses.is_dataclass(value):
        return all(finite(getattr(value, f.name))
                   for f in dataclasses.fields(value))
    if isinstance(value, tuple):  # NamedTuple results and tuple fields
        return all(map(finite, value))
    return isinstance(value, (int, Fraction))


def fuzzed_arity(call) -> int:
    return len(inspect.signature(call).parameters) - 2


def test_fuzz_lists_every_public_entry_point():
    # classes such as ThermoParams only store their values and are left out
    found = {
        name for name in bealloc.__all__
        if inspect.isfunction(getattr(bealloc, name))
        and FUZZED & set(inspect.signature(getattr(bealloc, name)).parameters)
    }
    assert found == set(ENTRY_POINTS)
    for name, call in ENTRY_POINTS.items():
        fuzzed = FUZZED & set(inspect.signature(getattr(bealloc, name))
                              .parameters)
        assert fuzzed_arity(call) == len(fuzzed) + ("params" in fuzzed)


def test_entry_points_return_finite_values_or_typed_errors():
    # every pair of values for the first two fuzzed scalars, and a seeded
    # draw for a third
    rng = random.Random(2026)
    failures: dict[tuple[str, str], tuple] = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for inst in instances():
            for name, call in ENTRY_POINTS.items():
                arity = fuzzed_arity(call)
                for head in itertools.product(VALUES, repeat=min(arity, 2)):
                    args = (*head, *rng.choices(VALUES, k=arity - len(head)))
                    try:
                        ok = finite(call(inst, rng, *args))
                        failure = "non-finite result"
                    except AllocError:
                        ok = True
                    except Exception as exc:  # noqa: BLE001 (the fuzz's point)
                        ok, failure = False, type(exc).__name__
                    if not ok:
                        failures.setdefault((name, failure), (inst.n, args))
    assert failures == {}
