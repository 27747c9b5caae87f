"""Seeded domain fuzz of the public entry points.

Every public function with a beta, nu, sigma, epsilon or params parameter
is called at extreme values of those parameters, on small cent-priced
instances and on instances whose weights or energies sit at the edge of
float range. Each call must return finite fields or raise an AllocError,
with warnings turned into errors.
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


def params(beta, sigma):
    return ThermoParams(beta, sigma, 0.0, 0.0)


# One call per entry point, from an instance and the values of its fuzzed
# scalars (params counts as beta and sigma).
ENTRY_POINTS = {
    "build_allocation":
        lambda inst, b, s: bealloc.build_allocation(inst, params(b, s)),
    "cumulative_stats": lambda inst, b, s, e: bealloc.cumulative_stats(
        inst, params(b, s), 2, e),
    "grand_partition":
        lambda inst, b, nu: bealloc.grand_partition(inst, b, nu),
    "low_energy_shell_weight":
        lambda inst, b, e: bealloc.low_energy_shell_weight(inst, b, e),
    "occupancy": lambda inst, b, s: bealloc.occupancy(b, s, 1.5),
    "predicted_cumulative":
        lambda inst, b, s: bealloc.predicted_cumulative(inst, params(b, s), 2),
    "saddle_nu": lambda inst, b: bealloc.saddle_nu(inst, b),
    "solve_sigma": lambda inst, b: bealloc.solve_sigma(inst, b),
    "z_exact": lambda inst, b: bealloc.z_exact(inst, b),
    "z_integral": lambda inst, b, nu: bealloc.z_integral(inst, b, nu, 64),
    "z_saddle": lambda inst, b: bealloc.z_saddle(inst, b),
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
    return len(inspect.signature(call).parameters) - 1


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
                        ok = finite(call(inst, *args))
                        failure = "non-finite result"
                    except AllocError:
                        ok = True
                    except Exception as exc:  # noqa: BLE001 (the fuzz's point)
                        ok, failure = False, type(exc).__name__
                    if not ok:
                        failures.setdefault((name, failure), (inst.n, args))
    assert failures == {}
