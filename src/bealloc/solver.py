"""Occupancy solver: fit (beta, sigma) so the mode occupancies

    n_j = 1 / (exp(beta*lambda_j - sigma) - 1),   j = 2..s,

meet the two constraints sum_j n_j = N (units placed) and
sum_j lambda_j*n_j = E (effective budget spent). The fit is the
minimum of the strictly convex max-entropy dual

    F(beta, nu) = log zeta(beta, nu) + beta*E - nu*N,
    log zeta = -sum_j log(1 - exp(nu - beta*lambda_j)),

at nu = sigma; its gradient is (E - energy sum, count sum - N). One damped
Newton iteration minimizes it, backtracking on F.

The iteration works in pole-offset coordinates. The pole mode p has the
smallest beta*lambda_j: lambda_s when beta > 0, lambda_2 when beta < 0.
With x0 = beta*lambda_p - nu every mode argument is

    x_j = beta*d_j + x0,   d_j = lambda_j - lambda_p,   beta*d_j >= 0,

so the domain is just x0 > 0 with beta kept on its side of 0, and in
(beta, x0) the Hessian of F is the occupancy covariance
sum_j n_j*(n_j+1) * [d_j^2, d_j; d_j, 1]. The differences d_j come
exactly from the scaled integer weights, and x0 keeps full relative
precision however close sigma sits to the pole, where an absolute sigma
has only ulp(beta*lambda_p) of resolution. The sign of beta, and with it
the pole, is fixed beforehand by an exact comparison of E with the uniform
(beta = 0) mean energy N*sum(lambda)/Q over the Q = s - 1 modes; at
equality beta = 0 and sigma = -log(1 + Q/N) in closed form. The fixed-beta
count solve (solve_sigma) is the one-dimensional Newton iteration in x0 on
the same occupancy kernel, which the partition layer shares too.

Rounded integer increments come from largest-remainder apportionment with a
greedy budget repair that pushes units from the leftmost occupied mode to
its cheaper neighbour, a whole stack at a time.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateBoundary,
    DomainError,
    IndexRange,
    NoConvergence,
    RepairFailed,
)
from .model import ProblemInstance, energy_range

MAX_ITERATIONS = 200
SPEC_TOL = 1e-9        # contract tolerance, relative to max(1, target)
TARGET_TOL = 1e-12     # internal goal before falling back to SPEC_TOL
ARMIJO = 0.25          # sufficient-decrease fraction of the Newton slope
MIN_STEP = 2.0**-64    # smallest damped step before the iteration stalls
# Below NOISE times the size of F's terms, a change of F is rounding; full
# Newton steps are taken there, and STALL_STEPS of them without a better
# residual end the iteration.
NOISE = 1e-13
STALL_STEPS = 4


@dataclass(frozen=True)
class ThermoParams:
    """Solved multipliers with the residuals actually achieved."""

    beta: float
    sigma: float
    residual_n: float
    residual_e: float


@dataclass(frozen=True)
class Allocation:
    """Integer share counts with their occupancy provenance.

    occupancies are the real mode occupancies n_2..n_s; counts are the
    monotone share counts C_1..C_s after rounding and repair. spend and
    budget_residual are exact rationals; rounding_shift counts the units the
    budget repair moved.
    """

    occupancies: tuple[float, ...]
    counts: tuple[int, ...]
    spend: Fraction
    budget_residual: Fraction
    rounding_shift: int


def occupancy(beta: float, sigma: float, lam: float) -> float:
    """Single-mode occupancy 1/(exp(beta*lam - sigma) - 1).

    Requires beta*lam - sigma > 0; the form exp(-x)/(1 - exp(-x)) is stable
    for both tiny and huge arguments.
    """
    x = beta * lam - sigma
    if x <= 0:
        raise DomainError(
            f"occupancy argument beta*lam - sigma = {x} must be positive"
        )
    w = math.exp(-x)
    return w / -math.expm1(-x)


class ModeOffsets(NamedTuple):
    """Modes as exact offsets d_j = lambda_j - lambda_p from a pole mode."""

    d: np.ndarray
    pole: Fraction

    def x0(self, beta: float, sigma: float) -> float:
        """Pole offset beta*lambda_p - sigma of an absolute sigma (nu)."""
        pole = beta * float(self.pole)
        if not pole - sigma > 0:
            raise DomainError(
                f"sigma (nu) = {sigma} is not below the pole "
                f"beta*lambda = {pole}"
            )
        return pole - sigma


class OccupancySums(NamedTuple):
    """One pass over the modes at (beta, x0); n_j are the occupancies."""

    count: float       # sum n
    energy: float      # sum d*n, the energy above N*lambda_p at the count
    curvature: float   # sum w, w = n*(n+1)
    mean_d: float      # sum w*d / sum w
    spread: float      # sum w*(d - mean_d)^2
    log_zeta: float    # -sum log(1 - exp(-x)) = sum log(1 + n)


def mode_offsets(instance: ProblemInstance, beta: float) -> ModeOffsets:
    """Offsets from the pole mode of a beta of this sign (lambda_2 for
    beta < 0, else lambda_s), so that x_j >= x0 on every mode.

    Built once per instance and pole side; d is read-only.
    """
    memo = instance._offsets_memo
    side = beta < 0
    if side not in memo:
        scaled = instance.mode_weights_scaled()
        p = 0 if side else len(scaled) - 1
        d = np.array(list(map(operator.sub, scaled, repeat(scaled[p]))), float)
        d /= instance.scale
        d.flags.writeable = False
        memo[side] = ModeOffsets(d, Fraction(scaled[p], instance.scale))
    return memo[side]


def mode_occupancies(modes: ModeOffsets, beta: float, x0: float) -> np.ndarray:
    """n_j = 1/(exp(x_j) - 1) at x_j = beta*d_j + x0."""
    x = beta * modes.d + x0
    return np.exp(-x) / -np.expm1(-x)


def occupancy_sums(modes: ModeOffsets, beta: float, x0: float) -> OccupancySums:
    """Count, energy, curvature and log zeta of one occupancy pass.

    Requires x0 > 0 with beta on the side of 0 the pole was chosen for.
    Trial points next to the pole may overflow the curvature to inf; the
    dual value is then inf too, and the line search rejects the point.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        occ = mode_occupancies(modes, beta, x0)
        w = occ * (occ + 1.0)
        curvature = float(w.sum())
        mean_d = float(w @ modes.d) / curvature if curvature > 0 else 0.0
        spread = float(w @ np.square(modes.d - mean_d))
        # -log(1 - exp(-x)) = log(1 + n), accurate for small and large n
        log_zeta = float(np.log1p(occ).sum())
    return OccupancySums(
        float(occ.sum()), float(occ @ modes.d), curvature, mean_d, spread,
        log_zeta,
    )


def solve_offset(modes: ModeOffsets, n: int, beta: float) -> float:
    """Pole offset x0 with count sum = n at fixed beta.

    The count sum is convex and strictly decreasing in x0, so Newton steps
    started left of the root approach it monotonically from the left with
    no damping. At x0 = log(1 + 1/n) the pole mode alone holds n units,
    which puts the start left of the root.
    """
    target = TARGET_TOL * max(1.0, float(n))
    spec = SPEC_TOL * max(1.0, float(n))
    x0 = math.log1p(1.0 / n)
    best = (math.inf, x0, 0.0)
    for _ in range(MAX_ITERATIONS):
        sums = occupancy_sums(modes, beta, x0)
        r = sums.count - n
        if abs(r) >= best[0]:
            break  # rounding level: the residual no longer shrinks
        best = (abs(r), x0, r)
        if abs(r) <= target:
            return x0
        step = x0 + r / sums.curvature
        if step == x0 or step <= 0:
            break
        x0 = step
    if best[0] <= spec:
        return best[1]
    raise NoConvergence(
        f"sigma Newton residual {best[2]:.3e} above tolerance {spec:.3e}"
    )


def solve_sigma(instance: ProblemInstance, beta: float) -> float:
    """Solve sum_j n_j(beta, sigma) = n for sigma at fixed beta."""
    if instance.n == 0:
        raise DegenerateBoundary("sigma solve needs at least one increment")
    modes = mode_offsets(instance, beta)
    return beta * float(modes.pole) - solve_offset(modes, instance.n, beta)


def solve_params(instance: ProblemInstance) -> ThermoParams:
    """(beta, sigma) meeting both count and energy constraints.

    Requires E strictly inside the attainable energy range; boundary or
    empty instances raise DegenerateBoundary (callers should fall back to a
    boundary allocation with all increments at one mode).
    """
    n = instance.n
    if n == 0:
        raise DegenerateBoundary("no increments to place (K = M)")
    if not instance.interior:
        low, high = energy_range(instance)
        raise DegenerateBoundary(
            f"effective budget {instance.effective_budget} not strictly "
            f"inside the attainable energy range ({low}, {high}); no "
            f"interior solution exists"
        )

    scaled = instance.mode_weights_scaled()
    e_scaled = instance.effective_budget_scaled()
    scale = instance.scale
    # E*Q against N*sum(lambda): beta > 0 below the uniform mean energy.
    mean_gap = n * sum(scaled) - e_scaled * len(scaled)
    sign = (mean_gap > 0) - (mean_gap < 0)
    modes = mode_offsets(instance, sign)
    lam_p = float(modes.pole)
    e_shift = float(Fraction(e_scaled, scale) - n * modes.pole)
    n_scale = max(1.0, float(n))
    e_scale = max(1.0, abs(e_scaled / scale))

    beta, x0 = 0.0, math.log1p(len(scaled) / n)
    sums = occupancy_sums(modes, beta, x0)
    dual = sums.log_zeta + x0 * n
    best = (math.inf, beta, x0, 0.0, 0.0)
    stalled = 0
    for _ in range(MAX_ITERATIONS):
        r_n = sums.count - n
        r_e = (sums.energy - e_shift) + lam_p * r_n
        err = max(abs(r_n) / n_scale, abs(r_e) / e_scale)
        if err < best[0]:
            best, stalled = (err, beta, x0, r_n, r_e), 0
        if err <= TARGET_TOL or sign == 0 or not sums.spread > 0:
            break

        # Newton step on F(beta, x0) = log zeta + beta*E' + x0*N, the
        # Hessian eliminated through the curvature-weighted mean of d.
        g_beta, g_x = e_shift - sums.energy, n - sums.count
        d_beta = (sums.mean_d * g_x - g_beta) / sums.spread
        d_x = -g_x / sums.curvature - sums.mean_d * d_beta
        slope = g_beta * d_beta + g_x * d_x
        noisy = -slope <= NOISE * (
            abs(sums.log_zeta) + abs(beta * e_shift) + x0 * n
        )
        if noisy:
            stalled += 1
            if stalled > STALL_STEPS:
                break
        t = 1.0
        while t >= MIN_STEP:
            b_t, x_t = beta + t * d_beta, x0 + t * d_x
            if sign * b_t > 0 and x_t > 0:
                sums_t = occupancy_sums(modes, b_t, x_t)
                dual_t = sums_t.log_zeta + b_t * e_shift + x_t * n
                if noisy or dual_t <= dual + ARMIJO * t * slope:
                    break
            t *= 0.5
        else:
            break  # no damped step lowers F any more
        if (b_t, x_t) == (beta, x0):
            break
        beta, x0, sums, dual = b_t, x_t, sums_t, dual_t

    err, beta, x0, r_n, r_e = best
    if err > SPEC_TOL:
        raise NoConvergence(
            f"dual Newton residual {err:.3e} above tolerance {SPEC_TOL:.0e}"
        )
    return ThermoParams(beta, beta * lam_p - x0, r_n, r_e)


def check_index(instance: ProblemInstance, l: int) -> None:
    """Raise IndexRange unless the cumulative index l lies in 2..s."""
    s = instance.size
    if l < 2 or l > s:
        raise IndexRange(f"l = {l} outside 2..{s}")


def predicted_cumulative(
    instance: ProblemInstance, params: ThermoParams, l: int
) -> float:
    """Occupancy prediction for the cumulative increment sum over modes 2..l."""
    check_index(instance, l)
    modes = mode_offsets(instance, params.beta)
    x0 = modes.x0(params.beta, params.sigma)
    occ = mode_occupancies(modes, params.beta, x0)
    return float(occ[: l - 1].sum())


def largest_remainder(occ: np.ndarray, n: int) -> list[int]:
    """Apportion n units over the occupancies by largest remainder.

    Every mode gets the floor of its occupancy, and the units still missing
    go one each to the largest fractional parts, ties toward the larger
    mode index.
    """
    values = occ.tolist()
    parts = list(map(math.floor, values))
    missing = n - sum(parts)
    if missing < 0 or missing > len(parts):
        raise RepairFailed(
            f"occupancies sum to {sum(values):.6f}, cannot apportion {n}"
        )
    # ascending floor - occupancy is descending fractional part, and the
    # stable sort of the reversed indices breaks its ties toward the larger
    # index (a C-level key; numpy's sorts would fault in their code pages)
    keys = list(map(operator.sub, parts, values))
    order = sorted(reversed(range(len(parts))), key=keys.__getitem__)
    for j in order[:missing]:
        parts[j] += 1
    return parts


def build_allocation(
    instance: ProblemInstance, params: ThermoParams
) -> Allocation:
    """Round occupancies to integer counts and repair any budget overshoot.

    Largest-remainder apportionment: floor every occupancy, then hand the
    missing units to the largest fractional parts (ties toward the larger
    mode index, i.e. the cheaper tail). If rounding overspends, units move
    from the leftmost occupied mode to its cheaper neighbour until spending
    fits; each unit moved lowers spending by exactly one price. The moves
    from one mode are taken as one stack, so the repair costs O(s), not
    O(moves * s).
    """
    s = instance.size
    scale = instance.scale
    k = instance.bounds.min_shares
    phi_scaled = instance.bounds.budget_numerator
    lam1_scaled = instance.weights.numerators[0]
    if instance.n == 0:
        spend_scaled = k * lam1_scaled
        return Allocation(
            occupancies=(0.0,) * (s - 1),
            counts=(k,) * s,
            spend=Fraction(spend_scaled, scale),
            budget_residual=Fraction(phi_scaled - spend_scaled, scale),
            rounding_shift=0,
        )

    lam_scaled = instance.mode_weights_scaled()
    modes = mode_offsets(instance, params.beta)
    x0 = modes.x0(params.beta, params.sigma)
    occ = mode_occupancies(modes, params.beta, x0)
    parts = largest_remainder(occ, instance.n)
    m = len(parts)

    prices_scaled = instance.schedule.numerators
    spend_scaled = k * lam1_scaled + sum(map(operator.mul, parts, lam_scaled))
    shift = 0
    j = 0  # leftmost occupied mode; modes left of it stay empty
    while spend_scaled > phi_scaled:
        while j < m - 1 and parts[j] == 0:
            j += 1
        if j == m - 1:
            raise RepairFailed(
                "all increments already at the cheapest mode but spending "
                f"{Fraction(spend_scaled, scale)} still exceeds "
                f"{instance.bounds.budget}"
            )
        # parts[j] belongs to enterprise j+2; each unit moved saves its price
        price = prices_scaled[j + 1]
        moved = min(parts[j], -(-(spend_scaled - phi_scaled) // price))
        parts[j] -= moved
        parts[j + 1] += moved
        spend_scaled -= moved * price
        shift += moved

    counts = tuple(accumulate(parts, initial=k))
    assert counts[-1] == instance.bounds.max_shares
    return Allocation(
        occupancies=tuple(occ.tolist()),
        counts=counts,
        spend=Fraction(spend_scaled, scale),
        budget_residual=Fraction(phi_scaled - spend_scaled, scale),
        rounding_shift=shift,
    )
