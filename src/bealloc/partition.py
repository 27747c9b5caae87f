"""Restricted partition sums and their saddle-point approximation.

Z(beta, N) sums exp(-beta * energy) over all compositions of N units on the
modes 2..s (no budget cut). The exact value comes from the one-dimensional
recurrence

    Z_i(k) = Z_{i-1}(k) + exp(-beta*lambda_i) * Z_i(k-1).

The pole weight exp(-beta*lambda_p) of the solver's pole mode is factored
out of every unit, Z(N) = exp(-beta*lambda_p*N) * z(N), which leaves each
mode the ratio r = exp(-beta*d) <= 1, d = lambda_i - lambda_p exact from the
scaled integer weights. Each mode's update is then a geometric prefix sum,

    z_i(k) = r^k * sum_{j<=k} r^(-j) * z_{i-1}(j),

one cumulative log-add-exp over the units per mode, in log space so
nothing ever over- or underflows. That recurrence, from the unit row
[0, -inf, ...] of the empty product, is `geometric_prefix_sums`; the
oracle's shell weight runs the same generator for its table of complete
homogeneous polynomials.

The recurrence and the contour product skip every mode with
beta*d >= NEGLIGIBLE_LOG_RATIO = 70*log(2), whose ratio r <= 2^-70 is below
double resolution (`resolved_tilts`). The pole mode (d = 0) is always kept,
so z(k) is nondecreasing in k, and a skipped mode then scales z(k) by a
factor in [1, 1/(1 - r)]: with at most DP_MAX_MODES modes, log Z moves by
less than 1000 * 2^-70 < 1e-18. The cap check still counts every mode, and
the grand sum below runs over all of them.

The grand sum zeta(beta, nu) = prod_j (1 - exp(nu - beta*lambda_j))^(-1)
ties Z to the occupancy solver: the saddle point nu* satisfies the same
equation as the count constraint sigma, and the Gaussian approximation
around it gives

    Z ~ exp(-nu*N) * zeta(beta, nu*) / sqrt(2*pi * d2),

with d2 the second nu-derivative of log zeta. A trapezoid quadrature of the
exact contour integral over [-pi, pi] provides an independent cross-check
that converges spectrally in the grid size; its integrand is a blocked,
rescaled product with one logarithm per grid point (see `z_integral`).
Each of the three returns log Z as a float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

from .errors import CapExceeded, DomainError, InputError
from .model import ProblemInstance
from .solver import OccupancySums, mode_offsets, occupancy_sums, solve_sigma

DP_MAX_UNITS = 10**4
DP_MAX_MODES = 10**3
MIN_GRID = 64
# Modes per block of the contour product. Each factor
# 1 - r*exp(i*alpha) has modulus in [1 - r, 2), and 1 - r >= 2^-53 for any
# double r < 1, so a block's product lies within [2^-848, 2^16] and a
# rescaled mantissa times it stays a normal float.
BLOCK_MODES = 16
# A mode with beta*d at or above this has r = exp(-beta*d) <= 2^-70 and
# cannot move log Z by one bit (see the module docstring).
NEGLIGIBLE_LOG_RATIO = 70.0 * math.log(2.0)


@dataclass(frozen=True)
class PartitionEstimate:
    """Exact and saddle-point log Z side by side."""

    log_z_exact: float
    log_z_saddle: float
    ratio: float
    nu_star: float


def _check_caps(n: int, m: int) -> None:
    if n > DP_MAX_UNITS or m > DP_MAX_MODES:
        raise CapExceeded(
            f"partition recurrence capped at {DP_MAX_UNITS} units / "
            f"{DP_MAX_MODES} modes, got {n} / {m}"
        )


def resolved_tilts(instance: ProblemInstance, beta: float) -> np.ndarray:
    """beta*d of every mode below NEGLIGIBLE_LOG_RATIO, in mode order.

    d is the offset from the pole mode of beta's sign, so every entry is
    >= 0 and the pole mode's 0 is always among them.
    """
    tilts = beta * mode_offsets(instance, beta).d
    return tilts[tilts < NEGLIGIBLE_LOG_RATIO]


def geometric_prefix_sums(
    units: int, log_ratios: Iterable[float]
) -> Iterator[np.ndarray]:
    """Yield log z(k), k = 0..units, after each mode's update.

    z starts as the unit row (z(0) = 1, else 0), and a mode of log ratio
    a = log r replaces it by z'(k) = sum_{j<=k} r^(k-j) * z(j), one
    cumulative log-add-exp: log z' = k*a + logaddexp.accumulate(log z - k*a).
    Each yielded row is a new array.
    """
    k = np.arange(units + 1, dtype=float)
    log_z = np.full(k.size, -np.inf)
    log_z[0] = 0.0
    for log_r in log_ratios:
        tilt = k * log_r
        log_z = tilt + np.logaddexp.accumulate(log_z - tilt)
        yield log_z


def z_profile(
    instance: ProblemInstance, beta: float, n_max: int
) -> np.ndarray:
    """log z(k) for k = 0..min(n_max, DP_MAX_UNITS), pole weight factored out.

    The recurrence runs over the units in order and each cumulative
    log-add-exp is sequential, so entry k depends only on the modes, beta
    and k: a longer profile starts with every shorter one, bit for bit.
    Only instance's modes matter, not its n, and only those that
    `resolved_tilts` keeps. Raises CapExceeded past DP_MAX_MODES modes,
    counting every mode, and InputError for a negative n_max.
    """
    if n_max < 0:
        raise InputError(f"profile length n_max must be >= 0, got {n_max}")
    units = min(n_max, DP_MAX_UNITS)
    _check_caps(units, instance.size - 1)
    # log r = -beta*d <= 0 per mode; the pole energy beta*lambda_p*n is
    # added by z_exact, so the prefix sums carry only the offsets. The pole
    # mode is always resolved, so there is at least one row.
    for log_z in geometric_prefix_sums(units, -resolved_tilts(instance, beta)):
        pass  # only the row after the last mode is kept
    return log_z


def z_exact(
    instance: ProblemInstance,
    beta: float,
    profile: Optional[np.ndarray] = None,
) -> float:
    """log Z of the exact restricted sum over all compositions of n units.

    profile, if given, is a `z_profile` of the same modes at the same beta
    that reaches n; its entry n is read instead of rerunning the recurrence.
    A shorter profile raises InputError.
    """
    n = instance.n
    _check_caps(n, instance.size - 1)
    if profile is None:
        profile = z_profile(instance, beta, n)
    elif profile.size <= n:
        raise InputError(f"profile stops at k = {profile.size - 1} < n = {n}")
    pole = mode_offsets(instance, beta).pole
    return float(profile[n]) - beta * float(pole) * n


def grand_partition(
    instance: ProblemInstance, beta: float, nu: float
) -> OccupancySums:
    """The solver's occupancy pass at (beta, nu < beta*lambda_j for all j).

    log_zeta is log zeta(beta, nu); count = sum occ and curvature =
    sum occ*(occ+1) are its first two nu-derivatives. Sums past float
    range raise DomainError.
    """
    modes = mode_offsets(instance, beta)
    sums = occupancy_sums(modes, beta, modes.x0(beta, nu))
    if not all(map(math.isfinite, sums)):
        raise DomainError(f"occupancy sums at nu = {nu} exceed float range")
    return sums


def saddle_nu(instance: ProblemInstance, beta: float) -> float:
    """Saddle point of the contour integral: same equation as the count
    constraint, so this delegates to the occupancy sigma solve (a Newton
    iteration in the pole offset at fixed beta)."""
    return solve_sigma(instance, beta)


def z_saddle(
    instance: ProblemInstance,
    beta: float,
    profile: Optional[np.ndarray] = None,
) -> PartitionEstimate:
    """Gaussian saddle-point log Z next to the exact recurrence value;
    profile is passed on to `z_exact`."""
    nu = saddle_nu(instance, beta)
    # not grand_partition: its check of the spread does not concern log Z
    modes = mode_offsets(instance, beta)
    sums = occupancy_sums(modes, beta, modes.x0(beta, nu))
    log_zs = (-nu * instance.n + sums.log_zeta
              - 0.5 * math.log(2.0 * math.pi * sums.curvature))
    log_zx = z_exact(instance, beta, profile)
    return PartitionEstimate(log_zx, log_zs, math.exp(log_zx - log_zs), nu)


def check_grid(grid: int) -> None:
    """Reject a quadrature grid below MIN_GRID points."""
    if grid < MIN_GRID:
        raise InputError(f"grid must be >= {MIN_GRID}, got {grid}")


def _contour_product(
    r: np.ndarray, turn: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """prod_j (1 - r_j*turn) at every grid point, as mantissa * 2^exponent.

    Multiplies the factors in blocks of BLOCK_MODES rows and rescales the
    mantissa to modulus [0.5, 1) after every block, so no step leaves float
    range and only BLOCK_MODES x grid factors are held at once. The ratios
    are cast to complex once, exactly: each block's outer product is then
    numpy's complex loop, the one a float x complex product runs after a
    buffered cast of every block, so the bits are the same.
    """
    mantissa = np.ones(turn.shape, dtype=complex)
    exponent = np.zeros(turn.shape, dtype=np.int64)
    block = np.empty((BLOCK_MODES, turn.size), dtype=complex)
    ratios = r.astype(complex)
    for start in range(0, r.size, BLOCK_MODES):
        chunk = ratios[start : start + BLOCK_MODES]
        factors = block[: chunk.size]
        np.multiply.outer(chunk, turn, out=factors)
        np.subtract(1.0, factors, out=factors)
        mantissa *= np.multiply.reduce(factors, axis=0)
        _, power = np.frexp(np.abs(mantissa))
        mantissa *= np.ldexp(1.0, -power)
        exponent += power
    return mantissa, exponent


def z_integral(
    instance: ProblemInstance, beta: float, nu: float, grid: int = 4096
) -> float:
    """log Z by trapezoid quadrature of the exact contour integral

        Z = exp(-nu*N)/(2*pi) * integral_{-pi}^{pi}
            exp(-i*N*alpha) * zeta(beta, nu + i*alpha) d(alpha).

    The integrand is smooth and periodic, so the uniform-grid sum converges
    spectrally; grid must be at least 64. zeta = 1/P with
    P = prod_j (1 - r_j*exp(i*alpha)) and r_j = exp(-x_j) < 1, one ratio
    per mode that `resolved_tilts` keeps. With P the blocked, rescaled
    product of `_contour_product`, the integrand is
    exp(-log|P| - shift) * (|P|/P) * exp(-i*N*alpha), with shift the
    largest -log|P|: one logarithm per grid point, none per mode.
    """
    check_grid(grid)
    x0 = mode_offsets(instance, beta).x0(beta, nu)
    r = np.exp(-(resolved_tilts(instance, beta) + x0))
    if not r.max() < 1.0:
        raise DomainError(f"nu = {nu} is within float resolution of a pole")
    n = instance.n
    alphas = -math.pi + (2.0 * math.pi / grid) * np.arange(grid)
    mantissa, exponent = _contour_product(r, np.exp(1j * alphas))
    modulus = np.abs(mantissa)
    log_zeta = -(np.log(modulus) + math.log(2.0) * exponent)
    shift = float(log_zeta.max())
    integrand = (
        np.exp(log_zeta - shift) * (modulus / mantissa)
        * np.exp(-1j * n * alphas)
    )
    value = float(integrand.real.sum()) / grid
    if value <= 0:
        raise DomainError(
            f"quadrature collapsed to a nonpositive value ({value:.3e}); "
            "increase the grid"
        )
    log_z = math.log(value) + shift - nu * n
    if not math.isfinite(log_z):
        raise DomainError(f"log Z at nu = {nu} exceeds float range")
    return log_z
