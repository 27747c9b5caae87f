"""Restricted partition sums and their saddle-point approximation.

Z(beta, N) sums exp(-beta * energy) over all compositions of N units on the
modes 2..s (no budget cut). The exact value comes from the one-dimensional
recurrence

    Z_i(n) = Z_{i-1}(n) + exp(-beta*lambda_i) * Z_i(n-1),

run in log space so nothing ever over- or underflows. The grand sum
zeta(beta, nu) = prod_j (1 - exp(nu - beta*lambda_j))^(-q_j) ties Z to the
occupancy solver: the saddle point nu* satisfies the same equation as the
count constraint sigma, and the Gaussian approximation around it gives

    Z ~ exp(-nu*N) * zeta(beta, nu*) / sqrt(2*pi * d2),

with d2 the second nu-derivative of log zeta. A trapezoid quadrature of the
exact contour integral over [-pi, pi] provides an independent cross-check
that converges spectrally in the grid size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CapExceeded, DomainError, InputError
from .model import ProblemInstance
from .solver import mode_offsets, occupancy_sums, solve_sigma

DP_MAX_UNITS = 10**4
DP_MAX_MODES = 10**3
MIN_GRID = 64


class ScaledReal(NamedTuple):
    """value = mantissa * exp(exponent); keeps huge and tiny values exact."""

    mantissa: float
    exponent: int

    @classmethod
    def from_log(cls, log_value: float) -> "ScaledReal":
        k = math.floor(log_value)
        return cls(math.exp(log_value - k), k)

    @property
    def log(self) -> float:
        if self.mantissa <= 0:
            raise DomainError("log of a nonpositive scaled value")
        return math.log(self.mantissa) + self.exponent


@dataclass(frozen=True)
class GrandPartition:
    """log zeta and its first two nu-derivatives at one (beta, nu)."""

    beta: float
    nu: float
    log_value: float
    dlog_dnu: float
    d2log_dnu2: float


@dataclass(frozen=True)
class PartitionEstimate:
    """Exact and saddle-point values side by side."""

    z_exact: ScaledReal
    z_saddle: ScaledReal
    ratio: float
    nu_star: float


def _expanded_float_modes(instance: ProblemInstance) -> list[float]:
    out: list[float] = []
    for w, g in zip(instance.mode_weights, instance.degeneracies):
        out.extend([float(w)] * g)
    return out


def _logaddexp(a: float, b: float) -> float:
    if a < b:
        a, b = b, a
    if b == -math.inf:
        return a
    return a + math.log1p(math.exp(b - a))


def z_exact(instance: ProblemInstance, beta: float) -> ScaledReal:
    """Exact restricted partition sum over all compositions of n units."""
    lams = _expanded_float_modes(instance)
    n = instance.n
    if n > DP_MAX_UNITS or len(lams) > DP_MAX_MODES:
        raise CapExceeded(
            f"partition recurrence capped at {DP_MAX_UNITS} units / "
            f"{DP_MAX_MODES} modes, got {n} / {len(lams)}"
        )
    log_z = [0.0] + [-math.inf] * n
    for lam in lams:
        lw = -beta * lam
        for i in range(1, n + 1):
            log_z[i] = _logaddexp(log_z[i], lw + log_z[i - 1])
    return ScaledReal.from_log(log_z[n])


def grand_partition(
    instance: ProblemInstance, beta: float, nu: float
) -> GrandPartition:
    """log zeta(beta, nu) with its first two nu-derivatives.

    Requires nu < beta*lambda_j for every mode. The summands are the
    mode occupancies: dlog = sum q*occ, d2log = sum q*occ*(occ+1). One pass
    of the solver's occupancy kernel in pole-offset coordinates.
    """
    modes = mode_offsets(instance, beta)
    sums = occupancy_sums(modes, beta, modes.x0(beta, nu))
    return GrandPartition(beta, nu, sums.log_zeta, sums.count, sums.curvature)


def saddle_nu(instance: ProblemInstance, beta: float) -> float:
    """Saddle point of the contour integral: same equation as the count
    constraint, so this delegates to the occupancy sigma solve (a Newton
    iteration in the pole offset at fixed beta)."""
    return solve_sigma(instance, beta)


def z_saddle(instance: ProblemInstance, beta: float) -> PartitionEstimate:
    """Gaussian saddle-point estimate next to the exact recurrence value."""
    nu = saddle_nu(instance, beta)
    gp = grand_partition(instance, beta, nu)
    log_zs = -nu * instance.n + gp.log_value - 0.5 * math.log(
        2.0 * math.pi * gp.d2log_dnu2
    )
    zx = z_exact(instance, beta)
    return PartitionEstimate(
        z_exact=zx,
        z_saddle=ScaledReal.from_log(log_zs),
        ratio=math.exp(zx.log - log_zs),
        nu_star=nu,
    )


def z_integral(
    instance: ProblemInstance, beta: float, nu: float, grid: int = 4096
) -> ScaledReal:
    """Trapezoid quadrature of the exact contour integral

        Z = exp(-nu*N)/(2*pi) * integral_{-pi}^{pi}
            exp(-i*N*alpha) * zeta(beta, nu + i*alpha) d(alpha).

    The integrand is smooth and periodic, so the uniform-grid sum converges
    spectrally; grid must be at least 64.
    """
    if grid < MIN_GRID:
        raise InputError(f"grid must be >= {MIN_GRID}, got {grid}")
    lams = np.array(_expanded_float_modes(instance))
    x = beta * lams - nu
    if x.min() <= 0:
        raise DomainError(
            f"nu = {nu} not below the pole at {float((beta * lams).min())}"
        )
    n = instance.n
    alphas = -math.pi + (2.0 * math.pi / grid) * np.arange(grid)
    t = np.exp(-x)[:, None] * np.exp(1j * alphas)[None, :]
    log_zeta = -np.sum(np.log(1.0 - t), axis=0)
    log_integrand = log_zeta - 1j * n * alphas
    shift = float(log_integrand.real.max())
    total = complex(np.exp(log_integrand - shift).sum())
    value = total.real / grid
    if value <= 0:
        raise DomainError(
            f"quadrature collapsed to a nonpositive value ({value:.3e}); "
            "increase the grid"
        )
    return ScaledReal.from_log(math.log(value) + shift - nu * n)
