"""Exception hierarchy shared across the package.

Every error raised by the library derives from AllocError so callers can
catch one base. `cli._EXIT_CODES` maps them onto the CLI's exit codes.
"""


class AllocError(Exception):
    """Base class for all package errors."""


class InputError(AllocError):
    """Invalid or unparseable user input."""


class EmptyPrices(InputError):
    """The price schedule is empty."""


class TooFewEnterprises(EmptyPrices):
    """A schedule needs at least two entries to define any mode."""


class NonPositivePrice(InputError):
    """Prices must be strictly positive."""


class ScaleMismatch(InputError):
    """A decimal input is not an integer multiple of 1/scale."""


class BoundsInverted(InputError):
    """Lower share bound exceeds the upper share bound."""


class IndexRange(InputError):
    """A cumulative index l lies outside 2..s."""


class BudgetInfeasible(AllocError):
    """The budget falls outside the feasible spending window."""


class DegenerateBoundary(AllocError):
    """The effective budget sits on (or outside) the attainable energy range."""


class DomainError(AllocError):
    """An occupancy argument left the positive domain (pole crossed)."""


class NoConvergence(AllocError):
    """An iterative solve exhausted its budget without meeting tolerance."""


class RepairFailed(AllocError):
    """Integer rounding could not be repaired back under the budget."""


class CapExceeded(AllocError):
    """An enumeration would exceed the configured visit cap."""


class LowAcceptance(AllocError):
    """Rejection sampling accepted too small a fraction in the pilot run."""
