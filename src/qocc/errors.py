"""Exception types shared across the package."""


class QoccError(Exception):
    """Base class for all errors raised by this package."""


class ZeroDenominator(QoccError):
    """A count that serves as a denominator is zero."""


class InvalidCounts(QoccError):
    """Count-table values violate a structural invariant."""


class InconsistentRatios(QoccError):
    """Ratios and totals produce counts that violate table invariants."""


class DegenerateDenominator(QoccError):
    """A model denominator is too close to zero to evaluate."""


class UnreachableTarget(QoccError):
    """The requested probability lies outside the solvable bracket."""


class InvalidInput(QoccError):
    """An argument is outside the domain the operation is defined on."""
