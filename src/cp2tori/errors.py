"""Exception types shared across the package.

The CLI maps these onto its documented exit codes, so raising the right
class matters more than the message text.
"""


class Cp2ToriError(Exception):
    """Base class for all package-specific errors."""


class InfeasibleParameters(Cp2ToriError):
    """Moduli parameters violate the feasibility inequalities; the message
    names the evaluated diagnostics, so that it says which bound fails."""


class DegenerateParameters(Cp2ToriError):
    """Parameters are on a degenerate locus (e.g. a vanishing root c2)."""


class SingularIntegrand(DegenerateParameters):
    """A phase-integral denominator gets too close to zero on the path."""


class IntervalDomainError(Cp2ToriError):
    """An interval operation was asked to leave its domain (sqrt of a
    negative interval, ...)."""
