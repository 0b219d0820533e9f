"""Exception types shared across the package.

The CLI maps these onto its documented exit codes, so raising the right
class matters more than the message text.
"""


class Cp2ToriError(Exception):
    """Base class for all package-specific errors."""


class InfeasibleParameters(Cp2ToriError):
    """Moduli parameters violate the feasibility inequalities.

    Carries the evaluated diagnostics so callers can name the violated
    bound instead of just saying "no".
    """

    def __init__(self, message, *, p_value=None, discriminant=None, box=None):
        super().__init__(message)
        self.p_value = p_value
        self.discriminant = discriminant
        self.box = box


class DegenerateParameters(Cp2ToriError):
    """Parameters are on a degenerate locus (e.g. a vanishing root c2)."""


class SingularIntegrand(DegenerateParameters):
    """A phase-integral denominator gets too close to zero on the path."""


class IntervalDomainError(Cp2ToriError):
    """An interval operation was asked to leave its domain (sqrt of a
    negative interval, ...)."""
