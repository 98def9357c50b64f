"""Exception types shared across the package.

Bad input raises ValueError (ParseError for a malformed matrix file), and
the CLI exits 2; numerical trouble raises AbelergError, and it exits 3.
"""


class AbelergError(Exception):
    """Base class of the numerical failures raised by this package."""


class SingularMatrix(AbelergError):
    """A pivoted factorization met a pivot below the singularity threshold."""


class NoConvergence(AbelergError):
    """A LAPACK routine failed: an iteration did not converge, or a
    factorization broke down."""


class ResolventPole(AbelergError):
    """A resolvent or the spectral map was evaluated at or near a pole."""


class DecompositionFails(AbelergError):
    """Kernel and image of I - T do not span the space as a direct sum."""


class IntegralDiverges(AbelergError):
    """The improper semigroup integral diverges for the given decay rate."""


class QuadratureUnstable(AbelergError):
    """Two quadrature resolutions disagree beyond the trust threshold."""


class Overflow(AbelergError):
    """An intermediate value left the representable floating-point range."""


class ParseError(ValueError):
    """A matrix file violates the strict JSON schema: an input error."""
