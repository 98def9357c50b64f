"""Exception types shared across the package."""


class AbelergError(Exception):
    """Base class for all errors raised by this package."""


class SingularMatrix(AbelergError):
    """A pivoted factorization met a pivot below the singularity threshold."""


class NoConvergence(AbelergError):
    """An eigenvalue iteration exhausted its sweep budget."""


class ResolventPole(AbelergError):
    """The requested resolvent point lies in (or too close to) the spectrum."""


class PoleHit(AbelergError):
    """A scalar map was evaluated at one of its poles."""


class DecompositionFails(AbelergError):
    """Kernel and image of I - T do not span the space as a direct sum."""


class IntegralDiverges(AbelergError):
    """The improper semigroup integral diverges for the given decay rate."""


class QuadratureUnstable(AbelergError):
    """Two quadrature resolutions disagree beyond the trust threshold."""


class Overflow(AbelergError):
    """An intermediate value left the representable floating-point range."""


class GridTooCoarse(AbelergError):
    """A finite-difference residual exceeded its step-size error budget."""


class ParseError(AbelergError):
    """A matrix file violates the expected JSON schema."""


class DimensionMismatch(AbelergError):
    """Declared matrix dimensions disagree with the supplied data length."""
