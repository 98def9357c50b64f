"""Abel averages of operator powers and semigroups.

Computes the discrete Abel average A_alpha = (1 - alpha)(I - alpha T)^(-1)
and its continuous counterpart lambda (lambda I - B)^(-1), iterates their
powers toward the ergodic (Riesz) projection at the eigenvalue 1, and
certifies power convergence against the equivalent spectral criterion:
spectrum in the half-plane {Re <= 1} together with the direct sum
Ker(I - T) + Im(I - T) of kernel and image.
"""

from .abel import (
    abel_average,
    cesaro_average,
    in_omega_alpha,
    power_iterate,
    riesz_projection_at_one,
    spectral_map,
)
from .certify import (
    check_power_convergence,
    check_spectral_condition,
    generate_instances,
    verify_equivalence,
)
from .oscillator import (
    DiagonalOscillator,
    eigen_residual,
    hermite_function,
)
from .semigroup import (
    abel_average_quadrature,
    abel_power_quadrature,
    laguerre_rule,
)

__version__ = "0.1.0"

__all__ = [
    "DiagonalOscillator",
    "abel_average",
    "abel_average_quadrature",
    "abel_power_quadrature",
    "cesaro_average",
    "check_power_convergence",
    "check_spectral_condition",
    "eigen_residual",
    "generate_instances",
    "hermite_function",
    "in_omega_alpha",
    "laguerre_rule",
    "power_iterate",
    "riesz_projection_at_one",
    "spectral_map",
    "verify_equivalence",
]
