"""Truncated diagonal model of the Hermite oscillator T = D^2 + (2 - t^2).

On L^2(R) this operator is diagonalized by the orthonormal Hermite
functions x_n(t) = h_n(t) exp(-t^2/2) with simple eigenvalues

    lambda_n = 1 - 2 n,        n = 0, 1, 2, ...

so the ergodic projection at the top eigenvalue lambda_0 = 1 is the rank
one projection P_0 onto the ground state.  The truncated model keeps the
first N_tr eigenvalues and represents vectors by their coefficient
sequences, which turns every resolvent quantity into explicit scalar
arithmetic:

    (lambda - 1) R(lambda, T)  has diagonal entries  (lambda-1)/(lambda-1+2n),

and the distance of its m-th power from P_0 is the largest such ratio to
the m-th power.  check builds the oscillator report from one array of
these ratios, n = 1 .. truncation - 1.  hermite_function and the
finite-difference eigen_residual let the tests verify, independently of
the diagonal model, that the Hermite functions are orthonormal
eigenfunctions of the operator; no input of check enters them.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import Overflow

DEFAULT_TRUNCATION = 10_000
# Largest truncation: every model quantity allocates a few float arrays of
# this length (8 MB each at the cap).
MAX_TRUNCATION = 1_000_000
# The grid of eigen_residual: 24001 points on [-12, 12].
GRID_STEP = 1e-3
GRID_HALF_WIDTH = 12.0


@dataclass(frozen=True)
class DiagonalOscillator:
    """Spectral truncation keeping eigenvalues 1 - 2n for n < truncation."""

    truncation: int = DEFAULT_TRUNCATION

    def __post_init__(self):
        object.__setattr__(self, "truncation", linalg.check_count(
            "truncation", self.truncation, 2, MAX_TRUNCATION))

    def eigenvalues(self):
        return 1.0 - 2.0 * np.arange(self.truncation, dtype=np.float64)


def hermite_function(n, t):
    """Orthonormal Hermite function x_n(t), stable for large n.

    Uses the normalized three-term recurrence

        x_0(t) = pi^(-1/4) exp(-t^2/2),
        x_{k+1}(t) = t sqrt(2/(k+1)) x_k(t) - sqrt(k/(k+1)) x_{k-1}(t),

    which keeps all intermediates of order one; the raw Hermite
    polynomials overflow near n = 300.  The pi^(-1/4) prefactor is forced
    by unit L^2 norm of the ground state.
    """
    n = linalg.check_count("n", n, 0)
    t = np.asarray(t, dtype=np.float64)
    x_prev = np.zeros_like(t)
    x = np.pi ** (-0.25) * np.exp(-0.5 * t * t)
    for k in range(n):
        x, x_prev = (t * np.sqrt(2.0 / (k + 1)) * x
                     - np.sqrt(k / (k + 1.0)) * x_prev), x
    return x if x.ndim else float(x)


def _grid():
    return np.linspace(-GRID_HALF_WIDTH, GRID_HALF_WIDTH,
                       round(2.0 * GRID_HALF_WIDTH / GRID_STEP) + 1)


def _check_reach(n):
    """Raise ValueError unless the grid reaches 5 past mode n's classical
    turning point sqrt(2n + 1), as it does for n <= 24."""
    reach = np.sqrt(2.0 * n + 1.0) + 5.0
    if not reach <= GRID_HALF_WIDTH:
        raise ValueError(
            f"mode {n} needs the grid to reach past the classical turning "
            f"point: sqrt(2n+1) + 5 = {reach:.2f} > {GRID_HALF_WIDTH:g}")


def eigen_residual(n):
    """Residual of (D^2 + 2 - t^2) x_n = (1 - 2n) x_n on the fixed grid.

    D^2 is the central second difference on GRID_STEP-spaced points of
    [-GRID_HALF_WIDTH, GRID_HALF_WIDTH], which must reach 5 past the
    classical turning point sqrt(2n + 1): n <= 24.  The residual is the
    maximum over interior grid points and is expected to scale like
    step^2 times the fourth derivative of x_n.
    """
    n = linalg.check_count("n", n, 0)
    _check_reach(n)
    t = _grid()
    h = float(t[1] - t[0])
    x = hermite_function(n, t)
    second = (x[:-2] - 2.0 * x[1:-1] + x[2:]) / (h * h)
    interior = slice(1, -1)
    residual = second + (2.0 - t[interior] ** 2) * x[interior] \
        - (1.0 - 2.0 * n) * x[interior]
    return float(np.max(np.abs(residual)))


def check(lam, m, truncation):
    """The oscillator report's fields under its keys.

    From one array of the ratios r_n = (lambda-1)/(lambda-1+2n), 1 <= n <
    truncation: the gap max r_n^m, the first-order gap max r_n, C(lambda)
    as the sum of r_n^2 with an integral tail bound, and for m >= 4 the
    bound ((lambda-1)/(lambda+1))^(m-2) (value + tail_bound) (None below).
    Arguments are validated in the order truncation, lambda, m.  Raises
    Overflow when the tail bound overflows or the gap falls below the
    smallest normal double (an underflowed gap checks nothing).
    """
    model = DiagonalOscillator(truncation=truncation)
    lam = linalg.check_real("lambda", lam, 1.0)
    m = linalg.check_count("m", m, 1)
    n = np.arange(1, model.truncation, dtype=np.float64)
    ratios = (lam - 1.0) / (lam - 1.0 + 2.0 * n)
    value = float(np.sum(ratios ** 2))
    # sum_{n >= N} f(n) <= integral_{N-1}^inf f(u) du for decreasing f
    try:
        tail = (lam - 1.0) ** 2 / (2.0 * (lam - 3.0 + 2.0 * model.truncation))
    except OverflowError:
        raise Overflow(f"the tail bound of C({lam}) overflows") from None
    gap = float(np.max(ratios ** m))
    if gap < np.finfo(np.float64).tiny:
        raise Overflow(f"the gap underflowed: {gap:.3g} at m = {m}, below "
                       f"the smallest normal double")
    bound = None
    if m >= 4:
        bound = ((lam - 1.0) / (lam + 1.0)) ** (m - 2) * (value + tail)
    return {
        "lambda": lam, "m": m, "truncation": model.truncation,
        "gap": gap, "gap_bound": bound,
        "first_order_gap": float(np.max(ratios)),
        "c_constant": {"value": value, "tail_bound": tail,
                       "estimate": value + tail},
    }
