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
the m-th power.  The finite-difference residual below verifies,
independently of the diagonal model, that the Hermite functions really
are eigenfunctions of the differential operator.
"""

from dataclasses import dataclass

import numpy as np

from .errors import GridTooCoarse, Overflow, PoleHit

DEFAULT_TRUNCATION = 10_000
# Largest truncation: every model quantity allocates a few float arrays of
# this length (8 MB each at the cap).
MAX_TRUNCATION = 1_000_000
# Largest grid of eigen_residual, which holds a few float arrays of this
# length (8 MB each at the cap); the CLI's grid has 24001 points.
MAX_RESIDUAL_GRID_POINTS = 1_000_000


@dataclass(frozen=True)
class DiagonalOscillator:
    """Spectral truncation keeping eigenvalues 1 - 2n for n < truncation."""

    truncation: int = DEFAULT_TRUNCATION

    def __post_init__(self):
        if int(self.truncation) != self.truncation \
                or not 2 <= self.truncation <= MAX_TRUNCATION:
            raise ValueError(
                f"truncation must be an integer in [2, {MAX_TRUNCATION}]")

    def eigenvalues(self):
        return 1.0 - 2.0 * np.arange(self.truncation, dtype=np.float64)


@dataclass(frozen=True)
class GapReport:
    """Operator-norm distance of the scaled resolvent power from P_0.

    bound is the comparison value ((lambda-1)/(lambda+1))^(m-2) * C(lambda),
    available for m >= 4 (None below); the gap itself is exact on the
    truncated model.
    """

    gap: float
    bound: float


@dataclass(frozen=True)
class CConstant:
    """Truncated value of C(lambda) = sum_{n>=1} ((lambda-1)/(lambda-1+2n))^2.

    value is the sum over 1 <= n < truncation; tail_bound is the integral
    upper bound on the dropped remainder, so value <= C(lambda) <=
    value + tail_bound.
    """

    value: float
    tail_bound: float

    @property
    def estimate(self):
        return self.value + self.tail_bound


def _check_lambda_above_one(model, lam):
    lam = float(lam)
    if not np.isfinite(lam):
        raise ValueError(f"lambda must be finite, got {lam}")
    if lam > 1.0:
        return lam
    eigs = model.eigenvalues()
    nearest = float(np.min(np.abs(lam - eigs)))
    if nearest <= 1e-12:
        raise PoleHit(f"lambda = {lam:.17g} hits an eigenvalue 1 - 2n")
    raise ValueError("the resolvent formulas require lambda > 1")


def _ratios(model, lam):
    n = np.arange(1, model.truncation, dtype=np.float64)
    return (lam - 1.0) / (lam - 1.0 + 2.0 * n)


def scaled_resolvent_power_gap(model, lam, m):
    """|| [(lambda - 1) R(lambda, T)]^m - P_0 || on the truncated model.

    Exact by diagonality: the supremum of ((lambda-1)/(lambda-1+2n))^m
    over n >= 1, attained at n = 1.  A gap below the smallest normal double
    raises Overflow: comparing an underflowed gap with its bound says
    nothing.
    """
    lam = _check_lambda_above_one(model, lam)
    m = int(m)
    if m < 1:
        raise ValueError("m must be >= 1")
    gap = float(np.max(_ratios(model, lam) ** m))
    if gap < np.finfo(np.float64).tiny:
        raise Overflow(f"the gap underflowed: {gap:.3g} at m = {m}, below "
                       f"the smallest normal double")
    bound = None
    if m >= 4:
        ratio = (lam - 1.0) / (lam + 1.0)
        bound = ratio ** (m - 2) * c_constant(model, lam).estimate
    return GapReport(gap=gap, bound=bound)


def first_order_gap(model, lam):
    """|| (lambda - 1) R(lambda, T) - P_0 || = (lambda-1)/(lambda+1).

    Always below the coarse bound lambda - 1, and tending to zero as
    lambda decreases to 1.
    """
    lam = _check_lambda_above_one(model, lam)
    return float(np.max(_ratios(model, lam)))


def c_constant(model, lam):
    """Truncated series C(lambda) with a certified integral tail bound."""
    lam = _check_lambda_above_one(model, lam)
    value = float(np.sum(_ratios(model, lam) ** 2))
    # sum_{n >= N} f(n) <= integral_{N-1}^inf f(u) du for decreasing f
    try:
        tail = (lam - 1.0) ** 2 / (2.0 * (lam - 3.0 + 2.0 * model.truncation))
    except OverflowError:
        raise Overflow(f"the tail bound of C({lam}) overflows") from None
    return CConstant(value=value, tail_bound=float(tail))


def hermite_function(n, t):
    """Orthonormal Hermite function x_n(t), stable for large n.

    Uses the normalized three-term recurrence

        x_0(t) = pi^(-1/4) exp(-t^2/2),
        x_{k+1}(t) = t sqrt(2/(k+1)) x_k(t) - sqrt(k/(k+1)) x_{k-1}(t),

    which keeps all intermediates of order one; the raw Hermite
    polynomials overflow near n = 300.  The pi^(-1/4) prefactor is forced
    by unit L^2 norm of the ground state.
    """
    n = int(n)
    if n < 0:
        raise ValueError("n must be >= 0")
    t = np.asarray(t, dtype=np.float64)
    x_prev = np.zeros_like(t)
    x = np.pi ** (-0.25) * np.exp(-0.5 * t * t)
    for k in range(n):
        x, x_prev = (t * np.sqrt(2.0 / (k + 1)) * x
                     - np.sqrt(k / (k + 1.0)) * x_prev), x
    return x if x.ndim else float(x)


def eigen_residual(n, step=1e-3, half_width=12.0):
    """Residual of (D^2 + 2 - t^2) x_n = (1 - 2n) x_n on a uniform grid.

    D^2 is the central second difference; the residual is the maximum over
    interior grid points and is expected to scale like step^2 times the
    fourth derivative of x_n.  Raises GridTooCoarse when it exceeds
    100 * step^2 * (2n + 3)^2.
    """
    n = int(n)
    if n < 0:
        raise ValueError("n must be >= 0")
    half_width = float(half_width)
    if half_width < np.sqrt(2.0 * n + 1.0) + 5.0:
        raise ValueError(
            "half_width must reach past the classical turning point: "
            f"need >= sqrt(2n+1) + 5 = {np.sqrt(2.0 * n + 1.0) + 5.0:.2f}")
    step = float(step)
    if not step > 0:
        raise ValueError("step must be positive")
    intervals = 2.0 * half_width / step
    if not intervals < MAX_RESIDUAL_GRID_POINTS:
        raise ValueError(
            f"step {step} needs more than MAX_RESIDUAL_GRID_POINTS = "
            f"{MAX_RESIDUAL_GRID_POINTS} grid points")
    points = int(round(intervals)) + 1
    if points < 3:
        raise ValueError(
            f"step {step} leaves {points} grid points; the second "
            "difference needs at least 3")
    t = np.linspace(-half_width, half_width, points)
    h = float(t[1] - t[0])
    x = hermite_function(n, t)
    second = (x[:-2] - 2.0 * x[1:-1] + x[2:]) / (h * h)
    interior = slice(1, -1)
    residual = second + (2.0 - t[interior] ** 2) * x[interior] \
        - (1.0 - 2.0 * n) * x[interior]
    worst = float(np.max(np.abs(residual)))
    budget = 100.0 * h * h * (2.0 * n + 3.0) ** 2
    if worst > budget:
        raise GridTooCoarse(
            f"residual {worst:.3e} exceeds budget {budget:.3e} at step {h}")
    return worst
