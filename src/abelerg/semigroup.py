"""Continuous-time averages of the matrix semigroup T_t = exp(t B).

The Abel average of the semigroup at rate lambda > 0 is

    A~_lambda = lambda * integral_0^inf exp(-lambda s) T_s ds
              = lambda (lambda I - B)^{-1},

and its n-th power has the closed integral form

    A~_lambda^n = lambda^n / (n-1)! * integral_0^inf exp(-lambda t) t^(n-1) T_t dt.

Both integrals are evaluated after the substitution u = lambda s, which
turns the weight into the (generalized) Laguerre weight u^(n-1) exp(-u).
Quadrature results are never trusted blindly: every rule compares m with
2m nodes and raises QuadratureUnstable when they disagree; Gauss-Laguerre
runs at exactly the requested m, truncated Simpson doubles m (reusing every
node) until they agree or m would pass SIMPSON_MAX_PANELS.  The closed
resolvent form is available as an independent reference.
The substitution alpha = 1/(1 + lambda), T = I + B turns A~_lambda into
the discrete Abel average of T exactly, which discrete_bridge checks as an
algebraic identity.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import eig_banded
from scipy.special import gammaln, xlogy

from . import abel, linalg
from .errors import IntegralDiverges, Overflow, QuadratureUnstable, ResolventPole, SingularMatrix

SCHEME_GAUSS_LAGUERRE = "gauss_laguerre"
SCHEME_TRUNCATED_SIMPSON = "truncated_simpson"

# Relative disagreement between the two node counts beyond which the
# quadrature result is not returned.
SELF_CHECK_TOL = 1e-6

# Largest Simpson panel count m checked against 2m (32769 expm calls).
SIMPSON_MAX_PANELS = 8192
# Largest node_count: laguerre_rule(2m) holds a 2m x 2m eigenvector matrix.
MAX_NODE_COUNT = 1024


@dataclass(frozen=True)
class QuadratureSpec:
    """Quadrature resolution for the improper semigroup integrals.

    node_count is the Gauss-Laguerre node count, or the Simpson panel
    count the doubling starts from.  t_max_factor is the Simpson truncation
    horizon as a multiple of 1/lambda (unused by Gauss-Laguerre).
    """

    node_count: int = 64
    t_max_factor: float = 40.0
    scheme: str = SCHEME_GAUSS_LAGUERRE

    def __post_init__(self):
        if int(self.node_count) != self.node_count \
                or not 8 <= self.node_count <= MAX_NODE_COUNT:
            raise ValueError(
                f"node_count must be an integer in [8, {MAX_NODE_COUNT}]")
        if self.t_max_factor < 10.0:
            raise ValueError("t_max_factor must be >= 10")
        if self.scheme not in (SCHEME_GAUSS_LAGUERRE, SCHEME_TRUNCATED_SIMPSON):
            raise ValueError(f"unknown quadrature scheme: {self.scheme}")


def laguerre_rule(node_count, power=0.0):
    """Nodes and weights for the normalized generalized Laguerre weight.

    The weights integrate against u^power * exp(-u) / Gamma(power + 1), so
    they sum to one.  Working with the normalized measure keeps every
    intermediate quantity of order one for any power, which is the
    overflow-free equivalent of carrying the factorial in the log domain.
    Golub-Welsch: eigenvalues of the symmetrized Jacobi matrix are the
    nodes, squared first eigenvector components the weights.
    """
    m = int(node_count)
    if m < 1:
        raise ValueError("node_count must be >= 1")
    p = float(power)
    if p <= -1.0:
        raise ValueError("power must exceed -1")
    k = np.arange(m, dtype=np.float64)
    diag = 2.0 * k + p + 1.0
    off = k * (k + p)
    off[0] = 1.0  # placeholder; sets the weight normalization to sum 1
    band = np.vstack((np.sqrt(off), diag))
    nodes, vectors = eig_banded(band)
    return nodes, vectors[0, :] ** 2


def semigroup_at(B, t):
    """T_t = exp(t B) for t >= 0."""
    B = linalg.as_matrix(B, square=True)
    t = float(t)
    if t < 0.0:
        raise ValueError("t must be >= 0")
    return linalg.matrix_exponential(B, t)


def _check_lambda(lam):
    lam = float(lam)
    if not lam > 0.0:
        raise ValueError(f"lambda must be positive, got {lam}")
    return lam


def abel_average_closed(B, lam):
    """lambda (lambda I - B)^{-1}, the resolvent form of the Abel average."""
    B = linalg.as_matrix(B, square=True)
    lam = _check_lambda(lam)
    n = B.shape[0]
    eye = np.eye(n, dtype=np.complex128)
    try:
        return linalg.solve_linear(lam * eye - B, lam * eye)
    except SingularMatrix as exc:
        raise ResolventPole(
            f"lambda = {lam:.17g} lies in the numerical spectrum of B") from exc


def _spectral_abscissa(B):
    values = linalg.eigendecompose(B).values
    return float(np.max(values.real)) if values.size else 0.0


def _weighted_sum(B, lam, nodes, weights):
    """sum_i w_i exp(u_i B / lambda): one expm per node, O(n^2) memory."""
    total = np.zeros(B.shape, dtype=np.complex128)
    for u_i, w_i in zip(nodes, weights):
        total += w_i * linalg.matrix_exponential(B, u_i / lam)
    return total


def _simpson_estimates(B, lam, power, panels, u_max):
    """Composite Simpson on [0, u_max] at panels, 2 panels, 4 panels, ...

    m panels have the nodes j * u_max / (2m); doubling m keeps them all and
    adds the midpoints as the new odd nodes.  Carrying density-weighted
    sums over the end, even and odd nodes evaluates each exp(uB/lambda)
    once: 4m + 1 expm calls up to the estimate at 2m panels.
    """
    def node_sum(indices):
        u = np.asarray(indices, dtype=np.float64) * (u_max / intervals)
        # normalized weight u^p e^{-u} / Gamma(p+1) in the log domain
        density = np.exp(xlogy(power, u) - u - gammaln(power + 1.0))
        return _weighted_sum(B, lam, u, density)

    intervals = 2 * panels
    ends = node_sum([0, intervals])
    even = node_sum(range(2, intervals, 2))
    while True:
        odd = node_sum(range(1, intervals, 2))
        yield (u_max / intervals / 3.0) * (ends + 4.0 * odd + 2.0 * even)
        even += odd
        intervals *= 2


def _settle(estimates, m, max_m):
    """(estimate at 2m, m) for the first m, of m, 2m, 4m, ... up to max_m,
    whose estimates at m and 2m nodes agree to SELF_CHECK_TOL."""
    coarse = next(estimates)
    while True:
        fine = next(estimates)
        scale = max(linalg.operator_norm(fine), np.finfo(np.float64).tiny)
        disagreement = linalg.operator_norm(coarse - fine) / scale
        if disagreement <= SELF_CHECK_TOL:
            return fine, m
        if 2 * m > max_m:
            raise QuadratureUnstable(
                f"node counts {m} and {2 * m} disagree by "
                f"{disagreement:.3e} relative (> {SELF_CHECK_TOL})")
        m *= 2
        coarse = fine


def _quadrature(B, lam, power, spec):
    B = linalg.as_matrix(B, square=True)
    lam = _check_lambda(lam)
    abscissa = _spectral_abscissa(B)
    if abscissa >= lam:
        raise IntegralDiverges(
            f"max Re sigma(B) = {abscissa:.6g} >= lambda = {lam:.6g}")
    m = spec.node_count
    if spec.scheme == SCHEME_GAUSS_LAGUERRE:
        rules = (_weighted_sum(B, lam, *laguerre_rule(k, power=power))
                 for k in (m, 2 * m))
        return _settle(rules, m, m)
    return _settle(_simpson_estimates(B, lam, power, m, spec.t_max_factor),
                   m, SIMPSON_MAX_PANELS)


def abel_average_quadrature(B, lam, spec=QuadratureSpec()):
    """Abel average by numerical integration of lambda e^(-lambda s) T_s.

    Requires max Re sigma(B) < lambda, otherwise the improper integral
    diverges and IntegralDiverges is raised up front.  Returns (value, m):
    the result at 2m nodes and the m it passed the self-check against.
    """
    return _quadrature(B, lam, 0.0, spec)


def abel_power_quadrature(B, lam, n, spec=QuadratureSpec()):
    """n-th power of the Abel average by a single weighted integral.

    Uses the generalized Laguerre weight u^(n-1) exp(-u) after the
    substitution u = lambda t; the factorial normalization is absorbed
    into the weights (see laguerre_rule).  Returns (value, m) as
    abel_average_quadrature does.
    """
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    return _quadrature(B, lam, float(n - 1), spec)


@dataclass(frozen=True)
class BridgeReport:
    """Defect of the identity A~_lambda = A_alpha(I + B), alpha = 1/(1+lambda)."""

    lam: float
    alpha: float
    defect: float
    relative_defect: float


def discrete_bridge(B, lam):
    """Compare the continuous average with its discrete counterpart.

    Pure resolvent algebra makes the two sides equal; the reported defect
    is floating-point noise unless something is wrong.
    """
    B = linalg.as_matrix(B, square=True)
    lam = _check_lambda(lam)
    alpha = 1.0 / (1.0 + lam)
    continuous = abel_average_closed(B, lam)
    n = B.shape[0]
    discrete = abel.abel_average(np.eye(n, dtype=np.complex128) + B, alpha)
    defect = linalg.operator_norm(continuous - discrete)
    scale = max(linalg.operator_norm(continuous), np.finfo(np.float64).tiny)
    return BridgeReport(lam=lam, alpha=alpha, defect=float(defect),
                        relative_defect=float(defect / scale))


@dataclass
class GrowthSamples:
    """Samples of log ||T_t|| / t with a heuristic zero-growth verdict.

    spectral_bound is max Re sigma(B), the exact growth rate; the sampled
    verdict asks the last value to sit within 0.01 of zero with a
    nonincreasing tail.  overflow_at records the first t where exp(t B)
    left the representable range, if any.
    """

    samples: list
    heuristic_holds: bool
    spectral_bound: float
    overflow_at: Optional[float] = None


def growth_log_norm(B, t_grid):
    """Sample log ||T_t|| / t along an increasing positive grid."""
    B = linalg.as_matrix(B, square=True)
    grid = [float(t) for t in t_grid]
    if not grid or any(t <= 0 for t in grid):
        raise ValueError("t_grid must be nonempty and positive")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("t_grid must be strictly increasing")
    samples = []
    overflow_at = None
    for t in grid:
        try:
            norm = linalg.operator_norm(semigroup_at(B, t))
        except Overflow:
            overflow_at = t
            break
        value = math.log(norm) / t if norm > 0.0 else -math.inf
        samples.append((t, value))
    holds = overflow_at is None and len(samples) >= 1
    if holds:
        mags = [abs(v) for _, v in samples[-3:]]
        holds = (math.isfinite(samples[-1][1])
                 and abs(samples[-1][1]) <= 0.01
                 and all(b <= a * (1.0 + 1e-12) + 1e-300
                         for a, b in zip(mags, mags[1:])))
    return GrowthSamples(samples=samples, heuristic_holds=bool(holds),
                         spectral_bound=_spectral_abscissa(B),
                         overflow_at=overflow_at)


@dataclass
class ContinuousErgodicReport:
    """Power limit of the continuous Abel average, checked against Ker B."""

    report: abel.ConvergenceReport
    kernel_residual: Optional[float]
    projects_onto_kernel: bool


def ergodic_projection_continuous(B, lam, tol=abel.DEFAULT_TOL):
    """Iterate powers of A~_lambda toward the projection onto Ker B.

    When the powers converge, the limit L must satisfy ||B L|| <=
    10 * tol * ||B||: it projects onto the kernel of the generator, along
    its image.
    """
    B = linalg.as_matrix(B, square=True)
    lam = _check_lambda(lam)
    A = abel_average_closed(B, lam)
    report = abel.power_iterate(A, tol=tol)
    if not report.converged:
        return ContinuousErgodicReport(report=report, kernel_residual=None,
                                       projects_onto_kernel=False)
    residual = linalg.operator_norm(B @ report.limit)
    bound = 10.0 * tol * linalg.operator_norm(B)
    return ContinuousErgodicReport(report=report,
                                   kernel_residual=float(residual),
                                   projects_onto_kernel=bool(residual <= bound))
