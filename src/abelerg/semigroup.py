"""Continuous-time averages of the matrix semigroup T_t = exp(t B).

The Abel average of the semigroup at rate lambda > 0 is

    A~_lambda = lambda * integral_0^inf exp(-lambda s) T_s ds
              = lambda (lambda I - B)^{-1},

and its n-th power has the closed integral form

    A~_lambda^n = lambda^n / (n-1)! * integral_0^inf exp(-lambda t) t^(n-1) T_t dt.

Both integrals are evaluated after the substitution u = lambda s, which
turns the weight into the (generalized) Laguerre weight u^(n-1) exp(-u).
Quadrature results are never trusted blindly: every rule compares m with
2m nodes from m = START_NODE_COUNT and doubles m until they agree; past
MAX_NODE_COUNT (Gauss-Laguerre) or SIMPSON_MAX_PANELS (truncated Simpson,
which reuses every node) it raises QuadratureUnstable.  The self-check
cannot see what Simpson drops past its horizon, so the horizon follows the
decay of the integrand: u = SIMPSON_HORIZON / (1 - w/lambda), with w the
spectral abscissa of B clipped at 0, whatever the weight power.  Simpson
nodes lie on uniform grids, so most are matrix products
exp((u + 2h) B / lambda) = exp(u B / lambda) exp(2h B / lambda), with a
direct expm every EXPM_ANCHOR_EVERY nodes.  The closed resolvent form is
available as an independent reference.
The substitution alpha = 1/(1 + lambda), T = I + B turns A~_lambda into
the discrete Abel average of T exactly, which discrete_bridge checks as an
algebraic identity.
"""

import functools
import itertools
import math
from dataclasses import dataclass

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

# The m every self-check starts from: Gauss-Laguerre nodes, Simpson panels.
START_NODE_COUNT = 64
# Largest Gauss-Laguerre m checked against 2m: laguerre_rule(2m) holds a
# 2m x 2m eigenvector matrix.
MAX_NODE_COUNT = 1024
# Largest Simpson panel count m checked against 2m (32769 nodes).
SIMPSON_MAX_PANELS = 8192
# At Simpson's horizon the weight e^-u times the growth e^(u w / lambda) of
# exp(u B / lambda) has fallen to e^-SIMPSON_HORIZON.
SIMPSON_HORIZON = 40.0
# Simpson takes every EXPM_ANCHOR_EVERY-th node of a progression by a direct
# expm and the nodes between as products with the stride factor.
EXPM_ANCHOR_EVERY = 32


def laguerre_rule(node_count, power=0.0):
    """Nodes and weights for the normalized generalized Laguerre weight.

    The weights integrate against u^power * exp(-u) / Gamma(power + 1), so
    they sum to one.  Working with the normalized measure keeps every
    intermediate quantity of order one for any power, which is the
    overflow-free equivalent of carrying the factorial in the log domain.
    Golub-Welsch: eigenvalues of the symmetrized Jacobi matrix are the
    nodes, squared first eigenvector components the weights.  Rules are
    memoized, so both arrays come back read-only.
    """
    m = int(node_count)
    if m < 1:
        raise ValueError("node_count must be >= 1")
    p = float(power)
    if p <= -1.0:
        raise ValueError("power must exceed -1")
    return _golub_welsch(m, p)


@functools.lru_cache(maxsize=64)
def _golub_welsch(m, p):
    k = np.arange(m, dtype=np.float64)
    diag = 2.0 * k + p + 1.0
    off = k * (k + p)
    off[0] = 1.0  # placeholder; sets the weight normalization to sum 1
    band = np.vstack((np.sqrt(off), diag))
    nodes, vectors = eig_banded(band)
    weights = vectors[0, :] ** 2
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _check_lambda(lam):
    lam = float(lam)
    if not 0.0 < lam < math.inf:
        raise ValueError(f"lambda must be positive and finite, got {lam}")
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


def _grid_sum(B, lam, u, density, first, step):
    """sum_k density_k exp(u_k B / lambda) over an arithmetic progression u.

    first is exp(u_0 B / lambda) and step is exp((u_1 - u_0) B / lambda).
    Each later node is the one before times step, one n x n product, except
    every EXPM_ANCHOR_EVERY-th, a direct expm that restarts the chain, so
    rounding accumulates over fewer than EXPM_ANCHOR_EVERY products.  Raises
    Overflow when the sum is not finite.
    """
    node = first
    total = density[0] * first
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, len(u)):
            if k % EXPM_ANCHOR_EVERY:
                node = node @ step
            else:
                node = linalg.matrix_exponential(B, u[k] / lam)
            total += density[k] * node
    if not np.isfinite(total).all():
        raise Overflow(f"exp(u B / {lam}) overflowed on the Simpson grid")
    return total


def _simpson_estimates(B, lam, power, panels, u_max):
    """Composite Simpson on [0, u_max] at panels, 2 panels, 4 panels, ...

    m panels have the nodes j * u_max / (2m); doubling m keeps them all and
    adds the midpoints as the new odd nodes.  Carrying density-weighted
    sums over the end, even and odd nodes evaluates each exp(uB/lambda)
    once.  The even and odd nodes of a grid are arithmetic progressions of
    stride 2h, summed by _grid_sum: one direct expm per EXPM_ANCHOR_EVERY
    nodes, and an n x n product for each other node.  The stride factor
    exp(2hB/lambda) is a node already taken directly: the first even node,
    then the first odd node of the grid before.
    """
    def nodes(indices):
        u = np.asarray(indices, dtype=np.float64) * (u_max / intervals)
        # normalized weight u^p e^{-u} / Gamma(p+1) in the log domain
        density = np.exp(xlogy(power, u) - u - gammaln(power + 1.0))
        return u, density

    def first_node(index):
        return linalg.matrix_exponential(B, index * (u_max / intervals) / lam)

    intervals = 2 * panels
    ends = _weighted_sum(B, lam, *nodes([0, intervals]))
    stride = first_node(2)
    even = _grid_sum(B, lam, *nodes(range(2, intervals, 2)), stride, stride)
    while True:
        first_odd = first_node(1)
        odd = _grid_sum(B, lam, *nodes(range(1, intervals, 2)), first_odd,
                        stride)
        yield (u_max / intervals / 3.0) * (ends + 4.0 * odd + 2.0 * even)
        even += odd
        intervals *= 2
        stride = first_odd


def _settle(estimates, m, max_m, rule):
    """(estimate at 2m, m) for the first m, of m, 2m, 4m, ... up to max_m,
    whose estimates at m and 2m nodes agree to SELF_CHECK_TOL.  rule names
    the quadrature in the failure message."""
    coarse = next(estimates)
    while True:
        fine = next(estimates)
        scale = max(linalg.operator_norm(fine), np.finfo(np.float64).tiny)
        disagreement = linalg.operator_norm(coarse - fine) / scale
        if disagreement <= SELF_CHECK_TOL:
            return fine, m
        if 2 * m > max_m:
            raise QuadratureUnstable(
                f"{rule}: node counts {m} and {2 * m} disagree by "
                f"{disagreement:.3e} relative (> {SELF_CHECK_TOL})")
        m *= 2
        coarse = fine


def _quadrature(B, lam, power, scheme):
    if scheme not in (SCHEME_GAUSS_LAGUERRE, SCHEME_TRUNCATED_SIMPSON):
        raise ValueError(f"unknown quadrature scheme: {scheme}")
    B = linalg.as_matrix(B, square=True)
    lam = _check_lambda(lam)
    abscissa = _spectral_abscissa(B)
    if abscissa >= lam:
        raise IntegralDiverges(
            f"max Re sigma(B) = {abscissa:.6g} >= lambda = {lam:.6g}")
    m = START_NODE_COUNT
    rule = f"{scheme} with weight u^{power:g} e^-u"
    if scheme == SCHEME_GAUSS_LAGUERRE:
        rules = (_weighted_sum(B, lam, *laguerre_rule(m << k, power=power))
                 for k in itertools.count())
        return _settle(rules, m, MAX_NODE_COUNT, rule)
    # as SIMPSON_HORIZON * lam / (lam - w), but exactly SIMPSON_HORIZON
    # whenever w = 0
    u_max = SIMPSON_HORIZON / (1.0 - max(abscissa, 0.0) / lam)
    return _settle(_simpson_estimates(B, lam, power, m, u_max),
                   m, SIMPSON_MAX_PANELS, rule)


def abel_average_quadrature(B, lam, scheme=SCHEME_GAUSS_LAGUERRE):
    """Abel average by numerical integration of lambda e^(-lambda s) T_s.

    Requires max Re sigma(B) < lambda, otherwise the improper integral
    diverges and IntegralDiverges is raised up front.  scheme is
    SCHEME_GAUSS_LAGUERRE or SCHEME_TRUNCATED_SIMPSON.  Returns (value, m):
    the result at 2m nodes and the m it passed the self-check against.
    """
    return _quadrature(B, lam, 0.0, scheme)


def abel_power_quadrature(B, lam, n, scheme=SCHEME_GAUSS_LAGUERRE):
    """n-th power of the Abel average by a single weighted integral.

    Uses the generalized Laguerre weight u^(n-1) exp(-u) after the
    substitution u = lambda t; the factorial normalization is absorbed
    into the weights (see laguerre_rule).  Returns (value, m) as
    abel_average_quadrature does.
    """
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    return _quadrature(B, lam, float(n - 1), scheme)


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
