"""Continuous-time averages of the matrix semigroup T_t = exp(t B).

The Abel average of the semigroup at rate lambda > 0 is

    A~_lambda = lambda * integral_0^inf exp(-lambda s) T_s ds
              = lambda (lambda I - B)^{-1},

and its n-th power has the closed integral form

    A~_lambda^n = lambda^n / (n-1)! * integral_0^inf exp(-lambda t) t^(n-1) T_t dt.

Both integrals are evaluated after the substitution u = lambda s, which
turns the weight into the (generalized) Laguerre weight u^(n-1) exp(-u),
by Gauss-Laguerre quadrature; check() also takes the average by truncated
Simpson as a cross-check.  Quadrature results are never trusted blindly:
every rule compares m with 2m nodes from m = START_NODE_COUNT and doubles
m until they agree; past MAX_NODE_COUNT (Gauss-Laguerre) or
SIMPSON_MAX_PANELS (Simpson) it raises QuadratureUnstable.  The
self-check cannot see what Simpson drops past its horizon, so the horizon
follows the decay of the integrand: u = SIMPSON_HORIZON / (1 - w/lambda),
with w the spectral abscissa of B clipped at 0.  Only two matrices are
exponentiated: B for Gauss-Laguerre and C = B/lambda - I for Simpson,
each through one linalg.exponentials_of map, which takes the matrix's
powers once for all of its nodes (check() shares B's map, and its
logarithmic norm mu = linalg.log_norm(B), between its two Gauss-Laguerre
integrals).  Before it takes any exponential, a Gauss-Laguerre rule drops
the longest tail of nodes whose bounds w_i e^(u_i mu / lambda) sum to at
most 2^-53 of a lower bound on the integral's norm, always keeping node
0.  Where mu nears or passes lambda, as it may for a non-normal B, the
bounds do not decay and every node is kept.  The kept nodes go as stacks
of up to linalg.STACK_CHUNK_BYTES, each in one batched
scaling-and-squaring pass that holds three stack-sized arrays: one pass
per rule at small n.  Simpson's nodes lie on nested uniform grids, where
the integrand e^-u exp(u B / lambda) is a geometric progression: the
first grid is summed in closed form by O(log m) products, and each finer
grid's sum is the coarser one's plus its odd nodes, one product with one
more matrix exponential.
The closed resolvent form is available as an independent reference.
The substitution alpha = 1/(1 + lambda), T = I + B turns A~_lambda into
the discrete Abel average of T exactly, an algebraic identity whose
defect check() reports next to the quadratures.
"""

import functools
import itertools

import numpy as np
from scipy.linalg import eig_banded

from . import abel, linalg
from .errors import IntegralDiverges, Overflow, QuadratureUnstable, ResolventPole, SingularMatrix

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
    m = linalg.check_count("node_count", node_count, 1)
    return _golub_welsch(m, linalg.check_real("power", power, -1.0))


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


def _resolvent(B, lam):
    """lambda (lambda I - B)^{-1}, the resolvent form of the Abel average."""
    eye = np.eye(B.shape[0], dtype=np.complex128)
    try:
        return linalg.solve_linear(lam * eye - B, lam * eye)
    except SingularMatrix as exc:
        raise ResolventPole(
            f"lambda = {lam:.17g} lies in the numerical spectrum of B") from exc


def _abscissa(B, lam):
    """max Re sigma(B), from one Schur form; IntegralDiverges unless it
    lies below lambda."""
    abscissa = float(np.max(linalg.eigendecompose(B).values.real))
    if abscissa >= lam:
        raise IntegralDiverges(
            f"max Re sigma(B) = {abscissa:.6g} >= lambda = {lam:.6g}")
    return abscissa


def _weighted_sum(B, lam, nodes, weights, expm, mu, tol):
    """sum_i w_i exp(t_i B), t_i = u_i / lambda, over the head of the
    rule, added in node order, with expm = linalg.exponentials_of(B).

    The head drops the longest tail of nodes whose bounds w_i e^(t_i mu)
    sum to at most tol, but keeps node 0.  With mu >= mu_2(B) the dropped
    terms sum to at most tol in the 2-norm (linalg.log_norm), and none is
    computed.  An inf or NaN bound (e^(t_i mu) overflowing, or meeting a
    zero weight) keeps every node up to its own.  The head goes to expm
    in stacks of up to linalg.STACK_CHUNK_BYTES (at least one node each):
    one call at small n, O(STACK_CHUNK_BYTES + n^2) memory at any n."""
    ts = nodes / lam
    with np.errstate(over="ignore", invalid="ignore"):
        tails = np.cumsum((weights * np.exp(ts * mu))[::-1])[::-1]
    # the tail sums never grow along the rule, so the head is a prefix
    head = max(1, np.count_nonzero(~(tails <= tol)))
    total = np.zeros(B.shape, dtype=np.complex128)
    chunk = max(1, linalg.STACK_CHUNK_BYTES // (16 * B.size))
    for start in range(0, head, chunk):
        stop = min(start + chunk, head)
        stack = expm(ts[start:stop])
        stack *= weights[start:stop, None, None]
        stack[0] += total
        # a running sum adds the slices one by one at every n (a reduction
        # over a (k, 1, 1) stack would sum pairwise)
        total = np.add.accumulate(stack, axis=0, out=stack)[-1].copy()
    return total


def _simpson_estimates(B, lam, panels, u_max):
    """Composite Simpson of integral_0^u_max e^-u exp(u B / lambda) du at
    panels, 2 panels, 4 panels, ...

    With C = B / lambda - I the integrand is exp(uC), so on a grid of
    step h = u_max / (2m) the nodes form geometric progressions in
    S = exp(2hC): with G = I + S + ... + S^(m-1), the odd nodes sum to
    exp(hC) G, the interior even nodes to G - I, and the last node is
    S^m = exp(u_max C), the same on every grid.  Halving h makes this
    grid's exp(hC) the next grid's S, whose G is this grid's G plus its
    odd-node sum.  So only the first grid takes
    linalg.power_and_geometric_sum, with its S and exp(hC) from one call
    of C's linalg.exponentials_of map; each later grid takes one slice of
    that map and one product.
    """
    eye = np.eye(B.shape[0], dtype=np.complex128)
    expm = linalg.exponentials_of(B / lam - eye)
    h = u_max / (2 * panels)
    stride, half = expm(np.array([2.0 * h, h]))
    last, grid = linalg.power_and_geometric_sum(stride, panels)
    while True:
        with np.errstate(over="ignore", invalid="ignore"):
            odd = half @ grid
            value = (h / 3.0) * (eye + last + 4.0 * odd + 2.0 * (grid - eye))
            grid += odd
        if not np.isfinite(value).all():
            raise Overflow("the Simpson sum left the representable range")
        yield value
        h /= 2.0
        half = expm(np.array([h]))[0]


def _settle(estimates, m, max_m, rule):
    """(estimate at 2m, m) for the first m, of m, 2m, 4m, ... up to max_m,
    whose estimates at m and 2m nodes agree to SELF_CHECK_TOL.  rule names
    the quadrature in the failure message."""
    coarse = next(estimates)
    while True:
        fine = next(estimates)
        scale = max(linalg.operator_norm(fine), np.finfo(np.float64).tiny)
        with np.errstate(over="ignore"):
            settled = linalg._norm_at_most(coarse - fine,
                                           SELF_CHECK_TOL * scale)[0]
        if settled:
            return fine, m
        if 2 * m > max_m:
            disagreement = linalg.operator_norm(coarse - fine) / scale
            raise QuadratureUnstable(
                f"{rule}: node counts {m} and {2 * m} disagree by "
                f"{disagreement:.3e} relative (> {SELF_CHECK_TOL})")
        m *= 2
        coarse = fine


def _gauss_laguerre(B, lam, power, expm, mu):
    """(value, m) of Gauss-Laguerre with weight u^power e^-u on a validated
    B and lambda, with expm = linalg.exponentials_of(B) and
    mu = linalg.log_norm(B).

    The rules approximate (lambda (lambda I - B)^-1)^(power + 1), of 2-norm
    at least rho = (lambda / (lambda + ||B||_F))^(power + 1), as
    lambda / ||lambda I - B||_2 is its base's smallest singular value.
    Each rule drops terms summing to at most 2^-53 rho (_weighted_sum),
    bounded with mu + (n + 1) eps ||B||_F, which covers mu's rounding."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(B))
        mu += (B.shape[0] + 1) * linalg.EPS * norm
        tol = 2.0 ** -53 * (lam / (lam + norm)) ** (power + 1.0)
    m = START_NODE_COUNT
    rules = (_weighted_sum(B, lam, *laguerre_rule(m << k, power=power), expm,
                           mu, tol)
             for k in itertools.count())
    return _settle(rules, m, MAX_NODE_COUNT,
                   f"gauss_laguerre with weight u^{power:g} e^-u")


def _simpson(B, lam, abscissa):
    """(value, panels) of truncated Simpson on a validated B and lambda,
    with abscissa from _abscissa(B, lam)."""
    # exactly SIMPSON_HORIZON whenever w <= 0
    u_max = SIMPSON_HORIZON / (1.0 - max(abscissa, 0.0) / lam)
    m = START_NODE_COUNT
    return _settle(_simpson_estimates(B, lam, m, u_max), m,
                   SIMPSON_MAX_PANELS, "truncated_simpson with weight u^0 e^-u")


def abel_average_quadrature(B, lam):
    """Abel average by Gauss-Laguerre quadrature of lambda e^(-lambda s) T_s.

    Requires max Re sigma(B) < lambda, otherwise the improper integral
    diverges and IntegralDiverges is raised up front.  Returns (value, m):
    the result at 2m nodes and the m it passed the self-check against.
    """
    return abel_power_quadrature(B, lam, 1)


def abel_power_quadrature(B, lam, n):
    """n-th power of the Abel average by a single weighted integral.

    Uses the generalized Laguerre weight u^(n-1) exp(-u) after the
    substitution u = lambda t; the factorial normalization is absorbed
    into the weights (see laguerre_rule).  Returns (value, m) as
    abel_average_quadrature does.
    """
    n = linalg.check_count("n", n, 1)
    B = linalg.as_matrix(B, square=True)
    lam = linalg.check_real("lambda", lam, 0.0)
    _abscissa(B, lam)  # IntegralDiverges unless max Re sigma(B) < lambda
    return _gauss_laguerre(B, lam, float(n - 1), linalg.exponentials_of(B),
                           linalg.log_norm(B))


def check(B, lam, n):
    """The semigroup report's fields under its keys; closed_form is a matrix.

    Gauss-Laguerre and truncated Simpson are compared with the closed form,
    the power integral with its n-th power, and the discrete average
    A_alpha(I + B), alpha = 1/(1 + lambda), with the closed form (the
    bridge), all from one resolvent solve and one Schur form.  A closed
    power below the smallest normal double raises Overflow: its check
    would compare zero with zero.  A lambda so small that alpha rounds to
    1 raises ValueError before any quadrature.
    """
    n = linalg.check_count("n", n, 1)
    B = linalg.as_matrix(B, square=True)
    lam = linalg.check_real("lambda", lam, 0.0)
    alpha = 1.0 / (1.0 + lam)
    if alpha == 1.0:
        raise ValueError(f"lambda = {lam:g} is too small for the bridge: "
                         f"alpha = 1/(1 + lambda) rounds to 1")
    tiny = np.finfo(np.float64).tiny
    closed = _resolvent(B, lam)
    scale = max(linalg.operator_norm(closed), tiny)
    abscissa = _abscissa(B, lam)
    expm, mu = linalg.exponentials_of(B), linalg.log_norm(B)
    quad, gl_nodes = _gauss_laguerre(B, lam, 0.0, expm, mu)
    simpson, panels = _simpson(B, lam, abscissa)
    # at n = 1 the power integral's weight is the average's own
    power, power_nodes = (quad, gl_nodes) if n == 1 else _gauss_laguerre(
        B, lam, float(n - 1), expm, mu)
    closed_power = np.linalg.matrix_power(closed, n)
    power_scale = linalg.operator_norm(closed_power)
    if power_scale < tiny:
        raise Overflow(f"the power underflowed: ||closed form^{n}|| = "
                       f"{power_scale:.3g}, below the smallest normal double")
    bridge = linalg.operator_norm(
        closed - abel.abel_average(np.eye(B.shape[0]) + B, alpha))
    return {
        "lambda": lam, "n": n, "closed_form": closed,
        "gauss_laguerre_relative_defect":
            linalg.operator_norm(quad - closed) / scale,
        "simpson_relative_defect":
            linalg.operator_norm(simpson - closed) / scale,
        "power_integral_relative_defect":
            linalg.operator_norm(power - closed_power) / power_scale,
        "gauss_laguerre_nodes": gl_nodes, "simpson_panels": panels,
        "power_integral_nodes": power_nodes,
        "bridge": {"alpha": alpha, "defect": bridge,
                   "relative_defect": bridge / scale},
    }
