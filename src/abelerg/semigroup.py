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
decay of the integrand: u = (SIMPSON_HORIZON + p + 8 sqrt(p)) / (1 - w/lambda),
with p the weight power (its mass sits near u = p) and w the spectral
abscissa of B clipped at 0.  A Gauss-Laguerre rule exponentiates its nodes
as stacks of up to linalg.STACK_CHUNK_BYTES, one expm call each: a single
call per rule at small n.  Simpson nodes lie on uniform grids, so most
are matrix products exp((u + 2h) B / lambda) = exp(u B / lambda)
exp(2h B / lambda), with a direct expm every EXPM_ANCHOR_EVERY nodes.  The
chains between these anchors advance in lockstep, one batched product per
step for as many as a stack holds, and their partial sums are added in
chain order.
The closed resolvent form is available as an independent reference.
The substitution alpha = 1/(1 + lambda), T = I + B turns A~_lambda into
the discrete Abel average of T exactly, an algebraic identity whose
defect check() reports next to the quadratures.
"""

import functools
import itertools
import math

import numpy as np
from scipy.linalg import eig_banded

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
# exp(u B / lambda) has fallen to e^-SIMPSON_HORIZON; a weight u^p e^-u, which
# peaks at u = p with width sqrt(p), moves the horizon out by p + 8 sqrt(p).
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


def abel_average_closed(B, lam):
    """lambda (lambda I - B)^{-1}, the resolvent form of the Abel average."""
    return _resolvent(linalg.as_matrix(B, square=True),
                      linalg.check_real("lambda", lam, 0.0))


def _resolvent(B, lam):
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


def _weighted_sum(B, lam, nodes, weights):
    """sum_i w_i exp(u_i B / lambda), added in node order.  The nodes go to
    linalg.matrix_exponentials in stacks of up to linalg.STACK_CHUNK_BYTES
    (at least one node each): one expm call per rule at small n, and
    O(STACK_CHUNK_BYTES + n^2) memory at any n."""
    total = np.zeros(B.shape, dtype=np.complex128)
    chunk = max(1, linalg.STACK_CHUNK_BYTES // (16 * B.size))
    for start in range(0, len(nodes), chunk):
        stop = start + chunk
        stack = linalg.matrix_exponentials(B, nodes[start:stop] / lam)
        for w_i, E_i in zip(weights[start:stop], stack):
            total += w_i * E_i
    return total


def _grid_sum(B, lam, u, density, first, step):
    """sum_k density_k exp(u_k B / lambda) over an arithmetic progression u.

    first is exp(u_0 B / lambda) and step is exp((u_1 - u_0) B / lambda).
    The progression splits into segments of EXPM_ANCHOR_EVERY nodes: an
    anchor, a direct expm (first, for the first segment), and the anchor's
    products with step, so rounding accumulates over fewer than
    EXPM_ANCHOR_EVERY products.  A pass takes the anchors of as many
    segments as one stack of linalg.STACK_CHUNK_BYTES holds nodes of, by
    one expm call, and advances their chains in lockstep: one batched
    product per step, which a short last segment leaves when it ends.  Each
    segment's weighted partial sum is added to the total in segment order,
    so the value does not depend on how many segments a pass holds.  Raises
    Overflow when the sum is not finite.
    """
    every = EXPM_ANCHOR_EVERY
    per_pass = every * max(1, linalg.STACK_CHUNK_BYTES
                           // (16 * B.size * every))
    total = np.zeros(B.shape, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(u), per_pass):
            anchors = np.arange(start, min(start + per_pass, len(u)), every)
            direct = anchors if start else anchors[1:]
            node = linalg.matrix_exponentials(B, u[direct] / lam)
            if not start:
                node = np.concatenate(([first], node))
            partial = density[anchors, None, None] * node
            last = len(u) - anchors[-1]  # nodes from the last anchor on
            for j in range(1, every):
                active = len(anchors) - (j >= last)
                if not active:
                    break
                node = node[:active] @ step
                partial[:active] += density[anchors[:active] + j, None,
                                            None] * node
            for segment in partial:
                total += segment
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
        # normalized weight u^p e^{-u} / Gamma(p+1) in the log domain; at
        # p = 0 the weight is e^{-u}, where 0 * log(0) would give nan at u = 0
        with np.errstate(divide="ignore"):
            log_weight = power * np.log(u) - u if power else -u
        density = np.exp(log_weight - math.lgamma(power + 1.0))
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
        if linalg.norm_at_most(coarse - fine, SELF_CHECK_TOL * scale):
            return fine, m
        if 2 * m > max_m:
            disagreement = linalg.operator_norm(coarse - fine) / scale
            raise QuadratureUnstable(
                f"{rule}: node counts {m} and {2 * m} disagree by "
                f"{disagreement:.3e} relative (> {SELF_CHECK_TOL})")
        m *= 2
        coarse = fine


def _quadrature(B, lam, abscissa, power, scheme):
    """(value, m) of the scheme on a validated B and lambda, with abscissa
    from _abscissa(B, lam)."""
    if scheme not in (SCHEME_GAUSS_LAGUERRE, SCHEME_TRUNCATED_SIMPSON):
        raise ValueError(f"unknown quadrature scheme: {scheme}")
    m = START_NODE_COUNT
    rule = f"{scheme} with weight u^{power:g} e^-u"
    if scheme == SCHEME_GAUSS_LAGUERRE:
        rules = (_weighted_sum(B, lam, *laguerre_rule(m << k, power=power))
                 for k in itertools.count())
        return _settle(rules, m, MAX_NODE_COUNT, rule)
    # exactly SIMPSON_HORIZON whenever p = 0 and w = 0
    u_max = (SIMPSON_HORIZON + power + 8.0 * math.sqrt(power)) \
        / (1.0 - max(abscissa, 0.0) / lam)
    return _settle(_simpson_estimates(B, lam, power, m, u_max),
                   m, SIMPSON_MAX_PANELS, rule)


def abel_average_quadrature(B, lam, scheme=SCHEME_GAUSS_LAGUERRE):
    """Abel average by numerical integration of lambda e^(-lambda s) T_s.

    Requires max Re sigma(B) < lambda, otherwise the improper integral
    diverges and IntegralDiverges is raised up front.  scheme is
    SCHEME_GAUSS_LAGUERRE or SCHEME_TRUNCATED_SIMPSON.  Returns (value, m):
    the result at 2m nodes and the m it passed the self-check against.
    """
    return abel_power_quadrature(B, lam, 1, scheme)


def abel_power_quadrature(B, lam, n, scheme=SCHEME_GAUSS_LAGUERRE):
    """n-th power of the Abel average by a single weighted integral.

    Uses the generalized Laguerre weight u^(n-1) exp(-u) after the
    substitution u = lambda t; the factorial normalization is absorbed
    into the weights (see laguerre_rule).  Returns (value, m) as
    abel_average_quadrature does.
    """
    n = linalg.check_count("n", n, 1)
    B = linalg.as_matrix(B, square=True)
    lam = linalg.check_real("lambda", lam, 0.0)
    return _quadrature(B, lam, _abscissa(B, lam), float(n - 1), scheme)


def check(B, lam, n):
    """The semigroup report's fields under its keys; closed_form is a matrix.

    Gauss-Laguerre and truncated Simpson are compared with the closed form,
    the power integral with its n-th power, and the discrete average
    A_alpha(I + B), alpha = 1/(1 + lambda), with the closed form (the
    bridge), all from one resolvent solve and one Schur form.  A closed
    power below the smallest normal double raises Overflow: its check
    would compare zero with zero.
    """
    n = linalg.check_count("n", n, 1)
    B = linalg.as_matrix(B, square=True)
    lam = linalg.check_real("lambda", lam, 0.0)
    tiny = np.finfo(np.float64).tiny
    closed = _resolvent(B, lam)
    scale = max(linalg.operator_norm(closed), tiny)
    abscissa = _abscissa(B, lam)
    quad, gl_nodes = _quadrature(B, lam, abscissa, 0.0, SCHEME_GAUSS_LAGUERRE)
    simpson, panels = _quadrature(B, lam, abscissa, 0.0,
                                  SCHEME_TRUNCATED_SIMPSON)
    # at n = 1 the power integral's weight is the average's own
    power, power_nodes = (quad, gl_nodes) if n == 1 else _quadrature(
        B, lam, abscissa, float(n - 1), SCHEME_GAUSS_LAGUERRE)
    closed_power = np.linalg.matrix_power(closed, n)
    power_scale = linalg.operator_norm(closed_power)
    if power_scale < tiny:
        raise Overflow(f"the power underflowed: ||closed form^{n}|| = "
                       f"{power_scale:.3g}, below the smallest normal double")
    alpha = 1.0 / (1.0 + lam)
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
