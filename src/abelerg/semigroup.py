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
integrals).  A Gauss-Laguerre rule exponentiates first the head of its
nodes, up to the last whose term bound 2 w_i e^(u_i mu / lambda) reaches
HEAD_CUTOFF.  It drops the tail only when every tail bound is below
2^-54 of the head sum's smallest real or imaginary part, so that no tail
term could change a bit of the sum; otherwise (a zero part, as for a
diagonal B, or bounds that do not decay) it exponentiates the tail as
well.  A real B's sum has no imaginary part, so its rules skip no node
and go whole.  Either way the rule's value is the full rule's bit for
bit.  The nodes go as stacks of up to linalg.STACK_CHUNK_BYTES, each in
one batched scaling-and-squaring pass that holds three stack-sized
arrays: a single pass per part of a rule at small n.  Simpson's nodes
lie on nested uniform grids, where the integrand e^-u exp(u B / lambda)
is a geometric progression: the first grid is summed in closed form by
O(log m) products, and each finer grid's sum is the coarser one's plus
its odd nodes, one product with one more matrix exponential.
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
# A Gauss-Laguerre rule exponentiates first the nodes up to the last whose
# term bound is at least this (_weighted_sum).  The tail is dropped only
# when its bounds are below 2^-54 of the head sum's smallest real or
# imaginary part, and the weights sum to 1, so this cutoff keeps the tail
# for any part below about 2^-26.  A larger one leaves the tail
# test failing more often: at 2^-64 the benchmark's requests exponentiated
# more nodes in all (about 220 per request against 158).
HEAD_CUTOFF = 2.0 ** -80


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


def _weighted_sum(B, lam, nodes, weights, expm, mu=math.inf):
    """sum_i w_i exp(u_i B / lambda), added in node order, with expm =
    linalg.exponentials_of(B) and mu = linalg.log_norm(B), or inf, which
    bounds no term: the whole rule is then the head.

    Only the head of the rule is exponentiated first: the nodes up to the
    last one whose bound b_i (_term_bounds) is at least HEAD_CUTOFF.  The
    tail is dropped when every tail bound is below 2^-54 times the
    smallest absolute real or imaginary part of the head sum.  Each tail
    term's parts are then below half the spacing of the doubles on either
    side of the head sum's part, so round-to-nearest leaves that part
    unchanged as each is added, and the sum of the whole rule in node
    order is the head sum bit for bit.  Otherwise, as when a part is 0
    (a diagonal B) or the bounds do not decay (mu near lambda, or a
    non-normal B), the tail is exponentiated and added after the head:
    the full rule's additions in its order.  A real B, whose sum has no
    imaginary part, takes its whole rule as the head.  The nodes go to
    expm in stacks of up to linalg.STACK_CHUNK_BYTES (at least one node
    each): one call per part at small n, and O(STACK_CHUNK_BYTES + n^2)
    memory at any n."""
    ts = nodes / lam
    bounds = _term_bounds(B, ts, weights, mu)
    big = np.flatnonzero(~(bounds < HEAD_CUTOFF))
    head = big[-1] + 1 if len(big) else 0
    total = _running_sum(expm, ts[:head], weights[:head],
                         np.zeros(B.shape, dtype=np.complex128))
    if head < len(ts):
        floor = min(np.abs(total.real).min(), np.abs(total.imag).min())
        if not bounds[head:].max() < 2.0 ** -54 * floor:
            total = _running_sum(expm, ts[head:], weights[head:], total)
    return total


def _running_sum(expm, ts, weights, total):
    """total + sum_i w_i expm(ts)[i], added in order, by stacks of up to
    linalg.STACK_CHUNK_BYTES."""
    chunk = max(1, linalg.STACK_CHUNK_BYTES // (16 * total.size))
    for start in range(0, len(ts), chunk):
        stop = start + chunk
        stack = expm(ts[start:stop])
        stack *= weights[start:stop, None, None]
        stack[0] += total
        # a running sum adds the slices one by one at every n (a reduction
        # over a (k, 1, 1) stack would sum pairwise)
        total = np.add.accumulate(stack, axis=0, out=stack)[-1].copy()
    return total


def _term_bounds(B, ts, weights, mu):
    """b_i = w_i (2 e^(t_i mu) + 2^-960) for each node t_i = u_i / lambda,
    or inf at every node where B is real or g_i > 2 below at the largest
    t_i; inf and NaN (e^(t_i mu) overflowing where w_i is 0) are never
    below the cutoff, so such nodes are never skipped.  Every real and
    imaginary part of the computed term fl(w_i E_i), E_i = expm(ts)[i],
    is at most b_i when ||E_i||_2 <= g_i e^(t_i mu_2(B)) and g_i <= 2.

    g_i is bounded by first-order rounding bounds (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002), with u = 2^-53,
    N = ||t_i B||_1, and s <= ceil(log2(N / theta13))_+ + 1 the slice's
    squarings, so 2^s <= k = max(4 N / theta13, 2).  _dropped_squarings
    only takes squarings off that norm count: at ||X||_1 <= theta13 its
    ell term is already below u.  The +1 covers the rounding of N and
    log2.

    - mu is the top eigenvalue of the rounded Hermitian part from a
      backward stable solver: |mu - mu_2(B)| <= (n + 1) u ||B||_F <=
      (n + 1) sqrt(n) u ||B||_1, a factor e^((n + 1) sqrt(n) u N).
    - The scaling rule keeps the Pade-13 approximant's backward error
      within u (Higham 2005; Al-Mohy and Higham 2009): r(X) =
      exp(X + dX), ||dX||_1 <= u ||X||_1, for X = 2^-s t B.  So
      ||r(X)||_2 <= e^(mu_2(X) + sqrt(n) u ||X||_1), and its 2^s-th power
      is at most e^(t mu_2(B)) e^(sqrt(n) u N).
    - The powers, coefficient products and LU solve that evaluate r(X)
      err by rho ||r(X)||_2 in the 2-norm, rho = O(n^2 u) times the
      condition of the denominator q13(X), which the scaling rule keeps
      small (Higham 2005, section 2).
    - A complex product errs by |fl(R R) - R R| <= gamma_(n+2) |R| |R|
      entrywise, and || |R| ||_2 <= sqrt(n) ||R||_2, so ||fl(R R)||_2 <=
      (1 + delta) ||R||_2^2 with delta = n gamma_(n+2) <= 3.03 n^2 u.  With
      c_j = (1 + delta) ||R_j||_2 the squarings give c_(j+1) <= c_j^2, so
      ||E_i||_2 <= ((1 + rho)(1 + delta))^(2^s) ||r(X)||_2^(2^s).
    - The weight product adds a factor 1 + u; an entry's real and
      imaginary parts are at most its modulus, at most ||E_i||_2.
    - Gradual underflow adds absolute errors of about n 2^-1073 per
      squaring, each doubled by the later ones: below 2^-1000 for
      n <= linalg.MAX_DIMENSION and s <= 52, whence the 2^-960.

    Allowing rho + delta <= 64 n^2 u, ln g_i <= (n + 2) sqrt(n) u N +
    64 n^2 u k + u.  On the semigroup benchmark's generators (n <= 8,
    ||B|| / lambda <= 3) that is below 4e-9, so the flat 2 also leaves
    room for constants these first-order bounds understate, and for the
    rounding of b_i itself, whose exp argument is at most 745 in
    magnitude where it neither overflows nor rounds to 0.  g_i <= 2 also
    keeps s within the kernel's 52 squarings, so no skipped slice would
    have raised Overflow.  The bounds are taken under np.errstate:
    e^(t_i mu) may overflow, and meet a zero weight."""
    n = B.shape[0]
    u = 0.5 * linalg.EPS
    # g_i grows with t_i: the largest node's bounds every node's.  A real
    # B's rule sums to a real matrix, whose zero imaginary parts no tail
    # test passes, so its nodes all go in the head too.
    N = float(ts.max()) * float(linalg._norm1(B))
    k = max(4.0 * N / linalg._THETA13, 2.0)
    if not B.imag.any() or not (n + 2) * math.sqrt(n) * u * N \
            + 64 * n * n * u * k + u <= math.log(2.0):
        return np.full(len(ts), np.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        return weights * (2.0 * np.exp(ts * mu) + 2.0 ** -960)


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
        if linalg.norm_at_most(coarse - fine, SELF_CHECK_TOL * scale):
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
    mu = linalg.log_norm(B)."""
    m = START_NODE_COUNT
    rules = (_weighted_sum(B, lam, *laguerre_rule(m << k, power=power), expm,
                           mu)
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
