"""Abel and Cesaro averages of a matrix T, with their ergodic limits.

The discrete Abel average of T at parameter alpha in (0, 1) is

    A_alpha = (1 - alpha) (I - alpha T)^{-1},

the resolvent-weighted mean of the powers of T.  Powers of A_alpha either
converge to the projection onto Ker(I - T) along Im(I - T) or they do not
converge at all; this module computes the averages, iterates their powers
with a certificate of what happened, and builds that projection directly
from kernel/image bases so the two routes can be compared.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linalg
from .errors import DecompositionFails, PoleHit, ResolventPole, SingularMatrix

# Power growth past this norm is treated as divergence, not roundoff.
BLOW_UP_THRESHOLD = 1e8

DEFAULT_TOL = 1e-10
DEFAULT_MAX_DOUBLINGS = 60


def check_alpha(alpha):
    """Validate alpha strictly inside (0, 1) and return it as float.

    Both endpoints are degenerate: alpha = 0 gives the identity, alpha = 1
    is the ergodic limit itself and is reachable only as a limit.
    """
    return linalg.check_real("alpha", alpha, 0.0, 1.0)


@dataclass(frozen=True)
class RieszProjection:
    """Projection E onto Ker(I - T) along Im(I - T), with the orthonormal
    kernel and image bases (columns) it was built from as witnesses."""

    matrix: np.ndarray
    kernel: np.ndarray
    image: np.ndarray
    idempotency_defect: float


@dataclass
class ConvergenceReport:
    """Outcome of iterating the powers of a matrix by repeated squaring.

    steps is the exponent 2^k reached when convergence (or divergence) was
    declared.  history has one (exponent, defect_bound) row per doubling,
    where defect_bound is the upper bound that linalg.norm_at_most takes
    of the Cauchy increment ||M^(2^(k+1)) - M^(2^k)||_2 (the Frobenius
    norm, or the exact 2-norm for M of size 2x2 or 1x1), or inf on blow-up.
    final_defect is the exact SVD 2-norm of the last increment, or inf on
    blow-up.  divergence_reason is "blow_up" or "no_cauchy" when converged
    is False.
    """

    converged: bool
    limit: Optional[np.ndarray]
    steps: int
    final_defect: float
    history: list
    divergence_reason: Optional[str] = None


def abel_average(T, alpha):
    """(1 - alpha) (I - alpha T)^{-1}.

    Raises ResolventPole when I - alpha T is numerically singular, i.e.
    1/alpha lies in the spectrum of T.
    """
    T = linalg.as_matrix(T, square=True)
    a = check_alpha(alpha)
    n = T.shape[0]
    eye = np.eye(n, dtype=np.complex128)
    try:
        return linalg.solve_linear(eye - a * T, (1.0 - a) * eye)
    except SingularMatrix as exc:
        raise ResolventPole(
            f"1/alpha = {1.0 / a:.17g} lies in the numerical spectrum") from exc


def cesaro_average(T, N):
    """Arithmetic mean N^{-1} sum_{n=0}^{N-1} T^n."""
    T = linalg.as_matrix(T, square=True)
    N = linalg.check_count("N", N, 1)
    _, S = linalg.power_and_geometric_sum(T, N)
    return S / N


def power_iterate(M, tol=DEFAULT_TOL):
    """Iterate M, M^2, M^4, ... until the sequence settles or escapes.

    Convergence requires four things at once: the Cauchy increment
    ||M^(2^(k+1)) - M^(2^k)|| <= tol; its bound (the history row) at most
    half the previous doubling's or at most the roundoff floor
    8 n eps max(1, ||L||_F), since a small increment that still grows, as
    k c for [[1, c], [0, 1]], is drift, not a limit; idempotency
    ||L^2 - L|| <= 10 tol of the candidate L; and the fixed-point identity
    ||M L - L|| <= 10 tol.  The last two reject spurious fixed points of
    squaring (for instance a sign-alternating factor, whose even powers
    are constant).  Each test is linalg.norm_at_most, which decides as the
    SVD 2-norm would but mostly from O(n^2) bounds, so an SVD is taken only
    for the reported final_defect and for the rare test the bounds leave
    open (every test of a 2x2 or smaller M takes one, as norm_at_most does
    there).  Divergence is an in-band result: reason "blow_up" when any
    entry climbs past BLOW_UP_THRESHOLD, "no_cauchy" when
    DEFAULT_MAX_DOUBLINGS doublings do not settle it.
    """
    M = linalg.as_matrix(M, square=True)
    tol = linalg.check_tolerance("tol", tol)
    history = []
    P = M.copy()
    exponent = 1
    previous = 0.0  # no bound before the first doubling to halve
    floor = 8.0 * M.shape[0] * linalg.EPS
    for _ in range(DEFAULT_MAX_DOUBLINGS):
        with np.errstate(over="ignore", invalid="ignore"):
            Q = P @ P
        # the max is nan when any entry is, so this also catches nan and inf
        if not np.abs(Q).max() <= BLOW_UP_THRESHOLD:
            history.append((exponent, float("inf")))
            return ConvergenceReport(
                converged=False, limit=None, steps=exponent,
                final_defect=float("inf"), history=history,
                divergence_reason="blow_up")
        increment = Q - P
        cauchy = linalg.norm_at_most(increment, tol)
        history.append((exponent, cauchy.upper))
        if (cauchy
                and (cauchy.upper <= 0.5 * previous or cauchy.upper
                     <= floor * max(1.0, np.linalg.norm(Q)))
                and linalg.norm_at_most(Q @ Q - Q, 10.0 * tol)
                and linalg.norm_at_most(M @ Q - Q, 10.0 * tol)):
            return ConvergenceReport(
                converged=True, limit=Q, steps=exponent,
                final_defect=_exact_norm(increment, cauchy), history=history)
        P = Q
        previous = cauchy.upper
        exponent *= 2
    return ConvergenceReport(
        converged=False, limit=None, steps=exponent,
        final_defect=_exact_norm(increment, cauchy), history=history,
        divergence_reason="no_cauchy")


def _exact_norm(X, test):
    """||X||_2, reusing the SVD norm that test (norm_at_most of X) took."""
    return test.norm if test.norm is not None else linalg.operator_norm(X)


def riesz_projection_at_one(T, rank_tol):
    """Projection onto Ker(I - T) along Im(I - T) from rank-revealing bases.

    Built by stacking orthonormal bases K of the kernel and V of the image
    of I - T, both at the relative rank threshold rank_tol, and conjugating
    diag(I_k, 0) by [K V].  Fails loudly, with DecompositionFails, exactly
    when the two subspaces do not decompose the space: dimensions short of
    n, a stacked basis with sigma_min <= rank_tol * sigma_max, or a
    projection whose idempotency defect exceeds 1e-8.
    """
    T = linalg.as_matrix(T, square=True)
    n = T.shape[0]
    M = np.eye(n, dtype=np.complex128) - T
    K = linalg.kernel_basis(M, rank_tol)
    V = linalg.image_basis(M, rank_tol)
    k, v = K.shape[1], V.shape[1]
    if k + v != n:
        raise DecompositionFails(
            f"dim Ker(I-T) + dim Im(I-T) = {k} + {v} != {n}")
    W = np.hstack([K, V])
    s = np.linalg.svd(W, compute_uv=False)
    if s[-1] <= rank_tol * s[0]:
        raise DecompositionFails(
            f"stacked kernel/image basis is numerically singular "
            f"(sigma_min/sigma_max = {s[-1] / s[0]:.3e})")
    Winv = linalg.solve_linear(W, np.eye(n, dtype=np.complex128))
    E = W[:, :k] @ Winv[:k, :]
    defect = linalg.operator_norm(E @ E - E)
    if defect > 1e-8:
        raise DecompositionFails(
            f"projection idempotency defect {defect:.3e} exceeds 1e-8")
    return RieszProjection(matrix=E, kernel=K, image=V,
                           idempotency_defect=float(defect))


def spectral_map(zeta, alpha):
    """The Moebius map f_alpha(zeta) = (1 - alpha) / (1 - alpha zeta).

    Sends the spectrum of T to the spectrum of its Abel average; maps the
    half-plane Re zeta <= 1 onto the closed disk |w - 1/2| <= 1/2 with the
    fixed point f_alpha(1) = 1.  Raises PoleHit within 1e-14 relative
    distance of the pole zeta = 1/alpha.
    """
    a = check_alpha(alpha)
    z = complex(zeta)
    pole = 1.0 / a
    if abs(z - pole) <= 1e-14 * abs(pole):
        raise PoleHit(f"zeta = {z} is the pole 1/alpha of the spectral map")
    return (1.0 - a) / (1.0 - a * z)


def in_omega_alpha(zeta, alpha):
    """Strict inequality |alpha zeta - 1| > 1 - alpha.

    The region where the spectral map takes values inside the open unit
    disk, |f_alpha(zeta)| < 1; boundary points return False.
    """
    a = check_alpha(alpha)
    z = complex(zeta)
    return bool(abs(a * z - 1.0) > 1.0 - a)
