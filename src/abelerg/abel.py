"""Abel and Cesaro averages of a matrix T, with their ergodic limits.

The discrete Abel average of T at parameter alpha in (0, 1) is

    A_alpha = (1 - alpha) (I - alpha T)^{-1},

the resolvent-weighted mean of the powers of T.  Powers of A_alpha either
converge to the projection onto Ker(I - T) along Im(I - T) or they do not
converge at all; this module computes the averages, iterates their powers
with a certificate of what happened, and builds that projection directly
from the kernels of I - T and its adjoint so the two routes can be
compared.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linalg
from .errors import DecompositionFails, ResolventPole, SingularMatrix

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
    bases (columns) of the kernels of I - T and of its adjoint it was
    built from as witnesses: E = kernel (cokernel* kernel)^-1 cokernel*."""

    matrix: np.ndarray
    kernel: np.ndarray
    cokernel: np.ndarray
    idempotency_defect: float


@dataclass
class ConvergenceReport:
    """Outcome of iterating the powers of a matrix by repeated squaring.

    steps is the exponent 2^k reached when convergence (or divergence) was
    declared.  history has one (exponent, defect_bound) row per doubling,
    where defect_bound is the upper bound that linalg._norm_at_most takes
    of the Cauchy increment ||M^(2^(k+1)) - M^(2^k)||_2 (the Frobenius
    norm, or the exact 2-norm for M of size 2x2 or 1x1), or inf on blow-up.
    final_defect is the deciding test's bound on the last increment: its
    SVD 2-norm where that test took one, else the last row, or inf on
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
    are constant).  Each test is linalg._norm_at_most, which decides as
    the SVD 2-norm would but mostly from O(n^2) bounds, so an SVD is taken
    only for the rare test the bounds leave open (every test of a 2x2 or
    smaller M takes one, as _norm_at_most does there), and final_defect
    is the last Cauchy test's own number.  The tests run under this function's
    np.errstate, as _norm_at_most asks.  Divergence is an in-band result:
    reason "blow_up" when any entry climbs past BLOW_UP_THRESHOLD,
    "no_cauchy" when DEFAULT_MAX_DOUBLINGS doublings do not settle it.
    """
    M = linalg.as_matrix(M, square=True)
    tol = linalg.check_tolerance("tol", tol)
    history = []
    P = M.copy()
    exponent = 1
    previous = 0.0  # no bound before the first doubling to halve
    floor = 8.0 * M.shape[0] * linalg.EPS
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(DEFAULT_MAX_DOUBLINGS):
            Q = P @ P
            # the max is nan when any entry is, so this also catches nan
            # and inf
            if not np.abs(Q).max() <= BLOW_UP_THRESHOLD:
                history.append((exponent, float("inf")))
                return ConvergenceReport(
                    converged=False, limit=None, steps=exponent,
                    final_defect=float("inf"), history=history,
                    divergence_reason="blow_up")
            # the gate shows Q finite, so the tests need no checks
            cauchy, upper, norm = linalg._norm_at_most(Q - P, tol)
            history.append((exponent, upper))
            defect = norm if norm is not None else upper
            if (cauchy
                    and (upper <= 0.5 * previous or upper
                         <= floor * max(1.0, np.linalg.norm(Q)))
                    and linalg._norm_at_most(Q @ Q - Q, 10.0 * tol)[0]
                    and linalg._norm_at_most(M @ Q - Q, 10.0 * tol)[0]):
                return ConvergenceReport(
                    converged=True, limit=Q, steps=exponent,
                    final_defect=defect, history=history)
            P = Q
            previous = upper
            exponent *= 2
    return ConvergenceReport(
        converged=False, limit=None, steps=exponent,
        final_defect=defect, history=history,
        divergence_reason="no_cauchy")


def riesz_projection_at_one(T, rank_tol):
    """Projection onto Ker(I - T) along Im(I - T) from the kernel pairing.

    X and Y are orthonormal bases of the kernels of M = I - T and of M*
    (so Y spans Im(M)-perp), both at the relative rank threshold rank_tol.
    The sum is direct iff the k x k pairing C = Y* X is nonsingular, and
    then E = X C^-1 Y* (Golub & Van Loan, Matrix Computations, 4th ed.,
    section 7.2.2).  s = sigma_min(C), the sine of the smallest angle
    between Ker M and Im M, gives the stacked basis [X, basis of Im M]
    sigma_min/sigma_max = s / (1 + c) and 1/sigma_min = sqrt(1 + c) / s,
    c = sqrt(1 - s^2).  Fails loudly, with DecompositionFails, exactly
    when the two subspaces do not decompose the space: kernels of
    different dimensions, sigma_min/sigma_max <= rank_tol, or an
    idempotency defect above 1e-8 max(1, 1/sigma_min) >= 1e-8 ||E||.
    """
    T = linalg.as_matrix(T, square=True)
    M = np.eye(T.shape[0], dtype=np.complex128) - T
    X = linalg.kernel_basis(M, rank_tol)
    Y = linalg.kernel_basis(M.conj().T, rank_tol)
    if X.shape[1] != Y.shape[1]:
        raise DecompositionFails(
            f"kernels of I - T and its adjoint differ in dimension "
            f"({X.shape[1]} against {Y.shape[1]})")
    C = Y.conj().T @ X
    # C's singular values are cosines, so at most 1; an empty C has none
    with linalg.lapack_errors:
        s = float(np.linalg.svd(C, compute_uv=False).min(initial=1.0))
    c = np.sqrt(1.0 - s * s)
    if s <= rank_tol * (1.0 + c):
        raise DecompositionFails(
            f"stacked kernel/image basis is numerically singular "
            f"(sigma_min/sigma_max = {s / (1.0 + c):.3e})")
    with linalg.lapack_errors:
        E = X @ np.linalg.solve(C, Y.conj().T)
    defect = linalg.operator_norm(E @ E - E)
    budget = 1e-8 * max(1.0, np.sqrt(1.0 + c) / s)
    if defect > budget:
        raise DecompositionFails(
            f"projection idempotency defect {defect:.3e} exceeds "
            f"{budget:.3e}")
    return RieszProjection(matrix=E, kernel=X, cokernel=Y,
                           idempotency_defect=float(defect))


def spectral_map(zeta, alpha):
    """The Moebius map f_alpha(zeta) = (1 - alpha) / (1 - alpha zeta).

    Sends the spectrum of T to the spectrum of its Abel average; maps the
    half-plane Re zeta <= 1 onto the closed disk |w - 1/2| <= 1/2 with the
    fixed point f_alpha(1) = 1.  Raises ResolventPole within 1e-14 relative
    distance of the pole zeta = 1/alpha.
    """
    a = check_alpha(alpha)
    z = complex(zeta)
    pole = 1.0 / a
    if abs(z - pole) <= 1e-14 * abs(pole):
        raise ResolventPole(f"zeta = {z} is the pole 1/alpha of the spectral map")
    return (1.0 - a) / (1.0 - a * z)


def in_omega_alpha(zeta, alpha):
    """Strict inequality |alpha zeta - 1| > 1 - alpha.

    The region where the spectral map takes values inside the open unit
    disk, |f_alpha(zeta)| < 1; boundary points return False.
    """
    a = check_alpha(alpha)
    z = complex(zeta)
    return bool(abs(a * z - 1.0) > 1.0 - a)
