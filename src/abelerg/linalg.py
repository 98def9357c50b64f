"""Dense complex linear algebra kernel.

Everything operates on square or rectangular complex matrices represented
as ``numpy.ndarray`` with dtype ``complex128``.  All norms are the operator
2-norm (largest singular value) unless a function name says otherwise.
"""

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from .errors import NoConvergence, Overflow, SingularMatrix

EPS = float(np.finfo(np.float64).eps)

# Dense eigen-solves get slow and memory-hungry past this point; raise the
# bound consciously rather than by accident.
MAX_DIMENSION = 512

# Relative margin by which the O(mn) norm bounds must clear a threshold
# before norm_at_most trusts them.  Rounding moves the bounds and the SVD
# norm by about n * eps relative, so far less than this: a decision the
# bounds take is the decision the SVD would take.
NORM_BOUND_MARGIN = 1e-8

# norm_at_most takes the SVD 2-norm outright of matrices no larger than
# this (2x2).  Their SVD costs about 20 us, so power_iterate on them keeps
# one exact norm per test: its history rows are the exact increments, and
# condition (i) keeps the one SVD per doubling that the benchmark's
# self-test counts on a 2x2 certify (perfbench/test_spans.py).
EXACT_NORM_MAX_DIMENSION = 2


def as_matrix(A, square=False):
    """Validate and return ``A`` as a finite complex128 matrix.

    Raises ValueError on non-2d input, an empty dimension, non-finite
    entries, or dimensions above MAX_DIMENSION.
    """
    M = np.asarray(A, dtype=np.complex128)
    if M.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {M.ndim}")
    if min(M.shape) == 0:
        raise ValueError(f"expected a nonempty matrix, got shape {M.shape}")
    if M.shape[0] > MAX_DIMENSION or M.shape[1] > MAX_DIMENSION:
        raise ValueError(
            f"dimension {M.shape} exceeds MAX_DIMENSION = {MAX_DIMENSION}")
    if not np.isfinite(M).all():
        raise ValueError("matrix entries must be finite")
    if square and M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    return M


def check_tolerance(name, value):
    """Validate a tolerance in (0, 1) and return it as float.

    NaN passes no comparison and infinity passes every one, so either would
    silently decide a convergence or rank test.  So would a tolerance of 1
    or more: every relative rank test and every Cauchy step of a bounded
    iteration would pass it.
    """
    tol = float(value)
    if not 0.0 < tol < 1.0:
        raise ValueError(
            f"{name} must be positive and finite, and below 1, got {value}")
    return tol


def default_rank_tol(A):
    """Relative rank threshold n * eps for an n x m matrix."""
    return max(A.shape) * EPS


@dataclass(frozen=True)
class EigenData:
    """Spectrum of a square matrix.

    values are sorted by descending real part, then descending modulus,
    then descending argument, so repeated runs produce identical reports.
    backward_error is ||A - Z T Z*||_2 for the Schur factorization the
    values were read from.
    """

    values: np.ndarray
    backward_error: float


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal basis of a subspace of C^n.

    vectors has shape (dimension_ambient, k) with orthonormal columns;
    k = 0 is a valid (empty) basis.
    """

    dimension_ambient: int
    vectors: np.ndarray

    @property
    def dim(self):
        return self.vectors.shape[1]


def solve_linear(A, rhs):
    """Solve A X = rhs by pivoted LU factorization.

    Raises SingularMatrix when a pivot of U falls below
    n * eps * ||A||_inf, which is how resolvent evaluations at (numerical)
    spectrum points announce themselves.
    """
    A = as_matrix(A, square=True)
    rhs = as_matrix(rhs)
    n = A.shape[0]
    if rhs.shape[0] != n:
        raise ValueError(
            f"right-hand side has {rhs.shape[0]} rows, expected {n}")
    with warnings.catch_warnings():
        # exact singularity is detected below and raised as SingularMatrix
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(A, check_finite=False)
    threshold = n * EPS * np.linalg.norm(A, np.inf)
    pivots = np.abs(np.diag(lu))
    if np.min(pivots) <= threshold:
        raise SingularMatrix(
            f"pivot {np.min(pivots):.3e} below threshold {threshold:.3e}")
    return scipy.linalg.lu_solve((lu, piv), rhs, check_finite=False)


def eigendecompose(A):
    """Eigenvalues with algebraic multiplicity, via a complex Schur form.

    The Schur route gives a computable backward-error certificate:
    A + E = Z T Z* exactly with ||E|| reported, at the usual
    O(n * eps * ||A||) size for a converged QR iteration.
    """
    A = as_matrix(A, square=True)
    try:
        T, Z = scipy.linalg.schur(A, output="complex")
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    values = np.diag(T).astype(np.complex128)
    order = np.lexsort((-np.angle(values), -np.abs(values), -values.real))
    backward = operator_norm(A - Z @ T @ Z.conj().T)
    return EigenData(values=values[order], backward_error=float(backward))


def numerical_rank(A, threshold):
    """Number of singular values strictly above an absolute threshold."""
    s = np.linalg.svd(as_matrix(A), compute_uv=False)
    return int(np.sum(s > threshold))


def kernel_basis(A, rank_tol=None):
    """Orthonormal basis of the numerical null space of A.

    Right singular vectors whose singular values are <= rank_tol * sigma_max
    (rank_tol defaults to n * eps).  An empty basis is a valid result.
    """
    A = as_matrix(A)
    rank_tol = default_rank_tol(A) if rank_tol is None \
        else check_tolerance("rank_tol", rank_tol)
    m, n = A.shape
    _, s, Vh = np.linalg.svd(A)
    # columns n-1 downto len(s) correspond to singular value 0 exactly
    mask = np.zeros(n, dtype=bool)
    mask[len(s):] = True
    mask[: len(s)] = s <= rank_tol * s[0]
    return SubspaceBasis(dimension_ambient=n, vectors=Vh.conj().T[:, mask])


def image_basis(A, rank_tol=None):
    """Orthonormal basis of the numerical column space of A (dual of kernel_basis)."""
    A = as_matrix(A)
    rank_tol = default_rank_tol(A) if rank_tol is None \
        else check_tolerance("rank_tol", rank_tol)
    U, s, _ = np.linalg.svd(A)
    mask = np.zeros(U.shape[1], dtype=bool)
    mask[: len(s)] = s > rank_tol * s[0]
    return SubspaceBasis(dimension_ambient=A.shape[0], vectors=U[:, mask])


def matrix_exponential(B, t):
    """exp(t B) by scaling and squaring.

    Raises Overflow when entries leave the representable range.
    """
    B = as_matrix(B, square=True)
    t = float(t)
    if not np.isfinite(t):
        raise ValueError("t must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        E = scipy.linalg.expm(t * B)
    if not np.all(np.isfinite(E)):
        raise Overflow(f"exp({t} * B) overflowed")
    return E


def operator_norm(A):
    """Largest singular value of A."""
    return float(np.linalg.norm(as_matrix(A), 2))


@dataclass(frozen=True)
class NormTest:
    """Outcome of norm_at_most; true exactly when the norm is small.

    upper is the O(mn) upper bound on ||A||_2, or the SVD 2-norm itself for
    a matrix no larger than EXACT_NORM_MAX_DIMENSION; norm is the SVD
    2-norm when one was taken, else None.
    """

    at_most: bool
    upper: float
    norm: Optional[float]

    def __bool__(self):
        return self.at_most


def norm_at_most(A, bound):
    """Decide ||A||_2 <= bound as operator_norm would, mostly without an SVD.

    This is the package's one test of "small norm".  It brackets the
    2-norm in O(mn) work (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 6):

        max column 2-norm <= ||A||_2 <= ||A||_F

    and answers from the bracket when it clears the bound by the relative
    NORM_BOUND_MARGIN, else from operator_norm.  Matrices no larger than
    EXACT_NORM_MAX_DIMENSION go straight to operator_norm, and their upper
    is that norm.
    """
    A = as_matrix(A)
    bound = float(bound)
    if not 0.0 <= bound < math.inf:
        raise ValueError(f"bound must be finite and >= 0, got {bound}")
    if max(A.shape) <= EXACT_NORM_MAX_DIMENSION:
        norm = operator_norm(A)
        return NormTest(norm <= bound, norm, norm)
    mags = np.abs(A)
    # squares overflow before the entries do; such input goes to the SVD
    with np.errstate(over="ignore"):
        column_squares = (mags * mags).sum(axis=0)
        upper = math.sqrt(column_squares.sum())
    if upper < math.inf:
        if math.sqrt(column_squares.max()) * (1.0 - NORM_BOUND_MARGIN) > bound:
            return NormTest(False, upper, None)
        if upper * (1.0 + NORM_BOUND_MARGIN) <= bound:
            return NormTest(True, upper, None)
    norm = operator_norm(A)
    return NormTest(norm <= bound, upper, norm)


def hermitian_part_max_eig(T):
    """Largest eigenvalue of (T + T*)/2.

    In an inner-product space this equals max Re W(T), the rightmost point
    of the numerical range's real part.
    """
    T = as_matrix(T, square=True)
    H = (T + T.conj().T) / 2.0
    return float(np.linalg.eigvalsh(H)[-1])
