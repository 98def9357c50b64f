"""Dense complex linear algebra kernel.

Everything operates on square or rectangular complex matrices represented
as ``numpy.ndarray`` with dtype ``complex128``.  All norms are the operator
2-norm (largest singular value) unless a function name says otherwise.
"""

import math
import numbers
import operator
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

# Bytes of a stack of matrices that one batched call takes: the sweeps'
# running sums for operator_norms, the Gauss-Laguerre nodes for
# matrix_exponentials.  Such loops hold O(STACK_CHUNK_BYTES + n^2) memory
# however many matrices they go through.
STACK_CHUNK_BYTES = 1 << 20


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
    """Validate a tolerance strictly in (0, 1) and return it as float: at 1
    or more every relative rank test and Cauchy step would pass it."""
    return check_real(name, value, 0.0, 1.0)


def check_real(name, value, low=-math.inf, high=math.inf):
    """Validate a finite real strictly in (low, high) and return it as float.
    A string, bool or array raises ValueError naming the argument: float()
    would parse "0.5" and read True as 1.0.  NaN and inf fail the range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    x = float(value)
    if not low < x < high:
        if high < math.inf:
            need = f"lie strictly in ({low:g}, {high:g})"
        elif low > -math.inf:
            need = f"be finite and exceed {low:g}"
        else:
            need = "be finite"
        raise ValueError(f"{name} must {need}, got {value}")
    return x


def check_count(name, value, minimum, maximum=None):
    """Validate an integer in [minimum, maximum] (no upper bound when maximum
    is None) and return it as int.  A float, string or bool raises
    ValueError naming the argument: int() would truncate or parse it."""
    try:
        count = operator.index(value)
        if isinstance(value, (bool, np.bool_)):
            raise TypeError
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if count < minimum or maximum is not None and count > maximum:
        raise ValueError(f"{name} must be >= {minimum}" if maximum is None
                         else f"{name} must lie in [{minimum}, {maximum}]")
    return count


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
    # a row sum beyond the double range makes the threshold infinite, so
    # every pivot reads as singular
    with np.errstate(over="ignore"):
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
    O(n * eps * ||A||) size for a converged QR iteration.  Raises Overflow
    when A - Z T Z* leaves the representable range.
    """
    A = as_matrix(A, square=True)
    try:
        T, Z = scipy.linalg.schur(A, output="complex")
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    values = np.diag(T).astype(np.complex128)
    order = np.lexsort((-np.angle(values), -np.abs(values), -values.real))
    with np.errstate(over="ignore", invalid="ignore"):
        residual = A - Z @ T @ Z.conj().T
    if not np.isfinite(residual).all():
        raise Overflow("the Schur factorization left the representable range")
    backward = operator_norm(residual)
    return EigenData(values=values[order], backward_error=float(backward))


def numerical_rank(A, threshold):
    """Number of singular values strictly above an absolute threshold."""
    s = np.linalg.svd(as_matrix(A), compute_uv=False)
    return int(np.sum(s > threshold))


def _rank_split(A, rank_tol):
    """Full SVD of A and its rank r: the count of singular values above
    rank_tol * sigma_max."""
    A = as_matrix(A)
    rank_tol = check_tolerance("rank_tol", rank_tol)
    U, s, Vh = np.linalg.svd(A)
    return U, Vh, int(np.sum(s > rank_tol * s[0]))


def kernel_basis(A, rank_tol):
    """Orthonormal basis of the numerical null space of A, as columns.

    Right singular vectors past the rank, including those of the exact
    zero singular values of a wide A.  An empty basis (no columns) is a
    valid result.
    """
    _, Vh, r = _rank_split(A, rank_tol)
    return Vh.conj().T[:, r:]


def image_basis(A, rank_tol):
    """Orthonormal basis of the numerical column space of A, as columns:
    the left singular vectors up to the rank (dual of kernel_basis)."""
    U, _, r = _rank_split(A, rank_tol)
    return U[:, :r]


def matrix_exponential(B, t):
    """exp(t B) by scaling and squaring: matrix_exponentials at one t.

    Raises Overflow when entries leave the representable range.
    """
    return matrix_exponentials(B, np.array([check_real("t", t)]))[0]


def matrix_exponentials(B, ts):
    """exp(t B) for each t of a 1-d float array ts, as a (len(ts), n, n)
    stack, by one scipy expm call.  scipy runs the same Pade code on each
    slice of a stack, so slice i is bit for bit expm(ts[i] * B).

    Raises Overflow naming the first t whose expm computation leaves the
    representable range.
    """
    B = as_matrix(B, square=True)
    ts = np.asarray(ts)
    if ts.ndim != 1 or ts.dtype.kind != "f":
        raise ValueError(f"ts must be a 1-d array of floats, got shape "
                         f"{ts.shape} and dtype {ts.dtype}")
    if not np.isfinite(ts).all():
        raise ValueError("ts must be finite")
    ts = ts.astype(np.float64, copy=False)
    with np.errstate(over="ignore", invalid="ignore"):
        E = scipy.linalg.expm(ts[:, None, None] * B)
    finite = np.isfinite(E).all(axis=(1, 2))
    if not finite.all():
        # scaling and squaring can overflow inside on an exp(tB) that is
        # itself representable, so the message blames the computation
        raise Overflow(f"the expm computation of exp("
                       f"{float(ts[finite.argmin()])} * B) overflowed")
    return E


def power_and_geometric_sum(T, N):
    """(T^N, I + T + ... + T^(N-1)) of a validated square T and N >= 1, by
    O(log N) products: binary powering from the leading bit of N.

    Raises Overflow when either leaves the representable range; the
    products run under np.errstate, so no numpy warning escapes.
    """
    P = np.eye(T.shape[0], dtype=np.complex128)
    S = np.zeros_like(P)
    for bit in bin(N)[2:]:
        with np.errstate(over="ignore", invalid="ignore"):
            S = S + P @ S
            P = P @ P
            if bit == "1":
                S = S + P
                P = P @ T
        if not (np.all(np.isfinite(S)) and np.all(np.isfinite(P))):
            raise Overflow("geometric sum left the representable range")
    return P, S


def operator_norm(A):
    """Largest singular value of A; raises Overflow past the double range."""
    norm = float(np.linalg.norm(as_matrix(A), 2))
    if not math.isfinite(norm):
        raise Overflow("the 2-norm left the representable range")
    return norm


def operator_norms(stack):
    """operator_norm of each matrix in a (k, m, n) stack of finite entries,
    bit for bit, by one batched SVD call."""
    return np.linalg.svd(stack, compute_uv=False).max(axis=-1)


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
    bound = check_real("bound", bound)
    if bound < 0.0:
        raise ValueError(f"bound must be >= 0, got {bound}")
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

