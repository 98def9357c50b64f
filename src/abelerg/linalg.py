"""Dense complex linear algebra kernel.

Everything operates on square or rectangular complex matrices represented
as ``numpy.ndarray`` with dtype ``complex128``.  All norms are the operator
2-norm (largest singular value) unless a function name says otherwise.
A LAPACK failure (numpy's LinAlgError, a ValueError) leaves this module
as NoConvergence, a numerical error.  Matrix exponentials come from one
batched scaling-and-squaring kernel (matrix_exponentials) that takes a
whole stack of exp(t B) in one Pade-13 pass.
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


class _LapackErrors:
    """``with lapack_errors:`` re-raises numpy's LinAlgError as
    NoConvergence.  LinAlgError is a ValueError, which the CLI reads as bad
    input (exit 2); a LAPACK routine that fails on finite input is
    numerical trouble (exit 3).  A class, not contextlib.contextmanager:
    it wraps every SVD, and a generator would add about 2 us to each."""

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, traceback):
        if kind is not None and issubclass(kind, np.linalg.LinAlgError):
            raise NoConvergence(str(exc)) from exc
        return False


lapack_errors = _LapackErrors()


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
    with lapack_errors:
        T, Z = scipy.linalg.schur(A, output="complex")
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
    A = as_matrix(A)
    with lapack_errors:
        s = np.linalg.svd(A, compute_uv=False)
    return int(np.sum(s > threshold))


def _rank_split(A, rank_tol):
    """Full SVD of A and its rank r: the count of singular values above
    rank_tol * sigma_max."""
    A = as_matrix(A)
    rank_tol = check_tolerance("rank_tol", rank_tol)
    with lapack_errors:
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
    stack, by one batched scaling-and-squaring pass (_expm_stack).  Slice
    i takes the same operations on the same operands whatever the other
    slices hold, so it is bit for bit matrix_exponential(B, ts[i]).

    Raises Overflow naming a t whose computation leaves the representable
    range: the first with ||t B||_1 past it, else the first whose
    squarings overflow.  Raises NoConvergence when LAPACK fails.
    """
    B = as_matrix(B, square=True)
    ts = np.asarray(ts)
    if ts.ndim != 1 or ts.dtype.kind != "f":
        raise ValueError(f"ts must be a 1-d array of floats, got shape "
                         f"{ts.shape} and dtype {ts.dtype}")
    if not np.isfinite(ts).all():
        raise ValueError("ts must be finite")
    ts = ts.astype(np.float64, copy=False)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        X = ts[:, None, None] * B
        norms = _norm1(X)
        finite = np.isfinite(norms)
        if finite.all():
            E = _expm_stack(X, norms)
            finite = np.isfinite(E).all(axis=(1, 2))
    if not finite.all():
        # scaling and squaring can overflow inside on an exp(tB) that is
        # itself representable, so the message blames the computation
        raise Overflow(f"the expm computation of exp("
                       f"{float(ts[finite.argmin()])} * B) overflowed")
    return E


# Coefficients b_0..b_13 of the degree-13 Pade approximant to exp (Higham,
# "The scaling and squaring method for the matrix exponential revisited",
# SIAM J. Matrix Anal. Appl. 26, 2005), divided by b_0: the approximant at
# 0 is then I exactly.  Every b_k is an exact double, so b_k / b_0 is
# correctly rounded.
_PADE13 = tuple(b / 64764752532480000 for b in (
    64764752532480000, 32382376266240000, 7771770303897600, 1187353796428800,
    129060195264000, 10559470521600, 670442572800, 33522128640, 1323241920,
    40840800, 960960, 16380, 182, 1))
# Largest 1-norm at which the approximant's backward error stays below the
# unit roundoff (Higham 2005, Table 2.3), and the same bound on
# min(max(d6, d8), max(d8, d10)), d_k = ||X^k||_1^(1/k) (Al-Mohy and
# Higham, "A new scaling and squaring algorithm for the matrix
# exponential", SIAM J. Matrix Anal. Appl. 31, 2009, Table 3.1).
_THETA13 = 5.371920351148152
_ETA13 = 4.25
# log2 of 1/|c_27|, c_27 the leading coefficient of the approximant's
# backward-error series (Al-Mohy and Higham 2009, eq. 5.1)
_LOG2_INV_C27 = math.log2(113250775606021113483283660800000000)


def _norm1(A):
    """1-norm (largest absolute column sum) of a matrix or of each slice of
    a stack."""
    return np.abs(A).sum(axis=-2).max(axis=-1)


def _expm_stack(X, norms):
    """exp of each slice of a (k, n, n) complex128 stack X, which it
    overwrites, given the slices' 1-norms, all finite.  Run under
    np.errstate with over, invalid and divide ignored: overflow shows as
    inf or NaN entries.

    Slice i is scaled by 2^-s_i, put through one Pade-13 evaluation for
    the whole stack, and squared s_i times.  Every step is a stacked
    product, an elementwise operation or a stacked solve, so no slice's
    bits depend on another's.  Holds six stack-sized arrays at its peak:
    X, X^2, X^4, X^6 and two work buffers.  s_i starts as the least s with
    2^-s norms_i <= _THETA13, which keeps the powers finite;
    _dropped_squarings then takes back the squarings that the decay of
    ||X_i^k||^(1/k) makes unneeded: on non-normal slices each squaring
    left in amplifies the rounding of the approximant.
    """
    s = np.maximum(np.ceil(np.log2(norms / _THETA13)), 0.0).astype(np.int64)
    scale = np.ldexp(1.0, -s)
    X *= scale[:, None, None]
    A2 = X @ X
    A4 = A2 @ A2
    A6 = A4 @ A2
    shift = _dropped_squarings(X, A4, A6, s, norms * scale)
    if shift.any():
        for k, P in ((1, X), (2, A2), (4, A4), (6, A6)):
            P *= np.ldexp(1.0, k * shift)[:, None, None]
        s -= shift
    b = _PADE13
    # U = X [A6 (b13 A6 + b11 A4 + b9 A2) + b7 A6 + b5 A4 + b3 A2 + b1 I]
    # V = A6 (b12 A6 + b10 A4 + b8 A2) + b6 A6 + b4 A4 + b2 A2 + b0 I,
    # built in place through the work buffers acc and tmp (then X)
    acc = A6 * b[13]
    tmp = np.empty_like(X)
    _add_terms(acc, tmp, ((b[11], A4), (b[9], A2)))
    np.matmul(A6, acc, out=tmp)
    _add_terms(tmp, acc, ((b[7], A6), (b[5], A4), (b[3], A2), (b[1], None)))
    U = np.matmul(X, tmp, out=acc)
    np.multiply(A6, b[12], out=tmp)
    _add_terms(tmp, X, ((b[10], A4), (b[8], A2)))
    V = np.matmul(A6, tmp, out=X)
    _add_terms(V, tmp, ((b[6], A6), (b[4], A4), (b[2], A2), (b[0], None)))
    del A2, A4, A6, X, acc
    P = np.subtract(V, U, out=tmp)
    Q = np.add(V, U, out=V)
    del U, V, tmp
    with lapack_errors:
        E = np.linalg.solve(P, Q)
    del P, Q
    for j in range(int(s.max(initial=0))):
        squared = s > j
        F = E[squared]
        E[squared] = F @ F
    return E


def _dropped_squarings(X, A4, A6, s, norms):
    """How many of its s_i squarings each slice of the scaled stack X (with
    powers A4, A6 and 1-norms norms) can do without: Al-Mohy and Higham
    2009, Algorithm 5.1 at degree 13.  Their s is the least with
    2^-s min(max(d6, d8), max(d8, d10)) <= _ETA13, plus ell, the squarings
    that keep c_27 || |2^-s X|^27 ||_1 / ||2^-s X||_1 below the unit
    roundoff, lest rounding in the powers outgrow the powers themselves.
    The result is negative where ell asks for more squarings than s_i."""
    d6 = _norm1(A6) ** (1 / 6)
    d8 = _norm1(A4 @ A4) ** (1 / 8)
    d10 = _norm1(A4 @ A6) ** (1 / 10)
    eta = np.minimum(np.maximum(d6, d8), np.maximum(d8, d10))
    # eta = 0 (X nilpotent of low index) drops every squaring
    drop = np.minimum(np.maximum(-np.ceil(np.log2(eta / _ETA13)), 0), s)
    if not drop.any():
        # ell = 0: ||X||_1 <= _THETA13 puts alpha below c_27 5.4^26 < 2^-53
        return drop.astype(np.int64)
    # 1^T |X|^27 by 27 = 1 + 2 + 8 + 16; no overflow, as ||X||_1 <= 5.4
    M = np.abs(X)
    row = M.sum(axis=-2)[:, None, :]
    for k in range(1, 5):
        M = M @ M
        if k != 2:
            row = row @ M
    # log2 of alpha at 2^drop X; a zero slice gives NaN, which fmax reads
    # as ell = 0
    log_alpha = (np.log2(row.max(axis=(1, 2)) / norms) - _LOG2_INV_C27
                 + 26 * drop)
    ell = np.fmax(np.ceil((log_alpha + 53) / 26), 0)
    return (drop - ell).astype(np.int64)


def _add_terms(out, work, terms):
    """out += c P for each (c, P) of terms in order, with c P formed in the
    work buffer; P None stands for the identity."""
    for c, P in terms:
        if P is None:
            out.reshape(len(out), -1)[:, ::out.shape[-1] + 1] += c
        else:
            out += np.multiply(P, c, out=work)


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
    A = as_matrix(A)
    with lapack_errors:
        norm = float(np.linalg.norm(A, 2))
    if not math.isfinite(norm):
        raise Overflow("the 2-norm left the representable range")
    return norm


def operator_norms(stack):
    """operator_norm of each matrix in a (k, m, n) stack of finite entries,
    bit for bit, by one batched SVD call."""
    with lapack_errors:
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

