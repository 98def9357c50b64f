"""Dense complex linear algebra kernel.

Everything operates on square or rectangular complex matrices represented
as ``numpy.ndarray`` with dtype ``complex128``.  All norms are the operator
2-norm (largest singular value) unless a function name says otherwise.
LU factorizations and Schur forms call LAPACK's zgetrf, zgetrs and zgees
through handles taken once at import, not through scipy.linalg's
per-call wrappers; solve_linear and eigendecompose check each routine's
info themselves.  A LAPACK failure (a nonzero info, or numpy's
LinAlgError, a ValueError) leaves this module as NoConvergence, a
numerical error.  Public functions validate their arguments; the one
"small norm" test, _norm_at_most, is private and skips that for callers
whose own checks already show the matrix finite.  Matrix exponentials
come from one batched scaling-and-squaring kernel that takes a whole
stack of exp(t B) in one Pade-13 pass, built from the powers of a
power-of-two multiple of B.  exponentials_of(B) validates B and takes
those powers once, and returns the map ts -> stack, so a caller that
exponentiates one B many times pays for them once;
matrix_exponential(B, t) is that map's one call at one t.  log_norm(B)
bounds every slice's norm: ||exp(t B)||_2 <= e^(t mu_2(B)) for t >= 0.
"""

import functools
import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NoConvergence, Overflow, SingularMatrix

EPS = float(np.finfo(np.float64).eps)

# Dense eigen-solves get slow and memory-hungry past this point; raise the
# bound consciously rather than by accident.
MAX_DIMENSION = 512

# Relative margin by which the O(mn) norm bounds must clear a threshold
# before _norm_at_most trusts them.  Rounding moves the bounds and the SVD
# norm by about n * eps relative, so far less than this: a decision the
# bounds take is the decision the SVD would take.
NORM_BOUND_MARGIN = 1e-8

# _norm_at_most takes the SVD 2-norm outright of matrices no larger than
# this (2x2).  Their SVD costs about 20 us, so power_iterate on them keeps
# one exact norm per test: its history rows are the exact increments, and
# condition (i) keeps the one SVD per doubling that the benchmark's
# self-test counts on a 2x2 certify (perfbench/test_spans.py).
EXACT_NORM_MAX_DIMENSION = 2

# Bytes of a stack of matrices that one batched call takes: the
# Gauss-Laguerre nodes for the maps of exponentials_of.  Such loops hold
# O(STACK_CHUNK_BYTES + n^2) memory however many matrices they go through.
STACK_CHUNK_BYTES = 1 << 20

# complex128 LAPACK routines, looked up once: scipy.linalg.lu_factor,
# lu_solve and schur look them up, and wrap them, on every call
_getrf, _getrs, _gees = scipy.linalg.get_lapack_funcs(
    ("getrf", "getrs", "gees"), dtype=np.complex128)


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
    """Solve A X = rhs by pivoted LU factorization (zgetrf, zgetrs).

    Raises SingularMatrix when a pivot of U falls below
    n * eps * ||A||_inf, which is how resolvent evaluations at (numerical)
    spectrum points announce themselves; an exactly zero pivot (zgetrf's
    positive info) is one of those.  A negative info raises NoConvergence.
    """
    A = as_matrix(A, square=True)
    rhs = as_matrix(rhs)
    n = A.shape[0]
    if rhs.shape[0] != n:
        raise ValueError(
            f"right-hand side has {rhs.shape[0]} rows, expected {n}")
    lu, piv, info = _getrf(A)
    _check_info("zgetrf", info)
    # a row sum beyond the double range makes the threshold infinite, so
    # every pivot reads as singular
    with np.errstate(over="ignore"):
        threshold = n * EPS * np.linalg.norm(A, np.inf)
    pivots = np.abs(np.diag(lu))
    if np.min(pivots) <= threshold:
        raise SingularMatrix(
            f"pivot {np.min(pivots):.3e} below threshold {threshold:.3e}")
    X, info = _getrs(lu, piv, rhs)
    _check_info("zgetrs", info)
    return X


def _check_info(routine, info):
    """Raise NoConvergence on a negative LAPACK info: an argument the
    routine refused, which finite validated input should never give."""
    if info < 0:
        raise NoConvergence(f"illegal value in argument {-info} of {routine}")


@functools.cache
def _gees_lwork(n):
    """zgees's optimal workspace at order n, from its own query: the lwork
    scipy.linalg.schur passes.  The query depends on n alone."""
    return int(_gees(_no_sort, np.zeros((n, n), np.complex128),
                     lwork=-1)[-2][0].real)


def _no_sort(value):
    """zgees's eigenvalue selector; not called, as sort_t is 0."""


def eigendecompose(A):
    """Eigenvalues with algebraic multiplicity, via a complex Schur form
    (zgees, with the workspace of _gees_lwork).

    The Schur route gives a computable backward-error certificate:
    A + E = Z T Z* exactly with ||E|| reported, at the usual
    O(n * eps * ||A||) size for a converged QR iteration.  Raises Overflow
    when A - Z T Z* leaves the representable range, and NoConvergence on
    a nonzero info, as when the QR iteration fails.
    """
    A = as_matrix(A, square=True)
    T, _, _, Z, _, info = _gees(_no_sort, A, lwork=_gees_lwork(A.shape[0]))
    _check_info("zgees", info)
    if info > 0:
        raise NoConvergence("Schur form not found. Possibly ill-conditioned.")
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
    """exp(t B): exponentials_of(B) at one t, raising as it does."""
    return exponentials_of(B)(np.array([check_real("t", t)]))[0]


def exponentials_of(B):
    """The map ts -> exp(t B) for each t of a 1-d float array ts, as a
    (len(ts), n, n) stack, by one batched scaling-and-squaring pass per
    call (_expm_stack).  B is validated, and its powers with the figures
    every slice's scaling reads (_Powers) taken, once here, so a caller
    that exponentiates one B many times pays for them once.  Slice i takes
    the same operations on the same operands whatever the other slices
    hold and whichever calls came before, so it is bit for bit
    matrix_exponential(B, ts[i]).

    A call raises Overflow naming the first t whose ||t B||_1 overflows,
    else the first whose computation overflows or needs more than
    _MAX_SQUARINGS squarings where exp(t B) may not round to 0;
    NoConvergence when LAPACK fails.
    """
    B = as_matrix(B, square=True)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        powers = _Powers(B)
    e = powers.e

    def exponentials(ts):
        ts = np.asarray(ts)
        if ts.ndim != 1 or ts.dtype.kind != "f":
            raise ValueError(f"ts must be a 1-d array of floats, got shape "
                             f"{ts.shape} and dtype {ts.dtype}")
        if not np.isfinite(ts).all():
            raise ValueError("ts must be finite")
        ts, s = ts.astype(np.float64, copy=False), np.zeros(len(ts), np.int64)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            # ||t B||_1 = |t| 2^e ||B^||_1, overflowing only where ||t B||_1
            # does
            norms = np.ldexp(np.ldexp(np.abs(ts), min(e, 0)) * powers.norm,
                             max(e, 0))
            finite = np.isfinite(norms)
            if finite.all():
                E, s = _expm_stack(powers, ts, norms)
                finite = np.isfinite(E).all(axis=(1, 2))
        if not finite.all():
            # the message blames the computation: exp(tB) may be
            # representable
            i = finite.argmin()
            raise Overflow(
                f"the expm computation of exp({float(ts[i])} * B) " + (
                    f"needs {s[i]} squarings, whose rounding can outgrow "
                    f"the result" if s[i] > _MAX_SQUARINGS else "overflowed"))
        return E

    return exponentials


# Coefficients b_0..b_13 of the degree-13 Pade approximant to exp (Higham,
# "The scaling and squaring method for the matrix exponential revisited",
# SIAM J. Matrix Anal. Appl. 26, 2005) over the exact double b_0, rounded
# once each: the approximant at 0 is then I exactly.
_PADE13 = np.array([
    64764752532480000, 32382376266240000, 7771770303897600, 1187353796428800,
    129060195264000, 10559470521600, 670442572800, 33522128640, 1323241920,
    40840800, 960960, 16380, 182, 1], dtype=np.float64) / 64764752532480000
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
# Most squarings a slice takes: each doubles the approximant's relative
# rounding in the slow modes, and 2^s u >= 1 (u = 2^-53) past 52.
_MAX_SQUARINGS = 52


def _norm1(A):
    """1-norm (largest absolute column sum) of a matrix."""
    return np.abs(A).sum(axis=-2).max(axis=-1)


def _normalized_powers(B):
    """(P, e): P[k] = B^^k, k = 0..13, for B^ = 2^-e B, as one (14, n, n)
    array.  2^-e puts B's largest real or imaginary part in [0.5, 1), so
    ||B^||_1 <= n sqrt 2 and the powers stay finite at any scale of B; it
    scales every entry but a subnormal one exactly."""
    e = int(np.frexp(max(np.abs(B.real).max(), np.abs(B.imag).max()))[1])
    P = np.empty((len(_PADE13),) + B.shape, dtype=np.complex128)
    P[0] = np.eye(len(B))
    P[1] = B
    np.ldexp(P[1].view(np.float64), -e, out=P[1].view(np.float64))
    for k in range(2, len(P)):
        np.matmul(P[k - 1], P[1], out=P[k])
    return P, e


class _Powers:
    """What every slice of exp(t B) reads of B, taken once per B by
    exponentials_of, under np.errstate with over, invalid and divide
    ignored: the powers P of B^ = 2^-e B (_normalized_powers), ||B^||_1
    (norm), which powers are nonzero, and the d6/d8/d10 factor (eta) of
    _dropped_squarings.  Its |B^|^27 term (row) is taken when the first
    slice's ell test reads it."""

    def __init__(self, B):
        self.P, self.e = _normalized_powers(B)
        self.norm = _norm1(self.P[1])
        self.nonzero = self.P.any(axis=(1, 2))
        d6, d8, d10 = (_norm1(self.P[k]) ** (1 / k) for k in (6, 8, 10))
        self.eta = min(max(d6, d8), max(d8, d10))

    @functools.cached_property
    def row(self):
        """log2 (max 1^T |B^|^27 / ||B^||_1): log2 of the ell test's
        alpha at B^, as alpha at c B^ is c_27 |c|^26 times it.  The row
        goes by 27 = 1 + 2 + 8 + 16, with no overflow, as ||B^||_1 <= 724.
        B^ = 0 gives NaN, which _dropped_squarings reads as ell = 0."""
        M = np.abs(self.P[1])
        row = M.sum(axis=0)
        for k in range(1, 5):
            M = M @ M
            if k != 2:
                row = row @ M
        return np.log2(row.max() / self.norm)


def _expm_stack(powers, ts, norms):
    """(E, s): exp(t_i B) for each t_i of ts, as a stack, and the slices'
    squaring counts, from the _Powers of B and the finite norms
    ||t_i B||_1.  Run under np.errstate with over, invalid and divide
    ignored: overflow shows as inf or NaN entries.  s_i is the least s
    with 2^-s norms_i <= _THETA13, less the squarings _dropped_squarings
    finds unneeded.  As X_i = 2^(e - s_i) t_i B^, each Pade-13 term
    b_k X_i^k is a scalar times P[k]: one stacked product of each slice's
    two coefficient rows with the powers (one GEMM per slice, lest the
    stack choose a slice's bits) gives V + U and V - U, and one stacked
    solve the approximants, squared in order of s_i over contiguous parts
    of the stack.  No slice's bits depend on another's.  The peak holds
    three stack-sized arrays: V + U, V - U and the solve's result.  A
    slice past _MAX_SQUARINGS is not squared: it is 0 where the 1-norm
    logarithmic norm mu(t B) >= log ||exp(t B)||_1 puts every entry below
    half the least subnormal, and NaN otherwise.
    """
    P, e = powers.P, powers.e
    s = np.maximum(np.ceil(np.log2(norms / _THETA13)), 0.0).astype(np.int64)
    s -= _dropped_squarings(powers, np.abs(np.ldexp(ts, e - s)), s)
    # a nilpotent B^ drops every squaring, and t 2^e overflows once
    # ||t B||_1 >= 2^1023; as ||B^||_1 >= 1/2, one squaring keeps t 2^(e-1)
    # finite
    s[np.isinf(np.ldexp(ts, e - s))] = 1
    order = np.argsort(s, kind="stable")
    ts, norms, s = ts[order], norms[order], s[order]
    k = np.arange(len(P))
    # rows b_k c^k (V + U) and (-1)^k b_k c^k (V - U); a power that is 0
    # (B nilpotent) takes coefficient 0, lest c^k overflow into inf * 0
    coef = np.empty((len(s), 2, len(P)))
    coef[:, 0] = np.where(powers.nonzero,
                          _PADE13 * np.ldexp(ts, e - s)[:, None] ** k, 0.0)
    coef[:, 1] = coef[:, 0] * (-1.0) ** k
    # real coefficients times the powers' real and imaginary parts
    VU = np.matmul(coef, P.view(np.float64).reshape(len(P), -1))
    VU = VU.view(np.complex128).reshape((len(s), 2) + P.shape[1:])
    with lapack_errors:
        E = np.linalg.solve(VU[:, 1], VU[:, 0])
    del VU
    stop = np.searchsorted(s, _MAX_SQUARINGS, side="right")
    for j in range(int(s[:stop].max(initial=0))):
        F = E[np.searchsorted(s, j, side="right"):stop]
        np.matmul(F, F, out=F)
    if stop < len(s):
        # mu(t B) = max_j (t Re b_jj + |t| sum_(i != j) |b_ij|), rounded by
        # less than (n + 4) eps ||t B||_1; e^-746 < 2^-1076
        t, d = ts[stop:, None], P[1].diagonal()
        mu = np.ldexp(t * d.real + abs(t) * (abs(P[1]).sum(0) - abs(d)), e)
        tiny = mu.max(axis=1) + (len(d) + 4) * EPS * norms[stop:] < -746.0
        E[stop:] = np.where(tiny, 0.0, np.nan)[:, None, None]
    back = np.argsort(order)
    return E[back], s[back]


def _dropped_squarings(powers, c, s):
    """How many of its s_i squarings each scaled slice X_i = c_i B^ (|c_i|
    in c) can do without, from the _Powers of B: Al-Mohy and Higham 2009,
    Algorithm 5.1 at degree 13.  Their s is the least with
    2^-s min(max(d6, d8), max(d8, d10)) <= _ETA13, plus ell, the squarings
    that keep c_27 || |2^-s X|^27 ||_1 / ||2^-s X||_1 below the unit
    roundoff.  Both scale with |c_i|: d_k is |c_i| ||B^^k||_1^(1/k), and
    the ell term |c_i|^26 times its value at B^.  Negative where ell asks
    for more squarings than s_i."""
    eta = c * powers.eta
    # eta = 0 (X nilpotent of low index) drops every squaring
    drop = np.minimum(np.maximum(-np.ceil(np.log2(eta / _ETA13)), 0), s)
    if not drop.any():
        # ell = 0: ||X||_1 <= _THETA13 puts alpha below c_27 5.4^26 < 2^-53
        return drop.astype(np.int64)
    # log2 alpha at 2^drop X
    log_alpha = (26 * (np.log2(c) + drop) - _LOG2_INV_C27 + powers.row)
    ell = np.fmax(np.ceil((log_alpha + 53) / 26), 0)
    return (drop - ell).astype(np.int64)


def power_and_geometric_sum(T, N):
    """(T^N, I + T + ... + T^(N-1)) of a validated square T, or of each
    matrix of a stack of them, and N >= 1, by O(log N) products: binary
    powering from the leading bit of N.

    Raises Overflow when either leaves the representable range; the
    products run under np.errstate, so no numpy warning escapes.
    """
    P = np.eye(T.shape[-1], dtype=np.complex128)
    S = np.zeros(T.shape, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        for bit in bin(N)[2:]:
            S += P @ S
            P = P @ P
            if bit == "1":
                S += P
                P = P @ T
            if not (np.isfinite(S).all() and np.isfinite(P).all()):
                raise Overflow("geometric sum left the representable range")
    return P, S


def operator_norm(A):
    """Largest singular value of A; raises Overflow past the double range."""
    A = as_matrix(A)
    with lapack_errors:
        norm = float(np.linalg.svd(A, compute_uv=False)[0])
    if not math.isfinite(norm):
        raise Overflow("the 2-norm left the representable range")
    return norm


def log_norm(B):
    """mu_2(B) = lambda_max((B + B*) / 2), the logarithmic 2-norm of B, by
    one Hermitian eigenvalue solve: ||exp(t B)||_2 <= e^(t mu_2(B)) for
    every t >= 0 (Lumer-Phillips; Pazy 1983, section 1.4).  The halves are
    summed, so no entry overflows; raises Overflow past the double range,
    NoConvergence when LAPACK fails."""
    B = as_matrix(B, square=True)
    with lapack_errors:
        mu = float(np.linalg.eigvalsh(0.5 * B + 0.5 * B.conj().T)[-1])
    if not math.isfinite(mu):
        raise Overflow("the logarithmic norm left the representable range")
    return mu


def _norm_at_most(A, bound):
    """(at_most, upper, norm): whether ||A||_2 <= bound, decided as
    operator_norm would, mostly without an SVD.  This is the package's one
    test of "small norm", on a complex128 A and a float bound >= 0 whose
    callers' own checks stand for argument checks.  A matrix no larger than
    EXACT_NORM_MAX_DIMENSION takes the SVD outright.  Otherwise one pass
    of |A|^2 brackets the 2-norm in O(mn) work (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 6):

        max column 2-norm <= ||A||_2 <= ||A||_F

    and the bracket answers when it clears the bound by the relative
    NORM_BOUND_MARGIN, else operator_norm does.  upper is ||A||_F, or the
    SVD 2-norm where the SVD was taken outright; norm is the SVD 2-norm
    when one was taken, else None.  Run under np.errstate with over
    ignored: squares overflow before the entries do, and an infinite
    bracket falls to operator_norm, which also rejects a non-finite A.
    """
    if max(A.shape) <= EXACT_NORM_MAX_DIMENSION:
        norm = operator_norm(A)
        return norm <= bound, norm, norm
    mags = np.abs(A)
    column_squares = (mags * mags).sum(axis=0)
    lower = math.sqrt(column_squares.max())
    upper = math.sqrt(column_squares.sum())
    if upper < math.inf:
        if lower * (1.0 - NORM_BOUND_MARGIN) > bound:
            return False, upper, None
        if upper * (1.0 + NORM_BOUND_MARGIN) <= bound:
            return True, upper, None
    norm = operator_norm(A)
    return norm <= bound, upper, norm
