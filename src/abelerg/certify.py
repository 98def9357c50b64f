"""Certificates for the equivalence between power convergence and spectrum.

For a square matrix T the following are equivalent, and this module checks
both sides numerically and reports whether the verdicts agree:

  (i)  for each alpha in (0, 1) the powers of the Abel average A_alpha
       converge in operator norm;
  (ii) the spectrum of T lies in the half-plane Re zeta <= 1 and
       Ker(I - T) and Im(I - T) decompose the space as a direct sum.

Disagreement between the two certificates on a given matrix indicates a
tolerance failure, not a counterexample, and is reported with both witness
sets.  The module also houses the structured random instance generator the
test suite draws from, so that positive and negative instances are
reproducible from a recorded seed.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import abel, linalg
from .errors import DecompositionFails, Overflow, ResolventPole

VERDICT_CONVERGED_ALL = "converged_all"
VERDICT_DIVERGED = "diverged"
VERDICT_HOLDS = "holds"
VERDICT_SPECTRUM_ESCAPES = "spectrum_escapes"
VERDICT_DECOMPOSITION_FAILS = "decomposition_fails"

# Numerical rank threshold used by the certification paths.  The structured
# instances carry similarity conditioning up to 1e3, which lifts true-zero
# singular values to ~1e-13 relative and can drag true-nonzero ones down to
# ~1e-6 relative; 1e-8 sits orders of magnitude away from both populations.
CERTIFY_RANK_TOL = 1e-8

# Abel parameters the certificates sample (0, 1) at unless told otherwise.
DEFAULT_ALPHAS = (0.1, 0.5, 0.9)


@dataclass
class AlphaEvidence:
    """What happened to the powers of A_alpha for one alpha."""

    alpha: float
    outcome: str
    steps: Optional[int]
    report: Optional[abel.ConvergenceReport]


@dataclass
class ConditionICertificate:
    verdict: str
    per_alpha: list
    witnesses: list
    max_limit_mismatch: Optional[float]


@dataclass
class ConditionIICertificate:
    verdict: str
    witnesses: list
    max_real_part: float
    rank_first: Optional[int]
    rank_second: Optional[int]


@dataclass
class EquivalenceReport:
    condition_i: ConditionICertificate
    condition_ii: ConditionIICertificate
    agree: bool
    tolerances_used: dict


def _check_alphas(alphas):
    alphas = [abel.check_alpha(a) for a in alphas]
    if not alphas:
        raise ValueError("alphas must be nonempty")
    return alphas


def check_power_convergence(T, alphas, tol=abel.DEFAULT_TOL):
    """Condition (i): iterate the powers of A_alpha, each distinct alpha
    once, ascending.

    Verdict is "converged_all" only if every alpha converges and all the
    limits agree pairwise to 10 * tol, each pair by linalg._norm_at_most;
    max_limit_mismatch is the largest pair's bound (its SVD 2-norm where
    the test took one, else its Frobenius norm).  A resolvent pole counts
    as divergence.  One failing alpha makes the verdict "diverged", so
    the run stops at the first: per_alpha and witnesses list only the
    alphas that ran.  In finite dimension convergence at alpha implies it
    at every larger alpha, so the smallest alpha decides the verdict.
    """
    T = linalg.as_matrix(T, square=True)
    per_alpha = []
    limits = []
    for a in sorted(set(_check_alphas(alphas))):
        try:
            A = abel.abel_average(T, a)
        except ResolventPole:
            per_alpha.append(AlphaEvidence(a, "resolvent_pole", None, None))
            return ConditionICertificate(
                VERDICT_DIVERGED, per_alpha,
                [{"kind": "resolvent_pole", "value": a}], None)
        report = abel.power_iterate(A, tol=tol)
        per_alpha.append(AlphaEvidence(
            a, "converged" if report.converged else report.divergence_reason,
            report.steps, report))
        if not report.converged:
            return ConditionICertificate(VERDICT_DIVERGED, per_alpha, [{
                "kind": "divergence_exponent",
                "value": {"alpha": a, "exponent": report.steps,
                          "reason": report.divergence_reason},
            }], None)
        limits.append(report.limit)
    agree, mismatch = True, 0.0
    # the limits passed power_iterate's blow-up gate, so they are finite
    with np.errstate(over="ignore", invalid="ignore"):
        for i, L in enumerate(limits):
            for K in limits[i + 1:]:
                at_most, upper, norm = linalg._norm_at_most(L - K, 10.0 * tol)
                agree = agree and at_most
                mismatch = max(mismatch, norm if norm is not None else upper)
    if agree:
        return ConditionICertificate(
            VERDICT_CONVERGED_ALL, per_alpha, [], mismatch)
    return ConditionICertificate(
        VERDICT_DIVERGED, per_alpha,
        [{"kind": "limit_mismatch", "value": mismatch}], mismatch)


def _rank_pair(T, zeta, rank_tol):
    """rank(M) and rank(M^2) for M = zeta I - T; equal if zeta is semisimple.

    The second threshold is rank_tol * sigma_max(M)^2, the natural scale of
    a squared matrix, so a roundoff-sized M^2 does not read as full rank.
    Raises Overflow when M^2 leaves the representable range.
    """
    M = zeta * np.eye(T.shape[0], dtype=np.complex128) - T
    smax = linalg.operator_norm(M)
    with np.errstate(over="ignore", invalid="ignore"):
        M2 = M @ M
    if not np.isfinite(M2).all():
        raise Overflow(f"({zeta} I - T)^2 overflowed")
    return (linalg.numerical_rank(M, rank_tol * smax),
            linalg.numerical_rank(M2, rank_tol * smax * smax))


def check_spectral_condition(T, tol=abel.DEFAULT_TOL, rank_tol=CERTIFY_RANK_TOL):
    """Condition (ii): spectrum in the half-plane, plus the direct sum.

    Three sub-checks, reported in witness order: (a) every eigenvalue has
    Re <= 1 + tol * ||T||; (b) rank(I - T) = rank((I - T)^2), which in
    finite dimension says the eigenvalue 1 is semisimple; (c) the stacked
    kernel/image basis is invertible, so Ker(I - T) + Im(I - T) is direct.
    """
    T = linalg.as_matrix(T, square=True)
    tol = linalg.check_tolerance("tol", tol)
    rank_tol = linalg.check_tolerance("rank_tol", rank_tol)
    eig = linalg.eigendecompose(T)
    norm_T = linalg.operator_norm(T)
    # eigendecompose sorts by descending real part, so the first leads
    max_re = float(eig.values[0].real)
    witnesses = []
    if max_re > 1.0 + tol * norm_T:
        witnesses.append(
            {"kind": "offending_eigenvalue", "value": complex(eig.values[0])})
        return ConditionIICertificate(
            VERDICT_SPECTRUM_ESCAPES, witnesses, max_re, None, None)
    rank_first, rank_second = _rank_pair(T, 1.0, rank_tol)
    if rank_first != rank_second:
        witnesses.append(
            {"kind": "rank_pair", "value": [rank_first, rank_second]})
        return ConditionIICertificate(
            VERDICT_DECOMPOSITION_FAILS, witnesses, max_re,
            rank_first, rank_second)
    try:
        abel.riesz_projection_at_one(T, rank_tol)
    except DecompositionFails as exc:
        witnesses.append({"kind": "stack_defect", "value": str(exc)})
        return ConditionIICertificate(
            VERDICT_DECOMPOSITION_FAILS, witnesses, max_re,
            rank_first, rank_second)
    return ConditionIICertificate(
        VERDICT_HOLDS, witnesses, max_re, rank_first, rank_second)


def verify_equivalence(T, alphas=DEFAULT_ALPHAS, tol=abel.DEFAULT_TOL,
                       rank_tol=CERTIFY_RANK_TOL):
    """Validate every argument, run both certificates, compare verdicts."""
    tol = linalg.check_tolerance("tol", tol)
    rank_tol = linalg.check_tolerance("rank_tol", rank_tol)
    alphas = _check_alphas(alphas)
    ci = check_power_convergence(T, alphas, tol=tol)
    cii = check_spectral_condition(T, tol=tol, rank_tol=rank_tol)
    agree = (ci.verdict == VERDICT_CONVERGED_ALL) == (cii.verdict == VERDICT_HOLDS)
    return EquivalenceReport(
        condition_i=ci, condition_ii=cii, agree=agree,
        tolerances_used={"tol": tol, "rank_tol": rank_tol,
                         "alphas": alphas})


def _sweep_sup(T, steps, alphas=None):
    """sup over k <= steps of the weighted norms of the running sums

        S_k = P_0 + ... + P_k,   P_0 = I,   P_k = s P_(k-1) T,

    weighted 1 / (k + 1) at s = 1 without alphas (Cesaro) and 1 - alpha at
    s = alpha with them (Abel, all alphas as one stacked recurrence, a row
    each).  The sums fill a buffer of linalg.STACK_CHUNK_BYTES, or of one
    step if more.  Only those that differ from the sum before can raise the
    sup, as no weight grows with k, and _raise_sup takes exact norms only
    of those whose bound can.  +inf if a sum overflows, since every later
    sum is then non-finite too.

    A row leaves the stack once _settled proves that no later step changes
    its sum, which then cannot raise the sup: the buffered sums are
    flushed, and the row is dropped.  The loop ends with the last row.  The
    next check comes where ||P_k||_F, decaying as it did since the last
    check, would settle a row, but no more than twice as many steps on as
    the last check came after the one before.
    """
    n, real = T.shape[0], not T.imag.any()
    scales = np.ones(1) if alphas is None else alphas
    size = min(steps + 1, max(
        1, linalg.STACK_CHUNK_BYTES // (16 * len(scales) * n * n)))
    # buffer[0] holds the sums before the buffered steps, first S_(-1) = 0
    buffer = np.zeros((size + 1, len(scales), n, n), dtype=np.complex128)
    P = np.array([np.eye(n, dtype=np.complex128)] * len(scales))
    margin = linalg.NORM_BOUND_MARGIN
    # each row's growth and drift (_settled); an infinite norm, taken
    # without raising, settles no row
    with np.errstate(over="ignore", divide="ignore"), linalg.lapack_errors:
        norm = (np.linalg.svd(T, compute_uv=False)[0]
                + margin * np.linalg.norm(T))
        growth = scales * (norm * (1.0 + margin) ** 2)
        drift = n * (n + 1) * 2.0 ** -1072 / (1.0 - growth)
    sup, i, leave = 0.0, 0, None
    # the step and the ||P||_F of the last check, first P_0 = I
    last_k, last_norms = 0, np.full(len(scales), math.sqrt(n))
    check_at = 1 if (growth < 1.0).any() else steps + 1
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(steps + 1):
            if k:
                P = P @ T if alphas is None else alphas[:, None, None] * (P @ T)
            i += 1
            np.add(buffer[i - 1], P, out=buffer[i])
            if k == check_at:
                settled, norms, fall = _settled(
                    P, buffer[i], growth, drift, real)
                # steps until ||P||_F falls by fall at the rate seen since
                # the last check; a row that does not decay waits 2 * span
                span = k - last_k
                rate = np.log(norms / last_norms) / span
                wait = np.where((rate < 0.0) & (fall < 0.0), fall / rate,
                                2 * span)[(growth < 1.0) & ~settled]
                check_at = k + int(np.fmin(np.ceil(wait), 2 * span).min(
                    initial=steps + 1))
                last_k, last_norms = k, norms
                leave = settled if settled.any() else None
            if i < size and k < steps and leave is None:
                continue
            sums = buffer[1:i + 1]
            if not np.isfinite(sums).all():
                return math.inf
            # != is a bit test on finite sums that never hold -0 (I has
            # +0, and x + -x rounds to +0)
            rows, cols = np.nonzero((sums != buffer[:i]).any(axis=(2, 3)))
            buffer[0] = buffer[i]
            if alphas is None:
                counts = rows + (k - i + 2)
                sup = _raise_sup(sums, rows, cols, sup,
                                 lambda norms, at: norms / counts[at])
            else:
                weights = 1.0 - alphas[cols]
                sup = _raise_sup(sums, rows, cols, sup,
                                 lambda norms, at: weights[at] * norms)
            i = 0
            if leave is not None:
                keep = ~leave
                if not keep.any():
                    return sup
                P, buffer, growth, drift, last_norms = (
                    P[keep], buffer[:, keep], growth[keep], drift[keep],
                    last_norms[keep])
                if alphas is not None:
                    alphas = alphas[keep]
                leave = None
    return sup


def _settled(P, sums, growth, drift, real):
    """(settled, norms, fall) of the rows of the stacks P_k and S_k.

    A row at scale s is settled when no later step can change its sum: its
    growth s (||T||_2 + mu ||T||_F)(1 + mu)^2 < 1, mu =
    linalg.NORM_BOUND_MARGIN, and (1 + mu) ||P_k||_F + drift < h, half the
    gap below the smallest real or imaginary part of S_k (none below a 0,
    so a row whose sum has a zero part does not settle).  Where real says
    T is real, h takes only the real parts: each imaginary part of P T
    sums products with a factor 0, so every P and S keeps them at 0.
    The growth bounds ||fl(s fl(P T))||_F / ||P||_F: the product's rounding
    is at most sqrt(2) (n + 2) eps |P||T| (Higham, Accuracy and Stability
    of Numerical Algorithms, ch. 3), far below mu ||P||_F ||T||_F, and
    1 + mu covers the rounding of the norms and of the scaling.  Underflow
    adds less than 2 n (n + 1) 2^-1074 to ||P||_F a step, and drift is
    twice the 1 / (1 - growth) steps' worth of that.  So every later P has
    ||.||_F below h, and so has each of its parts; as the gap below a part
    is never above the gap above it, nor shrinks as the part grows, S + P
    rounds to S.  ||P_k||_F is taken of P_k scaled by 2^-e near its largest
    part, so that no square that matters underflows.  norms holds the
    (1 + mu) ||P_k||_F, and fall = log((h - drift) / norms) is negative
    while they have still to fall.
    """
    parts = P.view(np.float64)
    _, e = np.frexp(np.abs(parts).max(axis=(1, 2)))
    scaled = np.ldexp(parts, -e[:, None, None])
    norms = np.ldexp(np.sqrt(np.einsum("kij,kij->k", scaled, scaled)),
                     e) * (1.0 + linalg.NORM_BOUND_MARGIN)
    low = np.abs(sums.real if real else sums.view(np.float64)).min(
        axis=(1, 2))
    half_gap = 0.5 * (low - np.nextafter(low, 0.0))
    settled = (growth < 1.0) & (norms + drift < half_gap)
    return settled, norms, np.log((half_gap - drift) / norms)


def _raise_sup(sums, rows, cols, sup, weigh):
    """max(sup, the weighted norms of sums[rows, cols]) as the same float,
    with SVDs only of the sums whose upper bound can still raise it.

    weigh(values, at) weights the values of sums[rows[at], cols[at]] by a
    positive factor or divisor, so it rounds monotonically.  The bound
    ||S* S||_F^(1/2) >= ||S||_2 (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 6; equal at rank one) is widened by
    linalg.NORM_BOUND_MARGIN, far above its rounding of about n^2 eps.
    Exact norms go in descending order of weighted bound, in blocks of 1,
    2, 4, ..., until the next bound is at most the sup.  The Gram products
    go in sub-stacks of STACK_CHUNK_BYTES / 8 bytes.  A sub-stack where a
    sum of squares overflows (inf, or inf - inf = NaN in a product:
    ||S||_2 above about 1e77) is taken again with each sum scaled by 2^-e,
    2^e being the power of two just above its largest real or imaginary
    part, and each bound scaled back by 2^e: then nothing overflows, and
    what underflows is far below the margin.  Where no part or product,
    scaled or not, under- or overflows, the scaling commutes exactly with
    the products, the sum of squares and both square roots, so the bound
    is the same float.  A bound past the double range reads +inf.
    Unscaled, a Gram product that underflows needs ||S||_2 < 1e-70, below
    S_0 = I's weighted norm.
    """
    count, n = len(rows), sums.shape[-1]
    squares, exponents = np.empty(count), np.zeros(count, dtype=int)
    chunk = max(1, linalg.STACK_CHUNK_BYTES // (128 * n * n))

    def gram_squares(part):
        flat = (part.conj().swapaxes(1, 2) @ part).view(np.float64)
        return np.einsum("kij,kij->k", flat, flat)

    for j in range(0, count, chunk):
        js = slice(j, j + chunk)
        part = sums[rows[js], cols[js]]
        squares[js] = gram_squares(part)
        if not np.isfinite(squares[js]).all():
            parts = part.view(np.float64)
            _, exponents[js] = np.frexp(np.abs(parts).max(axis=(1, 2)))
            np.ldexp(parts, -exponents[js, None, None], out=parts)
            squares[js] = gram_squares(part)
    bounds = weigh(np.ldexp(np.sqrt(np.sqrt(squares)), exponents)
                   * (1.0 + linalg.NORM_BOUND_MARGIN), slice(None))
    order = np.argsort(-bounds)
    descending = bounds[order]
    taken, block = 0, 1
    while True:
        stop = min(taken + block, np.count_nonzero(descending > sup))
        if stop <= taken:
            return sup
        at = order[taken:stop]
        norms = linalg.operator_norms(sums[rows[at], cols[at]])
        sup = float(weigh(norms, at).max(initial=sup))
        taken, block = stop, 2 * block


def cesaro_sup_estimate(T, N_max):
    """sup_{N <= N_max} of the Cesaro average norms, by a running sweep.

    A finite sweep cannot prove boundedness; treat the value as a
    diagnostic.  Overflow inside the sweep is reported as +inf.
    """
    T = linalg.as_matrix(T, square=True)
    N_max = linalg.check_count("N_max", N_max, 1)
    return _sweep_sup(T, N_max - 1)


def abel_partial_sup_estimate(T, alpha_grid, N_max):
    """sup over the alpha grid and N <= N_max of the partial Abel sums.

    Same finite-sweep caveat and +inf overflow convention as the Cesaro
    estimate.
    """
    T = linalg.as_matrix(T, square=True)
    N_max = linalg.check_count("N_max", N_max, 0)
    alphas = np.array([abel.check_alpha(a) for a in alpha_grid])
    return _sweep_sup(T, N_max, alphas) if alphas.size else 0.0


# ---------------------------------------------------------------------------
# Structured random instances


@dataclass
class Instance:
    """One generated test matrix with its intended spectral verdict."""

    matrix: np.ndarray
    kind: str
    expected: str
    dim: int
    similarity_cond: float


DEFAULT_KIND_CYCLE = ("holds", "holds", "contraction", "escape",
                      "defective_one", "escape_and_defect")


def _similarity(rng, n, cond):
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    Q1, _ = np.linalg.qr(A)
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    Q2, _ = np.linalg.qr(A)
    sigma = np.logspace(0.0, np.log10(cond), n)
    return (Q1 * sigma) @ Q2.conj().T


def _jordan(blocks, n):
    J = np.zeros((n, n), dtype=np.complex128)
    i = 0
    for lam, size in blocks:
        for j in range(size):
            J[i + j, i + j] = lam
            if j + 1 < size:
                J[i + j, i + j + 1] = 1.0
        i += size
    return J


def _draw_bulk(rng, count, radius=0.85, min_gap=0.3):
    out = []
    while len(out) < count:
        z = rng.uniform(-radius, radius) + 1j * rng.uniform(-radius, radius)
        if abs(z) <= radius and abs(1.0 - z) >= min_gap:
            out.append(z)
    return out


def _log_uniform(rng, lo, hi):
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def _make_blocks(rng, kind, n):
    """Return (blocks, n, cond, expected) for one instance.

    Conditioning caps are kind-specific.  Instances that must converge at
    tolerance 1e-10 keep cond small: the computed eigenvalue at 1 drifts
    by roughly cond * eps, and (1 + drift)^(2^k) pollutes the power
    iteration once the drift window overlaps the Cauchy tolerance.
    Instances whose verdict rides the rank threshold (no eigenvalue at 1,
    or a defective 1) stay within cond 300 so true-nonzero singular values
    of I - T keep a wide margin above rank_tol; kinds decided by the
    half-plane test alone may use the full cond range up to 1e3.
    """
    blocks = []
    if kind == "holds":
        m1 = int(rng.integers(1, 3)) if n >= 3 else 1
        blocks += [(1.0 + 0.0j, 1)] * m1
        rest = n - m1
        if rest >= 2 and rng.random() < 0.3:
            blocks.append((_draw_bulk(rng, 1)[0], 2))
            rest -= 2
        if rest >= 1 and n >= 4 and rng.random() < 0.25:
            b = rng.uniform(1.0, 2.0) * (1.0 if rng.random() < 0.5 else -1.0)
            blocks.append((1.0 + 1j * b, 1))
            rest -= 1
            cond = float(rng.uniform(1.0, 5.0))
        else:
            cond = _log_uniform(rng, 1.0, 20.0)
        blocks += [(z, 1) for z in _draw_bulk(rng, rest)]
        return blocks, n, cond, VERDICT_HOLDS
    if kind == "contraction":
        defective = n >= 3 and rng.random() < 0.4
        blocks = [(z, 1) for z in _draw_bulk(rng, n - (2 if defective else 0))]
        if defective:
            blocks.append((_draw_bulk(rng, 1)[0], 2))
        cond = _log_uniform(rng, 1.0, 30.0 if defective else 300.0)
        return blocks, n, cond, VERDICT_HOLDS
    if kind == "escape":
        k = 1 if n < 6 else int(rng.integers(1, 3))
        for _ in range(k):
            blocks.append((rng.uniform(1.2, 1.9) + 1j * rng.uniform(-0.4, 0.4), 1))
        rest = n - k
        if rest >= 1 and rng.random() < 0.5:
            blocks.append((1.0 + 0.0j, 1))
            rest -= 1
        blocks += [(z, 1) for z in _draw_bulk(rng, rest)]
        return blocks, n, _log_uniform(rng, 1.0, 1000.0), VERDICT_SPECTRUM_ESCAPES
    if kind == "defective_one":
        size = 2 if n < 5 else int(rng.integers(2, 4))
        n = max(n, size)
        blocks.append((1.0 + 0.0j, size))
        blocks += [(z, 1) for z in _draw_bulk(rng, n - size)]
        return blocks, n, _log_uniform(rng, 1.0, 300.0), VERDICT_DECOMPOSITION_FAILS
    if kind == "escape_and_defect":
        n = max(n, 4)
        blocks.append((1.0 + 0.0j, 2))
        blocks.append((rng.uniform(1.2, 1.9) + 1j * rng.uniform(-0.4, 0.4), 1))
        blocks += [(z, 1) for z in _draw_bulk(rng, n - 3)]
        return blocks, n, _log_uniform(rng, 1.0, 1000.0), VERDICT_SPECTRUM_ESCAPES
    if kind == "gentle":
        # mild instances for slow Cesaro comparisons: eigenvalue 1, small
        # bulk, resolvent well conditioned at 1, near-orthogonal similarity
        eigs = [1.0 + 0.0j]
        if n >= 4 and rng.random() < 0.4:
            theta = rng.uniform(np.pi / 3.0, np.pi)
            eigs.append(np.exp(1j * theta))
        while len(eigs) < n:
            z = rng.uniform(-0.5, 0.5) + 1j * rng.uniform(-0.5, 0.5)
            if abs(z) <= 0.5:
                eigs.append(z)
        blocks = [(z, 1) for z in eigs]
        return blocks, n, float(rng.uniform(1.0, 1.5)), VERDICT_HOLDS
    raise ValueError(f"unknown instance kind: {kind}")


# Largest instance count per call; at the default dims a generate report
# at this count is up to about 10 MB of JSON.
MAX_INSTANCE_COUNT = 1000


def generate_instances(seed, count=200, dims=(2, 16), kinds=DEFAULT_KIND_CYCLE):
    """Generate structured random matrices S J S^{-1} with known verdicts.

    seed is an integer >= 0, or a nonempty list or tuple of them, so the
    instances are reproducible from it.  kinds are cycled in order; dims is
    the inclusive dimension range.  The returned Instance records carry the
    expected spectral verdict so tests can assert both internal agreement
    and intent.
    """
    for entry in seed if isinstance(seed, (list, tuple)) and seed else [seed]:
        linalg.check_count("seed", entry, 0)
    count = linalg.check_count("count", count, 1, MAX_INSTANCE_COUNT)
    rng = np.random.default_rng(seed)
    if not kinds:
        raise ValueError("kinds must be nonempty")
    lo = linalg.check_count("dims[0]", dims[0], 2)
    hi = linalg.check_count("dims[1]", dims[1], lo)
    out = []
    for i in range(count):
        kind = kinds[i % len(kinds)]
        n = int(rng.integers(lo, hi + 1))
        blocks, n, cond, expected = _make_blocks(rng, kind, n)
        J = _jordan(blocks, n)
        S = _similarity(rng, n, cond)
        T = np.linalg.solve(S.conj().T, (S @ J).conj().T).conj().T
        out.append(Instance(matrix=T, kind=kind, expected=expected,
                            dim=n, similarity_cond=cond))
    return out
