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


def _rank_pair(T, rank_tol):
    """rank(M) and rank(M^2) for M = I - T; equal if 1 is semisimple.

    The second threshold is rank_tol * sigma_max(M)^2, the natural scale of
    a squared matrix, so a roundoff-sized M^2 does not read as full rank.
    Raises Overflow when M^2 leaves the representable range.
    """
    M = np.eye(T.shape[0], dtype=np.complex128) - T
    smax = linalg.operator_norm(M)
    with np.errstate(over="ignore", invalid="ignore"):
        M2 = M @ M
    if not np.isfinite(M2).all():
        raise Overflow("(I - T)^2 overflowed")
    return (linalg.numerical_rank(M, rank_tol * smax),
            linalg.numerical_rank(M2, rank_tol * smax * smax))


def check_spectral_condition(T, tol=abel.DEFAULT_TOL, rank_tol=CERTIFY_RANK_TOL):
    """Condition (ii): spectrum in the half-plane, plus the direct sum.

    Three sub-checks, reported in witness order: (a) every eigenvalue has
    Re <= 1 + tol * ||T||; (b) rank(I - T) = rank((I - T)^2), which in
    finite dimension says the eigenvalue 1 is semisimple; (c) the k x k
    pairing Y* X of orthonormal bases X of Ker(I - T) and Y of
    Ker((I - T)*) is invertible, so Ker(I - T) + Im(I - T) is direct
    (abel.riesz_projection_at_one).
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
    rank_first, rank_second = _rank_pair(T, rank_tol)
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


def _dyadic_sup(T, scales, last, weigh):
    """max of weigh(norms, m) over m = 1, 2, 4, ... below last and m = last,
    norms holding the 2-norm of the sum

        S_m = I + sT + ... + (sT)^(m-1)

    for each s in scales, all scales as one stack.  S_last comes from
    linalg.power_and_geometric_sum, the others by doubling: S_2m = S_m +
    P_m S_m with P_m = (sT)^m, and P_2m = P_m P_m.  +inf once a sum or its
    norm leaves the double range, or (sT)^last does.
    """
    def top(S, m):
        norms = np.array([linalg.operator_norm(A) for A in S])
        return float(weigh(norms, m).max())

    stack = scales[:, None, None] * T
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            # the last prefix first: its arrays are freed before the
            # doubling makes its own
            sup = top(linalg.power_and_geometric_sum(stack, last)[1], last)
            S, m = np.zeros_like(stack) + np.eye(len(T)), 1
            while m < last:
                if m > 1:
                    P = stack if m == 2 else P @ P
                    S += P @ S
                    if not np.isfinite(S).all():
                        return math.inf
                sup = max(sup, top(S, m))
                m *= 2
    except Overflow:
        return math.inf
    return sup


def cesaro_sup_estimate(T, N_max):
    """sup of the Cesaro average norms ||S_N|| / N, sampled at N = 1, 2,
    4, ... below N_max and at N_max.

    A finite sample cannot prove boundedness; treat the value as a
    diagnostic.  Overflow is reported as +inf.
    """
    T = linalg.as_matrix(T, square=True)
    N_max = linalg.check_count("N_max", N_max, 1)
    return _dyadic_sup(T, np.ones(1), N_max, lambda norms, m: norms / m)


def abel_partial_sup_estimate(T, alpha_grid, N_max):
    """sup over the alpha grid of the partial Abel sums' norms
    (1 - alpha) ||I + alpha T + ... + (alpha T)^(m-1)||, sampled at m = 1,
    2, 4, ... below N_max + 1 and at N_max + 1.

    Same caveat and +inf overflow convention as the Cesaro estimate.
    """
    T = linalg.as_matrix(T, square=True)
    N_max = linalg.check_count("N_max", N_max, 0)
    alphas = np.array([abel.check_alpha(a) for a in alpha_grid])
    if not alphas.size:
        return 0.0
    return _dyadic_sup(T, alphas, N_max + 1,
                       lambda norms, m: (1.0 - alphas) * norms)


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
