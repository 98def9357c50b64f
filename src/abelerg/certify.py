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
from .errors import DecompositionFails, ResolventPole

VERDICT_CONVERGED_ALL = "converged_all"
VERDICT_DIVERGED = "diverged"
VERDICT_SKIPPED = "skipped"
VERDICT_HOLDS = "holds"
VERDICT_SPECTRUM_ESCAPES = "spectrum_escapes"
VERDICT_DECOMPOSITION_FAILS = "decomposition_fails"

# Numerical rank threshold used by the certification paths.  The structured
# instances carry similarity conditioning up to 1e3, which lifts true-zero
# singular values to ~1e-13 relative and can drag true-nonzero ones down to
# ~1e-6 relative; 1e-8 sits orders of magnitude away from both populations.
CERTIFY_RANK_TOL = 1e-8


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
    """Condition (i): iterate the powers of A_alpha for every given alpha.

    Verdict is "converged_all" only if every alpha converges and all the
    limits agree pairwise to 10 * tol.  A resolvent pole at some alpha is
    recorded as a witness and counts as divergence for that alpha.
    """
    T = linalg.as_matrix(T, square=True)
    alphas = _check_alphas(alphas)
    per_alpha = []
    witnesses = []
    limits = []
    for a in alphas:
        try:
            A = abel.abel_average(T, a)
        except ResolventPole:
            per_alpha.append(AlphaEvidence(a, "resolvent_pole", None, None))
            witnesses.append({"kind": "resolvent_pole", "value": a})
            continue
        report = abel.power_iterate(A, tol=tol)
        if report.converged:
            per_alpha.append(AlphaEvidence(a, "converged", report.steps, report))
            limits.append(report.limit)
        else:
            per_alpha.append(
                AlphaEvidence(a, report.divergence_reason, report.steps, report))
            witnesses.append({
                "kind": "divergence_exponent",
                "value": {"alpha": a, "exponent": report.steps,
                          "reason": report.divergence_reason},
            })
    mismatch = None
    if len(limits) == len(alphas):
        mismatch = 0.0
        for i in range(len(limits)):
            for j in range(i + 1, len(limits)):
                mismatch = max(
                    mismatch, linalg.operator_norm(limits[i] - limits[j]))
        if mismatch <= 10.0 * tol:
            return ConditionICertificate(
                VERDICT_CONVERGED_ALL, per_alpha, witnesses, mismatch)
        witnesses.append({"kind": "limit_mismatch", "value": mismatch})
    return ConditionICertificate(
        VERDICT_DIVERGED, per_alpha, witnesses, mismatch)


def _rank_pair(T, zeta, rank_tol):
    """rank(M) and rank(M^2) for M = zeta I - T; equal if zeta is semisimple.

    The second threshold is rank_tol * sigma_max(M)^2, the natural scale of
    a squared matrix, so a roundoff-sized M^2 does not read as full rank.
    """
    M = zeta * np.eye(T.shape[0], dtype=np.complex128) - T
    smax = linalg.operator_norm(M)
    if smax == 0.0:
        return 0, 0
    return (linalg.numerical_rank(M, rank_tol * smax),
            linalg.numerical_rank(M @ M, rank_tol * smax * smax))


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
    max_re = float(np.max(eig.values.real)) if eig.values.size else 0.0
    witnesses = []
    if max_re > 1.0 + tol * norm_T:
        worst = eig.values[int(np.argmax(eig.values.real))]
        witnesses.append({"kind": "offending_eigenvalue", "value": complex(worst)})
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


def verify_equivalence(T, alphas=(0.1, 0.5, 0.9), tol=abel.DEFAULT_TOL,
                       rank_tol=CERTIFY_RANK_TOL):
    """Validate every argument, run both certificates, compare verdicts."""
    linalg.check_tolerance("tol", tol)
    linalg.check_tolerance("rank_tol", rank_tol)
    alphas = _check_alphas(alphas)
    ci = check_power_convergence(T, alphas, tol=tol)
    cii = check_spectral_condition(T, tol=tol, rank_tol=rank_tol)
    agree = (ci.verdict == VERDICT_CONVERGED_ALL) == (cii.verdict == VERDICT_HOLDS)
    return EquivalenceReport(
        condition_i=ci, condition_ii=cii, agree=agree,
        tolerances_used={"tol": tol, "rank_tol": rank_tol,
                         "alphas": [float(a) for a in alphas]})


def cesaro_sup_estimate(T, N_max):
    """sup_{N <= N_max} of the Cesaro average norms, by a running sweep.

    A finite sweep cannot prove boundedness; treat the value as a
    diagnostic.  Overflow inside the sweep is reported as +inf.
    """
    T = linalg.as_matrix(T, square=True)
    N_max = int(N_max)
    if N_max < 1:
        raise ValueError("N_max must be >= 1")
    n = T.shape[0]
    P = np.eye(n, dtype=np.complex128)
    S = P.copy()
    sup = linalg.operator_norm(S)
    for N in range(2, N_max + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            P = P @ T
        if not np.all(np.isfinite(P)):
            return math.inf
        S = S + P
        sup = max(sup, linalg.operator_norm(S) / N)
    return float(sup)


def abel_partial_sup_estimate(T, alpha_grid, N_max):
    """sup over the alpha grid and N <= N_max of the partial Abel sums.

    Same finite-sweep caveat and +inf overflow convention as the Cesaro
    estimate.
    """
    T = linalg.as_matrix(T, square=True)
    N_max = int(N_max)
    if N_max < 0:
        raise ValueError("N_max must be >= 0")
    n = T.shape[0]
    eye = np.eye(n, dtype=np.complex128)
    sup = 0.0
    for a in (abel.check_alpha(x) for x in alpha_grid):
        P = eye.copy()
        S = eye.copy()
        sup = max(sup, (1.0 - a) * linalg.operator_norm(S))
        for _ in range(N_max):
            with np.errstate(over="ignore", invalid="ignore"):
                P = a * (P @ T)
            if not np.all(np.isfinite(P)):
                return math.inf
            S = S + P
            sup = max(sup, (1.0 - a) * linalg.operator_norm(S))
    return float(sup)


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
    sigma = np.logspace(0.0, np.log10(cond), n) if n > 1 else np.ones(1)
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
    if i != n:
        raise ValueError(f"block sizes sum to {i}, expected {n}")
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

    kinds are cycled in order; dims is the inclusive dimension range.  The
    returned Instance records carry the expected spectral verdict so tests
    can assert both internal agreement and intent.
    """
    if not 1 <= int(count) <= MAX_INSTANCE_COUNT:
        raise ValueError(f"count must lie in [1, {MAX_INSTANCE_COUNT}]")
    rng = np.random.default_rng(seed)
    if not kinds:
        raise ValueError("kinds must be nonempty")
    lo, hi = int(dims[0]), int(dims[1])
    if lo < 2 or hi < lo:
        raise ValueError("dims must satisfy 2 <= lo <= hi")
    out = []
    for i in range(int(count)):
        kind = kinds[i % len(kinds)]
        n = int(rng.integers(lo, hi + 1))
        blocks, n, cond, expected = _make_blocks(rng, kind, n)
        J = _jordan(blocks, n)
        S = _similarity(rng, n, cond)
        T = np.linalg.solve(S.conj().T, (S @ J).conj().T).conj().T
        out.append(Instance(matrix=T, kind=kind, expected=expected,
                            dim=n, similarity_cond=cond))
    return out
