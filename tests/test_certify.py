import math
import tracemalloc

import numpy as np
import pytest

from abelerg import abel, certify, linalg
from abelerg.errors import Overflow, ResolventPole


def jordan_block():
    return np.array([[1.0, 1.0], [0.0, 1.0]], dtype=np.complex128)


def test_condition_i_identity_converges_immediately():
    cert = certify.check_power_convergence(np.eye(3), alphas=(0.5,))
    assert cert.verdict == certify.VERDICT_CONVERGED_ALL
    assert cert.per_alpha[0].outcome == "converged"
    assert cert.max_limit_mismatch == 0.0


def test_condition_i_limits_agree_across_alpha():
    T = np.diag([1.0, 0.5, -0.25]).astype(complex)
    cert = certify.check_power_convergence(T, alphas=(0.1, 0.5, 0.9))
    assert cert.verdict == certify.VERDICT_CONVERGED_ALL
    assert cert.max_limit_mismatch <= 1e-9


def test_condition_i_spectrum_escape_diverges():
    cert = certify.check_power_convergence(np.diag([1.5]), alphas=(0.5, 0.9))
    assert cert.verdict == certify.VERDICT_DIVERGED
    kinds = {w["kind"] for w in cert.witnesses}
    assert "divergence_exponent" in kinds or "resolvent_pole" in kinds


def test_condition_i_resolvent_pole_recorded():
    # alpha = 0.5 puts the pole exactly at the eigenvalue 2
    cert = certify.check_power_convergence(np.diag([2.0]), alphas=(0.5,))
    assert cert.verdict == certify.VERDICT_DIVERGED
    assert cert.per_alpha[0].outcome == "resolvent_pole"


def count_power_iterations(monkeypatch):
    """A list that grows by one entry per abel.power_iterate call."""
    calls = []
    original = abel.power_iterate
    monkeypatch.setattr(abel, "power_iterate",
                        lambda A, tol: calls.append(1) or original(A, tol))
    return calls


def test_condition_i_stops_at_the_first_divergence(monkeypatch):
    # the eigenvalue 1.5 escapes at alpha = 0.1; 0.5 and 0.9 never run
    calls = count_power_iterations(monkeypatch)
    cert = certify.check_power_convergence(np.diag([1.5, 0.3]),
                                           certify.DEFAULT_ALPHAS)
    assert cert.verdict == certify.VERDICT_DIVERGED
    assert [ev.alpha for ev in cert.per_alpha] == [0.1]
    assert len(cert.witnesses) == 1 and cert.max_limit_mismatch is None
    assert len(calls) == 1


def test_condition_i_runs_a_repeated_alpha_once(monkeypatch):
    # alpha = 0.5 given three times used to run three identical iterations
    # and compare three identical limits
    calls = count_power_iterations(monkeypatch)
    report = certify.verify_equivalence(np.diag([1.0, 0.5, 0.2]),
                                        alphas=(0.5, 0.5, 0.5))
    ci = report.condition_i
    assert ci.verdict == certify.VERDICT_CONVERGED_ALL
    assert [ev.alpha for ev in ci.per_alpha] == [0.5]
    assert ci.max_limit_mismatch == 0.0
    assert len(calls) == 1
    assert report.tolerances_used["alphas"] == [0.5, 0.5, 0.5]


def test_condition_i_stops_at_a_pole_of_the_smallest_alpha(monkeypatch):
    # 1/alpha = 10 is the eigenvalue 10 at alpha = 0.1
    calls = count_power_iterations(monkeypatch)
    cert = certify.check_power_convergence(np.diag([10.0, 0.3]),
                                           (0.9, 0.5, 0.1))
    assert cert.verdict == certify.VERDICT_DIVERGED
    assert [(ev.alpha, ev.outcome) for ev in cert.per_alpha] == [
        (0.1, "resolvent_pole")]
    assert cert.witnesses == [{"kind": "resolvent_pole", "value": 0.1}]
    assert calls == []


def reference_condition_i(T, alphas, tol=abel.DEFAULT_TOL):
    """Condition (i) without the early stop: every alpha in ascending
    order, and the limit mismatch by operator_norm.  Returns the verdict,
    the per-alpha (alpha, outcome, steps) rows and the limits."""
    rows, limits = [], []
    for a in sorted(alphas):
        try:
            report = abel.power_iterate(abel.abel_average(T, a), tol)
        except ResolventPole:
            rows.append((a, "resolvent_pole", None))
            continue
        rows.append((a, "converged" if report.converged
                     else report.divergence_reason, report.steps))
        if report.converged:
            limits.append(report.limit)
    converged = len(limits) == len(rows) and all(
        linalg.operator_norm(L - K) <= 10.0 * tol
        for i, L in enumerate(limits) for K in limits[i + 1:])
    verdict = certify.VERDICT_CONVERGED_ALL if converged \
        else certify.VERDICT_DIVERGED
    return verdict, rows, limits


def test_condition_i_verdicts_match_the_every_alpha_reference():
    matrices = [inst.matrix for inst in
                certify.generate_instances(3, count=120, dims=(2, 16))]
    matrices += [np.diag([complex(1.0, b), 0.3])
                 for b in (1e-5, 1e-7, 1e-10)]
    # every alpha converges, to limits of norm 2e6 that differ by 2.3e-9
    matrices.append(np.array([[1.0, 1e6, 0.0], [0.0, 0.5, 0.0],
                              [0.0, 0.0, 0.2]]))
    verdicts, pairs, bound = set(), 0, 10.0 * abel.DEFAULT_TOL
    for T in matrices:
        cert = certify.check_power_convergence(T, certify.DEFAULT_ALPHAS)
        verdict, rows, limits = reference_condition_i(
            T, certify.DEFAULT_ALPHAS)
        assert cert.verdict == verdict
        ran = [(ev.alpha, ev.outcome, ev.steps) for ev in cert.per_alpha]
        assert ran == rows[:len(ran)]
        # every alpha up to the first failure ran, and none after it
        assert len(ran) == next(
            (i + 1 for i, row in enumerate(rows) if row[1] != "converged"),
            len(rows))
        for i, L in enumerate(limits):
            for K in limits[i + 1:]:
                with np.errstate(over="ignore", invalid="ignore"):
                    at_most = linalg._norm_at_most(L - K, bound)[0]
                assert at_most == (linalg.operator_norm(L - K) <= bound)
                pairs += 1
        verdicts.add(verdict)
    assert verdicts == {certify.VERDICT_CONVERGED_ALL,
                        certify.VERDICT_DIVERGED}
    assert pairs > 0
    # the last matrix fails on its limits alone
    assert cert.witnesses == [
        {"kind": "limit_mismatch", "value": cert.max_limit_mismatch}]
    assert cert.max_limit_mismatch > bound


def test_condition_ii_holds_on_projection_like_matrix():
    cert = certify.check_spectral_condition(np.diag([1.0, 0.25]))
    assert cert.verdict == certify.VERDICT_HOLDS
    assert cert.rank_first == cert.rank_second == 1
    assert abs(cert.max_real_part - 1.0) <= 1e-12


def test_condition_ii_escape_witness():
    cert = certify.check_spectral_condition(np.diag([1.5, 0.5]))
    assert cert.verdict == certify.VERDICT_SPECTRUM_ESCAPES
    assert cert.witnesses[0]["kind"] == "offending_eigenvalue"
    assert abs(cert.witnesses[0]["value"] - 1.5) <= 1e-12


def test_condition_ii_jordan_rank_pair():
    cert = certify.check_spectral_condition(jordan_block())
    assert cert.verdict == certify.VERDICT_DECOMPOSITION_FAILS
    assert (cert.rank_first, cert.rank_second) == (1, 0)


def test_condition_ii_stack_defect_witness():
    # rank pair [1, 1], but the kernel and image of I - T are 1.5e-8 apart
    # in angle: the stacked basis has sigma_min / sigma_max = 7.5e-9
    T = np.array([[1.0 - 1.5e-8, -1.0], [0.0, 1.0]])
    result = certify.verify_equivalence(T)
    cert = result.condition_ii
    assert cert.verdict == certify.VERDICT_DECOMPOSITION_FAILS
    assert (cert.rank_first, cert.rank_second) == (1, 1)
    assert [w["kind"] for w in cert.witnesses] == ["stack_defect"]
    assert "sigma_min/sigma_max = 7.500e-09" in cert.witnesses[0]["value"]
    assert result.condition_i.verdict == certify.VERDICT_DIVERGED
    assert result.agree


@pytest.mark.parametrize("bad", [0.0, float("nan"), float("inf"), 1.0, 1e300])
def test_condition_ii_rejects_bad_tolerances(bad):
    T = np.diag([1.0, 0.5])
    with pytest.raises(ValueError, match="tol"):
        certify.check_spectral_condition(T, tol=bad)
    with pytest.raises(ValueError, match="rank_tol"):
        certify.check_spectral_condition(T, rank_tol=bad)


def norm_overflow_matrices():
    """Finite matrices whose 2-norm passes the double range; the second
    has a finite infinity norm."""
    four = np.diag([2.0, 0.5, 0.5, 0.5])
    four[:3, 3] = 1.2e308
    return [np.array([[2.0, 1.7e308, 1.7e308], [0.0, 0.5, 0.0],
                      [0.0, 0.0, 0.5]]), four]


@pytest.mark.parametrize("T", norm_overflow_matrices(), ids=["3x3", "4x4"])
def test_condition_ii_norm_overflow_raises(T):
    # the infinite ||T|| once scaled the escape test and the rank
    # thresholds, so every rank read 0 and (ii) read "holds"
    with pytest.raises(Overflow, match="2-norm"):
        linalg.operator_norm(T)
    with pytest.raises(Overflow, match="2-norm"):
        certify.check_spectral_condition(T)


def test_verify_equivalence_agrees_both_ways():
    good = certify.verify_equivalence(np.diag([1.0, 0.5]))
    assert good.agree
    assert good.condition_i.verdict == certify.VERDICT_CONVERGED_ALL
    assert good.condition_ii.verdict == certify.VERDICT_HOLDS
    bad = certify.verify_equivalence(jordan_block())
    assert bad.agree
    assert bad.condition_i.verdict == certify.VERDICT_DIVERGED
    assert bad.condition_ii.verdict == certify.VERDICT_DECOMPOSITION_FAILS


def test_cesaro_sup_estimate_identity():
    # averages of the identity are the identity: sup norm is exactly 1
    assert abs(certify.cesaro_sup_estimate(np.eye(3), 50) - 1.0) <= 1e-12


def test_cesaro_sup_estimate_overflow_is_inf():
    assert certify.cesaro_sup_estimate(np.diag([4.0]), 600) == math.inf


def test_cesaro_sup_estimate_sum_overflow_is_inf():
    # the running sum overflows one step before the term does; the sweep
    # used to raise "matrix entries must be finite" there
    assert certify.cesaro_sup_estimate(np.diag([3.6]), 1000) == math.inf


def test_abel_partial_sup_estimate_sum_overflow_is_inf():
    assert certify.abel_partial_sup_estimate(
        np.diag([4.0]), (0.1, 0.5, 0.9), 1000) == math.inf


def reference_cesaro_sup(T, N_max):
    # the Cesaro sweep with one operator_norm call per prefix sum
    P = S = np.eye(T.shape[0], dtype=np.complex128)
    sup = linalg.operator_norm(S)
    with np.errstate(over="ignore", invalid="ignore"):
        for N in range(2, N_max + 1):
            P = P @ T
            S = S + P
            if not np.isfinite(S).all():
                return math.inf
            sup = max(sup, linalg.operator_norm(S) / N)
    return sup


def reference_abel_partial_sup(T, alphas, N_max):
    # the Abel sweep with one operator_norm call per prefix sum
    sup = 0.0
    for a in alphas:
        P = S = np.eye(T.shape[0], dtype=np.complex128)
        sup = max(sup, (1.0 - a) * linalg.operator_norm(S))
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(N_max):
                P = a * (P @ T)
                S = S + P
                if not np.isfinite(S).all():
                    return math.inf
                sup = max(sup, (1.0 - a) * linalg.operator_norm(S))
    return sup


def assert_sweeps_match_reference(T, N_max, alphas=(0.1, 0.5, 0.9)):
    """Both batched sweeps equal the per-prefix reference bit for bit."""
    T = np.asarray(T, dtype=np.complex128)
    if N_max >= 1:
        assert certify.cesaro_sup_estimate(T, N_max) \
            == reference_cesaro_sup(T, N_max)
    assert certify.abel_partial_sup_estimate(T, alphas, N_max) \
        == reference_abel_partial_sup(T, alphas, N_max)


def test_sweeps_match_per_prefix_reference():
    # one cycle of the default kinds; the escapes grow like 1.9^N
    for inst in certify.generate_instances(5, count=6, dims=(2, 16)):
        for N_max in (0, 1, 1000):
            assert_sweeps_match_reference(inst.matrix, N_max)
    # n = 64 buffers 16 sums: N_max = 100 takes 7 buffers, the last partial
    T = certify.generate_instances(7, count=1, dims=(64, 64))[0].matrix
    assert linalg.STACK_CHUNK_BYTES // (16 * 64 * 64) == 16
    assert_sweeps_match_reference(T, 100)


@pytest.mark.parametrize("T", [
    [[0.0, 1e160], [0.0, 0.0]],
    [[0.0, 1e160 * (1.0 + 1.0j)], [0.0, 0.0]],
    certify.generate_instances(1, count=1, kinds=("escape",))[0].matrix,
], ids=["real", "complex", "escape"])
def test_sweeps_match_reference_where_gram_bounds_overflow(monkeypatch, T):
    # finite sums whose S* S overflows to inf, or to inf - inf = NaN; a
    # NaN bound sorted last would skip the sums that set the sup (the
    # escape instance's reaches 8.4e272 in the Cesaro sweep).  Scaled by
    # a power of two, their bounds stay finite, so few take exact norms
    sizes = count_normed_matrices(monkeypatch)
    assert_sweeps_match_reference(T, 1000)
    assert sum(sizes) <= 20


def scaled_to_norm(T, norm):
    return T * (norm / np.linalg.norm(T, 2))


def complex_normal(seed, n):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


REAL_T = scaled_to_norm(np.random.default_rng(1).normal(size=(5, 5)), 0.9)

# (T, the Cesaro and the Abel sweep's row-steps as inclusive ranges): a
# row-step is one sum of one row, 1000 and 3 x 1001 with no row settled
SETTLING_CASES = {
    # a real T keeps the imaginary parts of its sums at 0, so its rows
    # settle by the real parts alone (75 and 115 row-steps)
    "real": (REAL_T, (1, 100), (3, 150)),
    # imaginary parts 1e-14 of the real ones count, so the rows settle
    # later than the real T's (126 and 195)
    "nearly_real": (REAL_T + 1e-14j * np.random.default_rng(4).normal(
        size=(5, 5)), (101, 999), (151, 3002)),
    # a sum with a zero part never settles, as one of an upper-triangular
    # T has below its diagonal
    "upper_triangular": (scaled_to_norm(np.triu(complex_normal(2, 5)), 0.9),
                         (1000, 1000), (3003, 3003)),
    # ||T||_2 = 1.21, so 0.9 ||T||_2 >= 1 and the alpha = 0.9 row keeps
    # every step, as the Cesaro row does; alpha = 0.1 and 0.5 settle
    "gentle_alpha_0.9_unsettled": (
        certify.generate_instances(12, count=1, dims=(4, 4),
                                   kinds=("gentle",))[0].matrix,
        (1000, 1000), (1003, 3002)),
    # ||T||_2 = 0.9: the Cesaro row settles too
    "contraction": (scaled_to_norm(complex_normal(3, 5), 0.9), (1, 999),
                    (3, 3002)),
}


def count_row_steps(monkeypatch):
    """Wrap certify._raise_sup, which receives every flushed buffer of
    sums; the list collects the row-steps (sums) of each flush."""
    steps = []
    raise_sup = certify._raise_sup

    def counted(sums, *args):
        steps.append(sums.shape[0] * sums.shape[1])
        return raise_sup(sums, *args)

    monkeypatch.setattr(certify, "_raise_sup", counted)
    return steps


@pytest.mark.parametrize("case", sorted(SETTLING_CASES))
def test_sweeps_match_reference_where_rows_settle(monkeypatch, case):
    T, (cesaro_low, cesaro_high), (abel_low, abel_high) = SETTLING_CASES[case]
    assert_sweeps_match_reference(T, 1000)
    steps = count_row_steps(monkeypatch)
    certify.cesaro_sup_estimate(T, 1000)
    assert cesaro_low <= sum(steps) <= cesaro_high
    steps.clear()
    certify.abel_partial_sup_estimate(T, (0.1, 0.5, 0.9), 1000)
    assert abel_low <= sum(steps) <= abel_high


def test_a_row_settles_only_with_growth_below_one_and_no_zero_part():
    # the sweeps check no row whose growth is 1 or more, so they cannot
    # show that such a row never settles; a zero part has no gap below it,
    # save the imaginary parts of a real T's sums
    P = np.full((4, 2, 2), 1e-30 + 1e-30j)
    sums = np.full((4, 2, 2), 1.0 + 1.0j)
    sums[3, 0, 1] = 1.0
    growth, drift = np.array([0.5, 0.999, 1.0, 0.5]), np.zeros(4)
    with np.errstate(divide="ignore", invalid="ignore"):
        settled, _, _ = certify._settled(P, sums, growth, drift, False)
        assert settled.tolist() == [True, True, False, False]
        P, sums = P.real + 0j, sums.real + 0j
        sums[3, 0, 1] = 0.0
        settled, _, _ = certify._settled(P, sums, growth, drift, False)
        assert settled.tolist() == [False] * 4
        settled, _, _ = certify._settled(P, sums, growth, drift, True)
        assert settled.tolist() == [True, True, False, False]


def test_sweeps_raise_nothing_where_the_norm_of_T_overflows(monkeypatch):
    # ||T||_2 = 2.1e308 reads inf, so no row settles, and taking it
    # raises nothing.  T is nilpotent, so the sums stay finite; the
    # Cesaro sums' norms overflow, where the reference raises
    T = np.array([[0.0, 1.5e308, 1.5e308], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    steps = count_row_steps(monkeypatch)
    assert certify.abel_partial_sup_estimate(T, (0.1, 0.5), 1000) \
        == reference_abel_partial_sup(T, (0.1, 0.5), 1000)
    assert sum(steps) == 2 * 1001
    assert certify.cesaro_sup_estimate(T, 1000) == math.inf
    with pytest.raises(Overflow):
        reference_cesaro_sup(T, 1000)


def test_sweep_memory_is_bounded():
    # one buffer of STACK_CHUNK_BYTES (here a single 1 MiB sum) and a few
    # n x n matrices whatever N_max; keeping every sum would take 50
    n = 256
    T = certify.generate_instances(3, count=1, dims=(n, n))[0].matrix
    tracemalloc.start()
    try:
        certify.cesaro_sup_estimate(T, 50)
        certify.abel_partial_sup_estimate(T, (0.5,), 50)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * max(linalg.STACK_CHUNK_BYTES, 16 * n * n)


def count_normed_matrices(monkeypatch):
    """Wrap linalg.operator_norms; the list collects the size of each
    stack it is handed."""
    sizes = []
    norms = linalg.operator_norms

    def counted(stack):
        sizes.append(len(stack))
        return norms(stack)

    monkeypatch.setattr(linalg, "operator_norms", counted)
    return sizes


def test_abel_sweep_norms_only_changed_sums(monkeypatch):
    # the sums (2 - 0.5^k) I settle at 2 I after a few dozen steps
    N_max = 1000
    P = S = np.eye(2, dtype=np.complex128)
    distinct = 1
    for _ in range(N_max):
        P = 0.5 * (P @ np.eye(2))
        distinct += bool((S + P != S).any())
        S = S + P
    sizes = count_normed_matrices(monkeypatch)
    sup = certify.abel_partial_sup_estimate(np.eye(2), (0.5,), N_max)
    # the bound of s I is 2^(1/4) s, weighted 0.5; after the largest sum
    # sets the sup near 0.5 * 2, the bounds of I and 1.5 I fall below it
    # and every other distinct sum's bound stays above, in calls of 1, 2,
    # 4, ... sums
    assert distinct < 100
    assert sizes == [1, 2, 4, 8, 16, distinct - 33]
    assert sup == reference_abel_partial_sup(np.eye(2), (0.5,), N_max)


def test_zero_matrix_norms_only_the_heaviest_sum(monkeypatch):
    # every sum is I, so each alpha's sweep has one distinct sum; the one
    # weighted 1 - 0.1 sets the sup, and the weighted bounds 3^(1/4) / 2
    # and 3^(1/4) / 10 of the others fall below it
    T = np.zeros((3, 3))
    alphas = (0.1, 0.5, 0.9)
    sizes = count_normed_matrices(monkeypatch)
    sup = certify.abel_partial_sup_estimate(T, alphas, 1000)
    assert sizes == [1]
    assert sup == reference_abel_partial_sup(T, alphas, 1000) == 0.9


def test_cesaro_sweep_norms_few_of_a_gentle_instances_sums(monkeypatch):
    # the averages approach a rank-one projection, where the bound
    # ||S* S||_F^(1/2) is the norm itself, so most of the 1000 sums' bounds
    # fall below the sup
    T = certify.generate_instances(0, count=1, dims=(8, 8),
                                   kinds=("gentle",))[0].matrix
    sizes = count_normed_matrices(monkeypatch)
    sup = certify.cesaro_sup_estimate(T, 1000)
    assert sum(sizes) <= 50
    assert sup == reference_cesaro_sup(T, 1000)


@pytest.mark.parametrize("seed", [0, 8])
def test_abel_sweep_steps_few_of_a_gentle_instances_sums(monkeypatch, seed):
    # seed 0 is the instance above, seed 8 tools/kernel_timings.py's at
    # n = 8; each alpha's row leaves once no later step can change its
    # sum, alpha = 0.9 by step 410 or so, out of 3 x 1001 row-steps
    T = certify.generate_instances(seed, count=1, dims=(8, 8),
                                   kinds=("gentle",))[0].matrix
    steps = count_row_steps(monkeypatch)
    sup = certify.abel_partial_sup_estimate(T, (0.1, 0.5, 0.9), 1000)
    assert sum(steps) <= 800
    assert sup == reference_abel_partial_sup(T, (0.1, 0.5, 0.9), 1000)


def test_alpha_grid_is_validated_before_any_sweep(monkeypatch):
    sizes = count_normed_matrices(monkeypatch)
    with pytest.raises(ValueError):
        certify.abel_partial_sup_estimate(np.eye(2), (0.5, 1.5), 1000)
    assert sizes == []
    assert certify.abel_partial_sup_estimate(np.eye(2), (), 1000) == 0.0


def test_abel_partial_sup_matches_norm_bound():
    # for T = I the partial sums are (1 - alpha^N) I, always below 1
    sup = certify.abel_partial_sup_estimate(np.eye(2), (0.1, 0.5, 0.9), 200)
    assert sup <= 1.0 + 1e-12


def test_numerical_range_bound_controls_abel_norm(hermitian_part_max_eig):
    # max Re W(T) <= 1 forces ||A_alpha|| <= 1
    rng = np.random.default_rng(77)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        T0 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        T0 /= np.linalg.norm(T0, 2)
        shift = 1.0 - hermitian_part_max_eig(T0)
        T = T0 + (shift - 1e-6) * np.eye(n)
        for a in (0.1, 0.5, 0.9):
            A = abel.abel_average(T, a)
            assert np.linalg.norm(A, 2) <= 1.0 + 1e-10


def test_kernel_image_transfer_fixed_spaces():
    # Ker(I - T) and Ker(I - A_alpha) coincide, likewise the images
    rng = np.random.default_rng(55)
    for _ in range(10):
        n = int(rng.integers(3, 9))
        T = np.zeros((n, n), dtype=np.complex128)
        T[0, 0] = 1.0
        M = rng.normal(size=(n - 1, n - 1)) + 1j * rng.normal(size=(n - 1, n - 1))
        T[1:, 1:] = 0.7 * M / np.linalg.norm(M, 2)
        W = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        Q, _ = np.linalg.qr(W)
        T = Q @ T @ Q.conj().T
        I = np.eye(n)
        A = abel.abel_average(T, 0.5)
        for basis in (linalg.kernel_basis, linalg.image_basis):
            V_T = basis(I - T, certify.CERTIFY_RANK_TOL)
            V_A = basis(I - A, certify.CERTIFY_RANK_TOL)
            assert V_T.shape == V_A.shape
            # the orthogonal projectors differ by the sine of the largest
            # principal angle between the two subspaces
            gap = np.linalg.norm(V_T @ V_T.conj().T - V_A @ V_A.conj().T, 2)
            assert gap <= 1e-7


def test_generate_instances_reproducible_and_labeled():
    first = certify.generate_instances(123, count=12)
    second = certify.generate_instances(123, count=12)
    assert len(first) == 12
    for a, b in zip(first, second):
        assert np.array_equal(a.matrix, b.matrix)
        assert a.kind == b.kind and a.expected == b.expected
    kinds = {inst.kind for inst in first}
    assert len(kinds) >= 4
    dims = {inst.dim for inst in first}
    assert all(2 <= d <= 16 for d in dims)


def test_generate_instances_expected_matches_certificates():
    instances = certify.generate_instances(4242, count=30)
    for inst in instances:
        cii = certify.check_spectral_condition(inst.matrix)
        holds = cii.verdict == certify.VERDICT_HOLDS
        assert holds == (inst.expected == "holds"), \
            f"{inst.kind} at cond {inst.similarity_cond:.1f}"


def test_generate_instances_rejects_bad_arguments():
    with pytest.raises(ValueError):
        certify.generate_instances(1, count=0)
    with pytest.raises(ValueError):
        certify.generate_instances(
            1, count=certify.MAX_INSTANCE_COUNT + 1)
    with pytest.raises(ValueError):
        certify.generate_instances(1, count=4, kinds=("no_such_kind",))
    with pytest.raises(ValueError, match="kinds must be nonempty"):
        certify.generate_instances(1, count=4, kinds=())


@pytest.mark.parametrize("seed", [None, -1, [1, -2], []],
                         ids=["none", "negative", "negative-entry", "empty"])
def test_generate_instances_rejects_bad_seed(seed):
    # None drew OS entropy, so the instances could not be reproduced; -1
    # and [1, -2] raised numpy's message, which did not name the argument
    with pytest.raises(ValueError, match=r"^seed must be "):
        certify.generate_instances(seed, count=1)


def test_generate_instances_takes_list_and_tuple_seeds():
    # the benchmark seeds each instance from a list such as [seed, 1, i]
    first = certify.generate_instances([3, 1, 4], count=2)
    second = certify.generate_instances((3, 1, 4), count=2)
    for a, b in zip(first, second):
        assert np.array_equal(a.matrix, b.matrix)
    assert not np.array_equal(
        first[0].matrix, certify.generate_instances(3, count=1)[0].matrix)


def test_verify_equivalence_rejects_empty_matrix():
    # used to fail inside numpy with "zero-size array to reduction"
    with pytest.raises(ValueError, match="nonempty"):
        certify.verify_equivalence(np.zeros((0, 0)))


def test_verify_equivalence_validates_before_condition_i(monkeypatch):
    # a bad rank_tol used to surface only after every alpha's power
    # iteration had run
    def fail(*args, **kwargs):
        raise AssertionError("condition (i) ran before validation")

    monkeypatch.setattr(certify, "check_power_convergence", fail)
    T = np.diag([1.0, 0.3])
    for kwargs in ({"rank_tol": math.nan}, {"rank_tol": -1.0},
                   {"tol": math.nan}, {"tol": math.inf}, {"alphas": ()},
                   {"alphas": (0.5, 1.5)}):
        with pytest.raises(ValueError):
            certify.verify_equivalence(T, **kwargs)
