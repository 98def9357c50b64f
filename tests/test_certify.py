import functools
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


def sampled_lengths(last):
    """The prefix lengths the sup estimates sample: 1, 2, 4, ... below
    last, and last."""
    return {1 << j for j in range(last.bit_length()) if 1 << j < last} | {last}


def reference_cesaro_sup(T, N_max, sampled=False):
    # the Cesaro sup with one operator_norm call per prefix sum, or, when
    # sampled, per prefix sum of a length that the estimate samples; any
    # prefix sum that overflows makes it inf
    lengths = sampled_lengths(N_max) if sampled else range(1, N_max + 1)
    P = S = np.eye(T.shape[0], dtype=np.complex128)
    sup = linalg.operator_norm(S)
    with np.errstate(over="ignore", invalid="ignore"):
        for N in range(2, N_max + 1):
            P = P @ T
            S = S + P
            if not np.isfinite(S).all():
                return math.inf
            if N in lengths:
                sup = max(sup, linalg.operator_norm(S) / N)
    return sup


def reference_abel_partial_sup(T, alphas, N_max, sampled=False):
    # the Abel sup with one operator_norm call per prefix sum, or per
    # sampled one, as reference_cesaro_sup; the sums have N_max + 1 lengths
    lengths = (sampled_lengths(N_max + 1) if sampled
               else range(1, N_max + 2))
    sup = 0.0
    for a in alphas:
        P = S = np.eye(T.shape[0], dtype=np.complex128)
        sup = max(sup, (1.0 - a) * linalg.operator_norm(S))
        with np.errstate(over="ignore", invalid="ignore"):
            for m in range(2, N_max + 2):
                P = a * (P @ T)
                S = S + P
                if not np.isfinite(S).all():
                    return math.inf
                if m in lengths:
                    sup = max(sup, (1.0 - a) * linalg.operator_norm(S))
    return sup


# Relative gap allowed between a sup estimate, whose sums come by
# doubling and binary powering, and the reference's sums, added one term
# at a time, at the sampled lengths.  On 5000 draws shaped like
# tests/test_properties.py's the largest gap was 2.8e-14.  An eigenvalue
# 1 of index 2 or 3 under an ill-conditioned similarity amplifies the
# rounding of the two orders apart: the defective_one instance of
# generate_instances(5, count=6) shows 4.3e-9 at N_max = 1000 (the
# reference agrees with extended precision there to 1.2e-12), and the
# escape_and_defect one 7.6e-10.
SAMPLED_RTOL = 1e-13
GENERATED_RTOL = 1e-8


def assert_sweeps_match_reference(T, N_max, alphas=(0.1, 0.5, 0.9),
                                  rtol=SAMPLED_RTOL):
    """Each sup estimate equals the per-prefix reference at the sampled
    lengths, to rtol relative, and is at most the reference's sup over
    every prefix, to the same rtol."""
    T = np.asarray(T, dtype=np.complex128)
    cases = [(certify.abel_partial_sup_estimate(T, alphas, N_max),
              functools.partial(reference_abel_partial_sup, T, alphas, N_max))]
    if N_max >= 1:
        cases.append((certify.cesaro_sup_estimate(T, N_max),
                      functools.partial(reference_cesaro_sup, T, N_max)))
    for estimate, reference in cases:
        assert estimate == pytest.approx(reference(True), rel=rtol)
        assert estimate <= reference(False) * (1.0 + rtol)


def test_sampled_lengths_are_dyadic_and_the_last():
    assert sampled_lengths(1) == {1}
    assert sampled_lengths(4) == {1, 2, 4}
    assert sorted(sampled_lengths(1001)) \
        == [1 << j for j in range(10)] + [1001]


def test_sweeps_match_per_prefix_reference():
    # one cycle of the default kinds; the escapes grow like 1.9^N
    for inst in certify.generate_instances(5, count=6, dims=(2, 16)):
        for N_max in (0, 1, 1000):
            assert_sweeps_match_reference(inst.matrix, N_max,
                                          rtol=GENERATED_RTOL)
    T = certify.generate_instances(7, count=1, dims=(64, 64))[0].matrix
    assert_sweeps_match_reference(T, 100)


@pytest.mark.parametrize("T", [
    [[0.0, 1e160], [0.0, 0.0]],
    [[0.0, 1e160 * (1.0 + 1.0j)], [0.0, 0.0]],
    certify.generate_instances(1, count=1, kinds=("escape",))[0].matrix,
], ids=["real", "complex", "escape"])
def test_sweeps_match_reference_where_gram_bounds_overflow(T):
    # finite sums whose S* S overflows to inf, or to inf - inf = NaN, so a
    # norm or a bound taken through S* S would read inf or NaN there (the
    # escape instance's Cesaro sums reach 8.4e272)
    assert_sweeps_match_reference(T, 1000, rtol=GENERATED_RTOL)


def scaled_to_norm(T, norm):
    return T * (norm / np.linalg.norm(T, 2))


def complex_normal(seed, n):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


REAL_T = scaled_to_norm(np.random.default_rng(1).normal(size=(5, 5)), 0.9)

# inputs whose sums, or some of them, stop changing in floating point
# within the 1000 steps, each row (one per alpha, or the Cesaro row) at
# its own step
SETTLING_CASES = {
    # a real T keeps the imaginary parts of its sums at 0
    "real": REAL_T,
    "nearly_real": REAL_T + 1e-14j * np.random.default_rng(4).normal(
        size=(5, 5)),
    # a triangular T's sums keep their zeros below the diagonal
    "upper_triangular": scaled_to_norm(np.triu(complex_normal(2, 5)), 0.9),
    # ||T||_2 = 1.21, so 0.9 ||T||_2 >= 1: the alpha = 0.9 row and the
    # Cesaro row keep changing; alpha = 0.1 and 0.5 settle
    "gentle_alpha_0.9_unsettled": certify.generate_instances(
        12, count=1, dims=(4, 4), kinds=("gentle",))[0].matrix,
    # ||T||_2 = 0.9: the Cesaro row settles too
    "contraction": scaled_to_norm(complex_normal(3, 5), 0.9),
}


@pytest.mark.parametrize("case", sorted(SETTLING_CASES))
def test_sweeps_match_reference_where_rows_settle(case):
    assert_sweeps_match_reference(SETTLING_CASES[case], 1000)


def test_sweeps_raise_nothing_where_the_norm_of_T_overflows():
    # ||T||_2 = 2.1e308 reads inf, and taking the sups raises nothing.  T
    # is nilpotent, so the sums stay finite; the Cesaro sums' norms
    # overflow, where the reference raises
    T = np.array([[0.0, 1.5e308, 1.5e308], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert certify.abel_partial_sup_estimate(T, (0.1, 0.5), 1000) \
        == reference_abel_partial_sup(T, (0.1, 0.5), 1000)
    assert certify.cesaro_sup_estimate(T, 1000) == math.inf
    with pytest.raises(Overflow):
        reference_cesaro_sup(T, 1000)


def test_a_sampled_sum_that_overflows_reads_inf(monkeypatch):
    # the last prefix is taken first, and overflows first on the inputs
    # above; held finite here, it leaves the doubled sum of 512 powers of
    # 5 (about 5^511 = 1e357) to overflow, and the sup reads inf rather
    # than handing a non-finite sum to operator_norm
    monkeypatch.setattr(linalg, "power_and_geometric_sum",
                        lambda stack, N: (stack, np.ones_like(stack)))
    assert certify.cesaro_sup_estimate(np.diag([5.0]), 1000) == math.inf
    assert certify.abel_partial_sup_estimate(
        np.diag([10.0]), (0.5,), 1000) == math.inf


def test_sweep_memory_is_bounded():
    # a few n x n matrices whatever N_max (one is 1 MiB here); keeping
    # every sum would take 50
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


def gentle_instance(seed, n):
    return certify.generate_instances(seed, count=1, dims=(n, n),
                                      kinds=("gentle",))[0].matrix


def test_cesaro_sweep_norms_few_of_a_gentle_instances_sums(svd_calls):
    # cesaro --n 1000 takes the norms of the sums of 1, 2, 4, ..., 512
    # and 1000 terms: 11 of 1000
    T = gentle_instance(0, 8)
    sup = certify.cesaro_sup_estimate(T, 1000)
    assert len(svd_calls) == 11
    assert sup == pytest.approx(reference_cesaro_sup(T, 1000, True),
                                rel=SAMPLED_RTOL)


@pytest.mark.parametrize("seed", [0, 8])
def test_abel_sweep_steps_few_of_a_gentle_instances_sums(svd_calls, seed):
    # seed 0 is the instance above, seed 8 tools/kernel_timings.py's at
    # n = 8; each alpha's sums of 1, 2, 4, ..., 512 and 1001 terms are
    # formed and normed: 3 x 11 of 3 x 1001
    T = gentle_instance(seed, 8)
    sup = certify.abel_partial_sup_estimate(T, (0.1, 0.5, 0.9), 1000)
    assert len(svd_calls) == 3 * 11
    assert sup == pytest.approx(
        reference_abel_partial_sup(T, (0.1, 0.5, 0.9), 1000, True),
        rel=SAMPLED_RTOL)


def test_alpha_grid_is_validated_before_any_sweep(svd_calls):
    with pytest.raises(ValueError):
        certify.abel_partial_sup_estimate(np.eye(2), (0.5, 1.5), 1000)
    assert svd_calls == []
    assert certify.abel_partial_sup_estimate(np.eye(2), (), 1000) == 0.0


def test_abel_averages_converge_where_the_cesaro_sums_blow_up():
    # Lin's uniform ergodic theorem asks T^N / N -> 0, which the eigenvalue
    # 1.5i breaks; the powers of the Abel averages converge once the
    # spectrum lies in Re z <= 1 with 1 semisimple.  The Cesaro sums of
    # 1.5i reach |1 - (1.5i)^1000| / |1 - 1.5i| / 1000 = 6.84e172
    report = certify.verify_equivalence(np.diag([1.5j, 0.3]))
    assert report.condition_i.verdict == certify.VERDICT_CONVERGED_ALL
    assert report.condition_ii.verdict == certify.VERDICT_HOLDS
    closed = abs(1.0 - 1.5j ** 1000) / abs(1.0 - 1.5j) / 1000
    assert closed == pytest.approx(6.84e172, rel=1e-3)
    assert certify.cesaro_sup_estimate(np.diag([1.5j, 0.3]), 1000) \
        == pytest.approx(closed, rel=1e-13)


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
