import math

import numpy as np
import pytest

from abelerg import abel, certify, linalg


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


@pytest.mark.parametrize("bad", [0.0, float("nan"), float("inf"), 1.0, 1e300])
def test_condition_ii_rejects_bad_tolerances(bad):
    T = np.diag([1.0, 0.5])
    with pytest.raises(ValueError, match="tol"):
        certify.check_spectral_condition(T, tol=bad)
    with pytest.raises(ValueError, match="rank_tol"):
        certify.check_spectral_condition(T, rank_tol=bad)


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


def test_abel_partial_sup_matches_norm_bound():
    # for T = I the partial sums are (1 - alpha^N) I, always below 1
    sup = certify.abel_partial_sup_estimate(np.eye(2), (0.1, 0.5, 0.9), 200)
    assert sup <= 1.0 + 1e-12


def test_numerical_range_bound_controls_abel_norm():
    # max Re W(T) <= 1 forces ||A_alpha|| <= 1
    rng = np.random.default_rng(77)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        T0 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        T0 /= np.linalg.norm(T0, 2)
        shift = 1.0 - linalg.hermitian_part_max_eig(T0)
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
            V_T = basis(I - T, certify.CERTIFY_RANK_TOL).vectors
            V_A = basis(I - A, certify.CERTIFY_RANK_TOL).vectors
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
