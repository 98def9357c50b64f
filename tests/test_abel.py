import numpy as np
import pytest

from abelerg import abel, certify, linalg
from abelerg.errors import DecompositionFails, ResolventPole


def jordan_block():
    return np.array([[1.0, 1.0], [0.0, 1.0]], dtype=np.complex128)


def convergent_diag():
    return np.diag([1.0, 2.0 / 3.0]).astype(np.complex128)


def random_contraction(rng, n, radius=0.9):
    M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return radius * M / np.linalg.norm(M, 2)


def test_check_alpha_bounds():
    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            abel.check_alpha(bad)
    assert abel.check_alpha(0.5) == 0.5


def test_abel_average_of_zero_operator():
    # A_alpha(0) = (1 - alpha) I
    for a in (0.1, 0.5, 0.9):
        A = abel.abel_average(np.zeros((3, 3)), a)
        assert np.allclose(A, (1.0 - a) * np.eye(3), atol=1e-15)


def test_abel_average_jordan_block_is_fixed():
    # the shear [[1,1],[0,1]] satisfies A_{1/2} = T exactly
    A = abel.abel_average(jordan_block(), 0.5)
    assert np.max(np.abs(A - jordan_block())) <= 1e-14


def test_abel_average_pole_detection():
    # alpha T has eigenvalue exactly 1/alpha * alpha = 1 when T = 2 I, alpha = 1/2
    with pytest.raises(ResolventPole):
        abel.abel_average(2.0 * np.eye(2), 0.5)


def test_abel_series_converges_to_average():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        T = random_contraction(rng, n)
        a = float(rng.uniform(0.1, 0.9))
        A = abel.abel_average(T, a)
        # (1 - alpha) sum_{k=0}^{800} alpha^k T^k, Horner style
        S = np.eye(n)
        for _ in range(800):
            S = np.eye(n) + a * (T @ S)
        assert np.linalg.norm((1.0 - a) * S - A, 2) <= 1e-10


def test_cesaro_small_cases_match_direct_sum():
    rng = np.random.default_rng(9)
    T = random_contraction(rng, 4)
    for N in (1, 2, 3, 7):
        direct = sum(np.linalg.matrix_power(T, k) for k in range(N)) / N
        assert np.allclose(abel.cesaro_average(T, N), direct, atol=1e-13)


def test_cesaro_flip_operator_alternates():
    # T = [[-1]]: partial sums alternate 1, 0, 1, 0, ... so C_N = 1/N or 0
    T = np.array([[-1.0]])
    assert abs(abel.cesaro_average(T, 2)[0, 0]) <= 1e-15
    assert abs(abel.cesaro_average(T, 5)[0, 0] - 0.2) <= 1e-15


def test_cesaro_large_n_projects_convergent_instance():
    T = convergent_diag()
    C = abel.cesaro_average(T, 100_000)
    assert np.linalg.norm(C - np.diag([1.0, 0.0]), 2) <= 1e-4


def test_power_iterate_projection_oracle():
    # powers of A_alpha(diag(1, 2/3)) converge to diag(1, 0)
    rep = abel.power_iterate(abel.abel_average(convergent_diag(), 0.5))
    assert rep.converged
    assert rep.divergence_reason is None
    assert np.max(np.abs(rep.limit - np.diag([1.0, 0.0]))) <= 1e-9
    # history defects decay and exponents double
    exponents = [e for e, _ in rep.history]
    assert exponents == [2 ** k for k in range(len(exponents))]


def test_power_iterate_limit_is_projection():
    rng = np.random.default_rng(17)
    for _ in range(15):
        n = int(rng.integers(2, 10))
        T = random_contraction(rng, n)
        rep = abel.power_iterate(abel.abel_average(T, 0.5))
        assert rep.converged
        # 1 is not in the spectrum, so the projection is 0
        assert np.linalg.norm(rep.limit, 2) <= 1e-9
        assert np.linalg.norm(rep.limit @ rep.limit - rep.limit, 2) <= 1e-8


def test_power_iterate_jordan_diverges():
    rep = abel.power_iterate(abel.abel_average(jordan_block(), 0.5))
    assert not rep.converged
    assert rep.divergence_reason in ("blow_up", "no_cauchy")
    assert rep.limit is None


def test_power_iterate_rotation_never_cauchy(monkeypatch):
    # unimodular non-identity eigenvalues: bounded powers, no limit.  30
    # doublings: squaring doubles the relative rounding of each power, so
    # past about 52 doublings the computed R^(2^k) is rounding, and at the
    # default 60 it passes BLOW_UP_THRESHOLD at doubling 59
    monkeypatch.setattr(abel, "DEFAULT_MAX_DOUBLINGS", 30)
    theta = 2.0
    R = np.array([[np.cos(theta), -np.sin(theta)],
                  [np.sin(theta), np.cos(theta)]])
    rep = abel.power_iterate(R, tol=1e-10)
    assert not rep.converged
    assert rep.divergence_reason == "no_cauchy"


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf"),
                                 1.0, 1e300])
def test_power_iterate_rejects_bad_tol(bad):
    # an infinite tol would accept the first doubling as converged
    with pytest.raises(ValueError, match="tol"):
        abel.power_iterate(np.diag([1.0, 0.5]), tol=bad)


def test_power_iterate_rejects_empty_matrix():
    with pytest.raises(ValueError, match="nonempty"):
        abel.power_iterate(np.zeros((0, 0)))


@pytest.mark.parametrize("c", [1e-10, 1e-12, 1e-14])
def test_tiny_jordan_coupling_is_not_accepted_as_converging(c):
    # the increment k c of A_alpha^k starts below tol but grows; alphas
    # used to accept it at step 1 (at c = 1e-12 and 1e-14 all three did:
    # converged_all against decomposition_fails).  At c = 1e-14,
    # alpha = 0.1 still accepts, its increment 1.1e-15 being below the
    # roundoff floor, so there only the verdict is held.
    report = certify.verify_equivalence(np.array([[1.0, c], [0.0, 1.0]]))
    assert report.condition_i.verdict == certify.VERDICT_DIVERGED
    assert report.condition_ii.verdict == \
        certify.VERDICT_DECOMPOSITION_FAILS
    assert report.agree
    if c >= 1e-12:
        assert all(e.outcome != "converged"
                   for e in report.condition_i.per_alpha)


def test_slowly_decaying_eigenvalue_reaches_its_limit():
    # the eigenvalue 1 - 1e-11 of A_alpha has powers tending to 0; its
    # first increment, about 1e-11, used to be accepted with limit diag(1, 1)
    A = abel.abel_average(np.diag([1.0, 1.0 - 1e-11]), 0.5)
    rep = abel.power_iterate(A)
    assert rep.converged and rep.steps == 2 ** 42
    assert np.abs(rep.limit - np.diag([1.0, 0.0])).max() <= 1e-12


def reference_power_iterate(M, tol=abel.DEFAULT_TOL,
                            max_doublings=abel.DEFAULT_MAX_DOUBLINGS):
    """The loop power_iterate replaced: one SVD 2-norm per test.

    Returns (converged, limit, steps, history, divergence_reason), with
    history rows (exponent, exact Cauchy increment).
    """
    history = []
    P = M.copy()
    exponent = 1
    for _ in range(max_doublings):
        with np.errstate(over="ignore", invalid="ignore"):
            Q = P @ P
        if not np.all(np.isfinite(Q)) or \
                np.max(np.abs(Q)) > abel.BLOW_UP_THRESHOLD:
            history.append((exponent, float("inf")))
            return False, None, exponent, history, "blow_up"
        defect = linalg.operator_norm(Q - P)
        history.append((exponent, defect))
        if defect <= tol:
            idem = linalg.operator_norm(Q @ Q - Q)
            fixed = linalg.operator_norm(M @ Q - Q)
            if idem <= 10.0 * tol and fixed <= 10.0 * tol:
                return True, Q, exponent, history, None
        P = Q
        exponent *= 2
    return False, None, exponent, history, "no_cauchy"


def _reference_cases():
    """Abel averages of the near-boundary slice and a small instance
    corpus, plus the sign flip diag(1, -1) itself."""
    near_boundary = [complex(1.0, b) for b in
                     (1e-5, 1e-6, 1e-7, 1e-9, 1e-10, 1e-11)]
    near_boundary.append(complex(1.0 + 1e-11, 0.0))
    matrices = [np.diag([z, 0.3]) for z in near_boundary]
    matrices += [inst.matrix for inst in
                 certify.generate_instances(3, count=48, dims=(2, 24))]
    cases = [np.diag([1.0, -1.0]).astype(np.complex128)]
    for T in matrices:
        for a in (0.1, 0.5, 0.9):
            try:
                cases.append(abel.abel_average(T, a))
            except ResolventPole:
                pass
    return cases


def test_power_iterate_matches_svd_per_doubling_reference():
    outcomes = set()
    for A in _reference_cases():
        rep = abel.power_iterate(A)
        converged, limit, steps, history, reason = reference_power_iterate(A)
        assert rep.converged == converged
        assert rep.steps == steps
        assert rep.divergence_reason == reason
        # final_defect is the last Cauchy test's own bound: exact where
        # that test took an SVD, as every test of a 2x2 or smaller does
        exact = history[-1][1]
        assert exact * (1.0 - 1e-12) <= rep.final_defect \
            <= rep.history[-1][1]
        if A.shape[0] <= linalg.EXACT_NORM_MAX_DIMENSION:
            assert rep.final_defect == exact
        if converged:
            assert np.array_equal(rep.limit, limit)
        else:
            assert rep.limit is None
        # one row per doubling; each row bounds the exact increment above
        assert [e for e, _ in rep.history] == [e for e, _ in history]
        for (_, bound), (_, exact) in zip(rep.history, history):
            assert bound >= exact * (1.0 - 1e-12)
        outcomes.add(reason)
    assert outcomes == {None, "blow_up", "no_cauchy"}


def test_power_iterate_takes_at_most_two_svds(svd_calls):
    # 2x2 input takes one SVD per test by design; see the next test
    worst = 0
    for inst in certify.generate_instances(7, count=120, dims=(2, 96)):
        if inst.dim <= linalg.EXACT_NORM_MAX_DIMENSION:
            continue
        for a in (0.1, 0.5, 0.9):
            try:
                A = abel.abel_average(inst.matrix, a)
            except ResolventPole:
                continue
            svd_calls.clear()
            abel.power_iterate(A)
            worst = max(worst, len(svd_calls))
    assert worst <= 2


def test_power_iterate_on_2x2_takes_one_svd_per_test(svd_calls):
    # diag(1, 0.3): every doubling's Cauchy test, then idempotency and
    # the fixed-point identity at acceptance, history rows exact
    A = np.diag([1.0, 0.3])
    converged, _, _, history, _ = reference_power_iterate(A)
    svd_calls.clear()
    rep = abel.power_iterate(A)
    assert rep.converged and converged
    assert len(svd_calls) == len(rep.history) + 2
    assert rep.history == history


def test_power_iterate_reuses_the_deciding_svd(svd_calls):
    # increments of diag(1, 1/2, 1/2) are diag(0, d, d): the bounds bracket
    # [d, d sqrt(2)] straddles tol = 1.2 d at exponent 8, so that Cauchy
    # test takes an SVD, and final_defect must reuse it
    d = 0.5 ** 8 - 0.5 ** 16
    rep = abel.power_iterate(np.diag([1.0, 0.5, 0.5]), tol=1.2 * d)
    assert rep.converged and rep.steps == 8
    assert abs(rep.final_defect - d) <= 1e-15
    assert len(svd_calls) == 1


def test_riesz_projection_diag_oracle():
    proj = abel.riesz_projection_at_one(convergent_diag(), 2 * linalg.EPS)
    assert np.allclose(proj.matrix, np.diag([1.0, 0.0]), atol=1e-12)
    assert proj.kernel.shape[1] == 1
    assert proj.image.shape[1] == 1
    assert proj.idempotency_defect <= 1e-12


def test_riesz_projection_no_eigenvalue_one_gives_zero():
    rng = np.random.default_rng(21)
    T = random_contraction(rng, 5)
    proj = abel.riesz_projection_at_one(T, 5 * linalg.EPS)
    assert proj.kernel.shape[1] == 0
    assert np.linalg.norm(proj.matrix, 2) <= 1e-12


def test_riesz_projection_jordan_fails():
    with pytest.raises(DecompositionFails):
        abel.riesz_projection_at_one(jordan_block(), 2 * linalg.EPS)


def test_riesz_projection_commutes_and_projects():
    rng = np.random.default_rng(33)
    for _ in range(10):
        n = int(rng.integers(3, 9))
        # block diag: eigenvalue 1 of multiplicity 2 plus a contraction
        T = np.zeros((n, n), dtype=np.complex128)
        T[0, 0] = T[1, 1] = 1.0
        T[2:, 2:] = random_contraction(rng, n - 2, radius=0.8)
        W = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        Q, _ = np.linalg.qr(W)
        T = Q @ T @ Q.conj().T
        proj = abel.riesz_projection_at_one(T, n * linalg.EPS)
        E = proj.matrix
        assert np.linalg.norm(E @ E - E, 2) <= 1e-9
        assert np.linalg.norm(T @ E - E, 2) <= 1e-9
        assert np.linalg.norm(E @ T - E, 2) <= 1e-9


def test_riesz_projection_idempotency_is_relative_to_its_norm():
    # ||E|| = 2e6: rounding leaves E^2 - E near 1e-4, far above 1e-8 but
    # within 1e-8 ||E||, and the direct sum holds
    T = np.array([[1.0, 1e6, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.2]])
    rng = np.random.default_rng(3)
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    proj = abel.riesz_projection_at_one(Q @ T @ Q.conj().T, 1e-8)
    assert proj.kernel.shape[1] == 1
    assert 1e-8 < proj.idempotency_defect <= 1e-8 * np.linalg.norm(
        proj.matrix, 2)


def test_riesz_projection_rejects_a_defect_past_its_budget():
    # Ker(I - T) and Im(I - T) meet at an angle of about 2.4e-8: the
    # stacked basis passes (sigma_min / sigma_max = 1.2e-8 > 1e-8), but
    # rounding leaves E^2 - E at 0.69, above 1e-8 / sigma_min = 0.59
    rng = np.random.default_rng(132934)
    Q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    T = Q @ np.array([[1.0 - 2.4e-8, -1.0], [0.0, 1.0]]) @ Q.conj().T
    with pytest.raises(DecompositionFails, match="^projection idempotency"):
        abel.riesz_projection_at_one(T, 1e-8)


def test_spectral_map_values():
    # f_{1/2}(0) = 1/2, f_alpha(1) = 1 for every alpha
    assert abs(abel.spectral_map(0.0, 0.5) - 0.5) <= 1e-15
    for a in (0.1, 0.5, 0.9):
        assert abs(abel.spectral_map(1.0, a) - 1.0) <= 1e-15
    with pytest.raises(ResolventPole):
        abel.spectral_map(2.0, 0.5)


def test_spectral_map_matches_abel_spectrum():
    rng = np.random.default_rng(29)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        T = random_contraction(rng, n)
        a = float(rng.uniform(0.1, 0.9))
        A = abel.abel_average(T, a)
        spec_T = np.linalg.eigvals(T)
        spec_A = np.linalg.eigvals(A)
        mapped = np.array([abel.spectral_map(z, a) for z in spec_T])
        assert np.allclose(np.sort_complex(mapped), np.sort_complex(spec_A),
                           atol=1e-8)


def test_omega_alpha_is_where_map_contracts():
    # zeta in Omega_alpha exactly when |f_alpha(zeta)| < 1; the half-plane
    # Pi minus its boundary point 1 always sits inside Omega_alpha
    rng = np.random.default_rng(31)
    for _ in range(200):
        zeta = complex(rng.normal(scale=2.0), rng.normal(scale=2.0))
        a = float(rng.uniform(0.1, 0.9))
        if abs(zeta - 1.0 / a) <= 1e-8:
            continue
        w = abel.spectral_map(zeta, a)
        assert abel.in_omega_alpha(zeta, a) == (abs(w) < 1.0)
        if zeta.real <= 1.0 and abs(zeta - 1.0) > 1e-9:
            assert abel.in_omega_alpha(zeta, a)
