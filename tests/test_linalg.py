import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from abelerg import abel, certify, linalg, oscillator, semigroup
from abelerg.errors import NoConvergence, Overflow, SingularMatrix


def random_matrix(rng, n, complex_entries=True):
    M = rng.normal(size=(n, n))
    if complex_entries:
        M = M + 1j * rng.normal(size=(n, n))
    return M


def test_as_matrix_accepts_real_and_promotes():
    M = linalg.as_matrix([[1, 2], [3, 4]])
    assert M.dtype == np.complex128
    assert M.shape == (2, 2)


def test_as_matrix_rejects_nonfinite_and_nonsquare():
    with pytest.raises(ValueError):
        linalg.as_matrix([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        linalg.as_matrix([[1.0, 2.0, 3.0]], square=True)
    with pytest.raises(ValueError):
        linalg.as_matrix(np.zeros((linalg.MAX_DIMENSION + 1,
                                   linalg.MAX_DIMENSION + 1)))
    for shape in ((0, 0), (0, 3), (3, 0)):
        with pytest.raises(ValueError, match="nonempty"):
            linalg.as_matrix(np.zeros(shape))


def test_check_count_returns_python_int_in_range():
    for value in (np.int64(3), np.uint8(3), np.array(3), 3):
        count = linalg.check_count("k", value, 1, 3)
        assert count == 3 and type(count) is int
    with pytest.raises(ValueError, match=r"^k must be >= 1$"):
        linalg.check_count("k", 0, 1)
    with pytest.raises(ValueError, match=r"^k must lie in \[1, 3\]$"):
        linalg.check_count("k", 4, 1, 3)
    for bad in (np.True_, np.float64(3.0), None, [3]):
        with pytest.raises(ValueError, match=r"^k must be an integer, got "):
            linalg.check_count("k", bad, 0)


# Every count argument of the library, by the name its message gives it.
COUNT_ARGUMENTS = {
    "abel.cesaro_average": (
        "N", lambda v: abel.cesaro_average(np.eye(2), v)),
    "certify.cesaro_sup_estimate": (
        "N_max", lambda v: certify.cesaro_sup_estimate(np.eye(2), v)),
    "certify.abel_partial_sup_estimate": (
        "N_max", lambda v: certify.abel_partial_sup_estimate(
            np.eye(2), (0.5,), v)),
    "certify.generate_instances": (
        "count", lambda v: certify.generate_instances(1, count=v)),
    "certify.generate_instances seed": (
        "seed", lambda v: certify.generate_instances(v, count=1)),
    "certify.generate_instances dims": (
        "dims[1]", lambda v: certify.generate_instances(1, count=1,
                                                        dims=(2, v))),
    "semigroup.laguerre_rule": (
        "node_count", lambda v: semigroup.laguerre_rule(v)),
    "semigroup.abel_power_quadrature": (
        "n", lambda v: semigroup.abel_power_quadrature(-np.eye(2), 1.0, v)),
    "semigroup.check": (
        "n", lambda v: semigroup.check(-np.eye(2), 1.0, v)),
    "oscillator.DiagonalOscillator": (
        "truncation", lambda v: oscillator.DiagonalOscillator(truncation=v)),
    "oscillator.hermite_function": (
        "n", lambda v: oscillator.hermite_function(v, 0.5)),
    "oscillator.eigen_residual": (
        "n", lambda v: oscillator.eigen_residual(v)),
    "oscillator.check": (
        "m", lambda v: oscillator.check(2.0, v, 8)),
}


@pytest.mark.parametrize("bad", [2.5, 4.0, True, "3"])
@pytest.mark.parametrize("function", sorted(COUNT_ARGUMENTS))
def test_count_arguments_reject_non_integers(function, bad):
    # int() used to truncate 2.5 and 4.0, parse "3" and read True as 1
    name, call = COUNT_ARGUMENTS[function]
    with pytest.raises(ValueError,
                       match=rf"^{re.escape(name)} must be an integer, got "):
        call(bad)


def test_check_real_returns_float_in_range():
    for value in (np.float64(0.5), np.float32(0.5), 0.5):
        x = linalg.check_real("x", value, 0.0, 1.0)
        assert x == 0.5 and type(x) is float
    assert type(linalg.check_real("x", np.int64(3))) is float
    with pytest.raises(ValueError, match=r"^x must be finite, got inf$"):
        linalg.check_real("x", np.inf)
    with pytest.raises(ValueError,
                       match=r"^x must be finite and exceed -1, got nan$"):
        linalg.check_real("x", np.nan, -1.0)
    with pytest.raises(ValueError,
                       match=r"^x must lie strictly in \(0, 1\), got 1$"):
        linalg.check_real("x", 1, 0.0, 1.0)
    for bad in (np.True_, 1j, None, [0.5], np.array(0.5)):
        with pytest.raises(ValueError, match=r"^x must be a real number, got "):
            linalg.check_real("x", bad)


# Every real argument of the library, by the name its message gives it.
REAL_ARGUMENTS = {
    "abel.abel_average": (
        "alpha", lambda v: abel.abel_average(np.eye(2), v)),
    "abel.power_iterate": (
        "tol", lambda v: abel.power_iterate(np.eye(2), tol=v)),
    "certify.verify_equivalence tol": (
        "tol", lambda v: certify.verify_equivalence(np.eye(2), tol=v)),
    "certify.verify_equivalence rank_tol": (
        "rank_tol", lambda v: certify.verify_equivalence(np.eye(2),
                                                         rank_tol=v)),
    "linalg.matrix_exponential": (
        "t", lambda v: linalg.matrix_exponential(np.eye(2), v)),
    "semigroup.laguerre_rule": (
        "power", lambda v: semigroup.laguerre_rule(4, v)),
    "semigroup.check": (
        "lambda", lambda v: semigroup.check(-np.eye(2), v, 1)),
    "oscillator.check": (
        "lambda", lambda v: oscillator.check(v, 4, 8)),
}


@pytest.mark.parametrize("bad", ["0.5", True, np.array([0.5])],
                         ids=["str", "bool", "array"])
@pytest.mark.parametrize("function", sorted(REAL_ARGUMENTS))
def test_real_arguments_reject_non_reals(function, bad):
    # float() used to parse "0.5" and read True as 1.0
    name, call = REAL_ARGUMENTS[function]
    with pytest.raises(ValueError,
                       match=rf"^{re.escape(name)} must be a real number, got "):
        call(bad)


def test_readme_argument_lists_match_tables():
    # README's "Integer arguments (...)" and "Real arguments (...)" name
    # exactly the arguments of COUNT_ARGUMENTS and REAL_ARGUMENTS
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    for kind, table in (("Integer", COUNT_ARGUMENTS), ("Real", REAL_ARGUMENTS)):
        listed = re.search(rf"^{kind} arguments \(([^)]*)\)", readme,
                           re.MULTILINE).group(1)
        names = {name.split("[")[0] for name, _ in table.values()}
        assert sorted(re.findall(r"`(\w+)`", listed)) == sorted(names), kind


def test_solve_linear_upper_triangular_inverse():
    # [[1, -1], [0, 1]] has the exact inverse [[1, 1], [0, 1]]
    A = np.array([[1.0, -1.0], [0.0, 1.0]])
    X = linalg.solve_linear(A, np.eye(2))
    assert np.allclose(X, [[1.0, 1.0], [0.0, 1.0]], atol=1e-15)


def test_solve_linear_singular_raises():
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(SingularMatrix):
        linalg.solve_linear(A, np.eye(2))


def test_solve_linear_rejects_a_rhs_of_other_height():
    with pytest.raises(ValueError, match=re.escape(
            "right-hand side has 3 rows, expected 2")):
        linalg.solve_linear(np.eye(2), np.ones((3, 1)))


def test_solve_linear_random_residuals():
    rng = np.random.default_rng(42)
    for _ in range(25):
        n = int(rng.integers(2, 12))
        A = random_matrix(rng, n) + 2.0 * n * np.eye(n)
        rhs = random_matrix(rng, n)[:, :2]
        x = linalg.solve_linear(A, rhs)
        assert np.linalg.norm(A @ x - rhs) <= 1e-10 * np.linalg.norm(rhs)


def _seeded_complex_matrices():
    rng = np.random.default_rng(2026)
    return [random_matrix(rng, n) for n in range(1, 33)]


def test_solve_linear_equals_scipy_lu_bit_for_bit():
    rng = np.random.default_rng(5)
    for A in _seeded_complex_matrices():
        rhs = random_matrix(rng, len(A))[:, :3]
        reference = scipy.linalg.lu_solve(scipy.linalg.lu_factor(A), rhs)
        assert np.array_equal(linalg.solve_linear(A, rhs), reference)


def test_eigendecompose_equals_scipy_schur_bit_for_bit():
    for A in _seeded_complex_matrices():
        T, Z = scipy.linalg.schur(A, output="complex")
        values = np.diag(T)
        order = np.lexsort((-np.angle(values), -np.abs(values),
                            -values.real))
        data = linalg.eigendecompose(A)
        assert np.array_equal(data.values, values[order])
        # the backward error reads Z as well as T
        assert data.backward_error == np.linalg.norm(A - Z @ T @ Z.conj().T,
                                                     2)


def test_exactly_singular_solve_raises_without_a_warning():
    # zgetrf reports the exact zero pivot by its info; the pivot threshold
    # catches it, and no LinAlgWarning is emitted
    for A in (np.zeros((3, 3)), np.ones((4, 4)), [[1.0, 2.0], [2.0, 4.0]]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularMatrix):
                linalg.solve_linear(A, np.eye(len(A)))


def _failing(handle, info):
    """A LAPACK handle that runs, then reports info in place of its own."""
    def call(*args, **kwargs):
        return handle(*args, **kwargs)[:-1] + (info,)
    return call


@pytest.mark.parametrize("handle,info,call", [
    ("_getrf", -4, lambda: linalg.solve_linear(np.eye(2), np.eye(2))),
    ("_getrs", -3, lambda: linalg.solve_linear(np.eye(2), np.eye(2))),
    ("_gees", -2, lambda: linalg.eigendecompose(np.eye(2))),
    ("_gees", 1, lambda: linalg.eigendecompose(np.eye(2)))],
    ids=["getrf", "getrs", "gees-illegal", "gees-qr"])
def test_lapack_info_is_no_convergence(monkeypatch, handle, info, call):
    monkeypatch.setattr(linalg, handle,
                        _failing(getattr(linalg, handle), info))
    with pytest.raises(NoConvergence):
        call()


def test_eigendecompose_rotation_pair():
    # rotation by pi/2 has the eigenvalue pair {i, -i}
    vals = linalg.eigendecompose(np.array([[0.0, -1.0], [1.0, 0.0]])).values
    assert np.allclose(sorted(vals, key=lambda z: z.imag), [-1j, 1j],
                       atol=1e-14)


def test_eigendecompose_ordering_is_deterministic():
    rng = np.random.default_rng(7)
    M = random_matrix(rng, 8)
    first = linalg.eigendecompose(M).values
    second = linalg.eigendecompose(M.copy()).values
    assert np.array_equal(first, second)


def test_eigendecompose_backward_error_small():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 16))
        M = random_matrix(rng, n)
        data = linalg.eigendecompose(M)
        assert data.backward_error <= 1e-12 * max(np.linalg.norm(M, 2), 1.0)
        ref = np.sort_complex(np.linalg.eigvals(M))
        assert np.allclose(np.sort_complex(data.values), ref, atol=1e-10)


def test_numerical_rank_thresholding():
    M = np.diag([1.0, 1e-3, 1e-12])
    assert linalg.numerical_rank(M, 1e-6) == 2
    assert linalg.numerical_rank(M, 1e-15) == 3
    assert linalg.numerical_rank(np.zeros((3, 3)), 1e-15) == 0


def test_kernel_and_image_of_projection():
    P = np.diag([1.0, 0.0])
    ker = linalg.kernel_basis(P, 2 * linalg.EPS)
    img = linalg.image_basis(P, 2 * linalg.EPS)
    assert ker.shape == (2, 1) and img.shape == (2, 1)
    assert abs(abs(ker[1, 0]) - 1.0) <= 1e-14
    assert abs(abs(img[0, 0]) - 1.0) <= 1e-14


def test_kernel_of_wide_matrix_includes_exact_zero_directions():
    # a 2 x 3 matrix has two singular values; the third right singular
    # vector spans the rest of the kernel
    W = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    ker = linalg.kernel_basis(W, 3 * linalg.EPS)
    assert ker.shape == (3, 2)
    assert np.linalg.norm(W @ ker) <= 1e-15
    assert linalg.image_basis(W, 3 * linalg.EPS).shape == (2, 1)


@pytest.mark.parametrize("bad", [0.0, -1e-8, float("nan"), float("inf"),
                                 1.0, 1e300])
def test_kernel_and_image_reject_bad_rank_tol(bad):
    with pytest.raises(ValueError, match="rank_tol"):
        linalg.kernel_basis(np.eye(2), bad)
    with pytest.raises(ValueError, match="rank_tol"):
        linalg.image_basis(np.eye(2), bad)


def test_kernel_image_dims_complement():
    rng = np.random.default_rng(19)
    for _ in range(25):
        n = int(rng.integers(2, 14))
        k = int(rng.integers(0, n + 1))
        # build rank-k matrix explicitly
        U = random_matrix(rng, n)[:, :k]
        V = random_matrix(rng, n)[:, :k]
        M = U @ V.conj().T
        tol = n * linalg.EPS * max(
            np.linalg.norm(M, 2), np.finfo(float).tiny)
        ker = linalg.kernel_basis(M, tol)
        img = linalg.image_basis(M, tol)
        assert ker.shape[1] + img.shape[1] == n
        if ker.shape[1]:
            assert np.linalg.norm(M @ ker, 2) <= \
                1e-10 * max(np.linalg.norm(M, 2), 1.0)
        # bases are orthonormal
        if ker.shape[1]:
            G = ker.conj().T @ ker
            assert np.allclose(G, np.eye(ker.shape[1]), atol=1e-12)


def test_matrix_exponential_nilpotent_closed_form():
    # exp(t [[0,1],[0,0]]) = [[1,t],[0,1]], and exp(t N) = I + tN + t^2 N^2/2
    # for the 3 x 3 upper shift N; at t = 1e100 the powers past N^2 are
    # exactly 0, and so are their Pade terms, though t^k overflows
    B = np.array([[0.0, 1.0], [0.0, 0.0]])
    N = np.diag([1.0, 1.0], 1)
    for t in (0.0, 0.5, 3.0, 10.0, 1e100):
        E = linalg.matrix_exponential(B, t)
        assert np.allclose(E, [[1.0, t], [0.0, 1.0]], atol=1e-14)
        E = linalg.matrix_exponential(N, t)
        exact = np.eye(3) + t * N + t * t / 2.0 * (N @ N)
        assert np.abs(E - exact).max() <= 1e-14 * max(1.0, t * t)


def test_matrix_exponential_nilpotent_past_2_to_the_1023():
    # ||t B||_1 >= 2^1023 with B^2 = 0: every squaring drops, and t 2^e
    # overflowed though exp(t B) = I + t B is representable; one squaring
    # of the Pade approximant I + t B / 2 gives I + t B exactly
    big = np.finfo(np.float64).max
    for B in (np.array([[0.0, 1.0], [0.0, 0.0]]),
              np.array([[0.0, 1.0, 0.75], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])):
        for t in (1.5 * 2.0 ** 1023, -1.5 * 2.0 ** 1023, 2.0 ** 1023, big):
            exact = np.eye(len(B)) + t * B
            assert np.array_equal(linalg.matrix_exponential(B, t), exact)
        ts = np.array([1.0, 1.5 * 2.0 ** 1023, 0.0, -2.0])
        stack = linalg.exponentials_of(B)(ts)
        assert np.array_equal(stack[1], np.eye(len(B)) + ts[1] * B)
        for t, E in zip(ts, stack):
            assert np.array_equal(E, linalg.matrix_exponential(B, t))


def test_matrix_exponential_jordan_blocks_closed_form():
    # exp(t (lam I + c N)) = e^(lam t) sum_k (c t)^k / k! N^k for the n x n
    # upper shift N: non-normal blocks whose ||t B|| reaches 3e4 while
    # their spectral radius stays at most 2.1 (worst measured: 3.4e-13)
    ts = np.geomspace(1e-3, 30.0, 60)
    for n in range(3, 7):
        N = np.diag(np.ones(n - 1), 1)
        terms = [np.linalg.matrix_power(N, k) / math.factorial(k)
                 for k in range(n)]
        for c in (1.0, 30.0, 1e3):
            for lam in (-1.0, -0.5 + 2j):
                stack = linalg.exponentials_of(lam * np.eye(n) + c * N)(ts)
                for t, E in zip(ts, stack):
                    exact = np.exp(lam * t) * sum(
                        (c * t) ** k * P for k, P in enumerate(terms))
                    assert (np.linalg.norm(E - exact)
                            <= 1e-12 * np.linalg.norm(exact))


def test_matrix_exponentials_overflowing_one_norm():
    # every entry is finite but ||B||_1 = 2e308 is not: t = 0 still gives I
    # bit for bit, and a nonzero t raises, naming the first t whose ||t B||_1
    # overflows, else the first that overflows or needs over 52 squarings.
    # exp(t B) = I - ones / 2 + e^(2e308 t) ones / 2, so a negative t is
    # representable, but at t = -1e-3 the 1012 squarings would take the
    # rounding of the eigenvalue-0 mode to 0 or inf; at t = -1e-300 it
    # takes 26, and the result is right
    B = np.full((2, 2), 1e308)
    assert np.array_equal(linalg.matrix_exponential(B, 0.0), np.eye(2))
    assert np.array_equal(linalg.exponentials_of(B)(np.array([0.0, -0.0])),
                          np.stack([np.eye(2)] * 2))
    assert np.allclose(linalg.matrix_exponential(B, -1e-300),
                       np.eye(2) - 0.5, rtol=0.0, atol=1e-7)
    for ts, named in (([1e-300], 1e-300), ([2.0], 2.0), ([-1e-3], -1e-3),
                      ([-1.0], -1.0), ([0.0, 1e-3, 0.5, 1.0], 1.0),
                      ([0.0, 0.5, 1e-3], 0.5), ([-1e-300, -1e-3, 0.5], -1e-3),
                      ([0.0, -1e-300, -1.0, -1e-3], -1.0)):
        with pytest.raises(Overflow, match=re.escape(f"exp({named} * B)")):
            linalg.exponentials_of(B)(np.array(ts))
    # ||t B||_1 = 1e308 is finite though t 2^e is not; exp(t B) is 0
    assert np.array_equal(linalg.matrix_exponential([[-1e308]], 1.0), [[0.0]])


def test_matrix_exponentials_past_52_squarings():
    # past 52 squarings a slice is 0 where the logarithmic norm shows that
    # exp(t B) rounds to 0, as for diag(-1e17, -1e16) at t = 1, and raises
    # otherwise: diag(-1e17, -1) at t = 1 would come out diag(0, 1)
    B = np.diag([-1e17, -1e16])
    stack = linalg.exponentials_of(B)(np.array([1e-20, 1.0, 1e-30]))
    assert np.array_equal(stack[1], np.zeros((2, 2)))
    assert np.allclose(stack[0], np.diag(np.exp([-1e-3, -1e-4])),
                       rtol=1e-15, atol=0.0)
    for t, E in zip((1e-20, 1.0, 1e-30), stack):
        assert np.array_equal(E, linalg.matrix_exponential(B, t))
    with pytest.raises(Overflow, match=re.escape(
            "exp(1.0 * B) needs 55 squarings, whose rounding can outgrow "
            "the result")):
        linalg.exponentials_of(np.diag([-1e17, -1.0]))(np.array([1.0]))


def test_matrix_exponential_at_zero_is_identity():
    # the Pade coefficients are divided by b_0, so t = 0 gives I bit for bit,
    # alone and inside a stack
    ts = np.array([1.5, 0.0, 20.0, -0.0])
    for B in _expm_cases():
        n = B.shape[0]
        assert np.array_equal(linalg.matrix_exponential(B, 0.0), np.eye(n))
        stack = linalg.exponentials_of(B)(ts)
        assert np.array_equal(stack[1], np.eye(n))
        assert np.array_equal(stack[3], np.eye(n))


def test_matrix_exponential_diagonal_matches_scalar_exp():
    # every product of a diagonal stack is diagonal, so the off-diagonal
    # entries stay 0; each diagonal entry is a few ulps from np.exp times
    # 1 + |t d|, the condition number of exp at t d (2.0 where measured)
    d = np.array([-1.0, -0.1 + 0.4j, 0.5, -1.0 + 1.0j, 0.0])
    ts = np.concatenate(([0.0], np.geomspace(1e-3, 30.0, 40)))
    stack = linalg.exponentials_of(np.diag(d))(ts)
    off = ~np.eye(len(d), dtype=bool)
    assert not stack[:, off].any()
    diag = np.diagonal(stack, axis1=1, axis2=2)
    exact = np.exp(ts[:, None] * d)
    bound = 4.0 * linalg.EPS * (1.0 + np.abs(ts[:, None] * d))
    assert (np.abs(diag - exact) <= bound * np.abs(exact)).all()


def test_matrix_exponential_rotation_generator():
    # exp(t [[0, -1], [1, 0]]) is the rotation by t
    ts = np.linspace(0.0, 50.0, 101)
    stack = linalg.exponentials_of(np.array([[0.0, -1.0], [1.0, 0.0]]))(ts)
    c, s = np.cos(ts), np.sin(ts)
    exact = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], 1)
    assert np.abs(stack - exact).max() <= 1e-13


def test_matrix_exponentials_semigroup_property():
    # E(2t) = E(t)^2: the scaling of 2t is that of t plus one squaring
    rng = np.random.default_rng(23)
    ts = np.geomspace(1e-3, 10.0, 25)
    for n in (2, 5, 8):
        B = random_matrix(rng, n)
        B /= np.linalg.norm(B, 2)
        single = linalg.exponentials_of(B)(ts)
        double = linalg.exponentials_of(B)(2.0 * ts)
        for E, E2 in zip(single, double):
            assert (np.linalg.norm(E @ E - E2, 2)
                    <= 1e-12 * np.linalg.norm(E2, 2))


def test_matrix_exponentials_slices_ignore_their_order():
    # scaling, Pade solve and masked squaring all act slice by slice, so a
    # slice's bits do not depend on which slices share its stack
    rng = np.random.default_rng(29)
    ts = np.concatenate(([0.0], np.geomspace(1e-3, 30.0, 20)))
    for B in _expm_cases():
        stack = linalg.exponentials_of(B)(ts)
        assert np.array_equal(linalg.exponentials_of(B)(ts[::-1]),
                              stack[::-1])
        order = rng.permutation(len(ts))
        assert np.array_equal(linalg.exponentials_of(B)(ts[order]),
                              stack[order])


def test_matrix_exponential_overflow():
    B = np.array([[500.0]])
    with pytest.raises(Overflow):
        linalg.matrix_exponential(B, 10.0)


def _expm_cases():
    # scipy's expm, the reference, branches on 1x1, diagonal, upper- and
    # lower-triangular and dense input
    rng = np.random.default_rng(17)
    dense = random_matrix(rng, 5)
    yield dense
    yield np.diag(np.diag(dense))
    yield np.triu(dense)
    yield np.tril(dense)
    yield dense[:1, :1]
    yield -np.eye(3)


def test_matrix_exponentials_match_one_expm_per_t():
    # bit for bit the single-t call; against scipy's expm, which scales and
    # squares by its own rules, a relative bound
    ts = np.concatenate(([0.0], np.geomspace(1e-3, 30.0, 40)))
    for B in _expm_cases():
        stack = linalg.exponentials_of(B)(ts)
        assert stack.shape == (len(ts),) + B.shape
        for t, E in zip(ts, stack):
            assert np.array_equal(E, linalg.matrix_exponential(B, float(t)))
            reference = scipy.linalg.expm(float(t) * B.astype(np.complex128))
            assert (np.linalg.norm(E - reference)
                    <= 1e-13 * np.linalg.norm(reference))


def test_exponentials_of_reused_matches_fresh_calls(monkeypatch):
    # one map, called again and again, gives each slice the bits of a fresh
    # single-t call: the powers and norms it keeps are the ones every call
    # took before, and the ell term it takes lazily is the same number
    made = []

    class Recorded(linalg._Powers):
        def __init__(self, B):
            super().__init__(B)
            made.append(self)

    monkeypatch.setattr(linalg, "_Powers", Recorded)
    rng = np.random.default_rng(29)
    calls = ([0.5], [1e-3, 2.0, 0.0, 7.5], [30.0], [0.5, -1.25], [1e-3])
    for n in (1, 3, 8):
        B = random_matrix(rng, n) - n * np.eye(n)
        expm = linalg.exponentials_of(B)
        for ts in calls:
            for t, E in zip(ts, expm(np.array(ts))):
                assert np.array_equal(E, linalg.matrix_exponential(B, t))
    # ||B||_1 = 1001 against spectral radius 2: t = 1e-3 takes no squaring,
    # so its call leaves the ell term untaken; t = 1 drops squarings, and
    # its ell test takes the term
    B = np.array([[-1.0, 1000.0], [0.0, -2.0]])
    made.clear()
    expm = linalg.exponentials_of(B)
    first = expm(np.array([1e-3]))
    assert "row" not in vars(made[0])
    second = expm(np.array([1.0, 1e-3]))
    assert "row" in vars(made[0])
    assert np.array_equal(first[0], second[1])
    for t, E in ((1e-3, first[0]), (1.0, second[0])):
        assert np.array_equal(E, linalg.matrix_exponential(B, t))
    # nilpotent: the zero powers keep coefficient 0 in every call
    for N, big in ((np.diag([1.0], 1), 2.0 ** 1023),
                   (np.diag([1.0, 1.0], 1), 1e100)):
        expm = linalg.exponentials_of(N)
        for ts in ([0.5], [big, 3.0], [-big], [0.5]):
            for t, E in zip(ts, expm(np.array(ts))):
                assert np.array_equal(E, linalg.matrix_exponential(N, t))


def test_exponentials_of_reused_past_52_squarings():
    # exact 0 past the cap, and each Overflow message, in any call of one
    # map and after a call that raised, as in a fresh call
    expm = linalg.exponentials_of(np.diag([-1e17, -1e16]))
    assert np.array_equal(expm(np.array([1.0]))[0], np.zeros((2, 2)))
    assert np.array_equal(expm(np.array([1e-20, 1.0]))[1], np.zeros((2, 2)))
    B = np.full((2, 2), 1e308)
    expm = linalg.exponentials_of(B)
    for ts, message in (([-1e-3], "needs 1012 squarings"),
                        ([0.0, 1e-3, 0.5, 1.0], "exp(1.0 * B) overflowed"),
                        ([2.0], "exp(2.0 * B) overflowed"),
                        ([-1e-300, -1e-3, 0.5], "exp(-0.001 * B) needs")):
        with pytest.raises(Overflow) as fresh:
            linalg.exponentials_of(B)(np.array(ts))
        with pytest.raises(Overflow) as reused:
            expm(np.array(ts))
        assert message in str(reused.value)
        assert str(reused.value) == str(fresh.value)
        for t in (0.0, -1e-300):
            assert np.array_equal(expm(np.array([t]))[0],
                                  linalg.matrix_exponential(B, t))
    assert np.array_equal(expm(np.array([0.0]))[0], np.eye(2))


def test_weighted_sum_chunks_match_one_expm_per_node(monkeypatch):
    # 3 nodes per stack: 10 nodes take four calls, the last one partial;
    # the sum adds in node order, so it equals the per-node loop bit for
    # bit (mu = inf bounds no term, so no node is dropped)
    nodes, weights = semigroup.laguerre_rule(10)
    for B in _expm_cases():
        B = B.astype(np.complex128)
        n = B.shape[0]
        monkeypatch.setattr(linalg, "STACK_CHUNK_BYTES", 3 * 16 * n * n + 1)
        chunked = semigroup._weighted_sum(B, 2.0, nodes, weights,
                                          linalg.exponentials_of(B),
                                          np.inf, 0.0)
        reference = np.zeros_like(B)
        for u_i, w_i in zip(nodes, weights):
            reference += w_i * linalg.matrix_exponential(B, u_i / 2.0)
        assert np.array_equal(chunked, reference)


def test_weighted_sum_of_a_scalar_adds_in_node_order():
    # a (k, 1, 1) stack: numpy would sum its 40 slices pairwise, so the sum
    # must still add them one by one to equal the per-node loop
    nodes, weights = semigroup.laguerre_rule(40)
    B = np.array([[-0.7 + 0.3j]])
    reference = np.zeros_like(B)
    for u_i, w_i in zip(nodes, weights):
        reference += w_i * linalg.matrix_exponential(B, u_i / 2.0)
    assert np.array_equal(semigroup._weighted_sum(
        B, 2.0, nodes, weights, linalg.exponentials_of(B), np.inf, 0.0),
        reference)


def test_matrix_exponentials_overflow_names_first_t():
    B = np.array([[500.0]])
    with pytest.raises(Overflow, match=r"^the expm computation of "
                                       r"exp\(2\.0 \* B\) overflowed$"):
        linalg.exponentials_of(B)(np.array([0.5, 1.0, 2.0, 10.0]))


def _lapack_fails(*args, **kwargs):
    raise np.linalg.LinAlgError("forced failure")


@pytest.mark.parametrize("routine,call", [
    ("svd", lambda: linalg.operator_norm(np.eye(2))),
    ("svd", lambda: linalg.numerical_rank(np.eye(2), 0.5)),
    ("svd", lambda: linalg.kernel_basis(np.eye(2), 1e-8)),
    ("svd", lambda: linalg.image_basis(np.eye(2), 1e-8)),
    ("solve", lambda: linalg.matrix_exponential(np.eye(2), 1.0))],
    ids=["operator_norm", "numerical_rank", "kernel_basis",
         "image_basis", "matrix_exponential"])
def test_lapack_failure_is_no_convergence(monkeypatch, routine, call):
    # LinAlgError is a ValueError, an input error to the CLI
    monkeypatch.setattr(np.linalg, routine, _lapack_fails)
    with pytest.raises(NoConvergence, match="^forced failure$"):
        call()


@pytest.mark.parametrize("ts", [np.array([0.5, np.nan]),
                                np.array([1.0, np.inf]),
                                np.array([[0.5, 1.0]]), np.array(0.5),
                                np.array([1, 2]), np.array([True]),
                                np.array(["0.5"])],
                         ids=["nan", "inf", "2d", "0d", "int", "bool", "str"])
def test_matrix_exponentials_rejects_bad_ts(ts):
    with pytest.raises(ValueError, match=r"^ts must be "):
        linalg.exponentials_of(np.eye(2))(ts)


@pytest.mark.parametrize("N", [1, 2, 7, 1000])
def test_power_and_geometric_sum_of_a_stack_is_each_matrix_s(N):
    # the cesaro sups take every alpha's sums as one stack
    A = _seeded_complex_matrices()[4]
    A = A / np.linalg.norm(A, 2)
    stack = np.array([0.1, 0.5, 0.9])[:, None, None] * A
    P, S = linalg.power_and_geometric_sum(stack, N)
    for k, T in enumerate(stack):
        P_k, S_k = linalg.power_and_geometric_sum(T, N)
        assert np.array_equal(P[k], P_k) and np.array_equal(S[k], S_k)


def test_operator_norm_matches_largest_singular_value():
    # bit for bit numpy's 2-norm, the largest of the same singular values
    for A in _seeded_complex_matrices():
        assert linalg.operator_norm(A) == np.linalg.norm(A, 2)
        assert linalg.operator_norm(A[:, :1]) == np.linalg.norm(A[:, :1], 2)


def _norm_test_cases():
    rng = np.random.default_rng(29)
    cases = [np.zeros((3, 3)), np.zeros((1, 1))]
    for _ in range(20):
        n = int(rng.integers(1, 40))
        cases.append(random_matrix(rng, n, complex_entries=n % 2 == 0))
        # rank one: ||X||_F = ||X||_2, so the bounds pin the norm
        u, v = random_matrix(rng, n)[:, :1], random_matrix(rng, n)[:, :1]
        cases.append(u @ v.conj().T)
    cases.append(np.diag([1.0, 0.5, 1e-3]))
    cases.append(np.array([[1e200, 1e200, 0.0], [0.0, 1e200, 0.0],
                           [0.0, 0.0, 1e200]]))
    return cases


def _norm_at_most(X, bound):
    """linalg._norm_at_most of X as complex128, under the np.errstate its
    callers hold."""
    with np.errstate(over="ignore"):
        return linalg._norm_at_most(np.asarray(X, dtype=np.complex128),
                                    bound)


def test_norm_at_most_decides_as_operator_norm():
    for X in _norm_test_cases():
        norm = linalg.operator_norm(X)
        with np.errstate(over="ignore"):
            candidates = [0.0, 1e-300, norm, np.nextafter(norm, 0.0),
                          np.nextafter(norm, np.inf), norm * (1.0 + 1e-9),
                          norm * (1.0 - 1e-9), norm * 2.0, norm / 2.0,
                          np.linalg.norm(X, "fro"), np.max(np.abs(X))]
        for bound in candidates:
            if not np.isfinite(bound):
                continue
            at_most, upper, exact = _norm_at_most(X, float(bound))
            assert at_most == (norm <= bound), (X.shape, bound)
            assert exact is None or exact == norm
            assert upper >= norm * (1.0 - 1e-12) or upper == np.inf


def test_norm_at_most_skips_the_svd_when_bounds_decide(svd_calls):
    X = np.diag([1.0, 0.5, 0.25])
    assert _norm_at_most(X, 2.0)[0] and not _norm_at_most(X, 0.5)[0]
    assert svd_calls == []
    # the bracket [1, sqrt(2)] of a 2x2 all-ones / sqrt(2) block is open at 1.2
    block = np.zeros((3, 3))
    block[:2, :2] = 1.0 / np.sqrt(2.0)
    at_most, _, norm = _norm_at_most(block, 1.2)
    assert not at_most and svd_calls == [1]
    assert abs(norm - np.sqrt(2.0)) < 1e-15


@pytest.mark.parametrize("shape", [(1, 1), (2, 1), (2, 2)])
def test_norm_at_most_takes_the_svd_of_tiny_matrices(svd_calls, shape):
    X = np.full(shape, 0.25)
    X[0, 0] = 1.0
    norm = linalg.operator_norm(X)
    svd_calls.clear()
    at_most, upper, exact = _norm_at_most(X, 2.0)
    assert at_most and svd_calls == [1]
    assert upper == exact == norm


def test_hermitian_part_max_eig_diagonal(hermitian_part_max_eig):
    T = np.diag([0.25, -3.0, 0.5 + 2.0j])
    # imaginary parts drop out of the Hermitian part
    assert abs(hermitian_part_max_eig(T) - 0.5) <= 1e-14


def test_hermitian_part_shift_invariance(hermitian_part_max_eig):
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        T = random_matrix(rng, n)
        base = hermitian_part_max_eig(T)
        c = float(rng.normal())
        shifted = hermitian_part_max_eig(T + c * np.eye(n))
        assert abs(shifted - base - c) <= 1e-12 * max(1.0, abs(base))
