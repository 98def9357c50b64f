import re
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from abelerg import abel, certify, linalg, oscillator, semigroup
from abelerg.errors import Overflow, SingularMatrix


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
    "oscillator.gram_defect": (
        "count", lambda v: oscillator.gram_defect(v)),
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
    "linalg.norm_at_most": (
        "bound", lambda v: linalg.norm_at_most(np.eye(2), v)),
    "semigroup.laguerre_rule": (
        "power", lambda v: semigroup.laguerre_rule(4, v)),
    "semigroup.abel_average_closed": (
        "lambda", lambda v: semigroup.abel_average_closed(-np.eye(2), v)),
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


def test_solve_linear_random_residuals():
    rng = np.random.default_rng(42)
    for _ in range(25):
        n = int(rng.integers(2, 12))
        A = random_matrix(rng, n) + 2.0 * n * np.eye(n)
        rhs = random_matrix(rng, n)[:, :2]
        x = linalg.solve_linear(A, rhs)
        assert np.linalg.norm(A @ x - rhs) <= 1e-10 * np.linalg.norm(rhs)


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
    # exp(t [[0,1],[0,0]]) = [[1,t],[0,1]] exactly
    B = np.array([[0.0, 1.0], [0.0, 0.0]])
    for t in (0.0, 0.5, 3.0, 10.0):
        E = linalg.matrix_exponential(B, t)
        assert np.allclose(E, [[1.0, t], [0.0, 1.0]], atol=1e-14)


def test_matrix_exponential_overflow():
    B = np.array([[500.0]])
    with pytest.raises(Overflow):
        linalg.matrix_exponential(B, 10.0)


def _expm_cases():
    # scipy's expm branches on 1x1, diagonal, upper- and lower-triangular
    # and dense input
    rng = np.random.default_rng(17)
    dense = random_matrix(rng, 5)
    yield dense
    yield np.diag(np.diag(dense))
    yield np.triu(dense)
    yield np.tril(dense)
    yield dense[:1, :1]
    yield -np.eye(3)


def test_matrix_exponentials_match_one_expm_per_t():
    ts = np.concatenate(([0.0], np.geomspace(1e-3, 30.0, 40)))
    for B in _expm_cases():
        stack = linalg.matrix_exponentials(B, ts)
        assert stack.shape == (len(ts),) + B.shape
        for t, E in zip(ts, stack):
            assert np.array_equal(E, linalg.matrix_exponential(B, float(t)))
            assert np.array_equal(
                E, scipy.linalg.expm(float(t) * B.astype(np.complex128)))


def test_weighted_sum_chunks_match_one_expm_per_node(monkeypatch):
    # 3 nodes per stack: 10 nodes take four calls, the last one partial;
    # the sum adds in node order, so it equals the per-node loop bit for bit
    nodes, weights = semigroup.laguerre_rule(10)
    for B in _expm_cases():
        B = B.astype(np.complex128)
        n = B.shape[0]
        monkeypatch.setattr(linalg, "STACK_CHUNK_BYTES", 3 * 16 * n * n + 1)
        chunked = semigroup._weighted_sum(B, 2.0, nodes, weights)
        reference = np.zeros_like(B)
        for u_i, w_i in zip(nodes, weights):
            reference += w_i * linalg.matrix_exponential(B, u_i / 2.0)
        assert np.array_equal(chunked, reference)


def test_matrix_exponentials_overflow_names_first_t():
    B = np.array([[500.0]])
    with pytest.raises(Overflow, match=r"^the expm computation of "
                                       r"exp\(2\.0 \* B\) overflowed$"):
        linalg.matrix_exponentials(B, np.array([0.5, 1.0, 2.0, 10.0]))


@pytest.mark.parametrize("ts", [np.array([0.5, np.nan]),
                                np.array([1.0, np.inf]),
                                np.array([[0.5, 1.0]]), np.array(0.5),
                                np.array([1, 2]), np.array([True]),
                                np.array(["0.5"])],
                         ids=["nan", "inf", "2d", "0d", "int", "bool", "str"])
def test_matrix_exponentials_rejects_bad_ts(ts):
    with pytest.raises(ValueError, match=r"^ts must be "):
        linalg.matrix_exponentials(np.eye(2), ts)


def test_operator_norm_matches_largest_singular_value():
    rng = np.random.default_rng(3)
    M = random_matrix(rng, 6)
    assert abs(linalg.operator_norm(M) - np.linalg.norm(M, 2)) <= 1e-12


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
            test = linalg.norm_at_most(X, bound)
            assert bool(test) == (norm <= bound), (X.shape, bound)
            assert test.norm is None or test.norm == norm
            assert test.upper >= norm * (1.0 - 1e-12) or test.upper == np.inf


def test_norm_at_most_skips_the_svd_when_bounds_decide(svd_calls):
    X = np.diag([1.0, 0.5, 0.25])
    assert linalg.norm_at_most(X, 2.0) and not linalg.norm_at_most(X, 0.5)
    assert svd_calls == []
    # the bracket [1, sqrt(2)] of a 2x2 all-ones / sqrt(2) block is open at 1.2
    block = np.zeros((3, 3))
    block[:2, :2] = 1.0 / np.sqrt(2.0)
    test = linalg.norm_at_most(block, 1.2)
    assert not test and svd_calls == [1]
    assert abs(test.norm - np.sqrt(2.0)) < 1e-15


@pytest.mark.parametrize("shape", [(1, 1), (2, 1), (2, 2)])
def test_norm_at_most_takes_the_svd_of_tiny_matrices(svd_calls, shape):
    X = np.full(shape, 0.25)
    X[0, 0] = 1.0
    norm = linalg.operator_norm(X)
    svd_calls.clear()
    test = linalg.norm_at_most(X, 2.0)
    assert test and svd_calls == [1]
    assert test.upper == test.norm == norm


@pytest.mark.parametrize("bad", [-1e-3, float("nan"), float("inf")])
def test_norm_at_most_rejects_bad_bound(bad):
    with pytest.raises(ValueError, match="bound"):
        linalg.norm_at_most(np.eye(2), bad)


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
