import numpy as np
import pytest

from abelerg import linalg
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
    ker = linalg.kernel_basis(P)
    img = linalg.image_basis(P)
    assert ker.dim == 1 and img.dim == 1
    assert abs(abs(ker.vectors[1, 0]) - 1.0) <= 1e-14
    assert abs(abs(img.vectors[0, 0]) - 1.0) <= 1e-14


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
        tol = linalg.default_rank_tol(M) * max(
            np.linalg.norm(M, 2), np.finfo(float).tiny)
        ker = linalg.kernel_basis(M, tol)
        img = linalg.image_basis(M, tol)
        assert ker.dim + img.dim == n
        if ker.dim:
            assert np.linalg.norm(M @ ker.vectors, 2) <= \
                1e-10 * max(np.linalg.norm(M, 2), 1.0)
        # bases are orthonormal
        if ker.dim:
            G = ker.vectors.conj().T @ ker.vectors
            assert np.allclose(G, np.eye(ker.dim), atol=1e-12)


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


def test_hermitian_part_max_eig_diagonal():
    T = np.diag([0.25, -3.0, 0.5 + 2.0j])
    # imaginary parts drop out of the Hermitian part
    assert abs(linalg.hermitian_part_max_eig(T) - 0.5) <= 1e-14


def test_hermitian_part_shift_invariance():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        T = random_matrix(rng, n)
        base = linalg.hermitian_part_max_eig(T)
        c = float(rng.normal())
        shifted = linalg.hermitian_part_max_eig(T + c * np.eye(n))
        assert abs(shifted - base - c) <= 1e-12 * max(1.0, abs(base))
