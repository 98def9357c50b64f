import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.special

from abelerg import abel, linalg, semigroup
from abelerg.errors import (IntegralDiverges, Overflow, PoleHit,
                            QuadratureUnstable, ResolventPole)

# ||B|| / lambda is about 2 at lambda = 1: Simpson settles past 64 panels
STIFF = np.array([[-1.0, 0.5], [0.0, -2.0]])


def stable_generator(rng, n, lam=1.0):
    # eigenvalues scaled to the resolvent parameter keep the quadrature
    # decay ratio |Re mu| / lambda within [0.1, 1]
    re = rng.uniform(-1.0, -0.1, n) * lam
    im = rng.uniform(-0.4, 0.4, n) * lam
    W = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    Q1, _ = np.linalg.qr(W)
    W2 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    Q2, _ = np.linalg.qr(W2)
    cond = 10.0 ** rng.uniform(0.0, 1.0)
    S = Q1 @ np.diag(np.logspace(0.0, np.log10(cond), n)) @ Q2
    return S @ np.diag(re + 1j * im) @ np.linalg.inv(S)


def simpson(B, lam):
    """(value, panels) of truncated Simpson on B, as check() takes it."""
    B = linalg.as_matrix(B, square=True)
    return semigroup._simpson(B, lam, semigroup._abscissa(B, lam))


def test_unknown_quadrature_scheme_rejected():
    # Gauss-Laguerre is the library's one rule, and the node count is the
    # self-check's to choose: neither is the caller's
    B = np.array([[-1.0]])
    with pytest.raises(TypeError):
        semigroup.abel_average_quadrature(B, 1.0, node_count=64)
    with pytest.raises(TypeError):
        semigroup.abel_average_quadrature(B, 1.0, "truncated_simpson")
    with pytest.raises(TypeError):
        semigroup.abel_power_quadrature(B, 1.0, 2, "truncated_simpson")


def test_laguerre_rule_weights_sum_to_one():
    for p in (0.0, 1.0, 3.0, 7.0, 31.0):
        nodes, weights = semigroup.laguerre_rule(64, power=p)
        assert abs(weights.sum() - 1.0) <= 1e-13
        assert np.all(nodes > 0.0)
        assert np.all(np.diff(nodes) > 0.0)


def test_laguerre_rule_matches_scipy_reference():
    for p in (0.0, 2.0, 5.0):
        nodes, weights = semigroup.laguerre_rule(32, power=p)
        ref_nodes, ref_weights = scipy.special.roots_genlaguerre(32, p)
        assert np.allclose(nodes, ref_nodes, rtol=1e-12, atol=1e-12)
        assert np.allclose(weights, ref_weights / scipy.special.gamma(p + 1.0),
                           rtol=1e-11, atol=1e-15)


@pytest.mark.parametrize("bad", [-1.0, -2.0, float("nan"), float("inf")])
def test_laguerre_rule_rejects_bad_power(bad):
    # nan and inf used to pass p <= -1 and fail inside scipy
    with pytest.raises(ValueError, match="power must be finite and exceed -1"):
        semigroup.laguerre_rule(4, bad)


def test_laguerre_rule_is_memoized_read_only():
    nodes, weights = semigroup.laguerre_rule(48, power=3.0)
    again = semigroup.laguerre_rule(48, power=3)
    for first, second in zip((nodes, weights), again):
        assert np.array_equal(first, second)
        assert not first.flags.writeable and not second.flags.writeable
        with pytest.raises(ValueError):
            second[0] = 0.0


def test_laguerre_rule_integrates_monomials_exactly():
    # integral of u^k u^p e^(-u) / Gamma(p+1) is the rising product
    # (p+1)(p+2)...(p+k), exact for Gaussian rules up to degree 2m-1
    nodes, weights = semigroup.laguerre_rule(16, power=2.0)
    value = 1.0
    for k in range(1, 12):
        value *= 2.0 + k
        quad = float(weights @ nodes ** k)
        assert abs(quad - value) <= 1e-12 * value


def test_abel_average_closed_scalar_oracle():
    # B = [[-1]], lambda = 1: average is 1/(1+1) = 1/2
    A = semigroup.abel_average_closed(np.array([[-1.0]]), 1.0)
    assert abs(A[0, 0] - 0.5) <= 1e-15


def test_abel_average_closed_pole():
    with pytest.raises(ResolventPole):
        semigroup.abel_average_closed(np.array([[2.0]]), 2.0)
    with pytest.raises(ValueError):
        semigroup.abel_average_closed(np.array([[-1.0]]), 0.0)


def test_quadrature_matches_closed_form():
    rng = np.random.default_rng(101)
    for lam in (0.1, 1.0, 10.0):
        for _ in range(5):
            n = int(rng.integers(2, 6))
            B = stable_generator(rng, n, lam)
            closed = semigroup.abel_average_closed(B, lam)
            quad, _ = semigroup.abel_average_quadrature(B, lam)
            rel = np.linalg.norm(quad - closed, 2) / np.linalg.norm(closed, 2)
            assert rel <= 1e-8


def test_simpson_agrees_with_closed_form():
    rng = np.random.default_rng(103)
    B = stable_generator(rng, 3)
    closed = semigroup.abel_average_closed(B, 1.0)
    quad, _ = simpson(B, 1.0)
    rel = np.linalg.norm(quad - closed, 2) / np.linalg.norm(closed, 2)
    assert rel <= 1e-6


@pytest.mark.parametrize("B", [[[0.7]], [[0.8]], [[0.9]],
                               [[0.9, 0.0], [0.3, -1.0]]])
def test_simpson_horizon_covers_growing_semigroups(B):
    # exp(tB) grows like e^(w t), w = 0.7 to 0.9: a horizon of 40 / lambda
    # cuts the integrand at e^(-40 (1 - w)), e^-4 at w = 0.9, and the
    # self-check cannot see the tail it dropped (1.8e-2 relative there)
    B = np.array(B)
    closed = semigroup.abel_average_closed(B, 1.0)
    quad, _ = simpson(B, 1.0)
    rel = np.linalg.norm(quad - closed, 2) / np.linalg.norm(closed, 2)
    assert rel <= 1e-6


@pytest.mark.parametrize("n", [30, 40, 60, 100])
@pytest.mark.parametrize("B", [[[-0.5]], [[-0.01]],
                               [[-1.0, 2.0], [0.0, -0.2]]],
                         ids=["B0", "B1", "B3"])
def test_simpson_horizon_covers_the_power_weight(B, n):
    # the weight u^(n-1) e^-u peaks near u = n - 1, where a truncated rule
    # once cut it off unseen by the self-check; Gauss-Laguerre integrates
    # against the weight itself and settles at the starting node count
    B = np.array(B, dtype=np.complex128)
    exact = np.linalg.matrix_power(semigroup.abel_average_closed(B, 1.0), n)
    quad, nodes = semigroup.abel_power_quadrature(B, 1.0, n)
    assert nodes == semigroup.START_NODE_COUNT
    rel = np.linalg.norm(quad - exact, 2) / np.linalg.norm(exact, 2)
    assert rel <= 1e-12


def test_simpson_horizon_past_expm_range_settles():
    # the horizon 40 / (1 - 0.99) = 4000 would put e^3960 on the grid, but
    # Simpson sums e^-u exp(0.99 u) = e^(-0.01 u), which decays; only
    # Gauss-Laguerre overflows here, at its 256-node rule
    B = np.array([[0.99]])
    value, _ = simpson(B, 1.0)
    assert abs(value[0, 0] - 100.0) <= 1e-7 * 100.0
    with pytest.raises(Overflow):
        semigroup.abel_average_quadrature(B, 1.0)


def test_simpson_horizon_on_stable_generators_is_forty():
    # bit for bit the grid of the fixed horizon 40; at the last lambda,
    # 40 * lambda / lambda rounds to a neighbour of 40
    rng = np.random.default_rng(137)
    for lam in (0.1, 1.0, 10.0, 1.8389906439653343):
        B = stable_generator(rng, 3, lam)
        value, panels = simpson(B, lam)
        ref, ref_panels = semigroup._settle(
            semigroup._simpson_estimates(B, lam, semigroup.START_NODE_COUNT,
                                         40.0),
            semigroup.START_NODE_COUNT, semigroup.SIMPSON_MAX_PANELS, "ref")
        assert panels == ref_panels
        assert np.array_equal(value, ref)


def count_expm_calls(monkeypatch):
    """Wrap the one expm kernel, linalg.matrix_exponentials, which
    matrix_exponential also calls; the list collects every t it receives."""
    calls = []
    original = linalg.matrix_exponentials

    def counted(B, ts):
        calls.extend(ts)
        return original(B, ts)

    monkeypatch.setattr(linalg, "matrix_exponentials", counted)
    return calls


def test_simpson_doubles_until_self_check_passes():
    closed = semigroup.abel_average_closed(STIFF, 1.0)
    quad, panels = simpson(STIFF, 1.0)
    assert panels in [semigroup.START_NODE_COUNT * 2 ** k
                      for k in range(1, 8)]
    rel = np.linalg.norm(quad - closed, 2) / np.linalg.norm(closed, 2)
    assert rel <= 1e-6


def simpson_expm_calls(panels):
    """expm calls of a Simpson run from START_NODE_COUNT panels up to the
    estimate at 2 * panels: the first grid's stride exp(2hC), then one
    exp(hC) per grid (m0, 2 m0, ..., 2 * panels panels)."""
    return 1 + (2 * panels // semigroup.START_NODE_COUNT).bit_length()


def test_simpson_evaluates_each_node_once(monkeypatch):
    # settling at m panels means checking against 2m: 4m + 1 nodes in all,
    # summed by products from one expm per grid; no t is exponentiated twice
    calls = count_expm_calls(monkeypatch)
    for B in (STIFF, np.array([[-1.0]])):
        calls.clear()
        _, panels = simpson(B, 1.0)
        assert len(calls) == simpson_expm_calls(panels)
        assert len(set(calls)) == len(calls)


def test_gauss_laguerre_runs_once_at_m_and_2m(monkeypatch):
    # STIFF settles at the starting count: m and 2m nodes, each taken once
    calls = count_expm_calls(monkeypatch)
    _, nodes = semigroup.abel_average_quadrature(STIFF, 1.0)
    m = semigroup.START_NODE_COUNT
    assert nodes == m
    assert len(calls) == 3 * m


def test_gauss_laguerre_doubles_until_self_check_passes(monkeypatch):
    # ||B|| / lambda = 20: 64 against 128 nodes disagree, 128 against 256
    # agree; settling at m takes m0 + 2 m0 + ... + 2m = 4m - m0 expm calls
    calls = count_expm_calls(monkeypatch)
    B = np.array([[-20.0]])
    quad, nodes = semigroup.abel_average_quadrature(B, 1.0)
    assert nodes == 128
    assert len(calls) == 4 * nodes - semigroup.START_NODE_COUNT
    assert len(set(calls)) == len(calls)
    assert abs(quad[0, 0] - 1.0 / 21.0) <= 1e-8 / 21.0


def test_gauss_laguerre_cap_raises_quadrature_unstable(monkeypatch):
    # with the cap at the starting count, only 64 against 128 nodes runs
    calls = count_expm_calls(monkeypatch)
    m = semigroup.START_NODE_COUNT
    monkeypatch.setattr(semigroup, "MAX_NODE_COUNT", m)
    with pytest.raises(QuadratureUnstable,
                       match=r"gauss_laguerre with weight u\^0 .*64 and 128"):
        semigroup.abel_average_quadrature(np.array([[-20.0]]), 1.0)
    assert len(calls) == 3 * m


def test_simpson_cap_raises_quadrature_unstable(monkeypatch):
    # with the cap at the starting count, only 64 against 128 panels runs
    calls = count_expm_calls(monkeypatch)
    m = semigroup.START_NODE_COUNT
    monkeypatch.setattr(semigroup, "SIMPSON_MAX_PANELS", m)
    with pytest.raises(QuadratureUnstable,
                       match=r"truncated_simpson with weight u\^0 "):
        simpson(STIFF, 1.0)
    assert len(calls) == simpson_expm_calls(m)


def test_settle_decides_from_norm_bounds(monkeypatch):
    # 4x4 differences whose column and Frobenius bounds clear the tolerance
    # either way: the only SVDs are the scales ||fine||, and the exact
    # disagreement is taken for the failure message alone
    svds = []
    operator_norm = linalg.operator_norm
    monkeypatch.setattr(linalg, "operator_norm",
                        lambda A: svds.append(A) or operator_norm(A))
    E = np.zeros((4, 4))
    E[0, 0] = 1.0
    estimates = [np.eye(4) + d * E for d in (1e-2, 1e-4, 1e-4 + 1e-7)]
    value, m = semigroup._settle(iter(estimates), 64, 1024, "rule")
    assert m == 128 and value is estimates[2]
    assert len(svds) == 2
    with pytest.raises(QuadratureUnstable,
                       match=r"rule: node counts 64 and 128 disagree by "
                             r"9\.899e-03 relative"):
        semigroup._settle(iter(estimates), 64, 64, "rule")


def reference_simpson(B, lam, panels, u_max):
    """Simpson estimates with one expm per node: the geometric sums'
    reference."""
    def node_sum(indices):
        u = np.asarray(indices, dtype=np.float64) * (u_max / intervals)
        total = np.zeros(B.shape, dtype=np.complex128)
        for u_i in u:
            total += np.exp(-u_i) * linalg.matrix_exponential(B, u_i / lam)
        return total

    intervals = 2 * panels
    ends = node_sum([0, intervals])
    even = node_sum(range(2, intervals, 2))
    while True:
        odd = node_sum(range(1, intervals, 2))
        yield (u_max / intervals / 3.0) * (ends + 4.0 * odd + 2.0 * even)
        even += odd
        intervals *= 2


def _product_chain_cases():
    # spectral radius / lambda from 0.5 to 2, as the semigroup benchmark
    # draws it, on normal generators (condition 1) and on non-normal ones
    # whose eigenvector matrix has condition 10 to 1e4
    rng = np.random.default_rng(139)
    for i, cond in enumerate((1.0, 1.0, 1.0, 1.0, 1e1, 1e2, 1e3, 1e4, 1e4)):
        lam = (0.1, 1.0, 10.0)[i % 3]
        n = 2 + i % 5
        values = rng.uniform(-1.0, -0.1, n) + 1j * rng.uniform(-0.4, 0.4, n)
        values *= min(0.5 + 0.5 * i, 2.0) * lam / np.max(np.abs(values))
        Q1, Q2 = (np.linalg.qr(rng.normal(size=(n, n))
                               + 1j * rng.normal(size=(n, n)))[0]
                  for _ in range(2))
        S = (Q1 * np.logspace(0.0, np.log10(cond), n)) @ Q2
        yield S @ np.diag(values) @ np.linalg.inv(S), lam, cond


def test_simpson_products_match_one_expm_per_node(monkeypatch):
    for B, lam, cond in _product_chain_cases():
        # at condition 1e4, ||exp(tB)|| climbs to about 1e3 before it decays,
        # and the stride factor's rounding, carried through the squarings of
        # the geometric sums, moves the sum by up to 7.0e-9 in these cases
        # (6.1e-12 below condition 1e4); still well inside SELF_CHECK_TOL
        bound = 1e-7 if cond < 1e4 else 5e-7
        value, panels = simpson(B, lam)
        with monkeypatch.context() as patch:
            patch.setattr(semigroup, "_simpson_estimates", reference_simpson)
            ref, ref_panels = simpson(B, lam)
        assert panels == ref_panels
        gap = np.linalg.norm(value - ref, 2) / np.linalg.norm(ref, 2)
        assert gap <= bound


def test_simpson_product_overflow_raises(monkeypatch):
    # every direct expm is huge but finite, so the first squaring of the
    # stride factor overflows; the sum must raise quietly, as expm does,
    # not come back as inf or nan
    original = linalg.matrix_exponentials
    monkeypatch.setattr(linalg, "matrix_exponentials",
                        lambda B, ts: 1e160 * original(B, ts))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Overflow):
            simpson(STIFF, 1.0)


def _geometric_grid_cases():
    # a normal generator and one with eigenvector condition 1e4, spectral
    # radius / lambda 2 as the semigroup benchmark draws it at its stiffest
    rng = np.random.default_rng(149)
    n = 4
    for cond in (1.0, 1e4):
        values = rng.uniform(-1.0, -0.1, n) + 1j * rng.uniform(-0.4, 0.4, n)
        values *= 2.0 / np.max(np.abs(values))
        Q1, Q2 = (np.linalg.qr(rng.normal(size=(n, n))
                               + 1j * rng.normal(size=(n, n)))[0]
                  for _ in range(2))
        S = (Q1 * np.logspace(0.0, np.log10(cond), n)) @ Q2
        yield S @ np.diag(values) @ np.linalg.inv(S), cond


@pytest.mark.parametrize("length", [1, 2, 31, 32, 33, 63, 64, 65, 1025])
def test_geometric_grid_sum_matches_per_node_loop(length):
    # the odd Simpson nodes u_k = (2k + 1) h, k < length, summed as exp(hC)
    # times the geometric sum of exp(2hC), C = B - I, and the node past
    # them as the power, against one expm per node; Simpson's panel counts
    # are powers of two, and the other lengths take the doubling's other
    # bit patterns.  At condition 1e4 the stride factor's rounding grows
    # with the transient of exp(uB) to about 1e-9, as it does in a chain
    # of one product per node
    h = 40.0 / 2048
    u = (2.0 * np.arange(length) + 1.0) * h
    for B, cond in _geometric_grid_cases():
        bound = 1e-14 if cond == 1.0 else 5e-9
        C = B - np.eye(B.shape[0])
        last, grid = linalg.power_and_geometric_sum(
            linalg.matrix_exponential(C, 2.0 * h), length)
        value = linalg.matrix_exponential(C, h) @ grid
        ref = sum(np.exp(-u_k) * linalg.matrix_exponential(B, u_k)
                  for u_k in u)
        scale = bound * np.linalg.norm(ref, 2)
        assert np.linalg.norm(value - ref, 2) <= scale
        end = linalg.matrix_exponential(C, 2.0 * h * length)
        assert np.linalg.norm(last - end, 2) <= scale


def test_simpson_memory_does_not_grow_with_panel_count():
    # the running sums hold a few n x n matrices whatever the panel count;
    # stacking every term would take 4m + 1 >= 257 of them
    rng = np.random.default_rng(131)
    n = 32
    B = stable_generator(rng, n)
    tracemalloc.start()
    try:
        simpson(B, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 32 * n * n * 16


def test_gauss_laguerre_memory_is_bounded():
    # at n = 64 a stack of STACK_CHUNK_BYTES holds 16 nodes; one stack for
    # the whole 128-node rule would take 8 MiB, and its input t B as much
    rng = np.random.default_rng(131)
    n = 64
    B = stable_generator(rng, n)
    tracemalloc.start()
    try:
        semigroup.abel_average_quadrature(B, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * max(linalg.STACK_CHUNK_BYTES, 16 * n * n)


def test_quadrature_unstable_generator_rejected():
    # spectral abscissa above lambda: the improper integral diverges
    with pytest.raises(IntegralDiverges):
        semigroup.abel_average_quadrature(np.array([[0.5]]), 0.25)


def test_gauss_laguerre_settles_on_stiff_generators():
    # normal generators with ||B|| / lambda = 8, 12 and 20, drawn as the
    # semigroup benchmark draws them; a fixed 64 against 128 nodes fails
    # most of those at 12 and 20
    rng = np.random.default_rng(113)
    for i in range(9):
        stiffness = (8.0, 12.0, 20.0)[i // 3]
        lam = (0.1, 1.0, 10.0)[i % 3]
        n = 2 + i % 4
        values = rng.uniform(-1.0, -0.1, n) + 1j * rng.uniform(-0.4, 0.4, n)
        values *= stiffness * lam / np.max(np.abs(values))
        Q, _ = np.linalg.qr(rng.normal(size=(n, n))
                            + 1j * rng.normal(size=(n, n)))
        B = (Q * values) @ Q.conj().T
        closed = semigroup.abel_average_closed(B, lam)
        for power in (1, 4):
            quad, _ = semigroup.abel_power_quadrature(B, lam, power)
            ref = np.linalg.matrix_power(closed, power)
            rel = np.linalg.norm(quad - ref, 2) / np.linalg.norm(ref, 2)
            assert rel <= 1e-8


def test_power_quadrature_scalar_oracle():
    # B = [[-1]], lambda = 1, n = 3: (1/(1+1))^3 = 1/8
    P, _ = semigroup.abel_power_quadrature(np.array([[-1.0]]), 1.0, 3)
    assert abs(P[0, 0] - 0.125) <= 1e-12


def test_power_quadrature_matches_matrix_power():
    rng = np.random.default_rng(107)
    B = stable_generator(rng, 4)
    closed = semigroup.abel_average_closed(B, 1.0)
    for n in (1, 2, 4, 8):
        P, _ = semigroup.abel_power_quadrature(B, 1.0, n)
        ref = np.linalg.matrix_power(closed, n)
        rel = np.linalg.norm(P - ref, 2) / np.linalg.norm(ref, 2)
        assert rel <= 1e-8


def test_discrete_bridge_is_algebraic_identity():
    rng = np.random.default_rng(109)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        B = stable_generator(rng, n)
        lam = float(10.0 ** rng.uniform(-1.0, 1.0))
        rep = semigroup.check(B, lam, 1)["bridge"]
        assert rep["relative_defect"] <= 1e-12
        assert abs(rep["alpha"] - 1.0 / (1.0 + lam)) <= 1e-15


@pytest.mark.parametrize("n", [0, -1])
def test_check_rejects_powers_below_one(n):
    # a negative n would reach matrix_power as a power of the inverse
    with pytest.raises(ValueError, match="n must be >= 1"):
        semigroup.check(np.array([[-1.0]]), 1.0, n)


def test_ergodic_projection_kernel_of_generator():
    rng = np.random.default_rng(127)
    # B with a one-dimensional kernel: limit projects onto it
    n = 5
    B = np.zeros((n, n), dtype=np.complex128)
    B[1:, 1:] = stable_generator(rng, n - 1)
    W = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    Q, _ = np.linalg.qr(W)
    B = Q @ B @ Q.conj().T
    rep = abel.power_iterate(semigroup.abel_average_closed(B, 1.0))
    assert rep.converged
    L = rep.limit
    assert np.linalg.norm(B @ L, 2) <= 1e-8
    assert np.linalg.norm(L @ L - L, 2) <= 1e-8
    assert abs(np.trace(L) - 1.0) <= 1e-8


def test_ergodic_projection_shift_generator_diverges_cleanly():
    # B = [[0,1],[0,0]]: 0 is a defective eigenvalue of the generator,
    # the scaled resolvent has a Jordan block at 1 and powers blow up
    B = np.array([[0.0, 1.0], [0.0, 0.0]])
    rep = abel.power_iterate(semigroup.abel_average_closed(B, 1.0))
    assert not rep.converged
    assert rep.limit is None
