import numpy as np
import pytest

from abelerg import oscillator
from abelerg.errors import PoleHit


def small_model():
    return oscillator.DiagonalOscillator(truncation=2000)


def test_model_validation_and_eigenvalues():
    with pytest.raises(ValueError):
        oscillator.DiagonalOscillator(truncation=1)
    with pytest.raises(ValueError):
        oscillator.DiagonalOscillator(
            truncation=oscillator.MAX_TRUNCATION + 1)
    model = oscillator.DiagonalOscillator(truncation=5)
    assert np.array_equal(model.eigenvalues(), [1.0, -1.0, -3.0, -5.0, -7.0])


def test_first_order_gap_rejects_poles_and_bad_lambda():
    model = oscillator.DiagonalOscillator(truncation=8)
    for pole in (1.0, -1.0, -3.0):
        with pytest.raises(PoleHit):
            oscillator.first_order_gap(model, pole)
    for bad in (0.5, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            oscillator.first_order_gap(model, bad)


def test_first_order_gap_closed_form():
    model = small_model()
    # the supremum over n >= 1 is attained at n = 1: (lambda-1)/(lambda+1)
    assert abs(oscillator.first_order_gap(model, 1.5) - 0.2) <= 1e-15
    assert abs(oscillator.first_order_gap(model, 2.0) - 1.0 / 3.0) <= 1e-15


def test_first_order_gap_below_coarse_bound():
    model = small_model()
    rng = np.random.default_rng(71)
    for lam in 1.0 + rng.uniform(1e-6, 1.0, 100):
        gap = oscillator.first_order_gap(model, float(lam))
        assert gap <= lam - 1.0
        assert gap >= 0.0


def test_power_gap_is_first_gap_to_the_m():
    model = small_model()
    # sup at n = 1 for every power; lambda = 3, m = 1 gives 2/4 = 1/2
    assert abs(oscillator.scaled_resolvent_power_gap(model, 3.0, 1).gap
               - 0.5) <= 1e-15
    for lam in (1.5, 2.0, 3.0):
        base = oscillator.first_order_gap(model, lam)
        for m in (1, 2, 4, 7):
            rep = oscillator.scaled_resolvent_power_gap(model, lam, m)
            assert abs(rep.gap - base ** m) <= 1e-14


def test_power_gap_bound_present_from_four():
    model = small_model()
    assert oscillator.scaled_resolvent_power_gap(model, 2.0, 3).bound is None
    rep = oscillator.scaled_resolvent_power_gap(model, 2.0, 4)
    assert rep.bound is not None
    assert rep.gap <= rep.bound


def test_power_gap_strictly_below_bound_on_sweep():
    model = small_model()
    rng = np.random.default_rng(73)
    for _ in range(60):
        lam = float(rng.uniform(1.0 + 1e-3, 4.0))
        m = int(rng.integers(4, 65))
        rep = oscillator.scaled_resolvent_power_gap(model, lam, m)
        assert rep.gap < rep.bound


def test_c_constant_series_oracles():
    model = oscillator.DiagonalOscillator(truncation=10_000)
    # C(2) = pi^2/8 - 1 and C(3) = pi^2/6 - 1, by the explicit series
    for lam, target in ((2.0, np.pi ** 2 / 8.0 - 1.0),
                        (3.0, np.pi ** 2 / 6.0 - 1.0)):
        c = oscillator.c_constant(model, lam)
        assert c.value <= target <= c.value + c.tail_bound
        assert abs(c.estimate - target) <= 1e-6


def test_c_constant_tail_shrinks_with_truncation():
    lam = 2.5
    coarse = oscillator.c_constant(oscillator.DiagonalOscillator(100), lam)
    fine = oscillator.c_constant(oscillator.DiagonalOscillator(10_000), lam)
    assert fine.tail_bound < coarse.tail_bound
    assert coarse.value <= fine.value
    # both brackets must contain the same limit
    assert fine.value <= coarse.value + coarse.tail_bound


def test_hermite_ground_state_value():
    # x_0(0) = pi^(-1/4)
    assert abs(oscillator.hermite_function(0, 0.0)
               - 0.7511255444649425) <= 1e-15


def test_hermite_parity():
    t = np.linspace(-6.0, 6.0, 101)
    for n in range(6):
        x_plus = oscillator.hermite_function(n, t)
        x_minus = oscillator.hermite_function(n, -t)
        assert np.allclose(x_minus, (-1.0) ** n * x_plus, atol=1e-13)


def test_hermite_orthonormal_on_fine_grid():
    t = np.linspace(-12.0, 12.0, 24001)
    w = np.full(t.size, t[1] - t[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    rows = np.stack([oscillator.hermite_function(n, t) for n in range(10)])
    gram = (rows * w) @ rows.T
    assert np.max(np.abs(gram - np.eye(10))) <= 1e-6


def test_hermite_large_n_stays_finite():
    t = np.linspace(-40.0, 40.0, 2001)
    x = oscillator.hermite_function(400, t)
    assert np.all(np.isfinite(x))
    assert np.max(np.abs(x)) <= 1.0


def test_eigen_residual_small_for_low_modes():
    for n in range(7):
        r = oscillator.eigen_residual(n, step=1e-3, half_width=12.0)
        assert r <= 1e-4


def test_eigen_residual_ground_state_tight():
    r = oscillator.eigen_residual(0, step=1e-3, half_width=8.0)
    assert r <= 1e-5


def test_eigen_residual_scales_with_step():
    fine = oscillator.eigen_residual(2, step=1e-3)
    coarse = oscillator.eigen_residual(2, step=4e-3)
    # central differences are second order: 4x step, about 16x residual
    assert 8.0 <= coarse / fine <= 32.0


def test_eigen_residual_window_validation():
    with pytest.raises(ValueError):
        oscillator.eigen_residual(30, step=1e-3, half_width=12.0)
    # 100 and 30 leave 1 and 2 grid points (a bare IndexError once); the
    # last step asks for one point past MAX_RESIDUAL_GRID_POINTS
    cap_step = 24.0 / (oscillator.MAX_RESIDUAL_GRID_POINTS + 1)
    for step in (0.0, -1e-3, float("nan"), 100.0, 30.0, cap_step):
        with pytest.raises(ValueError):
            oscillator.eigen_residual(0, step=step)
