import numpy as np
import pytest

from abelerg import oscillator


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
    # every lambda <= 1 is outside the resolvent formulas' domain; the
    # eigenvalues 1, -1, -3 used to raise PoleHit instead
    model = oscillator.DiagonalOscillator(truncation=8)
    for bad in (1.0, -1.0, -3.0, 0.5, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="^lambda must be finite and "
                                             "exceed 1, got "):
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
    # the Gram matrix is taken on 24001 points 1e-3 apart on [-12, 12]
    assert np.array_equal(oscillator._grid(), np.linspace(-12.0, 12.0, 24001))
    assert oscillator.gram_defect(10) <= 1e-6


def test_hermite_large_n_stays_finite():
    t = np.linspace(-40.0, 40.0, 2001)
    x = oscillator.hermite_function(400, t)
    assert np.all(np.isfinite(x))
    assert np.max(np.abs(x)) <= 1.0


def test_eigen_residual_small_for_low_modes():
    for n in range(7):
        assert oscillator.eigen_residual(n) <= 1e-4


def test_eigen_residual_ground_state_tight():
    assert oscillator.eigen_residual(0) <= 1e-5


def test_eigen_residual_scales_with_step():
    # the same residual on a grid 4x coarser than eigen_residual's; the
    # eigenvalue of mode 2 is 1 - 2n = -3
    t = np.linspace(-12.0, 12.0, 6001)
    h = t[1] - t[0]
    x = oscillator.hermite_function(2, t)
    second = (x[:-2] - 2.0 * x[1:-1] + x[2:]) / (h * h)
    coarse = np.max(np.abs(second + (2.0 - t[1:-1] ** 2) * x[1:-1]
                           + 3.0 * x[1:-1]))
    # central differences are second order: 4x step, about 16x residual
    assert 8.0 <= coarse / oscillator.eigen_residual(2) <= 32.0


def test_eigen_residual_window_validation():
    # the fixed grid on [-12, 12] reaches 5 past the turning point
    # sqrt(2n + 1) up to n = 24
    assert oscillator.eigen_residual(24) <= 1e-4
    for n in (25, 30):
        with pytest.raises(ValueError, match="turning point"):
            oscillator.eigen_residual(n)


def test_check_is_the_model_quantities():
    fields = oscillator.check(2.0, 4, 2000)
    model = small_model()
    gap = oscillator.scaled_resolvent_power_gap(model, 2.0, 4)
    assert (fields["gap"], fields["gap_bound"]) == (gap.gap, gap.bound)
    assert fields["c_constant"]["estimate"] == \
        oscillator.c_constant(model, 2.0).estimate
    assert fields["eigen_residuals"] == {
        str(n): oscillator.eigen_residual(n) for n in range(7)}
    assert fields["gram_defect"] == oscillator.gram_defect(10)


def test_check_validates_truncation_then_lambda_then_m():
    with pytest.raises(ValueError, match="^truncation "):
        oscillator.check(0.5, 0, 1)
    with pytest.raises(ValueError, match="^lambda "):
        oscillator.check(0.5, 0, 2)
    with pytest.raises(ValueError, match="^m "):
        oscillator.check(2.0, 0, 2)
