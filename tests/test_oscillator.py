import numpy as np
import pytest

from abelerg import oscillator
from abelerg.errors import Overflow


def gram_defect(count):
    """max |<x_j, x_k> - delta_jk| over the first count Hermite functions.

    The inner products are trapezoidal sums on eigen_residual's grid, under
    its reach rule for the top mode count - 1: count <= 25.
    """
    oscillator._check_reach(count - 1)
    t = oscillator._grid()
    weights = np.full(t.size, t[1] - t[0])
    weights[[0, -1]] *= 0.5
    rows = np.stack([oscillator.hermite_function(n, t) for n in range(count)])
    gram = (rows * weights) @ rows.T
    return float(np.max(np.abs(gram - np.eye(count))))


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
    for bad in (1.0, -1.0, -3.0, 0.5, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="^lambda must be finite and "
                                             "exceed 1, got "):
            oscillator.check(bad, 4, 8)


def test_first_order_gap_closed_form():
    # the supremum over n >= 1 is attained at n = 1: (lambda-1)/(lambda+1)
    assert abs(oscillator.check(1.5, 1, 2000)["first_order_gap"]
               - 0.2) <= 1e-15
    assert abs(oscillator.check(2.0, 1, 2000)["first_order_gap"]
               - 1.0 / 3.0) <= 1e-15


def test_first_order_gap_below_coarse_bound():
    rng = np.random.default_rng(71)
    for lam in 1.0 + rng.uniform(1e-6, 1.0, 100):
        gap = oscillator.check(float(lam), 1, 2000)["first_order_gap"]
        assert gap <= lam - 1.0
        assert gap >= 0.0


def test_power_gap_is_first_gap_to_the_m():
    # sup at n = 1 for every power; lambda = 3, m = 1 gives 2/4 = 1/2
    assert abs(oscillator.check(3.0, 1, 2000)["gap"] - 0.5) <= 1e-15
    for lam in (1.5, 2.0, 3.0):
        for m in (1, 2, 4, 7):
            fields = oscillator.check(lam, m, 2000)
            assert abs(fields["gap"] - fields["first_order_gap"] ** m) \
                <= 1e-14


def test_power_gap_bound_present_from_four():
    assert oscillator.check(2.0, 3, 2000)["gap_bound"] is None
    fields = oscillator.check(2.0, 4, 2000)
    assert fields["gap_bound"] is not None
    assert fields["gap"] <= fields["gap_bound"]


def test_power_gap_strictly_below_bound_on_sweep():
    rng = np.random.default_rng(73)
    for _ in range(60):
        lam = float(rng.uniform(1.0 + 1e-3, 4.0))
        m = int(rng.integers(4, 65))
        fields = oscillator.check(lam, m, 2000)
        assert fields["gap"] < fields["gap_bound"]


def test_c_constant_series_oracles():
    # C(2) = pi^2/8 - 1 and C(3) = pi^2/6 - 1, by the explicit series
    for lam, target in ((2.0, np.pi ** 2 / 8.0 - 1.0),
                        (3.0, np.pi ** 2 / 6.0 - 1.0)):
        c = oscillator.check(lam, 1, 10_000)["c_constant"]
        assert c["value"] <= target <= c["value"] + c["tail_bound"]
        assert abs(c["estimate"] - target) <= 1e-6


def test_c_constant_tail_shrinks_with_truncation():
    coarse = oscillator.check(2.5, 1, 100)["c_constant"]
    fine = oscillator.check(2.5, 1, 10_000)["c_constant"]
    assert fine["tail_bound"] < coarse["tail_bound"]
    assert coarse["value"] <= fine["value"]
    # both brackets must contain the same limit
    assert fine["value"] <= coarse["value"] + coarse["tail_bound"]


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
    assert gram_defect(10) <= 1e-6


def test_gram_defect_window_validation():
    # all 25 modes that eigen_residual's reach rule admits are orthonormal
    # on its grid; counts past it would cut the functions off at the
    # grid's edge, and 80 and 200 gave defects of 0.22 and 0.59
    assert gram_defect(25) <= 1e-6
    for count in (26, 80, 200):
        with pytest.raises(ValueError, match="turning point"):
            gram_defect(count)


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
    # sqrt(2n + 1) up to n = 24, and each such mode's residual stays
    # below 1e-3 times the budget 100 h^2 (2n + 3)^2, h^2 times the
    # scale of x_n's fourth derivative
    h = oscillator.GRID_STEP
    for n in range(25):
        budget = 100.0 * h * h * (2.0 * n + 3.0) ** 2
        assert oscillator.eigen_residual(n) <= 1e-3 * budget
    assert oscillator.eigen_residual(24) <= 1e-4
    for n in (25, 30):
        with pytest.raises(ValueError, match="turning point"):
            oscillator.eigen_residual(n)


def reference_model_fields(lam, m, truncation):
    """check's model fields step by step: the ratios, C(lambda) with its
    tail bound, then the gap and its bound from C(lambda)'s estimate."""
    n = np.arange(1, truncation, dtype=np.float64)
    ratios = (lam - 1.0) / (lam - 1.0 + 2.0 * n)
    value = float(np.sum(ratios ** 2))
    try:
        tail = (lam - 1.0) ** 2 / (2.0 * (lam - 3.0 + 2.0 * truncation))
    except OverflowError:
        raise Overflow(f"the tail bound of C({lam}) overflows") from None
    c_constant = {"value": value, "tail_bound": float(tail),
                  "estimate": value + float(tail)}
    gap = float(np.max(ratios ** m))
    if gap < np.finfo(np.float64).tiny:
        raise Overflow(f"the gap underflowed: {gap:.3g} at m = {m}, below "
                       f"the smallest normal double")
    bound = None
    if m >= 4:
        ratio = (lam - 1.0) / (lam + 1.0)
        bound = ratio ** (m - 2) * c_constant["estimate"]
    return {"gap": gap, "gap_bound": bound,
            "first_order_gap": float(np.max(ratios)),
            "c_constant": c_constant}


def test_check_is_the_model_quantities():
    # check's model fields equal, bit for bit, the reference arithmetic on
    # seeded draws; every fifth draw underflows the gap (as do some draws
    # with lambda near 1) and every fifth overflows the tail bound, and
    # those raise the same message
    rng = np.random.default_rng(79)
    messages = []
    for i in range(100):
        truncation = int(rng.integers(2, 20_000))
        m = int(rng.integers(1, 65))
        if i % 5 == 3:
            lam = float(rng.uniform(1.5, 4.0))
            m = int(rng.integers(1500, 4000))
        elif i % 5 == 4:
            lam = float(10.0 ** rng.uniform(155, 300))
        else:
            lam = float(1.0 + 10.0 ** rng.uniform(-6, 1))
        try:
            expected = reference_model_fields(lam, m, truncation)
        except Overflow as exc:
            with pytest.raises(Overflow) as raised:
                oscillator.check(lam, m, truncation)
            assert type(raised.value) is type(exc)
            assert str(raised.value) == str(exc)
            messages.append(str(exc))
            continue
        fields = oscillator.check(lam, m, truncation)
        assert {key: fields[key] for key in expected} == expected
    assert sum("gap underflowed" in text for text in messages) >= 20
    assert sum("tail bound" in text for text in messages) == 20
    # and nothing else: the grid checks that no input enters are tests
    assert set(fields) == {"lambda", "m", "truncation"} | set(expected)


def test_check_validates_truncation_then_lambda_then_m():
    with pytest.raises(ValueError, match="^truncation "):
        oscillator.check(0.5, 0, 1)
    with pytest.raises(ValueError, match="^lambda "):
        oscillator.check(0.5, 0, 2)
    with pytest.raises(ValueError, match="^m "):
        oscillator.check(2.0, 0, 2)
