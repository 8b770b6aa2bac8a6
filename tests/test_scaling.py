import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resistive_walk.errors import InvalidArgumentError
from resistive_walk.generate import fixture
from resistive_walk.pipeline import check_good_scale
from resistive_walk.scaling import (
    _H_MAX,
    GrowthFunction,
    ScaleObservables,
    bootstrap_mean_ci,
    displacement_scale,
    evaluate_good_scale,
    failure_decay_fit,
    fit_loglog,
    fit_spectral_dimension,
    tightness_table,
)


def test_growth_is_normalized():
    v = GrowthFunction(1.5, log_power=2.0)
    assert v(1.0) == pytest.approx(1.0)
    assert v(0.0) == 0.0


def test_growth_pure_power():
    v = GrowthFunction(2.0)
    assert v(3.0) == pytest.approx(9.0)


def test_growth_is_increasing():
    v = GrowthFunction(1.0, log_power=-1.0)
    xs = np.linspace(0.1, 200.0, 500)
    vals = [v(x) for x in xs]
    assert np.all(np.diff(vals) > 0)


def test_growth_rejects_bad_radius():
    v = GrowthFunction(1.0)
    for radius in (-1.0, float("nan"), float("-inf")):
        with pytest.raises(InvalidArgumentError, match="radius must be nonnegative"):
            v(radius)


def test_growth_rejects_bad_exponent():
    for exponent in (0.0, float("inf"), float("nan")):
        with pytest.raises(InvalidArgumentError, match="exponent"):
            GrowthFunction(exponent)


def test_growth_rejects_overpowering_log():
    for log_power in (-1.0, float("-inf"), float("inf"), float("nan")):
        with pytest.raises(InvalidArgumentError, match="log_power"):
            GrowthFunction(0.2, log_power=log_power)


def test_local_slope_bounds_bracket_local_slope():
    v = GrowthFunction(1.0, log_power=-1.0)
    lo, hi = v.local_slope_bounds()
    for radius in (0.5, 1.0, 7.0, 100.0, 1e6):
        assert lo - 1e-12 <= v.local_slope(radius) <= hi + 1e-12


def test_log_lever_max_matches_numerical_maximum():
    from scipy.optimize import minimize_scalar

    best = minimize_scalar(
        lambda R: -R / ((math.e + R) * math.log(math.e + R)),
        bounds=(0.5, 50.0),
        method="bounded",
    )
    assert _H_MAX == pytest.approx(-best.fun, rel=1e-12)


def test_displacement_scale_square_root():
    v = GrowthFunction(1.0)
    assert displacement_scale(v, v, 16.0) == pytest.approx(4.0, rel=1e-8)


@given(
    st.floats(min_value=0.5, max_value=3.0),
    st.floats(min_value=0.0, max_value=2.0),
    st.floats(min_value=1.0, max_value=1e6),
)
@settings(max_examples=50, deadline=None)
def test_displacement_scale_inverts_growth(exponent, log_power, radius):
    v = GrowthFunction(exponent, log_power)
    r = GrowthFunction(1.0)
    n = v(radius) * r(radius)
    assert displacement_scale(v, r, n) == pytest.approx(radius, rel=1e-7)


def test_displacement_scale_rejects_nonpositive():
    v = GrowthFunction(1.0)
    with pytest.raises(InvalidArgumentError):
        displacement_scale(v, v, 0.0)


# -- good scales ---------------------------------------------------------


def test_line_membership_at_radius_four():
    g = fixture("line", 64)
    v = GrowthFunction(1.0)
    # V(4) = 14, R_eff = 2, pointwise ratio 1
    rep = check_good_scale(g, 4, 4.0, v, v)
    assert rep.observables.volume == pytest.approx(14.0)
    assert rep.observables.complement_resistance == pytest.approx(2.0, rel=1e-9)
    assert rep.observables.max_pointwise_ratio == pytest.approx(1.0, rel=1e-9)
    assert rep.member
    tight = check_good_scale(g, 4, 2.0, v, v)
    assert not tight.volume_ok
    assert not tight.member


def test_membership_is_monotone_in_tolerance():
    obs = ScaleObservables(8, 30.0, 2.5, 3.0, witness=5)
    v = GrowthFunction(1.0)
    previous = False
    for lam in (1.0, 2.0, 4.0, 8.0, 16.0):
        member = evaluate_good_scale(obs, lam, v, v).member
        assert member >= previous
        previous = member


def test_tolerance_below_one_rejected():
    obs = ScaleObservables(8, 30.0, 2.5, 3.0, witness=None)
    v = GrowthFunction(1.0)
    for tolerance in (0.5, float("inf"), float("nan")):
        with pytest.raises(InvalidArgumentError, match="tolerance"):
            evaluate_good_scale(obs, tolerance, v, v)


# -- fits ------------------------------------------------------------------


def test_fit_recovers_exact_power_law():
    xs = [2.0**k for k in range(10)]
    ys = [3.0 * x**1.7 for x in xs]
    fit = fit_loglog(xs, ys)
    assert fit.value == pytest.approx(1.7, abs=1e-12)
    assert fit.stderr == pytest.approx(0.0, abs=1e-10)
    assert fit.window[0] >= 10 * xs[0]


@given(st.floats(min_value=-2.0, max_value=2.0), st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=40, deadline=None)
def test_fit_is_scale_equivariant(slope, prefactor):
    xs = np.asarray([2.0**k for k in range(8)])
    ys = prefactor * xs**slope
    fit = fit_loglog(xs, ys)
    assert fit.full_value == pytest.approx(slope, abs=1e-9)


def test_fit_window_falls_back_when_sparse():
    xs = [1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0]
    ys = [x**2 for x in xs]
    fit = fit_loglog(xs, ys)
    assert fit.n_points == len(xs)  # window of >= 10x leaves < 4 points


def test_fit_rejects_nonpositive_values():
    with pytest.raises(InvalidArgumentError, match="positive"):
        fit_loglog([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0], [1.0] * 7 + [0.0])
    with pytest.raises(InvalidArgumentError, match="increasing"):
        fit_loglog([2.0, 1.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0], [1.0] * 8)
    # non-finite abscissae are refused, not fitted into NaN slopes
    for bad in (float("nan"), float("inf")):
        with pytest.raises(InvalidArgumentError, match="finite"):
            fit_loglog([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, bad], [1.0] * 8)
        with pytest.raises(InvalidArgumentError, match="finite"):
            fit_loglog([bad, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0], [1.0] * 8)


def test_spectral_dimension_of_diffusive_kernel():
    ns = [float(2**k) for k in range(4, 14)]
    p2n = [0.3 / math.sqrt(n) for n in ns]
    fit = fit_spectral_dimension(ns, p2n)
    assert fit.value == pytest.approx(1.0, abs=1e-9)


def test_displacement_exponent_needs_enough_points():
    with pytest.raises(InvalidArgumentError, match="at least 8"):
        fit_loglog([1.0, 2.0, 4.0], [1.0, 1.5, 2.1])


# -- ensemble aggregation ----------------------------------------------------


def test_failure_decay_of_exact_halving():
    lams = [2.0, 4.0, 8.0, 16.0]
    fractions = [1.0, 0.5, 0.25, 0.125]
    fit = failure_decay_fit(lams, fractions, ensemble_size=64)
    assert fit.rate == pytest.approx(1.0, abs=1e-12)
    assert not fit.floored


def test_failure_decay_floors_first_zero():
    fit = failure_decay_fit([2.0, 4.0, 8.0, 16.0], [0.5, 0.25, 0.0, 0.0], 8)
    assert fit.floored
    assert fit.lambdas == (2.0, 4.0, 8.0)
    assert fit.fractions[-1] == pytest.approx(1.0 / 16.0)
    assert fit.rate > 0


def test_failure_decay_degenerate_cases():
    fit = failure_decay_fit([2.0, 4.0], [0.0, 0.0], 8)
    assert math.isinf(fit.rate)
    with pytest.raises(InvalidArgumentError):
        failure_decay_fit([2.0], [0.5], 8)
    with pytest.raises(InvalidArgumentError):
        failure_decay_fit([2.0, 4.0], [0.5, 1.5], 8)
    # a NaN fraction is refused, not counted as zero and floored
    with pytest.raises(InvalidArgumentError, match="fractions"):
        failure_decay_fit([2.0, 4.0, 8.0], [0.5, float("nan"), 0.0], 8)
    # each tolerance goes through the one tolerance rule
    for bad in (float("nan"), float("inf"), 0.5):
        with pytest.raises(InvalidArgumentError, match="tolerance must be finite"):
            failure_decay_fit([2.0, bad], [0.5, 0.25], 8)
    for size in (0, -3, 2.5):
        with pytest.raises(InvalidArgumentError, match="ensemble_size"):
            failure_decay_fit([2.0, 4.0], [0.5, 0.0], size)


def test_tightness_fractions_are_monotone_in_theta():
    rng = np.random.default_rng(0)
    exit_ratios = rng.lognormal(0.0, 0.5, size=(40, 3))
    kernel_ratios = rng.lognormal(0.0, 0.5, size=(40, 4))
    disp = rng.integers(0, 30, size=(200, 4)).astype(float)
    scales = np.asarray([2.0, 4.0, 8.0, 16.0])
    table = tightness_table([1.0, 2.0, 4.0, 8.0], exit_ratios, kernel_ratios, disp, scales)
    assert table["thetas"] == [1.0, 2.0, 4.0, 8.0]
    for column in ("exit", "kernel", "displacement_upper", "displacement_lower"):
        assert table[column] == sorted(table[column])


def test_tightness_is_worst_column():
    # first column always inside the band, second never
    exit_ratios = np.column_stack([np.ones(10), np.full(10, 100.0)])
    table = tightness_table(
        [2.0], exit_ratios, np.ones((10, 1)), np.ones((10, 1)), np.asarray([1.0])
    )
    assert table["exit"] == [0.0]
    assert table["kernel"] == [1.0]


def test_tightness_rejects_theta_below_one():
    with pytest.raises(InvalidArgumentError, match="theta"):
        tightness_table(
            [0.5], np.ones((2, 1)), np.ones((2, 1)), np.ones((2, 1)), np.asarray([1.0])
        )


def test_bootstrap_is_deterministic_and_centered():
    rng = np.random.default_rng(1)
    samples = rng.normal(5.0, 1.0, size=(200, 2))
    mean1, lo1, hi1 = bootstrap_mean_ci(samples, seed=42)
    mean2, lo2, hi2 = bootstrap_mean_ci(samples, seed=42)
    assert np.array_equal(mean1, mean2)
    assert np.array_equal(lo1, lo2) and np.array_equal(hi1, hi2)
    assert mean1 == pytest.approx(samples.mean(axis=0))
    assert np.all(lo1 < mean1) and np.all(mean1 < hi1)
    _, lo3, _ = bootstrap_mean_ci(samples, seed=43)
    assert not np.array_equal(lo1, lo3)
