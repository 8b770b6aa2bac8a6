"""Growth functions, good-scale evaluation, exponent fits and ensemble statistics.

Only arithmetic on measured numbers lives here; `pipeline` measures the
graphs (`scale_observables`, `check_good_scale`).

A growth function is R^exponent times a power of log(e+R), normalized to
1 at R = 1.  A radius R is a good scale at tolerance lam when the ball
volume sits within [v(R)/lam, lam v(R)], the resistance to the ball
complement is at least r(R)/lam, and every in-ball pointwise resistance
is at most lam r(d).  All three clauses relax as lam grows, so
membership is monotone in lam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import InvalidArgumentError
from .graph import check_int


def _log_lever_max() -> float:
    """max over R > 0 of R / ((e+R) log(e+R)).

    This is the lever arm of the log factor on the local log-log slope.
    With u = e + R the maximiser solves u = e (1 + log u).  The left side
    minus the right is convex and increasing past the root, so Newton's
    method from u = 10 falls monotonically onto it.
    """
    u = 10.0
    for _ in range(6):
        u -= (u - math.e * (1.0 + math.log(u))) / (1.0 - math.e / u)
    return (u - math.e) / (u * math.log(u))


_H_MAX = _log_lever_max()


@dataclass(frozen=True)
class GrowthFunction:
    """R^exponent * log(e+R)^log_power, normalized so the value at 1 is 1."""

    exponent: float
    log_power: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.exponent) and math.isfinite(self.log_power)):
            raise InvalidArgumentError("growth exponent and log_power must be finite")
        if not self.exponent > 0:
            raise InvalidArgumentError("growth exponent must be positive")
        if self.local_slope_bounds()[0] <= 0:
            raise InvalidArgumentError(
                "log_power too negative: growth would not be strictly increasing"
            )

    def __call__(self, radius: float) -> float:
        if not radius >= 0:  # NaN too
            raise InvalidArgumentError("radius must be nonnegative")
        if radius == 0:
            return 0.0
        scale = math.log(math.e + 1.0) ** -self.log_power
        return radius ** self.exponent * math.log(math.e + radius) ** self.log_power * scale

    def local_slope(self, radius: float) -> float:
        """d log v / d log R at the given radius."""
        return self.exponent + self.log_power * radius / (
            (math.e + radius) * math.log(math.e + radius)
        )

    def local_slope_bounds(self) -> tuple[float, float]:
        """Extremes of the local log-log slope over all radii (doubling exponents)."""
        swing = self.log_power * _H_MAX
        return (
            self.exponent + min(0.0, swing),
            self.exponent + max(0.0, swing),
        )


def displacement_scale(
    volume_growth: GrowthFunction, resistance_growth: GrowthFunction, n: float
) -> float:
    """Invert (v * r)(R) = n by bisection to 1e-10 relative accuracy."""
    if not n > 0:
        raise InvalidArgumentError("n must be positive")

    def product(R: float) -> float:
        return volume_growth(R) * resistance_growth(R)

    hi = 1.0
    while product(hi) < n:
        hi *= 2.0
        if hi > 2.0 ** 400:
            raise InvalidArgumentError("n too large to invert")
    lo = 0.0
    while hi - lo > 1e-10 * hi:
        mid = 0.5 * (lo + hi)
        if product(mid) < n:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# -- good-scale membership ---------------------------------------------------


@dataclass(frozen=True)
class ScaleObservables:
    """Tolerance-independent inputs to the good-scale test at one radius."""

    radius: int
    volume: float
    complement_resistance: float
    max_pointwise_ratio: float
    witness: int | None


@dataclass(frozen=True)
class GoodScaleReport:
    radius: int
    tolerance: float
    volume_ok: bool
    resistance_ok: bool
    pointwise_ok: bool
    observables: ScaleObservables

    @property
    def member(self) -> bool:
        return self.volume_ok and self.resistance_ok and self.pointwise_ok


def check_tolerance(tolerance: float) -> None:
    """Refuse a good-scale tolerance that is not a finite number of at least 1."""
    if not (tolerance >= 1 and math.isfinite(tolerance)):
        raise InvalidArgumentError(f"tolerance must be finite and at least 1, got {tolerance}")


def evaluate_good_scale(
    obs: ScaleObservables,
    tolerance: float,
    volume_growth: GrowthFunction,
    resistance_growth: GrowthFunction,
) -> GoodScaleReport:
    check_tolerance(tolerance)
    v = volume_growth(obs.radius)
    r = resistance_growth(obs.radius)
    return GoodScaleReport(
        radius=obs.radius,
        tolerance=float(tolerance),
        volume_ok=v / tolerance <= obs.volume <= v * tolerance,
        resistance_ok=obs.complement_resistance >= r / tolerance,
        pointwise_ok=obs.max_pointwise_ratio <= tolerance,
        observables=obs,
    )


# -- log-log fits -------------------------------------------------------------

# fewest points an exponent fit accepts
MIN_FIT_POINTS = 8


@dataclass(frozen=True)
class ExponentFit:
    value: float
    stderr: float
    window: tuple[float, float]
    n_points: int
    full_value: float
    full_stderr: float


def _ols_loglog(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float]:
    """Least-squares slope of log ys against log xs, and its standard error."""
    lx = np.log(xs)
    ly = np.log(ys)
    mx = lx.mean()
    sxx = float(np.sum((lx - mx) ** 2))
    if sxx == 0:
        raise InvalidArgumentError("fit needs at least two distinct abscissae")
    slope = float(np.sum((lx - mx) * (ly - ly.mean())) / sxx)
    intercept = float(ly.mean() - slope * mx)
    resid = ly - (intercept + slope * lx)
    dof = xs.size - 2
    stderr = float(np.sqrt(np.sum(resid**2) / dof / sxx)) if dof > 0 else 0.0
    return slope, stderr


def fit_loglog(xs: Sequence[float], ys: Sequence[float]) -> ExponentFit:
    """Least-squares slope on logs, full range and with the smallest decade dropped.

    The windowed slope uses only abscissae above ten times the smallest,
    falling back to the full range when that leaves fewer than four
    points.  At least MIN_FIT_POINTS points are needed; values must be
    positive and finite, and abscissae strictly increasing.
    """
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.size != y.size or x.size < MIN_FIT_POINTS:
        raise InvalidArgumentError(f"fit needs at least {MIN_FIT_POINTS} matched points")
    if not (np.all(x > 0) and np.all(np.isfinite(x)) and np.all(np.diff(x) > 0)):
        raise InvalidArgumentError("abscissae must be positive, finite and strictly increasing")
    if np.any(y <= 0) or not np.all(np.isfinite(y)):
        raise InvalidArgumentError(
            "fit values must be positive and finite (series may be truncation-contaminated)"
        )
    full_slope, full_stderr = _ols_loglog(x, y)
    keep = x >= 10.0 * x[0]
    if keep.sum() < 4:
        keep = np.ones_like(keep)
    slope, stderr = _ols_loglog(x[keep], y[keep])
    return ExponentFit(
        value=slope,
        stderr=stderr,
        window=(float(x[keep][0]), float(x[keep][-1])),
        n_points=int(keep.sum()),
        full_value=full_slope,
        full_stderr=full_stderr,
    )


def fit_spectral_dimension(ns: Sequence[float], p2ns: Sequence[float]) -> ExponentFit:
    """Spectral dimension: -2 times the slope of log p_2n against log n."""
    fit = fit_loglog(ns, p2ns)
    return replace(
        fit,
        value=-2.0 * fit.value,
        stderr=2.0 * fit.stderr,
        full_value=-2.0 * fit.full_value,
        full_stderr=2.0 * fit.full_stderr,
    )


# -- ensemble aggregation ------------------------------------------------------

BOOTSTRAP_RESAMPLES = 1000
BOOTSTRAP_LEVEL = 0.95


@dataclass(frozen=True)
class DecayFit:
    """Fitted polynomial decay of a failure-fraction curve."""

    rate: float
    lambdas: tuple[float, ...]
    fractions: tuple[float, ...]
    floored: bool


def failure_decay_fit(
    lambdas: Sequence[float], fractions: Sequence[float], ensemble_size: int
) -> DecayFit:
    """Fit -slope of log failure fraction against log tolerance.

    Zero counts fall below the resolution of the ensemble; the first zero
    entry is kept at the conventional floor 1/(2*ensemble) so the cliff
    into zero still informs the fit, and later zeros are dropped.  Each
    tolerance must pass `check_tolerance`.
    """
    lam = np.asarray(lambdas, dtype=float)
    frac = np.asarray(fractions, dtype=float)
    if lam.size != frac.size or lam.size < 2:
        raise InvalidArgumentError("need at least two (tolerance, fraction) pairs")
    if not np.all((frac >= 0) & (frac <= 1)):  # NaN too
        raise InvalidArgumentError("fractions must lie in [0, 1]")
    for lv in lam:
        check_tolerance(lv)
    floor = 1.0 / (2.0 * check_int(ensemble_size, "ensemble_size"))
    xs: list[float] = []
    ys: list[float] = []
    floored = False
    for lv, fv in zip(lam, frac):
        if fv > 0:
            xs.append(lv)
            ys.append(fv)
        else:
            xs.append(lv)
            ys.append(floor)
            floored = True
            break
    if len(xs) < 2:
        return DecayFit(math.inf, tuple(xs), tuple(ys), floored)
    slope, _ = _ols_loglog(np.asarray(xs), np.asarray(ys))
    return DecayFit(-slope, tuple(xs), tuple(ys), floored)


def tightness_table(
    thetas: Sequence[float],
    exit_ratios: np.ndarray,
    kernel_ratios: np.ndarray,
    displacements: np.ndarray,
    scales: np.ndarray,
) -> dict[str, list[float]]:
    """Worst-case-over-grid concentration fractions at each theta.

    exit_ratios and kernel_ratios hold per-graph observable/prediction
    ratios, one column per radius or time; displacements holds pooled
    per-trajectory distances with matching scale factors per column.
    Returns the columns `thetas`, `exit`, `kernel`, `displacement_upper`
    and `displacement_lower`, one entry per theta.  Every column fraction
    is monotone in theta, hence so is the min.
    """
    exit_ratios = np.atleast_2d(np.asarray(exit_ratios, dtype=float))
    kernel_ratios = np.atleast_2d(np.asarray(kernel_ratios, dtype=float))
    displacements = np.atleast_2d(np.asarray(displacements, dtype=float))
    scales = np.asarray(scales, dtype=float)
    if not all(theta >= 1 for theta in thetas):
        raise InvalidArgumentError("theta must be at least 1")
    thetas = [float(theta) for theta in thetas]

    def worst(inside) -> list[float]:
        return [float(inside(theta).mean(axis=0).min()) for theta in thetas]

    return {
        "thetas": thetas,
        "exit": worst(lambda t: (exit_ratios >= 1.0 / t) & (exit_ratios <= t)),
        "kernel": worst(lambda t: (kernel_ratios >= 1.0 / t) & (kernel_ratios <= t)),
        "displacement_upper": worst(lambda t: displacements / scales < t),
        "displacement_lower": worst(lambda t: (1.0 + displacements) / scales > 1.0 / t),
    }


def bootstrap_mean_ci(
    samples: np.ndarray, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column means with percentile bootstrap bands over the rows.

    BOOTSTRAP_RESAMPLES resamples give a central BOOTSTRAP_LEVEL band.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    n = samples.shape[0]
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, n, size=(BOOTSTRAP_RESAMPLES, n))
    means = samples[idx].mean(axis=1)
    tail = 100.0 * (1.0 - BOOTSTRAP_LEVEL) / 2.0
    lo = np.percentile(means, tail, axis=0)
    hi = np.percentile(means, 100.0 - tail, axis=0)
    return samples.mean(axis=0), lo, hi
