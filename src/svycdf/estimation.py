"""Weighted empirical CDFs, quantiles, the poverty rate and process paths.

The inverse-probability ("HT") empirical CDF puts mass 1/(N pi_i) on each
sampled response; its total mass is the population-size estimate divided
by N and need not be one.  The self-normalized ("HJ") variant divides by
that estimate instead of N and always has total mass one.  Both are
right-continuous step functions; quantiles use the generalized inverse
F^{-1}(a) = inf{t : F(t) >= a}.

One sorted sample serves both modes.  :func:`weighted_sample` checks a
draw once, sorts its responses once and computes 1/pi and the
population-size estimate once; each mode's CDF is then one cumulative sum
in sorted order (tied responses are merged by
:meth:`WeightedStepFunction.from_weighted_points`).
:func:`poverty_plugin` reads the poverty rate, the three interpolated
quantile levels behind it and its bandwidth, and the two kernel density
values from that one CDF per mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from . import population as pop
from .errors import (
    DegenerateBandwidthError,
    EstimationError,
    ParameterError,
    QuantileUndefinedError,
    ZeroDensityError,
)

_TIE_EPS = 1e-12
_SQRT_2PI = float(np.sqrt(2.0 * np.pi))

ProcessKind = Literal["HT_vs_FN", "HT_vs_F", "HJ_vs_FN", "HJ_vs_F", "G_pi", "Y_N"]


@dataclass(frozen=True, eq=False)
class WeightedStepFunction:
    """Right-continuous nondecreasing step function.

    ``locations`` are the distinct jump points in increasing order and
    ``cumulative[k]`` is the total mass of all jumps at or before
    ``locations[k]``; the last entry equals ``total_mass``.
    """

    locations: np.ndarray
    cumulative: np.ndarray
    total_mass: float

    @classmethod
    def from_weighted_points(cls, values, weights, total_mass: float | None = None):
        """Build from (possibly tied) points; ties are merged into one jump.

        ``total_mass`` optionally pins the final cumulative value exactly,
        shielding equality tests from cumulative-sum roundoff.
        """
        values = np.asarray(values, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if values.size == 0:
            raise EstimationError("a step function needs at least one jump")
        _check_weights(values, weights)
        return cls._merged(values, weights, total_mass)

    @classmethod
    def _merged(cls, values, weights, total_mass):
        """Merge tied values with ``np.unique``, then accumulate."""
        locs, inverse = np.unique(values, return_inverse=True)
        merged = np.bincount(inverse, weights=weights, minlength=locs.size)
        return cls._accumulate(locs, merged, weights, total_mass)

    @classmethod
    def _accumulate(cls, locations, jumps, weights, total_mass):
        """Running sum of ``jumps`` (one per location, in location order).

        The last entry is pinned to ``total_mass``, or by default to
        ``weights.sum()`` taken in the order the weights were given.
        """
        cumulative = jumps.cumsum()
        total = float(weights.sum()) if total_mass is None else float(total_mass)
        cumulative[-1] = total
        return cls(locations=locations, cumulative=cumulative, total_mass=total)

    def evaluate(self, t):
        """Value at t (scalar or array): mass of all jumps <= t."""
        t_arr = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.locations, t_arr, side="right")
        padded = np.concatenate([[0.0], self.cumulative])
        out = padded[idx]
        return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out

    __call__ = evaluate


def _check_weights(values: np.ndarray, weights: np.ndarray) -> None:
    if values.shape != weights.shape:
        raise ParameterError("values and weights must have equal length")
    if np.any(weights < 0.0):
        raise ParameterError("weights must be nonnegative")


def _require_values(draw):
    if draw.y_included is None:
        raise EstimationError("draw carries no response values; use draw(..., y=...) "
                              "or SampleDraw.with_values")
    if draw.included.size == 0:
        raise EstimationError("empty sample")
    if (draw.pi_included <= 0.0).any():
        raise EstimationError("nonpositive inclusion probability among sampled units")


@dataclass(frozen=True, eq=False)
class WeightedSample:
    """One draw, checked, sorted and inverse-weighted once for both modes.

    ``y``, ``pi`` and ``inv = 1/pi`` keep the sample order, ``order``
    sorts ``y`` and ``sorted_y`` is ``y[order]``.  ``has_ties`` is set when
    some responses are equal (or NaN); their jumps are then merged as in
    :meth:`WeightedStepFunction.from_weighted_points`.  ``n_hat`` is the
    population-size estimate.
    """

    N: int
    y: np.ndarray
    pi: np.ndarray
    inv: np.ndarray
    n_hat: float
    order: np.ndarray
    sorted_y: np.ndarray
    has_ties: bool

    def ecdf(self, mode: Literal["HT", "HJ"]) -> WeightedStepFunction:
        """The mode's weighted CDF: jumps 1/(N pi) ("HT", total mass their
        sum) or (1/pi)/n_hat ("HJ", total mass exactly one)."""
        if mode == "HT":
            weights, total_mass = 1.0 / (self.N * self.pi), None
        elif mode == "HJ":
            weights, total_mass = self.inv / self.n_hat, 1.0
        else:
            raise ParameterError(f"mode must be 'HT' or 'HJ', got {mode!r}")
        _check_weights(self.y, weights)
        if self.has_ties:
            return WeightedStepFunction._merged(self.y, weights, total_mass)
        return WeightedStepFunction._accumulate(self.sorted_y, weights[self.order],
                                                weights, total_mass)

    def density(self, t: np.ndarray, mode: Literal["HT", "HJ"],
                bandwidth: float) -> np.ndarray:
        """Weighted Gaussian kernel density at the 1-d points ``t``; the
        kernel sum runs over the responses in sample order."""
        if bandwidth <= 0.0:
            raise ParameterError("bandwidth must be positive")
        denom = float(self.N) if mode == "HT" else self.n_hat
        z = (t[:, None] - self.y[None, :]) / bandwidth
        kernel = np.exp(-0.5 * z * z) / _SQRT_2PI
        return kernel @ self.inv / (denom * bandwidth)


def weighted_sample(draw, N: int) -> WeightedSample:
    """Check a draw's values once, then sort and inverse-weight them once.

    Raises :class:`EstimationError` for a draw without values, an empty
    sample or a nonpositive inclusion probability.
    """
    _require_values(draw)
    y = np.asarray(draw.y_included, dtype=float)
    pi = draw.pi_included
    inv = 1.0 / pi
    order = np.argsort(y)
    sorted_y = y[order]
    # np.unique merges equal values and NaNs (which sort last)
    has_ties = bool(np.isnan(sorted_y[-1]) or (sorted_y[1:] == sorted_y[:-1]).any())
    return WeightedSample(N=N, y=y, pi=pi, inv=inv, n_hat=float(inv.sum()),
                          order=order, sorted_y=sorted_y, has_ties=has_ties)


def ht_ecdf(draw, N: int) -> WeightedStepFunction:
    """Inverse-probability weighted empirical CDF normalized by N.

    Total mass equals the population-size estimate over N, typically
    close to but not exactly one.
    """
    return weighted_sample(draw, N).ecdf("HT")


def hajek_ecdf(draw, N: int) -> WeightedStepFunction:
    """Self-normalized weighted empirical CDF; total mass exactly one."""
    return weighted_sample(draw, N).ecdf("HJ")


def weighted_quantile(f: WeightedStepFunction, alpha: float) -> float:
    """Smallest jump location t with f(t) >= alpha.

    Raises :class:`QuantileUndefinedError` when the requested level
    exceeds the total mass (possible for the unnormalized CDF); ties at
    floating resolution resolve downward.
    """
    if not 0.0 < alpha <= 1.0:
        raise ParameterError(f"quantile level must lie in (0, 1], got {alpha}")
    if alpha > f.total_mass + _TIE_EPS:
        raise QuantileUndefinedError(
            f"level {alpha} exceeds total mass {f.total_mass:.12g}")
    idx = int(np.searchsorted(f.cumulative, alpha - _TIE_EPS, side="left"))
    idx = min(idx, f.locations.size - 1)
    return float(f.locations[idx])


def interpolated_weighted_quantile(f: WeightedStepFunction, alpha: float,
                                   n_points: int) -> float:
    """Weighted quantile with sample-scale linear interpolation.

    Mimics the interpolating weighted-quantile rule of common statistical
    packages: weights are normalized to sum to ``n_points`` (the number of
    sampled units behind ``f``), the pseudo-order position
    ``h = 1 + (n_points - 1) alpha`` is bracketed by the step inverse at
    ``floor(h)`` and ``floor(h) + 1``, and the bracket is combined
    linearly.  For equal weights this is the usual type-7 rule.  Mass
    functions not summing to one are handled through the level: the
    crossing of level ``alpha`` happens where the normalized function
    crosses ``alpha / total_mass``.  Unlike :func:`weighted_quantile`,
    a level beyond the total mass saturates at the largest jump (the
    clamped extrapolation of the reference interpolation machinery)
    instead of raising.
    """
    return _interpolated_quantiles(f, (alpha,), n_points)[0]


def _interpolated_quantiles(f: WeightedStepFunction, levels: tuple,
                            n_points: int) -> list[float]:
    """:func:`interpolated_weighted_quantile` at several levels, sharing
    one array of cumulative positions and one search for all brackets."""
    for alpha in levels:
        if not 0.0 < alpha <= 1.0:
            raise ParameterError(f"quantile level must lie in (0, 1], got {alpha}")
    if n_points < 1:
        raise ParameterError("n_points must be at least 1")
    pos = (f.cumulative / f.total_mass) * n_points
    tie = _TIE_EPS * n_points
    fracs, targets = [], []
    for alpha in levels:
        h = 1.0 + (n_points - 1.0) * min(alpha / f.total_mass, 1.0)
        low = min(float(math.floor(h)), float(n_points))
        fracs.append(h - low)
        targets += [low - tie, min(low + 1.0, float(n_points)) - tie]
    idx = np.minimum(pos.searchsorted(targets, side="left"), f.locations.size - 1)
    q = f.locations[idx].tolist()
    idx = idx.tolist()
    return [q[2 * k] if idx[2 * k] == idx[2 * k + 1]
            else (1.0 - frac) * q[2 * k] + frac * q[2 * k + 1]
            for k, frac in enumerate(fracs)]


def poverty_rate(f: WeightedStepFunction, alpha: float, beta: float) -> float:
    """f evaluated at beta times its alpha-quantile."""
    if not 0.0 < beta <= 1.0:
        raise ParameterError(f"scale beta must lie in (0, 1], got {beta}")
    q = weighted_quantile(f, alpha)
    return float(f.evaluate(beta * q))


def hadamard_direction_value(density_at_quantile: float, density_at_scaled: float,
                             h_at_quantile: float, h_at_scaled: float,
                             beta: float) -> float:
    """Directional derivative of the poverty-rate functional.

    For a perturbation direction h, the derivative at a distribution with
    density f, quantile q and scaled point beta*q equals
    ``-beta (f(beta q) / f(q)) h(q) + h(beta q)``.
    """
    if density_at_quantile <= 0.0:
        raise ZeroDensityError("density at the quantile must be positive")
    return (-beta * (density_at_scaled / density_at_quantile) * h_at_quantile
            + h_at_scaled)


def _bandwidth(iqr: float, n_s: int) -> float | None:
    """Automatic bandwidth 0.79 R n_s^{-1/5}; None when R is zero."""
    if iqr <= 0.0:
        return None
    return 0.79 * iqr * n_s ** (-0.2)


def _step_bandwidth(sample: WeightedSample, f: WeightedStepFunction) -> float | None:
    n_s = sample.y.size
    if n_s < 2:
        raise EstimationError("automatic bandwidth needs at least two sampled units")
    return _bandwidth(weighted_quantile(f, 0.75) - weighted_quantile(f, 0.25), n_s)


def kde_density(draw, N: int, t, mode: Literal["HT", "HJ"] = "HJ",
                bandwidth: float | None = None):
    """Weighted Gaussian kernel density estimate at t (scalar or array).

    Weight 1/pi_i per sampled unit, normalized by N ("HT") or by the
    population-size estimate ("HJ").  The automatic bandwidth is
    0.79 R n_s^{-1/5} with R the weighted interquartile range of the
    matching empirical CDF; pass ``bandwidth`` to override (test hook and
    escape hatch for degenerate samples).
    """
    sample = weighted_sample(draw, N)
    if mode not in ("HT", "HJ"):
        raise ParameterError(f"mode must be 'HT' or 'HJ', got {mode!r}")
    if bandwidth is None:
        bandwidth = _step_bandwidth(sample, sample.ecdf(mode))
        if bandwidth is None:
            raise DegenerateBandwidthError("weighted interquartile range is zero")
    t_arr = np.asarray(t, dtype=float)
    dens = sample.density(np.atleast_1d(t_arr), mode, bandwidth)
    return float(dens[0]) if np.isscalar(t) or t_arr.ndim == 0 else dens


def poverty_plugin(sample: WeightedSample, mode: Literal["HT", "HJ"], alpha: float,
                   beta: float,
                   quantile_method: Literal["step", "interpolated"] = "interpolated"
                   ) -> tuple[float, tuple[float, float] | None]:
    """Empirical ingredients of the plug-in poverty-rate variance, one mode.

    Returns ``(phi, densities)``: the poverty-rate estimate F(beta q) at
    the estimated alpha-quantile q, and the kernel density estimates at q
    and beta q, or None when the weighted interquartile range behind the
    automatic bandwidth is zero.  The mode's CDF is built once.
    ``quantile_method`` selects the generalized-inverse quantile ("step")
    or the interpolating rule of the simulation protocol ("interpolated",
    all three levels alpha, 0.25 and 0.75 from one array of cumulative
    positions); the bandwidth follows the same rule through the
    interquartile range.
    """
    f = sample.ecdf(mode)
    if quantile_method == "interpolated":
        n_s = sample.y.size
        qhat, q25, q75 = _interpolated_quantiles(f, (alpha, 0.25, 0.75), n_s)
        bandwidth = _bandwidth(q75 - q25, n_s)
    elif quantile_method == "step":
        qhat = weighted_quantile(f, alpha)
        bandwidth = _step_bandwidth(sample, f)
    else:
        raise ParameterError(f"unknown quantile method {quantile_method!r}")
    phi = float(f.evaluate(beta * qhat))
    if bandwidth is None:
        return phi, None
    f_q = sample.density(np.array([qhat]), mode, bandwidth)
    f_bq = sample.density(np.array([beta * qhat]), mode, bandwidth)
    return phi, (float(f_q[0]), float(f_bq[0]))


@dataclass(frozen=True, eq=False)
class ProcessPath:
    """A standardized empirical process evaluated on a grid."""

    grid: np.ndarray
    values: np.ndarray


def empirical_cdf_values(y: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Unweighted empirical CDF of y on the grid."""
    y_sorted = np.sort(np.asarray(y, dtype=float))
    return np.searchsorted(y_sorted, grid, side="right") / y_sorted.size


def process_path(draw, population: pop.Population, grid, which: ProcessKind,
                 law: pop.SuperPopulationLaw | None = None) -> ProcessPath:
    """Evaluate a sqrt(n)-standardized estimation process on a grid.

    ``which`` selects the estimator and centering: the inverse-probability
    or self-normalized CDF against the population empirical CDF
    (``*_vs_FN``) or against the model CDF (``*_vs_F``), the raw weighted
    centered sum ``G_pi`` (sqrt(n)/N sum (xi_i/pi_i)(1{Y_i<=t} - F(t))), or
    the decomposition term ``Y_N`` (same with weights xi_i/pi_i - 1).  The
    standardization uses the design-expected size, not the realized one.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or np.any(np.diff(grid) < 0):
        raise ParameterError("grid must be a sorted 1-d array")
    needs_law = which in ("HT_vs_F", "HJ_vs_F", "G_pi", "Y_N")
    if needs_law and law is None:
        raise ParameterError(f"process {which!r} requires the super-population law")
    root_n = np.sqrt(draw.expected_n)
    N = population.N

    if which in ("HT_vs_FN", "HT_vs_F", "G_pi", "Y_N"):
        cdf_vals = ht_ecdf(draw, N).evaluate(grid)
    else:
        cdf_vals = hajek_ecdf(draw, N).evaluate(grid)

    if which == "HT_vs_FN":
        vals = root_n * (cdf_vals - empirical_cdf_values(population.y, grid))
    elif which == "HT_vs_F":
        vals = root_n * (cdf_vals - pop.true_cdf(law, grid))
    elif which == "HJ_vs_FN":
        vals = root_n * (cdf_vals - empirical_cdf_values(population.y, grid))
    elif which == "HJ_vs_F":
        vals = root_n * (cdf_vals - pop.true_cdf(law, grid))
    elif which == "G_pi":
        nhat_over_n = draw.n_hat() / N
        vals = root_n * (cdf_vals - nhat_over_n * pop.true_cdf(law, grid))
    elif which == "Y_N":
        f_vals = pop.true_cdf(law, grid)
        fn_vals = empirical_cdf_values(population.y, grid)
        vals = root_n * (cdf_vals - fn_vals) - root_n * (draw.n_hat() / N - 1.0) * f_vals
    else:
        raise ParameterError(f"unknown process kind {which!r}")
    return ProcessPath(grid=grid, values=vals)
