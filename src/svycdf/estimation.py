"""Weighted empirical CDFs, quantiles, the poverty rate and process paths.

The inverse-probability ("HT") empirical CDF puts mass 1/(N pi_i) on each
sampled response; its total mass is the population-size estimate divided
by N and need not be one.  The self-normalized ("HJ") variant divides by
that estimate instead of N and always has total mass one.  Both are
right-continuous step functions; quantiles use the generalized inverse
F^{-1}(a) = inf{t : F(t) >= a}.

Draws are processed in batches.  :func:`_weighted_cdfs` checks a batch,
pads its responses to one (R, n_max) block, sorts the block once and
builds both modes' CDFs with one cumulative sum per mode, equal responses
merged into one jump as :meth:`WeightedStepFunction.from_weighted_points`
merges them.  The poverty kernel (:func:`poverty_batch`) and the process
paths (:func:`process_paths`) read all rows at once: quantile brackets and
CDF values are counts of comparisons, and the kernel densities take one
``exp`` over the block.  Sums whose rounding depends on a row's length run
on the row's own entries, so a draw gets the same bits in any batch; the
one-draw functions run on a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, get_args

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
MODES = ("HT", "HJ")

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
        """Build from (possibly tied) points; ties are merged into one jump
        (``np.unique``, their weights added in the order given).

        ``total_mass`` optionally pins the final cumulative value exactly,
        shielding equality tests from cumulative-sum roundoff; by default
        the last entry is ``weights.sum()`` in the order given.
        """
        values = np.asarray(values, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if values.size == 0:
            raise EstimationError("a step function needs at least one jump")
        if values.shape != weights.shape:
            raise ParameterError("values and weights must have equal length")
        if np.any(weights < 0.0):
            raise ParameterError("weights must be nonnegative")
        locs, inverse = np.unique(values, return_inverse=True)
        cumulative = np.bincount(inverse, weights=weights, minlength=locs.size).cumsum()
        total = float(weights.sum()) if total_mass is None else float(total_mass)
        cumulative[-1] = total
        return cls(locations=locs, cumulative=cumulative, total_mass=total)

    def evaluate(self, t):
        """Value at t (scalar or array): mass of all jumps <= t."""
        t_arr = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.locations, t_arr, side="right")
        padded = np.concatenate([[0.0], self.cumulative])
        out = padded[idx]
        return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out

    __call__ = evaluate


def _require_values(draw):
    if draw.y_included is None:
        raise EstimationError("draw carries no response values; use draw(..., y=...) "
                              "or SampleDraw.with_values")
    if draw.included.size == 0:
        raise EstimationError("empty sample")
    if not (draw.pi_included.min() > 0.0 and draw.pi_included.max() <= 1.0):   # NaN fails
        raise EstimationError("inclusion probability outside (0, 1] among sampled units")


def _row_groups(sizes: np.ndarray) -> list:
    """``(n, rows)`` for each distinct row length n, ``rows`` indexing the
    rows of that length (a slice where they are consecutive, which indexes
    a view)."""
    groups = []
    for n in np.unique(sizes).tolist():
        rows = np.flatnonzero(sizes == n)
        consecutive = rows[-1] - rows[0] == rows.size - 1
        groups.append((n, slice(rows[0], rows[-1] + 1) if consecutive else rows))
    return groups


@dataclass(frozen=True, eq=False)
class _Cdfs:
    """Both modes' weighted CDFs of R draws padded to (R, L).

    ``y`` (+inf padding) and ``inv = 1/pi`` (zero padding) keep the sample
    order; ``sizes`` are the row lengths, ``groups`` their
    :func:`_row_groups` and ``n_hat`` the population-size estimates.  Row
    r of mode k (``MODES[k]``) jumps at the ``count[r]`` sorted distinct
    responses ``loc[r]`` (+inf or NaN padding) with running sums ``cum[k, r]``
    (+inf padding) ending at ``total[k, r]``: 1/(N pi) and their sum for
    "HT", (1/pi)/n_hat and exactly one for "HJ".
    """

    y: np.ndarray
    inv: np.ndarray
    sizes: np.ndarray
    groups: list
    n_hat: np.ndarray
    loc: np.ndarray
    cum: np.ndarray
    total: np.ndarray
    count: np.ndarray

    def ecdf(self, r: int, k: int) -> WeightedStepFunction:
        c = self.count[r]
        return WeightedStepFunction(locations=self.loc[r, :c], cumulative=self.cum[k, r, :c],
                                    total_mass=float(self.total[k, r]))


def _weighted_cdfs(draws, N: int) -> tuple[_Cdfs, dict]:
    """Check a batch of draws and build both modes' CDFs of every draw.

    A draw without values, empty, or with an inclusion probability outside
    (0, 1] gets a placeholder row and an entry ``row: EstimationError`` in
    the returned dict.
    """
    if N < 1:
        raise ParameterError(f"population size must be at least 1, got {N}")
    errors, ys, pis = {}, [], []
    for j, draw in enumerate(draws):
        try:
            _require_values(draw)
            ys.append(np.asarray(draw.y_included, dtype=float))
            pis.append(draw.pi_included)
        except EstimationError as exc:
            errors[j] = exc
            ys.append(np.zeros(1))
            pis.append(np.ones(1))
    sizes = np.array([y.size for y in ys])
    R, L = sizes.size, sizes.max()
    pad = np.arange(L) >= sizes[:, None]
    y, inv = np.full((R, L), np.inf), np.full((R, L), np.inf)
    y[~pad], inv[~pad] = np.concatenate(ys), np.concatenate(pis)   # padding weighs 0
    weights = np.empty((2, R, L))
    np.divide(1.0, np.multiply(N, inv, out=weights[0]), out=weights[0])   # 1/(N pi)
    np.divide(1.0, inv, out=inv)
    groups = _row_groups(sizes)
    total, n_hat = np.ones((2, R)), np.empty(R)
    for n, rows in groups:
        # pairwise sums, each over the row's own n entries
        total[0, rows] = weights[0, rows, :n].sum(axis=1)
        n_hat[rows] = inv[rows, :n].sum(axis=1)
    np.divide(inv, n_hat[:, None], out=weights[1])

    order = np.argsort(y, axis=1)
    loc = np.take_along_axis(y, order, axis=1)
    cum = np.take_along_axis(weights, order[None], axis=2)
    np.cumsum(cum, axis=2, out=cum)
    count = sizes.copy()
    # tied responses (NaNs, which sort after the padding, too) merge into
    # one jump per row, as WeightedStepFunction.from_weighted_points merges them
    ties = ((loc[:, 1:] == loc[:, :-1]) & ~pad[:, 1:]).any(axis=1) | np.isnan(y).any(axis=1)
    for r in np.flatnonzero(ties).tolist():
        locs, inverse = np.unique(y[r, :sizes[r]], return_inverse=True)
        count[r] = locs.size
        loc[r, :locs.size], loc[r, locs.size:] = locs, np.nan
        for k in range(2):
            cum[k, r, :locs.size] = np.bincount(inverse, weights=weights[k, r, :sizes[r]],
                                                minlength=locs.size).cumsum()
    cum[:, np.arange(L) >= count[:, None]] = np.inf
    cum[:, np.arange(R), count - 1] = total
    return _Cdfs(y=y, inv=inv, sizes=sizes, groups=groups, n_hat=n_hat, loc=loc, cum=cum,
                 total=total, count=count), errors


def _one_draw(draw, N: int) -> _Cdfs:
    cdfs, errors = _weighted_cdfs([draw], N)
    if errors:
        raise errors[0]
    return cdfs


def ht_ecdf(draw, N: int) -> WeightedStepFunction:
    """Inverse-probability weighted empirical CDF normalized by N.

    Total mass equals the population-size estimate over N, typically
    close to but not exactly one.  Raises :class:`EstimationError` for a
    draw without values, an empty sample or an inclusion probability
    outside (0, 1].
    """
    return _one_draw(draw, N).ecdf(0, 0)


def hajek_ecdf(draw, N: int) -> WeightedStepFunction:
    """Self-normalized weighted empirical CDF; total mass exactly one."""
    return _one_draw(draw, N).ecdf(0, 1)


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
    instead of raising, and a function without mass has no quantile.
    """
    if not 0.0 < alpha <= 1.0:
        raise ParameterError(f"quantile level must lie in (0, 1], got {alpha}")
    if n_points < 1:
        raise ParameterError("n_points must be at least 1")
    if not f.total_mass > 0.0:
        raise QuantileUndefinedError("a step function without mass has no quantile")
    q = _interpolated_quantiles(f.locations[None], f.cumulative[None],
                                np.array([f.total_mass]), np.array([f.locations.size]),
                                np.array([float(n_points)]), (alpha,))
    return float(q[0, 0])


def _interpolated_quantiles(loc, cum, total, count, n_points, levels) -> np.ndarray:
    """:func:`interpolated_weighted_quantile` of R padded step functions at
    several levels, shape ``total.shape + (len(levels),)``.

    Row r has ``count[r]`` jumps at ``loc[..., r, :]`` with running sums
    ``cum[..., r, :]`` (padded with +inf) and ``n_points[r]`` units.  A
    bracket index is the number of positions below its target, which on a
    sorted row is exactly a left-sided search.
    """
    pos = (cum / total[..., None]) * n_points[:, None]
    n_points, tie = n_points[:, None], (_TIE_EPS * n_points)[:, None]
    h = 1.0 + (n_points - 1.0) * np.minimum(np.asarray(levels) / total[..., None], 1.0)
    low = np.minimum(np.floor(h), n_points)
    frac = h - low
    targets = np.stack([low - tie, np.minimum(low + 1.0, n_points) - tie], axis=-1)
    idx = np.count_nonzero(pos[..., None, None, :] < targets[..., None], axis=-1)
    idx = np.minimum(idx, count[:, None, None] - 1)
    q = np.take_along_axis(np.broadcast_to(loc, cum.shape),
                           idx.reshape(idx.shape[:-2] + (-1,)), axis=-1).reshape(idx.shape)
    return np.where(idx[..., 0] == idx[..., 1], q[..., 0],
                    (1.0 - frac) * q[..., 0] + frac * q[..., 1])


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


def _step_bandwidth(n_s: int, f: WeightedStepFunction) -> float | None:
    """Automatic bandwidth 0.79 R n_s^{-1/5} with R the step interquartile
    range; None when R is zero."""
    if n_s < 2:
        raise EstimationError("automatic bandwidth needs at least two sampled units")
    iqr = weighted_quantile(f, 0.75) - weighted_quantile(f, 0.25)
    return None if iqr <= 0.0 else 0.79 * iqr * n_s ** (-0.2)


def _kernel_sums(t, y, inv, bandwidth, groups) -> np.ndarray:
    """Gaussian kernel sums sum_i phi((t - y_i) / h) inv_i of padded rows.

    ``y`` and ``inv`` are (R, L) as in :class:`_Cdfs`, ``t`` (R, P) holds
    each row's points and ``bandwidth`` (R,) its bandwidth.  Each sum is
    one dot product over the row's own entries.
    """
    # exp(-0.5 z^2) / sqrt(2 pi), z = (t - y) / h, in one array; halving is
    # exact, so -0.5 (z z) is the same float as (-0.5 z) z
    kernel = t[:, :, None] - y[:, None, :]
    kernel /= bandwidth[:, None, None]
    with np.errstate(over="ignore"):
        # a response many bandwidths away overflows z * z to inf; its kernel
        # value exp(-inf) = 0 is the intended one
        np.multiply(kernel, kernel, out=kernel)
    kernel *= -0.5
    np.exp(kernel, out=kernel)
    kernel /= _SQRT_2PI
    out = np.empty(t.shape)
    for n, rows in groups:
        out[rows] = np.vecdot(kernel[rows, :, :n], inv[rows, None, :n])
    return out


def kde_density(draw, N: int, t, mode: Literal["HT", "HJ"] = "HJ",
                bandwidth: float | None = None):
    """Weighted Gaussian kernel density estimate at t (scalar or 1-d array).

    Weight 1/pi_i per sampled unit, normalized by N ("HT") or by the
    population-size estimate ("HJ").  The automatic bandwidth is
    0.79 R n_s^{-1/5} with R the weighted interquartile range of the
    matching empirical CDF; pass ``bandwidth`` to override (test hook and
    escape hatch for degenerate samples).
    """
    cdfs = _one_draw(draw, N)
    if mode not in MODES:
        raise ParameterError(f"mode must be 'HT' or 'HJ', got {mode!r}")
    if bandwidth is None:
        bandwidth = _step_bandwidth(int(cdfs.sizes[0]), cdfs.ecdf(0, MODES.index(mode)))
        if bandwidth is None:
            raise DegenerateBandwidthError("weighted interquartile range is zero")
    if bandwidth <= 0.0:
        raise ParameterError("bandwidth must be positive")
    denom = float(N) if mode == "HT" else cdfs.n_hat[0]
    t_arr = np.asarray(t, dtype=float)
    sums = _kernel_sums(np.atleast_1d(t_arr)[None], cdfs.y, cdfs.inv, np.array([bandwidth]),
                        cdfs.groups)
    dens = sums[0] / (denom * bandwidth)
    return float(dens[0]) if np.isscalar(t) or t_arr.ndim == 0 else dens


@dataclass(frozen=True, eq=False)
class PovertyBatch:
    """:func:`poverty_batch` results, row j for draw j and column k for mode
    ``MODES[k]``: the rate ``phi``, the densities ``f_q`` and ``f_bq`` (NaN
    without a bandwidth), ``flat`` where the bandwidth is missing because
    all responses are equal, and ``errors`` mapping each failed cell
    ``(j, k)`` to its :class:`EstimationError`."""

    phi: np.ndarray
    f_q: np.ndarray
    f_bq: np.ndarray
    flat: np.ndarray
    errors: dict


def poverty_batch(draws, N: int, alpha: float, beta: float) -> PovertyBatch:
    """Poverty rates and kernel densities of draws from one population, in
    both modes, each bitwise equal to its value in a batch of its own.

    Per draw and mode: the alpha-quantile q and the quartiles follow
    :func:`interpolated_weighted_quantile` with the sample size as
    ``n_points``, the rate is F(beta q), the bandwidth is 0.79 R n^{-1/5}
    with R the interquartile range (none when R is zero), and the
    densities at q and beta q are :func:`kde_density`'s at that bandwidth.
    A draw without values, empty, or with an inclusion probability outside
    (0, 1] fails in both modes; a cell without a bandwidth fails with
    :class:`DegenerateBandwidthError` unless all responses are equal.
    """
    if not 0.0 < alpha <= 1.0:
        raise ParameterError(f"quantile level must lie in (0, 1], got {alpha}")
    cdfs, failed = _weighted_cdfs(draws, N)
    errors = {(j, k): exc for j, exc in failed.items() for k in range(2)}
    factor = np.empty(cdfs.sizes.size)
    for n, rows in cdfs.groups:
        factor[rows] = n ** (-0.2)       # the scalar power, as for one draw
    q = _interpolated_quantiles(cdfs.loc, cdfs.cum, cdfs.total, cdfs.count,
                                cdfs.sizes.astype(float), (alpha, 0.25, 0.75))
    t = beta * q[..., 0]
    phi = _step_values(cdfs.loc, cdfs.cum, cdfs.count, t[..., None])[..., 0]
    iqr = q[..., 2] - q[..., 1]
    no_bw = iqr <= 0.0
    bandwidth = 0.79 * iqr * factor
    if np.any(~no_bw & (bandwidth <= 0.0)):
        raise ParameterError("bandwidth must be positive")
    bandwidth[no_bw] = 1.0
    denom = np.stack([np.full(factor.size, float(N)), cdfs.n_hat]) * bandwidth
    dens = np.stack([_kernel_sums(np.stack([q[k, :, 0], t[k]], axis=-1), cdfs.y, cdfs.inv,
                                  bandwidth[k], cdfs.groups) for k in range(2)])
    dens /= denom[..., None]
    dens[no_bw] = np.nan
    pad = np.arange(cdfs.y.shape[1]) >= cdfs.sizes[:, None]
    flat = no_bw & ((cdfs.y == cdfs.y[:, :1]) | pad).all(axis=1)
    for k, r in np.argwhere(no_bw & ~flat).tolist():
        errors[r, k] = DegenerateBandwidthError("weighted interquartile range is zero")
    return PovertyBatch(phi=phi.T, f_q=dens[..., 0].T, f_bq=dens[..., 1].T, flat=flat.T,
                        errors=errors)


def _step_values(loc, cum, count, t) -> np.ndarray:
    """Padded step functions (``loc``, ``cum``, ``count`` as in
    :class:`_Cdfs`) at the points ``t`` (..., R, P): the running sum at the
    last jump <= t, found by counting comparisons."""
    below = np.minimum(np.count_nonzero(loc[:, None, :] <= t[..., None], axis=-1),
                       count[:, None])
    below = np.where(np.isnan(t), count[:, None], below)
    out = np.take_along_axis(cum, np.maximum(below - 1, 0), axis=-1)
    return np.where(below == 0, 0.0, out)


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
    values = process_paths([draw], population, grid, which, law)
    return ProcessPath(grid=np.asarray(grid, dtype=float), values=values[0])


def process_paths(draws, population: pop.Population, grid, which: ProcessKind,
                  law: pop.SuperPopulationLaw | None = None) -> np.ndarray:
    """:func:`process_path` of several draws from ``population`` at once,
    row j for draw j; the first draw that cannot be evaluated raises."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or np.isnan(grid).any() or np.any(np.diff(grid) < 0):
        raise ParameterError("grid must be a sorted 1-d array")
    if which not in get_args(ProcessKind):
        raise ParameterError(f"unknown process kind {which!r}")
    if law is None and which not in ("HT_vs_FN", "HJ_vs_FN"):
        raise ParameterError(f"process {which!r} requires the super-population law")
    N = population.N
    cdfs, errors = _weighted_cdfs(draws, N)
    if errors:
        raise next(iter(errors.values()))
    mode = 1 if which.startswith("HJ") else 0
    cdf_vals = _step_values(cdfs.loc, cdfs.cum[mode], cdfs.count,
                            np.broadcast_to(grid, (len(draws), grid.size)))
    root_n = np.sqrt([draw.expected_n for draw in draws])[:, None]
    if which.endswith("_vs_FN"):
        return root_n * (cdf_vals - empirical_cdf_values(population.y, grid))
    f_vals = pop.true_cdf(law, grid)
    if which.endswith("_vs_F"):
        return root_n * (cdf_vals - f_vals)
    nhat_over_n = (cdfs.n_hat / N)[:, None]
    if which == "G_pi":
        return root_n * (cdf_vals - nhat_over_n * f_vals)
    return (root_n * (cdf_vals - empirical_cdf_values(population.y, grid))
            - root_n * (nhat_over_n - 1.0) * f_vals)
