"""Weighted empirical CDFs, quantiles, the poverty rate and process paths.

The inverse-probability ("HT") empirical CDF puts mass 1/(N pi_i) on each
sampled response; its total mass is the population-size estimate divided
by N and need not be one.  The self-normalized ("HJ") variant divides by
that estimate instead of N and always has total mass one.  Both are
right-continuous step functions; quantiles use the generalized inverse
F^{-1}(a) = inf{t : F(t) >= a}.

Draws are processed in batches.  :func:`_weighted_cdfs` checks a batch,
pads its responses to one (R, n_max) block, sorts the block once and
builds both modes' CDFs with one cumulative sum per mode; equal responses
(NaNs too) merge into one jump, their weights added in sample order.  The
poverty kernels (:func:`poverty_batch` with interpolated quantiles,
:func:`step_poverty_rates` with the generalized inverse) and the process
paths (:func:`process_paths`) read all rows at once: quantiles and CDF
values are counts of comparisons, and the kernel densities take one
``exp`` over the block.  Sums whose rounding depends on a row's length run
on the row's own entries, so a draw gets the same bits in any batch,
alone included.
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
)

_TIE_EPS = 1e-12
_SQRT_2PI = float(np.sqrt(2.0 * np.pi))
MODES = ("HT", "HJ")

ProcessKind = Literal["HT_vs_FN", "HT_vs_F", "HJ_vs_FN", "HJ_vs_F", "G_pi", "Y_N"]


def _require_values(draw):
    if draw.y_included is None:
        raise EstimationError("draw carries no response values; pass them to designs.draw")
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
    if not ys:
        raise ParameterError("empty batch: at least one draw is needed")
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
    # one jump per row, their weights added in sample order
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


def _valid_cdfs(draws, N: int) -> _Cdfs:
    """:func:`_weighted_cdfs` where the first draw that fails its checks raises."""
    cdfs, errors = _weighted_cdfs(draws, N)
    if errors:
        raise next(iter(errors.values()))
    return cdfs


def _step_quantiles(loc, cum, total, count, alpha: float) -> np.ndarray:
    """Generalized inverses of R padded step functions (as in :class:`_Cdfs`,
    ``total`` their masses) at alpha, ties at floating resolution resolving
    downward; :class:`QuantileUndefinedError` when alpha exceeds a mass
    (possible for the unnormalized CDF)."""
    short = alpha > total + _TIE_EPS
    if short.any():
        raise QuantileUndefinedError(f"level {alpha} exceeds total mass {total[short][0]:.12g}")
    idx = np.minimum(np.count_nonzero(cum < alpha - _TIE_EPS, axis=-1), count - 1)
    return np.take_along_axis(loc, idx[:, None], axis=-1)[:, 0]


def _interpolated_quantiles(loc, cum, total, count, n_points, levels) -> np.ndarray:
    """Weighted quantiles with sample-scale linear interpolation of R
    padded step functions at several levels, shape
    ``total.shape + (len(levels),)``.

    Row r has ``count[r]`` jumps at ``loc[..., r, :]`` with running sums
    ``cum[..., r, :]`` (padded with +inf) and ``n_points[r]`` units.  The
    rule mimics the interpolating weighted quantile of common statistical
    packages: weights are normalized to sum to ``n_points`` (the number of
    sampled units behind the function), the pseudo-order position
    ``h = 1 + (n_points - 1) alpha`` is bracketed by the step inverse at
    ``floor(h)`` and ``floor(h) + 1``, and the bracket is combined
    linearly.  For equal weights this is the usual type-7 rule.  Functions
    whose mass is not one are handled through the level: the crossing of
    level ``alpha`` happens where the normalized function crosses
    ``alpha / total``.  Unlike :func:`_step_quantiles`, a level beyond
    the total mass saturates at the largest jump (the clamped extrapolation
    of the reference interpolation machinery) instead of raising.  A
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


def _kernel_sums(t, y, inv, bandwidth, groups) -> np.ndarray:
    """Gaussian kernel sums sum_i phi((t - y_i) / h) inv_i of padded rows.

    ``y`` and ``inv`` are (R, L) as in :class:`_Cdfs`, ``t`` (R, P) holds
    each row's points and ``bandwidth`` (R,) its bandwidth.  Each sum is
    one dot product over the row's own entries.
    """
    # exp(-0.5 z^2) / sqrt(2 pi), z = (t - y) / h, in one array; halving is
    # exact, so -0.5 (z z) is the same float as (-0.5 z) z
    kernel = t[:, :, None] - y[:, None, :]
    with np.errstate(over="ignore"):
        # a response many bandwidths away overflows z or z * z to inf; its
        # kernel value exp(-inf) = 0 is the intended one
        kernel /= bandwidth[:, None, None]
        np.multiply(kernel, kernel, out=kernel)
    kernel *= -0.5
    np.exp(kernel, out=kernel)
    kernel /= _SQRT_2PI
    out = np.empty(t.shape)
    for n, rows in groups:
        out[rows] = np.vecdot(kernel[rows, :, :n], inv[rows, None, :n])
    return out


def _check_levels(alpha: float, beta: float) -> None:
    """Reject a quantile level or a scale outside (0, 1], NaN included."""
    if not 0.0 < alpha <= 1.0:
        raise ParameterError(f"quantile level must lie in (0, 1], got {alpha}")
    if not 0.0 < beta <= 1.0:
        raise ParameterError(f"scale beta must lie in (0, 1], got {beta}")


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
    :func:`_interpolated_quantiles` with the sample size as ``n_points``,
    the rate is F(beta q), the bandwidth is 0.79 R n^{-1/5}
    with R the interquartile range (none when R is zero), and the
    densities at q and beta q are weighted Gaussian kernel estimates at
    that bandwidth: weight 1/pi_i per sampled unit, normalized by N ("HT")
    or by the population-size estimate ("HJ").
    A draw without values, empty, or with an inclusion probability outside
    (0, 1] fails in both modes; a cell without a bandwidth fails with
    :class:`DegenerateBandwidthError` unless all responses are equal.
    """
    _check_levels(alpha, beta)
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


def step_poverty_rates(draws, N: int, alpha: float, beta: float,
                       mode: Literal["HT", "HJ"]) -> np.ndarray:
    """Poverty rate F(beta q) of each draw's ``mode`` CDF F, with q the
    generalized inverse inf{t : F(t) >= alpha} (:func:`_step_quantiles`).

    The first draw that fails its checks raises, and so does a level
    beyond a total mass (:class:`QuantileUndefinedError`, possible in mode
    "HT").  A census (all N units, pi = 1) gives the population's rate in
    mode "HJ".
    """
    _check_levels(alpha, beta)
    if mode not in MODES:
        raise ParameterError(f"mode must be 'HT' or 'HJ', got {mode!r}")
    cdfs, k = _valid_cdfs(draws, N), MODES.index(mode)
    q = _step_quantiles(cdfs.loc, cdfs.cum[k], cdfs.total[k], cdfs.count, alpha)
    return _step_values(cdfs.loc, cdfs.cum[k], cdfs.count, beta * q[:, None])[:, 0]


def _step_values(loc, cum, count, t) -> np.ndarray:
    """Padded step functions (``loc``, ``cum``, ``count`` as in
    :class:`_Cdfs`) at the points ``t`` (..., R, P): the running sum at the
    last jump <= t, found by counting comparisons."""
    below = np.minimum(np.count_nonzero(loc[:, None, :] <= t[..., None], axis=-1),
                       count[:, None])
    below = np.where(np.isnan(t), count[:, None], below)
    out = np.take_along_axis(cum, np.maximum(below - 1, 0), axis=-1)
    return np.where(below == 0, 0.0, out)


def empirical_cdf_values(y: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Unweighted empirical CDF of y on the grid."""
    y_sorted = np.sort(np.asarray(y, dtype=float))
    return np.searchsorted(y_sorted, grid, side="right") / y_sorted.size


def process_paths(draws, population: pop.Population, grid, which: ProcessKind,
                  law: pop.SuperPopulationLaw | None = None) -> np.ndarray:
    """Evaluate a sqrt(n)-standardized estimation process of several draws
    from ``population`` on a grid, row j for draw j.

    ``which`` selects the estimator and centering: the inverse-probability
    or self-normalized CDF against the population empirical CDF
    (``*_vs_FN``) or against the model CDF (``*_vs_F``), the raw weighted
    centered sum ``G_pi`` (sqrt(n)/N sum (xi_i/pi_i)(1{Y_i<=t} - F(t))), or
    the decomposition term ``Y_N`` (same with weights xi_i/pi_i - 1).  The
    standardization uses the design-expected size, not the realized one.
    The first draw that cannot be evaluated raises.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or np.isnan(grid).any() or np.any(np.diff(grid) < 0):
        raise ParameterError("grid must be a sorted 1-d array")
    if which not in get_args(ProcessKind):
        raise ParameterError(f"unknown process kind {which!r}")
    if law is None and which not in ("HT_vs_FN", "HJ_vs_FN"):
        raise ParameterError(f"process {which!r} requires the super-population law")
    N = population.N
    cdfs = _valid_cdfs(draws, N)
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
