"""Weighted empirical CDFs, quantiles, the poverty rate, its plug-in
variance and process paths.

The inverse-probability ("HT") empirical CDF puts mass 1/(N pi_i) on each
sampled response; its total mass is the population-size estimate divided
by N and need not be one.  The self-normalized ("HJ") variant divides by
that estimate instead of N and always has total mass one.  Both are
right-continuous step functions.  Every sample quantile follows one
interpolating rule (:func:`_interpolated_quantiles`), which saturates at
the largest response when a level exceeds the total mass; only the census
center :func:`census_poverty_rate` takes the generalized inverse
F^{-1}(a) = inf{t : F(t) >= a}.

Draws come in the batches of :func:`designs.draw` (one draw is a batch of
one row), which the kernels read and never write.  :func:`_weighted_cdfs`
checks a batch, pads its responses to one block, sorts the block once and
builds the CDFs of the modes its caller reads, in a fixed number of array
operations plus one per distinct row length; a row with equal responses
(NaNs too) merges them into one jump with ``np.unique``.  The two kernels,
:func:`poverty_rate_estimates` (both modes, with kernel densities and the
plug-in variance: the one poverty-rate kernel, whose estimates the Monte
Carlo tables and their normality report share) and :func:`process_paths`
(one mode), read all rows at once, but sum each row over its own entries,
so a draw gets the same bits in any batch.

No kernel raises on a failing row: a row that is empty or has a pi outside
(0, 1] holds 0.0, and the errors dict the kernel returns maps it to its
:class:`EstimationError` (each of its (row, mode) cells in
:func:`poverty_rate_estimates`, which also fails cells without a bandwidth
or a density).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import get_args

import numpy as np

from . import population as pop
from .asymptotics import MODES, CovarianceForm, DesignConstants, derivative_variance
from .errors import (
    DegenerateBandwidthError,
    EstimationError,
    ParameterError,
    ZeroDensityError,
)

_TIE_EPS = 1e-12
_SQRT_2PI = float(np.sqrt(2.0 * np.pi))


def _row_groups(sizes: np.ndarray) -> list:
    """``(n, rows)`` for each distinct row length n, in increasing order,
    ``rows`` indexing the rows of that length (a slice where they are
    consecutive, which indexes a view); from one stable sort of the sizes."""
    order = np.argsort(sizes, kind="stable")
    ordered = sizes[order]
    cuts = [0, *(np.flatnonzero(ordered[1:] != ordered[:-1]) + 1).tolist(), sizes.size]
    rows_in_order, ordered = order.tolist(), ordered.tolist()
    groups = []
    for start, stop in zip(cuts[:-1], cuts[1:]):
        low, high = rows_in_order[start], rows_in_order[stop - 1]
        groups.append((ordered[start], slice(low, high + 1) if high - low == stop - start - 1
                       else order[start:stop]))
    return groups


@dataclass(frozen=True, eq=False)
class _Cdfs:
    """Weighted CDFs of R draws padded to (R, L), in the modes asked for.

    ``y`` (+inf padding) and ``inv = 1/pi`` (zero padding) keep the sample
    order; ``sizes`` are the row lengths, ``groups`` their
    :func:`_row_groups` and ``n_hat`` the population-size estimates.  Row
    r of the k-th mode built jumps at the ``count[r]`` sorted distinct
    responses ``loc[r]`` (+inf or NaN padding) with running sums
    ``cum[k, r]`` (+inf padding) ending at ``total[k, r]``: 1/(N pi) and
    their sum for "HT", (1/pi)/n_hat and exactly one for "HJ".
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


def _batch_values(batch) -> tuple:
    """Responses, inclusion probabilities and row lengths of a batch, each
    row that is empty or has a pi outside (0, 1] replaced by y = [0],
    pi = [1], and those rows' errors in row order."""
    sizes = batch.sizes
    if sizes.size == 0:
        raise ParameterError("empty batch: at least one draw is needed")
    failed = sizes == 0
    in_range = (batch.pi > 0.0) & (batch.pi <= 1.0)      # NaN fails
    if not in_range.all():
        # reduceat misreads empty segments, so only the nonempty rows start one
        rows = np.flatnonzero(sizes)
        failed[rows] = ~np.logical_and.reduceat(in_range, (np.cumsum(sizes) - sizes)[rows])
    errors = {j: EstimationError("empty sample" if sizes[j] == 0 else
                                 "inclusion probability outside (0, 1] among sampled units")
              for j in np.flatnonzero(failed).tolist()}
    if not errors:
        return batch.y, batch.pi, sizes, errors
    kept = np.repeat(~failed, sizes)
    sizes = np.where(failed, 1, sizes)
    slots = ~np.repeat(failed, sizes)
    values, pi = np.zeros(slots.size), np.ones(slots.size)
    values[slots], pi[slots] = batch.y[kept], batch.pi[kept]
    return values, pi, sizes, errors


def _weighted_cdfs(batch, N: int, modes=MODES) -> tuple[_Cdfs, dict]:
    """Check a batch and build the CDFs of every row in ``modes`` (a
    subsequence of :data:`MODES`), ``cum[k]`` and ``total[k]`` for
    ``modes[k]``.

    An empty row, or one with an inclusion probability outside (0, 1],
    gets a placeholder row (y = [0], pi = [1]) and an entry
    ``row: EstimationError`` in the returned dict, in row order.
    """
    if N < 1:
        raise ParameterError(f"population size must be at least 1, got {N}")
    values, pi, sizes, errors = _batch_values(batch)
    R, L = sizes.size, int(sizes.max())
    fill = np.arange(L) < sizes[:, None]
    y = np.full((R, L), np.inf)
    y[fill] = values
    # sample order, zero padding: 1/(N pi) when "HT" is built, then 1/pi
    ht = "HT" in modes
    block = np.zeros((1 + ht, R, L))
    inv = block[-1]
    if ht:
        block[0][fill] = np.divide(1.0, N * pi)
    inv[fill] = np.divide(1.0, pi)
    groups = _row_groups(sizes)
    sums = np.empty((1 + ht, R))
    for n, rows in groups:
        sums[:, rows] = block[:, rows, :n].sum(axis=-1)    # pairwise, over the row's n entries
    n_hat = sums[-1]

    order = np.argsort(y, axis=1)
    order += np.arange(0, R * L, L)[:, None]          # positions in the raveled rows
    flat = order.ravel()
    loc = np.take(y, flat).reshape(R, L)
    total, cum = np.ones((len(modes), R)), np.empty((len(modes), R, L))
    for k, mode in enumerate(modes):
        np.take(block[0 if mode == "HT" else -1], flat, out=cum[k].ravel(), mode="clip")
        if mode == "HT":
            total[k] = sums[0]
        else:
            cum[k] /= n_hat[:, None]        # (1/pi)/n_hat, as in sample order
    np.cumsum(cum, axis=-1, out=cum)
    count = sizes.copy()
    # tied responses (NaNs, which sort last, too) merge into one jump per
    # row, their weights added in sample order
    ties = ((loc[:, 1:] == loc[:, :-1]) & fill[:, 1:]).any(axis=1) | np.isnan(loc[:, -1])
    for r in np.flatnonzero(ties).tolist():
        locs, inverse = np.unique(y[r, :sizes[r]], return_inverse=True)
        count[r] = locs.size
        loc[r, :locs.size], loc[r, locs.size:] = locs, np.nan
        for k, mode in enumerate(modes):
            weights = block[0, r, :sizes[r]] if mode == "HT" else inv[r, :sizes[r]] / n_hat[r]
            cum[k, r, :locs.size] = np.bincount(inverse, weights=weights,
                                                minlength=locs.size).cumsum()
    np.copyto(cum, np.inf, where=np.arange(L) >= count[:, None])
    cum[:, np.arange(R), count - 1] = total
    return _Cdfs(y=y, inv=inv, sizes=sizes, groups=groups, n_hat=n_hat, loc=loc, cum=cum,
                 total=total, count=count), errors


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
    ``alpha / total``, and a level beyond the total mass saturates at the
    largest jump (the clamped extrapolation of the reference interpolation
    machinery).  A bracket index is the number of positions below its
    target, which on a sorted row is exactly a left-sided search.
    """
    pos = (cum / total[..., None]) * n_points[:, None]
    n_points, tie = n_points[:, None], (_TIE_EPS * n_points)[:, None]
    h = 1.0 + (n_points - 1.0) * np.minimum(np.asarray(levels) / total[..., None], 1.0)
    low = np.minimum(np.floor(h), n_points)
    frac = h - low
    targets = np.stack([low - tie, np.minimum(low + 1.0, n_points) - tie], axis=-1)
    # each row compares Trues, then Falses: the running sums ascend, and at
    # the last jump the position is n (NaN if the mass overflowed), which
    # no target reaches; so the first False counts the positions below
    idx = np.argmin(pos[..., None, None, :] < targets[..., None], axis=-1)
    idx = np.minimum(idx, count[:, None, None] - 1)
    q = loc.ravel()[idx + (np.arange(loc.shape[0]) * loc.shape[1])[:, None, None]]
    return np.where(idx[..., 0] == idx[..., 1], q[..., 0],
                    (1.0 - frac) * q[..., 0] + frac * q[..., 1])


def _kernel_sums(t, y, inv, bandwidth, groups) -> np.ndarray:
    """Gaussian kernel sums sum_i phi((t - y_i) / h) inv_i of padded rows.

    ``y`` and ``inv`` are (R, L) as in :class:`_Cdfs`, ``t`` (..., R, P)
    holds each row's points and ``bandwidth`` (..., R) its bandwidth.  Each
    sum is one dot product over the row's own entries, one ``vecdot`` per
    row length.
    """
    # exp(-0.5 z^2) / sqrt(2 pi), z = (t - y) / h, in one array; halving is
    # exact, so -0.5 (z z) is the same float as (-0.5 z) z
    kernel = t[..., None] - y[:, None, :]
    with np.errstate(over="ignore"):
        # a response many bandwidths away overflows z or z * z to inf; its
        # kernel value exp(-inf) = 0 is the intended one
        kernel /= bandwidth[..., None, None]
        np.multiply(kernel, kernel, out=kernel)
    kernel *= -0.5
    np.exp(kernel, out=kernel)
    kernel /= _SQRT_2PI
    out = np.empty(t.shape)
    for n, rows in groups:
        out[..., rows, :] = np.vecdot(kernel[..., rows, :, :n], inv[rows, None, :n])
    return out


def _check_levels(alpha: float, beta: float) -> None:
    """Reject a quantile level or a scale outside (0, 1], NaN included."""
    if not 0.0 < alpha <= 1.0:
        raise ParameterError(f"quantile level must lie in (0, 1], got {alpha}")
    if not 0.0 < beta <= 1.0:
        raise ParameterError(f"scale beta must lie in (0, 1], got {beta}")


def poverty_rate_estimates(batch, N: int, constants: DesignConstants,
                           alpha: float, beta: float) -> tuple:
    """Kernel of the simulation protocol: poverty-rate estimates and their
    plug-in variances for a batch of draws from one population, in both
    modes, each bitwise equal to its value in a batch of its own.

    Per row and mode: the alpha-quantile q and the quartiles follow
    :func:`_interpolated_quantiles` with the sample size as ``n_points``,
    the rate is F(beta q), the bandwidth is
    0.79 R n^{-1/5} with R the interquartile range (none when that is zero:
    R is zero, or so small that the product underflows), and the densities
    at q and beta q are weighted Gaussian kernel estimates at that
    bandwidth: weight 1/pi_i per sampled unit, normalized by N ("HT")
    or by the population-size estimate ("HJ").  The variance is
    :func:`asymptotics.derivative_variance`, the contraction that gives the
    model variance, at the estimated rate (phi_hat, alpha) and the
    estimated br = beta f(beta q) / f(q).

    Returns ``(phi, av, errors)``: (S, 2) arrays with one row per batch row
    and the columns :data:`MODES`, and a dict mapping each cell ``(j, k)``
    that cannot be evaluated to its :class:`EstimationError`, never raised; such
    cells hold 0.0 in both arrays.  An empty row, or one with an inclusion
    probability outside (0, 1], fails in both modes; a cell
    without a bandwidth fails with :class:`DegenerateBandwidthError`, unless
    all responses are equal, which is a legitimate zero variance (a
    zero-width interval); a cell whose density at q is not positive fails
    with :class:`ZeroDensityError`.  Other errors propagate.
    """
    _check_levels(alpha, beta)
    cdfs, failed = _weighted_cdfs(batch, N)
    errors = {(j, k): exc for j, exc in failed.items() for k in range(2)}
    factor = np.empty(cdfs.sizes.size)
    for n, rows in cdfs.groups:
        factor[rows] = n ** (-0.2)       # the scalar power, as for one draw
    q = _interpolated_quantiles(cdfs.loc, cdfs.cum, cdfs.total, cdfs.count,
                                cdfs.sizes.astype(float), (alpha, 0.25, 0.75))
    t = beta * q[..., 0]
    phi = _step_values(cdfs.loc, cdfs.cum, cdfs.count, t[..., None])[..., 0].T
    iqr = q[..., 2] - q[..., 1]
    bandwidth = 0.79 * iqr * factor
    no_bw = bandwidth <= 0.0
    bandwidth[no_bw] = 1.0
    denom = np.stack([np.full(factor.size, float(N)), cdfs.n_hat]) * bandwidth
    dens = _kernel_sums(np.stack([q[..., 0], t], axis=-1), cdfs.y, cdfs.inv, bandwidth,
                        cdfs.groups)
    dens /= denom[..., None]
    dens[no_bw] = np.nan
    # one distinct response; a row of NaNs has a NaN range, so no_bw is False
    flat = no_bw & (cdfs.count == 1)
    for k, r in np.argwhere(no_bw & ~flat).tolist():
        cause = ("the weighted interquartile range is zero" if iqr[k, r] <= 0.0
                 else "it underflows from a positive interquartile range")
        errors[r, k] = DegenerateBandwidthError(f"bandwidth is zero: {cause}")
    f_q, f_bq = dens[..., 0].T, dens[..., 1].T
    for j, k in np.argwhere(f_q <= 0.0).tolist():
        errors[j, k] = ZeroDensityError("estimated density vanishes at the quantile")
    with np.errstate(all="ignore"):
        # cells without densities are evaluated too, and replaced below
        br = beta * (f_bq / f_q)
        av = np.stack([derivative_variance(constants, mode, alpha, br[:, k], phi[:, k])
                       for k, mode in enumerate(MODES)], axis=1)
    av[flat.T] = 0.0
    for cell in errors:
        phi[cell] = av[cell] = 0.0
    return phi, av, errors


def census_poverty_rate(y, alpha: float, beta: float) -> float:
    """Poverty rate phi(F_N) = F_N(beta F_N^{-1}(alpha)) of a population
    from all N of its responses ``y``, from one sort: the Monte Carlo
    center, and the one place the generalized inverse
    F_N^{-1}(a) = inf{t : F_N(t) >= a} is taken, ties at floating
    resolution resolving downward.

    Every census weight is 1/N, so a tie group of k units weighs the k-th
    running sum of N weights 1/N (what ``np.bincount`` adds), the running
    sums are those group weights accumulated, the last pinned to one, and
    the quantile and the rate are two searches.
    """
    _check_levels(alpha, beta)
    y = np.asarray(y, dtype=float)
    if y.size == 0:
        raise ParameterError("population size must be at least 1, got 0")
    loc, counts = np.unique(y, return_counts=True)
    cum = np.cumsum(np.cumsum(np.full(y.size, 1.0 / y.size))[counts - 1])
    cum[-1] = 1.0
    # the pinned last sum reaches every level, and the ones before it are sorted
    q = loc[min(int(np.searchsorted(cum[:-1], alpha - _TIE_EPS)), loc.size - 1)]
    below = int(np.searchsorted(loc, beta * q, side="right"))    # NaN sorts last
    return float(cum[below - 1]) if below else 0.0


def _step_values(loc, cum, count, t) -> np.ndarray:
    """Padded step functions (``loc``, ``cum``, ``count`` as in
    :class:`_Cdfs`) at the points ``t`` (..., R, P): the running sum at the
    last jump <= t, found by counting comparisons."""
    # a row of loc ascends (NaNs and padding last), so its comparisons are
    # Trues, then Falses: the first False counts them, unless there is none
    le = loc[:, None, :] <= t[..., None]
    below = np.minimum(np.where(le[..., -1], le.shape[-1], np.argmin(le, axis=-1)),
                       count[:, None])
    below = np.where(np.isnan(t), count[:, None], below)
    L = cum.shape[-1]
    starts = np.arange(0, cum.size, L).reshape(cum.shape[:-1] + (1,))
    out = cum.ravel()[np.maximum(below - 1, 0) + starts]
    return np.where(below == 0, 0.0, out)


def empirical_cdf_values(y: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Unweighted empirical CDF of y on the grid."""
    y_sorted = np.sort(np.asarray(y, dtype=float))
    return np.searchsorted(y_sorted, grid, side="right") / y_sorted.size


def checked_grid(grid) -> np.ndarray:
    """``grid`` as a float array, refused unless it is sorted, non-empty,
    1-d and free of NaN."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or not grid.size or np.isnan(grid).any() or np.any(np.diff(grid) < 0):
        raise ParameterError("grid must be a sorted, non-empty 1-d array")
    return grid


def process_paths(batch, y: np.ndarray, grid, which: CovarianceForm,
                  law: pop.SuperPopulationLaw | None = None) -> tuple:
    """Evaluate a sqrt(n)-standardized estimation process of a batch of
    draws from the population of responses ``y`` on a grid, row j for
    batch row j.

    ``which`` selects the estimator and centering: the inverse-probability
    ("HT_*") or self-normalized ("HJ_*") CDF against the population
    empirical CDF (``*_vs_FN``) or against the model CDF (``*_vs_F``).  The
    standardization uses the design-expected size, not the realized one.
    Returns ``(paths, errors)``: one path per row (0.0 on the whole grid in
    a failing row), and each failing row's :class:`EstimationError` by row.
    The grid must pass :func:`checked_grid`.
    """
    grid = checked_grid(grid)
    if which not in get_args(CovarianceForm):
        raise ParameterError(f"unknown process kind {which!r}")
    if law is None and which.endswith("_vs_F"):
        raise ParameterError(f"process {which!r} requires the super-population law")
    cdfs, errors = _weighted_cdfs(batch, y.size, (which[:2],))
    cdf_vals = _step_values(cdfs.loc, cdfs.cum[0], cdfs.count,
                            np.broadcast_to(grid, (cdfs.sizes.size, grid.size)))
    center = empirical_cdf_values(y, grid) if which.endswith("_vs_FN") else pop.true_cdf(law, grid)
    paths = np.sqrt(batch.expected_n) * (cdf_vals - center)
    paths[list(errors)] = 0.0
    return paths, errors
