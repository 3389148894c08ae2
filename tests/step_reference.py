"""The one-draw weighted step function the batched CDF kernels are checked against.

``StepFunction.from_points`` merges tied points into one jump with
``np.unique`` and adds their weights with ``np.bincount`` in the order
given; ``quantile`` is the scalar generalized inverse and
``poverty_rate`` the function at beta times that quantile.  The batch
kernels of ``svycdf.estimation`` (``_weighted_cdfs``, ``_step_quantiles``,
``_step_values``, ``step_poverty_rates``) must give the same floats.

More reference helpers of the tests live here: ``n_hat``, a draw's
inverse-probability population-size estimate, ``decomposition_paths``,
the terms G_pi and Y_N of the proof's decomposition of the self-normalized
process, and ``hadamard_direction_value``, the directional derivative of
the poverty rate functional, checked against finite differences.
"""

from dataclasses import dataclass

import numpy as np

from svycdf import estimation as est
from svycdf import population as pop
from svycdf.errors import (
    EstimationError,
    ParameterError,
    QuantileUndefinedError,
    ZeroDensityError,
)

TIE_EPS = 1e-12


@dataclass(frozen=True, eq=False)
class StepFunction:
    """Right-continuous step function: jumps at the sorted distinct
    ``locations``, ``cumulative[k]`` the mass at or before
    ``locations[k]``, the last entry ``total_mass``."""

    locations: np.ndarray
    cumulative: np.ndarray
    total_mass: float

    @classmethod
    def from_points(cls, values, weights, total_mass=None):
        """Ties merged into one jump; ``total_mass`` pins the last running
        sum (by default ``weights.sum()`` in the order given)."""
        values = np.asarray(values, dtype=float)
        weights = np.asarray(weights, dtype=float)
        locs, inverse = np.unique(values, return_inverse=True)
        cumulative = np.bincount(inverse, weights=weights, minlength=locs.size).cumsum()
        total = float(weights.sum()) if total_mass is None else float(total_mass)
        cumulative[-1] = total
        return cls(locations=locs, cumulative=cumulative, total_mass=total)

    def evaluate(self, t):
        """Value at t (scalar or array): mass of all jumps <= t."""
        t_arr = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.locations, t_arr, side="right")
        out = np.concatenate([[0.0], self.cumulative])[idx]
        return float(out) if t_arr.ndim == 0 else out

    __call__ = evaluate


def reference_ecdf(draw, N, mode):
    """One draw's CDF in ``mode``: 1/(N pi) per unit for "HT", (1/pi)/n_hat
    with total mass exactly one for "HJ"."""
    if draw.y_included is None:
        raise EstimationError("no values")
    if draw.included.size == 0:
        raise EstimationError("empty sample")
    if np.any(draw.pi_included <= 0.0):
        raise EstimationError("nonpositive inclusion probability")
    if mode == "HT":
        return StepFunction.from_points(draw.y_included, 1.0 / (N * draw.pi_included))
    inv = 1.0 / draw.pi_included
    return StepFunction.from_points(draw.y_included, inv / inv.sum(), total_mass=1.0)


def batch_row(cdfs, r, k):
    """Row r of mode k of a batch of CDFs (``estimation._Cdfs``) as a step function."""
    c = cdfs.count[r]
    return StepFunction(locations=cdfs.loc[r, :c], cumulative=cdfs.cum[k, r, :c],
                        total_mass=float(cdfs.total[k, r]))


def quantile(f, alpha):
    """The first jump whose running sum reaches alpha, up to ``TIE_EPS``."""
    if not 0.0 < alpha <= 1.0:
        raise ParameterError(f"quantile level must lie in (0, 1], got {alpha}")
    if alpha > f.total_mass + TIE_EPS:
        raise QuantileUndefinedError(f"level {alpha} exceeds total mass {f.total_mass}")
    return float(next(location for location, running in zip(f.locations, f.cumulative)
                      if running >= alpha - TIE_EPS))


def poverty_rate(f, alpha, beta):
    """f at beta times its alpha-quantile."""
    if not 0.0 < beta <= 1.0:
        raise ParameterError(f"scale beta must lie in (0, 1], got {beta}")
    return float(f.evaluate(beta * quantile(f, alpha)))


def n_hat(draw):
    """Inverse-probability estimate of the population size, sum 1/pi."""
    return float(np.sum(1.0 / draw.pi_included))


def decomposition_paths(ht_values, draw, population, grid, law):
    """The proof's decomposition terms of a draw on a grid, given its "HT"
    CDF values there: the raw weighted centered sum
    G_pi = sqrt(n)/N sum (xi_i/pi_i)(1{Y_i<=t} - F(t)) and
    Y_N = sqrt(n)(F_HT - F_N) - sqrt(n)(N_hat/N - 1) F, so that
    sqrt(n)(HJ - F_N) = Y_N + (N/N_hat - 1) G_pi and
    sqrt(n)(HJ - F) = (N/N_hat) G_pi.  The standardization uses the
    design-expected size."""
    root_n, ratio = np.sqrt(draw.expected_n), n_hat(draw) / population.N
    f = pop.true_cdf(law, grid)
    f_n = est.empirical_cdf_values(population.y, grid)
    g_pi = root_n * (ht_values - ratio * f)
    y_n = root_n * (ht_values - f_n) - root_n * (ratio - 1.0) * f
    return g_pi, y_n


def hadamard_direction_value(density_at_quantile, density_at_scaled, h_at_quantile,
                             h_at_scaled, beta):
    """Directional derivative of the poverty-rate functional.

    For a perturbation direction h, the derivative at a distribution with
    density f, quantile q and scaled point beta*q equals
    ``-beta (f(beta q) / f(q)) h(q) + h(beta q)``.
    """
    if density_at_quantile <= 0.0:
        raise ZeroDensityError("density at the quantile must be positive")
    return (-beta * (density_at_scaled / density_at_quantile) * h_at_quantile
            + h_at_scaled)
