"""Limit covariances and poverty-rate asymptotic variances.

The standardized weighted empirical processes converge to mean-zero
Gaussian processes whose covariance functions are determined by two
design constants ``mu1`` and ``mu2`` together with the sampling fraction
limit ``lam``.  This module evaluates those covariance forms, the
closed-form asymptotic variances of the poverty-rate estimators, and
their plug-in counterparts computed from a realized sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from . import estimation, population
from .errors import (
    DegenerateBandwidthError,
    ParameterError,
    ZeroDensityError,
)

CovarianceForm = Literal["HT_vs_FN", "HT_vs_F", "HJ_vs_FN", "HJ_vs_F"]

#: two-sided 95% normal quantile used for Wald intervals
Z_95 = 1.959964


@dataclass(frozen=True)
class DesignConstants:
    """Scalar constants of a design entering the limit covariances.

    ``lam``
        sampling fraction n/N.
    ``mu1``
        scaled mean of (1/pi_i - 1); always nonnegative.
    ``mu2``
        scaled sum of the pairwise inclusion ratios (pi_ij - pi_i pi_j)
        / (pi_i pi_j) over distinct pairs.
    ``d``
        sum of pi_i (1 - pi_i), the entropy scale of the design.

    The derived coefficients ``gamma1 = mu1 + lam`` and
    ``gamma2 = mu2 - lam`` drive the super-population-centered forms.
    """

    lam: float
    mu1: float
    mu2: float
    d: float = float("nan")

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0 + 1e-12:
            raise ParameterError(f"lam must lie in [0, 1], got {self.lam}")
        if self.mu1 < -1e-12:
            raise ParameterError(f"mu1 must be nonnegative, got {self.mu1}")

    @property
    def gamma1(self) -> float:
        return self.mu1 + self.lam

    @property
    def gamma2(self) -> float:
        return self.mu2 - self.lam


def limit_covariance(constants: DesignConstants, law: population.SuperPopulationLaw,
                     form: CovarianceForm, s: float, t: float) -> float:
    """Covariance of the limiting Gaussian process at (s, t).

    Forms: ``HT_vs_FN`` mu1 F(s^t) + mu2 F(s)F(t); ``HT_vs_F`` with
    (gamma1, gamma2) instead; ``HJ_vs_FN`` mu1 (F(s^t) - F(s)F(t));
    ``HJ_vs_F`` gamma1 (F(s^t) - F(s)F(t)).
    """
    fs = population.true_cdf(law, s)
    ft = population.true_cdf(law, t)
    fmin = population.true_cdf(law, min(s, t))
    if form == "HT_vs_FN":
        return constants.mu1 * fmin + constants.mu2 * fs * ft
    if form == "HT_vs_F":
        return constants.gamma1 * fmin + constants.gamma2 * fs * ft
    if form == "HJ_vs_FN":
        return constants.mu1 * (fmin - fs * ft)
    if form == "HJ_vs_F":
        return constants.gamma1 * (fmin - fs * ft)
    raise ParameterError(f"unknown covariance form {form!r}")


def limit_covariance_matrix(constants: DesignConstants, law: population.SuperPopulationLaw,
                            form: CovarianceForm, grid) -> np.ndarray:
    """Limit covariance evaluated on a grid; symmetric k x k matrix."""
    grid = np.asarray(grid, dtype=float)
    k = grid.size
    out = np.empty((k, k))
    for a in range(k):
        for b in range(a, k):
            out[a, b] = out[b, a] = limit_covariance(constants, law, form, grid[a], grid[b])
    return out


def _poverty_ingredients(law, alpha, beta):
    q = population.true_quantile(law, alpha)
    fq = population.true_density(law, q)
    if fq <= 0.0:
        raise ZeroDensityError(f"density vanishes at the {alpha}-quantile")
    ratio = population.true_density(law, beta * q) / fq
    phi = population.true_cdf(law, beta * q)
    return ratio, phi


def _poverty_variance(g1: float, g2: float, mode: Literal["HT", "HJ"], alpha: float,
                      br: float, phi: float) -> float:
    """The closed-form variance at rate ``phi``, with ``br`` beta times the
    density ratio f(beta q) / f(q); linear in gamma1 for mode "HJ"."""
    if mode == "HT":
        return (br * br * (g1 * alpha + g2 * alpha * alpha)
                + g1 * phi + g2 * phi * phi
                - 2.0 * br * phi * (g1 + g2 * alpha))
    return (br * br * g1 * alpha * (1.0 - alpha)
            + g1 * phi * (1.0 - phi)
            - 2.0 * br * phi * g1 * (1.0 - alpha))


def poverty_variance_ht(constants: DesignConstants, law: population.SuperPopulationLaw,
                        alpha: float, beta: float) -> float:
    """Asymptotic variance of sqrt(n) times the inverse-probability-weighted
    poverty rate error, for deterministic inclusion probabilities."""
    r, phi = _poverty_ingredients(law, alpha, beta)
    return _poverty_variance(constants.gamma1, constants.gamma2, "HT", alpha, beta * r, phi)


def poverty_variance_hj(constants: DesignConstants, law: population.SuperPopulationLaw,
                        alpha: float, beta: float) -> float:
    """Asymptotic variance of sqrt(n) times the self-normalized
    poverty rate error; linear in gamma1."""
    r, phi = _poverty_ingredients(law, alpha, beta)
    return _poverty_variance(constants.gamma1, constants.gamma2, "HJ", alpha, beta * r, phi)


def plugin_poverty_variance(draw, N: int, constants: DesignConstants,
                            alpha: float, beta: float,
                            mode: Literal["HT", "HJ"] = "HJ",
                            quantile_method: Literal["step", "interpolated"] = "step") -> float:
    """Variance estimate obtained by plugging the weighted empirical CDF,
    its quantile and a kernel density estimate into the closed form.

    All empirical ingredients come from the same mode: the HT variant
    uses the inverse-probability CDF normalized by N, the HJ variant the
    self-normalized CDF.  The design constants are supplied by the caller
    (they are known, not estimated).  ``quantile_method`` selects the
    generalized-inverse quantile ("step") or the interpolating rule used
    by the simulation protocol ("interpolated", evaluated by
    :func:`estimation.poverty_batch` on one draw); the bandwidth follows
    the same rule through the interquartile range.
    """
    if mode not in estimation.MODES:
        raise ParameterError(f"mode must be 'HT' or 'HJ', got {mode!r}")
    if quantile_method == "interpolated":
        batch = estimation.poverty_batch([draw], N, alpha, beta)
        k = estimation.MODES.index(mode)
        if (0, k) in batch.errors:
            raise batch.errors[0, k]
        if batch.flat[0, k]:
            raise DegenerateBandwidthError("weighted interquartile range is zero")
        phihat, densities = batch.phi[0, k], (batch.f_q[0, k], batch.f_bq[0, k])
    elif quantile_method == "step":
        f = (estimation.ht_ecdf if mode == "HT" else estimation.hajek_ecdf)(draw, N)
        qhat = estimation.weighted_quantile(f, alpha)
        phihat = float(f.evaluate(beta * qhat))
        densities = estimation.kde_density(draw, N, [qhat, beta * qhat], mode)
    else:
        raise ParameterError(f"unknown quantile method {quantile_method!r}")
    f_q, f_bq = densities
    if f_q <= 0.0:
        raise ZeroDensityError("estimated density vanishes at the quantile")
    return float(_poverty_variance(constants.gamma1, constants.gamma2, mode, alpha,
                                   beta * (f_bq / f_q), phihat))


def poverty_rate_estimates(draws, N: int, constants: DesignConstants,
                           alpha: float, beta: float) -> tuple:
    """Kernel of the simulation protocol: a batch of draws, both modes.

    For "HT" and "HJ": the poverty-rate estimate and its plug-in variance,
    with the interpolating quantile rule for the estimate, the bandwidth
    and the density points (:func:`estimation.poverty_batch`).  A draw in
    which every response is identical yields a legitimate zero variance
    (zero-width interval) rather than a bandwidth failure.

    Returns ``(phi, av, errors)``: (S, 2) arrays with one row per draw and
    the columns ``estimation.MODES``, and a dict mapping each cell
    ``(j, k)`` that cannot be evaluated to the :class:`EstimationError` it
    raised; such cells hold 0.0 in both arrays.  Other errors propagate.
    """
    batch = estimation.poverty_batch(draws, N, alpha, beta)
    errors = dict(batch.errors)
    for j, k in np.argwhere(batch.f_q <= 0.0).tolist():
        errors[j, k] = ZeroDensityError("estimated density vanishes at the quantile")
    with np.errstate(all="ignore"):
        # cells without densities are evaluated too, and replaced below
        br = beta * (batch.f_bq / batch.f_q)
        av = np.stack([_poverty_variance(constants.gamma1, constants.gamma2, mode, alpha,
                                         br[:, k], batch.phi[:, k])
                       for k, mode in enumerate(estimation.MODES)], axis=1)
    av[batch.flat] = 0.0
    phi = batch.phi.copy()
    for cell in errors:
        phi[cell] = av[cell] = 0.0
    return phi, av, errors


def wald_interval(estimate, variance_of_root_n, n: float) -> tuple:
    """95% Wald interval for an estimate whose sqrt(n)-scaled error has the
    given asymptotic variance; elementwise for arrays of estimates and
    variances."""
    if np.any(variance_of_root_n < 0.0) or n <= 0.0:
        raise ParameterError("need nonnegative variance and positive n")
    half = Z_95 * np.sqrt(variance_of_root_n / n)
    return (estimate - half, estimate + half)
