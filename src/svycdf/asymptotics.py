"""Limit covariances and poverty-rate asymptotic variances.

The standardized weighted empirical processes converge to mean-zero
Gaussian processes whose covariance functions are determined by two
design constants ``mu1`` and ``mu2`` together with the sampling fraction
limit ``lam``.  This module evaluates those covariance forms on grids
and the closed-form asymptotic variances of the poverty-rate estimators.
It names the two estimators (:data:`MODES`) and the four covariance forms
(:data:`CovarianceForm`) for the modules above it, and holds the variance
formula that :func:`estimation.poverty_rate_estimates` applies to a batch
of realized samples; it imports no svycdf module but ``population`` and
``errors``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from . import population
from .errors import ParameterError, ZeroDensityError

#: the inverse-probability ("HT") and self-normalized ("HJ") estimators
MODES = ("HT", "HJ")

#: an estimator of MODES and its centering: the population empirical CDF
#: (``*_vs_FN``) or the model CDF (``*_vs_F``)
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

    The derived coefficients ``gamma1 = mu1 + lam`` and
    ``gamma2 = mu2 - lam`` drive the super-population-centered forms.
    """

    lam: float
    mu1: float
    mu2: float

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
    """Covariance of the limiting Gaussian process at (s, t), elementwise
    for arrays that broadcast.

    Forms: ``HT_vs_FN`` mu1 F(s^t) + mu2 F(s)F(t); ``HT_vs_F`` with
    (gamma1, gamma2) instead; ``HJ_vs_FN`` mu1 (F(s^t) - F(s)F(t));
    ``HJ_vs_F`` gamma1 (F(s^t) - F(s)F(t)).
    """
    fs = population.true_cdf(law, s)
    ft = population.true_cdf(law, t)
    fmin = population.true_cdf(law, np.minimum(s, t))
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
    # the upper triangle, (s, t) = (grid[a], grid[b]) with a <= b, mirrored
    upper = np.triu(limit_covariance(constants, law, form, grid[:, None], grid[None, :]))
    return upper + np.triu(upper, 1).T


def _poverty_ingredients(law, alpha, beta):
    q = population.true_quantile(law, alpha)
    fq = population.true_density(law, q)
    if fq <= 0.0:
        raise ZeroDensityError(f"density vanishes at the {alpha}-quantile")
    ratio = population.true_density(law, beta * q) / fq
    phi = population.true_cdf(law, beta * q)
    return ratio, phi


def poverty_variance_form(g1: float, g2: float, mode: Literal["HT", "HJ"], alpha: float,
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


def poverty_variance(constants: DesignConstants, law: population.SuperPopulationLaw,
                     alpha: float, beta: float, mode: Literal["HT", "HJ"]) -> float:
    """Asymptotic variance of sqrt(n) times the poverty-rate error of the
    inverse-probability-weighted ("HT") or self-normalized ("HJ")
    estimator, for deterministic inclusion probabilities; linear in gamma1
    for "HJ"."""
    if mode not in MODES:
        raise ParameterError(f"mode must be 'HT' or 'HJ', got {mode!r}")
    r, phi = _poverty_ingredients(law, alpha, beta)
    return poverty_variance_form(constants.gamma1, constants.gamma2, mode, alpha, beta * r, phi)


def wald_interval(estimate, variance_of_root_n, n: float) -> tuple:
    """95% Wald interval for an estimate whose sqrt(n)-scaled error has the
    given asymptotic variance; elementwise for arrays of estimates and
    variances."""
    if np.any(variance_of_root_n < 0.0) or n <= 0.0:
        raise ParameterError("need nonnegative variance and positive n")
    half = Z_95 * np.sqrt(variance_of_root_n / n)
    return (estimate - half, estimate + half)
