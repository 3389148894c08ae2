"""Limit covariances and poverty-rate asymptotic variances.

The standardized weighted empirical processes converge to mean-zero
Gaussian processes whose covariance functions are determined by two
design constants ``mu1`` and ``mu2`` together with the sampling fraction
limit ``lam``.  :func:`covariance` holds the algebra of the four forms
(:data:`CovarianceForm`) at given CDF values; the limit covariance takes
it at the model CDF.  The poverty rate phi(F) = F(beta F^{-1}(alpha)) has
the Hadamard derivative h -> h(beta q) - br h(q), br = beta f(beta q) / f(q),
so every variance of its estimators is w'Cw with w = (1, -br) on the
points (beta q, q) (:func:`derivative_variance`): the model variance
at the model values, and the plug-in variance of
:func:`estimation.poverty_rate_estimates` at the estimated ones.  The
module names the two estimators (:data:`MODES`) for the modules above
it; it imports no svycdf module but ``population`` and ``errors``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, get_args

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


def covariance(constants: DesignConstants, form: CovarianceForm, f_min, f_s, f_t):
    """The covariance algebra of every form at the CDF values F(s^t), F(s)
    and F(t), elementwise for arrays that broadcast.

    ``HT_*`` is c1 F(s^t) + c2 F(s)F(t) and ``HJ_*`` is c1 (F(s^t) - F(s)F(t)),
    with (c1, c2) = (mu1, mu2) for ``*_vs_FN`` and (gamma1, gamma2) for
    ``*_vs_F``; the product F(s)F(t) is formed first, so C(s, t) and
    C(t, s) agree bit for bit.  ``form`` is checked before any arithmetic.
    """
    if form not in get_args(CovarianceForm):
        raise ParameterError(f"unknown covariance form {form!r}")
    mode, centering = form.split("_vs_")
    c1, c2 = ((constants.mu1, constants.mu2) if centering == "FN"
              else (constants.gamma1, constants.gamma2))
    if mode == "HT":
        return c1 * f_min + c2 * (f_s * f_t)
    return c1 * (f_min - f_s * f_t)


def limit_covariance(constants: DesignConstants, law: population.SuperPopulationLaw,
                     form: CovarianceForm, s, t):
    """Covariance of the limiting Gaussian process at (s, t): the
    :func:`covariance` of ``form`` at the model CDF, elementwise for arrays
    that broadcast (``grid[:, None]`` and ``grid[None, :]`` give the
    symmetric matrix on a grid)."""
    return covariance(constants, form, population.true_cdf(law, np.minimum(s, t)),
                      population.true_cdf(law, s), population.true_cdf(law, t))


def derivative_variance(constants: DesignConstants, mode: Literal["HT", "HJ"], alpha,
                        br, phi):
    """w'Cw: the ``{mode}_vs_F`` covariance contracted along the derivative
    direction w = (1, -br) on the points (beta q, q), whose CDF values are
    (``phi``, ``alpha``); ``br`` is beta f(beta q) / f(q).  Elementwise for
    arrays that broadcast.  F(beta q ^ q) is taken as ``phi``, as it is for
    q >= 0 and beta <= 1."""
    if mode not in MODES:
        raise ParameterError(f"mode must be 'HT' or 'HJ', got {mode!r}")
    form = f"{mode}_vs_F"
    return (covariance(constants, form, phi, phi, phi)
            - 2.0 * br * covariance(constants, form, phi, phi, alpha)
            + br * br * covariance(constants, form, alpha, alpha, alpha))


def _poverty_ingredients(law, alpha, beta):
    """The model rate phi = F(beta q) and br = beta f(beta q) / f(q); beta
    is checked by :func:`population.true_poverty_rate`."""
    phi = population.true_poverty_rate(law, alpha, beta)
    q = population.true_quantile(law, alpha)
    fq = population.true_density(law, q)
    if fq <= 0.0:
        raise ZeroDensityError(f"density vanishes at the {alpha}-quantile")
    return phi, beta * (population.true_density(law, beta * q) / fq)


def poverty_variance(constants: DesignConstants, law: population.SuperPopulationLaw,
                     alpha: float, beta: float, mode: Literal["HT", "HJ"]) -> float:
    """Asymptotic variance of sqrt(n) times the poverty-rate error of the
    inverse-probability-weighted ("HT") or self-normalized ("HJ")
    estimator, for deterministic inclusion probabilities: the
    :func:`derivative_variance` at the model rate and density ratio; linear
    in gamma1 for "HJ"."""
    phi, br = _poverty_ingredients(law, alpha, beta)
    return derivative_variance(constants, mode, alpha, br, phi)


def wald_interval(estimate, variance_of_root_n, n: float) -> tuple:
    """95% Wald interval for an estimate whose sqrt(n)-scaled error has the
    given asymptotic variance; elementwise for arrays of estimates and
    variances."""
    if np.any(variance_of_root_n < 0.0) or n <= 0.0:
        raise ParameterError("need nonnegative variance and positive n")
    half = Z_95 * np.sqrt(variance_of_root_n / n)
    return (estimate - half, estimate + half)
