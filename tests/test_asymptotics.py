"""Limit covariances, poverty-rate variances and plug-in estimators."""

import itertools

import numpy as np
import pytest

from svycdf import asymptotics as asy
from svycdf import designs as dsg
from svycdf import estimation as est
from svycdf import population as pop
from svycdf.errors import ParameterError
from svycdf.streams import substream

import step_reference as ref

EXP1 = pop.SuperPopulationLaw.exponential(1.0)


def constants(lam, mu1, mu2):
    return asy.DesignConstants(lam=lam, mu1=mu1, mu2=mu2)


class TestDesignConstantsType:
    def test_gamma_identities(self):
        c = constants(0.3, 0.8, -0.2)
        assert c.gamma1 == pytest.approx(1.1)
        assert c.gamma2 == pytest.approx(-0.5)

    def test_negative_mu1_rejected(self):
        with pytest.raises(ParameterError):
            constants(0.3, -0.1, 0.0)


class TestLimitCovariance:
    def test_bridge_diagonal(self):
        c = constants(0.0, 1.0, 0.0)
        t = pop.true_quantile(EXP1, 0.5)
        assert asy.limit_covariance(c, EXP1, "HJ_vs_FN", t, t) == pytest.approx(0.25)

    def test_srswor_half_diagonal(self):
        c = constants(0.5, 0.5, -0.5)
        t = pop.true_quantile(EXP1, 0.5)
        # 0.5 * 0.5 - 0.5 * 0.25
        assert asy.limit_covariance(c, EXP1, "HT_vs_FN", t, t) == pytest.approx(0.125)

    def test_vanishes_where_cdf_is_zero(self):
        c = constants(0.2, 0.7, -0.1)
        for form in ("HT_vs_FN", "HT_vs_F", "HJ_vs_FN", "HJ_vs_F"):
            assert asy.limit_covariance(c, EXP1, form, -1.0, 2.0) == pytest.approx(0.0)

    def test_matrix_is_the_pointwise_covariance(self):
        # F(s)F(t) is formed before it is scaled, so C(s, t) == C(t, s) bitwise
        c = constants(0.2, 0.7, -0.3)
        grid = np.sort(substream(42).uniform(0.05, 3.0, 6))
        for form in ("HT_vs_FN", "HT_vs_F", "HJ_vs_FN", "HJ_vs_F"):
            mat = asy.limit_covariance(c, EXP1, form, grid[:, None], grid[None, :])
            for a in range(grid.size):
                for b in range(grid.size):
                    assert mat[a, b] == asy.limit_covariance(c, EXP1, form, grid[a], grid[b])

    def test_matrix_symmetric_psd(self):
        rng = substream(41)
        grid = np.sort(rng.uniform(0.05, 3.0, 8))
        for lam, mu1 in [(0.0, 1.0), (0.3, 0.5), (0.1, 2.0)]:
            c = constants(lam, mu1, -lam * mu1)
            for form in ("HT_vs_FN", "HT_vs_F", "HJ_vs_FN", "HJ_vs_F"):
                mat = asy.limit_covariance(c, EXP1, form, grid[:, None], grid[None, :])
                assert np.array_equal(mat, mat.T)
                assert np.linalg.eigvalsh(mat).min() >= -1e-10


def expansion_terms(g1, g2, mode, alpha, br, phi):
    """The three terms of the hand expansion of the poverty-rate variance
    that the contraction replaced; their sum, in this order, is the old
    value."""
    if mode == "HT":
        return (br * br * (g1 * alpha + g2 * alpha * alpha), g1 * phi + g2 * phi * phi,
                -2.0 * br * phi * (g1 + g2 * alpha))
    return (br * br * g1 * alpha * (1.0 - alpha), g1 * phi * (1.0 - phi),
            -2.0 * br * phi * g1 * (1.0 - alpha))


class TestPovertyVariances:
    @pytest.mark.parametrize("mode", ["HT", "HJ"])
    def test_contraction_matches_hand_expansion(self, mode):
        """w'Cw against the hand expansion, on a grid of (lam, mu1, mu2) with
        mu2 = lam - 1, 0, a rejective-like -0.97 and 0.5, and on arrays of
        (alpha, phi <= alpha, br) as the kernel passes them.

        The two differ by rounding only.  The bound is relative to the
        largest monomial of the expanded form (c1 br^2 alpha, c2 br^2
        alpha^2, c1 phi, c2 phi^2, 2 c1 br phi, 2 c2 br phi alpha, with
        c2 = -c1 for "HJ"), since the result itself cancels: measured gaps
        9.2e-16 ("HT") and 7.5e-16 ("HJ"), bound 2e-15.
        """
        rng = substream(61)
        for lam, mu1 in itertools.product((0.0, 0.05, 0.3, 0.9, 1.0), (0.0, 0.4, 1.0, 3.0)):
            for mu2 in (lam - 1.0, 0.0, -0.97, 0.5):
                c = constants(lam, mu1, mu2)
                g1, g2 = c.gamma1, (c.gamma2 if mode == "HT" else -c.gamma1)
                for alpha in (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0):
                    phi = alpha * np.r_[0.0, rng.uniform(0.0, 1.0, 200), 1.0]
                    br = rng.uniform(0.0, 3.0, phi.size)
                    got = asy.derivative_variance(c, mode, alpha, br, phi)
                    expected = sum(expansion_terms(c.gamma1, c.gamma2, mode, alpha, br, phi))
                    monomials = [br * br * g1 * alpha, br * br * g2 * alpha * alpha, g1 * phi,
                                 g2 * phi * phi, 2.0 * br * g1 * phi, 2.0 * br * g2 * phi * alpha]
                    scale = np.max(np.abs(np.broadcast_arrays(*monomials)), axis=0)
                    assert np.all(np.abs(got - expected) <= 2e-15 * scale)

    @pytest.mark.parametrize("beta", [1.5, 0.0, -1.0, float("nan")])
    def test_beta_outside_unit_interval_rejected(self, beta):
        # beta = 1.5 gave a negative variance, 0 and -1 gave 0.0, NaN gave NaN
        with pytest.raises(ParameterError, match="scale beta must lie in"):
            asy.poverty_variance(constants(0.05, 0.95, -0.05), EXP1, 0.5, beta, "HT")

    def test_ht_closed_form_value(self):
        # frozen from the exponential closed forms with gamma1=1, gamma2=0
        c = constants(0.0, 1.0, 0.0)
        assert asy.poverty_variance(c, EXP1, 0.5, 0.6, "HT") == pytest.approx(
            0.11489543042803352, abs=1e-12)

    def test_hj_closed_form_value(self):
        c = constants(0.0, 1.0, 0.0)
        assert asy.poverty_variance(c, EXP1, 0.5, 0.6, "HJ") == pytest.approx(
            0.11180336664562535, abs=1e-12)

    def test_si_coincidence(self):
        # with (gamma, -gamma) the two formulas agree for every alpha, beta
        for gamma in (0.5, 1.0, 1.7):
            ht_c = constants(gamma / 2, gamma / 2, -gamma / 2)
            for alpha in np.linspace(0.1, 0.9, 9):
                for beta in np.linspace(0.1, 0.9, 9):
                    ht = asy.poverty_variance(ht_c, EXP1, alpha, beta, "HT")
                    hj = asy.poverty_variance(ht_c, EXP1, alpha, beta, "HJ")
                    assert ht == pytest.approx(hj, abs=1e-12)

    def test_hj_linear_in_gamma1(self):
        base = asy.poverty_variance(constants(0.0, 1.0, 0.0), EXP1, 0.4, 0.7, "HJ")
        scaled = asy.poverty_variance(constants(0.0, 3.0, 0.0), EXP1, 0.4, 0.7, "HJ")
        assert scaled == pytest.approx(3.0 * base, rel=1e-12)

    def test_beta_one_cancels_exactly(self):
        c = constants(0.1, 0.9, -0.3)
        assert asy.poverty_variance(c, EXP1, 0.5, 1.0, "HJ") == pytest.approx(0.0, abs=1e-12)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ParameterError):
            asy.poverty_variance(constants(0.0, 1.0, 0.0), EXP1, 0.5, 0.6, "XX")

    def test_scale_equivariance(self):
        # scaling the responses by c > 0 changes neither variance formula
        a = asy.poverty_variance(constants(0.05, 0.95, 0.0), EXP1, 0.5, 0.6, "HJ")
        b = asy.poverty_variance(constants(0.05, 0.95, 0.0),
                                 pop.SuperPopulationLaw.exponential(2.0), 0.5, 0.6, "HJ")
        assert a == pytest.approx(b, rel=1e-12)
        a = asy.poverty_variance(constants(0.05, 0.95, -0.05), EXP1, 0.5, 0.6, "HT")
        b = asy.poverty_variance(constants(0.05, 0.95, -0.05),
                                 pop.SuperPopulationLaw.exponential(0.25), 0.5, 0.6, "HT")
        assert a == pytest.approx(b, rel=1e-12)

    def test_vanishes_for_small_alpha(self):
        c = constants(0.0, 1.0, 0.0)
        values = [asy.poverty_variance(c, EXP1, alpha, 0.6, "HT")
                  for alpha in (0.2, 0.1, 0.01, 1e-4, 1e-6)]
        assert all(v >= 0.0 for v in values)
        assert np.all(np.diff(values) < 0)
        assert values[-1] < 1e-4

    def test_hj_is_variance_of_derivative(self):
        # sigma^2_HJ equals the quadratic form of the directional-derivative
        # coefficients under the model-centered bridge covariance
        c = constants(0.2, 0.8, -0.1)
        alpha, beta = 0.5, 0.6
        q = pop.true_quantile(EXP1, alpha)
        r = pop.true_density(EXP1, beta * q) / pop.true_density(EXP1, q)
        grid = np.array([beta * q, q])
        cov = asy.limit_covariance(c, EXP1, "HJ_vs_F", grid[:, None], grid[None, :])
        coeff = np.array([1.0, -beta * r])
        assert coeff @ cov @ coeff == pytest.approx(
            asy.poverty_variance(c, EXP1, alpha, beta, "HJ"), rel=1e-12)


class TestPluginVariance:
    def test_census_matches_direct_formula(self):
        law = EXP1
        popu = pop.generate_population(law, 60, seed=51)
        draw = dsg.draw(dsg.poisson(np.ones(60)), [substream(52)], popu)
        c = constants(1.0, 0.0, -1.0)   # gamma1 = 1, gamma2 = -2 not used by HJ
        alpha, beta = 0.5, 0.6
        phi, av, errors = est.poverty_rate_estimates(draw, 60, c, alpha, beta)
        assert not errors
        # a census has equal weights: type-7 quantiles, a plain kernel density
        y = draw.y
        q, q25, q75 = np.quantile(y, [alpha, 0.25, 0.75])
        h = 0.79 * (q75 - q25) * 60 ** (-0.2)
        z = (np.array([[q], [beta * q]]) - y) / h
        f_q, f_bq = np.exp(-0.5 * z * z).sum(axis=1) / (np.sqrt(2 * np.pi) * 60 * h)
        phihat, br = np.mean(y <= beta * q), beta * f_bq / f_q
        assert phi[0, 1] == pytest.approx(phihat, rel=1e-12)
        expected = (br * br * 1.0 * alpha * (1 - alpha)
                    + phihat * (1 - phihat) - 2 * br * phihat * (1 - alpha))
        assert av[0, 1] == pytest.approx(expected, rel=1e-12)

    def test_modes_use_matching_ecdf(self):
        law = EXP1
        popu = pop.generate_population(law, 400, seed=53)
        design = dsg.poisson(substream(54).uniform(0.2, 0.9, 400))
        draw = dsg.draw(design, [substream(55)], popu)
        c = dsg.design_constants(design)
        _, av, errors = est.poverty_rate_estimates(draw, 400, c, 0.5, 0.6)
        assert not errors
        ht, hj = av[0]
        assert ht != hj
        assert ht > 0.0 and hj > 0.0

    def test_hj_plugin_nonnegative(self):
        # the HJ form is a bridge variance, so the plug-in stays nonnegative
        law = EXP1
        c = dsg.design_constants(dsg.srswor(200, 40))
        draws = ref.stack([dsg.draw(dsg.srswor(200, 40), [substream(seed, 7)],
                                    pop.generate_population(law, 200, seed=seed))
                           for seed in range(30)])
        _, av, errors = est.poverty_rate_estimates(draws, 200, c, 0.5, 0.6)
        assert not errors
        assert np.all(av[:, 1] >= -1e-12)


class TestWaldInterval:
    def test_width(self):
        lo, hi = asy.wald_interval(0.34, 0.1148954, 500)
        half = 1.959964 * np.sqrt(0.1148954 / 500)
        assert hi - lo == pytest.approx(2 * half, rel=1e-12)
        assert (lo + hi) / 2 == pytest.approx(0.34)

    def test_zero_variance_gives_point(self):
        lo, hi = asy.wald_interval(0.5, 0.0, 100)
        assert lo == hi == 0.5
