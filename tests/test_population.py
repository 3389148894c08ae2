"""Population generation and closed-form law quantities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svycdf.errors import ParameterError
from svycdf.population import (
    SuperPopulationLaw,
    generate_population,
    true_cdf,
    true_density,
    true_poverty_rate,
    true_quantile,
)

EXP1 = SuperPopulationLaw.exponential(1.0)
UNIF = SuperPopulationLaw.uniform01()
COIN = SuperPopulationLaw.discrete([1.0, 2.0], [0.5, 0.5])


class TestGeneratePopulation:
    def test_point_mass(self):
        popu = generate_population(SuperPopulationLaw.discrete([5.0], [1.0]), 3, seed=123)
        assert np.array_equal(popu, [5.0, 5.0, 5.0])

    def test_exponential_mean_band(self):
        # CLT band: mean of 10^4 Exp(1) draws within 5 sigma of 1
        popu = generate_population(EXP1, 10_000, seed=1)
        assert 0.95 <= popu.mean() <= 1.05

    def test_uniform_support(self):
        popu = generate_population(UNIF, 4, seed=7)
        assert np.all((popu >= 0.0) & (popu < 1.0))

    def test_bitwise_reproducible(self):
        a = generate_population(EXP1, 50, seed=99)
        b = generate_population(EXP1, 50, seed=99)
        c = generate_population(EXP1, 50, seed=100)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_invalid_size(self):
        with pytest.raises(ParameterError):
            generate_population(EXP1, 0, seed=1)

    @pytest.mark.parametrize("law", [EXP1, UNIF, COIN], ids=["exponential", "uniform01",
                                                           "discrete"])
    def test_responses_are_read_only(self, law):
        # draws gather from the responses, and no kernel may write them
        y = generate_population(law, 7, seed=3)
        assert y.shape == (7,) and y.dtype == np.float64
        assert not y.flags.writeable
        with pytest.raises(ValueError):
            y[0] = 1.0


class TestLawValidation:
    def test_bad_rate(self):
        with pytest.raises(ParameterError):
            SuperPopulationLaw.exponential(0.0)

    def test_bad_masses(self):
        with pytest.raises(ParameterError):
            SuperPopulationLaw.discrete([1.0, 2.0], [0.5, 0.6])

    def test_unsorted_points(self):
        with pytest.raises(ParameterError):
            SuperPopulationLaw.discrete([2.0, 1.0], [0.5, 0.5])

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            SuperPopulationLaw(kind="cauchy")


class TestCdf:
    def test_exponential_median(self):
        assert true_cdf(EXP1, math.log(2.0)) == pytest.approx(0.5, abs=1e-15)

    def test_left_tail_is_zero(self):
        for law in (EXP1, UNIF, COIN):
            assert true_cdf(law, -1e308) == 0.0

    def test_discrete_right_continuity(self):
        assert true_cdf(COIN, 1.0) == 0.5
        assert true_cdf(COIN, 1.0 - 1e-9) == 0.0
        assert true_cdf(COIN, 2.0) == 1.0

    def test_vectorized(self):
        grid = np.array([-1.0, 0.0, 1.0, 2.0])
        vals = true_cdf(EXP1, grid)
        assert vals.shape == grid.shape
        assert np.all(np.diff(vals) >= 0)

    @given(st.sampled_from(["exponential", "uniform01", "discrete"]),
           st.floats(min_value=-50, max_value=50))
    @settings(max_examples=200, deadline=None)
    def test_bounded_monotone(self, kind, t):
        law = {"exponential": EXP1, "uniform01": UNIF, "discrete": COIN}[kind]
        v = true_cdf(law, t)
        assert 0.0 <= v <= 1.0
        assert true_cdf(law, t + 0.5) >= v

    def test_bounded_monotone_dense_grid(self):
        grid = np.linspace(-20.0, 20.0, 1000)
        for law in (EXP1, UNIF, COIN, SuperPopulationLaw.exponential(0.3)):
            vals = true_cdf(law, grid)
            assert np.all((vals >= 0.0) & (vals <= 1.0))
            assert np.all(np.diff(vals) >= 0.0)


class TestQuantile:
    def test_exponential_median(self):
        assert true_quantile(EXP1, 0.5) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_uniform(self):
        assert true_quantile(UNIF, 0.25) == 0.25

    def test_discrete_inf_definition(self):
        # F(1) = 0.5 >= 0.5, so the generalized inverse picks the lower atom
        assert true_quantile(COIN, 0.5) == 1.0
        assert true_quantile(COIN, 0.500001) == 2.0

    def test_roundtrip_continuous(self):
        for law in (EXP1, UNIF, SuperPopulationLaw.exponential(3.5)):
            for alpha in np.arange(0.01, 1.0, 0.01):
                assert abs(true_cdf(law, true_quantile(law, alpha)) - alpha) <= 1e-12

    def test_bad_level(self):
        with pytest.raises(ParameterError):
            true_quantile(EXP1, 0.0)
        with pytest.raises(ParameterError):
            true_quantile(EXP1, 1.0)


class TestDensity:
    def test_exponential(self):
        assert true_density(EXP1, 0.0) == 1.0
        assert true_density(EXP1, 1.0) == pytest.approx(math.exp(-1.0))
        assert true_density(EXP1, -0.5) == 0.0

    def test_uniform(self):
        assert true_density(UNIF, 0.5) == 1.0
        assert true_density(UNIF, 1.5) == 0.0

    def test_discrete_has_none(self):
        with pytest.raises(ParameterError):
            true_density(COIN, 1.0)


class TestPovertyRate:
    def test_exponential_closed_form(self):
        # F(beta F^{-1}(alpha)) = 1 - (1-alpha)^beta for the exponential law
        assert true_poverty_rate(EXP1, 0.5, 0.6) == pytest.approx(
            1.0 - 2.0 ** (-0.6), abs=1e-14)
        assert true_poverty_rate(EXP1, 0.5, 0.6) == pytest.approx(0.3402460446135529,
                                                                  abs=1e-12)

    def test_beta_one_recovers_alpha(self):
        for alpha in (0.1, 0.5, 0.9):
            assert true_poverty_rate(EXP1, alpha, 1.0) == pytest.approx(alpha, abs=1e-12)

    def test_uniform(self):
        assert true_poverty_rate(UNIF, 0.5, 0.5) == pytest.approx(0.25, abs=1e-15)

    def test_rate_invariance(self):
        # the exponential closed form does not involve the rate
        assert true_poverty_rate(SuperPopulationLaw.exponential(4.2), 0.5, 0.6) == \
            pytest.approx(true_poverty_rate(EXP1, 0.5, 0.6), abs=1e-14)
