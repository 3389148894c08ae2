"""Weighted ECDFs, quantiles, poverty rate, KDE and process paths."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svycdf import designs as dsg
from svycdf import estimation as est
from svycdf import population as pop
from svycdf.errors import (
    DegenerateBandwidthError,
    EstimationError,
    ParameterError,
    QuantileUndefinedError,
    ZeroDensityError,
)
from svycdf.streams import substream


def make_draw(y_values, pi_values, N, expected_n=None):
    """Hand-built draw: the first len(y_values) units are included."""
    y_values = np.asarray(y_values, dtype=float)
    pi_values = np.asarray(pi_values, dtype=float)
    k = y_values.size
    indicators = np.zeros(N, dtype=bool)
    indicators[:k] = True
    return dsg.SampleDraw(
        indicators=indicators,
        included=np.arange(k),
        pi_included=pi_values,
        expected_n=float(expected_n if expected_n is not None else pi_values.sum()),
        y_included=y_values,
    )


class TestWeightedStepFunction:
    def test_tie_merging(self):
        f = est.WeightedStepFunction.from_weighted_points([2.0, 1.0, 2.0], [0.2, 0.3, 0.5])
        assert np.array_equal(f.locations, [1.0, 2.0])
        assert np.allclose(f.cumulative, [0.3, 1.0])

    def test_right_continuity(self):
        f = est.WeightedStepFunction.from_weighted_points([1.0, 2.0], [0.5, 0.5])
        assert f.evaluate(1.0) == 0.5
        assert f.evaluate(1.0 - 1e-12) == 0.0
        assert f.evaluate(0.0) == 0.0
        assert f.evaluate(3.0) == 1.0

    def test_vectorized_evaluation(self):
        f = est.WeightedStepFunction.from_weighted_points([1.0, 2.0, 3.0], [1, 1, 1])
        vals = f.evaluate(np.array([0.5, 1.5, 3.5]))
        assert np.allclose(vals, [0.0, 1.0, 3.0])

    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=30),
           st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=100, deadline=None)
    def test_nondecreasing_property(self, values, seed):
        weights = substream(seed).uniform(0.0, 2.0, size=len(values))
        f = est.WeightedStepFunction.from_weighted_points(values, weights)
        grid = np.linspace(min(values) - 1, max(values) + 1, 50)
        out = f.evaluate(grid)
        assert np.all(np.diff(out) >= -1e-12)
        assert out[-1] == pytest.approx(f.total_mass, abs=1e-12)


class TestHtEcdf:
    def test_census_equals_unweighted(self):
        y = np.array([3.0, 1.0, 2.0, 5.0])
        draw = make_draw(y, np.ones(4), N=4)
        f = est.ht_ecdf(draw, 4)
        assert f.total_mass == pytest.approx(1.0, abs=1e-15)
        assert f.evaluate(2.0) == pytest.approx(0.5)

    def test_single_unit(self):
        draw = make_draw([3.0], [0.5], N=2)
        f = est.ht_ecdf(draw, 2)
        assert f.evaluate(3.0) == pytest.approx(1.0)   # 1/(2 * 0.5)
        assert f.evaluate(2.9) == 0.0

    def test_hand_evaluation(self):
        # two included units with pi = 0.5 out of N = 4: each jump 1/(4*0.5)
        draw = make_draw([1.0, 2.0], [0.5, 0.5], N=4, expected_n=2)
        f = est.ht_ecdf(draw, 4)
        assert f.evaluate(1.5) == pytest.approx(0.5)
        assert f.evaluate(2.0) == pytest.approx(1.0)

    def test_total_mass_is_nhat_over_n(self):
        draw = make_draw([1.0, 2.0, 3.0], [0.25, 0.5, 0.75], N=10)
        f = est.ht_ecdf(draw, 10)
        assert f.total_mass == pytest.approx(draw.n_hat() / 10.0, rel=1e-15)

    def test_requires_values(self):
        bare = dsg.draw(dsg.srswor(5, 2), substream(0))
        with pytest.raises(EstimationError):
            est.ht_ecdf(bare, 5)


class TestHajekEcdf:
    def test_total_mass_exactly_one(self):
        rng = substream(1)
        draw = make_draw(rng.normal(size=7), rng.uniform(0.1, 0.9, 7), N=20)
        assert est.hajek_ecdf(draw, 20).total_mass == 1.0

    def test_equal_pi_equals_unweighted(self):
        draw = make_draw([4.0, 1.0, 3.0], np.full(3, 0.3), N=10)
        f = est.hajek_ecdf(draw, 10)
        assert f.evaluate(1.0) == pytest.approx(1.0 / 3.0)
        assert f.evaluate(3.5) == pytest.approx(2.0 / 3.0)

    def test_unequal_weights(self):
        draw = make_draw([1.0, 2.0], [0.2, 0.8], N=5)
        f = est.hajek_ecdf(draw, 5)
        assert f.evaluate(1.0) == pytest.approx(0.8)   # 5 / (5 + 1.25)

    def test_empty_sample_errors(self):
        empty = dsg.SampleDraw(indicators=np.zeros(4, dtype=bool),
                               included=np.array([], dtype=int),
                               pi_included=np.array([]), expected_n=1.0,
                               y_included=np.array([]))
        with pytest.raises(EstimationError):
            est.hajek_ecdf(empty, 4)


class TestWeightedQuantile:
    def test_inf_definition(self):
        f = est.WeightedStepFunction.from_weighted_points(
            [1.0, 2.0, 3.0], np.full(3, 1.0 / 3.0), total_mass=1.0)
        # F(1) = 1/3 < 0.5 <= F(2)
        assert est.weighted_quantile(f, 0.5) == 2.0

    def test_level_one_hits_last_jump(self):
        f = est.WeightedStepFunction.from_weighted_points(
            [1.0, 2.0, 3.0], np.full(3, 1.0 / 3.0), total_mass=1.0)
        assert est.weighted_quantile(f, 1.0) == 3.0

    def test_atom_boundary(self):
        f = est.WeightedStepFunction.from_weighted_points([1.0, 2.0], [0.5, 0.5])
        assert est.weighted_quantile(f, 0.5) == 1.0

    def test_mass_deficit_errors(self):
        f = est.WeightedStepFunction.from_weighted_points([1.0, 2.0], [0.45, 0.45])
        with pytest.raises(QuantileUndefinedError):
            est.weighted_quantile(f, 0.95)

    def test_interpolated_matches_type7_for_equal_weights(self):
        rng = substream(71)
        y = rng.normal(size=23)
        f = est.WeightedStepFunction.from_weighted_points(
            y, np.full(23, 1.0 / 23.0), total_mass=1.0)
        for alpha in (0.1, 0.25, 0.5, 0.9):
            got = est.interpolated_weighted_quantile(f, alpha, 23)
            assert got == pytest.approx(np.quantile(y, alpha), abs=1e-12)

    def test_interpolated_clamps_at_mass_deficit(self):
        f = est.WeightedStepFunction.from_weighted_points([1.0, 2.0], [0.45, 0.45])
        assert est.interpolated_weighted_quantile(f, 0.95, 2) == 2.0

    @given(st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=60, deadline=None)
    def test_interpolated_monotone_and_bracketed(self, seed):
        rng = substream(seed)
        weights = rng.uniform(0.05, 1.0, 9)
        f = est.WeightedStepFunction.from_weighted_points(
            rng.normal(size=9), weights / weights.sum(), total_mass=1.0)
        levels = np.linspace(0.02, 1.0, 25)
        qs = [est.interpolated_weighted_quantile(f, a, 9) for a in levels]
        assert np.all(np.diff(qs) >= -1e-12)
        assert f.locations[0] <= min(qs) and max(qs) <= f.locations[-1]

    def test_bad_level(self):
        f = est.WeightedStepFunction.from_weighted_points([1.0], [1.0])
        with pytest.raises(ParameterError):
            est.weighted_quantile(f, 0.0)

    @given(st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=60, deadline=None)
    def test_nondecreasing_in_level(self, seed):
        rng = substream(seed)
        weights = rng.uniform(0.05, 1.0, 8)
        f = est.WeightedStepFunction.from_weighted_points(
            rng.normal(size=8), weights / weights.sum(), total_mass=1.0)
        levels = np.linspace(0.05, 1.0, 20)
        qs = [est.weighted_quantile(f, a) for a in levels]
        assert np.all(np.diff(qs) >= 0)


class TestPovertyRate:
    def test_hand_evaluation(self):
        f = est.WeightedStepFunction.from_weighted_points(
            [1.0, 2.0, 3.0, 4.0], np.full(4, 0.25), total_mass=1.0)
        # quantile(0.5) = 2, 0.6 * 2 = 1.2, F(1.2) = 0.25
        assert est.poverty_rate(f, 0.5, 0.6) == pytest.approx(0.25)

    def test_zero_below_support(self):
        f = est.WeightedStepFunction.from_weighted_points([10.0, 20.0], [0.5, 0.5])
        assert est.poverty_rate(f, 0.5, 0.1) == 0.0

    def test_point_mass(self):
        f = est.WeightedStepFunction.from_weighted_points([1.0], [1.0])
        assert est.poverty_rate(f, 0.5, 0.9) == 0.0

    def test_beta_one_on_atomless_levels(self):
        rng = substream(23)
        f = est.WeightedStepFunction.from_weighted_points(
            rng.normal(size=9), np.full(9, 1.0 / 9.0), total_mass=1.0)
        for alpha in (0.2, 0.5, 0.8):
            assert est.poverty_rate(f, alpha, 1.0) >= alpha - 1e-9


class TestHadamardDirection:
    def test_zero_direction(self):
        assert est.hadamard_direction_value(0.5, 0.66, 0.0, 0.0, 0.6) == 0.0

    def test_constant_direction_exponential(self):
        law = pop.SuperPopulationLaw.exponential(1.0)
        q = pop.true_quantile(law, 0.5)
        val = est.hadamard_direction_value(
            pop.true_density(law, q), pop.true_density(law, 0.6 * q), 1.0, 1.0, 0.6)
        assert val == pytest.approx(0.20829525353626355, abs=1e-12)

    def test_zero_density_errors(self):
        with pytest.raises(ZeroDensityError):
            est.hadamard_direction_value(0.0, 0.5, 1.0, 1.0, 0.6)

    def test_finite_difference_oracle(self):
        # numeric differentiation of the functional along a smooth bump
        from scipy.optimize import brentq
        law = pop.SuperPopulationLaw.exponential(1.0)
        alpha, beta = 0.5, 0.6
        q = pop.true_quantile(law, alpha)
        bump = lambda t: np.exp(-((t - 0.5) ** 2) / 0.5)
        deriv = est.hadamard_direction_value(
            pop.true_density(law, q), pop.true_density(law, beta * q),
            bump(q), bump(beta * q), beta)
        phi0 = pop.true_poverty_rate(law, alpha, beta)
        eps = 1e-4
        f_eps = lambda t: pop.true_cdf(law, t) + eps * bump(t)
        q_eps = brentq(lambda t: f_eps(t) - alpha, -5.0, 60.0, xtol=1e-15)
        fd = (f_eps(beta * q_eps) - phi0) / eps
        assert abs(fd - deriv) <= 2.0 * eps


class TestKdeDensity:
    def test_single_point_forced_bandwidth(self):
        draw = make_draw([0.0], [1.0], N=1)
        val = est.kde_density(draw, 1, 0.0, mode="HJ", bandwidth=1.0)
        assert val == pytest.approx(0.3989422804014327, abs=1e-14)

    def test_symmetry(self):
        draw = make_draw([-2.0, -1.0, 1.0, 2.0], np.full(4, 0.5), N=8)
        for t in (0.5, 1.3):
            a = est.kde_density(draw, 8, t, mode="HJ")
            b = est.kde_density(draw, 8, -t, mode="HJ")
            assert a == pytest.approx(b, rel=1e-12)

    def test_hj_integrates_to_one(self):
        law = pop.SuperPopulationLaw.exponential(1.0)
        popu = pop.generate_population(law, 500, seed=11)
        draw = dsg.draw(dsg.srswor(500, 100), substream(12), y=popu.y)
        grid = np.linspace(-10.0, 30.0, 4001)
        dens = est.kde_density(draw, 500, grid, mode="HJ")
        assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-3)

    def test_degenerate_iqr_errors(self):
        draw = make_draw([1.0, 1.0, 1.0], np.full(3, 0.5), N=6)
        with pytest.raises(DegenerateBandwidthError):
            est.kde_density(draw, 6, 1.0, mode="HJ")

    def test_ht_and_hj_normalizations_differ(self):
        draw = make_draw([1.0, 2.0, 4.0], [0.2, 0.5, 0.8], N=10)
        ht = est.kde_density(draw, 10, 2.0, mode="HT", bandwidth=0.7)
        hj = est.kde_density(draw, 10, 2.0, mode="HJ", bandwidth=0.7)
        assert ht * 10.0 == pytest.approx(hj * draw.n_hat(), rel=1e-12)


class TestProcessPath:
    def _population_and_draw(self, seed, N=150, design=None):
        law = pop.SuperPopulationLaw.exponential(1.0)
        popu = pop.generate_population(law, N, seed=seed)
        design = design or dsg.poisson(substream(seed, 1).uniform(0.15, 0.95, N))
        draw = dsg.draw(design, substream(seed, 2), y=popu.y)
        return law, popu, draw

    def test_census_process_vanishes(self):
        law = pop.SuperPopulationLaw.uniform01()
        popu = pop.generate_population(law, 30, seed=2)
        draw = dsg.draw(dsg.poisson(np.ones(30)), substream(3), y=popu.y)
        grid = np.linspace(0.0, 1.0, 9)
        path = est.process_path(draw, popu, grid, "HT_vs_FN")
        assert np.allclose(path.values, 0.0, atol=1e-14)

    def test_decomposition_identity(self):
        # sqrt(n)(HJ - FN) = Y_N + (N/N_hat - 1) G_pi, pathwise
        law, popu, draw = self._population_and_draw(31)
        grid = np.quantile(popu.y, np.linspace(0.05, 0.95, 15))
        hj = est.process_path(draw, popu, grid, "HJ_vs_FN", law=law).values
        y_n = est.process_path(draw, popu, grid, "Y_N", law=law).values
        g_pi = est.process_path(draw, popu, grid, "G_pi", law=law).values
        ratio = popu.N / draw.n_hat() - 1.0
        assert np.max(np.abs(hj - (y_n + ratio * g_pi))) <= 1e-10

    def test_ratio_identity(self):
        # sqrt(n)(HJ - F) = (N/N_hat) G_pi, pathwise
        law, popu, draw = self._population_and_draw(32)
        grid = np.quantile(popu.y, np.linspace(0.05, 0.95, 15))
        hj_f = est.process_path(draw, popu, grid, "HJ_vs_F", law=law).values
        g_pi = est.process_path(draw, popu, grid, "G_pi", law=law).values
        assert np.max(np.abs(hj_f - (popu.N / draw.n_hat()) * g_pi)) <= 1e-10

    def test_g_pi_against_direct_sum(self):
        law, popu, draw = self._population_and_draw(33, N=40)
        grid = np.array([0.3, 1.0, 2.5])
        path = est.process_path(draw, popu, grid, "G_pi", law=law).values
        root_n = np.sqrt(draw.expected_n)
        for k, t in enumerate(grid):
            total = 0.0
            for idx, y, pi in zip(draw.included, draw.y_included, draw.pi_included):
                total += (float(y <= t) - pop.true_cdf(law, t)) / pi
            assert path[k] == pytest.approx(root_n * total / popu.N, abs=1e-10)

    @pytest.mark.parametrize("which", ["HT_vs_FN", "HT_vs_F", "HJ_vs_FN", "HJ_vs_F",
                                       "G_pi", "Y_N"])
    def test_batch_matches_per_draw_paths(self, which):
        # a batch of draws of several sizes, responses rounded so that some tie
        law = pop.SuperPopulationLaw.exponential(1.0)
        popu = pop.generate_population(law, 120, seed=36)
        design = dsg.poisson(substream(36, 1).uniform(0.1, 0.6, 120))
        draws = [dsg.draw(design, substream(36, 2, j), y=np.round(popu.y, 1))
                 for j in range(12)]
        grid = np.array([0.0, 0.2, 0.5, 1.0, 1.7, 4.0])
        got = est.process_paths(draws, popu, grid, which, law=law)
        fn, f = est.empirical_cdf_values(popu.y, grid), pop.true_cdf(law, grid)
        for draw, row in zip(draws, got):
            inv = 1.0 / draw.pi_included
            if which.startswith("HJ"):
                ecdf = est.WeightedStepFunction.from_weighted_points(
                    draw.y_included, inv / inv.sum(), total_mass=1.0)
            else:
                ecdf = est.WeightedStepFunction.from_weighted_points(
                    draw.y_included, 1.0 / (popu.N * draw.pi_included))
            root_n, ratio = np.sqrt(draw.expected_n), draw.n_hat() / popu.N
            expected = {"HT_vs_FN": root_n * (ecdf(grid) - fn),
                        "HT_vs_F": root_n * (ecdf(grid) - f),
                        "HJ_vs_FN": root_n * (ecdf(grid) - fn),
                        "HJ_vs_F": root_n * (ecdf(grid) - f),
                        "G_pi": root_n * (ecdf(grid) - ratio * f),
                        "Y_N": root_n * (ecdf(grid) - fn) - root_n * (ratio - 1.0) * f}[which]
            assert np.array_equal(row, expected)
            assert np.array_equal(row, est.process_path(draw, popu, grid, which, law).values)

    def test_requires_law_for_model_centering(self):
        _, popu, draw = self._population_and_draw(34)
        with pytest.raises(ParameterError):
            est.process_path(draw, popu, np.array([1.0]), "HT_vs_F")

    def test_unsorted_grid_rejected(self):
        law, popu, draw = self._population_and_draw(35)
        with pytest.raises(ParameterError):
            est.process_path(draw, popu, np.array([2.0, 1.0]), "HT_vs_FN")
