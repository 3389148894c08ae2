"""Weighted ECDFs, quantiles, poverty rate, KDE and process paths."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svycdf import asymptotics as asy
from svycdf import designs as dsg
from svycdf import estimation as est
from svycdf import population as pop
from svycdf.errors import (
    DegenerateBandwidthError,
    EstimationError,
    ParameterError,
    ZeroDensityError,
)
from svycdf.streams import substream

import step_reference as ref


def interpolated(f, alpha, n_points):
    """The interpolating quantile rule on one step function."""
    q = est._interpolated_quantiles(f.locations[None], f.cumulative[None],
                                    np.array([f.total_mass]), np.array([f.locations.size]),
                                    np.array([float(n_points)]), (alpha,))
    return float(q[0, 0])


def ecdf(draw, N, mode):
    """One draw's ``mode`` CDF from its batch row, equal to the reference."""
    f = ref.batch_row(ref.valid_cdfs(draw, N), 0, est.MODES.index(mode))
    expected = ref.reference_ecdf(draw, N, mode)
    assert np.array_equal(f.locations, expected.locations)
    assert np.array_equal(f.cumulative, expected.cumulative)
    assert f.total_mass == expected.total_mass
    return f


def cdf_at(draw, N, mode, t):
    """One draw's ``mode`` CDF at the points t (batch step values), equal to
    the reference."""
    cdfs, k = ref.valid_cdfs(draw, N), est.MODES.index(mode)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = est._step_values(cdfs.loc, cdfs.cum[k], cdfs.count, t[None])[0]
    assert np.array_equal(out, ref.reference_ecdf(draw, N, mode)(t))
    return out


def rate(draw, N, alpha, beta, mode="HJ"):
    """One draw's poverty rate, equal to its CDF at beta times its
    interpolated quantile."""
    rates, errors = est.poverty_rates(draw, N, alpha, beta, mode)
    assert not errors
    got = float(rates[0])
    f = ecdf(draw, N, mode)
    assert got == f(beta * interpolated(f, alpha, draw.y.size))
    return got


def path(draw, popu, grid, which, law=None):
    """One draw's process path."""
    paths, errors = est.process_paths(draw, popu, grid, which, law)
    assert not errors
    return paths[0]


def decomposition(draw, popu, grid, law):
    """One draw's reference (G_pi, Y_N) from its "HT" CDF on the grid."""
    return ref.decomposition_paths(cdf_at(draw, popu.size, "HT", grid), draw, popu, grid, law)


class TestWeightedStepFunction:
    """Batch rows and step values against the np.unique merge."""

    def test_tie_merging(self):
        # HT weights 1/(10 pi) = 0.2, 0.3, 0.5
        draw = ref.make_row([2.0, 1.0, 2.0], [0.5, 1.0 / 3.0, 0.2])
        f = ecdf(draw, 10, "HT")
        assert np.array_equal(f.locations, [1.0, 2.0])
        assert np.allclose(f.cumulative, [0.3, 1.0])

    def test_right_continuity(self):
        draw = ref.make_row([1.0, 2.0], [1.0, 1.0])
        vals = cdf_at(draw, 2, "HT", [1.0, 1.0 - 1e-12, 0.0, 3.0])
        assert vals.tolist() == [0.5, 0.0, 0.0, 1.0]

    def test_vectorized_evaluation(self):
        draw = ref.make_row([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
        for mode in est.MODES:
            assert np.allclose(cdf_at(draw, 3, mode, [0.5, 1.5, 3.5]), [0.0, 1.0 / 3.0, 1.0])

    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=30),
           st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=100, deadline=None)
    def test_nondecreasing_property(self, values, seed):
        pi = substream(seed).uniform(0.05, 1.0, size=len(values))
        draw = ref.make_row(values, pi)
        grid = np.linspace(min(values) - 1, max(values) + 1, 50)
        for mode in est.MODES:
            out = cdf_at(draw, 40, mode, grid)
            assert np.all(np.diff(out) >= -1e-12)
            assert out[-1] == ecdf(draw, 40, mode).total_mass


class TestHtEcdf:
    def test_census_equals_unweighted(self):
        y = np.array([3.0, 1.0, 2.0, 5.0])
        draw = ref.make_row(y, np.ones(4))
        assert ecdf(draw, 4, "HT").total_mass == pytest.approx(1.0, abs=1e-15)
        assert cdf_at(draw, 4, "HT", 2.0)[0] == pytest.approx(0.5)

    def test_single_unit(self):
        draw = ref.make_row([3.0], [0.5])
        assert cdf_at(draw, 2, "HT", 3.0)[0] == pytest.approx(1.0)   # 1/(2 * 0.5)
        assert cdf_at(draw, 2, "HT", 2.9)[0] == 0.0

    def test_hand_evaluation(self):
        # two included units with pi = 0.5 out of N = 4: each jump 1/(4*0.5)
        draw = ref.make_row([1.0, 2.0], [0.5, 0.5])
        assert cdf_at(draw, 4, "HT", [1.5, 2.0]).tolist() == pytest.approx([0.5, 1.0])

    def test_total_mass_is_nhat_over_n(self):
        draw = ref.make_row([1.0, 2.0, 3.0], [0.25, 0.5, 0.75])
        assert ecdf(draw, 10, "HT").total_mass == pytest.approx(ref.n_hat(draw) / 10.0,
                                                                rel=1e-15)


class TestHajekEcdf:
    def test_total_mass_exactly_one(self):
        rng = substream(1)
        draw = ref.make_row(rng.normal(size=7), rng.uniform(0.1, 0.9, 7))
        assert ecdf(draw, 20, "HJ").total_mass == 1.0

    def test_equal_pi_equals_unweighted(self):
        draw = ref.make_row([4.0, 1.0, 3.0], np.full(3, 0.3))
        assert cdf_at(draw, 10, "HJ", [1.0, 3.5]).tolist() == pytest.approx([1 / 3, 2 / 3])

    def test_unequal_weights(self):
        draw = ref.make_row([1.0, 2.0], [0.2, 0.8])
        assert cdf_at(draw, 5, "HJ", 1.0)[0] == pytest.approx(0.8)   # 5 / (5 + 1.25)

    def test_empty_sample_errors(self):
        # reported, not raised: the row holds 0.0 and its error is listed
        rates, errors = est.poverty_rates(ref.make_row([], []), 4, 0.5, 0.6, "HJ")
        assert rates.tolist() == [0.0]
        assert [(j, type(e), str(e)) for j, e in errors.items()] == \
            [(0, EstimationError, "empty sample")]


class TestWeightedQuantile:
    def test_inf_definition(self):
        f = ref.StepFunction.from_points([1.0, 2.0, 3.0], np.full(3, 1.0 / 3.0), total_mass=1.0)
        # F(1) = 1/3 < 0.5 <= F(2)
        assert ref.quantile(f, 0.5) == 2.0

    def test_level_one_hits_last_jump(self):
        f = ref.StepFunction.from_points([1.0, 2.0, 3.0], np.full(3, 1.0 / 3.0), total_mass=1.0)
        assert ref.quantile(f, 1.0) == 3.0

    def test_atom_boundary(self):
        f = ref.StepFunction.from_points([1.0, 2.0], [0.5, 0.5])
        assert ref.quantile(f, 0.5) == 1.0

    def test_mass_deficit_errors(self):
        # HT weights 1/(20 / 9) = 0.45: total mass 0.9 < 0.95, where the
        # generalized inverse is undefined and the sample rate saturates at
        # the largest response, 0.6 * 2 lying between the two jumps
        draw = ref.make_row([1.0, 2.0], np.full(2, 1.0 / 9.0))
        f = ecdf(draw, 20, "HT")
        assert f.total_mass == pytest.approx(0.9)
        with pytest.raises(ref.MassDeficitError):
            ref.quantile(f, 0.95)
        assert rate(draw, 20, 0.95, 0.6, "HT") == f.cumulative[0]

    def test_rounding_below_level_resolves_downward(self):
        # running sums 0.7, 0.7999999999999999, 0.8999999999999999, 0.9999999999999999
        f = ref.StepFunction.from_points([1.0, 2.0, 3.0, 4.0], [0.7, 0.1, 0.1, 0.1])
        assert ref.quantile(f, 0.8) == 2.0
        assert ref.quantile(f, 1.0) == 4.0

    def test_interpolated_matches_type7_for_equal_weights(self):
        rng = substream(71)
        y = rng.normal(size=23)
        f = ref.StepFunction.from_points(y, np.full(23, 1.0 / 23.0), total_mass=1.0)
        for alpha in (0.1, 0.25, 0.5, 0.9):
            got = interpolated(f, alpha, 23)
            assert got == pytest.approx(np.quantile(y, alpha), abs=1e-12)

    def test_interpolated_clamps_at_mass_deficit(self):
        f = ref.StepFunction.from_points([1.0, 2.0], [0.45, 0.45])
        assert interpolated(f, 0.95, 2) == 2.0

    @given(st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=60, deadline=None)
    def test_interpolated_monotone_and_bracketed(self, seed):
        rng = substream(seed)
        weights = rng.uniform(0.05, 1.0, 9)
        f = ref.StepFunction.from_points(rng.normal(size=9), weights / weights.sum(),
                                         total_mass=1.0)
        levels = np.linspace(0.02, 1.0, 25)
        qs = [interpolated(f, a, 9) for a in levels]
        assert np.all(np.diff(qs) >= -1e-12)
        assert f.locations[0] <= min(qs) and max(qs) <= f.locations[-1]

    def test_bad_level(self):
        draw = ref.make_row([1.0], [1.0])
        for alpha in (0.0, 1.5, np.nan):
            with pytest.raises(ParameterError, match="quantile level"):
                est.poverty_rates(draw, 1, alpha, 0.6, "HJ")

    @given(st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=60, deadline=None)
    def test_nondecreasing_in_level(self, seed):
        rng = substream(seed)
        draw = ref.make_row(rng.normal(size=8), rng.uniform(0.05, 1.0, 8))
        f = ecdf(draw, 30, "HJ")
        levels = np.linspace(0.05, 1.0, 20)
        qs = [ref.quantile(f, a) for a in levels]
        assert np.all(np.diff(qs) >= 0)


class TestPovertyRate:
    def test_hand_evaluation(self):
        draw = ref.make_row([1.0, 2.0, 3.0, 4.0], np.ones(4))
        # quantile(0.5) = 2, 0.6 * 2 = 1.2, F(1.2) = 0.25
        for mode in est.MODES:
            assert rate(draw, 4, 0.5, 0.6, mode) == pytest.approx(0.25)

    def test_zero_below_support(self):
        draw = ref.make_row([10.0, 20.0], [1.0, 1.0])
        assert rate(draw, 2, 0.5, 0.1) == 0.0

    def test_point_mass(self):
        assert rate(ref.make_row([1.0], [1.0]), 1, 0.5, 0.9) == 0.0

    def test_beta_one_on_atomless_levels(self):
        # equal weights: q lies in [y_(k), y_(k+1)) for k = floor(1 + 8 alpha),
        # so F(q) = k / 9
        rng = substream(23)
        draw = ref.make_row(rng.normal(size=9), np.ones(9))
        for alpha in (0.2, 0.5, 0.8):
            assert rate(draw, 9, alpha, 1.0) == pytest.approx(np.floor(1 + 8 * alpha) / 9,
                                                              abs=1e-15)


class TestHadamardDirection:
    def test_zero_direction(self):
        assert ref.hadamard_direction_value(0.5, 0.66, 0.0, 0.0, 0.6) == 0.0

    def test_constant_direction_exponential(self):
        law = pop.SuperPopulationLaw.exponential(1.0)
        q = pop.true_quantile(law, 0.5)
        val = ref.hadamard_direction_value(
            pop.true_density(law, q), pop.true_density(law, 0.6 * q), 1.0, 1.0, 0.6)
        assert val == pytest.approx(0.20829525353626355, abs=1e-12)

    def test_zero_density_errors(self):
        with pytest.raises(ZeroDensityError):
            ref.hadamard_direction_value(0.0, 0.5, 1.0, 1.0, 0.6)

    def test_finite_difference_oracle(self):
        # numeric differentiation of the functional along a smooth bump
        from scipy.optimize import brentq
        law = pop.SuperPopulationLaw.exponential(1.0)
        alpha, beta = 0.5, 0.6
        q = pop.true_quantile(law, alpha)
        bump = lambda t: np.exp(-((t - 0.5) ** 2) / 0.5)
        deriv = ref.hadamard_direction_value(
            pop.true_density(law, q), pop.true_density(law, beta * q),
            bump(q), bump(beta * q), beta)
        phi0 = pop.true_poverty_rate(law, alpha, beta)
        eps = 1e-4
        f_eps = lambda t: pop.true_cdf(law, t) + eps * bump(t)
        q_eps = brentq(lambda t: f_eps(t) - alpha, -5.0, 60.0, xtol=1e-15)
        fd = (f_eps(beta * q_eps) - phi0) / eps
        assert abs(fd - deriv) <= 2.0 * eps


def kernel_sums(draw, N, t, bandwidth):
    """One draw's Gaussian kernel sums sum_i phi((t - y_i) / h) / pi_i at the
    points t, and its population-size estimate."""
    cdfs = ref.valid_cdfs(draw, N)
    t = np.atleast_1d(np.asarray(t, dtype=float))[None]
    return est._kernel_sums(t, cdfs.y, cdfs.inv, np.array([bandwidth]), cdfs.groups)[0], \
        float(cdfs.n_hat[0])


class TestKdeDensity:
    def test_single_point_forced_bandwidth(self):
        sums, _ = kernel_sums(ref.make_row([0.0], [1.0]), 1, 0.0, 1.0)
        assert sums[0] == pytest.approx(0.3989422804014327, abs=1e-14)

    def test_symmetry(self):
        draw = ref.make_row([-2.0, -1.0, 1.0, 2.0], np.full(4, 0.5))
        sums, _ = kernel_sums(draw, 8, [0.5, -0.5, 1.3, -1.3], 0.9)
        assert sums[0] == pytest.approx(sums[1], rel=1e-12)
        assert sums[2] == pytest.approx(sums[3], rel=1e-12)

    def test_hj_integrates_to_one(self):
        law = pop.SuperPopulationLaw.exponential(1.0)
        popu = pop.generate_population(law, 500, seed=11)
        draw = dsg.draw(dsg.srswor(500, 100), [substream(12)], popu)
        f = ecdf(draw, 500, "HJ")
        bandwidth = 0.79 * (ref.quantile(f, 0.75) - ref.quantile(f, 0.25)) * 100 ** (-0.2)
        grid = np.linspace(-10.0, 30.0, 4001)
        sums, n_hat = kernel_sums(draw, 500, grid, bandwidth)
        assert np.trapezoid(sums / (n_hat * bandwidth), grid) == pytest.approx(1.0, abs=1e-3)

    def test_degenerate_iqr_errors(self):
        # interpolated quartiles 1 and 1, but not all responses equal
        draw = ref.make_row([1.0] * 5 + [2.0], np.full(6, 0.5))
        phi, av, errors = est.poverty_rate_estimates(
            draw, 12, asy.DesignConstants(0.5, 1.0, 0.0), 0.5, 0.6)
        for k in range(2):
            assert isinstance(errors[0, k], DegenerateBandwidthError)
            assert str(errors[0, k]) == "bandwidth is zero: the weighted interquartile range is zero"
            assert phi[0, k] == av[0, k] == 0.0

    def test_underflowing_bandwidth_errors(self):
        # a positive interquartile range of 5e-324 gives a bandwidth of 0:
        # the cells fail as without a range, and nothing is raised
        draw = ref.make_row([0.0] * 20 + [5e-324] * 20, np.full(40, 0.1))
        phi, av, errors = est.poverty_rate_estimates(
            draw, 400, asy.DesignConstants(0.1, 9.0, 0.0), 0.5, 0.6)
        for k in range(2):
            assert isinstance(errors[0, k], DegenerateBandwidthError)
            assert str(errors[0, k]) == "bandwidth is zero: it underflows from a positive interquartile range"
            assert phi[0, k] == av[0, k] == 0.0

    def test_ht_and_hj_normalizations_differ(self):
        # one kernel sum per point, divided by N ("HT") or by n_hat ("HJ");
        # each mode's variance takes the ratio of its own two densities
        draw = ref.make_row([1.0, 2.0, 4.0], [0.2, 0.5, 0.8])
        c = asy.DesignConstants(0.3, 1.0, -0.5)
        cdfs = ref.valid_cdfs(draw, 10)
        q = est._interpolated_quantiles(cdfs.loc, cdfs.cum, cdfs.total, cdfs.count,
                                        cdfs.sizes.astype(float), (0.5, 0.25, 0.75))
        phi, av, errors = est.poverty_rate_estimates(draw, 10, c, 0.5, 0.6)
        assert not errors
        for k, denom in enumerate((10.0, float(cdfs.n_hat[0]))):
            bandwidth = 0.79 * (q[k, 0, 2] - q[k, 0, 1]) * 3 ** (-0.2)
            sums, _ = kernel_sums(draw, 10, [q[k, 0, 0], 0.6 * q[k, 0, 0]], bandwidth)
            f_q, f_bq = sums / (denom * bandwidth)
            assert av[0, k] == asy.poverty_variance_form(c.gamma1, c.gamma2, est.MODES[k], 0.5,
                                                         0.6 * (f_bq / f_q), phi[0, k])
        assert denom != 10.0


class TestProcessPath:
    def _population_and_draw(self, seed, N=150, design=None):
        law = pop.SuperPopulationLaw.exponential(1.0)
        popu = pop.generate_population(law, N, seed=seed)
        design = design or dsg.poisson(substream(seed, 1).uniform(0.15, 0.95, N))
        draw = dsg.draw(design, [substream(seed, 2)], popu)
        return law, popu, draw

    def test_census_process_vanishes(self):
        law = pop.SuperPopulationLaw.uniform01()
        popu = pop.generate_population(law, 30, seed=2)
        draw = dsg.draw(dsg.poisson(np.ones(30)), [substream(3)], popu)
        grid = np.linspace(0.0, 1.0, 9)
        assert np.allclose(path(draw, popu, grid, "HT_vs_FN"), 0.0, atol=1e-14)

    def test_decomposition_identity(self):
        # sqrt(n)(HJ - FN) = Y_N + (N/N_hat - 1) G_pi, pathwise
        law, popu, draw = self._population_and_draw(31)
        grid = np.quantile(popu, np.linspace(0.05, 0.95, 15))
        hj = path(draw, popu, grid, "HJ_vs_FN", law=law)
        g_pi, y_n = decomposition(draw, popu, grid, law)
        ratio = popu.size / ref.n_hat(draw) - 1.0
        assert np.max(np.abs(hj - (y_n + ratio * g_pi))) <= 1e-10

    def test_ratio_identity(self):
        # sqrt(n)(HJ - F) = (N/N_hat) G_pi, pathwise
        law, popu, draw = self._population_and_draw(32)
        grid = np.quantile(popu, np.linspace(0.05, 0.95, 15))
        hj_f = path(draw, popu, grid, "HJ_vs_F", law=law)
        g_pi, _ = decomposition(draw, popu, grid, law)
        assert np.max(np.abs(hj_f - (popu.size / ref.n_hat(draw)) * g_pi)) <= 1e-10

    def test_g_pi_against_direct_sum(self):
        law, popu, draw = self._population_and_draw(33, N=40)
        grid = np.array([0.3, 1.0, 2.5])
        g_pi, _ = decomposition(draw, popu, grid, law)
        root_n = np.sqrt(draw.expected_n)
        for k, t in enumerate(grid):
            total = 0.0
            for y, pi in zip(draw.y, draw.pi):
                total += (float(y <= t) - pop.true_cdf(law, t)) / pi
            assert g_pi[k] == pytest.approx(root_n * total / popu.size, abs=1e-10)

    @pytest.mark.parametrize("which", ["HT_vs_FN", "HT_vs_F", "HJ_vs_FN", "HJ_vs_F",
                                       "G_pi", "Y_N"])
    def test_batch_matches_per_draw_paths(self, which):
        # a batch of draws of several sizes, responses rounded so that some tie
        law = pop.SuperPopulationLaw.exponential(1.0)
        popu = pop.generate_population(law, 120, seed=36)
        design = dsg.poisson(substream(36, 1).uniform(0.1, 0.6, 120))
        batch = dsg.draw(design, [substream(36, 2, j) for j in range(12)],
                         np.round(popu, 1))
        draws = ref.rows(batch)
        grid = np.array([0.0, 0.2, 0.5, 1.0, 1.7, 4.0])
        if which in ("G_pi", "Y_N"):
            # the reference decomposition term on the batch's "HT" CDF values
            cdfs = ref.valid_cdfs(batch, popu.size, ("HT",))
            ht = est._step_values(cdfs.loc, cdfs.cum[0], cdfs.count,
                                  np.broadcast_to(grid, (len(draws), grid.size)))
            got = np.array([ref.decomposition_paths(ht[j], draw, popu, grid, law)
                            [which == "Y_N"] for j, draw in enumerate(draws)])
        else:
            got, errors = est.process_paths(batch, popu, grid, which, law=law)
            assert not errors
        fn, f = est.empirical_cdf_values(popu, grid), pop.true_cdf(law, grid)
        for draw, row in zip(draws, got):
            inv = 1.0 / draw.pi
            if which.startswith("HJ"):
                f_hat = ref.StepFunction.from_points(draw.y, inv / inv.sum(),
                                                     total_mass=1.0)
            else:
                f_hat = ref.StepFunction.from_points(draw.y, 1.0 / (popu.size * draw.pi))
            root_n, ratio = np.sqrt(draw.expected_n), ref.n_hat(draw) / popu.size
            expected = {"HT_vs_FN": root_n * (f_hat(grid) - fn),
                        "HT_vs_F": root_n * (f_hat(grid) - f),
                        "HJ_vs_FN": root_n * (f_hat(grid) - fn),
                        "HJ_vs_F": root_n * (f_hat(grid) - f),
                        "G_pi": root_n * (f_hat(grid) - ratio * f),
                        "Y_N": root_n * (f_hat(grid) - fn) - root_n * (ratio - 1.0) * f}[which]
            assert np.array_equal(row, expected)
            if which in ("G_pi", "Y_N"):
                assert np.array_equal(row, decomposition(draw, popu, grid, law)
                                      [which == "Y_N"])
            else:
                assert np.array_equal(row, path(draw, popu, grid, which, law))

    def test_requires_law_for_model_centering(self):
        _, popu, draw = self._population_and_draw(34)
        with pytest.raises(ParameterError):
            path(draw, popu, np.array([1.0]), "HT_vs_F")

    def test_unsorted_grid_rejected(self):
        law, popu, draw = self._population_and_draw(35)
        with pytest.raises(ParameterError):
            path(draw, popu, np.array([2.0, 1.0]), "HT_vs_FN")

    def test_empty_batch_rejected(self):
        _, popu, _ = self._population_and_draw(37)
        with pytest.raises(ParameterError, match="empty batch"):
            est.process_paths(ref.make_batch([]), popu, np.array([1.0]), "HT_vs_FN")


def test_empty_poverty_batch_rejected():
    with pytest.raises(ParameterError, match="empty batch"):
        est.poverty_rate_estimates(ref.make_batch([]), 10, asy.DesignConstants(0.5, 1.0, 0.0), 0.5, 0.6)


@pytest.mark.parametrize("beta", [0.0, -1.0, 2.0, np.nan])
@pytest.mark.parametrize("entry", ["poverty_batch", "step_poverty_rates", "poverty_rates",
                                   "poverty_rate_estimates"])
def test_bad_beta_rejected(entry, beta):
    draw = ref.make_row([1.0, 2.0, 3.0, 4.0], np.full(4, 0.5))
    c = asy.DesignConstants(0.5, 1.0, 0.0)
    call = {"poverty_batch": lambda: est.poverty_rate_estimates(ref.stack([draw] * 3), 8, c,
                                                                0.5, beta),
            # the step-rule (generalized-inverse) rate of a population
            "step_poverty_rates": lambda: est.census_poverty_rate(draw.y, 0.5, beta),
            "poverty_rates": lambda: est.poverty_rates(draw, 8, 0.5, beta, "HJ"),
            "poverty_rate_estimates": lambda: est.poverty_rate_estimates(
                draw, 8, c, 0.5, beta)}[entry]
    with pytest.raises(ParameterError, match="scale beta"):
        call()


@pytest.mark.parametrize("law", [pop.SuperPopulationLaw.exponential(1.0),
                                 pop.SuperPopulationLaw.discrete(
                                     [float(k) for k in range(1, 13)], [1 / 12] * 12)],
                         ids=["exponential", "discrete12"])
@pytest.mark.parametrize("N", [1, 2, 7, 1000, 10_000])
def test_census_rate_is_population_rate(law, N):
    # the Monte Carlo F_N center: the reference rate of the census CDF,
    # weight 1/N per unit, which census_poverty_rate must give bit for bit
    y = pop.generate_population(law, N, seed=N)
    f_n = ref.StepFunction.from_points(y, np.full(N, 1.0 / N), total_mass=1.0)
    for alpha, beta in ((0.5, 0.6), (0.25, 1.0), (1.0, 0.5), (0.1, 0.05)):
        assert est.census_poverty_rate(y, alpha, beta) == ref.poverty_rate(f_n, alpha, beta)


@pytest.mark.parametrize("N", [1, 2, 7, 1000])
def test_census_rate_with_nan_responses(N):
    # NaNs merge into one jump after every number, which the quantile may
    # land on; rounding makes ties
    rng = substream(N, 5)
    for trial in range(20):
        y = np.round(rng.exponential(1.0, N), rng.integers(0, 3))
        y[rng.random(N) < rng.uniform(0.0, 1.0)] = np.nan
        f_n = ref.StepFunction.from_points(y, np.full(N, 1.0 / N), total_mass=1.0)
        for alpha, beta in ((0.5, 0.6), (0.25, 1.0), (1.0, 0.5), (0.1, 0.05)):
            expected = ref.poverty_rate(f_n, alpha, beta)
            got = est.census_poverty_rate(y, alpha, beta)
            assert got == expected, (trial, alpha)


def test_census_rate_rejects_bad_input():
    with pytest.raises(ParameterError, match="at least 1"):
        est.census_poverty_rate(np.array([]), 0.5, 0.6)
    with pytest.raises(ParameterError, match="scale beta"):
        est.census_poverty_rate(np.ones(3), 0.5, 0.0)


@pytest.mark.parametrize("kernel", ["poverty_rate_estimates", "poverty_rates", "process_paths"])
def test_failing_rows_are_reported_not_raised(kernel):
    # one failure contract for every per-draw kernel: an empty row and a row
    # with pi = 1.5 are listed with their errors and hold 0.0; every other
    # row has the bits it has in a batch without them
    good = [(np.linspace(0.1, 2.9, 8) ** 1.3, np.linspace(0.2, 0.9, 8)),
            ([1.0, 4.0, 2.0, 0.5, 3.1, 1.7], [0.4, 0.4, 0.9, 0.3, 0.6, 0.5]),
            ([0.1, 0.9, 0.5, 0.5, 3.0, 1.1, 0.2], np.full(7, 0.3))]
    rows = [good[0], ([], []), good[1], ([1.0, 2.0], [0.5, 1.5]), good[2]]
    popu = pop.generate_population(pop.SuperPopulationLaw.exponential(1.0), 40, seed=7)

    def run(batch):
        """The kernel's output (rows first) and its errors, keyed by row."""
        if kernel == "poverty_rates":
            return est.poverty_rates(batch, 40, 0.5, 0.6, "HJ")
        if kernel == "process_paths":
            return est.process_paths(batch, popu, [0.2, 0.7, 1.5], "HT_vs_FN")
        phi, av, errors = est.poverty_rate_estimates(
            batch, 40, asy.DesignConstants(0.5, 1.0, 0.0), 0.5, 0.6)
        by_row = {j: errors[j, 0] for j, k in errors if k == 0}
        assert list(errors) == [(j, k) for j in by_row for k in range(2)]
        assert all(errors[j, 1] is e for j, e in by_row.items())
        return np.stack([phi, av], axis=-1), by_row

    values, errors = run(ref.make_batch(rows))
    assert [(j, type(e), str(e)) for j, e in errors.items()] == [
        (1, EstimationError, "empty sample"),
        (3, EstimationError, "inclusion probability outside (0, 1] among sampled units")]
    assert np.all(values[[1, 3]] == 0.0)
    alone, none = run(ref.make_batch(good))
    assert not none
    assert values[[0, 2, 4]].tobytes() == alone.tobytes()
