"""The per-draw poverty kernel against the scalar composition it replaced.

``reference_*`` below is the estimation path as it was before one sorted
sample served both modes: each mode builds its CDF with
``WeightedStepFunction.from_weighted_points`` (the np.unique merge), the
scalar interpolated quantile, a fresh kernel density per point and the
plug-in variance rebuilding the CDF.  The kernel must reproduce it exactly.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svycdf import asymptotics as asy
from svycdf import designs as dsg
from svycdf import estimation as est
from svycdf import montecarlo as mc
from svycdf import population as pop
from svycdf.errors import (
    DegenerateBandwidthError,
    EstimationError,
    ParameterError,
    ZeroDensityError,
)
from svycdf.streams import child_seed, substream

MODES = ("HT", "HJ")
TIE_EPS = 1e-12
SQRT_2PI = float(np.sqrt(2.0 * np.pi))


# ---------------------------------------------------------------------------
# Reference: the scalar composition
# ---------------------------------------------------------------------------

def reference_ecdf(draw, N, mode):
    if draw.y_included is None:
        raise EstimationError("no values")
    if draw.included.size == 0:
        raise EstimationError("empty sample")
    if np.any(draw.pi_included <= 0.0):
        raise EstimationError("nonpositive inclusion probability")
    if mode == "HT":
        return est.WeightedStepFunction.from_weighted_points(
            draw.y_included, 1.0 / (N * draw.pi_included))
    inv = 1.0 / draw.pi_included
    return est.WeightedStepFunction.from_weighted_points(
        draw.y_included, inv / inv.sum(), total_mass=1.0)


def reference_interpolated_quantile(f, alpha, n_points):
    if not 0.0 < alpha <= 1.0:
        raise ParameterError("bad level")
    a_eff = min(alpha / f.total_mass, 1.0)
    pos = (f.cumulative / f.total_mass) * n_points
    h = 1.0 + (n_points - 1.0) * a_eff
    low = min(np.floor(h), float(n_points))
    frac = h - low
    last = f.locations.size - 1
    idx_low = min(int(np.searchsorted(pos, low - TIE_EPS * n_points, side="left")), last)
    hi_target = min(low + 1.0, float(n_points))
    idx_high = min(int(np.searchsorted(pos, hi_target - TIE_EPS * n_points,
                                       side="left")), last)
    if idx_high == idx_low:
        return float(f.locations[idx_low])
    return float((1.0 - frac) * f.locations[idx_low] + frac * f.locations[idx_high])


def reference_kde(draw, N, t, mode, bandwidth=None):
    n_s = draw.included.size
    if bandwidth is None:
        if n_s < 2:
            raise EstimationError("automatic bandwidth needs two units")
        f = reference_ecdf(draw, N, mode)
        iqr = est.weighted_quantile(f, 0.75) - est.weighted_quantile(f, 0.25)
        if iqr <= 0.0:
            raise DegenerateBandwidthError("zero iqr")
        bandwidth = 0.79 * iqr * n_s ** (-0.2)
    elif bandwidth <= 0.0:
        raise ParameterError("bandwidth must be positive")
    denom = float(N) if mode == "HT" else draw.n_hat()
    z = (np.atleast_1d(np.asarray(t, dtype=float))[:, None]
         - draw.y_included[None, :]) / bandwidth
    kernel = np.exp(-0.5 * z * z) / SQRT_2PI
    return float((kernel @ (1.0 / draw.pi_included) / (denom * bandwidth))[0])


def reference_plugin_variance(draw, N, constants, alpha, beta, mode, quantile_method):
    fhat = reference_ecdf(draw, N, mode)
    if quantile_method == "interpolated":
        n_s = draw.included.size
        quantile = lambda level: reference_interpolated_quantile(fhat, level, n_s)
        iqr = quantile(0.75) - quantile(0.25)
        if iqr <= 0.0:
            raise DegenerateBandwidthError("zero iqr")
        bandwidth = 0.79 * iqr * n_s ** (-0.2)
    else:
        quantile = lambda level: est.weighted_quantile(fhat, level)
        bandwidth = None
    qhat = quantile(alpha)
    phihat = float(fhat.evaluate(beta * qhat))
    f_q = reference_kde(draw, N, qhat, mode, bandwidth)
    f_bq = reference_kde(draw, N, beta * qhat, mode, bandwidth)
    if f_q <= 0.0:
        raise ZeroDensityError("zero density")
    br = beta * (f_bq / f_q)
    g1, g2 = constants.gamma1, constants.gamma2
    if mode == "HT":
        return (br * br * (g1 * alpha + g2 * alpha * alpha)
                + g1 * phihat + g2 * phihat * phihat
                - 2.0 * br * phihat * (g1 + g2 * alpha))
    return (br * br * g1 * alpha * (1.0 - alpha)
            + g1 * phihat * (1.0 - phihat)
            - 2.0 * br * phihat * g1 * (1.0 - alpha))


def reference_phi_and_av(draw, N, constants, alpha, beta, mode):
    f = reference_ecdf(draw, N, mode)
    qhat = reference_interpolated_quantile(f, alpha, draw.included.size)
    phi_hat = float(f.evaluate(beta * qhat))
    try:
        av_hat = reference_plugin_variance(draw, N, constants, alpha, beta, mode,
                                           "interpolated")
    except DegenerateBandwidthError:
        if np.all(draw.y_included == draw.y_included[0]):
            av_hat = 0.0
        else:
            raise
    return phi_hat, av_hat


def reference_cell(draw, N, constants, alpha, beta):
    """Both modes in order; the first error that is not an EstimationError
    propagates, as in the Monte Carlo loop."""
    out = {}
    for mode in MODES:
        try:
            out[mode] = reference_phi_and_av(draw, N, constants, alpha, beta, mode)
        except EstimationError as exc:
            out[mode] = exc
    return out


# ---------------------------------------------------------------------------
# Generated draws
# ---------------------------------------------------------------------------

def make_draw(y, pi, N):
    y = np.asarray(y, dtype=float)
    pi = np.asarray(pi, dtype=float)
    indicators = np.zeros(N, dtype=bool)
    indicators[:y.size] = True
    return dsg.SampleDraw(indicators=indicators, included=np.arange(y.size),
                          pi_included=pi, expected_n=float(max(pi.sum(), 1.0)),
                          y_included=y)


CONTINUOUS = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
DISCRETE = st.sampled_from([0.0, 1.0, 1.5, 2.0, 7.0])


@st.composite
def cases(draw):
    n = draw(st.integers(min_value=0, max_value=30))
    values = draw(st.sampled_from([CONTINUOUS, DISCRETE]))
    y = draw(st.lists(values, min_size=n, max_size=n))
    if n and draw(st.integers(min_value=0, max_value=3)) == 0:
        y = [y[0]] * n                                     # all responses equal
    probs = st.floats(min_value=1e-3, max_value=1.0)
    if draw(st.booleans()):
        pi = draw(st.lists(probs, min_size=n, max_size=n))     # unequal pi
    else:
        pi = [draw(probs)] * n
    N = draw(st.integers(min_value=max(n, 1), max_value=10_000))
    constants = asy.DesignConstants(lam=draw(st.floats(0.0, 1.0)),
                                    mu1=draw(st.floats(0.0, 10.0)),
                                    mu2=draw(st.floats(-2.0, 2.0)))
    alpha = draw(st.floats(min_value=0.01, max_value=1.0))
    beta = draw(st.floats(min_value=0.05, max_value=1.0))
    return make_draw(y, pi, N), N, constants, alpha, beta


def same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


def assert_cells_equal(got, expected):
    assert set(got) == set(expected) == set(MODES)
    for mode in MODES:
        if isinstance(expected[mode], Exception):
            assert type(got[mode]) is type(expected[mode]), mode
        else:
            assert not isinstance(got[mode], Exception), (mode, got[mode])
            assert all(map(same, got[mode], expected[mode])), (mode, got, expected)


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

class TestKernelOracle:
    @given(cases())
    @settings(max_examples=400, deadline=None)
    def test_cell_matches_scalar_composition(self, case):
        draw, N, constants, alpha, beta = case
        try:
            expected = reference_cell(draw, N, constants, alpha, beta)
        except Exception as exc:                      # noqa: BLE001 - class compared below
            with pytest.raises(type(exc)):
                asy.poverty_rate_estimates(draw, N, constants, alpha, beta)
            return
        assert_cells_equal(asy.poverty_rate_estimates(draw, N, constants, alpha, beta),
                           expected)

    @given(cases(), st.sampled_from(MODES), st.sampled_from(["step", "interpolated"]))
    @settings(max_examples=300, deadline=None)
    def test_plugin_variance_matches_scalar_composition(self, case, mode, method):
        draw, N, constants, alpha, beta = case
        try:
            expected = reference_plugin_variance(draw, N, constants, alpha, beta, mode, method)
        except Exception as exc:                      # noqa: BLE001 - class compared below
            with pytest.raises(type(exc)):
                asy.plugin_poverty_variance(draw, N, constants, alpha, beta, mode, method)
            return
        got = asy.plugin_poverty_variance(draw, N, constants, alpha, beta, mode, method)
        assert same(got, expected)

    @given(cases(), st.sampled_from(MODES))
    @settings(max_examples=200, deadline=None)
    def test_ecdf_matches_unique_merge(self, case, mode):
        draw, N, _, _, _ = case
        build = est.ht_ecdf if mode == "HT" else est.hajek_ecdf
        try:
            expected = reference_ecdf(draw, N, mode)
        except Exception as exc:                      # noqa: BLE001 - class compared below
            with pytest.raises(type(exc)):
                build(draw, N)
            return
        got = build(draw, N)
        assert np.array_equal(got.locations, expected.locations)
        assert np.array_equal(got.cumulative, expected.cumulative)
        assert got.total_mass == expected.total_mass

    @pytest.mark.parametrize("design", ["SI", "BE", "PO"])
    def test_desk_draws_match(self, design):
        sc = mc.Scenario(N=2000, n=100, design=design, law=pop.SuperPopulationLaw.exponential(),
                         alpha=0.5, beta=0.6, n_populations=1, n_samples=40, seed=17)
        population = pop.generate_population(sc.law, sc.N, child_seed(sc.seed, 0, 0))
        design_obj = mc._population_design(sc, 0, mc._scenario_design(sc))
        constants = dsg.design_constants(design_obj)
        for j in range(sc.n_samples):
            draw = dsg.draw(design_obj, substream(sc.seed, 0, 2, j), y=population.y)
            assert_cells_equal(
                asy.poverty_rate_estimates(draw, sc.N, constants, sc.alpha, sc.beta),
                reference_cell(draw, sc.N, constants, sc.alpha, sc.beta))


class TestWeightedSample:
    def test_ties_take_the_merge_path(self):
        draw = make_draw([2.0, 1.0, 2.0], [0.5, 0.25, 0.5], N=10)
        assert est.weighted_sample(draw, 10).has_ties
        f = est.weighted_sample(draw, 10).ecdf("HJ")
        assert np.array_equal(f.locations, [1.0, 2.0])

    def test_distinct_values_sorted_once(self):
        draw = make_draw([3.0, 1.0, 2.0], [0.5, 0.25, 0.5], N=10)
        sample = est.weighted_sample(draw, 10)
        assert not sample.has_ties
        assert np.array_equal(sample.sorted_y, [1.0, 2.0, 3.0])
        assert sample.n_hat == draw.n_hat()

    @pytest.mark.parametrize("y", [[3.0, 1.0, 2.0], [2.0, 1.0, 2.0]])
    def test_negative_weights_rejected_on_both_paths(self, y):
        # a negative N makes the HT weights negative, tied values or not
        sample = est.weighted_sample(make_draw(y, [0.5, 0.25, 0.5], N=10), -10)
        with pytest.raises(ParameterError, match="nonnegative"):
            sample.ecdf("HT")
        with pytest.raises(ParameterError, match="nonnegative"):
            est.WeightedStepFunction.from_weighted_points(y, 1.0 / (-10 * sample.pi))

    def test_empty_sample_fails_both_modes(self):
        draw = make_draw([], [], N=5)
        got = asy.poverty_rate_estimates(draw, 5, asy.DesignConstants(0.2, 1.0, 0.0), 0.5, 0.6)
        assert all(isinstance(got[m], EstimationError) for m in MODES)

    def test_zero_density_fails_one_mode(self):
        # HT's bandwidth is far narrower than the gap its quantile falls in
        draw = make_draw([0.0] * 9 + [21.0, 0.5],
                         [1.0] * 7 + [0.25, 0.03125, 0.1875, 0.03125], N=76)
        constants = asy.DesignConstants(0.0, 0.0, 0.0)
        got = asy.poverty_rate_estimates(draw, 76, constants, 1.0, 1.0)
        assert isinstance(got["HT"], ZeroDensityError)
        assert_cells_equal(got, reference_cell(draw, 76, constants, 1.0, 1.0))

    def test_all_equal_sample_gets_zero_variance(self):
        draw = make_draw([4.0, 4.0, 4.0], [0.2, 0.5, 0.8], N=12)
        got = asy.poverty_rate_estimates(draw, 12, asy.DesignConstants(0.25, 1.0, 0.0),
                                         0.5, 0.6)
        assert got["HT"][1] == got["HJ"][1] == 0.0

    def test_bad_mode_rejected(self):
        sample = est.weighted_sample(make_draw([1.0, 2.0], [0.5, 0.5], N=4), 4)
        with pytest.raises(ParameterError):
            sample.ecdf("XX")
