"""The batched poverty kernel against the compositions it replaced.

``reference_*`` below is the estimation path as it was before one sorted
sample served both modes: each mode builds its CDF with the np.unique
merge of ``step_reference.StepFunction``, the scalar interpolated
quantile, a fresh kernel density per point and the plug-in variance
rebuilding the CDF.  ``WeightedSample`` and ``row_*``
are the per-draw kernel as it was before draws were batched: one sorted
sample per draw, each mode's CDF built once, all three quantile levels
from one search and one kernel density call per point.  The batched kernel must reproduce both
exactly, draw by draw.
"""

import dataclasses
import math
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from svycdf.streams import child_seed

import step_reference as ref
from step_reference import make_row, reference_ecdf

MODES = ("HT", "HJ")
TIE_EPS = 1e-12
SQRT_2PI = float(np.sqrt(2.0 * np.pi))


# ---------------------------------------------------------------------------
# Reference: the scalar composition
# ---------------------------------------------------------------------------

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


def reference_kde(draw, N, t, mode, bandwidth):
    if bandwidth <= 0.0:
        raise ParameterError("bandwidth must be positive")
    denom = float(N) if mode == "HT" else ref.n_hat(draw)
    with np.errstate(over="ignore"):    # z or z * z = inf gives the kernel value 0
        z = (np.atleast_1d(np.asarray(t, dtype=float))[:, None]
             - draw.y[None, :]) / bandwidth
        kernel = np.exp(-0.5 * z * z) / SQRT_2PI
    return float((kernel @ (1.0 / draw.pi) / (denom * bandwidth))[0])


def reference_plugin_variance(draw, N, constants, alpha, beta, mode):
    fhat = reference_ecdf(draw, N, mode)
    n_s = draw.y.size
    quantile = lambda level: reference_interpolated_quantile(fhat, level, n_s)
    bandwidth = 0.79 * (quantile(0.75) - quantile(0.25)) * n_s ** (-0.2)
    if bandwidth <= 0.0:        # a zero range, or one that underflows
        raise DegenerateBandwidthError("zero bandwidth")
    qhat = quantile(alpha)
    phihat = float(fhat.evaluate(beta * qhat))
    f_q = reference_kde(draw, N, qhat, mode, bandwidth)
    f_bq = reference_kde(draw, N, beta * qhat, mode, bandwidth)
    if f_q <= 0.0:
        raise ZeroDensityError("zero density")
    br = beta * (f_bq / f_q)
    g1, g2 = constants.gamma1, constants.gamma2

    def cov(f_min, f_s, f_t):
        # the mode's model-centered limit covariance at the CDF values
        if mode == "HT":
            return g1 * f_min + g2 * (f_s * f_t)
        return g1 * (f_min - f_s * f_t)

    # w'Cw with w = (1, -br) on (beta q, q), whose CDF values are (phihat, alpha)
    return (cov(phihat, phihat, phihat) - 2.0 * br * cov(phihat, phihat, alpha)
            + br * br * cov(alpha, alpha, alpha))


def reference_phi_and_av(draw, N, constants, alpha, beta, mode):
    f = reference_ecdf(draw, N, mode)
    qhat = reference_interpolated_quantile(f, alpha, draw.y.size)
    phi_hat = float(f.evaluate(beta * qhat))
    try:
        av_hat = reference_plugin_variance(draw, N, constants, alpha, beta, mode)
    except DegenerateBandwidthError:
        if np.all(draw.y == draw.y[0]):
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
# Reference: the per-draw kernel
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class WeightedSample:
    """One draw, checked, sorted and inverse-weighted once for both modes."""

    N: int
    y: np.ndarray
    pi: np.ndarray
    inv: np.ndarray
    n_hat: float
    order: np.ndarray
    sorted_y: np.ndarray
    has_ties: bool

    def ecdf(self, mode):
        if mode == "HT":
            weights, total_mass = 1.0 / (self.N * self.pi), None
        else:
            weights, total_mass = self.inv / self.n_hat, 1.0
        if self.has_ties:
            return ref.StepFunction.from_points(self.y, weights, total_mass)
        if np.any(weights < 0.0):
            raise ParameterError("weights must be nonnegative")
        cumulative = weights[self.order].cumsum()
        total = float(weights.sum()) if total_mass is None else float(total_mass)
        cumulative[-1] = total
        return ref.StepFunction(self.sorted_y, cumulative, total)


def weighted_sample(draw, N):
    error = ref.row_error(draw)
    if error is not None:
        raise error
    y, pi = draw.y, draw.pi
    inv = 1.0 / pi
    order = np.argsort(y)
    sorted_y = y[order]
    # np.unique merges equal values and NaNs (which sort last)
    has_ties = bool(np.isnan(sorted_y[-1]) or (sorted_y[1:] == sorted_y[:-1]).any())
    return WeightedSample(N=N, y=y, pi=pi, inv=inv, n_hat=float(inv.sum()),
                          order=order, sorted_y=sorted_y, has_ties=has_ties)


def row_quantiles(f, levels, n_points):
    """Interpolated quantiles of one step function at several levels from
    one array of cumulative positions and one search for all brackets."""
    pos = (f.cumulative / f.total_mass) * n_points
    tie = TIE_EPS * n_points
    fracs, targets = [], []
    for alpha in levels:
        h = 1.0 + (n_points - 1.0) * min(alpha / f.total_mass, 1.0)
        low = min(float(math.floor(h)), float(n_points))
        fracs.append(h - low)
        targets += [low - tie, min(low + 1.0, float(n_points)) - tie]
    idx = np.minimum(pos.searchsorted(targets, side="left"), f.locations.size - 1)
    q = f.locations[idx].tolist()
    idx = idx.tolist()
    return [q[2 * k] if idx[2 * k] == idx[2 * k + 1]
            else (1.0 - frac) * q[2 * k] + frac * q[2 * k + 1]
            for k, frac in enumerate(fracs)]


def row_density(sample, t, mode, bandwidth):
    """Kernel density of one sorted sample at the 1-d points ``t``."""
    if bandwidth <= 0.0:
        raise ParameterError("bandwidth must be positive")
    denom = float(sample.N) if mode == "HT" else sample.n_hat
    with np.errstate(over="ignore"):    # z or z * z = inf gives the kernel value 0
        z = (t[:, None] - sample.y[None, :]) / bandwidth
        kernel = np.exp(-0.5 * z * z) / SQRT_2PI
    return kernel @ sample.inv / (denom * bandwidth)


def row_plugin(sample, mode, alpha, beta):
    """(phi, (f(q), f(beta q)) or None) of one mode, interpolated rule."""
    f = sample.ecdf(mode)
    n_s = sample.y.size
    qhat, q25, q75 = row_quantiles(f, (alpha, 0.25, 0.75), n_s)
    phi = float(f.evaluate(beta * qhat))
    bandwidth = 0.79 * (q75 - q25) * n_s ** (-0.2)
    if bandwidth <= 0.0:
        return phi, None
    f_q = row_density(sample, np.array([qhat]), mode, bandwidth)
    f_bq = row_density(sample, np.array([beta * qhat]), mode, bandwidth)
    return phi, (float(f_q[0]), float(f_bq[0]))


def row_cell(draw, N, constants, alpha, beta):
    """One draw, both modes: {mode: (phi_hat, av_hat) or EstimationError}."""
    try:
        sample = weighted_sample(draw, N)
    except EstimationError as exc:
        return {"HT": exc, "HJ": exc}
    out = {}
    for mode in MODES:
        try:
            phi, densities = row_plugin(sample, mode, alpha, beta)
            if densities is not None:
                f_q, f_bq = densities
                if f_q <= 0.0:
                    raise ZeroDensityError("estimated density vanishes at the quantile")
                out[mode] = (phi, asy.derivative_variance(constants, mode, alpha,
                                                          beta * (f_bq / f_q), phi))
            elif np.all(sample.y == sample.y[0]):
                out[mode] = (phi, 0.0)
            else:
                raise DegenerateBandwidthError("weighted interquartile range is zero")
        except EstimationError as exc:
            out[mode] = exc
    return out


def kernel_cells(batch, N, constants, alpha, beta):
    """The batched kernel's result as one {mode: value or error} per row."""
    phi, av, errors = est.poverty_rate_estimates(batch, N, constants, alpha, beta)
    return [{mode: errors.get((j, k), (phi[j, k], av[j, k])) for k, mode in enumerate(MODES)}
            for j in range(batch.sizes.size)]


def kernel_cell(draw, N, constants, alpha, beta):
    return kernel_cells(draw, N, constants, alpha, beta)[0]


# ---------------------------------------------------------------------------
# Generated draws
# ---------------------------------------------------------------------------

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
    return make_row(y, pi), N, constants, alpha, beta


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

@st.composite
def batch_rows(draw):
    """One draw of a batch: 0-20 units, with ties, up to three NaN or
    infinite responses, all responses equal or a nonpositive probability
    in some rows."""
    n = draw(st.integers(min_value=0, max_value=20))
    values = draw(st.sampled_from([CONTINUOUS, DISCRETE]))
    y = draw(st.lists(values, min_size=n, max_size=n))
    pi = draw(st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=n, max_size=n))
    kind = draw(st.integers(min_value=0, max_value=5)) if n else -1
    if kind == 0:
        y = [y[0]] * n                                     # all responses equal
    elif kind == 1:
        for i in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3)):
            y[i] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    elif kind == 2:
        pi[draw(st.integers(0, n - 1))] = draw(st.sampled_from([0.0, -0.25]))
    return make_row(y, pi)


@st.composite
def failing_rows(draw):
    """A row that fails its checks: empty, or with an inclusion probability
    of 0, below 0, NaN or above 1."""
    if draw(st.booleans()):
        return make_row([], [])
    row = draw(batch_rows().filter(lambda d: d.y.size > 0))
    pi = row.pi.copy()
    pi[draw(st.integers(0, pi.size - 1))] = draw(st.sampled_from([0.0, -0.25, math.nan, 1.5]))
    return make_row(row.y, pi)


@st.composite
def batch_cases(draw):
    N = draw(st.integers(min_value=20, max_value=10_000))
    draws = draw(st.lists(batch_rows(), min_size=1, max_size=8))
    constants = asy.DesignConstants(lam=draw(st.floats(0.0, 1.0)),
                                    mu1=draw(st.floats(0.0, 10.0)),
                                    mu2=draw(st.floats(-2.0, 2.0)))
    alpha = draw(st.floats(min_value=0.01, max_value=1.0))
    beta = draw(st.floats(min_value=0.05, max_value=1.0))
    return draws, N, constants, alpha, beta


def desk_population(design, n_samples):
    """A desk-like population at N=2000, n=100, its design and its batches."""
    sc = mc.Scenario(N=2000, n=100, design=design, law=pop.SuperPopulationLaw.exponential(),
                     alpha=0.5, beta=0.6, n_populations=1, n_samples=n_samples, seed=17)
    population = pop.generate_population(sc.law, sc.N, child_seed(sc.seed, 0, 0))
    design_obj = mc._population_design(sc, 0, mc._scenario_design(sc))
    return sc, design_obj, list(mc._population_batches(sc, 0, design_obj, population))


class TestKernelOracle:
    @given(cases())
    @settings(max_examples=400, deadline=None)
    def test_cell_matches_scalar_composition(self, case):
        draw, N, constants, alpha, beta = case
        try:
            expected = reference_cell(draw, N, constants, alpha, beta)
        except Exception as exc:                      # noqa: BLE001 - class compared below
            with pytest.raises(type(exc)):
                kernel_cell(draw, N, constants, alpha, beta)
            return
        assert_cells_equal(kernel_cell(draw, N, constants, alpha, beta), expected)

    # infinite responses give inf - inf, and both kernels carry its NaN
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @given(batch_cases())
    # a subnormal response gives a bandwidth of 5.4e-314, and a unit response
    # over it overflows z to inf
    @example(([make_row([0.0, 0.0, 2.225e-313, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1.0, -1.0],
                        [1.0, 1.0, 0.03125, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.125])],
              20, asy.DesignConstants(0.0, 0.0, 0.0), 0.125, 1.0))
    @settings(max_examples=300, deadline=None)
    def test_batch_matches_per_draw_kernel(self, case):
        draws, N, constants, alpha, beta = case
        expected = []
        for draw in draws:
            try:
                expected.append(row_cell(draw, N, constants, alpha, beta))
            except Exception as exc:                  # noqa: BLE001 - class compared below
                with pytest.raises(type(exc)):
                    kernel_cells(ref.stack(draws), N, constants, alpha, beta)
                return
        got = kernel_cells(ref.stack(draws), N, constants, alpha, beta)
        assert len(got) == len(draws)
        for got_cell, expected_cell in zip(got, expected):
            assert_cells_equal(got_cell, expected_cell)

    @given(cases(), st.sampled_from(MODES))
    @settings(max_examples=200, deadline=None)
    def test_ecdf_matches_unique_merge(self, case, mode):
        draw, N, _, _, _ = case
        cdfs, errors = est._weighted_cdfs(draw, N)
        try:
            expected = reference_ecdf(draw, N, mode)
        except EstimationError as exc:
            # the failing row is reported with the reference's class and message
            assert [(j, type(e), str(e)) for j, e in errors.items()] == \
                [(0, type(exc), str(exc))]
            return
        assert not errors
        got = ref.batch_row(cdfs, 0, MODES.index(mode))
        assert np.array_equal(got.locations, expected.locations)
        assert np.array_equal(got.cumulative, expected.cumulative)
        assert got.total_mass == expected.total_mass

    @given(batch_cases())
    @settings(max_examples=200, deadline=None)
    def test_batch_ecdf_matches_unique_merge(self, case):
        draws, N, _, _, _ = case
        cdfs, errors = est._weighted_cdfs(ref.stack(draws), N)
        for j, draw in enumerate(draws):
            for k, mode in enumerate(MODES):
                try:
                    expected = reference_ecdf(draw, N, mode)
                except EstimationError as exc:
                    assert type(errors[j]) is type(exc)
                    continue
                got = ref.batch_row(cdfs, j, k)
                assert np.array_equal(got.locations, expected.locations, equal_nan=True)
                assert np.array_equal(got.cumulative, expected.cumulative)
                assert got.total_mass == expected.total_mass

    @given(st.lists(st.one_of(batch_rows(), failing_rows()), min_size=1, max_size=8),
           st.integers(min_value=20, max_value=10_000))
    @settings(max_examples=200, deadline=None)
    def test_one_mode_build_matches_two_mode_build(self, draws, N):
        # the failing draws are the ones the per-draw check refuses, in row
        # order, with its error classes and messages
        expected = {j: ref.row_error(draw) for j, draw in enumerate(draws)
                    if ref.row_error(draw) is not None}
        batch = ref.stack(draws)
        both, errors = est._weighted_cdfs(batch, N)
        for k, mode in enumerate(MODES):
            one, one_errors = est._weighted_cdfs(batch, N, (mode,))
            for found in (errors, one_errors):
                assert list(found) == list(expected)
                assert [(type(e), str(e)) for e in found.values()] == \
                    [(type(e), str(e)) for e in expected.values()]
            for name in ("y", "inv", "sizes", "n_hat", "loc", "count"):
                assert np.array_equal(getattr(one, name), getattr(both, name), equal_nan=True)
            assert np.array_equal(one.cum[0], both.cum[k])
            assert np.array_equal(one.total[0], both.total[k])

    @pytest.mark.parametrize("design", ["SI", "BE", "PO", "REJ"])
    def test_desk_draws_match(self, design):
        # 70 samples: a full batch of 64 and a short one
        sc, design_obj, batches = desk_population(design, n_samples=70)
        assert [batch.sizes.size for batch in batches] == [64, 6]
        constants = dsg.design_constants(design_obj)
        for batch in batches:
            got = kernel_cells(batch, sc.N, constants, sc.alpha, sc.beta)
            for draw, cell in zip(ref.rows(batch), got):
                assert_cells_equal(cell, row_cell(draw, sc.N, constants, sc.alpha, sc.beta))
                assert_cells_equal(cell, reference_cell(draw, sc.N, constants, sc.alpha,
                                                        sc.beta))
                if design == "SI":
                    # equal weights give both modes the same CDF floats, so the
                    # Monte Carlo guard may demand exact equality
                    assert cell["HT"][0] == cell["HJ"][0]

    def test_wide_spread_sample_is_quiet(self):
        # the far response is 1e160 bandwidths away: z * z overflows to inf
        # and its kernel value exp(-inf) = 0 is the intended one
        draw = make_row([0.1, 0.4, 0.2, 0.7, 0.5, 1e160], np.full(6, 0.5))
        constants = asy.DesignConstants(0.15, 1.0, 0.0)
        cdfs = ref.valid_cdfs(draw, 40)
        _, q25, q75 = row_quantiles(ref.batch_row(cdfs, 0, 1), (0.5, 0.25, 0.75), 6)
        bandwidth = 0.79 * (q75 - q25) * 6 ** (-0.2)
        assert 1e160 / bandwidth > math.sqrt(np.finfo(float).max)
        expected = row_cell(draw, 40, constants, 0.5, 0.6)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = kernel_cell(draw, 40, constants, 0.5, 0.6)
            dens = est._kernel_sums(np.array([[0.3, 0.5]]), cdfs.y, cdfs.inv,
                                    np.array([bandwidth]), cdfs.groups)
        assert_cells_equal(got, expected)
        assert not isinstance(got["HJ"], Exception)
        assert np.all(np.isfinite(dens))

    def test_tiny_bandwidth_is_quiet(self):
        # the far response is 1e309 bandwidths away: the divide by the
        # bandwidth already overflows to inf, and the kernel value 0 holds
        draw = make_row([0.1, 0.5, 1e9], [0.5, 0.25, 0.5])
        cdfs = ref.valid_cdfs(draw, 40)
        t = np.array([[0.5, 0.3]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = est._kernel_sums(t, cdfs.y, cdfs.inv, np.array([1e-300]), cdfs.groups)
        with np.errstate(over="ignore"):
            z = (t[0][:, None] - draw.y[None, :]) / 1e-300
            expected = np.exp(-0.5 * z * z) / SQRT_2PI @ (1.0 / draw.pi)
        assert np.all(got[0] == expected)
        assert expected[0] > 0.0 and expected[1] == 0.0


FIELDS = ("included", "pi", "y", "sizes")


@given(st.lists(st.one_of(batch_rows(), failing_rows()), min_size=1, max_size=8),
       st.integers(min_value=20, max_value=2_000))
@settings(max_examples=100, deadline=None)
def test_kernels_leave_the_batch_unchanged(draws, N):
    # a writable batch, so a kernel that wrote into it would go unnoticed
    # but for the comparison with the copies
    stacked = ref.stack(draws)
    batch = dataclasses.replace(stacked, **{name: getattr(stacked, name).copy()
                                            for name in FIELDS})
    population = pop.generate_population(pop.SuperPopulationLaw.exponential(), N, seed=N)
    constants = asy.DesignConstants(0.5, 1.0, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)     # inf - inf in some rows
        est.poverty_rate_estimates(batch, N, constants, 0.5, 0.6)
        est.process_paths(batch, population, [0.0, 1.0], "HJ_vs_FN")
    for name in FIELDS:
        assert getattr(batch, name).flags.writeable
        assert np.array_equal(getattr(batch, name), getattr(stacked, name), equal_nan=True)


class TestWeightedSample:
    def test_ties_take_the_merge_path(self):
        draw = make_row([2.0, 1.0, 2.0], [0.5, 0.25, 0.5])
        assert weighted_sample(draw, 10).has_ties
        f = ref.batch_row(ref.valid_cdfs(draw, 10), 0, 1)
        assert np.array_equal(f.locations, [1.0, 2.0])
        assert np.array_equal(f.cumulative, reference_ecdf(draw, 10, "HJ").cumulative)

    def test_distinct_values_sorted_once(self):
        draw = make_row([3.0, 1.0, 2.0], [0.5, 0.25, 0.5])
        cdfs, errors = est._weighted_cdfs(draw, 10)
        assert not errors and cdfs.count[0] == 3
        assert np.array_equal(cdfs.loc[0], [1.0, 2.0, 3.0])
        assert cdfs.n_hat[0] == ref.n_hat(draw)

    @pytest.mark.parametrize("y", [[3.0, 1.0, 2.0], [2.0, 1.0, 2.0]])
    def test_negative_weights_rejected_on_both_paths(self, y):
        # a negative N would make the HT weights negative, tied values or not
        draw = make_row(y, [0.5, 0.25, 0.5])
        with pytest.raises(ParameterError, match="population size"):
            est.poverty_rate_estimates(draw, -10, asy.DesignConstants(0.5, 1.0, 0.0),
                                       0.5, 0.6)

    def test_empty_sample_fails_both_modes(self):
        draw = make_row([], [])
        got = kernel_cell(draw, 5, asy.DesignConstants(0.2, 1.0, 0.0), 0.5, 0.6)
        assert all(isinstance(got[m], EstimationError) for m in MODES)

    def test_zero_density_fails_one_mode(self):
        # HT's bandwidth is far narrower than the gap its quantile falls in
        draw = make_row([0.0] * 9 + [21.0, 0.5],
                         [1.0] * 7 + [0.25, 0.03125, 0.1875, 0.03125])
        constants = asy.DesignConstants(0.0, 0.0, 0.0)
        got = kernel_cell(draw, 76, constants, 1.0, 1.0)
        assert isinstance(got["HT"], ZeroDensityError)
        assert_cells_equal(got, reference_cell(draw, 76, constants, 1.0, 1.0))

    def test_all_equal_sample_gets_zero_variance(self):
        draw = make_row([4.0, 4.0, 4.0], [0.2, 0.5, 0.8])
        got = kernel_cell(draw, 12, asy.DesignConstants(0.25, 1.0, 0.0), 0.5, 0.6)
        assert got["HT"][1] == got["HJ"][1] == 0.0
