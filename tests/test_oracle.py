"""Enumeration oracle: supports, moments, condition reports, divergence."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from svycdf import designs as dsg
from svycdf import montecarlo as mc
from svycdf import oracle as orc
from svycdf import population as pop
from svycdf.errors import CapacityError, DegenerateDesignError, ParameterError
from svycdf.streams import substream

import step_reference as ref


def third_order(en: orc.EnumeratedDesign) -> np.ndarray:
    """Reference pi_ijk: the full N^3 tensor of joint inclusion probabilities."""
    s = en.samples.astype(float)
    return np.einsum("s,si,sj,sk->ijk", en.probs, s, s, s, optimize=True)


def exact_moment(enumerated: orc.EnumeratedDesign, indices) -> float:
    """Reference E prod_{i in indices} (xi_i - pi_i) of 2 to 4 distinct units,
    computed over the full support."""
    idx = tuple(int(i) for i in indices)
    if not 2 <= len(idx) <= 4:
        raise ParameterError("moment order must be between 2 and 4")
    if len(set(idx)) != len(idx):
        raise ParameterError(f"indices must be distinct, got {idx}")
    if min(idx) < 0 or max(idx) >= enumerated.N:
        raise ParameterError(f"indices out of range for N={enumerated.N}")
    pi = enumerated.first_order()
    centered = enumerated.samples[:, idx].astype(float) - pi[list(idx)]
    return float(np.dot(enumerated.probs, np.prod(centered, axis=1)))


def distinct_mask(N: int, order: int) -> np.ndarray:
    """Boolean tensor selecting index tuples with all entries distinct."""
    idx = np.indices((N,) * order)
    mask = np.ones((N,) * order, dtype=bool)
    for a in range(order):
        for b in range(a + 1, order):
            mask &= idx[a] != idx[b]
    return mask


def tensor_statistics(en: orc.EnumeratedDesign) -> dict:
    """Reference third- and fourth-order condition statistics from the full
    N^3 and N^4 tensors, each with the scale its rounding error is relative to.

    The scale of a maximum or a centered sum is the same statistic of the
    absolute products E|prod|; that of the triple ratio sum adds the two
    terms the reference subtracts, pi_ijk and pi_i pi_j pi_k.
    """
    N, probs = en.N, en.probs
    pi = en.first_order()
    n = float(pi.sum())
    x = en.samples.astype(float) - pi
    ax = np.abs(x)
    d3, d4 = distinct_mask(N, 3), distinct_mask(N, 4)
    triple = np.einsum("s,si,sj,sk->ijk", probs, x, x, x, optimize=True)
    quad = np.einsum("s,si,sj,sk,sl->ijkl", probs, x, x, x, x, optimize=True)
    abs3 = np.einsum("s,si,sj,sk->ijk", probs, ax, ax, ax, optimize=True)
    abs4 = np.einsum("s,si,sj,sk,sl->ijkl", probs, ax, ax, ax, ax, optimize=True)
    outer3 = np.einsum("i,j,k->ijk", pi, pi, pi)
    outer4 = np.einsum("i,j,k,l->ijkl", pi, pi, pi, pi)
    pi3 = third_order(en)

    def max_over(t, mask):
        return float(np.abs(t[mask]).max()) if mask.any() else 0.0

    quad_scale = float((abs4 / outer4)[d4].sum()) * n**2 / N**4
    return {
        "max_triple_correlation": (max_over(triple, d3), max_over(abs3, d3)),
        "max_quad_correlation": (max_over(quad, d4), max_over(abs4, d4)),
        "triple_ratio_sum": (float(np.abs((pi3 - outer3) / outer3)[d3].sum()) * n / N**3,
                             float(((pi3 + outer3) / outer3)[d3].sum()) * n / N**3),
        "quad_centered_sum_signed": (abs(float((quad / outer4)[d4].sum())) * n**2 / N**4,
                                     quad_scale),
        "quad_centered_sum_absolute": (float(np.abs(quad / outer4)[d4].sum()) * n**2 / N**4,
                                       quad_scale),
    }


class TestEnumerate:
    def test_srswor_support(self):
        en = orc.enumerate_design(dsg.srswor(4, 2))
        assert en.probs.size == 6
        assert np.allclose(en.probs, 1.0 / 6.0)
        assert np.all(en.samples.sum(axis=1) == 2)

    def test_bernoulli_support(self):
        en = orc.enumerate_design(dsg.bernoulli(3, 0.5))
        assert en.probs.size == 8
        assert np.allclose(en.probs, 0.125)

    def test_rejective_equal_p(self):
        en = orc.enumerate_design(dsg.rejective([0.5, 0.5, 0.5], 2))
        assert en.probs.size == 3
        assert np.allclose(en.probs, 1.0 / 3.0)

    def test_rejective_mass_proportional_to_odds(self):
        p = np.array([0.2, 0.5, 0.8])
        en = orc.enumerate_design(dsg.rejective(p, 2))
        assert np.all(en.samples.sum(axis=1) == 2)   # fixed size on every support point
        odds = p / (1.0 - p)
        masses = np.array([np.prod(odds[list(np.flatnonzero(row))]) for row in en.samples])
        assert np.allclose(en.probs, masses / masses.sum(), atol=1e-15)

    def test_capacity_guards(self):
        with pytest.raises(CapacityError):
            orc.enumerate_design(dsg.srswor(40, 20))
        with pytest.raises(CapacityError):
            orc.enumerate_design(dsg.bernoulli(21, 0.5))

    def test_poisson_with_certain_unit(self):
        en = orc.enumerate_design(dsg.poisson([1.0, 0.5]))
        assert en.probs.sum() == pytest.approx(1.0, abs=1e-15)
        assert en.first_order()[0] == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("N, n", [(N, n) for N in range(1, 11) for n in range(1, N + 1)]
                             + [(14, 6), (20, 1), (20, 19), (300, 1), (300, 299), (300, 2)])
    def test_fixed_size_masks_match_loop(self, N, n):
        # same rows in the same order as one scatter per combination; N = 300
        # takes two-byte indices
        assert np.array_equal(orc._fixed_size_masks(N, n), loop_fixed_size_masks(N, n))

    @pytest.mark.parametrize("chunk", [1, 2, 5, 7, 20])
    def test_fixed_size_masks_blocks(self, monkeypatch, chunk):
        # blocks of one row, of a few rows, and a last block that is short
        monkeypatch.setattr(orc, "_CHUNK", chunk)
        for N, n in ((7, 3), (9, 2), (6, 6)):
            assert np.array_equal(orc._fixed_size_masks(N, n), loop_fixed_size_masks(N, n))

    @pytest.mark.parametrize("N", range(1, 17))
    def test_all_subsets_masks_match_shifts(self, N):
        counts = np.arange(2**N, dtype=np.int64)
        expected = ((counts[:, None] >> np.arange(N)) & 1).astype(bool)
        got = orc._all_subsets_masks(N)
        assert got.dtype == bool and np.array_equal(got, expected)

    @pytest.mark.parametrize("design", [
        dsg.srswor(2000, 2), dsg.srswor(2_000_000, 1), dsg.rejective(np.full(10000, 0.5), 9999),
    ], ids=["pairs-of-2000", "singletons-of-2000000", "all-but-one-of-10000"])
    def test_support_bytes_refused_before_allocating(self, design):
        # C(N, n) is within the row guard, but C(N, n) x N bytes is not
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="boolean rows"):
                orc.enumerate_design(design)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestExactMoment:
    def test_bernoulli_pairs_vanish(self):
        en = orc.enumerate_design(dsg.bernoulli(4, 0.3))
        assert exact_moment(en, (0, 2)) == pytest.approx(0.0, abs=1e-15)

    def test_srswor_pair(self):
        en = orc.enumerate_design(dsg.srswor(6, 3))
        assert exact_moment(en, (0, 1)) == pytest.approx(-0.05, abs=1e-14)

    def test_srswor_exchangeable_quadruples(self):
        en = orc.enumerate_design(dsg.srswor(6, 3))
        vals = {round(exact_moment(en, idx), 14)
                for idx in [(0, 1, 2, 3), (1, 2, 4, 5), (0, 2, 3, 5)]}
        assert len(vals) == 1

    def test_third_order_decomposition_identity(self):
        # E prod (xi - pi) expands into joint inclusion probabilities
        design = dsg.rejective(substream(4).uniform(0.2, 0.8, 6), 3)
        en = orc.enumerate_design(design)
        pi = en.first_order()
        pi2 = en.second_order()
        pi3 = third_order(en)
        i, j, k = 0, 2, 4
        expected = (pi3[i, j, k] - pi[i] * pi[j] * pi[k]
                    - (pi2[i, j] - pi[i] * pi[j]) * pi[k]
                    - (pi2[i, k] - pi[i] * pi[k]) * pi[j]
                    - (pi2[j, k] - pi[j] * pi[k]) * pi[i])
        assert exact_moment(en, (i, j, k)) == pytest.approx(expected, abs=1e-14)

    def test_rejects_bad_indices(self):
        en = orc.enumerate_design(dsg.srswor(4, 2))
        with pytest.raises(ParameterError):
            exact_moment(en, (0, 0))
        with pytest.raises(ParameterError):
            exact_moment(en, (0,))
        with pytest.raises(ParameterError):
            exact_moment(en, (0, 9))


class TestMarginalsAgainstDesigns:
    @pytest.mark.parametrize("design", [
        dsg.srswor(6, 3),
        dsg.bernoulli(6, 0.35),
        dsg.poisson(np.linspace(0.1, 0.9, 6)),
        dsg.rejective(np.linspace(0.15, 0.85, 6), 3),
    ], ids=["srswor", "bernoulli", "poisson", "rejective"])
    def test_first_and_second_order(self, design):
        en = orc.enumerate_design(design)
        assert np.allclose(en.first_order(), dsg.first_order_pi(design), atol=1e-13)
        assert np.allclose(en.second_order(), dsg.second_order_pi(design), atol=1e-13)


class TestConditions:
    def test_srswor_values(self):
        report = orc.check_conditions(orc.enumerate_design(dsg.srswor(6, 3)))
        assert report["max_pair_correlation"].implied_constant == pytest.approx(0.6, abs=1e-12)
        assert report["entropy_scale"].statistic == pytest.approx(1.5, abs=1e-12)
        assert report["hajek_variance_factor"].statistic == pytest.approx(0.5, abs=1e-12)
        assert report["inclusion_ratio_min"].statistic == pytest.approx(1.0, abs=1e-12)

    def test_bernoulli_cross_moments_vanish(self):
        report = orc.check_conditions(orc.enumerate_design(dsg.bernoulli(5, 0.4)))
        assert report["max_pair_correlation"].statistic == pytest.approx(0.0, abs=1e-14)
        assert report["max_triple_correlation"].statistic == pytest.approx(0.0, abs=1e-14)
        assert report["pair_ratio_rowsum"].statistic == pytest.approx(0.0, abs=1e-13)

    def test_rejective_expansion_residual_reported(self):
        design = dsg.rejective(substream(12).uniform(0.2, 0.8, 12), 6)
        report = orc.check_conditions(orc.enumerate_design(design))
        entry = report["pair_expansion_residual"]
        assert np.isfinite(entry.implied_constant)
        # the pairwise-ratio expansion constant is expected to be modest
        print(f"expansion constant at N=12: {entry.implied_constant:.3f}")

    def test_quad_sum_signed_and_absolute(self):
        report = orc.check_conditions(orc.enumerate_design(dsg.srswor(6, 3)))
        signed = report["quad_centered_sum_signed"].statistic
        absolute = report["quad_centered_sum_absolute"].statistic
        assert 0.0 <= signed <= absolute

    def test_capacity_guard(self):
        en = orc.EnumeratedDesign(
            samples=np.ones((1, 16), dtype=bool), probs=np.array([1.0]), N=16)
        with pytest.raises(CapacityError):
            orc.check_conditions(en)


def pair_constant(pi2: np.ndarray, pi: np.ndarray) -> float:
    """max |pi_ij - pi_i pi_j| over distinct pairs, times N^2/n."""
    gap = np.abs(pi2 - np.outer(pi, pi))
    np.fill_diagonal(gap, 0.0)
    return float(gap.max()) * pi.size**2 / float(pi.sum())


class TestNegativeControl:
    """Systematic pi-ps sampling leaves many pairs out (pi_ij = 0), so its pair
    correlations do not shrink as n/N^2 and the condition report's constant
    grows with N; the rejective design with the same pi, srswor and Poisson
    keep it bounded.  Sizes are lognormal(0, 0.5), n = ceil(N/10)."""

    BOUND = 10.0

    @staticmethod
    def target(N):
        n = -(-N // 10)
        x = np.random.default_rng(0).lognormal(0.0, 0.5, N)
        return n * x / x.sum(), n

    def test_pair_constant_grows_only_outside_the_conditions(self):
        systematic, bounded = [], []
        for N in (14, 100, 400):
            pi, n = self.target(N)
            sys_design = ref.systematic_design(pi)
            assert np.allclose(sys_design.first_order(), pi, rtol=0.0, atol=1e-12)
            sys_constant = pair_constant(sys_design.second_order(), sys_design.first_order())
            rej = dsg.calibrated_rejective(pi, n)
            rej_constant, *others = [
                pair_constant(dsg.second_order_pi(design), dsg.first_order_pi(design))
                for design in (rej, dsg.srswor(N, n), dsg.poisson(pi))]
            bounded += [rej_constant, *others]
            if N == 14:
                # the report's constant is the exact pairs' at this N
                for enumerated, constant in ((sys_design, sys_constant),
                                             (orc.enumerate_design(rej), rej_constant)):
                    entry = orc.check_conditions(enumerated)["max_pair_correlation"]
                    assert entry.implied_constant == pytest.approx(constant, rel=1e-9)
            systematic.append(sys_constant)
        # measured 10.8 / 153 / 666 against at most 6.4 for the bounded designs
        assert systematic == sorted(systematic) and systematic[0] > self.BOUND
        assert systematic[-1] > 50 * self.BOUND
        assert max(bounded) < self.BOUND


def loop_fixed_size_masks(N: int, n: int) -> np.ndarray:
    """Reference size-n supports: one row per ``itertools.combinations`` tuple."""
    masks = np.zeros((math.comb(N, n), N), dtype=bool)
    for row, combo in enumerate(itertools.combinations(range(N), n)):
        masks[row, combo] = True
    return masks


@st.composite
def small_designs(draw):
    """A design of any kind on 2 to 9 units."""
    kind = draw(st.sampled_from(["srswor", "bernoulli", "poisson", "rejective"]))
    N = draw(st.integers(min_value=2, max_value=9))
    if kind == "srswor":
        return dsg.srswor(N, draw(st.integers(min_value=1, max_value=N)))
    if kind == "bernoulli":
        return dsg.bernoulli(N, draw(st.floats(min_value=0.05, max_value=0.95)))
    top = 1.0 if kind == "poisson" else 0.95
    p = draw(st.lists(st.floats(min_value=0.05, max_value=top), min_size=N, max_size=N))
    if kind == "poisson":
        return dsg.poisson(p)
    return dsg.rejective(p, draw(st.integers(min_value=1, max_value=N - 1)))


def assert_matches_tensors(en: orc.EnumeratedDesign):
    report = orc.check_conditions(en)
    for key, (expected, scale) in tensor_statistics(en).items():
        assert abs(report[key].statistic - expected) <= 1e-12 * scale, key


class TestPairMomentsAgainstTensors:
    """The pair-product statistics against the full-tensor reference."""

    # with no distinct tuple the reference and its scale are 0.0, so the
    # statistic must be exactly 0.0
    @given(small_designs(), st.data())
    @example(dsg.srswor(2, 1), None)                  # N < 3
    @example(dsg.bernoulli(2, 0.4), None)             # N < 3
    @example(dsg.rejective([0.3, 0.5, 0.7], 2), None)  # N < 4
    @settings(max_examples=150, deadline=None)
    def test_statistics_match(self, design, data):
        en = orc.enumerate_design(design)
        pairs = en.N * (en.N - 1) // 2
        # blocks of 1 row up to more rows than the support has
        rows = 1 if data is None else data.draw(
            st.integers(min_value=1, max_value=en.probs.size + 2))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(orc, "_PAIR_BLOCK_BYTES", 8 * pairs * rows)
            assert_matches_tensors(en)

    @pytest.mark.parametrize("rows", [1, 7, 126, 500], ids=lambda r: f"rows{r}")
    def test_block_sizes(self, monkeypatch, rows):
        # 126 support points: blocks of one row, blocks that do not divide
        # the support, one exact block, and one block larger than the support
        en = orc.enumerate_design(dsg.rejective(np.linspace(0.2, 0.8, 9), 4))
        monkeypatch.setattr(orc, "_PAIR_BLOCK_BYTES", 8 * 36 * rows)
        assert_matches_tensors(en)

    def test_memory_is_blocked(self):
        # srswor(14, 7) has 3432 support points; one unblocked (S, N^2) float
        # array of their pair products alone is 3432 * 196 * 8 bytes = 5.4 MB
        en = orc.enumerate_design(dsg.srswor(14, 7))
        unblocked = en.probs.size * 14**2 * 8
        tracemalloc.start()
        try:
            orc.check_conditions(en)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # measured: 1.78 MB, from the (S, N) float copies of the support
        # (384 kB each) and one 256 kB block of pair products with its
        # gathered factors and weighted copy
        assert peak < 2_250_000 < unblocked


class TestExactSn2:
    def test_census_is_zero(self):
        design = dsg.poisson(np.ones(4))
        assert orc.exact_sn2(design, [1.0, 2.0, 3.0, 4.0]) == 0.0

    def test_bernoulli_closed_form(self):
        # independence: S^2 = (1/N^2) sum v_i^2 (1-p)/p
        design = dsg.bernoulli(3, 0.4)
        v = np.array([1.0, -2.0, 3.5])
        expected = np.sum(v * v) * 0.6 / 0.4 / 9.0
        assert orc.exact_sn2(design, v) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("design", [
        dsg.srswor(6, 3),
        dsg.bernoulli(6, 0.4),
        dsg.poisson(np.linspace(0.2, 0.9, 6)),
        dsg.rejective(np.linspace(0.2, 0.8, 6), 3),
    ], ids=["srswor", "bernoulli", "poisson", "rejective"])
    def test_matches_enumeration_variance(self, design):
        # independent route: the variance of the weighted mean over the
        # enumerated support, sum_s p(s) (mean_s - mu)^2, with no pi_ij
        en = orc.enumerate_design(design)
        pi = en.first_order()
        rng = substream(17)
        for _ in range(20):
            v = rng.normal(size=6)
            means = (en.samples / pi) @ v / 6.0
            mu = float(en.probs @ means)
            var = float(en.probs @ (means - mu) ** 2)
            assert orc.exact_sn2(design, v) == pytest.approx(var, abs=1e-12)


NEAR_CLIP = (dsg._P_CLIP, 3 * dsg._P_CLIP, 1.0 - dsg._P_CLIP, 1.0 - 3 * dsg._P_CLIP)


def pairwise_ratio_form(design: dsg.Design, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reference a^T Delta a from the N x N pairwise inclusion probabilities,
    and the sum of its absolute terms |a|^T |Delta| |a|, the scale of its
    rounding error."""
    pi = dsg.first_order_pi(design)
    ratio = (dsg.second_order_pi(design) - np.outer(pi, pi)) / np.outer(pi, pi)
    return a.T @ ratio @ a, np.abs(a).T @ np.abs(ratio) @ np.abs(a)


def enumerated_covariance(design: dsg.Design, a: np.ndarray) -> np.ndarray:
    """Reference covariance of the inverse-probability sums of the columns of
    ``a`` over the enumerated support, with no pairwise probability."""
    en = orc.enumerate_design(design)
    sums = (en.samples / en.first_order()) @ a
    centered = sums - en.probs @ sums
    return (centered.T * en.probs) @ centered


@st.composite
def rejective_forms(draw, max_units=40):
    """A rejective design on 2 to ``max_units`` units (n from 1 to N-1, some
    working probabilities at the clip) with K = 1 or 3 columns of ``a``."""
    N = draw(st.integers(min_value=2, max_value=max_units))
    n = draw(st.one_of(st.just(1), st.just(N - 1), st.integers(min_value=1, max_value=N - 1)))
    p = draw(st.lists(st.one_of(st.floats(min_value=0.001, max_value=0.999),
                                st.sampled_from(NEAR_CLIP)), min_size=N, max_size=N))
    K = draw(st.sampled_from([1, 3]))
    a = substream(draw(st.integers(min_value=0, max_value=2**32 - 1))).normal(size=(N, K))
    return dsg.rejective(p, n), a


def _valid(design: dsg.Design) -> bool:
    """Whether the first-order program serves the design: it refuses some
    designs whose sum(p) lies far from n, where its sums underflow."""
    try:
        dsg.first_order_pi(design)
    except DegenerateDesignError:
        return False
    return True


class TestRejectiveMoment:
    """The O(N n K^2) moment program against the pairwise and enumeration
    routes: within 1e-12 of the sum of absolute terms (measured at most
    2e-13 on 3000 random designs, N 2..40, p near the clip included)."""

    @given(rejective_forms())
    @example((dsg.rejective([0.3, 0.6], 1), np.array([[1.0], [-2.0]])))
    @example((dsg.rejective(np.linspace(0.1, 0.9, 40), 39), np.linspace(-1, 2, 120).reshape(40, 3)))
    @example((dsg.rejective([dsg._P_CLIP] * 4 + [0.5] * 4 + [1 - dsg._P_CLIP] * 4, 6),
              np.arange(12.0)[:, None]))
    @settings(max_examples=150, deadline=None)
    def test_matches_pairwise_form(self, case):
        design, a = case
        if not _valid(design):
            return
        got = orc._ratio_form(design, a)
        expected, scale = pairwise_ratio_form(design, a)
        assert np.array_equal(got, got.T)
        assert np.all(np.abs(got - expected) <= 1e-12 * scale)

    @given(rejective_forms(max_units=14))
    @example((dsg.rejective(np.linspace(0.05, 0.95, 14), 7), np.linspace(0, 1, 14)[:, None]))
    @settings(max_examples=60, deadline=None)
    def test_matches_enumeration(self, case):
        design, a = case
        if not _valid(design):
            return
        _, scale = pairwise_ratio_form(design, a)
        got = orc._ratio_form(design, a)
        assert np.all(np.abs(got - enumerated_covariance(design, a)) <= 1e-12 * scale)

    def test_desk_split_without_pairwise_pi(self, monkeypatch):
        # the calibrated split at N=10000, n=500, past the pairwise cap: finite,
        # positive, and within 2% of Hajek's approximation (its error is O(1/d))
        monkeypatch.setattr(dsg, "second_order_pi", None)
        N, n = 10000, 500
        design = dsg.calibrated_rejective(mc._split_probabilities(N, n), n)
        v = substream(23).exponential(size=N)
        var = orc.exact_sn2(design, v)
        pi = dsg.first_order_pi(design)
        weight = pi * (1.0 - pi)
        center = np.sum(weight * v / pi) / weight.sum()
        hajek = np.sum(weight * (v / pi - center) ** 2) / N**2
        assert np.isfinite(var) and var > 0.0
        assert var == pytest.approx(hajek, rel=0.02)

    def test_zero_size_probability_is_degenerate(self):
        # P(S = 29) = 1e-348 underflows to 0
        with pytest.raises(DegenerateDesignError, match="P\\(sample size = 29\\)"):
            orc._rejective_moment(np.full(30, dsg._P_CLIP), 29, np.ones((30, 1)))

    def test_tracks_over_cap_refused(self, monkeypatch):
        monkeypatch.setattr(dsg, "MAX_DP_TABLE_BYTES", 4 * 8 * 4 * 36 - 1)
        with pytest.raises(CapacityError, match="moment program"):
            orc._rejective_moment(np.full(8, 0.5), 3, np.ones((8, 5)))
        assert orc._rejective_moment(np.full(8, 0.5), 3, np.ones((8, 4))).shape == (4, 4)


class TestSigmaMatrix:
    def test_independent_design_diagonal_form(self):
        law = pop.SuperPopulationLaw.uniform01()
        popu = pop.generate_population(law, 8, seed=3)
        pi = np.linspace(0.2, 0.9, 8)
        design = dsg.poisson(pi)
        grid = np.array([0.3, 0.7])
        mat = orc.sigma_matrix(design, popu, grid, form="HT2")
        a = (popu[:, None] <= grid[None, :]).astype(float)
        n = design.expected_size
        expected = (n / 64.0) * a.T @ (a * ((1.0 - pi) / pi)[:, None])
        assert np.allclose(mat, (expected + expected.T) / 2.0, atol=1e-14)

    def test_entry_beyond_max_response(self):
        law = pop.SuperPopulationLaw.uniform01()
        popu = pop.generate_population(law, 10, seed=4)
        design = dsg.srswor(10, 4)
        mat = orc.sigma_matrix(design, popu, np.array([5.0]), form="HT2")
        pi = dsg.first_order_pi(design)
        n = design.expected_size
        # all indicators are one: diagonal + constant off-diagonal ratio
        c = (4 - 10) / (4 * 9)
        expected = (n / 100.0) * (np.sum((1.0 - pi) / pi) + c * (100 - 10))
        assert mat[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_entry_beyond_max_response_independent_design(self):
        # with independent trials the cross terms vanish and the entry is
        # exactly (n/N^2) sum (1/pi - 1)
        law = pop.SuperPopulationLaw.uniform01()
        popu = pop.generate_population(law, 10, seed=4)
        pi = np.linspace(0.2, 0.9, 10)
        design = dsg.poisson(pi)
        mat = orc.sigma_matrix(design, popu, np.array([5.0]), form="HT2")
        n = design.expected_size
        assert mat[0, 0] == pytest.approx((n / 100.0) * np.sum(1.0 / pi - 1.0),
                                          rel=1e-12)

    def test_centered_form_vanishes_at_full_mass(self):
        law = pop.SuperPopulationLaw.uniform01()
        popu = pop.generate_population(law, 10, seed=5)
        design = dsg.srswor(10, 4)
        mat = orc.sigma_matrix(design, popu, np.array([2.0]), form="HJ2", law=law)
        assert mat[0, 0] == pytest.approx(0.0, abs=1e-14)

    def test_matches_enumeration_covariance(self):
        # sigma matrix equals the enumerated covariance of the weighted sums
        law = pop.SuperPopulationLaw.exponential(1.0)
        popu = pop.generate_population(law, 6, seed=6)
        design = dsg.rejective(np.linspace(0.25, 0.75, 6), 3)
        grid = np.quantile(popu, [0.3, 0.8])
        mat = orc.sigma_matrix(design, popu, grid, form="HT2")
        en = orc.enumerate_design(design)
        pi = en.first_order()
        a = (popu[:, None] <= grid[None, :]).astype(float)
        paths = (en.samples / pi) @ a / 6.0      # weighted cdf per support point
        mean = en.probs @ paths
        cov = ((paths - mean).T * en.probs) @ (paths - mean)
        assert np.allclose(mat, design.expected_size * cov, atol=1e-13)


def dict_divergence(enumerated: orc.EnumeratedDesign, reference: orc.EnumeratedDesign) -> float:
    """Reference divergence: the reference mass of each support point from a
    dict keyed by its packed row, summed over the support in order."""
    ref = {np.packbits(row).tobytes(): p for row, p in zip(reference.samples, reference.probs)}
    div = 0.0
    for row, p in zip(enumerated.samples, enumerated.probs):
        if p <= 0.0:
            continue
        r = ref.get(np.packbits(row).tobytes(), 0.0)
        if r <= 0.0:
            return float("inf")
        div += p * math.log(p / r)
    return max(div, 0.0)


def _reordered(en: orc.EnumeratedDesign, seed: int) -> orc.EnumeratedDesign:
    order = substream(seed).permutation(en.probs.size)
    return orc.EnumeratedDesign(samples=en.samples[order], probs=en.probs[order], N=en.N)


def _on_all_subsets(en: orc.EnumeratedDesign) -> orc.EnumeratedDesign:
    """The same design listed on all 2^N subsets, with zero mass off its support."""
    rows = orc._all_subsets_masks(en.N)
    probs = np.zeros(rows.shape[0])
    index = {np.packbits(row).tobytes(): i for i, row in enumerate(rows)}
    for row, p in zip(en.samples, en.probs):
        probs[index[np.packbits(row).tobytes()]] = p
    return orc.EnumeratedDesign(samples=rows, probs=probs, N=en.N)


class TestDivergence:
    @pytest.mark.parametrize("pair", [
        "rejective-rejective", "srswor-rejective", "reordered-reference",
        "reordered-design", "all-subsets-listing", "poisson-rejective", "bernoulli-rejective",
    ])
    def test_bitwise_equal_to_dict_lookup(self, pair):
        rng = substream(31)
        ref = orc.enumerate_design(dsg.rejective(rng.uniform(0.1, 0.9, 12), 5))
        other = orc.enumerate_design(dsg.rejective(rng.uniform(0.1, 0.9, 12), 5))
        en, reference = {
            "rejective-rejective": (other, ref),
            "srswor-rejective": (orc.enumerate_design(dsg.srswor(12, 5)), ref),
            "reordered-reference": (other, _reordered(ref, 1)),
            "reordered-design": (_reordered(other, 2), ref),
            "all-subsets-listing": (_on_all_subsets(other), ref),
            "poisson-rejective": (orc.enumerate_design(dsg.poisson(rng.uniform(0.1, 0.9, 12))),
                                  ref),
            "bernoulli-rejective": (orc.enumerate_design(dsg.bernoulli(12, 0.4)),
                                    _on_all_subsets(ref)),
        }[pair]
        got = orc.divergence_from_rejective(en, reference)
        expected = dict_divergence(en, reference)
        assert got == expected
        assert np.isfinite(got) == (pair not in ("poisson-rejective", "bernoulli-rejective"))

    def test_identical_designs(self):
        en = orc.enumerate_design(dsg.rejective([0.3, 0.5, 0.7], 2))
        assert orc.divergence_from_rejective(en, en) == 0.0

    def test_srswor_equals_equal_odds_rejective(self):
        p = orc.enumerate_design(dsg.srswor(6, 3))
        r = orc.enumerate_design(dsg.rejective(np.full(6, 0.5), 3))
        assert orc.divergence_from_rejective(p, r) <= 1e-12

    def test_support_violation_is_infinite(self):
        p = orc.enumerate_design(dsg.bernoulli(3, 0.5))
        r = orc.enumerate_design(dsg.rejective([0.5, 0.5, 0.5], 2))
        assert orc.divergence_from_rejective(p, r) == float("inf")

    def test_positive_for_different_designs(self):
        p = orc.enumerate_design(dsg.srswor(5, 2))
        r = orc.enumerate_design(dsg.rejective(np.linspace(0.2, 0.8, 5), 2))
        div = orc.divergence_from_rejective(p, r)
        assert div > 0.0 and np.isfinite(div)
