"""Enumeration oracle: supports, moments, condition reports, divergence."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from svycdf import designs as dsg
from svycdf import oracle as orc
from svycdf import population as pop
from svycdf.errors import CapacityError, ParameterError
from svycdf.streams import substream


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


class TestDivergence:
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
