"""Designs: inclusion probabilities, samplers, calibration, constants."""

import itertools
import math
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from svycdf import designs as dsg
from svycdf import montecarlo as mc
from svycdf.errors import (CalibrationError, CapacityError, DegenerateDesignError,
                           ParameterError)
from svycdf.streams import substream


def brute_force_marginals(design):
    """Independent enumeration of pi_i and pi_ij for tiny designs.

    Deliberately naive (subset loops, no shared code with the package
    internals) so it can serve as an oracle for the dynamic program.
    """
    N = design.N
    if design.kind in ("srswor", "rejective"):
        subsets = list(itertools.combinations(range(N), design.size))
        if design.kind == "srswor":
            weights = [1.0] * len(subsets)
        else:
            p = design.working_p
            weights = [math.prod(p[i] / (1.0 - p[i]) for i in s) for s in subsets]
    else:
        subsets = []
        weights = []
        prob = np.full(N, design.rate) if design.kind == "bernoulli" else design.pi
        for r in range(N + 1):
            for s in itertools.combinations(range(N), r):
                inc = set(s)
                w = math.prod(prob[i] if i in inc else 1.0 - prob[i] for i in range(N))
                subsets.append(s)
                weights.append(w)
    total = sum(weights)
    pi = np.zeros(N)
    pi2 = np.zeros((N, N))
    for s, w in zip(subsets, weights):
        for i in s:
            pi[i] += w
            for j in s:
                pi2[i, j] += w
    return pi / total, pi2 / total


def rejection_draw(design, rng, max_attempts=1_000_000):
    """Rejective draw by redrawing Poisson samples until the size is n.

    Slow when P(size = n) is small; an independent cross-check of the
    sequential sampler.
    """
    p = design.working_p
    for _ in range(max_attempts):
        indicators = rng.random(design.N) < p
        if int(indicators.sum()) == design.size:
            return np.flatnonzero(indicators)
    raise AssertionError(f"no size-{design.size} sample in {max_attempts} attempts")


def sequential_rejective(design, us):
    """The unit-by-unit rejective sampler on one row of uniforms.

    Walking units left to right with m slots open, unit i enters when
    u_i < p_i suffix[N-i-1, m-1] / suffix[N-i, m]; once the units left
    equal m, all of them enter.  The batched walk must reproduce it exactly.
    """
    p = design.working_p
    N, n = design.N, design.size
    suffix = dsg._pb_forward(p[::-1], n)
    indicators = np.zeros(N, dtype=bool)
    m = n
    for i in range(N):
        if m == 0:
            break
        remaining = N - i
        if remaining == m:
            indicators[i:] = True
            break
        pr = p[i] * suffix[remaining - 1, m - 1] / suffix[remaining, m]
        if us[i] < pr:
            indicators[i] = True
            m -= 1
    return indicators


def leave_one_out_first_order(p, n):
    """pi_i = p_i P(S_{-i} = n-1) / P(S = n), one dot product per unit.

    The per-unit loop the blocked first-order DP must reproduce exactly.
    """
    N = p.size
    fwd = dsg._pb_forward(p, n)
    bwd = dsg._pb_forward(p[::-1], n)
    total = fwd[N, n]
    if total <= 0.0:
        raise DegenerateDesignError(f"P(sample size = {n}) is zero")
    pi = np.empty(N)
    for i in range(N):
        pref = fwd[i, :n]
        suff = bwd[N - 1 - i, :n][::-1]
        pi[i] = p[i] * float(np.dot(pref, suff)) / total
    return pi


def pairwise_second_order(p, n, pi):
    """pi_ij from a dynamic program rebuilt on the N-1 units left by each i.

    Splitting that reduced sequence at unit j gives P(S_{-i,-j} = n-2) in
    one dot product; O(N^2 n) in Python loops.  The one-sweep DP must
    reproduce it exactly.
    """
    N = p.size
    total = dsg._pb_forward(p, n)[N, n]
    if total <= 0.0:
        raise DegenerateDesignError(f"P(sample size = {n}) is zero")
    pi2 = np.zeros((N, N))
    if n >= 2:
        for i in range(N):
            rest = np.delete(p, i)
            fwd = dsg._pb_forward(rest, n - 1)
            bwd = dsg._pb_forward(rest[::-1], n - 1)
            m = N - 1
            for r in range(i, m):
                j = r + 1
                pref = fwd[r, : n - 1]
                suff = bwd[m - 1 - r, : n - 1][::-1]
                val = p[i] * p[j] * float(np.dot(pref, suff)) / total
                pi2[i, j] = pi2[j, i] = val
    np.fill_diagonal(pi2, pi)
    return pi2


NEAR_CLIP = (dsg._P_CLIP, 2 * dsg._P_CLIP, 1.0 - dsg._P_CLIP)


@st.composite
def walk_cases(draw):
    """A rejective design (p near the clip bounds allowed) and S rows of uniforms."""
    N = draw(st.integers(min_value=2, max_value=32))
    n = draw(st.integers(min_value=1, max_value=N - 1))
    p = draw(st.lists(st.one_of(st.floats(min_value=0.001, max_value=0.999),
                                st.sampled_from(NEAR_CLIP)), min_size=N, max_size=N))
    S = draw(st.integers(min_value=1, max_value=5))
    us = draw(st.lists(st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
                                min_size=N, max_size=N), min_size=S, max_size=S))
    return dsg.rejective(p, n), np.array(us)


class TestRejectiveWalk:
    @given(walk_cases())
    @example((dsg.rejective([0.3, 0.6, 0.2, 0.7, 0.4], 1), np.full((1, 5), 0.5)))
    @example((dsg.rejective([0.3, 0.6, 0.2, 0.7, 0.4], 4), np.full((2, 5), 0.5)))
    @example((dsg.rejective([dsg._P_CLIP] * 6 + [0.5] * 3, 3), np.full((3, 9), 0.99)))
    @example((dsg.rejective([0.5, 0.5], 1), np.full((1, 2), 0.5)))     # u equals the threshold
    @example((dsg.rejective([dsg._P_CLIP] * 30, 29), np.zeros((2, 30))))  # thresholds underflow
    @settings(max_examples=300, deadline=None)
    def test_walk_matches_sequential_oracle(self, case):
        design, us = case
        with np.errstate(invalid="ignore"):       # 0/0 thresholds where the table underflows
            got = dsg._rejective_walk(design, us)
            expected = [sequential_rejective(design, u) for u in us]
        assert got.shape == us.shape
        for row, oracle in zip(got, expected):
            assert np.array_equal(row, oracle)
            assert row.sum() == design.size

    @given(N=st.integers(min_value=2, max_value=30), data=st.data(),
           S=st.integers(min_value=1, max_value=9), rows=st.integers(min_value=1, max_value=4),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_batches_match_single_draws_and_oracle(self, N, data, S, rows, seed):
        # S samples drawn `rows` at a time; more than `rows` in one call is refused
        n = data.draw(st.integers(min_value=1, max_value=N - 1))
        p = np.array(data.draw(st.lists(st.floats(min_value=0.01, max_value=0.99),
                                        min_size=N, max_size=N)))
        design = dsg.rejective(p, n)
        y = np.arange(N, dtype=float)
        rngs = [substream(seed, j) for j in range(S)]
        with mock.patch.object(dsg, "_BATCH_BYTES", 8 * N * rows):
            assert dsg.batch_rows(design) == rows
            if S > rows:
                with pytest.raises(CapacityError):
                    dsg.draw_batch(design, rngs)
            batch = [sample for start in range(0, S, rows)
                     for sample in dsg.draw_batch(design, rngs[start:start + rows], y=y)]
        assert len(batch) == S
        for j, sample in enumerate(batch):
            single = dsg.draw(design, substream(seed, j), y=y)
            oracle = sequential_rejective(design, substream(seed, j).random(N))
            assert np.array_equal(sample.indicators, oracle)
            assert np.array_equal(single.indicators, oracle)
            assert np.array_equal(sample.included, single.included)
            assert np.array_equal(sample.pi_included, single.pi_included)
            assert np.array_equal(sample.y_included, single.y_included)

    def test_forced_tail_fill(self):
        # the first units are all but impossible, so the last n are forced in
        design = dsg.rejective([dsg._P_CLIP] * 6 + [0.5] * 3, 3)
        us = np.full((2, 9), 0.99)
        expected = [False] * 6 + [True] * 3
        assert np.array_equal(sequential_rejective(design, us[0]), expected)
        assert np.array_equal(dsg._rejective_walk(design, us), [expected, expected])
        # the suffix table underflows to 0, so every threshold is 0/0 and only
        # the rule "the units left equal m" includes anything
        design = dsg.rejective([dsg._P_CLIP] * 30, 29)
        with np.errstate(invalid="ignore"):
            got = dsg._rejective_walk(design, np.zeros((1, 30)))
        assert np.array_equal(got[0], [False] + [True] * 29)

    def test_desk_scale_batch_matches_oracle(self):
        # the harness's low/high split at N=2000, n=100: one batch of 12 samples
        N, n = 2000, 100
        target = np.full(N, 1.6 * n / N)
        target[: N // 2] = 0.4 * n / N
        design = dsg.rejective(target[substream(31).permutation(N)], n)
        rngs = [substream(32, j) for j in range(12)]
        for j, sample in enumerate(dsg.draw_batch(design, rngs)):
            oracle = sequential_rejective(design, substream(32, j).random(N))
            assert np.array_equal(sample.indicators, oracle)

    def test_batch_rows_bound(self):
        # one bound for every design: 64 samples, or N float64 each within 4 MiB
        for desk in (dsg.rejective(np.full(10_000, 0.05), 500), dsg.srswor(10_000, 500),
                     dsg.bernoulli(10_000, 0.05), dsg.poisson(np.full(10_000, 0.05))):
            assert dsg.batch_rows(desk) == 52
            assert dsg.batch_rows(desk) * 8 * desk.N <= dsg._BATCH_BYTES
            with mock.patch.object(dsg, "_BATCH_BYTES", 8):
                assert dsg.batch_rows(desk) == 1
        assert dsg.batch_rows(dsg.rejective(np.full(10, 0.5), 5)) == dsg._BATCH_SAMPLES
        assert dsg.batch_rows(dsg.srswor(1_000, 100)) == dsg._BATCH_SAMPLES

    def test_non_rejective_batches_are_single_draws(self):
        y = np.arange(30.0)
        for design in (dsg.srswor(30, 7), dsg.bernoulli(30, 0.2),
                       dsg.poisson(np.linspace(0.1, 0.9, 30))):
            assert dsg.batch_rows(design) == dsg._BATCH_SAMPLES
            rngs = [substream(4, j) for j in range(5)]
            for j, sample in enumerate(dsg.draw_batch(design, rngs, y=y)):
                single = dsg.draw(design, substream(4, j), y=y)
                assert np.array_equal(sample.indicators, single.indicators)
                assert np.array_equal(sample.y_included, single.y_included)
            with mock.patch.object(dsg, "_BATCH_BYTES", 8 * 30 * 2):
                with pytest.raises(CapacityError):
                    dsg.draw_batch(design, rngs[:3])


class TestFirstOrder:
    def test_srswor_equal_probability(self):
        assert np.allclose(dsg.first_order_pi(dsg.srswor(6, 3)), 0.5, atol=0)

    def test_rejective_equal_p(self):
        # three size-2 subsets with equal odds -> each unit in 2 of 3
        pi = dsg.first_order_pi(dsg.rejective([0.5, 0.5, 0.5], 2))
        assert np.allclose(pi, 2.0 / 3.0, atol=1e-15)

    def test_rejective_heterogeneous_vs_brute_force(self):
        design = dsg.rejective([0.2, 0.5, 0.8], 2)
        pi, _ = brute_force_marginals(design)
        assert np.allclose(dsg.first_order_pi(design), pi, atol=1e-14)

    def test_rejective_larger_vs_brute_force(self):
        rng = substream(5)
        p = rng.uniform(0.05, 0.95, size=7)
        design = dsg.rejective(p, 3)
        pi, _ = brute_force_marginals(design)
        assert np.allclose(dsg.first_order_pi(design), pi, atol=1e-13)

    def test_rejective_cached_pi_is_the_dp(self):
        # first_order_pi shares the design's suffix table with the sampler
        p = substream(7).uniform(0.05, 0.95, size=40)
        design = dsg.rejective(p, 12)
        assert np.array_equal(dsg.first_order_pi(design), dsg._rejective_first_order(p, 12))
        assert "suffix" in design._cache

    def test_calibrated_pi_is_the_dp(self):
        target = np.full(40, 0.3)
        target[:20] = 0.1
        design = dsg.calibrated_rejective(target, 8)
        pi = dsg.first_order_pi(design)
        assert np.array_equal(pi, dsg._rejective_first_order(design.working_p, 8))
        assert np.array_equal(pi, dsg.first_order_pi(dsg.rejective(design.working_p, 8)))
        assert np.max(np.abs(pi - target)) <= 1e-10
        assert np.array_equal(dsg.calibrate_rejective_p(target, 8), design.working_p)

    def test_poisson_passthrough(self):
        pi = np.array([0.2, 0.4, 1.0])
        assert np.array_equal(dsg.first_order_pi(dsg.poisson(pi)), pi)


class TestSecondOrder:
    def test_srswor_pairs(self):
        pi2 = dsg.second_order_pi(dsg.srswor(6, 3))
        off = pi2[0, 1]
        assert off == pytest.approx(0.2, abs=1e-15)        # n(n-1)/(N(N-1))
        assert off - 0.25 == pytest.approx(-0.05, abs=1e-15)

    def test_bernoulli_independence(self):
        pi2 = dsg.second_order_pi(dsg.bernoulli(4, 0.5))
        assert pi2[0, 1] == 0.25
        assert pi2[0, 0] == 0.5

    def test_rejective_equal_p(self):
        pi2 = dsg.second_order_pi(dsg.rejective([0.5, 0.5, 0.5], 2))
        assert pi2[0, 1] == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_rejective_heterogeneous_vs_brute_force(self):
        rng = substream(6)
        p = rng.uniform(0.1, 0.9, size=6)
        design = dsg.rejective(p, 3)
        _, pi2 = brute_force_marginals(design)
        assert np.allclose(dsg.second_order_pi(design), pi2, atol=1e-13)

    def test_fixed_size_identities(self):
        # sum_i pi_i = n and sum_{j != i} (pi_ij - pi_i pi_j) = -pi_i (1 - pi_i)
        for design in (dsg.srswor(7, 3),
                       dsg.rejective(substream(9).uniform(0.1, 0.9, 7), 4)):
            pi = dsg.first_order_pi(design)
            pi2 = dsg.second_order_pi(design)
            assert float(pi.sum()) == pytest.approx(design.size, abs=1e-9)
            delta = pi2 - np.outer(pi, pi)
            np.fill_diagonal(delta, 0.0)
            assert np.allclose(delta.sum(axis=1), -pi * (1.0 - pi), atol=1e-10)


@st.composite
def dp_cases(draw):
    """Working probabilities for the rejective DP: free, two-level (the PO/REJ
    split, so many ties) or at the clip bounds, and a size 1 <= n <= N-1."""
    N = draw(st.integers(min_value=2, max_value=40))
    n = draw(st.integers(min_value=1, max_value=N - 1))
    free = st.floats(min_value=0.001, max_value=0.999)
    kind = draw(st.sampled_from(["free", "two-level", "clip"]))
    if kind == "free":
        p = draw(st.lists(free, min_size=N, max_size=N))
    elif kind == "two-level":
        levels = draw(st.lists(free, min_size=2, max_size=2))
        p = draw(st.lists(st.sampled_from(levels), min_size=N, max_size=N))
    else:
        p = draw(st.lists(st.one_of(free, st.sampled_from(NEAR_CLIP)), min_size=N, max_size=N))
    return np.array(p), n


def _dp_or_error(fn, *args):
    try:
        return fn(*args)
    except DegenerateDesignError:
        return DegenerateDesignError


class TestRejectiveDPOracles:
    """The vectorized first- and second-order DPs equal the loops above bit
    for bit, on every input, underflow included."""

    @given(dp_cases())
    @example((np.array([0.3, 0.6, 0.2, 0.7, 0.4]), 1))
    @example((np.array([0.3, 0.6, 0.2, 0.7, 0.4]), 4))
    @example((np.array([0.02] * 20 + [0.08] * 20), 2))
    @example((np.array([dsg._P_CLIP] * 6 + [1.0 - dsg._P_CLIP] * 3 + [0.5] * 3), 4))
    @example((np.full(30, dsg._P_CLIP), 29))                  # total underflows to 0
    @example((np.full(27, dsg._P_CLIP), 26))                  # total subnormal
    @example((np.array([dsg._P_CLIP] * 26 + [0.5] * 2), 27))  # total near underflow
    @settings(max_examples=300, deadline=None)
    def test_dp_matches_loops(self, case):
        p, n = case
        design = dsg.rejective(p, n)
        with np.errstate(all="ignore"):
            pi = _dp_or_error(leave_one_out_first_order, p, n)
            got = _dp_or_error(dsg.first_order_pi, design)
            if pi is DegenerateDesignError:
                assert got is DegenerateDesignError
                with pytest.raises(DegenerateDesignError):
                    dsg.second_order_pi(design)
                return
            assert np.array_equal(got, pi, equal_nan=True)
            pi2 = dsg.second_order_pi(design)
            assert np.array_equal(pi2, pairwise_second_order(p, n, pi), equal_nan=True)

    def test_first_order_blocks(self):
        # blocks of one and of two units give the per-unit loop as well
        p = substream(12).uniform(0.05, 0.95, size=25)
        for block_bytes in (8, 16 * 7, dsg._BLOCK_BYTES):
            with mock.patch.object(dsg, "_BLOCK_BYTES", block_bytes):
                assert np.array_equal(dsg._rejective_first_order(p, 7),
                                      leave_one_out_first_order(p, 7))

    def test_calibrated_harness_design(self):
        # the calibrated low/high split of the normality diagnostic, N=300, n=30
        N, n = 300, 30
        target = mc._split_probabilities(N, n)[np.random.default_rng(20260808).permutation(N)]
        design = dsg.calibrated_rejective(target, n)
        p = design.working_p
        pi = leave_one_out_first_order(p, n)
        assert np.array_equal(dsg.first_order_pi(design), pi)
        assert np.array_equal(dsg.second_order_pi(design), pairwise_second_order(p, n, pi))

    @pytest.mark.parametrize("design", [
        dsg.srswor(dsg.MAX_PAIRWISE_UNITS + 1, 10),
        dsg.bernoulli(dsg.MAX_PAIRWISE_UNITS + 1, 0.5),
        dsg.poisson(np.full(dsg.MAX_PAIRWISE_UNITS + 1, 0.5)),
        dsg.rejective(np.full(dsg.MAX_PAIRWISE_UNITS + 1, 0.5), 10),
    ], ids=lambda d: d.kind)
    def test_pairwise_cap_before_any_work(self, design):
        # refused before first-order pi, any DP table or the N x N matrix
        with mock.patch.object(dsg, "first_order_pi", side_effect=AssertionError), \
                mock.patch.object(dsg, "_pb_forward", side_effect=AssertionError):
            with pytest.raises(CapacityError, match="N x N float64 matrix"):
                dsg.second_order_pi(design)
        assert "pi" not in design._cache and "suffix" not in design._cache

    def test_pairwise_cap_poisson_million(self):
        with pytest.raises(CapacityError, match="32 MB"):
            dsg.second_order_pi(dsg.poisson(np.full(10**6, 0.5)))

    def test_pairwise_at_cap_allowed(self):
        design = dsg.poisson(np.full(dsg.MAX_PAIRWISE_UNITS, 0.5))
        assert dsg.second_order_pi(design).shape == (dsg.MAX_PAIRWISE_UNITS,) * 2


class TestDraw:
    def test_fixed_size_draws(self):
        for design in (dsg.srswor(20, 7), dsg.rejective(np.full(20, 0.35), 7)):
            for seed in range(20):
                assert dsg.draw(design, substream(seed)).size == 7

    def test_bernoulli_size_band(self):
        # 5 sigma binomial band on the realized size, 100 seeded draws
        design = dsg.bernoulli(10_000, 0.5)
        band = 5.0 * math.sqrt(10_000 * 0.25)
        for seed in range(100):
            size = dsg.draw(design, substream(seed)).size
            assert abs(size - 5000) <= band

    def test_inclusion_frequencies_match_pi(self):
        # Monte Carlo consistency: 10^4 draws, 5 sigma per unit
        reps = 10_000
        designs = [dsg.srswor(8, 3),
                   dsg.bernoulli(8, 0.4),
                   dsg.poisson(np.linspace(0.15, 0.85, 8)),
                   dsg.rejective(np.linspace(0.2, 0.8, 8), 4)]
        for k, design in enumerate(designs):
            pi = dsg.first_order_pi(design)
            rng = substream(1000 + k)
            counts = np.zeros(design.N)
            for _ in range(reps):
                counts[dsg.draw(design, rng).included] += 1
            freq = counts / reps
            tol = 5.0 * np.sqrt(pi * (1.0 - pi) / reps) + 1e-12
            assert np.all(np.abs(freq - pi) <= tol), design.kind

    def test_draw_reproducible(self):
        design = dsg.rejective(np.linspace(0.2, 0.8, 10), 4)
        a = dsg.draw(design, substream(3, 1))
        b = dsg.draw(design, substream(3, 1))
        assert np.array_equal(a.indicators, b.indicators)

    def test_draw_attaches_values(self):
        y = np.arange(10.0)
        sample = dsg.draw(dsg.srswor(10, 4), substream(2), y=y)
        assert np.array_equal(sample.y_included, y[sample.included])
        assert sample.expected_n == 4.0

    def test_sequential_matches_rejection_sampler(self):
        # same conditional law: chi-square over the support, 2*10^4 draws each
        design = dsg.rejective([0.15, 0.3, 0.45, 0.6, 0.75], 2)
        reps = 20_000
        seq, rej = {}, {}
        rng_a, rng_b = substream(21), substream(22)
        for _ in range(reps):
            key = dsg.draw(design, rng_a).included.tobytes()
            seq[key] = seq.get(key, 0) + 1
            key = rejection_draw(design, rng_b).tobytes()
            rej[key] = rej.get(key, 0) + 1
        keys = sorted(set(seq) | set(rej))
        stat = sum((seq.get(k, 0) - rej.get(k, 0)) ** 2 /
                   (seq.get(k, 0) + rej.get(k, 0)) for k in keys)
        # two-sample chi-square, df = cells - 1 = 9; 99.9% quantile = 27.88
        assert stat < 27.88


class TestCalibration:
    def test_equal_targets(self):
        p = dsg.calibrate_rejective_p(np.full(6, 0.5), 3)
        assert np.allclose(p, 0.5, atol=1e-9)

    def test_roundtrip(self):
        design = dsg.rejective([0.1, 0.3, 0.5, 0.7, 0.9], 2)
        target = dsg.first_order_pi(design)
        p = dsg.calibrate_rejective_p(target, 2)
        achieved = dsg.first_order_pi(dsg.rejective(p, 2))
        assert np.max(np.abs(achieved - target)) <= 1e-8

    def test_sum_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            dsg.calibrate_rejective_p([0.5, 0.5, 0.5], 2)

    def test_target_out_of_range_rejected(self):
        with pytest.raises(ParameterError):
            dsg.calibrate_rejective_p([1.0, 0.5, 0.5], 2)

    def test_nan_target_rejected(self):
        with pytest.raises(ParameterError):
            dsg.calibrated_rejective([float("nan"), 0.5, 0.5], 1)

    @pytest.mark.parametrize("kwargs", [
        {"max_iter": 0}, {"max_iter": -3},
        {"tol": -1.0}, {"tol": 0.0}, {"tol": float("nan")}, {"tol": float("inf")},
    ])
    def test_bad_stopping_rule_rejected_before_any_dp(self, kwargs, monkeypatch):
        def no_dp(*args, **kw):
            raise AssertionError("dynamic program run")
        monkeypatch.setattr(dsg, "_rejective_first_order", no_dp)
        with pytest.raises(ParameterError):
            dsg.calibrated_rejective(np.full(6, 0.5), 3, **kwargs)

    def test_nonconvergence_reports_residual(self):
        target = dsg.first_order_pi(dsg.rejective([0.05, 0.35, 0.6, 0.85], 2))
        with pytest.raises(CalibrationError) as err:
            dsg.calibrate_rejective_p(target, 2, tol=1e-16, max_iter=2)
        assert err.value.residual is not None and err.value.residual > 0


class TestDesignConstants:
    def test_srswor_half(self):
        c = dsg.design_constants(dsg.srswor(1000, 500))
        assert c.lam == 0.5
        assert c.mu1 == pytest.approx(0.5, abs=1e-12)
        assert c.mu2 == pytest.approx(-0.5, abs=1e-12)
        assert c.gamma1 == pytest.approx(1.0, abs=1e-12)
        assert c.gamma2 == pytest.approx(-1.0, abs=1e-12)

    def test_bernoulli_gamma1_is_one(self):
        c = dsg.design_constants(dsg.bernoulli(1000, 0.05))
        assert c.gamma1 == pytest.approx(1.0, abs=1e-12)
        assert c.gamma2 == pytest.approx(-0.05, abs=1e-12)

    def test_low_high_split_gamma1(self):
        # half the units at 0.4 n/N, half at 1.6 n/N:
        # gamma1 = (1/2)(1/0.4 + 1/1.6) = 1.5625 independent of N and n
        n_over_n = 5 / 100
        pi = np.full(100, 1.6 * n_over_n)
        pi[:50] = 0.4 * n_over_n
        c = dsg.design_constants(dsg.poisson(pi))
        assert c.gamma1 == pytest.approx(1.5625, abs=1e-12)

    def test_rejective_expansion_value(self):
        design = dsg.rejective(np.linspace(0.2, 0.8, 10), 5)
        pi = dsg.first_order_pi(design)
        c = dsg.design_constants(design)
        q = 1.0 - pi
        d = float(np.sum(pi * q))
        expected = -(5.0 / (100.0 * d)) * (q.sum() ** 2 - np.sum(q * q))
        assert c.mu2 == pytest.approx(expected, rel=1e-12)
        assert c.d == pytest.approx(d, rel=1e-12)


class TestValidation:
    def test_bad_designs(self):
        with pytest.raises(ParameterError):
            dsg.srswor(5, 6)
        with pytest.raises(ParameterError):
            dsg.bernoulli(5, 1.0)
        with pytest.raises(ParameterError):
            dsg.poisson([0.5, 0.0])
        with pytest.raises(ParameterError):
            dsg.rejective([0.5, 1.0, 0.5], 2)
        with pytest.raises(ParameterError):
            dsg.rejective([0.5, 0.5, 0.5], 3)   # rejective needs n <= N-1

    @pytest.mark.parametrize("make", [
        lambda bad: dsg.poisson([bad, 0.5, 0.5]),
        lambda bad: dsg.rejective([bad, 0.5, 0.5], 1),
        lambda bad: dsg.bernoulli(3, bad),
    ], ids=["poisson", "rejective", "bernoulli"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_probabilities(self, make, bad):
        with pytest.raises(ParameterError):
            make(bad)

    def test_pickle_leaves_the_cache_behind(self):
        design = dsg.calibrated_rejective(np.linspace(0.1, 0.5, 8) * (3 / 2.4), 3)
        dsg.draw(design, 1)
        assert set(design._cache) == {"pi", "suffix"}
        copy = pickle.loads(pickle.dumps(design))
        assert copy._cache == {} and set(design._cache) == {"pi", "suffix"}
        assert np.array_equal(copy.working_p, design.working_p)
        assert np.array_equal(dsg.first_order_pi(copy), dsg.first_order_pi(design))

    def test_poisson_certain_units_allowed(self):
        design = dsg.poisson([1.0, 0.5])
        assert dsg.first_order_pi(design)[0] == 1.0

    def test_poisson_binomial_table_invariants(self):
        table = dsg._pb_forward(np.array([0.2, 0.5, 0.8]), 2)
        assert table[0, 0] == 1.0
        assert np.all(table.sum(axis=1) <= 1.0 + 1e-12)
        full = dsg._pb_forward(np.array([0.2, 0.5, 0.8]), 3)
        assert full[3].sum() == pytest.approx(1.0, abs=1e-14)
        assert full[3, 2] == pytest.approx(
            0.2 * 0.5 * 0.2 + 0.2 * 0.5 * 0.8 + 0.8 * 0.5 * 0.8, abs=1e-15)
