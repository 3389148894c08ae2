"""Designs: inclusion probabilities, samplers, calibration, constants."""

import itertools
import math
import pickle
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from svycdf import designs as dsg
from svycdf import montecarlo as mc
from svycdf import oracle as orc
from svycdf.errors import (CalibrationError, CapacityError, DegenerateDesignError,
                           ParameterError)
from svycdf.streams import substream

import step_reference as ref


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


def pb_table(probs, n_max):
    """Partial-sum PMF table of independent Bernoulli trials, one new row
    allocated per trial.

    Row i holds P(X_1 + ... + X_i = k) for k = 0..n_max, counts above n_max
    truncated away.  The allocating form of the dynamic program; the
    in-place kernel of the package must equal it bit for bit.
    """
    m = probs.size
    table = np.zeros((m + 1, n_max + 1))
    table[0, 0] = 1.0
    for i in range(m):
        p = probs[i]
        row = table[i]
        nxt = row * (1.0 - p)
        nxt[1:] += row[:-1] * p
        table[i + 1] = nxt
    return table


def sequential_rejective(design, us):
    """The unit-by-unit rejective sampler on one row of uniforms.

    Walking units left to right with m slots open, unit i enters when
    u_i < p_i suffix[N-i-1, m-1] / suffix[N-i, m]; once the units left
    equal m, all of them enter.  The batched walk must reproduce it exactly.
    """
    p = design.working_p
    N, n = design.N, design.size
    suffix = pb_table(p[::-1], n)
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
    fwd = pb_table(p, n)
    bwd = pb_table(p[::-1], n)
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
    total = pb_table(p, n)[N, n]
    if total <= 0.0:
        raise DegenerateDesignError(f"P(sample size = {n}) is zero")
    pi2 = np.zeros((N, N))
    if n >= 2:
        for i in range(N):
            rest = np.delete(p, i)
            fwd = pb_table(rest, n - 1)
            bwd = pb_table(rest[::-1], n - 1)
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
        assert got.shape == (us.shape[0], design.size)
        for row, oracle in zip(got, expected):
            assert np.array_equal(row, np.flatnonzero(oracle))

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
                    dsg.draw(design, rngs, y)
            batch = [sample for start in range(0, S, rows)
                     for sample in ref.rows(dsg.draw(design, rngs[start:start + rows], y))]
        assert len(batch) == S
        for j, sample in enumerate(batch):
            single = dsg.draw(design, [substream(seed, j)], y)
            oracle = np.flatnonzero(sequential_rejective(design, substream(seed, j).random(N)))
            assert np.array_equal(sample.included, oracle)
            assert np.array_equal(single.included, oracle)
            assert np.array_equal(sample.pi, single.pi)
            assert np.array_equal(sample.y, single.y)

    def test_forced_tail_fill(self):
        # the first units are all but impossible, so the last n are forced in
        design = dsg.rejective([dsg._P_CLIP] * 6 + [0.5] * 3, 3)
        us = np.full((2, 9), 0.99)
        expected = [False] * 6 + [True] * 3
        assert np.array_equal(sequential_rejective(design, us[0]), expected)
        positions = np.flatnonzero(expected)
        assert np.array_equal(dsg._rejective_walk(design, us), [positions, positions])
        # the suffix table underflows to 0, so every threshold is 0/0 and only
        # the rule "the units left equal m" includes anything
        design = dsg.rejective([dsg._P_CLIP] * 30, 29)
        with np.errstate(invalid="ignore"):
            got = dsg._rejective_walk(design, np.zeros((1, 30)))
        assert np.array_equal(got[0], np.arange(1, 30))

    def test_desk_scale_batch_matches_oracle(self):
        # the harness's low/high split at N=2000, n=100: one batch of 12 samples
        N, n = 2000, 100
        target = np.full(N, 1.6 * n / N)
        target[: N // 2] = 0.4 * n / N
        design = dsg.rejective(target[substream(31).permutation(N)], n)
        rngs = [substream(32, j) for j in range(12)]
        for j, sample in enumerate(ref.rows(dsg.draw(design, rngs, np.zeros(N)))):
            oracle = sequential_rejective(design, substream(32, j).random(N))
            assert np.array_equal(sample.included, np.flatnonzero(oracle))

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

    @pytest.mark.parametrize("design", [
        dsg.srswor(30, 7), dsg.bernoulli(30, 0.2), dsg.poisson(np.linspace(0.1, 0.9, 30)),
        dsg.rejective(np.linspace(0.1, 0.9, 30), 7)], ids=["SI", "BE", "PO", "REJ"])
    def test_batch_matches_alone_and_stream_oracle(self, design):
        # each sample of a batch is its generator drawn alone, and reads that
        # generator's stream as the design's textbook sampler does
        N = design.N
        y = np.arange(N, dtype=float)
        pi = dsg.first_order_pi(design)
        assert dsg.batch_rows(design) == dsg._BATCH_SAMPLES
        rngs = [substream(4, j) for j in range(5)]
        for j, sample in enumerate(ref.rows(dsg.draw(design, rngs, y))):
            alone = dsg.draw(design, [substream(4, j)], y)
            for field in ("included", "pi", "y", "sizes"):
                assert np.array_equal(getattr(sample, field), getattr(alone, field)), field
            g = substream(4, j)
            if design.kind == "srswor":
                oracle = np.sort(g.choice(N, size=design.size, replace=False))
            elif design.kind == "rejective":
                oracle = np.flatnonzero(sequential_rejective(design, g.random(N)))
            else:
                oracle = np.flatnonzero(g.random(N) < pi)
            assert np.array_equal(sample.included, oracle)
            assert np.array_equal(sample.pi, pi[oracle])
            assert np.array_equal(sample.y, y[oracle])
        with mock.patch.object(dsg, "_BATCH_BYTES", 8 * N * 2):
            with pytest.raises(CapacityError):
                dsg.draw(design, rngs[:3], y)


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
        assert design.pi is None and design._suffix is None
        assert np.array_equal(dsg.first_order_pi(design), ref.rejective_first_order(p, 12))
        assert design._suffix is not None and dsg.first_order_pi(design) is design.pi

    def test_calibrated_pi_is_the_dp(self):
        target = np.full(40, 0.3)
        target[:20] = 0.1
        design = dsg.calibrated_rejective(target, 8)
        pi = dsg.first_order_pi(design)
        assert np.array_equal(pi, ref.rejective_first_order(design.working_p, 8))
        assert np.array_equal(pi, dsg.first_order_pi(dsg.rejective(design.working_p, 8)))
        assert np.max(np.abs(pi - target)) <= 1e-10
        assert np.array_equal(dsg.calibrate_rejective_p(target, 8), design.working_p)

    def test_poisson_passthrough(self):
        pi = np.array([0.2, 0.4, 1.0])
        assert np.array_equal(dsg.first_order_pi(dsg.poisson(pi)), pi)


def _assert_relabel_matches_rebuild(design, perm, seed):
    """``relabel(design, perm)`` against ``rejective(p[perm], n)``, whose
    first-order probabilities come from the DP: pi and the design constants
    within rounding, the suffix table and the draws bit for bit."""
    p, n = design.working_p, design.size
    relabeled = dsg.relabel(design, perm)
    rebuilt = dsg.rejective(p[perm], n)
    assert np.array_equal(relabeled.working_p, rebuilt.working_p)
    with mock.patch.object(dsg, "_rejective_first_order", side_effect=AssertionError):
        pi = dsg.first_order_pi(relabeled)
    assert relabeled._suffix is None and pi is relabeled.pi and not pi.flags.writeable
    reference = ref.rejective_first_order(p[perm], n)
    assert np.allclose(pi, reference, rtol=1e-13, atol=0.0)
    got, want = dsg.design_constants(relabeled), dsg.design_constants(rebuilt)
    for name in ("lam", "mu1", "mu2"):
        assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-12, abs=0.0)
    assert np.array_equal(relabeled._suffix_table(), rebuilt._suffix_table())
    y = np.arange(design.N, dtype=float)
    samples = range(min(3, dsg.batch_rows(design)))
    a = dsg.draw(relabeled, [substream(seed, j) for j in samples], y)
    b = dsg.draw(rebuilt, [substream(seed, j) for j in samples], y)
    assert np.array_equal(a.sizes, b.sizes)
    assert np.array_equal(a.included, b.included)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.pi, pi[a.included])
    assert np.allclose(a.pi, b.pi, rtol=1e-13, atol=0.0)


@st.composite
def relabel_cases(draw):
    """A rejective design with working probabilities in [0.01, 0.99] (free or
    two-level), a permutation of its units and a stream seed."""
    N = draw(st.integers(min_value=2, max_value=40))
    n = draw(st.integers(min_value=1, max_value=N - 1))
    free = st.floats(min_value=0.01, max_value=0.99)
    if draw(st.booleans()):
        p = draw(st.lists(free, min_size=N, max_size=N))
    else:
        levels = draw(st.lists(free, min_size=2, max_size=2))
        p = draw(st.lists(st.sampled_from(levels), min_size=N, max_size=N))
    perm = draw(st.permutations(range(N)))
    return dsg.rejective(p, n), np.array(perm), draw(st.integers(0, 2**32 - 1))


class TestRelabel:
    """A relabeled design reuses its source's first-order probabilities; the
    DP on the reordered units stays the reference."""

    @given(relabel_cases())
    @example((dsg.rejective([0.3, 0.6, 0.2, 0.7, 0.4], 1), np.array([4, 2, 0, 1, 3]), 0))
    @example((dsg.rejective([0.3, 0.6, 0.2, 0.7, 0.4], 4), np.arange(5)[::-1], 1))
    @example((dsg.rejective([0.02] * 20 + [0.08] * 20, 2), np.roll(np.arange(40), 7), 2))
    @settings(max_examples=150, deadline=None)
    def test_rejective_matches_rebuilt_design(self, case):
        design, perm, seed = case
        _assert_relabel_matches_rebuild(design, perm, seed)

    def test_desk_scale_calibrated_split(self):
        # the harness's calibrated low/high split at N=10000, n=500
        N, n = 10_000, 500
        design = dsg.calibrated_rejective(mc._split_probabilities(N, n), n)
        _assert_relabel_matches_rebuild(design, substream(3, 0, 1).permutation(N), 5)

    def test_poisson_takes_reordered_pi(self):
        design = dsg.poisson(substream(8).uniform(0.05, 1.0, size=30))
        perm = substream(9).permutation(30)
        relabeled = dsg.relabel(design, perm)
        assert relabeled.kind == "poisson"
        assert np.array_equal(relabeled.pi, design.pi[perm])
        assert np.array_equal(dsg.first_order_pi(relabeled), design.pi[perm])

    @pytest.mark.parametrize("design", [dsg.srswor(30, 7), dsg.bernoulli(30, 0.2)],
                             ids=["SI", "BE"])
    def test_exchangeable_designs_unchanged(self, design):
        assert dsg.relabel(design, substream(9).permutation(30)) is design


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


@st.composite
def pb_cases(draw):
    """Bernoulli probabilities for the Poisson-binomial table, m = 1..30
    trials, and a count cap n_max of 1, from 1 to m + 3, or at least m (no
    truncation)."""
    m = draw(st.integers(min_value=1, max_value=30))
    n_max = draw(st.one_of(st.just(1), st.integers(1, m + 3), st.integers(m, m + 3)))
    probs = draw(st.lists(st.one_of(st.floats(min_value=0.001, max_value=0.999),
                                    st.sampled_from(NEAR_CLIP)), min_size=m, max_size=m))
    return np.array(probs), n_max


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
        # a block of n=7 holds _BLOCK_BYTES // (8 * 8) units: blocks of one
        # and two units, of four (the last block holds a single unit), of
        # five (the last block ends exactly at N=25), one block larger than
        # N, and the default give the per-unit loop as well
        p = substream(12).uniform(0.05, 0.95, size=25)
        row_bytes = 8 * (7 + 1)
        for block_bytes in (8, row_bytes, 2 * row_bytes, 4 * row_bytes, 5 * row_bytes,
                            30 * row_bytes, dsg._BLOCK_BYTES):
            with mock.patch.object(dsg, "_BLOCK_BYTES", block_bytes):
                assert np.array_equal(ref.rejective_first_order(p, 7),
                                      leave_one_out_first_order(p, 7))

    @given(pb_cases())
    @example((np.array([0.4]), 1))                            # one trial, one count
    @example((np.array([0.4]), 3))                            # one trial, n_max > m
    @example((np.array([dsg._P_CLIP, 0.5, 1.0 - dsg._P_CLIP]), 1))
    @example((np.linspace(0.1, 0.9, 5), 5))                   # n_max = m
    @example((np.full(30, dsg._P_CLIP), 29))                  # top counts underflow
    @example((np.full(12, 1e-170), 3))                        # p^2 underflows
    @settings(max_examples=200, deadline=None)
    def test_pb_kernel_matches_allocating_table(self, case):
        # the in-place tables equal the allocating one bit for bit: the
        # suffix table read through its top-count-first layout, and the
        # kernel's ascending (prefix) layout
        probs, n_max = case
        table = dsg._pb_forward(probs, n_max)
        assert table.shape == (probs.size + 1, n_max + 1)
        assert np.array_equal(table[:, ::-1], pb_table(probs, n_max))
        prefix = np.zeros((probs.size + 1, n_max + 1))
        prefix[0, 0] = 1.0
        assert np.array_equal(dsg._pb_rows(prefix, probs), pb_table(probs, n_max))

    @pytest.mark.parametrize("n", [2, 5, 11])
    def test_zero_total_raises_before_dividing(self, n):
        # P(S = n) underflows to 0 (p^2 already does); it is read only at the
        # end of the prefix sweep, and the error comes before the division,
        # so no RuntimeWarning is issued
        p = np.full(12, 1e-170)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pb_table(p, n)[12, n] == 0.0
            zero = rf"P\(sample size = {n}\) is 0.0, not positive and finite"
            with pytest.raises(DegenerateDesignError, match=zero):
                ref.rejective_first_order(p, n)
            design = dsg.rejective(p, n)
            with pytest.raises(DegenerateDesignError, match=zero):
                dsg.first_order_pi(design)
            with pytest.raises(DegenerateDesignError, match=zero):
                dsg._rejective_second_order(p, n, np.zeros(12), design._suffix_table())

    def test_underflowed_dot_products_refused(self):
        # P(S = n) stays positive, but every leave-one-out dot product
        # underflows, so the program's pi would all be 0 (E[S] = 2559 >> n)
        p = np.random.default_rng(4).uniform(0.01, 0.5, 10000)
        design = dsg.rejective(p, 500)
        with pytest.raises(DegenerateDesignError, match="sum to 0, not n=500"):
            dsg.first_order_pi(design)
        with pytest.raises(DegenerateDesignError, match="sum to 0, not n=500"):
            dsg.draw(design, [substream(5)], np.zeros(10000))
        assert design.pi is None

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
        pi = design.pi          # set by the factory for poisson only
        with mock.patch.object(dsg, "first_order_pi", side_effect=AssertionError), \
                mock.patch.object(dsg, "_pb_rows", side_effect=AssertionError):
            with pytest.raises(CapacityError, match="N x N float64 matrix"):
                dsg.second_order_pi(design)
        assert design.pi is pi and (pi is None) == (design.kind != "poisson")
        assert design._suffix is None

    def test_pairwise_cap_poisson_million(self):
        with pytest.raises(CapacityError, match="32 MB"):
            dsg.second_order_pi(dsg.poisson(np.full(10**6, 0.5)))

    def test_pairwise_at_cap_allowed(self):
        design = dsg.poisson(np.full(dsg.MAX_PAIRWISE_UNITS, 0.5))
        assert dsg.second_order_pi(design).shape == (dsg.MAX_PAIRWISE_UNITS,) * 2


class TestDPMemory:
    """The rejective path holds one (N+1) x (n+1) table, the suffix table."""

    N, n = 4000, 400

    def _peak(self, fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def _bound(self):
        # one suffix table (12.8 MB) plus 2 MiB for the first-order block
        # (at most _BLOCK_BYTES) and the N-vectors; a second table would
        # double the peak
        return 8 * (self.N + 1) * (self.n + 1) + 2 * 2**20

    def test_first_order_peak(self):
        p = mc._split_probabilities(self.N, self.n)
        peak = self._peak(lambda: dsg.first_order_pi(dsg.rejective(p, self.n)))
        assert peak <= self._bound()

    def test_calibration_peak(self):
        target = mc._split_probabilities(self.N, self.n)
        peak = self._peak(dsg.calibrated_rejective, target, self.n)
        assert peak <= self._bound()

    def test_calibration_refills_one_table(self):
        # every exact pass writes its suffix table into the one buffer the
        # calibration allocated, instead of a fresh (N+1) x (n+1) table;
        # above the recursion's bound every iteration is an exact pass
        N, n = 14, 6
        target = mc._split_probabilities(N, n)
        assert target.max() > dsg._RECURSION_MAX_TARGET
        with mock.patch.object(dsg, "_pb_forward", wraps=dsg._pb_forward) as spy:
            design = dsg.calibrated_rejective(target, n)
        outs = [call.kwargs.get("out") for call in spy.call_args_list]
        assert len(outs) >= 2
        assert isinstance(outs[0], np.ndarray) and outs[0].shape == (N + 1, n + 1)
        assert all(out is outs[0] for out in outs)
        assert np.array_equal(dsg.first_order_pi(design),
                              leave_one_out_first_order(design.working_p, n))
        # below it the recursion iterates and one exact pass confirms
        N, n = 200, 20
        with mock.patch.object(dsg, "_pb_forward", wraps=dsg._pb_forward) as spy:
            design = dsg.calibrated_rejective(mc._split_probabilities(N, n), n)
        assert spy.call_count == 1
        assert spy.call_args.kwargs["out"].shape == (N + 1, n + 1)
        assert np.array_equal(dsg.first_order_pi(design),
                              leave_one_out_first_order(design.working_p, n))


class TestTableCap:
    def test_suffix_table_refused_before_any_work(self):
        design = dsg.rejective(np.full(10**6, 0.5), 1000)
        with mock.patch.object(dsg, "_pb_forward", side_effect=AssertionError):
            with pytest.raises(CapacityError,
                               match="dynamic program needs 8008 MB at N=1000000, n=1000;"):
                dsg.first_order_pi(design)
            with pytest.raises(CapacityError, match="dynamic program"):
                dsg.draw(design, [substream(1)], np.zeros(design.N))
        assert design.pi is None and design._suffix is None

    def test_cap_boundary(self, monkeypatch):
        # a table of exactly the cap is built, one byte less is refused
        N, n = 50, 10
        p = np.linspace(0.1, 0.9, N)
        monkeypatch.setattr(dsg, "MAX_DP_TABLE_BYTES", 8 * (N + 1) * (n + 1))
        assert np.array_equal(dsg.first_order_pi(dsg.rejective(p, n)),
                              leave_one_out_first_order(p, n))
        monkeypatch.setattr(dsg, "MAX_DP_TABLE_BYTES", 8 * (N + 1) * (n + 1) - 1)
        with pytest.raises(CapacityError, match="limited to 0 MB"):
            dsg.first_order_pi(dsg.rejective(p, n))

    def test_calibration_refused_before_any_dp(self, monkeypatch):
        def no_dp(*args, **kw):
            raise AssertionError("dynamic program run")
        monkeypatch.setattr(dsg, "_rejective_first_order", no_dp)
        monkeypatch.setattr(dsg, "MAX_DP_TABLE_BYTES", 8 * 7 * 4 - 1)
        with pytest.raises(CapacityError, match="needs 0 MB at N=6, n=3;"):
            dsg.calibrated_rejective(np.full(6, 0.5), 3)

    def test_desk_case_far_inside(self):
        assert 25 * 8 * 10001 * 501 < dsg.MAX_DP_TABLE_BYTES


class TestDraw:
    def test_fixed_size_draws(self):
        for design in (dsg.srswor(20, 7), dsg.rejective(np.full(20, 0.35), 7)):
            for seed in range(20):
                assert dsg.draw(design, [substream(seed)], np.zeros(20)).included.size == 7

    def test_included_indices_increase(self):
        for design in (dsg.srswor(50, 20), dsg.bernoulli(50, 0.4),
                       dsg.poisson(np.linspace(0.1, 0.9, 50)),
                       dsg.rejective(np.linspace(0.1, 0.9, 50), 20)):
            for seed in range(10):
                included = dsg.draw(design, [substream(seed)], np.zeros(50)).included
                assert included.dtype == np.intp
                assert np.all(np.diff(included) > 0), design.kind

    def test_bernoulli_size_band(self):
        # 5 sigma binomial band on the realized size, 100 seeded draws
        design = dsg.bernoulli(10_000, 0.5)
        band = 5.0 * math.sqrt(10_000 * 0.25)
        for seed in range(100):
            size = dsg.draw(design, [substream(seed)], np.zeros(10_000)).included.size
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
                counts[dsg.draw(design, [rng], np.zeros(8)).included] += 1
            freq = counts / reps
            tol = 5.0 * np.sqrt(pi * (1.0 - pi) / reps) + 1e-12
            assert np.all(np.abs(freq - pi) <= tol), design.kind

    def test_draw_reproducible(self):
        design = dsg.rejective(np.linspace(0.2, 0.8, 10), 4)
        a = dsg.draw(design, [substream(3, 1)], np.zeros(10))
        b = dsg.draw(design, [substream(3, 1)], np.zeros(10))
        assert np.array_equal(a.included, b.included)

    def test_draw_attaches_values(self):
        y = np.arange(10.0)
        sample = dsg.draw(dsg.srswor(10, 4), [substream(2)], y)
        assert np.array_equal(sample.y, y[sample.included])
        assert sample.expected_n == 4.0

    def test_batch_is_flat_and_read_only(self):
        # rows of several lengths, an empty one among them, concatenated in order
        design = dsg.poisson(np.full(6, 0.3))
        rngs = [substream(7, j) for j in range(20)]
        batch = dsg.draw(design, rngs, np.arange(6.0))
        alone = [dsg.draw(design, [substream(7, j)], np.arange(6.0)) for j in range(20)]
        assert np.array_equal(batch.sizes, [row.included.size for row in alone])
        assert 0 in batch.sizes and len(set(batch.sizes.tolist())) > 2
        assert np.array_equal(batch.included, np.concatenate([row.included for row in alone]))
        for values in (batch.included, batch.pi, batch.y, batch.sizes):
            assert not values.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            batch.pi[...] = 1.0

    @pytest.mark.parametrize("y", [np.arange(5.0), np.arange(21.0), np.zeros((20, 1)),
                                   np.float64(1.0)], ids=["short", "long", "2-d", "scalar"])
    def test_draw_refuses_misshapen_responses(self, y):
        # one response per unit: a short y would index past its end and a
        # long one would silently lose its tail
        for design in (dsg.poisson(np.full(20, 0.3)), dsg.srswor(20, 7),
                       dsg.rejective(np.full(20, 0.35), 7)):
            with pytest.raises(ParameterError, match=r"one response per unit, shape \(20,\)"):
                dsg.draw(design, [substream(1)], y)

    def test_draw_needs_a_generator(self):
        with pytest.raises(ParameterError, match="at least one generator"):
            dsg.draw(dsg.srswor(20, 7), [], np.zeros(20))

    def test_sequential_matches_rejection_sampler(self):
        # same conditional law: chi-square over the support, 2*10^4 draws each
        design = dsg.rejective([0.15, 0.3, 0.45, 0.6, 0.75], 2)
        reps = 20_000
        seq, rej = {}, {}
        rng_a, rng_b = substream(21), substream(22)
        for _ in range(reps):
            key = dsg.draw(design, [rng_a], np.zeros(5)).included.tobytes()
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

    def test_target_not_one_per_unit_rejected_before_any_dp(self, monkeypatch):
        def no_dp(*args, **kw):
            raise AssertionError("dynamic program run")
        monkeypatch.setattr(dsg, "_rejective_first_order", no_dp)
        with pytest.raises(ParameterError, match="one target probability per unit"):
            dsg.calibrated_rejective(np.full((2, 4), 0.25), 2)

    def test_renormalized_odds_match_brentq(self):
        # the bisection root against the Brent root it replaced
        from scipy.optimize import brentq
        rng = np.random.default_rng(20)
        for _ in range(200):
            N = int(rng.integers(5, 2000))
            n = int(rng.integers(1, N))
            odds = 10.0 ** rng.uniform(-8.0, 8.0, N)

            def gap(log_c):
                co = np.exp(log_c) * odds
                return float(np.sum(co / (1.0 + co))) - n

            lo, hi = -1.0, 1.0
            while gap(lo) > 0.0:
                lo -= 8.0
            while gap(hi) < 0.0:
                hi += 8.0
            log_c = brentq(gap, lo, hi, xtol=1e-14)
            p = dsg._renormalize_odds(odds, n)
            assert abs(float(p.sum()) - n) <= 1e-9
            # log c of the unit nearest 1/2, where the clip is inactive
            k = int(np.argmin(np.abs(p - 0.5)))
            found = math.log(p[k] / (1.0 - p[k])) - math.log(odds[k])
            # the float sum resolves n only to spacing(n), so the root is
            # defined only to spacing(n) / slope, slope = sum p (1 - p)
            slope = float(np.sum(p * (1.0 - p)))
            assert abs(found - log_c) <= max(1e-13, 2.0 * np.spacing(float(n)) / slope)

    def _logged_calibration(self, caplog, capsys, N, n):
        """Calibrate the N, n split twice, silent at the default level and
        logging at DEBUG; return the record's arguments, the calls of the
        suffix table build (one per exact pass) and of the recursion."""
        target = mc._split_probabilities(N, n)
        dsg.calibrated_rejective(target, n)              # default level: silent
        assert capsys.readouterr() == ("", "")
        assert not caplog.records
        with caplog.at_level("DEBUG", logger="svycdf.designs"), \
                mock.patch.object(dsg, "_pb_forward", wraps=dsg._pb_forward) as exact, \
                mock.patch.object(dsg, "_recursive_first_order",
                                  wraps=dsg._recursive_first_order) as fast:
            design = dsg.calibrated_rejective(target, n)
        [record] = caplog.records
        assert record.levelname == "DEBUG" and record.name == "svycdf.designs"
        iterations, passes, residual = record.args
        assert passes == exact.call_count               # one suffix table per exact pass
        # the residual logged is the exact program's
        assert np.array_equal(dsg.first_order_pi(design),
                              ref.rejective_first_order(design.working_p, n))
        assert residual == float(np.max(np.abs(dsg.first_order_pi(design) - target)))
        assert record.getMessage() == (f"rejective calibration: {iterations} iterations "
                                       f"({passes} exact), residual {residual:.3e}")
        assert capsys.readouterr() == ("", "")
        return iterations, passes, fast.call_count

    def test_calibration_logs_iterations_and_residual(self, caplog, capsys):
        # below the bound the recursion runs at every iteration, and one
        # exact pass confirms the last
        iterations, passes, recursions = self._logged_calibration(caplog, capsys, 200, 20)
        assert iterations == recursions >= 2 and passes == 1

    def test_calibration_logs_exact_passes_above_bound(self, caplog, capsys):
        assert mc._split_probabilities(14, 6).max() > dsg._RECURSION_MAX_TARGET
        iterations, passes, recursions = self._logged_calibration(caplog, capsys, 14, 6)
        assert iterations == passes >= 2 and recursions == 0

    def test_nonconvergence_reports_residual(self, monkeypatch):
        monkeypatch.setattr(dsg, "_CALIBRATION_TOL", 1e-16)
        monkeypatch.setattr(dsg, "_CALIBRATION_MAX_ITER", 2)
        target = dsg.first_order_pi(dsg.rejective([0.05, 0.35, 0.6, 0.85], 2))
        with pytest.raises(CalibrationError, match=r"after 2 iterations \(2 exact\)") as err:
            dsg.calibrate_rejective_p(target, 2)
        assert err.value.residual is not None and err.value.residual > 0

    @staticmethod
    def _exact_passes(t, n):
        """Calibrate to ``t``; return the design and the (p, pi) of every
        exact pass."""
        passes = []
        dp = dsg._rejective_first_order

        def exact(p, n, table):
            passes.append((p.copy(), dp(p, n, table)))
            return passes[-1][1]

        with mock.patch.object(dsg, "_rejective_first_order", side_effect=exact):
            design = dsg.calibrated_rejective(t, n)
        return design, passes

    @staticmethod
    def _scan_target(seed):
        """A feasible target of the calibration scan: N in 10..299, logits
        U(-8, 8) clipped to [1e-6, 1 - 1e-6], renormalized in odds to sum n."""
        rng = np.random.default_rng(seed)
        N = int(rng.integers(10, 300))
        n = int(rng.integers(2, N - 1))
        t = np.clip(1.0 / (1.0 + np.exp(-rng.uniform(-8.0, 8.0, N))), 1e-6, 1.0 - 1e-6)
        return dsg._renormalize_odds(t / (1.0 - t), n), n

    def test_scan_targets_converge(self):
        # the ratio step t / pi raised CalibrationError on most of these; the
        # odds-ratio step fits every one, 1148 (N=16, n=14, max t 0.9999993)
        # included, in a few dozen exact passes
        slow = {}
        for seed in [*range(40), 1148]:
            t, n = self._scan_target(seed)
            design, passes = self._exact_passes(t, n)
            pi = dsg.first_order_pi(design)
            assert np.array_equal(pi, ref.rejective_first_order(design.working_p, n))
            assert np.max(np.abs(pi - t)) <= 1e-10
            if len(passes) > 60:
                slow[seed] = len(passes)
        assert slow == {}

    @staticmethod
    def _odds_step(p, pi, t, n, step):
        return dsg._renormalize_odds((p / (1.0 - p)) * odds_ratio(t, pi) ** step, n)

    def test_step_halved_when_residual_grows(self):
        # an extreme target: the exact residual grows once, at pass 2, and
        # every later step is taken at half the exponent, sqrt of the odds
        # ratio after pass 2
        rng = np.random.default_rng(0)
        N, n = 20, 10
        t = np.clip(1.0 / (1.0 + np.exp(-rng.uniform(-40.0, 40.0, N))), 1e-6, 1.0 - 1e-6)
        t = dsg._renormalize_odds(t / (1.0 - t), n)
        design, passes = self._exact_passes(t, n)
        residuals = [float(np.max(np.abs(pi - t))) for _, pi in passes]
        assert [k + 1 for k in range(1, len(passes)) if residuals[k] > residuals[k - 1]] == [2]
        (p0, pi0), (p1, pi1), (p2, _) = passes[:3]
        assert np.array_equal(p1, self._odds_step(p0, pi0, t, n, 1.0))
        assert np.array_equal(p2, dsg._renormalize_odds(
            (p1 / (1.0 - p1)) * np.sqrt(odds_ratio(t, pi1)), n))
        for (p, pi), (following, _) in zip(passes[2:], passes[3:]):
            assert np.array_equal(following, self._odds_step(p, pi, t, n, 0.5))
        assert residuals[-1] <= 1e-10 and len(passes) == 27
        assert np.array_equal(design.working_p, passes[-1][0])

    def test_step_halved_when_error_reverses(self):
        # two units share the one slot the near-certain third leaves:
        # Hajek's Jacobian is half the true one there, so the full step
        # lands the error back reversed at almost its size, the residual
        # shrinking by a hair; the halved step lands on the target
        t = np.array([0.5 - 2.5e-5 + 5e-8, 0.5 + 2.5e-5 + 5e-8, 1.0 - 1e-7])
        assert t.sum() == 2.0
        design, passes = self._exact_passes(t, 2)
        (p0, pi0), (p1, pi1), (p2, pi2) = passes
        err0, err1 = pi0 - t, pi1 - t
        assert np.max(np.abs(err1)) <= np.max(np.abs(err0))
        assert np.dot(err1, err0) < -0.99 * np.dot(err0, err0)
        assert np.array_equal(p1, self._odds_step(p0, pi0, t, 2, 1.0))
        assert np.array_equal(p2, self._odds_step(p1, pi1, t, 2, 0.5))
        assert np.max(np.abs(pi2 - t)) <= 1e-10

    @pytest.mark.parametrize("max_iter", [1, 2, 3])
    def test_nonconvergence_residual_is_exact(self, max_iter, monkeypatch):
        # the recursion runs at every iteration but the last, which is an
        # exact pass, so the residual reported is the program's
        monkeypatch.setattr(dsg, "_CALIBRATION_MAX_ITER", max_iter)
        N, n = 200, 20
        target = mc._split_probabilities(N, n)
        values = []
        dp = dsg._rejective_first_order

        def exact(*args):
            values.append(dp(*args))
            return values[-1]

        with mock.patch.object(dsg, "_rejective_first_order", side_effect=exact), \
                mock.patch.object(dsg, "_recursive_first_order",
                                  wraps=dsg._recursive_first_order) as fast, \
                pytest.raises(CalibrationError, match=rf"after {max_iter} iterations \(1 exact\)") \
                as err:
            dsg.calibrated_rejective(target, n)
        assert fast.call_count == max_iter - 1 and len(values) == 1
        assert err.value.residual == float(np.max(np.abs(values[0] - target))) > 1e-10


@st.composite
def calibration_targets(draw):
    """A feasible calibration target on at most 12 units: logits in [-8, 8]
    as probabilities clipped to [1e-6, 1 - 1e-6], renormalized in odds to
    sum to an n in 1..N-1."""
    N = draw(st.integers(min_value=2, max_value=12))
    n = draw(st.integers(min_value=1, max_value=N - 1))
    logits = np.array(draw(st.lists(st.floats(min_value=-8.0, max_value=8.0),
                                    min_size=N, max_size=N)))
    t = np.clip(1.0 / (1.0 + np.exp(-logits)), 1e-6, 1.0 - 1e-6)
    return dsg._renormalize_odds(t / (1.0 - t), n), n


@given(calibration_targets())
@example((np.array([0.5 - 2.5e-5 + 5e-8, 0.5 + 2.5e-5 + 5e-8, 1.0 - 1e-7]), 2))
@settings(max_examples=200, deadline=None)
def test_calibration_matches_enumeration(case):
    # the pi of the enumerated calibrated design: the 1e-10 stopping rule
    # plus the enumeration's rounding (a few 1e-15)
    t, n = case
    pi = orc.enumerate_design(dsg.calibrated_rejective(t, n)).first_order()
    assert np.max(np.abs(pi - t)) <= 2e-10


def odds_ratio(t, pi):
    return (t / (1.0 - t)) / (pi / (1.0 - pi))


def plain_calibration(target, n, ratio=odds_ratio, tol=1e-10, max_iter=10_000):
    """The damped fixed point with an exact pass at every iteration, each
    step multiplying the odds by ``ratio(t, pi)`` raised to the step exponent.

    With the odds ratio, the calibration loop as it runs above the
    recursion's bound; the package must reproduce its working probabilities
    bit for bit there.  With t / pi, the recursion phase's step.
    """
    t = np.asarray(target, dtype=float)
    p = t.copy()
    prev_resid, prev_err, step = np.inf, np.zeros_like(t), 1.0
    for _ in range(max_iter):
        pi = ref.rejective_first_order(p, n)
        err = pi - t
        resid = float(np.max(np.abs(err)))
        if resid <= tol:
            return p
        if resid > prev_resid or np.dot(err, prev_err) < -0.5 * np.dot(prev_err, prev_err):
            step *= 0.5
        prev_resid, prev_err = resid, err
        p = dsg._renormalize_odds((p / (1.0 - p)) * ratio(t, pi) ** step, n)
    raise AssertionError("no convergence")


@st.composite
def recursion_cases(draw):
    """A rejective design whose exact inclusion probabilities are positive
    and at most the recursion's bound: p at most 1/2 or at the lower clip
    bound, n the nearest size to sum(p) in 1..N-1."""
    N = draw(st.integers(min_value=2, max_value=60))
    p = np.array(draw(st.lists(st.one_of(st.floats(min_value=0.001, max_value=0.5),
                                         st.sampled_from(NEAR_CLIP[:2])),
                               min_size=N, max_size=N)))
    n = min(N - 1, max(1, round(float(p.sum()))))
    pi = _dp_or_error(ref.rejective_first_order, p, n)
    assume(pi is not DegenerateDesignError)
    assume(np.all(pi > 0.0) and pi.max() <= dsg._RECURSION_MAX_TARGET)
    return p, n, pi


class TestRecursion:
    """The O(n)-step recursion against the exact program, and the
    calibration that uses it only where it agrees."""

    @given(recursion_cases())
    @example((np.array([0.02] * 20 + [0.08] * 20), 2,
              ref.rejective_first_order(np.array([0.02] * 20 + [0.08] * 20), 2)))
    @example((np.array([dsg._P_CLIP] * 6 + [0.5] * 4), 1,
              ref.rejective_first_order(np.array([dsg._P_CLIP] * 6 + [0.5] * 4), 1)))
    @settings(max_examples=200, deadline=None)
    def test_matches_dp_below_bound(self, case):
        p, n, pi = case
        got = dsg._recursive_first_order(p, n)
        assert np.all(np.abs(got - pi) <= 1e-13 * pi)

    @pytest.mark.parametrize("p, n", [
        ([dsg._P_CLIP] * 30, 29),                              # the program underflows
        ([dsg._P_CLIP] * 30, 1),
        ([dsg._P_CLIP] * 6 + [0.5] * 3, 3),
        ([dsg._P_CLIP] * 6 + [1.0 - dsg._P_CLIP] * 3 + [0.5] * 3, 4),
        ([dsg._P_CLIP, 2 * dsg._P_CLIP, 1.0 - dsg._P_CLIP], 1),
        ([dsg._P_CLIP, 2 * dsg._P_CLIP, 1.0 - dsg._P_CLIP], 2),  # leaves [0, 1]
        ([1.0 - dsg._P_CLIP] * 5 + [dsg._P_CLIP], 5),
    ])
    def test_clip_bounds_stay_finite(self, p, n):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = dsg._recursive_first_order(np.array(p), n)
        assert np.all(np.isfinite(got))
        assert got.sum() == pytest.approx(n, rel=1e-12)

    def test_desk_split_matches_dp(self):
        N, n = 10000, 500
        p = mc._split_probabilities(N, n)
        pi = ref.rejective_first_order(p, n)
        assert np.all(np.abs(dsg._recursive_first_order(p, n) - pi) <= 1e-13 * pi)

    def test_wrong_in_range_recursion_is_caught(self, monkeypatch):
        # with the bound lifted, the recursion's values at this design (max
        # pi 0.81) stay inside (0, 1) but are off by 3e-8, so its iterates
        # stall above tol; the program takes over, decides convergence, and
        # the cached pi is its value
        N, n = 100, 50
        p = np.random.default_rng(20260808).uniform(0.01, 0.7, N)
        target = ref.rejective_first_order(p, n)
        wrong = dsg._recursive_first_order(p, n)
        assert np.all((wrong > 0.0) & (wrong < 1.0))
        assert np.max(np.abs(wrong - target)) > 1e-8
        monkeypatch.setattr(dsg, "_RECURSION_MAX_TARGET", 1.0)
        with mock.patch.object(dsg, "_recursive_first_order",
                               wraps=dsg._recursive_first_order) as fast:
            design = dsg.calibrated_rejective(target, n)
        assert fast.call_count >= 2
        pi = dsg.first_order_pi(design)
        assert np.array_equal(pi, ref.rejective_first_order(design.working_p, n))
        assert np.max(np.abs(pi - target)) <= 1e-10

    @pytest.mark.parametrize("seed", [20260808, 7])
    def test_above_bound_is_the_plain_fixed_point(self, seed):
        # the N=14, n=6 oracle split has targets up to 0.686: no recursion
        # runs, and p is bit for bit that of an exact pass per iteration
        target = mc._split_probabilities(14, 6)[np.random.default_rng(seed).permutation(14)]
        assert target.max() > dsg._RECURSION_MAX_TARGET
        with mock.patch.object(dsg, "_recursive_first_order", side_effect=AssertionError):
            p = dsg.calibrate_rejective_p(target, 6)
        assert np.array_equal(p, plain_calibration(target, 6))

    def test_below_bound_close_to_the_plain_fixed_point(self):
        # the desk split: the recursion moves p only by rounding from the
        # exact ratio steps it stands for; one exact pass confirms it
        N, n = 10000, 500
        target = mc._split_probabilities(N, n)
        p = dsg.calibrate_rejective_p(target, n)
        plain = plain_calibration(target, n, ratio=lambda t, pi: t / pi)
        assert np.max(np.abs(p - plain) / p) <= 1e-14


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


class TestOwnership:
    """A design owns its arrays and its probabilities ``pi``."""

    def test_factories_copy_their_arrays(self):
        x = np.full(5, 0.5)
        design = dsg.poisson(x)
        assert x.flags.writeable and design.pi is not x and not design.pi.flags.writeable
        x[:] = 0.9
        assert np.all(design.pi == 0.5) and design.expected_size == 2.5
        p = np.linspace(0.2, 0.6, 5)
        design = dsg.rejective(p, 2)
        assert p.flags.writeable and design.working_p is not p
        assert not design.working_p.flags.writeable
        p[:] = 0.9
        assert np.array_equal(design.working_p, np.linspace(0.2, 0.6, 5))
        assert np.array_equal(dsg.first_order_pi(design),
                              ref.rejective_first_order(np.linspace(0.2, 0.6, 5), 2))

    def test_expected_size_and_pi_set_by_the_factory(self):
        # the expected size is n, N p, sum(pi) or n; pi is set where the
        # factory knows it and filled by first_order_pi otherwise
        si, be = dsg.srswor(10, 3), dsg.bernoulli(10, 0.3)
        po, rej = dsg.poisson([0.1, 0.2, 0.4]), dsg.rejective([0.2, 0.5, 0.8], 2)
        assert [d.expected_size for d in (si, be, po, rej)] == [3.0, 10 * 0.3,
                                                                float(np.sum(po.pi)), 2.0]
        assert si.rate == 3 / 10 and be.rate == 0.3
        assert si.pi is None and be.pi is None and rej.pi is None
        for design in (si, be, po, rej):
            pi = dsg.first_order_pi(design)
            assert design.pi is pi and not pi.flags.writeable
        assert np.array_equal(si.pi, np.full(10, 3 / 10))
        assert np.array_equal(be.pi, np.full(10, 0.3))
        calibrated = dsg.calibrated_rejective(np.full(6, 0.5), 3)
        assert calibrated.pi is not None and not calibrated.pi.flags.writeable

    def test_no_probabilities_before_first_use(self):
        # a srswor design on more units than floats costs nothing until asked
        design = dsg.srswor(10 ** 400, 3)
        assert design.pi is None and design.expected_size == 3.0 and design.rate == 0.0


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
        dsg.draw(design, [substream(1)], np.zeros(8))
        assert design.pi is not None and design._suffix is not None
        # pi (N floats) travels with a pickled design; the suffix table does not
        copy = pickle.loads(pickle.dumps(design))
        assert copy._suffix is None and design._suffix is not None
        assert np.array_equal(copy.working_p, design.working_p)
        assert np.array_equal(copy.pi, design.pi)
        assert not copy.pi.flags.writeable and not copy.working_p.flags.writeable
        with mock.patch.object(dsg, "_rejective_first_order", side_effect=AssertionError):
            assert np.array_equal(dsg.first_order_pi(copy), dsg.first_order_pi(design))
        assert np.array_equal(copy._suffix_table(), design._suffix_table())

    def test_poisson_certain_units_allowed(self):
        design = dsg.poisson([1.0, 0.5])
        assert dsg.first_order_pi(design)[0] == 1.0

    def test_poisson_binomial_table_invariants(self):
        table = dsg._pb_forward(np.array([0.2, 0.5, 0.8]), 2)[:, ::-1]
        assert table[0, 0] == 1.0
        assert np.all(table.sum(axis=1) <= 1.0 + 1e-12)
        full = dsg._pb_forward(np.array([0.2, 0.5, 0.8]), 3)[:, ::-1]
        assert full[3].sum() == pytest.approx(1.0, abs=1e-14)
        assert full[3, 2] == pytest.approx(
            0.2 * 0.5 * 0.2 + 0.2 * 0.5 * 0.8 + 0.8 * 0.5 * 0.8, abs=1e-15)
