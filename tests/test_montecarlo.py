"""Monte Carlo harness: reproducibility, degenerate laws, diagnostics."""

import multiprocessing
import pickle
import re
import time
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from svycdf import designs as dsg
from svycdf import montecarlo as mc
from svycdf import population as pop
from svycdf.errors import DiagnosticError, ParameterError, ScenarioError
from svycdf.streams import substream
from test_golden_reports import report_hex

import step_reference as ref

EXP1 = pop.SuperPopulationLaw.exponential(1.0)


def small_scenario(design="SI", **kw):
    args = dict(N=400, n=60, design=design, law=EXP1, alpha=0.5, beta=0.6,
                n_populations=6, n_samples=8, seed=11)
    args.update(kw)
    return mc.Scenario(**args)


class TestScenarioValidation:
    def test_bad_sizes(self):
        with pytest.raises(ParameterError):
            small_scenario(n=500)
        with pytest.raises(ParameterError):
            small_scenario(n_populations=0)

    def test_po_inclusion_bound(self):
        # the high-probability half would exceed one
        with pytest.raises(ParameterError):
            small_scenario(design="PO", N=100, n=70)

    def test_unknown_design(self):
        with pytest.raises(ParameterError):
            small_scenario(design="XX")

    def test_stream_address_bounds(self):
        # the report holds 16 bytes per cell, so the cells are bounded (which
        # keeps every stream index within one 32-bit word); seeds are non-negative
        with pytest.raises(ParameterError, match="seed"):
            small_scenario(seed=-1)
        with pytest.raises(ParameterError, match=re.escape(
                "n_populations * n_samples must be at most 2**26, got 2 * 33554433")):
            small_scenario(n_populations=2, n_samples=2**25 + 1)
        small_scenario(seed=0, n_populations=2, n_samples=2**25)
        small_scenario(n_populations=2**26, n_samples=1)

    def test_population_size_bound(self):
        # a worker holds about four N-length 8-byte arrays, so N is bounded
        small_scenario(N=mc.MAX_POPULATION_UNITS, n=10)
        with pytest.raises(ParameterError, match=f"N={2**24 + 1} exceeds the bound 16777216"):
            small_scenario(N=2**24 + 1, n=10)

    @pytest.mark.parametrize("law", [EXP1, pop.SuperPopulationLaw.uniform01()],
                             ids=["exponential", "uniform01"])
    def test_beta_one_needs_a_discrete_law(self, law):
        # F(F^-1(alpha)) = alpha for a law with a density, so the reference
        # variance is rounding noise and no relative bias is defined
        with pytest.raises(ParameterError, match=f"beta = 1 needs a discrete law, got {law.kind}"):
            small_scenario(law=law, beta=1.0)
        small_scenario(law=pop.SuperPopulationLaw.discrete([1.0, 2.0], [0.5, 0.5]), beta=1.0)


class TestRunScenario:
    def test_point_mass_rb_zero_coverage_full(self):
        law = pop.SuperPopulationLaw.discrete([5.0], [1.0])
        sc = small_scenario(N=40, n=8, law=law, alpha=0.5, beta=0.9,
                            n_populations=4, n_samples=5, seed=3)
        rep = mc.run_scenario(sc)
        for key in rep.rb_phi:
            assert rep.rb_phi[key] == 0.0
            assert rep.coverage[key] == 100.0
        assert rep.n_failures == {"HT": 0, "HJ": 0}

    @pytest.mark.parametrize("design", ["SI", "PO"])
    def test_zero_target_with_nonzero_estimates_refused(self, design):
        # on the points 1, 2, 3 the rate F(0.9 F^-1(0.5)) = F(0.9) is 0, for
        # the model and every population, but the interpolated estimates are not
        law = pop.SuperPopulationLaw.discrete([1.0, 2.0, 3.0], [0.5, 0.3, 0.2])
        sc = small_scenario(design=design, N=200, n=20, law=law, alpha=0.5, beta=0.9,
                            n_populations=2, n_samples=50, seed=1)
        with pytest.raises(ScenarioError,
                           match="relative bias undefined: zero target with nonzero estimates"):
            mc.run_scenario(sc)

    def test_si_estimators_coincide(self):
        rep = mc.run_scenario(small_scenario())
        for center in mc.CENTERS:
            assert rep.rb_phi[("HT", center)] == rep.rb_phi[("HJ", center)]
            assert rep.coverage[("HT", center)] == rep.coverage[("HJ", center)]

    @pytest.mark.parametrize("N, n", [(1000, 30), (937, 18)])
    def test_si_estimators_agree_within_rounding(self, N, n):
        # the HT weights fl(1/(N pi)) and the HJ weights fl((1/pi)/n_hat)
        # round differently in these cells, so the rates differ in the last bits
        rep = mc.run_scenario(small_scenario(N=N, n=n, n_populations=4, n_samples=50, seed=1))
        assert rep.n_failures == {"HT": 0, "HJ": 0}

    def test_si_disagreement_still_refused(self, monkeypatch):
        estimates = mc.est.poverty_rate_estimates

        def perturbed(*args):
            phi, av, errors = estimates(*args)
            phi[:, 1] *= 1.0 + 1e-9
            return phi, av, errors

        monkeypatch.setattr(mc.est, "poverty_rate_estimates", perturbed)
        with pytest.raises(ScenarioError, match="SI estimators must coincide within 1e-12"):
            mc.run_scenario(small_scenario(N=1000, n=30, n_populations=2, n_samples=5, seed=1))

    def test_bitwise_reproducible(self):
        a = mc.run_scenario(small_scenario(design="PO", N=600, n=150))
        b = mc.run_scenario(small_scenario(design="PO", N=600, n=150))
        assert a.rb_phi == b.rb_phi
        assert a.rb_av == b.rb_av
        assert a.coverage == b.coverage
        assert a.mc_variance == b.mc_variance

    def test_worker_count_invariant(self):
        sc = small_scenario(design="BE", N=500, n=120, n_populations=5, n_samples=6)
        serial = mc.run_scenario(sc, workers=1)
        parallel = mc.run_scenario(sc, workers=2)
        assert serial.rb_phi == parallel.rb_phi
        assert serial.rb_av == parallel.rb_av
        assert serial.coverage == parallel.coverage
        assert serial.n_failures == parallel.n_failures
        assert serial.rb_phi_se == parallel.rb_phi_se
        assert serial.rb_av_se == parallel.rb_av_se
        assert serial.mc_variance == parallel.mc_variance

    def test_failure_budget_enforced(self):
        # expected size 2 out of 30: empty samples occur in ~13% of draws
        sc = small_scenario(design="BE", N=30, n=2, n_populations=4, n_samples=12)
        with pytest.raises(ScenarioError):
            mc.run_scenario(sc)

    def test_odd_population_split(self):
        # the middle unit takes what is left of n: n/N, and a sum of n, up to rounding
        N, n = 1001, 100
        p = mc._split_probabilities(N, n)
        assert p.sum() == pytest.approx(n, rel=1e-12, abs=0.0)
        assert p[N // 2] == pytest.approx(n / N, rel=1e-12, abs=0.0)
        assert np.all(p[:N // 2] == mc.PO_LOW * (n / N))
        assert np.all(p[N // 2 + 1:] == mc.PO_HIGH * (n / N))
        for design in ("PO", "REJ"):
            rep = mc.run_scenario(small_scenario(design=design, N=N, n=n, n_populations=4,
                                                 n_samples=50))
            assert rep.n_failures == {"HT": 0, "HJ": 0}

    def test_rejective_scenario_runs(self):
        rep = mc.run_scenario(small_scenario(design="REJ", N=200, n=60,
                                             n_populations=3, n_samples=6))
        assert rep.n_cells == 18
        for key, value in rep.rb_phi.items():
            assert np.isfinite(value)

    def test_rb_magnitude_sane(self):
        rep = mc.run_scenario(small_scenario(N=500, n=50, n_populations=30,
                                             n_samples=30, seed=5))
        for value in rep.rb_phi.values():
            assert abs(value) < 5.0

    def test_small_sample_unequal_probability_coverage(self):
        # reference coverage for this cell is 93.2 (HJ) / 93.5 (HT) against
        # the model parameter; reduced replication reproduces it closely
        sc = small_scenario(design="PO", N=1000, n=50, n_populations=200,
                            n_samples=200, seed=20260808)
        rep = mc.run_scenario(sc, workers=2)
        assert rep.n_failures == {"HT": 0, "HJ": 0}
        assert rep.coverage[("HJ", "F")] == pytest.approx(93.2, abs=1.5)
        assert rep.coverage[("HT", "F")] == pytest.approx(93.5, abs=1.5)


class TestFailedDraws:
    """The tables, their normality report and the process diagnostic count
    and exclude failed draws alike, and refuse a job past the 1% budget with
    one error."""

    @staticmethod
    def bernoulli(n):
        return small_scenario(design="BE", N=100, n=n, n_populations=20, n_samples=100, seed=3)

    def test_failed_draws_counted_and_excluded(self, monkeypatch):
        # expected size 6 of 100: 6 of the 2000 samples are empty, and the
        # normality report judges the 1994 others
        sc = self.bernoulli(6)
        seen = []
        shape = mc._shape_statistics
        monkeypatch.setattr(mc, "_shape_statistics", lambda z: seen.append(z.size) or shape(z))
        rep = mc.run_scenario(sc)
        assert rep.n_failures == {"HT": 6, "HJ": 6}
        assert seen == [1994, 1994]
        assert all(np.isfinite(v) for v in rep.normality.values())
        res = mc.process_covariance_check(sc, [0.5, 1.0], "HJ_vs_F")
        assert res.n_failures == 6
        assert np.all(np.isfinite(res.empirical)) and np.all(np.isfinite(res.entry_se))

    def test_population_without_a_kept_path_has_no_mean(self):
        # one sample per population: the population whose sample is empty
        # drops out of the per-population SE instead of dividing by zero
        sc = small_scenario(design="BE", N=100, n=6, n_populations=1000, n_samples=1, seed=3)
        res = mc.process_covariance_check(sc, [0.5, 1.0], "HJ_vs_F")
        assert res.n_failures == 1
        assert np.all(np.isfinite(res.entry_se))

    def test_process_sums_skip_failed_paths(self):
        popu = pop.generate_population(EXP1, 40, seed=8)
        good = [([0.2, 1.4, 0.6], [0.5, 0.5, 0.25]), ([0.9, 2.2], [0.8, 0.4])]
        sums = [mc._process_sums(SimpleNamespace(law=EXP1), np.array([0.5, 1.0]), "HJ_vs_F",
                                 popu, None, [ref.make_batch(rows)])
                for rows in ([good[0], ([], []), good[1]], good)]
        assert sums[0][2] == sums[1][2] == 2
        for got, expected in zip(*sums):
            assert np.array_equal(got, expected)

    def test_budget_refuses_tables_and_diagnostics_alike(self):
        # expected size 3 of 100: 86 of the 2000 samples are empty
        sc = self.bernoulli(3)
        for run in (lambda: mc.run_scenario(sc),
                    lambda: mc.process_covariance_check(sc, [0.5, 1.0], "HJ_vs_F")):
            with pytest.raises(ScenarioError,
                               match=re.escape("failed in 86 of 2000 cells (> 1% budget)")):
                run()


class TestExactExpectation:
    """A run of one population against its design's exact expectation
    (``step_reference.exact_population_moments``): streams, draws,
    relabeling, the poverty kernel and the reduction at once.  Each sum the
    report implies has a known mean and variance over its independent
    cells, so its z-score must lie within 4.  So must ``mc_variance``: over
    K defined cells, the variance of the estimate about its own mean, as
    ``mc_variance`` / n, has mean (K - 1) m2 / K and variance about
    (m4 - m2^2) / K, from the second and fourth central moments m2 and m4
    of the estimate given a defined cell."""

    @pytest.mark.parametrize("design", ["SI", "BE", "PO", "REJ"])
    def test_run_matches_exact_design_expectation(self, design):
        sc = small_scenario(design, N=12, n=6, n_populations=1, n_samples=20000, seed=7)
        mean, var, phi_moments, ht_cdf, f_n = ref.exact_population_moments(sc, 0)
        assert np.allclose(ht_cdf, f_n, rtol=0.0, atol=1e-12)
        rep = mc.run_scenario(sc)
        cells = sc.n_samples
        for k, e in enumerate(mc.ESTIMATORS):
            kept = cells - rep.n_failures[e]
            sums = [rep.rb_phi[e, "FN"] / 100.0 * kept, rep.coverage[e, "FN"] / 100.0 * kept,
                    kept]
            for i, total in enumerate(sums):
                if var[i, k] <= 1e-15:           # the same value in every cell
                    assert total == pytest.approx(cells * mean[i, k], abs=1e-6), (e, i)
                else:
                    z = (total - cells * mean[i, k]) / np.sqrt(cells * var[i, k])
                    assert abs(z) <= 4.0, (e, i, z)
            _, m2, m4 = phi_moments[:, k]
            z = (rep.mc_variance[e] / sc.n - m2) / np.sqrt((m4 - m2 * m2) / kept)
            assert abs(z) <= 4.0, (e, "mc_variance", z)


class TestScaleInvariance:
    """Scaling every response by a power of two scales the quantiles, the
    bandwidth and each kernel argument's numerator and denominator exactly,
    and leaves every rate, density ratio and inclusion probability as it
    was; an exponential population at rate 2^k is the rate-1 population
    times 2^-k.  So a report is bitwise the same at every such rate."""

    @pytest.mark.parametrize("design", ["SI", "BE", "PO", "REJ"])
    def test_report_is_invariant_to_scaling_y_by_a_power_of_two(self, design):
        reports = [report_hex(mc.run_scenario(small_scenario(
            design, N=400, n=40, n_populations=3, n_samples=60,
            law=pop.SuperPopulationLaw.exponential(rate))))
            for rate in (1.0, 0.125, 8.0, 2.0 ** -20)]
        for got in reports[1:]:
            assert got == reports[0]


class TestBiasWarning:
    """The exponential-law warning fires only where a relative bias lies more
    than 3 Monte Carlo SE above zero."""

    def test_positive_bias_within_three_se_is_silent(self, caplog):
        # SI, seed 5: RB vs F is +2.15% with an SE of 2.24%; with one
        # population the SE is NaN and nothing is ever flagged
        for sc in (small_scenario(seed=5), small_scenario(n_populations=1, seed=1)):
            with caplog.at_level("WARNING", logger="svycdf.montecarlo"):
                rep = mc.run_scenario(sc)
            assert max(rep.rb_phi.values()) > 0.0
        assert caplog.records == []

    def test_positive_bias_beyond_three_se_warns(self, caplog, monkeypatch):
        monkeypatch.setattr(mc, "_cluster_se", lambda sums, counts: 0.01)
        with caplog.at_level("WARNING", logger="svycdf.montecarlo"):
            rep = mc.run_scenario(small_scenario(seed=5))
        [record] = caplog.records
        assert "3 Monte Carlo SE above zero" in record.getMessage()
        flagged = [k for k, v in rep.rb_phi.items() if v > 0.03]
        assert flagged and str(flagged) in record.getMessage()


class TestPopulationLoop:
    @pytest.mark.parametrize("design", ["SI", "BE", "PO", "REJ"])
    def test_draws_are_the_per_sample_streams(self, design, monkeypatch):
        # at most two samples per batch, so seven samples span several batches
        sc = small_scenario(design=design, N=120, n=20, n_samples=7, seed=41)
        monkeypatch.setattr(dsg, "_BATCH_BYTES", 8 * sc.N * 2)
        design_obj = mc._population_design(sc, 3, mc._scenario_design(sc))
        y = np.linspace(1.0, 2.0, sc.N)
        batches = list(mc._population_batches(sc, 3, design_obj, y))
        assert [batch.sizes.size for batch in batches] == [2, 2, 2, 1]
        draws = [sample for batch in batches for sample in ref.rows(batch)]
        for j, sample in enumerate(draws):
            single = dsg.draw(design_obj, [substream(sc.seed, 3, 2, j)], y)
            assert np.array_equal(sample.included, single.included)
            assert np.array_equal(sample.y, single.y)

    @pytest.mark.parametrize("design", ["SI", "PO"])
    def test_sample_streams_are_seeded_per_batch(self, design, monkeypatch):
        # the scalar stream serves the per-population permutation only; the
        # per-sample streams come from one substreams call per batch
        calls = []
        scalar = mc.substream

        def counted(*args):
            calls.append(args)
            return scalar(*args)

        monkeypatch.setattr(mc, "substream", counted)
        sc = small_scenario(design=design, n_populations=3, n_samples=9)
        mc.run_scenario(sc)
        expected = [(sc.seed, i, 1) for i in range(3)] if design == "PO" else []
        assert calls == expected

    def test_rejective_scenario_calibrates_once(self, monkeypatch):
        calls = []
        calibrate = dsg.calibrated_rejective

        def counted(*args, **kwargs):
            calls.append(args)
            return calibrate(*args, **kwargs)

        monkeypatch.setattr(dsg, "calibrated_rejective", counted)
        sc = small_scenario(design="REJ", N=200, n=20, n_populations=2, n_samples=3)
        mc.run_scenario(sc)
        assert len(calls) == 1
        calls.clear()
        mc.process_covariance_check(sc, [0.5, 1.0], "HJ_vs_FN")
        assert len(calls) == 1

    def test_pickled_rejective_task_runs_no_first_order_dp(self, monkeypatch):
        # a pool task travels pickled; its REJ populations reuse the
        # scenario's pi, so each builds one table (its suffix table) and
        # runs no first-order DP
        sc = small_scenario(design="REJ", N=200, n=20, n_populations=3, n_samples=5)
        design = mc._scenario_design(sc)
        reduce = partial(mc._population_sums, sc, 0.3, np.full(2, np.nan))
        task = pickle.loads(pickle.dumps(partial(mc._population_task, sc, design, reduce)))
        calls = {"_rejective_first_order": 0, "_pb_forward": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(dsg, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(dsg, name, counted)
        results = [task(i) for i in range(sc.n_populations)]
        assert calls == {"_rejective_first_order": 0, "_pb_forward": sc.n_populations}
        monkeypatch.undo()
        for i, (sums, z) in enumerate(results):
            again, z_again = mc._population_task(sc, design, reduce, i)
            assert np.array_equal(sums, again)
            assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(z, z_again))

    def test_calibrated_scenario_constants_are_the_dp(self):
        # the calibrated design's cached pi gives the same constants as a fresh DP
        sc = small_scenario(design="REJ", N=200, n=20)
        design = mc._scenario_design(sc)
        fresh = dsg.rejective(design.working_p, sc.n)
        assert dsg.design_constants(design) == dsg.design_constants(fresh)


class _SerialPool:
    """Stands in for ProcessPoolExecutor without starting a process.

    Like the real pool, ``map`` queues its chunks at once and returns a lazy
    iterator in index order.  A chunk runs in this process when the iterator
    first reaches it, or when the pool shuts down with ``wait``, unless a
    shutdown with ``cancel_futures`` dropped it first.  Records the pool
    sizes, the chunk sizes of the ``map`` calls, the chunks that ran and were
    cancelled, each as (``map`` call, first index), and the exits.
    """

    sizes: list = []
    chunksizes: list = []
    ran: list = []
    cancelled: list = []
    exits: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)
        self.queued = {}        # chunk -> (fn, items), in queue order
        self.done = {}          # chunk -> results

    @classmethod
    def reset(cls):
        cls.sizes, cls.chunksizes, cls.ran, cls.cancelled, cls.exits = [], [], [], [], []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.shutdown(wait=True)
        self.exits.append(exc[0])
        return False

    def _run(self, chunk):
        fn, items = self.queued.pop(chunk)
        self.ran.append(chunk)
        self.done[chunk] = [fn(item) for item in items]

    def map(self, fn, items, chunksize=1):
        call = len(self.chunksizes)
        self.chunksizes.append(chunksize)
        items = list(items)
        chunks = [(call, i) for i in range(0, len(items), chunksize)]
        for chunk in chunks:
            self.queued[chunk] = (fn, items[chunk[1]:chunk[1] + chunksize])

        def results():
            for chunk in chunks:
                if chunk in self.queued:
                    self._run(chunk)
                yield from self.done.pop(chunk)
        return results()

    def shutdown(self, wait=True, cancel_futures=False):
        if cancel_futures:
            self.cancelled.extend(self.queued)
            self.queued.clear()
        while wait and self.queued:
            self._run(next(iter(self.queued)))


class _FixedChunkPool(_SerialPool):
    """A :class:`_SerialPool` that cuts every ``map`` into chunks of ``chunk``."""

    chunk = 1

    def map(self, fn, items, chunksize=1):
        return super().map(fn, items, self.chunk)


def _cpus(monkeypatch, count):
    monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)


class TestPoolSize:
    def test_below_one_rejected(self, monkeypatch):
        _cpus(monkeypatch, 4)
        for workers in (0, -1):
            with pytest.raises(ParameterError):
                mc.pool_size(workers, 4)

    def test_within_available_unchanged(self, monkeypatch):
        _cpus(monkeypatch, 4)
        assert mc.pool_size(1, 4) == 1
        assert mc.pool_size(4, 4) == 4

    def test_capped_at_available_with_warning(self, monkeypatch, caplog):
        _cpus(monkeypatch, 2)
        with caplog.at_level("WARNING", logger="svycdf.montecarlo"):
            assert mc.pool_size(1000, 4) == 2
        assert "capping 1000 workers at the 2 available CPUs" in caplog.text

    def test_scenario_pool_is_capped_with_warning(self, monkeypatch, caplog):
        # no process is started: the pool is replaced by an in-process stand-in
        monkeypatch.setattr(mc, "ProcessPoolExecutor", _SerialPool)
        _cpus(monkeypatch, 3)
        _SerialPool.reset()
        sc = small_scenario(n_populations=5, n_samples=3)
        with caplog.at_level("WARNING", logger="svycdf.montecarlo"):
            capped = mc.run_scenario(sc, workers=64)
        assert _SerialPool.sizes == [3]
        assert _SerialPool.chunksizes == [1]     # ceil(5 / (2 * 3))
        assert "capping 64 workers at the 3 available CPUs" in caplog.text
        serial = mc.run_scenario(sc, workers=1)
        assert report_hex(capped) == report_hex(serial)

    @pytest.mark.parametrize("run", [
        lambda sc: mc.run_scenarios([sc], workers=2),
        lambda sc: mc.normality_diagnostic(sc, "ht_mean", workers=2),
        lambda sc: mc.process_covariance_check(sc, [0.5, 1.0], "HT_vs_FN", workers=2),
    ], ids=["tables", "normality", "process-covariance"])
    def test_library_callers_get_the_cap_warning(self, monkeypatch, caplog, run):
        # one CPU: the run stays in this process, so no pool is started
        monkeypatch.setattr(mc, "_available_cpus", lambda: 1)
        monkeypatch.setattr(mc, "ProcessPoolExecutor", _SerialPool)
        _SerialPool.reset()
        with caplog.at_level("WARNING", logger="svycdf.montecarlo"):
            run(small_scenario(N=100, n=20, n_populations=2, n_samples=500))
        assert _SerialPool.sizes == []
        assert "capping 2 workers at the 1 available CPUs" in caplog.text

    def test_no_more_processes_than_tasks(self, monkeypatch, caplog):
        _cpus(monkeypatch, 4)
        with caplog.at_level("WARNING", logger="svycdf.montecarlo"):
            assert mc.pool_size(2, 1) == 1
            assert mc.pool_size(3, 2) == 2
            assert mc.pool_size(8, 2) == 2
        assert caplog.messages == ["capping 8 workers at the 4 available CPUs"]

    def test_scenario_rejects_below_one(self):
        with pytest.raises(ParameterError):
            mc.run_scenario(small_scenario(n_populations=2, n_samples=2), workers=0)
        with pytest.raises(ParameterError):
            mc.run_scenarios([small_scenario(n_populations=2, n_samples=2)], workers=0)


class TestSharedPool:
    def test_grid_shares_one_pool(self, monkeypatch):
        # sized by the largest scenario; each scenario maps its own populations
        # in contiguous chunks of ceil(P / (2 * 4))
        monkeypatch.setattr(mc, "ProcessPoolExecutor", _SerialPool)
        _cpus(monkeypatch, 4)
        _SerialPool.reset()
        grid = [small_scenario(n_populations=9, n_samples=3),
                small_scenario(design="PO", n_populations=2, n_samples=3),
                small_scenario(design="BE", N=500, n=120, n_populations=3, n_samples=3)]
        shared = mc.run_scenarios(grid, workers=4)
        assert _SerialPool.sizes == [4]
        assert _SerialPool.chunksizes == [2, 1, 1]
        assert _SerialPool.ran == [(0, i) for i in range(0, 9, 2)] + [(1, 0), (1, 1)] + [
            (2, 0), (2, 1), (2, 2)]
        assert _SerialPool.exits == [None]
        serial = mc.run_scenarios(grid, workers=1)
        assert [report_hex(r) for r in shared] == [report_hex(r) for r in serial]
        assert report_hex(serial[1]) == report_hex(mc.run_scenario(grid[1]))

    def test_single_population_grid_runs_in_process(self, monkeypatch):
        monkeypatch.setattr(mc, "ProcessPoolExecutor", _SerialPool)
        _cpus(monkeypatch, 4)
        _SerialPool.reset()
        mc.run_scenarios([small_scenario(n_populations=1, n_samples=3)] * 2, workers=4)
        assert _SerialPool.sizes == []

    def test_pool_closed_on_error(self, monkeypatch):
        # the second scenario exceeds the failure budget; the pool still exits
        monkeypatch.setattr(mc, "ProcessPoolExecutor", _SerialPool)
        _cpus(monkeypatch, 2)
        _SerialPool.reset()
        grid = [small_scenario(n_populations=2, n_samples=3),
                small_scenario(design="BE", N=30, n=2, n_populations=4, n_samples=12)]
        with pytest.raises(ScenarioError):
            mc.run_scenarios(grid, workers=2)
        assert _SerialPool.sizes == [2]
        assert _SerialPool.exits == [ScenarioError]

    def test_queued_chunks_cancelled_on_error(self, monkeypatch):
        # the first scenario exceeds the failure budget while the chunks of the
        # two after it are queued: they are cancelled, never run
        monkeypatch.setattr(mc, "ProcessPoolExecutor", _SerialPool)
        _cpus(monkeypatch, 2)
        _SerialPool.reset()
        grid = [small_scenario(design="BE", N=30, n=2, n_populations=4, n_samples=12),
                small_scenario(n_populations=4, n_samples=3),
                small_scenario(design="PO", n_populations=2, n_samples=3)]
        with pytest.raises(ScenarioError, match="budget"):
            mc.run_scenarios(grid, workers=2)
        assert _SerialPool.chunksizes == [1, 1, 1]
        assert _SerialPool.ran == [(0, i) for i in range(4)]
        assert _SerialPool.cancelled == [(1, i) for i in range(4)] + [(2, 0), (2, 1)]
        assert _SerialPool.exits == [ScenarioError]

    def test_queued_chunks_cancelled_on_interrupt(self, monkeypatch):
        def interrupt(*args):
            raise KeyboardInterrupt
        monkeypatch.setattr(mc, "_population_sums", interrupt)
        monkeypatch.setattr(mc, "ProcessPoolExecutor", _SerialPool)
        _cpus(monkeypatch, 2)
        _SerialPool.reset()
        grid = [small_scenario(n_populations=4, n_samples=3),
                small_scenario(design="PO", n_populations=2, n_samples=3)]
        with pytest.raises(KeyboardInterrupt):
            mc.run_scenarios(grid, workers=2)
        assert _SerialPool.ran == [(0, 0)]
        assert _SerialPool.cancelled == [(0, 1), (0, 2), (0, 3), (1, 0), (1, 1)]
        assert _SerialPool.exits == [KeyboardInterrupt]

    @pytest.mark.parametrize("chunk", [1, 2, 6])
    def test_reports_invariant_to_chunk_size(self, monkeypatch, chunk):
        grid = [small_scenario(n_populations=6, n_samples=3),
                small_scenario(design="PO", n_populations=6, n_samples=3),
                small_scenario(design="REJ", N=120, n=20, n_populations=6, n_samples=3)]
        serial = mc.run_scenarios(grid, workers=1)
        monkeypatch.setattr(mc, "ProcessPoolExecutor", _FixedChunkPool)
        monkeypatch.setattr(_FixedChunkPool, "chunk", chunk)
        _cpus(monkeypatch, 2)
        _SerialPool.reset()
        chunked = mc.run_scenarios(grid, workers=2)
        assert _SerialPool.ran == [(call, i) for call in range(3) for i in range(0, 6, chunk)]
        assert [report_hex(r) for r in chunked] == [report_hex(r) for r in serial]

    def test_real_pool_reports_match_serial(self):
        # two real workers, chunks of ceil(5 / 4) = 2 populations
        grid = [small_scenario(n_populations=5, n_samples=3),
                small_scenario(design="PO", n_populations=5, n_samples=3),
                small_scenario(design="REJ", N=120, n=20, n_populations=5, n_samples=3)]
        serial = mc.run_scenarios(grid, workers=1)
        pooled = mc.run_scenarios(grid, workers=2)
        assert multiprocessing.active_children() == []
        assert [report_hex(r) for r in pooled] == [report_hex(r) for r in serial]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_timings_add_up_to_at_most_the_wall_time(self, workers):
        # a scenario's time is its own setup and reduce, never another's work
        grid = [small_scenario(n_populations=4, n_samples=3),
                small_scenario(design="REJ", N=120, n=20, n_populations=4, n_samples=3),
                small_scenario(design="BE", n_populations=4, n_samples=3)]
        start = time.perf_counter()
        reports = mc.run_scenarios(grid, workers=workers)
        wall = time.perf_counter() - start
        assert all(r.timing_seconds > 0.0 for r in reports)
        assert sum(r.timing_seconds for r in reports) <= wall

    def test_diagnostics_open_their_own_pool(self, monkeypatch):
        monkeypatch.setattr(mc, "ProcessPoolExecutor", _SerialPool)
        _cpus(monkeypatch, 2)
        _SerialPool.reset()
        sc = small_scenario(N=300, n=60, n_populations=3, n_samples=4, seed=21)
        mc.process_covariance_check(sc, [0.5, 1.0], "HT_vs_FN", workers=2)
        assert _SerialPool.sizes == [2] and _SerialPool.exits == [None]
        with pytest.raises(ParameterError, match="workers"):
            mc.process_covariance_check(sc, [0.5, 1.0], "HT_vs_FN", workers=0)
        with pytest.raises(ParameterError, match="workers"):
            mc.normality_diagnostic(small_scenario(n_populations=40, n_samples=25),
                                    "ht_mean", workers=0)
        # the normality diagnostic shares the helper: one pool of
        # min(workers, CPUs, P) = P processes, exited once
        _cpus(monkeypatch, 4)
        _SerialPool.reset()
        mc.normality_diagnostic(small_scenario(N=300, n=60, n_populations=3, n_samples=334),
                                "ht_mean", workers=8)
        assert _SerialPool.sizes == [3] and _SerialPool.exits == [None]
        assert len(_SerialPool.ran) == 3
        # the poverty rates' normality is the tables' own: no statistic but
        # the HT mean opens a pool or draws a population
        _SerialPool.reset()
        for statistic in ("phi_ht", "phi_hj"):
            with pytest.raises(ParameterError, match=f"unknown statistic '{statistic}'"):
                mc.normality_diagnostic(small_scenario(n_populations=3, n_samples=334),
                                        statistic, workers=8)
        assert _SerialPool.sizes == [] and _SerialPool.ran == []
        # the report of a discrete law, which has no asymptotic scale, is NaN
        law = pop.SuperPopulationLaw.discrete([float(k) for k in range(1, 13)], [1 / 12] * 12)
        rep = mc.run_scenario(small_scenario(law=law, n_populations=3, n_samples=334),
                              workers=8)
        assert _SerialPool.sizes == [3] and _SerialPool.exits == [None]
        assert len(rep.normality) == 6 and all(np.isnan(v) for v in rep.normality.values())


class TestProcessCovariance:
    def test_small_run_shapes_and_error(self):
        sc = small_scenario(N=300, n=60, n_populations=8, n_samples=25, seed=21)
        grid = [pop.true_quantile(EXP1, a) for a in (0.25, 0.5, 0.75)]
        res = mc.process_covariance_check(sc, grid, "HT_vs_FN")
        assert res.empirical.shape == (3, 3)
        assert res.limit.shape == (3, 3)
        assert np.isfinite(res.max_abs_error)
        assert res.max_abs_error == pytest.approx(
            np.max(np.abs(res.empirical - res.limit)))

    def test_empty_grid_refused(self):
        sc = small_scenario(design="PO", N=200, n=20, n_populations=2, n_samples=20)
        with pytest.raises(ParameterError, match="non-empty"):
            mc.process_covariance_check(sc, [], "HJ_vs_F")

    @pytest.mark.parametrize("grid", [[], [1.0, 0.5], [0.5, float("nan")], [[0.5, 1.0]]],
                             ids=["empty", "unsorted", "nan", "2-d"])
    def test_bad_grid_refused_before_any_population(self, monkeypatch, grid):
        def no_population(*args):
            raise AssertionError("population drawn")
        monkeypatch.setattr(mc, "_population_task", no_population)
        sc = small_scenario(design="PO", N=200, n=20, n_populations=2, n_samples=20)
        with pytest.raises(ParameterError, match="grid must be a sorted, non-empty 1-d array"):
            mc.process_covariance_check(sc, grid, "HJ_vs_F")

    def test_unequal_probability_limit_form(self):
        # model-centered bridge form with gamma1 = 1.5625 for the low/high split
        sc = small_scenario(design="PO", N=2000, n=200, n_populations=150,
                            n_samples=150, seed=909)
        grid = [pop.true_quantile(EXP1, a) for a in (0.25, 0.5, 0.75)]
        res = mc.process_covariance_check(sc, grid, "HJ_vs_F")
        assert res.limit[1, 1] == pytest.approx(1.5625 * 0.25, abs=1e-12)
        assert np.all(np.abs(res.empirical - res.limit) <= 3.0 * res.entry_se)

    def test_census_process_is_zero(self):
        # n = N makes the population-centered process vanish identically
        sc = small_scenario(N=80, n=80, n_populations=3, n_samples=4, seed=22)
        res = mc.process_covariance_check(sc, [0.5, 1.0], "HT_vs_FN")
        assert np.allclose(res.empirical, 0.0, atol=1e-12)
        assert np.allclose(res.limit, 0.0, atol=1e-12)

    def test_be_limit_diagonal_at_median(self):
        # Bernoulli wiring: gamma1 = 1, so the model-centered bridge form has
        # diagonal value 0.25 at the median
        from svycdf import asymptotics as asy
        sc = small_scenario(design="BE", N=1000, n=100)
        constants = dsg.design_constants(mc._scenario_design(sc))
        assert constants.gamma1 == pytest.approx(1.0, abs=1e-12)
        t = pop.true_quantile(EXP1, 0.5)
        assert asy.limit_covariance(constants, EXP1, "HJ_vs_F", t, t) == \
            pytest.approx(0.25, abs=1e-12)

    def test_rejective_scenario_constants_match_targets(self):
        # calibrated working probabilities hit the low/high split, so the
        # plug-in constant matches the unequal-probability value 1.5625
        sc = small_scenario(design="REJ", N=200, n=20)
        constants = dsg.design_constants(mc._scenario_design(sc))
        assert constants.gamma1 == pytest.approx(1.5625, abs=1e-6)
        assert constants.mu2 < 0.0


class TestNormalityDiagnostic:
    """The HT-mean diagnostic, and the tables' normality report of the
    poverty rates (:attr:`MonteCarloReport.normality`)."""

    @pytest.mark.parametrize("n", [1000, 10_000])
    @pytest.mark.parametrize("kind", ["skewed", "lattice"])
    def test_shape_statistics_match_scipy(self, kind, n):
        # scipy is the reference only: biased moments, two-sided KS distance
        from scipy import stats as sps
        rng = np.random.default_rng(n)
        z = (rng.exponential(size=n) if kind == "skewed"
             else rng.binomial(6, 0.3, size=n) - 1.8)   # ties on a lattice
        out = mc._shape_statistics(z)
        assert out["replications"] == n
        assert out["skewness"] == pytest.approx(float(sps.skew(z)), rel=1e-12)
        assert out["excess_kurtosis"] == pytest.approx(
            float(sps.kurtosis(z, fisher=True)), rel=1e-12)
        assert out["ks_distance"] == pytest.approx(
            float(sps.kstest(z, "norm").statistic), rel=1e-12)

    def test_requires_replications(self):
        with pytest.raises(ParameterError, match="at least 1000 replications"):
            mc.normality_diagnostic(small_scenario(), "ht_mean")

    def test_rejective_ht_mean_past_pairwise_cap(self, monkeypatch):
        # the exact scale of the HT mean on REJ comes from the O(N n) moment
        # program: it runs past the N x N cap and never forms pairwise pi
        monkeypatch.setattr(dsg, "second_order_pi", None)
        seen = []
        shape = mc._shape_statistics
        monkeypatch.setattr(mc, "_shape_statistics", lambda z: seen.append(z) or shape(z))
        sc = small_scenario(design="REJ", N=dsg.MAX_PAIRWISE_UNITS + 100, n=20,
                            n_populations=1, n_samples=1000)
        out = mc.normality_diagnostic(sc, "ht_mean")
        assert out["replications"] == 1000
        assert all(np.isfinite(out[k]) for k in ("skewness", "excess_kurtosis", "ks_distance"))
        # standardized by the exact design scale: mean 0 and variance 1 within
        # about 4 Monte Carlo SE (the variance SE is sqrt((kurtosis + 2) / 1000))
        z = seen[0]
        assert abs(z.mean()) < 4.0 / np.sqrt(z.size)
        assert abs(z.var() - 1.0) < 4.0 * np.sqrt((out["excess_kurtosis"] + 2.0) / z.size)

    @pytest.mark.parametrize("rate", [2.1e-307, 1.0, 1e308])
    def test_every_accepted_rate_has_a_scale(self, rate):
        # a law refuses a rate whose quantiles or densities are not finite and
        # positive, so the model targets of a valid scenario cannot fail on a
        # vanishing density (the one way poverty_variance raises)
        sc = small_scenario(law=pop.SuperPopulationLaw.exponential(rate))
        phi_f, av_ref = mc._model_targets(sc, mc._scenario_design(sc))
        assert 0.0 < phi_f < 1.0
        assert np.all(np.isfinite(av_ref)) and np.all(av_ref > 0.0)

    def test_ht_mean_standardization(self):
        sc = small_scenario(design="BE", N=600, n=150, n_populations=40,
                            n_samples=30, seed=14)
        out = mc.normality_diagnostic(sc, "ht_mean")
        assert abs(out["skewness"]) < 1.0
        assert out["ks_distance"] < 0.1

    def test_ht_mean_values_are_per_row_sums(self, monkeypatch):
        # each value is np.sum(y / pi) / N over its own sample, bit for bit:
        # rows of many lengths (empty, short, past numpy's pairwise block of
        # 128), an infinite and a NaN response; a zero center and a unit
        # scale leave the values as they are
        N = 4000
        design = dsg.poisson(substream(61).uniform(0.0005, 0.2, N))
        y = substream(62).lognormal(0.0, 2.0, N)
        y[7], y[11] = np.inf, np.nan
        batches = [dsg.draw(design, [substream(63, b, j) for j in range(9)], y)
                   for b in range(3)]
        batches.append(ref.make_batch([([], []), ([2.5], [0.25]), ([1e300, 3.0], [1e-3, 1.0])]))
        monkeypatch.setattr(mc.dsg, "exact_sn2", lambda design, y: 1.0)
        sc = small_scenario(N=N, n=60)
        got = mc._statistic_values(sc, np.zeros(3), design, batches)
        expected = [float(np.sum(np.array(row.y) / np.array(row.pi))) / N
                    for batch in batches for row in ref.rows(batch)]
        assert len({row.y.size for batch in batches for row in ref.rows(batch)}) > 10
        assert np.array_equal(got, expected, equal_nan=True)

    def test_ht_mean_bands_at_scale(self):
        # continuous statistic: tight normal-sampling bands hold at 1e4 reps
        sc = small_scenario(design="BE", N=2000, n=200, n_populations=100,
                            n_samples=100, seed=515)
        out = mc.normality_diagnostic(sc, "ht_mean", workers=2)
        assert out["replications"] == 10_000
        assert abs(out["skewness"]) <= 0.2
        assert out["ks_distance"] <= 0.03


    # the poverty rates' normality is the tables' own report of
    # z = (phi_hat - phi(F)) / sqrt(av_ref / n), from the cells they judge

    #: float.hex of (skewness, excess kurtosis, KS distance) and the kept
    #: cells of each estimator: recorded data of the tables' report, with
    #: av_ref the contraction w'Cw of ``asymptotics.derivative_variance``.
    #: The cases and kept counts are those where the report was first
    #: checked against the earlier second pass over every population and
    #: sample, which it matched bit for bit under the hand-expanded
    #: variance; (design, N, n, n_populations, n_samples, seed) with the
    #: law, alpha and beta of ``small_scenario``
    SECOND_PASS = {
        ("BE", 100, 6, 20, 100, 3): {     # 6 empty samples
            "HT": (1994, "-0x1.098c6f968d1a3p-2", "-0x1.49ece768a8028p-2",
                   "0x1.8083f505e125dp-2"),
            "HJ": (1994, "-0x1.064cb998b7dc5p-1", "-0x1.4ff0c1907e9a8p-2",
                   "0x1.91dcda646e34ep-3")},
        ("SI", 800, 160, 40, 30, 13): {
            "HT": (1200, "0x1.6dbb031b48404p-7", "0x1.382575b4c0480p-6", "0x1.063ea1efa53bcp-4"),
            "HJ": (1200, "0x1.6dbb031b48404p-7", "0x1.382575b4c0480p-6", "0x1.063ea1efa53bcp-4")},
        ("REJ", 300, 30, 4, 300, 5): {
            "HT": (1200, "-0x1.97c813ce7cecbp-2", "-0x1.ff9430b0ff640p-3",
                   "0x1.217c0b7a63508p-4"),
            "HJ": (1200, "-0x1.6b7def83b6aa3p-2", "-0x1.a26c54828c660p-3",
                   "0x1.121e4c4b68d5cp-4")},
        ("PO", 2000, 200, 10, 100, 516): {
            "HT": (1000, "-0x1.1081550f8984ap-4", "-0x1.13b2b899757a8p-2",
                   "0x1.d20823d590120p-5"),
            "HJ": (1000, "-0x1.ca3875ad5a940p-5", "-0x1.4071d8faa91c8p-2",
                   "0x1.2d7e951492810p-5")},
        # some samples' HT mass falls below alpha = 0.5, where the estimate
        # saturates; the second pass kept two HT cells the tables fail
        # without a bandwidth, so only HJ was compared there
        ("PO", 200, 20, 20, 100, 3): {
            "HJ": (2000, "-0x1.65bc8c92a49e3p-2", "-0x1.55f2e640f3e70p-2",
                   "0x1.5b329752cc3e4p-5")},
    }

    @pytest.mark.parametrize("case", sorted(SECOND_PASS), ids=lambda c: "-".join(map(str, c)))
    def test_report_matches_the_second_pass(self, case):
        design, N, n, n_populations, n_samples, seed = case
        rep = mc.run_scenario(small_scenario(design=design, N=N, n=n, n_populations=n_populations,
                                             n_samples=n_samples, seed=seed))
        for e, (kept, *shape) in self.SECOND_PASS[case].items():
            assert rep.n_cells - rep.n_failures[e] == kept
            assert [rep.normality[e, s].hex() for s in mc.SHAPES] == shape

    def test_phi_ht_through_ht_mass_deficit(self):
        # PO at N=200, n=20: some samples' HT mass falls below alpha = 0.5,
        # where the estimate saturates; two HT cells fail without a
        # bandwidth, and the report judges the 1998 cells that the bias and
        # coverage judge
        sc = small_scenario(design="PO", N=200, n=20, n_populations=20, n_samples=100, seed=3)
        rep = mc.run_scenario(sc)
        assert rep.n_cells - rep.n_failures["HT"] == 1998
        assert all(np.isfinite(rep.normality["HT", s]) for s in mc.SHAPES)

    def test_si_statistics_near_normal(self):
        sc = small_scenario(N=800, n=160, n_populations=40, n_samples=30, seed=13)
        rep = mc.run_scenario(sc)
        assert rep.n_failures["HJ"] == 0
        assert abs(rep.normality["HJ", "skewness"]) < 1.0
        # the estimate is lattice-valued (multiples of 1/n), so the distance
        # to the continuous normal has a floor of about phi(0)/sqrt(n sigma^2)
        assert rep.normality["HJ", "ks_distance"] < 0.15

    def test_point_mass_errors(self):
        # a point mass: the HT mean has no design variance, which the
        # diagnostic refuses; the rate has no density, hence no asymptotic
        # scale, and the tables' report is NaN, as it is for one cell, whose
        # variance is zero, and the run does not fail
        law = pop.SuperPopulationLaw.discrete([5.0], [1.0])
        point_mass = small_scenario(N=40, n=8, law=law, beta=0.9, n_populations=40,
                                    n_samples=25)
        with pytest.raises(DiagnosticError, match="design variance of the weighted mean is zero"):
            mc.normality_diagnostic(point_mass, "ht_mean")
        for sc in (point_mass, small_scenario(n_populations=1, n_samples=1)):
            rep = mc.run_scenario(sc)
            assert list(rep.normality) == [(e, s) for e in mc.ESTIMATORS for s in mc.SHAPES]
            assert all(np.isnan(v) for v in rep.normality.values())

    def test_phi_hj_bands_at_scale(self):
        # the estimate is lattice-valued under SI (multiples of 1/n), so the
        # Kolmogorov-Smirnov band carries the lattice floor phi(0)/sqrt(n s^2)
        sc = small_scenario(N=2000, n=200, n_populations=100,
                            n_samples=100, seed=516)
        rep = mc.run_scenario(sc, workers=2)
        assert abs(rep.normality["HJ", "skewness"]) <= 0.2
        assert rep.normality["HJ", "ks_distance"] <= 0.12
