"""Monte Carlo harness: reproducibility, degenerate laws, diagnostics."""

import numpy as np
import pytest

from svycdf import designs as dsg
from svycdf import montecarlo as mc
from svycdf import population as pop
from svycdf.errors import DiagnosticError, ParameterError, ScenarioError
from svycdf.streams import substream

EXP1 = pop.SuperPopulationLaw.exponential(1.0)


def small_scenario(design="SI", **kw):
    args = dict(N=400, n=60, design=design, law=EXP1, alpha=0.5, beta=0.6,
                n_populations=6, n_samples=8, seed=11)
    args.update(kw)
    return mc.Scenario(**args)


class TestScenarioValidation:
    def test_bad_sizes(self):
        with pytest.raises(ScenarioError):
            small_scenario(n=500)
        with pytest.raises(ScenarioError):
            small_scenario(n_populations=0)

    def test_po_inclusion_bound(self):
        # the high-probability half would exceed one
        with pytest.raises(ScenarioError):
            small_scenario(design="PO", N=100, n=70)

    def test_unknown_design(self):
        with pytest.raises(ScenarioError):
            small_scenario(design="XX")


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

    def test_si_estimators_coincide(self):
        rep = mc.run_scenario(small_scenario())
        for center in mc.CENTERS:
            assert rep.rb_phi[("HT", center)] == rep.rb_phi[("HJ", center)]
            assert rep.coverage[("HT", center)] == rep.coverage[("HJ", center)]

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


class TestPopulationLoop:
    @pytest.mark.parametrize("design", ["SI", "BE", "PO", "REJ"])
    def test_draws_are_the_per_sample_streams(self, design, monkeypatch):
        # at most two samples per batch, so seven samples span several batches
        sc = small_scenario(design=design, N=120, n=20, n_samples=7, seed=41)
        monkeypatch.setattr(dsg, "_BATCH_BYTES", 8 * sc.N * 2)
        design_obj = mc._population_design(sc, 3, mc._scenario_design(sc))
        y = np.linspace(1.0, 2.0, sc.N)
        batches = list(mc._population_batches(sc, 3, design_obj, y))
        assert [len(batch) for batch in batches] == [2, 2, 2, 1]
        draws = [sample for batch in batches for sample in batch]
        for j, sample in enumerate(draws):
            single = dsg.draw(design_obj, substream(sc.seed, 3, 2, j), y=y)
            assert np.array_equal(sample.indicators, single.indicators)
            assert np.array_equal(sample.y_included, single.y_included)

    def test_rejective_scenario_calibrates_once(self, monkeypatch):
        calls = []
        calibrate = dsg.calibrated_rejective

        def counted(*args, **kwargs):
            calls.append(args)
            return calibrate(*args, **kwargs)

        monkeypatch.setattr(dsg, "calibrated_rejective", counted)
        sc = small_scenario(design="REJ", N=200, n=20, n_populations=2, n_samples=3)
        rep = mc.run_scenario(sc, process_check=([0.5, 1.0], "HJ_vs_FN"))
        assert len(calls) == 1
        assert rep.process_cov_error is not None
        calls.clear()
        direct = mc.process_covariance_check(sc, [0.5, 1.0], "HJ_vs_FN")
        assert len(calls) == 1
        assert rep.process_cov_error == direct.max_abs_error

    def test_calibrated_scenario_constants_are_the_dp(self):
        # the calibrated design's cached pi gives the same constants as a fresh DP
        sc = small_scenario(design="REJ", N=200, n=20)
        design = mc._scenario_design(sc)
        fresh = dsg.rejective(design.working_p, sc.n)
        assert dsg.design_constants(design) == dsg.design_constants(fresh)


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records its size, runs in-process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, blocks):
        return [fn(block) for block in blocks]


def _cpus(monkeypatch, count):
    monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)


class TestPoolSize:
    def test_below_one_rejected(self, monkeypatch):
        _cpus(monkeypatch, 4)
        for workers in (0, -1):
            with pytest.raises(ParameterError):
                mc.pool_size(workers)

    def test_within_available_unchanged(self, monkeypatch):
        _cpus(monkeypatch, 4)
        assert mc.pool_size(1) == 1
        assert mc.pool_size(4) == 4

    def test_capped_at_available_with_warning(self, monkeypatch, caplog):
        _cpus(monkeypatch, 2)
        with caplog.at_level("WARNING", logger="svycdf.montecarlo"):
            assert mc.pool_size(1000) == 2
        assert "capping 1000 workers at the 2 available CPUs" in caplog.text

    def test_scenario_pool_is_capped_silently(self, monkeypatch, caplog):
        # no process is started: the pool is replaced by an in-process stand-in
        monkeypatch.setattr(mc, "ProcessPoolExecutor", _SerialPool)
        _cpus(monkeypatch, 3)
        _SerialPool.sizes = []
        sc = small_scenario(n_populations=5, n_samples=3)
        with caplog.at_level("WARNING", logger="svycdf.montecarlo"):
            capped = mc.run_scenario(sc, workers=64)
        assert _SerialPool.sizes == [3]
        assert "capping" not in caplog.text
        serial = mc.run_scenario(sc, workers=1)
        assert capped.rb_phi == serial.rb_phi
        assert capped.coverage == serial.coverage

    def test_scenario_rejects_below_one(self):
        with pytest.raises(ParameterError):
            mc.run_scenario(small_scenario(n_populations=2, n_samples=2), workers=0)


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

    def test_report_carries_process_error_when_requested(self):
        sc = small_scenario(N=300, n=60, n_populations=5, n_samples=10, seed=23)
        plain = mc.run_scenario(sc)
        assert plain.process_cov_error is None
        checked = mc.run_scenario(sc, process_check=([0.5, 1.0], "HJ_vs_FN"))
        assert checked.process_cov_error is not None
        direct = mc.process_covariance_check(sc, [0.5, 1.0], "HJ_vs_FN")
        assert checked.process_cov_error == pytest.approx(direct.max_abs_error)


class TestNormalityDiagnostic:
    def test_requires_replications(self):
        with pytest.raises(ParameterError):
            mc.normality_diagnostic(small_scenario(), "phi_hj")

    def test_point_mass_errors(self):
        law = pop.SuperPopulationLaw.discrete([5.0], [1.0])
        sc = small_scenario(N=60, n=12, law=law, alpha=0.5, beta=0.9,
                            n_populations=40, n_samples=30, seed=9)
        with pytest.raises(DiagnosticError):
            mc.normality_diagnostic(sc, "phi_hj")

    def test_si_statistics_near_normal(self):
        sc = small_scenario(N=800, n=160, n_populations=40, n_samples=30, seed=13)
        out = mc.normality_diagnostic(sc, "phi_hj")
        assert out["replications"] == 1200
        assert abs(out["skewness"]) < 1.0
        # the estimate is lattice-valued (multiples of 1/n), so the distance
        # to the continuous normal has a floor of about phi(0)/sqrt(n sigma^2)
        assert out["ks_distance"] < 0.15

    def test_ht_mean_standardization(self):
        sc = small_scenario(design="BE", N=600, n=150, n_populations=40,
                            n_samples=30, seed=14)
        out = mc.normality_diagnostic(sc, "ht_mean")
        assert abs(out["skewness"]) < 1.0
        assert out["ks_distance"] < 0.1

    def test_ht_mean_bands_at_scale(self):
        # continuous statistic: tight normal-sampling bands hold at 1e4 reps
        sc = small_scenario(design="BE", N=2000, n=200, n_populations=100,
                            n_samples=100, seed=515)
        out = mc.normality_diagnostic(sc, "ht_mean", workers=2)
        assert out["replications"] == 10_000
        assert abs(out["skewness"]) <= 0.2
        assert out["ks_distance"] <= 0.03

    def test_phi_hj_bands_at_scale(self):
        # the estimate is lattice-valued under SI (multiples of 1/n), so the
        # Kolmogorov-Smirnov band carries the lattice floor phi(0)/sqrt(n s^2)
        sc = small_scenario(N=2000, n=200, n_populations=100,
                            n_samples=100, seed=516)
        out = mc.normality_diagnostic(sc, "phi_hj", workers=2)
        assert abs(out["skewness"]) <= 0.2
        assert out["ks_distance"] <= 0.12
