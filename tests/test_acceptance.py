"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints a single PASS line (run with ``pytest tests/test_acceptance.py -v -s``).
The heavy desk-scale simulations (three designs at N=10000, n=500 with
200 x 200 replication) run once in a session fixture and feed the three
table-reproduction criteria.
"""

import itertools
import math
import os
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from svycdf import asymptotics as asy
from svycdf import designs as dsg
from svycdf import estimation as est
from svycdf import montecarlo as mc
from svycdf import oracle as orc
from svycdf import population as pop
from svycdf.streams import substream
from test_designs import rejection_draw

EXP1 = pop.SuperPopulationLaw.exponential(1.0)
WORKERS = min(2, os.cpu_count() or 1)
DESK_SEED = 20260808

# frozen reference values for the exponential protocol at N=10000, n=500
# (alpha=0.5, beta=0.6); reproduced here at reduced 200 x 200 replication
REFERENCE_RB = {
    ("SI", "HT", "FN"): -0.17, ("SI", "HT", "F"): -0.20,
    ("SI", "HJ", "FN"): -0.17, ("SI", "HJ", "F"): -0.20,
    ("BE", "HT", "FN"): -0.12, ("BE", "HT", "F"): -0.15,
    ("BE", "HJ", "FN"): -0.17, ("BE", "HJ", "F"): -0.20,
    ("PO", "HT", "FN"): -0.05, ("PO", "HT", "F"): -0.08,
    ("PO", "HJ", "FN"): -0.20, ("PO", "HJ", "F"): -0.23,
}
REFERENCE_AV_RB = {
    ("SI", "HT"): -2.21, ("SI", "HJ"): -2.21,
    ("BE", "HT"): -4.15, ("BE", "HJ"): -2.22,
    ("PO", "HT"): -4.43, ("PO", "HJ"): -2.36,
}
REFERENCE_COVERAGE = {
    ("SI", "HT", "FN"): 95.2, ("SI", "HT", "F"): 94.6,
    ("SI", "HJ", "FN"): 95.2, ("SI", "HJ", "F"): 94.6,
    ("BE", "HT", "FN"): 94.9, ("BE", "HT", "F"): 94.4,
    ("BE", "HJ", "FN"): 95.1, ("BE", "HJ", "F"): 94.7,
    ("PO", "HT", "FN"): 94.5, ("PO", "HT", "F"): 94.5,
    ("PO", "HJ", "FN"): 94.8, ("PO", "HJ", "F"): 94.6,
}

# the reference tables carry 25x our replication, so their own Monte Carlo
# error is one fifth of ours; 0.005 covers their rounding to two decimals.
# 0.6 is the worked desk-scale tolerance for estimator relative bias
# (three Monte Carlo standard errors at reduced replication).
RB_TOLERANCE_FLOOR = 0.6

CHI2_999_DF19 = 43.820195964517536


def _passed(name, detail):
    print(f"[ACCEPTANCE] {name}: PASS ({detail})")


@pytest.fixture(scope="session")
def desk_reports():
    reports = {}
    for design in ("SI", "BE", "PO"):
        sc = mc.Scenario(N=10_000, n=500, design=design, law=EXP1,
                         alpha=0.5, beta=0.6, n_populations=200,
                         n_samples=200, seed=DESK_SEED)
        reports[design] = mc.run_scenario(sc, workers=WORKERS)
    return reports


# ---------------------------------------------------------------------------
# 1. Oracle equivalence
# ---------------------------------------------------------------------------

def test_oracle_equivalence():
    start = time.perf_counter()
    designs = [
        dsg.srswor(12, 5),
        dsg.bernoulli(12, 0.3),
        dsg.poisson(substream(101).uniform(0.1, 0.95, 12)),
        dsg.rejective(substream(102).uniform(0.1, 0.9, 12), 5),
        dsg.srswor(6, 3),
        dsg.rejective(substream(103).uniform(0.2, 0.8, 8), 4),
    ]
    worst = 0.0
    for design in designs:
        en = orc.enumerate_design(design)
        err1 = float(np.max(np.abs(en.first_order() - dsg.first_order_pi(design))))
        err2 = float(np.max(np.abs(en.second_order() - dsg.second_order_pi(design))))
        worst = max(worst, err1, err2)
        assert err1 <= 1e-12, f"{design.kind}: first-order gap {err1:.2e}"
        assert err2 <= 1e-12, f"{design.kind}: second-order gap {err2:.2e}"

    design = dsg.srswor(6, 3)
    en = orc.enumerate_design(design)
    pi = en.first_order()
    rng = substream(104)
    worst_sn2 = 0.0
    for _ in range(20):
        v = rng.normal(size=6)
        means = (en.samples / pi) @ v / 6.0
        mu = float(en.probs @ means)
        enum_var = float(en.probs @ (means - mu) ** 2)
        gap = abs(orc.exact_sn2(design, v) - enum_var)
        worst_sn2 = max(worst_sn2, gap)
        assert gap <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"oracle equivalence took {elapsed:.1f}s"
    _passed("oracle equivalence",
            f"max marginal gap {worst:.2e}, max variance gap {worst_sn2:.2e}, "
            f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Rejective correctness
# ---------------------------------------------------------------------------

def test_rejective_matches_srswor_at_equal_odds():
    p_enum = orc.enumerate_design(dsg.srswor(6, 3))
    r_enum = orc.enumerate_design(dsg.rejective(np.full(6, 0.5), 3))
    div = orc.divergence_from_rejective(p_enum, r_enum)
    assert div <= 1e-12
    _passed("rejective = srswor at equal odds", f"divergence {div:.2e}")


def test_sequential_sampler_matches_rejection_sampler():
    design = dsg.rejective(np.array([0.15, 0.3, 0.45, 0.6, 0.75, 0.9]), 3)
    reps = 100_000
    seq_counts, rej_counts = {}, {}
    rng_seq, rng_rej = substream(201), substream(202)
    for _ in range(reps):
        key = dsg.draw(design, rng_seq).included.tobytes()
        seq_counts[key] = seq_counts.get(key, 0) + 1
        key = rejection_draw(design, rng_rej).tobytes()
        rej_counts[key] = rej_counts.get(key, 0) + 1
    keys = sorted(set(seq_counts) | set(rej_counts))
    assert len(keys) == math.comb(6, 3)
    stat = sum((seq_counts.get(k, 0) - rej_counts.get(k, 0)) ** 2
               / (seq_counts.get(k, 0) + rej_counts.get(k, 0)) for k in keys)
    assert stat < CHI2_999_DF19, f"chi-square {stat:.2f} over {len(keys)} cells"
    _passed("sequential vs rejection sampler",
            f"chi-square {stat:.2f} < {CHI2_999_DF19:.2f} (df 19, 1e5 draws each)")


# ---------------------------------------------------------------------------
# 3. Calibration round trip
# ---------------------------------------------------------------------------

def test_calibration_round_trip():
    worst = 0.0
    for N in range(5, 11):
        rng = substream(300 + N)
        p_true = rng.uniform(0.1, 0.9, size=N)
        n = N // 2
        target = orc.enumerate_design(dsg.rejective(p_true, n)).first_order()
        p_hat = dsg.calibrate_rejective_p(target, n)
        achieved = orc.enumerate_design(dsg.rejective(p_hat, n)).first_order()
        resid = float(np.max(np.abs(achieved - target)))
        worst = max(worst, resid)
        assert resid <= 1e-8, f"N={N}: residual {resid:.2e}"
    _passed("calibration round trip", f"worst residual {worst:.2e} over N=5..10")


# ---------------------------------------------------------------------------
# 4. Algebraic process identities
# ---------------------------------------------------------------------------

def test_process_identities_pathwise():
    specs = [
        ("srswor", lambda rng, N: dsg.srswor(N, N // 4)),
        ("bernoulli", lambda rng, N: dsg.bernoulli(N, 0.3)),
        ("poisson", lambda rng, N: dsg.poisson(rng.uniform(0.15, 0.95, N))),
        ("rejective", lambda rng, N: dsg.rejective(rng.uniform(0.2, 0.8, N), N // 3)),
    ]
    draws_per_design = 250
    worst = 0.0
    for k, (label, factory) in enumerate(specs):
        N = 120
        rng = substream(400 + k)
        popu = pop.generate_population(EXP1, N, seed=500 + k)
        design = factory(rng, N)
        grid = np.concatenate([[0.0], np.quantile(popu.y, np.linspace(0.1, 0.9, 9)),
                               [popu.y.max() + 1.0]])
        for _ in range(draws_per_design):
            sample = dsg.draw(design, rng, y=popu.y)
            if sample.size == 0:
                continue
            hj_fn = est.process_path(sample, popu, grid, "HJ_vs_FN", law=EXP1).values
            y_n = est.process_path(sample, popu, grid, "Y_N", law=EXP1).values
            g_pi = est.process_path(sample, popu, grid, "G_pi", law=EXP1).values
            hj_f = est.process_path(sample, popu, grid, "HJ_vs_F", law=EXP1).values
            ratio = N / sample.n_hat()
            err1 = float(np.max(np.abs(hj_fn - (y_n + (ratio - 1.0) * g_pi))))
            err2 = float(np.max(np.abs(hj_f - ratio * g_pi)))
            worst = max(worst, err1, err2)
            assert err1 <= 1e-10, f"{label}: decomposition identity {err1:.2e}"
            assert err2 <= 1e-10, f"{label}: ratio identity {err2:.2e}"
    _passed("process identities", f"1000 draws, worst deviation {worst:.2e}")


# ---------------------------------------------------------------------------
# 5-7. Desk-scale table reproduction
# ---------------------------------------------------------------------------

def test_table_estimator_bias(desk_reports):
    lines = []
    for (design, estimator, center), ref in REFERENCE_RB.items():
        rep = desk_reports[design]
        ours = rep.rb_phi[(estimator, center)]
        se = rep.rb_phi_se[(estimator, center)]
        tol = max(3.0 * (se + se / 5.0) + 0.005, RB_TOLERANCE_FLOOR)
        dev = ours - ref
        assert abs(dev) <= tol, (
            f"{design}/{estimator}/{center}: ours {ours:+.3f} vs {ref:+.2f}, "
            f"|dev| {abs(dev):.3f} > tol {tol:.3f}")
        lines.append(f"{design}/{estimator}/{center} {ours:+.2f} (ref {ref:+.2f})")
    _passed("estimator relative bias", "; ".join(lines[:4]) + " ...")


def test_table_variance_estimator_bias(desk_reports):
    for (design, estimator), ref in REFERENCE_AV_RB.items():
        ours = desk_reports[design].rb_av[estimator]
        assert ours < 0.0, f"{design}/{estimator}: bias {ours:+.3f} not negative"
        assert abs(ours - ref) <= 3.0, (
            f"{design}/{estimator}: ours {ours:+.3f} vs {ref:+.2f}")
    detail = ", ".join(f"{d}/{e} {desk_reports[d].rb_av[e]:+.2f}"
                       for (d, e) in REFERENCE_AV_RB)
    _passed("variance-estimator relative bias", detail)


def test_table_coverage(desk_reports):
    for (design, estimator, center), ref in REFERENCE_COVERAGE.items():
        ours = desk_reports[design].coverage[(estimator, center)]
        assert abs(ours - ref) <= 1.5, (
            f"{design}/{estimator}/{center}: coverage {ours:.2f} vs {ref:.1f}")
    detail = ", ".join(
        f"{d}/{e}/{c} {desk_reports[d].coverage[(e, c)]:.1f}"
        for (d, e, c) in itertools.islice(REFERENCE_COVERAGE, 4))
    _passed("interval coverage", detail + " ...")


# ---------------------------------------------------------------------------
# 8. Limit covariance of the standardized processes
# ---------------------------------------------------------------------------

def test_limit_covariance_forms():
    sc = mc.Scenario(N=2000, n=200, design="SI", law=EXP1, alpha=0.5, beta=0.6,
                     n_populations=200, n_samples=200, seed=424242)
    grid = [pop.true_quantile(EXP1, a) for a in (0.25, 0.5, 0.75)]
    details = []
    for form in ("HT_vs_FN", "HJ_vs_FN"):
        res = mc.process_covariance_check(sc, grid, form, workers=WORKERS)
        diff = np.abs(res.empirical - res.limit)
        excess = diff - 3.0 * res.entry_se
        assert float(excess.max()) <= 0.0, (
            f"{form}: entry deviation beyond 3 MC SE "
            f"(max |diff| {diff.max():.4f}, 3*SE {3 * res.entry_se.min():.4f})")
        details.append(f"{form} max|diff| {res.max_abs_error:.4f}")
    _passed("limit covariance", "; ".join(details) + " on 3-point grid, 4e4 reps")


# ---------------------------------------------------------------------------
# 9. Directional-derivative finite differences
# ---------------------------------------------------------------------------

def test_hadamard_finite_difference_slope():
    alpha, beta = 0.5, 0.6
    q = pop.true_quantile(EXP1, alpha)
    bump = lambda t: np.exp(-((t - 0.5) ** 2) / 0.5)
    deriv = est.hadamard_direction_value(
        pop.true_density(EXP1, q), pop.true_density(EXP1, beta * q),
        bump(q), bump(beta * q), beta)
    phi0 = pop.true_poverty_rate(EXP1, alpha, beta)
    errors = []
    for eps in (1e-2, 1e-3, 1e-4):
        f_eps = lambda t: pop.true_cdf(EXP1, t) + eps * bump(t)
        q_eps = brentq(lambda t: f_eps(t) - alpha, -5.0, 60.0, xtol=1e-15)
        fd = (f_eps(beta * q_eps) - phi0) / eps
        err = abs(fd - deriv)
        errors.append(err)
        assert err <= 2.0 * eps, f"eps={eps}: error {err:.3e} above linear band"
    assert errors[0] > errors[1] > errors[2]
    _passed("directional-derivative finite differences",
            f"errors {errors[0]:.1e}, {errors[1]:.1e}, {errors[2]:.1e} ~ O(eps)")


# ---------------------------------------------------------------------------
# 10. Closed-form versus simulated variance
# ---------------------------------------------------------------------------

def test_variance_consistency_small_sampling_fraction():
    sc = mc.Scenario(N=10_000, n=100, design="SI", law=EXP1, alpha=0.5, beta=0.6,
                     n_populations=10_000, n_samples=1, seed=31415)
    rep = mc.run_scenario(sc, workers=WORKERS)
    constants = dsg.design_constants(dsg.srswor(10_000, 100))
    assert constants.gamma1 == pytest.approx(1.0, abs=1e-12)
    target = asy.poverty_variance_hj(constants, EXP1, 0.5, 0.6)
    got = rep.mc_variance["HJ"]
    rel = abs(got - target) / target
    assert rel <= 0.10, f"simulated {got:.5f} vs closed form {target:.5f} ({rel:.1%})"
    _passed("closed-form vs simulated variance",
            f"simulated {got:.4f} vs {target:.4f} ({rel:.1%} relative, 1e4 reps)")
