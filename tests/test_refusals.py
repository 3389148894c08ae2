"""Refusals of bad arguments that no other test reaches: each raises its
documented class with a message naming what is wrong, and the command line
turns a bad config or spec into a usage error (exit 2)."""

import json
import re

import numpy as np
import pytest
from click.testing import CliRunner

from svycdf import asymptotics as asy
from svycdf import designs as dsg
from svycdf import estimation as est
from svycdf import montecarlo as mc
from svycdf import oracle as orc
from svycdf import population as pop
from svycdf import streams
from svycdf.cli import main
from svycdf.errors import DiagnosticError, ParameterError

import step_reference as ref

EXP1 = pop.SuperPopulationLaw.exponential(1.0)


def _scenario(**kw):
    args = dict(N=20, n=5, design="SI", law=EXP1, alpha=0.5, beta=0.6,
                n_populations=1, n_samples=1000, seed=1)
    args.update(kw)
    return mc.Scenario(**args)


def _enumerated(N=4, n=2):
    return orc.enumerate_design(dsg.srswor(N, n))


@pytest.mark.parametrize("call, error, message", [
    (lambda: asy.DesignConstants(lam=1.5, mu1=0.0, mu2=0.0),
     ParameterError, "lam must lie in [0, 1], got 1.5"),
    (lambda: asy.limit_covariance(asy.DesignConstants(0.5, 1.0, -0.5), EXP1, "XX", 1.0, 2.0),
     ParameterError, "unknown covariance form 'XX'"),
    (lambda: asy.wald_interval(0.3, -1.0, 10),
     ParameterError, "need nonnegative variance and positive n"),
    (lambda: dsg.srswor(0, 1), ParameterError, "population size must be at least 1"),
    (lambda: dsg.poisson([[0.5, 0.5]]), ParameterError, "poisson needs one probability per unit"),
    (lambda: dsg.rejective([[0.5, 0.5]], 1),
     ParameterError, "rejective needs one working probability per unit"),
    (lambda: dsg.calibrated_rejective([0.5, 0.5], 2),
     ParameterError, "need 1 <= n <= N-1, got n=2, N=2"),
    (lambda: est.process_paths(ref.make_row([1.0], [0.5]), np.ones(2), [1.0], "XX"),
     ParameterError, "unknown process kind 'XX'"),
    # every response of a point mass at 0 is 0, so the HT mean has no variance
    (lambda: mc.normality_diagnostic(
        _scenario(law=pop.SuperPopulationLaw.discrete([0.0], [1.0])), "ht_mean"),
     DiagnosticError, "design variance of the weighted mean is zero"),
    (lambda: mc.normality_diagnostic(_scenario(), "phi_xx"),
     ParameterError, "unknown statistic 'phi_xx'"),
    (lambda: orc.EnumeratedDesign(np.ones((2, 3), dtype=bool), np.array([0.5, 0.4]), 3),
     ParameterError, "support probabilities must be nonnegative and sum to one"),
    (lambda: orc.check_conditions(orc.EnumeratedDesign(np.zeros((1, 3), dtype=bool),
                                                       np.ones(1), 3)),
     ParameterError, "expected size must be positive"),
    (lambda: dsg.exact_sn2(dsg.srswor(4, 2), np.ones(3)),
     ParameterError, "v must have one entry per unit"),
    (lambda: dsg.sigma_matrix(dsg.srswor(4, 2), np.arange(4.0), [1.0], "HJ2"),
     ParameterError, "centered form requires the super-population law"),
    (lambda: dsg.sigma_matrix(dsg.srswor(4, 2), np.arange(4.0), [1.0], "XX"),
     ParameterError, "form must be 'HT2' or 'HJ2', got 'XX'"),
    (lambda: orc.divergence_from_rejective(_enumerated(4), _enumerated(5)),
     ParameterError, "designs must share the population size"),
    (lambda: pop.SuperPopulationLaw.discrete([0.0, 1.0], [1.0]),
     ParameterError, "discrete law needs equally many points and masses"),
    (lambda: pop.true_poverty_rate(EXP1, 0.5, 1.5),
     ParameterError, "scale beta must lie in (0, 1], got 1.5"),
    (lambda: streams._seeded_type()(np.zeros(4, np.uint64)).generate_state(8),
     NotImplementedError, "a batch stream holds only its PCG64 seed"),
], ids=["constants-lam", "covariance-form", "wald-variance", "design-units",
        "poisson-shape", "rejective-shape", "calibration-size", "process-kind",
        "ht-mean-zero-variance", "normality-statistic", "support-mass",
        "conditions-empty", "sn2-length", "sigma-law", "sigma-form", "divergence-units",
        "discrete-law", "poverty-beta", "batch-stream-state"])
def test_refusal(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


@pytest.mark.parametrize("args, message", [
    (lambda config, out: ["simulate", "--config", config, "--out", out],
     "error: unknown law kind 'gamma' in config"),
    (lambda config, out: ["oracle", "--design", '{"kind": "systematic", "N": 4}', "--out", out],
     "error: unknown design kind 'systematic'"),
], ids=["law-kind", "design-kind"])
def test_cli_refusal_is_usage_error(tmp_path, args, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"law": {"kind": "gamma"}, "cells": [{"N": 10, "n": 2}],
                                  "seed": 1}))
    out = tmp_path / "out"
    result = CliRunner().invoke(main, args(str(config), str(out)))
    assert result.exit_code == 2
    assert result.stderr.strip() == message
    assert not out.exists()
