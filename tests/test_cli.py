"""Command line surface: simulate, oracle, calibrate."""

import csv
import dataclasses
import hashlib
import json
import multiprocessing
import os
import re
import subprocess
import sys
import warnings
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import svycdf
from svycdf import cli
from svycdf import designs as dsg
from svycdf import montecarlo as mc
from svycdf import oracle as orc
from svycdf import population as pop
from svycdf.cli import main
from test_montecarlo import _SerialPool, _cpus


#: the paper's simulation protocol, committed with the code
PAPER_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "paper.json"


@pytest.fixture
def runner():
    return CliRunner()


def minimal_config(**overrides):
    cfg = {
        "law": {"kind": "exponential", "rate": 1.0},
        "alpha": 0.5,
        "beta": 0.6,
        "designs": ["SI"],
        "cells": [{"N": 100, "n": 20}],
        "n_populations": 10,
        "n_samples": 10,
        "seed": 42,
    }
    cfg.update(overrides)
    return cfg


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestSimulate:
    def test_minimal_smoke(self, runner, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(minimal_config()))
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--config", str(cfg_path),
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        for name in ("rb_estimators.csv", "rb_variance.csv", "coverage.csv",
                     "manifest.json"):
            assert (out / name).is_file()
        rows = read_rows(out / "rb_estimators.csv")
        assert rows[0] == ["design", "estimator", "center", "N=100 n=20"]
        assert len(rows) == 1 + 1 * 2 * 2   # one design, two estimators, two centers
        assert json.loads((out / "manifest.json").read_text())["workers"] == 1

    def test_grid_row_counts(self, runner, tmp_path):
        # random-size designs need a moderate n to stay under the failure
        # budget (the 0.75 quantile behind the bandwidth needs enough mass)
        cfg = minimal_config(designs=["SI", "BE"],
                             cells=[{"N": 400, "n": 100}, {"N": 500, "n": 100}],
                             n_populations=4, n_samples=4)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--config", str(cfg_path),
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert len(read_rows(out / "rb_estimators.csv")) == 1 + 2 * 2 * 2
        assert len(read_rows(out / "rb_variance.csv")) == 1 + 2 * 2
        assert len(read_rows(out / "coverage.csv")) == 1 + 2 * 2 * 2
        header = read_rows(out / "coverage.csv")[0]
        assert header[3:] == ["N=400 n=100", "N=500 n=100"]

    def test_full_grid_shape(self, runner, tmp_path):
        # the full protocol grid: three designs by six (N, n) cells
        cfg = minimal_config(
            designs=["SI", "BE", "PO"],
            cells=[{"N": 10000, "n": 500}, {"N": 10000, "n": 100},
                   {"N": 10000, "n": 50}, {"N": 1000, "n": 500},
                   {"N": 1000, "n": 100}, {"N": 1000, "n": 50}],
            n_populations=2, n_samples=2)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--config", str(cfg_path),
                                      "--out", str(out), "--workers", "2"])
        assert result.exit_code == 0, result.output
        rb_rows = read_rows(out / "rb_estimators.csv")
        assert len(rb_rows) == 1 + 3 * 2 * 2
        assert len(rb_rows[0]) == 3 + 6          # key columns + six cells
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["timings_seconds"]) == 18   # scenario cells
        assert manifest["workers"] == mc.pool_size(2, 2)

    def test_manifest_records_the_pool_used(self, runner, tmp_path, monkeypatch):
        # four CPUs and two workers asked for, but one population: the run
        # stays in this process, and the manifest says one worker
        monkeypatch.setattr(mc, "_available_cpus", lambda: 4)
        monkeypatch.setattr(mc, "ProcessPoolExecutor", None)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(minimal_config(n_populations=1)))
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--config", str(cfg_path),
                                      "--out", str(out), "--workers", "2"])
        assert result.exit_code == 0, result.output
        assert json.loads((out / "manifest.json").read_text())["workers"] == 1

    def test_missing_config_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, ["simulate", "--config",
                                      str(tmp_path / "nope.json"),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2

    def test_tables_byte_identical(self, runner, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(minimal_config()))
        blobs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            result = runner.invoke(main, ["simulate", "--config", str(cfg_path),
                                          "--out", str(out)])
            assert result.exit_code == 0, result.output
            blobs.append(tuple((out / name).read_bytes()
                               for name in ("rb_estimators.csv", "rb_variance.csv",
                                            "coverage.csv")))
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("overrides, message", [
        ({"cells": [{"N": 100, "n": 20}, {"N": 100, "n": 120}]},
         "need 1 <= n <= N, got n=120, N=100"),
        ({"n_populations": 0}, "replication counts must be at least 1"),
        ({"designs": ["SI", "XX"]}, "unknown design label 'XX'"),
        ({"cells": [{"N": 100, "n": 80}], "designs": ["PO"]}, "PO needs 1.6*n/N <= 1"),
        # 1.6 * 5/8 is exactly 1: Poisson can take it, rejective cannot
        ({"cells": [{"N": 8, "n": 5}], "designs": ["PO", "REJ"]}, "REJ needs 1.6*n/N < 1"),
        # sizes numpy could not allocate, refused before anything is made
        ({"cells": [{"N": 10 ** 400, "n": 20}]}, "N=1000"),
        ({"cells": [{"N": 2 ** 62, "n": 20}]}, f"N={2 ** 62} exceeds the bound"),
        # a population a worker could not hold in memory
        ({"cells": [{"N": 2 ** 24 + 1, "n": 20}]}, f"N={2 ** 24 + 1} exceeds the bound"),
        # beta = 1 on a law with a density: a constant rate, no relative bias
        ({"beta": 1.0}, "beta = 1 needs a discrete law"),
        ({"beta": 1, "law": {"kind": "uniform01"}}, "beta = 1 needs a discrete law"),
    ], ids=["n-above-N", "no-populations", "unknown-design", "po-split", "rej-split",
            "N-beyond-float", "N-beyond-numpy", "N-beyond-bound", "beta-one-exponential",
            "beta-one-uniform01"])
    def test_invalid_cell_is_usage_error(self, runner, tmp_path, monkeypatch, overrides,
                                         message):
        # every cell is checked before the first one runs
        ran = []
        monkeypatch.setattr(mc, "run_scenarios", lambda scs, workers: ran.extend(scs))
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(minimal_config(**overrides)))
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--config", str(cfg_path),
                                      "--out", str(out)])
        assert result.exit_code == 2
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {message}")
        assert ran == []
        assert not out.exists()

    @pytest.mark.parametrize("overrides, key", [
        ({"cells": [{"N": 100.9, "n": 20}]}, "cells[0].N"),
        ({"cells": [{"N": 100, "n": 20}, {"N": 100, "n": 20.5}]}, "cells[1].n"),
        ({"cells": [{"N": True, "n": 1}]}, "cells[0].N"),
        ({"cells": [{"N": "100", "n": 20}]}, "cells[0].N"),
        ({"n_populations": 2.5}, "n_populations"),
        ({"n_samples": 0.5}, "n_samples"),
        ({"seed": 1.5}, "seed"),
        ({"seed": False}, "seed"),
    ], ids=["N-float", "n-float", "N-bool", "N-string", "populations-float",
            "samples-fraction", "seed-float", "seed-bool"])
    def test_non_integral_count_is_usage_error(self, runner, tmp_path, monkeypatch,
                                               overrides, key):
        ran = []
        monkeypatch.setattr(mc, "run_scenarios", lambda scs, workers: ran.extend(scs))
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(minimal_config(**overrides)))
        result = runner.invoke(main, ["simulate", "--config", str(cfg_path),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert result.stderr.startswith(f"error: {key} must be an integer, got ")
        assert ran == []

    @pytest.mark.parametrize("overrides, key", [
        ({"beta": True}, "beta"),
        ({"beta": "0.6"}, "beta"),
        ({"alpha": False}, "alpha"),
        ({"alpha": None}, "alpha"),
        ({"law": {"kind": "exponential", "rate": True}}, "law.rate"),
        ({"law": {"kind": "exponential", "rate": "2"}}, "law.rate"),
        ({"beta": 10 ** 400}, "beta"),
        ({"law": {"kind": "discrete", "points": ["1", 2, 3], "masses": [0.5, 0.25, 0.25]}},
         "law.points[0]"),
        ({"law": {"kind": "discrete", "points": [1, True, 3], "masses": [0.5, 0.25, 0.25]}},
         "law.points[1]"),
        ({"law": {"kind": "discrete", "points": [1, 2, 3], "masses": [0.5, 0.25, "0.25"]}},
         "law.masses[2]"),
    ], ids=["beta-bool", "beta-string", "alpha-bool", "alpha-null", "rate-bool",
            "rate-string", "beta-beyond-float", "points-string", "points-bool",
            "masses-string"])
    def test_non_real_parameter_is_usage_error(self, runner, tmp_path, monkeypatch,
                                               overrides, key):
        ran = []
        monkeypatch.setattr(mc, "run_scenarios", lambda scs, workers: ran.extend(scs))
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(minimal_config(**overrides)))
        result = runner.invoke(main, ["simulate", "--config", str(cfg_path),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert result.stderr.startswith(f"error: {key} must be a real number, got ")
        assert ran == []

    def test_integral_floats_accepted(self, runner, tmp_path, monkeypatch):
        ran = []
        monkeypatch.setattr(mc, "run_scenarios", lambda scs, workers: ran.extend(scs))
        cfg = minimal_config(cells=[{"N": 100.0, "n": 20.0}], n_populations=10.0,
                             seed=42.0)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        runner.invoke(main, ["simulate", "--config", str(cfg_path),
                             "--out", str(tmp_path / "out")])
        assert [(sc.N, sc.n, sc.n_populations, sc.seed) for sc in ran] == [(100, 20, 10, 42)]
        assert all(type(v) is int for v in (ran[0].N, ran[0].n, ran[0].seed))

    def test_seed_beyond_float_range_runs(self, runner, tmp_path):
        # a JSON integer is taken as it is, never through a float
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(minimal_config(seed=10 ** 400, n_populations=2,
                                                      n_samples=3)))
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--config", str(cfg_path),
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert json.loads((out / "manifest.json").read_text())["seed"] == 10 ** 400

    def test_subnormal_rate_is_usage_error(self, runner, tmp_path, monkeypatch):
        # F^-1(alpha) = -log1p(-alpha)/rate overflows: refused with the law,
        # before any scenario runs and without a numpy warning
        ran = []
        monkeypatch.setattr(mc, "run_scenarios", lambda scs, workers: ran.extend(scs))
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(minimal_config(law={"kind": "exponential",
                                                           "rate": 1e-310})))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(main, ["simulate", "--config", str(cfg_path),
                                          "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: exponential rate must be")
        assert ran == []

    @pytest.mark.parametrize("field, values", [
        ("points", [1.0, float("nan"), 3.0]),
        ("points", [1.0, 2.0, float("inf")]),
        ("points", [float("-inf"), 1.0, 2.0]),
        ("masses", [float("nan"), 0.5, 0.5]),
        ("masses", [float("inf"), 0.5, 0.5]),
        ("masses", [float("-inf"), 0.5, 0.5]),
    ], ids=["points-NaN", "points-Infinity", "points--Infinity", "masses-NaN",
            "masses-Infinity", "masses--Infinity"])
    def test_non_finite_atom_is_usage_error(self, runner, tmp_path, field, values):
        # json reads the literals NaN, Infinity and -Infinity; the law refuses
        # them before --out is made and without a numpy warning
        law = {"kind": "discrete", "points": [1.0, 2.0, 3.0], "masses": [0.5, 0.25, 0.25],
               field: values}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(minimal_config(law=law, cells=[{"N": 100, "n": 10}])))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(main, ["simulate", "--config", str(cfg_path),
                                          "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert result.stderr.strip().splitlines() == [
            "error: discrete points and masses must be finite"]
        assert not (tmp_path / "out").exists()

    def test_largest_rate_runs(self, runner, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(minimal_config(law={"kind": "exponential", "rate": 1e308},
                                                      n_populations=2, n_samples=3)))
        result = runner.invoke(main, ["simulate", "--config", str(cfg_path),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output

    def test_uniform_law_runs(self, runner, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(minimal_config(law={"kind": "uniform01"},
                                                      n_populations=2, n_samples=3)))
        result = runner.invoke(main, ["simulate", "--config", str(cfg_path),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output

    def test_paper_scale_sets_1000_by_1000(self, runner, tmp_path, monkeypatch):
        # the committed paper protocol; its scenarios are captured, and run
        # at N=100, n=20 and 1 x 2 in their stead
        seen = []
        run = mc.run_scenarios

        def shrunk(scenarios, workers):
            seen.extend(scenarios)
            return run([dataclasses.replace(sc, N=100, n=20, n_populations=1, n_samples=2)
                        for sc in scenarios], workers)

        monkeypatch.setattr(mc, "run_scenarios", shrunk)
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--config", str(PAPER_CONFIG),
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert [(sc.design, sc.N, sc.n, sc.n_populations, sc.n_samples, sc.seed)
                for sc in seen] == [(d, 10000, 500, 1000, 1000, 20260808)
                                    for d in ("SI", "BE", "PO", "REJ")]
        assert all((sc.law, sc.alpha, sc.beta) == (pop.SuperPopulationLaw.exponential(1.0),
                                                   0.5, 0.6) for sc in seen)
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["n_populations"], manifest["n_samples"], manifest["seed"]) == (
            1000, 1000, 20260808)

    def test_failure_budget_is_runtime_error(self, runner, tmp_path):
        # expected size 2 out of 30: empty samples exceed the failure budget
        cfg = minimal_config(designs=["BE"], cells=[{"N": 30, "n": 2}],
                             n_populations=4, n_samples=12)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--config", str(cfg_path),
                                      "--out", str(out)])
        assert result.exit_code == 3
        assert "budget" in result.stderr
        assert not (out / "rb_estimators.csv").exists()


#: sha256 of the three tables of the golden configs below, recorded with the
#: earlier estimation path that rebuilt each CDF per use; a faster kernel must
#: leave the tables byte-identical
GOLDEN_DIGESTS = {
    "exponential": {
        "rb_estimators.csv": "c6c53c5f7d96ff9d02f6e6b84d5d8e0fd6a7c36c0be446ec967870aecf87df61",
        "rb_variance.csv": "e420a61dea1cd5b83e5f12f966b4f3b7513e7621485dad39319cb3e928769469",
        "coverage.csv": "07709002e3e979ce36b889a46fdcfa51fc0ddb50e7fb699b951445867331b0cf",
    },
    "discrete": {
        "rb_estimators.csv": "ecdbd9285c2e7df87ad29d4f7ffcae6ecad3e86246e2906117f8060c1585b939",
        "rb_variance.csv": "26959de07d5a18af6becc5a006ff65c51aff22ae53529308dba2ef39991667b7",
        "coverage.csv": "6b03a3e094af0e6c2b96c593306a2be604ba8f3f1b8270c8797ec738ccd62d79",
    },
}

GOLDEN_LAWS = {
    "exponential": {"kind": "exponential", "rate": 1.0},
    # twelve atoms: every sample has ties, so the CDFs take the merge path
    "discrete": {"kind": "discrete", "points": [float(k) for k in range(1, 13)],
                 "masses": [1 / 12] * 12},
}


class TestGoldenTables:
    @pytest.mark.parametrize("law", sorted(GOLDEN_LAWS))
    def test_digests(self, runner, tmp_path, law):
        cfg = minimal_config(law=GOLDEN_LAWS[law], designs=["SI", "BE", "PO", "REJ"],
                             cells=[{"N": 200, "n": 40}, {"N": 120, "n": 30}],
                             n_populations=3, n_samples=6, seed=7)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--config", str(cfg_path),
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        found = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                 for name in GOLDEN_DIGESTS[law]}
        assert found == GOLDEN_DIGESTS[law]


class TestSimulateFailures:
    def _invoke(self, runner, tmp_path, *extra):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(minimal_config()))
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--config", str(cfg_path),
                                      "--out", str(out), *extra])
        return result, out

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_is_usage_error(self, runner, tmp_path, workers):
        result, out = self._invoke(runner, tmp_path, "--workers", workers)
        assert result.exit_code == 2
        assert result.stderr.strip() == f"error: workers must be at least 1, got {workers}"
        assert not out.exists()

    @pytest.mark.parametrize("exc", [
        BrokenProcessPool("A process in the process pool was terminated abruptly"),
        MemoryError(),
    ])
    def test_pool_and_memory_failures_exit_3(self, runner, tmp_path, monkeypatch, exc):
        def fail(*args, **kwargs):
            raise exc
        monkeypatch.setattr(mc, "run_scenarios", fail)
        result, out = self._invoke(runner, tmp_path)
        assert result.exit_code == 3
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {type(exc).__name__}")
        assert not (out / "rb_estimators.csv").exists()

    def test_undecodable_config_is_usage_error(self, runner, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_bytes(b'{"seed": 42, "designs": ["\xff"]}')
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--config", str(cfg_path),
                                      "--out", str(out)])
        assert result.exit_code == 2
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: config is not valid UTF-8")
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ("[1, 2]", "config must be a JSON object"),
        (json.dumps(minimal_config(law="exponential")), "law must be a JSON object"),
        (json.dumps(minimal_config(law=None)), "law must be a JSON object"),
        (json.dumps(minimal_config(designs=[])), "designs must be a non-empty list"),
        (json.dumps(minimal_config(designs=["SI", "SI"])), "designs must be a non-empty list"),
        (json.dumps(minimal_config(designs="SI")), "designs must be a non-empty list"),
        (json.dumps(minimal_config(cells=[{"N": 100}])), "bad config field: KeyError('n')"),
        (json.dumps(minimal_config(cells=[])), "config must list at least one (N, n) cell"),
    ], ids=["top-level-array", "law-string", "law-null", "designs-empty",
            "designs-repeated", "designs-string", "cell-without-n", "no-cells"])
    def test_misshapen_config_is_usage_error(self, runner, tmp_path, monkeypatch, text,
                                             message):
        ran = []
        monkeypatch.setattr(mc, "run_scenarios", lambda scs, workers: ran.extend(scs))
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(text)
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--config", str(cfg_path),
                                      "--out", str(out)])
        assert result.exit_code == 2
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {message}")
        assert ran == []
        assert not out.exists()

    def test_output_below_a_file_is_runtime_error(self, runner, tmp_path, monkeypatch):
        # the output directory is made before the Monte Carlo work
        calls = []
        monkeypatch.setattr(mc, "run_scenarios", lambda *args, **kwargs: calls.append(args))
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(minimal_config()))
        (tmp_path / "file").write_text("x")
        result = runner.invoke(main, ["simulate", "--config", str(cfg_path),
                                      "--out", str(tmp_path / "file" / "out")])
        assert result.exit_code == 3
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: NotADirectoryError")
        assert calls == []

    @pytest.mark.parametrize("overrides, message", [
        ({"designs": ["SI", "BE"], "cells": [{"N": 50, "n": 50}]}, "BE needs n < N"),
        ({"alpha": 1.0}, "alpha must lie in (0, 1)"),
        ({"beta": 0}, "beta must lie in (0, 1]"),
        ({"seed": -4}, "seed must be non-negative"),
        ({"n_samples": 2**32 + 1}, "n_samples must be at most 2**32"),
    ], ids=["BE-census", "alpha-one", "beta-zero", "negative-seed", "samples-over-one-word"])
    def test_invalid_scenario_fails_before_any_population(self, runner, tmp_path, monkeypatch,
                                                          overrides, message):
        # every scenario of the grid is checked before the first one runs
        calls = []
        generate = pop.generate_population

        def counted(*args, **kwargs):
            calls.append(args)
            return generate(*args, **kwargs)

        monkeypatch.setattr(pop, "generate_population", counted)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(minimal_config(**overrides)))
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--config", str(cfg_path),
                                      "--out", str(out)])
        assert result.exit_code == 2
        assert message in result.stderr
        assert not out.exists()
        assert calls == []

    def test_underflowing_bandwidth_is_a_run_failure(self, runner, tmp_path):
        # a valid config whose samples have an interquartile range of 5e-324:
        # every bandwidth underflows, so every cell fails, past the budget
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(minimal_config(
            law={"kind": "discrete", "points": [0.0, 5e-324], "masses": [0.5, 0.5]},
            cells=[{"N": 400, "n": 40}], n_populations=2, n_samples=20, seed=1)))
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--config", str(cfg_path),
                                      "--out", str(out)])
        assert result.exit_code == 3
        assert result.stderr.strip() == "error: HT failed in 40 of 40 cells (> 1% budget)"
        assert not out.exists()

    def test_zero_target_relative_bias_is_a_run_failure(self, runner, tmp_path):
        # a valid config whose poverty rate is 0 for the model and every
        # population, while the estimates are not: relative bias is undefined
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(minimal_config(
            law={"kind": "discrete", "points": [1.0, 2.0, 3.0], "masses": [0.5, 0.3, 0.2]},
            beta=0.9, designs=["SI", "PO"], cells=[{"N": 200, "n": 20}],
            n_populations=2, n_samples=50, seed=1)))
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--config", str(cfg_path),
                                      "--out", str(out)])
        assert result.exit_code == 3
        assert (result.stderr.strip()
                == "error: relative bias undefined: zero target with nonzero estimates")
        assert not out.exists()

    def test_partial_tables_removed_on_memory_error(self, runner, tmp_path, monkeypatch):
        real_write = cli._write_csv
        calls = []

        def write_then_fail(path, header, rows):
            calls.append(path)
            if len(calls) == 2:
                raise MemoryError()
            real_write(path, header, rows)

        monkeypatch.setattr(cli, "_write_csv", write_then_fail)
        result, out = self._invoke(runner, tmp_path)
        assert result.exit_code == 3
        assert calls[0].name == "rb_estimators.csv"
        assert not any(out.glob("*.csv"))


class TestInputs:
    """Each command-line input is set in one place: the config fixes a
    simulation, the targets fix calibration's n, and ``oracle`` has one name."""

    @pytest.mark.parametrize("command, options", [
        ("simulate", ["--config", "--out", "--workers"]),
        ("oracle", ["--design", "--out", "--rejective-reference"]),
        ("calibrate", ["--pi", "--out"]),
    ])
    def test_help_lists_only_these_options(self, runner, command, options):
        result = runner.invoke(main, [command, "--help"])
        assert result.exit_code == 0, result.output
        listed = re.findall(r"^\s+(--[a-z-]+)", result.output, flags=re.M)
        assert listed == [*options, "--help"]

    @pytest.mark.parametrize("command, option", [
        ("simulate", ["--paper-scale"]), ("simulate", ["--seed", "7"]),
        ("calibrate", ["--n", "3"])], ids=["paper-scale", "seed", "n"])
    def test_removed_options_are_unknown(self, runner, tmp_path, command, option):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(minimal_config()))
        pi_path = tmp_path / "pi.txt"
        pi_path.write_text("0.5\n" * 6)
        out = tmp_path / "out"
        inputs = {"simulate": ["--config", str(cfg_path)], "calibrate": ["--pi", str(pi_path)]}
        result = runner.invoke(main, [command, *inputs[command], "--out", str(out), *option])
        assert result.exit_code == 2
        assert "No such option" in result.stderr and option[0] in result.stderr
        assert not out.exists()

    def test_conditions_is_an_unknown_command(self, runner, tmp_path):
        result = runner.invoke(main, ["conditions", "--design", '{"kind":"srswor","N":6,"n":3}',
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "No such command" in result.stderr and "conditions" in result.stderr
        assert sorted(main.commands) == ["calibrate", "oracle", "simulate"]


#: names of the three result tables
TABLES = ("rb_estimators.csv", "rb_variance.csv", "coverage.csv")


class TestSharedPool:
    """``simulate`` opens one pool for the whole grid and leaves no worker behind."""

    def _run(self, runner, tmp_path, name, cfg, workers):
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / name
        result = runner.invoke(main, ["simulate", "--config", str(cfg_path),
                                      "--out", str(out), "--workers", str(workers)])
        return result, out

    def test_one_pool_for_the_grid(self, runner, tmp_path, monkeypatch):
        cfg = minimal_config(designs=["SI", "PO"], cells=[{"N": 200, "n": 40},
                                                          {"N": 120, "n": 30}],
                             n_populations=5, n_samples=4, seed=7)
        serial, serial_out = self._run(runner, tmp_path, "serial", cfg, 1)
        assert serial.exit_code == 0, serial.output
        monkeypatch.setattr(mc, "ProcessPoolExecutor", _SerialPool)
        _cpus(monkeypatch, 2)
        _SerialPool.reset()
        pooled, pooled_out = self._run(runner, tmp_path, "pooled", cfg, 2)
        assert pooled.exit_code == 0, pooled.output
        assert _SerialPool.sizes == [2]
        assert _SerialPool.chunksizes == [2] * 4     # ceil(5 / (2 * 2))
        assert _SerialPool.exits == [None]
        for name in TABLES:
            assert (pooled_out / name).read_bytes() == (serial_out / name).read_bytes()

    def test_real_pool_tables_byte_identical(self, runner, tmp_path):
        cfg = minimal_config(designs=["SI", "REJ"], cells=[{"N": 120, "n": 30}],
                             n_populations=3, n_samples=4, seed=7)
        blobs = {}
        for workers in (1, 2):
            result, out = self._run(runner, tmp_path, f"w{workers}", cfg, workers)
            assert result.exit_code == 0, result.output
            assert multiprocessing.active_children() == []
            blobs[workers] = [(out / name).read_bytes() for name in TABLES]
        assert blobs[1] == blobs[2]

    @pytest.mark.parametrize("overrides, code, message", [
        # the second scenario exceeds the failure budget after the first used the pool
        ({"designs": ["SI", "BE"], "cells": [{"N": 30, "n": 2}], "n_populations": 4,
          "n_samples": 12}, 3, "budget"),
        ({"beta": 1.5}, 2, "beta"),
    ], ids=["budget", "bad-beta"])
    def test_real_pool_closed_on_error(self, runner, tmp_path, overrides, code, message):
        result, out = self._run(runner, tmp_path, "out", minimal_config(**overrides), 2)
        assert result.exit_code == code
        assert message in result.stderr
        assert multiprocessing.active_children() == []
        assert not out.exists()

    def test_broken_pool_in_second_scenario(self, runner, tmp_path, monkeypatch):
        class BreaksOnSecondMap(_SerialPool):
            def map(self, fn, items, chunksize=1):
                if len(self.chunksizes) == 1:
                    raise BrokenProcessPool("A process in the process pool was "
                                            "terminated abruptly")
                return super().map(fn, items, chunksize)

        monkeypatch.setattr(mc, "ProcessPoolExecutor", BreaksOnSecondMap)
        _cpus(monkeypatch, 2)
        _SerialPool.reset()
        cfg = minimal_config(designs=["SI", "PO"], n_populations=4, n_samples=4)
        result, out = self._run(runner, tmp_path, "out", cfg, 2)
        assert result.exit_code == 3
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: BrokenProcessPool")
        assert _SerialPool.sizes == [2]
        assert _SerialPool.exits == [BrokenProcessPool]
        assert not out.exists()


class TestOracleCommand:
    def test_srswor_report(self, runner, tmp_path):
        result = runner.invoke(main, [
            "oracle", "--design", '{"kind":"srswor","N":6,"n":3}',
            "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        rows = read_rows(tmp_path / "conditions.csv")
        table = {row[0]: row for row in rows[1:]}
        assert float(table["max_pair_correlation"][3]) == pytest.approx(0.6, abs=1e-9)
        assert float(table["entropy_scale"][1]) == pytest.approx(1.5, abs=1e-9)

    def test_divergence_from_a_rejective_reference(self, runner, tmp_path):
        result = runner.invoke(main, [
            "oracle", "--design", '{"kind":"srswor","N":6,"n":3}',
            "--rejective-reference",
            '{"kind":"rejective","p":[0.5,0.5,0.5,0.5,0.5,0.5],"n":3}',
            "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        table = {row[0]: row for row in read_rows(tmp_path / "conditions.csv")[1:]}
        assert float(table["divergence_from_reference"][1]) <= 1e-12

    def test_divergence_off_the_reference_support_prints_inf(self, runner, tmp_path):
        # a Bernoulli design puts mass on samples of every size and the
        # rejective reference only on size 2, so the divergence is infinite
        result = runner.invoke(main, [
            "oracle", "--design", '{"kind":"bernoulli","N":4,"p":0.5}',
            "--rejective-reference", '{"kind":"rejective","p":[0.2,0.3,0.4,0.5],"n":2}',
            "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        table = {row[0]: row for row in read_rows(tmp_path / "conditions.csv")[1:]}
        assert table["divergence_from_reference"][1:] == ["inf", "sum P log(P/R)", "inf"]

    def test_non_finite_values_print_as_themselves(self):
        assert [cli._fmt(x) for x in (None, np.nan, np.inf, -np.inf, 0.25)] == \
            ["nan", "nan", "inf", "-inf", "0.25"]

    def test_capacity_guard_is_runtime_error(self, runner, tmp_path):
        result = runner.invoke(main, [
            "oracle", "--design", '{"kind":"bernoulli","N":24,"p":0.5}',
            "--out", str(tmp_path)])
        assert result.exit_code == 3

    @pytest.mark.parametrize("spec", [
        '{"kind":"srswor","N":2000,"n":2}',
        '{"kind":"srswor","N":2000000,"n":1}',
    ], ids=["pairs-of-2000", "singletons-of-2000000"])
    def test_units_checked_before_enumeration(self, runner, tmp_path, monkeypatch, spec):
        # the condition sweep's N bound comes first: no support is enumerated
        monkeypatch.setattr(orc, "enumerate_design", None)
        result = runner.invoke(main, ["oracle", "--design", spec, "--out", str(tmp_path)])
        assert result.exit_code == 3, result.output
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: condition sweep limited to N")

    @pytest.mark.parametrize("kind, spec", [
        ("srswor", '{"kind":"srswor","N":15,"n":3}'),
        ("bernoulli", '{"kind":"bernoulli","N":15,"p":0.5}'),
        ("poisson", '{"kind":"poisson","pi":%s}' % ([0.5] * 15)),
        ("rejective", '{"kind":"rejective","p":%s,"n":3}' % ([0.5] * 15)),
    ])
    def test_units_checked_before_any_factory(self, runner, tmp_path, monkeypatch, kind, spec):
        # N is the spec's N field or the length of its list
        monkeypatch.setattr(dsg, kind, None)
        result = runner.invoke(main, ["oracle", "--design", spec, "--out", str(tmp_path)])
        assert result.exit_code == 3, result.output
        assert result.stderr.strip().splitlines() == [
            "error: condition sweep limited to N <= 14, got 15"]

    def test_reference_on_other_units_is_usage_error(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr(orc, "enumerate_design", None)
        result = runner.invoke(main, [
            "oracle", "--design", '{"kind":"srswor","N":6,"n":3}',
            "--rejective-reference", json.dumps({"kind": "rejective", "p": [0.5] * 2000,
                                                 "n": 2}),
            "--out", str(tmp_path)])
        assert result.exit_code == 2, result.output
        assert result.stderr.startswith("error: the reference design must be rejective")

    def test_output_below_a_file_is_runtime_error(self, runner, tmp_path):
        (tmp_path / "file").write_text("x")
        result = runner.invoke(main, [
            "oracle", "--design", '{"kind":"srswor","N":6,"n":3}',
            "--out", str(tmp_path / "file" / "out")])
        assert result.exit_code == 3
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: NotADirectoryError")

    def test_bad_design_json_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, [
            "oracle", "--design", "not json", "--out", str(tmp_path)])
        assert result.exit_code == 2

    @pytest.mark.parametrize("spec", [
        '{"kind":"poisson","pi":[NaN,0.5,0.5]}',
        '{"kind":"rejective","p":[0.5,NaN,0.5],"n":1}',
        '{"kind":"bernoulli","N":4,"p":NaN}',
        '{"kind":"srswor","N":6.5,"n":3}',
        '{"kind":"srswor","N":6,"n":true}',
        '{"kind":"bernoulli","N":4.2,"p":0.5}',
        '{"kind":"rejective","p":[0.5,0.5,0.5],"n":1.5}',
        '{"kind":"srswor","N":6}',
        '{"kind":"poisson","pi":["a",0.5]}',
        '[1, 2]',
        '{"kind":"bernoulli","N":4,"p":"0.5"}',
        '{"kind":"poisson","pi":["0.5",0.5,0.25]}',
        '{"kind":"poisson","pi":[0.5,true,0.25]}',
        '{"kind":"rejective","p":["0.2","0.5","0.4"],"n":1}',
    ], ids=["poisson-nan", "rejective-nan", "bernoulli-nan", "N-float", "n-bool",
            "bernoulli-N-float", "rejective-n-float", "missing-n", "non-numeric",
            "not-an-object", "bernoulli-p-string", "poisson-pi-string", "poisson-pi-bool",
            "rejective-p-string"])
    def test_invalid_design_is_usage_error(self, runner, tmp_path, spec):
        result = runner.invoke(main, ["oracle", "--design", spec, "--out", str(tmp_path)])
        assert result.exit_code == 2, result.output
        assert result.stderr.startswith("error: ")
        assert not (tmp_path / "conditions.csv").exists()

    @pytest.mark.parametrize("spec, quantity", [
        ('{"kind":"bernoulli","N":3,"p":1e-320}', "n**2"),
        ('{"kind":"rejective","p":[1e-300,0.5,0.5],"n":2}', "d**2"),
        ('{"kind":"poisson","pi":[1e-320,0.5]}', "pi_i * pi_j"),
    ], ids=["bernoulli-size-squared", "rejective-entropy-squared", "poisson-pair-product"])
    def test_underflowing_divisor_is_usage_error(self, runner, tmp_path, spec, quantity):
        # the report divides by each quantity; once it is 0 no row is defined
        result = runner.invoke(main, ["oracle", "--design", spec, "--out", str(tmp_path)])
        assert result.exit_code == 2, result.output
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {quantity}")
        assert not (tmp_path / "conditions.csv").exists()

    def test_size_beyond_float_range_is_runtime_error(self, runner, tmp_path):
        result = runner.invoke(main, ["oracle", "--design",
                                      '{"kind":"srswor","N":%d,"n":3}' % 10 ** 400,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 3, result.output
        assert len(result.stderr.strip().splitlines()) == 1
        assert result.stderr.startswith("error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("spec", [
        '{"kind":"bernoulli","N":%d,"p":0.5}' % 10 ** 400,
        '{"kind":"srswor","N":%d,"n":%d}' % (10 ** 400, 10 ** 399),
    ], ids=["bernoulli", "srswor-n"])
    def test_expected_size_beyond_float_range_is_runtime_error(self, runner, tmp_path, spec):
        result = runner.invoke(main, ["oracle", "--design", spec, "--out", str(tmp_path / "out")])
        assert result.exit_code == 3, result.output
        assert result.stderr.strip().splitlines() == [
            f"error: condition sweep limited to N <= 14, got {10 ** 400}"]
        assert not (tmp_path / "out").exists()

    def test_integral_float_sizes_accepted(self, runner, tmp_path):
        result = runner.invoke(main, ["oracle", "--design", '{"kind":"srswor","N":6.0,"n":3.0}',
                                      "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        table = {row[0]: row for row in read_rows(tmp_path / "conditions.csv")[1:]}
        assert float(table["entropy_scale"][1]) == pytest.approx(1.5, abs=1e-9)


class TestCalibrateCommand:
    def test_roundtrip(self, runner, tmp_path):
        design = dsg.rejective([0.1, 0.3, 0.5, 0.7, 0.9], 2)
        target = dsg.first_order_pi(design)
        pi_path = tmp_path / "pi.txt"
        pi_path.write_text("\n".join(f"{x:.17g}" for x in target))
        out_path = tmp_path / "p.json"
        result = runner.invoke(main, ["calibrate", "--pi", str(pi_path),
                                      "--out", str(out_path)])
        assert result.exit_code == 0, result.output
        payload = json.loads(out_path.read_text())
        # n is the integer nearest the targets' sum, here 2
        assert payload["n"] == 2
        assert payload["p"] == dsg.calibrated_rejective(target, 2).working_p.tolist()
        assert payload["max_residual"] <= 1e-8
        achieved = dsg.first_order_pi(dsg.rejective(np.array(payload["p"]), 2))
        assert np.max(np.abs(achieved - target)) <= 1e-8

    def test_equal_targets(self, runner, tmp_path):
        pi_path = tmp_path / "pi.txt"
        pi_path.write_text("0.5\n" * 6)
        out_path = tmp_path / "p.json"
        result = runner.invoke(main, ["calibrate", "--pi", str(pi_path),
                                      "--out", str(out_path)])
        assert result.exit_code == 0, result.output
        payload = json.loads(out_path.read_text())
        assert np.allclose(payload["p"], 0.5, atol=1e-8)

    @pytest.mark.parametrize("option", [("--max-iter", "0"), ("--max-iter", "-3"),
                                        ("--tol", "-1"), ("--tol", "1e-12")])
    def test_bad_stopping_rule_is_usage_error(self, runner, tmp_path, option):
        # the stopping rule is fixed: any --tol or --max-iter is an unknown option
        pi_path = tmp_path / "pi.txt"
        pi_path.write_text("0.5\n" * 6)
        out_path = tmp_path / "p.json"
        result = runner.invoke(main, ["calibrate", "--pi", str(pi_path),
                                      "--out", str(out_path), *option])
        assert result.exit_code == 2
        assert "No such option" in result.stderr and option[0] in result.stderr
        assert not out_path.exists()

    def test_undecodable_targets_is_usage_error(self, runner, tmp_path):
        pi_path = tmp_path / "pi.txt"
        pi_path.write_bytes(b"0.5\n0.5\xff\n")
        out_path = tmp_path / "p.json"
        result = runner.invoke(main, ["calibrate", "--pi", str(pi_path),
                                      "--out", str(out_path)])
        assert result.exit_code == 2
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: could not parse")
        assert not out_path.exists()

    def test_missing_output_directory_is_runtime_error(self, runner, tmp_path):
        pi_path = tmp_path / "pi.txt"
        pi_path.write_text("0.5\n" * 6)
        result = runner.invoke(main, ["calibrate", "--pi", str(pi_path),
                                      "--out", str(tmp_path / "missing" / "p.json")])
        assert result.exit_code == 3
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: FileNotFoundError")

    def test_dp_table_over_cap_is_runtime_error(self, runner, tmp_path, monkeypatch):
        # refused before any table is built, with the table's size named
        monkeypatch.setattr(dsg, "MAX_DP_TABLE_BYTES", 8 * 7 * 4 - 1)
        monkeypatch.setattr(dsg, "_pb_rows", None)
        pi_path = tmp_path / "pi.txt"
        pi_path.write_text("0.5\n" * 6)
        out_path = tmp_path / "p.json"
        result = runner.invoke(main, ["calibrate", "--pi", str(pi_path),
                                      "--out", str(out_path)])
        assert result.exit_code == 3
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1
        assert lines[0] == ("error: the rejective dynamic program needs 0 MB at N=6, n=3; "
                            "limited to 0 MB")
        assert not out_path.exists()

    def test_nan_target_is_usage_error(self, runner, tmp_path):
        pi_path = tmp_path / "pi.txt"
        pi_path.write_text("nan\n0.5\n0.5\n")
        result = runner.invoke(main, ["calibrate", "--pi", str(pi_path),
                                      "--out", str(tmp_path / "p.json")])
        assert result.exit_code == 2
        assert result.stderr.strip().startswith("error: target inclusion probabilities")

    def test_sum_mismatch_is_usage_error(self, runner, tmp_path):
        # a sum of 1.5 is no sample size: n = 2 is the nearest, and refused
        pi_path = tmp_path / "pi.txt"
        pi_path.write_text("0.5\n0.5\n0.5\n")
        result = runner.invoke(main, ["calibrate", "--pi", str(pi_path),
                                      "--out", str(tmp_path / "p.json")])
        assert result.exit_code == 2
        assert result.stderr.strip() == ("error: target inclusion probabilities "
                                         "must sum to n=2, got 1.5")
        assert not (tmp_path / "p.json").exists()


#: run in a fresh interpreter: the command line, a rejective simulation, the
#: normality diagnostic and calibration, then list the scipy modules loaded
RUN_PATH = """
import json, sys
from pathlib import Path
import svycdf.cli
from svycdf import designs as dsg, montecarlo as mc, population as pop

out = Path(sys.argv[1])
cfg = {"designs": ["REJ"], "cells": [{"N": 40, "n": 8}], "n_populations": 2,
       "n_samples": 4, "seed": 1}
(out / "config.json").write_text(json.dumps(cfg))
(out / "pi.txt").write_text("\\n".join(
    repr(float(x)) for x in dsg.first_order_pi(dsg.rejective([0.2, 0.4, 0.6, 0.8], 2))))
for args in (["simulate", "--config", str(out / "config.json"), "--out", str(out / "sim")],
             ["calibrate", "--pi", str(out / "pi.txt"), "--out", str(out / "p.json")]):
    svycdf.cli.main(args, standalone_mode=False)
sc = mc.Scenario(N=40, n=8, design="REJ", law=pop.SuperPopulationLaw.exponential(1.0),
                 alpha=0.5, beta=0.6, n_populations=40, n_samples=25, seed=3)
mc.normality_diagnostic(sc, "ht_mean")
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def _fresh_python(*args):
    """Run ``python *args`` in a fresh interpreter that imports this svycdf."""
    src = Path(svycdf.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("command", ["oracle", "calibrate"])
def test_memory_error_exits_3_as_in_simulate(runner, tmp_path, monkeypatch, command):
    # one failure contract for every command (simulate: TestSimulateFailures)
    def fail(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.00 GiB")
    monkeypatch.setattr(dsg, "calibrated_rejective", fail)
    monkeypatch.setattr(orc, "enumerate_design", fail)
    pi_path = tmp_path / "pi.txt"
    pi_path.write_text("0.5\n0.5\n0.5\n0.5\n")
    args = {"oracle": ["oracle", "--design", '{"kind":"srswor","N":6,"n":3}',
                       "--out", str(tmp_path / "out")],
            "calibrate": ["calibrate", "--pi", str(pi_path), "--out", str(tmp_path / "p.json")]}[command]
    result = runner.invoke(main, args)
    assert result.exit_code == 3, result.output
    assert result.stderr.strip().splitlines() == ["error: MemoryError: Unable to allocate 1.00 GiB"]
    assert not (tmp_path / "out").exists() and not (tmp_path / "p.json").exists()


def test_run_path_imports_no_scipy(tmp_path):
    # scipy is a test-only reference: nothing on the run path may load it
    done = _fresh_python("-c", RUN_PATH, str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []
    assert (tmp_path / "sim" / "coverage.csv").is_file()
    assert (tmp_path / "p.json").is_file()


def test_module_runs_as_a_script(tmp_path):
    # python -m svycdf.cli runs the command line; an N past numpy's largest
    # array is refused as a usage error before the output directory is made
    (tmp_path / "config.json").write_text(json.dumps(minimal_config(
        cells=[{"N": 2 ** 62, "n": 20}])))
    out = tmp_path / "out"
    done = _fresh_python("-m", "svycdf.cli", "simulate", "--config",
                         str(tmp_path / "config.json"), "--out", str(out))
    assert done.returncode == 2, done.stderr
    lines = done.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: N={2 ** 62} exceeds the bound")
    assert not out.exists()


def test_cli_import_defers_numpy_random():
    # numpy.random loads when the first stream is made, not at import: it
    # would add about 20 ms to every command's start-up
    done = _fresh_python("-c", "import sys, svycdf.cli; print('numpy.random' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
