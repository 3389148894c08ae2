"""The benchmark workloads: the job each one runs and the checks on its outputs.

Why each workload exists, and which layer metric should move which
end-to-end metric on which workload, is written down in ``README.md``
next to this file.

A workload turns a seed into a JSON config (its only input), runs one
job on that config with a given number of pool workers, and returns an
``Outcome`` holding every output byte for byte.  The outputs must not
depend on the worker count or on tracing, and at the default seed they
must match ``reference.json``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from svycdf import cli
from svycdf import designs as dsg
from svycdf import montecarlo as mc
from svycdf import oracle as orc
from svycdf import population as pop

DEFAULT_SEED = 20260808
LAW = {"kind": "exponential", "rate": 1.0}
ALPHA, BETA = 0.5, 0.6
TABLES = ("rb_estimators.csv", "rb_variance.csv", "coverage.csv")

#: tolerances of the exact-diag checks; a later exact fast path must still pass them
REFERENCE_REL_TOL = 1e-6       # diagnostic statistics against reference.json
REFERENCE_ABS_TOL = 1e-12
CALIBRATION_TOL = 1e-10        # max |pi(p) - target|, the default calibration tolerance
SYMMETRY_TOL = 1e-12           # max |pi_ij - pi_ji| and max |pi_ii - pi_i|
ROW_SUM_TOL = 1e-9             # max |sum_{j != i} pi_ij - (n - 1) pi_i|
ENUMERATION_TOL = 1e-12        # DP against enumeration, first and second order


class JobError(RuntimeError):
    """A workload job did not complete."""


@dataclass(frozen=True)
class Outcome:
    outputs: dict          # output name -> bytes
    failures: dict         # estimator -> failed evaluations


def _run_cli(args: list[str]) -> None:
    """Run an ``svycdf`` subcommand in this process; its echo goes to stderr."""
    try:
        with contextlib.redirect_stdout(sys.stderr):
            cli.main.main(args=args, standalone_mode=False)
    except SystemExit as exc:
        raise JobError(f"svycdf {args[0]} exited with code {exc.code}") from exc


def _split_targets(N: int, n: int, seed: int) -> np.ndarray:
    """The harness's low/high inclusion-probability split, randomly ordered."""
    base = n / N
    target = np.full(N, mc.PO_HIGH * base)
    target[: N // 2] = mc.PO_LOW * base
    return target[np.random.default_rng(seed).permutation(N)]


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REFERENCE_REL_TOL, abs_tol=REFERENCE_ABS_TOL)


@dataclass(frozen=True)
class Simulate:
    """``svycdf simulate`` on a design x cell grid."""

    name: str
    designs: tuple
    grid: tuple               # ((N, n), ...)
    n_populations: int
    n_samples: int

    @property
    def cells(self) -> int:
        return len(self.designs) * len(self.grid) * self.n_populations * self.n_samples

    @property
    def evaluations(self) -> int:
        return 2 * self.cells          # one HT and one HJ estimate per cell

    def config(self, seed: int) -> dict:
        return {"law": LAW, "alpha": ALPHA, "beta": BETA, "designs": list(self.designs),
                "cells": [{"N": N, "n": n} for N, n in self.grid],
                "n_populations": self.n_populations, "n_samples": self.n_samples,
                "seed": seed}

    def run(self, config: Path, workers: int, out: Path) -> Outcome:
        _run_cli(["simulate", "--config", str(config), "--out", str(out),
                  "--workers", str(workers)])
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        failures = {e: sum(f[e] for f in manifest["failures"].values())
                    for e in mc.ESTIMATORS}
        return Outcome({t: (out / t).read_bytes() for t in TABLES}, failures)

    def checks(self, config: Path, outcome: Outcome) -> list[str]:
        """Every table has one row per design x estimator (x center), all finite."""
        problems = []
        for table in TABLES:
            rows = list(csv.reader(io.StringIO(outcome.outputs[table].decode("utf-8"))))
            per_design = 2 if table == "rb_variance.csv" else 4
            if len(rows) != 1 + per_design * len(self.designs):
                problems.append(f"{table}: {len(rows) - 1} rows")
            width = len(rows[0]) - len(self.grid)
            if any(not math.isfinite(float(x)) for row in rows[1:] for x in row[width:]):
                problems.append(f"{table}: non-finite entry")
        return problems

    def reference(self, outcome: Outcome) -> dict:
        return {t: hashlib.sha256(outcome.outputs[t]).hexdigest() for t in TABLES}

    def compare(self, outcome: Outcome, reference: dict) -> list[str]:
        found = self.reference(outcome)
        return [f"{t}: sha256 {found[t]} != {reference[t]}" for t in TABLES
                if found[t] != reference[t]]


@dataclass(frozen=True)
class ExactDiag:
    """Exact-design diagnostics: no quantile, KDE or plug-in variance.

    Three jobs: the normality diagnostic of the HT mean on a rejective
    design (one O(N^2 n) ``second_order_pi`` per population), the process
    covariance check of ``HJ_vs_F`` on a 5-point quantile grid on a Poisson
    design, and the ``svycdf oracle`` condition report with a divergence row
    for a calibrated rejective design against the uncalibrated one.
    """

    name: str
    normality: tuple          # (N, n, n_populations, n_samples), rejective design
    process: tuple            # (N, n, n_populations, n_samples), Poisson design
    oracle: tuple             # (N, n), calibrated rejective design
    levels: tuple = (0.1, 0.3, 0.5, 0.7, 0.9)

    @property
    def cells(self) -> int:
        return (self.normality[2] * self.normality[3]
                + self.process[2] * self.process[3])

    @property
    def evaluations(self) -> int:
        return self.cells              # one statistic or process path per draw

    def config(self, seed: int) -> dict:
        def job(design, sizes):
            N, n, P, S = sizes
            return {"design": design, "N": N, "n": n, "n_populations": P, "n_samples": S}
        return {"law": LAW, "alpha": ALPHA, "beta": BETA, "seed": seed,
                "normality": dict(job("REJ", self.normality), statistic="ht_mean"),
                "process": dict(job("PO", self.process), form="HJ_vs_F",
                                levels=list(self.levels)),
                "oracle": {"N": self.oracle[0], "n": self.oracle[1]}}

    @staticmethod
    def _scenario(cfg: dict, job: dict, law) -> mc.Scenario:
        return mc.Scenario(N=job["N"], n=job["n"], design=job["design"], law=law,
                           alpha=cfg["alpha"], beta=cfg["beta"],
                           n_populations=job["n_populations"],
                           n_samples=job["n_samples"], seed=cfg["seed"])

    def run(self, config: Path, workers: int, out: Path) -> Outcome:
        cfg = json.loads(config.read_text(encoding="utf-8"))
        law = pop.SuperPopulationLaw.exponential(cfg["law"]["rate"])
        job = cfg["normality"]
        normality = mc.normality_diagnostic(self._scenario(cfg, job, law), job["statistic"],
                                            workers=workers)
        job = cfg["process"]
        grid = np.array([pop.true_quantile(law, a) for a in job["levels"]])
        process = mc.process_covariance_check(self._scenario(cfg, job, law), grid,
                                              job["form"], workers=workers)
        N, n = cfg["oracle"]["N"], cfg["oracle"]["n"]
        target = _split_targets(N, n, cfg["seed"])
        p = dsg.calibrate_rejective_p(target, n)
        _run_cli(["oracle", "--out", str(out),
                  "--design", json.dumps({"kind": "rejective", "p": p.tolist(), "n": n}),
                  "--rejective-reference",
                  json.dumps({"kind": "rejective", "p": target.tolist(), "n": n})])
        outputs = {
            "normality": json.dumps(normality, sort_keys=True).encode(),
            "process": json.dumps({"max_abs_error": process.max_abs_error,
                                   "empirical": process.empirical.tolist(),
                                   "limit": process.limit.tolist()}).encode(),
            "oracle_p": json.dumps({"p": p.tolist(), "target": target.tolist()}).encode(),
            "conditions.csv": (out / "conditions.csv").read_bytes(),
        }
        return Outcome(outputs, {})

    def checks(self, config: Path, outcome: Outcome) -> list[str]:
        """Exact identities of the designs layer on this workload's designs."""
        cfg = json.loads(config.read_text(encoding="utf-8"))
        problems = []
        job = cfg["normality"]
        N, n = job["N"], job["n"]
        target = _split_targets(N, n, cfg["seed"])
        design = dsg.rejective(dsg.calibrate_rejective_p(target, n), n)
        pi = dsg.first_order_pi(design)
        residual = float(np.max(np.abs(pi - target)))
        if not residual <= CALIBRATION_TOL:
            problems.append(f"calibration residual {residual:.3e} at N={N}")
        pi2 = dsg.second_order_pi(design)
        asymmetry = float(np.max(np.abs(pi2 - pi2.T)))
        diagonal = float(np.max(np.abs(np.diag(pi2) - pi)))
        row_sums = float(np.max(np.abs(pi2.sum(axis=1) - np.diag(pi2) - (n - 1) * pi)))
        if not max(asymmetry, diagonal) <= SYMMETRY_TOL:
            problems.append(f"second_order_pi asymmetry {asymmetry:.3e}, "
                            f"diagonal error {diagonal:.3e}")
        if not row_sums <= ROW_SUM_TOL:
            problems.append(f"second_order_pi row sums off by {row_sums:.3e}")

        saved = json.loads(outcome.outputs["oracle_p"])
        p, target = np.array(saved["p"]), np.array(saved["target"])
        n = cfg["oracle"]["n"]
        design = dsg.rejective(p, n)
        residual = float(np.max(np.abs(dsg.first_order_pi(design) - target)))
        if not residual <= CALIBRATION_TOL:
            problems.append(f"calibration residual {residual:.3e} at N={p.size}")
        enumerated = orc.enumerate_design(design)
        first = float(np.max(np.abs(enumerated.first_order() - dsg.first_order_pi(design))))
        second = float(np.max(np.abs(enumerated.second_order() - dsg.second_order_pi(design))))
        if not max(first, second) <= ENUMERATION_TOL:
            problems.append(f"DP against enumeration: first order {first:.3e}, "
                            f"second order {second:.3e}")
        return problems

    def reference(self, outcome: Outcome) -> dict:
        rows = csv.reader(io.StringIO(outcome.outputs["conditions.csv"].decode("utf-8")))
        next(rows)
        process = json.loads(outcome.outputs["process"])
        return {"normality": json.loads(outcome.outputs["normality"]),
                "process_max_abs_error": process["max_abs_error"],
                "process_empirical": process["empirical"],
                "conditions": {row[0]: float(row[1]) for row in rows}}

    def compare(self, outcome: Outcome, reference: dict) -> list[str]:
        found = self.reference(outcome)
        pairs = [(f"normality.{k}", found["normality"].get(k, math.nan), v)
                 for k, v in reference["normality"].items()]
        pairs.append(("process.max_abs_error", found["process_max_abs_error"],
                      reference["process_max_abs_error"]))
        pairs += [(f"process.empirical[{i}][{j}]", found["process_empirical"][i][j], v)
                  for i, row in enumerate(reference["process_empirical"])
                  for j, v in enumerate(row)]
        pairs += [(f"conditions.{k}", found["conditions"].get(k, math.nan), v)
                  for k, v in reference["conditions"].items()]
        problems = [f"{name}: {got!r} != reference {want!r}"
                    for name, got, want in pairs if not _close(got, want)]
        extra = set(found["conditions"]) - set(reference["conditions"])
        if extra:
            problems.append(f"conditions rows not in the reference: {sorted(extra)}")
        return problems


#: full-size workloads, run by the benchmark
WORKLOADS = {
    "mc-desk": Simulate("mc-desk", ("SI", "BE", "PO"), ((10000, 500), (1000, 100)),
                        n_populations=8, n_samples=40),
    "mc-rej": Simulate("mc-rej", ("REJ",), ((10000, 500),), n_populations=4, n_samples=20),
    "exact-diag": ExactDiag("exact-diag", normality=(300, 30, 2, 500),
                            process=(2000, 200, 4, 1500), oracle=(14, 6)),
}

#: the same jobs at tiny replication, for the smoke check of the benchmark itself
TINY = {
    "mc-desk": Simulate("mc-desk", ("SI", "BE", "PO"), ((500, 50), (200, 20)),
                        n_populations=2, n_samples=5),
    "mc-rej": Simulate("mc-rej", ("REJ",), ((200, 20),), n_populations=2, n_samples=5),
    "exact-diag": ExactDiag("exact-diag", normality=(40, 8, 2, 500),
                            process=(200, 20, 2, 20), oracle=(8, 3)),
}
