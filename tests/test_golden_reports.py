"""Golden Monte Carlo reports: every field of ``MonteCarloReport``, bit for bit.

``golden_reports.json`` holds ``float.hex`` of every report field of the
scenarios below.  The reports must not change by a single bit, including
the fields no table shows (``rb_phi_se``, ``rb_av_se``, ``mc_variance``).
A declared change of the reports is recorded again with

    PYTHONPATH=src python tests/test_golden_reports.py

which rewrites ``golden_reports.json`` from the current code and prints
each field that moved, with its old and new hex and its relative change.
"""

import json
from pathlib import Path

import pytest

from svycdf import montecarlo as mc
from svycdf import population as pop

EXP1 = pop.SuperPopulationLaw.exponential(1.0)
#: twelve atoms: samples have ties and the variance reference is undefined
DISCRETE12 = pop.SuperPopulationLaw.discrete([float(k) for k in range(1, 13)],
                                             [1 / 12] * 12)
POINT_MASS = pop.SuperPopulationLaw.discrete([5.0], [1.0])


def _scenario(design, N, n, law=EXP1, n_populations=4, n_samples=8, seed=7, beta=0.6):
    return mc.Scenario(N=N, n=n, design=design, law=law, alpha=0.5, beta=beta,
                       n_populations=n_populations, n_samples=n_samples, seed=seed)


SCENARIOS = {
    "SI-exp": _scenario("SI", 200, 40),
    "BE-exp": _scenario("BE", 200, 40),
    "PO-exp": _scenario("PO", 200, 40),
    "REJ-exp": _scenario("REJ", 120, 30),
    "PO-uniform": _scenario("PO", 150, 30, law=pop.SuperPopulationLaw.uniform01()),
    "SI-discrete": _scenario("SI", 120, 30, law=DISCRETE12),
    "BE-discrete": _scenario("BE", 120, 30, law=DISCRETE12),
    "PO-discrete": _scenario("PO", 200, 40, law=DISCRETE12),
    "REJ-discrete": _scenario("REJ", 120, 30, law=DISCRETE12),
    # failures inside the budget: HT fails in 3 and HJ in 1 of 300 cells
    "BE-failures": _scenario("BE", 100, 8, n_populations=5, n_samples=60, seed=3),
    # zero targets with zero estimates, zero-width intervals
    "SI-point-mass": _scenario("SI", 40, 8, law=POINT_MASS, beta=0.9),
    # one population: no cluster standard error
    "PO-one-population": _scenario("PO", 200, 40, n_populations=1),
}

GOLDEN = json.loads((Path(__file__).parent / "golden_reports.json").read_text())


def _hex(value):
    return float(value).hex()


def report_hex(rep: mc.MonteCarloReport) -> dict:
    """Every report field except the timing, as ``float.hex`` strings."""
    out = {"n_cells": _hex(rep.n_cells)}
    for field in ("rb_phi", "rb_phi_se", "coverage"):
        out[field] = {f"{e}|{c}": _hex(getattr(rep, field)[(e, c)])
                      for e in mc.ESTIMATORS for c in mc.CENTERS}
    for field in ("rb_av", "rb_av_se", "mc_variance", "n_failures"):
        out[field] = {e: _hex(getattr(rep, field)[e]) for e in mc.ESTIMATORS}
    return out


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_report_matches_golden(name):
    rep = mc.run_scenario(SCENARIOS[name])
    assert report_hex(rep) == GOLDEN[name]


def test_report_fields_are_plain_numbers():
    rep = mc.run_scenario(SCENARIOS["BE-failures"])
    assert type(rep.n_cells) is int
    assert all(type(v) is int for v in rep.n_failures.values())
    for field in ("rb_phi", "rb_phi_se", "coverage", "rb_av", "rb_av_se", "mc_variance",
                  "normality"):
        assert all(type(v) is float for v in getattr(rep, field).values())


def _leaves(fields: dict):
    """``(field, value)`` pairs of one report's hex fields, flattened."""
    for field, value in fields.items():
        if isinstance(value, dict):
            yield from ((f"{field}[{key}]", v) for key, v in value.items())
        else:
            yield field, value


def record() -> None:
    """Rewrite ``golden_reports.json`` from the current code; print every
    field that moved as ``scenario field old new relative-change``."""
    path = Path(__file__).parent / "golden_reports.json"
    reports = {name: report_hex(mc.run_scenario(sc)) for name, sc in sorted(SCENARIOS.items())}
    for name, fields in reports.items():
        old = dict(_leaves(GOLDEN.get(name, {})))
        for field, new in _leaves(fields):
            if old.get(field) != new:
                was = float.fromhex(old[field]) if field in old else float("nan")
                now = float.fromhex(new)
                rel = (now - was) / abs(was) if was else now - was
                print(f"{name} {field} {old.get(field)} {new} {rel:.2e}")
    path.write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()
