"""Golden condition tables: the ``conditions.csv`` bytes of ``svycdf oracle``.

``golden_conditions.json`` holds the table text of each design below,
recorded with the earlier condition sweeps that built the full third- and
fourth-order tensors by ``einsum``.  The fixed-size designs must keep
their tables byte for byte.  On the Bernoulli and Poisson designs the
higher-order cross moments are exactly zero, so their rows print rounding
noise that depends on the summation order; those rows are checked against
zero instead, and every other row byte for byte.
"""

import csv
import io
import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from svycdf import designs as dsg
from svycdf import montecarlo as mc
from svycdf.cli import main

#: rows whose exact value is zero under independent inclusions
ZERO_ROWS = ("max_triple_correlation", "max_quad_correlation", "triple_ratio_sum",
             "quad_centered_sum_signed", "quad_centered_sum_absolute")
ZERO_TOL = 1e-13


def _split_targets(N: int, n: int, seed: int) -> np.ndarray:
    """Low/high inclusion-probability split in random order (the benchmark's design)."""
    base = n / N
    target = np.full(N, mc.PO_HIGH * base)
    target[: N // 2] = mc.PO_LOW * base
    return target[np.random.default_rng(seed).permutation(N)]


def _rejective(p, n: int) -> str:
    return json.dumps({"kind": "rejective", "p": np.asarray(p).tolist(), "n": n})


def _calibrated_split(seed: int) -> tuple[str, str]:
    target = _split_targets(14, 6, seed)
    return _rejective(dsg.calibrate_rejective_p(target, 6), 6), _rejective(target, 6)


#: name -> (design spec, rejective reference spec or None, independent inclusions)
DESIGNS = {
    "REJ-split-14-6-seed20260808": (*_calibrated_split(20260808), False),
    "REJ-split-14-6-seed7": (*_calibrated_split(7), False),
    "REJ-12-5": (_rejective(np.random.default_rng(12).uniform(0.2, 0.8, 12), 5), None, False),
    "SI-8-3": ('{"kind": "srswor", "N": 8, "n": 3}', None, False),
    "BE-10": ('{"kind": "bernoulli", "N": 10, "p": 0.3}', None, True),
    "PO-10": (json.dumps({"kind": "poisson", "pi": np.linspace(0.1, 0.9, 10).tolist()}),
              None, True),
}

GOLDEN_PATH = Path(__file__).parent / "golden_conditions.json"


def conditions_csv(name: str, out: Path) -> str:
    """Run ``svycdf oracle`` on one design and return its table text."""
    design, reference, _ = DESIGNS[name]
    args = ["oracle", "--design", design, "--out", str(out)]
    if reference is not None:
        args += ["--rejective-reference", reference]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    return (out / "conditions.csv").read_text(encoding="utf-8")


def _rows(text: str) -> dict:
    rows = list(csv.reader(io.StringIO(text)))
    return {row[0]: row for row in rows[1:]}


@pytest.mark.parametrize("name", sorted(DESIGNS))
def test_conditions_match_golden(name, tmp_path):
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))[name]
    found = conditions_csv(name, tmp_path)
    if not DESIGNS[name][2]:
        assert found == golden
        return
    got, want = _rows(found), _rows(golden)
    assert list(got) == list(want)
    for key in want:
        if key in ZERO_ROWS:
            assert got[key][2] == want[key][2]
            assert abs(float(got[key][1])) <= ZERO_TOL
            assert abs(float(got[key][3])) <= ZERO_TOL
        else:
            assert got[key] == want[key]
