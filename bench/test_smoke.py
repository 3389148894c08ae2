"""Smoke check of the benchmark itself, at tiny replication.

Run with ``python3 -m pytest -q bench/test_smoke.py``; it is not part of
the Tier-1 suite under ``tests/``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    done = _bench("--workload", workload, "--seed", "20260808", "--seconds", "0.1",
                  "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, lines
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == \
        {name: entry["unit"] for name, entry in result["metrics"].items()}
    for m in expected:
        assert f"{workload} {m['name']} " in done.stdout
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
    assert f"{workload} failed_share 0 ratio" in lines
    assert f"{workload} outputs_ok 1 bool" in lines
    if trace:
        shares = [e["value"] for name, e in result["metrics"].items()
                  if name.endswith(".share")]
        assert sum(shares) == pytest.approx(1.0, abs=1e-6)
        assert result["metrics"]["montecarlo.cells"]["value"] >= 1
    else:
        assert all(e["value"] > 0 for e in result["metrics"].values())
    record = json.loads(lines[-2])["record"]
    assert record["workers"] == min(2, len(os.sched_getaffinity(0)))
    assert record["seed"] == 20260808


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = _bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
