#!/usr/bin/env python3
"""svycdf benchmark: run one workload (or all), check its outputs, print its metrics.

Usage, from the root of a checkout (nothing needs installing; ``src`` is
put on the import path):

    python3 bench/run.py --workload mc-desk --seed 20260808 --seconds 24 --trace 0

``--trace 0`` repeats the workload job with ``min(2, nproc)`` pool workers
for ``--seconds`` and reports the end-to-end metrics.  ``--trace 1`` instead
cycles an untraced 1-worker job, an untraced pool job and a traced 1-worker
job for ``--seconds`` and reports the per-layer metrics.  Before timing, set
up and check: time ``SETUP_REPEATS`` fresh-process imports of ``svycdf.cli``
plus the config load, run the job once with one worker, check its outputs
and, at the default seed, compare them with ``reference.json``.  Every timed
job must reproduce the 1-worker outputs byte for byte.

Human-readable metric lines (name, value, unit) and a JSON record of the
machine and the code go to stdout first; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
result, and the spans of traced runs, are written under ``.bench-out/``.
The exit code is 0 when a result was printed, whether or not it is correct.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import DESIGN_LABELS, LAYERS, Tracer, summarize

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT = ROOT / ".bench-out"

SETUP_REPEATS = 3
MIN_REPS = 3

SETUP_CODE = """\
import json, sys, time
start = time.perf_counter()
import svycdf.cli
with open(sys.argv[1], encoding="utf-8") as fh:
    json.load(fh)
print(time.perf_counter() - start)
"""


def pool_size() -> int:
    """Workers of the timed jobs: min(2, CPUs this process may run on)."""
    return min(2, len(os.sched_getaffinity(0)))


def fresh_setup_seconds(config: Path) -> float:
    """Import ``svycdf.cli`` and load ``config`` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(config)], env=env,
                          cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip())


def peak_rss_mb() -> float:
    """Larger of this process's and any waited-for child's peak RSS."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return "unknown"


def machine_and_code(seed: int, workers: int) -> dict:
    import numpy
    import scipy
    cpu_model = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        caches[f"L{_read(index / 'level')}{_read(index / 'type')[0].lower()}"] = \
            _read(index / "size")
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, env=dict(os.environ, GIT_DIR=str(ROOT / ".git")))
        commit = done.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model, "caches": caches,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_commit": commit, "src_sha256": src.hexdigest(),
        "workers": workers, "seed": seed,
    }


def layer_metrics(summary: dict, reps: int, cells: int, failures: dict) -> dict:
    """Per-layer metrics of the traced reps: ``name -> (value, unit)``.

    ``self_us`` is mean self time per call, ``self_s`` self seconds per job,
    ``calls`` calls per job; a function not called reads 0.
    """
    functions = summary["functions"]
    layers = summary["layers"]
    (_, root_s, root_self_s), = summary["roots"].values()

    def totals(name, tag=None):
        found = [cs for (fn, fn_tag), cs in functions.items()
                 if fn == name and tag in (None, fn_tag)]
        return sum(c for c, _ in found), sum(s for _, s in found)

    def per_call_us(name, tag=None):
        calls, self_s = totals(name, tag)
        return 1e6 * self_s / calls if calls else 0.0

    def calls(name):
        return totals(name)[0] / reps

    def self_s(name):
        return totals(name)[1] / reps

    m = {
        "estimation.self_us_per_cell": (1e6 * layers.get("estimation", 0.0) / reps / cells,
                                        "us/cell"),
        "estimation.cdf_builds_per_cell": (
            (calls("estimation.ht_ecdf") + calls("estimation.hajek_ecdf")) / cells,
            "calls/cell"),
    }
    for fn in ("estimation.ht_ecdf", "estimation.hajek_ecdf",
               "estimation.interpolated_weighted_quantile", "estimation.kde_density",
               "estimation.process_path", "asymptotics.plugin_poverty_variance",
               "asymptotics.wald_interval"):
        m[f"{fn}.self_us"] = (per_call_us(fn), "us")
    for label in DESIGN_LABELS.values():
        m[f"designs.draw.self_us.{label}"] = (per_call_us("designs.draw", label),
                                              "us")
    m["designs.design_constants.self_us"] = (
        per_call_us("designs.design_constants"), "us")
    for fn in ("asymptotics.limit_covariance_matrix", "designs.first_order_pi",
               "designs.calibrate_rejective_p", "designs.second_order_pi",
               "oracle.enumerate_design", "oracle.check_conditions",
               "oracle.divergence_from_rejective", "oracle.exact_sn2",
               "montecarlo.run_scenario", "montecarlo.process_covariance_check",
               "montecarlo.normality_diagnostic", "cli.simulate"):
        m[f"{fn}.self_s"] = (self_s(fn), "s")
    for fn in ("designs.second_order_pi", "streams.substream",
               "population.generate_population"):
        m[f"{fn}.calls"] = (calls(fn), "count")
    for fn in ("streams.substream", "population.generate_population"):
        m[f"{fn}.self_us"] = (per_call_us(fn), "us")
    m["montecarlo.cells"] = (cells, "count")
    for estimator in ("HT", "HJ"):
        m[f"montecarlo.failures.{estimator}"] = (failures.get(estimator, 0) / reps, "count")
    for layer in LAYERS:
        m[f"{layer}.share"] = (layers.get(layer, 0.0) / root_s, "ratio")
    m["bench.share"] = (root_self_s / root_s, "ratio")
    return m


def run_workload(workload, seed: int, seconds: float, trace: bool,
                 setup_repeats: int, reference: dict | None) -> dict:
    from workloads import DEFAULT_SEED

    out = OUT / workload.name
    out.mkdir(parents=True, exist_ok=True)
    config = out / "config.json"
    config.write_text(json.dumps(workload.config(seed), indent=2) + "\n", encoding="utf-8")
    setup = [fresh_setup_seconds(config) for _ in range(setup_repeats)]
    workers = pool_size()

    problems = []
    base = workload.run(config, 1, out / "w1")
    problems += workload.checks(config, base)
    if reference is None:
        problems.append("no reference outputs recorded for this workload")
    else:
        at_default = base
        if seed != DEFAULT_SEED:
            default_config = out / "default-config.json"
            default_config.write_text(json.dumps(workload.config(DEFAULT_SEED)),
                                      encoding="utf-8")
            at_default = workload.run(default_config, workers, out / "default")
        problems += workload.compare(at_default, reference)

    kinds = [("plain", workers)]
    if trace:
        kinds = [("plain", 1), ("plain", workers), ("traced", 1)]
    times = {kind: [] for kind in kinds}
    attempted = failed = 0
    traced_failures: dict = {}
    tracer = None
    if trace:
        tracer = Tracer()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or min(map(len, times.values())) < MIN_REPS:
        for mode, w in kinds:
            if mode == "traced":
                with tracer.install(), tracer.span(f"bench.{workload.name}") as span:
                    outcome = workload.run(config, w, out / "traced")
                times[(mode, w)].append(span[5] - span[4])
            else:
                start = time.perf_counter()
                outcome = workload.run(config, w, out / f"w{w}")
                times[(mode, w)].append(time.perf_counter() - start)
            if outcome.outputs != base.outputs:
                changed = sorted(k for k in base.outputs
                                 if outcome.outputs.get(k) != base.outputs[k])
                problems.append(f"{mode} run with {w} workers changed {changed}")
            attempted += workload.evaluations
            failed += sum(outcome.failures.values())
            if mode == "traced":
                for estimator, count in outcome.failures.items():
                    traced_failures[estimator] = traced_failures.get(estimator, 0) + count

    medians = {kind: statistics.median(t) for kind, t in times.items()}
    if trace:
        summary = summarize(tracer.spans)
        metrics = layer_metrics(summary, len(times[("traced", 1)]), workload.cells,
                                traced_failures)
        metrics["montecarlo.parallel_efficiency"] = (
            medians[("plain", 1)] / (workers * medians[("plain", workers)]), "ratio")
        metrics["cli.import_s"] = (statistics.median(setup), "s")
        metrics["trace.overhead"] = (medians[("traced", 1)] / medians[("plain", 1)], "ratio")
        tracer.write(OUT / f"{workload.name}-seed{seed}-spans.jsonl")
    else:
        run_s = medians[("plain", workers)]
        metrics = {"run_s": (run_s, "s"), "cells_per_s": (workload.cells / run_s, "1/s"),
                   "setup_s": (statistics.median(setup), "s"),
                   "peak_rss_mb": (peak_rss_mb(), "MB")}
    return {
        "workload": workload.name,
        "record": machine_and_code(seed, workers),
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "outputs_ok": int(not problems),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "job_seconds": {f"{mode}-{w}w": t for (mode, w), t in times.items()},
        "setup_seconds": setup,
    }


def report(result: dict) -> None:
    """Print one workload's metrics, one per line, and its machine record."""
    name = result["workload"]
    for metric, entry in result["metrics"].items():
        print(f"{name} {metric} {entry['value']:.6g} {entry['unit']}")
    print(f"{name} failed_share {result['failed_share']:.6g} ratio")
    print(f"{name} outputs_ok {result['outputs_ok']} bool")
    for problem in result["problems"]:
        print(f"{name} problem: {problem}")
    print(json.dumps({"workload": name, "record": result["record"]}, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", "mc-desk", "mc-rej", "exact-diag"])
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the acceptance seed 20260808)")
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny replication and one set-up sample, for the smoke check")
    args = parser.parse_args(argv)
    if not (SRC / "svycdf" / "cli.py").is_file():
        print(f"error: no svycdf sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    from workloads import DEFAULT_SEED, TINY, WORKLOADS

    seed = DEFAULT_SEED if args.seed is None else args.seed
    table = TINY if args.tiny else WORKLOADS
    references = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    names = list(table) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        key = f"{name}@tiny" if args.tiny else name
        result = run_workload(table[name], seed, args.seconds, bool(args.trace),
                              1 if args.tiny else SETUP_REPEATS, references.get(key))
        OUT.mkdir(parents=True, exist_ok=True)
        (OUT / f"{name}-seed{seed}-trace{args.trace}.json").write_text(
            json.dumps(result, indent=2) + "\n", encoding="utf-8")
        report(result)
        results.append(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
