"""Command line front end: simulation grids, enumeration reports, calibration.

Subcommands
-----------
``simulate``   run a scenario grid from a JSON config and write the three
               result tables (estimator bias, variance-estimator bias,
               coverage) plus a JSON run manifest.
``oracle``     enumerate a small design and write its condition report.
``conditions`` alias of ``oracle``.
``calibrate``  fit rejective working probabilities to target inclusion
               probabilities read from a file.

Exit codes, the same for every command: 0 success, 2 usage or input
validation (an input file that is not UTF-8 included), 3 runtime failure
(including an output path that cannot be written, a broken worker pool,
running out of memory and a size beyond the float range).
The result tables are byte-identical for a fixed config and seed; the
manifest additionally records wall-clock timings and is not.  A scenario's
``timings_seconds`` entry is its own time in this process: building its
design, plus waiting for and reducing its populations' results.  Scenarios
overlap in the worker pool, so an entry never counts another scenario's
populations, and the entries add up to at most the run's wall time.
"""

from __future__ import annotations

import contextlib
import csv
import json
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import click
import numpy as np

from . import __version__
from . import designs as dsg
from . import montecarlo as mc
from . import oracle as orc
from . import population as pop
from .errors import ParameterError, SvycdfError

_FMT = "%.6g"

#: what every command reports as one ``error:`` line, exit code 2 or 3
_FAILURES = (SvycdfError, BrokenProcessPool, MemoryError, OSError, OverflowError)


def _fail(exc: BaseException) -> None:
    message = str(exc)
    if not isinstance(exc, SvycdfError):
        message = ": ".join(filter(None, (type(exc).__name__, message)))
    click.echo(f"error: {message}".splitlines()[0], err=True)
    sys.exit(2 if isinstance(exc, ParameterError) else 3)


def _fmt(x) -> str:
    return "nan" if x is None else _FMT % x


@click.group()
def main():
    """Survey-sampling inference toolkit."""


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _law_from_config(raw: dict) -> pop.SuperPopulationLaw:
    if not isinstance(raw, dict):
        raise ParameterError(f"law must be a JSON object, got {raw!r}")
    kind = raw.get("kind")
    if kind == "exponential":
        return pop.SuperPopulationLaw.exponential(rate=_real(raw.get("rate", 1.0), "law.rate"))
    if kind == "uniform01":
        return pop.SuperPopulationLaw.uniform01()
    if kind == "discrete":
        return pop.SuperPopulationLaw.discrete(_reals(raw["points"], "law.points"),
                                               _reals(raw["masses"], "law.masses"))
    raise ParameterError(f"unknown law kind {kind!r} in config")


def _load_config(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except ValueError as exc:   # undecodable bytes or bad JSON
            raise ParameterError(f"config is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ParameterError("config must be a JSON object")
    return cfg


def _integral(value, name: str) -> int:
    """A count or seed from JSON: an int (never a bool), or a float equal to one."""
    if isinstance(value, bool) or not (isinstance(value, int) or (
            isinstance(value, float) and value.is_integer())):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _real(value, name: str) -> float:
    """A real parameter from JSON: an int or a float; never a bool or a string."""
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        with contextlib.suppress(OverflowError):    # an int beyond the float range
            return float(value)
    raise ParameterError(f"{name} must be a real number, got {value!r}")


def _reals(values, name: str) -> list[float]:
    """A vector of real parameters from JSON, each element as :func:`_real`."""
    return [_real(v, f"{name}[{i}]") for i, v in enumerate(values)]


def _cell_header(cell: dict) -> str:
    return f"N={cell['N']} n={cell['n']}"


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


@main.command()
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False), help="JSON scenario grid.")
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False),
              help="Output directory for tables and manifest.")
@click.option("--paper-scale", is_flag=True,
              help="Raise replication to 1000 populations x 1000 samples.")
@click.option("--workers", default=1, show_default=True,
              help="Parallel workers, at least 1; capped at the available CPUs.")
@click.option("--seed", default=None, type=int, help="Override the config seed.")
def simulate(config_path, out_dir, paper_scale, workers, seed):
    """Run the configured scenario grid and write the result tables."""
    written: list[Path] = []
    made: list[Path] = []
    try:
        cfg = _load_config(config_path)
        try:
            law = _law_from_config(cfg.get("law", {"kind": "exponential", "rate": 1.0}))
            designs = cfg.get("designs", ["SI", "BE", "PO"])
            if not (isinstance(designs, list) and designs
                    and len(set(designs)) == len(designs)):
                raise ParameterError(
                    f"designs must be a non-empty list of distinct labels, got {designs!r}")
            cells = [{key: _integral(c[key], f"cells[{i}].{key}") for key in ("N", "n")}
                     for i, c in enumerate(cfg.get("cells", []))]
            n_pops = _integral(cfg.get("n_populations", 200), "n_populations")
            n_samp = _integral(cfg.get("n_samples", 200), "n_samples")
            if paper_scale:
                n_pops = n_samp = 1000
            run_seed = _integral(cfg["seed"], "seed") if seed is None else seed
            alpha = _real(cfg.get("alpha", 0.5), "alpha")
            beta = _real(cfg.get("beta", 0.6), "beta")
        except ParameterError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ParameterError(f"bad config field: {exc!r}") from exc
        if not cells:
            raise ParameterError("config must list at least one (N, n) cell")
        workers = mc.pool_size(workers)
        scenarios = {
            (design, ci): mc.Scenario(N=cell["N"], n=cell["n"], design=design, law=law,
                                      alpha=alpha, beta=beta, n_populations=n_pops,
                                      n_samples=n_samp, seed=run_seed)
            for design in designs for ci, cell in enumerate(cells)}
        # an output path that cannot be made fails before the Monte Carlo work
        out = Path(out_dir)
        made = [d for d in (out, *out.parents) if not d.exists()]
        out.mkdir(parents=True, exist_ok=True)
        reports = dict(zip(scenarios, mc.run_scenarios(list(scenarios.values()), workers)))

        by_center = [(e, c) for e in mc.ESTIMATORS for c in mc.CENTERS]
        # (file name, report field, key columns, row keys); a row per design and key
        tables = [("rb_estimators.csv", "rb_phi", ["estimator", "center"], by_center),
                  ("rb_variance.csv", "rb_av", ["estimator"], mc.ESTIMATORS),
                  ("coverage.csv", "coverage", ["estimator", "center"], by_center)]
        written.extend(out / name for name, *_ in tables)
        for name, field, key_cols, keys in tables:
            rows = [[design, *(key if isinstance(key, tuple) else [key])]
                    + [_fmt(getattr(reports[design, ci], field)[key])
                       for ci in range(len(cells))]
                    for design in designs for key in keys]
            _write_csv(out / name, ["design", *key_cols, *map(_cell_header, cells)], rows)

        manifest = {
            "seed": run_seed,
            "alpha": alpha,
            "beta": beta,
            "designs": designs,
            "cells": cells,
            "n_populations": n_pops,
            "n_samples": n_samp,
            "workers": workers,
            "versions": {"svycdf": __version__, "numpy": np.__version__,
                         "python": sys.version.split()[0]},
            "timings_seconds": {f"{d}|{_cell_header(cells[ci])}": round(r.timing_seconds, 3)
                                for (d, ci), r in reports.items()},
            "failures": {f"{d}|{_cell_header(cells[ci])}": r.n_failures
                         for (d, ci), r in reports.items()},
        }
        manifest_path = out / "manifest.json"
        written.append(manifest_path)
        manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                                 encoding="utf-8")
        click.echo(f"wrote {len(written)} files to {out}")
    except _FAILURES as exc:
        for path in written:
            Path(path).unlink(missing_ok=True)
        for directory in made:          # the deepest first
            with contextlib.suppress(OSError):
                directory.rmdir()
        _fail(exc)


# ---------------------------------------------------------------------------
# oracle / conditions
# ---------------------------------------------------------------------------

def _design_from_spec(raw: str, check) -> dsg.Design:
    """The design of a JSON spec.  ``check(kind, N)`` runs before the
    factory, N the spec's ``N`` field or the length of its probability list,
    so no factory computes with a spec ``check`` refuses."""

    def units(values):
        check(kind, values if isinstance(values, int) else len(values))
        return values

    try:
        spec = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParameterError(f"design spec is not valid JSON: {exc}") from exc
    if not isinstance(spec, dict):
        raise ParameterError("design spec must be a JSON object")
    kind = spec.get("kind")
    try:
        if kind == "srswor":
            return dsg.srswor(units(_integral(spec["N"], "N")), _integral(spec["n"], "n"))
        if kind == "bernoulli":
            return dsg.bernoulli(units(_integral(spec["N"], "N")), _real(spec["p"], "p"))
        if kind == "poisson":
            return dsg.poisson(units(_reals(spec["pi"], "pi")))
        if kind == "rejective":
            return dsg.rejective(units(_reals(spec["p"], "p")), _integral(spec["n"], "n"))
    except ParameterError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ParameterError(f"bad design field: {exc!r}") from exc
    raise ParameterError(f"unknown design kind {kind!r}")


@main.command(name="oracle")
@click.option("--design", "design_spec", required=True,
              help='Design JSON, e.g. {"kind":"srswor","N":6,"n":3}.')
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@click.option("--rejective-reference", default=None,
              help='Optional rejective design JSON for a divergence row.')
def oracle_cmd(design_spec, out_dir, rejective_reference):
    """Enumerate a small design and write its condition report."""
    try:
        design = _design_from_spec(design_spec, lambda kind, N: orc.check_condition_units(N))
        ref = None
        if rejective_reference is not None:
            def same_units(kind, N):
                if kind != "rejective" or N != design.N:
                    raise ParameterError("the reference design must be rejective, on the same N")
            ref = _design_from_spec(rejective_reference, same_units)
        enumerated = orc.enumerate_design(design)
        report = orc.check_conditions(enumerated)
        rows = [[name, _fmt(e.statistic), e.bound_form, _fmt(e.implied_constant)]
                for name, e in report.items()]
        if ref is not None:
            div = orc.divergence_from_rejective(enumerated, orc.enumerate_design(ref))
            rows.append(["divergence_from_reference", _fmt(div),
                         "sum P log(P/R)", _fmt(div)])
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(out / "conditions.csv",
                   ["condition", "statistic", "bound_form", "implied_constant"], rows)
        click.echo(f"wrote {out / 'conditions.csv'}")
    except _FAILURES as exc:
        _fail(exc)


main.add_command(oracle_cmd, name="conditions")


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------

@main.command()
@click.option("--pi", "pi_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Text file of target inclusion probabilities, one per line.")
@click.option("--n", "size", required=True, type=int, help="Fixed sample size.")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
def calibrate(pi_path, size, out_path):
    """Calibrate rejective working probabilities to target inclusion
    probabilities; writes JSON with the p vector and achieved residual."""
    try:
        try:
            text = Path(pi_path).read_text(encoding="utf-8")
            target = np.array([float(tok) for tok in text.replace(",", " ").split()])
        except ValueError as exc:   # undecodable bytes or a bad token
            raise ParameterError(f"could not parse probabilities: {exc}") from exc
        design = dsg.calibrated_rejective(target, size)
        residual = float(np.max(np.abs(dsg.first_order_pi(design) - target)))
        payload = {"p": [float(x) for x in design.working_p], "n": size,
                   "max_residual": residual}
        Path(out_path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        click.echo(f"wrote {out_path} (max residual {residual:.3e})")
    except _FAILURES as exc:
        _fail(exc)


if __name__ == "__main__":
    main()
