"""Replicated-population, replicated-sample Monte Carlo experiments.

A scenario draws ``n_populations`` populations from a super-population
law and, for each, ``n_samples`` samples from one of four designs (SI:
simple random sampling without replacement, BE: Bernoulli, PO: Poisson
with a low/high split of inclusion probabilities over a randomly ordered
population, REJ: size-n conditional Poisson calibrated to the PO
probabilities).  It reports percent relative bias of the poverty-rate
estimators against the population and model parameters, relative bias of
their plug-in variance estimators against the closed-form asymptotic
variance, and coverage of 95% Wald intervals.

A population's draws come in batches of :func:`designs.batch_rows`
samples, and the poverty kernel evaluates each batch in one call.  Each
population reduces its cells to one (9, 2) array of sums, one column
per estimator (HT, HJ): relative errors and covering intervals against
each center, defined cells, variance-estimator relative errors and their
count, and the sums of the estimates and of their squares.  The report is
computed from the stack of these arrays.

Every (population, sample) cell derives its random stream from the
scenario seed and its own index, and every sum adds in index order (cells
in sample order, then populations), so reports are bitwise reproducible
for any worker count.
"""

from __future__ import annotations

import logging
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import Callable, Iterator, Literal

import numpy as np
from scipy import stats as sps

from . import asymptotics as asy
from . import designs as dsg
from . import estimation as est
from . import oracle as orc
from . import population as pop
from .errors import (
    DiagnosticError,
    EstimationError,
    ParameterError,
    ScenarioError,
)
from .streams import child_seed, substream

logger = logging.getLogger(__name__)

DesignLabel = Literal["SI", "BE", "PO", "REJ"]
ESTIMATORS = ("HT", "HJ")
CENTERS = ("FN", "F")   # population parameter vs model parameter

#: fraction of failed cells (per estimator) tolerated before the scenario errors
FAILURE_BUDGET = 0.01

#: inclusion probabilities of the unequal-probability split, as multiples of n/N
PO_LOW, PO_HIGH = 0.4, 1.6


@dataclass(frozen=True)
class Scenario:
    """One simulation cell: population/sample sizes, design, law, targets."""

    N: int
    n: int
    design: DesignLabel
    law: pop.SuperPopulationLaw
    alpha: float
    beta: float
    n_populations: int
    n_samples: int
    seed: int

    def __post_init__(self):
        if not 1 <= self.n <= self.N:
            raise ScenarioError(f"need 1 <= n <= N, got n={self.n}, N={self.N}")
        if self.n_populations < 1 or self.n_samples < 1:
            raise ScenarioError("replication counts must be at least 1")
        if self.design not in ("SI", "BE", "PO", "REJ"):
            raise ScenarioError(f"unknown design label {self.design!r}")
        if self.design in ("PO", "REJ"):
            # the split's high probability; a rejective design needs it below 1
            high = PO_HIGH * (self.n / self.N)
            if high > 1.0 or (self.design == "REJ" and high == 1.0):
                bound = "<=" if self.design == "PO" else "<"
                raise ScenarioError(
                    f"{self.design} needs {PO_HIGH}*n/N {bound} 1, got {high:.3g}")


@dataclass(eq=False)
class MonteCarloReport:
    """Aggregated scenario results; percentages throughout."""

    scenario: Scenario
    rb_phi: dict            # (estimator, center) -> percent relative bias
    rb_phi_se: dict         # same keys -> cluster (per-population) MC standard error
    rb_av: dict             # estimator -> percent relative bias of the variance estimator
    rb_av_se: dict
    coverage: dict          # (estimator, center) -> percent coverage of 95% intervals
    mc_variance: dict       # estimator -> n * Var(phi_hat) pooled over all cells
    n_cells: int
    n_failures: dict        # estimator -> failed cells
    timing_seconds: float
    process_cov_error: float | None = None


# ---------------------------------------------------------------------------
# Design construction
# ---------------------------------------------------------------------------

def _split_probabilities(N: int, n: int) -> np.ndarray:
    """Unpermuted low/high inclusion probabilities summing to n."""
    base = n / N
    pi = np.full(N, PO_HIGH * base)
    pi[: N // 2] = PO_LOW * base
    if N % 2:
        # odd N: adjust one unit so the expected size stays exactly n
        pi[N // 2] = n - PO_LOW * base * (N // 2) - PO_HIGH * base * (N - N // 2 - 1)
    return pi


def _scenario_design(sc: Scenario) -> dsg.Design:
    """The scenario's unpermuted design.  A REJ scenario is calibrated here,
    and the calibrated design carries the inclusion probabilities of the
    final calibration step."""
    if sc.design == "SI":
        return dsg.srswor(sc.N, sc.n)
    if sc.design == "BE":
        return dsg.bernoulli(sc.N, sc.n / sc.N)
    target = _split_probabilities(sc.N, sc.n)
    if sc.design == "PO":
        return dsg.poisson(target)
    return dsg.calibrated_rejective(target, sc.n)


def _population_design(sc: Scenario, pop_index: int, design: dsg.Design) -> dsg.Design:
    """Design for one population; PO/REJ randomly reorder the units of the
    scenario's unpermuted ``design``."""
    if sc.design in ("SI", "BE"):
        return design
    perm = substream(sc.seed, pop_index, 1).permutation(sc.N)
    if sc.design == "PO":
        return dsg.poisson(design.pi[perm])
    return dsg.rejective(design.working_p[perm], sc.n)


# ---------------------------------------------------------------------------
# Per-population sums
# ---------------------------------------------------------------------------

#: rows of a population's array of sums; its columns are the ESTIMATORS
_REL = 0               # relative errors against each center: rows 0, 1
_COVER = 2             # intervals covering each center: rows 2, 3
_OK = 4                # cells where the estimator is defined
_AV_REL, _AV_COUNT = 5, 6  # relative errors of the variance estimator, their count
_PHI, _PHI_SQ = 7, 8   # the estimates and their squares


def _ordered_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the first axis, term by term in index order from 0.0 (an
    ``np.sum`` of more than eight terms adds pairwise)."""
    return np.add.accumulate(np.concatenate([np.zeros((1,) + x.shape[1:]), x]))[-1]


def _relative_errors(values: np.ndarray, target, mask: np.ndarray) -> np.ndarray:
    """(value - target) / target where ``mask``, else 0; 0 where both are 0."""
    if np.any(mask & (target == 0.0) & (values != 0.0)):
        raise ScenarioError("relative bias undefined: zero target with nonzero estimates")
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(mask & (target != 0.0), (values - target) / target, 0.0)


def _population_batches(sc: Scenario, pop_index: int, design: dsg.Design, y) -> Iterator:
    """The ``n_samples`` draws of one population, in sample order, one
    batch of :func:`designs.batch_rows` draws at a time.

    Sample j uses the stream ``(seed, pop_index, 2, j)``; no more than one
    batch is held at once.
    """
    rows = dsg.batch_rows(design)
    for start in range(0, sc.n_samples, rows):
        rngs = [substream(sc.seed, pop_index, 2, j)
                for j in range(start, min(start + rows, sc.n_samples))]
        yield dsg.draw_batch(design, rngs, y=y)


class _PopulationTask:
    """Picklable pool task: for each population index, build the population
    and its design from the scenario design, and reduce its batches of
    draws with ``reduce(population, design, batches)``."""

    def __init__(self, sc: Scenario, design: dsg.Design, reduce: Callable):
        self.sc, self.design, self.reduce = sc, design, reduce

    def __call__(self, indices) -> list:
        sc = self.sc
        out = []
        for i in indices:
            population = pop.generate_population(sc.law, sc.N, child_seed(sc.seed, i, 0))
            design = _population_design(sc, i, self.design)
            out.append(self.reduce(population, design,
                                   _population_batches(sc, i, design, population.y)))
        return out


def _population_sums(sc: Scenario, phi_f: float, av_ref: np.ndarray, population, design,
                     batches) -> np.ndarray:
    """One population's (9, 2) array of sums over its cells, added in
    sample order; ``av_ref`` is the asymptotic variance of each estimator."""
    fn = est.WeightedStepFunction.from_weighted_points(
        population.y, np.full(sc.N, 1.0 / sc.N), total_mass=1.0)
    centers = np.array([est.poverty_rate(fn, sc.alpha, sc.beta), phi_f])[:, None, None]
    constants = dsg.design_constants(design)
    phi = np.zeros((sc.n_samples, len(ESTIMATORS)))
    av = np.zeros_like(phi)
    ok = np.ones(phi.shape, dtype=bool)
    start = 0
    for batch in batches:
        stop = start + len(batch)
        phi[start:stop], av[start:stop], errors = asy.poverty_rate_estimates(
            batch, sc.N, constants, sc.alpha, sc.beta)
        for j, k in errors:
            ok[start + j, k] = False
        start = stop
    if sc.design == "SI" and np.any(ok.all(axis=1) & (phi[:, 0] != phi[:, 1])):
        raise ScenarioError("SI estimators must coincide exactly; internal inconsistency")
    rel = _relative_errors(phi, centers, ok)
    av_ok = ok & np.isfinite(av_ref)
    av_rel = _relative_errors(av, av_ref, av_ok)
    lo, hi = asy.wald_interval(phi, np.maximum(av, 0.0), sc.n)
    cover = ok & (lo <= centers) & (centers <= hi)
    # failed cells hold phi = 0, so they add 0.0 to the sums of the estimates
    terms = [rel[0], rel[1], cover[0], cover[1], ok, av_rel, av_ok, phi, phi * phi]
    return _ordered_sum(np.stack(terms, axis=1))


def _available_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pool_size(workers: int) -> int:
    """Worker processes allowed for a requested count.

    The entry point owns the worker policy and calls this once: a count
    below 1 is a :class:`ParameterError`, and a count above the available
    CPUs is capped at them with a warning.
    """
    if workers < 1:
        raise ParameterError(f"workers must be at least 1, got {workers}")
    available = _available_cpus()
    if workers > available:
        logger.warning("capping %d workers at the %d available CPUs", workers, available)
        return available
    return workers


def _map_populations(sc: Scenario, design: dsg.Design, reduce: Callable,
                     workers: int) -> list:
    """``reduce(population, design, batches)`` for every population of the
    scenario, in index order; ``design`` is the scenario's unpermuted design.

    Populations run in blocks, one per pool worker.  The pool is silently
    bounded by the available CPUs and the number of populations; the
    warning for an oversized request is :func:`pool_size`'s.
    """
    if workers < 1:
        raise ParameterError(f"workers must be at least 1, got {workers}")
    per_block = _PopulationTask(sc, design, reduce)
    indices = list(range(sc.n_populations))
    workers = min(workers, _available_cpus(), sc.n_populations)
    if workers == 1:
        return per_block(indices)
    blocks = [indices[k::workers] for k in range(workers)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(per_block, blocks))
    by_index: dict[int, object] = {}
    for block, res in zip(blocks, results):
        for idx, item in zip(block, res):
            by_index[idx] = item
    return [by_index[i] for i in indices]


def _percent(total: float, count: float) -> float:
    return float(100.0 * total / count) if count else float("nan")


def _cluster_se(sums: np.ndarray, counts: np.ndarray) -> float:
    """Percent Monte Carlo standard error of a mean from the per-population
    means ``sums / counts`` of the populations with a nonzero count."""
    means = sums[counts > 0] / counts[counts > 0]
    if means.size < 2:
        return float("nan")
    return float(100.0 * float(np.std(means, ddof=1)) / np.sqrt(means.size))


def run_scenario(sc: Scenario, workers: int = 1,
                 process_check: tuple | None = None) -> MonteCarloReport:
    """Execute one scenario and aggregate its Monte Carlo report.

    Relative biases are percent averages of (estimate - target)/target
    with the model parameter or the per-population parameter as target;
    variance-estimator bias is measured against the closed-form
    asymptotic variance; coverage counts 95% Wald intervals containing
    the target.  Cells where an estimator is undefined are counted and
    excluded; past a 1% failure share the scenario errors out.

    ``process_check = (grid, form)`` additionally replicates the chosen
    standardized process and records the max-abs gap between its
    empirical covariance on the grid and the closed-form limit.
    """
    start = time.perf_counter()
    phi_f = pop.true_poverty_rate(sc.law, sc.alpha, sc.beta)
    design = _scenario_design(sc)
    constants = dsg.design_constants(design)
    if sc.law.kind == "discrete":
        av_ref = np.full(len(ESTIMATORS), np.nan)   # no density: variance RB undefined
    else:
        av_ref = np.array([asy.poverty_variance_ht(constants, sc.law, sc.alpha, sc.beta),
                           asy.poverty_variance_hj(constants, sc.law, sc.alpha, sc.beta)])
    per_pop = np.stack(_map_populations(
        sc, design, partial(_population_sums, sc, phi_f, av_ref), workers))
    total = _ordered_sum(per_pop)

    n_cells = sc.n_populations * sc.n_samples
    rb_phi, rb_phi_se, coverage = {}, {}, {}
    rb_av, rb_av_se, mc_variance, n_failures = {}, {}, {}, {}
    for k, e in enumerate(ESTIMATORS):
        ok = total[_OK, k]
        for i, c in enumerate(CENTERS):
            rb_phi[e, c] = _percent(total[_REL + i, k], ok)
            coverage[e, c] = _percent(total[_COVER + i, k], ok)
            rb_phi_se[e, c] = _cluster_se(per_pop[:, _REL + i, k], per_pop[:, _OK, k])
        rb_av[e] = _percent(total[_AV_REL, k], total[_AV_COUNT, k])
        rb_av_se[e] = _cluster_se(per_pop[:, _AV_REL, k], per_pop[:, _AV_COUNT, k])
        if ok:
            mean = total[_PHI, k] / ok
            second = total[_PHI_SQ, k] / ok
            mc_variance[e] = float(sc.n * max(second - mean * mean, 0.0))
        else:
            mc_variance[e] = float("nan")
        n_failures[e] = n_cells - int(ok)
        if n_failures[e] > FAILURE_BUDGET * n_cells:
            raise ScenarioError(
                f"{e} failed in {n_failures[e]} of {n_cells} cells "
                f"(> {FAILURE_BUDGET:.0%} budget)")
    if sc.law.kind == "exponential":
        positives = [k for k, v in rb_phi.items() if np.isfinite(v) and v > 0.0]
        if positives:
            logger.warning("positive relative bias for %s (typically negative "
                           "for exponential populations)", positives)
    process_cov_error = None
    if process_check is not None:
        grid, form = process_check
        process_cov_error = _process_covariance(sc, design, grid, form,
                                                workers).max_abs_error
    return MonteCarloReport(
        scenario=sc, rb_phi=rb_phi, rb_phi_se=rb_phi_se, rb_av=rb_av,
        rb_av_se=rb_av_se, coverage=coverage, mc_variance=mc_variance,
        n_cells=n_cells, n_failures=n_failures,
        timing_seconds=time.perf_counter() - start,
        process_cov_error=process_cov_error)


# ---------------------------------------------------------------------------
# Process covariance diagnostics
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class ProcessCovarianceResult:
    """Empirical versus limit covariance of a standardized process on a grid."""

    form: str
    grid: np.ndarray
    empirical: np.ndarray
    limit: np.ndarray
    entry_se: np.ndarray
    max_abs_error: float


def _process_sums(sc: Scenario, grid: np.ndarray, form: str, population, design,
                  batches) -> tuple:
    """Sum, sum of outer products and count of one population's process paths."""
    k = grid.size
    vec = np.zeros(k)
    outer = np.zeros((k, k))
    for batch in batches:
        for path in est.process_paths(batch, population, grid, form, law=sc.law):
            vec += path
            outer += np.outer(path, path)
    return vec, outer, sc.n_samples


def process_covariance_check(sc: Scenario, grid, form: str,
                             workers: int = 1) -> ProcessCovarianceResult:
    """Compare the replicated empirical covariance of a process on a grid
    with its closed-form limit; returns entrywise errors and their MC
    standard errors (per-population cluster estimate)."""
    return _process_covariance(sc, _scenario_design(sc), grid, form, workers)


def _process_covariance(sc: Scenario, design: dsg.Design, grid, form: str,
                        workers: int) -> ProcessCovarianceResult:
    grid = np.asarray(grid, dtype=float)
    per_pop = _map_populations(sc, design, partial(_process_sums, sc, grid, form), workers)
    count = sum(c for _, _, c in per_pop)
    mean = sum(v for v, _, _ in per_pop) / count
    second = sum(o for _, o, _ in per_pop) / count
    empirical = second - np.outer(mean, mean)
    pop_means = np.array([o / c for _, o, c in per_pop])
    entry_se = (np.std(pop_means, axis=0, ddof=1) / np.sqrt(len(per_pop))
                if len(per_pop) > 1 else np.full_like(empirical, np.nan))
    constants = dsg.design_constants(design)
    limit = asy.limit_covariance_matrix(constants, sc.law, form, grid)
    return ProcessCovarianceResult(
        form=form, grid=grid, empirical=empirical, limit=limit, entry_se=entry_se,
        max_abs_error=float(np.max(np.abs(empirical - limit))))


# ---------------------------------------------------------------------------
# Normality diagnostics
# ---------------------------------------------------------------------------

def _statistic_values(sc: Scenario, statistic: str, population, design, batches) -> tuple:
    """One population's replicated statistic, with the exact center and
    scale of the HT mean (``None`` for the poverty rates)."""
    vals = np.empty(sc.n_samples)
    for j, sample in enumerate(chain.from_iterable(batches)):
        if statistic == "ht_mean":
            vals[j] = float(np.sum(sample.y_included / sample.pi_included)) / sc.N
        else:
            f = (est.ht_ecdf(sample, sc.N) if statistic == "phi_ht"
                 else est.hajek_ecdf(sample, sc.N))
            vals[j] = est.poverty_rate(f, sc.alpha, sc.beta)
    if statistic != "ht_mean":
        return vals, None, None
    center = float(np.mean(population.y))
    scale = np.sqrt(max(orc.exact_sn2(design, population.y), 0.0))
    return vals, center, scale


def normality_diagnostic(sc: Scenario, statistic: Literal["phi_ht", "phi_hj", "ht_mean"],
                         workers: int = 1) -> dict:
    """Standardize a replicated statistic by its asymptotic scale and report
    skewness, excess kurtosis and the Kolmogorov-Smirnov distance to the
    standard normal."""
    if statistic not in ("phi_ht", "phi_hj", "ht_mean"):
        raise ParameterError(f"unknown statistic {statistic!r}")
    if sc.n_populations * sc.n_samples < 1000:
        raise ParameterError("normality diagnostics need at least 1000 replications")
    design = _scenario_design(sc)
    per_pop = _map_populations(sc, design, partial(_statistic_values, sc, statistic), workers)
    z_parts = []
    if statistic == "ht_mean":
        for vals, center, scale in per_pop:
            if scale is None or scale <= 0.0:
                raise DiagnosticError("design variance of the weighted mean is zero")
            z_parts.append((vals - center) / scale)
    else:
        constants = dsg.design_constants(design)
        try:
            sigma2 = (asy.poverty_variance_ht(constants, sc.law, sc.alpha, sc.beta)
                      if statistic == "phi_ht"
                      else asy.poverty_variance_hj(constants, sc.law, sc.alpha, sc.beta))
        except (ParameterError, EstimationError) as exc:
            raise DiagnosticError(f"asymptotic variance unavailable: {exc}") from exc
        if sigma2 <= 0.0:
            raise DiagnosticError("asymptotic variance is zero")
        phi_f = pop.true_poverty_rate(sc.law, sc.alpha, sc.beta)
        scale = np.sqrt(sigma2 / sc.n)
        for vals, _, _ in per_pop:
            z_parts.append((vals - phi_f) / scale)
    z = np.concatenate(z_parts)
    if float(np.var(z)) == 0.0:
        raise DiagnosticError("replicated statistic has zero variance")
    return {
        "skewness": float(sps.skew(z)),
        "excess_kurtosis": float(sps.kurtosis(z, fisher=True)),
        "ks_distance": float(sps.kstest(z, "norm").statistic),
        "replications": int(z.size),
    }
