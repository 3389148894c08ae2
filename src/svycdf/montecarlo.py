"""Replicated-population, replicated-sample Monte Carlo experiments.

A scenario draws ``n_populations`` populations from a super-population
law and, for each, ``n_samples`` samples from one of four designs (SI:
simple random sampling without replacement, BE: Bernoulli, PO: Poisson
with a low/high split of inclusion probabilities over a randomly ordered
population, REJ: size-n conditional Poisson calibrated to the PO
probabilities).  It reports percent relative bias of the poverty-rate
estimators against the population and model parameters, relative bias of
their plug-in variance estimators against the closed-form asymptotic
variance, coverage of 95% Wald intervals, and the skewness, excess
kurtosis and Kolmogorov-Smirnov distance to the standard normal of the
estimates standardized by the model rate and the asymptotic variance: the
paper's asymptotic normality of the poverty rate, from the same cells.

A population's draws come in batches of :func:`designs.batch_rows`
samples, and the poverty kernel evaluates each batch in one call.  Each
population reduces its cells to one (9, 2) array of sums, one column
per estimator (HT, HJ): relative errors and covering intervals against
each center, defined cells, variance-estimator relative errors and their
count, and the sums of the estimates and of their squares; and it hands
back its standardized estimates, 8 bytes per defined cell and estimator.
The report is computed from the stack of these arrays and the
concatenation of the estimates.

Every (population, sample) cell derives its random stream from the
scenario seed and its own index, and every sum adds in index order (cells
in sample order, then populations), so reports are bitwise reproducible
for any worker count.

A run opens at most one process pool (:func:`_process_pool`):
:func:`run_scenarios` shares it across a grid, queueing each scenario's
populations in contiguous chunks as soon as its design is ready and
reducing the results afterwards, each scenario in population order; each
diagnostic opens its own in :func:`_population_results`.  A population
draws its responses ``y`` and its design, and hands them with its batches
of draws to the job's reducer, ``reduce(y, design, batches)``: the sums
and estimates above, the process path sums, or the standardized HT means
of the normality diagnostic.  The tables and the process diagnostic count
and exclude the draws the kernels report as failed, and refuse a job past
:data:`FAILURE_BUDGET` of its cells in :func:`_check_budget`.
"""

from __future__ import annotations

import logging
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, Literal, Sequence

import numpy as np

from . import asymptotics as asy
from . import designs as dsg
from . import estimation as est
from . import population as pop
from .errors import (
    DiagnosticError,
    ParameterError,
    ScenarioError,
)
from .streams import child_seed, substream, substreams

logger = logging.getLogger(__name__)

DesignLabel = Literal["SI", "BE", "PO", "REJ"]
ESTIMATORS = asy.MODES
CENTERS = ("FN", "F")   # population parameter vs model parameter
SHAPES = ("skewness", "excess_kurtosis", "ks_distance")   # of _shape_statistics

#: fraction of failed cells (per estimator, or of a process diagnostic) a job tolerates
FAILURE_BUDGET = 0.01

#: relative gap allowed between the HT and HJ rates of an SI cell, whose
#: weights fl(1/(N pi)) and fl((1/pi)/n_hat) differ by rounding (6.5e-15 seen)
_SI_RTOL = 1e-12

#: inclusion probabilities of the unequal-probability split, as multiples of n/N
PO_LOW, PO_HIGH = 0.4, 1.6

#: most cells (population, sample) a scenario holds: the report keeps 16 bytes
#: (two standardized estimates) per cell, 1 GiB at the bound, and every stream
#: index stays within one 32-bit word
MAX_CELLS = 2**26

#: largest population size N.  A worker holds the population, its PO/REJ
#: design and a permutation: about four N-length 8-byte arrays, 512 MiB at
#: the bound
MAX_POPULATION_UNITS = 2**24


@dataclass(frozen=True)
class Scenario:
    """One simulation cell: population/sample sizes, design, law, targets.
    A field out of its range is a :class:`ParameterError` here, before any
    work: among them more than :data:`MAX_CELLS` = 2**26 cells
    ``n_populations * n_samples``, whose standardized estimates would take
    over 1 GiB, and N above :data:`MAX_POPULATION_UNITS`."""

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
            raise ParameterError(f"need 1 <= n <= N, got n={self.n}, N={self.N}")
        if self.N > MAX_POPULATION_UNITS:
            raise ParameterError(f"N={self.N} exceeds the bound {MAX_POPULATION_UNITS}")
        if self.n_populations < 1 or self.n_samples < 1:
            raise ParameterError("replication counts must be at least 1")
        if self.n_populations * self.n_samples > MAX_CELLS:
            raise ParameterError(f"n_populations * n_samples must be at most 2**26, got "
                                 f"{self.n_populations} * {self.n_samples}")
        if self.seed < 0:
            raise ParameterError(f"seed must be non-negative, got {self.seed}")
        if self.design not in ("SI", "BE", "PO", "REJ"):
            raise ParameterError(f"unknown design label {self.design!r}")
        if not 0.0 < self.alpha < 1.0:                      # NaN fails too
            raise ParameterError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not 0.0 < self.beta <= 1.0:
            raise ParameterError(f"beta must lie in (0, 1], got {self.beta}")
        if self.beta == 1.0 and self.law.kind != "discrete":
            # F(F^-1(alpha)) = alpha for a law with a density: a constant rate
            raise ParameterError(f"beta = 1 needs a discrete law, got {self.law.kind}")
        if self.design == "BE" and self.n == self.N:
            raise ParameterError(f"BE needs n < N for a rate n/N below 1, got n=N={self.N}")
        if self.design in ("PO", "REJ"):
            # the split's high probability; a rejective design needs it below 1
            high = PO_HIGH * (self.n / self.N)
            if high > 1.0 or (self.design == "REJ" and high == 1.0):
                bound = "<=" if self.design == "PO" else "<"
                raise ParameterError(
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
    normality: dict         # (estimator, statistic in SHAPES) -> shape of the standardized phi_hat
    n_cells: int
    n_failures: dict        # estimator -> failed cells
    timing_seconds: float


# ---------------------------------------------------------------------------
# Design construction
# ---------------------------------------------------------------------------

def _split_probabilities(N: int, n: int) -> np.ndarray:
    """Unpermuted low/high inclusion probabilities summing to n."""
    base = n / N
    pi = np.full(N, PO_HIGH * base)
    pi[: N // 2] = PO_LOW * base
    if N % 2:
        # odd N: the middle unit takes the rest of n, n/N (and a sum n) up to rounding
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
    scenario's unpermuted ``design`` (:func:`designs.relabel`), so a REJ
    population reuses the scenario's inclusion probabilities."""
    if sc.design in ("SI", "BE"):
        return design
    return dsg.relabel(design, substream(sc.seed, pop_index, 1).permutation(sc.N))


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
    :func:`designs.draw` call of :func:`designs.batch_rows` samples at a time.

    Sample j uses the stream ``(seed, pop_index, 2, j)``, seeded a batch at
    a time by :func:`streams.substreams`; no more than one batch is held
    at once.
    """
    rows = dsg.batch_rows(design)
    for start in range(0, sc.n_samples, rows):
        rngs = substreams(sc.seed, (pop_index, 2),
                          np.arange(start, min(start + rows, sc.n_samples)))
        yield dsg.draw(design, rngs, y)


def _population_task(sc: Scenario, design: dsg.Design, reduce: Callable, i: int):
    """Pool task for population ``i``: draw its responses y and its design
    from the scenario ``design``, and reduce its batches of draws with
    ``reduce(y, design, batches)``."""
    y = pop.generate_population(sc.law, sc.N, child_seed(sc.seed, i, 0))
    design = _population_design(sc, i, design)
    return reduce(y, design, _population_batches(sc, i, design, y))


def _population_sums(sc: Scenario, phi_f: float, av_ref: np.ndarray, y, design,
                     batches) -> tuple:
    """One population's (9, 2) array of sums over its cells, added in
    sample order, and per estimator its standardized estimates
    z = (phi - phi_f) / sqrt(av_ref / n) in sample order, failed cells
    dropped; ``av_ref`` is the asymptotic variance of each estimator (NaN,
    and so NaN z, for a discrete law)."""
    phi_fn = est.census_poverty_rate(y, sc.alpha, sc.beta)
    centers = np.array([phi_fn, phi_f])[:, None, None]
    constants = dsg.design_constants(design)
    phi = np.zeros((sc.n_samples, len(ESTIMATORS)))
    av = np.zeros_like(phi)
    ok = np.ones(phi.shape, dtype=bool)
    start = 0
    for batch in batches:
        stop = start + batch.sizes.size
        phi[start:stop], av[start:stop], errors = est.poverty_rate_estimates(
            batch, sc.N, constants, sc.alpha, sc.beta)
        for j, k in errors:
            ok[start + j, k] = False
        start = stop
    both = ok.all(axis=1)
    if sc.design == "SI" and not np.allclose(phi[both, 0], phi[both, 1], rtol=_SI_RTOL, atol=0.0):
        raise ScenarioError(f"SI estimators must coincide within {_SI_RTOL:g} relative; "
                            "internal inconsistency")
    rel = _relative_errors(phi, centers, ok)
    av_ok = ok & np.isfinite(av_ref)
    av_rel = _relative_errors(av, av_ref, av_ok)
    lo, hi = asy.wald_interval(phi, np.maximum(av, 0.0), sc.n)
    cover = ok & (lo <= centers) & (centers <= hi)
    # failed cells hold phi = 0, so they add 0.0 to the sums of the estimates
    terms = [rel[0], rel[1], cover[0], cover[1], ok, av_rel, av_ok, phi, phi * phi]
    z = [(phi[ok[:, k], k] - phi_f) / np.sqrt(av_ref[k] / sc.n) for k in range(len(ESTIMATORS))]
    return _ordered_sum(np.stack(terms, axis=1)), z


def _available_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pool_size(workers: int, tasks: int) -> int:
    """Worker processes that run ``tasks`` tasks for a requested count: a
    count below 1 is a :class:`ParameterError`, a count above the
    available CPUs is capped at them with a warning, and no more processes
    run than there are tasks.  Every pool of this module is sized by it
    (:func:`_process_pool`).
    """
    if workers < 1:
        raise ParameterError(f"workers must be at least 1, got {workers}")
    available = _available_cpus()
    if workers > available:
        logger.warning("capping %d workers at the %d available CPUs", workers, available)
    return min(workers, available, tasks)


@contextmanager
def _process_pool(workers: int, tasks: int) -> Iterator[Callable]:
    """A lazy ``pmap(task, count)`` over ``task(0), ..., task(count - 1)``,
    in index order, on a pool of :func:`pool_size` processes for the
    ``with`` block, or in this process when that is 1.

    Each call queues its tasks at once, in contiguous chunks of
    ceil(count / (2 * pool size)) so every worker gets about two hand-offs,
    and returns without waiting.  The pool is shut down when the block
    exits; on error (also ``KeyboardInterrupt``) its queued chunks are
    cancelled first.
    """
    size = pool_size(workers, tasks)
    if size == 1:
        yield lambda task, count: map(task, range(count))
        return
    with ProcessPoolExecutor(max_workers=size) as pool:
        try:
            yield lambda task, count: pool.map(
                task, range(count), chunksize=math.ceil(count / (2 * size)))
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def _population_results(sc: Scenario, design: dsg.Design, reduce: Callable, workers: int):
    """``reduce(y, design, batches)`` for every population of a diagnostic's
    scenario, in index order, on its own pool of :func:`_process_pool`."""
    with _process_pool(workers, sc.n_populations) as pmap:
        return list(pmap(partial(_population_task, sc, design, reduce), sc.n_populations))


def _check_budget(label: str, failed: int, cells: int) -> None:
    """Refuse a job whose ``label`` failed in over FAILURE_BUDGET of its cells."""
    if failed > FAILURE_BUDGET * cells:
        raise ScenarioError(
            f"{label} failed in {failed} of {cells} cells (> {FAILURE_BUDGET:.0%} budget)")


def _kept_rows(results) -> np.ndarray:
    """The rows of ``(values, errors)`` kernel results, failed rows dropped."""
    return np.concatenate([np.delete(values, list(errors), axis=0) for values, errors in results])


def _percent(total: float, count: float) -> float:
    return float(100.0 * total / count) if count else float("nan")


def _cluster_se(sums: np.ndarray, counts: np.ndarray) -> float:
    """Percent Monte Carlo standard error of a mean from the per-population
    means ``sums / counts`` of the populations with a nonzero count."""
    means = sums[counts > 0] / counts[counts > 0]
    if means.size < 2:
        return float("nan")
    return float(100.0 * float(np.std(means, ddof=1)) / np.sqrt(means.size))


def run_scenarios(scenarios: Sequence[Scenario], workers: int = 1) -> list[MonteCarloReport]:
    """Execute a grid of scenarios in order and return their reports.

    The whole grid shares one pool of min(``workers``, available CPUs,
    largest ``n_populations``) processes, which is closed before this
    returns.  Each scenario's populations are queued as soon as its design
    is built, before any result is reduced, so a setup error (a failed REJ
    calibration) of a later scenario surfaces before a failure-budget error
    of an earlier one, with any worker count.  Each report is that of
    :func:`run_scenario`.
    """
    tasks = max((sc.n_populations for sc in scenarios), default=1)
    with _process_pool(workers, tasks) as pmap:
        queued = [_queue_scenario(sc, pmap) for sc in scenarios]
        return [_scenario_report(*q) for q in queued]


def run_scenario(sc: Scenario, workers: int = 1) -> MonteCarloReport:
    """Execute one scenario and aggregate its Monte Carlo report.

    Relative biases are percent averages of (estimate - target)/target
    with the model parameter or the per-population parameter as target;
    variance-estimator bias is measured against the closed-form
    asymptotic variance; coverage counts 95% Wald intervals containing
    the target.  Cells where an estimator is undefined are counted and
    excluded; past a 1% failure share the scenario errors out.
    ``timing_seconds`` is the scenario's own time: its setup plus the wait
    for and reduction of its populations' results.
    """
    return run_scenarios([sc], workers)[0]


def _model_targets(sc: Scenario, design: dsg.Design) -> tuple[float, np.ndarray]:
    """The model rate F(beta F^-1(alpha)) and the asymptotic variance of each
    estimator under the scenario's ``design``; NaN variances for a discrete
    law, which has no density."""
    phi_f = pop.true_poverty_rate(sc.law, sc.alpha, sc.beta)
    if sc.law.kind == "discrete":
        return phi_f, np.full(len(ESTIMATORS), np.nan)
    constants = dsg.design_constants(design)
    return phi_f, np.array([asy.poverty_variance(constants, sc.law, sc.alpha, sc.beta, e)
                            for e in ESTIMATORS])


def _queue_scenario(sc: Scenario, pmap: Callable) -> tuple:
    """Build the scenario's design and reference variances and queue its
    populations on ``pmap``, the map of :func:`_process_pool`; returns the
    scenario, its lazy per-population sums and the seconds this took."""
    start = time.perf_counter()
    design = _scenario_design(sc)
    reduce = partial(_population_sums, sc, *_model_targets(sc, design))
    sums = pmap(partial(_population_task, sc, design, reduce), sc.n_populations)
    return sc, sums, time.perf_counter() - start


def _scenario_report(sc: Scenario, sums: Iterator, setup_seconds: float) -> MonteCarloReport:
    """The report of :func:`run_scenario` from the scenario's queued
    per-population results of :func:`_population_sums`."""
    start = time.perf_counter()
    per_pop, z = zip(*sums)
    per_pop = np.stack(per_pop)
    total = _ordered_sum(per_pop)

    n_cells = sc.n_populations * sc.n_samples
    rb_phi, rb_phi_se, coverage = {}, {}, {}
    rb_av, rb_av_se, mc_variance, n_failures, normality = {}, {}, {}, {}, {}
    for k, e in enumerate(ESTIMATORS):
        ok = total[_OK, k]       # positive within the budget
        n_failures[e] = n_cells - int(ok)
        _check_budget(e, n_failures[e], n_cells)
        shape = _shape_statistics(np.concatenate([pop_z[k] for pop_z in z]))
        normality.update(((e, s), shape[s]) for s in SHAPES)
        for i, c in enumerate(CENTERS):
            rb_phi[e, c] = _percent(total[_REL + i, k], ok)
            coverage[e, c] = _percent(total[_COVER + i, k], ok)
            rb_phi_se[e, c] = _cluster_se(per_pop[:, _REL + i, k], per_pop[:, _OK, k])
        rb_av[e] = _percent(total[_AV_REL, k], total[_AV_COUNT, k])
        rb_av_se[e] = _cluster_se(per_pop[:, _AV_REL, k], per_pop[:, _AV_COUNT, k])
        mean = total[_PHI, k] / ok
        second = total[_PHI_SQ, k] / ok
        mc_variance[e] = float(sc.n * max(second - mean * mean, 0.0))
    if sc.law.kind == "exponential":
        # NaN compares false: a single-population scenario has no SE
        positives = [k for k, v in rb_phi.items() if v > 3.0 * rb_phi_se[k]]
        if positives:
            logger.warning("relative bias more than 3 Monte Carlo SE above zero for %s "
                           "(typically negative for exponential populations)", positives)
    return MonteCarloReport(
        scenario=sc, rb_phi=rb_phi, rb_phi_se=rb_phi_se, rb_av=rb_av,
        rb_av_se=rb_av_se, coverage=coverage, mc_variance=mc_variance,
        normality=normality, n_cells=n_cells, n_failures=n_failures,
        timing_seconds=setup_seconds + time.perf_counter() - start)


# ---------------------------------------------------------------------------
# Process covariance diagnostics
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class ProcessCovarianceResult:
    """Empirical versus limit covariance of a standardized process on a grid."""

    empirical: np.ndarray
    limit: np.ndarray
    entry_se: np.ndarray
    max_abs_error: float
    n_failures: int         # failed paths, counted and excluded


def _process_sums(sc: Scenario, grid, form: str, y, design, batches) -> tuple:
    """Sum and sum of outer products of one population's process paths,
    failed paths excluded, and the number of paths kept."""
    paths = _kept_rows(est.process_paths(batch, y, grid, form, law=sc.law)
                       for batch in batches)
    return paths.sum(axis=0), paths.T @ paths, len(paths)


def process_covariance_check(sc: Scenario, grid, form: str,
                             workers: int = 1) -> ProcessCovarianceResult:
    """Compare the replicated empirical covariance of a process on a grid with
    its closed-form limit; returns entrywise errors, their per-population
    cluster MC standard errors over the kept paths, and ``n_failures``.  The
    grid is checked, and the limit computed, before any population is drawn."""
    grid = est.checked_grid(grid)
    design = _scenario_design(sc)
    limit = asy.limit_covariance(dsg.design_constants(design), sc.law, form,
                                 grid[:, None], grid[None, :])
    per_pop = _population_results(sc, design, partial(_process_sums, sc, grid, form), workers)
    sums, outers, kept = map(sum, zip(*per_pop))     # added in population order
    cells = sc.n_populations * sc.n_samples
    _check_budget(form, cells - kept, cells)
    mean, second = sums / kept, outers / kept
    empirical = second - np.outer(mean, mean)
    pop_means = np.array([o / k for _, o, k in per_pop if k])
    entry_se = (np.std(pop_means, axis=0, ddof=1) / np.sqrt(len(pop_means))
                if len(pop_means) > 1 else np.full_like(empirical, np.nan))
    return ProcessCovarianceResult(
        empirical=empirical, limit=limit, entry_se=entry_se,
        max_abs_error=float(np.max(np.abs(empirical - limit))), n_failures=cells - kept)


# ---------------------------------------------------------------------------
# Normality diagnostics
# ---------------------------------------------------------------------------

def _statistic_values(sc: Scenario, y, design, batches) -> np.ndarray:
    """One population's replicated HT mean (0 for an empty sample, so no
    draw fails), centered at the population mean and scaled by its exact
    design standard deviation."""
    # each row summed over its own entries, as the sample drawn alone
    vals = np.array([float(np.sum(row)) / sc.N for batch in batches
                     for row in np.split(batch.y / batch.pi, np.cumsum(batch.sizes)[:-1])])
    scale = np.sqrt(max(dsg.exact_sn2(design, y), 0.0))
    if scale <= 0.0:
        raise DiagnosticError("design variance of the weighted mean is zero")
    return (vals - float(np.mean(y))) / scale


def _shape_statistics(z: np.ndarray) -> dict:
    """Skewness m3/m2^1.5, excess kurtosis m4/m2^2 - 3 and the two-sided
    Kolmogorov-Smirnov distance of ``z`` to the standard normal, each NaN
    where ``z`` has zero variance or NaN values, and the count of ``z``.

    The moments are the biased central moments m_k = mean((z - mean(z))^k).
    The distance is max_i max(i/n - Phi(z_(i)), Phi(z_(i)) - (i-1)/n) over
    the sorted z, with Phi(x) = erfc(-x/sqrt(2))/2.
    """
    n = z.size
    d = z - z.mean()
    d2 = d**2
    m2, m3, m4 = float(np.mean(d2)), float(np.mean(d2 * d)), float(np.mean(d2**2))
    if not m2 > 0.0:
        return {**dict.fromkeys(SHAPES, math.nan), "replications": int(n)}
    phi = 0.5 * np.fromiter(map(math.erfc, -np.sort(z) / math.sqrt(2.0)), float, n)
    ks = max(np.max(np.arange(1.0, n + 1) / n - phi), np.max(phi - np.arange(0.0, n) / n))
    return {"skewness": m3 / m2**1.5, "excess_kurtosis": m4 / m2**2 - 3.0,
            "ks_distance": float(ks), "replications": int(n)}


def normality_diagnostic(sc: Scenario, statistic: Literal["ht_mean"],
                         workers: int = 1) -> dict:
    """Skewness, excess kurtosis and the Kolmogorov-Smirnov distance to the
    standard normal (:func:`_shape_statistics`: biased central moments and
    the two-sided sup distance) of the replicated HT mean, the one
    ``statistic``, centered at each population's mean and scaled by its
    exact design standard deviation (:func:`designs.exact_sn2`; on REJ the
    O(N n) moment program, with no N x N matrix, so any N the sampler
    takes).  ``replications`` counts the draws, which never fail: an empty
    sample has the mean 0.

    The poverty rates' normality is a field of the tables' own report
    (:attr:`MonteCarloReport.normality`), from the cells they judge."""
    if statistic != "ht_mean":
        raise ParameterError(f"unknown statistic {statistic!r}")
    cells = sc.n_populations * sc.n_samples
    if cells < 1000:
        raise ParameterError("normality diagnostics need at least 1000 replications")
    z = np.concatenate(_population_results(sc, _scenario_design(sc),
                                           partial(_statistic_values, sc), workers))
    return _shape_statistics(z)
