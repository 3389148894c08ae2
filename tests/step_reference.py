"""The one-draw weighted step function the batched CDF kernels are checked against.

``StepFunction.from_points`` merges tied points into one jump with
``np.unique`` and adds their weights with ``np.bincount`` in the order
given; the batch CDFs of ``svycdf.estimation`` (``_weighted_cdfs``,
``_step_values``) must give the same floats.  ``quantile`` is the scalar
generalized inverse, which raises ``MassDeficitError`` at a level beyond
the total mass, and ``poverty_rate`` the function at beta times that
quantile: on a census, the rate ``estimation.census_poverty_rate`` must
give bit for bit.

The tests build their batches here: ``make_batch`` makes a read-only
``designs.SampleBatch`` of hand-built rows, ``rows`` splits a batch into
batches of one row each and ``stack`` joins batches row after row.
``row_error`` is the check a row of a batch fails, or None, and
``valid_cdfs`` the batch CDFs (``estimation._weighted_cdfs``) of a batch
whose rows all pass it.

More reference helpers of the tests live here: ``rejective_first_order``,
the exact program's first-order probabilities of a rejective design with
its suffix table built, ``n_hat``, a row's inverse-probability
population-size estimate, ``decomposition_paths``,
the terms G_pi and Y_N of the proof's decomposition of the self-normalized
process, and ``hadamard_direction_value``, the directional derivative of
the poverty rate functional, checked against finite differences.

Exact design references: ``systematic_design`` enumerates systematic
pi-ps sampling, a design outside the paper's conditions,
``exact_population_moments`` gives the exact design expectation of what a
Monte Carlo run adds up for one population, and ``exact_rejective`` gives a
rejective design's P(S = n), pi and pi_ij in rational arithmetic;
``exact_inclusion`` gives the other designs' pi and pi_ij, and
``exact_ratio_form`` a^T Delta a from either, in rational arithmetic too.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from svycdf import asymptotics as asy
from svycdf import designs as dsg
from svycdf import estimation as est
from svycdf import montecarlo as mc
from svycdf import oracle as orc
from svycdf import population as pop
from svycdf.errors import EstimationError, ParameterError, ZeroDensityError
from svycdf.streams import child_seed, substream

TIE_EPS = 1e-12


class MassDeficitError(EstimationError):
    """A quantile level exceeds the total mass of the step function."""


def _batch(included, pi, y, sizes, expected_n):
    batch = dsg.SampleBatch(included=included, pi=pi, y=y, sizes=sizes, expected_n=expected_n)
    for values in (included, pi, y, sizes):
        values.setflags(write=False)
    return batch


def stack(batches):
    """One batch of the rows of ``batches``, in order, with the first
    batch's design-expected size."""
    return _batch(*(np.concatenate([getattr(b, name) for b in batches])
                    for name in ("included", "pi", "y", "sizes")),
                  expected_n=batches[0].expected_n)


def make_batch(rows):
    """A read-only batch of hand-built rows, each a pair ``(y, pi)`` whose
    units are the first len(y) of the population; one expected unit."""
    ys = [np.asarray(y, dtype=float) for y, _ in rows]
    return _batch(np.concatenate([np.empty(0, np.intp), *map(np.arange, map(len, ys))]),
                  np.concatenate([np.empty(0), *(np.asarray(pi, dtype=float) for _, pi in rows)]),
                  np.concatenate([np.empty(0), *ys]),
                  np.array([y.size for y in ys], dtype=np.intp), 1.0)


def make_row(y, pi):
    """A batch of one hand-built row."""
    return make_batch([(y, pi)])


def rows(batch):
    """The rows of a batch, each a batch of one row."""
    cuts = np.cumsum(batch.sizes)[:-1]
    fields = (np.split(getattr(batch, name), cuts) for name in ("included", "pi", "y"))
    return [_batch(included, pi, y, np.array([y.size]), batch.expected_n)
            for included, pi, y in zip(*fields)]


def row_error(row):
    """The error a one-row batch fails its checks with, or None: an empty
    row, or an inclusion probability outside (0, 1] (NaN included)."""
    if row.y.size == 0:
        return EstimationError("empty sample")
    if not (row.pi.min() > 0.0 and row.pi.max() <= 1.0):
        return EstimationError("inclusion probability outside (0, 1] among sampled units")
    return None


def valid_cdfs(batch, N, modes=est.MODES):
    """``estimation._weighted_cdfs`` of a batch, asserting that no row failed."""
    cdfs, errors = est._weighted_cdfs(batch, N, modes)
    assert not errors, errors
    return cdfs


@dataclass(frozen=True, eq=False)
class StepFunction:
    """Right-continuous step function: jumps at the sorted distinct
    ``locations``, ``cumulative[k]`` the mass at or before
    ``locations[k]``, the last entry ``total_mass``."""

    locations: np.ndarray
    cumulative: np.ndarray
    total_mass: float

    @classmethod
    def from_points(cls, values, weights, total_mass=None):
        """Ties merged into one jump; ``total_mass`` pins the last running
        sum (by default ``weights.sum()`` in the order given)."""
        values = np.asarray(values, dtype=float)
        weights = np.asarray(weights, dtype=float)
        locs, inverse = np.unique(values, return_inverse=True)
        cumulative = np.bincount(inverse, weights=weights, minlength=locs.size).cumsum()
        total = float(weights.sum()) if total_mass is None else float(total_mass)
        cumulative[-1] = total
        return cls(locations=locs, cumulative=cumulative, total_mass=total)

    def evaluate(self, t):
        """Value at t (scalar or array): mass of all jumps <= t."""
        t_arr = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.locations, t_arr, side="right")
        out = np.concatenate([[0.0], self.cumulative])[idx]
        return float(out) if t_arr.ndim == 0 else out

    __call__ = evaluate


def reference_ecdf(row, N, mode):
    """One row's CDF in ``mode``: 1/(N pi) per unit for "HT", (1/pi)/n_hat
    with total mass exactly one for "HJ"."""
    error = row_error(row)
    if error is not None:
        raise error
    if mode == "HT":
        return StepFunction.from_points(row.y, 1.0 / (N * row.pi))
    inv = 1.0 / row.pi
    return StepFunction.from_points(row.y, inv / inv.sum(), total_mass=1.0)


def batch_row(cdfs, r, k):
    """Row r of mode k of a batch of CDFs (``estimation._Cdfs``) as a step function."""
    c = cdfs.count[r]
    return StepFunction(locations=cdfs.loc[r, :c], cumulative=cdfs.cum[k, r, :c],
                        total_mass=float(cdfs.total[k, r]))


def quantile(f, alpha):
    """The first jump whose running sum reaches alpha, up to ``TIE_EPS``."""
    if not 0.0 < alpha <= 1.0:
        raise ParameterError(f"quantile level must lie in (0, 1], got {alpha}")
    if alpha > f.total_mass + TIE_EPS:
        raise MassDeficitError(f"level {alpha} exceeds total mass {f.total_mass}")
    return float(next(location for location, running in zip(f.locations, f.cumulative)
                      if running >= alpha - TIE_EPS))


def poverty_rate(f, alpha, beta):
    """f at beta times its alpha-quantile."""
    if not 0.0 < beta <= 1.0:
        raise ParameterError(f"scale beta must lie in (0, 1], got {beta}")
    return float(f.evaluate(beta * quantile(f, alpha)))


def rejective_first_order(p, n):
    """A rejective design's first-order probabilities by the exact program
    (``designs._rejective_first_order``), given the suffix table it reads."""
    p = np.asarray(p, dtype=float)
    return dsg._rejective_first_order(p, n, dsg._pb_forward(p[::-1], n))


def n_hat(row):
    """Inverse-probability estimate of the population size, sum 1/pi."""
    return float(np.sum(1.0 / row.pi))


def decomposition_paths(ht_values, row, y, grid, law):
    """The proof's decomposition terms of a row of draws from the population
    of responses ``y`` on a grid, given its "HT" CDF values there: the raw weighted centered sum
    G_pi = sqrt(n)/N sum (xi_i/pi_i)(1{Y_i<=t} - F(t)) and
    Y_N = sqrt(n)(F_HT - F_N) - sqrt(n)(N_hat/N - 1) F, so that
    sqrt(n)(HJ - F_N) = Y_N + (N/N_hat - 1) G_pi and
    sqrt(n)(HJ - F) = (N/N_hat) G_pi.  The standardization uses the
    design-expected size."""
    root_n, ratio = np.sqrt(row.expected_n), n_hat(row) / y.size
    f = pop.true_cdf(law, grid)
    f_n = est.empirical_cdf_values(y, grid)
    g_pi = root_n * (ht_values - ratio * f)
    y_n = root_n * (ht_values - f_n) - root_n * (ratio - 1.0) * f
    return g_pi, y_n


def hadamard_direction_value(density_at_quantile, density_at_scaled, h_at_quantile,
                             h_at_scaled, beta):
    """Directional derivative of the poverty-rate functional.

    For a perturbation direction h, the derivative at a distribution with
    density f, quantile q and scaled point beta*q equals
    ``-beta (f(beta q) / f(q)) h(q) + h(beta q)``.
    """
    if density_at_quantile <= 0.0:
        raise ZeroDensityError("density at the quantile must be positive")
    return (-beta * (density_at_scaled / density_at_quantile) * h_at_quantile
            + h_at_scaled)


def systematic_design(pi):
    """Systematic pi-ps sampling (Madow 1949) with inclusion probabilities
    ``pi`` (summing to an integer n) as an ``oracle.EnumeratedDesign``.

    The units lie end to end on [0, n), unit k on [C_{k-1}, C_k) with C the
    running sums of pi, and one uniform start u in [0, 1) selects the units
    hit by u, u + 1, ..., u + n - 1.  The sample changes only where u
    crosses the fractional part of some C_k, so the support is one sample
    per start interval, at most N + 1, each with its interval's length.
    """
    pi = np.asarray(pi, dtype=float)
    cum = np.concatenate([[0.0], np.cumsum(pi)])
    cuts = np.unique(np.concatenate([cum % 1.0, [0.0, 1.0]]))
    starts = (cuts[:-1] + cuts[1:]) / 2.0
    samples = np.diff(np.floor(cum - starts[:, None]), axis=1) > 0
    return orc.EnumeratedDesign(samples=samples, probs=np.diff(cuts), N=pi.size)


def exact_population_moments(sc, pop_index):
    """Exact design expectation of population ``pop_index`` of the scenario
    ``sc``, from its design's enumerated support: every support point in one
    ``estimation.poverty_rate_estimates`` batch, weighted by its probability.

    The population's responses and its PO/REJ permutation come from the
    scenario's streams, as in a run, but its design is built here: a PO
    design from the split reordered, a REJ design from the calibrated
    working probabilities reordered, and its samples are enumerated, not
    drawn.  Returns ``(mean, var, phi_moments, ht_cdf, f_n)``: the mean and
    variance per cell, shape (3, 2) with the columns ``mc.ESTIMATORS``, of
    the relative error against the population rate, the covering of that
    rate by the 95% Wald interval (both 0 on a failed cell) and the
    defined-cell indicator; the mean and the second and fourth central
    moments of the estimate given that its cell is defined, shape (3, 2),
    what ``mc_variance`` estimates from; and the expected HT CDF with the
    population CDF F_N, both at the sorted responses.
    """
    N, n = sc.N, sc.n
    y = pop.generate_population(sc.law, N, child_seed(sc.seed, pop_index, 0))
    perm = substream(sc.seed, pop_index, 1).permutation(N)
    if sc.design == "SI":
        design = dsg.srswor(N, n)
    elif sc.design == "BE":
        design = dsg.bernoulli(N, n / N)
    elif sc.design == "PO":
        design = dsg.poisson(mc._split_probabilities(N, n)[perm])
    else:
        base = dsg.calibrated_rejective(mc._split_probabilities(N, n), n)
        design = dsg.rejective(base.working_p[perm], n)
    support = orc.enumerate_design(design)
    pi = support.first_order()
    masks = support.samples
    included = np.nonzero(masks)[1]
    batch = _batch(included, pi[included], y[included], masks.sum(axis=1), float(n))
    phi, av, errors = est.poverty_rate_estimates(batch, N, dsg.design_constants(design),
                                                 sc.alpha, sc.beta)
    ok = np.ones(phi.shape, dtype=bool)
    for cell in errors:
        ok[cell] = False
    phi_n = est.census_poverty_rate(y, sc.alpha, sc.beta)
    rel = np.where(ok, (phi - phi_n) / phi_n, 0.0)
    lo, hi = asy.wald_interval(phi, np.maximum(av, 0.0), n)
    terms = np.stack([rel, ok & (lo <= phi_n) & (phi_n <= hi), ok])
    mean = np.einsum("s,tsk->tk", support.probs, terms)
    var = np.einsum("s,tsk->tk", support.probs, terms * terms) - mean * mean
    given_ok = support.probs[:, None] * ok / (support.probs @ ok)
    phi_mean = np.sum(given_ok * phi, axis=0)
    dev = phi - phi_mean
    phi_moments = np.stack([phi_mean, np.sum(given_ok * dev**2, axis=0),
                            np.sum(given_ok * dev**4, axis=0)])
    t = np.sort(y)
    ht = (masks[:, :, None] & (y[:, None] <= t)) / (N * pi[:, None])
    return (mean, var, phi_moments, support.probs @ ht.sum(axis=1),
            est.empirical_cdf_values(y, t))


def _elementary(w, n):
    """The elementary symmetric polynomials e_0, ..., e_n of ``w``."""
    e = [Fraction(1)] + [Fraction(0)] * n
    for x in w:
        for k in range(n, 0, -1):
            e[k] += x * e[k - 1]
    return e


def _without(e, x):
    """e_0, e_1, ... of a multiset without one element ``x``, from those of
    the whole multiset: e_k = e'_k + x e'_{k-1}, exact in rationals."""
    out = [Fraction(1)]
    for k in range(1, len(e)):
        out.append(e[k] - x * out[k - 1])
    return out


@dataclass(frozen=True)
class ExactRejective:
    """A rejective design's quantities as exact rationals: ``size_prob``
    the probability P(S = n) that Poisson sampling with the working
    probabilities draws n units, ``pi`` the first-order and ``pi2`` the
    second-order inclusion probabilities (diagonal pi_i)."""

    size_prob: Fraction
    pi: list
    pi2: list

    def pi_float(self) -> np.ndarray:
        return np.array([float(x) for x in self.pi])

    def pi2_float(self) -> np.ndarray:
        return np.array([[float(x) for x in row] for row in self.pi2])


def exact_rejective(p, n):
    """The size-n rejective design with working probabilities ``p``, in
    ``fractions.Fraction`` arithmetic from the floats as given (each is an
    exact rational).

    With odds w_i = p_i / (1 - p_i), a sample s has mass prod_{i in s} w_i
    / e_n(w), e_k the elementary symmetric polynomials, so
    pi_i = w_i e_{n-1}(w without i) / e_n(w) and, for i != j,
    pi_ij = w_i w_j e_{n-2}(w without i, j) / e_n(w); P(S = n) is
    e_n(w) prod_i (1 - p_i).  No rounding anywhere.
    """
    p = [Fraction(float(x)) for x in p]
    w = [x / (1 - x) for x in p]
    N = len(w)
    e = _elementary(w, n)
    loo = [_without(e, x) for x in w]
    pi = [w[i] * loo[i][n - 1] / e[n] for i in range(N)]
    pi2 = [[pi[i] if i == j else Fraction(0) for j in range(N)] for i in range(N)]
    for i, j in itertools.combinations(range(N), 2) if n >= 2 else ():
        pi2[i][j] = pi2[j][i] = w[i] * w[j] * _without(loo[i], w[j])[n - 2] / e[n]
    return ExactRejective(size_prob=e[n] * math.prod(1 - x for x in p), pi=pi, pi2=pi2)


def exact_inclusion(design):
    """An srswor, Bernoulli or Poisson design's pi and pi_ij (diagonal
    pi_i) as exact rationals: n/N and n(n-1)/(N(N-1)) for srswor, and pi_i
    (the floats as given) and pi_i pi_j for the product designs; a
    rejective design's are :func:`exact_rejective`'s."""
    N = design.N
    if design.kind == "srswor":
        n = design.size
        pi = [Fraction(n, N)] * N
        pairs = [[Fraction(n * (n - 1), N * (N - 1))] * N for _ in range(N)]
    else:
        pi = [Fraction(float(x)) for x in dsg.first_order_pi(design)]
        pairs = [[x * y for y in pi] for x in pi]
    return pi, [[pi[i] if i == j else pairs[i][j] for j in range(N)] for i in range(N)]


def exact_ratio_form(pi, pi2, a):
    """a^T Delta a in rational arithmetic, Delta_ij = (pi_ij - pi_i pi_j) /
    (pi_i pi_j) for the rationals of :func:`exact_inclusion`, with ``a`` of
    shape (N, K) (each float an exact rational): a K x K nested list of
    Fractions."""
    a = [[Fraction(float(x)) for x in row] for row in np.asarray(a, dtype=float)]
    N, K = len(a), len(a[0])
    delta_a = [[sum((pi2[i][j] / (pi[i] * pi[j]) - 1) * a[j][k] for j in range(N))
                for k in range(K)] for i in range(N)]
    return [[sum(a[i][k] * delta_a[i][l] for i in range(N)) for l in range(K)]
            for k in range(K)]
