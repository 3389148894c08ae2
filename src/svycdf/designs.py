"""Single-stage sampling designs with exact inclusion probabilities.

Four designs are provided: simple random sampling without replacement
(``srswor``), Bernoulli sampling, Poisson sampling, and conditional
Poisson sampling of fixed size n (``rejective``), the maximum-entropy
fixed-size design whose mass is proportional to the product of the odds
p_i / (1 - p_i) over sampled units.

Rejective quantities are exact, not asymptotic: first and second order
inclusion probabilities come from a Poisson-binomial dynamic program over
prefix and suffix partial-sum distributions.  The suffix table is built
once per design and serves the first-order probabilities, the pairwise
probabilities and the sampler.  The pairwise probabilities take one sweep
over the units that keeps every leave-one-out prefix distribution at once:
N vectorized steps, O(N^2 n) flops, bitwise equal to rebuilding the
program for each pair.  The sampler walks the units left to right,
including each with the conditional probability of still reaching the
target size; it is vectorized across samples by jumping from one inclusion
to the next, so a batch of samples (:func:`draw_batch`) costs n steps, each
over a short window of units per sample.  Every sample consumes its own
generator's N uniforms, so a sample drawn in a batch equals the same sample
drawn alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import brentq

from .asymptotics import DesignConstants
from .errors import (
    CalibrationError,
    CapacityError,
    DegenerateDesignError,
    ParameterError,
)

_P_CLIP = 1e-12


# ---------------------------------------------------------------------------
# Poisson-binomial dynamic program
# ---------------------------------------------------------------------------

def _pb_forward(probs: np.ndarray, n_max: int) -> np.ndarray:
    """Partial-sum PMF table of independent Bernoulli trials.

    Row i holds P(X_1 + ... + X_i = k) for k = 0..n_max; counts above
    n_max are truncated away, so rows sum to at most one.
    """
    m = probs.size
    table = np.zeros((m + 1, n_max + 1))
    table[0, 0] = 1.0
    for i in range(m):
        p = probs[i]
        row = table[i]
        nxt = row * (1.0 - p)
        nxt[1:] += row[:-1] * p
        table[i + 1] = nxt
    return table


def _reversed_suffix_rows(suffix: np.ndarray, start: int, stop: int,
                          width: int) -> np.ndarray:
    """The suffix PMFs of units ``start..stop-1`` read from the top count down.

    Row k is ``suffix[N-1-i, :width][::-1]`` for unit i = start + k: the
    PMF of the units after i, reversed so that a dot product with a prefix
    row of the same width sums P(prefix = c) P(suffix = width-1-c).  The
    rows are a contiguous copy, so the dot product runs in BLAS exactly as
    ``np.dot`` runs it on a single pair of rows.
    """
    N = suffix.shape[0] - 1
    return np.ascontiguousarray(suffix[N - stop:N - start][::-1, width - 1::-1])


#: the reversed suffix rows of one first-order block are copied in at most
#: this many bytes
_BLOCK_BYTES = 2**20


def _rejective_first_order(p: np.ndarray, n: int,
                           fwd: np.ndarray | None = None,
                           bwd: np.ndarray | None = None) -> np.ndarray:
    """Exact inclusion probabilities of the size-n conditional design.

    pi_i = p_i P(S_{-i} = n-1) / P(S = n), with the leave-one-out sum
    assembled from prefix and suffix PMF tables (additions of nonnegative
    terms only, so no catastrophic cancellation), one dot product per unit
    over blocks of units.
    """
    N = p.size
    if fwd is None:
        fwd = _pb_forward(p, n)
    if bwd is None:
        bwd = _pb_forward(p[::-1], n)
    total = fwd[N, n]
    if total <= 0.0:
        raise DegenerateDesignError(f"P(sample size = {n}) is zero")
    dots = np.empty(N)
    block = max(1, _BLOCK_BYTES // (8 * n))
    for start in range(0, N, block):
        stop = min(N, start + block)
        dots[start:stop] = np.vecdot(fwd[start:stop, :n],
                                     _reversed_suffix_rows(bwd, start, stop, n))
    return p * dots / total


#: the pairwise inclusion probabilities of a design on N units form an
#: N x N float64 matrix, 32 MB at this limit; the rejective sweep also keeps
#: an N x (n-1) table of the same order
MAX_PAIRWISE_UNITS = 2000


def _rejective_second_order(p: np.ndarray, n: int, pi: np.ndarray,
                            bwd: np.ndarray) -> np.ndarray:
    """Exact pairwise inclusion probabilities of the size-n conditional design.

    pi_ij = p_i p_j P(S_{-i,-j} = n-2) / P(S = n), with ``bwd`` the suffix
    PMF table of ``p`` (at least n-1 counts).  One sweep over j = 0..N-1
    keeps, for every i < j, the PMF of the units before j with unit i left
    out (row i of ``left``, counts 0..n-2).  The units after j are the same
    for every such i, so step j gives all pi_ij, i < j, from one batch of
    dot products with a single reversed suffix row; it then adds unit j to
    every kept PMF and starts the row of i = j from the prefix table.
    Every entry is the same floating-point expression, in the same order,
    as in a dynamic program rebuilt on the N-1 units left by each i, so the
    result is bitwise that of the pair-by-pair computation.  Cost: O(N^2 n)
    flops in N vectorized steps; memory: the N x N output and the
    N x (n-1) kept PMFs.
    """
    N = p.size
    fwd = _pb_forward(p, n)
    total = fwd[N, n]
    if total <= 0.0:
        raise DegenerateDesignError(f"P(sample size = {n}) is zero")
    pi2 = np.zeros((N, N))
    if n >= 2:
        left = np.empty((N, n - 1))
        for j in range(N):
            if j:
                after = _reversed_suffix_rows(bwd, j, j + 1, n - 1)[0]
                vals = p[:j] * p[j] * np.vecdot(left[:j], after) / total
                pi2[j, :j] = vals
                pi2[:j, j] = vals
                carry = left[:j, :-1] * p[j]
                left[:j] *= 1.0 - p[j]
                left[:j, 1:] += carry
            left[j] = fwd[j, : n - 1]
    np.fill_diagonal(pi2, pi)
    return pi2


# ---------------------------------------------------------------------------
# Designs
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Design:
    """A single-stage sampling design on a population of ``N`` units.

    Use the factory functions :func:`srswor`, :func:`bernoulli`,
    :func:`poisson` and :func:`rejective`; instances are treated as
    immutable after construction.
    """

    kind: str
    N: int
    size: int | None = None           # fixed sample size (srswor, rejective)
    rate: float | None = None         # common inclusion probability (bernoulli)
    pi: np.ndarray | None = None      # per-unit inclusion probabilities (poisson)
    working_p: np.ndarray | None = None  # working probabilities (rejective)
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.N < 1:
            raise ParameterError("population size must be at least 1")
        if self.kind == "srswor":
            if self.size is None or not 1 <= self.size <= self.N:
                raise ParameterError(f"srswor needs 1 <= n <= N, got n={self.size}, N={self.N}")
        elif self.kind == "bernoulli":
            if self.rate is None or not 0.0 < self.rate < 1.0:
                raise ParameterError(f"bernoulli rate must lie in (0, 1), got {self.rate}")
        elif self.kind == "poisson":
            pi = np.asarray(self.pi, dtype=float)
            if pi.shape != (self.N,):
                raise ParameterError("poisson needs one probability per unit")
            if not np.all((pi > 0.0) & (pi <= 1.0)):      # NaN fails both tests
                raise ParameterError("poisson probabilities must lie in (0, 1]")
            pi.setflags(write=False)
            self.pi = pi
        elif self.kind == "rejective":
            p = np.asarray(self.working_p, dtype=float)
            if p.shape != (self.N,):
                raise ParameterError("rejective needs one working probability per unit")
            if not np.all((p > 0.0) & (p < 1.0)):
                raise ParameterError("rejective working probabilities must lie strictly in (0, 1)")
            if self.size is None or not 1 <= self.size <= self.N - 1:
                raise ParameterError(f"rejective needs 1 <= n <= N-1, got n={self.size}, N={self.N}")
            p.setflags(write=False)
            self.working_p = p
        else:
            raise ParameterError(f"unknown design kind {self.kind!r}")

    def __getstate__(self):
        # a pickled design (a pool task) leaves its cached tables behind;
        # they are rebuilt on demand
        return {**self.__dict__, "_cache": {}}

    @property
    def expected_size(self) -> float:
        """Design expectation of the sample size."""
        if self.kind in ("srswor", "rejective"):
            return float(self.size)
        if self.kind == "bernoulli":
            return self.N * self.rate
        return float(np.sum(self.pi))

    def _suffix_table(self) -> np.ndarray:
        """Suffix PMF rows for the sequential rejective sampler (cached)."""
        tab = self._cache.get("suffix")
        if tab is None:
            tab = _pb_forward(self.working_p[::-1], self.size)
            self._cache["suffix"] = tab
        return tab


def srswor(N: int, n: int) -> Design:
    """Simple random sampling without replacement of fixed size n."""
    return Design(kind="srswor", N=N, size=n)


def bernoulli(N: int, p: float) -> Design:
    """Independent inclusion of every unit with common probability p."""
    return Design(kind="bernoulli", N=N, rate=p)


def poisson(pi) -> Design:
    """Independent inclusion of unit i with probability pi[i]."""
    pi = np.asarray(pi, dtype=float)
    return Design(kind="poisson", N=pi.size, pi=pi)


def rejective(p, n: int) -> Design:
    """Conditional Poisson sampling: Poisson with working probabilities p,
    conditioned on the realized size equaling n."""
    p = np.asarray(p, dtype=float)
    return Design(kind="rejective", N=p.size, size=n, working_p=p)


@dataclass(eq=False)
class SampleDraw:
    """One realized sample.

    ``indicators`` is the full-length inclusion vector, ``included`` the
    sampled indices, ``pi_included`` their first-order inclusion
    probabilities and ``expected_n`` the design-expected sample size.
    ``y_included`` optionally carries the response values of the sampled
    units so estimators can work from the draw alone.
    """

    indicators: np.ndarray
    included: np.ndarray
    pi_included: np.ndarray
    expected_n: float
    y_included: np.ndarray | None = None

    @property
    def size(self) -> int:
        return int(self.included.size)

    def n_hat(self) -> float:
        """Inverse-probability estimate of the population size."""
        return float(np.sum(1.0 / self.pi_included))

    def with_values(self, y) -> "SampleDraw":
        """Attach the response values of the included units."""
        y = np.asarray(y, dtype=float)
        return replace(self, y_included=y[self.included])


# ---------------------------------------------------------------------------
# Inclusion probabilities
# ---------------------------------------------------------------------------

def first_order_pi(design: Design) -> np.ndarray:
    """Exact first-order inclusion probabilities (cached on the design)."""
    pi = design._cache.get("pi")
    if pi is not None:
        return pi
    if design.kind == "srswor":
        pi = np.full(design.N, design.size / design.N)
    elif design.kind == "bernoulli":
        pi = np.full(design.N, design.rate)
    elif design.kind == "poisson":
        pi = design.pi.copy()
    else:
        pi = _rejective_first_order(design.working_p, design.size,
                                    bwd=design._suffix_table())
    pi.setflags(write=False)
    design._cache["pi"] = pi
    return pi


def second_order_pi(design: Design) -> np.ndarray:
    """Exact pairwise inclusion probabilities, diagonal pi_ii = pi_i.

    The result is an N x N matrix, so N is limited to
    :data:`MAX_PAIRWISE_UNITS` for every design.
    """
    N = design.N
    if N > MAX_PAIRWISE_UNITS:
        raise CapacityError(
            f"pairwise inclusion probabilities form an N x N float64 matrix "
            f"({8 * N * N / 1e6:.0f} MB at N={N}); limited to "
            f"N <= {MAX_PAIRWISE_UNITS} ({8 * MAX_PAIRWISE_UNITS**2 / 1e6:.0f} MB)")
    pi = first_order_pi(design)
    if design.kind == "srswor":
        n = design.size
        off = n * (n - 1) / (N * (N - 1)) if N > 1 else 0.0
        pi2 = np.full((N, N), off)
    elif design.kind in ("bernoulli", "poisson"):
        pi2 = np.outer(pi, pi)
    else:
        return _rejective_second_order(design.working_p, design.size, pi,
                                       design._suffix_table())
    np.fill_diagonal(pi2, pi)
    return pi2


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------

def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def draw(design: Design, rng, y=None) -> SampleDraw:
    """Draw one sample from the design.

    ``rng`` is a numpy Generator (or a seed for one); the caller owns the
    stream, so replications can run concurrently without coordination.
    The rejective sampler is sequential and exact: walking units left to
    right, unit i enters with probability p_i P(suffix fills m-1) /
    P(suffix fills m) where m is the number of slots still open, which
    reproduces the conditional law with exactly n inclusions.  A single
    draw runs the batched walk of :func:`draw_batch` on one row of N
    uniforms.
    """
    rng = _as_generator(rng)
    N = design.N
    if design.kind == "srswor":
        idx = rng.choice(N, size=design.size, replace=False)
        indicators = np.zeros(N, dtype=bool)
        indicators[idx] = True
    elif design.kind == "bernoulli":
        indicators = rng.random(N) < design.rate
    elif design.kind == "poisson":
        indicators = rng.random(N) < design.pi
    else:
        indicators = _rejective_walk(design, rng.random((1, N)))[0]
    return _finish_draw(design, indicators, y)


#: a batch holds at most this many samples, and N float64 per sample (the
#: uniforms of a rejective walk) in at most this many bytes: past a few
#: dozen samples the per-batch cost of the walk and of the poverty kernel is
#: already shared, while every held draw still costs memory
_BATCH_SAMPLES = 64
_BATCH_BYTES = 4 * 2**20


def batch_rows(design: Design) -> int:
    """Most samples one :func:`draw_batch` call draws from the design: 64,
    or fewer where N float64 per sample would pass 4 MiB."""
    return max(1, min(_BATCH_SAMPLES, _BATCH_BYTES // (8 * design.N)))


def draw_batch(design: Design, rngs, y=None) -> list[SampleDraw]:
    """Draw one sample per generator in ``rngs`` (at most
    :func:`batch_rows` of them), in order.

    Each sample equals ``draw(design, rng, y)`` for its generator; for a
    rejective design the samples share one vectorized walk.
    """
    rngs = list(rngs)
    rows = batch_rows(design)
    if len(rngs) > rows:
        raise CapacityError(f"a {design.kind} batch holds at most {rows} samples "
                            f"on N={design.N} units, got {len(rngs)}")
    if design.kind != "rejective":
        return [draw(design, rng, y) for rng in rngs]
    indicators = _rejective_walk(design, _uniform_rows(rngs, design.N))
    return [_finish_draw(design, row, y) for row in indicators]


def _uniform_rows(rngs: list, N: int) -> np.ndarray:
    """N uniforms from each generator, one row each."""
    us = np.empty((len(rngs), N))
    for row, rng in zip(us, rngs):
        _as_generator(rng).random(out=row)
    return us


def _rejective_walk(design: Design, us: np.ndarray) -> np.ndarray:
    """Inclusion indicators of the sequential rejective sampler, one row per
    row of uniforms ``us`` (shape ``(S, N)``).

    With m slots open the walk jumps, for every sample at once, to the
    next unit r where ``u_r < p_r * suffix[N-r-1, m-1] / suffix[N-r, m]``
    (the same floating-point expression as a unit-by-unit walk, so the
    indicators are identical), or to unit N-m, from which every unit must
    be included.  Each jump scans a window of about 4 N/n units per
    sample and widens past it only for the samples with no hit.
    """
    p, n = design.working_p, design.size
    S, N = us.shape
    rev = design._suffix_table()[::-1]          # rev[r] = suffix[N - r]
    width = min(N, max(2, 4 * N // n))
    window = np.arange(width)
    flat = us.ravel()
    rows = np.arange(S)
    offset = (rows * N)[:, None]
    pos = np.zeros(S, dtype=np.intp)
    indicators = np.zeros((S, N), dtype=bool)
    for m in range(n, 0, -1):
        stop = N - m
        below, above = rev[1:, m - 1], rev[:, m]
        todo, start = rows, pos      # start reads only rows not yet found
        while True:
            cols = np.minimum(start[:, None] + window, stop)
            hit = flat[offset[todo] + cols] < p[cols] * below[cols] / above[cols]
            hit |= cols == stop
            first = hit.argmax(axis=1)
            k = np.arange(todo.size)
            found = hit[k, first]
            pos[todo[found]] = cols[k, first][found]
            if found.all():
                break
            todo, start = todo[~found], start[~found] + width
        indicators[rows, pos] = True
        pos += 1
    return indicators


def _finish_draw(design: Design, indicators: np.ndarray, y) -> SampleDraw:
    included = np.flatnonzero(indicators)
    return SampleDraw(indicators=indicators, included=included,
                      pi_included=first_order_pi(design)[included],
                      expected_n=design.expected_size,
                      y_included=None if y is None else np.asarray(y, dtype=float)[included])


# ---------------------------------------------------------------------------
# Calibration and design constants
# ---------------------------------------------------------------------------

def _renormalize_odds(odds: np.ndarray, n: int) -> np.ndarray:
    """Scale the odds vector so the implied p sums to n (sum c*o/(1+c*o) = n)."""

    def gap(log_c):
        co = np.exp(log_c) * odds
        return float(np.sum(co / (1.0 + co))) - n

    lo, hi = -1.0, 1.0
    while gap(lo) > 0.0:
        lo -= 8.0
    while gap(hi) < 0.0:
        hi += 8.0
    log_c = brentq(gap, lo, hi, xtol=1e-14)
    co = np.exp(log_c) * odds
    return np.clip(co / (1.0 + co), _P_CLIP, 1.0 - _P_CLIP)


def calibrate_rejective_p(target_pi, n: int, tol: float = 1e-10,
                          max_iter: int = 1000) -> np.ndarray:
    """Find working probabilities whose size-n conditional design has the
    given first-order inclusion probabilities.

    Damped multiplicative fixed point: p <- p * target / pi(p) in odds
    space, renormalized each step so sum(p) = n; the step is halved (in
    log scale) whenever the max-norm residual grows.  Such a p always
    exists and is unique up to a common odds factor.  Returns the working
    probabilities of :func:`calibrated_rejective`.
    """
    return calibrated_rejective(target_pi, n, tol, max_iter).working_p


def calibrated_rejective(target_pi, n: int, tol: float = 1e-10,
                         max_iter: int = 1000) -> Design:
    """The size-n rejective design calibrated to ``target_pi`` (see
    :func:`calibrate_rejective_p`).

    Its first-order inclusion probabilities are the ones computed at the
    final, converged iteration, identical to what :func:`first_order_pi`
    would compute afresh.
    """
    t = np.asarray(target_pi, dtype=float)
    N = t.size
    if not np.all((t > 0.0) & (t < 1.0)):
        raise ParameterError("target inclusion probabilities must lie strictly in (0, 1)")
    if not 1 <= n <= N - 1:
        raise ParameterError(f"need 1 <= n <= N-1, got n={n}, N={N}")
    if abs(float(t.sum()) - n) > 1e-9:
        raise ParameterError(
            f"target inclusion probabilities must sum to n={n}, got {t.sum():.12g}")
    if not (np.isfinite(tol) and tol > 0.0):
        raise ParameterError(f"tol must be positive and finite, got {tol}")
    if max_iter < 1:
        raise ParameterError(f"max_iter must be at least 1, got {max_iter}")
    p = t.copy()
    prev_resid = np.inf
    resid = np.inf
    for _ in range(max_iter):
        pi = _rejective_first_order(p, n)
        resid = float(np.max(np.abs(pi - t)))
        if resid <= tol:
            design = rejective(p, n)
            pi.setflags(write=False)
            design._cache["pi"] = pi
            return design
        update = t / pi
        if resid > prev_resid:
            update = np.sqrt(update)
        prev_resid = resid
        odds = (p / (1.0 - p)) * update
        p = _renormalize_odds(odds, n)
    raise CalibrationError(
        f"calibration stopped after {max_iter} iterations with residual {resid:.3e}",
        residual=resid, iterations=max_iter)


def design_constants(design: Design) -> DesignConstants:
    """Covariance constants of this design at its finite N.

    lam = n/N, mu1 = (n/N^2) sum(1/pi - 1) and d = sum pi(1-pi) are exact
    for every design.  mu2 is exact for srswor (lam - 1, a finite-N
    identity) and for the independent designs (zero).  For rejective
    designs it is not exact: it is the leading term
    -(n/N^2) sum_{i != j} (1-pi_i)(1-pi_j) / d of Hajek's expansion of
    the pairwise ratios (pi_ij - pi_i pi_j) / (pi_i pi_j).
    """
    pi = first_order_pi(design)
    N = design.N
    n = design.expected_size
    lam = n / N
    mu1 = (n / N**2) * float(np.sum(1.0 / pi - 1.0))
    d = float(np.sum(pi * (1.0 - pi)))
    if design.kind == "srswor":
        mu2 = lam - 1.0
    elif design.kind in ("bernoulli", "poisson"):
        mu2 = 0.0
    else:
        q = 1.0 - pi
        if d <= 0.0:
            raise DegenerateDesignError("entropy scale d is zero")
        mu2 = -(n / (N**2 * d)) * (float(q.sum()) ** 2 - float(np.sum(q * q)))
    return DesignConstants(lam=lam, mu1=mu1, mu2=mu2, d=d)
