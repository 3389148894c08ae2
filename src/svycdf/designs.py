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
probabilities and the sampler; it is the only (N+1) x (n+1) array the
program keeps, and it is refused above :data:`MAX_DP_TABLE_BYTES`.  The
prefix distributions are only read in unit order, so they are streamed:
one row, or one block of rows, at a time, updated in place.  The pairwise
probabilities take one sweep
over the units that keeps every leave-one-out prefix distribution at once:
N vectorized steps, O(N^2 n) flops, bitwise equal to rebuilding the
program for each pair.  The sampler walks the units left to right,
including each with the conditional probability of still reaching the
target size; it is vectorized across samples by jumping from one inclusion
to the next, so a batch of samples costs n steps, each over a short window
of units per sample.

One sampler, :func:`draw`, serves every design: it takes a batch of
generators and draws one sample from each.  Every sample consumes only its
own generator, so a sample drawn in a batch equals the same generator drawn
alone.  A drawn sample (:class:`SampleDraw`) is its included unit indices
in increasing order, with their inclusion probabilities and responses; no
N-length indicator vector is formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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

def _pb_step(row: np.ndarray, p: float, out: np.ndarray,
             scratch: np.ndarray) -> None:
    """Add one Bernoulli(p) trial to the partial-sum PMF ``row``, into ``out``.

    ``out[k] = row[k] (1-p) + row[k-1] p``, truncated to the width of
    ``row``; ``scratch`` holds one element less.  Nothing is allocated, and
    ``out`` must not overlap ``row``.
    """
    np.multiply(row, 1.0 - p, out=out)
    np.multiply(row[:-1], p, out=scratch)
    out[1:] += scratch


def _pb_forward(probs: np.ndarray, n_max: int) -> np.ndarray:
    """Partial-sum PMF table of independent Bernoulli trials.

    Row i holds P(X_1 + ... + X_i = k) for k = 0..n_max; counts above
    n_max are truncated away, so rows sum to at most one.  The rejective
    design builds it only on its reversed working probabilities, as the
    suffix table.
    """
    m = probs.size
    table = np.zeros((m + 1, n_max + 1))
    table[0, 0] = 1.0
    scratch = np.empty(n_max)
    for i in range(m):
        _pb_step(table[i], probs[i], table[i + 1], scratch)
    return table


#: the suffix table of a rejective design is an (N+1) x (n+1) float64 array;
#: it is refused above this many bytes, 1074 MB (N=10000, n=500 needs 40 MB)
MAX_DP_TABLE_BYTES = 2**30


def _check_dp_table(N: int, n: int) -> None:
    """Refuse a suffix table of more than :data:`MAX_DP_TABLE_BYTES`."""
    nbytes = 8 * (N + 1) * (n + 1)
    if nbytes > MAX_DP_TABLE_BYTES:
        raise CapacityError(
            f"the rejective dynamic program needs an (N+1) x (n+1) float64 table "
            f"({nbytes / 1e6:.0f} MB at N={N}, n={n}); limited to "
            f"{MAX_DP_TABLE_BYTES / 1e6:.0f} MB")


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


#: the prefix rows and the reversed suffix rows of one first-order block
#: together take at most this many bytes
_BLOCK_BYTES = 2**20


def _rejective_first_order(p: np.ndarray, n: int,
                           bwd: np.ndarray | None = None) -> np.ndarray:
    """Exact inclusion probabilities of the size-n conditional design.

    pi_i = p_i P(S_{-i} = n-1) / P(S = n), with the leave-one-out sum
    assembled from prefix and suffix PMFs (additions of nonnegative terms
    only, so no catastrophic cancellation), one dot product per unit over
    blocks of units.  The suffix table ``bwd`` of ``p`` (built here when not
    given) is the only N x (n+1) array: the prefix PMFs are streamed, one
    block of rows at a time, and P(S = n) is read from the last of them.
    """
    N = p.size
    if bwd is None:
        bwd = _pb_forward(p[::-1], n)
    block = max(1, _BLOCK_BYTES // (8 * (2 * n + 1)))
    rows = np.empty((min(block, N), n + 1))     # prefix PMFs of one block
    last = np.zeros(n + 1)                      # prefix PMF of the next unit
    last[0] = 1.0
    scratch = np.empty(n)
    dots = np.empty(N)
    for start in range(0, N, block):
        stop = min(N, start + block)
        size = stop - start
        rows[0] = last
        for k in range(1, size):
            _pb_step(rows[k - 1], p[start + k - 1], rows[k], scratch)
        _pb_step(rows[size - 1], p[stop - 1], last, scratch)
        dots[start:stop] = np.vecdot(rows[:size, :n],
                                     _reversed_suffix_rows(bwd, start, stop, n))
    total = last[n]
    if total <= 0.0:
        raise DegenerateDesignError(f"P(sample size = {n}) is zero")
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
    for every such i, so step j gives all p_i p_j P(S_{-i,-j} = n-2), i < j,
    from one batch of dot products with a single reversed suffix row; it
    then adds unit j to every kept PMF and starts the row of i = j from the
    prefix PMF of the units before j, one row carried along the sweep.
    P(S = n) is read from that row at the end, and every entry divided by
    it.  Every entry is the same floating-point expression, in the same
    order, as in a dynamic program rebuilt on the N-1 units left by each i,
    so the result is bitwise that of the pair-by-pair computation.  Cost:
    O(N^2 n) flops in N vectorized steps; memory: the N x N output and the
    N x (n-1) kept PMFs.
    """
    N = p.size
    pi2 = np.zeros((N, N))
    left = np.empty((N, n - 1))
    prefix, nxt = np.zeros(n + 1), np.empty(n + 1)
    prefix[0] = 1.0
    scratch = np.empty(n)
    for j in range(N):
        if n >= 2:
            if j:
                after = _reversed_suffix_rows(bwd, j, j + 1, n - 1)[0]
                vals = p[:j] * p[j] * np.vecdot(left[:j], after)
                pi2[j, :j] = vals
                pi2[:j, j] = vals
                carry = left[:j, :-1] * p[j]
                left[:j] *= 1.0 - p[j]
                left[:j, 1:] += carry
            left[j] = prefix[: n - 1]
        _pb_step(prefix, p[j], nxt, scratch)
        prefix, nxt = nxt, prefix
    total = prefix[n]
    if total <= 0.0:
        raise DegenerateDesignError(f"P(sample size = {n}) is zero")
    pi2 /= total
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
            _check_dp_table(self.N, self.size)
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

    ``included`` holds the sampled unit indices in increasing order,
    ``pi_included`` their first-order inclusion probabilities and
    ``expected_n`` the design-expected sample size.  ``y_included``
    carries the response values of the sampled units, so estimators can
    work from the draw alone; a draw built without them cannot be
    estimated from.
    """

    included: np.ndarray
    pi_included: np.ndarray
    expected_n: float
    y_included: np.ndarray | None = None


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

#: a batch holds at most this many samples, and N float64 per sample (the
#: uniforms of a rejective walk) in at most this many bytes: past a few
#: dozen samples the per-batch cost of the walk and of the poverty kernel is
#: already shared, while every held draw still costs memory
_BATCH_SAMPLES = 64
_BATCH_BYTES = 4 * 2**20


def batch_rows(design: Design) -> int:
    """Most samples one :func:`draw` call draws from the design: 64, or
    fewer where N float64 per sample would pass 4 MiB."""
    return max(1, min(_BATCH_SAMPLES, _BATCH_BYTES // (8 * design.N)))


def draw(design: Design, rngs, y) -> list[SampleDraw]:
    """Draw one sample per numpy Generator in ``rngs`` (at most
    :func:`batch_rows` of them), in order, carrying the responses ``y`` of
    its units.

    The caller owns the streams, so replications can run concurrently
    without coordination, and a sample is the same in any batch.  The
    rejective sampler is sequential and exact: walking units left to
    right, unit i enters with probability p_i P(suffix fills m-1) /
    P(suffix fills m) where m is the number of slots still open, which
    reproduces the conditional law with exactly n inclusions; the samples
    of a call share one vectorized walk over N uniforms per generator.
    """
    rngs = list(rngs)
    rows = batch_rows(design)
    if len(rngs) > rows:
        raise CapacityError(f"a {design.kind} batch holds at most {rows} samples "
                            f"on N={design.N} units, got {len(rngs)}")
    N = design.N
    pi = first_order_pi(design)
    expected_n = design.expected_size
    if design.kind == "rejective":
        us = np.empty((len(rngs), N))
        for row, rng in zip(us, rngs):
            rng.random(out=row)
        picks = _rejective_walk(design, us)
    elif design.kind == "srswor":
        picks = [np.sort(rng.choice(N, size=design.size, replace=False)) for rng in rngs]
    else:
        picks = [np.flatnonzero(rng.random(N) < pi) for rng in rngs]
    y = np.asarray(y, dtype=float)
    return [SampleDraw(included=included, pi_included=pi[included], expected_n=expected_n,
                       y_included=y[included])
            for included in picks]


def _rejective_walk(design: Design, us: np.ndarray) -> np.ndarray:
    """Included positions of the sequential rejective sampler, shape
    ``(S, n)`` in increasing order along a row, one row per row of
    uniforms ``us`` (shape ``(S, N)``).

    With m slots open the walk jumps, for every sample at once, to the
    next unit r where ``u_r < p_r * suffix[N-r-1, m-1] / suffix[N-r, m]``
    (the same floating-point expression as a unit-by-unit walk, so the
    sample is identical), or to unit N-m, from which every unit must be
    included.  Each jump scans a window of about 4 N/n units per
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
    included = np.empty((S, n), dtype=np.intp)
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
        included[:, n - m] = pos
        pos += 1
    return included


# ---------------------------------------------------------------------------
# Calibration and design constants
# ---------------------------------------------------------------------------

def _renormalize_odds(odds: np.ndarray, n: int) -> np.ndarray:
    """Scale the odds vector so the implied p sums to n (sum c*o/(1+c*o) = n).

    The sum is increasing in log c: after widening a bracket around 0,
    log c is found by bisection, run until the midpoint rounds to an end.
    """

    def gap(log_c):
        co = np.exp(log_c) * odds
        return float(np.sum(co / (1.0 + co))) - n

    lo, hi = -1.0, 1.0
    while gap(lo) > 0.0:
        lo -= 8.0
    while gap(hi) < 0.0:
        hi += 8.0
    while (log_c := 0.5 * (lo + hi)) not in (lo, hi):
        if gap(log_c) < 0.0:
            lo = log_c
        else:
            hi = log_c
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
    _check_dp_table(N, n)
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
