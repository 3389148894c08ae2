"""Single-stage sampling designs with exact inclusion probabilities.

Four designs are provided: simple random sampling without replacement
(``srswor``), Bernoulli sampling, Poisson sampling, and conditional
Poisson sampling of fixed size n (``rejective``), the maximum-entropy
fixed-size design whose mass is proportional to the product of the odds
p_i / (1 - p_i) over sampled units.

Rejective quantities are exact, not asymptotic: first and second order
inclusion probabilities come from a Poisson-binomial dynamic program over
prefix and suffix partial-sum distributions, whose rows one kernel advances
in place.  The suffix table is built once per design, top count first, so
each suffix distribution a dot product reads from the top count down is a
contiguous slice of a row.  It serves the first-order probabilities, the
pairwise probabilities and the sampler; it is the only (N+1) x (n+1) array
the program keeps, and it is refused above :data:`MAX_DP_TABLE_BYTES`.  The prefix distributions are
only read in unit order, so they are streamed, one block of rows at a time.
The pairwise probabilities take one sweep over the units that keeps every
leave-one-out prefix distribution at once: N vectorized steps, O(N^2 n)
flops, bitwise equal to rebuilding the program for each pair.  The sampler
walks the units left to right, including each with the conditional
probability of still reaching the target size; it is vectorized across
samples by jumping from one inclusion to the next, so a batch of samples
costs n steps, each over a short window of units per sample.

A design whose units are those of another in a new order (:func:`relabel`)
reuses that design's first-order probabilities, reordered, instead of
rerunning the program.  They are exact up to rounding: they differ from
the program's values on the reordered units only by the order in which its
sums were added (at most 3.3e-15 relative, 19 units in the last place, on
the calibrated N=10000, n=500 split).  Its suffix table is built afresh in
the new order, so its samples are those of the rebuilt design.

One sampler, :func:`draw`, serves every design: it takes a batch of
generators and draws one sample from each.  Every sample consumes only its
own generator, so a sample drawn in a batch equals the same generator drawn
alone.  The samples of a call come back as one batch
(:class:`SampleBatch`): the included unit indices of every sample, sample
after sample and increasing within a sample, with their inclusion
probabilities and responses gathered once each, and one length per
sample; no N-length indicator vector is formed.

Calibration (:func:`calibrated_rejective`) fits working probabilities to
target inclusion probabilities by a fixed point.  Where every target is at
most 1/2, its iterates are evaluated by the O(n)-step recursion of Chen,
Dempster & Liu, which needs no table and agrees with the program to
rounding there; the program, run into one table the calibration allocates,
confirms the final iterate and alone decides convergence.  Above 1/2 every
iterate is an exact pass.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .asymptotics import DesignConstants
from .errors import (
    CalibrationError,
    CapacityError,
    DegenerateDesignError,
    ParameterError,
)

logger = logging.getLogger(__name__)

_P_CLIP = 1e-12


# ---------------------------------------------------------------------------
# Poisson-binomial dynamic program
# ---------------------------------------------------------------------------

def _pb_rows(table: np.ndarray, probs: np.ndarray, descending: bool = False) -> np.ndarray:
    """Fill rows 1.. of a partial-sum PMF table from its row 0, in place.

    Row i+1 adds one Bernoulli(p = probs[i]) trial to row i: count k gets
    row_i(k) (1-p) + row_i(k-1) p, truncated to the table width.  Columns
    hold counts 0, 1, .. (ascending layout) or, when ``descending``, counts
    w-1, w-2, .. 0 for a table w wide (top count first).  A step is three
    ufunc calls on preallocated rows, the same expression in either layout.
    p and q enter as stride-0 rows: an array operand dispatches faster than
    a scalar, and the products are the same.
    """
    if descending:
        heads, tails = table[:-1, 1:], table[1:, :-1]
    else:
        heads, tails = table[:-1, :-1], table[1:, 1:]
    width = table.shape[1]
    scratch = np.empty(width - 1)
    ps = np.broadcast_to(probs[:, None], (probs.size, width - 1))
    qs = np.broadcast_to((1.0 - probs)[:, None], (probs.size, width))
    for src, dst, head, tail, p, q in zip(table, table[1:], heads, tails, ps, qs):
        np.multiply(src, q, dst)        # positional ``out``: a shorter dispatch
        np.multiply(head, p, scratch)
        np.add(tail, scratch, tail)
    return table


def _pb_forward(probs: np.ndarray, n_max: int, out: np.ndarray | None = None) -> np.ndarray:
    """Partial-sum PMF table of independent Bernoulli trials, top count first,
    written into ``out`` when given.

    Row r, column c holds P(X_1 + ... + X_r = n_max - c); counts above
    n_max are truncated away, so rows sum to at most one.  Built on the
    reversed working probabilities of a rejective design, it is the suffix
    table: row r, column c is P(the last r units sum to n - c).
    """
    table = np.empty((probs.size + 1, n_max + 1)) if out is None else out
    table[0] = 0.0
    table[0, n_max] = 1.0
    return _pb_rows(table, probs, descending=True)


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


#: the prefix rows of one first-order block's units take at most this many
#: bytes (the buffer holds one more row, carried into the next block)
_BLOCK_BYTES = 2**20

#: the relative gap |sum(pi) - n| / n past which the first-order program is
#: refused.  Measured gaps: 2.3e-16 on the desk split (N=10000, n=500);
#: 3.3e-6 on a design whose sum(p) lies 50 standard deviations of the
#: sample size from n; a sum of 0.0 (every pi zero) for p ~ U(0.01, 0.5),
#: N=10000, n=500, where the leave-one-out dot products underflow while
#: P(S = n) stays positive.  On 600 random designs (N 100-3000, n 5 to N/4,
#: sum(p) up to 60 standard deviations from n): 409 within 4.2e-15, or
#: 3.9e-13 where every p sits at a floor of 1e-6; 184, all beyond 26
#: deviations, refused before this check with P(S = n) = 0; and 7 between
#: 1.7e-9 and 1.0: 1.6e-7 at 23 deviations, 0.04 and 1.0 past 31, and
#: 1.7e-9 to 4e-3 where every p sits at the floor
_PI_SUM_RTOL = 1e-9


def _rejective_first_order(p: np.ndarray, n: int, bwd: np.ndarray) -> np.ndarray:
    """Exact inclusion probabilities of the size-n conditional design.

    pi_i = p_i P(S_{-i} = n-1) / P(S = n), with the leave-one-out sum
    assembled from prefix and suffix PMFs (additions of nonnegative terms
    only, so no catastrophic cancellation), one dot product per unit over
    blocks of units.  ``bwd`` is the top-count-first suffix table of ``p``
    (see :func:`_pb_forward`) and the only N x (n+1) array: row N-1-i,
    columns 1..n, is the PMF of the units after i from count n-1 down, so a
    block reads its suffix rows as one view.
    The prefix PMFs (ascending layout) are streamed, one block of rows at a
    time, and P(S = n) is read from the last of them.  A result that does
    not sum to n within :data:`_PI_SUM_RTOL` relative is refused with
    :class:`DegenerateDesignError`.
    """
    N = p.size
    block = max(1, _BLOCK_BYTES // (8 * (n + 1)))
    rows = np.zeros((min(block, N) + 1, n + 1))  # prefix PMFs of one block
    rows[0, 0] = 1.0                             # and of the unit after it
    dots = np.empty(N)
    for start in range(0, N, block):
        stop = min(N, start + block)
        size = stop - start
        _pb_rows(rows[:size + 1], p[start:stop])
        dots[start:stop] = np.vecdot(rows[:size, :n], bwd[N - stop:N - start][::-1, 1:])
        rows[0] = rows[size]
    total = rows[0, n]
    if total <= 0.0:
        raise DegenerateDesignError(f"P(sample size = {n}) is zero")
    pi = p * dots / total
    pi_sum = float(pi.sum())
    if not abs(pi_sum - n) <= _PI_SUM_RTOL * n:     # NaN fails
        raise DegenerateDesignError(
            f"the inclusion probabilities sum to {pi_sum:.12g}, not n={n}: the "
            f"dynamic program lost them to underflow")
    return pi


#: the pairwise inclusion probabilities of a design on N units form an
#: N x N float64 matrix, 32 MB at this limit; the rejective sweep also keeps
#: an N x (n-1) table of the same order
MAX_PAIRWISE_UNITS = 2000


def _rejective_second_order(p: np.ndarray, n: int, pi: np.ndarray,
                            bwd: np.ndarray) -> np.ndarray:
    """Exact pairwise inclusion probabilities of the size-n conditional design.

    pi_ij = p_i p_j P(S_{-i,-j} = n-2) / P(S = n), with ``bwd`` the
    top-count-first suffix table of ``p`` (see :func:`_pb_forward`).  One
    sweep over j = 0..N-1 keeps, for every i < j, the PMF of the units
    before j with unit i left out (row i of ``left``, counts 0..n-2).  The
    units after j are the same for every such i, so step j gives all
    p_i p_j P(S_{-i,-j} = n-2), i < j, from one batch of dot products with
    a single suffix row read from count n-2 down, ``bwd[N-1-j, 2:]``; it
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
    prefix = np.zeros((2, n + 1))       # row 0: the units before j
    prefix[0, 0] = 1.0
    for j in range(N):
        if n >= 2:
            if j:
                vals = p[:j] * p[j] * np.vecdot(left[:j], bwd[N - 1 - j, 2:])
                pi2[j, :j] = vals
                pi2[:j, j] = vals
                carry = left[:j, :-1] * p[j]
                left[:j] *= 1.0 - p[j]
                left[:j, 1:] += carry
            left[j] = prefix[0, : n - 1]
        prefix[0] = _pb_rows(prefix, p[j:j + 1])[1]
    total = prefix[0, n]
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
        # a pickled design (a pool task) carries its first-order
        # probabilities (N floats) but leaves the suffix table behind; it is
        # rebuilt on demand
        cache = {k: v for k, v in self._cache.items() if k == "pi"}
        return {**self.__dict__, "_cache": cache}

    def __setstate__(self, state):
        self.__dict__.update(state)
        for arr in (self.pi, self.working_p, *self._cache.values()):
            if arr is not None:
                arr.setflags(write=False)

    @property
    def expected_size(self) -> float:
        """Design expectation of the sample size."""
        if self.kind in ("srswor", "rejective"):
            return float(self.size)
        if self.kind == "bernoulli":
            return self.N * self.rate
        return float(np.sum(self.pi))

    def _suffix_table(self) -> np.ndarray:
        """The top-count-first suffix table of the working probabilities
        (see :func:`_pb_forward`), shared by every rejective quantity (cached)."""
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


def relabel(design: Design, perm) -> Design:
    """The design with its units reordered: unit i of the result is unit
    ``perm[i]`` of ``design``.

    srswor and Bernoulli designs treat every unit alike and are returned
    as they are.  A Poisson design takes ``pi[perm]``.  A rejective design
    takes ``working_p[perm]`` and, as its first-order probabilities, those
    of ``design`` reordered by ``perm``: no dynamic program runs.  They
    equal what the program would compute on the reordered units up to the
    rounding of its sums (a few parts in 1e15).  The suffix table is not
    carried over; the sampler builds it, in the new order, on first use,
    so draws are those of ``rejective(working_p[perm], n)``.
    """
    if design.kind == "poisson":
        return poisson(design.pi[perm])
    if design.kind != "rejective":
        return design
    relabeled = rejective(design.working_p[perm], design.size)
    pi = first_order_pi(design)[perm]
    pi.setflags(write=False)
    relabeled._cache["pi"] = pi
    return relabeled


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """The samples of one :func:`draw` call, row r the r-th sample.

    ``included`` holds the sampled unit indices of every row, row after row
    and increasing within a row, ``pi`` and ``y`` their first-order
    inclusion probabilities and responses in the same order, and ``sizes``
    the row lengths; ``expected_n`` is the design-expected sample size.  A
    drawn batch's arrays are read-only.
    """

    included: np.ndarray
    pi: np.ndarray
    y: np.ndarray
    sizes: np.ndarray
    expected_n: float


# ---------------------------------------------------------------------------
# Inclusion probabilities
# ---------------------------------------------------------------------------

def first_order_pi(design: Design) -> np.ndarray:
    """Exact first-order inclusion probabilities (cached on the design).

    A rejective design runs the dynamic program once, on first use.  A
    calibrated design (:func:`calibrated_rejective`) carries the
    probabilities of its final calibration step, and a relabeled one
    (:func:`relabel`) those of its source design reordered: both are the
    program's values on their own units up to rounding.
    """
    pi = design._cache.get("pi")
    if pi is not None:
        return pi
    if design.kind == "srswor":
        pi = np.full(design.N, design.size / design.N)
    elif design.kind == "bernoulli":
        pi = np.full(design.N, design.rate)
    elif design.kind == "poisson":
        pi = design.pi          # read-only, so shared rather than copied
    else:
        pi = _rejective_first_order(design.working_p, design.size, design._suffix_table())
    pi.setflags(write=False)
    design._cache["pi"] = pi
    return pi


def second_order_pi(design: Design) -> np.ndarray:
    """Exact pairwise inclusion probabilities, diagonal pi_ii = pi_i.

    The result is an N x N matrix, so N is limited to
    :data:`MAX_PAIRWISE_UNITS` for every design.  The design variances of
    :mod:`svycdf.oracle` do not call it: they take the rejective moments
    from an O(N n) program.
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


def draw(design: Design, rngs, y) -> SampleBatch:
    """Draw one sample per numpy Generator in ``rngs`` (at least one, at
    most :func:`batch_rows`), in order, carrying the responses ``y``
    (one per unit) of its units.

    The caller owns the streams, so replications can run concurrently
    without coordination, and a sample is the same in any batch.  The
    rejective sampler is sequential and exact: walking units left to
    right, unit i enters with probability p_i P(suffix fills m-1) /
    P(suffix fills m) where m is the number of slots still open, which
    reproduces the conditional law with exactly n inclusions; the samples
    of a call share one vectorized walk over N uniforms per generator.
    """
    N = design.N
    y = np.asarray(y, dtype=float)
    if y.shape != (N,):
        raise ParameterError(f"draw needs one response per unit, shape ({N},), got {y.shape}")
    rngs = list(rngs)
    rows = batch_rows(design)
    if not rngs:
        raise ParameterError("draw needs at least one generator")
    if len(rngs) > rows:
        raise CapacityError(f"a {design.kind} batch holds at most {rows} samples "
                            f"on N={N} units, got {len(rngs)}")
    pi = first_order_pi(design)
    if design.kind == "rejective":
        us = np.empty((len(rngs), N))
        for row, rng in zip(us, rngs):
            rng.random(out=row)
        picks = _rejective_walk(design, us)
    elif design.kind == "srswor":
        picks = [np.sort(rng.choice(N, size=design.size, replace=False)) for rng in rngs]
    else:
        picks = [np.flatnonzero(rng.random(N) < pi) for rng in rngs]
    included = np.concatenate(picks)        # the walk's (S, n) rows too
    fields = included, pi[included], y[included], np.array([pick.size for pick in picks])
    for values in fields:
        values.setflags(write=False)
    return SampleBatch(*fields, expected_n=design.expected_size)


def _rejective_walk(design: Design, us: np.ndarray) -> np.ndarray:
    """Included positions of the sequential rejective sampler, shape
    ``(S, n)`` in increasing order along a row, one row per row of
    uniforms ``us`` (shape ``(S, N)``).

    With m slots open the walk jumps, for every sample at once, to the
    next unit r where u_r < p_r P(the units after r sum to m-1) / P(the
    units from r on sum to m) (the same floating-point expression as a
    unit-by-unit walk, so the sample is identical), or to unit N-m, from
    which every unit must be included.  The two suffix probabilities are
    columns n-m+1 and n-m of the design's top-count-first suffix table (see
    :func:`_pb_forward`).  Each jump scans a window of about 4 N/n units
    per sample and widens past it only for the samples with no hit.
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
        below, above = rev[1:, n - m + 1], rev[:, n - m]
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


def _recursive_first_order(p: np.ndarray, n: int) -> np.ndarray:
    """First-order inclusion probabilities of the size-n conditional design
    by the recursion of Chen, Dempster & Liu (1994) over the sample size:
    pi(k) = k w (1 - pi(k-1)) / sum(w (1 - pi(k-1))), w = p / (1 - p),
    pi(0) = 0.  It takes n vectorized steps over the N units and no table,
    where the dynamic program takes N steps over rows of n + 1 counts and
    an (N+1) x (n+1) table.

    Not exact: an error in pi_i(k-1) reaches pi_i(k) multiplied by about
    pi_i / (1 - pi_i), so it stays at rounding level only while every
    pi_i <= 1/2 (see :data:`_RECURSION_MAX_TARGET`).
    """
    w = p / (1.0 - p)
    pi = np.zeros_like(w)
    term = np.empty_like(w)
    for k in range(1, n + 1):
        np.subtract(1.0, pi, term)
        term *= w
        np.multiply(term, k / term.sum(), pi)
    return pi


#: calibration iterates with :func:`_recursive_first_order` only when no
#: target exceeds this.  Measured against the dynamic program on 3000 random
#: designs (N < 800, p uniform on random subintervals of (0.001, 0.999)),
#: the recursion's largest relative error was 2.7e-15 while max pi <= 0.5,
#: 1.5e-14 for max pi in (0.5, 0.55], 1.6e-10 in (0.55, 0.6] and 4e-2 in
#: (0.6, 0.65] with every pi still inside (0, 1); above that pi left (0, 1).
_RECURSION_MAX_TARGET = 0.5


def calibrate_rejective_p(target_pi, n: int, tol: float = 1e-10,
                          max_iter: int = 1000) -> np.ndarray:
    """The working probabilities of :func:`calibrated_rejective`."""
    return calibrated_rejective(target_pi, n, tol, max_iter).working_p


def calibrated_rejective(target_pi, n: int, tol: float = 1e-10,
                         max_iter: int = 1000) -> Design:
    """The size-n rejective design whose first-order inclusion
    probabilities are ``target_pi``.

    Its working probabilities p solve a multiplicative fixed point,
    p <- p * target / pi(p) in odds space, renormalized each step so
    sum(p) = n.  Such a p always exists and is unique up to a common odds
    factor.  The iterations run in two phases:

    1. Only when no target exceeds :data:`_RECURSION_MAX_TARGET`: undamped
       steps with pi(p) from :func:`_recursive_first_order`, while the
       iteration is not the last, every pi lies in (0, 1) and the residual
       is above ``tol`` and no larger than the one before it (a growing
       residual is the recursion's rounding noise).
    2. From the iteration where phase 1 stopped, at its p: every pi(p) is
       an exact pass of the dynamic program (the suffix table refilled into
       one buffer, then the prefix sweep), and the step is halved (in log
       scale) whenever the max-norm residual grows.

    Only an exact pass decides convergence, so the residual logged at
    DEBUG level with the counts of iterations and exact passes, or carried
    by :class:`CalibrationError` after ``max_iter`` iterations, is the
    program's.  The design's first-order inclusion probabilities are those
    of the final pass, identical to what :func:`first_order_pi` would
    compute afresh.
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
    p, it, prev = t.copy(), 1, np.inf
    if float(t.max()) <= _RECURSION_MAX_TARGET:
        while it < max_iter:
            pi = _recursive_first_order(p, n)
            resid = float(np.max(np.abs(pi - t)))
            if not (np.all((pi > 0.0) & (pi < 1.0)) and tol < resid <= prev):   # NaN fails
                break
            p = _renormalize_odds((p / (1.0 - p)) * (t / pi), n)
            it, prev = it + 1, resid
    bwd = np.empty((N + 1, n + 1))      # the one suffix table, refilled by every exact pass
    prev = np.inf
    for passes, it in enumerate(range(it, max_iter + 1), start=1):
        pi = _rejective_first_order(p, n, _pb_forward(p[::-1], n, out=bwd))
        resid = float(np.max(np.abs(pi - t)))
        if resid <= tol:
            logger.debug("rejective calibration: %d iterations (%d exact), residual %.3e",
                         it, passes, resid)
            design = rejective(p, n)
            pi.setflags(write=False)
            design._cache["pi"] = pi
            return design
        update = t / pi
        if resid > prev:
            update = np.sqrt(update)
        prev = resid
        p = _renormalize_odds((p / (1.0 - p)) * update, n)
    raise CalibrationError(
        f"calibration stopped after {max_iter} iterations ({passes} exact) "
        f"with residual {resid:.3e}",
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
