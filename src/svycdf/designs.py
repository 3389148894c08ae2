"""Single-stage sampling designs with exact inclusion probabilities.

Four designs are provided: simple random sampling without replacement
(``srswor``), Bernoulli sampling, Poisson sampling, and conditional
Poisson sampling of fixed size n (``rejective``), the maximum-entropy
fixed-size design whose mass is proportional to the product of the odds
p_i / (1 - p_i) over sampled units.

A design owns its first-order inclusion probabilities ``pi``.  Each
factory checks its own arguments, keeps read-only copies of the arrays it
is given, sets the expected sample size and, where it knows them, ``pi``;
:func:`first_order_pi` fills ``pi`` otherwise, on first use.

Rejective quantities are exact, not asymptotic, up to rounding: on 30
random designs (N 6-15) the first and second order inclusion probabilities
lie within 6.2e-16 relative of rational arithmetic.  They come from
Poisson-binomial dynamic programs over partial-sum distributions, whose
rows one kernel advances in place.  The suffix table is built once per
design, top count first, so each suffix distribution that a dot product
reads from the top count down is a contiguous slice of a row.  It serves
the first-order probabilities, the pairwise probabilities and the
sampler, and it is the only (N+1) x (n+1) array a design keeps.  The
prefix distributions are only read in unit order, so they are streamed,
one block of rows at a time.  The pairwise probabilities take one sweep
over the units that keeps every leave-one-out prefix distribution at
once: N vectorized steps, O(N^2 n) flops, bitwise equal to rebuilding the
program for each pair.  The exact design variance of the
inverse-probability mean (:func:`exact_sn2`) and the finite-N covariance
on a grid (:func:`sigma_matrix`) share one quadratic form in the pairwise
ratios with no N x N matrix: srswor and the product designs have closed
forms, and a rejective design runs one moment program over its units,
O(N n K^2) flops for K columns.  Every program refuses, with one guard
each, float64 arrays above :data:`MAX_DP_TABLE_BYTES`
(:class:`CapacityError`) and a P(S = n) that is not positive and finite
(:class:`DegenerateDesignError`).

A relabeled design (:func:`relabel`) takes its source's ``pi``, reordered,
instead of rerunning the program: exact up to the order of the program's
sums (at most 3.3e-15 relative, 19 units in the last place, on the
calibrated N=10000, n=500 split).  Its suffix table is built afresh in the
new order, so its samples are those of the rebuilt design.

One sampler, :func:`draw`, serves every design: it takes a batch of
generators and draws one sample from each.  Every sample consumes only its
own generator, so a sample drawn in a batch equals the same generator drawn
alone.  The samples of a call come back as one batch
(:class:`SampleBatch`): the included unit indices of every sample, sample
after sample and increasing within a sample, with their inclusion
probabilities and responses gathered once each, and one length per
sample; no N-length indicator vector is formed.  The rejective sampler
walks the units left to right, including each with the conditional
probability of still reaching the target size; it is vectorized across
samples by jumping from one inclusion to the next, so a batch of samples
costs n steps, each over a short window of units per sample.

Calibration (:func:`calibrated_rejective`) fits working probabilities to
target inclusion probabilities by a fixed point in odds space.  Where every
target is at most 1/2, its iterates are evaluated by the O(n)-step
recursion of Chen, Dempster & Liu, which needs no table and agrees with the
program to rounding there; the program, run into one table the calibration
allocates, confirms the final iterate and alone decides convergence.  Above
1/2 every iterate is an exact pass.  An exact pass is followed by Hajek's
odds-ratio (Newton) step, its exponent halved for good whenever it
overshoots.  The tolerance, 1e-10, and the cap, 10 000 iterations, are
fixed.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from . import population as pop
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


#: a Poisson-binomial program's float64 arrays take at most this many bytes,
#: 1074 MB: the suffix table, (N+1) x (n+1) (40 MB at N=10000, n=500), or
#: the four (n+1) x (K+1) x (K+1) arrays of the moment program
MAX_DP_TABLE_BYTES = 2**30


def _check_capacity(program: str, nbytes: int, size: str) -> None:
    """Refuse a ``program`` of ``size`` whose arrays take ``nbytes`` above
    :data:`MAX_DP_TABLE_BYTES`, before any is allocated."""
    if nbytes > MAX_DP_TABLE_BYTES:
        raise CapacityError(f"the rejective {program} needs {nbytes / 1e6:.0f} MB at {size}; "
                            f"limited to {MAX_DP_TABLE_BYTES / 1e6:.0f} MB")


def _size_probability(total, n: int):
    """``total``, the P(S = n) a program ends with, refused unless it is
    positive and finite (NaN fails)."""
    if not 0.0 < total < np.inf:
        raise DegenerateDesignError(f"P(sample size = {n}) is {total}, not positive and finite")
    return total


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
    pi = p * dots / _size_probability(rows[0, n], n)
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
    pi2 /= _size_probability(prefix[0, n], n)
    np.fill_diagonal(pi2, pi)
    return pi2


# ---------------------------------------------------------------------------
# Designs
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Design:
    """A single-stage sampling design on a population of ``N`` units.

    Build one with a factory (:func:`srswor`, :func:`bernoulli`,
    :func:`poisson`, :func:`rejective`, :func:`calibrated_rejective`,
    :func:`relabel`), which sets ``expected_size`` and, for Poisson and a
    calibrated or relabeled rejective design, ``pi``; :func:`first_order_pi`
    fills ``pi`` for the others.  Its arrays are read-only and its own.
    """

    kind: str
    N: int
    expected_size: float
    size: int | None = None           # fixed sample size (srswor, rejective)
    rate: float | None = None         # common inclusion probability (srswor, bernoulli)
    pi: np.ndarray | None = None      # first-order inclusion probabilities
    working_p: np.ndarray | None = None  # working probabilities (rejective)
    _suffix: np.ndarray | None = field(default=None, init=False, repr=False)

    def __getstate__(self):
        # a pickled design (a pool task) carries pi (N floats) but leaves
        # the suffix table behind; it is rebuilt on demand
        return {**self.__dict__, "_suffix": None}

    def __setstate__(self, state):
        self.__dict__.update(state)
        for arr in (self.pi, self.working_p):
            if arr is not None:
                arr.setflags(write=False)

    def _suffix_table(self) -> np.ndarray:
        """The top-count-first suffix table of the working probabilities
        (see :func:`_pb_forward`), shared by every rejective quantity (cached)."""
        if self._suffix is None:
            _check_capacity("dynamic program", 8 * (self.N + 1) * (self.size + 1),
                            f"N={self.N}, n={self.size}")
            self._suffix = _pb_forward(self.working_p[::-1], self.size)
        return self._suffix


def _owned(values) -> np.ndarray:
    """A read-only float copy of ``values``."""
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


def _check_units(N: int) -> None:
    if N < 1:
        raise ParameterError("population size must be at least 1")


def srswor(N: int, n: int) -> Design:
    """Simple random sampling without replacement of fixed size n."""
    _check_units(N)
    if not 1 <= n <= N:
        raise ParameterError(f"srswor needs 1 <= n <= N, got n={n}, N={N}")
    return Design(kind="srswor", N=N, expected_size=float(n), size=n, rate=n / N)


def bernoulli(N: int, p: float) -> Design:
    """Independent inclusion of every unit with common probability p."""
    _check_units(N)
    if not 0.0 < p < 1.0:
        raise ParameterError(f"bernoulli rate must lie in (0, 1), got {p}")
    return Design(kind="bernoulli", N=N, expected_size=N * p, rate=p)


def poisson(pi) -> Design:
    """Independent inclusion of unit i with probability pi[i]."""
    pi = _owned(pi)
    _check_units(pi.size)
    if pi.ndim != 1:
        raise ParameterError("poisson needs one probability per unit")
    if not np.all((pi > 0.0) & (pi <= 1.0)):      # NaN fails both tests
        raise ParameterError("poisson probabilities must lie in (0, 1]")
    return Design(kind="poisson", N=pi.size, expected_size=float(np.sum(pi)), pi=pi)


def rejective(p, n: int) -> Design:
    """Conditional Poisson sampling: Poisson with working probabilities p,
    conditioned on the realized size equaling n."""
    return _rejective(p, n)


def _rejective(p, n: int, pi=None) -> Design:
    """:func:`rejective`, with the first-order inclusion probabilities
    ``pi`` when the caller already has them."""
    p = _owned(p)
    _check_units(p.size)
    if p.ndim != 1:
        raise ParameterError("rejective needs one working probability per unit")
    if not np.all((p > 0.0) & (p < 1.0)):
        raise ParameterError("rejective working probabilities must lie strictly in (0, 1)")
    if not 1 <= n <= p.size - 1:
        raise ParameterError(f"rejective needs 1 <= n <= N-1, got n={n}, N={p.size}")
    return Design(kind="rejective", N=p.size, expected_size=float(n), size=n,
                  pi=None if pi is None else _owned(pi), working_p=p)


def relabel(design: Design, perm) -> Design:
    """The design with its units reordered: unit i of the result is unit
    ``perm[i]`` of ``design``.

    srswor and Bernoulli designs treat every unit alike and are returned
    as they are.  A Poisson design takes ``pi[perm]``.  A rejective design
    takes ``working_p[perm]`` and, as its ``pi``, the first-order
    probabilities of ``design`` reordered by ``perm``: no dynamic program
    runs.  They equal what the program would compute on the reordered
    units up to the rounding of its sums (a few parts in 1e15), and lie as
    close to rational arithmetic as the source's (6.2e-16 relative).  The
    suffix table is not carried over; the sampler builds it, in the new
    order, on first use, so draws are those of
    ``rejective(working_p[perm], n)``.
    """
    if design.kind == "poisson":
        return poisson(design.pi[perm])
    if design.kind != "rejective":
        return design
    return _rejective(design.working_p[perm], design.size, first_order_pi(design)[perm])


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
    """The design's exact first-order inclusion probabilities, ``design.pi``.

    A design whose factory did not set them fills them here, on first use:
    the common ``rate`` of srswor and Bernoulli, or, for a rejective
    design, one run of the dynamic program.  A calibrated design
    (:func:`calibrated_rejective`) carries the probabilities of its final
    calibration step, and a relabeled one (:func:`relabel`) those of its
    source design reordered: both are the program's values on their own
    units up to rounding.  The program's values lie within 6.2e-16 relative
    of rational arithmetic on 30 random designs (N 6-15).
    """
    if design.pi is None:
        pi = (np.full(design.N, design.rate) if design.working_p is None
              else _rejective_first_order(design.working_p, design.size, design._suffix_table()))
        pi.setflags(write=False)
        design.pi = pi
    return design.pi


def second_order_pi(design: Design) -> np.ndarray:
    """Exact pairwise inclusion probabilities, diagonal pi_ii = pi_i; for a
    rejective design within 6.2e-16 relative of rational arithmetic on 30
    random designs (N 6-15).

    The result is an N x N matrix, so N is limited to
    :data:`MAX_PAIRWISE_UNITS` for every design.  The design variances
    (:func:`exact_sn2`, :func:`sigma_matrix`) do not call it.
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
# Design variance
# ---------------------------------------------------------------------------

def _ratio_form(design: Design, a: np.ndarray) -> np.ndarray:
    """a^T Delta a for ``a`` of shape (N, K), Delta_ij = (pi_ij - pi_i pi_j)/(pi_i pi_j).

    Rejective designs take the design covariance of the inverse-probability
    sums from one moment program (:func:`_rejective_moment`), in
    O(N n K^2) flops and O(n K^2) memory, without pairwise probabilities;
    the result is exact up to rounding (it is not bitwise the pi_ij form).
    Product designs have only the diagonal (1 - pi_i)/pi_i, and srswor adds
    its constant off-diagonal ratio (n - N)/(n (N - 1)), so neither forms
    an N x N matrix.
    """
    pi = first_order_pi(design)
    if design.kind == "rejective":
        # T = sum_s b_i is the centered inverse-probability sum at the fixed
        # size n, so E[T T^T] is its covariance, a^T Delta a
        n = design.size
        return _rejective_moment(design.working_p, n, a / pi[:, None] - a.sum(axis=0) / n)
    form = a.T @ (a * ((1.0 - pi) / pi)[:, None])
    if design.kind in ("bernoulli", "poisson"):
        return form
    N, n = design.N, design.size
    c = (n - N) / (n * (N - 1)) if N > 1 else 0.0
    col_sums = a.sum(axis=0)
    return form + c * (np.outer(col_sums, col_sums) - a.T @ a)


def _rejective_moment(p: np.ndarray, n: int, b: np.ndarray) -> np.ndarray:
    """E[T T^T] of T = sum_{i in s} b_i (``b`` of shape (N, K)) under the
    size-n conditional Poisson design with working probabilities ``p``.

    One Poisson-binomial program over the units carries, for each count
    k = 0..n, the (K+1) x (K+1) moment M(k) = E[c c^T 1{S = k}] of
    c = (1, T): its corner is P(S = k), its first row and column
    E[T 1{S = k}] (K tracks) and the rest E[T T^T 1{S = k}] (K x K
    tracks).  Unit i (p, q = 1 - p) moves count k-1 to k and adds
    d = (0, b_i) to c, so with U(k) = M(k) e_0 + (d/2) P(S = k),

        M'(k) = q M(k) + p (M(k-1) + U(k-1) d^T + d U(k-1)^T),

    which keeps M exactly symmetric.  The result is the K x K block of
    M(n) / P(S = n).  A unit is eight elementwise ufunc calls on
    preallocated rows, with p and q as stride-0 operands, as in
    :func:`_pb_rows`; no BLAS runs, so the bits do not depend on the BLAS
    core.  Cost O(N n K^2) flops; memory, the moments and three scratch
    arrays, O(n K^2).
    """
    N, K = b.shape
    shape = (n + 1, K + 1, K + 1)
    _check_capacity("moment program", 4 * 8 * (n + 1) * (K + 1) ** 2, f"n={n}, K={K}")
    moments = np.zeros(shape)
    moments[0, 0, 0] = 1.0
    head, tail = moments[:-1], moments[1:]
    pmf, first = head[:, :1, 0], head[:, :, 0]      # P(S = k) and M(k) e_0, k < n
    half, u = np.empty((n, K + 1)), np.empty((n, K + 1))
    outer, step = np.empty((n, K + 1, K + 1)), np.empty((n, K + 1, K + 1))
    outer_t, u_col = outer.transpose(0, 2, 1), u[:, :, None]
    d = np.zeros((N, K + 1))
    d[:, 1:] = b
    halves = d * 0.5
    ps = np.broadcast_to(p[:, None, None, None], (N,) + step.shape)
    qs = np.broadcast_to((1.0 - p)[:, None, None, None], (N,) + shape)
    for d_i, h_i, p_i, q_i in zip(d, halves, ps, qs):
        np.multiply(pmf, h_i, half)
        np.add(first, half, u)
        np.multiply(u_col, d_i, outer)
        np.add(outer, outer_t, step)
        np.add(step, head, step)
        np.multiply(step, p_i, step)
        np.multiply(moments, q_i, moments)
        np.add(tail, step, tail)
    return moments[n, 1:, 1:] / _size_probability(moments[n, 0, 0], n)


def exact_sn2(design: Design, v) -> float:
    """Exact design variance of the inverse-probability mean of v.

    (1/N^2) sum_ij ((pi_ij - pi_i pi_j)/(pi_i pi_j)) v_i v_j, the form of
    :func:`_ratio_form` with one column: O(N) for srswor and product
    designs, and O(N n) for a rejective design, with no N x N matrix.
    Exact up to rounding: on 30 random designs of each kind (N 6-15) within
    6.7e-16 (srswor), 2.2e-16 (Bernoulli, Poisson) and 3.3e-15 (rejective)
    relative of rational arithmetic.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (design.N,):
        raise ParameterError("v must have one entry per unit")
    return float(_ratio_form(design, v[:, None])[0, 0]) / design.N**2


def sigma_matrix(design: Design, y: np.ndarray, grid,
                 form: Literal["HT2", "HJ2"] = "HT2",
                 law: pop.SuperPopulationLaw | None = None) -> np.ndarray:
    """Finite-N covariance matrix of the standardized weighted CDF on a grid.

    (n/N^2) sum_ij ((pi_ij - pi_i pi_j)/(pi_i pi_j)) a_i a_j^T with
    a_i the vector of indicators 1{y_i <= t_k} of the population's responses
    ``y`` ("HT2") or the indicators centered by the model CDF ("HJ2",
    requires ``law``).  The K grid points cost O(N K^2) for srswor and
    product designs and O(N n K^2) for a rejective design (see
    :func:`_ratio_form`).  Exact up to rounding: at three grid points, on
    30 random designs of each kind (N 6-15), every entry lies within
    2.9e-15 (srswor), 4.3e-16 (Bernoulli), 5.8e-16 (Poisson) and 4.0e-14
    (rejective) relative of rational arithmetic.
    """
    grid = np.asarray(grid, dtype=float)
    a = (y[:, None] <= grid[None, :]).astype(float)
    if form == "HJ2":
        if law is None:
            raise ParameterError("centered form requires the super-population law")
        a = a - pop.true_cdf(law, grid)[None, :]
    elif form != "HT2":
        raise ParameterError(f"form must be 'HT2' or 'HJ2', got {form!r}")
    mat = _ratio_form(design, a) * (design.expected_size / design.N**2)
    return (mat + mat.T) / 2.0


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


#: calibration ends once no exact inclusion probability is farther than
#: this from its target ...
_CALIBRATION_TOL = 1e-10

#: ... or raises :class:`CalibrationError` after this many iterations.  On
#: 1251 random feasible targets (N = 2..1500, n = 1..N-1, logits within
#: +-40) the slowest took 55 exact passes, so a run that reaches the cap has
#: stalled
_CALIBRATION_MAX_ITER = 10_000


def calibrate_rejective_p(target_pi, n: int) -> np.ndarray:
    """The working probabilities of :func:`calibrated_rejective`."""
    return calibrated_rejective(target_pi, n).working_p


def calibrated_rejective(target_pi, n: int) -> Design:
    """The size-n rejective design whose first-order inclusion
    probabilities are ``target_pi``.

    Its working probabilities p solve pi(p) = target by a fixed point in
    odds space, renormalized each step so sum(p) = n.  Such a p always
    exists and is unique up to a common odds factor.  The iterations run in
    two phases:

    1. Only when no target exceeds :data:`_RECURSION_MAX_TARGET`: undamped
       ratio steps, odds <- odds * target / pi(p), with pi(p) from
       :func:`_recursive_first_order`, while the iteration is not the last,
       every pi lies in (0, 1) and the residual is above the tolerance and
       no larger than the one before it (a growing residual is the
       recursion's rounding noise).
    2. From the iteration where phase 1 stopped, at its p: every pi(p) is
       an exact pass of the dynamic program (the suffix table refilled into
       one buffer, then the prefix sweep), and the step multiplies the odds
       by the odds ratio (t / (1 - t)) / (pi / (1 - pi)) raised to a step
       exponent.  At exponent 1 that is Newton's step on the log-odds under
       Hajek's approximation diag(pi (1 - pi)) of the Jacobian, which
       underestimates it where few units are far from 0 and 1 (by half on
       two units that share one slot).  The exponent starts at 1 and is
       halved, for the rest of the run, whenever the step overshoots: the
       max-norm residual grows, or the error comes back reversed at more
       than half its size (its projection on the previous error).

    The tolerance (:data:`_CALIBRATION_TOL`, 1e-10) and the iteration cap
    (:data:`_CALIBRATION_MAX_ITER`, 10 000) are fixed.  Only an exact pass
    decides convergence, so the residual logged at DEBUG level with the
    counts of iterations and exact passes, or carried by
    :class:`CalibrationError` at the cap, is the program's.  The design's
    first-order inclusion probabilities are those of the final pass,
    identical to what :func:`first_order_pi` would compute afresh (within
    5.3e-16 relative of rational arithmetic on 30 random designs, whose
    exact probabilities reach the targets within 9.9e-11).
    """
    t = np.asarray(target_pi, dtype=float)
    N = t.size
    if t.ndim != 1:
        raise ParameterError("calibration needs one target probability per unit")
    if not np.all((t > 0.0) & (t < 1.0)):
        raise ParameterError("target inclusion probabilities must lie strictly in (0, 1)")
    if not 1 <= n <= N - 1:
        raise ParameterError(f"need 1 <= n <= N-1, got n={n}, N={N}")
    if abs(float(t.sum()) - n) > 1e-9:
        raise ParameterError(
            f"target inclusion probabilities must sum to n={n}, got {t.sum():.12g}")
    _check_capacity("dynamic program", 8 * (N + 1) * (n + 1), f"N={N}, n={n}")
    p, it, prev = t.copy(), 1, np.inf
    if float(t.max()) <= _RECURSION_MAX_TARGET:
        while it < _CALIBRATION_MAX_ITER:
            pi = _recursive_first_order(p, n)
            resid = float(np.max(np.abs(pi - t)))
            # a NaN pi or residual fails the test
            if not (np.all((pi > 0.0) & (pi < 1.0)) and _CALIBRATION_TOL < resid <= prev):
                break
            p = _renormalize_odds((p / (1.0 - p)) * (t / pi), n)
            it, prev = it + 1, resid
    bwd = np.empty((N + 1, n + 1))      # the one suffix table, refilled by every exact pass
    target_odds, prev, prev_err, step = t / (1.0 - t), np.inf, np.zeros(N), 1.0
    for passes, it in enumerate(range(it, _CALIBRATION_MAX_ITER + 1), start=1):
        pi = _rejective_first_order(p, n, _pb_forward(p[::-1], n, out=bwd))
        err = pi - t
        resid = float(np.max(np.abs(err)))
        if resid <= _CALIBRATION_TOL:
            logger.debug("rejective calibration: %d iterations (%d exact), residual %.3e",
                         it, passes, resid)
            return _rejective(p, n, pi)
        if resid > prev or np.dot(err, prev_err) < -0.5 * np.dot(prev_err, prev_err):
            step *= 0.5         # the first halving takes np.sqrt, bit for bit
        prev, prev_err = resid, err
        p = _renormalize_odds((p / (1.0 - p)) * (target_odds / (pi / (1.0 - pi))) ** step, n)
    raise CalibrationError(
        f"calibration stopped after {_CALIBRATION_MAX_ITER} iterations ({passes} exact) "
        f"with residual {resid:.3e}", residual=resid)


def design_constants(design: Design) -> DesignConstants:
    """Covariance constants of this design at its finite N.

    lam = n/N and mu1 = (n/N^2) sum(1/pi - 1) are exact for every design.
    mu2 is exact for srswor (lam - 1, a finite-N identity) and for the
    independent designs (zero).  For rejective designs it is not exact: it
    is the leading term -(n/N^2) sum_{i != j} (1-pi_i)(1-pi_j) / d, with
    d = sum pi(1-pi) the entropy scale, of Hajek's expansion of the
    pairwise ratios (pi_ij - pi_i pi_j) / (pi_i pi_j).
    """
    pi = first_order_pi(design)
    N = design.N
    n = design.expected_size
    lam = n / N
    mu1 = (n / N**2) * float(np.sum(1.0 / pi - 1.0))
    if design.kind == "srswor":
        mu2 = lam - 1.0
    elif design.kind in ("bernoulli", "poisson"):
        mu2 = 0.0
    else:
        q = 1.0 - pi
        d = float(np.sum(pi * q))
        if d <= 0.0:
            raise DegenerateDesignError("entropy scale d is zero")
        mu2 = -(n / (N**2 * d)) * (float(q.sum()) ** 2 - float(np.sum(q * q)))
    return DesignConstants(lam=lam, mu1=mu1, mu2=mu2)
