"""Exact design-measure computations by enumeration for small populations.

Enumerating the full support of a design gives exact inclusion
probabilities to any order, the condition report on its centered
correlation moments, and the Kullback-Leibler divergence between two
designs: independent references for the programs of
:mod:`svycdf.designs`, and numeric reports of the correlation and entropy
statistics that control the asymptotics.  A support is refused before it
is built when its boolean rows would pass :data:`MAX_SUPPORT_BYTES`; the
size-n subsets are read from ``itertools.combinations`` in blocks of
compact index rows, and all subsets are the bits of their row numbers.
The divergence reads the reference mass by one sorted lookup of packed
rows.

The condition report reads every third- and fourth-order statistic from
products of unit pairs: over the N(N-1)/2 unordered pairs P = (i, j) it
accumulates T3[P, k] = E a_P a_k and Q4[P, Q] = E a_P a_Q, one block of
support points at a time.  A block of S_b points costs S_b N^2/2 pair
products and about S_b (N^2/2)^2 multiply-adds; memory is one block's pair
products (at most ``_PAIR_BLOCK_BYTES``) plus the (N^2/2)^2 accumulator,
so no N^3 or N^4 tensor is formed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import designs as dsg
from .errors import CapacityError, ParameterError

MAX_FIXED_SIZE_SUPPORT = 2_000_000
MAX_RANDOM_SIZE_UNITS = 20
MAX_HIGH_ORDER_UNITS = 14   # third/fourth order condition sweeps
#: an enumerated support's (S, N) boolean rows take at most this many bytes
#: (64 MiB; the float copies that moments and condition reports make are 8x)
MAX_SUPPORT_BYTES = 2**26

_CHUNK = 1 << 14
#: the pair products of one block of support points take at most this many bytes
_PAIR_BLOCK_BYTES = 2**18


@dataclass(eq=False)
class EnumeratedDesign:
    """Full support of a design: one boolean row per sample, with its mass."""

    samples: np.ndarray     # (S, N) bool
    probs: np.ndarray       # (S,)
    N: int

    def __post_init__(self):
        total = float(self.probs.sum())
        if abs(total - 1.0) > 1e-12 or np.any(self.probs < 0.0):
            raise ParameterError("support probabilities must be nonnegative and sum to one")

    def first_order(self) -> np.ndarray:
        return self.probs @ self.samples

    def second_order(self) -> np.ndarray:
        weighted = self.samples * self.probs[:, None]
        return weighted.T @ self.samples


def _check_support_bytes(count: int, N: int) -> None:
    """Refuse a support of ``count`` points on N units above
    :data:`MAX_SUPPORT_BYTES` of boolean rows, before anything is allocated."""
    if count * N > MAX_SUPPORT_BYTES:
        raise CapacityError(
            f"{count} support points on N={N} units take {count * N / 1e6:.0f} MB "
            f"as boolean rows; limited to {MAX_SUPPORT_BYTES / 1e6:.0f} MB")


def _fixed_size_masks(N: int, n: int) -> np.ndarray:
    """The C(N, n) size-n subsets as boolean rows, in ``itertools.combinations``
    order.  The combinations are read in blocks of index rows of the
    smallest unsigned dtype that holds N - 1, each scattered at once."""
    count = math.comb(N, n)
    if count > MAX_FIXED_SIZE_SUPPORT:
        raise CapacityError(
            f"C({N},{n}) = {count} samples exceeds the guard {MAX_FIXED_SIZE_SUPPORT}")
    _check_support_bytes(count, N)
    masks = np.zeros((count, N), dtype=bool)
    combos = itertools.combinations(range(N), n)
    row_type = np.dtype((np.min_scalar_type(N - 1), n))
    rows = max(1, _CHUNK // n)
    for start in range(0, count, rows):
        block = np.fromiter(combos, dtype=row_type, count=min(rows, count - start))
        masks[np.arange(start, start + block.shape[0])[:, None], block] = True
    return masks


def _all_subsets_masks(N: int) -> np.ndarray:
    """All 2^N subsets as boolean rows, row r holding the bits of r."""
    if N > MAX_RANDOM_SIZE_UNITS:
        raise CapacityError(
            f"random-size enumeration limited to N <= {MAX_RANDOM_SIZE_UNITS}, got {N}")
    _check_support_bytes(2**N, N)
    counts = np.arange(2**N, dtype="<u4").view(np.uint8).reshape(-1, 4)
    return np.unpackbits(counts, axis=1, count=N, bitorder="little").view(bool)


def _independent_probs(masks: np.ndarray, pi: np.ndarray) -> np.ndarray:
    probs = np.empty(masks.shape[0])
    for start in range(0, masks.shape[0], _CHUNK):
        block = masks[start:start + _CHUNK]
        probs[start:start + _CHUNK] = np.prod(np.where(block, pi, 1.0 - pi), axis=1)
    return probs


def enumerate_design(design: dsg.Design) -> EnumeratedDesign:
    """Exact support and probabilities of a design; for a rejective design
    the inclusion probabilities they give lie within 1.7e-15 (first order)
    and 2.7e-15 (second order) relative of rational arithmetic on 30 random
    designs (N 6-15).

    Fixed-size designs are guarded by the number of size-n subsets,
    random-size designs by the number of units, and both by the bytes of
    their boolean rows (:data:`MAX_SUPPORT_BYTES`), before any is built.
    """
    N = design.N
    if design.kind == "srswor":
        masks = _fixed_size_masks(N, design.size)
        probs = np.full(masks.shape[0], 1.0 / masks.shape[0])
    elif design.kind == "rejective":
        masks = _fixed_size_masks(N, design.size)
        p = design.working_p
        log_odds = np.log(p) - np.log1p(-p)
        log_mass = masks @ log_odds
        mass = np.exp(log_mass - log_mass.max())
        probs = mass / mass.sum()
    else:
        masks = _all_subsets_masks(N)
        probs = _independent_probs(masks, dsg.first_order_pi(design))
    return EnumeratedDesign(samples=masks, probs=probs, N=N)


@dataclass(frozen=True)
class ConditionEntry:
    """One reported statistic: its value, the bound it feeds, and the
    constant that would make the bound tight at this N."""

    statistic: float
    bound_form: str
    implied_constant: float


def check_condition_units(N: int) -> None:
    """Refuse a condition sweep on more than :data:`MAX_HIGH_ORDER_UNITS` units."""
    if N > MAX_HIGH_ORDER_UNITS:
        raise CapacityError(f"condition sweep limited to N <= {MAX_HIGH_ORDER_UNITS}, got {N}")


def check_conditions(enumerated: EnumeratedDesign) -> dict[str, ConditionEntry]:
    """Exact finite-N statistics behind the correlation and entropy bounds,
    scaled by the expected size n = sum(pi), by name.

    The underlying requirements are asymptotic, so a single finite N can
    only exhibit numbers, never a verdict; each entry reports the exact
    statistic and the constant it implies.

    Reports max centered correlations of orders 2-4 with their implied
    constants, the averaged ratio sums (row-sum pair form, triple form,
    and the signed and absolute fourth-order centered sums), the scaled
    inclusion-probability range, and the entropy scale d = sum pi(1 - pi).
    When d > 0, whatever the design, the ratios of n and N to d and the
    residual of the pairwise-ratio expansion are added.  Third and fourth
    order sweeps require N <= 14.  The entries divide by n^2, d^2 and
    products of up to four inclusion probabilities, so a design where one
    of these underflows to 0 is a :class:`ParameterError`.

    The orders 3 and 4 come from the pair moments T3 and Q4 of the
    centered indicators (``_pair_moments``): a maximum runs over k outside
    P, or over pairs P and Q with no unit in common, and a sum over ordered
    distinct tuples is 2 (order three) or 4 (order four) times the sum over
    those entries.  pi_ijk - pi_i pi_j pi_k is assembled from T3 and the
    centered pair moments.  Cost: S (N^2/2)^2 multiply-adds over the S
    support points, in blocks of at most ``_PAIR_BLOCK_BYTES`` of pair
    products; memory beyond the (S, N) indicators is one block and the
    (N^2/2)^2 accumulator (66 kB at N = 14).
    """
    N = enumerated.N
    check_condition_units(N)
    pi = enumerated.first_order()
    n = float(pi.sum())
    if n <= 0:
        raise ParameterError("expected size must be positive")
    # every product of up to four inclusion probabilities is at least the
    # smallest pi to the fourth power
    d = float(np.sum(pi * (1.0 - pi)))
    smallest = float(pi.min())
    for name, value in (("n**2", n * n), ("d**2", d * d if d > 0.0 else 1.0),
                        ("pi_i * pi_j * pi_k * pi_l", (smallest * smallest)**2)):
        if value == 0.0:
            raise ParameterError(f"{name} underflows to 0; the condition report is undefined")
    entries: dict[str, ConditionEntry] = {}

    ratio_scaled = N * pi / n
    entries["inclusion_ratio_min"] = ConditionEntry(
        float(ratio_scaled.min()), "K1 <= N*pi/n", float(ratio_scaled.min()))
    entries["inclusion_ratio_max"] = ConditionEntry(
        float(ratio_scaled.max()), "N*pi/n <= K2", float(ratio_scaled.max()))

    probs = enumerated.probs
    x = enumerated.samples.astype(float) - pi
    pair = x.T @ (x * probs[:, None])          # E (xi_i - pi_i)(xi_j - pi_j)
    off = ~np.eye(N, dtype=bool)
    max_pair = float(np.abs(pair[off]).max()) if N > 1 else 0.0
    entries["max_pair_correlation"] = ConditionEntry(
        max_pair, "|E prod| < K n/N^2", max_pair * N**2 / n)

    iu, ju = np.triu_indices(N, 1)
    t3, q4 = _pair_moments(probs, x, iu, ju)
    units = np.arange(N)
    outside = (units != iu[:, None]) & (units != ju[:, None])   # k not in P = (i, j)
    disjoint = outside[:, iu] & outside[:, ju]                  # Q shares no unit with P
    max_triple = float(np.abs(t3[outside]).max()) if outside.any() else 0.0
    max_quad = float(np.abs(q4[disjoint]).max()) if disjoint.any() else 0.0
    entries["max_triple_correlation"] = ConditionEntry(
        max_triple, "|E prod| < K n^2/N^3", max_triple * N**3 / n**2)
    entries["max_quad_correlation"] = ConditionEntry(
        max_quad, "|E prod| < K n^2/N^4", max_quad * N**4 / n**2)

    pi2 = enumerated.second_order()
    ratio = (pi2 - np.outer(pi, pi)) / np.outer(pi, pi)
    np.fill_diagonal(ratio, 0.0)
    rowsum = float(np.abs(ratio).sum(axis=0).max()) * n / N if N > 1 else 0.0
    entries["pair_ratio_rowsum"] = ConditionEntry(rowsum, "(n/N) sum_i |ratio_ij| <= K", rowsum)

    # pi_ijk - pi_i pi_j pi_k from the centered moments, as E xi_i = pi_i;
    # each unordered triple is two (P, k) entries out of six ordered tuples
    pi_pair = pi[iu] * pi[ju]
    centered3 = (t3 + pair[iu, ju][:, None] * pi
                 + pi[ju][:, None] * pair[iu] + pi[iu][:, None] * pair[ju])
    triple_ratio = 2.0 * np.abs(centered3 / (pi_pair[:, None] * pi))[outside].sum() * n / N**3
    entries["triple_ratio_sum"] = ConditionEntry(
        float(triple_ratio), "(n/N^3) sum |ratio_ijk| <= K", float(triple_ratio))

    # each unordered quadruple is six disjoint (P, Q) entries out of 24 ordered tuples
    quad_terms = (q4 / np.outer(pi_pair, pi_pair))[disjoint]
    signed = 4.0 * float(quad_terms.sum()) * n**2 / N**4
    absolute = 4.0 * float(np.abs(quad_terms).sum()) * n**2 / N**4
    entries["quad_centered_sum_signed"] = ConditionEntry(
        abs(signed), "(n^2/N^4) |sum E prod / pi^4| <= K", abs(signed))
    entries["quad_centered_sum_absolute"] = ConditionEntry(
        absolute, "(n^2/N^4) sum |E prod| / pi^4 <= K", absolute)

    entries["entropy_scale"] = ConditionEntry(d, "d -> infinity", d)
    if d > 0.0:
        entries["size_over_entropy"] = ConditionEntry(n / d, "n/d = O(1)", n / d)
        entries["pop_over_entropy_sq"] = ConditionEntry(N / d**2, "N/d^2 -> 0", N / d**2)
        entries["popsq_over_size_entropy"] = ConditionEntry(
            N**2 / (n * d), "N^2/(n d) = O(1)", N**2 / (n * d))
        entries["hajek_variance_factor"] = ConditionEntry(
            n * (N - n) ** 2 / (N**2 * d), "n(N-n)^2/(N^2 d) -> limit",
            n * (N - n) ** 2 / (N**2 * d))
        resid = np.abs((pi2 - np.outer(pi, pi))
                       + np.outer(pi, pi) * np.outer(1.0 - pi, 1.0 - pi) / d)
        np.fill_diagonal(resid, 0.0)
        max_resid = float(resid.max()) if N > 1 else 0.0
        entries["pair_expansion_residual"] = ConditionEntry(
            max_resid, "|ratio + (1-pi_i)(1-pi_j)/d| <= C/d^2", max_resid * d**2)
    return entries


def _pair_moments(probs: np.ndarray, a: np.ndarray, iu: np.ndarray,
                  ju: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weighted moments of the pairwise column products of ``a``.

    With P = (iu[m], ju[m]) the unordered pairs and a_sP = a_si a_sj,
    returns T3[P, k] = sum_s p_s a_sP a_sk and Q4[P, Q] = sum_s p_s a_sP a_sQ.
    The pair products are formed for one block of samples at a time, each
    block's array at most ``_PAIR_BLOCK_BYTES``, and enter two matrix
    products per block.
    """
    n_pairs = iu.size
    t3 = np.zeros((n_pairs, a.shape[1]))
    q4 = np.zeros((n_pairs, n_pairs))
    rows = max(1, _PAIR_BLOCK_BYTES // (8 * max(n_pairs, 1)))
    for start in range(0, a.shape[0], rows):
        block = a[start:start + rows]
        products = block[:, iu] * block[:, ju]
        weighted = products * probs[start:start + rows, None]
        t3 += weighted.T @ block
        q4 += weighted.T @ products
    return t3, q4


def divergence_from_rejective(enumerated: EnumeratedDesign,
                              rejective_reference: EnumeratedDesign) -> float:
    """Kullback-Leibler divergence sum P(s) log(P(s)/R(s)).

    The reference mass R(s) of each support point is looked up by the
    packed bits of its row.  The sum runs over the support of the first
    design in order, in Python floats.  Returns ``inf`` when the first
    design puts mass outside the support of the reference.
    """
    if enumerated.N != rejective_reference.N:
        raise ParameterError("designs must share the population size")
    ref = _reference_probs(enumerated.samples, rejective_reference)
    div = 0.0
    for p, r in zip(enumerated.probs.tolist(), ref.tolist()):
        if p <= 0.0:
            continue
        if r <= 0.0:
            return float("inf")
        div += p * math.log(p / r)
    return max(div, 0.0)


def _reference_probs(samples: np.ndarray, reference: EnumeratedDesign) -> np.ndarray:
    """The reference mass of each row of ``samples`` (0 off its support),
    by one sorted lookup of the rows' packed bits."""
    def keys(rows):
        packed = np.packbits(rows, axis=1)
        return packed.view(np.dtype((np.void, packed.shape[1]))).ravel()

    ref_keys = keys(reference.samples)
    order = np.argsort(ref_keys)
    ref_keys = ref_keys[order]
    found = keys(samples)
    pos = np.minimum(np.searchsorted(ref_keys, found), ref_keys.size - 1)
    return np.where(ref_keys[pos] == found, reference.probs[order[pos]], 0.0)
