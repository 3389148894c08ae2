"""Deterministic splittable random streams.

Every stream is addressed by a root seed plus an integer path, realized
through ``numpy.random.SeedSequence`` spawn keys.  Workers reconstruct
their own generators from the address alone, so results never depend on
scheduling order or worker count.

:func:`substreams` builds a batch of sibling streams ``(seed, *path, j)``
at once, bitwise equal to :func:`substream` for each ``j``.
``SeedSequence`` mixes its entropy words into a pool of four 32-bit words
one word at a time, and the hash constant of each mixing step depends only
on how many words came before it.  So the pool of
``SeedSequence(seed, spawn_key=path)`` is the state every key
``(*path, j)`` shares before its last word; the batch mixes each ``j``
into that one pool and hashes the results into PCG64 seeds in uint32
numpy arithmetic, with numpy's constants.  Each index must be one 32-bit
word, ``0 <= j < 2**32``.  A batch generator's ``bit_generator.seed_seq``
is a shim holding its finished seed, not a ``SeedSequence``, so
``Generator.spawn`` is not supported on it.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .errors import ParameterError

#: numpy's SeedSequence hash constants (pool size 4)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_MASK = 0xFFFFFFFF


def substream(seed: int, *path: int) -> np.random.Generator:
    """Generator for the stream addressed by ``(seed, *path)``."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(path)))


def child_seed(seed: int, *path: int) -> int:
    """Stable 64-bit integer seed derived from ``(seed, *path)``."""
    ss = np.random.SeedSequence(seed, spawn_key=tuple(path))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@cache
def _seeded_type() -> type:
    """The seed-sequence shim of a batch stream, made on first use so that
    importing this module does not import ``numpy.random``."""
    from numpy.random.bit_generator import ISeedSequence

    class _Seeded(ISeedSequence):
        """Seed sequence that hands PCG64 one precomputed seed."""

        __slots__ = ("_state",)

        def __init__(self, state: np.ndarray):
            self._state = state

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise NotImplementedError("a batch stream holds only its PCG64 seed")
            return self._state

    return _Seeded


def _words(value: int) -> int:
    """32-bit words SeedSequence splits a non-negative integer into."""
    return max(1, -(-int(value).bit_length() // 32))


def _hash_constants(init: int, mult: int, start: int, count: int) -> np.ndarray:
    """Hash constants ``h_k = init * mult**k`` (mod 2**32) for k in
    ``start .. start + count``."""
    h = [init * pow(mult, start, 1 << 32) & _MASK]
    for _ in range(count):
        h.append(h[-1] * mult & _MASK)
    return np.array(h, dtype=np.uint32)


#: the constants of ``generate_state``'s eight hash steps, which read the
#: pool words in this order
_HASH_B = _hash_constants(_INIT_B, _MULT_B, 0, 2 * _POOL)
_CYCLE = np.arange(2 * _POOL) % _POOL


def _hash(v: np.ndarray, h: np.ndarray) -> np.ndarray:
    """SeedSequence's hash step, column k with constants ``h[k]``, ``h[k+1]``:
    ``v = (v ^ h[k]) * h[k+1]; v ^ (v >> 16)``, in uint32."""
    v = (v ^ h[:-1]) * h[1:]
    return v ^ (v >> 16)


def substreams(seed: int, path, indices) -> list[np.random.Generator]:
    """Generators for the streams ``(seed, *path, j)``, ``j`` in ``indices``:
    bitwise those of ``[substream(seed, *path, j) for j in indices]``."""
    j = np.asarray(indices)
    if (j.ndim != 1 or j.size == 0 or not np.issubdtype(j.dtype, np.integer)
            or j.min() < 0 or j.max() > _MASK):
        raise ParameterError(
            "stream indices must be a non-empty flat sequence of integers in [0, 2**32)")
    path = tuple(path)
    pool = np.random.SeedSequence(seed, spawn_key=path).pool
    # mixing j into each pool word: the words before it (the run entropy
    # zero-padded to the pool, then the path) took _POOL hash steps each,
    # counting the pool fill and its all-pairs mix
    before = max(_POOL, _words(seed)) + sum(_words(w) for w in path)
    mixed = _hash(j.astype(np.uint32)[:, None],
                  _hash_constants(_INIT_A, _MULT_A, _POOL * before, _POOL))
    mixed = pool * np.uint32(_MIX_L) - mixed * np.uint32(_MIX_R)
    mixed ^= mixed >> 16
    # generate_state(4, np.uint64): eight words, cycling through the pool
    state = _hash(mixed[:, _CYCLE], _HASH_B)
    # as generate_state does: pairs of little-endian words, in native order
    seeds = state.astype("<u4", order="C").view("<u8").astype(np.uint64, copy=False)
    seeded = _seeded_type()
    return [np.random.Generator(np.random.PCG64(seeded(row))) for row in seeds]
