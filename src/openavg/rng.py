"""Deterministic random-stream derivation.

Every stochastic choice in a simulation comes from a stream keyed by the
run seed plus a structural path (subsystem tag, step, node, ...). Streams
for distinct keys are statistically independent, and the same key always
reproduces the same draws, so results do not depend on dict iteration
order or on which subsystem asks first.

A stream is numpy's ``default_rng(SeedSequence(_key_words(key)))``, bit
for bit. The ``SeedSequence`` mixing is computed here rather than by
numpy, so that the pool after the key's head (every part but the last)
is computed once and cached: a per-node stream at step k then mixes in
only its node id. NumPy's RNG policy (NEP 19) keeps ``SeedSequence`` and
``PCG64`` output stable, and ``tests/test_rng.py`` compares the two.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import numpy as np

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1

# Subsystem tags. Strings are hashed into the seed material, so renaming
# one silently changes every trace; treat these as frozen.
TAG_INIT_STATE = "init-state"
TAG_ARRIVAL_STATE = "arrival-state"
TAG_CHURN = "churn"
TAG_TOPOLOGY_FAMILY = "topology-family"
TAG_TOPOLOGY_DRAW = "topology-draw"
TAG_AGENT = "agent"

# SeedSequence's constants (numpy/random/bit_generator.pyx, pool size 4).
# Its hash constant is multiplied by _MULT_A at every hashmix call and by
# _MULT_B at every output word, whatever the data, so the constant of the
# t-th call is known in advance.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# Output word i xors with _B[i] and multiplies by _B[i + 1].
_B = tuple(_INIT_B * pow(_MULT_B, i, 1 << 32) & _MASK32 for i in range(9))


@lru_cache(maxsize=64)
def _tag_word(tag: str) -> int:
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def _key_words(parts: tuple[int | str, ...]) -> list[int]:
    return [
        _tag_word(part) if isinstance(part, str) else int(part) & _MASK64
        for part in parts
    ]


def _words32(parts: tuple[int | str, ...]) -> list[int]:
    """The 32-bit entropy words SeedSequence reads from the key words:
    each is split low word first, and only a word of 2**32 or more has
    two."""
    words: list[int] = []
    for x in _key_words(parts):
        words += (x,) if x <= _MASK32 else (x & _MASK32, x >> 32)
    return words


@lru_cache(maxsize=64)
def _hash_consts(start: int, count: int) -> tuple[int, ...]:
    """SeedSequence's hash constants from its ``start``-th hashmix call on:
    call ``start + i`` xors with entry i and multiplies by entry i + 1."""
    a = _INIT_A * pow(_MULT_A, start, 1 << 32) & _MASK32
    consts = [a]
    for _ in range(count):
        a = a * _MULT_A & _MASK32
        consts.append(a)
    return tuple(consts)


def _absorb(
    pool: tuple[int, int, int, int], word: int, a: tuple[int, ...], i: int
) -> tuple[int, int, int, int]:
    """Mix an entropy word past the pool's first four into each pool word,
    with the hashmix constants ``a[i:i + 5]``."""
    p0, p1, p2, p3 = pool
    h = (word ^ a[i]) * a[i + 1] & _MASK32
    h ^= h >> 16
    p0 = (_MIX_L * p0 - _MIX_R * h) & _MASK32
    h = (word ^ a[i + 1]) * a[i + 2] & _MASK32
    h ^= h >> 16
    p1 = (_MIX_L * p1 - _MIX_R * h) & _MASK32
    h = (word ^ a[i + 2]) * a[i + 3] & _MASK32
    h ^= h >> 16
    p2 = (_MIX_L * p2 - _MIX_R * h) & _MASK32
    h = (word ^ a[i + 3]) * a[i + 4] & _MASK32
    h ^= h >> 16
    p3 = (_MIX_L * p3 - _MIX_R * h) & _MASK32
    return p0 ^ p0 >> 16, p1 ^ p1 >> 16, p2 ^ p2 >> 16, p3 ^ p3 >> 16


def _mix(words: list[int]) -> tuple[int, int, int, int]:
    """SeedSequence's four-word pool after mixing in ``words``."""
    a = _hash_consts(0, 16 + 4 * max(len(words) - 4, 0))
    pool = []
    for i in range(4):
        h = ((words[i] if i < len(words) else 0) ^ a[i]) * a[i + 1] & _MASK32
        pool.append(h ^ h >> 16)
    i = 4
    for src in range(4):
        for dst in range(4):
            if src != dst:
                h = (pool[src] ^ a[i]) * a[i + 1] & _MASK32
                h ^= h >> 16
                x = (_MIX_L * pool[dst] - _MIX_R * h) & _MASK32
                pool[dst] = x ^ x >> 16
                i += 1
    pool = tuple(pool)
    for word in words[4:]:
        pool = _absorb(pool, word, a, i)
        i += 4
    return pool


@lru_cache(maxsize=256)
def _head_pool(
    head: tuple[int | str, ...],
) -> tuple[tuple[int, int, int, int], tuple[int, ...]] | None:
    """The pool after the head's words, and the hash constants for the (at
    most two) words of one more part; None when the head has fewer than
    four words, as its words then share pool slots with the next part's."""
    words = _words32(head)
    if len(words) < 4:
        return None
    return _mix(words), _hash_consts(16 + 4 * (len(words) - 4), 8)


def stream(seed: int, *key: int | str) -> np.random.Generator:
    """Generator for (seed, *key). Identical arguments, identical draws."""
    parts = (seed, *key)
    head = _head_pool(parts[:-1])
    if head is None:
        pool = _mix(_words32(parts))
    else:
        pool, a = head
        for i, word in enumerate(_words32(parts[-1:])):
            pool = _absorb(pool, word, a, 4 * i)
    p0, p1, p2, p3 = pool
    # SeedSequence.generate_state(4, uint64): eight 32-bit words cycling
    # over the pool, paired low word first.
    b = _B
    s0 = (p0 ^ b[0]) * b[1] & _MASK32
    s1 = (p1 ^ b[1]) * b[2] & _MASK32
    s2 = (p2 ^ b[2]) * b[3] & _MASK32
    s3 = (p3 ^ b[3]) * b[4] & _MASK32
    s4 = (p0 ^ b[4]) * b[5] & _MASK32
    s5 = (p1 ^ b[5]) * b[6] & _MASK32
    s6 = (p2 ^ b[6]) * b[7] & _MASK32
    s7 = (p3 ^ b[7]) * b[8] & _MASK32
    generator, pcg64, seed_words = _numpy_random()
    return generator(pcg64(seed_words((
        (s0 ^ s0 >> 16) | (s1 ^ s1 >> 16) << 32,
        (s2 ^ s2 >> 16) | (s3 ^ s3 >> 16) << 32,
        (s4 ^ s4 >> 16) | (s5 ^ s5 >> 16) << 32,
        (s6 ^ s6 >> 16) | (s7 ^ s7 >> 16) << 32,
    ))))


@lru_cache(maxsize=1)
def _numpy_random():
    """numpy.random's ``Generator`` and ``PCG64``, and a seed sequence that
    hands ``PCG64`` four precomputed words. Built on first use, so that
    importing openavg does not load ``numpy.random``."""
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words: tuple[int, int, int, int]) -> None:
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or dtype is not np.uint64:
                raise ValueError("holds exactly the four uint64 words PCG64 asks for")
            return np.array(self.words, np.uint64)

    return Generator, PCG64, SeedWords


class LazyStream:
    """The stream (seed, *key), created on its first draw.

    Its draws are those of ``stream(seed, *key)``; a holder that never
    draws never pays for seeding a generator. Only ``integers`` is
    offered, which is all the per-node protocol draws.
    """

    __slots__ = ("_key", "_generator")

    def __init__(self, seed: int, *key: int | str) -> None:
        self._key = (seed, *key)
        self._generator: np.random.Generator | None = None

    def integers(self, low: int, high: int) -> int:
        if self._generator is None:
            self._generator = stream(*self._key)
        return self._generator.integers(low, high)


def node_set_fingerprint(nodes) -> int:
    """Stable 64-bit digest of a node set, usable as a stream key part."""
    payload = ",".join(str(v) for v in sorted(nodes))
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")
