"""Deterministic random-stream derivation.

Every stochastic choice in a simulation comes from a stream keyed by the
run seed plus a structural path (subsystem tag, step, node, ...). Streams
for distinct keys are statistically independent, and the same key always
reproduces the same draws, so results do not depend on dict iteration
order or on which subsystem asks first.

A stream replays numpy's ``default_rng(SeedSequence(key words))`` bit for
bit, in Python:

- the ``SeedSequence`` mixing is computed here, with the pool after the
  key's head (every part but the last) cached, and the part of the mix
  that the first three 32-bit words fix cached for shorter heads;
- the four seed words feed numpy's PCG64 (O'Neill 2014), a 128-bit LCG
  with XSL-RR output, seeded as numpy's ``pcg64_set_seed`` seeds it;
- ``integers`` is numpy's ``random_bounded_uint64_fill`` for one value:
  Lemire's rejection (Lemire 2019) on a 32-bit word, with the spare upper
  half of a 64-bit word kept between calls as numpy's ``has_uint32``
  keeps it, or on a 64-bit word for wider ranges; ``random`` is numpy's
  ``next_double``.

A stream seeds itself on its first draw, so a holder that never draws
never pays for the mixing. Only the vectorised draw of a random instance
family needs numpy's own ``Generator``: ``generator`` builds it from the
same four words, and it alone loads ``numpy.random``. NumPy's RNG policy
(NEP 19) keeps ``SeedSequence`` and ``PCG64`` output stable, but not
``Generator.integers``, so traces are pinned with numpy 2.4.6 and
``tests/test_rng.py`` compares every draw and state with numpy's.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import numpy as np

_MASK128 = (1 << 128) - 1
_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1

# numpy's PCG64 LCG multiplier (PCG_DEFAULT_MULTIPLIER_128), and the
# step of ``Generator.random``'s 53-bit grid.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_2_POW_M53 = 1.0 / (1 << 53)

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
    """The 32-bit entropy words SeedSequence reads from the key: each part
    is one 64-bit word (a tag's digest, or the int modulo 2**64), split
    low word first, and only a word of 2**32 or more has two."""
    words: list[int] = []
    for part in parts:
        x = _tag_word(part) if isinstance(part, str) else int(part) & _MASK64
        words += (x,) if x <= _MASK32 else (x & _MASK32, x >> 32)
    return words


def _hashmix(value: int, i: int) -> int:
    """SeedSequence's hashmix as its ``i``-th call (``i`` < 16): xor with
    ``_A[i]``, multiply by ``_A[i + 1]``."""
    h = (value ^ _A[i]) * _A[i + 1] & _MASK32
    return h ^ h >> 16


def _mixed(x: int, h: int) -> int:
    """SeedSequence's mix of hash ``h`` into pool word ``x``."""
    x = (_MIX_L * x - _MIX_R * h) & _MASK32
    return x ^ x >> 16


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


_A = _hash_consts(0, 16)


@lru_cache(maxsize=256)
def _prefix_pool(w0: int, w1: int, w2: int) -> tuple[int, ...]:
    """What the first three entropy words fix of the pool mix: pool words
    0-2 after every mixing step that does not read word 3, and the three
    hashes that steps (0 -> 3), (1 -> 3) and (2 -> 3) mix into word 3."""
    pool = [_hashmix(w, i) for i, w in enumerate((w0, w1, w2))]
    into_3 = []
    i = 4
    for src in range(3):
        for dst in range(4):
            if src == dst:
                continue
            h = _hashmix(pool[src], i)
            if dst == 3:
                into_3.append(h)
            else:
                pool[dst] = _mixed(pool[dst], h)
            i += 1
    return (*pool, *into_3)


def _absorb(
    pool: tuple[int, int, int, int], word: int, a: tuple[int, ...], i: int
) -> tuple[int, int, int, int]:
    """Mix an entropy word past the pool's first four into each pool word,
    with the hashmix constants ``a[i:i + 5]``; ``_hashmix`` and
    ``_mixed`` are inlined, as this runs for almost every stream."""
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
    """SeedSequence's four-word pool after mixing in ``words``. A missing
    word among the first four hashes as 0, so the first three come
    from a cache and only the fourth and later words are mixed here."""
    words = words + [0] * (4 - len(words))
    p0, p1, p2, h0, h1, h2 = _prefix_pool(words[0], words[1], words[2])
    p3 = _mixed(_mixed(_mixed(_hashmix(words[3], 3), h0), h1), h2)
    pool = (
        _mixed(p0, _hashmix(p3, 13)),
        _mixed(p1, _hashmix(p3, 14)),
        _mixed(p2, _hashmix(p3, 15)),
        p3,
    )
    if len(words) > 4:
        a = _hash_consts(16, 4 * (len(words) - 4))
        for i, word in enumerate(words[4:]):
            pool = _absorb(pool, word, a, 4 * i)
    return pool


@lru_cache(maxsize=256)
def _head_pool(
    head: tuple[int | str, ...],
) -> tuple[tuple[int, int, int, int], tuple[int, ...]] | None:
    """The pool after the head's words, and the hash constants for the (at
    most two) words of one more part; None when the head has fewer than
    four words, as its words then share pool slots with the next part's."""
    words = _key_words(head)
    if len(words) < 4:
        return None
    return _mix(words), _hash_consts(16 + 4 * (len(words) - 4), 8)


def _seed_words(parts: tuple[int | str, ...]) -> tuple[int, int, int, int]:
    """The four uint64 words that ``SeedSequence(key words)`` hands PCG64
    for the key ``parts``: ``generate_state(4, uint64)``."""
    head = _head_pool(parts[:-1])
    if head is None:
        pool = _mix(_key_words(parts))
    else:
        pool, a = head
        for i, word in enumerate(_key_words(parts[-1:])):
            pool = _absorb(pool, word, a, 4 * i)
    p0, p1, p2, p3 = pool
    # Eight 32-bit words cycling over the pool, paired low word first.
    b0, b1, b2, b3, b4, b5, b6, b7, b8 = _B
    s0 = (p0 ^ b0) * b1 & _MASK32
    s1 = (p1 ^ b1) * b2 & _MASK32
    s2 = (p2 ^ b2) * b3 & _MASK32
    s3 = (p3 ^ b3) * b4 & _MASK32
    s4 = (p0 ^ b4) * b5 & _MASK32
    s5 = (p1 ^ b5) * b6 & _MASK32
    s6 = (p2 ^ b6) * b7 & _MASK32
    s7 = (p3 ^ b7) * b8 & _MASK32
    return (
        (s0 ^ s0 >> 16) | (s1 ^ s1 >> 16) << 32,
        (s2 ^ s2 >> 16) | (s3 ^ s3 >> 16) << 32,
        (s4 ^ s4 >> 16) | (s5 ^ s5 >> 16) << 32,
        (s6 ^ s6 >> 16) | (s7 ^ s7 >> 16) << 32,
    )


class Stream:
    """numpy's ``default_rng(SeedSequence(key words))``, replayed in Python.

    The generator is seeded on the first draw that needs a random word,
    so a holder that never draws never pays for seeding. Its draws,
    and its PCG64 state afterwards, are numpy's for the same calls.
    """

    __slots__ = ("_key", "_state", "_inc", "_has_uint32", "_uinteger")

    def __init__(self, key: tuple[int | str, ...]) -> None:
        self._key = key
        self._inc = 0  # odd once seeded
        self._has_uint32 = 0

    def _seed(self) -> None:
        """numpy's ``pcg64_set_seed``: state and increment from the seed
        words, then two LCG steps with the initial state added between."""
        w0, w1, w2, w3 = _seed_words(self._key)
        inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
        self._inc = inc
        self._state = ((inc + (w0 << 64 | w1)) * _PCG_MULT + inc) & _MASK128
        self._uinteger = 0

    def _next64(self) -> int:
        """Step the 128-bit LCG and return its XSL-RR output."""
        if not self._inc:
            self._seed()
        state = (self._state * _PCG_MULT + self._inc) & _MASK128
        self._state = state
        x = (state >> 64 ^ state) & _MASK64
        rot = state >> 122
        return (x >> rot | x << (64 - rot)) & _MASK64

    def _next32(self) -> int:
        """The low half of a fresh 64-bit word, or the high half that the
        previous call kept (numpy's ``has_uint32`` buffer)."""
        if self._has_uint32:
            self._has_uint32 = 0
            return self._uinteger
        word = self._next64()
        self._has_uint32 = 1
        self._uinteger = word >> 32
        return word & _MASK32

    def integers(self, low: int, high: int) -> int:
        """A uniform int in ``[low, high)``, as numpy's
        ``Generator.integers(low, high)`` draws it (int64 bounds): no
        draw when the range holds one value, else Lemire's rejection on
        a 32-bit word when the range fits one, on a 64-bit word otherwise.
        At a range of exactly 2**32 or 2**64 Lemire's method returns the
        raw word, which is what numpy draws there."""
        if not -(1 << 63) <= low < high <= 1 << 63:
            raise ValueError(f"need -2**63 <= low < high <= 2**63, got [{low}, {high})")
        span = high - low
        if span <= 1 << 32:
            if span == 1:
                return low
            m = self._next32() * span
            if m & _MASK32 < span:
                threshold = (1 << 32) % span
                while m & _MASK32 < threshold:
                    m = self._next32() * span
            return low + (m >> 32)
        m = self._next64() * span
        if m & _MASK64 < span:
            threshold = (1 << 64) % span
            while m & _MASK64 < threshold:
                m = self._next64() * span
        return low + (m >> 64)

    def random(self) -> float:
        """A uniform float in [0, 1), as ``Generator.random()`` draws it."""
        return (self._next64() >> 11) * _2_POW_M53


def stream(seed: int, *key: int | str) -> Stream:
    """The stream for (seed, *key). Identical arguments, identical draws."""
    return Stream((seed, *key))


def generator(seed: int, *key: int | str) -> np.random.Generator:
    """numpy's ``Generator`` for (seed, *key), seeded from the same four
    words as ``stream``, for draws over whole arrays of bounds."""
    Generator, PCG64, SeedWords = _numpy_random()
    return Generator(PCG64(SeedWords(_seed_words((seed, *key)))))


@lru_cache(maxsize=1)
def _numpy_random():
    """numpy.random's ``Generator`` and ``PCG64``, and a seed sequence that
    hands ``PCG64`` four precomputed words. Built on first use, so that
    only a run that draws a random family loads ``numpy.random``."""
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


def node_set_fingerprint(nodes) -> int:
    """Stable 64-bit digest of a node set, usable as a stream key part."""
    payload = ",".join(str(v) for v in sorted(nodes))
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")
