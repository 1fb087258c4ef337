"""Deterministic random-stream derivation.

Every stochastic choice in a simulation comes from a stream keyed by the
run seed plus a structural path (subsystem tag, step, node, ...). Streams
for distinct keys are statistically independent, and the same key always
reproduces the same draws, so results do not depend on dict iteration
order or on which subsystem asks first.

A stream replays numpy's ``default_rng(SeedSequence(key words))`` bit for
bit, in Python:

- the ``SeedSequence`` mixing is computed here. A stream is built on
  its key's head (every part but the last), resolved by ``stream_head``:
  the pool after the head's words, cached, so that seeding the stream
  absorbs only its last part's one or two 32-bit words. The engine
  resolves each step's ``(seed, agent, k)`` head once and builds the
  step's agent streams on it. A head of fewer than four words leaves the
  whole key to mix: the part of the mix that its first three words fix
  is cached, and the fourth word is mixed inline against it;
- the four seed words feed numpy's PCG64 (O'Neill 2014), a 128-bit LCG
  with XSL-RR output, seeded as numpy's ``pcg64_set_seed`` seeds it;
- ``integers`` is numpy's ``random_bounded_uint64_fill`` for one value:
  Lemire's rejection (Lemire 2019) on a 32-bit word, with the spare upper
  half of a 64-bit word kept between calls as numpy's ``has_uint32``
  keeps it, or on a 64-bit word for wider ranges; ``random`` is numpy's
  ``next_double``;
- ``integers(low, highs)`` with a sequence of bounds is numpy's
  ``integers(low, high_array)``, which draws each element with
  ``random_bounded_uint64``: one value per bound, equal to (and leaving
  the state of) the same scalar calls in order, drawn in one Python call
  with the generator in locals. A random instance's draws are one such
  batch, as none of their bounds depends on an earlier draw.

A stream is seeded when it is built, so the engine builds an agent
stream only for a departer or a remaining node that draws. Every draw
of a run, random instance families included, is made here, so traces
do not depend on the installed numpy.
NumPy's RNG policy (NEP 19) keeps ``SeedSequence`` and ``PCG64`` output
stable, but not ``Generator.integers`` or ``choice``, so the replay is
pinned to numpy 2.4.6, and the tests compare every draw and state with it.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import NamedTuple, Protocol, Sequence, overload

_MASK128 = (1 << 128) - 1
_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1

# numpy's PCG64 LCG multiplier (PCG_DEFAULT_MULTIPLIER_128), the step
# of ``Generator.random``'s 53-bit grid, and the factor whose product
# with a 64-bit x is x twice over, so that ``x * _ROTATE >> r & _MASK64``
# rotates x right by r < 64 bits (XSL-RR's rotation).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_ROTATE = (1 << 64) + 1
_2_POW_M53 = 1.0 / (1 << 53)

# Subsystem tags. Strings are hashed into the seed material, so renaming
# one silently changes every trace; treat these as frozen.
TAG_INIT_STATE = "init-state"
TAG_ARRIVAL_STATE = "arrival-state"
TAG_CHURN = "churn"
TAG_TOPOLOGY_FAMILY = "topology-family"
TAG_TOPOLOGY_DRAW = "topology-draw"
TAG_AGENT = "agent"

# A run's seed is one 64-bit key word, and an int key part is read modulo
# 2**64, so seeds are refused outside [0, MAX_SEED] rather than aliased.
MAX_SEED = (1 << 64) - 1

# SeedSequence's constants (numpy/random/bit_generator.pyx, pool size 4).
# Its hash constant is multiplied by _MULT_A at every hashmix call and by
# _MULT_B at every output word, whatever the data, so the constant of the
# t-th call is known in advance.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# Hashmix call i xors with _A[i] and multiplies by _A[i + 1]; output
# word i xors with _B[i] and multiplies by _B[i + 1].
_A = tuple(_INIT_A * pow(_MULT_A, i, 1 << 32) & _MASK32 for i in range(17))
_B = tuple(_INIT_B * pow(_MULT_B, i, 1 << 32) & _MASK32 for i in range(9))


@lru_cache(maxsize=64)
def _tag_word(tag: str) -> int:
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def _part_words(part: int | str) -> tuple[int, ...]:
    """The 32-bit entropy words SeedSequence reads from one key part: one
    64-bit word (a tag's digest, or the int modulo 2**64), split low word
    first, and only a word of 2**32 or more has two."""
    x = _tag_word(part) if isinstance(part, str) else int(part) & _MASK64
    return (x,) if x <= _MASK32 else (x & _MASK32, x >> 32)


def _hashmix(value: int, i: int) -> int:
    """SeedSequence's hashmix as its ``i``-th call (``i`` < 16): xor with
    ``_A[i]``, multiply by ``_A[i + 1]``."""
    h = (value ^ _A[i]) * _A[i + 1] & _MASK32
    return h ^ h >> 16


def _mixed(x: int, h: int) -> int:
    """SeedSequence's mix of hash ``h`` into pool word ``x``."""
    x = (_MIX_L * x - _MIX_R * h) & _MASK32
    return x ^ x >> 16


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


@lru_cache(maxsize=64)
def _absorb_consts(first: int, count: int) -> tuple[tuple[int, ...], ...]:
    """The hashmix constants of entropy words ``first`` (at least 4) to
    ``first + count - 1``: word j mixes into pool word i with SeedSequence's
    hashmix call 4j + i, which xors with entry i and multiplies by entry
    i + 1 of the word's five."""
    return tuple(
        tuple(_INIT_A * pow(_MULT_A, 4 * j + i, 1 << 32) & _MASK32 for i in range(5))
        for j in range(first, first + count)
    )


def _absorb(
    pool: tuple[int, int, int, int],
    words: Sequence[int],
    consts: Sequence[tuple[int, ...]],
) -> tuple[int, int, int, int]:
    """Mix entropy words past the pool's first four into each pool word,
    word j with the hashmix constants ``consts[j]``."""
    p0, p1, p2, p3 = pool
    for word, (a0, a1, a2, a3, a4) in zip(words, consts):
        h = (word ^ a0) * a1 & _MASK32
        p0 = (_MIX_L * p0 - _MIX_R * (h ^ h >> 16)) & _MASK32
        h = (word ^ a1) * a2 & _MASK32
        p1 = (_MIX_L * p1 - _MIX_R * (h ^ h >> 16)) & _MASK32
        h = (word ^ a2) * a3 & _MASK32
        p2 = (_MIX_L * p2 - _MIX_R * (h ^ h >> 16)) & _MASK32
        h = (word ^ a3) * a4 & _MASK32
        p3 = (_MIX_L * p3 - _MIX_R * (h ^ h >> 16)) & _MASK32
        p0 ^= p0 >> 16
        p1 ^= p1 >> 16
        p2 ^= p2 >> 16
        p3 ^= p3 >> 16
    return p0, p1, p2, p3


def _mix(words: Sequence[int]) -> tuple[int, int, int, int]:
    """SeedSequence's four-word pool after mixing in ``words``. A missing
    word among the first four hashes as 0. The first three come from a
    cache, the fourth is mixed here inline, and later ones are absorbed."""
    w0, w1, w2, w3 = (*words, 0, 0, 0)[:4]
    p0, p1, p2, h0, h1, h2 = _prefix_pool(w0, w1, w2)
    # Word 3's hashmix is call 3; the three steps (src -> 3) mix h0-h2
    # into it, and steps (3 -> 0), (3 -> 1) and (3 -> 2) are calls 13-15.
    a = _A
    p3 = (w3 ^ a[3]) * a[4] & _MASK32
    p3 ^= p3 >> 16
    for h in (h0, h1, h2):
        p3 = (_MIX_L * p3 - _MIX_R * h) & _MASK32
        p3 ^= p3 >> 16
    h = (p3 ^ a[13]) * a[14] & _MASK32
    p0 = (_MIX_L * p0 - _MIX_R * (h ^ h >> 16)) & _MASK32
    h = (p3 ^ a[14]) * a[15] & _MASK32
    p1 = (_MIX_L * p1 - _MIX_R * (h ^ h >> 16)) & _MASK32
    h = (p3 ^ a[15]) * a[16] & _MASK32
    p2 = (_MIX_L * p2 - _MIX_R * (h ^ h >> 16)) & _MASK32
    pool = (p0 ^ p0 >> 16, p1 ^ p1 >> 16, p2 ^ p2 >> 16, p3)
    if len(words) <= 4:
        return pool
    return _absorb(pool, words[4:], _absorb_consts(4, len(words) - 4))


class StreamHead(NamedTuple):
    """SeedSequence's mix after the words of a key's head, shared by every
    stream whose key is the head plus one more part."""

    words: tuple[int, ...]
    # The pool after the head's words once they fill its four slots, and
    # the absorb constants of the (at most two) words of one more part;
    # a shorter head's words share pool slots with the next part's.
    pool: tuple[int, int, int, int] | None
    consts: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=256)
def stream_head(*head: int | str) -> StreamHead:
    """The mixing state of the key head ``head``, for the streams
    ``Stream(stream_head(*head), last)`` of the keys ``(*head, last)``."""
    words: tuple[int, ...] = ()
    for part in head:
        words += _part_words(part)
    if len(words) < 4:
        return StreamHead(words, None, ())
    return StreamHead(words, _mix(words), _absorb_consts(len(words), 2))


def _seed_words_after(head: StreamHead, last: int | str) -> tuple[int, int, int, int]:
    """The four uint64 words that ``SeedSequence(key words)`` hands PCG64
    for the key of ``head``'s parts followed by ``last``:
    ``generate_state(4, uint64)``. A head that fills the pool leaves only
    the last part's one or two words to absorb, which is all a step's
    agent streams pay; a shorter one mixes the whole key, its fourth word
    inline."""
    words = _part_words(last)
    if head.pool is None:
        p0, p1, p2, p3 = _mix(head.words + words)
    else:
        p0, p1, p2, p3 = _absorb(head.pool, words, head.consts)
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


class IntegerDraws(Protocol):
    """The one RNG method the agent and family draws need: a uniform int in
    [low, high), or one per bound for a sequence of bounds, as numpy's
    ``Generator.integers`` draws them. A ``Stream`` returns Python ints
    and lists; a numpy ``Generator`` seeded the same way draws the same
    values as numpy ints and arrays, which index and compare as ints do."""

    @overload
    def integers(self, low: int, high: int) -> int: ...

    @overload
    def integers(self, low: int, high: Sequence[int]) -> Sequence[int]: ...


class Stream:
    """numpy's ``default_rng(SeedSequence(key words))``, replayed in Python,
    for the key of ``head``'s parts followed by ``last``.

    The generator is seeded when the stream is built, so build one only
    for a holder that draws. Its draws, and its PCG64 state afterwards,
    are numpy's for the same calls.
    """

    __slots__ = ("_state", "_inc", "_has_uint32", "_uinteger")

    def __init__(self, head: StreamHead, last: int | str) -> None:
        # numpy's ``pcg64_set_seed``: state and increment from the seed
        # words, then two LCG steps with the initial state added between.
        w0, w1, w2, w3 = _seed_words_after(head, last)
        inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
        self._inc = inc
        self._state = ((inc + (w0 << 64 | w1)) * _PCG_MULT + inc) & _MASK128
        self._has_uint32 = 0
        self._uinteger = 0

    def _next64(self) -> int:
        """Step the 128-bit LCG and return its XSL-RR output."""
        state = (self._state * _PCG_MULT + self._inc) & _MASK128
        self._state = state
        x = (state >> 64 ^ state) & _MASK64
        return x * _ROTATE >> (state >> 122) & _MASK64

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

    @overload
    def integers(self, low: int, high: int) -> int: ...

    @overload
    def integers(self, low: int, high: Sequence[int]) -> list[int]: ...

    def integers(self, low, high):
        """A uniform int in ``[low, high)``, as numpy's
        ``Generator.integers(low, high)`` draws it (int64 bounds): no
        draw when the range holds one value, else Lemire's rejection on
        a 32-bit word when the range fits one, on a 64-bit word otherwise.
        At a range of exactly 2**32 or 2**64 Lemire's method returns the
        raw word, which is what numpy draws there.

        ``high`` may also be a sequence of bounds: then the result is a
        list with one draw per bound, as ``integers(low, high_array)``
        draws them, equal to (and leaving the state of) the same scalar
        calls in order."""
        try:
            in_range = -(1 << 63) <= low < high <= 1 << 63
        except TypeError:  # int < sequence: one draw per bound
            return self._integers_each(low, high)
        if not in_range:
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

    def _integers_each(self, low: int, highs: Sequence[int]) -> list[int]:
        """``integers(low, high)`` for each bound in ``highs``, in order, with
        the generator's state, increment and kept half in locals and the
        LCG step inlined. Every bound is checked before anything is
        drawn, as numpy checks its array."""
        if not -(1 << 63) <= low < 1 << 63 or highs and not (
            low < min(highs) and max(highs) <= 1 << 63
        ):
            raise ValueError(f"need -2**63 <= low < every high <= 2**63, got {low}, {highs}")
        state, inc = self._state, self._inc
        has_uint32, uinteger = self._has_uint32, self._uinteger
        out: list[int] = []
        append = out.append
        for high in highs:
            span = high - low
            if span == 1:
                append(low)
            elif span <= 1 << 32:
                while True:
                    if has_uint32:
                        has_uint32 = 0
                        m = uinteger * span
                    else:
                        state = (state * _PCG_MULT + inc) & _MASK128
                        # The word is bits 0-63 of x; both halves are masked.
                        x = ((state >> 64 ^ state) & _MASK64) * _ROTATE >> (state >> 122)
                        has_uint32 = 1
                        uinteger = x >> 32 & _MASK32
                        m = (x & _MASK32) * span
                    # Lemire: reject below (2**32) % span, which is < span.
                    if m & _MASK32 >= span or m & _MASK32 >= (1 << 32) % span:
                        break
                append(low + (m >> 32))
            else:
                while True:
                    state = (state * _PCG_MULT + inc) & _MASK128
                    x = (state >> 64 ^ state) & _MASK64
                    m = (x * _ROTATE >> (state >> 122) & _MASK64) * span
                    if m & _MASK64 >= span or m & _MASK64 >= (1 << 64) % span:
                        break
                append(low + (m >> 64))
        self._state, self._has_uint32, self._uinteger = state, has_uint32, uinteger
        return out

    def random(self) -> float:
        """A uniform float in [0, 1), as ``Generator.random()`` draws it."""
        return (self._next64() >> 11) * _2_POW_M53


def stream(seed: int, *key: int | str) -> Stream:
    """The stream for (seed, *key). Identical arguments, identical draws."""
    *head, last = seed, *key
    return Stream(stream_head(*head), last)


def node_set_fingerprint(nodes) -> int:
    """Stable 64-bit digest of a node set, usable as a stream key part."""
    payload = ",".join(str(v) for v in sorted(nodes))
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")
