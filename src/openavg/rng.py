"""Deterministic random-stream derivation.

Every stochastic choice in a simulation comes from a stream keyed by the
run seed plus a structural path (subsystem tag, step, node, ...). Streams
for distinct keys are statistically independent, and the same key always
reproduces the same draws, so results do not depend on dict iteration
order or on which subsystem asks first.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import numpy as np

_MASK64 = (1 << 64) - 1

# Subsystem tags. Strings are hashed into the seed material, so renaming
# one silently changes every trace; treat these as frozen.
TAG_INIT_STATE = "init-state"
TAG_ARRIVAL_STATE = "arrival-state"
TAG_CHURN = "churn"
TAG_TOPOLOGY_FAMILY = "topology-family"
TAG_TOPOLOGY_DRAW = "topology-draw"
TAG_AGENT = "agent"


@lru_cache(maxsize=64)
def _tag_word(tag: str) -> int:
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def _key_words(parts: tuple[int | str, ...]) -> list[int]:
    return [
        _tag_word(part) if isinstance(part, str) else int(part) & _MASK64
        for part in parts
    ]


def stream(seed: int, *key: int | str) -> np.random.Generator:
    """Generator for (seed, *key). Identical arguments, identical draws."""
    return np.random.default_rng(np.random.SeedSequence(_key_words((seed, *key))))


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
