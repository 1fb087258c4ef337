"""Stream derivation: ``rng.stream`` equals numpy's SeedSequence seeding.

``stream`` computes the SeedSequence mixing itself, with the pool after
the key's head cached; numpy's own ``SeedSequence`` is the reference.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from openavg import rng

REPO_ROOT = Path(__file__).resolve().parent.parent

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, -12345]
TAGS = [
    rng.TAG_INIT_STATE,
    rng.TAG_ARRIVAL_STATE,
    rng.TAG_CHURN,
    rng.TAG_TOPOLOGY_FAMILY,
    rng.TAG_TOPOLOGY_DRAW,
    rng.TAG_AGENT,
]
INTS = [0, 1, 2**32, 2**63]


def reference(seed, *key):
    return np.random.default_rng(np.random.SeedSequence(rng._key_words((seed, *key))))


def keys():
    """Keys of 0 to 3 parts after the seed: every tag, then steps and node
    ids over INTS, and a string as the last part."""
    yield ()
    yield ("free-form",)
    for tag in TAGS:
        yield (tag,)
        for step in INTS:
            yield (tag, step)
            yield (tag, step, "last")
            for node in INTS:
                yield (tag, step, node)


@pytest.mark.parametrize("seed", SEEDS)
def test_stream_state_equals_seed_sequence(seed):
    for key in keys():
        got = rng.stream(seed, *key).bit_generator.state
        assert got == reference(seed, *key).bit_generator.state, key


def test_stream_draws_equal_seed_sequence_draws():
    # A second call with the same head takes the cached pool.
    for node in range(3):
        got = rng.stream(7, rng.TAG_AGENT, 4, node).integers(0, 1000, size=20)
        expected = reference(7, rng.TAG_AGENT, 4, node).integers(0, 1000, size=20)
        assert got.tolist() == expected.tolist()


def test_long_key_equals_seed_sequence():
    key = (rng.TAG_AGENT, *range(2**31, 2**31 + 9), "x", 2**64 - 1)
    assert rng.stream(3, *key).bit_generator.state == reference(3, *key).bit_generator.state


def test_importing_the_cli_does_not_load_numpy_random():
    path = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, openavg.cli; print('numpy.random' in sys.modules)"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
