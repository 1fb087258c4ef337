"""Streams: ``rng.stream`` replays numpy's ``default_rng(SeedSequence(...))``.

``stream`` computes the SeedSequence mixing itself, with the pool after
the key's head (or after its first three 32-bit words) cached, and draws
from a Python PCG64. numpy is the reference for all of it: the draws of
``integers`` and ``random``, and the generator state after them, must be
numpy's for the same calls.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

# One call of every kind numpy's ``integers`` distinguishes, as (low,
# high): no draw (a range of 1), 32-bit Lemire (about 25% rejections at
# 3 * 2**30 + 1, and its widest range, 2**32 - 1), a raw 32-bit word (a
# range of 2**32), 64-bit Lemire, a raw 64-bit word (the full int64
# range), and negative lows. ``random()`` calls sit between them, so that
# a kept 32-bit half must survive a 64-bit draw.
CALLS = [
    (0, 3), (0, 1), (0, 2), "random", (0, 3), (0, 3 * 2**30 + 1), (0, 3 * 2**30 + 1),
    (0, 2**32 - 1), "random", (0, 2**32), (0, 2**32), (0, 2**40), (0, 7),
    (0, 2**62 + 3), (-2**63, 2**63), (0, 5), "random", (-9, -2), (-2**40, 2**33),
    (-2**63, -2**63 + 1), (-2**63, 0), (2**63 - 4, 2**63), (0, 3),
]


def key_words(parts):
    """The 64-bit key words: a tag's digest, or the int modulo 2**64."""
    return [rng._tag_word(p) if isinstance(p, str) else p % 2**64 for p in parts]


def reference(seed, *key):
    return np.random.default_rng(np.random.SeedSequence(key_words((seed, *key))))


def draw(generator, call):
    if call == "random":
        return float(generator.random())
    return int(generator.integers(*call))


def pcg_state(stream):
    """A seeded stream's generator state, in ``bit_generator.state``'s form."""
    return {
        "bit_generator": "PCG64",
        "state": {"state": stream._state, "inc": stream._inc},
        "has_uint32": stream._has_uint32,
        "uinteger": stream._uinteger,
    }


def assert_replays(seed, key, calls):
    """The stream's draws, and its state after them, are numpy's."""
    got, expected = rng.stream(seed, *key), reference(seed, *key)
    for i, call in enumerate(calls):
        value = got.random() if call == "random" else got.integers(*call)
        assert type(value) is (float if call == "random" else int)
        assert value == draw(expected, call), (seed, key, i, call)
    assert pcg_state(got) == expected.bit_generator.state, (seed, key)


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
        assert_replays(seed, key, CALLS)


def test_stream_draws_equal_seed_sequence_draws():
    # A second call with the same head takes the cached pool; the
    # (seed, agent, k) head of four words takes the cached first three.
    for step in range(3):
        for node in range(3):
            assert_replays(7, (rng.TAG_AGENT, step, node), [(0, 1000)] * 20)


def test_long_key_equals_seed_sequence():
    key = (rng.TAG_AGENT, *range(2**31, 2**31 + 9), "x", 2**64 - 1)
    assert_replays(3, key, CALLS)


@pytest.mark.parametrize(
    "low, high", [(3, 3), (4, 3), (0, 0), (-2**63 - 1, 0), (0, 2**63 + 1), (-2**70, 5)]
)
def test_bounds_numpy_refuses_raise(low, high):
    with pytest.raises(ValueError):
        reference(1, "x").integers(low, high)
    with pytest.raises(ValueError):
        rng.stream(1, "x").integers(low, high)


def test_seeded_on_first_word_drawn():
    stream = rng.stream(1, rng.TAG_AGENT, 2, 3)
    assert stream.integers(5, 6) == 5  # a one-value range draws nothing
    assert stream._inc == 0
    stream.integers(0, 2)
    assert stream._inc % 2 == 1


spans = st.one_of(
    st.integers(1, 16),
    st.integers(1, 2**32 + 2),
    st.integers(1, 2**64),
    st.sampled_from([3 * 2**30 + 1, 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1, 2**64]),
)
bounds = st.one_of(
    st.just("random"),
    st.builds(
        lambda low, span: (low, min(low + span, 2**63)),
        st.one_of(st.integers(-2**63, 2**63 - 1), st.integers(-100, 100), st.just(-2**63)),
        spans,
    ),
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    seed=st.integers(-2**64, 2**64),
    key=st.lists(st.one_of(st.integers(0, 2**64 - 1), st.sampled_from(TAGS)), max_size=4),
    calls=st.lists(bounds, min_size=1, max_size=40),
)
def test_random_bound_sequences_equal_numpy(seed, key, calls):
    calls = [(0, 2)] + calls  # seed both, so that their states compare
    assert_replays(seed, tuple(key), calls)


def _run_python(code, cwd=None):
    path = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        cwd=cwd,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()


def test_importing_the_cli_does_not_load_numpy_random():
    code = "import sys, openavg.cli; print('numpy.random' in sys.modules)"
    assert _run_python(code) == ["False"]


def test_sweep_of_explicit_topology_does_not_load_numpy_random(tmp_path):
    # Every stream is drawn in Python.
    scenario = REPO_ROOT / "scenarios" / "static_small.json"
    code = (
        "import sys\n"
        "from openavg.cli import main\n"
        f"code = main(['sweep', {str(scenario)!r}, '--seeds', '3', '--out', '.'])\n"
        "print(code, 'numpy.random' in sys.modules)\n"
    )
    assert _run_python(code, cwd=tmp_path)[-1] == "0 False"
    assert (tmp_path / "static_small-sweep.csv").exists()
