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
    """One call on a numpy generator, in Python values: ``"random"``, a
    scalar ``(low, high)`` or a batch ``(low, [highs])``."""
    if call == "random":
        return float(generator.random())
    low, high = call
    if isinstance(high, list):
        return generator.integers(low, highs_array(high)).tolist()
    return int(generator.integers(low, high))


def pcg_state(stream):
    """A stream's generator state, in ``bit_generator.state``'s form."""
    return {
        "bit_generator": "PCG64",
        "state": {"state": stream._state, "inc": stream._inc},
        "has_uint32": stream._has_uint32,
        "uinteger": stream._uinteger,
    }


def assert_replays(seed, key, calls):
    """The stream's draws, and its state after them, are numpy's."""
    assert_draws_equal(rng.stream(seed, *key), reference(seed, *key), calls, (seed, key))


def assert_draws_equal(got, expected, calls, label):
    """A stream's draws, and its state after them, are those of the numpy
    generator ``expected``."""
    for i, call in enumerate(calls):
        value = got.random() if call == "random" else got.integers(*call)
        want = draw(expected, call)
        assert value == want and type(value) is type(want), (label, i, call)
        if type(value) is list:
            assert all(type(v) is int for v in value)
    assert pcg_state(got) == expected.bit_generator.state, label


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


# Every key shape the seeding distinguishes: heads of 0 to 6 words, and
# last parts of one or two words, negative, or str.
KEY_SHAPES = [
    (5, rng.TAG_AGENT, 7, 11),  # 4-word head, one-word last part
    (5, rng.TAG_AGENT, 7, 2**32 - 1),  # the widest one-word part
    (5, rng.TAG_AGENT, 7, 2**32),  # 4-word head, two-word last part
    (5, rng.TAG_AGENT, 7, 2**64 - 1),
    (2**32, rng.TAG_AGENT, 7, 11),  # 5-word head
    (2**64 - 1, rng.TAG_AGENT, 2**40, 2**40),  # 6-word head, two-word last
    (5, rng.TAG_AGENT, 7, -1),  # negative: 2**64 - 1, two words
    (5, rng.TAG_AGENT, 7, -2**63),
    (2**32, rng.TAG_AGENT, 7, -3),
    (5, rng.TAG_AGENT, 7, "last"),  # str: its digest, two words
    (2**32, rng.TAG_AGENT, 7, rng.TAG_CHURN),
    (5, rng.TAG_CHURN, 9),  # 3-word head: the fourth word is mixed inline
    (5, rng.TAG_CHURN, -9),  # 3-word head, two-word last: a fifth word
    (5,),  # empty head
    (2**32, "x"),  # 2-word head
]


@pytest.mark.parametrize("key", KEY_SHAPES)
def test_seed_words_equal_seed_sequence(key):
    *head_parts, last = key
    expected = np.random.SeedSequence(key_words(key)).generate_state(4, np.uint64)
    expected = tuple(int(w) for w in expected)
    assert rng._seed_words_after(rng.stream_head(*head_parts), last) == expected
    # cached head
    assert rng._seed_words_after(rng.stream_head(*head_parts), last) == expected


@pytest.mark.parametrize("key", KEY_SHAPES)
def test_streams_of_one_head_equal_seed_sequence(key):
    # A step resolves its head once and builds each node's stream on it;
    # every such stream must seed and draw as numpy does for its own key.
    *head_parts, last = key
    head = rng.stream_head(*head_parts)
    for part in (last, 0, 2**33 + 1, "node"):
        key = (*head_parts, part)
        words = np.random.SeedSequence(key_words(key)).generate_state(4, np.uint64)
        expected = tuple(int(w) for w in words)
        assert rng._seed_words_after(head, part) == expected
        assert_draws_equal(rng.Stream(head, part), reference(*key), CALLS, key)


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


def test_one_value_range_draws_nothing():
    stream = rng.stream(1, rng.TAG_AGENT, 2, 3)
    assert stream.integers(5, 6) == 5
    assert pcg_state(stream) == pcg_state(rng.stream(1, rng.TAG_AGENT, 2, 3))
    stream.integers(0, 2)
    assert pcg_state(stream) != pcg_state(rng.stream(1, rng.TAG_AGENT, 2, 3))


def highs_array(highs):
    """``highs`` as an int64 bounds array, or an object array when a bound
    is 2**63 or more (a list would become float64, and lose the bound)."""
    return np.array(highs, dtype=object if max(highs, default=0) >= 2**63 else np.int64)


# Spans of every class: one value (no draw), 32-bit Lemire (2, 3,
# 2**31 + 1, the widest 2**32 - 1), the raw 32-bit word (2**32) and 64-bit
# Lemire (2**32 + 1, and 2**63, which never rejects). The raw 64-bit word
# of the full int64 range, 2**64, is test_full_int64_range.
BATCH_SPANS = [1, 2, 3, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63]


def assert_batch_replays(seed, calls):
    """``assert_replays`` with batches, on the key ``("batch",)``."""
    assert_replays(seed, ("batch",), calls)


class TestBatchedDraws:
    """``integers(low, highs)`` against numpy's ``integers(low, array)``:
    the values, and the generator state after them, including the spare
    32-bit half carried into and out of a batch."""

    @pytest.mark.parametrize("span", BATCH_SPANS)
    @pytest.mark.parametrize("low", [0, -7, -2**62])
    def test_one_span(self, span, low):
        for seed in range(3):
            assert_batch_replays(seed, [(low, [low + span] * 5), (low, [low + span] * 6)])

    def test_full_int64_range(self):
        assert_batch_replays(1, [(-2**63, [2**63, 2**63, 5, 2**63])])

    def test_empty_draws_nothing(self):
        stream = rng.stream(1, "batch")
        assert stream.integers(0, []) == []
        assert pcg_state(stream) == pcg_state(rng.stream(1, "batch"))
        assert_batch_replays(2, [(0, []), (3, [])])

    def test_one_value_spans_draw_nothing(self):
        stream = rng.stream(1, "batch")
        assert stream.integers(4, [5, 5, 5]) == [4, 4, 4]
        assert pcg_state(stream) == pcg_state(rng.stream(1, "batch"))

    @pytest.mark.parametrize("seed", range(4))
    def test_mixed_spans(self, seed):
        highs = [s for s in BATCH_SPANS if s < 2**63] * 3 + [2, 3, 99, 100, 1, 2]
        assert_batch_replays(seed, [(0, highs), (-5, [h - 5 for h in reversed(highs)])])

    @pytest.mark.parametrize("seed", range(4))
    def test_spare_half_carried_across_batches(self, seed):
        # An odd number of 32-bit draws leaves a spare half for the next
        # call, scalar or batched; a 64-bit draw leaves it in place.
        assert_batch_replays(seed, [
            (0, 3), (0, [5, 2**40, 7]), (0, 9), (0, [3]), (0, [4, 4]),
            (0, 2**33), (0, [6]), (0, 11), (0, [2, 2, 2**32 - 1]), (0, 5),
        ])

    @pytest.mark.parametrize("seed", range(3))
    def test_family_bounds_equal_scalar_calls(self, seed):
        # The bounds one random instance draws: Floyd's, then its shuffle's.
        highs = [99, 100, 2] * 40
        batch, scalar = rng.stream(seed, "batch"), rng.stream(seed, "batch")
        assert batch.integers(0, highs) == [scalar.integers(0, h) for h in highs]
        assert pcg_state(batch) == pcg_state(scalar)

    @pytest.mark.parametrize(
        "low, highs",
        [
            (3, [3]), (4, [5, 3]), (0, [0]), (0, [2, -1]), (-2**63 - 1, [0]),
            (0, [5, 2**63 + 1]), (-2**70, [5]), (-2**64, []), (2**63, []),
        ],
    )
    def test_bounds_numpy_refuses_raise(self, low, highs):
        with pytest.raises(ValueError):
            reference(1, "x").integers(low, highs_array(highs))
        stream = rng.stream(1, "x")
        with pytest.raises(ValueError):
            stream.integers(low, highs)
        # nothing drawn before the check
        assert pcg_state(stream) == pcg_state(rng.stream(1, "x"))


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


batches = st.builds(
    lambda low, spans: (low, [min(low + span, 2**63) for span in spans]),
    st.one_of(st.integers(-2**63, 2**63 - 1), st.integers(-100, 100)),
    st.lists(spans, max_size=12),
)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), calls=st.lists(st.one_of(bounds, batches), max_size=12))
def test_random_batches_equal_numpy(seed, calls):
    assert_batch_replays(seed, calls)


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
