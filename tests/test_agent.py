"""Agent protocol: splitting, routing, departure handoff, delivery.

The concrete expected values below were worked out by hand on paper
before the implementation existed; they pin the exact splitting order,
the floor-toward-minus-infinity quantizer, and the self-candidate
position (last in the draw order, after the sorted targets).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openavg.agent import (
    AgentState,
    MassMessage,
    depart_step,
    init_active,
    quantized_estimate,
    receive,
    remaining_step,
    split_mass,
)


class ScriptedRng:
    """Feeds a fixed list of draw results; fails on exhaustion."""

    def __init__(self, picks):
        self._picks = list(picks)

    def integers(self, low, high):
        pick = self._picks.pop(0)
        assert low <= pick < high, f"scripted pick {pick} outside [{low}, {high})"
        return pick


def state(x=0, y=0, z=0, y_s=0, z_s=0, q_s=0, active=True):
    return AgentState(x=x, y=y, z=z, y_s=y_s, z_s=z_s, q_s=q_s, active=active)


class TestInitialization:
    def test_doubled_mass(self):
        s = init_active(5)
        assert (s.x, s.y, s.z) == (5, 10, 2)
        assert (s.y_s, s.z_s, s.q_s) == (10, 2, 5)
        assert s.active


class TestQuantizedEstimate:
    def test_floor_toward_minus_infinity(self):
        assert quantized_estimate(state(y_s=-7, z_s=2)) == -4
        assert quantized_estimate(state(y_s=7, z_s=2)) == 3

    def test_frozen_without_tokens(self):
        assert quantized_estimate(state(y_s=9, z_s=0, q_s=77)) == 77


class TestSplitMass:
    def test_three_tokens_all_same_candidate(self):
        split = split_mass(7, 3, 1, ScriptedRng([0, 0]))
        assert split.routed == ((0, 2), (0, 2))
        assert (split.residual_y, split.residual_z) == (3, 1)
        assert split.token_values() == [2, 2, 3]

    def test_four_tokens_recompute_on_remainder(self):
        # 10//4=2, then 8//3=2, then 6//2=3, residual 3.
        split = split_mass(10, 4, 3, ScriptedRng([0, 1, 0]))
        assert split.routed == ((0, 2), (1, 2), (0, 3))
        assert (split.residual_y, split.residual_z) == (3, 1)

    def test_single_token_never_routes(self):
        split = split_mass(4, 1, 5, ScriptedRng([]))
        assert split.routed == ()
        assert (split.residual_y, split.residual_z) == (4, 1)

    def test_negative_mass_floors_down(self):
        split = split_mass(-5, 2, 1, ScriptedRng([0]))
        assert split.routed == ((0, -3),)
        assert (split.residual_y, split.residual_z) == (-2, 1)

    def test_zero_and_negative_token_count_pass_through(self):
        assert split_mass(9, 0, 2, ScriptedRng([])).residual_z == 0
        assert split_mass(9, -4, 2, ScriptedRng([])).residual_y == 9

    def test_needs_a_candidate(self):
        with pytest.raises(ValueError):
            split_mass(1, 1, 0, ScriptedRng([]))

    @settings(max_examples=300)
    @given(
        y=st.integers(-(10**6), 10**6),
        z=st.integers(0, 64),
        n_candidates=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_split_conserves_and_stays_tight(self, y, z, n_candidates, seed):
        split = split_mass(y, z, n_candidates, np.random.default_rng(seed))
        total_y = sum(v for _, v in split.routed) + split.residual_y
        total_z = len(split.routed) + split.residual_z
        assert total_y == y
        assert total_z == z
        if z >= 1:
            base = y // z
            assert all(v in (base, base + 1) for v in split.token_values())


class TestRemainingStep:
    def test_no_targets_keeps_everything(self):
        before = state(x=1, y=7, z=3)
        out = remaining_step(before, 0, set(), 4, ScriptedRng([0, 0]))
        assert out.messages == ()
        assert (out.kept_y, out.kept_z) == (7, 3)
        assert (out.state.y, out.state.z) == (0, 0)
        assert (out.state.y_s, out.state.z_s, out.state.q_s) == (7, 3, 2)

    def test_routing_coalesces_per_receiver(self):
        before = state(x=2, y=10, z=4)
        out = remaining_step(before, 1, {20, 10}, 9, ScriptedRng([0, 1, 0]))
        assert out.messages == (
            MassMessage(sender=1, receiver=10, c_y=5, c_z=2, step=9),
            MassMessage(sender=1, receiver=20, c_y=2, c_z=1, step=9),
        )
        assert (out.kept_y, out.kept_z) == (3, 1)

    def test_self_draw_index_is_last(self):
        # one target, two candidates; pick index 1 = self every time
        before = state(y=6, z=3)
        out = remaining_step(before, 5, {8}, 0, ScriptedRng([1, 1]))
        assert out.messages == ()
        assert (out.kept_y, out.kept_z) == (6, 3)

    def test_estimate_frozen_when_no_tokens(self):
        before = state(y=5, z=0, q_s=77)
        out = remaining_step(before, 0, set(), 0, ScriptedRng([]))
        assert out.state.q_s == 77
        assert (out.state.y_s, out.state.z_s) == (5, 0)
        assert (out.kept_y, out.kept_z) == (5, 0)

    def test_rejects_inactive(self):
        with pytest.raises(ValueError):
            remaining_step(state(active=False), 0, set(), 0, ScriptedRng([]))

    def test_rejects_self_target(self):
        with pytest.raises(ValueError):
            remaining_step(state(y=1, z=1), 3, {3}, 0, ScriptedRng([]))

    @settings(max_examples=200)
    @given(
        y=st.integers(-(10**4), 10**4),
        z=st.integers(0, 32),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_outcome_conserves_mass(self, y, z, seed):
        before = state(x=1, y=y, z=z)
        out = remaining_step(before, 0, {1, 2, 3}, 0, np.random.default_rng(seed))
        sent_y = sum(m.c_y for m in out.messages)
        sent_z = sum(m.c_z for m in out.messages)
        assert out.kept_y + sent_y == y
        assert out.kept_z + sent_z == z
        assert all(m.c_z >= 1 for m in out.messages)
        assert all(m.receiver in {1, 2, 3} for m in out.messages)


class TestDepartStep:
    def test_hands_over_surplus(self):
        before = state(x=5, y=12, z=2)
        out = depart_step(before, 4, {9}, 3, ScriptedRng([0]))
        assert out.messages == (
            MassMessage(sender=4, receiver=9, c_y=2, c_z=0, step=3),
        )
        assert not out.stranded
        assert not out.state.active
        assert (out.state.y, out.state.z) == (0, 0)
        assert (out.kept_y, out.kept_z) == (0, 0)

    def test_untouched_agent_hands_over_nothing(self):
        # mass still at its initial (2x, 2): the surplus is exactly zero,
        # and the zero-valued handoff is still transmitted
        out = depart_step(init_active(3), 0, {1}, 0, ScriptedRng([0]))
        assert out.messages[0].c_y == 0
        assert out.messages[0].c_z == 0

    def test_uniform_pick_indexes_sorted_targets(self):
        before = state(x=0, y=5, z=3)
        out = depart_step(before, 0, {7, 2, 9}, 0, ScriptedRng([2]))
        assert out.messages[0].receiver == 9

    def test_stranded_without_targets(self):
        before = state(x=5, y=12, z=2)
        out = depart_step(before, 4, set(), 3, ScriptedRng([]))
        assert out.stranded
        assert out.messages == ()
        assert not out.state.active

    def test_rejects_inactive(self):
        with pytest.raises(ValueError):
            depart_step(state(active=False), 0, {1}, 0, ScriptedRng([]))

    @given(
        x=st.integers(-100, 100),
        y=st.integers(-(10**4), 10**4),
        z=st.integers(0, 32),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_surplus_is_everything_but_own_share(self, x, y, z, seed):
        before = state(x=x, y=y, z=z)
        out = depart_step(before, 0, {1, 2}, 0, np.random.default_rng(seed))
        (message,) = out.messages
        assert message.c_y == y - 2 * x
        assert message.c_z == z - 2


class TestReceive:
    def test_sums_kept_and_inbound(self):
        msgs = [
            MassMessage(sender=1, receiver=0, c_y=5, c_z=2, step=0),
            MassMessage(sender=2, receiver=0, c_y=2, c_z=1, step=0),
        ]
        after = receive(state(), 3, 1, msgs)
        assert (after.y, after.z) == (10, 4)

    def test_nothing_arrives(self):
        after = receive(state(q_s=4), 7, 3, [])
        assert (after.y, after.z) == (7, 3)
        assert after.q_s == 4  # snapshot fields untouched by delivery

    def test_zero_token_surplus_counts(self):
        msgs = [MassMessage(sender=9, receiver=0, c_y=2, c_z=0, step=0)]
        after = receive(state(), 4, 2, msgs)
        assert (after.y, after.z) == (6, 2)
