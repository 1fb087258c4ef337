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

from openavg import rng
from openavg.agent import (
    AgentState,
    Surplus,
    depart_step,
    init_active,
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


def state(x=0, y=0, z=0, q_s=0):
    return AgentState(x=x, y=y, z=z, q_s=q_s)


def cells_for(*nodes):
    """Empty per-receiver [y, z] sums for one step."""
    return {v: [0, 0] for v in nodes}


class TestInitialization:
    def test_doubled_mass(self):
        s = init_active(5)
        assert (s.x, s.y, s.z, s.q_s) == (5, 10, 2, 5)


class TestQuantizedEstimate:
    """q_s, the floor(y / z) estimate that receive refreshes."""

    def test_frozen_without_tokens(self):
        for z in (0, -2):
            assert receive(state(y=9, z=z, q_s=77), [9, z]).q_s == 77


def pieces(y, z):
    """The z single-token pieces of (y, z) in cut order: with one
    candidate per token and token i drawn to candidate i, each
    candidate's sum is one piece, the last one the residual."""
    return split_mass(y, z, z, ScriptedRng(range(z - 1)))


class TestSplitMass:
    def test_three_tokens_all_same_candidate(self):
        assert split_mass(7, 3, 1, ScriptedRng([0, 0])) == [[7, 3]]
        assert pieces(7, 3) == [[2, 1], [2, 1], [3, 1]]

    def test_four_tokens_recompute_on_remainder(self):
        # 10//4=2, then 8//3=2, then 6//2=3, residual 3.
        assert split_mass(10, 4, 3, ScriptedRng([0, 1, 0])) == [[5, 2], [2, 1], [3, 1]]
        assert pieces(10, 4) == [[2, 1], [2, 1], [3, 1], [3, 1]]
        assert pieces(22, 5) == [[4, 1], [4, 1], [4, 1], [5, 1], [5, 1]]

    def test_single_token_never_routes(self):
        assert split_mass(4, 1, 5, ScriptedRng([])) == [[0, 0]] * 4 + [[4, 1]]

    def test_negative_mass_floors_down(self):
        assert split_mass(-5, 2, 1, ScriptedRng([0])) == [[-5, 2]]
        assert pieces(-5, 2) == [[-3, 1], [-2, 1]]

    def test_zero_and_negative_token_count_pass_through(self):
        assert split_mass(9, 0, 2, ScriptedRng([])) == [[0, 0], [9, 0]]
        assert split_mass(9, -4, 2, ScriptedRng([])) == [[0, 0], [9, -4]]

    def test_needs_a_candidate(self):
        with pytest.raises(ValueError, match="need at least one candidate"):
            split_mass(1, 1, 0, ScriptedRng([]))

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(
        y=st.integers(-(10**6), 10**6),
        z=st.integers(0, 64),
        n_candidates=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_split_conserves_and_stays_tight(self, y, z, n_candidates, seed):
        sums = split_mass(y, z, n_candidates, np.random.default_rng(seed))
        assert len(sums) == n_candidates
        assert sum(s[0] for s in sums) == y
        assert sum(s[1] for s in sums) == z
        if z >= 1:
            base = y // z
            assert all(s[1] == 1 and s[0] in (base, base + 1) for s in pieces(y, z))


class TestRemainingStep:
    def test_no_targets_keeps_everything(self):
        before = state(x=1, y=7, z=3)
        cells = cells_for(0)
        out = remaining_step(before, 0, set(), ScriptedRng([0, 0]), cells)
        assert cells == {0: [7, 3]}
        assert out is None
        assert receive(before, cells[0]) == state(x=1, y=7, z=3, q_s=2)

    def test_routing_coalesces_per_receiver(self):
        before = state(x=2, y=10, z=4)
        cells = cells_for(1, 10, 20)
        remaining_step(before, 1, {20, 10}, ScriptedRng([0, 1, 0]), cells)
        assert cells == {1: [3, 1], 10: [5, 2], 20: [2, 1]}

    def test_self_draw_index_is_last(self):
        # one target, two candidates; pick index 1 = self every time
        before = state(y=6, z=3)
        cells = cells_for(5, 8)
        remaining_step(before, 5, {8}, ScriptedRng([1, 1]), cells)
        assert cells == {5: [6, 3], 8: [0, 0]}

    def test_estimate_floors_toward_minus_infinity(self):
        for y, q in ((-7, -4), (7, 3)):
            before = state(y=y, z=2)
            cells = cells_for(0)
            remaining_step(before, 0, set(), ScriptedRng([0]), cells)
            assert receive(before, cells[0]).q_s == q

    def test_estimate_frozen_when_no_tokens(self):
        before = state(y=5, z=0, q_s=77)
        cells = cells_for(0)
        remaining_step(before, 0, set(), ScriptedRng([]), cells)
        assert cells == {0: [5, 0]}
        assert receive(before, cells[0]).q_s == 77

    def test_rejects_self_target(self):
        with pytest.raises(ValueError):
            remaining_step(state(y=1, z=1), 3, {3}, ScriptedRng([]), cells_for(3))

    @pytest.mark.parametrize(
        "z, targets",
        [(z, targets) for z in (-1, 0, 1) for targets in (set(), {1, 2})]
        + [(z, set()) for z in range(2, 7)],
    )
    def test_node_that_cannot_draw_keeps_what_the_split_keeps(self, z, targets):
        # With z <= 1 or no target the split draws nothing (a range of one
        # candidate draws no word): the cells are the split's, and the
        # stream is left in the state it was seeded in.
        before = state(x=1, y=-9, z=z)
        cells = cells_for(0, 1, 2)
        draws = rng.stream(0, rng.TAG_AGENT, 0, 0)
        remaining_step(before, 0, targets, draws, cells)
        fresh = rng.stream(0, rng.TAG_AGENT, 0, 0)
        assert (draws._state, draws._has_uint32) == (fresh._state, fresh._has_uint32)
        expected = cells_for(0, 1, 2)
        receivers = [*sorted(targets), 0]
        sums = split_mass(-9, z, len(receivers), np.random.default_rng(0))
        for receiver, (y_sum, z_sum) in zip(receivers, sums):
            expected[receiver][0] += y_sum
            expected[receiver][1] += z_sum
        assert cells == expected

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(
        y=st.integers(-(10**4), 10**4),
        z=st.integers(0, 32),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_outcome_conserves_mass(self, y, z, seed):
        before = state(x=1, y=y, z=z)
        cells = cells_for(0, 1, 2, 3)
        remaining_step(before, 0, {1, 2, 3}, np.random.default_rng(seed), cells)
        assert sum(c[0] for c in cells.values()) == y
        assert sum(c[1] for c in cells.values()) == z
        assert set(cells) == {0, 1, 2, 3}
        # a receiver's sum is made of whole tokens: no token, no value
        assert all(c[1] >= 1 or c == [0, 0] for v, c in cells.items() if v != 0)


class TestDepartStep:
    def test_hands_over_surplus(self):
        before = state(x=5, y=12, z=2)
        cells = cells_for(9)
        out = depart_step(before, 4, {9}, ScriptedRng([0]), cells)
        assert cells == {9: [2, 0]}
        assert out == Surplus(2, 0, stranded=False)
        assert not out.stranded

    def test_untouched_agent_hands_over_nothing(self):
        # mass still at its initial (2x, 2): the surplus is exactly zero,
        # and the zero-valued handoff still draws its receiver
        draws = ScriptedRng([0])
        cells = cells_for(1)
        out = depart_step(init_active(3), 0, {1}, draws, cells)
        assert (out.y, out.z) == (0, 0)
        assert cells == {1: [0, 0]}
        assert draws._picks == []

    def test_uniform_pick_indexes_sorted_targets(self):
        before = state(x=0, y=5, z=3)
        cells = cells_for(2, 7, 9)
        depart_step(before, 0, {7, 2, 9}, ScriptedRng([2]), cells)
        assert cells == {2: [0, 0], 7: [0, 0], 9: [5, 1]}

    def test_stranded_without_targets(self):
        before = state(x=5, y=12, z=2)
        cells = cells_for(7)
        out = depart_step(before, 4, set(), ScriptedRng([]), cells)
        assert out.stranded
        assert (out.y, out.z) == (2, 0)
        assert cells == {7: [0, 0]}

    @settings(derandomize=True, deadline=None)
    @given(
        x=st.integers(-100, 100),
        y=st.integers(-(10**4), 10**4),
        z=st.integers(0, 32),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_surplus_is_everything_but_own_share(self, x, y, z, seed):
        before = state(x=x, y=y, z=z)
        cells = cells_for(1, 2)
        out = depart_step(before, 0, {1, 2}, np.random.default_rng(seed), cells)
        assert (out.y, out.z) == (y - 2 * x, z - 2)
        assert sorted(cells.values()) == sorted([[y - 2 * x, z - 2], [0, 0]])


class TestReceive:
    def test_sums_kept_and_inbound(self):
        cells = cells_for(0, 1, 2)
        start = state(y=3, z=1)
        remaining_step(start, 0, set(), ScriptedRng([]), cells)
        # 7 splits into 2 and 2 for node 0, 3 stays; 2 into 1 and 1
        remaining_step(state(y=7, z=3), 1, {0}, ScriptedRng([0, 0]), cells)
        remaining_step(state(y=2, z=2), 2, {0}, ScriptedRng([0]), cells)
        after = receive(start, cells[0])
        assert (after.y, after.z, after.q_s) == (8, 4, 3)

    def test_nothing_arrives(self):
        after = receive(state(x=6, q_s=4), [7, 3])
        assert after == state(x=6, y=7, z=3, q_s=4)

    def test_estimate_comes_from_start_of_step_holding(self):
        # the start holding floors to 2; the delivered cell would give 10
        after = receive(state(y=5, z=2, q_s=0), [30, 3])
        assert (after.y, after.z, after.q_s) == (30, 3, 2)

    def test_zero_token_surplus_counts(self):
        cells = cells_for(0)
        start = state(y=4, z=2)
        remaining_step(start, 0, set(), ScriptedRng([0]), cells)
        depart_step(state(x=1, y=4, z=2), 9, {0}, ScriptedRng([0]), cells)
        after = receive(start, cells[0])
        assert (after.y, after.z) == (6, 2)
