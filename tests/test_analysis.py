"""Exact measures: average, error, convergence judgment, conservation."""

import math
import random
from fractions import Fraction

import pytest

from openavg.analysis import (
    conservation_audit,
    consensus_error,
    convergence_time,
    true_average,
)
from openavg.agent import AgentState
from openavg.engine import RoundRecord
from openavg.graphs import membership_sets


def rec(step, per_node, q, epsilon=0, x=0):
    """Minimal record; per_node maps node -> (y, z, q_s), and
    every node declared the state value ``x``."""
    active = frozenset(per_node)
    return RoundRecord(
        step=step,
        active=active,
        membership=membership_sets(active, active),
        per_node={v: AgentState(x, *t) for v, t in per_node.items()},
        q_true=q,
        epsilon=epsilon,
        excluded=0,
        violations=(),
    )


def declared(values):
    """Node states that declared the given x values."""
    return {v: AgentState(x, 0, 0, 0) for v, x in values.items()}


def holding(mass):
    """Node states holding the given (y, z) pairs."""
    return {v: AgentState(0, y, z, 0) for v, (y, z) in mass.items()}


def fraction_reference(mass, average):
    """consensus_error's formula on Fraction ratios, for comparison."""
    total = excluded = 0
    for y, z in mass.values():
        if z <= 0:
            excluded += 1
            continue
        ratio = Fraction(y, z)
        if math.ceil(ratio) > math.ceil(average):
            total += math.ceil(ratio) - math.ceil(average)
        if math.floor(ratio) < math.floor(average):
            total += math.floor(average) - math.floor(ratio)
    return total, excluded


class TestTrueAverage:
    def test_exact_fraction(self):
        assert true_average(declared({0: 1, 1: 2, 2: 3, 3: 5})) == Fraction(11, 4)

    def test_reduces(self):
        assert true_average(declared({0: 2, 1: 2})) == Fraction(2, 1)

    def test_negative_values(self):
        assert true_average(declared({0: -3, 1: 2})) == Fraction(-1, 2)

    def test_empty_network_undefined(self):
        with pytest.raises(ValueError):
            true_average(declared({}))


class TestConsensusError:
    def test_hand_worked_case(self):
        # q = 5/2: ratios 4 (ceil 4 > 3, one over), 1 (floor 1 < 2, one
        # under), 2 (inside). total 2.
        mass = {0: (4, 1), 1: (1, 1), 2: (2, 1)}
        assert consensus_error(holding(mass), Fraction(5, 2)) == (2, 0)

    def test_zero_inside_band(self):
        mass = {0: (2, 1), 1: (3, 1), 2: (5, 2)}
        assert consensus_error(holding(mass), Fraction(5, 2)).value == 0

    def test_integer_average_has_degenerate_band(self):
        # q = 3: 7/2 = 3.5 pokes above the ceiling by one
        assert consensus_error(holding({0: (7, 2), 1: (3, 1)}), Fraction(3)).value == 1

    def test_tokenless_nodes_excluded_not_rated(self):
        mass = {0: (5, 0), 1: (-9, -1), 2: (3, 1)}
        result = consensus_error(holding(mass), Fraction(3))
        assert result.value == 0
        assert result.excluded == 2

    def test_exact_rational_boundary(self):
        # the ratio equals the average exactly, so nothing is counted
        assert consensus_error(holding({0: (1, 3)}), Fraction(1, 3)).value == 0

    def test_deep_negative_undershoot(self):
        assert consensus_error(holding({0: (-7, 2)}), Fraction(0)).value == 4

    @pytest.mark.parametrize("denominator", range(1, 8))
    def test_integer_floor_and_ceiling_match_fractions(self, denominator):
        draw = random.Random(denominator)
        for _ in range(50):
            average = Fraction(draw.randint(-40, 40), denominator)
            mass = {v: (draw.randint(-60, 60), draw.randint(-3, 9)) for v in range(30)}
            assert consensus_error(holding(mass), average) == fraction_reference(
                mass, average
            )


class TestConvergenceTime:
    def test_settles_in_band(self):
        q = Fraction(5, 2)
        trace = [
            rec(0, {0: (0, 0, 9), 1: (0, 0, 0)}, q),
            rec(1, {0: (0, 0, 3), 1: (0, 0, 2)}, q),
            rec(2, {0: (0, 0, 3), 1: (0, 0, 2)}, q),
            rec(3, {0: (0, 0, 3), 1: (0, 0, 2)}, q),
        ]
        report = convergence_time(trace, 0)
        assert report.converged
        assert report.settle_step == 1
        assert report.band == {2, 3}
        assert report.final_estimates == {0: 3, 1: 2}

    def test_oscillator_never_settles(self):
        q = Fraction(5, 2)
        trace = [
            rec(k, {0: (0, 0, 2 if k % 2 else 3)}, q) for k in range(6)
        ]
        report = convergence_time(trace, 0)
        assert not report.converged
        assert report.settle_step is None

    def test_constant_outside_band_fails(self):
        q = Fraction(5, 2)
        trace = [rec(k, {0: (0, 0, 7)}, q) for k in range(4)]
        assert not convergence_time(trace, 0).converged

    def test_single_record_window_cannot_certify(self):
        q = Fraction(2)
        trace = [rec(k, {0: (0, 0, 2)}, q) for k in range(3)]
        assert not convergence_time(trace, 2).converged
        assert convergence_time(trace, 1).converged

    def test_window_starts_at_from_step(self):
        q = Fraction(2)
        per = {0: (0, 0, 2)}
        noisy = {0: (0, 0, 9)}
        trace = [rec(0, noisy, q), rec(1, per, q), rec(2, per, q), rec(3, per, q)]
        report = convergence_time(trace, 1)
        assert report.converged
        assert report.settle_step == 1

    def test_extending_horizon_never_moves_settle_earlier(self):
        q = Fraction(2)
        flip = lambda k: {0: (0, 0, 2 if k != 2 else 1)}
        short = [rec(k, flip(k), q) for k in range(5)]
        longer = short + [rec(5, flip(5), q), rec(6, flip(6), q)]
        a = convergence_time(short, 0)
        b = convergence_time(longer, 0)
        assert a.converged and b.converged
        assert b.settle_step >= a.settle_step

    def test_membership_change_in_window_is_an_error(self):
        q = Fraction(2)
        trace = [
            rec(0, {0: (0, 0, 2)}, q),
            rec(1, {0: (0, 0, 2), 1: (0, 0, 2)}, q),
        ]
        with pytest.raises(ValueError):
            convergence_time(trace, 0)

    def test_bad_from_step(self):
        trace = [rec(0, {0: (0, 0, 2)}, Fraction(2))]
        with pytest.raises(ValueError):
            convergence_time(trace, 5)
        with pytest.raises(ValueError):
            convergence_time([], 0)


class TestConservationAudit:
    def test_balanced_rows_are_zero(self):
        # two nodes, x sums to 4, so y must total 8 and z must total 4
        q = Fraction(2)
        trace = [
            rec(0, {0: (6, 2, 0), 1: (2, 2, 0)}, q, x=2),
            rec(1, {0: (5, 1, 0), 1: (3, 3, 0)}, q, x=2),
        ]
        rows = conservation_audit(trace)
        assert all(r.y_imbalance == 0 and r.z_imbalance == 0 for r in rows)

    def test_losses_show_up_signed(self):
        q = Fraction(2)
        trace = [rec(0, {0: (5, 1, 0), 1: (2, 2, 0)}, q, x=2)]
        (row,) = conservation_audit(trace)
        assert row.y_imbalance == -1
        assert row.z_imbalance == -1
