"""Synchronous round engine.

One step k works on the active set V[k]:

1. resolve membership: the active set after this boundary comes from
   ``scenario.membership_history``, or is drawn at the steps of
   ``scenario.firing_intervals``
2. draw the directed topology instance for the step, unless
   ``ExplicitTopology.fixed_at`` fixes it
3. record every node's state at the start of the step
4. departing nodes add their surplus to the cell of one remaining
   out-neighbor; a departer with none strands it, and the loss is kept
5. remaining nodes split their mass and add every piece, the kept ones
   included, to the receivers' cells: one integer (y, z) sum per
   remaining node
6. barrier: every remaining node's next state is built once, from its
   start-of-step state and its cell, which is its new holding
7. arrivals activate with fresh state, effective from the next step
8. ledger: the mass offset of the new states must equal minus the
   running surplus lost to stranded departures, or the run stops

Every random draw is keyed by (seed, subsystem, step, node), so the
iteration order above is a presentation choice, not a semantic one. Two
runs with the same scenario and seed produce identical traces.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from . import rng
from .agent import AgentState, depart_step, init_active, receive, remaining_step
from .analysis import consensus_error, mass_offset, true_average
from .graphs import (
    DigraphInstance,
    MembershipSets,
    generate_instance_family,
    membership_sets,
    out_neighbors,  # noqa: F401  (perfbench's tests trace it through this name)
)
from .scenario import (
    ChurnInterval,
    ExplicitStates,
    ExplicitTopology,
    RandomFamilyTopology,
    Scenario,
    ScenarioValidationError,
    StateSource,
    firing_intervals,
    membership_history,
    validate_scenario,
)


class EngineInvariantError(Exception):
    """Internal consistency breach; indicates a bug, not a bad scenario."""


class Violation(NamedTuple):
    """A node the protocol failed at one step, and the (y, z) it lost."""

    node: int
    kind: str
    lost_y: int
    lost_z: int


@dataclass(frozen=True)
class RoundRecord:
    """Everything observable about one step, captured before processing.

    ``per_node`` maps each active node, in id order, to the state it held
    at the start of the step.
    """

    step: int
    active: frozenset[int]
    membership: MembershipSets
    per_node: dict[int, AgentState]
    q_true: Fraction
    epsilon: int
    excluded: int
    violations: tuple[Violation, ...]


def _family(
    scenario: Scenario, seed: int, active: frozenset[int]
) -> Sequence[DigraphInstance]:
    """The random family of ``active``, keyed by the seed and the set's
    fingerprint, so the same membership always sees the same family."""
    assert isinstance(scenario.topology, RandomFamilyTopology)
    fingerprint = rng.node_set_fingerprint(active)
    draws = rng.stream(seed, rng.TAG_TOPOLOGY_FAMILY, fingerprint)
    return generate_instance_family(
        active, scenario.family_size, scenario.topology.min_out_degree, draws
    )


def draw_topology(
    scenario: Scenario,
    step: int,
    active: frozenset[int],
    seed: int,
    family: Sequence[DigraphInstance] | None = None,
) -> DigraphInstance:
    """Directed instance in force at ``step`` over the given active set.

    Random-family mode picks one member of ``family``, the family of
    ``active`` that ``run`` holds, uniformly. Explicit mode uses the
    instance ``ExplicitTopology.fixed_at`` gives, and draws a
    probability-weighted stable instance where it gives none. The draw
    for a given (seed, step) does not depend on any other step's draw.
    """
    topology = scenario.topology
    if isinstance(topology, RandomFamilyTopology):
        assert family is not None
        idx = rng.stream(seed, rng.TAG_TOPOLOGY_DRAW, step).integers(0, len(family))
        return family[idx]

    assert isinstance(topology, ExplicitTopology)
    chosen = topology.fixed_at(step, scenario.k_prime, active)
    if chosen is None:
        chosen = topology.stable[-1][0]
        u = rng.stream(seed, rng.TAG_TOPOLOGY_DRAW, step).random()
        cumulative = 0.0
        for instance, p in topology.stable:
            cumulative += p
            if u < cumulative:
                chosen = instance
                break
    if chosen.nodes != active:
        raise EngineInvariantError(
            f"step {step}: stable instance covers {sorted(chosen.nodes)} "
            f"but the active set is {sorted(active)}"
        )
    return chosen


def _drawn_membership(
    scenario: Scenario, churn: Sequence[ChurnInterval], seed: int, step: int, active: frozenset[int]
) -> frozenset[int]:
    """The active set after this step boundary, where ``churn`` is the
    scenario's ``firing_intervals``."""
    interval = next((iv for iv in churn if iv.start <= step <= iv.end), None)
    if interval is None:
        return active
    stream = rng.stream(seed, rng.TAG_CHURN, step)
    if stream.random() >= interval.event_prob:
        return active
    weight_sum = interval.arrival_weight + interval.departure_weight
    wants_arrival = stream.random() < interval.arrival_weight / weight_sum
    inactive_count = scenario.n_total - len(active)
    # A departure must leave at least one node behind; an event that
    # cannot go the drawn way goes the other way if it can.
    can_depart = len(active) > 1
    if inactive_count and (wants_arrival or not can_depart):
        return active | {_nth_inactive(active, stream.integers(0, inactive_count))}
    if not can_depart:
        return active
    active_pool = sorted(active)
    return active - {active_pool[stream.integers(0, len(active_pool))]}


def _nth_inactive(active: frozenset[int], index: int) -> int:
    """The ``index``-th smallest id >= 0 outside ``active``, found by
    walking the active ids instead of listing the inactive ones."""
    pick = index
    for v in sorted(active):
        if v > pick:
            break
        pick += 1
    return pick


def _state_value(
    source: StateSource | None, node: int, seed: int, *stream_key: int | str
) -> int:
    """Value of ``node`` from ``source``; a uniform source draws it from
    the stream (seed, *stream_key)."""
    if source is None:
        raise EngineInvariantError(
            f"node {node} arrives but no arrival state source exists"
        )
    if isinstance(source, ExplicitStates):
        return source.values[node]
    return rng.stream(seed, *stream_key).integers(source.low, source.high + 1)


def run(scenario: Scenario, seed: int | None = None) -> list[RoundRecord]:
    """Simulate steps 0..horizon and return one record per step.

    Refuses seeds outside [0, 2**64) and scenarios with validation
    errors; warnings (a scheduled stranded departure, say) are allowed,
    as those runs are exactly how the failure modes are studied.

    Conservation is checked after every step: the states' mass offset
    must equal minus the surplus that stranded departures destroyed so
    far, exactly. Any other offset raises EngineInvariantError.
    """
    report = validate_scenario(scenario)
    if report.errors():
        raise ScenarioValidationError(report)
    seed = scenario.seed if seed is None else seed
    if not 0 <= seed <= rng.MAX_SEED:
        raise ValueError(f"seed {seed} is outside [0, 2**64)")

    history = membership_history(scenario)
    churn = firing_intervals(scenario)
    # Only the active set's family is held; a set that returns redraws it.
    random_family = isinstance(scenario.topology, RandomFamilyTopology)
    family_nodes, family = None, None

    states: dict[int, AgentState] = {
        v: init_active(
            _state_value(scenario.initial_states, v, seed, rng.TAG_INIT_STATE, v)
        )
        for v in sorted(scenario.initially_active)
    }
    active = frozenset(scenario.initially_active)
    # Surplus (y - 2x, z - 2) destroyed by stranded departures so far.
    lost_y = lost_z = 0

    records: list[RoundRecord] = []
    average = None  # of the active set, computed when the set changes
    for k in range(scenario.horizon + 1):
        next_active = (
            history[k + 1] if history else _drawn_membership(scenario, churn, seed, k, active)
        )
        membership = membership_sets(active, next_active)
        if random_family and active != family_nodes:
            family = None  # freed before the next one is drawn
            family_nodes, family = active, _family(scenario, seed, active)
        instance = draw_topology(scenario, k, active, seed, family)

        per_node = dict(sorted(states.items()))
        if average is None:
            average = true_average(per_node)
        error = consensus_error(per_node, average)

        violations: list[Violation] = []
        cells = {v: [0, 0] for v in membership.remaining}

        # Departers hand off and leave; remaining nodes split and route.
        # Cells only sum integers, so the ascending order matters only to
        # the order of the violations. The step's agent streams share the
        # head (seed, agent, k). A remaining node that cannot draw (z <= 1,
        # or no remaining out-neighbor) gets no stream: it keeps its
        # holding, as split_mass would.
        agents = rng.stream_head(seed, rng.TAG_AGENT, k)
        heads, remaining = instance.heads, membership.remaining
        for v, state in per_node.items():
            if v in membership.departing:
                targets = [u for u in heads.get(v, ()) if u in remaining]
                surplus = depart_step(state, v, targets, rng.Stream(agents, v), cells)
                if surplus.stranded:
                    violations.append(
                        Violation(v, "stranded_departure", surplus.y, surplus.z)
                    )
                    lost_y += surplus.y
                    lost_z += surplus.z
            elif state.z > 1 and (targets := [u for u in heads.get(v, ()) if u in remaining]):
                remaining_step(state, v, targets, rng.Stream(agents, v), cells)
            else:
                cell = cells[v]
                cell[0] += state.y
                cell[1] += state.z

        # Departers have no cell, so they drop out here.
        states = {v: receive(per_node[v], cell) for v, cell in cells.items()}

        for v in sorted(membership.arriving):
            value = _state_value(
                scenario.arrival_states, v, seed, rng.TAG_ARRIVAL_STATE, k, v
            )
            states[v] = init_active(value)

        y_offset, z_offset = mass_offset(states.values())
        offset = (y_offset + lost_y, z_offset + lost_z)
        if offset != (0, 0):
            raise EngineInvariantError(
                f"step {k}: conservation failed: mass offset {offset} "
                "beyond what stranded departures lost"
            )

        records.append(
            RoundRecord(
                step=k,
                active=active,
                membership=membership,
                per_node=per_node,
                q_true=average,
                epsilon=error.value,
                excluded=error.excluded,
                violations=tuple(violations),
            )
        )
        if membership.arriving or membership.departing:
            average = None
        active = next_active
    return records
