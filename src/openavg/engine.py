"""Synchronous round engine.

One step k works on the active set V[k]:

1. resolve membership: who remains, arrives, departs at this boundary
2. draw the directed topology instance for the step
3. record every node's state at the start of the step
4. departing nodes add their surplus to the cell of one remaining
   out-neighbor; a departer with none strands it, and the loss is kept
5. remaining nodes split their mass and add every piece, the kept ones
   included, to the receivers' cells: one integer (y, z) sum per
   remaining node
6. barrier: every remaining node's new holding is its cell
7. arrivals activate with fresh state, effective from the next step
8. ledger: the mass offset of the new states must equal minus the
   running surplus lost to stranded departures, or the run stops

Every random draw is keyed by (seed, subsystem, step, node), so the
iteration order above is a presentation choice, not a semantic one. Two
runs with the same scenario and seed produce identical traces.
"""

from __future__ import annotations

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
    out_adjacency,
    out_neighbors,  # noqa: F401  (perfbench's tests trace it through this name)
)
from .scenario import (
    ChurnEvent,
    ExplicitChurn,
    ExplicitStates,
    ExplicitTopology,
    RandomFamilyTopology,
    Scenario,
    ScenarioValidationError,
    StateSource,
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


class _FamilyCache:
    """Random-instance families keyed by active set.

    The family for a given node set is derived from the seed and a
    fingerprint of the set, never from when it is first needed, so the
    same membership always sees the same family.
    """

    def __init__(self, scenario: Scenario, seed: int) -> None:
        if not isinstance(scenario.topology, RandomFamilyTopology):
            raise TypeError("family cache needs a random-family topology")
        self._degree = scenario.topology.min_out_degree
        self._count = scenario.family_size
        self._seed = seed
        self._families: dict[frozenset[int], list[DigraphInstance]] = {}

    def family(self, active: frozenset[int]) -> list[DigraphInstance]:
        if active not in self._families:
            fingerprint = rng.node_set_fingerprint(active)
            draws = rng.generator(self._seed, rng.TAG_TOPOLOGY_FAMILY, fingerprint)
            self._families[active] = generate_instance_family(
                active, self._count, self._degree, draws
            )
        return self._families[active]


def draw_topology(
    scenario: Scenario,
    step: int,
    active: frozenset[int],
    seed: int,
    cache: _FamilyCache | None = None,
) -> DigraphInstance:
    """Directed instance in force at ``step`` over the given active set.

    Random-family mode picks one family member uniformly; the family is
    regenerated (from the same seeds) whenever the active set differs.
    Explicit mode uses transient[step] before the stabilization step and
    a probability-weighted stable instance afterwards. The draw for a
    given (seed, step) does not depend on any other step's draw.
    """
    topology = scenario.topology
    if isinstance(topology, RandomFamilyTopology):
        if cache is None:
            cache = _FamilyCache(scenario, seed)
        family = cache.family(active)
        idx = rng.stream(seed, rng.TAG_TOPOLOGY_DRAW, step).integers(0, len(family))
        return family[idx]

    assert isinstance(topology, ExplicitTopology)
    if step < scenario.k_prime:
        return topology.transient[step].restricted_to(active)
    chosen = topology.stable[-1][0]
    # A lone stable instance is chosen whatever the draw, so none is made.
    if len(topology.stable) > 1:
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


def _membership_change(
    scenario: Scenario,
    seed: int,
    step: int,
    active: frozenset[int],
    events_by_step: dict[int, ChurnEvent],
) -> tuple[frozenset[int], frozenset[int]]:
    """(arrivals, departures) taking effect at this step boundary."""
    if isinstance(scenario.churn, ExplicitChurn):
        event = events_by_step.get(step)
        if event is None:
            return frozenset(), frozenset()
        return event.arrivals, event.departures

    if step >= scenario.k_prime:
        return frozenset(), frozenset()
    interval = next(
        (
            iv
            for iv in scenario.churn.intervals
            if iv.start <= step <= iv.end and iv.event_prob > 0
        ),
        None,
    )
    if interval is None:
        return frozenset(), frozenset()
    stream = rng.stream(seed, rng.TAG_CHURN, step)
    if stream.random() >= interval.event_prob:
        return frozenset(), frozenset()
    weight_sum = interval.arrival_weight + interval.departure_weight
    wants_arrival = stream.random() < interval.arrival_weight / weight_sum
    inactive_count = scenario.n_total - len(active)
    # A departure must leave at least one node behind; an event that
    # cannot go the drawn way goes the other way if it can.
    can_depart = len(active) > 1
    if inactive_count and (wants_arrival or not can_depart):
        pick = _nth_inactive(active, stream.integers(0, inactive_count))
        return frozenset({pick}), frozenset()
    if not can_depart:
        return frozenset(), frozenset()
    active_pool = sorted(active)
    pick = active_pool[stream.integers(0, len(active_pool))]
    return frozenset(), frozenset({pick})


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

    Refuses to run scenarios with validation errors; warnings (for
    example a scheduled stranded departure) are allowed because those
    runs are exactly how the failure modes are studied.

    Conservation is checked after every step: the states' mass offset
    must equal minus the surplus that stranded departures destroyed so
    far, exactly. Any other offset raises EngineInvariantError.
    """
    report = validate_scenario(scenario)
    if report.errors():
        raise ScenarioValidationError(report)
    if seed is None:
        seed = scenario.seed

    events_by_step: dict[int, ChurnEvent] = {}
    if isinstance(scenario.churn, ExplicitChurn):
        events_by_step = {e.step: e for e in scenario.churn.events}

    cache = (
        _FamilyCache(scenario, seed)
        if isinstance(scenario.topology, RandomFamilyTopology)
        else None
    )

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
    for k in range(scenario.horizon + 1):
        arrivals, departures = _membership_change(
            scenario, seed, k, active, events_by_step
        )
        membership = membership_sets(active, (active - departures) | arrivals)
        instance = draw_topology(scenario, k, active, seed, cache)

        per_node = dict(sorted(states.items()))
        average = true_average(per_node)
        error = consensus_error(per_node, average)

        violations: list[Violation] = []
        cells = {v: [0, 0] for v in membership.remaining}

        # Departers hand off and leave; remaining nodes split and route.
        # Cells only sum integers, so the ascending order matters only to
        # the order of the violations. A node's agent stream is seeded
        # only if it draws: one holding z <= 1 tokens splits nothing.
        heads = out_adjacency(instance)
        for v in sorted(active):
            targets = heads[v] & membership.remaining
            draws = rng.stream(seed, rng.TAG_AGENT, k, v)
            if v in membership.departing:
                surplus = depart_step(states.pop(v), v, targets, draws, cells)
                if surplus.stranded:
                    violations.append(
                        Violation(v, "stranded_departure", surplus.y, surplus.z)
                    )
                    lost_y += surplus.y
                    lost_z += surplus.z
            else:
                states[v] = remaining_step(states[v], v, targets, draws, cells)
        # Freed before the next step builds its own, so that two steps'
        # adjacencies are never held at once (it shows in peak memory).
        del heads

        for v, cell in cells.items():
            states[v] = receive(states[v], cell)

        for v in sorted(membership.arriving):
            if v in states:
                raise EngineInvariantError(f"step {k}: node {v} arrives while active")
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
        active = membership.remaining | membership.arriving
    return records
