"""Scenario model: what to simulate, loaded from JSON and validated.

A scenario fixes the node universe, who is active at step 0, where state
values come from, how membership churns, how the step topologies are
produced, the step ``k_prime`` after which membership and topology
distribution stay fixed, the family size ``T``, and the horizon.

Parsing problems (missing keys, wrong types, malformed graphs, a file,
``n_total``, ``T``, ``horizon`` or random family size above its
``MAX_*`` limit, a seed outside [0, 2**64)) raise ScenarioFormatError.
Semantic problems (inconsistent churn, disconnected stable union,
departures that would strand mass) are collected by validate_scenario()
as findings with severities, so callers can decide how hard to fail.
The validator checks, and the engine runs, what three functions state
once: when stochastic churn fires (firing_intervals), the active set of
every step, scheduled or drawn, one set at a time (active_sets), and the
explicit instance in force when no draw picks it (fixed_at).
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, replace
from functools import partial
from itertools import islice, pairwise
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, TypeVar, Union

from .graphs import DigraphInstance, NodeId, is_strongly_connected, union_digraph
from .rng import MAX_SEED, TAG_CHURN, Stream, stream


class ScenarioFormatError(Exception):
    """The scenario file or dict cannot be parsed into a Scenario."""


class ScenarioValidationError(Exception):
    """A scenario parsed but is semantically unusable for a run."""

    def __init__(self, report: "ValidationReport") -> None:
        lines = "; ".join(f.message for f in report.errors())
        super().__init__(f"scenario validation failed: {lines}")
        self.report = report


@dataclass(frozen=True, slots=True)
class ExplicitStates:
    """Fixed node -> state value map."""

    values: dict[NodeId, int]


@dataclass(frozen=True, slots=True)
class UniformIntStates:
    """Independent uniform integer draw on [low, high], both inclusive."""

    low: int
    high: int


StateSource = Union[ExplicitStates, UniformIntStates]


@dataclass(frozen=True, slots=True)
class ChurnEvent:
    """Scheduled membership change taking effect after step ``step``."""

    step: int
    arrivals: frozenset[NodeId]
    departures: frozenset[NodeId]


@dataclass(frozen=True, slots=True)
class ExplicitChurn:
    events: tuple[ChurnEvent, ...]


@dataclass(frozen=True, slots=True)
class ChurnInterval:
    """During steps start..end (inclusive) each step independently fires
    one single-node membership event with probability ``event_prob``; the
    event is an arrival or a departure according to the weights.
    """

    start: int
    end: int
    event_prob: float
    arrival_weight: float = 0.5
    departure_weight: float = 0.5


@dataclass(frozen=True, slots=True)
class StochasticChurn:
    intervals: tuple[ChurnInterval, ...]


ChurnSchedule = Union[ExplicitChurn, StochasticChurn]


@dataclass(frozen=True, slots=True)
class RandomFamilyTopology:
    """Topologies come from seeded families of random instances.

    For each distinct active set the engine derives a family of
    ``scenario.family_size`` instances with the given minimum out-degree
    and a strongly connected union, then picks one member uniformly at
    every step. Once membership stops changing the family is fixed, so
    the post-stabilization draw is i.i.d. over a fixed instance family.
    """

    min_out_degree: int


@dataclass(frozen=True, slots=True)
class ExplicitTopology:
    """Hand-written step graphs.

    ``transient[k]`` is used for step k < k_prime, restricted to the
    nodes active at k. From k_prime on, one ``stable`` instance is drawn
    per step with the given probabilities; stable instances must be
    defined exactly over the post-stabilization active set.
    """

    transient: tuple[DigraphInstance, ...]
    stable: tuple[tuple[DigraphInstance, float], ...]

    def fixed_at(
        self, step: int, k_prime: int, active: frozenset[NodeId]
    ) -> DigraphInstance | None:
        """The instance in force at ``step`` when no draw picks it: before
        k_prime, ``transient[step]`` restricted to ``active``, then the lone
        stable instance. None for several stable instances or a missing
        transient one."""
        if step >= k_prime:
            return self.stable[0][0] if len(self.stable) == 1 else None
        return self.transient[step].restricted_to(active) if step < len(self.transient) else None


TopologySchedule = Union[RandomFamilyTopology, ExplicitTopology]


@dataclass(frozen=True, slots=True)
class Scenario:
    n_total: int
    initially_active: frozenset[NodeId]
    initial_states: StateSource
    arrival_states: StateSource | None
    churn: ChurnSchedule
    topology: TopologySchedule
    k_prime: int
    family_size: int
    horizon: int
    seed: int = 0


@dataclass(frozen=True, slots=True)
class Finding:
    code: str
    severity: str  # "error" | "warning" | "info"
    message: str


@dataclass(frozen=True, slots=True)
class ValidationReport:
    findings: tuple[Finding, ...]

    def errors(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity == "error")

    def warnings(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity == "warning")

    def ok(self, strict: bool = False) -> bool:
        if self.errors():
            return False
        return not (strict and self.warnings())


# -- parsing ----------------------------------------------------------------

_T = TypeVar("_T")
_REQUIRED: Any = object()

# Upper limits on a scenario's size, checked as it is read and parsed,
# before anything is built from them: the file's bytes, the id universe,
# the per-step walks of validation and of a run, and the instances and
# edges of each random family (n_total * T * min(min_out_degree,
# n_total - 1) at most).
MAX_SCENARIO_BYTES = 16 * 1024 * 1024
MAX_N_TOTAL = 10_000
MAX_HORIZON = 100_000
MAX_T = 1_000
MAX_FAMILY_EDGES = 1_000_000


def _field(
    obj: dict[str, Any],
    key: str,
    where: str,
    parse: Callable[[Any, str], Any] | None = None,
    default: Any = _REQUIRED,
) -> Any:
    """``obj[key]``, passed through ``parse`` when one is given. A missing
    key is an error unless a default (which is parsed too) is given."""
    if key not in obj and default is _REQUIRED:
        raise ScenarioFormatError(f"{where}: missing key '{key}'")
    value = obj.get(key, default)
    return value if parse is None else parse(value, f"{where}.{key}")


def _as_int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioFormatError(f"{where}: expected integer, got {value!r}")
    return value


def _as_number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioFormatError(f"{where}: expected number, got {value!r}")
    # json reads NaN and +-Infinity. NaN fails every comparison, and an int
    # too large for a float compares exactly instead of overflowing.
    if not abs(value) <= sys.float_info.max:
        raise ScenarioFormatError(f"{where}: expected a finite number")
    return float(value)


def _node_set(value: Any, where: str) -> frozenset[NodeId]:
    if not isinstance(value, list):
        raise ScenarioFormatError(f"{where}: expected a list of node ids")
    return frozenset(_as_int(v, where) for v in value)


def _edge_list(value: Any, where: str) -> list[tuple[NodeId, NodeId]]:
    if not isinstance(value, list):
        raise ScenarioFormatError(f"{where}: expected a list of [tail, head]")
    edges = []
    for i, pair in enumerate(value):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ScenarioFormatError(f"{where}[{i}]: expected [tail, head]")
        edges.append((_as_int(pair[0], where), _as_int(pair[1], where)))
    return edges


def _entries(value: Any, where: str) -> Iterator[tuple[str, dict[str, Any]]]:
    """(location, object) for each entry of a list of objects."""
    if not isinstance(value, list):
        raise ScenarioFormatError(f"{where}: expected a list")
    for i, entry in enumerate(value):
        if not isinstance(entry, dict):
            raise ScenarioFormatError(f"{where}[{i}]: expected an object")
        yield f"{where}[{i}]", entry


def _list_of(parse: Callable[[dict[str, Any], str], _T]) -> Callable[[Any, str], list[_T]]:
    """Parser of a list of objects that ``parse`` parses one by one."""
    return lambda value, where: [parse(entry, w) for w, entry in _entries(value, where)]


def _typed(obj: Any, where: str, what: str, parsers: dict[str, Callable[..., _T]]) -> _T:
    """Parse an object with the parser that its "type" key names."""
    if not isinstance(obj, dict):
        raise ScenarioFormatError(f"{where}: expected an object")
    kind = _field(obj, "type", where)
    if not isinstance(kind, str) or kind not in parsers:
        raise ScenarioFormatError(f"{where}: unknown {what} type {kind!r}")
    return parsers[kind](obj, where)


def _instance(obj: dict[str, Any], where: str, universe: frozenset[NodeId]) -> DigraphInstance:
    if "nodes" in obj:
        nodes = _field(obj, "nodes", where, _node_set)
    else:
        nodes = universe
    try:
        return DigraphInstance.from_edges(nodes, _field(obj, "edges", where, _edge_list))
    except ValueError as exc:
        raise ScenarioFormatError(f"{where}: {exc}") from exc


def _explicit_states(obj: dict[str, Any], where: str) -> ExplicitStates:
    raw = _field(obj, "values", where)
    if not isinstance(raw, dict):
        raise ScenarioFormatError(f"{where}.values: expected an object")
    values: dict[NodeId, int] = {}
    for key, val in raw.items():
        # Canonical decimal only: "01" must not overwrite node 1's value.
        try:
            node = int(key)
            if str(node) != key:
                raise ValueError(key)
        except ValueError:
            raise ScenarioFormatError(f"{where}.values: bad node id {key!r}") from None
        values[node] = _as_int(val, f"{where}.values[{key}]")
    return ExplicitStates(values=values)


def _state_source(obj: Any, where: str) -> StateSource:
    return _typed(obj, where, "state source", {
        "explicit": _explicit_states,
        "uniform_int": lambda o, w: UniformIntStates(
            low=_field(o, "low", w, _as_int), high=_field(o, "high", w, _as_int)
        ),
    })


def _churn_event(obj: dict[str, Any], where: str) -> ChurnEvent:
    return ChurnEvent(
        step=_field(obj, "step", where, _as_int),
        arrivals=_field(obj, "arrivals", where, _node_set, []),
        departures=_field(obj, "departures", where, _node_set, []),
    )


def _churn_interval(obj: dict[str, Any], where: str) -> ChurnInterval:
    return ChurnInterval(
        start=_field(obj, "start", where, _as_int),
        end=_field(obj, "end", where, _as_int),
        event_prob=_field(obj, "event_prob", where, _as_number),
        arrival_weight=_field(obj, "arrival_weight", where, _as_number, 0.5),
        departure_weight=_field(obj, "departure_weight", where, _as_number, 0.5),
    )


def _churn(obj: Any, where: str) -> ChurnSchedule:
    events = _list_of(_churn_event)
    intervals = _list_of(_churn_interval)
    return _typed(obj, where, "churn", {
        "none": lambda o, w: ExplicitChurn(events=()),
        "explicit": lambda o, w: ExplicitChurn(
            events=tuple(sorted(_field(o, "events", w, events), key=lambda e: e.step))
        ),
        "stochastic": lambda o, w: StochasticChurn(
            intervals=tuple(sorted(_field(o, "intervals", w, intervals), key=lambda i: i.start))
        ),
    })


def _explicit_topology(obj: dict[str, Any], where: str, n_total: int) -> ExplicitTopology:
    # One id set shared by every instance that lists no nodes.
    instance = partial(_instance, universe=frozenset(range(n_total)))
    transient = _field(obj, "transient", where, _list_of(instance), [])
    raw_stable = _field(obj, "stable", where)
    if not isinstance(raw_stable, list) or not raw_stable:
        raise ScenarioFormatError(f"{where}.stable: expected a non-empty list")
    stable = []
    for w, entry in _entries(raw_stable, f"{where}.stable"):
        if "nodes" not in entry:
            raise ScenarioFormatError(f"{w}: stable instances need explicit 'nodes'")
        prob = _field(entry, "p", w, _as_number)
        g = instance(entry, w)
        if not g.nodes:
            raise ScenarioFormatError(f"{w}.nodes: a stable instance needs at least one node")
        stable.append((g, prob))
    return ExplicitTopology(transient=tuple(transient), stable=tuple(stable))


def _topology(obj: Any, where: str, n_total: int) -> TopologySchedule:
    return _typed(obj, where, "topology", {
        "random_family": lambda o, w: RandomFamilyTopology(
            min_out_degree=_field(o, "min_out_degree", w, _as_int)
        ),
        "explicit": partial(_explicit_topology, n_total=n_total),
    })


def _at_most(value: Any, where: str, limit: int) -> int:
    value = _as_int(value, where)
    if value > limit:
        raise ScenarioFormatError(f"{where}: {value} is above the limit of {limit}")
    return value


def _seed(value: Any, where: str) -> int:
    value = _as_int(value, where)
    if not 0 <= value <= MAX_SEED:
        raise ScenarioFormatError(f"{where}: {value} is outside [0, 2**64)")
    return value


def parse_scenario(data: Any) -> Scenario:
    """Build a Scenario from already-decoded JSON data."""
    if not isinstance(data, dict):
        raise ScenarioFormatError("scenario: expected a JSON object at top level")
    where = "scenario"
    n_total = _field(data, "n_total", where, partial(_at_most, limit=MAX_N_TOTAL))
    scenario = Scenario(
        n_total=n_total,
        initially_active=_field(data, "initially_active", where, _node_set),
        initial_states=_field(data, "initial_states", where, _state_source),
        arrival_states=(
            _field(data, "arrival_states", where, _state_source)
            if "arrival_states" in data
            else None
        ),
        churn=_field(data, "churn", where, _churn),
        topology=_field(data, "topology", where, partial(_topology, n_total=n_total)),
        k_prime=_field(data, "k_prime", where, _as_int),
        family_size=_field(data, "T", where, partial(_at_most, limit=MAX_T)),
        horizon=_field(data, "horizon", where, partial(_at_most, limit=MAX_HORIZON)),
        seed=_field(data, "seed", where, _seed, 0),
    )
    topology = scenario.topology
    if isinstance(topology, RandomFamilyTopology) and min(n_total, scenario.family_size) > 0:
        edges = n_total * scenario.family_size * min(topology.min_out_degree, n_total - 1)
        if edges > MAX_FAMILY_EDGES:
            raise ScenarioFormatError(
                f"{where}: a random family of n_total * T * min(min_out_degree, "
                f"n_total - 1) = {edges} edges is above the limit of {MAX_FAMILY_EDGES}"
            )
    return scenario


def load_scenario(path: str | Path) -> Scenario:
    """Read and parse a scenario JSON file of at most MAX_SCENARIO_BYTES.

    The file is read in chunks of at most 64 KiB, up to one byte past the
    limit, so a small file costs a small buffer.
    """
    try:
        raw = bytearray()
        with open(path, "rb") as fh:
            while len(raw) <= MAX_SCENARIO_BYTES and (
                chunk := fh.read(min(1 << 16, MAX_SCENARIO_BYTES + 1 - len(raw)))
            ):
                raw += chunk
        if len(raw) > MAX_SCENARIO_BYTES:
            raise ScenarioFormatError(
                f"{path}: the file is larger than the limit of {MAX_SCENARIO_BYTES} bytes"
            )
        text = raw.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioFormatError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    # JSONDecodeError or a repeated key; RecursionError from deep nesting
    except (ValueError, RecursionError) as exc:
        raise ScenarioFormatError(f"{path}: invalid JSON: {exc}") from exc
    return parse_scenario(data)


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """A JSON object as a dict, refusing a repeated key ``json`` would drop."""
    obj: dict[str, Any] = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated key {key!r}")
        obj[key] = value
    return obj


# -- validation ---------------------------------------------------------------


class _Findings(list[Finding]):
    """Findings in the order the checks produce them."""

    def add(self, code: str, severity: str, message: str) -> None:
        self.append(Finding(code, severity, message))


def _outside(ids: Iterable[NodeId], n_total: int) -> list[NodeId]:
    """The ids outside range(n_total), sorted."""
    return sorted(v for v in ids if not 0 <= v < n_total)


def _events(s: Scenario) -> tuple[ChurnEvent, ...]:
    """The scheduled churn events; stochastic churn schedules none."""
    return s.churn.events if isinstance(s.churn, ExplicitChurn) else ()


def _check_basics(s: Scenario, out: _Findings) -> None:
    if s.n_total < 1:
        out.add("size", "error", "n_total must be at least 1")
    if not s.initially_active:
        out.add("membership", "error", "initially_active is empty")
    if _outside(s.initially_active, s.n_total):
        out.add("membership", "error", "initially_active contains ids outside range(n_total)")
    if s.horizon < 0:
        out.add("horizon", "error", "horizon must be non-negative")
    if not 0 <= s.k_prime <= s.horizon:
        out.add("stabilization", "error", f"k_prime must lie in [0, horizon], got {s.k_prime}")
    if s.family_size < 1:
        out.add("family-size", "error", "T must be at least 1")


def _check_state_sources(s: Scenario, out: _Findings) -> None:
    if isinstance(s.initial_states, ExplicitStates):
        missing = s.initially_active - s.initial_states.values.keys()
        if missing:
            out.add(
                "initial-states", "error", f"no initial state for active nodes {sorted(missing)}"
            )
        extras = _outside(s.initial_states.values, s.n_total)
        if extras:
            out.add("initial-states", "error", f"initial states for unknown ids {extras}")
    else:
        _check_uniform(s.initial_states, "initial-states", out)

    scheduled = {v for event in _events(s) for v in event.arrivals}
    any_node = _stochastic_can_admit(s)
    if not (scheduled or any_node):
        return
    source = s.arrival_states
    if source is None:
        out.add("arrival-states", "error", "churn can admit nodes but arrival_states is missing")
    elif isinstance(source, ExplicitStates):
        uncovered = scheduled - source.values.keys()
        if uncovered:
            out.add("arrival-states", "error", f"no arrival state for {sorted(uncovered)}")
        covered = sum(0 <= v < s.n_total for v in source.values)  # keys are distinct
        if any_node and covered < s.n_total:
            out.add(
                "arrival-states",
                "error",
                "stochastic churn can admit any node; explicit arrival "
                "states must cover every id",
            )
    else:
        _check_uniform(source, "arrival-states", out)


def _stochastic_can_admit(s: Scenario) -> bool:
    """Whether stochastic churn can admit a node. With zero arrival weight
    it still can: a departure drawn when one node is left is an arrival,
    which needs a departure to fire at each of len(initially_active), and
    at least one, of the steps it fires."""
    intervals = firing_intervals(s)
    if any(iv.arrival_weight > 0 for iv in intervals):
        return True
    departure_steps = sum(
        max(0, iv.end + 1 - max(iv.start, 0)) for iv in intervals if iv.departure_weight > 0
    )
    return s.n_total > 1 and departure_steps >= max(1, len(s.initially_active))


def _check_uniform(source: UniformIntStates, code: str, out: _Findings) -> None:
    # State draws replay numpy's int64 ``Generator.integers``, which
    # defines no draw for a bound outside int64.
    if source.low > source.high:
        out.add(code, "error", "uniform range is empty")
    elif source.low < -(1 << 63) or source.high > (1 << 63) - 1:
        out.add(code, "error", "uniform bounds must lie in [-2**63, 2**63 - 1]")


def firing_intervals(s: Scenario) -> tuple[ChurnInterval, ...]:
    """The stochastic intervals with ``event_prob`` above 0, each cut to
    the steps before k_prime: the steps where churn can fire. () for
    explicit churn."""
    if isinstance(s.churn, ExplicitChurn):
        return ()
    return tuple(
        replace(iv, end=min(iv.end, s.k_prime - 1))
        for iv in s.churn.intervals
        if iv.event_prob > 0 and iv.start < s.k_prime
    )


def active_sets(s: Scenario, seed: int) -> Iterator[frozenset[NodeId]]:
    """The active set of every step 0..horizon+1: the set active during
    step k, then the set after the horizon.

    An event at step k takes effect from step k + 1: a scheduled one
    (explicit churn; ``"none"`` has none), or one drawn from the stream
    (seed, churn, k) at a step of ``firing_intervals``. Only the current
    set is held, and a step that changes nothing yields it again.
    """
    by_step = {event.step: event for event in _events(s)}
    churn = firing_intervals(s)
    active = frozenset(s.initially_active)
    yield active
    for k in range(s.horizon + 1):
        if k in by_step:
            active = (active - by_step[k].departures) | by_step[k].arrivals
        elif interval := next((iv for iv in churn if iv.start <= k <= iv.end), None):
            active = _drawn_membership(s, interval, stream(seed, TAG_CHURN, k), active)
        yield active


def _drawn_membership(
    s: Scenario, interval: ChurnInterval, draws: Stream, active: frozenset[NodeId]
) -> frozenset[NodeId]:
    """The active set after a step of ``interval`` with the step's stream."""
    if draws.random() >= interval.event_prob:
        return active
    weight_sum = interval.arrival_weight + interval.departure_weight
    wants_arrival = draws.random() < interval.arrival_weight / weight_sum
    inactive_count = s.n_total - len(active)
    # A departure must leave at least one node behind; an event that
    # cannot go the drawn way goes the other way if it can.
    can_depart = len(active) > 1
    if inactive_count and (wants_arrival or not can_depart):
        return active | {_nth_inactive(active, draws.integers(0, inactive_count))}
    if not can_depart:
        return active
    active_pool = sorted(active)
    return active - {active_pool[draws.integers(0, len(active_pool))]}


def _nth_inactive(active: frozenset[NodeId], index: int) -> NodeId:
    """The ``index``-th smallest id >= 0 outside ``active``, found by
    walking the active ids instead of listing the inactive ones."""
    pick = index
    for v in sorted(active):
        if v > pick:
            break
        pick += 1
    return pick


def _met_sets(s: Scenario) -> Iterator[tuple[ChurnEvent, frozenset[NodeId], frozenset[NodeId]]]:
    """Each scheduled event with the active sets before and after it."""
    by_step = {event.step: event for event in _events(s)}
    walk = islice(pairwise(active_sets(s, s.seed)), max(by_step, default=-1) + 1)
    for k, (active, after) in enumerate(walk):
        if k in by_step:
            yield by_step[k], active, after


def _check_explicit_churn(s: Scenario, out: _Findings) -> bool:
    """Event checks, then each event against the active set it meets.
    Returns whether no error was found."""
    assert isinstance(s.churn, ExplicitChurn)
    touched = {v for e in s.churn.events for v in e.arrivals | e.departures}
    if _outside(touched, s.n_total):
        out.add("churn-ids", "error", "churn events reference ids outside range(n_total)")
    for event in s.churn.events:
        if not 0 <= event.step <= s.horizon:
            out.add(
                "churn-step", "error", f"churn event at step {event.step} is outside [0, horizon]"
            )
        elif event.step >= s.k_prime and (event.arrivals or event.departures):
            out.add(
                "late-churn",
                "warning",
                f"membership changes at step {event.step} on or after "
                f"k_prime={s.k_prime}; post-stabilization guarantees do not apply",
            )
    if any(f.severity == "error" for f in out):
        return False

    steps = [event.step for event in s.churn.events]  # sorted as parsed
    repeated = next((k for k, j in zip(steps, steps[1:]) if k == j), None)
    if repeated is not None:
        out.add("churn-duplicate-step", "error", f"two churn events scheduled at step {repeated}")
        return False

    before = len(out)
    for event, active, after in _met_sets(s):
        k = event.step
        if event.arrivals & event.departures:
            out.add(
                "churn-overlap", "error", f"step {k}: nodes listed as both arriving and departing"
            )
        if event.arrivals & active:
            out.add(
                "churn-arrive-active",
                "error",
                f"step {k}: arrivals {sorted(event.arrivals & active)} are already active",
            )
        if event.departures - active:
            out.add(
                "churn-depart-inactive",
                "error",
                f"step {k}: departures {sorted(event.departures - active)} are not active",
            )
        if not after:
            out.add("churn-empty-network", "error", f"step {k}: the network would become empty")
    return len(out) == before


def _check_stochastic_churn(s: Scenario, out: _Findings) -> None:
    assert isinstance(s.churn, StochasticChurn)
    previous_end = None
    for iv in s.churn.intervals:
        if not 0.0 <= iv.event_prob <= 1.0:
            out.add("churn-prob", "error", "event_prob must be in [0, 1]")
        if iv.arrival_weight < 0 or iv.departure_weight < 0:
            out.add("churn-weights", "error", "churn weights must be >= 0")
        elif iv.arrival_weight + iv.departure_weight <= 0:
            out.add("churn-weights", "error", "churn weights sum to zero")
        if iv.start > iv.end or iv.start < 0:
            out.add("churn-interval", "error", f"bad interval [{iv.start}, {iv.end}]")
        if previous_end is not None and iv.start <= previous_end:
            out.add("churn-interval", "error", "churn intervals overlap")
        previous_end = iv.end if previous_end is None else max(iv.end, previous_end)
        if iv.end >= s.k_prime and iv.event_prob > 0:
            out.add(
                "late-churn",
                "warning",
                f"interval [{iv.start}, {iv.end}] extends past "
                f"k_prime={s.k_prime}; the engine will not fire events "
                "there, trim the interval",
            )


def _check_topology(s: Scenario, fixed: bool, out: _Findings) -> None:
    topo = s.topology
    if isinstance(topo, RandomFamilyTopology):
        if topo.min_out_degree < 1:
            out.add(
                "topology-degree",
                "error",
                "min_out_degree must be at least 1 or departures can strand",
            )
        out.add(
            "stable-union-connectivity",
            "info",
            "random families are regenerated until their union is strongly "
            "connected, so the post-stabilization connectivity requirement "
            "holds by construction",
        )
        return
    if len(topo.transient) < s.k_prime:
        out.add(
            "topology-transient",
            "error",
            f"need {s.k_prime} transient instances (one per step before "
            f"k_prime), got {len(topo.transient)}",
        )
    elif len(topo.transient) > s.k_prime:
        out.add(
            "topology-transient",
            "warning",
            "extra transient instances beyond k_prime are never used",
        )
    stable_nodes = topo.stable[0][0].nodes
    if any(g.nodes != stable_nodes for g, _ in topo.stable):
        out.add("topology-stable-nodes", "error", "stable instances span different node sets")
    else:
        total = sum(p for _, p in topo.stable)
        if any(p < 0 for _, p in topo.stable) or abs(total - 1.0) > 1e-9:
            out.add(
                "topology-probabilities",
                "error",
                f"stable probabilities must be >= 0 and sum to 1, sum is {total}",
            )
        if not is_strongly_connected(union_digraph([g for g, _ in topo.stable])):
            out.add(
                "stable-union-connectivity",
                "warning",
                "the union of stable instances is not strongly connected; "
                "convergence is not guaranteed",
            )
    if len(topo.stable) != s.family_size:
        out.add(
            "family-size",
            "warning",
            f"T={s.family_size} but {len(topo.stable)} stable instances are listed",
        )
    if not fixed:
        if firing_intervals(s):
            out.add(
                "topology-stable-nodes",
                "error",
                "explicit stable instances with stochastic churn before "
                f"k_prime={s.k_prime}: the active set from k_prime on is random",
            )
        return
    # The engine draws a stable instance at every step from k_prime through
    # the horizon. A k_prime outside [0, horizon], an error itself, is clamped
    # to the steps active_sets yields. A step that changes nothing yields the
    # same set object: compare where it changes.
    start = min(max(s.k_prime, 0), max(s.horizon + 1, 0))
    steps, previous = islice(active_sets(s, s.seed), start, max(start, s.horizon) + 1), None
    for k, active in enumerate(steps, start):
        if active is not previous and active != stable_nodes:
            when = "from k_prime on" if k == start else f"at step {k}"
            out.add(
                "topology-stable-nodes",
                "error",
                f"stable instances cover {sorted(stable_nodes)} but the "
                f"active set {when} is {sorted(active)}",
            )
            break
        previous = active


def _check_departures(s: Scenario, fixed: bool, out: _Findings) -> None:
    """The departure condition, checked against the instance the engine
    will use wherever that instance is known before the run."""
    if not fixed:
        if firing_intervals(s):
            out.add(
                "stranded-departure",
                "info",
                "stochastic churn: the departure condition is checked at runtime",
            )
        return
    topo = s.topology
    if not isinstance(topo, ExplicitTopology):
        return
    for event, active, _ in _met_sets(s):
        k = event.step
        g = topo.fixed_at(k, s.k_prime, active)
        if g is None:
            continue  # drawn at runtime, or missing: a topology-transient error
        remaining = active - event.departures
        for v in sorted(event.departures):
            # The engine refuses a stable instance that misses an active node.
            if v in g.nodes and remaining.isdisjoint(g.heads.get(v, ())):
                out.add(
                    "stranded-departure",
                    "warning",
                    f"step {k}: node {v} departs with no remaining "
                    "out-neighbor; its surplus mass will be lost",
                )


def validate_scenario(s: Scenario) -> ValidationReport:
    """Semantic checks. Errors make a scenario unrunnable; warnings mark
    configurations where the convergence guarantees do not apply.
    """
    out = _Findings()
    _check_basics(s, out)
    _check_state_sources(s, out)
    if isinstance(s.churn, ExplicitChurn):
        fixed = _check_explicit_churn(s, out)
    else:
        _check_stochastic_churn(s, out)
        fixed = not firing_intervals(s)
    _check_topology(s, fixed, out)
    _check_departures(s, fixed, out)
    return ValidationReport(findings=tuple(out))
