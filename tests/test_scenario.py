"""Scenario parsing and semantic validation."""

import copy
import json
import math
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from openavg.graphs import DigraphInstance
from openavg.scenario import (
    ChurnEvent,
    ChurnInterval,
    ExplicitChurn,
    ExplicitStates,
    ExplicitTopology,
    RandomFamilyTopology,
    ScenarioFormatError,
    StochasticChurn,
    UniformIntStates,
    firing_intervals,
    load_scenario,
    membership_history,
    parse_scenario,
    validate_scenario,
)


# A stable topology whose one instance has no node.
EMPTY_STABLE = [{"nodes": [], "edges": [], "p": 1.0}]


def base_dict():
    """A small well-formed scenario, mutated per test."""
    return {
        "n_total": 4,
        "initially_active": [0, 1, 2, 3],
        "initial_states": {"type": "explicit",
                           "values": {"0": 1, "1": 2, "2": 3, "3": 5}},
        "churn": {"type": "none"},
        "topology": {
            "type": "explicit",
            "transient": [],
            "stable": [
                {"nodes": [0, 1, 2, 3], "edges": [[0, 1], [1, 2]], "p": 0.5},
                {"nodes": [0, 1, 2, 3], "edges": [[2, 3], [3, 0]], "p": 0.5},
            ],
        },
        "k_prime": 0,
        "T": 2,
        "horizon": 50,
        "seed": 7,
    }


def errors_of(data):
    return [f.code for f in validate_scenario(parse_scenario(data)).errors()]


def warnings_of(data):
    return [f.code for f in validate_scenario(parse_scenario(data)).warnings()]


class TestParsing:
    def test_round_trip_of_base(self):
        s = parse_scenario(base_dict())
        assert s.n_total == 4
        assert s.initially_active == {0, 1, 2, 3}
        assert isinstance(s.initial_states, ExplicitStates)
        assert s.initial_states.values == {0: 1, 1: 2, 2: 3, 3: 5}
        assert isinstance(s.churn, ExplicitChurn) and not s.churn.events
        assert isinstance(s.topology, ExplicitTopology)
        assert s.arrival_states is None
        assert s.family_size == 2

    def test_uniform_sources_and_stochastic_churn(self):
        data = base_dict()
        data["initial_states"] = {"type": "uniform_int", "low": 1, "high": 10}
        data["arrival_states"] = {"type": "uniform_int", "low": 10, "high": 20}
        data["churn"] = {
            "type": "stochastic",
            "intervals": [{"start": 0, "end": 10, "event_prob": 0.2}],
        }
        data["topology"] = {"type": "random_family", "min_out_degree": 2}
        data["k_prime"] = 20
        s = parse_scenario(data)
        assert isinstance(s.initial_states, UniformIntStates)
        assert isinstance(s.churn, StochasticChurn)
        assert s.churn.intervals[0].arrival_weight == 0.5  # default split
        assert isinstance(s.topology, RandomFamilyTopology)

    def test_explicit_churn_events_sorted(self):
        data = base_dict()
        data["churn"] = {
            "type": "explicit",
            "events": [
                {"step": 9, "departures": [3]},
                {"step": 2, "arrivals": []},
            ],
        }
        s = parse_scenario(data)
        assert [e.step for e in s.churn.events] == [2, 9]
        assert s.churn.events[1] == ChurnEvent(
            step=9, arrivals=frozenset(), departures=frozenset({3})
        )

    def test_missing_seed_defaults_to_zero(self):
        data = base_dict()
        del data["seed"]
        assert parse_scenario(data).seed == 0

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_range_ends_parse(self, seed):
        data = base_dict()
        data["seed"] = seed
        assert parse_scenario(data).seed == seed

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_range_is_a_format_error(self, seed):
        data = base_dict()
        data["seed"] = seed
        with pytest.raises(ScenarioFormatError, match=r"scenario\.seed: .* is outside"):
            parse_scenario(data)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("n_total"),
            lambda d: d.pop("churn"),
            lambda d: d.update(n_total="four"),
            lambda d: d.update(initially_active="all"),
            lambda d: d["initial_states"].update(type="gaussian"),
            lambda d: d["topology"].update(type="mesh"),
            lambda d: d["churn"].update(type="weird"),
            lambda d: d["topology"]["stable"][0].update(edges=[[0, 0]]),
            lambda d: d["topology"]["stable"][0].update(edges=[[0]]),
            lambda d: d["topology"]["stable"][0].pop("nodes"),
            lambda d: d["topology"].update(stable=[]),
            lambda d: d["initial_states"]["values"].update({"zero": 1}),
            lambda d: d["topology"].update(stable=EMPTY_STABLE),
        ],
    )
    def test_malformed_inputs_raise_format_error(self, mutate):
        data = base_dict()
        mutate(data)
        with pytest.raises(ScenarioFormatError):
            parse_scenario(data)

    @pytest.mark.parametrize("key", ["01", "+1", " 1_0 ", "-0", "1.0", "１"])
    def test_node_id_keys_must_be_canonical(self, key):
        # int() accepts all but "1.0", so "01" would overwrite node 1's value.
        data = base_dict()
        data["initial_states"]["values"][key] = 7
        with pytest.raises(
            ScenarioFormatError, match=r"^scenario\.initial_states\.values: bad node id"
        ):
            parse_scenario(data)

    def test_negative_node_id_key_parses(self):
        data = base_dict()
        data["initial_states"]["values"]["-3"] = 7
        assert parse_scenario(data).initial_states.values[-3] == 7

    @pytest.mark.parametrize(
        "old, new",
        [('"seed": 7', '"seed": 7, "seed": 8'), ('"0": 1,', '"0": 1, "0": 9,')],
    )
    def test_load_rejects_repeated_keys(self, tmp_path, old, new):
        path = tmp_path / "twice.json"
        text = json.dumps(base_dict())
        assert old in text
        path.write_text(text.replace(old, new))
        with pytest.raises(ScenarioFormatError, match="repeated key"):
            load_scenario(path)

    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf, 10**400],
        ids=["nan", "inf", "-inf", "huge-int"],
    )
    @pytest.mark.parametrize(
        "field", ["p", "event_prob", "arrival_weight", "departure_weight"]
    )
    def test_numbers_must_be_finite(self, field, value):
        data = base_dict()
        interval = {"start": 0, "end": 5, "event_prob": 0.5}
        data["churn"] = {"type": "stochastic", "intervals": [interval]}
        if field == "p":
            data["topology"]["stable"][0]["p"] = value
            where = r"topology\.stable\[0\]\.p"
        else:
            interval[field] = value
            where = rf"churn\.intervals\[0\]\.{field}"
        with pytest.raises(
            ScenarioFormatError, match=rf"^scenario\.{where}: expected a finite number$"
        ):
            parse_scenario(data)

    def test_top_level_must_be_object(self):
        with pytest.raises(ScenarioFormatError):
            parse_scenario([1, 2, 3])

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ScenarioFormatError):
            load_scenario(tmp_path / "nope.json")

    def test_load_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ScenarioFormatError):
            load_scenario(bad)


class TestBundledScenarios:
    def test_all_bundled_files_parse_clean(self, scenarios_dir):
        for name in ("paper_sec5", "static_small", "theorem1_violation"):
            s = load_scenario(scenarios_dir / f"{name}.json")
            report = validate_scenario(s)
            assert not report.errors(), (name, report.findings)

    def test_static_small_has_no_findings_at_all(self, scenarios_dir):
        s = load_scenario(scenarios_dir / "static_small.json")
        assert validate_scenario(s).findings == ()

    def test_violation_fixture_warns_about_stranding(self, scenarios_dir):
        s = load_scenario(scenarios_dir / "theorem1_violation.json")
        report = validate_scenario(s)
        codes = [f.code for f in report.warnings()]
        assert codes == ["stranded-departure"]
        assert "node 3" in report.warnings()[0].message
        assert report.ok(strict=False)
        assert not report.ok(strict=True)

    def test_churn_scenario_validates_strict(self, scenarios_dir):
        s = load_scenario(scenarios_dir / "paper_sec5.json")
        assert validate_scenario(s).ok(strict=True)


BUNDLED = {
    path.stem: json.loads(path.read_text())
    for path in sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.json"))
}
# What a mutation puts in place of a value, or DROP to delete its key.
ATOMS = [0, -1, 2**64, math.nan, math.inf, -math.inf, True, None, "", [], {}, [[0, 0]]]
DROP = "<drop>"


def locations(value, path=()):
    """The path of keys and indices of every value nested in ``value``."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield (*path, key)
        yield from locations(child, (*path, key))


@st.composite
def mutated_scenarios(draw):
    """A bundled scenario's name and one to three edits of its JSON: a
    location, and an atom to put there or DROP."""
    name = draw(st.sampled_from(sorted(BUNDLED)))
    location = st.sampled_from(list(locations(BUNDLED[name])))
    edit = st.tuples(location, st.sampled_from([DROP, *ATOMS]))
    return name, draw(st.lists(edit, min_size=1, max_size=3))


def mutate(data, edits):
    """A copy of ``data`` with the edits applied in order; an edit whose
    location an earlier one removed is skipped."""
    data = copy.deepcopy(data)
    for path, value in edits:
        parent = data
        try:
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]]
        except (KeyError, IndexError, TypeError):
            continue
        if value == DROP:
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(value)
    return data


class TestInputFuzz:
    @settings(derandomize=True, deadline=None, max_examples=600)
    @given(case=mutated_scenarios())
    @example(case=("static_small", [(("topology", "stable"), EMPTY_STABLE)]))
    def test_parse_refuses_only_as_format_error_and_validate_never_raises(self, case):
        name, edits = case
        try:
            scenario = parse_scenario(mutate(BUNDLED[name], edits))
        except ScenarioFormatError:
            return
        validate_scenario(scenario)


def stochastic_churn(start, event_prob):
    """One three-step interval of stochastic churn from ``start``."""
    return {"type": "stochastic",
            "intervals": [{"start": start, "end": start + 2, "event_prob": event_prob}]}


class TestMembershipHistory:
    """The active set of every step 0..horizon+1, as the validator checks
    it and the engine runs it."""

    @staticmethod
    def history(horizon=5, k_prime=0, **changes):
        data = base_dict()
        data.update(horizon=horizon, k_prime=k_prime, **changes)
        return membership_history(parse_scenario(data))

    def test_event_takes_effect_from_the_next_step(self):
        churn = {"type": "explicit", "events": [
            {"step": 1, "departures": [3]},
            {"step": 3, "arrivals": [3], "departures": [0]},
        ]}
        everyone, without_3, without_0 = {0, 1, 2, 3}, {0, 1, 2}, {1, 2, 3}
        assert self.history(churn=churn) == [
            everyone, everyone, without_3, without_3, without_0, without_0, without_0
        ]

    def test_event_at_the_horizon_changes_only_the_last_entry(self):
        churn = {"type": "explicit", "events": [{"step": 5, "departures": [3]}]}
        history = self.history(churn=churn)
        assert len(history) == 7
        assert history[:6] == [{0, 1, 2, 3}] * 6
        assert history[6] == {0, 1, 2}

    @pytest.mark.parametrize("churn", [
        {"type": "none"},
        stochastic_churn(2, 0.0),
        stochastic_churn(3, 1.0),
    ], ids=["none", "never-fires", "starts-at-k-prime"])
    def test_churn_that_cannot_change_membership_gives_a_constant_history(self, churn):
        assert self.history(k_prime=3, churn=churn) == [{0, 1, 2, 3}] * 7

    def test_stochastic_churn_before_k_prime_is_drawn(self):
        assert self.history(k_prime=3, churn=stochastic_churn(2, 0.5)) is None

    def test_engine_runs_the_history(self, scenarios_dir):
        from openavg.engine import run

        s = load_scenario(scenarios_dir / "theorem1_violation.json")
        history = membership_history(s)
        assert [record.active for record in run(s, 1)] == history[:-1]
        assert len(set(history)) > 1


class TestFiringIntervals:
    @staticmethod
    def firing(intervals, k_prime=10):
        data = base_dict()
        data.update(churn={"type": "stochastic", "intervals": intervals}, k_prime=k_prime)
        return firing_intervals(parse_scenario(data))

    def test_interval_is_cut_to_the_steps_before_k_prime(self):
        (cut,) = self.firing([{"start": 2, "end": 20, "event_prob": 0.1,
                               "arrival_weight": 1, "departure_weight": 3}])
        assert cut == ChurnInterval(2, 9, 0.1, 1.0, 3.0)
        (kept,) = self.firing([{"start": 2, "end": 9, "event_prob": 0.1}])
        assert kept == ChurnInterval(2, 9, 0.1)

    def test_interval_that_cannot_fire_is_dropped(self):
        intervals = [
            {"start": 0, "end": 3, "event_prob": 0.0},
            {"start": 4, "end": 6, "event_prob": 0.5},
            {"start": 10, "end": 12, "event_prob": 1.0},
            {"start": 20, "end": 30, "event_prob": 1.0},
        ]
        assert self.firing(intervals) == (ChurnInterval(4, 6, 0.5),)
        assert self.firing(intervals, k_prime=0) == ()

    @pytest.mark.parametrize("churn", [
        {"type": "none"},
        {"type": "explicit", "events": [{"step": 1, "departures": [3]}]},
    ], ids=["none", "explicit"])
    def test_explicit_churn_has_none(self, churn):
        data = base_dict()
        data.update(churn=churn, k_prime=5)
        assert firing_intervals(parse_scenario(data)) == ()


class TestFixedAt:
    """The explicit instance in force at a step when no draw picks it."""

    RING = DigraphInstance.from_edges(
        frozenset(range(4)), [(0, 1), (1, 2), (2, 3), (3, 0)]
    )
    PATH = DigraphInstance.from_edges(frozenset(range(4)), [(0, 1), (1, 2), (2, 3)])

    def test_transient_instance_is_restricted_to_the_active_set(self):
        topology = ExplicitTopology(transient=(self.PATH, self.RING), stable=((self.RING, 1.0),))
        active = frozenset({0, 1, 3})
        fixed = topology.fixed_at(1, 2, active)
        assert fixed == DigraphInstance.from_edges(active, [(0, 1), (3, 0)])
        assert topology.fixed_at(0, 2, active) == DigraphInstance.from_edges(active, [(0, 1)])

    def test_lone_stable_instance_is_in_force_from_k_prime_on(self):
        topology = ExplicitTopology(transient=(self.PATH,), stable=((self.RING, 1.0),))
        for step in (1, 2, 50):
            assert topology.fixed_at(step, 1, frozenset(range(4))) is self.RING

    def test_several_stable_instances_give_none(self):
        topology = ExplicitTopology(
            transient=(), stable=((self.RING, 0.5), (self.PATH, 0.5))
        )
        assert topology.fixed_at(0, 0, frozenset(range(4))) is None
        assert topology.fixed_at(7, 3, frozenset(range(4))) is None

    def test_missing_transient_instance_gives_none(self):
        topology = ExplicitTopology(transient=(self.PATH,), stable=((self.RING, 1.0),))
        assert topology.fixed_at(1, 3, frozenset(range(4))) is None
        assert topology.fixed_at(2, 3, frozenset(range(4))) is None


class TestValidationErrors:
    def test_empty_active_set(self):
        data = base_dict()
        data["initially_active"] = []
        assert "membership" in errors_of(data)

    def test_active_ids_out_of_range(self):
        data = base_dict()
        data["initially_active"] = [0, 1, 2, 9]
        assert "membership" in errors_of(data)

    def test_k_prime_beyond_horizon(self):
        data = base_dict()
        data["k_prime"] = 99
        data["horizon"] = 10
        codes = errors_of(data)
        assert "stabilization" in codes

    def test_missing_initial_state(self):
        data = base_dict()
        del data["initial_states"]["values"]["2"]
        assert "initial-states" in errors_of(data)

    def test_empty_uniform_range(self):
        data = base_dict()
        data["initial_states"] = {"type": "uniform_int", "low": 5, "high": 4}
        assert "initial-states" in errors_of(data)

    def test_scheduled_arrival_without_state_source(self):
        data = base_dict()
        data["initially_active"] = [0, 1, 2]
        data["churn"] = {
            "type": "explicit",
            "events": [{"step": 1, "arrivals": [3]}],
        }
        data["k_prime"] = 10
        data["horizon"] = 50
        data["topology"]["transient"] = [
            {"nodes": [0, 1, 2, 3], "edges": [[0, 1], [1, 2], [2, 0], [3, 0]]}
        ] * 10
        assert "arrival-states" in errors_of(data)

    def test_stochastic_arrivals_need_full_coverage(self):
        data = base_dict()
        data["churn"] = {
            "type": "stochastic",
            "intervals": [{"start": 0, "end": 5, "event_prob": 0.5}],
        }
        data["k_prime"] = 10
        data["topology"] = {"type": "random_family", "min_out_degree": 1}
        data["arrival_states"] = {"type": "explicit", "values": {"0": 1}}
        assert "arrival-states" in errors_of(data)

    def test_churn_duplicate_step(self):
        data = base_dict()
        data["churn"] = {
            "type": "explicit",
            "events": [
                {"step": 1, "departures": [3]},
                {"step": 1, "departures": [2]},
            ],
        }
        data["k_prime"] = 5
        data["topology"]["transient"] = [
            {"nodes": [0, 1, 2, 3], "edges": [[0, 1], [1, 0], [2, 0], [3, 0]]}
        ] * 5
        data["topology"]["stable"] = [
            {"nodes": [0, 1], "edges": [[0, 1], [1, 0]], "p": 1.0}
        ]
        data["T"] = 1
        assert "churn-duplicate-step" in errors_of(data)

    def test_arriving_node_already_active(self):
        data = base_dict()
        data["churn"] = {
            "type": "explicit",
            "events": [{"step": 1, "arrivals": [2]}],
        }
        data["arrival_states"] = {"type": "explicit", "values": {"2": 5}}
        assert "churn-arrive-active" in errors_of(data)

    def test_departing_node_not_active(self):
        data = base_dict()
        data["initially_active"] = [0, 1, 2]
        data["initial_states"]["values"] = {"0": 1, "1": 2, "2": 3}
        data["churn"] = {
            "type": "explicit",
            "events": [{"step": 1, "departures": [3]}],
        }
        assert "churn-depart-inactive" in errors_of(data)

    def test_network_must_not_empty(self):
        data = base_dict()
        data["churn"] = {
            "type": "explicit",
            "events": [{"step": 1, "departures": [0, 1, 2, 3]}],
        }
        assert "churn-empty-network" in errors_of(data)

    def test_overlapping_intervals(self):
        data = base_dict()
        data["churn"] = {
            "type": "stochastic",
            "intervals": [
                {"start": 0, "end": 10, "event_prob": 0.1},
                {"start": 5, "end": 20, "event_prob": 0.1},
            ],
        }
        data["k_prime"] = 30
        data["horizon"] = 50
        data["topology"] = {"type": "random_family", "min_out_degree": 1}
        data["arrival_states"] = {"type": "uniform_int", "low": 1, "high": 5}
        assert "churn-interval" in errors_of(data)

    def test_event_probability_range(self):
        data = base_dict()
        data["churn"] = {
            "type": "stochastic",
            "intervals": [{"start": 0, "end": 5, "event_prob": 1.5}],
        }
        data["topology"] = {"type": "random_family", "min_out_degree": 1}
        data["arrival_states"] = {"type": "uniform_int", "low": 1, "high": 5}
        data["k_prime"] = 10
        assert "churn-prob" in errors_of(data)

    def test_transient_list_too_short(self):
        data = base_dict()
        data["k_prime"] = 3
        assert "topology-transient" in errors_of(data)

    def test_stable_probabilities_must_sum_to_one(self):
        data = base_dict()
        data["topology"]["stable"][0]["p"] = 0.9
        assert "topology-probabilities" in errors_of(data)

    def test_stable_node_sets_must_agree(self):
        data = base_dict()
        data["topology"]["stable"][1]["nodes"] = [0, 1, 2]
        data["topology"]["stable"][1]["edges"] = [[2, 0], [0, 1]]
        assert "topology-stable-nodes" in errors_of(data)

    def test_stable_nodes_must_match_final_membership(self):
        data = base_dict()
        data["churn"] = {
            "type": "explicit",
            "events": [{"step": 2, "departures": [3]}],
        }
        data["k_prime"] = 5
        data["topology"]["transient"] = [
            {"nodes": [0, 1, 2, 3],
             "edges": [[0, 1], [1, 2], [2, 0], [3, 0]]}
        ] * 5
        # stable still claims all four nodes
        assert "topology-stable-nodes" in errors_of(data)

    def test_zero_min_out_degree(self):
        data = base_dict()
        data["topology"] = {"type": "random_family", "min_out_degree": 0}
        assert "topology-degree" in errors_of(data)


class TestValidationWarnings:
    def test_late_churn_flagged(self):
        data = base_dict()
        data["churn"] = {
            "type": "explicit",
            "events": [{"step": 30, "departures": [3]}],
        }
        warnings = warnings_of(data)
        assert "late-churn" in warnings

    def test_interval_reaching_past_stabilization(self):
        data = base_dict()
        data["churn"] = {
            "type": "stochastic",
            "intervals": [{"start": 0, "end": 40, "event_prob": 0.1}],
        }
        data["k_prime"] = 10
        data["topology"] = {"type": "random_family", "min_out_degree": 1}
        data["arrival_states"] = {"type": "uniform_int", "low": 1, "high": 5}
        assert "late-churn" in warnings_of(data)

    def test_interval_after_stabilization_needs_no_arrival_states(self):
        # The engine fires no event from k_prime on, so nothing can arrive.
        data = base_dict()
        data["churn"] = {
            "type": "stochastic",
            "intervals": [{"start": 20, "end": 30, "event_prob": 0.5}],
        }
        data["k_prime"] = 10
        data["topology"] = {"type": "random_family", "min_out_degree": 1}
        assert errors_of(data) == []
        assert warnings_of(data) == ["late-churn"]

    def test_churn_that_never_fires_admits_no_node(self):
        # Without arrival weight a node is admitted only by a departure
        # drawn when one node is left, so some step must fire.
        data = base_dict()
        data["initially_active"] = []
        data["churn"] = {
            "type": "stochastic",
            "intervals": [{"start": 0, "end": 5, "event_prob": 0.0}],
        }
        data["topology"] = {"type": "random_family", "min_out_degree": 1}
        assert errors_of(data) == ["membership"]

    def test_disconnected_stable_union(self):
        data = base_dict()
        data["topology"]["stable"] = [
            {"nodes": [0, 1, 2, 3], "edges": [[0, 1], [1, 0]], "p": 1.0}
        ]
        data["T"] = 1
        assert "stable-union-connectivity" in warnings_of(data)

    def test_family_size_mismatch(self):
        data = base_dict()
        data["T"] = 5
        assert "family-size" in warnings_of(data)

    def test_unused_transient_instances(self):
        data = base_dict()
        data["topology"]["transient"] = [
            {"nodes": [0, 1, 2, 3], "edges": [[0, 1]]}
        ]
        assert "topology-transient" in warnings_of(data)

    def test_strictness_escalates_warnings_only(self):
        data = base_dict()
        data["T"] = 5
        report = validate_scenario(parse_scenario(data))
        assert report.ok(strict=False)
        assert not report.ok(strict=True)


class TestLateChurnUnderStableTopology:
    """Churn after k_prime under explicit stable instances: the engine
    draws a stable instance at every later step, so the validator must
    compare the stable nodes with the active set at each of them."""

    @staticmethod
    def late_departure():
        data = base_dict()
        data["topology"]["stable"] = [
            {"nodes": [0, 1, 2, 3], "edges": [[0, 1], [1, 2], [2, 3], [3, 0]], "p": 1.0}
        ]
        data["T"] = 1
        data["churn"] = {"type": "explicit",
                         "events": [{"step": 5, "departures": [3]}]}
        return data

    def test_first_mismatching_step_is_an_error(self):
        report = validate_scenario(parse_scenario(self.late_departure()))
        assert [(f.code, f.message) for f in report.errors()] == [
            ("topology-stable-nodes",
             "stable instances cover [0, 1, 2, 3] but the active set at step 6 "
             "is [0, 1, 2]"),
        ]

    def test_validate_and_run_both_exit_1(self, tmp_path):
        from openavg import cli

        path = tmp_path / "late.json"
        path.write_text(json.dumps(self.late_departure()))
        assert cli.main(["validate", str(path), "--strict"]) == 1
        assert cli.main(["validate", str(path)]) == 1
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 1

    def test_departure_at_the_horizon_is_runnable(self):
        data = self.late_departure()
        data["horizon"] = 5
        assert errors_of(data) == []

    def test_stable_nodes_are_compared_once_per_membership_change(self):
        class CountingNodes(frozenset):
            """Python calls a subclass's ``__ne__`` first, from either side."""

            compared = 0

            def __ne__(self, other):
                if other is not self:
                    CountingNodes.compared += 1
                return frozenset.__ne__(self, other)

        data = self.late_departure()
        data["horizon"] = 1000
        # Two events that change nothing: each still gives a new set object.
        data["churn"]["events"] = [{"step": 100}, {"step": 200}]
        s = parse_scenario(data)
        (g, p), = s.topology.stable
        stable = ((DigraphInstance(CountingNodes(g.nodes), g.heads), p),)
        report = validate_scenario(replace(s, topology=replace(s.topology, stable=stable)))
        assert not report.errors()
        # The step k_prime, then the step after each event.
        assert CountingNodes.compared == 3
