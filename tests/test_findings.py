"""Golden validation findings: the full (code, severity, message) list.

Each fixture is a small variation of one well-formed scenario, chosen so
that every finding code the validator can emit appears at least once.
The expected lists pin the exact order and wording, so a refactor of
the validator cannot change what a user reads without failing here.
"""

import copy
import json

import pytest

import openavg.cli as cli
from openavg.engine import run
from openavg.scenario import (
    ScenarioFormatError,
    load_scenario,
    parse_scenario,
    validate_scenario,
)


def base():
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


def variant(**changes):
    data = base()
    data.update(copy.deepcopy(changes))
    return data


def ring(nodes, **extra):
    edges = [[a, b] for a, b in zip(nodes, nodes[1:] + nodes[:1])]
    return dict({"nodes": nodes, "edges": edges}, **extra)


def events(*entries):
    return {"type": "explicit", "events": list(entries)}


def stochastic(*intervals):
    return {"type": "stochastic", "intervals": list(intervals)}


def explicit_topology(stable, transient=()):
    return {"type": "explicit", "transient": list(transient), "stable": stable}


def findings(data):
    report = validate_scenario(parse_scenario(data))
    return [(f.code, f.severity, f.message) for f in report.findings]


RANDOM = {"type": "random_family", "min_out_degree": 2}
UNIFORM = {"type": "uniform_int", "low": 0, "high": 9}

RANDOM_INFO = (
    "stable-union-connectivity", "info",
    "random families are regenerated until their union is strongly connected, "
    "so the post-stabilization connectivity requirement holds by construction",
)
STOCHASTIC_INFO = (
    "stranded-departure", "info",
    "stochastic churn: the departure condition is checked at runtime",
)
NO_ARRIVAL_SOURCE = (
    "arrival-states", "error", "churn can admit nodes but arrival_states is missing"
)
NOT_CONNECTED = (
    "stable-union-connectivity", "warning",
    "the union of stable instances is not strongly connected; "
    "convergence is not guaranteed",
)


def late(step, k_prime=0):
    return (
        "late-churn", "warning",
        f"membership changes at step {step} on or after k_prime={k_prime}; "
        "post-stabilization guarantees do not apply",
    )


def stranded(step, node):
    return (
        "stranded-departure", "warning",
        f"step {step}: node {node} departs with no remaining out-neighbor; "
        "its surplus mass will be lost",
    )


GOLDEN = {
    "size": (
        variant(n_total=0),
        [
            ("size", "error", "n_total must be at least 1"),
            ("membership", "error", "initially_active contains ids outside range(n_total)"),
            ("initial-states", "error", "initial states for unknown ids [0, 1, 2, 3]"),
        ],
    ),
    "membership-empty": (
        variant(initially_active=[]),
        [("membership", "error", "initially_active is empty")],
    ),
    "membership-range": (
        variant(initially_active=[0, 1, 2, 3, 4]),
        [
            ("membership", "error", "initially_active contains ids outside range(n_total)"),
            ("initial-states", "error", "no initial state for active nodes [4]"),
        ],
    ),
    "horizon": (
        variant(horizon=-1),
        [
            ("horizon", "error", "horizon must be non-negative"),
            ("stabilization", "error", "k_prime must lie in [0, horizon], got 0"),
        ],
    ),
    "stabilization": (
        variant(k_prime=60),
        [
            ("stabilization", "error", "k_prime must lie in [0, horizon], got 60"),
            ("topology-transient", "error",
             "need 60 transient instances (one per step before k_prime), got 0"),
        ],
    ),
    "family-size-error": (
        variant(T=0),
        [
            ("family-size", "error", "T must be at least 1"),
            ("family-size", "warning", "T=0 but 2 stable instances are listed"),
        ],
    ),
    "family-size-warning": (
        variant(T=3),
        [("family-size", "warning", "T=3 but 2 stable instances are listed")],
    ),
    "initial-states-missing": (
        variant(initial_states={"type": "explicit", "values": {"0": 1, "1": 2, "2": 3}}),
        [("initial-states", "error", "no initial state for active nodes [3]")],
    ),
    "initial-states-unknown": (
        variant(initial_states={"type": "explicit",
                                "values": {"0": 1, "1": 2, "2": 3, "3": 5, "7": 1}}),
        [("initial-states", "error", "initial states for unknown ids [7]")],
    ),
    "initial-states-range": (
        variant(initial_states={"type": "uniform_int", "low": 5, "high": 1}),
        [("initial-states", "error", "uniform range is empty")],
    ),
    "initial-states-int64": (
        variant(initial_states={"type": "uniform_int", "low": -2**70, "high": 5}),
        [("initial-states", "error", "uniform bounds must lie in [-2**63, 2**63 - 1]")],
    ),
    "arrival-states-missing": (
        variant(n_total=5, churn=events({"step": 2, "arrivals": [4]})),
        [NO_ARRIVAL_SOURCE, late(2)],
    ),
    "arrival-states-uncovered": (
        variant(n_total=5, arrival_states={"type": "explicit", "values": {"0": 1}},
                churn=events({"step": 2, "arrivals": [4]})),
        [("arrival-states", "error", "no arrival state for [4]"), late(2)],
    ),
    "arrival-states-stochastic": (
        variant(arrival_states={"type": "explicit", "values": {"0": 1}},
                churn=stochastic({"start": 0, "end": 4, "event_prob": 0.5}),
                topology=RANDOM, k_prime=10),
        [
            ("arrival-states", "error",
             "stochastic churn can admit any node; explicit arrival states must "
             "cover every id"),
            RANDOM_INFO,
            STOCHASTIC_INFO,
        ],
    ),
    "arrival-states-range": (
        variant(n_total=5, arrival_states={"type": "uniform_int", "low": 3, "high": 2},
                churn=events({"step": 2, "arrivals": [4]})),
        [("arrival-states", "error", "uniform range is empty"), late(2)],
    ),
    "arrival-states-int64": (
        variant(n_total=5, arrival_states={"type": "uniform_int", "low": 0, "high": 2**63},
                churn=events({"step": 2, "arrivals": [4]})),
        [("arrival-states", "error", "uniform bounds must lie in [-2**63, 2**63 - 1]"),
         late(2)],
    ),
    "churn-ids": (
        variant(churn=events({"step": 1, "departures": [9]})),
        [
            ("churn-ids", "error", "churn events reference ids outside range(n_total)"),
            late(1),
        ],
    ),
    "churn-step": (
        variant(churn=events({"step": 99, "departures": [3]})),
        [("churn-step", "error", "churn event at step 99 is outside [0, horizon]")],
    ),
    "late-churn-explicit": (
        variant(churn=events({"step": 5, "departures": [3]}),
                topology=explicit_topology([ring([0, 1, 2], p=1.0)]), T=1),
        [
            late(5),
            ("topology-stable-nodes", "error",
             "stable instances cover [0, 1, 2] but the active set from k_prime on "
             "is [0, 1, 2, 3]"),
        ],
    ),
    "late-churn-stochastic": (
        variant(arrival_states=UNIFORM,
                churn=stochastic({"start": 0, "end": 20, "event_prob": 0.1}),
                topology=RANDOM, k_prime=10),
        [
            ("late-churn", "warning",
             "interval [0, 20] extends past k_prime=10; the engine will not fire "
             "events there, trim the interval"),
            RANDOM_INFO,
            STOCHASTIC_INFO,
        ],
    ),
    "churn-duplicate-step": (
        variant(churn=events({"step": 1, "departures": [3]},
                             {"step": 1, "departures": [2]})),
        [
            late(1),
            late(1),
            ("churn-duplicate-step", "error", "two churn events scheduled at step 1"),
        ],
    ),
    "churn-overlap": (
        variant(arrival_states=UNIFORM,
                churn=events({"step": 1, "arrivals": [3], "departures": [3]})),
        [
            late(1),
            ("churn-overlap", "error", "step 1: nodes listed as both arriving and departing"),
            ("churn-arrive-active", "error", "step 1: arrivals [3] are already active"),
        ],
    ),
    "churn-arrive-active": (
        variant(arrival_states=UNIFORM, churn=events({"step": 1, "arrivals": [2]})),
        [late(1), ("churn-arrive-active", "error", "step 1: arrivals [2] are already active")],
    ),
    "churn-depart-inactive": (
        variant(n_total=5, churn=events({"step": 1, "departures": [4]})),
        [late(1), ("churn-depart-inactive", "error", "step 1: departures [4] are not active")],
    ),
    "churn-empty-network": (
        variant(churn=events({"step": 1, "departures": [0, 1, 2, 3]})),
        [late(1), ("churn-empty-network", "error", "step 1: the network would become empty")],
    ),
    "churn-prob": (
        variant(arrival_states=UNIFORM,
                churn=stochastic({"start": 0, "end": 4, "event_prob": 1.5}),
                topology=RANDOM, k_prime=10),
        [("churn-prob", "error", "event_prob must be in [0, 1]"), RANDOM_INFO, STOCHASTIC_INFO],
    ),
    "churn-weights-negative": (
        variant(arrival_states=UNIFORM,
                churn=stochastic({"start": 0, "end": 4, "event_prob": 0.5,
                                  "arrival_weight": -1}),
                topology=RANDOM, k_prime=10),
        [("churn-weights", "error", "churn weights must be >= 0"), RANDOM_INFO, STOCHASTIC_INFO],
    ),
    "churn-weights-zero": (
        variant(churn=stochastic({"start": 0, "end": 4, "event_prob": 0.5,
                                  "arrival_weight": 0, "departure_weight": 0}),
                topology=RANDOM, k_prime=10),
        [("churn-weights", "error", "churn weights sum to zero"), RANDOM_INFO, STOCHASTIC_INFO],
    ),
    "churn-interval": (
        variant(arrival_states=UNIFORM,
                churn=stochastic({"start": 3, "end": 1, "event_prob": 0.5},
                                 {"start": 2, "end": 4, "event_prob": 0.5},
                                 {"start": -1, "end": 0, "event_prob": 0.0}),
                topology=RANDOM, k_prime=10),
        [
            ("churn-interval", "error", "bad interval [-1, 0]"),
            ("churn-interval", "error", "bad interval [3, 1]"),
            ("churn-interval", "error", "churn intervals overlap"),
            RANDOM_INFO,
            STOCHASTIC_INFO,
        ],
    ),
    "topology-degree": (
        variant(topology={"type": "random_family", "min_out_degree": 0}),
        [
            ("topology-degree", "error",
             "min_out_degree must be at least 1 or departures can strand"),
            RANDOM_INFO,
        ],
    ),
    "stable-union-connectivity": (
        variant(topology=explicit_topology(
            [{"nodes": [0, 1, 2, 3], "edges": [[0, 1]], "p": 1.0}]), T=1),
        [NOT_CONNECTED],
    ),
    "topology-transient-short": (
        variant(k_prime=2),
        [("topology-transient", "error",
          "need 2 transient instances (one per step before k_prime), got 0")],
    ),
    "topology-transient-extra": (
        variant(topology=explicit_topology([ring([0, 1, 2, 3], p=1.0)],
                                           [ring([0, 1, 2, 3])]), T=1),
        [("topology-transient", "warning",
          "extra transient instances beyond k_prime are never used")],
    ),
    "topology-stable-nodes-differ": (
        variant(topology=explicit_topology([ring([0, 1, 2, 3], p=0.5),
                                            ring([0, 1, 2], p=0.5)])),
        [("topology-stable-nodes", "error", "stable instances span different node sets")],
    ),
    "topology-stable-nodes-final": (
        variant(churn=events({"step": 0, "departures": [3]}),
                topology=explicit_topology([ring([0, 1, 2, 3], p=1.0)],
                                           [ring([0, 1, 2, 3])]),
                k_prime=1, T=1),
        [("topology-stable-nodes", "error",
          "stable instances cover [0, 1, 2, 3] but the active set from k_prime on "
          "is [0, 1, 2]")],
    ),
    "topology-stable-nodes-stochastic": (
        variant(arrival_states=UNIFORM,
                churn=stochastic({"start": 0, "end": 1, "event_prob": 0.5}),
                topology=explicit_topology([ring([0, 1, 2, 3], p=1.0)],
                                           [ring([0, 1, 2, 3])] * 2),
                k_prime=2, T=1),
        [
            ("topology-stable-nodes", "warning",
             "explicit stable instances with stochastic churn: the "
             "post-stabilization active set is random and may not match"),
            STOCHASTIC_INFO,
        ],
    ),
    "topology-probabilities": (
        variant(topology=explicit_topology([ring([0, 1, 2, 3], p=0.5),
                                            ring([0, 1, 2, 3], p=0.25)])),
        [("topology-probabilities", "error",
          "stable probabilities must be >= 0 and sum to 1, sum is 0.75")],
    ),
    "stranded-departure-transient": (
        variant(churn=events({"step": 1, "departures": [3]}),
                topology=explicit_topology(
                    [ring([0, 1, 2], p=1.0)],
                    [ring([0, 1, 2, 3]),
                     {"nodes": [0, 1, 2, 3], "edges": [[0, 1], [1, 2], [2, 0]]}]),
                k_prime=2, T=1),
        [stranded(1, 3)],
    ),
    "stranded-departure-stable": (
        variant(churn=events({"step": 3, "departures": [3]}),
                topology=explicit_topology(
                    [{"nodes": [0, 1, 2, 3],
                      "edges": [[0, 1], [1, 2], [2, 0], [0, 3]], "p": 1.0}]),
                T=1),
        [
            late(3),
            NOT_CONNECTED,
            ("topology-stable-nodes", "error",
             "stable instances cover [0, 1, 2, 3] but the active set at step 4 is "
             "[0, 1, 2]"),
            stranded(3, 3),
        ],
    ),
    "stranded-departure-stochastic": (
        variant(arrival_states=UNIFORM,
                churn=stochastic({"start": 0, "end": 4, "event_prob": 0.5}),
                topology=RANDOM, k_prime=10),
        [RANDOM_INFO, STOCHASTIC_INFO],
    ),
    "mixed": (
        variant(n_total=5,
                initial_states={"type": "explicit", "values": {"0": 1, "1": 2, "2": 3}},
                churn=events({"step": 99, "arrivals": [4]}, {"step": 1, "departures": [7]}),
                topology={"type": "random_family", "min_out_degree": 0},
                T=0, k_prime=3),
        [
            ("family-size", "error", "T must be at least 1"),
            ("initial-states", "error", "no initial state for active nodes [3]"),
            NO_ARRIVAL_SOURCE,
            ("churn-ids", "error", "churn events reference ids outside range(n_total)"),
            ("churn-step", "error", "churn event at step 99 is outside [0, horizon]"),
            ("topology-degree", "error",
             "min_out_degree must be at least 1 or departures can strand"),
            RANDOM_INFO,
        ],
    ),
}

BUNDLED = {
    "paper_sec5": [RANDOM_INFO, STOCHASTIC_INFO],
    "static_small": [],
    "theorem1_violation": [stranded(6, 3)],
}

ALL_CODES = {
    "size", "membership", "horizon", "stabilization", "family-size",
    "initial-states", "arrival-states", "churn-ids", "churn-step", "late-churn",
    "churn-duplicate-step", "churn-overlap", "churn-arrive-active",
    "churn-depart-inactive", "churn-empty-network", "churn-prob", "churn-weights",
    "churn-interval", "topology-degree", "stable-union-connectivity",
    "topology-transient", "topology-stable-nodes", "topology-probabilities",
    "stranded-departure",
}


class TestGoldenFindings:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_fixture(self, name):
        data, expected = GOLDEN[name]
        assert findings(data) == expected

    @pytest.mark.parametrize("stem", sorted(BUNDLED))
    def test_bundled_scenario(self, stem, scenarios_dir):
        report = validate_scenario(load_scenario(scenarios_dir / f"{stem}.json"))
        got = [(f.code, f.severity, f.message) for f in report.findings]
        assert got == BUNDLED[stem]

    def test_every_code_is_pinned(self):
        pinned = {code for _, expected in GOLDEN.values() for code, _, _ in expected}
        assert pinned == ALL_CODES
        assert len(ALL_CODES) == 24


def transient_omission():
    """Node 2 departs at step 1, but transient[1] leaves it out, so the
    engine isolates it and its surplus is stranded."""
    return {
        "n_total": 3,
        "initially_active": [0, 1, 2],
        "initial_states": {"type": "explicit", "values": {"0": 1, "1": 2, "2": 9}},
        "churn": {"type": "explicit", "events": [{"step": 1, "departures": [2]}]},
        "topology": {
            "type": "explicit",
            "transient": [
                {"nodes": [0, 1, 2], "edges": [[0, 1], [1, 0], [2, 0]]},
                {"nodes": [0, 1], "edges": [[0, 1], [1, 0]]},
            ],
            "stable": [{"nodes": [0, 1], "edges": [[0, 1], [1, 0]], "p": 1.0}],
        },
        "k_prime": 2,
        "T": 1,
        "horizon": 5,
    }


def short_transient_departure():
    """A departure before k_prime while the transient list is too short."""
    return variant(churn=events({"step": 2, "departures": [3]}),
                   topology=explicit_topology([ring([0, 1, 2], p=1.0)]),
                   k_prime=5, T=1)


class TestValidatorMatchesEngine:
    def test_departer_omitted_from_transient_instance_is_stranded(self, tmp_path):
        data = transient_omission()
        assert findings(data) == [stranded(1, 2)]
        records = run(parse_scenario(data))
        assert [(v.node, v.kind) for v in records[1].violations] == [
            (2, "stranded_departure")
        ]
        path = tmp_path / "omission.json"
        path.write_text(json.dumps(data))
        assert cli.main(["validate", str(path), "--strict"]) == 1

    def test_short_transient_list_is_an_error_not_a_crash(self, tmp_path, capsys):
        data = short_transient_departure()
        assert findings(data) == [
            ("topology-transient", "error",
             "need 5 transient instances (one per step before k_prime), got 0"),
        ]
        path = tmp_path / "short.json"
        path.write_text(json.dumps(data))
        assert cli.main(["validate", str(path)]) == 1
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        assert "topology-transient" in capsys.readouterr().out


class TestFormatErrors:
    @pytest.mark.parametrize("section", ["initial_states", "churn", "topology"])
    def test_non_string_type(self, section):
        data = base()
        data[section]["type"] = ["explicit"]
        with pytest.raises(ScenarioFormatError):
            parse_scenario(data)

    def test_missing_event_step_names_the_event(self):
        data = variant(churn=events({"departures": [3]}))
        with pytest.raises(ScenarioFormatError, match=r"scenario\.churn\.events\[0\]"):
            parse_scenario(data)
