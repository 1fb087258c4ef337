"""The engine's conservation ledger over generated scenarios.

Small random-family scenarios with negative state values, with or
without arrival states, and no churn, explicit churn (departures of
several nodes at once, so that some strand their surplus), stochastic
churn, or stochastic churn that departs a node at every step with no
arrival weight (so that a departure drawn with one node left admits one).
For every one that validates,
``run()`` must not raise, equal seeds must give equal records, and each
audit row must equal minus the surplus that stranded departures lost
before its step.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from openavg.analysis import conservation_audit
from openavg.engine import run
from openavg.scenario import parse_scenario, validate_scenario


@st.composite
def explicit_events(draw, n_total, initially_active, horizon):
    """Churn events that keep the membership walk consistent."""
    steps = sorted(draw(st.sets(st.integers(0, horizon), max_size=4)))
    active = set(initially_active)
    events = []
    for step in steps:
        departures = draw(st.sets(st.sampled_from(sorted(active)), max_size=len(active) - 1))
        inactive = sorted(set(range(n_total)) - active)
        arrivals = draw(st.sets(st.sampled_from(inactive))) if inactive else set()
        active = (active - departures) | arrivals
        events.append({"step": step, "arrivals": sorted(arrivals),
                       "departures": sorted(departures)})
    return {"type": "explicit", "events": events}


@st.composite
def scenarios(draw):
    n_total = draw(st.integers(1, 12))
    horizon = draw(st.integers(0, 30))
    k_prime = draw(st.integers(0, horizon))
    initially_active = sorted(draw(st.sets(st.integers(0, n_total - 1), min_size=1)))
    values = st.integers(-100, 100)
    if draw(st.booleans()):
        initial_states = {"type": "explicit",
                          "values": {str(v): draw(values) for v in initially_active}}
    else:
        low = draw(values)
        initial_states = {"type": "uniform_int", "low": low, "high": low + draw(st.integers(0, 50))}
    # Omitted in half the draws: churn that can admit a node must then be
    # refused by the validator, or the run would meet an arrival with no state.
    omit_arrival_states = draw(st.booleans())
    arrival_states = None
    if not omit_arrival_states:
        low = draw(values)
        arrival_states = {"type": "uniform_int", "low": low,
                          "high": low + draw(st.integers(0, 50))}

    kind = draw(st.sampled_from(["none", "explicit", "stochastic", "departures-only"]))
    if kind == "none":
        churn = {"type": "none"}
    elif kind == "explicit":
        churn = draw(explicit_events(n_total, initially_active, horizon))
    elif kind == "departures-only":
        # A departure at every step before k_prime, and no arrival weight:
        # once one node is left, the next event must admit one instead.
        # k_prime leaves that event a step whenever the horizon does.
        k_prime = max(k_prime, min(horizon, len(initially_active)))
        churn = {"type": "stochastic", "intervals": [{
            "start": 0,
            "end": max(0, k_prime - 1),
            "event_prob": 1.0,
            "arrival_weight": 0.0,
            "departure_weight": 1.0,
        }]}
    else:
        start = draw(st.integers(0, k_prime))
        churn = {"type": "stochastic", "intervals": [{
            "start": start,
            "end": draw(st.integers(start, max(start, k_prime - 1))),
            "event_prob": draw(st.sampled_from([0.0, 0.3, 0.7, 1.0])),
            "arrival_weight": draw(st.sampled_from([0.0, 0.5, 1.0])),
            "departure_weight": draw(st.sampled_from([0.5, 1.0])),
        }]}
    data = {
        "n_total": n_total,
        "initially_active": initially_active,
        "initial_states": initial_states,
        "churn": churn,
        "topology": {"type": "random_family", "min_out_degree": draw(st.integers(1, 3))},
        "k_prime": k_prime,
        "T": draw(st.integers(1, 4)),
        "horizon": horizon,
        "seed": 0,
    }
    if arrival_states is not None:
        data["arrival_states"] = arrival_states
    return parse_scenario(data)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(scenario=scenarios(), seed=st.integers(0, 2**64 - 1))
def test_ledger_holds_and_runs_reproduce(scenario, seed):
    assume(not validate_scenario(scenario).errors())
    records = run(scenario, seed)
    assert run(scenario, seed) == records

    lost_y = lost_z = 0
    for record, row in zip(records, conservation_audit(records), strict=True):
        assert (row.y_imbalance, row.z_imbalance) == (-lost_y, -lost_z)
        for violation in record.violations:
            departer = record.per_node[violation.node]
            lost_y += departer.y - 2 * departer.x
            lost_z += departer.z - 2
