"""Acceptance gate: every headline property, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
lines directly. Statistical checks use pinned seeds that were verified
once and then frozen, so this suite is deterministic end to end.
"""

import math

import numpy as np

from openavg.agent import AgentState, depart_step, remaining_step, split_mass
from openavg.analysis import conservation_audit
from openavg.engine import draw_topology, run
from openavg.graphs import DigraphInstance, is_strongly_connected
from openavg.reporting import trace_header, trace_rows
from openavg.rng import stream
from openavg.scenario import load_scenario, parse_scenario


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _random_scenario(master: np.random.Generator, index: int) -> dict:
    n_total = int(master.integers(2, 31))
    active_size = int(master.integers(2, n_total + 1))
    active = sorted(master.choice(n_total, size=active_size, replace=False))
    low = int(master.integers(-5, 1))
    high = low + int(master.integers(0, 16))
    k_prime = int(master.integers(8, 17))
    return {
        "n_total": n_total,
        "initially_active": [int(v) for v in active],
        "initial_states": {"type": "uniform_int", "low": low, "high": high},
        "arrival_states": {"type": "uniform_int", "low": -3, "high": 12},
        "churn": {
            "type": "stochastic",
            "intervals": [
                {"start": 0, "end": k_prime - 1, "event_prob": 0.3}
            ],
        },
        "topology": {
            "type": "random_family",
            "min_out_degree": int(master.integers(1, 4)),
        },
        "k_prime": k_prime,
        "T": int(master.integers(1, 6)),
        "horizon": k_prime + 8,
        "seed": index,
    }


def test_c1_conservation_exact_on_randomized_churn():
    """Mass and token totals match the active membership exactly, at
    every step, across 100 randomized open-network scenarios."""
    master = np.random.default_rng(7)
    bad = 0
    for index in range(100):
        scenario = parse_scenario(_random_scenario(master, index))
        records = run(scenario)
        if any(r.violations for r in records):
            bad += 1
            continue
        rows = conservation_audit(records)
        if any(r.y_imbalance != 0 or r.z_imbalance != 0 for r in rows):
            bad += 1
    _verdict(
        "conservation exact over 100 randomized churn scenarios",
        bad == 0,
        f"{bad} scenario(s) broke an identity",
    )


def test_c2_large_churn_scenario_reaches_zero_error(scenarios_dir):
    """The bundled 150-node churn scenario drives the error to exactly
    zero inside both quiet windows for at least 9 of 10 fixed seeds, and
    final estimates sit inside the quantization band."""
    scenario = load_scenario(scenarios_dir / "paper_sec5.json")
    seeds = range(101, 111)
    hits = 0
    band_ok = True
    for seed in seeds:
        records = run(scenario, seed)
        w1 = [r.epsilon for r in records if 80 < r.step <= 150]
        w2 = [r.epsilon for r in records if 230 < r.step <= 300]
        if 0 in w1 and 0 in w2:
            hits += 1
        last = records[-1]
        band = {math.floor(last.q_true), math.ceil(last.q_true)}
        band_ok = band_ok and all(v.q_s in band for v in last.per_node.values())
    _verdict(
        "zero error in both quiet windows on >=9/10 seeds, final band",
        hits >= 9 and band_ok,
        f"{hits}/10 seeds hit zero in both windows, band_ok={band_ok}",
    )


def test_c3_static_network_settles_in_band(scenarios_dir):
    """With four fixed nodes averaging 11/4, every node's final estimate
    is 2 or 3 for 100 consecutive seeds."""
    scenario = load_scenario(scenarios_dir / "static_small.json")
    off_band = 0
    for seed in range(1, 101):
        last = run(scenario, seed)[-1]
        if not all(v.q_s in (2, 3) for v in last.per_node.values()):
            off_band += 1
    _verdict(
        "static 4-node scenario ends in {2,3} for 100/100 seeds",
        off_band == 0,
        f"{off_band} seed(s) ended outside the band",
    )


def test_c4_stranded_departure_loses_exactly_the_handoff(scenarios_dir):
    """When a departure has no remaining out-neighbor, the recorded loss
    equals that node's undelivered surplus exactly, the imbalance stays
    constant afterwards, and the survivors never reach the true band."""
    scenario = load_scenario(scenarios_dir / "theorem1_violation.json")
    ok = True
    details = []
    for seed in (3, 4, 5, 6, 7):
        records = run(scenario, seed)
        violations = [(r.step, v.node, v.kind) for r in records for v in r.violations]
        if violations != [(6, 3, "stranded_departure")]:
            ok = False
            details.append(f"seed {seed}: wrong violations {violations}")
            continue
        lost_y = records[6].per_node[3].y - 2 * 100
        lost_z = records[6].per_node[3].z - 2
        (violation,) = records[6].violations
        rows = conservation_audit(records)
        identity = (violation.lost_y, violation.lost_z) == (lost_y, lost_z) and all(
            (row.y_imbalance, row.z_imbalance) == ((0, 0) if row.step <= 6
                                                   else (-lost_y, -lost_z))
            for row in rows
        )
        honest_band = {1, 2}  # floor/ceil of the survivors' average 3/2
        final = records[-1].per_node
        escaped = all(v.q_s not in honest_band for v in final.values())
        if lost_y == 0:
            ok = False
            details.append(f"seed {seed}: surplus happened to be zero")
        if not identity:
            ok = False
            details.append(f"seed {seed}: imbalance != lost surplus")
        if not escaped:
            ok = False
            details.append(f"seed {seed}: settled in the honest band anyway")
    _verdict(
        "stranded departure: loss identity exact, average permanently missed",
        ok,
        "; ".join(details) or "5/5 seeds",
    )


def _brute_force_sc(instance: DigraphInstance) -> bool:
    for start in instance.nodes:
        seen = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for b in instance.heads.get(v, ()):
                if b not in seen:
                    seen.add(b)
                    frontier.append(b)
        if seen != instance.nodes:
            return False
    return True


def test_c5_connectivity_matches_brute_force():
    """The connectivity test agrees with all-pairs reachability on every
    labeled digraph with up to 4 nodes and on 1000 random larger ones."""
    mismatches = 0
    for n in range(1, 5):
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        for mask in range(1 << len(pairs)):
            edges = frozenset(p for i, p in enumerate(pairs) if mask >> i & 1)
            inst = DigraphInstance.from_edges(frozenset(range(n)), edges)
            if is_strongly_connected(inst) != _brute_force_sc(inst):
                mismatches += 1
    rng = np.random.default_rng(20240818)
    for _ in range(1000):
        n = int(rng.integers(2, 13))
        density = float(rng.random())
        edges = frozenset(
            (a, b)
            for a in range(n)
            for b in range(n)
            if a != b and rng.random() < density
        )
        inst = DigraphInstance.from_edges(frozenset(range(n)), edges)
        if is_strongly_connected(inst) != _brute_force_sc(inst):
            mismatches += 1
    _verdict(
        "connectivity equals brute-force reachability (4165 exhaustive + 1000 random)",
        mismatches == 0,
        f"{mismatches} mismatch(es)",
    )


class _OneCandidatePerToken:
    """Draws 0, 1, 2, ...: token i of a split goes to candidate i, so
    with z candidates each candidate's sum is one piece."""

    def __init__(self):
        self._drawn = 0

    def integers(self, low, high):
        pick = self._drawn
        self._drawn += 1
        assert low <= pick < high
        return pick


def test_c6_splitting_conserves_and_quantizes_tightly():
    """100000 random splits: the per-candidate sums re-add to the input
    exactly, and every piece is the floor or the floor plus one of the
    original ratio."""
    data = np.random.default_rng(900)
    ys = data.integers(-1_000_000, 1_000_001, size=100_000).tolist()
    zs = data.integers(0, 65, size=100_000).tolist()
    candidate_counts = data.integers(1, 9, size=100_000).tolist()
    # The splits route with the engine's own stream type.
    draws = stream(900, "c6")
    failures = 0
    for y, z, n_candidates in zip(ys, zs, candidate_counts):
        sums = split_mass(y, z, n_candidates, draws)
        if sum(s[0] for s in sums) != y or sum(s[1] for s in sums) != z:
            failures += 1
            continue
        if z >= 1:
            base = y // z
            pieces = split_mass(y, z, z, _OneCandidatePerToken())
            if any(s[1] != 1 or s[0] not in (base, base + 1) for s in pieces):
                failures += 1
    _verdict(
        "split conservation and piece tightness over 100000 random masses",
        failures == 0,
        f"{failures} failure(s)",
    )


def test_c7_traces_are_bit_reproducible(scenarios_dir):
    """The same scenario and seed always serialize to identical bytes."""
    ok = True
    for name in ("static_small", "theorem1_violation"):
        scenario = load_scenario(scenarios_dir / f"{name}.json")
        first = run(scenario)
        second = run(scenario)
        if first != second:
            ok = False
            continue
        rows_a = [",".join(r) for r in trace_rows(first, scenario.n_total)]
        rows_b = [",".join(r) for r in trace_rows(second, scenario.n_total)]
        if rows_a != rows_b or trace_header(scenario.n_total) != trace_header(
            scenario.n_total
        ):
            ok = False
    _verdict("same seed, same bytes (records and serialized rows)", ok)


def test_c8_routing_frequencies_are_uniform(scenarios_dir):
    """Token routing, departure handoff and stable-instance draws all hit
    their nominal probabilities within 3 sigma over large pinned samples."""
    # remaining step: 3 targets + self, one routed token per call
    counts = {1: 0, 2: 0, 3: 0, "self": 0}
    rng = np.random.default_rng(4242)
    state = AgentState(x=1, y=4, z=2, q_s=2)
    for _ in range(100_000):
        cells = {v: [0, 0] for v in (0, 1, 2, 3)}
        remaining_step(state, 0, {1, 2, 3}, rng, cells)
        counts[next((v for v in (1, 2, 3) if cells[v][1]), "self")] += 1
    sigma3_quarter = 3 * math.sqrt(100_000 * 0.25 * 0.75)  # about 411
    remaining_ok = all(abs(c - 25_000) <= sigma3_quarter for c in counts.values())

    # departure handoff: uniform over 3 sorted targets
    rng = np.random.default_rng(777)
    depart_counts = {1: 0, 2: 0, 3: 0}
    dstate = AgentState(x=1, y=9, z=4, q_s=2)
    for _ in range(100_000):
        cells = {v: [0, 0] for v in (1, 2, 3)}
        depart_step(dstate, 0, {1, 2, 3}, rng, cells)
        (receiver,) = (v for v, cell in cells.items() if cell[1])
        depart_counts[receiver] += 1
    sigma3_third = 3 * math.sqrt(100_000 * (1 / 3) * (2 / 3))  # about 447
    depart_ok = all(
        abs(c - 100_000 / 3) <= sigma3_third for c in depart_counts.values()
    )

    # stable topology draw: two instances at probability one half each
    scenario = load_scenario(scenarios_dir / "static_small.json")
    active = frozenset({0, 1, 2, 3})
    first_heads = {0: (1,), 1: (2,)}
    first_count = 0
    for step in range(10_000):
        inst = draw_topology(scenario, step, active, seed=7)
        if inst.heads == first_heads:
            first_count += 1
    sigma3_half = 3 * math.sqrt(10_000 * 0.25)  # 150
    draw_ok = abs(first_count - 5_000) <= sigma3_half

    _verdict(
        "routing, handoff and instance draws uniform within 3 sigma",
        remaining_ok and depart_ok and draw_ok,
        f"remaining={dict(counts)}, depart={depart_counts}, draw={first_count}/10000",
    )
