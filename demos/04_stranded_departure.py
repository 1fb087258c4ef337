"""Why departures need a live out-neighbor: a controlled failure.

A departing node keeps its own original contribution and hands the rest
of its holding to one out-neighbor that stays active. The bundled
violation fixture engineers the step where that is impossible: node 3's
only out-edge points at node 2, and both leave at the same step. The
surplus has nowhere to go and vanishes with the departer.

The run demonstrates three things. The simulator flags the event instead
of hiding it. The conservation audit pins the loss to the exact
undelivered amount. And the survivors afterwards agree on a value that
is confidently wrong: the average they converge to includes mass that
no longer belongs to anyone.
"""

from pathlib import Path

from openavg import conservation_audit, load_scenario, run

scenario = load_scenario(
    Path(__file__).parent.parent / "scenarios" / "theorem1_violation.json"
)
records = run(scenario)

event_step = 6
print("membership at the event step:")
print("  departing:", sorted(records[event_step].membership.departing))
print("  remaining:", sorted(records[event_step].membership.remaining))
print("violations:", records[event_step].violations)

# Node 3 entered with x=100 but six steps of ring mixing moved mass
# through it, so what it holds at departure differs from what it brought.
holder = records[event_step].per_node[3]
surplus_y = holder.y - 2 * holder.x
surplus_z = holder.z - 2
print(f"\nnode 3 holds (y={holder.y}, z={holder.z}) when it departs")
print(f"undeliverable surplus: ({surplus_y}, {surplus_z})")

rows = conservation_audit(records)
print("\nstep  mass imbalance  token imbalance")
for row in rows[:10]:
    print(f"{row.step:4d}  {row.y_imbalance:14d}  {row.z_imbalance:15d}")
print("...")
print(f"loss from step {event_step + 1} on equals -surplus:",
      all((r.y_imbalance, r.z_imbalance) == (-surplus_y, -surplus_z)
          for r in rows if r.step > event_step))

# Node 2 departed at the same step but its out-neighbor 0 remained, so
# its surplus was delivered; only node 3's share is missing.

last = records[-1]
print("\ntrue average of the survivors:", last.q_true, "-> honest band {1, 2}")
print("their final estimates:",
      {v: last.per_node[v].q_s for v in sorted(last.active)})
print("the stranded mass pinned them far outside the honest band.")
