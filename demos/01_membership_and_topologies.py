"""Open networks in two pictures: membership churn and step topologies.

The simulator's world model is deliberately small. A network at step k
is (1) an active node set, and (2) a directed graph instance over that
set. This script builds both by hand to show the raw ingredients before
any consensus protocol runs on top of them.
"""

from openavg.graphs import (
    directed_cycle,
    generate_instance_family,
    is_strongly_connected,
    membership_sets,
    out_neighbors,
    union_digraph,
)
from openavg.rng import stream

# --- membership boundaries --------------------------------------------------
# Between step k and k+1 the active set can change. Three disjoint sets
# describe the boundary: who remains, who arrives, who departs.

now = frozenset({10, 11, 12, 13})
later = frozenset({11, 12, 14})
m = membership_sets(now, later)
print("active now     ", sorted(now))
print("active later   ", sorted(later))
print("remaining      ", sorted(m.remaining))
print("arriving       ", sorted(m.arriving))
print("departing      ", sorted(m.departing))

# The remaining set is what message routing cares about: anything sent
# to a departing node would leave the system with it.
ring = directed_cycle(sorted(now))
print("\nring edges     ", sorted(ring.edges))
for v in sorted(now):
    print(
        f"node {v}: out-neighbors {sorted(out_neighbors(ring, v))}, "
        f"legal targets {sorted(out_neighbors(ring, v) & m.remaining)}"
    )

# --- instance families ------------------------------------------------------
# Per-step topologies are drawn from a family of instances. Convergence
# arguments need the *union* of the family to be strongly connected,
# even when no single member is.

rng = stream(2024, "demo")
family = generate_instance_family(range(8), count=4, min_out_degree=1, rng=rng)
for i, inst in enumerate(family):
    print(
        f"\ninstance {i}: {len(inst.edges)} edges, "
        f"strongly connected alone: {is_strongly_connected(inst)}"
    )
merged = union_digraph(family)
print(f"\nunion: {len(merged.edges)} edges, strongly connected:",
      is_strongly_connected(merged))
