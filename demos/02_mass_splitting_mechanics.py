"""How one agent splits its mass, token by token.

An agent's holding is a pair (y, z): an integer value y backed by z unit
tokens. Each step it cuts the holding into z single-token pieces and
routes every piece independently to a random candidate: one of its
out-neighbors, or itself. The piece values differ by at most one, and
they always re-sum to y exactly. That re-summing property, preserved by
every send and receive in the system, is the whole conservation story.
"""

from openavg.agent import init_active, receive, remaining_step, split_mass
from openavg.rng import stream

# --- the raw splitting loop ---------------------------------------------
# Watch (y, z) = (22, 5) fall apart. Each cut takes floor(y/z) of the
# *current* remainder, so consecutive pieces track the running ratio.
# split_mass() adds each piece to the [y, z] sum of the candidate drawn
# for it; the last candidate is the agent itself, which also keeps the
# final piece.


class OneCandidatePerToken:
    """Draws 0, 1, 2, ...: token i goes to candidate i, so with one
    candidate per token each candidate's sum is a single piece."""

    def __init__(self):
        self.drawn = 0

    def integers(self, low, high):
        self.drawn += 1
        return self.drawn - 1


sums = split_mass(22, 5, n_candidates=3, rng=stream(3, "demo"))
print("input mass      (22, 5)")
print("candidate sums  ", sums)
print("sum of sums     ", [sum(y for y, _ in sums), sum(z for _, z in sums)])
pieces = split_mass(22, 5, n_candidates=5, rng=OneCandidatePerToken())
print("token pieces    ", pieces)

# Negative mass floors toward minus infinity, so pieces of (-22, 5) are
# the mirror image shifted by the quantizer, still summing exactly.
pieces = split_mass(-22, 5, n_candidates=5, rng=OneCandidatePerToken())
values = [y for y, _ in pieces]
print("\nnegative input  (-22, 5)")
print("token values    ", values, "sum", sum(values))

# --- a full protocol step ------------------------------------------------
# remaining_step() wraps the loop for an active node: it splits over its
# sorted targets with itself as the final candidate, and adds each
# candidate's sum to that receiver's cell, an integer (y, z) sum for the step. What the
# node keeps goes into its own cell the same way. At the barrier,
# receive() builds the node's next state from the state it started the
# step with: its cell becomes the new holding, and the public estimate
# q_s quantizes the holding it started with.

state = init_active(7)  # x=7 enters as mass (14, 2)
print("\nfresh agent     y,z =", (state.y, state.z), " estimate =", state.q_s)

cells = {v: [0, 0] for v in (1, 2, 3)}
remaining_step(state, node=1, targets={2, 3}, rng=stream(12, "demo"), cells=cells)
for v, (y, z) in cells.items():
    role = "kept by 1" if v == 1 else f"sent to {v}"
    print(f"cell of {v} ({role}):  (y={y}, z={z})")
total_y = sum(y for y, _ in cells.values())
total_z = sum(z for _, z in cells.values())
print("totals check    ", (total_y, total_z), "== (14, 2)")
# Only node 1 sent this step, so its cell holds just what it kept.
after = receive(state, cells[1])
print("node 1 after the barrier  y,z =", (after.y, after.z),
      " estimate =", after.q_s, "= floor(14/2)")
