"""How one agent splits its mass, token by token.

An agent's holding is a pair (y, z): an integer value y backed by z unit
tokens. Each step it cuts the holding into z single-token pieces and
routes every piece independently to a random candidate: one of its
out-neighbors, or itself. The piece values differ by at most one, and
they always re-sum to y exactly. That re-summing property, preserved by
every send and receive in the system, is the whole conservation story.
"""

import numpy as np

from openavg.agent import init_active, remaining_step, split_mass

# --- the raw splitting loop ---------------------------------------------
# Watch (y, z) = (22, 5) fall apart. Each cut takes floor(y/z) of the
# *current* remainder, so consecutive pieces track the running ratio.

rng = np.random.default_rng(3)
split = split_mass(22, 5, n_candidates=3, rng=rng)
print("input mass      (22, 5)")
print("routed pieces   ", [(int(i), v) for i, v in split.routed])
print("residual        ", (split.residual_y, split.residual_z))
print("token values    ", split.token_values())
print("sum of values   ", sum(split.token_values()))

# Negative mass floors toward minus infinity, so pieces of (-22, 5) are
# the mirror image shifted by the quantizer, still summing exactly.
split = split_mass(-22, 5, n_candidates=3, rng=np.random.default_rng(3))
print("\nnegative input  (-22, 5)")
print("token values    ", split.token_values(), "sum", sum(split.token_values()))

# --- a full protocol step ------------------------------------------------
# remaining_step() wraps the loop for an active node: it snapshots the
# holding (that snapshot is what the public estimate quantizes), routes
# pieces to sorted targets with itself as the final candidate, and
# coalesces per receiver.

state = init_active(7)  # x=7 enters as mass (14, 2)
print("\nfresh agent     y,z =", (state.y, state.z), " estimate =", state.q_s)

outcome = remaining_step(state, node=1, targets={2, 3}, step=0,
                         rng=np.random.default_rng(12))
print("kept            ", (outcome.kept_y, outcome.kept_z))
for message in outcome.messages:
    print(f"message to {message.receiver}:  (c_y={message.c_y}, c_z={message.c_z})")
total_y = outcome.kept_y + sum(m.c_y for m in outcome.messages)
total_z = outcome.kept_z + sum(m.c_z for m in outcome.messages)
print("totals check    ", (total_y, total_z), "== (14, 2)")
