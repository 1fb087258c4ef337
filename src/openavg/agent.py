"""Per-node state machine for quantized average consensus by mass splitting.

Each active agent holds a mass pair: ``y`` is an integer sum of state
contributions, ``z`` counts the unit tokens backing it. The agent's
public estimate floors the ratio of the pair it began its last step with.
At every step an agent splits its mass into single-token pieces and
routes each piece to a uniformly chosen candidate (an out-neighbor or
itself), summing the pieces per candidate as they are drawn. Each
candidate's sum, what the agent keeps included, is added into that
receiver's cell: one integer (y, z) sum per remaining node for the step.
At the synchronous barrier each remaining node's new holding is its
cell. Sums of ``y`` and of ``z`` over the network are conserved exactly,
which is what lets everyone converge to the quantized network average.

All mass arithmetic is plain Python integers. Floor division ``//``
rounds toward minus infinity, which is the required quantizer for
negative values; do not "optimize" it to C-style truncation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, MutableMapping, NamedTuple

from .rng import IntegerDraws

# Per-receiver [y, z] sums of one step, one cell per remaining node.
Cells = MutableMapping[int, list[int]]


@dataclass(frozen=True, slots=True)
class AgentState:
    """Protocol variables of one agent.

    x:   state value declared at the most recent activation
    y:   mass value currently held
    z:   mass token count currently held
    q_s: floor(y / z) of the holding at the start of the last step,
         frozen whenever that holding had no token
    """

    x: int
    y: int
    z: int
    q_s: int


class Surplus(NamedTuple):
    """What a departer handed off: (y - 2x, z - 2), lost when stranded."""

    y: int
    z: int
    stranded: bool


def split_mass(y: int, z: int, n_candidates: int, rng: IntegerDraws) -> list[list[int]]:
    """Split (y, z) into z single-token pieces and sum them per candidate.

    Returns one [y, z] sum per candidate index in range(n_candidates).
    While more than one token remains, the agent cuts off one token of
    value floor(y/z) computed on the *current* remainder and adds it to
    the sum of a candidate index drawn uniformly from range(n_candidates).
    The last candidate is the agent itself: it also keeps the final
    token, which holds whatever value is left, or the whole (y, z) when
    z <= 1. So the sums always re-add to (y, z) exactly.
    """
    if n_candidates < 1:
        raise ValueError("need at least one candidate (self)")
    sums = [[0, 0] for _ in range(n_candidates)]
    while z > 1:
        piece = y // z
        total = sums[rng.integers(0, n_candidates)]
        total[0] += piece
        total[1] += 1
        y -= piece
        z -= 1
    own = sums[-1]
    own[0] += y
    own[1] += z
    return sums


def init_active(x: int) -> AgentState:
    """State of a node that is active from the first step, or that joins
    the network with value x.

    Mass starts at (2x, 2): doubling makes the quantizer's initial
    estimate exactly x while still giving the splitter two tokens. An
    arriving node's state takes effect only from the *next* step; it
    neither sends nor receives during the step it appears.
    """
    return AgentState(x=x, y=2 * x, z=2, q_s=x)


def remaining_step(
    state: AgentState,
    node: int,
    targets: Collection[int],
    rng: IntegerDraws,
    cells: Cells,
) -> None:
    """Send phase for a node that stays active through this step.

    Splits the mass over the candidate list ``sorted(targets) + [self]``
    with every candidate equally likely per token, and adds each
    candidate's [y, z] sum into that candidate's cell. What the node
    keeps, the final piece and the pieces drawn for self, goes into its
    own cell, since keeping mass is a delivery to self. The node's state
    is untouched: receive() builds its next one at the barrier.

    A node that cannot draw, holding z <= 1 tokens or without targets,
    keeps its whole holding, and the split draws no word from ``rng``.
    """
    if node in targets:
        raise ValueError("self must not appear among targets")
    receivers = sorted(targets)
    receivers.append(node)
    for receiver, (y, z) in zip(receivers, split_mass(state.y, state.z, len(receivers), rng)):
        cell = cells[receiver]
        cell[0] += y
        cell[1] += z


def depart_step(
    state: AgentState,
    node: int,
    targets: Collection[int],
    rng: IntegerDraws,
    cells: Cells,
) -> Surplus:
    """Send phase for a node leaving the network after this step.

    The departer keeps its own original contribution (2x, 2) and adds
    the surplus (y - 2x, z - 2) to the cell of one remaining out-neighbor
    chosen uniformly. Without any remaining out-neighbor the surplus
    cannot be delivered: it is returned flagged stranded and is lost,
    which is exactly the failure mode the departure condition rules out.
    """
    if node in targets:
        raise ValueError("self must not appear among targets")
    surplus_y = state.y - 2 * state.x
    surplus_z = state.z - 2
    if not targets:
        return Surplus(surplus_y, surplus_z, stranded=True)
    order = sorted(targets)
    cell = cells[order[rng.integers(0, len(order))]]
    cell[0] += surplus_y
    cell[1] += surplus_z
    return Surplus(surplus_y, surplus_z, stranded=False)


def receive(state: AgentState, cell: list[int]) -> AgentState:
    """Barrier delivery: the next state of a node that started the step
    in ``state``. The new holding is its cell, the sum of what it kept and
    everything routed or handed off to it this step (departers' surplus
    may carry zero tokens or a negative value). q_s is refreshed from the
    start-of-step holding when that held at least one token.
    """
    q = state.y // state.z if state.z >= 1 else state.q_s
    return AgentState(x=state.x, y=cell[0], z=cell[1], q_s=q)
