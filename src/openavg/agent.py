"""Per-node state machine for quantized average consensus by mass splitting.

Each active agent holds a mass pair: ``y`` is an integer sum of state
contributions, ``z`` counts the unit tokens backing it. The agent's
public estimate is the floored ratio of its last snapshot of that pair.
At every step an agent splits its mass into single-token pieces and
routes each piece to a uniformly chosen candidate (an out-neighbor or
itself). Every piece, and the piece it keeps, is added into the
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
from typing import AbstractSet, MutableMapping, NamedTuple, Protocol

# Per-receiver [y, z] sums of one step, one cell per remaining node.
Cells = MutableMapping[int, list[int]]


class IntegerDraws(Protocol):
    """The one RNG method the agent needs: a uniform int in [low, high).

    The engine passes an ``rng.Stream``, which returns Python ints. A
    numpy ``Generator`` seeded the same way draws the same values but
    returns numpy ints, which is why the draws go through ``int``.
    """

    def integers(self, low: int, high: int) -> int: ...


@dataclass(frozen=True, slots=True)
class AgentState:
    """Protocol variables of one agent.

    x:   state value declared at the most recent activation
    y:   mass value currently held
    z:   mass token count currently held
    y_s: snapshot of y taken at the start of the last step
    z_s: snapshot of z taken at the start of the last step
    q_s: floor(y_s / z_s), frozen whenever z_s dropped below 1
    """

    x: int
    y: int
    z: int
    y_s: int
    z_s: int
    q_s: int


class Surplus(NamedTuple):
    """What a departer handed off: (y - 2x, z - 2), lost when stranded."""

    y: int
    z: int
    stranded: bool


@dataclass(frozen=True, slots=True)
class SplitResult:
    """Token-level outcome of the splitting loop.

    ``routed`` lists (candidate index, token value) in dispatch order.
    ``residual_y``/``residual_z`` is what the loop left behind; it always
    stays with the agent. After a real split residual_z == 1; when the
    input had z <= 1 nothing is routed and the residual is the input.
    """

    routed: tuple[tuple[int, int], ...]
    residual_y: int
    residual_z: int

    def token_values(self) -> list[int]:
        """Values of all single-token pieces, residual included."""
        return [v for _, v in self.routed] + [self.residual_y]


def split_mass(y: int, z: int, n_candidates: int, rng: IntegerDraws) -> SplitResult:
    """Split (y, z) into z single-token pieces, routing all but the last.

    While more than one token remains, the agent cuts off one token of
    value floor(y/z) computed on the *current* remainder, assigns it a
    candidate index drawn uniformly from range(n_candidates), and updates
    the remainder. The final token keeps whatever value is left, so the
    piece values always sum back to y exactly.
    """
    if n_candidates < 1:
        raise ValueError("need at least one candidate (self)")
    routed: list[tuple[int, int]] = []
    cur_y, cur_z = y, z
    remaining = z
    while remaining > 1:
        piece = cur_y // cur_z
        idx = int(rng.integers(0, n_candidates))
        routed.append((idx, piece))
        cur_y -= piece
        cur_z -= 1
        remaining -= 1
    return SplitResult(routed=tuple(routed), residual_y=cur_y, residual_z=cur_z)


def init_active(x: int) -> AgentState:
    """State of a node that is active from the first step, or that joins
    the network with value x.

    Mass starts at (2x, 2): doubling makes the quantizer's initial
    estimate exactly x while still giving the splitter two tokens. An
    arriving node's state takes effect only from the *next* step; it
    neither sends nor receives during the step it appears.
    """
    return AgentState(x=x, y=2 * x, z=2, y_s=2 * x, z_s=2, q_s=x)


def remaining_step(
    state: AgentState,
    node: int,
    targets: AbstractSet[int],
    rng: IntegerDraws,
    cells: Cells,
) -> AgentState:
    """Send phase for a node that stays active through this step.

    Snapshots (y, z) into (y_s, z_s), refreshes q_s when at least one
    token is present, then splits the mass over the candidate list
    ``sorted(targets) + [self]`` with every candidate equally likely per
    token. Each routed piece adds its value and one token to its
    receiver's cell; the residual piece and the pieces drawn for self
    are added to the node's own cell, since keeping mass is a delivery
    to self. The returned state carries y = z = 0 because the whole
    holding is in flight until receive().
    """
    if node in targets:
        raise ValueError("self must not appear among targets")
    own = cells[node]
    candidates = [cells[t] for t in sorted(targets)]
    candidates.append(own)
    split = split_mass(state.y, state.z, len(candidates), rng)
    own[0] += split.residual_y
    own[1] += split.residual_z
    for idx, value in split.routed:
        cell = candidates[idx]
        cell[0] += value
        cell[1] += 1
    q = state.y // state.z if state.z >= 1 else state.q_s
    return AgentState(x=state.x, y=0, z=0, y_s=state.y, z_s=state.z, q_s=q)


def depart_step(
    state: AgentState,
    node: int,
    targets: AbstractSet[int],
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
    cell = cells[order[int(rng.integers(0, len(order)))]]
    cell[0] += surplus_y
    cell[1] += surplus_z
    return Surplus(surplus_y, surplus_z, stranded=False)


def receive(state: AgentState, cell: list[int]) -> AgentState:
    """Barrier delivery: the new holding is the node's cell, the sum of
    what it kept and everything routed or handed off to it this step.

    Surplus handoffs from departers may carry zero tokens or a negative
    value; they were summed into the cell the same way.
    """
    y, z = cell
    return AgentState(
        x=state.x, y=y, z=z, y_s=state.y_s, z_s=state.z_s, q_s=state.q_s
    )
