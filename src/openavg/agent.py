"""Per-node state machine for quantized average consensus by mass splitting.

Each active agent holds a mass pair: ``y`` is an integer sum of state
contributions, ``z`` counts the unit tokens backing it. The agent's
public estimate is the floored ratio of its last snapshot of that pair.
At every step an agent splits its mass into single-token pieces, routes
each piece to a uniformly chosen candidate (an out-neighbor or itself),
and the per-step totals are exchanged in one synchronous barrier. Sums
of ``y`` and of ``z`` over the network are conserved exactly, which is
what lets everyone converge to the quantized network average.

All mass arithmetic is plain Python integers. Floor division ``//``
rounds toward minus infinity, which is the required quantizer for
negative values; do not "optimize" it to C-style truncation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Protocol


class IntegerDraws(Protocol):
    """The one RNG method the agent needs (numpy Generators satisfy it)."""

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
    active: bool = True


@dataclass(frozen=True, slots=True)
class MassMessage:
    """One coalesced mass transfer for one step. c_z >= 1 always."""

    sender: int
    receiver: int
    c_y: int
    c_z: int
    step: int


@dataclass(frozen=True, slots=True)
class StepOutcome:
    """Result of one agent's send phase.

    ``kept_y``/``kept_z`` is the self-directed accumulator; it bypasses
    the message fabric but enters the same receive-time sum. ``stranded``
    marks a departure that found no remaining out-neighbor and therefore
    destroyed its handoff mass.
    """

    state: AgentState
    messages: tuple[MassMessage, ...]
    kept_y: int
    kept_z: int
    stranded: bool = False


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


def quantized_estimate(state: AgentState) -> int:
    """Public estimate: floor(y_s / z_s), or the frozen one when z_s < 1."""
    if state.z_s >= 1:
        return state.y_s // state.z_s
    return state.q_s


def remaining_step(
    state: AgentState,
    node: int,
    targets: Iterable[int],
    step: int,
    rng: IntegerDraws,
) -> StepOutcome:
    """Send phase for a node that stays active through this step.

    Snapshots (y, z) into (y_s, z_s), refreshes q_s when at least one
    token is present, then splits the mass over the candidate list
    ``sorted(targets) + [self]`` with every candidate equally likely per
    token. Pieces are coalesced per receiver; a message is emitted only
    when its token count is at least 1. The returned state carries
    y = z = 0 because the whole holding is in flight until receive().
    """
    if not state.active:
        raise ValueError(f"node {node} is inactive")
    y_snapshot, z_snapshot = state.y, state.z
    q = y_snapshot // z_snapshot if z_snapshot >= 1 else state.q_s

    order = sorted(set(targets))
    if node in order:
        raise ValueError("self must not appear among targets")
    self_index = len(order)
    split = split_mass(state.y, state.z, self_index + 1, rng)

    kept_y, kept_z = split.residual_y, split.residual_z
    accum: dict[int, list[int]] = {}
    for idx, value in split.routed:
        if idx == self_index:
            kept_y += value
            kept_z += 1
        else:
            cell = accum.setdefault(order[idx], [0, 0])
            cell[0] += value
            cell[1] += 1

    messages = tuple(
        MassMessage(sender=node, receiver=t, c_y=accum[t][0], c_z=accum[t][1], step=step)
        for t in order
        if t in accum and accum[t][1] >= 1
    )
    new_state = AgentState(
        x=state.x, y=0, z=0, y_s=y_snapshot, z_s=z_snapshot, q_s=q
    )
    return StepOutcome(state=new_state, messages=messages, kept_y=kept_y, kept_z=kept_z)


def depart_step(
    state: AgentState,
    node: int,
    targets: Iterable[int],
    step: int,
    rng: IntegerDraws,
) -> StepOutcome:
    """Send phase for a node leaving the network after this step.

    The departer keeps its own original contribution (2x, 2) and hands
    the surplus (y - 2x, z - 2) to one remaining out-neighbor chosen
    uniformly. Without any remaining out-neighbor the surplus cannot be
    delivered: the outcome is flagged stranded and the mass is lost,
    which is exactly the failure mode the departure condition rules out.
    """
    if not state.active:
        raise ValueError(f"node {node} is inactive")
    gone = AgentState(x=state.x, y=0, z=0, y_s=0, z_s=0, q_s=0, active=False)

    order = sorted(set(targets))
    if node in order:
        raise ValueError("self must not appear among targets")
    if not order:
        return StepOutcome(state=gone, messages=(), kept_y=0, kept_z=0, stranded=True)

    pick = order[int(rng.integers(0, len(order)))]
    surplus_y = state.y - 2 * state.x
    surplus_z = state.z - 2
    message = MassMessage(
        sender=node, receiver=pick, c_y=surplus_y, c_z=surplus_z, step=step
    )
    return StepOutcome(state=gone, messages=(message,), kept_y=0, kept_z=0)


def receive(
    state: AgentState, kept_y: int, kept_z: int, inbound: Iterable[MassMessage]
) -> AgentState:
    """Barrier delivery: new holding is the kept pair plus all inbound.

    Every delivered message counts with weight 1. Surplus handoffs from
    departers may carry c_z == 0 or negative c_y; they are summed the
    same way.
    """
    y = kept_y
    z = kept_z
    for message in inbound:
        y += message.c_y
        z += message.c_z
    return AgentState(
        x=state.x, y=y, z=z, y_s=state.y_s, z_s=state.z_s, q_s=state.q_s,
        active=state.active,
    )
