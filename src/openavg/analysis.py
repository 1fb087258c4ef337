"""Exact measures over simulation traces.

Everything here is integer or rational arithmetic on purpose: the
conservation laws are exact identities and the convergence criterion
compares quantized estimates against the floor and ceiling of the true
average. Floating point would blur precisely the properties these
functions exist to check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence

if TYPE_CHECKING:  # only for annotations, engine imports this module at runtime
    from .agent import AgentState
    from .engine import RoundRecord


def true_average(states: Mapping[int, AgentState]) -> Fraction:
    """Exact average of the active nodes' declared state values x."""
    if not states:
        raise ValueError("no active nodes, the average is undefined")
    return Fraction(sum(state.x for state in states.values()), len(states))


class ErrorValue(NamedTuple):
    """Total quantized deviation plus how many nodes could not be rated."""

    value: int
    excluded: int


def consensus_error(states: Mapping[int, AgentState], average: Fraction) -> ErrorValue:
    """Distance of the network's mass ratios from the true average.

    For each node with a positive token count the ratio y/z is compared
    against the average: overshoot above its ceiling and undershoot below
    its floor are summed (both integer amounts). Zero means every rated
    node sits inside the quantization band. Nodes holding no tokens have
    no ratio and are excluded but counted, since a transient can
    temporarily concentrate all tokens elsewhere.
    """
    ceil_avg = math.ceil(average)
    floor_avg = math.floor(average)
    total = 0
    excluded = 0
    for state in states.values():
        y, z = state.y, state.z
        if z <= 0:
            excluded += 1
            continue
        high = -(-y // z)  # ceil(y / z)
        low = y // z  # floor(y / z)
        if high > ceil_avg:
            total += high - ceil_avg
        if low < floor_avg:
            total += floor_avg - low
    return ErrorValue(value=total, excluded=excluded)


@dataclass(frozen=True, slots=True)
class ConvergenceReport:
    """Did the post-stabilization window settle, and when.

    ``settle_step`` is the first step from which every estimate stayed
    constant through the horizon (None when not converged). Converged
    means: constant tail of at least one full step, and every final
    estimate equals the floor or ceiling of the true average.
    """

    converged: bool
    settle_step: int | None
    average: Fraction
    band: frozenset[int]
    final_estimates: dict[int, int]


def convergence_time(trace: Sequence["RoundRecord"], from_step: int) -> ConvergenceReport:
    """Judge convergence over trace[from_step:].

    The window must have fixed membership (that is the regime the
    guarantee speaks about); changing membership inside it is a caller
    error. A single-record window can never certify persistence, so it
    reports not converged. Extending the horizon never moves an already
    reported settle step earlier.
    """
    if not trace:
        raise ValueError("empty trace")
    horizon = trace[-1].step
    if not 0 <= from_step <= horizon:
        raise ValueError(f"from_step {from_step} outside [0, {horizon}]")
    window = [r for r in trace if r.step >= from_step]
    members = window[0].active
    if any(r.active != members for r in window):
        raise ValueError("membership changes inside the judged window")
    average = window[0].q_true
    band = frozenset({math.floor(average), math.ceil(average)})

    series = [tuple(r.per_node[v].q_s for v in sorted(members)) for r in window]
    last_change = from_step
    for i in range(1, len(series)):
        if series[i] != series[i - 1]:
            last_change = from_step + i
    final = {v: window[-1].per_node[v].q_s for v in sorted(members)}
    in_band = all(value in band for value in final.values())
    converged = in_band and last_change < horizon
    return ConvergenceReport(
        converged=converged,
        settle_step=last_change if converged else None,
        average=average,
        band=band,
        final_estimates=final,
    )


class AuditRow(NamedTuple):
    step: int
    y_imbalance: int
    z_imbalance: int


def mass_offset(states: Iterable[AgentState]) -> tuple[int, int]:
    """(sum of y - 2x, sum of z - 2) over the given node states.

    Every node enters with mass (2x, 2), and splits and handoffs only
    move mass, so both sums are zero unless mass was destroyed.
    """
    y_offset = z_offset = 0
    for state in states:
        y_offset += state.y - 2 * state.x
        z_offset += state.z - 2
    return y_offset, z_offset


def conservation_audit(trace: Sequence["RoundRecord"]) -> list[AuditRow]:
    """Both conservation identities at every recorded step.

    Each row is the mass offset of the step's start-of-step states. All
    rows are zero on a healthy run; a stranded departure shows up as a
    constant nonzero offset from the step after the loss onward.
    """
    return [AuditRow(r.step, *mass_offset(r.per_node.values())) for r in trace]
