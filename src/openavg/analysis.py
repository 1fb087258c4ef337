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


class ConvergenceFold:
    """``convergence_time``'s judgment, taking one record at a time.

    It holds the judged window's members and average, the latest
    estimates and the step they last changed, so O(n) however long the
    trace. ``report`` gives ``convergence_time``'s result, or raises its
    ``ValueError``, for the records added so far.
    """

    def __init__(self, from_step: int) -> None:
        self.from_step = from_step
        self.horizon: int | None = None  # step of the last record added
        self.members: frozenset[int] | None = None  # of the window
        self.order: list[int] = []  # the members, ascending
        self.average = Fraction(0)
        self.estimates: tuple[int, ...] = ()
        self.last_change = from_step
        self.seen = 0  # window records so far
        self.moved = False  # membership changed inside the window

    def add(self, record: "RoundRecord") -> None:
        self.horizon = record.step
        if record.step < self.from_step or self.moved:
            return
        if self.members is None:
            self.members, self.average = record.active, record.q_true
            self.order = sorted(record.active)
        elif record.active != self.members:
            self.moved = True
            return
        estimates = tuple(record.per_node[v].q_s for v in self.order)
        if self.seen and estimates != self.estimates:
            self.last_change = self.from_step + self.seen
        self.estimates = estimates
        self.seen += 1

    def report(self) -> ConvergenceReport:
        if self.horizon is None:
            raise ValueError("empty trace")
        if not 0 <= self.from_step <= self.horizon:
            raise ValueError(f"from_step {self.from_step} outside [0, {self.horizon}]")
        if self.moved:
            raise ValueError("membership changes inside the judged window")
        band = frozenset({math.floor(self.average), math.ceil(self.average)})
        final = dict(zip(self.order, self.estimates))
        converged = all(value in band for value in final.values()) and (
            self.last_change < self.horizon
        )
        return ConvergenceReport(
            converged=converged,
            settle_step=self.last_change if converged else None,
            average=self.average,
            band=band,
            final_estimates=final,
        )


def convergence_time(trace: Iterable["RoundRecord"], from_step: int) -> ConvergenceReport:
    """Judge convergence over the records of ``trace`` from ``from_step`` on.

    The window must have fixed membership (that is the regime the
    guarantee speaks about); changing membership inside it is a caller
    error. A single-record window can never certify persistence, so it
    reports not converged. Extending the horizon never moves an already
    reported settle step earlier.
    """
    fold = ConvergenceFold(from_step)
    for record in trace:
        fold.add(record)
    return fold.report()


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
