"""Trace serialization and plotting.

CSV output is byte-stable: same records, same bytes, on any platform.
Charts are written as self-contained SVG with no plotting dependency;
they are meant for quick visual inspection of a run, not publication.
"""

from __future__ import annotations

import csv
from itertools import groupby
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .engine import RoundRecord

_PALETTE = [
    "#1b6ca8", "#c84b31", "#2d936c", "#8e44ad", "#d4a017",
    "#486581", "#b5338a", "#5c8a3a", "#985f2a", "#3a7ca5",
    "#a23b72", "#5d7052",
]


def trace_header(n_total: int) -> list[str]:
    return [
        "step",
        "n_active",
        "q_num",
        "q_den",
        "epsilon",
        "excluded_nodes",
        "violations",
    ] + [f"qs_{v}" for v in range(n_total)]


def trace_rows(records: Iterable[RoundRecord], n_total: int) -> Iterator[list[str]]:
    for r in records:
        violations = "|".join(f"{v.node}:{v.kind}" for v in r.violations)
        row = [
            str(r.step),
            str(len(r.active)),
            str(r.q_true.numerator),
            str(r.q_true.denominator),
            str(r.epsilon),
            str(r.excluded),
            violations,
        ]
        for v in range(n_total):
            row.append(str(r.per_node[v].q_s) if v in r.per_node else "")
        yield row


def write_trace_csv(records: Iterable[RoundRecord], n_total: int, path: str | Path) -> None:
    """One row per step: network aggregates, then every node's estimate.

    Inactive nodes get empty cells. The violations cell holds
    "node:kind" entries joined by "|", empty when the step was clean.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(trace_header(n_total))
        writer.writerows(trace_rows(records, n_total))


def write_summary_csv(rows: Sequence[dict[str, object]], path: str | Path) -> None:
    """Sweep summary, one row per seed, its columns the keys of the first row."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


# -- SVG charts ---------------------------------------------------------------

_WIDTH, _HEIGHT = 860, 380
_ML, _MR, _MT, _MB = 56, 16, 20, 40  # margins


def _ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    """Round tick positions covering [lo, hi]."""
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / target
    magnitude = 10 ** len(str(int(raw))) / 10 if raw >= 1 else 1
    step = max(1, round(raw / magnitude)) * magnitude
    first = int(lo // step) * step
    ticks = []
    t = first
    while t <= hi + step / 2:
        if t >= lo - step / 2:
            ticks.append(t)
        t += step
    return ticks


class _Frame:
    """Maps data coordinates onto the SVG plot rectangle."""

    def __init__(self, x_lo: float, x_hi: float, y_lo: float, y_hi: float) -> None:
        if x_hi <= x_lo:
            x_hi = x_lo + 1
        if y_hi <= y_lo:
            y_hi = y_lo + 1
        pad = 0.05 * (y_hi - y_lo)
        self.x_lo, self.x_hi = x_lo, x_hi
        self.y_lo, self.y_hi = y_lo - pad, y_hi + pad

    def x(self, v: float) -> float:
        span = _WIDTH - _ML - _MR
        return _ML + (v - self.x_lo) / (self.x_hi - self.x_lo) * span

    def y(self, v: float) -> float:
        span = _HEIGHT - _MT - _MB
        return _HEIGHT - _MB - (v - self.y_lo) / (self.y_hi - self.y_lo) * span


def _chart_shell(frame: _Frame, title: str, x_label: str, y_label: str) -> list[str]:
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_WIDTH} {_HEIGHT}" '
        f'font-family="monospace" font-size="11">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_ML}" y="14" font-size="13">{title}</text>',
    ]
    for t in _ticks(frame.x_lo, frame.x_hi):
        px = frame.x(t)
        parts.append(
            f'<line x1="{px:.1f}" y1="{_MT}" x2="{px:.1f}" y2="{_HEIGHT - _MB}" '
            f'stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="{px:.1f}" y="{_HEIGHT - _MB + 16}" text-anchor="middle">'
            f"{t:g}</text>"
        )
    for t in _ticks(frame.y_lo, frame.y_hi):
        py = frame.y(t)
        parts.append(
            f'<line x1="{_ML}" y1="{py:.1f}" x2="{_WIDTH - _MR}" y2="{py:.1f}" '
            f'stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="{_ML - 6}" y="{py + 4:.1f}" text-anchor="end">{t:g}</text>'
        )
    parts.append(
        f'<rect x="{_ML}" y="{_MT}" width="{_WIDTH - _ML - _MR}" '
        f'height="{_HEIGHT - _MT - _MB}" fill="none" stroke="#333333"/>'
    )
    parts.append(
        f'<text x="{(_ML + _WIDTH - _MR) / 2:.0f}" y="{_HEIGHT - 6}" '
        f'text-anchor="middle">{x_label}</text>'
    )
    parts.append(
        f'<text x="14" y="{(_MT + _HEIGHT - _MB) / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 14 {(_MT + _HEIGHT - _MB) / 2:.0f})">{y_label}</text>'
    )
    return parts


def _polyline(points: list[tuple[float, float]], color: str, dashed: bool = False) -> str:
    coords = " ".join(f"{x:.1f},{y:.1f}" for x, y in points)
    dash = ' stroke-dasharray="6 4"' if dashed else ""
    return (
        f'<polyline points="{coords}" fill="none" stroke="{color}" '
        f'stroke-width="1.2"{dash}/>'
    )


def render_estimates_svg(records: Sequence[RoundRecord], n_total: int) -> str:
    """Per-node quantized estimates over time, true average dashed.

    ``records`` are consecutive steps. A node inactive for a while leaves
    a gap: each run of records that include it is its own segment.
    """
    values = [v.q_s for r in records for v in r.per_node.values()]
    averages = [float(r.q_true) for r in records]
    lo = min(min(values), min(averages))
    hi = max(max(values), max(averages))
    frame = _Frame(records[0].step, records[-1].step, lo, hi)
    parts = _chart_shell(frame, "quantized estimates", "step", "estimate")

    for v in range(n_total):
        color = _PALETTE[v % len(_PALETTE)]
        for active, stretch in groupby(records, lambda r: v in r.per_node):
            segment = [(frame.x(r.step), frame.y(r.per_node[v].q_s)) for r in stretch if active]
            if len(segment) > 1:
                parts.append(_polyline(segment, color))

    avg_points = [(frame.x(r.step), frame.y(float(r.q_true))) for r in records]
    parts.append(_polyline(avg_points, "#000000", dashed=True))
    parts.append("</svg>")
    return "\n".join(parts)


def render_error_svg(records: Sequence[RoundRecord]) -> str:
    """Total quantized deviation (exact) and active count over time."""
    errors = [r.epsilon for r in records]
    frame = _Frame(records[0].step, records[-1].step, 0, max(max(errors), 1))
    parts = _chart_shell(frame, "distance to quantized average", "step", "error")
    parts.append(
        _polyline([(frame.x(r.step), frame.y(r.epsilon)) for r in records], "#c84b31")
    )
    counts = [len(r.active) for r in records]
    count_frame = _Frame(records[0].step, records[-1].step, 0, max(counts))
    parts.append(
        _polyline(
            [(frame.x(r.step), count_frame.y(c)) for r, c in zip(records, counts)],
            "#486581",
            dashed=True,
        )
    )
    parts.append(
        f'<text x="{_WIDTH - _MR - 4}" y="{_MT + 14}" text-anchor="end" '
        f'fill="#486581">dashed: active nodes (own scale)</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts)


def write_svg(text: str, path: str | Path) -> None:
    Path(path).write_text(text + "\n", encoding="utf-8")
