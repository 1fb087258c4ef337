"""Per-layer tracing from outside the program.

The tracer wraps public functions of ``openavg`` by rebinding the names
in every module namespace that holds them (``engine.out_neighbors``,
``agent.split_mass``, ``rng.stream``, ...), so calls made inside the
package go through the wrapper without any change to ``src/``. A name
that a later version of the package no longer has is skipped and reports
zero calls.

Every wrapped call records one span: layer index, parent span, request
(the seed or sweep chunk being run), start and end in nanoseconds. Spans
are kept in typed arrays and written to one ``.npz`` file at the end.
Self time is derived from the spans afterwards: a span's duration minus
the durations of its direct children. Counters are read off a call's
result after its span has closed, so their small cost lands in the
caller's self time and in the tracing overhead.
"""

from __future__ import annotations

import os
import sys
import time
from array import array
from contextlib import ExitStack, contextmanager
from functools import wraps
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

# (module, function) pairs wrapped in the traced run, one per layer entry
# point the per-layer metrics name. Order is the report order.
LAYERS: tuple[tuple[str, str], ...] = (
    ("rng", "stream"),
    ("rng", "node_set_fingerprint"),
    ("graphs", "membership_sets"),
    ("graphs", "out_neighbors"),
    ("graphs", "generate_instance_family"),
    ("graphs", "random_out_degree_instance"),
    ("graphs", "union_digraph"),
    ("graphs", "is_strongly_connected"),
    ("graphs", "strongly_connected_components"),
    ("graphs", "directed_cycle"),
    ("agent", "split_mass"),
    ("agent", "remaining_step"),
    ("agent", "depart_step"),
    ("agent", "receive"),
    ("agent", "init_active"),
    ("engine", "run"),
    ("engine", "draw_topology"),
    ("analysis", "true_average"),
    ("analysis", "consensus_error"),
    ("analysis", "conservation_audit"),
    ("analysis", "convergence_time"),
    ("scenario", "load_scenario"),
    ("scenario", "parse_scenario"),
    ("scenario", "validate_scenario"),
    ("reporting", "write_trace_csv"),
    ("reporting", "trace_rows"),
    ("reporting", "write_summary_csv"),
    ("cli", "main"),
)

# Per-function metrics: (suffix, unit, better).
FUNCTION_METRICS = (
    ("calls", "1/seed", "lower"),
    ("self_s", "s/seed", "lower"),
    ("self_us_per_node_step", "us/node-step", "lower"),
)

# Counts measured at the same boundaries: (name, unit, better).
COUNT_METRICS = (
    ("graphs.family_attempts", "1/seed", "lower"),
    ("graphs.family_accept_ratio", "ratio", "higher"),
    ("graphs.family_fallbacks", "1/seed", "lower"),
    ("engine.family_cache.hit_ratio", "ratio", "higher"),
    ("agent.tokens_routed", "1/node-step", "lower"),
    ("agent.tokens_kept", "1/node-step", "higher"),
    ("agent.messages", "1/node-step", "lower"),
    ("agent.stranded", "1/seed", "lower"),
    ("reporting.trace_bytes", "B/seed", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def per_layer_spec() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    spec = [
        (f"{module}.{func}.{suffix}", unit, better)
        for module, func in LAYERS
        for suffix, unit, better in FUNCTION_METRICS
    ]
    return spec + list(COUNT_METRICS)


def _package_modules(package: str) -> list[object]:
    prefix = package + "."
    return [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == package or name.startswith(prefix))
    ]


@contextmanager
def rebind(package: str, target: object, replacement: object) -> Iterator[int]:
    """Point every name bound to ``target`` in the package at ``replacement``.

    Yields how many names were rebound; restores them all on exit.
    """
    patched = []
    for module in _package_modules(package):
        for attr, value in list(vars(module).items()):
            if value is target:
                setattr(module, attr, replacement)
                patched.append((module, attr))
    try:
        yield len(patched)
    finally:
        for module, attr in patched:
            setattr(module, attr, target)


def _count_outcome(counters: dict[str, float], outcome: object) -> None:
    messages = getattr(outcome, "messages", ())
    counters["agent.messages"] += len(messages)
    counters["agent.tokens_routed"] += sum(getattr(m, "c_z", 0) for m in messages)
    counters["agent.tokens_kept"] += getattr(outcome, "kept_z", 0)


class Tracer:
    """Span recorder plus the counters read off wrapped calls' results."""

    def __init__(self) -> None:
        self.names: list[str] = [f"{m}.{f}" for m, f in LAYERS]
        self.layer = array("i")
        self.parent = array("q")
        self.request = array("q")
        self.start = array("q")
        self.end = array("q")
        self.current_request = 0
        self._stack: list[int] = [-1]
        self.counters: dict[str, float] = {
            "agent.messages": 0,
            "agent.tokens_routed": 0,
            "agent.tokens_kept": 0,
            "agent.stranded": 0,
            "reporting.trace_bytes": 0,
            "engine.family_lookups": 0,
        }

    def _hook(self, name: str) -> Callable[[tuple, dict, object], None] | None:
        counters = self.counters
        if name == "agent.remaining_step":
            return lambda args, kwargs, out: _count_outcome(counters, out)

        if name == "agent.depart_step":
            def on_depart(args, kwargs, out):
                _count_outcome(counters, out)
                counters["agent.stranded"] += bool(getattr(out, "stranded", False))
            return on_depart

        if name == "engine.draw_topology":
            def on_draw(args, kwargs, out):
                scenario = args[0] if args else kwargs.get("scenario")
                if hasattr(getattr(scenario, "topology", None), "min_out_degree"):
                    counters["engine.family_lookups"] += 1
            return on_draw

        if name == "reporting.write_trace_csv":
            def on_write(args, kwargs, out):
                path = args[2] if len(args) > 2 else kwargs.get("path")
                counters["reporting.trace_bytes"] += os.path.getsize(path)
            return on_write
        return None

    def wrap(self, index: int, fn: Callable) -> Callable:
        hook = self._hook(self.names[index])
        layer, parent, request = self.layer, self.parent, self.request
        start, end, stack = self.start, self.end, self._stack
        clock = time.perf_counter_ns

        @wraps(fn)
        def traced(*args, **kwargs):
            span = len(start)
            layer.append(index)
            parent.append(stack[-1])
            request.append(self.current_request)
            end.append(0)
            stack.append(span)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[span] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self, package: str = "openavg") -> Iterator[None]:
        """Wrap every listed function that exists; unwrap on exit."""
        with ExitStack() as stack:
            for index, (module_name, func) in enumerate(LAYERS):
                module = sys.modules.get(f"{package}.{module_name}")
                fn = getattr(module, func, None)
                if callable(fn):
                    stack.enter_context(rebind(package, fn, self.wrap(index, fn)))
            yield

    # -- results ---------------------------------------------------------

    def self_ns(self) -> np.ndarray:
        """Self time of every span: duration minus its children's."""
        parent = np.frombuffer(self.parent, dtype=np.int64)
        duration = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(
            self.start, dtype=np.int64
        )
        has_parent = parent >= 0
        children = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=len(duration)
        )
        return duration - children

    def metrics(self, seeds: int, node_steps: int) -> dict[str, float]:
        """Per-layer metrics normalised by the seeds and node-steps traced."""
        layer = np.frombuffer(self.layer, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        count = len(self.names)
        calls = np.bincount(layer, minlength=count)
        self_s = np.bincount(layer, weights=self.self_ns(), minlength=count) / 1e9

        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = float(calls[i]) / seeds
            out[f"{name}.self_s"] = float(self_s[i]) / seeds
            out[f"{name}.self_us_per_node_step"] = float(self_s[i]) * 1e6 / node_steps

        def under_family(name: str) -> int:
            """Calls of ``name`` made directly by family generation."""
            gen = self.names.index("graphs.generate_instance_family")
            mask = layer == self.names.index(name)
            parents = parent[mask]
            parents = parents[parents >= 0]
            return int(np.count_nonzero(layer[parents] == gen))

        families = int(calls[self.names.index("graphs.generate_instance_family")])
        attempts = under_family("graphs.is_strongly_connected")
        fallbacks = under_family("graphs.directed_cycle")
        lookups = self.counters["engine.family_lookups"]
        c = self.counters
        out["graphs.family_attempts"] = attempts / seeds
        out["graphs.family_accept_ratio"] = (
            (families - fallbacks) / attempts if attempts else 0.0
        )
        out["graphs.family_fallbacks"] = fallbacks / seeds
        out["engine.family_cache.hit_ratio"] = (
            (lookups - families) / lookups if lookups else 0.0
        )
        out["agent.tokens_routed"] = c["agent.tokens_routed"] / node_steps
        out["agent.tokens_kept"] = c["agent.tokens_kept"] / node_steps
        out["agent.messages"] = c["agent.messages"] / node_steps
        out["agent.stranded"] = c["agent.stranded"] / seeds
        out["reporting.trace_bytes"] = c["reporting.trace_bytes"] / seeds
        return out

    def save(self, path: Path) -> None:
        """Write all spans (times in ns) and the layer names to ``path``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            layer=np.frombuffer(self.layer, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            request=np.frombuffer(self.request, dtype=np.int64),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            self_ns=self.self_ns(),
        )

