"""The benchmark's own checks: run with ``python3 -m pytest perfbench``.

They check that BENCHMARK.json is well formed and names exactly the
metrics the code reports, that the tracing wrappers are transparent and
restore every name they rebind, that a traced pass produces the same
traces as an untraced one and as the pinned digests, and that the speed
sampler leaves the timer and signal handler as it found them.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import openavg  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in SPEC["end_to_end"])} in SPEC["end_to_end"]
    assert 1 <= len(SPEC["per_layer"]) <= 128
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    units = [m["unit"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    assert all(UNIT.match(u) for u in units)
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    assert all(m["better"] in ("higher", "lower") for m in metrics)
    assert len(json.dumps(SPEC)) <= 64 * 1024


def test_benchmark_json_names_what_the_code_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == (
        tracing.per_layer_spec()
    )


def test_every_layer_names_a_public_function():
    for module, func in tracing.LAYERS:
        assert callable(getattr(sys.modules[f"openavg.{module}"], func)), (module, func)


def _bindings():
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "openavg" or name.startswith("openavg.")
        for attr, value in vars(module).items()
        if callable(value)
    }


def test_wrappers_are_transparent_and_restored():
    before = _bindings()
    tracer = tracing.Tracer()
    draws = openavg.rng.stream(1, "x")
    with tracer.installed():
        from openavg import agent, engine

        assert engine.out_neighbors is not before[("openavg.engine", "out_neighbors")]
        assert engine.out_neighbors is openavg.graphs.out_neighbors
        assert agent.split_mass.__name__ == "split_mass"
        assert agent.split_mass.__doc__ == before[("openavg.agent", "split_mass")].__doc__
        with pytest.raises(ValueError, match="at least one candidate"):
            agent.split_mass(4, 2, 0, None)
        split = agent.split_mass(7, 3, 2, draws)
    assert _bindings() == before
    assert split == openavg.agent.split_mass(7, 3, 2, openavg.rng.stream(1, "x"))
    assert list(tracer.layer) == [tracer.names.index("agent.split_mass")] * 2


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    inner = tracer.wrap(1, lambda: sum(range(20000)))
    outer = tracer.wrap(0, lambda: inner() + inner())
    outer()
    assert list(tracer.parent) == [-1, 0, 0]
    own = tracer.self_ns()
    total = tracer.end[0] - tracer.start[0]
    assert own[0] == total - (tracer.end[1] - tracer.start[1]) - (tracer.end[2] - tracer.start[2])
    assert all(v >= 0 for v in own)


def test_missing_layer_reports_zero(monkeypatch):
    monkeypatch.setattr(tracing, "LAYERS", tracing.LAYERS + (("graphs", "gone"),))
    tracer = tracing.Tracer()
    with tracer.installed():
        openavg.graphs.membership_sets(frozenset({1}), frozenset({1, 2}))
    metrics = tracer.metrics(seeds=1, node_steps=1)
    assert metrics["graphs.gone.calls"] == 0
    assert metrics["graphs.membership_sets.calls"] == 1


def test_traced_pass_matches_untraced_and_pinned(tmp_path):
    w = workloads.WORKLOADS["sweep_small"](tmp_path)
    w.prepare(0)
    tracer = tracing.Tracer()
    traced = run.closed_loop(w, 0, tracer, units=1)
    plain = run.closed_loop(w, 0, units=1)
    pinned = json.loads(run.DIGESTS.read_text(encoding="utf-8"))["sweep_small"]
    assert [r.error for r in plain.seeds] == [None] * 20
    assert [r.digest for r in traced.seeds] == [r.digest for r in plain.seeds]
    assert {r.key: r.digest for r in plain.seeds} == pinned
    assert tracer.metrics(20, sum(r.node_steps for r in plain.seeds))["agent.stranded"] == 0.5


def test_verify_counts_each_failed_seed_once(tmp_path, monkeypatch):
    digests = tmp_path / "digests.json"
    digests.write_text(json.dumps({"sweep_small": {"static_small:1": "pinned"}}))
    monkeypatch.setattr(run, "DIGESTS", digests)
    w = workloads.WORKLOADS["sweep_small"](tmp_path)
    wrong = workloads.SeedResult("static_small", 1, 10, "other")
    fine = workloads.SeedResult("static_small", 2, 10, "any")
    done = run.Pass(times=[1.0], results=[[wrong, fine]])
    traced_mismatch = workloads.SeedResult("static_small", 1, 10, "x", "traced trace differs")
    assert run.verify(w, 0, done, [traced_mismatch])[0] == 1
    assert run.verify(w, 1, done)[0] == 0  # digests are pinned for seed 0 only


def test_sampler_normalises_and_restores_the_timer(tmp_path):
    import signal
    import time

    handler = signal.getsignal(signal.SIGALRM)
    sampler = speed.Sampler()
    w = workloads.WORKLOADS["sweep_small"](tmp_path)
    w.prepare(0)
    done = run.closed_loop(w, 0, units=1, sampler=sampler)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert [r.error for r in done.seeds] == [None] * 20
    assert sampler.slices >= done.wall[0] / speed.INTERVAL / 2
    # Normalised time is the unit's time without the slices, at nominal speed.
    work = done.wall[0] - sampler.slice_s
    assert done.times[0] == pytest.approx(work * speed.REFERENCE_S * sampler.slices / sampler.slice_s)
    # A region shorter than the interval still gets a slice.
    with sampler:
        start = time.perf_counter()
    assert sampler.normalise(time.perf_counter() - start) > 0 and sampler.slices == 1
