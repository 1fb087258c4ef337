"""openavg benchmark: end-to-end throughput and a traced per-layer run.

Usage, from the repository root:

    python3 perfbench/run.py --workload churn_paper --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

``--trace 0`` measures the end-to-end metrics with tracing off. Their
times are normalised to a fixed host speed by interleaved reference
slices (see speed.py), as the shared host's own speed drifts.
``--trace 1`` runs the same closed loop with every public openavg function
wrapped (see tracing.py) and replays each unit untraced right after; it prints
the per-layer metrics and the tracing overhead, and fails any seed whose
traced trace differs from the untraced one. ``--workload all`` runs the
three workloads one after another in this process.

Each run prints a report, then as its last line one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The program
is imported from ``src/`` next to this directory; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"

WORKLOADS = ("churn_paper", "static_large", "sweep_small")
SETUP_REPEATS = 7

END_TO_END = (
    ("setup_s", "s"),
    ("seeds_per_s", "1/s"),
    ("node_steps_per_s", "1/s"),
    ("peak_mem_mb", "MB"),
)

# Runs in a fresh interpreter. "setup": import openavg and prepare one
# workload, print the normalised seconds that took (see speed.py; the
# sampler's own import of fractions comes first, outside the timed region,
# and slices come every 10 ms, as set-up is short). "memory": then run one
# unit and print the peak resident set size in KiB. That is VmHWM, the high-water mark of
# this process's own address space; ru_maxrss would also count the parent's
# resident set, which the kernel carries over into the child at exec.
_PROBE = """
import sys, time
from pathlib import Path
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import speed
sampler = speed.Sampler(0.01)
with sampler:
    start = time.perf_counter()
    import openavg.cli
    import workloads
    w = workloads.WORKLOADS[sys.argv[3]](Path(sys.argv[5]))
    w.prepare(int(sys.argv[4]))
elapsed = time.perf_counter() - start
if sys.argv[6] == "setup":
    print(sampler.normalise(elapsed))
else:
    w.stage(int(sys.argv[7]))
    w.execute(int(sys.argv[7]))
    status = Path("/proc/self/status").read_text().split("VmHWM:")[1]
    print(status.split()[0])
"""


@dataclass
class Pass:
    """Units run in one closed-loop pass and what each produced.

    ``wall`` holds each unit's wall seconds, ``times`` its normalised
    seconds when a sampler ran (see speed.py), else its wall seconds."""

    times: list[float] = field(default_factory=list)
    results: list[list] = field(default_factory=list)
    wall: list[float] = field(default_factory=list)

    @property
    def seeds(self) -> list:
        return [r for unit in self.results for r in unit]

    def rate(self, per_unit, times: list[float] | None = None) -> float:
        """Total amount over total timed seconds (``times``, by default the
        normalised ones): what a caller waiting for the whole loop sees."""
        return sum(map(per_unit, self.results)) / sum(self.times if times is None else times)

    def add(self, wall: float, seconds: float, results: list) -> None:
        self.wall.append(wall)
        self.times.append(seconds)
        self.results.append(results)


def _run_unit(w, index: int, tracer=None, sampler=None):
    """Stage, execute (timed) and check one unit; returns (wall seconds,
    normalised seconds, results). Without a sampler both are wall seconds."""
    w.stage(index)
    traced = tracer.installed() if tracer else nullcontext()
    raw, error = None, None
    with traced, w.tap.installed():
        if tracer:
            tracer.current_request = index
        with sampler or nullcontext():
            start = time.perf_counter()
            try:
                raw = w.execute(index)
            except Exception as exc:  # a failing seed is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    seconds = sampler.normalise(elapsed) if sampler else elapsed
    if error is None:
        try:
            return elapsed, seconds, w.check(index, raw)
        except Exception as exc:
            error = f"check raised {type(exc).__name__}: {exc}"
    w.tap.runs.clear()
    return elapsed, seconds, w.failures(index, error)


def closed_loop(
    w, seconds: float, tracer=None, units: int | None = None, sampler=None,
    replay: Pass | None = None,
) -> Pass:
    """Run units 0, 1, ... one after another: exactly ``units`` of them when
    given, else the block and then more until ``seconds`` of timed wall
    time are done. Past the block a unit with a failed seed ends the loop,
    so a broken program cannot spin through thousands of instant failures.
    With ``replay``, each unit runs again right after, untraced and
    unsampled, into that pass."""
    done = Pass()
    while True:
        index = len(done.times)
        if units is not None:
            if index == units:
                return done
        elif index >= w.block and (
            sum(done.wall) >= seconds or any(r.error for r in done.results[-1])
        ):
            return done
        done.add(*_run_unit(w, index, tracer, sampler))
        if replay is not None:
            replay.add(*_run_unit(w, index))


def probe(mode: str, name: str, seed: int, workdir: Path, unit: int = 0) -> float:
    """Run the probe in a fresh interpreter; returns the number it prints."""
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, str(SRC), str(HERE), name, str(seed), str(workdir), mode,
         str(unit)],
        capture_output=True, text=True, timeout=150,
    )
    if proc.returncode != 0:
        sys.exit(f"{mode} probe of {name} failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def peak_memory(w, seed: int, workdir: Path) -> float:
    """Mean over the units of the block of the peak MB of a fresh process
    running that unit. One seed's peak depends on its churn; the mean over
    the block varies less from one benchmark seed to the next. Nothing is
    timed here, so the probes run at once, one per unit of the block."""
    with ThreadPoolExecutor(w.block) as pool:
        peaks = pool.map(lambda unit: probe("memory", w.name, seed, workdir, unit), range(w.block))
        return statistics.mean(peaks) * 1024 / 1e6


def verify(w, seed: int, done: Pass, extra: list | None = None) -> tuple[int, str]:
    """Count the failed seeds of ``done`` and ``extra``, including seeds
    whose digest differs from the pinned one; returns (failed seed count,
    combined digest of the block)."""
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8")).get(w.name, {}) if seed == 0 else {}
    failed = set()
    for r in done.seeds + (extra or []):
        reason = r.error
        if reason is None and r.key in pinned and pinned[r.key] != r.digest:
            reason = f"digest {r.digest} != pinned {pinned[r.key]}"
        if reason is not None:
            print(f"FAIL {w.name} {r.key}: {reason}")
            failed.add(r.key)
    combined = hashlib.sha256()
    for unit in done.results[: w.block]:
        for r in unit:
            combined.update(f"{r.key}={r.digest}\n".encode())
    return len(failed), combined.hexdigest()


def measure(name: str, seed: int, seconds: float, workdir: Path) -> dict:
    import speed
    import workloads

    setup = statistics.median(probe("setup", name, seed, workdir) for _ in range(SETUP_REPEATS))
    w = workloads.WORKLOADS[name](workdir)
    w.prepare(seed)
    done = closed_loop(w, seconds, sampler=speed.Sampler())
    peak = peak_memory(w, seed, workdir)
    failed, combined = verify(w, seed, done)
    attempted = len(done.seeds)
    metrics = {
        "setup_s": setup,
        "seeds_per_s": done.rate(len),
        "node_steps_per_s": done.rate(lambda unit: sum(r.node_steps for r in unit)),
        "peak_mem_mb": peak,
    }
    print(f"{name}: {w.size}")
    print(f"  {len(done.times)} units, {attempted} seeds, {sum(done.wall):.2f} s timed "
          f"({sum(done.times):.2f} s normalised, {done.rate(len, done.wall):.6g} seeds/s "
          f"by the wall clock), failed_frac {failed / attempted}, digest {combined}")
    for key, unit in END_TO_END:
        print(f"  {key:18s} {metrics[key]:.6g} {unit}")
    return {"attempted": attempted, "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END}}


def measure_traced(name: str, seed: int, seconds: float, workdir: Path) -> dict:
    import tracing
    import workloads

    w = workloads.WORKLOADS[name](workdir)
    w.prepare(seed)
    tracer = tracing.Tracer()
    # Each unit is replayed untraced right after its traced run, so both
    # see the same stretch of host speed and the overhead is not the drift.
    plain = Pass()
    traced = closed_loop(w, seconds, tracer, replay=plain)
    extra = [r for r in plain.seeds if r.error] + [
        replace(b, error="traced trace differs from untraced")
        for a, b in zip(plain.seeds, traced.seeds) if a.digest != b.digest
    ]
    failed, combined = verify(w, seed, traced, extra)
    seeds = traced.seeds
    steps = sum(r.node_steps for r in seeds) or 1
    metrics = tracer.metrics(len(seeds), steps)
    overhead = sum(traced.times) / sum(plain.times)
    metrics["trace.overhead_ratio"] = overhead
    spans = OUT / f"spans-{name}.npz"
    tracer.save(spans)
    print(f"{name}: {w.size}")
    print(f"  traced {len(seeds)} seeds in {sum(traced.times):.2f} s, untraced "
          f"{sum(plain.times):.2f} s: overhead x{overhead:.3f}; {len(tracer.start)} spans "
          f"-> {spans.relative_to(ROOT)}; digest {combined}")
    spec = tracing.per_layer_spec()
    for key, unit, _ in spec:
        if not key.endswith((".calls", ".self_us_per_node_step")):
            print(f"  {key:50s} {metrics[key]:.6g} {unit}")
    return {"attempted": len(seeds), "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u, _ in spec}}


def import_program() -> bool:
    """Put ``src/`` and this directory first on the path and import openavg
    from there; False (with a message) when that is not possible."""
    if not (SRC / "openavg" / "__init__.py").is_file():
        print(f"error: no openavg package under {SRC}", file=sys.stderr)
        return False
    sys.path[:0] = [str(SRC), str(HERE)]
    import openavg

    if Path(openavg.__file__).resolve().parent != SRC / "openavg":
        print(f"error: imported openavg from {openavg.__file__}", file=sys.stderr)
        return False
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not import_program():
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    run = measure_traced if args.trace else measure
    OUT.mkdir(exist_ok=True)
    reports = {}
    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT) as tmp:
        for name in names:
            reports[name] = run(name, args.seed, args.seconds, Path(tmp))

    if len(names) == 1:
        result = reports[names[0]]
    else:
        result = {
            "attempted": sum(r["attempted"] for r in reports.values()),
            "failed": sum(r["failed"] for r in reports.values()),
            "metrics": {f"{n}.{k}": v for n, r in reports.items() for k, v in r["metrics"].items()},
        }
    result = {"correct": result["failed"] == 0, **result}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
