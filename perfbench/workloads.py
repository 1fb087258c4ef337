"""The benchmark's three workloads and the checks on their outputs.

A workload is a closed loop: one caller runs unit 0, 1, 2, ... one after
another, each starting when the previous one has finished. A unit is one
seed (``churn_paper``, ``static_large``) or one sweep chunk
(``sweep_small``). Every input is derived from the benchmark seed, so the
same seed gives the same scenario seeds and the same traces.

Each workload splits its work into ``prepare`` (load, generate and
validate the scenarios: the set-up), ``stage`` (untimed file writes a
unit needs), ``execute`` (the timed call into openavg) and ``check``
(untimed correctness checks and trace digests, one result per seed).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from contextlib import contextmanager, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from openavg import analysis, cli, engine, reporting, scenario
from tracing import rebind

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"

# Scenario seeds of benchmark seed s start at 1 + SEED_SPACING * s, so the
# blocks of different benchmark seeds never overlap and seed 0 starts at
# scenario seed 1.
SEED_SPACING = 10_000

# Originals, bound before any tracing, for the untimed checks.
_run = engine.run
_audit = analysis.conservation_audit
_trace_header = reporting.trace_header
_trace_rows = reporting.trace_rows


def seed_base(seed: int) -> int:
    return 1 + SEED_SPACING * seed


@dataclass(frozen=True)
class SeedResult:
    """Outcome of one scenario seed: its size, trace digest and any failure."""

    scenario: str
    seed: int
    node_steps: int
    digest: str
    error: str | None = None

    @property
    def key(self) -> str:
        return f"{self.scenario}:{self.seed}"


class RecordTap:
    """Keeps the records every ``engine.run`` call returns while installed."""

    def __init__(self) -> None:
        self.runs: list[tuple[int, list]] = []

    @contextmanager
    def installed(self) -> Iterator[None]:
        target = engine.run  # the traced wrapper when tracing is on

        def tapped(scn, seed=None):
            records = target(scn, seed)
            self.runs.append((scn.seed if seed is None else seed, records))
            return records

        with rebind("openavg", target, tapped):
            yield

    def take(self, expected: list[tuple[scenario.Scenario, int]]) -> list[list]:
        """Records for ``expected`` (scenario, seed) runs, in order.

        If the program did not produce them through ``engine.run`` they
        are recomputed here, outside any timed region.
        """
        runs, self.runs = self.runs, []
        if [seed for seed, _ in runs] == [seed for _, seed in expected]:
            return [records for _, records in runs]
        return [_run(scn, seed) for scn, seed in expected]


def trace_digest(records: list, n_total: int) -> str:
    """SHA-256 of the trace CSV exactly as ``openavg run`` writes it."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_trace_header(n_total))
    writer.writerows(_trace_rows(records, n_total))
    return hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


def conservation_error(records: list) -> str | None:
    """Nonzero audit row up to the first recorded violation, if any."""
    first_violation = next((r.step for r in records if r.violations), math.inf)
    for row in _audit(records):
        if row.step <= first_violation and (row.y_imbalance or row.z_imbalance):
            return f"conservation broken at step {row.step}"
    return None


def node_steps(records: list) -> int:
    return sum(len(r.active) for r in records)


def _cli(argv: list[str]) -> int:
    with redirect_stdout(io.StringIO()):
        return cli.main(argv)


class Workload:
    name = ""
    size = ""  # input size of one unit, stated in the report
    block = 1  # units always run; their digests are pinned for seed 0

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.tap = RecordTap()

    def prepare(self, seed: int) -> None:
        raise NotImplementedError

    def seeds(self, index: int) -> list[tuple[str, int]]:
        """(scenario name, scenario seed) pairs unit ``index`` runs."""
        raise NotImplementedError

    def stage(self, index: int) -> None:
        """Untimed preparation of one unit."""

    def execute(self, index: int) -> object:
        raise NotImplementedError

    def check(self, index: int, raw: object) -> list[SeedResult]:
        raise NotImplementedError

    def failures(self, index: int, error: str) -> list[SeedResult]:
        """Every seed of unit ``index`` failed with ``error``."""
        return [SeedResult(stem, seed, 0, "", error) for stem, seed in self.seeds(index)]


class ChurnPaper(Workload):
    name = "churn_paper"
    size = "paper_sec5: 150-node universe, 100 active at start, ~24 churn events, horizon 300, T=20, d=2; 1 seed per unit"
    block = 3

    def prepare(self, seed: int) -> None:
        self.path = SCENARIOS / "paper_sec5.json"
        self.scenario = scenario.load_scenario(self.path)
        if scenario.validate_scenario(self.scenario).errors():
            raise ValueError("paper_sec5 does not validate")
        self.base = seed_base(seed)

    def seeds(self, index: int) -> list[tuple[str, int]]:
        return [("paper_sec5", self.base + index)]

    def execute(self, index: int) -> object:
        seed = self.base + index
        return _cli(["run", str(self.path), "--seed", str(seed), "--out", str(self.workdir)])

    def check(self, index: int, raw: object) -> list[SeedResult]:
        seed = self.base + index
        (records,) = self.tap.take([(self.scenario, seed)])
        trace = self.workdir / f"paper_sec5-seed{seed}-trace.csv"
        error = conservation_error(records)
        if raw != 0:
            error = f"openavg run exited {raw}"
        digest = hashlib.sha256(trace.read_bytes()).hexdigest() if trace.exists() else ""
        trace.unlink(missing_ok=True)
        return [SeedResult("paper_sec5", seed, node_steps(records), digest, error)]


class StaticLarge(Workload):
    name = "static_large"
    n = 800
    horizon = 20
    size = f"generated random_family: n={n} all active, no churn, T=20, d=2, horizon {horizon}; 1 seed per unit"
    block = 3

    def prepare(self, seed: int) -> None:
        self.base = seed_base(seed)
        self.scenario = scenario.parse_scenario({
            "n_total": self.n,
            "initially_active": list(range(self.n)),
            "initial_states": {"type": "uniform_int", "low": 1, "high": 10},
            "churn": {"type": "none"},
            "topology": {"type": "random_family", "min_out_degree": 2},
            "k_prime": 0,
            "T": 20,
            "horizon": self.horizon,
            "seed": self.base,
        })
        if scenario.validate_scenario(self.scenario).errors():
            raise ValueError("generated static scenario does not validate")

    def seeds(self, index: int) -> list[tuple[str, int]]:
        return [(self.name, self.base + index)]

    def execute(self, index: int) -> object:
        records = engine.run(self.scenario, self.base + index)
        return analysis.conservation_audit(records)

    def check(self, index: int, raw: object) -> list[SeedResult]:
        seed = self.base + index
        (records,) = self.tap.take([(self.scenario, seed)])
        error = conservation_error(records)
        if any(r.violations for r in records):
            error = "violation recorded on a network without churn"
        digest = trace_digest(records, self.n)
        return [SeedResult(self.name, seed, node_steps(records), digest, error)]


class SweepSmall(Workload):
    """One unit sweeps a chunk of seeds of each 4-node scenario."""

    name = "sweep_small"
    chunk = {"static_small": 10, "theorem1_violation": 10}
    size = "openavg sweep: 10 seeds of static_small (n=4, horizon 400) + 10 of theorem1_violation (n=4, horizon 120) per unit"
    block = 1

    def prepare(self, seed: int) -> None:
        self.base = seed_base(seed)
        self.data = {}
        self.scenarios = {}
        for stem in self.chunk:
            data = json.loads((SCENARIOS / f"{stem}.json").read_text(encoding="utf-8"))
            parsed = scenario.parse_scenario(data)
            if scenario.validate_scenario(parsed).errors():
                raise ValueError(f"{stem} does not validate")
            self.data[stem] = data
            self.scenarios[stem] = parsed

    def seeds(self, index: int) -> list[tuple[str, int]]:
        return [
            (stem, self.base + index * count + i)
            for stem, count in self.chunk.items()
            for i in range(count)
        ]

    def stage(self, index: int) -> None:
        for stem, count in self.chunk.items():
            data = dict(self.data[stem], seed=self.base + index * count)
            (self.workdir / f"{stem}.json").write_text(json.dumps(data), encoding="utf-8")

    def execute(self, index: int) -> object:
        return [
            _cli(["sweep", str(self.workdir / f"{stem}.json"), "--seeds", str(count),
                  "--out", str(self.workdir)])
            for stem, count in self.chunk.items()
        ]

    def check(self, index: int, raw: object) -> list[SeedResult]:
        pairs = self.seeds(index)
        all_records = self.tap.take([(self.scenarios[stem], seed) for stem, seed in pairs])
        exit_codes = dict(zip(self.chunk, raw))
        results = []
        for (stem, seed), records in zip(pairs, all_records):
            error = conservation_error(records)
            if stem == "static_small":
                final = records[-1].per_node
                if not all(v.q_s in (2, 3) for v in final.values()):
                    error = "final estimate outside {2, 3}"
            else:
                stranded = [(r.step, v.node, v.kind) for r in records for v in r.violations]
                if stranded != [(6, 3, "stranded_departure")]:
                    error = f"violations {stranded}, expected node 3 stranded at step 6"
            if exit_codes[stem] != 0:
                error = f"openavg sweep exited {exit_codes[stem]}"
            digest = trace_digest(records, self.scenarios[stem].n_total)
            results.append(SeedResult(stem, seed, node_steps(records), digest, error))
        return results


WORKLOADS = {w.name: w for w in (ChurnPaper, StaticLarge, SweepSmall)}
