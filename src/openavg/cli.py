"""Command line front end.

Three subcommands: ``validate`` checks a scenario file and reports
findings, ``run`` simulates one or more seeds and writes traces,
``sweep`` runs a block of consecutive seeds and writes a summary table.

Exit codes: 0 success, 1 scenario validation failure, 2 unreadable or
malformed input, a seed outside [0, 2**64), a usage error or unwritable
output, 3 internal invariant breach (the engine's conservation ledger or
another internal check failed, which means a bug).
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from .analysis import convergence_time
from .engine import EngineInvariantError, RoundRecord, run
from .reporting import (
    render_error_svg,
    render_estimates_svg,
    write_summary_csv,
    write_trace_csv,
    write_svg,
)
from .rng import MAX_SEED
from .scenario import (
    Scenario,
    ScenarioFormatError,
    ValidationReport,
    load_scenario,
    validate_scenario,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INPUT = 2
EXIT_INVARIANT = 3


class _Exit(Exception):
    """Ends a subcommand early with an exit code, after its message."""

    def __init__(self, code: int) -> None:
        super().__init__(code)
        self.code = code


def _load(path: str) -> Scenario:
    try:
        return load_scenario(path)
    except ScenarioFormatError as exc:
        print(f"cannot load scenario: {exc}", file=sys.stderr)
        raise _Exit(EXIT_INPUT) from exc


@contextmanager
def _writing() -> Iterator[None]:
    """Turn a failure to create or write an output into exit code 2."""
    try:
        yield
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        raise _Exit(EXIT_INPUT) from exc


def _report(scenario: Scenario) -> ValidationReport:
    """Validate and print every finding."""
    report = validate_scenario(scenario)
    for finding in report.findings:
        print(f"{finding.severity.upper():7s} {finding.code}: {finding.message}")
    return report


def _prepare(args: argparse.Namespace, strict: bool, seeds: int = 1) -> Scenario:
    """Load the scenario, check that its first ``seeds`` consecutive seeds
    exist, gate it, then create the output directory."""
    scenario = _load(args.scenario)
    last = scenario.seed + seeds - 1
    if last > MAX_SEED:
        print(f"cannot sweep: seed {last} is outside [0, 2**64)", file=sys.stderr)
        raise _Exit(EXIT_INPUT)
    report = _report(scenario)
    if not report.ok(strict=strict):
        errors = len(report.errors())
        warnings = len(report.warnings())
        print(f"validation failed: {errors} error(s), {warnings} warning(s)")
        raise _Exit(EXIT_VALIDATION)
    with _writing():
        Path(args.out).mkdir(parents=True, exist_ok=True)
    return scenario


def cmd_validate(args: argparse.Namespace) -> int:
    report = _report(_load(args.scenario))
    errors = len(report.errors())
    warnings = len(report.warnings())
    print(f"{errors} error(s), {warnings} warning(s)")
    return EXIT_OK if report.ok(strict=args.strict) else EXIT_VALIDATION


def _summarize(scenario: Scenario, seed: int, records: list[RoundRecord]) -> dict[str, object]:
    # The engine's ledger makes conservation_audit's row k minus the
    # surplus lost before step k, so the largest imbalance is the largest
    # running loss over every record but the last.
    lost_y = lost_z = max_y = max_z = 0
    for record in records[:-1]:
        for violation in record.violations:
            lost_y += violation.lost_y
            lost_z += violation.lost_z
        max_y, max_z = max(max_y, abs(lost_y)), max(max_z, abs(lost_z))
    try:
        report = convergence_time(records, scenario.k_prime)
        converged = report.converged
        settle = "" if report.settle_step is None else str(report.settle_step)
        average = f"{report.average.numerator}/{report.average.denominator}"
        band = "|".join(str(b) for b in sorted(report.band))
    except ValueError:
        # membership kept changing inside the judged window
        converged = False
        settle, average, band = "", "", ""
    return {
        "seed": seed,
        "converged": converged,
        "settle_step": settle,
        "average": average,
        "band": band,
        "residual_error": records[-1].epsilon,
        "max_abs_y_imbalance": max_y,
        "max_abs_z_imbalance": max_z,
        "violation_count": sum(len(r.violations) for r in records),
    }


def _checked_run(scenario: Scenario, seed: int) -> list[RoundRecord]:
    """Records of one seed; an engine invariant breach exits with code 3."""
    try:
        return run(scenario, seed)
    except EngineInvariantError as exc:
        print(f"seed {seed}: invariant breach: {exc}", file=sys.stderr)
        raise _Exit(EXIT_INVARIANT) from exc


def cmd_run(args: argparse.Namespace) -> int:
    scenario = _prepare(args, args.strict)
    out_dir = Path(args.out)
    stem = Path(args.scenario).stem
    for seed in args.seed or (scenario.seed,):
        records = _checked_run(scenario, seed)
        trace_path = out_dir / f"{stem}-seed{seed}-trace.csv"
        with _writing():
            write_trace_csv(records, scenario.n_total, trace_path)
        summary = _summarize(scenario, seed, records)
        state = (
            f"settled at step {summary['settle_step']}"
            if summary["converged"]
            else "did not settle"
        )
        print(
            f"seed {seed}: {len(records)} steps, final error "
            f"{records[-1].epsilon}, {state}, "
            f"{summary['violation_count']} violation(s), trace -> {trace_path}"
        )
        if args.svg:
            estimates_path = out_dir / f"{stem}-seed{seed}-estimates.svg"
            error_path = out_dir / f"{stem}-seed{seed}-error.svg"
            with _writing():
                write_svg(render_estimates_svg(records, scenario.n_total), estimates_path)
                write_svg(render_error_svg(records), error_path)
            print(f"seed {seed}: charts -> {estimates_path}, {error_path}")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    scenario = _prepare(args, strict=False, seeds=args.seeds)
    rows = [
        _summarize(scenario, seed, _checked_run(scenario, seed))
        for seed in range(scenario.seed, scenario.seed + args.seeds)
    ]
    path = Path(args.out) / f"{Path(args.scenario).stem}-sweep.csv"
    with _writing():
        write_summary_csv(rows, path)
    settled = sum(1 for row in rows if row["converged"])
    print(f"{settled}/{len(rows)} seeds settled, summary -> {path}")
    return EXIT_OK


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None


def _seed(text: str) -> int:
    value = _integer(text)
    if not 0 <= value <= MAX_SEED:
        raise argparse.ArgumentTypeError(f"must lie in [0, 2**64), got {value}")
    return value


def _positive_int(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="openavg",
        description="simulate quantized average consensus on open dynamic networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a scenario file")
    p_validate.add_argument("scenario")
    p_validate.add_argument(
        "--strict", action="store_true", help="treat warnings as failures"
    )
    p_validate.set_defaults(func=cmd_validate)

    p_run = sub.add_parser("run", help="simulate and write traces")
    p_run.add_argument("scenario")
    p_run.add_argument(
        "--seed",
        type=_seed,
        action="append",
        help="seed to run; repeatable, default is the scenario's seed",
    )
    p_run.add_argument("--out", default=".", help="output directory")
    p_run.add_argument("--svg", action="store_true", help="also write charts")
    p_run.add_argument(
        "--strict", action="store_true", help="refuse to run on warnings"
    )
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run consecutive seeds, summarize")
    p_sweep.add_argument("scenario")
    p_sweep.add_argument(
        "--seeds", type=_positive_int, required=True, help="how many seeds, at least 1"
    )
    p_sweep.add_argument("--out", default=".", help="output directory")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _Exit as exc:
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
