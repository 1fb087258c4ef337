"""Command line behavior: exit codes, produced files, strict mode."""

import csv
import json
import subprocess
import sys
from dataclasses import replace

import pytest

import openavg.cli as cli
from openavg import scenario
from openavg.analysis import conservation_audit
from openavg.engine import Violation, run


def invoke(*argv):
    return cli.main(list(argv))


class TestValidateCommand:
    def test_clean_scenario(self, scenarios_dir, capsys):
        assert invoke("validate", str(scenarios_dir / "static_small.json")) == 0
        assert "0 error(s), 0 warning(s)" in capsys.readouterr().out

    def test_missing_file(self, tmp_path):
        assert invoke("validate", str(tmp_path / "absent.json")) == 2

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{")
        assert invoke("validate", str(path)) == 2

    def test_integer_too_long_to_decode(self, tmp_path):
        # json raises a plain ValueError past Python's int digit limit.
        path = tmp_path / "huge.json"
        path.write_text('{"n_total": ' + "1" * 5000 + "}")
        assert invoke("validate", str(path)) == 2

    def test_nesting_too_deep_to_decode(self, tmp_path, capsys):
        # json recurses once per nesting level and raises RecursionError.
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert invoke("validate", str(path)) == 2
        err = capsys.readouterr().err
        assert "cannot load scenario" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "name, old, new",
        [
            ("static_small.json", '"p": 0.5', '"p": NaN'),
            ("paper_sec5.json", '"arrival_weight": 0.5', '"arrival_weight": Infinity'),
        ],
        ids=["p-NaN", "arrival_weight-Infinity"],
    )
    def test_non_finite_number_exits_two(self, tmp_path, scenarios_dir, capsys, name, old, new):
        text = (scenarios_dir / name).read_text()
        assert old in text
        path = tmp_path / name
        path.write_text(text.replace(old, new))
        assert invoke("validate", str(path)) == 2
        assert "expected a finite number" in capsys.readouterr().err

    def test_semantic_error(self, tmp_path, scenarios_dir):
        data = json.loads((scenarios_dir / "static_small.json").read_text())
        data["k_prime"] = 1000
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert invoke("validate", str(path)) == 1

    def test_warning_passes_unless_strict(self, scenarios_dir, capsys):
        fixture = str(scenarios_dir / "theorem1_violation.json")
        assert invoke("validate", fixture) == 0
        assert invoke("validate", fixture, "--strict") == 1
        out = capsys.readouterr().out
        assert "stranded-departure" in out


class TestNodeIdKeys:
    """A state map key that is not a node id's canonical decimal form, or a
    key given twice, is malformed input: exit 2, for validate and run."""

    @pytest.mark.parametrize("extra", ['"01": 7', '"1": 7'])
    def test_exits_two(self, tmp_path, scenarios_dir, capsys, extra):
        text = (scenarios_dir / "static_small.json").read_text()
        assert text.count('"1": 2,') == 1
        path = tmp_path / "keys.json"
        path.write_text(text.replace('"1": 2,', f'"1": 2, {extra},'))
        assert invoke("validate", str(path)) == 2
        assert invoke("run", str(path), "--out", str(tmp_path / "out")) == 2
        assert "cannot load scenario" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestUniformStateBounds:
    """Uniform state bounds are drawn as int64; one outside int64 is an
    input error, for validate and run alike, never a traceback."""

    def scenario(self, tmp_path, scenarios_dir, low, high):
        data = json.loads((scenarios_dir / "static_small.json").read_text())
        data["initial_states"] = {"type": "uniform_int", "low": low, "high": high}
        data["horizon"] = 20
        path = tmp_path / "uniform.json"
        path.write_text(json.dumps(data))
        return str(path)

    @pytest.mark.parametrize("low, high", [(-2**70, 5), (-2**63 - 1, 0), (0, 2**63)])
    def test_outside_int64_exits_one(self, tmp_path, scenarios_dir, capsys, low, high):
        path = self.scenario(tmp_path, scenarios_dir, low, high)
        assert invoke("validate", path) == 1
        assert invoke("run", path, "--out", str(tmp_path / "out")) == 1
        out = capsys.readouterr().out
        assert "uniform bounds must lie in [-2**63, 2**63 - 1]" in out
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("low, high", [(-2**63, 2**63 - 1), (2**63 - 9, 2**63 - 1)])
    def test_int64_edges_run(self, tmp_path, scenarios_dir, low, high):
        path = self.scenario(tmp_path, scenarios_dir, low, high)
        assert invoke("validate", path) == 0
        assert invoke("run", path, "--out", str(tmp_path / "out")) == 0


class TestSizeLimits:
    """``n_total``, ``T`` and ``horizon`` above their limits are malformed
    input (exit 2), refused before anything is built from them."""

    LIMITS = {"n_total": scenario.MAX_N_TOTAL, "T": scenario.MAX_T, "horizon": scenario.MAX_HORIZON}

    def write(self, scenarios_dir, tmp_path, key, value):
        data = json.loads((scenarios_dir / "static_small.json").read_text())
        data[key] = value
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(data))
        return path

    @pytest.mark.parametrize("key", ["n_total", "T", "horizon"])
    def test_limit_is_accepted(self, scenarios_dir, tmp_path, key):
        path = self.write(scenarios_dir, tmp_path, key, self.LIMITS[key])
        loaded = scenario.load_scenario(path)
        assert {"n_total": loaded.n_total, "T": loaded.family_size,
                "horizon": loaded.horizon}[key] == self.LIMITS[key]

    def test_horizon_at_limit_validates(self, scenarios_dir, tmp_path):
        path = self.write(scenarios_dir, tmp_path, "horizon", scenario.MAX_HORIZON)
        assert invoke("validate", str(path)) == 0

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("key", ["n_total", "T", "horizon"])
    def test_above_limit_exits_two(self, scenarios_dir, tmp_path, capsys, key, command):
        path = self.write(scenarios_dir, tmp_path, key, self.LIMITS[key] + 1)
        argv = [command, str(path)] + (["--out", str(tmp_path)] if command == "run" else [])
        assert invoke(*argv) == 2
        err = capsys.readouterr().err
        assert f"scenario.{key}: {self.LIMITS[key] + 1} is above the limit of {self.LIMITS[key]}" in err
        assert "Traceback" not in err
        assert not list(tmp_path.glob("*.csv"))

    def test_instances_without_nodes_share_one_id_set(self, scenarios_dir, tmp_path):
        data = json.loads((scenarios_dir / "static_small.json").read_text())
        data["n_total"] = scenario.MAX_N_TOTAL
        data["topology"]["transient"] = [{"edges": [[0, 1]]}] * 50
        path = tmp_path / "transient.json"
        path.write_text(json.dumps(data))
        transient = scenario.load_scenario(path).topology.transient
        assert len(transient[0].nodes) == scenario.MAX_N_TOTAL
        assert all(g.nodes is transient[0].nodes for g in transient)


class TestFamilySizeLimit:
    """A random family holds up to n_total * T * min(min_out_degree,
    n_total - 1) edges; above MAX_FAMILY_EDGES the scenario is malformed
    input (exit 2), refused before any family is drawn."""

    def write(self, scenarios_dir, tmp_path, n_total, T, degree):
        data = json.loads((scenarios_dir / "static_small.json").read_text())
        data.update(n_total=n_total, T=T)
        data["topology"] = {"type": "random_family", "min_out_degree": degree}
        path = tmp_path / "family.json"
        path.write_text(json.dumps(data))
        return path

    def test_limit_validates(self, scenarios_dir, tmp_path):
        assert scenario.MAX_FAMILY_EDGES == 10_000 * 100 * 1
        assert invoke("validate", str(self.write(scenarios_dir, tmp_path, 10_000, 100, 1))) == 0

    def test_degree_counts_only_up_to_n_minus_one(self, scenarios_dir, tmp_path):
        path = self.write(scenarios_dir, tmp_path, 1_000, 1, 10**9)  # 1,000 x 999 edges
        assert scenario.load_scenario(path).topology.min_out_degree == 10**9
        path = self.write(scenarios_dir, tmp_path, 1_001, 1, 10**9)
        with pytest.raises(scenario.ScenarioFormatError, match="= 1001000 edges"):
            scenario.load_scenario(path)

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_above_limit_exits_two(self, scenarios_dir, tmp_path, capsys, command):
        path = self.write(scenarios_dir, tmp_path, 9_901, 101, 1)  # limit + 1
        argv = [command, str(path)] + (["--out", str(tmp_path)] if command == "run" else [])
        assert invoke(*argv) == 2
        err = capsys.readouterr().err
        assert "= 1000001 edges is above the limit of 1000000" in err
        assert "Traceback" not in err
        assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command", ["validate", "run"])
def test_empty_stable_instance_exits_two(scenarios_dir, tmp_path, capsys, command):
    data = json.loads((scenarios_dir / "static_small.json").read_text())
    data["topology"]["stable"] = [{"nodes": [], "edges": [], "p": 1.0}]
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(data))
    argv = [command, str(path)] + (["--out", str(tmp_path)] if command == "run" else [])
    assert invoke(*argv) == 2
    err = capsys.readouterr().err
    assert "a stable instance needs at least one node" in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("*.csv"))


class TestRunCommand:
    def test_writes_trace_per_seed(self, scenarios_dir, tmp_path, capsys):
        code = invoke(
            "run", str(scenarios_dir / "static_small.json"),
            "--seed", "1", "--seed", "2", "--out", str(tmp_path),
        )
        assert code == 0
        for seed in (1, 2):
            path = tmp_path / f"static_small-seed{seed}-trace.csv"
            assert path.exists()
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            assert len(rows) == 402  # header + steps 0..400
        out = capsys.readouterr().out
        assert "seed 1:" in out and "seed 2:" in out

    def test_default_seed_comes_from_scenario(self, scenarios_dir, tmp_path):
        code = invoke(
            "run", str(scenarios_dir / "static_small.json"), "--out", str(tmp_path)
        )
        assert code == 0
        assert (tmp_path / "static_small-seed7-trace.csv").exists()

    def test_svg_flag_writes_charts(self, scenarios_dir, tmp_path):
        code = invoke(
            "run", str(scenarios_dir / "theorem1_violation.json"),
            "--out", str(tmp_path), "--svg",
        )
        assert code == 0
        estimates = tmp_path / "theorem1_violation-seed3-estimates.svg"
        error = tmp_path / "theorem1_violation-seed3-error.svg"
        assert estimates.read_text().startswith("<svg ")
        assert error.read_text().startswith("<svg ")

    def test_strict_refuses_warned_scenario(self, scenarios_dir, tmp_path):
        code = invoke(
            "run", str(scenarios_dir / "theorem1_violation.json"),
            "--out", str(tmp_path), "--strict",
        )
        assert code == 1
        assert not list(tmp_path.iterdir())

    def test_unreadable_scenario(self, tmp_path):
        assert invoke("run", str(tmp_path / "ghost.json")) == 2

    def test_conservation_breach_exits_three(
        self, scenarios_dir, tmp_path, capsys, drop_token
    ):
        # a run that silently lost mass without a recorded violation is a
        # bug and must be loud, not a normal trace
        dropped = drop_token(3)
        code = invoke(
            "run", str(scenarios_dir / "static_small.json"), "--out", str(tmp_path)
        )
        assert code == 3
        assert dropped
        assert "conservation" in capsys.readouterr().err

    def test_breach_after_stranded_departure_exits_three(
        self, scenarios_dir, tmp_path, capsys, drop_token
    ):
        # node 3 strands its surplus at step 6; a later loss is still a bug
        dropped = drop_token(7)
        code = invoke(
            "run", str(scenarios_dir / "theorem1_violation.json"), "--out", str(tmp_path)
        )
        assert code == 3
        assert dropped
        assert "conservation" in capsys.readouterr().err


class TestSweepCommand:
    def test_summary_table(self, scenarios_dir, tmp_path, capsys):
        code = invoke(
            "sweep", str(scenarios_dir / "static_small.json"),
            "--seeds", "3", "--out", str(tmp_path),
        )
        assert code == 0
        path = tmp_path / "static_small-sweep.csv"
        assert path.read_text().split("\n", 1)[0] == (
            "seed,converged,settle_step,average,band,residual_error,"
            "max_abs_y_imbalance,max_abs_z_imbalance,violation_count"
        )
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["seed"] for r in rows] == ["7", "8", "9"]
        assert all(r["average"] == "11/4" for r in rows)
        assert all(r["band"] == "2|3" for r in rows)
        assert all(r["max_abs_y_imbalance"] == "0" for r in rows)
        assert "summary ->" in capsys.readouterr().out

    def test_sweep_counts_violations(self, scenarios_dir, tmp_path):
        code = invoke(
            "sweep", str(scenarios_dir / "theorem1_violation.json"),
            "--seeds", "2", "--out", str(tmp_path),
        )
        assert code == 0
        with open(tmp_path / "theorem1_violation-sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert all(r["violation_count"] == "1" for r in rows)
        assert all(r["converged"] == "False" for r in rows)

    @pytest.mark.parametrize("name", ["theorem1_violation", "paper_sec5", "static_small"])
    def test_imbalance_columns_equal_the_audit(self, scenarios_dir, name):
        # The summary reads them off the violations' losses, not the audit.
        loaded = scenario.load_scenario(scenarios_dir / f"{name}.json")
        imbalances = []
        for seed in range(1, 6):
            records = run(loaded, seed)
            audit = conservation_audit(records)
            summary = cli._summarize(loaded, seed, records)
            y = max(abs(row.y_imbalance) for row in audit)
            z = max(abs(row.z_imbalance) for row in audit)
            assert (summary["max_abs_y_imbalance"], summary["max_abs_z_imbalance"]) == (y, z)
            imbalances.append((y, z))
        assert any(i != (0, 0) for i in imbalances) == (name == "theorem1_violation")

    def test_imbalance_is_the_largest_running_loss_before_the_last_step(self, scenarios_dir):
        loaded = scenario.load_scenario(scenarios_dir / "static_small.json")
        records = run(loaded, 1)
        last = records[-1].step
        losses = {0: (5, 1), 1: (-8, -3), last: (100, 100)}
        records = [
            replace(r, violations=(Violation(0, "stranded_departure", *losses[r.step]),))
            if r.step in losses else r
            for r in records
        ]
        # Running loss (5, 1), then (-3, -2); the last step's shows in no row.
        summary = cli._summarize(loaded, 1, records)
        assert (summary["max_abs_y_imbalance"], summary["max_abs_z_imbalance"]) == (5, 2)


class TestUnwritableOutput:
    """A failure to create the output directory or write an output exits
    2 with one line, never with a traceback."""

    @pytest.mark.parametrize("command", [("run",), ("sweep", "--seeds", "1")])
    def test_out_names_an_existing_file(self, scenarios_dir, tmp_path, capsys, command):
        out = tmp_path / "some_file"
        out.write_text("")
        code = invoke(
            command[0], str(scenarios_dir / "static_small.json"), *command[1:],
            "--out", str(out),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("cannot write output: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, blocked",
        [
            (("run",), "static_small-seed7-trace.csv"),
            (("run", "--svg"), "static_small-seed7-error.svg"),
            (("sweep", "--seeds", "1"), "static_small-sweep.csv"),
        ],
        ids=["trace", "chart", "summary"],
    )
    def test_output_path_is_a_directory(self, scenarios_dir, tmp_path, capsys, command, blocked):
        (tmp_path / blocked).mkdir()
        code = invoke(
            command[0], str(scenarios_dir / "static_small.json"), *command[1:],
            "--out", str(tmp_path),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("cannot write output: ")
        assert "Traceback" not in err


@pytest.mark.parametrize("seeds", ["0", "-3"])
def test_sweep_needs_at_least_one_seed(scenarios_dir, tmp_path, capsys, seeds):
    with pytest.raises(SystemExit) as exc:
        invoke("sweep", str(scenarios_dir / "static_small.json"),
               "--seeds", seeds, "--out", str(tmp_path))
    assert exc.value.code == 2
    assert f"must be at least 1, got {seeds}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("option", [("run", "--seed"), ("sweep", "--seeds")])
def test_non_integer_seed_option_is_a_usage_error(scenarios_dir, tmp_path, capsys, option):
    command, flag = option
    with pytest.raises(SystemExit) as exc:
        invoke(command, str(scenarios_dir / "static_small.json"),
               flag, "abc", "--out", str(tmp_path))
    assert exc.value.code == 2
    assert f"argument {flag}: expected an integer, got 'abc'" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


class TestSeedRange:
    """A seed is one 64-bit key word: seeds outside [0, 2**64) would alias
    others modulo 2**64, so they exit 2 with one line instead."""

    def with_seed(self, scenarios_dir, tmp_path, seed):
        data = json.loads((scenarios_dir / "static_small.json").read_text())
        data["seed"] = seed
        path = tmp_path / "seeded.json"
        path.write_text(json.dumps(data))
        return str(path)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_run_seed_outside_range_is_a_usage_error(self, scenarios_dir, tmp_path, capsys, seed):
        with pytest.raises(SystemExit) as exc:
            invoke("run", str(scenarios_dir / "static_small.json"),
                   f"--seed={seed}", "--out", str(tmp_path))
        assert exc.value.code == 2
        assert f"must lie in [0, 2**64), got {seed}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_largest_seed_runs(self, scenarios_dir, tmp_path):
        out = tmp_path / "out"
        assert invoke("run", str(scenarios_dir / "static_small.json"),
                      f"--seed={2**64 - 1}", "--out", str(out)) == 0
        assert (out / f"static_small-seed{2**64 - 1}-trace.csv").exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_scenario_seed_outside_range_exits_two(
        self, scenarios_dir, tmp_path, capsys, command, seed
    ):
        path = self.with_seed(scenarios_dir, tmp_path, seed)
        argv = [command, path] + (["--out", str(tmp_path / "out")] if command == "run" else [])
        assert invoke(*argv) == 2
        err = capsys.readouterr().err
        assert err == f"cannot load scenario: scenario.seed: {seed} is outside [0, 2**64)\n"
        assert not (tmp_path / "out").exists()

    def test_sweep_up_to_the_largest_seed(self, scenarios_dir, tmp_path):
        path = self.with_seed(scenarios_dir, tmp_path, 2**64 - 2)
        assert invoke("sweep", path, "--seeds", "2", "--out", str(tmp_path / "out")) == 0
        with open(tmp_path / "out" / "seeded-sweep.csv", newline="") as fh:
            seeds = [int(row["seed"]) for row in csv.DictReader(fh)]
        assert seeds == [2**64 - 2, 2**64 - 1]

    def test_sweep_past_the_largest_seed_exits_two(self, scenarios_dir, tmp_path, capsys):
        path = self.with_seed(scenarios_dir, tmp_path, 2**64 - 2)
        assert invoke("sweep", path, "--seeds", "3", "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err == f"cannot sweep: seed {2**64} is outside [0, 2**64)\n"
        assert not (tmp_path / "out").exists()


def test_console_script_entry(scenarios_dir):
    proc = subprocess.run(
        [sys.executable, "-m", "openavg", "validate",
         str(scenarios_dir / "static_small.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "0 error(s)" in proc.stdout
