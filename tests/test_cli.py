"""Command line behavior: exit codes, produced files, strict mode."""

import csv
import json
import subprocess
import sys

import pytest

import openavg.cli as cli


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


def test_console_script_entry(scenarios_dir):
    proc = subprocess.run(
        [sys.executable, "-m", "openavg", "validate",
         str(scenarios_dir / "static_small.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "0 error(s)" in proc.stdout
