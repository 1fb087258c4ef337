"""Frozen trace digests: the SHA-256 of the trace CSV of fixed runs.

A refactor or optimization must leave every trace byte as it was. Only a
change that means to alter traces may update these digests, and it says
so in CHANGES.md.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from openavg.engine import run
from openavg.reporting import write_trace_csv
from openavg.scenario import load_scenario, parse_scenario

GOLDEN = {
    ("paper_sec5", 1):
        "c8f8dcbe7a112b1317b2e18b94555f390ff46b98cf30752c042eae8ff8093910",
    ("paper_sec5", 2):
        "1bff09354081a13dfda14259cbcd70aa51249036f35eb5e0fbec50cd7013ff85",
    ("paper_sec5", 3):
        "738d5c6a9a82f7f6791dfee0a51baab772cc9056d0650a341eeb58696cd5b81a",
    ("static_small", 1):
        "f85e3c1dd14441addd4e73e783ba6c015800c5a091974fb67e6daf0bcead619d",
    ("static_small", 2):
        "0a2cf5af6e39370c0f34bcdaa7c0966e7f67dbb6156e4b7d92cae6cae8a99ed8",
    ("static_small", 3):
        "85764ad6a1fb4920dbea3c843554d7f8311896f25bf09add262f2c2ae857c2f0",
    ("theorem1_violation", 1):
        "212b854df31c9f3defd9004e99433dd803983ba46ff893a3820bc339b27c6f6a",
    ("theorem1_violation", 2):
        "8e13a3910fd73e6b74cae380649c7ade4801b8c8ee6d098e0ddf787047da2d50",
    ("theorem1_violation", 3):
        "827e5f90c2bfca0ee669b30b1bf9b1b44d07686fd34405c114092f53793d7d70",
    ("random_family_n60", 1):
        "f357daecadc75752a1a0bd1fd9ea613bcb74f903ba26375794d01aefbb9904d2",
    ("random_family_n60", 2):
        "771c856ad75b280349675dec2ba418ec47f422c666771d06be3bbdc46e6936a7",
    ("random_family_n60", 3):
        "18bda239b5b0864a5b5241e734921e0503b0e44b9670a3a83362e993eced638d",
}


# A generated no-churn random_family scenario: n=60, T=5, horizon 15.
RANDOM_FAMILY_N60 = {
    "n_total": 60,
    "initially_active": list(range(60)),
    "initial_states": {"type": "uniform_int", "low": -5, "high": 20},
    "churn": {"type": "none"},
    "topology": {"type": "random_family", "min_out_degree": 2},
    "k_prime": 0,
    "T": 5,
    "horizon": 15,
}


def random_family_n60():
    return parse_scenario(RANDOM_FAMILY_N60)


@pytest.mark.parametrize("name,seed", sorted(GOLDEN))
def test_trace_digest_is_frozen(name, seed, scenarios_dir, tmp_path):
    if name == "random_family_n60":
        scenario = random_family_n60()
    else:
        scenario = load_scenario(scenarios_dir / f"{name}.json")
    path = tmp_path / "trace.csv"
    write_trace_csv(run(scenario, seed=seed), scenario.n_total, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN[(name, seed)]


def test_traces_without_numpy(scenarios_dir, tmp_path):
    # Every draw, families included, is made in Python: with numpy made
    # unimportable, the CLI still writes the golden traces.
    (tmp_path / "random_family_n60.json").write_text(json.dumps(RANDOM_FAMILY_N60))
    paths = [scenarios_dir / "paper_sec5.json", tmp_path / "random_family_n60.json"]
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from openavg.cli import main\n"
        f"for path in {[str(p) for p in paths]!r}:\n"
        "    assert main(['run', path, '--seed', '1', '--out', '.']) == 0\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
        cwd=tmp_path,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    for name in ("paper_sec5", "random_family_n60"):
        trace = (tmp_path / f"{name}-seed1-trace.csv").read_bytes()
        assert hashlib.sha256(trace).hexdigest() == GOLDEN[(name, 1)], name
