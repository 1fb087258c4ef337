"""The narrative demos run to completion.

Demos 03 and 05 write charts under ``demos/out``; the ones checked here
only print, so running them leaves nothing behind.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "demo",
    [
        "01_membership_and_topologies.py",
        "02_mass_splitting_mechanics.py",
        "04_stranded_departure.py",
    ],
)
def test_demo_runs(demo):
    path = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "demos" / demo)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
