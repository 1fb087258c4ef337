"""Frozen chart digests: the SHA-256 of the SVG charts of fixed runs.

As ``tests/test_golden_traces.py`` does for traces, these pin every chart
byte of the bundled scenarios at seed 1, so a refactor of the renderers
or of what they read cannot move a line unnoticed. No numpy is needed.
"""

import hashlib

import pytest

from openavg.engine import run
from openavg.reporting import render_error_svg, render_estimates_svg
from openavg.scenario import load_scenario

# (estimates chart, error chart) of each scenario at seed 1.
GOLDEN = {
    "paper_sec5": (
        "c20ff2f71a0c71199c96c813c763b5ebca3c67f520458c6baf2cd840241dcfc9",
        "7d9a03072193ca24d1992c4db749f9003f068edba007b222c09bb1002ce7f0bb",
    ),
    "static_small": (
        "675ea746194fe4d39e635b02ac2dbb12a59390a68a9b992da923689646454bca",
        "7ce55182e0de2e79011955e2548ad652a63472067cece3f48bb0d35865d24000",
    ),
    "theorem1_violation": (
        "1aeb3432ea4c4056bf8e24172dd9924a05993df9c6adb29bb3137fca540f5a61",
        "1969e7f84e432f305b1a82bb9dd4f7a2eb308285e3451c8a199dec1f54191cec",
    ),
}


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_chart_digests_are_frozen(name, scenarios_dir):
    scenario = load_scenario(scenarios_dir / f"{name}.json")
    records = run(scenario, seed=1)
    estimates, error = GOLDEN[name]
    assert sha256(render_estimates_svg(records, scenario.n_total)) == estimates
    assert sha256(render_error_svg(records)) == error
