from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def scenarios_dir() -> Path:
    return REPO_ROOT / "scenarios"


@pytest.fixture
def drop_token(monkeypatch):
    """Make ``engine.receive`` drop one token of the first cell delivered
    at step ``from_step`` or later.

    ``drop_token(from_step)`` installs it and returns a list that then
    holds the step of the dropped token. The step is the one the engine
    last drew a topology for, since every step draws one before its
    barrier.
    """
    from openavg import engine

    real_receive = engine.receive
    real_draw_topology = engine.draw_topology

    def install(from_step):
        dropped = []
        current = []

        def draw_topology(scenario, step, *args):
            current[:] = [step]
            return real_draw_topology(scenario, step, *args)

        def receive(state, cell):
            if not dropped and current[0] >= from_step:
                dropped.append(current[0])
                cell = [cell[0], cell[1] - 1]
            return real_receive(state, cell)

        monkeypatch.setattr(engine, "draw_topology", draw_topology)
        monkeypatch.setattr(engine, "receive", receive)
        return dropped

    return install
