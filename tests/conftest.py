from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def scenarios_dir() -> Path:
    return REPO_ROOT / "scenarios"


@pytest.fixture
def drop_token(monkeypatch):
    """Make ``engine.receive`` drop one token of the first delivery that
    carries a message sent at ``from_step`` or later.

    ``drop_token(from_step)`` installs it and returns a list that then
    holds the step of the dropped token.
    """
    from openavg import engine

    real_receive = engine.receive

    def install(from_step):
        dropped = []

        def receive(state, kept_y, kept_z, inbound):
            if not dropped and inbound and inbound[0].step >= from_step:
                dropped.append(inbound[0].step)
                kept_z -= 1
            return real_receive(state, kept_y, kept_z, inbound)

        monkeypatch.setattr(engine, "receive", receive)
        return dropped

    return install
