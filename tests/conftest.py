import os
from pathlib import Path

import numpy as np
import pytest

import gridevac
from gridevac import fixtures, powerflow


@pytest.fixture(scope="session", autouse=True)
def _subprocesses_import_these_sources():
    """``python -m gridevac.cli`` run by a test imports the sources under test,
    also when only pytest's ``pythonpath`` setting put them on the path."""
    src = str(Path(gridevac.__file__).resolve().parents[1])
    paths = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(paths))
        yield


@pytest.fixture(scope="session")
def tiny():
    return fixtures.tiny_feeder()


@pytest.fixture(scope="session")
def three_phase():
    return fixtures.three_phase_feeder()


@pytest.fixture(scope="session")
def weak():
    return fixtures.weak_feeder()


@pytest.fixture(scope="session")
def mid():
    """20-bus three-phase feeder shaped like the benchmark's mid feeder."""
    return fixtures.mid_feeder()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def sweep_sizes(monkeypatch):
    """Batch size of each ``powerflow.sweep`` call made during the test."""
    sizes = []
    sweep = powerflow.sweep

    def counting(net, demand, *args, **kwargs):
        sizes.append(len(demand))
        return sweep(net, demand, *args, **kwargs)

    monkeypatch.setattr(powerflow, "sweep", counting)
    return sizes
