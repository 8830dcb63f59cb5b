import os
from pathlib import Path

import numpy as np
import pytest

import gridevac
from gridevac import fixtures


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


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
