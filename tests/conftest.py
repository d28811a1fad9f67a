import multiprocessing
import os
import time

import numpy as np
import pytest

from esrlab.dataset import Dataset, synthetic_dataset
from esrlab.enumeration import build_catalog

slow = pytest.mark.skipif(
    not os.environ.get("ESRLAB_SLOW"),
    reason="long-running; set ESRLAB_SLOW=1 to enable")


@pytest.fixture(autouse=True)
def no_process_left_behind():
    """Fail a test that leaves a multiprocessing child (a helper, a pool
    worker) running, after giving each a moment to exit; the children are
    then killed, so that no later test is blamed for them."""
    yield
    deadline = time.monotonic() + 2.0
    for child in multiprocessing.active_children():
        child.join(max(0.0, deadline - time.monotonic()))
    left = multiprocessing.active_children()
    for child in left:
        child.kill()
        child.join()
    if left:
        pytest.fail(f"children left running: {left}")


@pytest.fixture(scope="session")
def synth() -> Dataset:
    return synthetic_dataset()


@pytest.fixture(scope="session")
def linear_data() -> Dataset:
    x = np.linspace(-1.0, 2.0, 24)
    return Dataset(x, 1.75 * x - 0.5)


@pytest.fixture(scope="session")
def noisy_linear_mnr() -> Dataset:
    rng = np.random.default_rng(42)
    x = np.linspace(-2.0, 2.0, 32)
    y = 0.8 * x + 0.3 + rng.normal(0, 0.05, x.size)
    return Dataset(x, y, np.full(x.size, 0.05), np.full(x.size, 0.05))


@pytest.fixture(scope="session")
def catalog4():
    return build_catalog(4)


@pytest.fixture(scope="session")
def catalog6():
    return build_catalog(6)
