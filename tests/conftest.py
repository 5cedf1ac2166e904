from pathlib import Path

import numpy as np
import pytest

from qosrank.allocsim import load_scenario
from qosrank.matrix import QoSMatrix

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def committed_scenario():
    """The committed 50-user x 30-service scenario the experiments run on."""
    return load_scenario(CONFIG_DIR / "default_scenario.json")


def random_sparse_matrix(rng, num_users, num_services, density):
    """Random matrix with each user guaranteed at least one observation."""
    values = rng.uniform(0.0, 1.0, (num_users, num_services))
    mask = rng.uniform(0.0, 1.0, (num_users, num_services)) < density
    for u in range(num_users):
        if not mask[u].any():
            mask[u, rng.integers(num_services)] = True
    return QoSMatrix(np.where(mask, values, np.nan))


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
