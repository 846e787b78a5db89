from collections import Counter

import numpy as np
import pytest

from pmbm.clutter import IidClusterClutter, Region, nb_from_mean_dispersion
from pmbm.densities import LinearGaussianMotion, LinearGaussianSensor


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def region():
    return Region((0.0, 0.0), (300.0, 300.0))


@pytest.fixture
def nb_clutter(region):
    return IidClusterClutter(nb_from_mean_dispersion(10.0, 20.0), region)


@pytest.fixture
def pos_sensor():
    """Position-only sensor on a [px, vx, py, vy] state."""
    H = np.kron(np.eye(2), np.array([[1.0, 0.0]]))
    return LinearGaussianSensor(H, 4.0 * np.eye(2), 0.9)


@pytest.fixture
def cv_motion():
    F1 = np.array([[1.0, 1.0], [0.0, 1.0]])
    Q1 = 0.01 * np.array([[1.0 / 3.0, 0.5], [0.5, 1.0]])
    return LinearGaussianMotion(np.kron(np.eye(2), F1), np.kron(np.eye(2), Q1), 0.99)


class CountingClutter:
    """Delegates to ``inner`` and counts evaluations per measurement set."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = Counter()

    def log_density(self, Z):
        self.calls[np.asarray(Z).tobytes()] += 1
        return self.inner.log_density(Z)


@pytest.fixture
def counting_clutter():
    """Wrapper class that counts ``log_density`` calls per measurement set."""
    return CountingClutter
