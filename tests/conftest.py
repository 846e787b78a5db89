from collections import Counter

import numpy as np
import pytest

from pmbm.clutter import IidClusterClutter, Region, nb_from_mean_dispersion
from pmbm.densities import LinearGaussianMotion, LinearGaussianSensor
from pmbm.filtering import update
from pmbm.hypotheses import validate_global


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


def checked_update(*args, **kwargs):
    """``update`` whose every output global hypothesis must partition the
    tracked measurement pairs."""
    out = update(*args, **kwargs)
    for g in out.globals_:
        assert validate_global(g, out.trees, out.clutter_trees, out.universe)
    return out


def plain_state(d):
    """Every field of a ``PmbmDensity`` as plain tuples, compared with ``==``."""

    def dens(x):
        return None if x is None else (x.mean.tolist(), x.cov.tolist())

    def pairs(h):
        return tuple(sorted(h.pairs))

    return (
        d.step,
        tuple(d.ppp.log_w),
        tuple(dens(c) for c in d.ppp.comps),
        tuple(
            (t.origin, tuple((h.log_w, h.r, dens(h.density), pairs(h), h.parent) for h in t.hyps))
            for t in d.trees
        ),
        tuple(tuple((h.log_w, pairs(h), h.parent) for h in t.hyps) for t in d.clutter_trees),
        tuple((g.log_w, g.clutter, g.berns) for g in d.globals_),
        tuple(sorted(d.universe)),
    )
