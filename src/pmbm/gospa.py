"""Metric between estimated and true target sets with an assignment-based
decomposition into localization, missed-target and false-target costs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import ConfigurationError


@dataclass(frozen=True)
class GospaConfig:
    order: float = 2.0  # p
    cutoff: float = 10.0  # c
    alpha: float = 2.0  # decomposition form requires 2

    def __post_init__(self):
        if not 1.0 <= self.order < np.inf:
            raise ConfigurationError("GOSPA order must be finite and >= 1")
        if not 0.0 < self.cutoff < np.inf:
            raise ConfigurationError("GOSPA cutoff must be finite and > 0")
        if self.alpha != 2.0:
            raise ConfigurationError("only alpha=2 supports this decomposition")


@dataclass(frozen=True)
class GospaResult:
    """``localization``, ``missed`` and ``false_`` are p-th power sums, so
    total**p == localization + missed + false_ holds exactly."""

    total: float
    localization: float
    missed: float
    false_: float
    n_assigned: int
    n_missed: int
    n_false: int


def _as_points(X) -> np.ndarray:
    arr = np.asarray(X, dtype=float)
    if arr.size == 0:
        return arr.reshape(0, 2)
    return np.atleast_2d(arr)


def gospa(X, Y, cfg: GospaConfig = GospaConfig()) -> GospaResult:
    """Metric between the estimate set X and truth set Y.

    Optimal assignment under per-pair cost min(d, c)^p; assigned pairs at
    distance >= c are cut and count as one missed plus one false target;
    each unassigned element costs c^p / 2.
    """
    X, Y = _as_points(X), _as_points(Y)
    p, c = cfg.order, cfg.cutoff
    half = c**p / 2.0
    if X.shape[0] == 0 or Y.shape[0] == 0:
        missed = Y.shape[0] * half
        false_ = X.shape[0] * half
        total = (missed + false_) ** (1.0 / p)
        return GospaResult(total, 0.0, missed, false_, 0, Y.shape[0], X.shape[0])
    if X.shape[1] != Y.shape[1]:
        raise ConfigurationError("estimate and truth dimensions differ")
    dist = np.sqrt(np.sum((X[:, None, :] - Y[None, :, :]) ** 2, axis=2))
    cost = np.minimum(dist, c) ** p
    rows, cols = linear_sum_assignment(cost)
    loc = 0.0
    n_assigned = 0
    for i, j in zip(rows, cols):
        if dist[i, j] < c:
            loc += dist[i, j] ** p
            n_assigned += 1
    n_missed = Y.shape[0] - n_assigned
    n_false = X.shape[0] - n_assigned
    missed = n_missed * half
    false_ = n_false * half
    total = (loc + missed + false_) ** (1.0 / p)
    return GospaResult(float(total), float(loc), missed, false_, n_assigned, n_missed, n_false)
