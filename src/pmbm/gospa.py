"""Metric between estimated and true target sets with an assignment-based
decomposition into localization, missed-target and false-target costs.

The optimal assignment is solved in-package by the rectangular shortest
augmenting path method (Jonker & Volgenant 1987, in the form of Crouse 2016,
"On implementing 2D rectangular assignment algorithms"), the method and the
tie-breaking ``scipy.optimize.linear_sum_assignment`` runs."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


def linear_assignment(cost) -> list:
    """The (row, column) pairs of a minimum-cost assignment of the (n, m)
    matrix ``cost`` of finite entries: min(n, m) pairs, rows ascending.  Each
    row of the shorter side is added by a shortest augmenting path over
    reduced costs, and the dual potentials u, v are updated after it."""
    cost = np.asarray(cost, dtype=float)
    flip = cost.shape[0] > cost.shape[1]
    table = (cost.T if flip else cost).tolist()
    n, m = len(table), len(table[0]) if table else 0
    u, v = [0.0] * n, [0.0] * m
    col4row, row4col = [-1] * n, [-1] * m
    for cur in range(n):
        short, path, sr, sc = [math.inf] * m, [-1] * m, [], []
        remaining = list(range(m - 1, -1, -1))
        i, sink, min_val = cur, -1, 0.0
        while sink == -1:
            sr.append(i)
            row, ui, lowest, index = table[i], u[i], math.inf, -1
            for it, j in enumerate(remaining):
                r, s = min_val + row[j] - ui - v[j], short[j]
                if r < s:
                    path[j] = i
                    short[j] = s = r
                # On a tie, prefer a free column: it ends the path.
                if s < lowest or (s == lowest and row4col[j] == -1):
                    lowest, index = s, it
            min_val = lowest
            j = remaining[index]
            sc.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
        u[cur] += min_val
        for k in sr[1:]:
            u[k] += min_val - short[col4row[k]]
        for j in sc:
            v[j] -= min_val - short[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    if flip:
        return sorted((c, r) for r, c in enumerate(col4row))
    return list(enumerate(col4row))


def gospa(X, Y, cfg: GospaConfig = GospaConfig()) -> GospaResult:
    """Metric between the estimate set X and truth set Y.

    Optimal assignment (``linear_assignment``, shortest augmenting paths)
    under per-pair cost min(d, c)^p; assigned pairs at distance >= c are
    cut and count as one missed plus one false target; each unassigned
    element costs c^p / 2.
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
    loc = 0.0
    n_assigned = 0
    for i, j in linear_assignment(cost):
        if dist[i, j] < c:
            loc += dist[i, j] ** p
            n_assigned += 1
    n_missed = Y.shape[0] - n_assigned
    n_false = X.shape[0] - n_assigned
    missed = n_missed * half
    false_ = n_false * half
    total = (loc + missed + false_) ** (1.0 / p)
    return GospaResult(float(total), float(loc), missed, false_, n_assigned, n_missed, n_false)
