"""Track-oriented hypothesis bookkeeping and hypothesis-count analytics.

A Bernoulli tree holds the local association hypotheses of one potential
target; clutter trees do the same for clutter explanations.  A global
hypothesis selects one local hypothesis per tree such that the selected
measurement-pair sets partition everything received so far.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .densities import GaussianDensity
from .errors import ConfigurationError, SizeLimitError

_COUNT_GUARD = 20


class MeasurementPair(NamedTuple):
    """Identifies measurement j of scan k."""

    k: int
    j: int


@dataclass(frozen=True)
class LocalHypothesis:
    """One association history of a single Bernoulli component."""

    log_w: float
    r: float
    density: GaussianDensity | None
    pairs: frozenset
    parent: int = -1

    def __post_init__(self):
        if not -1e-9 <= self.r <= 1.0 + 1e-9:
            raise ConfigurationError(f"existence probability out of range: {self.r}")
        object.__setattr__(self, "r", min(max(self.r, 0.0), 1.0))
        if (self.density is None) != (self.r == 0.0):
            raise ConfigurationError("density must be present exactly when r > 0")
        object.__setattr__(self, "pairs", frozenset(self.pairs))


@dataclass(frozen=True)
class ClutterLocalHypothesis:
    """One clutter association history (per clutter source)."""

    log_w: float
    pairs: frozenset
    parent: int = -1

    def __post_init__(self):
        object.__setattr__(self, "pairs", frozenset(self.pairs))


@dataclass
class BernoulliTree:
    """Local hypotheses of one potential target at the current step.

    ``origin`` records how the tree came to be: ("meas", k, (j, ...)) for
    measurement-driven births, ("birth", k, index) for configured Bernoulli
    birth components.
    """

    hyps: list = field(default_factory=list)
    origin: tuple = ()


@dataclass
class ClutterTree:
    hyps: list = field(default_factory=list)


@dataclass(frozen=True)
class GlobalHypothesis:
    """Index vector selecting one local hypothesis per tree."""

    log_w: float
    clutter: tuple
    berns: tuple


def validate_global(g: GlobalHypothesis, trees, clutter_trees, universe) -> bool:
    """True iff the selected hypotheses' measurement pairs partition the
    set of all tracked measurement pairs."""
    if len(g.berns) != len(trees) or len(g.clutter) != len(clutter_trees):
        raise ConfigurationError("global hypothesis length does not match trees")
    covered = []
    for idx, tree in zip(g.clutter, clutter_trees):
        if not 0 <= idx < len(tree.hyps):
            raise ConfigurationError("clutter hypothesis index out of range")
        covered.append(tree.hyps[idx].pairs)
    for idx, tree in zip(g.berns, trees):
        if not 0 <= idx < len(tree.hyps):
            raise ConfigurationError("local hypothesis index out of range")
        covered.append(tree.hyps[idx].pairs)
    total = 0
    seen = set()
    for pairs in covered:
        total += len(pairs)
        seen.update(pairs)
    if total != len(seen):
        return False
    return seen == set(universe)


def _check_range(value: int, name: str, upper: int = _COUNT_GUARD) -> None:
    if not 0 <= value <= upper:
        raise SizeLimitError(f"{name} must lie in [0, {upper}], got {value}")


def bell(m: int) -> int:
    """Bell number: partitions of a set of m elements."""
    _check_range(m, "m")
    row = [1]
    for _ in range(m):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def stirling2(m: int, l: int) -> int:
    """Stirling number of the second kind: partitions of m into l cells."""
    _check_range(m, "m")
    if not 0 <= l <= m:
        raise SizeLimitError(f"l must lie in [0, m], got {l}")
    table = [[0] * (m + 1) for _ in range(m + 1)]
    table[0][0] = 1
    for mm in range(1, m + 1):
        for ll in range(1, mm + 1):
            table[mm][ll] = ll * table[mm - 1][ll] + table[mm - 1][ll - 1]
    return table[m][l]


def _count_point_ppp(n: int, m: int) -> int:
    return sum(
        math.factorial(p) * math.comb(m, p) * math.comb(n, p)
        for p in range(min(n, m) + 1)
    )


def _count_general_ppp(n: int, m: int) -> int:
    return sum(stirling2(m, l) * _count_point_ppp(n, l) for l in range(m + 1))


def count_hypotheses(target_model: str, clutter_model: str, n: int, m: int) -> int:
    """Number of global hypotheses one update generates from one predicted
    global hypothesis with n Bernoullis and m measurements."""
    _check_range(n, "n")
    _check_range(m, "m")
    if target_model not in ("point", "general"):
        raise ConfigurationError(f"unknown target model: {target_model}")
    if clutter_model not in ("ppp", "arbitrary"):
        raise ConfigurationError(f"unknown clutter model: {clutter_model}")
    inner = _count_point_ppp if target_model == "point" else _count_general_ppp
    if clutter_model == "ppp":
        return inner(n, m)
    return sum(math.comb(m, c) * inner(n, m - c) for c in range(m + 1))
