"""Data-association generation for the point-target update.

An association vector assigns every measurement of one scan to clutter (0),
to an existing Bernoulli tree (1..n), or to a new track born from that same
measurement (n+j+1 for measurement j).  The joint weight couples target
terms (the per-target ratios eta) with the clutter set density evaluated on
whatever was left to clutter, so non-Poisson clutter makes the coordinates
interact.  Eta comes sparse, as the filter update holds it: per tree, the
(measurement, log eta) pairs it can explain, and per measurement the log
weight of its own new track.

Two engines produce association sets: exhaustive enumeration (small scans,
and the oracle in tests) and a systematic-scan Gibbs sampler (everything
else).  A problem with no clutter column (``cache=None``, the merged
parameterization where the PPP clutter intensity is folded into the
new-track weights) is the empty clutter process, c(∅) = 1 and c(Z ≠ ∅) = 0,
and gets that count table, so the sampler runs it as any count table.

One kernel, ``_candidates``, lists the values a coordinate may take with
their log weights.  The sampler draws every coordinate from it, and
``gibbs_conditional``, which the oracle checks, normalizes its output, so
the checked conditional is the one that runs.

Both engines and the final weights read the clutter set density through one
``ClutterCache``, keyed by the sorted tuple of measurement indices left to
clutter.  The filter update shares one cache per scan across all predicted
global hypotheses, so ``log_density`` must be a deterministic function of
the measurement set; it is evaluated at most once per distinct subset per
scan.  A clutter model whose density depends on the clutter set only
through its size inside a region (``IidClusterClutter``) provides
``count_table(Z)``; the cache stores it when it is built, so once per scan
in the filter update, and the problem reads only that table.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np
from scipy.special import logsumexp

from .clutter import ClutterCache
from .errors import ConfigurationError, NumericalError, SizeLimitError
from .hypotheses import count_hypotheses

NEG_INF = float("-inf")
_ENUM_GUARD = 1_000_000


@dataclass
class AssociationProblem:
    """One scan's association inputs for one predicted global hypothesis.

    ``eta[i]`` lists tree i's (j, log eta_ij) pairs: the detection/miss
    weight ratio of measurement j, once per row.  ``own[j]`` is the log
    weight of the new track born from measurement j.  Rows or tracks left
    out, or given weight -inf, cannot take that value.

    ``cache`` is the scan's ``ClutterCache``; the filter update passes the
    one it shares across the scan's predicted global hypotheses.  None means
    there is no clutter column (the merged regime): the problem then holds
    the count table of the empty clutter process, ``table[0] = 0`` and
    ``-inf`` beyond.  ``_fast`` is the count table, or None when the
    clutter density is opaque.
    """

    eta: list
    own: list
    cache: ClutterCache | None = None

    def __post_init__(self):
        n, m = len(self.eta), len(self.own)
        self.n, self.m = n, m
        if self.cache is not None and self.cache.Z.shape[0] != m:
            raise ConfigurationError("clutter cache belongs to a scan of another size")
        if self.cache is None:
            self._fast = [0.0] + [NEG_INF] * m, [True] * m
        else:
            self._fast = self.cache.count_table()
        # Each row's (value, eta) candidates by increasing value, and a lookup.
        self._row_cands = cands = [[] for _ in range(m)]
        last = [-1] * m
        for i, pairs in enumerate(self.eta):
            for j, w in pairs:
                if not 0 <= j < m:
                    raise ConfigurationError(f"tree {i} lists row {j} outside the scan")
                if last[j] == i:
                    raise ConfigurationError(f"tree {i} lists row {j} twice")
                last[j] = i
                if w > NEG_INF:
                    cands[j].append((i + 1, w))
        for j, w in enumerate(self.own):
            if w > NEG_INF:
                cands[j].append((n + j + 1, w))
        self._row_w = [dict(c) for c in cands]

    def _clutter_log_density(self, idx: tuple) -> float:
        if self._fast is None:
            return self.cache(idx)
        table, inside = self._fast
        return table[len(idx)] if all(inside[j] for j in idx) else NEG_INF

    def _clutter_without_with(self, gamma, q: int) -> tuple:
        """log c of the clutter set of ``gamma`` without and with q."""
        others = tuple(j for j in range(self.m) if j != q and gamma[j] == 0)
        return self.cache(others), self.cache(tuple(sorted(others + (q,))))


def _in_gamma(gamma) -> bool:
    seen = set()
    for v in gamma:
        if v > 0:
            if v in seen:
                return False
            seen.add(v)
    return True


def assoc_log_weight(p: AssociationProblem, gamma) -> float:
    """Unnormalized log p(gamma): clutter set density times eta products."""
    gamma = [int(v) for v in gamma]
    if len(gamma) != p.m:
        raise ConfigurationError("association vector length does not match scan")
    if not _in_gamma(gamma):
        return NEG_INF
    total = 0.0
    clutter_idx = []
    for j, v in enumerate(gamma):
        if v == 0:
            clutter_idx.append(j)
        else:
            if not 1 <= v <= p.n + p.m:
                raise ConfigurationError(f"association value out of range: {v}")
            total += p._row_w[j].get(v, NEG_INF)
            if total == NEG_INF:
                return NEG_INF
    return total + p._clutter_log_density(tuple(clutter_idx))


def _candidates(p: AssociationProblem, gamma, q: int, taken, mc: int):
    """The values coordinate q may take, with unnormalized log weights.

    ``taken`` is the set of trees (1..n) the other coordinates use and
    ``mc`` how many of them are clutter.  The clutter candidate carries the
    clutter density with q included; trees and the own column carry eta
    plus the clutter density without q.  Only values of positive weight are
    listed, on a scale shared by this call's values alone.
    """
    if p._fast is not None:
        table, inside = p._fast
        base = table[mc]
        with_q = table[mc + 1] if inside[q] else NEG_INF
    else:
        base, with_q = p._clutter_without_with(gamma, q)
    values, logws = ([0], [with_q]) if with_q > NEG_INF else ([], [])
    if base > NEG_INF:
        for v, w in p._row_cands[q]:
            if v not in taken:
                values.append(v)
                logws.append(w + base)
    return values, logws


def gibbs_conditional(p: AssociationProblem, gamma, q: int) -> np.ndarray:
    """Normalized conditional distribution of gamma_q given the rest.

    Returned as a dense vector over {0, ..., n+m}.
    """
    gamma = [int(v) for v in gamma]
    if not 0 <= q < p.m:
        raise ConfigurationError(f"coordinate {q} out of range")
    others = gamma[:q] + gamma[q + 1 :]
    taken = {v for v in others if 0 < v <= p.n}
    values, logws = _candidates(p, gamma, q, taken, others.count(0))
    if not values:
        raise NumericalError(f"conditional has no support at coordinate {q}")
    top = max(logws)
    out = np.zeros(1 + p.n + p.m)
    for v, w in zip(values, logws):
        out[v] = math.exp(w - top)
    return out / out.sum()


def _start(p: AssociationProblem):
    """The chain's first state, or None if no association has positive
    weight.  With a count table, None when a point outside the region has no
    tree or own track, and all-clutter when ``table[m]`` is finite, even if a
    point outside the region makes its weight zero: the chain leaves it by
    itself.  With an opaque density, all-clutter if it has positive weight.
    Otherwise each measurement takes its own track, else its highest free
    tree, else clutter, and None if that has zero weight too; a problem
    without a clutter column so starts all-new-track whenever every own
    weight is finite."""
    m = p.m
    if p._fast is not None:
        table, inside = p._fast
        if not all(i or c for i, c in zip(inside, p._row_cands)):
            return None
        if table[m] > NEG_INF:
            return [0] * m
    elif p.cache(tuple(range(m))) > NEG_INF:
        return [0] * m
    gamma = []
    for cands in p._row_cands:
        gamma.append(next((v for v, _ in reversed(cands) if v not in gamma), 0))
    return gamma if assoc_log_weight(p, gamma) > NEG_INF else None


def run_gibbs(p: AssociationProblem, sweeps: int, rng):
    """Systematic-scan Gibbs sampling of association vectors.

    Starts from ``_start(p)`` (no association when that is None), sweeps
    coordinates q = 1..m for ``sweeps`` rounds and records the state after
    every sweep.  Each coordinate is drawn by inverse CDF from the output of
    ``_candidates``, built once per call for each key of what it depends on:
    q, which of row q's tree candidates the other coordinates take, and
    their clutter count (count table) or clutter set (opaque density).
    Returns ``(gamma, log_w, visits)`` for each unique recorded vector in
    first-visit order: its unnormalized log weight and how many sweeps
    ended on it.
    """
    if sweeps < 1:
        raise ConfigurationError("sweeps must be >= 1")
    m, n = p.m, p.n
    gamma = _start(p)
    if gamma is None:
        return []
    # One bit per clutter coordinate (bit j) and per taken tree (bit m + v).
    allc = (1 << m) - 1
    state = sum(1 << (m + v if v else j) for j, v in enumerate(gamma) if v <= n)
    general = allc if p._fast is None else 0
    keymask = [general | sum(1 << (m + v) for v, _ in c if v <= n) for c in p._row_cands]
    memo = {}
    recorded: dict[tuple, int] = {}
    for urow in rng.random((sweeps, m)).tolist():
        for q, u in enumerate(urow):
            old = gamma[q]
            if old <= n:
                state ^= 1 << (m + old if old else q)
            key = (q, (state & allc).bit_count(), state & keymask[q])
            entry = memo.get(key)
            if entry is None:
                taken = {v for v, _ in p._row_cands[q] if state >> (m + v) & 1}
                vals, lws = _candidates(p, gamma, q, taken, key[1])
                if not vals:
                    raise NumericalError(f"Gibbs conditional has no support at coordinate {q}")
                top = max(lws)
                weights = [math.exp(w - top) for w in lws]
                # u * total past the last cumulative weight draws the last value.
                cum = list(accumulate(weights))
                entry = memo[key] = (vals + vals[-1:], cum, math.fsum(weights))
            vals, cum, total = entry
            new = gamma[q] = vals[bisect_right(cum, u * total)]
            if new <= n:
                state ^= 1 << (m + new if new else q)
        key = tuple(gamma)
        recorded[key] = recorded.get(key, 0) + 1
    return [(g, assoc_log_weight(p, g), visits) for g, visits in recorded.items()]


def enumerate_associations(p: AssociationProblem, include_zero_weight: bool = True):
    """All valid association vectors with normalized log weights.

    With ``include_zero_weight`` the full structural set is produced (its
    size matches count_hypotheses for point targets and one clutter model);
    without it, branches whose weight is already zero are skipped.
    """
    m = p.m
    guard = count_hypotheses("point", "arbitrary", p.n, m)
    if guard > _ENUM_GUARD:
        raise SizeLimitError(f"association space too large to enumerate: {guard}")
    vectors: list[tuple] = []
    raw: list[float] = []
    gamma = [0] * m
    use_clutter = p.cache is not None

    def recurse(j: int, taken: frozenset, acc: float, clutter_idx: tuple):
        if j == m:
            total = acc + p._clutter_log_density(clutter_idx)
            vectors.append(tuple(gamma))
            raw.append(total)
            return
        row = p._row_w[j]
        if use_clutter:
            gamma[j] = 0
            recurse(j + 1, taken, acc, clutter_idx + (j,))
        for v in range(1, p.n + 1):
            if v in taken:
                continue
            w = row.get(v, NEG_INF)
            if w == NEG_INF and not include_zero_weight:
                continue
            gamma[j] = v
            recurse(j + 1, taken | {v}, acc + w, clutter_idx)
        own = p.n + j + 1
        w = row.get(own, NEG_INF)
        if w > NEG_INF or include_zero_weight:
            gamma[j] = own
            recurse(j + 1, taken, acc + w, clutter_idx)
        gamma[j] = 0

    recurse(0, frozenset(), 0.0, ())
    raw_arr = np.array(raw) if raw else np.zeros(0)
    if raw_arr.size == 0:
        return [], np.zeros(0)
    norm = logsumexp(raw_arr)
    if norm == NEG_INF:
        raise NumericalError("all enumerated associations have zero weight")
    return vectors, raw_arr - norm
