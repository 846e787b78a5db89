"""Data-association generation for the point-target update.

An association vector assigns every measurement of one scan to clutter (0),
to an existing Bernoulli tree (1..n), or to a new track born from that same
measurement (n+j+1 for measurement j).  The joint weight couples target
terms (the per-target ratios eta) with the clutter set density evaluated on
whatever was left to clutter, so non-Poisson clutter makes the coordinates
interact.  Eta comes sparse, as the filter update holds it: per tree, the
(measurement, log eta) pairs it can explain, and per measurement the log
weight of its own new track.

The filter update walks a problem's ``candidate_product``, the product of
every row's candidates, when its size ``candidate_count`` fits the limit,
and samples a larger one with the systematic-scan Gibbs sampler here.
``enumerate_associations`` normalizes the same product under a guard on
the same count; it is the sampler's exact reference,
which the oracle and the tests judge it against.

One kernel, ``_candidates``, lists the values a coordinate may take with
their log weights.  The sampler draws every coordinate from it, and
``gibbs_conditional``, which the oracle checks, normalizes its output, so
the checked conditional is the one that runs, built once per scan and key.

Every problem reads the clutter set density through one ``ClutterCache``,
keyed by the sorted tuple of measurement indices left to clutter.  The
filter update shares one cache per scan across all predicted global
hypotheses, so ``log_density`` must be a deterministic function of the
measurement set; it is evaluated at most once per distinct subset per
scan.  A clutter model whose density depends on the clutter set only
through its size inside a region (``IidClusterClutter``) provides
``count_table(Z)``; the cache stores it when it is built, so once per scan
in the filter update, and the problem reads only that table.  The merged
parameterization, where the PPP clutter intensity is folded into the
new-track weights, leaves the empty clutter process, c(∅) = 1 and
c(Z ≠ ∅) = 0: zero-mean ``IidClusterClutter``, a count table like any
other.  The cache also holds the sampler's conditionals, so the problems
of one scan, whatever their tree count, build each one once.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, product

import numpy as np

from .clutter import ClutterCache
from .densities import logsumexp
from .errors import ConfigurationError, NumericalError, SizeLimitError

NEG_INF = float("-inf")
_ENUM_GUARD = 1_000_000
_WINDOW = 128  # rows of uniforms drawn, and whose leaves are listed, at a time: bounds memory


@dataclass
class AssociationProblem:
    """One scan's association inputs for one predicted global hypothesis.

    ``eta[i]`` lists tree i's (j, log eta_ij) pairs: the detection/miss
    weight ratio of measurement j, once per row.  ``own[j]`` is the log
    weight of the new track born from measurement j.  Rows or tracks left
    out, or given weight -inf, cannot take that value.

    ``cache`` is the scan's ``ClutterCache``; the filter update passes the
    one it shares across the scan's predicted global hypotheses, and the
    sampler keeps its conditionals there.  Without a clutter tree (the
    merged regime) it holds the empty clutter process.  ``_fast`` is the
    count table, or None when the clutter density is opaque.  A row has a
    clutter option only when the density can be positive on a nonempty
    set: an opaque one, or a count table finite past 0.
    """

    eta: list
    own: list
    cache: ClutterCache

    def __post_init__(self):
        n, m = len(self.eta), len(self.own)
        self.n, self.m = n, m
        if not isinstance(self.cache, ClutterCache):
            raise ConfigurationError("an association problem needs a ClutterCache")
        if self.cache.Z.shape[0] != m:
            raise ConfigurationError("clutter cache belongs to a scan of another size")
        self._fast = self.cache.count_table()
        self._clutter = self._fast is None or any(t > NEG_INF for t in self._fast[0][1:])
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

    def _clutter_log_density(self, idx: tuple) -> float:
        if self._fast is None:
            return self.cache(idx)
        table, inside = self._fast
        return table[len(idx)] if all(inside[j] for j in idx) else NEG_INF


def assoc_log_weight(p: AssociationProblem, gamma) -> float:
    """Unnormalized log p(gamma): clutter set density times eta products."""
    gamma = [int(v) for v in gamma]
    if len(gamma) != p.m:
        raise ConfigurationError("association vector length does not match scan")
    positive = [v for v in gamma if v > 0]
    if len(set(positive)) < len(positive):
        return NEG_INF
    total = 0.0
    clutter_idx = []
    for j, v in enumerate(gamma):
        if v == 0:
            clutter_idx.append(j)
        else:
            if not 1 <= v <= p.n + p.m:
                raise ConfigurationError(f"association value out of range: {v}")
            for u, w in p._row_cands[j]:
                if u == v:
                    total += w
                    break
            else:
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
        others = tuple(j for j in range(p.m) if j != q and gamma[j] == 0)
        base, with_q = p.cache(others), p.cache(tuple(sorted(others + (q,))))
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
    tree, else clutter, and None if that has zero weight too; the empty
    clutter process so starts all-new-track whenever every own weight is
    finite."""
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
    coordinates q = 1..m for ``sweeps`` rounds over a (sweeps, m) block of
    uniforms (position r·m + q), drawn from ``rng`` a window of ``_WINDOW``
    rows at a time, and records the state after every sweep.  A draw is
    ``bisect_right(cum, u * total)`` on the output of ``_candidates``, kept
    in ``p.cache.conditionals`` under what it depends on: row q, the tree
    count and the row's candidates, which of its trees the others take, and
    their clutter count or clutter set.
    Once every coordinate has drawn its value since the state last changed,
    the chain jumps between the draws that leave the state, listed once per
    window, and credits the sweeps that end in between: the output of every
    draw at a cost per leave.  Returns ``(gamma, log_w, visits)``
    per unique recorded vector in first-visit order: its unnormalized log
    weight and how many sweeps ended on it.
    """
    if not isinstance(sweeps, numbers.Integral) or isinstance(sweeps, bool) or sweeps < 1:
        raise ConfigurationError("sweeps must be an integer >= 1")
    m, n = p.m, p.n
    gamma = _start(p)
    if gamma is None:
        return []
    if m == 0:
        return [((), assoc_log_weight(p, ()), sweeps)]
    # Windows of rows continue one stream: together they are one draw.
    windows = (rng.random((min(_WINDOW, sweeps - r), m)) for r in range(0, sweeps, _WINDOW))
    end, base, wend = sweeps * m, 0, 0  # the window holds positions base to wend - 1
    # One bit per clutter coordinate (bit j) and per taken tree (bit m + v).
    allc = (1 << m) - 1
    state = sum(1 << (m + v if v else j) for j, v in enumerate(gamma) if v <= n)
    general = allc if p._fast is None else 0
    rows, memo = p.cache.rows, p.cache.conditionals
    sigs = []
    for j, cands in enumerate(map(tuple, p._row_cands)):
        row = j, n, cands
        if row not in rows:
            rows[row] = len(rows), general | sum(1 << (m + v) for v, _ in cands if v <= n)
        sigs.append(rows[row])
    drawn = [None] * m  # per coordinate: the conditional of its last draw
    kept = 0  # draws since the state last changed, that one included
    leaves = {}  # certified state -> [its conditionals, its leaves in a window of rows]
    recorded, pos = Counter(), 0
    while pos < end:
        if pos == wend:
            block = next(windows)
            us, base, wend = block.ravel().tolist(), wend, wend + block.size
        q = pos % m
        old = gamma[q]
        if old <= n:
            state ^= 1 << (m + old if old else q)
        sig, mask = sigs[q]
        key = (sig, (state & allc).bit_count(), state & mask)
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
        vals, cum, total = drawn[q] = entry
        new = gamma[q] = vals[bisect_right(cum, us[pos - base] * total)]
        if new <= n:
            state ^= 1 << (m + new if new else q)
        pos += 1
        kept = kept + 1 if new == old else 1
        if q == m - 1:
            recorded[tuple(gamma)] += 1
        jump = leaves.get(tuple(gamma)) if new != old and leaves else None
        if jump is None and kept >= m and end - pos >= m:
            jump = leaves[tuple(gamma)] = [tuple(drawn), [-1]]
        if jump is not None:
            found = jump[1]
            if found[-1] != wend:
                found = jump[1] = _leave_positions(block, base, jump[0], gamma)
            nxt = found[bisect_left(found, pos)]
            while nxt == wend < end:  # no leave in the rest of the window
                block = next(windows)
                us, base, wend = block.ravel().tolist(), wend, wend + block.size
                found = jump[1] = _leave_positions(block, base, jump[0], gamma)
                nxt = found[0]
            if nxt // m > pos // m:
                recorded[tuple(gamma)] += nxt // m - pos // m
            pos = nxt
    return [(g, assoc_log_weight(p, g), visits) for g, visits in recorded.items()]


def _leave_positions(block, base: int, drawn, gamma) -> list:
    """Positions r·m + q in the window ``block`` of uniforms, which starts
    at position ``base``, whose draw leaves ``gamma[q]``, then the window's
    end.  ``drawn[q]``, coordinate q's conditional, keeps value k for
    u·total in [cum[k−1], cum[k]), the last value for u·total ≥ cum[L−2],
    which the appended slot returns too."""
    lo, hi, totals = [], [], []
    for (vals, cum, total), v in zip(drawn, gamma):
        k = vals.index(v)
        lo.append(cum[k - 1] if k else NEG_INF)
        hi.append(cum[k] if k < len(cum) - 1 else math.inf)
        totals.append(total)
    x = block * totals
    found = np.flatnonzero((x < lo) | (x >= hi)) + base
    return found.tolist() + [base + block.size]


def candidate_product(p: AssociationProblem):
    """Every association vector of positive weight, with its unnormalized
    log weight (``assoc_log_weight``): the product of every row's candidates
    (clutter first when rows have a clutter option, then ``_row_cands``),
    the first row outermost.  The caller bounds its size, ``candidate_count(p)``."""
    head = [0] if p._clutter else []
    for gamma in product(*[head + [v for v, _ in cands] for cands in p._row_cands]):
        w = assoc_log_weight(p, gamma)
        if w > NEG_INF:
            yield gamma, w


def candidate_count(p: AssociationProblem) -> int:
    """How many vectors ``candidate_product(p)`` walks: the product over rows
    of their candidates, plus clutter when rows have a clutter option."""
    return math.prod(len(cands) + p._clutter for cands in p._row_cands)


def enumerate_associations(p: AssociationProblem):
    """The vectors of ``candidate_product`` with normalized log weights: no
    vector when none has positive weight, and ``SizeLimitError`` when the
    product exceeds ``_ENUM_GUARD`` vectors."""
    size = candidate_count(p)
    if size > _ENUM_GUARD:
        raise SizeLimitError(f"association space too large to enumerate: {size}")
    found = list(candidate_product(p))
    if not found:
        return [], np.zeros(0)
    vectors, raw = zip(*found)
    return list(vectors), np.array(raw) - logsumexp(raw)
