"""Data-association generation for the point-target update.

An association vector assigns every measurement of one scan to clutter (0),
to an existing Bernoulli tree (1..n), or to a new track born from that same
measurement (n+j).  The joint weight couples target terms (the per-target
ratio table eta) with the clutter set density evaluated on whatever was
left to clutter, so non-Poisson clutter makes the coordinates interact.

Two engines produce association sets: exhaustive enumeration (small scans,
and the oracle in tests) and a systematic-scan Gibbs sampler (everything
else).  When the problem has no clutter column at all (``clutter=None``,
the merged parameterization where the PPP clutter intensity is folded into
the new-track weights) the value 0 simply has zero mass and the sampler
starts from the all-new-track vector instead of all-zero.

One kernel, ``_candidates``, lists the values a coordinate may take with
their log weights.  The sampler draws every coordinate from it, and
``gibbs_conditional``, which the oracle checks, normalizes its output, so
the checked conditional is the one that runs.

Both engines and the final weights read the clutter set density through one
``ClutterCache``, keyed by the sorted tuple of measurement indices left to
clutter.  The filter update shares one cache per scan across all predicted
global hypotheses, so ``log_density`` must be a deterministic function of
the measurement set; it is evaluated at most once per distinct subset per
scan.  Clutter models with a count table (``IidClusterClutter``) skip the
set density while sampling and read only the table, which the cache builds
once (``ClutterCache.count_table``), so once per scan in the filter update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .clutter import ClutterCache
from .errors import ConfigurationError, NumericalError, SizeLimitError
from .hypotheses import count_hypotheses

NEG_INF = float("-inf")
_ENUM_GUARD = 1_000_000


def _as_scan(Z) -> np.ndarray:
    arr = np.asarray(Z, dtype=float)
    if arr.size == 0:
        return arr.reshape(0, arr.shape[-1] if arr.ndim >= 2 else 1)
    return np.atleast_2d(arr)


@dataclass
class AssociationProblem:
    """One scan's association inputs for one predicted global hypothesis.

    ``log_eta`` has shape (m, n+m): columns 0..n-1 are detection/miss weight
    ratios of the predicted Bernoullis, column n+j is the new-track weight
    of measurement j (only finite on its own row).

    Clutter set densities are read through ``cache``, a ``ClutterCache`` of
    ``clutter`` on ``Z``.  The filter update passes the one it shares across
    the scan's predicted global hypotheses; left as None, a problem built
    on its own gets a fresh cache.  Either way ``clutter.log_density`` is
    called at most once per distinct clutter subset.
    """

    log_eta: np.ndarray
    clutter: object | None
    Z: np.ndarray
    n: int
    cache: ClutterCache | None = None

    def __post_init__(self):
        self.log_eta = np.asarray(self.log_eta, dtype=float)
        self.Z = _as_scan(self.Z)
        m = self.m
        if self.n < 0:
            raise ConfigurationError("n must be >= 0")
        if self.log_eta.shape != (m, self.n + m):
            raise ConfigurationError(
                f"eta table must have shape ({m}, {self.n + m}), got {self.log_eta.shape}"
            )
        if self.cache is not None and (
            self.cache.clutter is not self.clutter or not np.array_equal(self.cache.Z, self.Z)
        ):
            raise ConfigurationError("clutter cache belongs to another clutter model or scan")
        if self.cache is None and self.clutter is not None:
            self.cache = ClutterCache(self.clutter, self.Z)
        self._eta_rows = self.log_eta.tolist()
        self._fast = self.cache.count_table() if self.cache is not None else None
        # Static candidates (value, eta) of each row among the trees and its
        # own column, in increasing value order.
        n = self.n
        self._row_cands = [[] for _ in range(m)]
        rows, cols = np.nonzero(self.log_eta > NEG_INF)
        for q, c in zip(rows.tolist(), cols.tolist()):
            if c < n or c == n + q:
                self._row_cands[q].append((c + 1, self._eta_rows[q][c]))

    @property
    def m(self) -> int:
        return self.Z.shape[0]

    def _clutter_log_density(self, idx: tuple) -> float:
        if self.clutter is None:
            return 0.0 if not idx else NEG_INF
        return self.cache(idx)

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
            total += p._eta_rows[j][v - 1]
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
    if p.clutter is None:
        base, with_q = 0.0, NEG_INF
    elif p._fast is not None:
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


def run_gibbs(p: AssociationProblem, sweeps: int, rng, collect_counts: bool = False):
    """Systematic-scan Gibbs sampling of association vectors.

    Starts from the all-clutter vector (all-new-track when there is no
    clutter column), sweeps coordinates q = 1..m for ``sweeps`` rounds and
    records the state after every sweep.  Each coordinate is drawn by
    inverse CDF from ``_candidates``.  Returns the unique recorded vectors
    in first-visit order with their unnormalized log weights; with
    ``collect_counts`` also returns a visit-count dict.
    """
    if sweeps < 1:
        raise ConfigurationError("sweeps must be >= 1")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    m = p.m
    if m == 0:
        empty = ((), assoc_log_weight(p, ()))
        return ([empty], {(): sweeps}) if collect_counts else [empty]

    n = p.n
    gamma = [n + j + 1 for j in range(m)] if p.clutter is None else [0] * m
    taken = set()
    mc = gamma.count(0)
    recorded: dict[tuple, int] = {}
    for urow in rng.random((sweeps, m)).tolist():
        for q in range(m):
            old = gamma[q]
            if old == 0:
                mc -= 1
            elif old <= n:
                taken.discard(old)
            vals, lws = _candidates(p, gamma, q, taken, mc)
            if not vals:
                raise NumericalError(
                    f"Gibbs conditional has no support at coordinate {q}"
                )
            top = max(lws)
            weights = [math.exp(w - top) for w in lws]
            target = urow[q] * math.fsum(weights)
            acc = 0.0
            new = vals[-1]
            for v, w in zip(vals, weights):
                acc += w
                if target < acc:
                    new = v
                    break
            gamma[q] = new
            if new == 0:
                mc += 1
            elif new <= n:
                taken.add(new)
        key = tuple(gamma)
        recorded[key] = recorded.get(key, 0) + 1
    out = [(g, assoc_log_weight(p, g)) for g in recorded]
    if collect_counts:
        return out, dict(recorded)
    return out


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
    use_clutter = p.clutter is not None

    def recurse(j: int, taken: frozenset, acc: float, clutter_idx: tuple):
        if j == m:
            total = acc + p._clutter_log_density(clutter_idx)
            vectors.append(tuple(gamma))
            raw.append(total)
            return
        row = p._eta_rows[j]
        if use_clutter:
            gamma[j] = 0
            recurse(j + 1, taken, acc, clutter_idx + (j,))
        for v in range(1, p.n + 1):
            if v in taken:
                continue
            w = row[v - 1]
            if w == NEG_INF and not include_zero_weight:
                continue
            gamma[j] = v
            recurse(j + 1, taken | {v}, acc + w, clutter_idx)
        own = p.n + j + 1
        w = row[own - 1]
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
