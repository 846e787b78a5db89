"""The multi-target filtering recursion.

State is a Poisson point process (undetected targets) plus a multi-Bernoulli
mixture in track-oriented form (one hypothesis tree per potential target,
global hypotheses as index vectors).  The update supports three clutter
regimes:

* ``arbitrary``: clutter is any evaluable set density c(Z).  One clutter
  hypothesis tree tracks which measurements each global hypothesis declared
  clutter; new tracks born from the Poisson intensity have existence 1.
* ``composite``: clutter is a PPP plus independent stationary sources.
  Each source gets its own clutter hypothesis tree and the PPP part is
  folded into the new-track weights, giving births existence below 1.
* ``ppp-merged``: plain PPP clutter folded into new-track weights, which
  is the standard recursion this library generalizes.  No clutter trees.

Under the point model with at most one clutter column, each predicted
global hypothesis is one ``AssociationProblem``; it holds ratios to miss
weights, so what it cannot express (the general model, several clutter
sources, a point hypothesis that cannot miss) is enumerated as labelings.
Each generator enumerates when the product it walks is at most
``exhaustive_limit``; above it problems are Gibbs-sampled and labelings
refused.  Each predicted local hypothesis (i, a) has one record per scan,
``_UpdateWorkspace.rec[i][a]``: its miss factor and existence, the
measurements it gates and, for the point model, its (measurement, eta)
pairs, which the problem reads as they are.  The records come from one
detection pass over the scan: every (i, a) that can exist is one stack,
with S factored once per density per scan, so one gate call and one
likelihood call score them all, and the point model's posteriors of every
gated pair are computed as one stack.  ``predict`` moves the PPP components
and every surviving hypothesis as one stack too.  The global-hypothesis
cut (``reduce``'s rule) picks associations by their raw weights, and only
those it keeps are built.  One child rule builds each posterior local
hypothesis, of a Bernoulli or a clutter tree, from a predicted one and its
cell; each global hypothesis is built once, with its weight renormalized
over the kept ones, and a posterior density only for the cells it uses.
"""

from __future__ import annotations

import itertools
import math
import numbers
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .clutter import ClutterCache, CompositeClutter, IidClusterClutter, PoissonCardinality, PoissonClutter
from .clutter import clutter_width
from .densities import (
    GaussianDensity,
    GaussianMixture,
    LinearGaussianMotion,
    as_scan,
    ellipsoidal_gate,
    kalman_predict,
    kalman_update_gated,
    logsumexp,
    moment_match,
    predicted_measurement_loglik,
)
from .errors import ConfigurationError, NumericalError, SizeLimitError
from .gibbs import AssociationProblem, candidate_count, candidate_product, run_gibbs
from .hypotheses import (
    BernoulliTree,
    ClutterLocalHypothesis,
    ClutterTree,
    GlobalHypothesis,
    LocalHypothesis,
    MeasurementPair,
    bell,
)

NEG_INF = float("-inf")


@dataclass(frozen=True)
class FilterConfig:
    """Pruning, capping, gating and regime switches for one filter."""

    max_global_hyps: int = 500
    mbm_prune: float = 1e-4
    ppp_prune: float = 1e-5
    bern_prune: float = 1e-5
    gate: float = 20.0
    mode: str = "pmbm"  # pmbm | pmb | mbm
    clutter_regime: str = "arbitrary"  # arbitrary | composite | ppp-merged
    exhaustive_limit: int = 32

    def __post_init__(self):
        for name in ("max_global_hyps", "exhaustive_limit"):
            v = getattr(self, name)
            if not isinstance(v, numbers.Integral) or isinstance(v, bool) or v < 1:
                raise ConfigurationError(f"{name} must be an integer >= 1")
        if not 0.0 <= self.mbm_prune <= 1.0:  # 0 keeps every association
            raise ConfigurationError("mbm_prune must be in [0, 1]")
        for name, top in (("ppp_prune", math.inf), ("bern_prune", 1.0), ("gate", math.inf)):
            if not 0.0 < getattr(self, name) <= top:
                raise ConfigurationError(f"{name} must be in (0, {top}]")
        if self.mode not in ("pmbm", "pmb", "mbm"):
            raise ConfigurationError(f"unknown mode: {self.mode}")
        if self.clutter_regime not in ("arbitrary", "composite", "ppp-merged"):
            raise ConfigurationError(f"unknown clutter regime: {self.clutter_regime}")


@dataclass
class PmbmDensity:
    """Filter state: PPP intensity plus track-oriented MBM."""

    ppp: GaussianMixture
    trees: list
    clutter_trees: list
    globals_: list
    universe: frozenset
    step: int = 0


def initial_density() -> PmbmDensity:
    """Empty state: no targets known, one empty global hypothesis."""
    return PmbmDensity(
        ppp=GaussianMixture(),
        trees=[],
        clutter_trees=[],
        globals_=[GlobalHypothesis(0.0, (), ())],
        universe=frozenset(),
        step=0,
    )


def predict(
    d: PmbmDensity,
    motion: LinearGaussianMotion,
    birth: GaussianMixture,
    birth_bernoulli: tuple = (),
) -> PmbmDensity:
    """Standard prediction: survival scaling, motion model, birth injection.

    ``birth_bernoulli`` is a sequence of (r, GaussianDensity) appended as
    new Bernoulli trees present in every global hypothesis (the
    multi-Bernoulli birth used by MBM mode).
    """
    log_ps = math.log(motion.ps) if motion.ps > 0.0 else NEG_INF
    # One stack: the PPP components, then every hypothesis that survives.
    live = [h.density for tree in d.trees for h in tree.hyps if h.r * motion.ps > 0.0]
    preds = iter(kalman_predict(list(d.ppp.comps) + live, motion))
    ppp = GaussianMixture(
        [lw + log_ps for lw in d.ppp.log_w] + list(birth.log_w),
        [next(preds) for _ in d.ppp.comps] + list(birth.comps),
    )
    trees = []
    for tree in d.trees:
        hyps = []
        for h in tree.hyps:
            r = h.r * motion.ps
            dens = next(preds) if r > 0.0 else None
            hyps.append(LocalHypothesis(h.log_w, r, dens, h.pairs, h.parent))
        trees.append(BernoulliTree(hyps, tree.origin))
    globals_ = d.globals_
    if birth_bernoulli:
        k_next = d.step + 1
        for idx, (r, dens) in enumerate(birth_bernoulli):
            hyp = LocalHypothesis(0.0, float(r), dens if r > 0 else None, frozenset())
            trees.append(BernoulliTree([hyp], ("birth", k_next, idx)))
        extra = (0,) * len(birth_bernoulli)
        globals_ = [
            GlobalHypothesis(g.log_w, g.clutter, g.berns + extra) for g in d.globals_
        ]
    return PmbmDensity(ppp, trees, d.clutter_trees, list(globals_), d.universe, d.step)


def update(d: PmbmDensity, Z, model, clutter, cfg: FilterConfig, seed: int = 0) -> PmbmDensity:
    """One measurement update under the configured clutter regime: the
    posterior that the cut of ``cfg`` (``mbm_prune``, ``max_global_hyps``)
    keeps, normalized, in cut order.  ``oracle.KEEP_ALL``'s cut keeps it all."""
    if not isinstance(seed, numbers.Integral) or isinstance(seed, bool) or seed < 0:
        raise ConfigurationError("seed must be an integer >= 0")
    if cfg.clutter_regime == "arbitrary":
        if not callable(getattr(clutter, "log_density", None)):
            raise ConfigurationError("arbitrary regime needs a clutter model with log_density")
        sources, ppp_c = [clutter], None
    elif cfg.clutter_regime == "composite":
        if not isinstance(clutter, CompositeClutter):
            raise ConfigurationError("composite regime needs a CompositeClutter model")
        sources, ppp_c = list(clutter.sources), clutter.ppp
    else:
        if not isinstance(clutter, PoissonClutter):
            raise ConfigurationError("ppp-merged regime needs a PoissonClutter model")
        sources, ppp_c = [], clutter
    Z = as_scan(Z, model.sensor.meas_dim)
    if not np.isfinite(Z).all():
        raise ConfigurationError("scan holds a non-finite value")
    width = clutter_width(clutter)
    if width not in (None, Z.shape[1]):
        raise ConfigurationError(f"measurements need width {width}, got shape {Z.shape}")
    n_src = len(sources)
    if n_src and not d.clutter_trees:
        # First update under a clutter-tree regime: one empty clutter tree
        # per source, selected by every global hypothesis.
        d = replace(
            d,
            clutter_trees=[
                ClutterTree([ClutterLocalHypothesis(0.0, frozenset())]) for _ in range(n_src)
            ],
            globals_=[GlobalHypothesis(g.log_w, (0,) * n_src, g.berns) for g in d.globals_],
        )
    elif len(d.clutter_trees) != n_src:
        raise ConfigurationError(
            f"density has {len(d.clutter_trees)} clutter trees, regime needs {n_src}"
        )

    ws = _UpdateWorkspace(d, Z, model, sources, ppp_c, cfg, d.step + 1)

    # Associations per predicted global hypothesis: (g_idx, a point vector
    # (g_idx in ``vectors``) or a labeling's cells, unnormalized log weight).
    assoc, vectors = [], set()
    for g_idx, g in enumerate(d.globals_):
        if g.log_w == NEG_INF:
            continue
        locs = [ws.rec[i][a] for i, a in enumerate(g.berns)]
        if ws.point and n_src <= 1 and all(loc[0] > NEG_INF for loc in locs):
            vectors.add(g_idx)
            assoc.extend(_point_associations(ws, g, g_idx, locs, seed))
        else:
            assoc.extend(_enumerate_labelings(ws, g, g_idx, locs))
    if not assoc:
        assoc, vectors = [_fallback_association(ws)], set()
        warnings.warn("no association had positive weight; forced all-clutter fallback")

    return _assemble(ws, assoc, vectors)


def _subset_partitions(items: tuple, cap=None):
    """All partitions of ``items`` into non-empty cells of at most ``cap`` (None: any) items."""
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for part in _subset_partitions(rest, cap):
        yield part + ((first,),)
        for i, cell in enumerate(part):
            if cap is None or len(cell) < cap:
                yield part[:i] + (cell + (first,),) + part[i + 1 :]


class _UpdateWorkspace:
    """Per-scan records shared across predicted global hypotheses.

    ``rec[i][a]``, built here for every predicted local hypothesis (i, a),
    is (log miss factor, existence after a miss, ascending gated rows,
    point-model (j, detection - miss) pairs with a finite detection factor).
    ``det_info`` gives its detection factor per cell, ``own_weight`` /
    ``own_tracks`` the weight and posterior of a new track per cell.
    ``src[s]`` is the scan's only evaluator of clutter source s; every
    reader of c_s(cell) goes through it.  Every point problem of the scan
    shares ``cache``: ``src[0]``, else the empty clutter process.
    """

    def __init__(self, d, Z, model, sources, ppp_c, cfg, k):
        self.d = d
        self.Z = Z
        self.model = model
        self.sources = sources
        self.cfg = cfg
        self.k = k
        self.m = Z.shape[0]
        self.n = len(d.trees)
        self.point = model.max_subset == 1
        self.log_f0 = model.log_f_empty()
        self.f0 = math.exp(self.log_f0) if self.log_f0 > NEG_INF else 0.0
        self.log_lam = ppp_c.log_intensity(Z).tolist() if ppp_c is not None else None
        self._det, self._own, self._pairs = {}, {}, {}
        self.src = [ClutterCache(c, Z) for c in sources]
        self.cache = self.src[0] if self.src else ClutterCache(
            IidClusterClutter(PoissonCardinality(0.0), ppp_c.region), Z
        )
        self._ppp_comps = [(lw, c) for lw, c in zip(d.ppp.log_w, d.ppp.comps) if lw > NEG_INF]
        if self.point:
            self._precompute_own_point()
        self._detection_pass()

    def _detection_pass(self):
        """``rec`` from one stack over the predicted local hypotheses that
        can exist: one gate and, for the point model, one likelihood table
        and the posteriors of the gated pairs, which ``det_info`` wraps as
        densities for the pairs an association uses."""
        sensor, Z = self.model.sensor, self.Z
        live = [h.density for tree in self.d.trees for h in tree.hyps if h.r > 0.0]
        gated = [[] for _ in live]
        scored = [[] for _ in live]  # point model: (j, log pd + log-likelihood, pair index)
        if live and self.m:
            mask = ellipsoidal_gate(live, sensor, Z, self.cfg.gate)
            pn, pj = np.nonzero(mask)
            pairs = list(zip(pn.tolist(), pj.tolist()))
            for n, j in pairs:
                gated[n].append(j)
            if self.point and sensor.pd > 0.0:
                log_pd = math.log(sensor.pd)
                ll = predicted_measurement_loglik(live, sensor, Z)[pn, pj].tolist()
                self._post = kalman_update_gated(live, sensor, Z, mask)
                for p, ((n, j), l) in enumerate(zip(pairs, ll)):
                    scored[n].append((j, log_pd + l, p))
        self.rec = []
        n = 0
        for i, tree in enumerate(self.d.trees):
            recs = []
            for a, h in enumerate(tree.hyps):
                fac = 1.0 - h.r + h.r * self.f0
                log_miss = math.log(fac) if fac > 0.0 else NEG_INF
                r_miss = h.r * self.f0 / fac if fac > 0.0 else 0.0
                rows, eta = [], []
                if h.r > 0.0:
                    rows, log_r = gated[n], math.log(h.r)
                    for j, l, p in scored[n]:
                        f = log_r + l
                        self._pairs[(i, a, (j,))] = (f, p, n)
                        eta.append((j, f - log_miss))
                    n += 1
                recs.append((log_miss, r_miss, rows, eta))
            self.rec.append(recs)

    def _precompute_own_point(self):
        """Point model: the new-track column ``own_col`` (log weight of the
        track born from each measurement) and its target part ``_own_l``."""
        m = self.m
        sensor = self.model.sensor
        if m == 0 or not self._ppp_comps or sensor.pd == 0.0:
            self._own_l = [NEG_INF] * m
        else:
            lws = np.array([lw for lw, _ in self._ppp_comps])[:, None] + math.log(sensor.pd)
            self._own_comps = [c for _, c in self._ppp_comps]
            self._own_rows = lws + predicted_measurement_loglik(self._own_comps, sensor, self.Z)
            self._own_l = logsumexp(self._own_rows, axis=0).tolist()
        self.own_col = list(self._own_l)
        if self.log_lam is not None:
            self.own_col = [
                float(np.logaddexp(lam, l)) for lam, l in zip(self.log_lam, self._own_l)
            ]

    def det_info(self, i, a, cell):
        """Detection factor and posterior for tree i, hypothesis a and a cell
        (tuple of measurement indices)."""
        key = (i, a, cell)
        out = self._det.get(key)
        if out is None:
            h = self.d.trees[i].hyps[a]
            pair = self._pairs.get(key)
            if pair is not None:
                fac, p, n = pair
                means, covs = self._post
                out = (fac, GaussianDensity._trusted(means[p], covs[n]))
            elif h.r == 0.0:
                out = (NEG_INF, None)
            else:
                ll, post = self.model.detection_update(h.density, self.Z[list(cell)])
                fac = math.log(h.r) + ll if ll > NEG_INF and h.r > 0 else NEG_INF
                out = (fac, post)
            self._det[key] = out
        return out

    # -- new tracks from the PPP intensity --------------------------------

    def own_weight(self, cell):
        """Total log weight of the potential track born from measurement
        cell (tuple of indices)."""
        return self.own_col[cell[0]] if self.point else self._own_general(cell)[0]

    def own_tracks(self, cells):
        """Existence and moment-matched density of the potential track born
        from each of ``cells``, the cells some association uses; the point
        model updates the PPP components for all of them as one stack."""
        if not self.point:
            return [self._own_track(*self._own_general(cell)) for cell in cells]
        js = sorted({j for (j,) in cells if self._own_l[j] > NEG_INF})
        if js:
            mask = np.zeros(self._own_rows.shape, dtype=bool)
            mask[:, js] = True
            means, covs = kalman_update_gated(self._own_comps, self.model.sensor, self.Z, mask)
            means = means.reshape(len(covs), len(js), -1)  # pairs are row-major
        col = {j: k for k, j in enumerate(js)}
        out = []
        for (j,) in cells:
            if j not in col:
                out.append((0.0, None))
                continue
            comps = [GaussianDensity._trusted(mu, cov) for mu, cov in zip(means[:, col[j]], covs)]
            out.append(self._own_track(self.own_col[j], self._own_l[j], self._own_rows[:, j], comps))
        return out

    @staticmethod
    def _own_track(log_w, log_l, lws, comps):
        """(existence, density) of a new track from its weight, its target
        likelihood and its components' log weights and posteriors."""
        if log_w == NEG_INF or log_l == NEG_INF:
            return 0.0, None
        return math.exp(log_l - log_w), moment_match(np.array(lws) - log_l, comps)

    def _own_general(self, cell):
        """General model: (log weight, log target likelihood, log weights and
        posteriors of the PPP components that can explain ``cell``) of
        ``cell``, once per scan."""
        out = self._own.get(cell)
        if out is None:
            lws, comps = [], []
            for lw, c in self._ppp_comps:
                ll, post = self.model.detection_update(c, self.Z[list(cell)])
                if ll > NEG_INF:
                    lws.append(lw + ll)
                    comps.append(post)
            log_l = float(logsumexp(lws)) if lws else NEG_INF
            log_w = log_l
            if self.log_lam is not None and len(cell) == 1:
                log_w = float(np.logaddexp(self.log_lam[cell[0]], log_l))
            out = self._own[cell] = (log_w, log_l, lws, comps)
        return out


def _enumerate_labelings(ws, g, g_idx, locs):
    """Exhaustive association of predicted global hypothesis ``g`` with the
    records ``locs``, for what an association problem cannot express: the
    general model, several clutter sources, a point hypothesis that cannot
    miss.  Each measurement is labelled a clutter source, a tree that gates
    it or a new track; past ``exhaustive_limit`` labelings (times
    Bell(min(m, 20)) for the general model) this refuses.

    Yields (g_idx, (src_cells, detected, own_cells), log_w): cells are tuples
    of 0-based measurement indices, ``detected`` the (tree, cell) pairs of
    the trees that detect, log_w the weight of ``g`` times the scan factor.
    """
    n_src, cap = len(ws.sources), ws.model.max_subset
    # The gate only shortlists: ``assemble`` evaluates the factor of each full
    # cell and drops labelings whose weight is zero.
    options = [[("c", s) for s in range(n_src)] for _ in range(ws.m)]
    for i, loc in enumerate(locs):
        for j in loc[2]:
            options[j].append(("t", i))
    for row in options:
        row.append(("own",))
    size = math.prod(len(row) for row in options)
    if not ws.point:
        size *= bell(min(ws.m, 20))
    if size > ws.cfg.exhaustive_limit:
        if not ws.point:
            raise SizeLimitError(
                "general-model updates support exhaustive association only; "
                "raise exhaustive_limit or reduce the scan"
            )
        if n_src > 1:
            raise SizeLimitError("multi-source association spaces must fit the exhaustive limit")
        raise NumericalError(
            "a predicted hypothesis cannot miss; sampled association requires positive miss weights"
        )

    def assemble(labels):
        src_cells = [[] for _ in range(n_src)]
        tree_cells = {}
        own_pool = []
        for j, lab in enumerate(labels):
            if lab[0] == "c":
                src_cells[lab[1]].append(j)
            elif lab[0] == "t":
                tree_cells.setdefault(lab[1], []).append(j)
            else:
                own_pool.append(j)
        base = 0.0
        for s in range(n_src):
            base += ws.src[s](tuple(src_cells[s]))
            if base == NEG_INF:
                return
        detected = []
        for i, a in enumerate(g.berns):
            cell = tuple(tree_cells.get(i, ()))
            if not cell:
                base += locs[i][0]
            else:
                base += ws.det_info(i, a, cell)[0]
                detected.append((i, cell))
            if base == NEG_INF:
                return
        for part in _subset_partitions(tuple(own_pool), cap):
            split = tuple(sorted(tuple(sorted(cell)) for cell in part))
            w = base
            for cell in split:
                w += ws.own_weight(cell)
                if w == NEG_INF:
                    break
            if w > NEG_INF:
                yield g_idx, (tuple(tuple(c) for c in src_cells), tuple(detected), split), g.log_w + w

    # itertools.product keeps the first row outermost.
    for labels in itertools.product(*options):
        yield from assemble(labels)


def _point_associations(ws, g, g_idx, locs, seed):
    """Associations of one predicted global hypothesis under the point model
    with at most one clutter column, whose local hypotheses have the records
    ``locs`` and can all miss: every vector of positive weight of its
    association problem when its candidate product is at most
    ``exhaustive_limit``, else Gibbs samples of it.  Yields (g_idx, vector,
    log_w), log_w the hypothesis weight, the miss sum and its problem
    weight."""
    miss_base = 0.0
    for loc in locs:
        miss_base += loc[0]
    problem = AssociationProblem([loc[3] for loc in locs], ws.own_col, ws.cache)
    if candidate_count(problem) > ws.cfg.exhaustive_limit:
        w_norm = math.exp(min(g.log_w, 0.0))
        sweeps = max(1, math.ceil(ws.cfg.max_global_hyps * w_norm))
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, ws.k, g_idx))))
        vectors = ((gamma, lw) for gamma, lw, _ in run_gibbs(problem, sweeps, rng))
    else:
        vectors = candidate_product(problem)
    for gamma, lw in vectors:
        yield g_idx, gamma, g.log_w + miss_base + lw


def _fallback_association(ws):
    """All measurements to clutter (or to their own tracks when there is no
    clutter tree), attached to the best predicted global hypothesis."""
    d, all_j = ws.d, tuple(range(ws.m))
    g_idx = max(range(len(d.globals_)), key=lambda i: d.globals_[i].log_w)
    if ws.sources:
        return (g_idx, ((all_j,) + ((),) * (len(ws.sources) - 1), (), ()), 0.0)
    return (g_idx, ((), (), tuple((j,) for j in all_j)), 0.0)


def _cut(log_w, cfg: FilterConfig):
    """The global-hypothesis cut of ``update`` and ``reduce``: of weights
    ``log_w`` normalized over all, sorted stably by descending value, keep
    those of at least ``mbm_prune`` (else the best), at most
    ``max_global_hyps``.  Returns the kept indices, in that order, and their
    weights renormalized over them."""
    if not len(log_w):
        raise ConfigurationError("cannot reduce an empty hypothesis set")
    x = np.asarray(log_w, dtype=float) - logsumexp(log_w)
    xs = x.tolist()
    order = sorted(range(len(xs)), key=lambda i: -xs[i])
    thr = math.log(cfg.mbm_prune) if cfg.mbm_prune > 0.0 else NEG_INF
    keep = ([i for i in order if xs[i] >= thr] or order[:1])[: cfg.max_global_hyps]
    kept = x[keep]
    return keep, kept - logsumexp(kept)


def _assemble(ws, assoc, vectors):
    """The posterior the cut keeps: only the associations ``_cut`` keeps
    are decoded into cells and built, in association order, and they are
    emitted in cut order."""
    d, k, m, n, n_src = ws.d, ws.k, ws.m, ws.n, len(ws.sources)
    keep, log_w = _cut([item[2] for item in assoc], ws.cfg)
    built = sorted(keep)
    cells = {}  # association index -> (src_cells, detected, own_cells)
    for x in built:
        g_idx, a, _ = assoc[x]
        if g_idx in vectors:  # a point vector: 0 is clutter, 1..n a tree, above n a new track
            src = (tuple(j for j, v in enumerate(a) if v == 0),) if n_src else ()
            detected = tuple((v - 1, (j,)) for j, v in enumerate(a) if 1 <= v <= n)
            a = src, detected, tuple((j,) for j, v in enumerate(a) if v > n)
        cells[x] = a
    # Deterministic ordering for measurement-born trees.
    own_keys = sorted({cell for c in cells.values() for cell in c[2]})
    own_index = {cell: n + rank for rank, cell in enumerate(own_keys)}

    new_trees = []
    for cell, (r, dens) in zip(own_keys, ws.own_tracks(own_keys)):
        pairs = frozenset(MeasurementPair(k, j + 1) for j in cell)
        hyps = [
            LocalHypothesis(0.0, 0.0, None, frozenset()),
            LocalHypothesis(ws.own_weight(cell), r, dens, pairs),
        ]
        new_trees.append(BernoulliTree(hyps, ("meas", k, tuple(j + 1 for j in cell))))

    upd_trees = [BernoulliTree([], t.origin) for t in d.trees] + new_trees
    upd_ctrees = [ClutterTree([]) for _ in range(n_src)]
    children: dict = {}

    def child(clutter, i, a, cell):
        """Index of the child that local hypothesis a of predicted clutter
        tree (``clutter``) or Bernoulli tree i gets when it takes ``cell``
        (() is a miss), appended to the updated tree at its first use."""
        key = (clutter, i, a, cell)
        idx = children.get(key)
        if idx is not None:
            return idx
        parent = (d.clutter_trees if clutter else d.trees)[i].hyps[a]
        pairs = parent.pairs | {MeasurementPair(k, j + 1) for j in cell} if cell else parent.pairs
        if clutter:
            hyp = ClutterLocalHypothesis(parent.log_w + ws.src[i](cell), pairs, a)
        elif cell:
            fac, post = ws.det_info(i, a, cell)
            hyp = LocalHypothesis(parent.log_w + fac, 1.0, post, pairs, a)
        else:
            log_miss, r_miss = ws.rec[i][a][:2]
            dens = parent.density if r_miss > 0.0 else None
            hyp = LocalHypothesis(parent.log_w + log_miss, r_miss, dens, pairs, a)
        hyps = (upd_ctrees if clutter else upd_trees)[i].hyps
        hyps.append(hyp)
        idx = children[key] = len(hyps) - 1
        return idx

    # The kept associations of one predicted global hypothesis are adjacent.
    # At its first, every tree none of them detects takes its miss child,
    # once; each association then patches only the trees some of them detect.
    selections = {}  # association index -> (clutter selection, Bernoulli selection)
    for g_idx, xs in itertools.groupby(built, key=lambda x: assoc[x][0]):
        xs = list(xs)
        g = d.globals_[g_idx]
        patched = {i for x in xs for i, _ in cells[x][1]}
        base = [0] * len(upd_trees)
        for i in set(range(n)) - patched:
            base[i] = child(False, i, g.berns[i], ())
        for x in xs:
            src_cells, detected, own_cells = cells[x]
            clutter_sel = tuple(child(True, s, g.clutter[s], src_cells[s]) for s in range(n_src))
            bern_sel = list(base)
            tree_cells = dict(detected)
            for i in patched:
                bern_sel[i] = child(False, i, g.berns[i], tree_cells.get(i, ()))
            for cell in own_cells:
                bern_sel[own_index[cell]] = 1
            selections[x] = (clutter_sel, tuple(bern_sel))
    globals_ = [GlobalHypothesis(lw, *selections[x]) for x, lw in zip(keep, log_w.tolist())]

    universe = d.universe | {MeasurementPair(k, j + 1) for j in range(m)}
    return PmbmDensity(d.ppp.scaled(ws.log_f0), upd_trees, upd_ctrees, globals_, universe, k)


def project_to_pmb(d: PmbmDensity) -> PmbmDensity:
    """Collapse the MBM onto a single global hypothesis.

    Per tree: marginal existence is the weight-averaged existence and the
    density is the moment-matched mixture over hypotheses; measurement-pair
    bookkeeping is inherited from the highest-weight global hypothesis so
    the partition structure stays exact.
    """
    if not d.globals_:
        raise ConfigurationError("cannot project an empty hypothesis set")
    best = max(range(len(d.globals_)), key=lambda i: d.globals_[i].log_w)
    g_best = d.globals_[best]
    weights = np.exp(np.array([g.log_w for g in d.globals_]))
    trees = []
    for i, tree in enumerate(d.trees):
        by_hyp: dict[int, float] = {}
        for g, w in zip(d.globals_, weights):
            a = g.berns[i]
            by_hyp[a] = by_hyp.get(a, 0.0) + w
        r_bar = sum(w * tree.hyps[a].r for a, w in by_hyp.items())
        r_bar = min(r_bar, 1.0)
        pairs = tree.hyps[g_best.berns[i]].pairs
        if r_bar > 0.0:
            comps, lws = [], []
            for a, w in by_hyp.items():
                h = tree.hyps[a]
                if h.r > 0.0 and w > 0.0:
                    comps.append(h.density)
                    lws.append(math.log(w * h.r))
            dens = moment_match(np.array(lws) - math.log(r_bar), comps)
            hyp = LocalHypothesis(0.0, r_bar, dens, pairs)
        else:
            hyp = LocalHypothesis(0.0, 0.0, None, pairs)
        trees.append(BernoulliTree([hyp], tree.origin))
    ctrees = [
        ClutterTree([ClutterLocalHypothesis(0.0, tree.hyps[g_best.clutter[s]].pairs)])
        for s, tree in enumerate(d.clutter_trees)
    ]
    globals_ = [GlobalHypothesis(0.0, (0,) * len(ctrees), (0,) * len(trees))]
    return PmbmDensity(d.ppp, trees, ctrees, globals_, d.universe, d.step)


def reduce(d: PmbmDensity, cfg: FilterConfig) -> PmbmDensity:
    """Apply the global-hypothesis cut, prune unreferenced local
    hypotheses, weak trees and weak PPP components, and merge global
    hypotheses that became equal; renormalize.  The cut keeps ``update``'s
    output whole, and the kept weights enter the merge as they are."""
    globals_ = [d.globals_[i] for i in _cut([g.log_w for g in d.globals_], cfg)[0]]

    # Local hypotheses some surviving global references, per tree.  A tree
    # whose best used existence is below threshold goes, and its measurement
    # pairs are erased everywhere to keep partitions exact.
    used = [sorted({g.berns[i] for g in globals_}) for i in range(len(d.trees))]
    cused = [sorted({g.clutter[s] for g in globals_}) for s in range(len(d.clutter_trees))]
    kept, erased = [], set()
    for i, tree in enumerate(d.trees):
        hyps = [tree.hyps[a] for a in used[i]]
        if max(h.r for h in hyps) < cfg.bern_prune:
            erased.update(p for h in hyps for p in h.pairs)
        else:
            kept.append(i)

    def strip(h):
        return replace(h, pairs=h.pairs - erased) if h.pairs & erased else h

    trees = [
        BernoulliTree([strip(d.trees[i].hyps[a]) for a in used[i]], d.trees[i].origin)
        for i in kept
    ]
    ctrees = [
        ClutterTree([strip(tree.hyps[a]) for a in cused[s]])
        for s, tree in enumerate(d.clutter_trees)
    ]
    maps = [{a: x for x, a in enumerate(u)} for u in used]
    cmaps = [{a: x for x, a in enumerate(u)} for u in cused]

    # Removing tree columns can make hypotheses indistinguishable: merge.
    merged: dict[tuple, float] = {}
    for g in globals_:
        key = (
            tuple(cmaps[s][a] for s, a in enumerate(g.clutter)),
            tuple(maps[i][g.berns[i]] for i in kept),
        )
        merged[key] = float(np.logaddexp(merged[key], g.log_w)) if key in merged else g.log_w
    logs = np.array(list(merged.values()))
    logs = logs - logsumexp(logs)
    globals_ = [GlobalHypothesis(float(lw), c, b) for (c, b), lw in zip(merged, logs)]

    ppp = d.ppp.pruned(math.log(cfg.ppp_prune))
    return PmbmDensity(ppp, trees, ctrees, globals_, d.universe - erased, d.step)


def estimate(d: PmbmDensity, method: str = "map-cardinality", threshold: float = 0.4):
    """Extract target state means.

    ``existence-threshold``: existence thresholding inside the best global
    hypothesis.  ``map-cardinality``: maximize over (global hypothesis,
    subset of its Bernoullis) of the deterministic-cardinality score
    w * prod(r in subset) * prod(1-r outside); the optimal subset per
    hypothesis keeps exactly the Bernoullis with r > 1/2.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ConfigurationError(f"existence threshold must be a probability, got {threshold}")
    if not d.globals_:
        return []
    if method == "existence-threshold":
        g = d.globals_[max(range(len(d.globals_)), key=lambda i: d.globals_[i].log_w)]
        return [
            d.trees[i].hyps[a].density.mean
            for i, a in enumerate(g.berns)
            if d.trees[i].hyps[a].r > threshold
        ]
    if method != "map-cardinality":
        raise ConfigurationError(f"unknown estimator: {method}")
    best_score, best_sel = NEG_INF, []
    for g in d.globals_:
        score = g.log_w
        sel = []
        for i, a in enumerate(g.berns):
            h = d.trees[i].hyps[a]
            if h.r > 0.5:
                score += math.log(h.r)
                sel.append(h.density.mean)
            elif h.r > 0.0:
                score += math.log1p(-h.r)
        if score > best_score:
            best_score, best_sel = score, sel
    return best_sel
