"""Brute-force reference computations for verifying the filter.

Everything here re-derives posterior quantities by direct enumeration of
joint explanations (which measurements came from which source, track, or
new target), sharing only the Gaussian/set-density primitives with the
filter.  The association bookkeeping, weight products and posterior
assembly are implemented from scratch so agreement is meaningful.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .clutter import (
    ClutterCache,
    ClutterSource,
    CompositeClutter,
    IidClusterClutter,
    PoissonCardinality,
    PoissonClutter,
    Region,
    nb_from_mean_dispersion,
)
from .densities import GaussianDensity, GaussianMixture, LinearGaussianSensor, as_scan, logsumexp
from .densities import moment_match
from .errors import ConfigurationError
from .filtering import FilterConfig, PmbmDensity, update
from .gibbs import AssociationProblem, assoc_log_weight, enumerate_associations, gibbs_conditional, run_gibbs
from .hypotheses import BernoulliTree, ClutterTree, GlobalHypothesis, LocalHypothesis, ClutterLocalHypothesis
from .measmodel import ExtendedTargetModel, PointTargetModel

NEG_INF = float("-inf")

# The cut that keeps every association: an enumerated update under it is the
# exact posterior (sampled problems would draw sweeps in proportion to its cap).
KEEP_ALL = FilterConfig(mbm_prune=0.0, max_global_hyps=10**9)


# ---------------------------------------------------------------------------
# Joint enumeration


def _partitions(items):
    if not items:
        yield ()
        return
    head, rest = items[0], items[1:]
    for part in _partitions(rest):
        yield ((head,),) + part
        for i, cell in enumerate(part):
            yield part[:i] + ((head,) + cell,) + part[i + 1 :]


def _canonical_split(part):
    return tuple(sorted(tuple(sorted(cell)) for cell in part))


@dataclass
class Explanation:
    """One joint posterior hypothesis produced by brute force."""

    log_w: float  # unnormalized, then normalized in place
    tree_state: tuple  # per original tree: (hyp_log_w, r, mean or None, cov or None)
    own_state: dict  # cell -> (log_w, r, mean or None, cov or None)


def _set_loglik(model, Z_cell, dens):
    """log <p, f(W|.)> for one Gaussian, straight from the model."""
    ll, _ = model.detection_update(dens, Z_cell)
    return ll


def brute_force_update(d: PmbmDensity, Z, model, sources, ppp_c):
    """Exhaustive joint update: returns {key: Explanation} with normalized
    log weights.

    The key identifies one posterior global hypothesis: which predicted
    local hypotheses were extended and with which measurement cells:
    ((clutter parents), (tree parents), (source cells), (tree cells),
    (own cells sorted)).  Measurement indices are 0-based.
    """
    Z = as_scan(Z, model.sensor.meas_dim)
    m = Z.shape[0]
    n = len(d.trees)
    n_src = len(sources)
    point = model.max_subset == 1
    log_f0 = model.log_f_empty()
    f0 = math.exp(log_f0) if log_f0 > NEG_INF else 0.0
    log_lam = ppp_c.log_intensity(Z) if ppp_c is not None else None
    ppp = [(lw, c) for lw, c in zip(d.ppp.log_w, d.ppp.comps) if lw > NEG_INF]

    def own_cell(cell):
        cell_l = list(cell)
        terms = [lw + _set_loglik(model, Z[cell_l], c) for lw, c in ppp]
        terms = [t for t in terms if t > NEG_INF]
        log_l = float(logsumexp(terms)) if terms else NEG_INF
        log_w = log_l
        if log_lam is not None and len(cell) == 1:
            log_w = float(np.logaddexp(log_lam[cell[0]], log_l))
        if log_l == NEG_INF:
            return log_w, 0.0, None, None
        r = math.exp(log_l - log_w)
        comps, lws = [], []
        for lw, c in ppp:
            ll, post = model.detection_update(c, Z[cell_l])
            if ll > NEG_INF:
                comps.append(post)
                lws.append(lw + ll)
        dens = moment_match(np.array(lws) - log_l, comps)
        return log_w, r, dens.mean, dens.cov

    own_cache = {}

    def own_cached(cell):
        if cell not in own_cache:
            own_cache[cell] = own_cell(cell)
        return own_cache[cell]

    out = {}
    for g in d.globals_:
        if g.log_w == NEG_INF:
            continue
        cl_parents = tuple(g.clutter) if d.clutter_trees else (0,) * n_src
        labels = []

        def expand(j):
            if j == m:
                _emit(tuple(labels))
                return
            for s in range(n_src):
                labels.append(("src", s))
                expand(j + 1)
                labels.pop()
            for i in range(n):
                if point and ("tree", i) in labels:
                    continue
                labels.append(("tree", i))
                expand(j + 1)
                labels.pop()
            labels.append(("own",))
            expand(j + 1)
            labels.pop()

        def _emit(lab):
            src_cells = tuple(
                tuple(j for j in range(m) if lab[j] == ("src", s)) for s in range(n_src)
            )
            tree_cells = tuple(
                tuple(j for j in range(m) if lab[j] == ("tree", i)) for i in range(n)
            )
            pool = tuple(j for j in range(m) if lab[j] == ("own",))
            base = g.log_w
            for s in range(n_src):
                base += float(sources[s].log_density(Z[list(src_cells[s])]))
                if base == NEG_INF and m > 0:
                    return
            tree_state = []
            for i in range(n):
                a = g.berns[i]
                h = d.trees[i].hyps[a]
                cell = tree_cells[i]
                if not cell:
                    fac_lin = 1.0 - h.r + h.r * f0
                    fac = math.log(fac_lin) if fac_lin > 0.0 else NEG_INF
                    r_new = h.r * f0 / fac_lin if fac_lin > 0.0 else 0.0
                    mean = h.density.mean if (r_new > 0.0 and h.density is not None) else None
                    cov = h.density.cov if mean is not None else None
                    tree_state.append((h.log_w + fac, r_new, mean, cov))
                else:
                    if h.r == 0.0:
                        return
                    ll, post = model.detection_update(h.density, Z[list(cell)])
                    if ll == NEG_INF:
                        return
                    fac = math.log(h.r) + ll
                    tree_state.append((h.log_w + fac, 1.0, post.mean, post.cov))
                base += tree_state[-1][0] - h.log_w
                if base == NEG_INF and m > 0:
                    return
            if point:
                splits = [tuple((j,) for j in pool)]
            else:
                splits = {_canonical_split(p) for p in _partitions(pool)}
            for split in sorted(splits):
                w = base
                own_state = {}
                for cell in split:
                    ow, r, mean, cov = own_cached(cell)
                    w += ow
                    own_state[cell] = (ow, r, mean, cov)
                    if w == NEG_INF:
                        break
                if w == NEG_INF and m > 0:
                    continue
                key = (cl_parents, tuple(g.berns), src_cells, tree_cells, split)
                if key in out:
                    raise ConfigurationError("duplicate explanation during enumeration")
                out[key] = Explanation(w, tuple(tree_state), own_state)

        if m == 0:
            _emit(())
        else:
            expand(0)
    if not out:
        return out
    norm = logsumexp(np.array([e.log_w for e in out.values()]))
    if norm > NEG_INF:
        for e in out.values():
            e.log_w = float(e.log_w - norm)
    return out


def density_signature(post: PmbmDensity, pred: PmbmDensity, n_src: int):
    """Extract the same keyed map from an engine-produced posterior."""
    n = len(pred.trees)
    k = post.step
    out = {}
    for g in post.globals_:
        cl_parents, src_cells = [], []
        for s in range(n_src):
            h = post.clutter_trees[s].hyps[g.clutter[s]]
            parent = h.parent if pred.clutter_trees else 0
            parent_pairs = (
                pred.clutter_trees[s].hyps[h.parent].pairs if pred.clutter_trees else frozenset()
            )
            cl_parents.append(parent if pred.clutter_trees else 0)
            src_cells.append(tuple(sorted(p.j - 1 for p in h.pairs - parent_pairs)))
        tree_parents, tree_cells, tree_state = [], [], []
        for i in range(n):
            h = post.trees[i].hyps[g.berns[i]]
            parent_pairs = pred.trees[i].hyps[h.parent].pairs
            tree_parents.append(h.parent)
            tree_cells.append(tuple(sorted(p.j - 1 for p in h.pairs - parent_pairs)))
            mean = h.density.mean if h.density is not None else None
            cov = h.density.cov if h.density is not None else None
            tree_state.append((h.log_w, h.r, mean, cov))
        own_state = {}
        for t in range(n, len(post.trees)):
            if g.berns[t] == 0:
                continue
            origin = post.trees[t].origin
            if origin[0] != "meas" or origin[1] != k:
                raise ConfigurationError("unexpected surviving old tree in signature")
            cell = tuple(j - 1 for j in origin[2])
            h = post.trees[t].hyps[g.berns[t]]
            mean = h.density.mean if h.density is not None else None
            cov = h.density.cov if h.density is not None else None
            own_state[cell] = (h.log_w, h.r, mean, cov)
        key = (
            tuple(cl_parents),
            tuple(tree_parents),
            tuple(src_cells),
            tuple(tree_cells),
            tuple(sorted(own_state)),
        )
        if key in out:
            raise ConfigurationError("engine emitted duplicate global hypotheses")
        out[key] = Explanation(g.log_w, tuple(tree_state), own_state)
    return out


def _close(a, b, tol):
    if a is None and b is None:
        return True
    if a is None or b is None:
        return False
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    both_inf = np.isneginf(a) & np.isneginf(b)
    return bool(np.all(both_inf | (np.abs(a - b) <= tol)))


def compare_signatures(got, want, tol_w=1e-8, tol=1e-9):
    """Compare engine and brute-force maps; returns (ok, report)."""
    lines = []
    for key in sorted(set(got) | set(want), key=repr):
        if key not in got:
            lines.append(f"missing from engine: {key}")
            continue
        if key not in want:
            lines.append(f"extra in engine: {key}")
            continue
        a, b = got[key], want[key]
        if not _close(a.log_w, b.log_w, tol_w):
            lines.append(f"log weight mismatch at {key}: {a.log_w} vs {b.log_w}")
        for i, (sa, sb) in enumerate(zip(a.tree_state, b.tree_state)):
            if not _close(sa[0], sb[0], tol_w):
                lines.append(f"tree {i} hyp log weight mismatch at {key}")
            if not _close(sa[1], sb[1], tol):
                lines.append(f"tree {i} existence mismatch at {key}: {sa[1]} vs {sb[1]}")
            if not _close(sa[2], sb[2], tol) or not _close(sa[3], sb[3], tol):
                lines.append(f"tree {i} moment mismatch at {key}")
        for cell in set(a.own_state) | set(b.own_state):
            if cell not in a.own_state or cell not in b.own_state:
                lines.append(f"new-track cell set mismatch at {key}: {cell}")
                continue
            sa, sb = a.own_state[cell], b.own_state[cell]
            if not _close(sa[0], sb[0], tol_w):
                lines.append(f"new-track log weight mismatch at {key} cell {cell}")
            if not _close(sa[1], sb[1], tol):
                lines.append(f"new-track existence mismatch at {key} cell {cell}")
            if not _close(sa[2], sb[2], tol) or not _close(sa[3], sb[3], tol):
                lines.append(f"new-track moment mismatch at {key} cell {cell}")
    return (not lines), lines


def target_marginals(d: PmbmDensity):
    """Per-tree marginal existence and existence-weighted moments.

    Returns a list of dicts keyed by tree origin, suitable for comparing
    densities whose clutter bookkeeping differs but whose target part
    should agree.
    """
    w = np.exp(np.array([g.log_w for g in d.globals_]))
    out = []
    for i, tree in enumerate(d.trees):
        r_bar = 0.0
        mean_acc = None
        sq_acc = None
        for g, wg in zip(d.globals_, w):
            h = tree.hyps[g.berns[i]]
            c = wg * h.r
            r_bar += c
            if c > 0.0:
                if mean_acc is None:
                    mean_acc = np.zeros(h.density.dim)
                    sq_acc = np.zeros((h.density.dim, h.density.dim))
                mean_acc = mean_acc + c * h.density.mean
                sq_acc = sq_acc + c * (h.density.cov + np.outer(h.density.mean, h.density.mean))
        rec = {"origin": tree.origin, "r": r_bar, "mean": None, "cov": None}
        if r_bar > 0.0 and mean_acc is not None:
            mean = mean_acc / r_bar
            rec["mean"] = mean
            rec["cov"] = sq_acc / r_bar - np.outer(mean, mean)
        out.append(rec)
    return out


def compare_marginals(a, b, tol=1e-9):
    """Match trees by origin and compare marginal existence and moments."""
    lines = []
    map_a = {rec["origin"]: rec for rec in a}
    map_b = {rec["origin"]: rec for rec in b}
    for origin in sorted(set(map_a) | set(map_b), key=repr):
        ra = map_a.get(origin)
        rb = map_b.get(origin)
        if ra is None or rb is None:
            missing = "first" if ra is None else "second"
            present = rb if ra is None else ra
            if present["r"] > tol:
                lines.append(f"tree {origin} missing from {missing} density with r={present['r']}")
            continue
        if abs(ra["r"] - rb["r"]) > tol:
            lines.append(f"tree {origin} marginal existence {ra['r']} vs {rb['r']}")
            continue
        if ra["r"] > 1e-12:
            if not _close(ra["mean"], rb["mean"], tol) or not _close(ra["cov"], rb["cov"], tol):
                lines.append(f"tree {origin} marginal moments differ")
    return (not lines), lines


# ---------------------------------------------------------------------------
# Randomized instances


def _random_density(rng, n, dim=2, n_clutter_trees=0):
    comps = []
    lws = []
    for _ in range(int(rng.integers(1, 3))):
        mean = rng.uniform(0.0, 10.0, dim)
        cov = np.eye(dim) * rng.uniform(0.5, 2.0)
        comps.append(GaussianDensity(mean, cov))
        lws.append(float(np.log(rng.uniform(0.2, 2.0))))
    trees = []
    for i in range(n):
        hyps = []
        for _ in range(int(rng.integers(1, 3))):
            r = float(rng.uniform(0.2, 0.95))
            dens = GaussianDensity(rng.uniform(0.0, 10.0, dim), np.eye(dim) * rng.uniform(0.5, 2.0))
            hyps.append(LocalHypothesis(float(np.log(rng.uniform(0.2, 1.0))), r, dens, frozenset()))
        trees.append(BernoulliTree(hyps, ("birth", 0, i)))
    ctrees = [ClutterTree([ClutterLocalHypothesis(0.0, frozenset())]) for _ in range(n_clutter_trees)]
    choices = [range(len(t.hyps)) for t in trees]
    combos = list(itertools.product(*choices)) if trees else [()]
    raw = rng.uniform(0.2, 1.0, len(combos))
    raw = raw / raw.sum()
    globals_ = [
        GlobalHypothesis(float(np.log(w)), (0,) * n_clutter_trees, tuple(sel))
        for w, sel in zip(raw, combos)
    ]
    return PmbmDensity(GaussianMixture(lws, comps), trees, ctrees, globals_, frozenset(), 0)


def _random_clutter(rng, kind, region):
    if kind == "ppp":
        return PoissonClutter(float(rng.uniform(1.0, 5.0)), region)
    if kind == "nb":
        return IidClusterClutter(
            nb_from_mean_dispersion(float(rng.uniform(2.0, 5.0)), float(rng.uniform(2.0, 8.0))),
            region,
        )
    if kind == "composite":
        n_src = int(rng.integers(1, 3))
        sources = tuple(
            ClutterSource(
                rng.uniform(2.0, 8.0, 2),
                float(rng.uniform(0.3, 0.9)),
                float(rng.uniform(1.0, 3.0)),
                np.eye(2) * rng.uniform(0.5, 1.5),
            )
            for _ in range(n_src)
        )
        return CompositeClutter(PoissonClutter(float(rng.uniform(0.5, 3.0)), region), sources)
    raise ConfigurationError(f"unknown clutter kind: {kind}")


def _random_model(rng, kind, dim=2):
    sensor = LinearGaussianSensor(np.eye(dim), np.eye(dim) * 0.8, float(rng.uniform(0.5, 0.95)))
    if kind == "point":
        return PointTargetModel(sensor)
    return ExtendedTargetModel(sensor, float(rng.uniform(1.0, 3.0)))


def _random_scan(rng, d, m, region):
    Z = []
    anchors = [h.density.mean for t in d.trees for h in t.hyps]
    anchors += [c.mean for c in d.ppp.comps]
    for _ in range(m):
        if anchors and rng.random() < 0.6:
            z = np.asarray(anchors[int(rng.integers(len(anchors)))]) + rng.normal(0.0, 1.0, 2)
        else:
            z = rng.uniform(region.lo, region.hi)
        Z.append(np.clip(z, region.lo + 1e-3, region.hi - 1e-3))
    return np.array(Z).reshape(m, 2)


# ---------------------------------------------------------------------------
# Check suites (used by tests and the CLI)


def _seeded(seed, **counts):
    """The generator of a check suite, under ``update``'s seed rule.  Each
    of ``counts`` (trials, sweeps) must be an integer >= 1: a suite that
    checks nothing would pass."""
    if not isinstance(seed, numbers.Integral) or isinstance(seed, bool):
        raise ConfigurationError(f"seed must be an integer >= 0, got {seed!r}")
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")
    for name, v in counts.items():
        if not isinstance(v, numbers.Integral) or isinstance(v, bool) or v < 1:
            raise ConfigurationError(f"{name} must be an integer >= 1, got {v!r}")
    return np.random.default_rng(seed)


def check_update(seed=0, trials=200):
    """Engine posterior vs brute-force joint enumeration on random small
    instances across clutter families and both measurement models."""
    rng = _seeded(seed, trials=trials)
    region = Region((-5.0, -5.0), (15.0, 15.0))
    cfg = replace(KEEP_ALL, clutter_regime="arbitrary", exhaustive_limit=10**9, gate=1e12)
    fails = []
    for t in range(trials):
        n = int(rng.integers(0, 3))
        m = int(rng.integers(0, 4))
        model_kind = "point" if t % 2 == 0 else "general"
        clutter_kind = ("ppp", "nb", "composite")[t % 3]
        d = _random_density(rng, n)
        model = _random_model(rng, model_kind)
        clutter = _random_clutter(rng, clutter_kind, region)
        Z = _random_scan(rng, d, m, region)
        post = update(d, Z, model, clutter, cfg)
        got = density_signature(post, d, 1)
        want = brute_force_update(d, Z, model, [clutter], None)
        ok, lines = compare_signatures(got, want)
        if not ok:
            fails.append(
                f"instance {t} (n={n} m={m} {model_kind}/{clutter_kind}):\n  "
                + "\n  ".join(lines[:5])
            )
    report = f"update oracle: {trials - len(fails)}/{trials} instances match"
    if fails:
        report += "\n" + "\n".join(fails[:10])
    return (not fails), report


def check_composite(seed=0, trials=60):
    """Composite update vs single-tree update with the composite set density
    (marginal agreement), plus the exact single-source reduction."""
    rng = _seeded(seed, trials=trials)
    region = Region((-5.0, -5.0), (15.0, 15.0))
    cfg2 = replace(KEEP_ALL, clutter_regime="composite", exhaustive_limit=10**9, gate=1e12)
    cfg1 = replace(cfg2, clutter_regime="arbitrary")
    fails = []
    for t in range(trials):
        n = int(rng.integers(0, 3))
        m = int(rng.integers(0, 4))
        d = _random_density(rng, n)
        model = _random_model(rng, "point")
        clutter = _random_clutter(rng, "composite", region)
        Z = _random_scan(rng, d, m, region)
        post2 = update(d, Z, model, clutter, cfg2)
        post1 = update(d, Z, model, clutter, cfg1)
        ok, lines = compare_marginals(target_marginals(post2), target_marginals(post1))
        if not ok:
            fails.append(f"marginal instance {t} (n={n} m={m}):\n  " + "\n  ".join(lines[:5]))
    # Exact reduction: one source, no PPP part.
    for t in range(trials):
        n = int(rng.integers(0, 3))
        m = int(rng.integers(0, 4))
        d = _random_density(rng, n)
        model = _random_model(rng, "point")
        src = ClutterSource(
            rng.uniform(2.0, 8.0, 2),
            float(rng.uniform(0.3, 0.9)),
            float(rng.uniform(1.0, 3.0)),
            np.eye(2) * rng.uniform(0.5, 1.5),
        )
        composite = CompositeClutter(PoissonClutter(0.0, region), (src,))
        Z = _random_scan(rng, d, m, region)
        post2 = update(d, Z, model, composite, cfg2)
        post1 = update(d, Z, model, src, cfg1)
        got = density_signature(post2, d, 1)
        want = density_signature(post1, d, 1)
        ok, lines = compare_signatures(got, want, tol_w=1e-12, tol=1e-12)
        if not ok:
            fails.append(f"reduction instance {t} (n={n} m={m}):\n  " + "\n  ".join(lines[:5]))
    report = f"composite oracle: {2 * trials - len(fails)}/{2 * trials} checks match"
    if fails:
        report += "\n" + "\n".join(fails[:10])
    return (not fails), report


def check_gibbs(seed=0, sweeps=100_000, tv_bound=0.05):
    """Sampler conditionals vs direct ratios (exact) and long-run visit
    frequencies vs exhaustive enumeration (total variation) on each sampler
    kind of problem: count table (NB), general (opaque Poisson density) and
    merged (the empty clutter process, the merged regime's column).
    ``tv_bound`` must be finite and > 0."""
    rng = _seeded(seed, sweeps=sweeps)
    if isinstance(tv_bound, bool) or not isinstance(tv_bound, numbers.Real) or not 0.0 < tv_bound < math.inf:
        raise ConfigurationError(f"tv_bound must be finite and > 0, got {tv_bound!r}")
    region = Region((-5.0, -5.0), (15.0, 15.0))
    fails = []

    def build_problem(clutter_kind, n, m):
        d = _random_density(rng, n)
        model = _random_model(rng, "point")
        empty = IidClusterClutter(PoissonCardinality(0.0), region)  # the merged regime's clutter
        clutter = _random_clutter(rng, clutter_kind, region) if clutter_kind else empty
        Z = _random_scan(rng, d, m, region)
        g = d.globals_[0]
        log_f0 = model.log_f_empty()
        f0 = math.exp(log_f0)
        eta = []
        for i in range(n):
            h = d.trees[i].hyps[g.berns[i]]
            miss = 1.0 - h.r + h.r * f0
            lls = [model.detection_update(h.density, Z[j : j + 1])[0] for j in range(m)]
            eta.append([(j, math.log(h.r) + ll - math.log(miss)) for j, ll in enumerate(lls)])
        ppp = list(zip(d.ppp.log_w, d.ppp.comps))
        own = [float(logsumexp([lw + _set_loglik(model, z, c) for lw, c in ppp])) for z in Z[:, None]]
        return AssociationProblem(eta, own, ClutterCache(clutter, Z))

    # Conditionals: every candidate mass equals the normalized direct weight.
    for t in range(40):
        kind = ("nb", "ppp", "composite")[t % 3]
        p = build_problem(kind, int(rng.integers(0, 3)), int(rng.integers(1, 4)))
        gamma = [0] * p.m
        for _ in range(3):
            q = int(rng.integers(p.m))
            dist = gibbs_conditional(p, gamma, q)
            direct = np.full(1 + p.n + p.m, NEG_INF)
            for v in range(1 + p.n + p.m):
                cand = list(gamma)
                cand[q] = v
                direct[v] = assoc_log_weight(p, cand)
            norm = logsumexp(direct)
            direct = np.exp(direct - norm)
            if not np.allclose(dist, direct, atol=1e-12):
                fails.append(f"conditional mismatch ({kind}, t={t}, q={q})")
            gamma[q] = int(rng.choice(len(dist), p=dist))
    # Long-run frequencies on fixed mid-size problems, one per branch.
    tvs = []
    for i, (kind, branch) in enumerate((("nb", "count-table"), ("ppp", "general"), (None, "merged"))):
        p = build_problem(kind, 2, 3)
        vectors, log_ws = enumerate_associations(p)
        target = {tuple(v): math.exp(lw) for v, lw in zip(vectors, log_ws)}
        counts = {g: c for g, _, c in run_gibbs(p, sweeps, np.random.default_rng(seed + 1 + i))}
        total = sum(counts.values())
        tv = 0.0
        for v, prob in target.items():
            tv += abs(prob - counts.get(v, 0) / total)
        for v in counts:
            if v not in target:
                fails.append(f"sampled vector outside the valid set: {v}")
        tv += sum(counts[v] / total for v in counts if v not in target)
        tv *= 0.5
        if tv > tv_bound:
            fails.append(f"{branch} total variation {tv:.4f} exceeds bound {tv_bound}")
        tvs.append(f"{branch} tv={tv:.4f} over {len(target)} associations")
    report = f"gibbs oracle: {', '.join(tvs)}, {len(fails)} failures"
    if fails:
        report += "\n" + "\n".join(fails[:10])
    return (not fails), report
