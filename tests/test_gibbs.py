"""Association-vector weights, exact conditionals, enumeration, and the
systematic-scan Gibbs sampler."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import logsumexp

from pmbm import gibbs
from pmbm.clutter import (
    ClutterCache,
    IidClusterClutter,
    NegBinomialCardinality,
    PoissonCardinality,
    PoissonClutter,
    Region,
    nb_from_mean_dispersion,
)
from pmbm.errors import ConfigurationError, NumericalError, SizeLimitError
from pmbm.gibbs import (
    AssociationProblem,
    _start,
    assoc_log_weight,
    enumerate_associations,
    gibbs_conditional,
    run_gibbs,
)
from pmbm.hypotheses import count_hypotheses

NEG_INF = float("-inf")
REGION10 = Region((0.0, 0.0), (10.0, 10.0))


def make_problem(table, own, clutter, Z):
    """Problem from an (m, n) table of tree log etas (-inf: not gated), the
    m new-track log weights, a clutter model (None: merged) and the scan."""
    eta = [list(enumerate(col)) for col in np.asarray(table, dtype=float).T.tolist()]
    cache = ClutterCache(clutter, np.asarray(Z, dtype=float)) if clutter is not None else None
    return AssociationProblem(eta, list(own), cache)


def small_problem(n=1, m=2, seed=0, clutter=True, region_side=10.0):
    """Random etas over a small region; clutter is NB-IID when on.  Every
    tree lists every row."""
    rng = np.random.default_rng(seed)
    region = Region((0.0, 0.0), (region_side, region_side))
    Z = region.sample(rng, m)
    table = rng.normal(size=(m, n))
    own = [rng.normal() for _ in range(m)]
    c = IidClusterClutter(nb_from_mean_dispersion(3.0, 4.0), region) if clutter else None
    return make_problem(table, own, c, Z)


def table_of(p):
    """The (m, n) tree log etas of ``p``, -inf where a tree lists no row."""
    table = np.full((p.m, p.n), NEG_INF)
    for i, pairs in enumerate(p.eta):
        for j, w in pairs:
            table[j, i] = w
    return table


class TestAssocWeight:
    def test_all_clutter_is_clutter_density(self):
        p = small_problem(n=1, m=3)
        want = p.cache.clutter.log_density(p.cache.Z)
        assert_allclose(assoc_log_weight(p, (0, 0, 0)), want, atol=1e-12)

    def test_repeated_target_invalid(self):
        p = small_problem(n=1, m=2)
        assert assoc_log_weight(p, (1, 1)) == NEG_INF

    def test_hand_computed_value(self):
        # first measurement to the track, second to its own new component
        p = small_problem(n=1, m=2)
        got = assoc_log_weight(p, (1, 3))
        want = p.eta[0][0][1] + p.own[1] + p.cache.clutter.log_density(p.cache.Z[[]])
        assert_allclose(got, want, atol=1e-12)

    def test_out_of_range_value_rejected(self):
        p = small_problem(n=1, m=2)
        with pytest.raises(ConfigurationError):
            assoc_log_weight(p, (5, 0))

    def test_wrong_length_rejected(self):
        p = small_problem(n=1, m=2)
        with pytest.raises(ConfigurationError):
            assoc_log_weight(p, (0,))


class TestConditional:
    def test_taken_target_blocked(self):
        p = small_problem(n=1, m=2)
        cond = gibbs_conditional(p, [0, 1], 0)
        assert cond[1] == 0.0

    def test_blocked_row_collapses_to_clutter(self):
        base = small_problem(n=1, m=2)
        table = table_of(base)
        table[0, :] = NEG_INF
        p = make_problem(table, [NEG_INF] + base.own[1:], base.cache.clutter, base.cache.Z)
        cond = gibbs_conditional(p, [0, 0], 0)
        assert cond[0] == 1.0

    def test_two_point_normalization_no_targets(self):
        """m=1, n=0: mass splits between clutter and the new track by the
        cardinality-ratio against the own weight."""
        p = small_problem(n=0, m=1)
        cond = gibbs_conditional(p, [0], 0)
        log_c1 = p.cache.clutter.log_density(p.cache.Z)
        log_c0 = p.cache.clutter.log_density(p.cache.Z[[]])
        w_clutter = math.exp(log_c1)
        w_own = math.exp(p.own[0] + log_c0)
        assert_allclose(cond[0], w_clutter / (w_clutter + w_own), atol=1e-12)
        assert_allclose(cond[1], w_own / (w_clutter + w_own), atol=1e-12)

    def test_matches_direct_ratio_on_random_states(self, rng):
        """The conditional must renormalize the joint over one coordinate."""
        for trial in range(20):
            p = small_problem(n=2, m=3, seed=trial)
            # valid state: positive entries never repeat
            gamma, free = [], [1, 2]
            for j in range(3):
                if free and rng.random() < 0.5:
                    gamma.append(free.pop(int(rng.integers(len(free)))))
                else:
                    gamma.append(0)
            for q in range(3):
                cond = gibbs_conditional(p, gamma, q)
                direct = np.full(cond.size, NEG_INF)
                for v in range(cond.size):
                    trial_gamma = list(gamma)
                    trial_gamma[q] = v
                    direct[v] = assoc_log_weight(p, trial_gamma)
                norm = logsumexp(direct)
                assert norm > NEG_INF
                assert_allclose(cond, np.exp(direct - norm), atol=1e-12)

    def test_fast_path_agrees_with_generic(self):
        """Uniform IID-cluster clutter has a closed-form conditional; a
        Poisson-cardinality wrapper of the same process must agree when
        evaluated generically."""
        from pmbm.clutter import PoissonCardinality, PoissonClutter

        rng = np.random.default_rng(3)
        region = Region((0.0, 0.0), (10.0, 10.0))
        Z = region.sample(rng, 3)
        table = rng.normal(size=(3, 1))
        own = [rng.normal() for _ in range(3)]
        fast = make_problem(table, own, IidClusterClutter(PoissonCardinality(2.0), region), Z)
        slow = make_problem(table, own, PoissonClutter(2.0, region), Z)
        assert fast._fast is not None and slow._fast is None
        for gamma in ([0, 0, 0], [1, 0, 4], [0, 3, 0]):
            for q in range(3):
                assert_allclose(
                    gibbs_conditional(fast, gamma, q),
                    gibbs_conditional(slow, gamma, q),
                    atol=1e-12,
                )


class TestClutterCache:
    def test_standalone_problem_evaluates_each_subset_once(self, counting_clutter):
        from pmbm.clutter import PoissonClutter

        base = small_problem(n=2, m=4, seed=5)
        counted = counting_clutter(PoissonClutter(2.0, Region((0.0, 0.0), (10.0, 10.0))))
        p = AssociationProblem(base.eta, base.own, ClutterCache(counted, base.cache.Z))
        out = run_gibbs(p, 200, np.random.default_rng(2))
        assert len(out) > 1
        assert max(counted.calls.values()) == 1
        # Weights come from the same evaluations a fresh cache makes.
        fresh = AssociationProblem(base.eta, base.own, ClutterCache(counted.inner, base.cache.Z))
        for gamma, lw, _ in out:
            assert lw == assoc_log_weight(fresh, gamma)

    def test_cache_of_another_scan_size_rejected(self):
        p = small_problem(n=1, m=3)
        other = small_problem(n=1, m=4, seed=9)
        with pytest.raises(ConfigurationError, match="another size"):
            AssociationProblem(p.eta, p.own, other.cache)
        shared = AssociationProblem(p.eta, p.own, p.cache)
        assert shared.cache is p.cache

    def test_count_table_built_once_per_cache(self):
        class CountingCard:
            def __init__(self, inner):
                self.inner, self.calls = inner, 0

            def log_pmf(self, x):
                self.calls += 1
                return self.inner.log_pmf(x)

        base = small_problem(n=2, m=4, seed=3)
        Z = base.cache.Z
        card = CountingCard(nb_from_mean_dispersion(3.0, 4.0))
        clutter = IidClusterClutter(card, REGION10)
        first = AssociationProblem(base.eta, base.own, ClutterCache(clutter, Z))
        for _ in range(5):
            p = AssociationProblem(base.eta, base.own, first.cache)
            assert p._fast is first._fast
        assert card.calls == base.m + 1
        table, inside = first.cache.count_table()
        assert inside == [True] * base.m
        for x in range(base.m + 1):
            assert table[x] == clutter.log_density(Z[:x])
        poisson = AssociationProblem(
            base.eta, base.own, ClutterCache(PoissonClutter(2.0, REGION10), Z)
        )
        assert poisson.cache.count_table() is None and poisson._fast is None

    def test_count_table_equals_set_density_on_a_long_scan(self):
        # math.lgamma and scipy's gammaln disagree in the last bit for some
        # counts (15 and 16 among them); table and density share one term.
        clutter = IidClusterClutter(nb_from_mean_dispersion(3.0, 4.0), REGION10)
        Z = REGION10.sample(np.random.default_rng(0), 16)
        table, inside = ClutterCache(clutter, Z).count_table()
        assert inside == [True] * 16
        assert table == [clutter.log_density(Z[:x]) for x in range(17)]


class TestProblemInput:
    @pytest.mark.parametrize("j", [2, -1])
    def test_row_outside_scan_rejected(self, j):
        with pytest.raises(ConfigurationError, match="outside the scan"):
            AssociationProblem([[(0, 0.1)], [(j, 0.2)]], [0.0, 0.0])

    def test_row_listed_twice_by_one_tree_rejected(self):
        with pytest.raises(ConfigurationError, match="twice"):
            AssociationProblem([[(0, NEG_INF), (1, 0.3), (0, 0.2)]], [0.0, 0.0])
        shared = AssociationProblem([[(0, 0.1)], [(0, 0.2)]], [0.0, 0.0])
        assert shared._row_cands[0] == [(1, 0.1), (2, 0.2), (3, 0.0)]

    def test_new_track_explains_only_its_own_measurement(self):
        p = small_problem(n=1, m=2)
        assert assoc_log_weight(p, (3, 0)) == NEG_INF
        assert assoc_log_weight(p, (0, 2)) == NEG_INF
        assert gibbs_conditional(p, [0, 0], 0)[3] == 0.0

    def test_unlisted_and_zero_weight_entries_are_absent(self):
        p = AssociationProblem([[(1, NEG_INF)], []], [0.25, 0.5])
        assert p._row_cands == [[(3, 0.25)], [(4, 0.5)]]
        assert assoc_log_weight(p, (3, 1)) == NEG_INF
        assert assoc_log_weight(p, (3, 4)) == 0.75


class TestEnumerate:
    def test_counts_match_point_arbitrary(self):
        assert len(enumerate_associations(small_problem(0, 3))[0]) == 8
        assert len(enumerate_associations(small_problem(4, 3))[0]) == 152
        assert len(enumerate_associations(small_problem(1, 1))[0]) == 3

    def test_counts_match_formula(self):
        for n in range(4):
            for m in range(5):
                p = small_problem(n, m, seed=n * 10 + m)
                vectors, _ = enumerate_associations(p)
                assert len(vectors) == count_hypotheses("point", "arbitrary", n, m)

    def test_merged_counts_match_ppp_formula(self):
        # no clutter column: every measurement is a track or its own new one
        for n in range(3):
            for m in range(4):
                p = small_problem(n, m, clutter=False)
                vectors, _ = enumerate_associations(p)
                assert len(vectors) == count_hypotheses("point", "ppp", n, m)

    def test_weights_normalized(self):
        _, log_w = enumerate_associations(small_problem(2, 3))
        assert_allclose(logsumexp(log_w), 0.0, atol=1e-12)

    def test_all_vectors_valid(self):
        vectors, _ = enumerate_associations(small_problem(2, 3))
        for gamma in vectors:
            positive = [v for v in gamma if v > 0]
            assert len(positive) == len(set(positive))

    def test_guard_reads_the_candidate_product(self):
        # Three trees and an own track on each of 10 rows, no clutter column:
        # 4**10 candidate vectors, past the guard.
        assert 4**10 > gibbs._ENUM_GUARD
        wide = AssociationProblem([[(j, 0.0) for j in range(10)]] * 3, [0.0] * 10)
        with pytest.raises(SizeLimitError, match=str(4**10)):
            enumerate_associations(wide)
        # 30 rows that only clutter can take: one vector, however large m.
        Z = REGION10.sample(np.random.default_rng(0), 30)
        p = make_problem(np.zeros((30, 0)), [NEG_INF] * 30, PoissonClutter(3.0, REGION10), Z)
        vectors, log_w = enumerate_associations(p)
        assert vectors == [(0,) * 30] and log_w.tolist() == [0.0]


class TestRunGibbs:
    def test_empty_scan(self):
        p = small_problem(1, 0)
        out = run_gibbs(p, 5, np.random.default_rng(0))
        assert out == [((), p.cache.clutter.log_density(p.cache.Z), 5)]

    def test_deterministic_given_seed(self):
        p = small_problem(2, 3)
        a = run_gibbs(p, 200, np.random.default_rng(11))
        b = run_gibbs(p, 200, np.random.default_rng(11))
        assert a == b

    def test_single_sweep_contract(self):
        p = small_problem(1, 2)
        out = run_gibbs(p, 1, np.random.default_rng(5))
        assert len(out) == 1
        gamma, log_w, visits = out[0]
        assert len(gamma) == 2
        assert log_w == assoc_log_weight(p, gamma)
        assert visits == 1

    def test_all_vectors_in_gamma(self):
        p = small_problem(2, 3)
        for gamma, _, _ in run_gibbs(p, 500, np.random.default_rng(2)):
            positive = [v for v in gamma if v > 0]
            assert len(positive) == len(set(positive))

    def test_merged_problem_never_emits_clutter(self):
        p = small_problem(1, 2, clutter=False)
        for gamma, _, _ in run_gibbs(p, 200, np.random.default_rng(7)):
            assert 0 not in gamma

    def test_visit_frequencies_approach_enumeration(self):
        """On a small problem the sweep-visit distribution converges to the
        normalized joint."""
        p = small_problem(1, 2, seed=42)
        vectors, log_w = enumerate_associations(p)
        want = {g: math.exp(lw) for g, lw in zip(vectors, log_w)}
        counts = {g: c for g, _, c in run_gibbs(p, 40_000, np.random.default_rng(9))}
        total = sum(counts.values())
        assert total == 40_000
        tv = 0.5 * sum(
            abs(counts.get(g, 0) / total - w) for g, w in want.items()
        )
        tv += 0.5 * sum(counts[g] / total for g in counts if g not in want)
        assert tv < 0.05

    def test_invalid_sweep_count(self):
        with pytest.raises(ConfigurationError):
            run_gibbs(small_problem(1, 1), 0, np.random.default_rng(0))


def _problem_for_branch(branch, seed):
    """A 3-track, 5-measurement problem with a count table, an opaque
    clutter density (general) or no clutter column (merged)."""
    base = small_problem(n=3, m=5, seed=seed, clutter=branch != "merged")
    if branch == "general":
        cache = ClutterCache(PoissonClutter(3.0, REGION10), base.cache.Z)
        return AssociationProblem(base.eta, base.own, cache)
    return base


def _replay(p, sweeps, seed, visits=None):
    """Unique states of ``sweeps`` sweeps drawn coordinate by coordinate
    from ``gibbs_conditional`` by inverse CDF, with the sampler's start and
    the uniforms run_gibbs reads, in first-visit order.  ``visits``, if
    given, collects (q, state) before every draw."""
    gamma = _start(p)
    if gamma is None:
        return []
    seen = {}
    for urow in np.random.default_rng(seed).random((sweeps, p.m)):
        for q, u in enumerate(urow):
            if visits is not None:
                visits.append((q, tuple(gamma)))
            cdf = np.cumsum(gibbs_conditional(p, gamma, q))
            gamma[q] = int(np.searchsorted(cdf, u * cdf[-1], side="right"))
        seen.setdefault(tuple(gamma), None)
    return list(seen)


def _dependency_key(p, q, gamma):
    """What the conditional of coordinate q depends on: which of row q's
    candidate trees the other coordinates take, and their clutter count
    (count table) or clutter set (opaque density)."""
    others = [v for j, v in enumerate(gamma) if j != q]
    taken = frozenset(v for v, _ in p._row_cands[q] if v <= p.n and v in others)
    clutter = frozenset(j for j, v in enumerate(gamma) if j != q and v == 0)
    return q, taken, len(clutter) if p._fast is not None else clutter


class TestSamplerRunsCheckedConditional:
    @pytest.mark.parametrize("branch", ["count-table", "general", "merged"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_sweeps_replay_through_conditional(self, branch, seed):
        p = _problem_for_branch(branch, seed)
        assert (p._fast is None) == (branch == "general")
        assert (p.cache is None) == (branch == "merged")
        if branch == "merged":
            # No clutter column: the count table of the empty clutter process.
            assert p._fast == ([0.0] + [NEG_INF] * p.m, [True] * p.m)
        got = [g for g, _, _ in run_gibbs(p, 40, np.random.default_rng(seed))]
        assert len(got) > 1
        assert got == _replay(p, 40, seed)

    @pytest.mark.parametrize("branch", ["count-table", "general", "merged"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_conditional_built_once_per_dependency_key(self, branch, seed, monkeypatch):
        """run_gibbs builds a conditional exactly once for each distinct key
        of what it depends on along the trajectory: fewer builds would reuse
        one across states it differs on, more would rebuild one it has."""
        p = _problem_for_branch(branch, seed)
        calls, inner = [], gibbs._candidates

        def counting(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(gibbs, "_candidates", counting)
        run_gibbs(p, 40, np.random.default_rng(seed))
        monkeypatch.undo()
        visits = []
        _replay(p, 40, seed, visits)
        keys = {_dependency_key(p, q, gamma) for q, gamma in visits}
        assert len(keys) < len(visits) // 2
        assert len(calls) == len(keys)


REGION_OUT = Region((2.0, 2.0), (8.0, 8.0))


@st.composite
def problems(draw, max_m=6):
    """Small problems on every sampler branch, with -inf eta entries and
    measurements outside the clutter region."""
    branch = draw(st.sampled_from(["count-table", "general", "merged"]))
    n, m = draw(st.integers(0, 3)), draw(st.integers(1, max_m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    eta = np.where(rng.random((m, n)) < draw(st.sampled_from([0.0, 0.4])), NEG_INF,
                   rng.normal(size=(m, n)))
    own = np.where(rng.random(m) < draw(st.sampled_from([0.0, 0.3])), NEG_INF, rng.normal(size=m))
    Z = rng.uniform(0.0, 10.0, (m, 2))
    clutter = {
        "count-table": IidClusterClutter(nb_from_mean_dispersion(3.0, 4.0), REGION_OUT),
        "general": PoissonClutter(draw(st.sampled_from([0.0, 3.0])), REGION_OUT),
        "merged": None,
    }[branch]
    return make_problem(eta, own.tolist(), clutter, Z)


class TestSamplerProperties:
    @given(p=problems(), sweeps=st.integers(1, 25), seed=st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_run_gibbs_replays_through_conditional(self, p, sweeps, seed):
        try:
            got = run_gibbs(p, sweeps, np.random.default_rng(seed))
        except NumericalError:
            with pytest.raises(NumericalError):
                _replay(p, sweeps, seed)
            return
        assert [g for g, _, _ in got] == _replay(p, sweeps, seed)
        assert all(lw > NEG_INF for _, lw, _ in got)
        assert sum(c for _, _, c in got) == (sweeps if got else 0)


def _brute_force(p):
    """Every vector of range(n+m+1)^m in lexicographic order with its raw
    log weight, read from ``p.eta``, ``p.own`` and the clutter model alone;
    a problem without a clutter column takes no clutter."""
    n, m = p.n, p.m
    eta = [dict(pairs) for pairs in p.eta]
    clutter = {}
    out = []
    for gamma in itertools.product(range(n + m + 1), repeat=m):
        trees = [v for v in gamma if 1 <= v <= n]
        if len(trees) > len(set(trees)):
            continue
        w = 0.0
        for j, v in enumerate(gamma):
            if 1 <= v <= n:
                w += eta[v - 1].get(j, NEG_INF)
            elif v == n + j + 1:
                w += p.own[j]
            elif v:
                w = NEG_INF
        cell = tuple(j for j, v in enumerate(gamma) if v == 0)
        if p.cache is None:
            w += NEG_INF if cell else 0.0
        else:
            if cell not in clutter:
                clutter[cell] = p.cache.clutter.log_density(p.cache.Z[list(cell)])
            w += clutter[cell]
        out.append((gamma, w))
    return out


class TestEnumerationProperties:
    @given(p=problems(max_m=4), seed=st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_enumeration_is_the_positive_weight_set(self, p, seed):
        raw = {g: w for g, w in _brute_force(p) if w > NEG_INF}
        vectors, log_w = enumerate_associations(p)
        assert vectors == list(raw)
        if raw:
            want = np.array(list(raw.values()))
            assert_allclose(log_w, want - logsumexp(want), atol=1e-12)
        try:
            got = run_gibbs(p, 10, np.random.default_rng(seed))
        except NumericalError:
            got = []
        for gamma, lw, _ in got:
            assert lw == raw[gamma]


class TestStart:
    def _general(self, table, own, Z):
        return make_problem(table, own, PoissonClutter(3.0, REGION10), Z)

    def test_zero_weight_all_clutter_moves_to_own_track_then_tree(self):
        # Measurement 0 lies outside the region; its own track is impossible,
        # so it starts on the tree and measurement 1 on its own track.
        p = self._general([[0.5], [0.1]], [NEG_INF, 0.2], [[-5.0, 1.0], [3.0, 3.0]])
        assert _start(p) == [1, 3]
        assert all(g[0] != 0 for g, _, _ in run_gibbs(p, 50, np.random.default_rng(0)))

    def test_no_positive_start_returns_no_association(self):
        p = self._general([[NEG_INF], [0.1]], [NEG_INF, 0.2], [[-5.0, 1.0], [3.0, 3.0]])
        assert _start(p) is None
        assert run_gibbs(p, 10, np.random.default_rng(0)) == []

    def test_count_table_row_without_support_gives_no_association(self):
        # Measurement 0 lies outside the region, no tree lists it and its own
        # track is impossible, so every association has zero weight; the
        # enumeration agrees.
        base = small_problem(n=1, m=3)
        Z = np.vstack([[-5.0, 1.0], base.cache.Z[1:]])
        table = table_of(base)
        table[0, :] = NEG_INF
        p = make_problem(table, [NEG_INF] + base.own[1:], base.cache.clutter, Z)
        assert _start(p) is None
        assert run_gibbs(p, 10, np.random.default_rng(0)) == []
        vectors, log_w = enumerate_associations(p)
        assert vectors == [] and log_w.size == 0

    @pytest.mark.parametrize("card", [PoissonCardinality(0.0), NegBinomialCardinality(1.0, 1.0)])
    def test_count_table_without_all_clutter_mass_starts_like_general(self, card, counting_clutter):
        # Every clutter count but 0 has zero mass, so all-clutter is no start:
        # the count table falls through to the general branch's start and
        # then draws what the opaque model draws.
        clutter = IidClusterClutter(card, Region((0.0,), (10.0,)))
        table, own, Z = [[0.3], [0.1], [-0.2]], [0.2, -0.1, 0.4], [[4.5], [5.5], [6.0]]
        fast = make_problem(table, own, clutter, Z)
        opaque = make_problem(table, own, counting_clutter(clutter), Z)
        assert fast._fast is not None and opaque._fast is None
        assert _start(fast) == _start(opaque) == [2, 3, 4]
        got = run_gibbs(fast, 50, np.random.default_rng(0))
        assert got == run_gibbs(opaque, 50, np.random.default_rng(0))
        assert len(got) == 4

    def test_count_table_keeps_all_clutter_start(self):
        # The count-table conditional reads only the clutter count, so the
        # chain leaves an all-clutter start of zero weight by itself.
        base = small_problem(n=1, m=3)
        Z = np.vstack([[-5.0, 1.0], base.cache.Z[1:]])
        p = AssociationProblem(base.eta, base.own, ClutterCache(base.cache.clutter, Z))
        assert p._fast[1] == [False, True, True]
        assert _start(p) == [0, 0, 0]
        assert all(g[0] != 0 for g, _, _ in run_gibbs(p, 20, np.random.default_rng(0)))

    def test_merged_starts_on_own_tracks_else_gives_no_association(self):
        # Without a clutter column, all-new-track when every own weight is
        # finite; a row with only a tree starts on it; a row with neither
        # has no positive association, which the enumeration agrees with.
        def merged(table, own):
            return make_problem(table, own, None, [[1.0], [2.0]])

        assert _start(merged([[0.5], [0.1]], [0.3, -0.2])) == [2, 3]
        assert _start(merged([[NEG_INF], [0.1]], [0.3, NEG_INF])) == [2, 1]
        p = merged([[0.5], [NEG_INF]], [0.3, NEG_INF])
        assert _start(p) is None
        assert run_gibbs(p, 10, np.random.default_rng(0)) == []
        assert enumerate_associations(p)[0] == []
