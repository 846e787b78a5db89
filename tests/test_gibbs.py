"""Association-vector weights, exact conditionals, enumeration, and the
systematic-scan Gibbs sampler."""

import copy
import itertools
import math
from bisect import bisect_right
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import logsumexp

from pmbm import filtering, gibbs
from pmbm.clutter import (
    ClutterCache,
    ClutterSource,
    CompositeClutter,
    IidClusterClutter,
    NegBinomialCardinality,
    PoissonCardinality,
    PoissonClutter,
    Region,
    nb_from_mean_dispersion,
)
from pmbm.errors import ConfigurationError, NumericalError, SizeLimitError
from pmbm.densities import (
    GaussianDensity,
    GaussianMixture,
    LinearGaussianMotion,
    LinearGaussianSensor,
)
from pmbm.filtering import FilterConfig, initial_density, predict, reduce, update
from pmbm.gibbs import (
    AssociationProblem,
    _candidates,
    _start,
    assoc_log_weight,
    enumerate_associations,
    gibbs_conditional,
    run_gibbs,
)
from pmbm.hypotheses import count_hypotheses
from pmbm.measmodel import PointTargetModel

NEG_INF = float("-inf")
REGION10 = Region((0.0, 0.0), (10.0, 10.0))


def empty_clutter(width=1):
    """The merged regime's clutter column: the empty clutter process."""
    return IidClusterClutter(PoissonCardinality(0.0), Region((0.0,) * width, (10.0,) * width))


def empty_cache(m):
    """The empty clutter process on a one-dimensional scan of m points."""
    return ClutterCache(empty_clutter(), np.full((m, 1), 5.0))


def make_problem(table, own, clutter, Z):
    """Problem from an (m, n) table of tree log etas (-inf: not gated), the
    m new-track log weights, a clutter model (None: merged) and the scan."""
    eta = [list(enumerate(col)) for col in np.asarray(table, dtype=float).T.tolist()]
    Z = np.asarray(Z, dtype=float)
    return AssociationProblem(eta, list(own), ClutterCache(clutter or empty_clutter(Z.shape[1]), Z))


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
            AssociationProblem([[(0, 0.1)], [(j, 0.2)]], [0.0, 0.0], empty_cache(2))

    def test_row_listed_twice_by_one_tree_rejected(self):
        with pytest.raises(ConfigurationError, match="twice"):
            AssociationProblem([[(0, NEG_INF), (1, 0.3), (0, 0.2)]], [0.0, 0.0], empty_cache(2))
        shared = AssociationProblem([[(0, 0.1)], [(0, 0.2)]], [0.0, 0.0], empty_cache(2))
        assert shared._row_cands[0] == [(1, 0.1), (2, 0.2), (3, 0.0)]

    def test_new_track_explains_only_its_own_measurement(self):
        p = small_problem(n=1, m=2)
        assert assoc_log_weight(p, (3, 0)) == NEG_INF
        assert assoc_log_weight(p, (0, 2)) == NEG_INF
        assert gibbs_conditional(p, [0, 0], 0)[3] == 0.0

    def test_unlisted_and_zero_weight_entries_are_absent(self):
        p = AssociationProblem([[(1, NEG_INF)], []], [0.25, 0.5], empty_cache(2))
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

    @pytest.mark.parametrize(
        "card, options",
        [(PoissonCardinality(0.0), 2), (NegBinomialCardinality(1.0, 1.0), 2), (PoissonCardinality(1.0), 3)],
    )
    def test_clutter_option_only_where_a_nonempty_set_has_mass(self, card, options):
        # A count table with no finite entry past 0, like the merged
        # regime's empty clutter process, adds no clutter option.
        clutter = IidClusterClutter(card, Region((0.0,), (10.0,)))
        p = make_problem([[0.3], [0.1], [-0.2]], [0.2, -0.1, 0.4], clutter, [[4.5], [5.5], [6.0]])
        assert gibbs.candidate_count(p) == options**3
        assert [g for g, _ in gibbs.candidate_product(p)] == enumerate_associations(p)[0]
        merged = make_problem([[0.3], [0.1], [-0.2]], [0.2, -0.1, 0.4], None, [[4.5], [5.5], [6.0]])
        assert gibbs.candidate_count(merged) == 2**3

    def test_guard_reads_the_candidate_product(self):
        # Three trees and an own track on each of 10 rows, no clutter column:
        # 4**10 candidate vectors, past the guard.
        assert 4**10 > gibbs._ENUM_GUARD
        wide = AssociationProblem([[(j, 0.0) for j in range(10)]] * 3, [0.0] * 10, empty_cache(10))
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

    # numpy raised its own TypeError for 2.5.
    @pytest.mark.parametrize("sweeps", [0, 2.5, True])
    def test_invalid_sweep_count(self, sweeps):
        with pytest.raises(ConfigurationError, match="sweeps must be an integer >= 1"):
            run_gibbs(small_problem(1, 1), sweeps, np.random.default_rng(0))


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
        assert p._clutter == (branch != "merged")
        if branch == "merged":
            # The count table of the empty clutter process.
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


def _reference_run_gibbs(p, sweeps, rng):
    """The sampler as it ran before leave-to-leave jumps and shared tables:
    every coordinate of every sweep drawn in turn, with a memo of its own."""
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


class _Uniforms:
    """A generator stand-in whose one block of uniforms is given."""

    def __init__(self, block):
        self.block = np.asarray(block, dtype=float)

    def random(self, shape):
        assert shape == self.block.shape
        return self.block.copy()


def _counting_draws(monkeypatch):
    draws, inner = [], gibbs.bisect_right

    def counting(*args):
        draws.append(1)
        return inner(*args)

    monkeypatch.setattr(gibbs, "bisect_right", counting)
    return draws


class TestLeaveJumps:
    @given(p=problems(), sweeps=st.integers(1, 300), seed=st.integers(0, 1000))
    @settings(max_examples=120, deadline=None)
    def test_equals_per_draw_reference(self, p, sweeps, seed):
        try:
            want = _reference_run_gibbs(p, sweeps, np.random.default_rng(seed))
        except NumericalError:
            with pytest.raises(NumericalError):
                run_gibbs(p, sweeps, np.random.default_rng(seed))
            return
        assert run_gibbs(p, sweeps, np.random.default_rng(seed)) == want

    def test_chain_that_flips_every_few_sweeps(self, monkeypatch):
        # Each row keeps its value with probability 0.86 or more, so the
        # state changes every few sweeps (about 30 times in 300) and the
        # sampler jumps between the draws that leave it.
        region = Region((0.0,), (10.0,))
        clutter = IidClusterClutter(PoissonCardinality(3.0), region)
        table = [[2.5, NEG_INF], [NEG_INF, 2.5], [NEG_INF, NEG_INF]]
        p = make_problem(table, [-4.0, -4.0, -3.0], clutter, [[1.0], [4.0], [7.0]])
        draws = _counting_draws(monkeypatch)
        listed, inner = [], gibbs._leave_positions
        monkeypatch.setattr(gibbs, "_leave_positions", lambda *a: listed.append(inner(*a)) or listed[-1])
        got = run_gibbs(p, 300, np.random.default_rng(3))
        assert 50 < len(draws) < 300 * 3 // 4
        monkeypatch.undo()
        assert len(got) >= 4
        # Leaves are listed a window of rows at a time, once per state and
        # window however often the chain returns, so memory stays bounded.
        windows = math.ceil(300 / gibbs._WINDOW)
        assert 1 < len(listed) <= len(got) * windows < sum(c for _, _, c in got) // 2
        assert windows > 1 and max(len(found) for found in listed) <= gibbs._WINDOW * 3 + 1
        assert got == _reference_run_gibbs(p, 300, np.random.default_rng(3))

    def test_last_value_drawn_through_the_duplicate_slot(self, monkeypatch):
        # Row 0's conditional weighs 1, 1e-16 and 1e-16: the cumulative
        # weights stay at 1.0 while their exact sum is 1 + 2**-52, so the
        # largest uniform draws past the last cumulative weight, into the
        # appended slot, and takes the own track (value 3).
        p = AssociationProblem([[(0, 0.0)], [(0, math.log(1e-16))]], [math.log(1e-16)], empty_cache(1))
        weights = [1.0, math.exp(math.log(1e-16)), math.exp(math.log(1e-16))]
        top_u = np.nextafter(1.0, 0.0)
        assert list(accumulate(weights)) == [1.0] * 3 and top_u * math.fsum(weights) >= 1.0
        block = np.full((12, 1), 0.25)
        block[[3, 4, 8], 0] = top_u
        draws = _counting_draws(monkeypatch)
        got = run_gibbs(p, 12, _Uniforms(block))
        # The first draw, then only the draws that leave: once the own track
        # is known to keep every u * total >= 1.0, the top uniform at 4 is
        # skipped.
        assert len(draws) == 5
        monkeypatch.undo()
        assert got == _reference_run_gibbs(p, 12, _Uniforms(block))
        assert [(g, c) for g, _, c in got] == [((1,), 9), ((3,), 3)]


def _captured_updates(regime, monkeypatch):
    """The sampled problems of every update of a short scenario, per
    update: (problem, sweeps, a copy of its generator, what it returned)."""
    region = Region((0.0, 0.0), (300.0, 300.0))
    H = np.kron(np.eye(2), np.array([[1.0, 0.0]]))
    sensor = LinearGaussianSensor(H, 4.0 * np.eye(2), 0.9)
    F1 = np.array([[1.0, 1.0], [0.0, 1.0]])
    Q1 = 0.01 * np.array([[1.0 / 3.0, 0.5], [0.5, 1.0]])
    motion = LinearGaussianMotion(np.kron(np.eye(2), F1), np.kron(np.eye(2), Q1), 0.99)
    if regime == "composite":
        src = ClutterSource((100.0, 200.0), 0.9, 3.0, 25.0 * np.eye(2))
        clutter = CompositeClutter(PoissonClutter(2.0, region), (src,))
    elif regime == "ppp-merged":
        clutter = PoissonClutter(4.0, region)
    else:
        clutter = IidClusterClutter(nb_from_mean_dispersion(4.0, 8.0), region)
    birth = GaussianMixture(
        [math.log(3.0)],
        [GaussianDensity(np.array([150.0, 0.0, 150.0, 0.0]), np.diag([2500.0, 1.0, 2500.0, 1.0]))],
    )
    cfg = FilterConfig(clutter_regime=regime, max_global_hyps=20, exhaustive_limit=4)
    calls, inner = [], filtering.run_gibbs

    def capturing(p, sweeps, rng):
        saved = copy.deepcopy(rng)
        out = inner(p, sweeps, rng)
        calls[-1].append((p, sweeps, saved, out))
        return out

    monkeypatch.setattr(filtering, "run_gibbs", capturing)
    rng = np.random.default_rng(4)
    targets = np.array([[60.0, 1.0, 80.0, 0.0], [200.0, -1.0, 150.0, 1.0], [120.0, 0.0, 240.0, -1.0]])
    d = initial_density()
    for _ in range(4):
        targets = targets @ motion.F.T
        scan = np.concatenate([targets @ H.T + 2.0 * rng.standard_normal((3, 2)), clutter.sample(rng)])
        calls.append([])
        d = reduce(update(predict(d, motion, birth), scan, PointTargetModel(sensor), clutter, cfg), cfg)
    monkeypatch.undo()
    return calls


class TestSharedCache:
    @pytest.mark.parametrize("regime", ["arbitrary", "ppp-merged", "composite"])
    def test_problems_of_one_update_share_a_cache(self, regime, monkeypatch):
        updates = _captured_updates(regime, monkeypatch)
        assert max(len(calls) for calls in updates) > 1
        for calls in updates:
            assert len({id(p.cache) for p, _, _, _ in calls}) <= 1
            for p, sweeps, rng, out in calls:
                fresh = AssociationProblem(p.eta, p.own, ClutterCache(p.cache.clutter, p.cache.Z))
                assert not fresh.cache.conditionals
                assert run_gibbs(fresh, sweeps, copy.deepcopy(rng)) == out
                assert _reference_run_gibbs(p, sweeps, copy.deepcopy(rng)) == out

    @pytest.mark.parametrize(
        "clutter",
        [None, IidClusterClutter(PoissonCardinality(1.0), Region((0.0,), (10.0,)))],
        ids=["merged", "count-table"],
    )
    def test_problems_of_another_tree_count_share_a_cache(self, clutter):
        # Row 0 lists the same (value, weight) candidates in both problems:
        # value 2 is the narrow problem's own track and the wide problem's
        # second tree, which row 1 can take too.  Keyed on the tree count,
        # the shared conditionals keep the two rows apart.
        narrow = make_problem([[0.3], [NEG_INF]], [0.5, 0.2], clutter, [[4.0], [6.0]])
        shared = narrow.cache
        wide = AssociationProblem([[(0, 0.3)], [(0, 0.5), (1, 0.4)]], [NEG_INF, 0.2], shared)
        assert narrow._row_cands[0] == wide._row_cands[0] == [(1, 0.3), (2, 0.5)]
        for p in (narrow, wide):
            fresh = AssociationProblem(p.eta, p.own, ClutterCache(shared.clutter, shared.Z))
            for seed in range(5):
                got = run_gibbs(p, 40, np.random.default_rng(seed))
                assert got == run_gibbs(fresh, 40, np.random.default_rng(seed))
                assert got == _reference_run_gibbs(p, 40, np.random.default_rng(seed))
        assert {n for _, n, _ in shared.rows} == {1, 2}

    def test_missing_cache_refused(self):
        p = small_problem(n=1, m=2)
        with pytest.raises(ConfigurationError, match="ClutterCache"):
            AssociationProblem(p.eta, p.own, None)


def _brute_force(p):
    """Every vector of range(n+m+1)^m in lexicographic order with its raw
    log weight, read from ``p.eta``, ``p.own`` and the clutter model alone."""
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
