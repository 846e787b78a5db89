"""Association-vector weights, exact conditionals, enumeration, and the
systematic-scan Gibbs sampler."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import logsumexp

from pmbm.clutter import IidClusterClutter, PoissonClutter, Region, nb_from_mean_dispersion
from pmbm.errors import ConfigurationError, NumericalError
from pmbm.gibbs import (
    AssociationProblem,
    assoc_log_weight,
    enumerate_associations,
    gibbs_conditional,
    run_gibbs,
)
from pmbm.hypotheses import count_hypotheses

NEG_INF = float("-inf")
REGION10 = Region((0.0, 0.0), (10.0, 10.0))


def small_problem(n=1, m=2, seed=0, clutter=True, region_side=10.0):
    """Random eta table over a small region; clutter is NB-IID when on."""
    rng = np.random.default_rng(seed)
    region = Region((0.0, 0.0), (region_side, region_side))
    Z = region.sample(rng, m)
    eta = np.full((m, n + m), NEG_INF)
    eta[:, :n] = rng.normal(size=(m, n))
    for j in range(m):
        eta[j, n + j] = rng.normal()
    c = IidClusterClutter(nb_from_mean_dispersion(3.0, 4.0), region) if clutter else None
    return AssociationProblem(eta, c, Z, n)


class TestAssocWeight:
    def test_all_clutter_is_clutter_density(self):
        p = small_problem(n=1, m=3)
        want = p.clutter.log_density(p.Z)
        assert_allclose(assoc_log_weight(p, (0, 0, 0)), want, atol=1e-12)

    def test_repeated_target_invalid(self):
        p = small_problem(n=1, m=2)
        assert assoc_log_weight(p, (1, 1)) == NEG_INF

    def test_hand_computed_value(self):
        # first measurement to the track, second to its own new component
        p = small_problem(n=1, m=2)
        got = assoc_log_weight(p, (1, 3))
        want = p.log_eta[0, 0] + p.log_eta[1, 2] + p.clutter.log_density(p.Z[[]])
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
        eta = np.array(base.log_eta)
        eta[0, :] = NEG_INF
        p = AssociationProblem(eta, base.clutter, base.Z, base.n)
        cond = gibbs_conditional(p, [0, 0], 0)
        assert cond[0] == 1.0

    def test_two_point_normalization_no_targets(self):
        """m=1, n=0: mass splits between clutter and the new track by the
        cardinality-ratio against the own weight."""
        p = small_problem(n=0, m=1)
        cond = gibbs_conditional(p, [0], 0)
        log_c1 = p.clutter.log_density(p.Z)
        log_c0 = p.clutter.log_density(p.Z[[]])
        w_clutter = math.exp(log_c1)
        w_own = math.exp(p.log_eta[0, 0] + log_c0)
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
        eta = np.full((3, 4), NEG_INF)
        eta[:, 0] = rng.normal(size=3)
        for j in range(3):
            eta[j, 1 + j] = rng.normal()
        fast = AssociationProblem(eta, IidClusterClutter(PoissonCardinality(2.0), region), Z, 1)
        slow = AssociationProblem(eta, PoissonClutter(2.0, region), Z, 1)
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
        p = AssociationProblem(base.log_eta, counted, base.Z, base.n)
        out = run_gibbs(p, 200, np.random.default_rng(2))
        assert len(out) > 1
        assert max(counted.calls.values()) == 1
        # Weights come from the same evaluations an uncached problem makes.
        fresh = AssociationProblem(base.log_eta, counted.inner, base.Z, base.n)
        for gamma, lw in out:
            assert lw == assoc_log_weight(fresh, gamma)

    def test_shared_cache_must_match_problem(self):
        p = small_problem(n=1, m=3)
        other = small_problem(n=1, m=3, seed=9)
        with pytest.raises(ConfigurationError):
            AssociationProblem(p.log_eta, p.clutter, other.Z, p.n, p.cache)
        with pytest.raises(ConfigurationError):
            AssociationProblem(p.log_eta, other.clutter, p.Z, p.n, p.cache)
        shared = AssociationProblem(p.log_eta, p.clutter, p.Z, p.n, p.cache)
        assert shared.cache is p.cache

    def test_count_table_built_once_per_cache(self):
        class CountingCard:
            def __init__(self, inner):
                self.inner, self.calls = inner, 0

            def log_pmf(self, x):
                self.calls += 1
                return self.inner.log_pmf(x)

        base = small_problem(n=2, m=4, seed=3)
        card = CountingCard(nb_from_mean_dispersion(3.0, 4.0))
        clutter = IidClusterClutter(card, REGION10)
        first = AssociationProblem(base.log_eta, clutter, base.Z, base.n)
        for _ in range(5):
            p = AssociationProblem(base.log_eta, clutter, base.Z, base.n, first.cache)
            assert p._fast is first._fast
        assert card.calls == base.m + 1
        table, inside = first.cache.count_table()
        assert inside == [True] * base.m
        for x in range(base.m + 1):
            assert_allclose(table[x], clutter.log_density(base.Z[:x]), rtol=1e-12)
        poisson = AssociationProblem(base.log_eta, PoissonClutter(2.0, REGION10), base.Z, base.n)
        assert poisson.cache.count_table() is None and poisson._fast is None


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


class TestRunGibbs:
    def test_empty_scan(self):
        p = small_problem(1, 0)
        out = run_gibbs(p, 5, np.random.default_rng(0))
        assert out == [((), p.clutter.log_density(p.Z))]

    def test_deterministic_given_seed(self):
        p = small_problem(2, 3)
        a = run_gibbs(p, 200, np.random.default_rng(11))
        b = run_gibbs(p, 200, np.random.default_rng(11))
        assert a == b

    def test_single_sweep_contract(self):
        p = small_problem(1, 2)
        out = run_gibbs(p, 1, np.random.default_rng(5))
        assert len(out) == 1
        gamma, log_w = out[0]
        assert len(gamma) == 2
        assert log_w == assoc_log_weight(p, gamma)

    def test_all_vectors_in_gamma(self):
        p = small_problem(2, 3)
        for gamma, _ in run_gibbs(p, 500, np.random.default_rng(2)):
            positive = [v for v in gamma if v > 0]
            assert len(positive) == len(set(positive))

    def test_merged_problem_never_emits_clutter(self):
        p = small_problem(1, 2, clutter=False)
        for gamma, _ in run_gibbs(p, 200, np.random.default_rng(7)):
            assert 0 not in gamma

    def test_visit_frequencies_approach_enumeration(self):
        """On a small problem the sweep-visit distribution converges to the
        normalized joint."""
        p = small_problem(1, 2, seed=42)
        vectors, log_w = enumerate_associations(p, include_zero_weight=False)
        want = {g: math.exp(lw) for g, lw in zip(vectors, log_w)}
        _, counts = run_gibbs(p, 40_000, np.random.default_rng(9), collect_counts=True)
        total = sum(counts.values())
        tv = 0.5 * sum(
            abs(counts.get(g, 0) / total - w) for g, w in want.items()
        )
        tv += 0.5 * sum(counts[g] / total for g in counts if g not in want)
        assert tv < 0.05

    def test_invalid_sweep_count(self):
        with pytest.raises(ConfigurationError):
            run_gibbs(small_problem(1, 1), 0, np.random.default_rng(0))


def _problem_for_branch(branch, seed):
    """A 3-track, 5-measurement problem on the sampler's count-table,
    general (opaque clutter density) or merged (no clutter) branch."""
    base = small_problem(n=3, m=5, seed=seed, clutter=branch == "count-table")
    if branch == "general":
        return AssociationProblem(base.log_eta, PoissonClutter(3.0, REGION10), base.Z, base.n)
    return base


def _replay(p, sweeps, seed):
    """Unique states of ``sweeps`` sweeps drawn coordinate by coordinate
    from ``gibbs_conditional`` by inverse CDF, with the uniforms run_gibbs
    reads, in first-visit order."""
    gamma = [0] * p.m if p.clutter is not None else [p.n + j + 1 for j in range(p.m)]
    seen = {}
    for urow in np.random.default_rng(seed).random((sweeps, p.m)):
        for q, u in enumerate(urow):
            cdf = np.cumsum(gibbs_conditional(p, gamma, q))
            gamma[q] = int(np.searchsorted(cdf, u * cdf[-1], side="right"))
        seen.setdefault(tuple(gamma), None)
    return list(seen)


class TestSamplerRunsCheckedConditional:
    @pytest.mark.parametrize("branch", ["count-table", "general", "merged"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_sweeps_replay_through_conditional(self, branch, seed):
        p = _problem_for_branch(branch, seed)
        assert (p._fast is not None) == (branch == "count-table")
        assert (p.clutter is None) == (branch == "merged")
        got = [g for g, _ in run_gibbs(p, 40, np.random.default_rng(seed))]
        assert len(got) > 1
        assert got == _replay(p, 40, seed)
