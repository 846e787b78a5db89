"""Hypothesis bookkeeping and exact association-count combinatorics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmbm.densities import GaussianDensity
from pmbm.errors import ConfigurationError, SizeLimitError
from pmbm.hypotheses import (
    BernoulliTree,
    ClutterLocalHypothesis,
    ClutterTree,
    GlobalHypothesis,
    LocalHypothesis,
    MeasurementPair,
    bell,
    count_hypotheses,
    stirling2,
    validate_global,
)


class TestBell:
    def test_small_values(self):
        assert bell(0) == 1
        assert bell(1) == 1
        assert bell(3) == 5
        assert bell(10) == 115975

    def test_recurrence(self):
        # B(m+1) = sum over c of C(m, c) * B(m - c)
        for m in range(10):
            total = sum(math.comb(m, c) * bell(m - c) for c in range(m + 1))
            assert bell(m + 1) == total

    def test_range_guard(self):
        with pytest.raises(SizeLimitError):
            bell(-1)
        with pytest.raises(SizeLimitError):
            bell(21)


class TestStirling:
    def test_hand_values(self):
        assert stirling2(3, 2) == 3
        assert stirling2(4, 2) == 7
        assert stirling2(0, 0) == 1

    def test_diagonal_is_one(self):
        for m in range(8):
            assert stirling2(m, m) == 1

    def test_sums_to_bell(self):
        assert sum(stirling2(5, l) for l in range(6)) == 52

    def test_range_guard(self):
        with pytest.raises(SizeLimitError):
            stirling2(3, 4)


class TestCountHypotheses:
    def test_cited_entries(self):
        assert count_hypotheses("point", "arbitrary", 4, 3) == 152
        assert count_hypotheses("general", "arbitrary", 0, 5) == 203
        assert count_hypotheses("general", "ppp", 4, 10) == 67310847

    def test_point_ppp_empty_prior_is_single(self):
        for m in range(1, 11):
            assert count_hypotheses("point", "ppp", 0, m) == 1

    def test_point_arbitrary_empty_prior_is_power_of_two(self):
        for m in range(11):
            assert count_hypotheses("point", "arbitrary", 0, m) == 2**m

    def test_general_arbitrary_empty_prior_is_shifted_bell(self):
        for m in range(11):
            assert count_hypotheses("general", "arbitrary", 0, m) == bell(m + 1)

    def test_unknown_models_rejected(self):
        with pytest.raises(ConfigurationError):
            count_hypotheses("fuzzy", "ppp", 1, 1)
        with pytest.raises(ConfigurationError):
            count_hypotheses("point", "gaussian", 1, 1)

    @given(n=st.integers(0, 6), m=st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_dominates_ppp(self, n, m):
        # letting subsets go to clutter can only add hypotheses
        for target in ("point", "general"):
            assert count_hypotheses(target, "arbitrary", n, m) >= count_hypotheses(
                target, "ppp", n, m
            )

    @given(n=st.integers(0, 5), m=st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_tracks(self, n, m):
        for target, clutter in (("point", "ppp"), ("point", "arbitrary")):
            assert count_hypotheses(target, clutter, n + 1, m) >= count_hypotheses(
                target, clutter, n, m
            )


def _tree(pairs_list):
    dens = GaussianDensity(np.zeros(1), np.eye(1))
    hyps = [LocalHypothesis(0.0, 0.5, dens, frozenset(pairs)) for pairs in pairs_list]
    return BernoulliTree(hyps, ("birth", 1, 0))


class TestValidateGlobal:
    def test_initial_state(self):
        g = GlobalHypothesis(0.0, (), ())
        assert validate_global(g, [], [], frozenset())

    def test_partition_ok(self):
        p1, p2 = MeasurementPair(1, 1), MeasurementPair(1, 2)
        trees = [_tree([{p1}]), _tree([{p2}])]
        g = GlobalHypothesis(0.0, (), (0, 0))
        assert validate_global(g, trees, [], frozenset({p1, p2}))

    def test_overlap_rejected(self):
        p1 = MeasurementPair(1, 1)
        trees = [_tree([{p1}]), _tree([{p1}])]
        g = GlobalHypothesis(0.0, (), (0, 0))
        assert not validate_global(g, trees, [], frozenset({p1}))

    def test_uncovered_pair_rejected(self):
        p1, p2 = MeasurementPair(1, 1), MeasurementPair(1, 2)
        trees = [_tree([{p1}])]
        g = GlobalHypothesis(0.0, (), (0,))
        assert not validate_global(g, trees, [], frozenset({p1, p2}))

    def test_clutter_pairs_count(self):
        p1, p2 = MeasurementPair(1, 1), MeasurementPair(1, 2)
        ctree = ClutterTree([ClutterLocalHypothesis(0.0, frozenset({p1, p2}))])
        g = GlobalHypothesis(0.0, (0,), ())
        assert validate_global(g, [], [ctree], frozenset({p1, p2}))

    def test_length_mismatch_raises(self):
        with pytest.raises(ConfigurationError):
            validate_global(GlobalHypothesis(0.0, (), (0,)), [], [], frozenset())
