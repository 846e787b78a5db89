import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from pmbm.errors import ConfigurationError
from pmbm.gospa import GospaConfig, GospaResult, gospa

CFG = GospaConfig(order=2.0, cutoff=10.0, alpha=2.0)

points = st.lists(
    st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0)), max_size=5
).map(lambda pts: np.array(pts, dtype=float).reshape(len(pts), 2))


class TestBaseCases:
    def test_both_empty(self):
        out = gospa([], [], CFG)
        assert out == GospaResult(0.0, 0.0, 0.0, 0.0, 0, 0, 0)

    def test_single_missed_target(self):
        out = gospa([], [(120.0, 80.0)], CFG)
        assert_allclose(out.total, math.sqrt(50.0), rtol=1e-15)
        assert out.missed == 50.0
        assert out.false_ == 0.0
        assert out.localization == 0.0
        assert (out.n_assigned, out.n_missed, out.n_false) == (0, 1, 0)

    def test_single_false_estimate(self):
        out = gospa([(1.0, 2.0)], [], CFG)
        assert_allclose(out.total, math.sqrt(50.0), rtol=1e-15)
        assert out.false_ == 50.0
        assert out.missed == 0.0

    def test_pure_localization(self):
        out = gospa([(0.0, 0.0)], [(3.0, 4.0)], CFG)
        assert_allclose(out.total, 5.0, rtol=1e-15)
        assert_allclose(out.localization, 25.0, rtol=1e-15)
        assert out.missed == 0.0
        assert out.false_ == 0.0
        assert out.n_assigned == 1

    def test_first_order_metric(self):
        cfg = GospaConfig(order=1.0, cutoff=10.0)
        out = gospa([(0.0, 0.0)], [(3.0, 0.0)], cfg)
        assert_allclose(out.total, 3.0, rtol=1e-15)
        out = gospa([], [(0.0, 0.0)], cfg)
        assert_allclose(out.total, 5.0, rtol=1e-15)

    def test_assignment_picks_cheaper_pairing(self):
        X = [(0.0, 0.0), (9.0, 0.0)]
        Y = [(1.0, 0.0), (8.0, 0.0)]
        out = gospa(X, Y, CFG)
        assert_allclose(out.localization, 2.0, rtol=1e-15)
        assert out.n_assigned == 2


class TestCutoff:
    def test_distant_pair_counts_missed_and_false(self):
        out = gospa([(0.0, 0.0)], [(15.0, 0.0)], CFG)
        assert out.n_assigned == 0
        assert (out.n_missed, out.n_false) == (1, 1)
        assert_allclose(out.total, 10.0, rtol=1e-15)

    def test_pair_exactly_at_cutoff_is_cut(self):
        out = gospa([(0.0, 0.0)], [(10.0, 0.0)], CFG)
        assert out.n_assigned == 0
        assert out.localization == 0.0
        assert_allclose(out.total, 10.0, rtol=1e-15)

    def test_extra_estimate_beside_match(self):
        out = gospa([(0.0, 0.0), (100.0, 100.0)], [(0.0, 0.0)], CFG)
        assert_allclose(out.total, math.sqrt(50.0), rtol=1e-15)
        assert out.localization == 0.0
        assert out.n_false == 1


class TestConfig:
    def test_order_below_one_rejected(self):
        with pytest.raises(ConfigurationError):
            GospaConfig(order=0.5)

    def test_nonpositive_cutoff_rejected(self):
        with pytest.raises(ConfigurationError):
            GospaConfig(cutoff=0.0)

    @pytest.mark.parametrize("field", ["order", "cutoff"])
    def test_nan_setting_rejected(self, field):
        with pytest.raises(ConfigurationError):
            GospaConfig(**{field: math.nan})

    def test_unsupported_alpha_rejected(self):
        with pytest.raises(ConfigurationError):
            GospaConfig(alpha=1.0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            gospa([(0.0, 0.0)], [(1.0, 2.0, 3.0)], CFG)


class TestMetricProperties:
    @given(X=points, Y=points)
    @settings(max_examples=100, deadline=None)
    def test_symmetry_swaps_missed_and_false(self, X, Y):
        a = gospa(X, Y, CFG)
        b = gospa(Y, X, CFG)
        assert_allclose(a.total, b.total, atol=1e-12)
        assert_allclose(a.localization, b.localization, atol=1e-12)
        assert a.missed == b.false_
        assert a.false_ == b.missed

    @given(X=points, Y=points)
    @settings(max_examples=100, deadline=None)
    def test_power_decomposition_identity(self, X, Y):
        out = gospa(X, Y, CFG)
        assert_allclose(
            out.total**CFG.order,
            out.localization + out.missed + out.false_,
            rtol=1e-12,
            atol=1e-12,
        )

    @given(X=points)
    @settings(max_examples=50, deadline=None)
    def test_identity_of_indiscernibles(self, X):
        out = gospa(X, X.copy(), CFG)
        assert_allclose(out.total, 0.0, atol=1e-12)
        assert out.n_missed == out.n_false == 0

    def test_permutation_invariance(self, rng):
        X = rng.uniform(0.0, 100.0, size=(4, 2))
        Y = rng.uniform(0.0, 100.0, size=(6, 2))
        base = gospa(X, Y, CFG)
        for _ in range(10):
            out = gospa(rng.permutation(X), rng.permutation(Y), CFG)
            assert_allclose(out.total, base.total, rtol=1e-12)
            assert_allclose(out.localization, base.localization, rtol=1e-12)

    def test_triangle_inequality_spot_checks(self, rng):
        for _ in range(200):
            sizes = rng.integers(0, 5, size=3)
            X, Y, Z = (rng.uniform(0.0, 40.0, size=(s, 2)) for s in sizes)
            dxz = gospa(X, Z, CFG).total
            dxy = gospa(X, Y, CFG).total
            dyz = gospa(Y, Z, CFG).total
            assert dxz <= dxy + dyz + 1e-9
