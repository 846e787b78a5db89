import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import logsumexp

from conftest import checked_update, plain_state
from pmbm.clutter import (
    ClutterSource,
    CompositeClutter,
    IidClusterClutter,
    NegBinomialCardinality,
    PoissonCardinality,
    PoissonClutter,
    Region,
    nb_from_mean_dispersion,
)
from pmbm.densities import (
    GaussianDensity,
    GaussianMixture,
    LinearGaussianMotion,
    LinearGaussianSensor,
    ellipsoidal_gate,
    predicted_measurement_loglik,
)
from pmbm.errors import ConfigurationError, NumericalError, SizeLimitError
from pmbm.filtering import (
    FilterConfig,
    PmbmDensity,
    estimate,
    initial_density,
    predict,
    project_to_pmb,
    reduce,
    update,
)
from pmbm.gibbs import enumerate_associations
from pmbm.hypotheses import (
    BernoulliTree,
    ClutterLocalHypothesis,
    ClutterTree,
    GlobalHypothesis,
    LocalHypothesis,
    MeasurementPair,
    count_hypotheses,
    validate_global,
)
from pmbm.measmodel import ExtendedTargetModel, PointTargetModel
from pmbm.oracle import (
    _random_clutter,
    _random_density,
    _random_model,
    _random_scan,
    brute_force_update,
    compare_signatures,
    density_signature,
    target_marginals,
)

NEG_INF = float("-inf")
LINE = Region((-100.0,), (100.0,))


def scalar_sensor(pd=0.9):
    return LinearGaussianSensor(np.array([[1.0]]), np.array([[1.0]]), pd)


def nb_line_clutter(mean=2.0, dispersion=4.0):
    return IidClusterClutter(nb_from_mean_dispersion(mean, dispersion), LINE)


def one_track_density(r, mean=0.0, var=1.0, ppp=None):
    """Single Bernoulli track, one global hypothesis, no clutter history."""
    dens = GaussianDensity(np.array([mean]), np.array([[var]])) if r > 0 else None
    tree = BernoulliTree([LocalHypothesis(0.0, r, dens, frozenset())], ("birth", 0, 0))
    return PmbmDensity(
        ppp=ppp if ppp is not None else GaussianMixture(),
        trees=[tree],
        clutter_trees=[],
        globals_=[GlobalHypothesis(0.0, (), (0,))],
        universe=frozenset(),
        step=0,
    )


def ppp_only_density(log_w=0.0, mean=0.0, var=4.0):
    return PmbmDensity(
        ppp=GaussianMixture([log_w], [GaussianDensity(np.array([mean]), np.array([[var]]))]),
        trees=[],
        clutter_trees=[],
        globals_=[GlobalHypothesis(0.0, (), ())],
        universe=frozenset(),
        step=0,
    )


def global_weights(d):
    return np.array([g.log_w for g in d.globals_])


class TestPredict:
    def test_identity_motion_is_noop(self):
        motion = LinearGaussianMotion(np.eye(1), np.zeros((1, 1)), 1.0)
        d = one_track_density(0.8, mean=3.0, var=2.0, ppp=GaussianMixture([math.log(2.0)], [GaussianDensity(np.array([1.0]), np.array([[1.0]]))]))
        out = predict(d, motion, GaussianMixture())
        assert out.step == d.step
        assert_allclose(out.ppp.log_w, d.ppp.log_w)
        assert_allclose(out.ppp.comps[0].mean, [1.0])
        assert_allclose(out.ppp.comps[0].cov, [[1.0]])
        h = out.trees[0].hyps[0]
        assert h.r == 0.8
        assert_allclose(h.density.mean, [3.0])
        assert_allclose(h.density.cov, [[2.0]])
        assert out.globals_ == d.globals_

    def test_birth_adds_intensity_mass(self):
        motion = LinearGaussianMotion(np.eye(1), np.zeros((1, 1)), 0.99)
        birth = GaussianMixture([math.log(5.0)], [GaussianDensity(np.zeros(1), np.eye(1))])
        out = predict(initial_density(), motion, birth)
        assert_allclose(out.ppp.total_mass(), 5.0, rtol=1e-12)

    def test_survival_scales_existence(self):
        motion = LinearGaussianMotion(np.eye(1), np.zeros((1, 1)), 0.99)
        out = predict(one_track_density(0.8), motion, GaussianMixture())
        assert_allclose(out.trees[0].hyps[0].r, 0.792, rtol=1e-15)

    def test_survival_scales_intensity(self):
        motion = LinearGaussianMotion(np.eye(1), np.zeros((1, 1)), 0.5)
        d = ppp_only_density(log_w=math.log(2.0))
        out = predict(d, motion, GaussianMixture())
        assert_allclose(out.ppp.total_mass(), 1.0, rtol=1e-12)

    def test_bernoulli_birth_appends_trees(self):
        motion = LinearGaussianMotion(np.eye(1), np.zeros((1, 1)), 0.99)
        dens = GaussianDensity(np.zeros(1), np.eye(1))
        out = predict(initial_density(), motion, GaussianMixture(), birth_bernoulli=((0.5, dens), (0.1, dens)))
        assert len(out.trees) == 2
        assert out.trees[0].origin == ("birth", 1, 0)
        assert out.trees[1].origin == ("birth", 1, 1)
        # Every global hypothesis carries the new components.
        assert out.globals_ == [GlobalHypothesis(0.0, (), (0, 0))]
        assert out.trees[0].hyps[0].r == 0.5


class TestUpdateArbitrary:
    CFG = FilterConfig(clutter_regime="arbitrary")

    def test_empty_scan_misses_every_track(self):
        d = one_track_density(0.8, ppp=GaussianMixture([math.log(0.5)], [GaussianDensity(np.zeros(1), np.eye(1))]))
        clutter = nb_line_clutter()
        out = checked_update(d, np.zeros((0, 1)), PointTargetModel(scalar_sensor()), clutter, self.CFG)
        assert out.step == 1
        assert len(out.globals_) == len(d.globals_) == 1
        assert out.globals_[0].log_w == 0.0
        # r' = r(1-pd) / (1 - r*pd) with r=0.8, pd=0.9
        assert_allclose(out.trees[0].hyps[0].r, 0.08 / 0.28, rtol=1e-12)
        # Undetected intensity thins by 1-pd.
        assert_allclose(out.ppp.total_mass(), 0.05, rtol=1e-12)
        # The clutter history absorbed log c(emptyset).
        assert len(out.clutter_trees) == 1
        assert_allclose(out.clutter_trees[0].hyps[0].log_w, clutter.log_density(np.zeros((0, 1))), rtol=1e-12)

    def test_singleton_scan_splits_clutter_vs_new_track(self):
        d = ppp_only_density(log_w=0.0, mean=0.0, var=1.0)
        clutter = nb_line_clutter()
        z = np.array([[0.5]])
        out = checked_update(d, z, PointTargetModel(scalar_sensor()), clutter, self.CFG)
        assert len(out.globals_) == count_hypotheses("point", "arbitrary", 0, 1) == 2
        assert len(out.trees) == 1
        assert out.trees[0].origin == ("meas", 1, (1,))
        # Born track has existence one under an arbitrary clutter density.
        born = out.trees[0].hyps[1]
        assert born.r == 1.0
        assert born.pairs == frozenset({MeasurementPair(1, 1)})
        # Posterior split between c({z}) and c(emptyset) * new-track weight.
        log_l = math.log(0.9) + float(predicted_measurement_loglik(d.ppp.comps[0], scalar_sensor(), z)[0])
        branches = [clutter.log_density(z), clutter.log_density(np.zeros((0, 1))) + log_l]
        expect = np.array(branches) - logsumexp(branches)
        got = np.sort(global_weights(out))
        assert_allclose(got, np.sort(expect), rtol=1e-12)

    def test_general_model_partitions_two_measurements(self):
        d = ppp_only_density(var=4.0)
        model = ExtendedTargetModel(scalar_sensor(), 1.5)
        out = checked_update(d, np.array([[0.3], [-0.4]]), model, nb_line_clutter(), self.CFG)
        # clutter/clutter, clutter/own x2, own/own split or joint
        assert len(out.globals_) == 5
        assert_allclose(logsumexp(global_weights(out)), 0.0, atol=1e-9)
        for g in out.globals_:
            assert validate_global(g, out.trees, out.clutter_trees, out.universe)

    def test_empty_intensity_never_births_tracks(self):
        cfg = FilterConfig(clutter_regime="arbitrary", mode="mbm")
        d = one_track_density(0.9)
        out = checked_update(d, np.array([[0.2], [0.6]]), PointTargetModel(scalar_sensor()), nb_line_clutter(), cfg)
        assert len(out.trees) == 1
        assert all(t.origin[0] != "meas" for t in out.trees)
        # clutter/clutter, clutter/track, track/clutter
        assert len(out.globals_) == 3

    def test_weights_normalized_after_update(self):
        d = one_track_density(0.7, ppp=GaussianMixture([0.0], [GaussianDensity(np.zeros(1), np.eye(1))]))
        out = checked_update(d, np.array([[0.1], [1.2]]), PointTargetModel(scalar_sensor()), nb_line_clutter(), self.CFG)
        assert_allclose(logsumexp(global_weights(out)), 0.0, atol=1e-9)

    def test_scan_dimension_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            checked_update(
                ppp_only_density(),
                np.zeros((1, 2)),
                PointTargetModel(scalar_sensor()),
                nb_line_clutter(),
                self.CFG,
            )

    @pytest.mark.parametrize("regime", ["arbitrary", "ppp-merged"])
    def test_clutter_region_of_another_dimension_rejected(self, regime):
        # A 2-D region against a 1-D sensor was broadcast: the update ran
        # and returned 4 (arbitrary) or 1 (merged) global hypotheses.
        plane = Region((-100.0, -100.0), (100.0, 100.0))
        clutter = PoissonClutter(2.0, plane)
        Z = np.array([[0.5], [3.0]])
        model = PointTargetModel(scalar_sensor())
        sources, ppp_c = ([clutter], None) if regime == "arbitrary" else ([], clutter)
        with pytest.raises(ConfigurationError, match="need width 2"):
            update(ppp_only_density(), Z, model, clutter, FilterConfig(clutter_regime=regime))
        with pytest.raises(ConfigurationError, match="need width 2"):
            brute_force_update(ppp_only_density(), Z, model, sources, ppp_c)

    SQUARE = Region((-1.0, -1.0), (1.0, 1.0))

    @pytest.mark.parametrize(
        "regime, clutter",
        [
            ("arbitrary", PoissonClutter(2.0, SQUARE)),
            ("ppp-merged", PoissonClutter(2.0, SQUARE)),
            ("arbitrary", IidClusterClutter(PoissonCardinality(2.0), SQUARE)),
            ("arbitrary", ClutterSource((0.0, 0.0), 0.5, 1.0, np.eye(2))),
        ],
    )
    def test_clutter_of_another_dimension_rejected_on_an_empty_scan(self, regime, clutter):
        # With no measurement to compare widths, a 2-D clutter model against
        # a 1-D sensor was accepted and gave one global hypothesis.
        model = PointTargetModel(scalar_sensor())
        cfg = FilterConfig(clutter_regime=regime)
        with pytest.raises(ConfigurationError, match=r"need width 2, got shape \(0, 1\)"):
            update(ppp_only_density(), np.zeros((0, 1)), model, clutter, cfg)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("regime", ["arbitrary", "ppp-merged"])
    def test_non_finite_scan_rejected(self, regime, bad):
        # Before this check, the arbitrary regime silently took the forced
        # all-clutter fallback and the merged one failed in moment matching.
        clutter = nb_line_clutter() if regime == "arbitrary" else PoissonClutter(2.0, LINE)
        cfg = FilterConfig(clutter_regime=regime)
        d = ppp_only_density()
        with pytest.raises(ConfigurationError, match="non-finite"):
            checked_update(d, np.array([[0.5], [bad]]), PointTargetModel(scalar_sensor()), clutter, cfg)

    @given(
        r=st.floats(min_value=0.0, max_value=0.95),
        pd=st.floats(min_value=0.05, max_value=0.95),
    )
    @settings(max_examples=40, deadline=None)
    def test_missed_detection_shrinks_existence(self, r, pd):
        d = one_track_density(r)
        out = update(
            d,
            np.zeros((0, 1)),
            PointTargetModel(scalar_sensor(pd)),
            nb_line_clutter(),
            FilterConfig(clutter_regime="arbitrary"),
        )
        got = out.trees[0].hyps[0].r
        expect = r * (1.0 - pd) / (1.0 - r * pd)
        assert_allclose(got, expect, atol=1e-12)
        assert got <= r + 1e-12

    def test_impossible_empty_scan_takes_forced_fallback(self):
        """pd = 1 and a certain track: an empty scan has zero weight under
        every predicted hypothesis, so the update takes the same forced
        fallback, with its warning, as a non-empty scan would."""
        d = one_track_density(1.0)
        clutter = nb_line_clutter()
        with pytest.warns(UserWarning, match="forced all-clutter fallback"):
            out = checked_update(d, np.zeros((0, 1)), PointTargetModel(scalar_sensor(1.0)), clutter, self.CFG)
        assert [g.log_w for g in out.globals_] == [0.0]
        miss = out.trees[0].hyps[out.globals_[0].berns[0]]
        assert miss.log_w == NEG_INF and miss.r == 0.0 and miss.density is None
        assert_allclose(out.clutter_trees[0].hyps[0].log_w, clutter.log_density(np.zeros((0, 1))), rtol=1e-12)

    def test_general_model_empty_scan_enumerates_at_smallest_limit(self):
        d = one_track_density(0.6)
        model = ExtendedTargetModel(scalar_sensor(), 1.5)
        cfg = FilterConfig(clutter_regime="arbitrary", exhaustive_limit=1)
        out = checked_update(d, np.zeros((0, 1)), model, nb_line_clutter(), cfg)
        assert [g.log_w for g in out.globals_] == [0.0]
        fac = 1.0 - 0.6 + 0.6 * math.exp(model.log_f_empty())
        assert_allclose(out.trees[0].hyps[0].r, 0.6 * math.exp(model.log_f_empty()) / fac, rtol=1e-12)


class TestFilterConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_global_hyps": 0},
            {"gate": 0.0},
            {"mode": "jpda"},
            {"clutter_regime": "gaussian"},
            {"exhaustive_limit": 0},
            {"gate": math.nan},
            {"mbm_prune": math.nan},
            {"ppp_prune": math.nan},
            {"bern_prune": math.nan},
            {"max_global_hyps": 2.5},
            {"max_global_hyps": True},
            {"exhaustive_limit": 2.5},
            {"exhaustive_limit": True},
            {"mbm_prune": 1.5},
            {"bern_prune": 3.0},
        ],
    )
    def test_invalid_settings_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            FilterConfig(**kwargs)


class TestUpdateMergedAndComposite:
    def test_merged_singleton_existence_below_one(self):
        d = ppp_only_density(log_w=0.0, mean=0.0, var=1.0)
        ppp_c = PoissonClutter(3.0, LINE)
        cfg = FilterConfig(clutter_regime="ppp-merged")
        z = np.array([[0.5]])
        out = update(d, z, PointTargetModel(scalar_sensor()), ppp_c, cfg)
        # No clutter source: the lone association is "new track", with the
        # intensity-vs-clutter split inside the Bernoulli existence.
        assert len(out.globals_) == 1
        assert out.clutter_trees == []
        lam = math.exp(ppp_c.log_intensity(z)[0])
        l = math.exp(math.log(0.9) + float(predicted_measurement_loglik(d.ppp.comps[0], scalar_sensor(), z)[0]))
        assert_allclose(out.trees[0].hyps[1].r, l / (lam + l), rtol=1e-12)

    def test_merged_regime_requires_poisson_model(self):
        cfg = FilterConfig(clutter_regime="ppp-merged")
        with pytest.raises(ConfigurationError):
            update(ppp_only_density(), np.zeros((0, 1)), PointTargetModel(scalar_sensor()), nb_line_clutter(), cfg)

    def test_composite_regime_requires_composite_model(self):
        cfg = FilterConfig(clutter_regime="composite")
        with pytest.raises(ConfigurationError):
            update(ppp_only_density(), np.zeros((0, 1)), PointTargetModel(scalar_sensor()), PoissonClutter(1.0, LINE), cfg)

    @pytest.mark.parametrize("clutter", [None, "nb"])
    def test_arbitrary_regime_requires_a_clutter_density(self, clutter):
        cfg = FilterConfig(clutter_regime="arbitrary")
        model = PointTargetModel(scalar_sensor())
        for Z in (np.zeros((0, 1)), np.array([[0.5]])):
            with pytest.raises(ConfigurationError, match="log_density"):
                update(ppp_only_density(), Z, model, clutter, cfg)

    @pytest.mark.parametrize("regime", ["composite", "ppp-merged"])
    def test_clutter_tree_count_must_match_regime(self, regime):
        # One clutter tree, against the two a two-source composite needs and
        # the none ppp-merged needs.
        src = ClutterSource(np.array([5.0]), 0.8, 1.0, np.array([[1.0]]))
        ppp_c = PoissonClutter(2.0, LINE)
        clutter = CompositeClutter(ppp_c, (src, src)) if regime == "composite" else ppp_c
        d = ppp_only_density()
        d = PmbmDensity(
            d.ppp,
            [],
            [ClutterTree([ClutterLocalHypothesis(0.0, frozenset())])],
            [GlobalHypothesis(0.0, (0,), ())],
            frozenset(),
            0,
        )
        cfg = FilterConfig(clutter_regime=regime)
        with pytest.raises(ConfigurationError, match="clutter trees"):
            update(d, np.array([[0.5]]), PointTargetModel(scalar_sensor()), clutter, cfg)

    def test_merged_point_no_track_explains_takes_forced_fallback(self):
        """Empty PPP: the point outside the clutter region has no clutter
        intensity, no birth and no gating track, so no association has
        positive weight.  The sampled path (limit 1) takes the same forced
        fallback as enumeration."""
        d = one_track_density(0.8, mean=50.0)
        clutter = PoissonClutter(2.0, Region((0.0,), (100.0,)))
        Z = np.array([[50.5], [-30.0], [20.0]])
        states = []
        for limit in (1, 10**6):
            cfg = FilterConfig(clutter_regime="ppp-merged", exhaustive_limit=limit)
            with pytest.warns(UserWarning, match="forced all-clutter fallback"):
                out = checked_update(d, Z, PointTargetModel(scalar_sensor()), clutter, cfg)
            states.append(plain_state(out))
        assert states[0] == states[1]

    def test_arbitrary_regime_composite_model_on_a_long_scan(self):
        """A composite model as the one clutter density of the arbitrary
        regime: log c(Z) sums over source on/off patterns, so a 20-point
        scan is evaluated, not refused."""
        region = Region((0.0, 0.0), (300.0, 300.0))
        src = ClutterSource(np.array([100.0, 100.0]), 0.9, 2.0, 9.0 * np.eye(2))
        clutter = CompositeClutter(PoissonClutter(5.0, region), (src,))
        sensor = LinearGaussianSensor(np.eye(2), 4.0 * np.eye(2), 0.9)
        rng = np.random.default_rng(4)
        Z = np.vstack([src.location + 3.0 * rng.standard_normal((8, 2)), region.sample(rng, 12)])
        comp = GaussianDensity(np.array([150.0, 150.0]), 1e4 * np.eye(2))
        tree = BernoulliTree(
            [LocalHypothesis(0.0, 0.8, GaussianDensity(Z[10], 4.0 * np.eye(2)), frozenset())],
            ("birth", 0, 0),
        )
        d = PmbmDensity(GaussianMixture([math.log(0.5)], [comp]), [tree], [],
                        [GlobalHypothesis(0.0, (), (0,))], frozenset(), 0)
        cfg = FilterConfig(clutter_regime="arbitrary")
        out = checked_update(d, Z, PointTargetModel(sensor), clutter, cfg)
        assert len(out.globals_) > 1
        assert_allclose(logsumexp(global_weights(out)), 0.0, atol=1e-9)

    @pytest.mark.parametrize("regime", ["ppp-merged", "composite"])
    def test_general_model_matches_brute_force(self, regime):
        """The general model's new-track weight of a singleton cell folds in
        the PPP clutter intensity (``_UpdateWorkspace._own_general``)."""
        rng = np.random.default_rng(3)
        region = Region((-5.0, -5.0), (15.0, 15.0))
        cfg = FilterConfig(clutter_regime=regime, exhaustive_limit=10**9, gate=1e12)
        for t in range(30):
            d = _random_density(rng, int(rng.integers(0, 3)))
            model = _random_model(rng, "general")
            clutter = _random_clutter(rng, "ppp" if regime == "ppp-merged" else "composite", region)
            Z = _random_scan(rng, d, int(rng.integers(1, 4)), region)
            sources, ppp_c = ([], clutter) if regime == "ppp-merged" else (list(clutter.sources), clutter.ppp)
            out = checked_update(d, Z, model, clutter, cfg)
            want = brute_force_update(d, Z, model, sources, ppp_c)
            ok, lines = compare_signatures(density_signature(out, d, len(sources)), want)
            assert ok, (t, lines[:5])

    def test_composite_tracks_one_history_per_source(self):
        src = ClutterSource(np.array([5.0]), 0.8, 1.0, np.array([[1.0]]))
        clutter = CompositeClutter(PoissonClutter(2.0, LINE), (src,))
        cfg = FilterConfig(clutter_regime="composite")
        out = checked_update(ppp_only_density(), np.array([[0.5]]), PointTargetModel(scalar_sensor()), clutter, cfg)
        assert len(out.clutter_trees) == 1
        assert_allclose(logsumexp(global_weights(out)), 0.0, atol=1e-9)
        # PPP part folds into the new-track existence: strictly below one.
        born = [t for t in out.trees if t.origin[0] == "meas"][0]
        rs = [h.r for h in born.hyps if h.r > 0.0]
        assert rs and all(0.0 < r < 1.0 for r in rs)


def _call_counter(monkeypatch, name):
    """A list that grows by one at each call of ``filtering.<name>``."""
    from pmbm import filtering

    calls = []
    real = getattr(filtering, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(filtering, name, counted)
    return calls


def _gibbs_counter(monkeypatch):
    return _call_counter(monkeypatch, "run_gibbs")


def _cached_clutter_case(regime, region, counting_clutter):
    """(unwrapped clutter, wrapped clutter, counter) for one regime whose
    sampler takes the general branch: no count table."""
    if regime == "composite":
        src = ClutterSource((100.0, 200.0), 0.9, 3.0, 25.0 * np.eye(2))
        counter = counting_clutter(src)
        plain = CompositeClutter(PoissonClutter(2.0, region), (src,))
        wrapped = CompositeClutter(plain.ppp, (counter,))
    else:
        plain = PoissonClutter(4.0, region)
        counter = wrapped = counting_clutter(plain)
    return plain, wrapped, counter


class TestClutterCache:
    @pytest.mark.parametrize("regime", ["composite", "arbitrary"])
    def test_each_subset_evaluated_once_per_update(
        self, regime, region, pos_sensor, cv_motion, counting_clutter, monkeypatch
    ):
        plain, wrapped, counter = _cached_clutter_case(regime, region, counting_clutter)
        model = PointTargetModel(pos_sensor)
        birth = GaussianMixture(
            [math.log(3.0)],
            [GaussianDensity(np.array([150.0, 0.0, 150.0, 0.0]), np.diag([2500.0, 1.0, 2500.0, 1.0]))],
        )
        cfg = FilterConfig(clutter_regime=regime, max_global_hyps=20)
        gibbs_calls = _gibbs_counter(monkeypatch)
        rng = np.random.default_rng(4)
        targets = np.array([[60.0, 1.0, 80.0, 0.0], [200.0, -1.0, 150.0, 1.0], [120.0, 0.0, 240.0, -1.0]])
        d_plain = d_wrapped = initial_density()
        shared = 0
        for k in range(1, 5):
            targets = targets @ cv_motion.F.T
            scan = np.concatenate([targets @ pos_sensor.H.T + 2.0 * rng.standard_normal((3, 2)), plain.sample(rng)])
            d_plain = predict(d_plain, cv_motion, birth)
            d_wrapped = predict(d_wrapped, cv_motion, birth)
            d_plain = checked_update(d_plain, scan, model, plain, cfg, seed=3)
            counter.calls.clear()
            gibbs_calls.clear()
            d_wrapped = checked_update(d_wrapped, scan, model, wrapped, cfg, seed=3)
            assert counter.calls and max(counter.calls.values()) == 1
            assert plain_state(d_wrapped) == plain_state(d_plain)
            shared = max(shared, len(gibbs_calls))
            d_plain, d_wrapped = reduce(d_plain, cfg), reduce(d_wrapped, cfg)
        # The sampler ran for several predicted global hypotheses of one scan,
        # so the cache was shared across them.
        assert shared > 1


def multi_track_density(means, r=0.8, var=1.0):
    """One Bernoulli track per mean, one global hypothesis, a broad PPP."""
    trees = [
        BernoulliTree(
            [LocalHypothesis(0.0, r, GaussianDensity(np.array([mu]), np.array([[var]])), frozenset())],
            ("birth", 0, i),
        )
        for i, mu in enumerate(means)
    ]
    ppp = GaussianMixture([0.0], [GaussianDensity(np.zeros(1), np.array([[400.0]]))])
    return PmbmDensity(ppp, trees, [], [GlobalHypothesis(0.0, (), (0,) * len(means))], frozenset(), 0)


class TestGateTable:
    # With var 1 and R 1, S = 2, so gate 4 admits |z - mean| <= sqrt(8).
    SCAN = np.array([[0.5], [50.0]])  # only the first point is in the track's gate

    @pytest.mark.parametrize(
        "regime, clutter, product",
        [
            ("arbitrary", nb_line_clutter(), 6),  # (1 source + 1 + 1 tree) x (1 + 1)
            ("ppp-merged", PoissonClutter(2.0, LINE), 2),  # (0 + 1 + 1) x (0 + 1)
        ],
    )
    def test_enumeration_size_counts_candidates_per_row(self, regime, clutter, product, monkeypatch):
        calls = _gibbs_counter(monkeypatch)
        d = multi_track_density([0.0])
        model = PointTargetModel(scalar_sensor())
        for limit, sampled in ((product, 0), (product - 1, 1)):
            calls.clear()
            cfg = FilterConfig(clutter_regime=regime, gate=4.0, exhaustive_limit=limit)
            checked_update(d, self.SCAN, model, clutter, cfg)
            assert len(calls) == sampled, limit

    def test_rows_without_a_new_track_candidate_shrink_the_product(self, monkeypatch):
        """With no PPP intensity no row can take a new track, so under an open
        gate each row holds clutter or the track: a candidate product of 4,
        though each row has three labels (9 in all)."""
        calls = _gibbs_counter(monkeypatch)
        tracks = multi_track_density([0.0])
        d = PmbmDensity(GaussianMixture(), tracks.trees, [], tracks.globals_, frozenset(), 0)
        model = PointTargetModel(scalar_sensor())
        clutter = nb_line_clutter()
        cfg = FilterConfig(clutter_regime="arbitrary", gate=1e12, exhaustive_limit=4)
        out = checked_update(d, self.SCAN, model, clutter, cfg)
        assert calls == []
        want = brute_force_update(d, self.SCAN, model, [clutter], None)
        ok, lines = compare_signatures(density_signature(out, d, 1), want)
        assert ok, lines[:5]
        checked_update(d, self.SCAN, model, clutter, replace(cfg, exhaustive_limit=3))
        assert len(calls) == 1

    @pytest.mark.parametrize("limit", [10**6, 1])  # enumerated, sampled
    def test_trees_take_only_gated_measurements(self, limit, monkeypatch):
        calls = _gibbs_counter(monkeypatch)
        sensor = scalar_sensor()
        d = multi_track_density([0.0, 10.0, 20.0])
        Z = np.array([[0.5], [3.5], [8.0], [13.5], [20.2], [23.0]])

        def gate_breaches(gate):
            cfg = FilterConfig(clutter_regime="arbitrary", gate=gate, exhaustive_limit=limit)
            out = checked_update(d, Z, PointTargetModel(sensor), nb_line_clutter(), cfg)
            breaches, given = 0, 0
            for g in out.globals_:
                for i, parent in enumerate(d.trees):
                    hyp = out.trees[i].hyps[g.berns[i]]
                    mask = ellipsoidal_gate(parent.hyps[hyp.parent].density, sensor, Z, 4.0)
                    for pair in hyp.pairs:
                        given += 1
                        breaches += not mask[pair.j - 1]
            return breaches, given

        breaches, given = gate_breaches(4.0)
        assert given > 0 and breaches == 0
        assert len(calls) == (limit == 1)
        # Without the gate the same scan does give trees outside measurements,
        # so the check above has something to catch.
        assert gate_breaches(1e12)[0] > 0


def scenario_prediction(m_extra=0, pd=None, steps=6, seed=4):
    """The predicted density after ``steps - 1`` pmbm steps of a default
    scenario, the next scan with ``m_extra`` uniform rows added, the point
    model (its pd replaced by ``pd``) and the filter spec."""
    from pmbm import harness

    cfg = harness.ScenarioConfig(steps=steps, runs=1, seed=seed, max_global_hyps=30)
    rng = np.random.default_rng(seed)
    truth = harness.sample_ground_truth(cfg, rng)
    scans = harness.sample_scans(truth, cfg, rng)
    (spec,) = harness.filter_bank(cfg, ("pmbm",))
    sensor, motion = harness.sensor_model(cfg), harness.motion_model(cfg)
    model = PointTargetModel(sensor)
    d = initial_density()
    for k in range(1, steps):
        d, _ = harness.filter_step(d, scans[k - 1], k, spec, cfg, model, motion, seed=0)
    pred = predict(d, motion, harness.birth_mixture(cfg, steps))
    Z = np.concatenate([scans[steps - 1], rng.uniform(0.0, 300.0, size=(m_extra, 2))])
    if pd is not None:
        model = PointTargetModel(LinearGaussianSensor(sensor.H, sensor.R, pd))
    return pred, Z, model, spec


class TestDetectionPass:
    """The scan's stacked records equal a per-density gate and
    ``detection_update`` reference: rtol 1e-12, and the gate exact away
    from a 1e-9 band around its threshold."""

    RTOL = 1e-12

    def close(self, got, want):
        got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want), initial=0.0) <= self.RTOL * max(1.0, np.max(np.abs(want), initial=0.0))

    @pytest.mark.parametrize(
        "m_extra, pd, empty",
        [(0, None, False), (85, None, False), (0, None, True), (5, 0.0, False)],
        ids=["scan", "m>=80", "empty-scan", "pd=0"],
    )
    def test_records_match_per_density_reference(self, m_extra, pd, empty):
        from pmbm.filtering import _UpdateWorkspace

        pred, Z, model, spec = scenario_prediction(m_extra, pd)
        if empty:
            Z = Z[:0]
        assert Z.shape[0] >= 80 or m_extra < 80
        cfg, sensor = spec.filter_cfg, model.sensor
        ws = _UpdateWorkspace(pred, Z, model, [], spec.clutter, cfg, pred.step + 1)
        zero_r = pairs = 0
        for i, tree in enumerate(pred.trees):
            for a, h in enumerate(tree.hyps):
                log_miss, _, rows, eta = ws.rec[i][a]
                if h.r == 0.0:
                    zero_r += 1
                    assert rows == [] and eta == []
                    assert ws.det_info(i, a, (0,)) == (NEG_INF, None)
                    continue
                ref = GaussianDensity(h.density.mean.copy(), h.density.cov.copy())
                nu = Z - sensor.H @ ref.mean
                S = sensor.H @ ref.cov @ sensor.H.T + sensor.R
                maha = np.einsum("ij,ij->i", nu, np.linalg.solve(S, nu.T).T)
                clear = np.abs(maha - cfg.gate) > 1e-9 * cfg.gate
                got = np.zeros(Z.shape[0], dtype=bool)
                got[rows] = True
                assert np.array_equal(got[clear], (maha <= cfg.gate)[clear])
                assert np.array_equal(got, ellipsoidal_gate(ref, sensor, Z, cfg.gate))
                assert [j for j, _ in eta] == (rows if sensor.pd > 0.0 else [])
                for j, e in eta:
                    ll, post = model.detection_update(ref, Z[[j]])
                    fac, got_post = ws.det_info(i, a, (j,))
                    self.close(fac, math.log(h.r) + ll)
                    self.close(e, math.log(h.r) + ll - log_miss)
                    self.close(got_post.mean, post.mean)
                    self.close(got_post.cov, post.cov)
                    pairs += 1
                for j in rows if sensor.pd == 0.0 else ():
                    assert ws.det_info(i, a, (j,)) == (NEG_INF, None)
        assert zero_r > 0
        assert (pairs > 0) == (Z.shape[0] > 0 and sensor.pd > 0.0)
        if pd is None and not empty:
            assert pairs >= 10

    def test_new_track_column_and_posteriors_match_reference(self):
        from pmbm.filtering import _UpdateWorkspace

        pred, Z, model, spec = scenario_prediction(3)
        ws = _UpdateWorkspace(pred, Z, model, [], spec.clutter, spec.filter_cfg, pred.step + 1)
        comps = [(lw, GaussianDensity(c.mean.copy(), c.cov.copy())) for lw, c in zip(pred.ppp.log_w, pred.ppp.comps)]
        lam = spec.clutter.log_intensity(Z)
        cells = [(j,) for j in reversed(range(Z.shape[0]))]  # results follow the cells' order
        for (j,), (r, dens) in zip(cells, ws.own_tracks(cells)):
            ups = [(lw + ll, post) for lw, c in comps for ll, post in [model.detection_update(c, Z[[j]])]]
            log_l = logsumexp([lw for lw, _ in ups])
            self.close(ws.own_col[j], np.logaddexp(lam[j], log_l))
            self.close(r, math.exp(log_l - np.logaddexp(lam[j], log_l)))
            w = np.exp(np.array([lw for lw, _ in ups]) - log_l)
            mean = sum(wk * p.mean for wk, (_, p) in zip(w, ups))
            self.close(dens.mean, mean)
            cov = sum(wk * (p.cov + np.outer(p.mean - mean, p.mean - mean)) for wk, (_, p) in zip(w, ups))
            assert_allclose(dens.cov, cov, rtol=1e-9)


def two_global_posterior():
    d = ppp_only_density(log_w=0.0, mean=0.0, var=1.0)
    cfg = FilterConfig(clutter_regime="arbitrary")
    return update(d, np.array([[0.5]]), PointTargetModel(scalar_sensor()), nb_line_clutter(), cfg)


class TestNewTrackPosteriors:
    def test_sampled_update_builds_only_used_new_track_posteriors(self, monkeypatch):
        from pmbm import filtering

        matched = []
        real_match = filtering.moment_match

        def counted_match(*args, **kwargs):
            matched.append(1)
            return real_match(*args, **kwargs)

        monkeypatch.setattr(filtering, "moment_match", counted_match)
        calls = _gibbs_counter(monkeypatch)
        # A sure, tight track owns the point at 0; the intensity gives that
        # point a finite but negligible new-track weight, and strongly
        # covers the point at 50.
        ppp = GaussianMixture(
            [-30.0, 2.0],
            [GaussianDensity(np.zeros(1), np.array([[400.0]])), GaussianDensity(np.array([50.0]), np.eye(1))],
        )
        d = multi_track_density([0.0], r=0.99, var=0.1)
        d = PmbmDensity(ppp, d.trees, d.clutter_trees, d.globals_, d.universe, d.step)
        Z = np.array([[0.0], [50.0]])
        cfg = FilterConfig(clutter_regime="arbitrary", exhaustive_limit=1)
        out = checked_update(d, Z, PointTargetModel(scalar_sensor()), nb_line_clutter(), cfg)
        born = [t.origin for t in out.trees if t.origin[0] == "meas"]
        assert len(calls) == 1
        assert born == [("meas", 1, (2,))]
        assert len(matched) == len(born)


class TestCountTableStart:
    @pytest.mark.parametrize("card", [PoissonCardinality(0.0), NegBinomialCardinality(1.0, 1.0)])
    def test_sampled_update_without_all_clutter_mass_matches_enumeration(self, card, monkeypatch):
        # Clutter sets of one or more points have zero mass, so the sampler
        # cannot start from all-clutter; it finds the same four hypotheses
        # as enumeration.
        clutter = IidClusterClutter(card, Region((0.0,), (10.0,)))
        d = multi_track_density([5.0])
        Z = np.array([[4.5], [5.5], [6.0]])
        model = PointTargetModel(scalar_sensor())

        def weights(limit):
            cfg = FilterConfig(clutter_regime="arbitrary", exhaustive_limit=limit)
            return np.sort(global_weights(checked_update(d, Z, model, clutter, cfg)))

        want = weights(10**6)
        calls = _gibbs_counter(monkeypatch)
        got = weights(1)
        assert len(calls) == 1
        assert len(want) == 4
        assert_allclose(got, want, rtol=1e-12)


def _source(location):
    return ClutterSource(np.array([location]), 0.8, 1.0, np.array([[1.0]]))


class TestAssociationRouting:
    """Under the point model with at most one clutter column and tracks that
    can all miss, enumeration walks the association problem's candidate
    product; the labelings serve only what the problem cannot express."""

    SCAN = np.array([[0.4], [1.2], [9.6], [30.0]])

    @pytest.mark.parametrize(
        "regime, clutter",
        [
            ("arbitrary", nb_line_clutter()),  # count table
            ("arbitrary", PoissonClutter(2.0, LINE)),  # opaque density
            ("ppp-merged", PoissonClutter(2.0, LINE)),
            ("composite", CompositeClutter(PoissonClutter(2.0, LINE), (_source(30.0),))),
        ],
        ids=["count-table", "opaque", "merged", "one-source"],
    )
    def test_point_update_enumerates_its_association_problem(self, regime, clutter, monkeypatch):
        from pmbm import filtering

        problems = []
        real_problem = filtering.AssociationProblem

        def captured(*args, **kwargs):
            problems.append(real_problem(*args, **kwargs))
            return problems[-1]

        monkeypatch.setattr(filtering, "AssociationProblem", captured)
        labelings = _call_counter(monkeypatch, "_enumerate_labelings")
        gibbs = _gibbs_counter(monkeypatch)
        cfg = FilterConfig(clutter_regime=regime, exhaustive_limit=10**6)
        d = multi_track_density([0.0, 10.0])
        out = checked_update(d, self.SCAN, PointTargetModel(scalar_sensor()), clutter, cfg)
        assert labelings == [] and gibbs == []
        (p,) = problems
        vectors, log_w = enumerate_associations(p)
        assert len(out.globals_) == len(vectors) > 1
        assert_allclose(np.exp(global_weights(out)), np.exp(log_w), rtol=1e-12)

    def test_two_source_point_update_enumerates_labelings(self, monkeypatch):
        labelings = _call_counter(monkeypatch, "_enumerate_labelings")
        gibbs = _gibbs_counter(monkeypatch)
        clutter = CompositeClutter(PoissonClutter(2.0, LINE), (_source(30.0), _source(-30.0)))
        model = PointTargetModel(scalar_sensor())
        d = multi_track_density([0.0])
        Z = np.array([[0.4], [30.5], [-29.0]])
        cfg = FilterConfig(clutter_regime="composite", gate=1e12, exhaustive_limit=10**6)
        out = checked_update(d, Z, model, clutter, cfg)
        assert len(labelings) == 1 and gibbs == []
        want = brute_force_update(d, Z, model, list(clutter.sources), clutter.ppp)
        ok, lines = compare_signatures(density_signature(out, d, 2), want)
        assert ok, lines[:5]

    def test_certain_track_under_certain_detection_enumerates_labelings(self, monkeypatch):
        """pd = 1 and a track certain to exist (ps = 1 keeps it so) cannot
        miss, so it has no eta ratio: enumeration takes the labelings, and
        the sampled path refuses it."""
        labelings = _call_counter(monkeypatch, "_enumerate_labelings")
        gibbs = _gibbs_counter(monkeypatch)
        motion = LinearGaussianMotion(np.eye(1), 0.01 * np.eye(1), 1.0)
        d = predict(multi_track_density([0.0], r=1.0), motion, GaussianMixture())
        model = PointTargetModel(scalar_sensor(1.0))
        clutter = nb_line_clutter()
        Z = np.array([[0.4], [40.0]])  # only the first point is in the track's gate
        cfg = FilterConfig(clutter_regime="arbitrary")
        out = checked_update(d, Z, model, clutter, cfg)
        assert len(labelings) == 1 and gibbs == []
        want = brute_force_update(d, Z, model, [clutter], None)
        # Brute force also lets the track take the point outside its gate, at
        # a weight that vanishes next to the rest.
        outside = [key for key in want if key[3][0] == (1,)]
        assert outside and max(want[key].log_w for key in outside) < -100.0
        ok, lines = compare_signatures(
            density_signature(out, d, 1), {k: e for k, e in want.items() if k not in outside}
        )
        assert ok, lines[:5]
        with pytest.raises(NumericalError, match="cannot miss"):
            update(d, Z, model, clutter, replace(cfg, exhaustive_limit=1))

    def test_general_model_past_the_limit_refused(self):
        # Each of the two rows is clutter or a new track, times Bell(2) = 2
        # own-track partitions: 8 labelings.
        d = ppp_only_density(var=4.0)
        model = ExtendedTargetModel(scalar_sensor(), 1.5)
        Z = np.array([[0.3], [-0.4]])
        cfg = FilterConfig(clutter_regime="arbitrary", exhaustive_limit=8)
        assert len(checked_update(d, Z, model, nb_line_clutter(), cfg).globals_) == 5
        with pytest.raises(SizeLimitError, match="general-model"):
            update(d, Z, model, nb_line_clutter(), replace(cfg, exhaustive_limit=7))

    def test_two_source_point_update_past_the_limit_refused(self):
        # Each of the three rows is either source, the track or a new track.
        clutter = CompositeClutter(PoissonClutter(2.0, LINE), (_source(30.0), _source(-30.0)))
        model = PointTargetModel(scalar_sensor())
        d = multi_track_density([0.0])
        Z = np.array([[0.4], [30.5], [-29.0]])
        cfg = FilterConfig(clutter_regime="composite", gate=1e12, exhaustive_limit=4**3)
        checked_update(d, Z, model, clutter, cfg)
        with pytest.raises(SizeLimitError, match="multi-source"):
            update(d, Z, model, clutter, replace(cfg, exhaustive_limit=4**3 - 1))

    @pytest.mark.parametrize("limit", [10**6, 1])  # enumerated, sampled
    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_invalid_seed_refused_on_every_path(self, seed, limit, monkeypatch):
        gibbs = _gibbs_counter(monkeypatch)
        model = PointTargetModel(scalar_sensor())
        cfg = FilterConfig(clutter_regime="arbitrary", exhaustive_limit=limit)
        d = multi_track_density([0.0, 10.0])
        with pytest.raises(ConfigurationError, match="seed must be an integer >= 0"):
            update(d, self.SCAN, model, nb_line_clutter(), cfg, seed=seed)
        checked_update(d, self.SCAN, model, nb_line_clutter(), cfg)
        assert len(gibbs) == (limit == 1)


class TestReduce:
    def test_identity_when_thresholds_loose(self):
        d = two_global_posterior()
        cfg = FilterConfig(mbm_prune=1e-300, ppp_prune=1e-300, bern_prune=1e-300)
        out = reduce(d, cfg)
        assert len(out.globals_) == len(d.globals_)
        assert_allclose(np.sort(global_weights(out)), np.sort(global_weights(d)), atol=1e-12)
        assert out.universe == d.universe
        for g in out.globals_:
            assert validate_global(g, out.trees, out.clutter_trees, out.universe)

    def test_cap_keeps_single_best(self):
        d = two_global_posterior()
        best = max(d.globals_, key=lambda g: g.log_w)
        out = reduce(d, FilterConfig(max_global_hyps=1))
        assert len(out.globals_) == 1
        assert out.globals_[0].log_w == 0.0
        kept = out.globals_[0]
        # Same branch as the pre-reduction best, after index remapping.
        assert out.trees[0].hyps[kept.berns[0]].r == d.trees[0].hyps[best.berns[0]].r

    def test_weak_global_pruned_and_renormalized(self):
        dens = GaussianDensity(np.zeros(1), np.eye(1))
        tree = BernoulliTree(
            [LocalHypothesis(0.0, 0.5, dens, frozenset()) for _ in range(3)],
            ("birth", 0, 0),
        )
        w = np.array([0.7, 1e-6, 0.299999])
        d = PmbmDensity(
            ppp=GaussianMixture(),
            trees=[tree],
            clutter_trees=[],
            globals_=[GlobalHypothesis(math.log(x), (), (i,)) for i, x in enumerate(w)],
            universe=frozenset(),
            step=0,
        )
        out = reduce(d, FilterConfig(mbm_prune=1e-4))
        assert len(out.globals_) == 2
        assert_allclose(np.exp(global_weights(out)), [0.7, 0.299999] / (w[0] + w[2]), rtol=1e-12)
        # The unreferenced middle hypothesis is dropped and indices remapped.
        assert len(out.trees[0].hyps) == 2
        assert [g.berns for g in out.globals_] == [(0,), (1,)]

    def test_weak_tree_collected_with_pair_erasure(self):
        dens = GaussianDensity(np.zeros(1), np.eye(1))
        p1, p2 = MeasurementPair(1, 1), MeasurementPair(1, 2)
        strong = BernoulliTree([LocalHypothesis(0.0, 0.9, dens, {p1})], ("meas", 1, (1,)))
        weak = BernoulliTree([LocalHypothesis(0.0, 1e-7, dens, {p2})], ("meas", 1, (2,)))
        d = PmbmDensity(
            ppp=GaussianMixture(),
            trees=[strong, weak],
            clutter_trees=[ClutterTree([ClutterLocalHypothesis(0.0, frozenset())])],
            globals_=[GlobalHypothesis(0.0, (0,), (0, 0))],
            universe=frozenset({p1, p2}),
            step=1,
        )
        out = reduce(d, FilterConfig(bern_prune=1e-5))
        assert len(out.trees) == 1
        assert out.universe == frozenset({p1})
        assert validate_global(out.globals_[0], out.trees, out.clutter_trees, out.universe)

    def test_weak_tree_pair_erased_from_clutter_hypotheses(self):
        # g0 gives p2 to the weak tree; g1 declares p2 clutter.  Dropping the
        # weak tree erases p2 from g1's clutter hypothesis as well.
        dens = GaussianDensity(np.zeros(1), np.eye(1))
        p1, p2 = MeasurementPair(1, 1), MeasurementPair(1, 2)
        strong = BernoulliTree([LocalHypothesis(0.0, 0.9, dens, {p1})], ("meas", 1, (1,)))
        weak = BernoulliTree(
            [LocalHypothesis(0.0, 0.0, None, frozenset()), LocalHypothesis(0.0, 1e-7, dens, {p2})],
            ("meas", 1, (2,)),
        )
        ctree = ClutterTree(
            [ClutterLocalHypothesis(0.0, frozenset()), ClutterLocalHypothesis(0.0, frozenset({p2}))]
        )
        d = PmbmDensity(
            ppp=GaussianMixture(),
            trees=[strong, weak],
            clutter_trees=[ctree],
            globals_=[
                GlobalHypothesis(math.log(0.6), (0,), (0, 1)),
                GlobalHypothesis(math.log(0.4), (1,), (0, 0)),
            ],
            universe=frozenset({p1, p2}),
            step=1,
        )
        for g in d.globals_:
            assert validate_global(g, d.trees, d.clutter_trees, d.universe)
        out = reduce(d, FilterConfig(bern_prune=1e-5))
        assert len(out.trees) == 1
        assert out.universe == frozenset({p1})
        assert [h.pairs for h in out.clutter_trees[0].hyps] == [frozenset(), frozenset()]
        assert [g.clutter for g in out.globals_] == [(0,), (1,)]
        assert_allclose(np.exp(global_weights(out)), [0.6, 0.4], rtol=1e-12)
        for g in out.globals_:
            assert validate_global(g, out.trees, out.clutter_trees, out.universe)

    def test_indistinguishable_globals_merge(self):
        dens = GaussianDensity(np.zeros(1), np.eye(1))
        tree = BernoulliTree([LocalHypothesis(0.0, 0.5, dens, frozenset())], ("birth", 0, 0))
        d = PmbmDensity(
            ppp=GaussianMixture(),
            trees=[tree],
            clutter_trees=[],
            globals_=[
                GlobalHypothesis(math.log(0.4), (), (0,)),
                GlobalHypothesis(math.log(0.6), (), (0,)),
            ],
            universe=frozenset(),
            step=0,
        )
        out = reduce(d, FilterConfig())
        assert len(out.globals_) == 1
        assert_allclose(out.globals_[0].log_w, 0.0, atol=1e-12)

    def test_weak_intensity_components_pruned(self):
        ppp = GaussianMixture(
            [0.0, math.log(1e-9)],
            [GaussianDensity(np.zeros(1), np.eye(1)), GaussianDensity(np.ones(1), np.eye(1))],
        )
        d = PmbmDensity(ppp, [], [], [GlobalHypothesis(0.0, (), ())], frozenset(), 0)
        out = reduce(d, FilterConfig(ppp_prune=1e-5))
        assert len(out.ppp) == 1
        assert_allclose(out.ppp.comps[0].mean, [0.0])


class TestProjectToPmb:
    def test_single_global_after_projection(self):
        out = project_to_pmb(two_global_posterior())
        assert len(out.globals_) == 1
        assert out.globals_[0].log_w == 0.0
        assert all(len(t.hyps) == 1 for t in out.trees)

    def test_idempotent(self):
        once = project_to_pmb(two_global_posterior())
        twice = project_to_pmb(once)
        assert len(twice.globals_) == len(once.globals_) == 1
        for a, b in zip(once.trees, twice.trees):
            assert a.origin == b.origin
            assert_allclose(b.hyps[0].r, a.hyps[0].r, rtol=1e-12)
            if a.hyps[0].r > 0:
                assert_allclose(b.hyps[0].density.mean, a.hyps[0].density.mean, rtol=1e-12)
                assert_allclose(b.hyps[0].density.cov, a.hyps[0].density.cov, rtol=1e-12)

    def test_existence_is_weight_average(self):
        dens = GaussianDensity(np.array([2.0]), np.array([[1.0]]))
        tree = BernoulliTree(
            [
                LocalHypothesis(0.0, 0.0, None, frozenset()),
                LocalHypothesis(0.0, 1.0, dens, frozenset()),
            ],
            ("birth", 0, 0),
        )
        d = PmbmDensity(
            ppp=GaussianMixture(),
            trees=[tree],
            clutter_trees=[],
            globals_=[
                GlobalHypothesis(math.log(0.5), (), (0,)),
                GlobalHypothesis(math.log(0.5), (), (1,)),
            ],
            universe=frozenset(),
            step=0,
        )
        out = project_to_pmb(d)
        h = out.trees[0].hyps[0]
        assert_allclose(h.r, 0.5, rtol=1e-12)
        # Only the existing branch contributes spatial mass.
        assert_allclose(h.density.mean, [2.0], rtol=1e-12)
        assert_allclose(h.density.cov, [[1.0]], rtol=1e-12)

    def test_moment_match_hand_values(self):
        d0 = GaussianDensity(np.array([0.0]), np.array([[1.0]]))
        d2 = GaussianDensity(np.array([2.0]), np.array([[1.0]]))
        tree = BernoulliTree(
            [
                LocalHypothesis(0.0, 1.0, d0, frozenset()),
                LocalHypothesis(0.0, 1.0, d2, frozenset()),
            ],
            ("birth", 0, 0),
        )
        d = PmbmDensity(
            ppp=GaussianMixture(),
            trees=[tree],
            clutter_trees=[],
            globals_=[
                GlobalHypothesis(math.log(0.5), (), (0,)),
                GlobalHypothesis(math.log(0.5), (), (1,)),
            ],
            universe=frozenset(),
            step=0,
        )
        h = project_to_pmb(d).trees[0].hyps[0]
        assert_allclose(h.r, 1.0, rtol=1e-12)
        assert_allclose(h.density.mean, [1.0], rtol=1e-12)
        assert_allclose(h.density.cov, [[2.0]], rtol=1e-12)

    def test_preserves_track_marginals(self):
        d = two_global_posterior()
        before = target_marginals(d)
        after = target_marginals(project_to_pmb(d))
        assert [a["origin"] for a in after] == [b["origin"] for b in before]
        for a, b in zip(after, before):
            assert_allclose(a["r"], b["r"], atol=1e-12)
            if b["r"] > 0:
                assert_allclose(a["mean"], b["mean"], atol=1e-12)

    def test_bookkeeping_follows_best_global(self):
        dens = GaussianDensity(np.zeros(1), np.eye(1))
        p = MeasurementPair(1, 1)
        tree = BernoulliTree(
            [
                LocalHypothesis(0.0, 0.3, dens, frozenset()),
                LocalHypothesis(0.0, 0.9, dens, {p}),
            ],
            ("meas", 1, (1,)),
        )
        ctree = ClutterTree(
            [ClutterLocalHypothesis(0.0, {p}), ClutterLocalHypothesis(0.0, frozenset())]
        )
        d = PmbmDensity(
            ppp=GaussianMixture(),
            trees=[tree],
            clutter_trees=[ctree],
            globals_=[
                GlobalHypothesis(math.log(0.7), (1,), (1,)),
                GlobalHypothesis(math.log(0.3), (0,), (0,)),
            ],
            universe=frozenset({p}),
            step=1,
        )
        out = project_to_pmb(d)
        assert out.trees[0].hyps[0].pairs == frozenset({p})
        assert out.clutter_trees[0].hyps[0].pairs == frozenset()
        assert validate_global(out.globals_[0], out.trees, out.clutter_trees, out.universe)

    def test_empty_hypothesis_set_rejected(self):
        d = PmbmDensity(GaussianMixture(), [], [], [], frozenset(), 0)
        with pytest.raises(ConfigurationError):
            project_to_pmb(d)


def estimate_fixture(rs, weights=None):
    dens = [GaussianDensity(np.array([float(i)]), np.eye(1)) for i in range(len(rs))]
    trees = [
        BernoulliTree(
            [LocalHypothesis(0.0, r, d if r > 0 else None, frozenset())], ("birth", 0, i)
        )
        for i, (r, d) in enumerate(zip(rs, dens))
    ]
    if weights is None:
        weights = [0.0]
    globals_ = [GlobalHypothesis(w, (), (0,) * len(trees)) for w in weights]
    return PmbmDensity(GaussianMixture(), trees, [], globals_, frozenset(), 0)


class TestEstimate:
    def test_empty_state_yields_no_targets(self):
        assert estimate(initial_density()) == []
        assert estimate(initial_density(), method="existence-threshold") == []

    def test_certain_target_reported_by_both_methods(self):
        d = estimate_fixture([1.0])
        for method in ("map-cardinality", "existence-threshold"):
            out = estimate(d, method=method)
            assert len(out) == 1
            assert_allclose(out[0], [0.0])

    def test_map_cardinality_keeps_only_likely_tracks(self):
        out = estimate(estimate_fixture([0.6, 0.3]))
        assert len(out) == 1
        assert_allclose(out[0], [0.0])

    def test_methods_disagree_between_half_and_threshold(self):
        d = estimate_fixture([0.6, 0.45])
        assert len(estimate(d, method="map-cardinality")) == 1
        assert len(estimate(d, method="existence-threshold", threshold=0.4)) == 2

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigurationError):
            estimate(estimate_fixture([0.6]), method="viterbi")

    @pytest.mark.parametrize("threshold", [-0.5, math.nan, 1.5])
    def test_negative_threshold_rejected(self, threshold):
        # A negative threshold would report the mean of a hypothesis with
        # r = 0, which has no density; one above 1 would report nothing.
        d = estimate_fixture([0.6, 0.0])
        with pytest.raises(ConfigurationError, match="threshold"):
            estimate(d, method="existence-threshold", threshold=threshold)

    def test_invariant_to_weight_rescaling(self):
        base = estimate_fixture([0.6, 0.3], weights=[math.log(0.2), math.log(0.8)])
        shifted = PmbmDensity(
            base.ppp,
            base.trees,
            base.clutter_trees,
            [GlobalHypothesis(g.log_w + 3.7, g.clutter, g.berns) for g in base.globals_],
            base.universe,
            base.step,
        )
        for method in ("map-cardinality", "existence-threshold"):
            a = estimate(base, method=method)
            b = estimate(shifted, method=method)
            assert len(a) == len(b)
            for x, y in zip(a, b):
                assert_allclose(x, y)


class TestSequence:
    def test_three_steps_stay_consistent(self, pos_sensor, cv_motion, nb_clutter):
        cfg = FilterConfig(clutter_regime="arbitrary", max_global_hyps=50)
        model = PointTargetModel(pos_sensor)
        birth = GaussianMixture(
            [math.log(5.0)],
            [GaussianDensity(np.array([150.0, 0.0, 150.0, 0.0]), np.diag([50.0, 1.0, 50.0, 1.0]) ** 2)],
        )
        scans = [
            np.array([[148.0, 151.0], [40.0, 250.0]]),
            np.array([[149.0, 152.0], [151.0, 148.0]]),
            np.array([[150.0, 153.0]]),
        ]
        d = initial_density()
        for k, Z in enumerate(scans):
            d = predict(d, cv_motion, birth)
            d = checked_update(d, Z, model, nb_clutter, cfg, seed=7)
            assert d.step == k + 1
            assert_allclose(logsumexp(global_weights(d)), 0.0, atol=1e-9)
            d = reduce(d, cfg)
            assert_allclose(logsumexp(global_weights(d)), 0.0, atol=1e-9)
            for g in d.globals_:
                assert validate_global(g, d.trees, d.clutter_trees, d.universe)
        states = estimate(d)
        for x in states:
            assert x.shape == (4,)
