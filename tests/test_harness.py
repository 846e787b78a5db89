import json
import math
from dataclasses import replace

import numpy as np
import pytest
import yaml
from numpy.testing import assert_allclose

from pmbm.clutter import ClutterSource, CompositeClutter, IidClusterClutter, PoissonClutter
from pmbm.errors import ConfigurationError, NumericalError
from pmbm.filtering import FilterConfig
from pmbm.harness import (
    ALL_FILTERS,
    DEFAULT_FILTERS,
    FilterSpec,
    GroundTruth,
    GroundTruthTarget,
    RunRecord,
    ScenarioConfig,
    aggregate_metrics,
    birth_mixture,
    clutter_model,
    curves_csv_text,
    experiment,
    filter_bank,
    gospa_csv_text,
    load_scenario,
    merged_clutter,
    motion_model,
    paired_wins,
    region,
    run_trial,
    sample_ground_truth,
    sample_scans,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    sensor_model,
)

# Small but otherwise faithful variant of the default scenario.
TINY = ScenarioConfig(steps=6, runs=2, max_global_hyps=20, clutter_mean=3.0, clutter_dispersion=4.0)


def truth_rng(cfg):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((cfg.seed, 0, 0))))


class TestScenarioConfig:
    def test_default_values(self):
        cfg = ScenarioConfig()
        assert cfg.steps == 81
        assert cfg.runs == 20
        assert cfg.clutter_family == "nb"
        assert (cfg.clutter_mean, cfg.clutter_dispersion) == (10.0, 20.0)
        assert cfg.estimator == "map-cardinality"
        assert region(cfg).area == 90000.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"steps": 0},
            {"detection": 1.5},
            {"survival": -0.1},
            {"clutter_family": "uniform"},
            {"truth_mode": "sometimes"},
            {"runs": 0},
            {"region_hi": (0.0, 300.0)},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(**kwargs)

    def test_dict_round_trip(self):
        assert scenario_from_dict(scenario_to_dict(TINY)) == TINY

    def test_yaml_round_trip(self, tmp_path):
        path = str(tmp_path / "scenario.yaml")
        save_scenario(TINY, path)
        assert load_scenario(path) == TINY

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError):
            scenario_from_dict({"stepz": 3})

    def test_non_mapping_file_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("- 1\n- 2\n")
        with pytest.raises(ConfigurationError):
            load_scenario(str(path))

    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        assert load_scenario(str(path)) == ScenarioConfig()


class TestModelBuilders:
    def test_motion_block_structure(self):
        m = motion_model(ScenarioConfig(dt=2.0, accel_noise=0.5))
        assert_allclose(m.F @ np.array([0.0, 1.0, 0.0, 0.0]), [2.0, 1.0, 0.0, 0.0])
        assert_allclose(m.Q[0, 0], 0.5 * 8.0 / 3.0)
        assert_allclose(m.Q[0, 1], 0.5 * 2.0)
        assert_allclose(m.Q, m.Q.T)
        assert m.ps == 0.99

    def test_sensor_reads_positions(self):
        s = sensor_model(ScenarioConfig())
        assert_allclose(s.H @ np.array([1.0, 2.0, 3.0, 4.0]), [1.0, 3.0])
        assert_allclose(s.R, 4.0 * np.eye(2))
        assert s.pd == 0.9

    def test_birth_mixture_schedule(self):
        cfg = ScenarioConfig()
        assert_allclose(birth_mixture(cfg, 1).total_mass(), 5.0, rtol=1e-12)
        assert_allclose(birth_mixture(cfg, 7).total_mass(), 0.1, rtol=1e-12)
        assert len(birth_mixture(replace(cfg, birth_weight=0.0), 2)) == 0

    def test_clutter_families(self):
        nb = clutter_model(ScenarioConfig())
        assert isinstance(nb, IidClusterClutter)
        assert_allclose(nb.cardinality.mean, 10.0, rtol=1e-12)
        assert_allclose(nb.cardinality.variance(), 200.0, rtol=1e-12)
        pp = clutter_model(ScenarioConfig(clutter_family="poisson"))
        assert isinstance(pp, PoissonClutter)
        assert pp.rate == 10.0

    def test_merged_baseline_matches_mean(self):
        merged = merged_clutter(ScenarioConfig())
        assert isinstance(merged, PoissonClutter)
        assert merged.rate == 10.0
        assert merged.region.area == 90000.0


class TestGroundTruth:
    def test_sampling_is_deterministic(self):
        a = sample_ground_truth(TINY, truth_rng(TINY))
        b = sample_ground_truth(TINY, truth_rng(TINY))
        assert len(a.targets) == len(b.targets)
        for ta, tb in zip(a.targets, b.targets):
            assert ta.birth == tb.birth
            assert_allclose(ta.states, tb.states)

    def test_lifetimes_inside_horizon(self):
        truth = sample_ground_truth(TINY, truth_rng(TINY))
        assert truth.steps == TINY.steps
        for t in truth.targets:
            assert 1 <= t.birth <= t.death <= TINY.steps
            assert t.states.shape == (t.death - t.birth + 1, 4)

    def test_states_at_collects_alive_targets(self):
        truth = GroundTruth(
            [
                GroundTruthTarget(1, np.zeros((2, 4))),
                GroundTruthTarget(2, np.ones((3, 4))),
            ],
            steps=4,
        )
        assert truth.states_at(1).shape == (1, 4)
        assert truth.states_at(2).shape == (2, 4)
        assert truth.states_at(4).shape == (1, 4)
        assert_allclose(truth.positions_at(3), [[1.0, 1.0]])

    def test_scans_shapes_and_determinism(self):
        truth = sample_ground_truth(TINY, truth_rng(TINY))
        rng = np.random.default_rng(3)
        scans = sample_scans(truth, TINY, rng)
        assert len(scans) == TINY.steps
        assert all(s.ndim == 2 and s.shape[1] == 2 for s in scans)
        again = sample_scans(truth, TINY, np.random.default_rng(3))
        for a, b in zip(scans, again):
            assert_allclose(a, b)


class TestFilterBank:
    def test_bank_composition(self):
        specs = {s.name: s for s in filter_bank(ScenarioConfig(), ALL_FILTERS)}
        assert set(specs) == {"a-pmbm", "a-pmb", "pmbm", "pmb", "mbm"}
        assert specs["a-pmbm"].filter_cfg.clutter_regime == "arbitrary"
        assert isinstance(specs["a-pmbm"].clutter, IidClusterClutter)
        assert specs["a-pmbm"].filter_cfg.mode == "pmbm"
        assert specs["a-pmb"].filter_cfg.mode == "pmb"
        assert specs["pmbm"].filter_cfg.clutter_regime == "ppp-merged"
        assert isinstance(specs["pmbm"].clutter, PoissonClutter)
        assert specs["pmb"].filter_cfg.mode == "pmb"
        assert specs["pmb"].filter_cfg.clutter_regime == "ppp-merged"
        assert specs["mbm"].filter_cfg.mode == "mbm"

    def test_filter_settings_follow_scenario(self):
        cfg = ScenarioConfig(max_global_hyps=7, gate=11.0)
        spec = filter_bank(cfg, ("a-pmbm",))[0]
        assert spec.filter_cfg.max_global_hyps == 7
        assert spec.filter_cfg.gate == 11.0

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            filter_bank(ScenarioConfig(), ("a-pmbm", "gnn"))


def fake_record(name, run, totals):
    rows = [(t, t**2 * 0.5, t**2 * 0.25, t**2 * 0.25) for t in totals]
    return RunRecord(name, run, seed=0, gospa=rows, ms=[1.0] * len(totals))


class TestAggregation:
    def test_rms_values(self):
        records = [fake_record("x", 0, [3.0, 4.0]), fake_record("x", 1, [0.0, 0.0])]
        m = aggregate_metrics(records)
        assert_allclose(m["x"]["rms_total"], math.sqrt(25.0 / 4.0), rtol=1e-12)
        assert_allclose(m["x"]["curve"], [math.sqrt(4.5), math.sqrt(8.0)], rtol=1e-12)
        assert m["x"]["runs"] == 2
        assert m["x"]["failed_runs"] == 0
        assert_allclose(m["x"]["per_run_rms"][0], math.sqrt(12.5), rtol=1e-12)

    def test_failed_runs_excluded(self):
        bad = RunRecord("x", 1, 0, [], [], failed=True, error="step 3: boom")
        m = aggregate_metrics([fake_record("x", 0, [1.0]), bad])
        assert m["x"]["runs"] == 1
        assert m["x"]["failed_runs"] == 1

    def test_all_failed_rejected(self):
        bad = RunRecord("x", 0, 0, [], [], failed=True, error="boom")
        with pytest.raises(NumericalError):
            aggregate_metrics([bad])

    def test_paired_wins(self):
        m = aggregate_metrics(
            [
                fake_record("a", 0, [1.0]),
                fake_record("a", 1, [2.0]),
                fake_record("b", 0, [2.0]),
                fake_record("b", 1, [1.0]),
            ]
        )
        assert paired_wins(m, "a", "b") == (1, 2)
        assert paired_wins(m, "a", "missing") == (0, 0)

    def test_csv_layout(self):
        records = [fake_record("x", 0, [3.0]), RunRecord("x", 1, 0, [], [], failed=True)]
        text = gospa_csv_text(records)
        lines = text.splitlines()
        assert lines[0] == "filter,run,step,total,loc,missed,false"
        assert len(lines) == 2  # failed run contributes nothing
        assert lines[1].startswith("x,0,1,3.0,")
        curves = curves_csv_text(aggregate_metrics(records))
        assert curves.splitlines()[0] == "filter,step,rms_total"


class TestExperiment:
    def test_tiny_experiment_summary(self):
        records, summary = experiment(TINY, ("a-pmbm", "pmbm"))
        assert len(records) == TINY.runs * 2
        assert not any(r.failed for r in records)
        assert summary["schema_version"] == 1
        assert summary["filters"] == ["a-pmbm", "pmbm"]
        for name in ("a-pmbm", "pmbm"):
            m = summary["metrics"][name]
            assert len(m["curve"]) == TINY.steps
            assert "per_run_rms" not in m
            assert m["rms_total"] > 0.0
        wins, comparable = summary["paired"]["a-pmbm_vs_pmbm"]
        assert comparable == TINY.runs
        assert 0 <= wins <= comparable

    def test_repeat_is_byte_identical(self):
        rec_a, _ = experiment(TINY, ("a-pmbm",))
        rec_b, _ = experiment(TINY, ("a-pmbm",))
        assert gospa_csv_text(rec_a) == gospa_csv_text(rec_b)

    def test_truth_modes_differ(self):
        per_run = replace(TINY, truth_mode="per-run", runs=2)
        rec_a, _ = experiment(TINY, ("pmbm",))
        rec_b, _ = experiment(per_run, ("pmbm",))
        assert gospa_csv_text(rec_a) != gospa_csv_text(rec_b)

    def test_empty_world_scores_zero(self):
        cfg = replace(
            TINY,
            birth_weight_first=0.0,
            birth_weight=0.0,
            clutter_family="poisson",
            clutter_mean=0.0,
            runs=1,
        )
        records, _ = experiment(cfg, ("a-pmbm", "pmb", "mbm"))
        for r in records:
            assert not r.failed
            for row in r.gospa:
                assert row == (0.0, 0.0, 0.0, 0.0)

    def test_mbm_filter_runs(self):
        records, summary = experiment(replace(TINY, runs=1), ("mbm",))
        assert len(records) == 1
        assert not records[0].failed
        assert summary["metrics"]["mbm"]["rms_total"] >= 0.0

    def test_certain_detection_failure_is_recorded(self):
        cfg = replace(TINY, steps=3, runs=1, detection=1.0, survival=1.0)
        spec = FilterSpec(
            "crash",
            FilterConfig(
                mode="pmbm",
                clutter_regime="arbitrary",
                exhaustive_limit=1,
                gate=400.0,
                max_global_hyps=20,
            ),
            clutter_model(cfg),
        )
        truth = GroundTruth([GroundTruthTarget(1, np.tile([150.0, 0.0, 150.0, 0.0], (3, 1)))], 3)
        scans = [np.array([[150.0, 150.0], [10.0, 10.0]])] * 3
        rec = run_trial(cfg, spec, truth, scans, 0, assoc_seed=5)
        # A certain-detection track cannot miss on the sampled path; the
        # harness records the failure instead of crashing the experiment.
        assert rec.failed
        assert rec.error.startswith("step ")
        with pytest.raises(NumericalError):
            aggregate_metrics([rec])

    def test_size_limit_failure_is_recorded(self):
        # Composite clutter evaluated as an opaque density is guarded at 12
        # measurements; the sampler reaches the guard on a 13-point scan.
        cfg = replace(TINY, steps=2, runs=1)
        source = ClutterSource((100.0, 200.0), 0.5, 2.0, 25.0 * np.eye(2))
        spec = FilterSpec(
            "c-arbitrary",
            FilterConfig(clutter_regime="arbitrary", max_global_hyps=5),
            CompositeClutter(PoissonClutter(2.0, region(cfg)), (source,)),
        )
        scans = [np.random.default_rng(0).uniform(0.0, 300.0, (13, 2))] * 2
        rec = run_trial(cfg, spec, GroundTruth([], 2), scans, 0, assoc_seed=1)
        assert rec.failed
        assert rec.error == "step 1: composite clutter density limited to 12 measurements, got 13"


    def test_configuration_error_mid_run_is_recorded(self):
        class RefusesThreePoints:
            """A clutter density that refuses sets of three or more points."""

            def __init__(self, inner):
                self.inner = inner

            def log_density(self, Z):
                if len(Z) >= 3:
                    raise ConfigurationError("clutter refuses 3 points")
                return self.inner.log_density(Z)

        cfg = replace(TINY, steps=4, runs=1)
        spec = FilterSpec(
            "refuses",
            FilterConfig(clutter_regime="arbitrary", max_global_hyps=5),
            RefusesThreePoints(clutter_model(cfg)),
        )
        pts = np.array([[40.0, 40.0], [120.0, 200.0], [250.0, 60.0]])
        scans = [pts[:2], pts[:1], pts, pts[:1]]
        rec = run_trial(cfg, spec, GroundTruth([], 4), scans, 0, assoc_seed=1)
        assert rec.failed
        assert rec.error == "step 3: clutter refuses 3 points"
        assert len(rec.gospa) == 2


class TestOutputs:
    def test_written_files(self, tmp_path):
        out = tmp_path / "exp"
        records, summary = experiment(replace(TINY, runs=1), ("a-pmbm",), out_dir=str(out))
        names = {p.name for p in out.iterdir()}
        assert names == {"gospa.csv", "curves.csv", "summary.json", "config.yaml"}
        text = (out / "gospa.csv").read_text()
        assert text == gospa_csv_text(records)
        loaded = json.loads((out / "summary.json").read_text())
        assert loaded == json.loads(json.dumps(summary))
        with open(out / "config.yaml", "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
        assert scenario_from_dict(data) == replace(TINY, runs=1)
