import json
import math
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import logsumexp

from conftest import checked_update
from pmbm import harness
from pmbm.clutter import ClutterSource, CompositeClutter, IidClusterClutter, PoissonClutter, Region
from pmbm.errors import ConfigurationError, NumericalError
from pmbm.filtering import FilterConfig, initial_density, update
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
from pmbm.hypotheses import validate_global
from pmbm.measmodel import PointTargetModel
from pmbm.oracle import KEEP_ALL, brute_force_update, compare_signatures, density_signature

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
            {"meas_noise": 0.0},
            {"accel_noise": 0.0},
            {"dt": -1.0},
            # These used to fail only inside the runs: every run at step 1, a
            # crash in estimation, or no births at all.
            {"estimator": "median"},
            {"estimator_threshold": -0.5},
            {"estimator_threshold": 1.5},
            {"birth_weight_first": -1.0},
            {"birth_weight": -0.1},
            # numpy refused it only inside experiment(), with a traceback.
            {"seed": -1},
            # From the Python API these crashed experiment() with a TypeError,
            # and steps=True ran one step.
            {"steps": 2.5},
            {"runs": 1.5},
            {"seed": 1.5},
            {"steps": True},
            {"runs": True},
            {"seed": False},
            # Only a YAML file was type-checked: the string failed in a
            # comparison and the wrong lengths were taken.
            {"detection": "0.9"},
            {"birth_mean": (1.0, 2.0)},
            {"region_lo": (0.0, 0.0, 0.0)},
            # Filter settings were refused only by filter_bank, GOSPA settings
            # only in the first run, after the truth and scans were drawn.
            {"gate": -1.0},
            {"mbm_prune": 2.0},
            {"max_global_hyps": 0},
            {"gospa_order": 0.5},
            {"gospa_cutoff": -1.0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(**kwargs)

    def test_sequence_entries_become_floats(self):
        cfg = ScenarioConfig(region_lo=[0, np.float64(1.5)])
        assert cfg.region_lo == (0.0, 1.5) and all(type(v) is float for v in cfg.region_lo)

    def test_dict_round_trip(self):
        assert scenario_from_dict(scenario_to_dict(TINY)) == TINY

    def test_yaml_round_trip(self, tmp_path):
        path = str(tmp_path / "scenario.yaml")
        save_scenario(TINY, path)
        assert load_scenario(path) == TINY

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError):
            scenario_from_dict({"stepz": 3})

    @pytest.mark.parametrize(
        "text",
        [
            "steps: 10.5",
            "runs: '3'",
            "seed: 1.5",
            "clutter_mean: '10'",
            "birth_mean: 5",
            "birth_mean: [150, 0, 150]",
            "region_hi: [300.0, '300']",
            "detection: true",
            "estimator: 2",
        ],
    )
    def test_wrongly_typed_value_rejected(self, tmp_path, text):
        path = tmp_path / "typed.yaml"
        path.write_text(text + "\n")
        with pytest.raises(ConfigurationError, match=text.split(":")[0]):
            load_scenario(str(path))

    @pytest.mark.parametrize(
        "text",
        [
            "clutter_mean: .nan",
            "gospa_cutoff: .nan",
            "dt: .nan",
            "meas_noise: .nan",
            "accel_noise: .inf",
            "birth_std: [.nan, 1.0, 50.0, 1.0]",
            "gate: .nan",
            "birth_weight: .nan",
            "mbm_prune: .nan",
        ],
    )
    def test_non_finite_value_rejected(self, tmp_path, text):
        path = tmp_path / "nan.yaml"
        path.write_text(text + "\n")
        with pytest.raises(ConfigurationError, match=text.split(":")[0] + " must be finite"):
            load_scenario(str(path))

    def test_valid_values_kept_as_given(self, tmp_path):
        # An int is a valid float value and is not converted, so the
        # config.yaml echo of a valid file keeps what the file said.
        data = {"clutter_mean": 10, "steps": 3, "region_lo": [0, 0]}
        cfg = scenario_from_dict(data)
        assert type(cfg.clutter_mean) is int and cfg.region_lo == (0.0, 0.0)
        path = str(tmp_path / "echo.yaml")
        save_scenario(cfg, path)
        assert "clutter_mean: 10\n" in Path(path).read_text()

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

    @pytest.mark.parametrize(
        "names, message", [(("pmb", "pmb"), "filter name listed twice: pmb"), ((), "no filter names")]
    )
    def test_repeated_or_missing_name_rejected(self, names, message):
        # A repeated name reported runs: 4 for two runs and overwrote
        # per_run_rms; an empty list failed only in aggregation.
        with pytest.raises(ConfigurationError, match=message):
            experiment(replace(TINY, steps=3), names)

    def test_non_integer_hypothesis_cap_rejected(self):
        # The scenario refuses the cap before any run starts, instead of a
        # crash inside ``reduce``.
        with pytest.raises(ConfigurationError, match="max_global_hyps"):
            filter_bank(ScenarioConfig(max_global_hyps=2.5))


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

    @pytest.mark.parametrize(
        "name,mean,outside",
        [("a-pmbm", 3.0, True), ("a-pmb", 3.0, True), ("mbm", 3.0, True),
         ("a-pmbm", 0.0, False), ("a-pmb", 0.0, False), ("mbm", 0.0, False)],
    )
    def test_sampled_scan_that_cannot_be_all_clutter_runs(self, name, mean, outside):
        # Under an opaque Poisson clutter density, a point outside the region
        # or a zero clutter mean gives the all-clutter association zero
        # weight, so the sampler must start elsewhere.  Where no association
        # has positive weight the update takes the forced fallback: mbm has
        # no new tracks from a Poisson birth, and too few birth Bernoullis.
        cfg = replace(TINY, steps=3, runs=1, clutter_family="poisson", clutter_mean=mean)
        truth = sample_ground_truth(cfg, truth_rng(cfg))
        if outside:
            scans = sample_scans(truth, cfg, np.random.default_rng(4))
            scans = [np.vstack([z, [[-50.0, 10.0]]]) for z in scans]
        else:
            scans = [np.random.default_rng(k).uniform(100.0, 200.0, (7, 2)) for k in range(3)]
        (spec,) = filter_bank(cfg, (name,))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rec = run_trial(cfg, spec, truth, scans, 0, assoc_seed=2)
        assert not rec.failed, rec.error
        fallbacks = [w for w in caught if "forced all-clutter fallback" in str(w.message)]
        assert bool(fallbacks) == (name == "mbm")

    def test_count_table_scan_with_unexplainable_point_falls_back(self):
        # Under NB clutter, mbm can explain a point outside the region with
        # nothing: no tree gates it and there are no Poisson births.  The
        # sampler returns no association, as on the general branch, and the
        # update takes the forced fallback instead of failing the run.
        cfg = replace(TINY, steps=3, runs=1, clutter_mean=10.0, max_global_hyps=5)
        truth = sample_ground_truth(cfg, truth_rng(cfg))
        scans = sample_scans(truth, cfg, np.random.default_rng(4))
        scans = [np.vstack([z, [[-50.0, 10.0]]]) for z in scans]
        (spec,) = filter_bank(cfg, ("mbm",))
        with pytest.warns(UserWarning, match="forced all-clutter fallback"):
            rec = run_trial(cfg, spec, truth, scans, 0, assoc_seed=2)
        assert not rec.failed, rec.error

    def test_size_limit_failure_is_recorded(self):
        # Two clutter sources are associated exhaustively only; a 13-point
        # scan has 3^13 candidate labelings, past the exhaustive limit.
        cfg = replace(TINY, steps=2, runs=1)
        sources = tuple(
            ClutterSource(loc, 0.5, 2.0, 25.0 * np.eye(2)) for loc in ((100.0, 200.0), (200.0, 100.0))
        )
        spec = FilterSpec(
            "c-composite",
            FilterConfig(clutter_regime="composite", max_global_hyps=5),
            CompositeClutter(PoissonClutter(2.0, region(cfg)), sources),
        )
        scans = [np.random.default_rng(0).uniform(0.0, 300.0, (13, 2))] * 2
        rec = run_trial(cfg, spec, GroundTruth([], 2), scans, 0, assoc_seed=1)
        assert rec.failed
        assert rec.error == "step 1: multi-source association spaces must fit the exhaustive limit"


    @pytest.mark.parametrize("regime", ["arbitrary", "ppp-merged"])
    def test_clutter_of_another_dimension_is_recorded(self, regime):
        # numpy's broadcast ValueError escaped run_trial and ended the
        # experiment.
        cfg = replace(TINY, steps=2, runs=1)
        cube = Region((0.0, 0.0, 0.0), (300.0, 300.0, 300.0))
        spec = FilterSpec(
            "cube", FilterConfig(clutter_regime=regime, max_global_hyps=5), PoissonClutter(2.0, cube)
        )
        scans = [np.array([[40.0, 40.0]])] * 2
        rec = run_trial(cfg, spec, GroundTruth([], 2), scans, 0, assoc_seed=1)
        assert rec.failed
        assert rec.error == "step 1: measurements need width 3, got shape (1, 2)"

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


class TestFilterStep:
    """The phases are looked up as ``harness`` globals when a step runs, so
    patching them there reaches every step."""

    PHASES = ("predict", "update", "reduce", "project_to_pmb", "estimate")

    def _trial(self, name):
        truth = sample_ground_truth(TINY, truth_rng(TINY))
        scans = sample_scans(truth, TINY, np.random.default_rng(7))
        (spec,) = filter_bank(TINY, (name,))
        return run_trial(TINY, spec, truth, scans, 0, assoc_seed=3)

    @pytest.mark.parametrize("name", ["pmb", "pmbm", "mbm"])
    def test_each_phase_runs_once_per_step(self, monkeypatch, name):
        calls = []

        def counting(phase):
            inner = getattr(harness, phase)

            def wrapper(*args, **kwargs):
                calls.append((phase, args))
                return inner(*args, **kwargs)

            return wrapper

        for phase in self.PHASES:
            monkeypatch.setattr(harness, phase, counting(phase))
        rec = self._trial(name)
        assert not rec.failed
        per_step = [p for p in self.PHASES if name == "pmb" or p != "project_to_pmb"]
        assert [phase for phase, _ in calls] == per_step * TINY.steps
        predicts = [args for phase, args in calls if phase == "predict"]
        if name == "mbm":
            _, _, birth, bernoulli = predicts[0]
            assert len(birth.log_w) == 0
            assert len(bernoulli) > 0
            assert all(0.0 < r <= 1.0 for r, _ in bernoulli)
        else:
            assert all(len(args) == 3 and len(args[2].log_w) == 1 for args in predicts)

    def test_foreign_exception_from_phase_propagates(self, monkeypatch):
        # Only package errors become failed runs; anything else (such as a
        # patched phase that stops the run on purpose) reaches the caller.
        class Stop(Exception):
            pass

        def stop(*args, **kwargs):
            raise Stop

        monkeypatch.setattr(harness, "predict", stop)
        with pytest.raises(Stop):
            self._trial("pmbm")

    def test_readme_library_block_runs(self, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme[readme.index("## Library use"):]
        code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
        exec(compile(code, "README.md", "exec"), {})
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == [f"step {k}" for k in range(1, 6)]


@st.composite
def edge_runs(draw):
    """A short scenario with random detection (certain and near-zero among
    the draws), clutter and hypothesis cap, and per-step scan kinds:
    sampled, empty, sampled plus a point outside the region, or 80 uniform
    points."""
    cfg = replace(
        TINY,
        steps=4,
        runs=1,
        detection=draw(st.floats(0.05, 0.99) | st.sampled_from([1.0, 1e-6])),
        clutter_family=draw(st.sampled_from(["nb", "poisson"])),
        clutter_mean=draw(st.floats(0.5, 20.0)),
        clutter_dispersion=draw(st.floats(1.5, 40.0)),
        max_global_hyps=draw(st.integers(1, 30)),
        seed=draw(st.integers(0, 2**16)),
    )
    kinds = st.sampled_from(["sampled", "empty", "outside", "dense"])
    return cfg, draw(st.lists(kinds, min_size=cfg.steps, max_size=cfg.steps))


def oracle_checked_update(d, Z, model, clutter, cfg, seed=0):
    """``checked_update``; on a predicted state of at most 3 trees and a scan
    of at most 3 points, also the exact update (no gate, enumeration only)
    against the brute-force joint enumeration."""
    out = checked_update(d, Z, model, clutter, cfg, seed=seed)
    if len(d.trees) <= 3 and len(Z) <= 3:
        exact = replace(
            KEEP_ALL, mode=cfg.mode, clutter_regime=cfg.clutter_regime, gate=1e12, exhaustive_limit=10**9
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            post = update(d, Z, model, clutter, exact)
        if cfg.clutter_regime == "arbitrary":
            sources, ppp_c = [clutter], None
        else:
            sources, ppp_c = [], clutter
        want = brute_force_update(d, Z, model, sources, ppp_c)
        if any("forced all-clutter fallback" in str(w.message) for w in caught):
            # No association has positive weight; brute force agrees.
            assert all(e.log_w == -math.inf for e in want.values())
        else:
            ok, lines = compare_signatures(density_signature(post, d, len(sources)), want)
            assert ok, lines[:5]
    return out


class TestScenarioProperties:
    @given(run=edge_runs())
    @settings(max_examples=12, deadline=None)
    def test_every_filter_keeps_a_valid_state(self, run):
        """For every filter, each update output and each step's state hold
        only global hypotheses that are valid partitions of the
        measurements, and each step's global weights are normalized.  On
        small steps the exact update matches the brute-force oracle."""
        cfg, kinds = run
        rng = np.random.default_rng(cfg.seed)
        truth = sample_ground_truth(cfg, truth_rng(cfg))
        scans = []
        for z, kind in zip(sample_scans(truth, cfg, rng), kinds):
            if kind == "empty":
                z = np.zeros((0, 2))
            elif kind == "outside":
                z = np.vstack([z, [[-50.0, 10.0]]])
            elif kind == "dense":
                z = rng.uniform(0.0, 300.0, (80, 2))
            scans.append(z)
        model, motion = PointTargetModel(sensor_model(cfg)), motion_model(cfg)
        for spec in filter_bank(cfg, ALL_FILTERS):
            d = initial_density()
            for k, z in enumerate(scans, start=1):
                with warnings.catch_warnings(), pytest.MonkeyPatch.context() as mp:
                    # mbm cannot explain a point outside the region.
                    warnings.filterwarnings("ignore", "no association had positive weight")
                    mp.setattr(harness, "update", oracle_checked_update)
                    d, _ = harness.filter_step(d, z, k, spec, cfg, model, motion, seed=k)
                weights = [g.log_w for g in d.globals_]
                assert abs(logsumexp(weights)) < 1e-9, (spec.name, k)
                for g in d.globals_:
                    assert validate_global(g, d.trees, d.clutter_trees, d.universe), (spec.name, k)


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
