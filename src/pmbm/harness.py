"""Simulation harness: scenario configuration, ground-truth and measurement
sampling, the filter step, Monte Carlo execution, metric aggregation, and
file outputs.

`filter_step` is the one place the recursion is written out: predict (with
the multi-Bernoulli birth in mode "mbm"), update, reduce, the PMB projection
in mode "pmb" and estimation. It looks the phases up as this module's
globals at call time, so a patch of, say, `harness.predict` reaches every
step. `run_trial` loops over it and scores each step with GOSPA.

The default scenario is a 2-D constant-velocity tracking problem on a
300 m x 300 m region with Poisson births and negative-binomial clutter.
Runs are paired: every filter sees the same truth and the same scans for a
given run index, and all randomness is keyed off the master seed, so
outputs are reproducible byte for byte.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np
import yaml

from .clutter import IidClusterClutter, PoissonClutter, Region, nb_from_mean_dispersion
from .densities import (
    GaussianDensity,
    GaussianMixture,
    LinearGaussianMotion,
    LinearGaussianSensor,
)
from .errors import ConfigurationError, NumericalError, PmbmError
from .filtering import (
    FilterConfig,
    estimate,
    initial_density,
    predict,
    project_to_pmb,
    reduce,
    update,
)
from .gospa import GospaConfig, gospa
from .measmodel import PointTargetModel

# filter name -> (FilterConfig.mode, FilterConfig.clutter_regime)
_FILTER_TABLE = {
    "a-pmbm": ("pmbm", "arbitrary"),
    "a-pmb": ("pmb", "arbitrary"),
    "pmbm": ("pmbm", "ppp-merged"),
    "pmb": ("pmb", "ppp-merged"),
    "mbm": ("mbm", "arbitrary"),
}
DEFAULT_FILTERS = ("a-pmbm", "a-pmb", "pmbm", "pmb")
ALL_FILTERS = tuple(_FILTER_TABLE)
_FILTER_SETTINGS = ("max_global_hyps", "mbm_prune", "ppp_prune", "bern_prune", "gate")
OUTPUT_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ScenarioConfig:
    """All scenario and filter parameters for one experiment.  Each field
    takes its default's type (``_fits``); sequence entries become floats.
    The filter and GOSPA settings are checked by ``FilterConfig`` and
    ``GospaConfig``, which own their rules and the filter defaults."""

    steps: int = 81
    dt: float = 1.0
    accel_noise: float = 0.01  # power spectral density of the motion noise
    survival: float = 0.99
    birth_mean: tuple = (150.0, 0.0, 150.0, 0.0)
    birth_std: tuple = (50.0, 1.0, 50.0, 1.0)
    birth_weight_first: float = 5.0
    birth_weight: float = 0.1
    detection: float = 0.9
    meas_noise: float = 4.0  # R = meas_noise * I
    region_lo: tuple = (0.0, 0.0)
    region_hi: tuple = (300.0, 300.0)
    clutter_family: str = "nb"  # nb | poisson
    clutter_mean: float = 10.0
    clutter_dispersion: float = 20.0
    runs: int = 20
    seed: int = 0
    truth_mode: str = "fixed"  # fixed | per-run
    max_global_hyps: int = FilterConfig.max_global_hyps
    mbm_prune: float = FilterConfig.mbm_prune
    ppp_prune: float = FilterConfig.ppp_prune
    bern_prune: float = FilterConfig.bern_prune
    gate: float = FilterConfig.gate
    gospa_order: float = GospaConfig.order
    gospa_cutoff: float = GospaConfig.cutoff
    estimator: str = "map-cardinality"
    estimator_threshold: float = 0.4

    def __post_init__(self):
        for name, f in self.__dataclass_fields__.items():
            value = getattr(self, name)
            if not _fits(value, f.default):
                raise ConfigurationError(f"{name} needs a value like {f.default!r}, got {value!r}")
            if isinstance(f.default, tuple):
                value = tuple(float(v) for v in value)
                object.__setattr__(self, name, value)
            values = value if isinstance(value, tuple) else (value,)
            if any(isinstance(v, float) and not math.isfinite(v) for v in values):
                raise ConfigurationError(f"{name} must be finite")
        for name, low in (("steps", 1), ("runs", 1), ("seed", 0)):
            if getattr(self, name) < low:
                raise ConfigurationError(f"{name} must be >= {low}")
        for name in ("survival", "detection", "estimator_threshold"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigurationError(f"{name} must be a probability")
        if self.estimator not in ("map-cardinality", "existence-threshold"):
            raise ConfigurationError(f"unknown estimator: {self.estimator}")
        for name in ("birth_weight_first", "birth_weight"):
            if getattr(self, name) < 0.0:
                raise ConfigurationError(f"{name} must be >= 0")
        if self.clutter_family not in ("nb", "poisson"):
            raise ConfigurationError(f"unknown clutter family: {self.clutter_family}")
        if self.truth_mode not in ("fixed", "per-run"):
            raise ConfigurationError(f"unknown truth mode: {self.truth_mode}")
        if not all(h > l for l, h in zip(self.region_lo, self.region_hi)):
            raise ConfigurationError("region must be nonempty")
        for name in ("dt", "accel_noise", "meas_noise"):
            if getattr(self, name) <= 0.0:
                raise ConfigurationError(f"{name} must be > 0")
        self.filter_config()
        GospaConfig(self.gospa_order, self.gospa_cutoff)

    def filter_config(self, **switches) -> FilterConfig:
        """This scenario's filter settings with ``switches`` (mode, clutter_regime)."""
        return FilterConfig(**{name: getattr(self, name) for name in _FILTER_SETTINGS}, **switches)


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    out = asdict(cfg)
    for key in ("birth_mean", "birth_std", "region_lo", "region_hi"):
        out[key] = list(out[key])
    return out


def _fits(value, default) -> bool:
    """Whether ``value`` has the type of a field whose default is ``default``:
    ints for ints, ints or floats for floats (bools for neither), strings for
    strings, and number sequences of the default's length for tuples."""
    if isinstance(default, tuple):
        ok = isinstance(value, (list, tuple)) and len(value) == len(default)
        return ok and all(_fits(v, 0.0) for v in value)
    if isinstance(default, str):
        return isinstance(value, str)
    kind = numbers.Integral if isinstance(default, int) else numbers.Real
    return isinstance(value, kind) and not isinstance(value, bool)


def scenario_from_dict(data: dict) -> ScenarioConfig:
    unknown = set(data) - set(ScenarioConfig.__dataclass_fields__)
    if unknown:
        raise ConfigurationError(f"unknown scenario keys: {sorted(unknown)}")
    return ScenarioConfig(**data)


def load_scenario(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        data = yaml.safe_load(fh)
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigurationError("scenario file must hold a mapping")
    return scenario_from_dict(data)


def save_scenario(cfg: ScenarioConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(scenario_to_dict(cfg), fh, sort_keys=True)


# ---------------------------------------------------------------------------
# Models derived from the scenario


def motion_model(cfg: ScenarioConfig) -> LinearGaussianMotion:
    T = cfg.dt
    F1 = np.array([[1.0, T], [0.0, 1.0]])
    Q1 = cfg.accel_noise * np.array([[T**3 / 3.0, T**2 / 2.0], [T**2 / 2.0, T]])
    return LinearGaussianMotion(np.kron(np.eye(2), F1), np.kron(np.eye(2), Q1), cfg.survival)


def sensor_model(cfg: ScenarioConfig) -> LinearGaussianSensor:
    H = np.kron(np.eye(2), np.array([[1.0, 0.0]]))
    return LinearGaussianSensor(H, cfg.meas_noise * np.eye(2), cfg.detection)


def birth_density(cfg: ScenarioConfig) -> GaussianDensity:
    return GaussianDensity(np.array(cfg.birth_mean), np.diag(np.array(cfg.birth_std) ** 2))


def birth_mixture(cfg: ScenarioConfig, k: int) -> GaussianMixture:
    w = cfg.birth_weight_first if k == 1 else cfg.birth_weight
    if w <= 0.0:
        return GaussianMixture()
    return GaussianMixture([math.log(w)], [birth_density(cfg)])


def region(cfg: ScenarioConfig) -> Region:
    return Region(cfg.region_lo, cfg.region_hi)


def clutter_model(cfg: ScenarioConfig):
    """The clutter process the scans are sampled from (and that the
    matched filters evaluate)."""
    if cfg.clutter_family == "poisson":
        return PoissonClutter(cfg.clutter_mean, region(cfg))
    card = nb_from_mean_dispersion(cfg.clutter_mean, cfg.clutter_dispersion)
    return IidClusterClutter(card, region(cfg))


def merged_clutter(cfg: ScenarioConfig) -> PoissonClutter:
    """Poisson clutter with the same mean, for the merged-regime baselines."""
    return PoissonClutter(cfg.clutter_mean, region(cfg))


@dataclass(frozen=True)
class FilterSpec:
    name: str
    filter_cfg: FilterConfig  # mode "pmb" collapses to one global hypothesis each step
    clutter: object


def filter_bank(cfg: ScenarioConfig, names=DEFAULT_FILTERS) -> list[FilterSpec]:
    """One spec per filter name; each name at most once, at least one name."""
    if not names:
        raise ConfigurationError("no filter names given")
    out = []
    for name in names:
        if name not in _FILTER_TABLE:
            raise ConfigurationError(f"unknown filter name: {name}")
        if any(spec.name == name for spec in out):
            raise ConfigurationError(f"filter name listed twice: {name}")
        mode, regime = _FILTER_TABLE[name]
        clutter = merged_clutter(cfg) if regime == "ppp-merged" else clutter_model(cfg)
        out.append(FilterSpec(name, cfg.filter_config(mode=mode, clutter_regime=regime), clutter))
    return out


# ---------------------------------------------------------------------------
# Ground truth and measurements


@dataclass
class GroundTruthTarget:
    birth: int  # first step alive (1-based)
    states: np.ndarray  # (steps alive, 4)

    @property
    def death(self) -> int:
        return self.birth + self.states.shape[0] - 1


@dataclass
class GroundTruth:
    targets: list = field(default_factory=list)
    steps: int = 0

    def states_at(self, k: int) -> np.ndarray:
        rows = [
            t.states[k - t.birth]
            for t in self.targets
            if t.birth <= k <= t.death
        ]
        return np.array(rows).reshape(len(rows), 4)

    def positions_at(self, k: int) -> np.ndarray:
        states = self.states_at(k)
        return states[:, [0, 2]]


def sample_ground_truth(cfg: ScenarioConfig, rng: np.random.Generator) -> GroundTruth:
    motion = motion_model(cfg)
    birth = birth_density(cfg)
    chol_birth = np.linalg.cholesky(birth.cov)
    chol_q = np.linalg.cholesky(motion.Q)
    targets = []
    for k in range(1, cfg.steps + 1):
        w = cfg.birth_weight_first if k == 1 else cfg.birth_weight
        count = int(rng.poisson(w)) if w > 0.0 else 0
        for _ in range(count):
            x = birth.mean + chol_birth @ rng.standard_normal(4)
            states = [x]
            step = k
            while step < cfg.steps and rng.random() < cfg.survival:
                x = motion.F @ x + chol_q @ rng.standard_normal(4)
                states.append(x)
                step += 1
            targets.append(GroundTruthTarget(k, np.array(states)))
    return GroundTruth(targets, cfg.steps)


def sample_measurements(states: np.ndarray, cfg: ScenarioConfig, rng: np.random.Generator) -> np.ndarray:
    """One scan: per-target detections plus clutter, in randomized order."""
    sensor = sensor_model(cfg)
    chol_r = np.linalg.cholesky(sensor.R)
    rows = []
    for x in states:
        if rng.random() < cfg.detection:
            rows.append(sensor.H @ x + chol_r @ rng.standard_normal(2))
    clutter = clutter_model(cfg).sample(rng)
    scan = np.concatenate([np.array(rows).reshape(len(rows), 2), clutter], axis=0)
    return scan[rng.permutation(scan.shape[0])]


def sample_scans(truth: GroundTruth, cfg: ScenarioConfig, rng: np.random.Generator) -> list:
    return [sample_measurements(truth.states_at(k), cfg, rng) for k in range(1, cfg.steps + 1)]


# ---------------------------------------------------------------------------
# Trial execution


@dataclass
class RunRecord:
    filter: str
    run: int
    seed: int
    gospa: list  # per step: (total, localization, missed, false)
    ms: list  # per step wall time
    failed: bool = False
    error: str = ""


def _mbm_birth(cfg: ScenarioConfig, k: int):
    """Multi-Bernoulli birth with the same expected number of new targets
    as the Poisson birth: several moderate-existence components at the
    first step, one low-existence component afterwards."""
    dens = birth_density(cfg)
    if k == 1:
        # headroom above the mean so cardinalities larger than it stay reachable
        n = math.ceil(cfg.birth_weight_first) + 4
        r = cfg.birth_weight_first / n
        return tuple((r, dens) for _ in range(n))
    if cfg.birth_weight <= 0.0:
        return ()
    return ((min(cfg.birth_weight, 1.0), dens),)


def filter_step(d, scan, k: int, spec: FilterSpec, cfg: ScenarioConfig, model, motion, seed: int):
    """One step of the recursion at scan k: predict, update, reduce, project
    (mode "pmb") and estimate. Returns (density, estimated means)."""
    if spec.filter_cfg.mode == "mbm":
        d = predict(d, motion, GaussianMixture(), _mbm_birth(cfg, k))
    else:
        d = predict(d, motion, birth_mixture(cfg, k))
    d = update(d, scan, model, spec.clutter, spec.filter_cfg, seed=seed)
    d = reduce(d, spec.filter_cfg)
    if spec.filter_cfg.mode == "pmb":
        d = project_to_pmb(d)
    return d, estimate(d, cfg.estimator, cfg.estimator_threshold)


def run_trial(
    cfg: ScenarioConfig,
    spec: FilterSpec,
    truth: GroundTruth,
    scans: list,
    run_idx: int,
    assoc_seed: int,
) -> RunRecord:
    model = PointTargetModel(sensor_model(cfg))
    motion = motion_model(cfg)
    gcfg = GospaConfig(cfg.gospa_order, cfg.gospa_cutoff)
    d = initial_density()
    gospa_rows = []
    ms = []
    try:
        for k in range(1, cfg.steps + 1):
            t0 = time.perf_counter()
            d, means = filter_step(d, scans[k - 1], k, spec, cfg, model, motion, assoc_seed)
            res = gospa([x[[0, 2]] for x in means], truth.positions_at(k), gcfg)
            gospa_rows.append((res.total, res.localization, res.missed, res.false_))
            ms.append((time.perf_counter() - t0) * 1000.0)
    except (PmbmError, np.linalg.LinAlgError) as exc:
        return RunRecord(
            spec.name, run_idx, assoc_seed, gospa_rows, ms, failed=True,
            error=f"step {len(gospa_rows) + 1}: {exc}",
        )
    return RunRecord(spec.name, run_idx, assoc_seed, gospa_rows, ms)


def _rms(values) -> float:
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return 0.0
    return float(np.sqrt(np.mean(arr**2)))


def aggregate_metrics(records: list) -> dict:
    """Per-filter RMS curves over runs and across-time scalars."""
    good = [r for r in records if not r.failed]
    if not good:
        raise NumericalError("no successful runs to aggregate")
    out = {}
    for name in dict.fromkeys(r.filter for r in records):
        runs = [r for r in good if r.filter == name]
        steps = len(runs[0].gospa) if runs else 0
        curve = [
            _rms(r.gospa[k][0] for r in runs) for k in range(steps)
        ]
        per_run = {r.run: _rms(t[0] for t in r.gospa) for r in runs}
        ms = [m for r in runs for m in r.ms]
        out[name] = {
            # None (JSON null) for a filter all of whose runs failed
            "rms_total": _rms(t[0] for r in runs for t in r.gospa) if runs else None,
            "curve": curve,
            "per_run_rms": per_run,
            "mean_ms_per_step": float(np.mean(ms)) if ms else None,
            "runs": len(runs),
            "failed_runs": len([r for r in records if r.filter == name and r.failed]),
        }
    return out


def paired_wins(metrics: dict, better: str, worse: str) -> tuple:
    """How many paired runs had `better` at or below `worse` in across-time
    RMS; returns (wins, comparable runs)."""
    if better not in metrics or worse not in metrics:
        return 0, 0
    a, b = metrics[better]["per_run_rms"], metrics[worse]["per_run_rms"]
    common = sorted(set(a) & set(b))
    wins = sum(1 for r in common if a[r] <= b[r])
    return wins, len(common)


def experiment(cfg: ScenarioConfig, names=DEFAULT_FILTERS, out_dir: str | None = None):
    """Full paired Monte Carlo experiment; returns (records, summary)."""
    specs = filter_bank(cfg, names)
    records = []
    fixed_truth = None
    if cfg.truth_mode == "fixed":
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((cfg.seed, 0, 0))))
        fixed_truth = sample_ground_truth(cfg, rng)
    for run_idx in range(cfg.runs):
        if fixed_truth is None:
            rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((cfg.seed, 0, run_idx + 1))))
            truth = sample_ground_truth(cfg, rng)
        else:
            truth = fixed_truth
        scan_rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((cfg.seed, 1, run_idx))))
        scans = sample_scans(truth, cfg, scan_rng)
        for f_idx, spec in enumerate(specs):
            assoc_seed = int(
                np.random.SeedSequence((cfg.seed, 2, run_idx, f_idx)).generate_state(1)[0]
            )
            records.append(run_trial(cfg, spec, truth, scans, run_idx, assoc_seed))
    metrics = aggregate_metrics(records)
    summary = {
        "schema_version": OUTPUT_SCHEMA_VERSION,
        "scenario": scenario_to_dict(cfg),
        "filters": list(names),
        "metrics": {
            name: {k: v for k, v in m.items() if k != "per_run_rms"} for name, m in metrics.items()
        },
        "paired": {
            "a-pmbm_vs_pmbm": paired_wins(metrics, "a-pmbm", "pmbm"),
            "a-pmb_vs_pmb": paired_wins(metrics, "a-pmb", "pmb"),
        },
    }
    if out_dir is not None:
        write_outputs(records, summary, out_dir)
    return records, summary


def gospa_csv_text(records: list) -> str:
    """Deterministic CSV of per-step metric values.

    Timing is deliberately left out (it is not reproducible across runs);
    it lives in the JSON summary instead.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["filter", "run", "step", "total", "loc", "missed", "false"])
    for r in records:
        if r.failed:
            continue
        for k, row in enumerate(r.gospa, start=1):
            writer.writerow([r.filter, r.run, k] + [repr(float(v)) for v in row])
    return buf.getvalue()


def curves_csv_text(metrics: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["filter", "step", "rms_total"])
    for name, m in metrics.items():
        for k, v in enumerate(m["curve"], start=1):
            writer.writerow([name, k, repr(float(v))])
    return buf.getvalue()


def write_outputs(records: list, summary: dict, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "gospa.csv"), "w", encoding="utf-8", newline="") as fh:
        fh.write(gospa_csv_text(records))
    with open(os.path.join(out_dir, "curves.csv"), "w", encoding="utf-8", newline="") as fh:
        fh.write(curves_csv_text(summary["metrics"]))
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    save_scenario(scenario_from_dict(summary["scenario"]), os.path.join(out_dir, "config.yaml"))
