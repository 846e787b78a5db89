"""The benchmark workloads.

Each workload turns a workload seed into fixed inputs once (its set-up), and
then runs *passes* over those inputs.  A pass is a closed loop: one process
issues one filter step after another, each starting when the previous one
returns.  Every pass of a workload sees the same inputs, so passes can be
compared with each other (fastest repeats, output digests) and any number of
passes keeps the same input mix.  ``pass_s`` is a workload's pass wall time
on the 2-core host the benchmark was built on; the run length divided by it
fixes how many passes a run makes.

The package is used only through public entry points: ``harness.experiment``,
``harness.run_trial``, ``harness.sample_ground_truth`` / ``sample_scans`` and
``harness.filter_bank``.

Inputs have a stated size.  Filter cost grows with the number of targets
and measurements, which vary several-fold between scenario seeds, so each
workload draws candidate inputs from a stream keyed by the workload seed and
keeps the first whose target-steps (the sum over steps of the number of true
targets) and measurement count lie in the workload's bands; nb-paired also
bands the size of its 10th-largest scan.  The seed then
changes the inputs but hardly their size, so runs on different seeds can be
compared.  The bands sit around the medians of the unconditioned scenario.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass, replace

import numpy as np

from pmbm import harness
from pmbm.clutter import ClutterSource, CompositeClutter, PoissonClutter
from pmbm.harness import DEFAULT_FILTERS, ScenarioConfig

MAX_CANDIDATES = 10_000


def _rng(*key) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


def _assoc_seed(seed: int, run_idx: int, f_idx: int) -> int:
    # The derivation experiment() uses for its trials.
    return int(np.random.SeedSequence((seed, 2, run_idx, f_idx)).generate_state(1)[0])


def count_target_steps(truth, steps: int) -> int:
    return sum(len(truth.states_at(k)) for k in range(1, steps + 1))


def _first_fit(draw, what: str, pick=None) -> tuple:
    """``(i, draw(i))`` for the first i = 0, 1, ... whose candidate is not
    None.  Given ``pick``, the index of that candidate, it is drawn directly
    and the search is skipped."""
    if pick is not None:
        cand = draw(pick)
        if cand is None:
            raise RuntimeError(f"{what} candidate {pick} is not of the stated size")
        return pick, cand
    for i in range(MAX_CANDIDATES):
        cand = draw(i)
        if cand is not None:
            return i, cand
    raise RuntimeError(f"no {what} of the stated size among {MAX_CANDIDATES} candidates")


def _within(value: int, band: tuple) -> bool:
    return band[0] <= value <= band[1]


def _tenth_largest(values: np.ndarray) -> int:
    return int(np.sort(values)[-10])


@dataclass
class PassResult:
    records: list  # harness.RunRecord, in (run, filter) order
    wall_s: float  # wall time of the workload's filtering calls
    cpu_s: float  # process CPU time over the same calls


class NbPaired:
    """The paper's experiment as ``pmbm simulate --runs 1 --seed S`` runs it:
    negative binomial clutter (mean 10, dispersion 20) and the filters
    a-pmbm, a-pmb, pmbm and pmb, all through ``harness.experiment``.

    S is the first candidate scenario seed whose truth and scans, drawn the
    way ``experiment`` draws them, are of the stated size.  ``picks`` holds
    the index of that candidate."""

    name = "nb-paired"
    trials = len(DEFAULT_FILTERS)
    pass_s = 17.0
    target_steps = (490, 570)
    measurements = (1230, 1370)
    # scan_ms.p90 is about the 10th-slowest of the 81 scans, and how slow it
    # is follows the size of the 10th-largest scan: by measurements, and by
    # true targets times measurements.
    tail_measurements = (29, 32)
    tail_load = (190, 215)

    def __init__(self, seed: int, out_root: str, picks=None):
        self.out_root = out_root

        def candidate(i):
            scenario_seed = int(np.random.SeedSequence((seed, i)).generate_state(1)[0])
            cfg = ScenarioConfig(seed=scenario_seed, runs=1)
            truth = harness.sample_ground_truth(cfg, _rng(cfg.seed, 0, 0))
            if not _within(count_target_steps(truth, cfg.steps), self.target_steps):
                return None
            scans = harness.sample_scans(truth, cfg, _rng(cfg.seed, 1, 0))
            m = np.array([len(z) for z in scans])
            n = np.array([len(truth.states_at(k)) for k in range(1, cfg.steps + 1)])
            fits = (
                _within(int(m.sum()), self.measurements)
                and _within(_tenth_largest(m), self.tail_measurements)
                and _within(_tenth_largest(n * m), self.tail_load)
            )
            return cfg if fits else None

        pick, self.cfg = _first_fit(candidate, "scenario", picks[0] if picks else None)
        self.picks = [pick]

    def run_pass(self) -> PassResult:
        with tempfile.TemporaryDirectory(dir=self.out_root) as out_dir:
            t0, c0 = time.perf_counter(), time.process_time()
            records, _ = harness.experiment(self.cfg, DEFAULT_FILTERS, out_dir=out_dir)
            return PassResult(records, time.perf_counter() - t0, time.process_time() - c0)


class CompositeSource:
    """PPP clutter plus one stationary source (the composite regime),
    filtered by a composite-regime PMBM and by a ppp-merged PMBM at the same
    total clutter mean, through ``harness.run_trial``.  ``runs`` sized
    truths, each with scans the benchmark generates.  Shorter runs and a
    lower hypothesis cap than the default scenario keep a pass within the
    run length.  ``picks`` holds, per run, the index of the candidate kept."""

    name = "composite-source"
    runs = 5
    pass_s = 12.0
    steps = 24
    max_global_hyps = 30
    target_steps = (120, 140)
    measurements = (175, 205)

    def __init__(self, seed: int, out_root: str, picks=None):
        self.seed = seed
        region = harness.region(ScenarioConfig())
        source = ClutterSource(location=(100.0, 200.0), pd=0.5, rate=2.0, cov=25.0 * np.eye(2))
        self.clutter = CompositeClutter(PoissonClutter(2.0, region), (source,))
        self.cfg = ScenarioConfig(
            steps=self.steps,
            max_global_hyps=self.max_global_hyps,
            clutter_family="poisson",
            clutter_mean=2.0 + source.pd * source.rate,
            seed=seed,
        )
        (merged,) = harness.filter_bank(self.cfg, ("pmbm",))
        composite = replace(
            merged,
            name="c-pmbm",
            filter_cfg=replace(merged.filter_cfg, clutter_regime="composite"),
            clutter=self.clutter,
        )
        self.specs = [composite, merged]
        self.trials = self.runs * len(self.specs)
        found = [
            _first_fit(
                lambda i, run_idx=run_idx: self._candidate(run_idx, i),
                "truth",
                picks[run_idx] if picks else None,
            )
            for run_idx in range(self.runs)
        ]
        self.picks = [pick for pick, _ in found]
        self.inputs = [cand for _, cand in found]

    def _candidate(self, run_idx: int, i: int):
        truth = harness.sample_ground_truth(self.cfg, _rng(self.seed, 0, run_idx, i))
        if not _within(count_target_steps(truth, self.cfg.steps), self.target_steps):
            return None
        scans = self._scans(truth, _rng(self.seed, 1, run_idx, i))
        return (truth, scans) if _within(sum(len(z) for z in scans), self.measurements) else None

    def _scans(self, truth, rng) -> list:
        """Target detections plus ``CompositeClutter.sample``, shuffled."""
        sensor = harness.sensor_model(self.cfg)
        chol_r = np.linalg.cholesky(sensor.R)
        out = []
        for k in range(1, self.cfg.steps + 1):
            rows = [
                sensor.H @ x + chol_r @ rng.standard_normal(2)
                for x in truth.states_at(k)
                if rng.random() < sensor.pd
            ]
            scan = np.concatenate([np.array(rows).reshape(len(rows), 2), self.clutter.sample(rng)])
            out.append(scan[rng.permutation(scan.shape[0])])
        return out

    def run_pass(self) -> PassResult:
        records = []
        t0, c0 = time.perf_counter(), time.process_time()
        for run_idx, (truth, scans) in enumerate(self.inputs):
            for f_idx, spec in enumerate(self.specs):
                seed = _assoc_seed(self.seed, run_idx, f_idx)
                records.append(harness.run_trial(self.cfg, spec, truth, scans, run_idx, seed))
        return PassResult(records, time.perf_counter() - t0, time.process_time() - c0)


WORKLOADS = {w.name: w for w in (NbPaired, CompositeSource)}
