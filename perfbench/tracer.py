"""Span tracing for the traced benchmark run.

Public pmbm functions are wrapped where their callers look them up (a module
global or a class attribute), from this file only and only while a
``Tracer`` is installed, so nothing under ``src/pmbm`` changes.  Each call
records one span: name, start, end, parent span and the filter step it
belongs to.  Spans stay in memory in flat arrays and are written out once,
at exit.  Self time is a span's duration minus the durations of its child
spans.

The hooks also count work at the same boundaries (Gibbs sweeps, unique
associations, scan sizes, global hypotheses before and after ``reduce``)
and check invariants of the filter state after every ``update`` and
``reduce``.  The time the checks take is recorded so it can be left out of
the step time the phase spans are compared against.
"""

from __future__ import annotations

import functools
import math
import time
from array import array
from collections import Counter

import numpy as np
from scipy.special import logsumexp

from pmbm import clutter, filtering, gibbs, harness, measmodel
from pmbm.densities import GaussianDensity
from pmbm.hypotheses import validate_global

# The phases of one filter step, as run_trial calls them.
PHASES = (
    "filtering.predict",
    "filtering.update",
    "filtering.reduce",
    "filtering.project_to_pmb",
    "filtering.estimate",
    "gospa.gospa",
)

# (owner, attribute, span name): where each public function is looked up.
TARGETS = (
    (harness, "predict", "filtering.predict"),
    (harness, "update", "filtering.update"),
    (harness, "reduce", "filtering.reduce"),
    (harness, "project_to_pmb", "filtering.project_to_pmb"),
    (harness, "estimate", "filtering.estimate"),
    (harness, "gospa", "gospa.gospa"),
    (harness, "sample_scans", "harness.sample_scans"),
    (harness, "write_outputs", "harness.write_outputs"),
    (filtering, "run_gibbs", "gibbs.run_gibbs"),
    (filtering, "ellipsoidal_gate", "densities.ellipsoidal_gate"),
    (filtering, "predicted_measurement_loglik", "densities.predicted_measurement_loglik"),
    (filtering, "kalman_predict", "densities.kalman_predict"),
    (filtering, "moment_match", "densities.moment_match"),
    (measmodel, "kalman_update", "densities.kalman_update"),
    (clutter, "extended_set_density", "measmodel.extended_set_density"),
    (measmodel.PointTargetModel, "detection_update", "measmodel.detection_update"),
    (clutter.PoissonClutter, "log_density", "clutter.log_density"),
    (clutter.IidClusterClutter, "log_density", "clutter.log_density"),
    (clutter.ClutterSource, "log_density", "clutter.log_density"),
    (clutter.CompositeClutter, "log_density", "clutter.log_density"),
    (GaussianDensity, "__post_init__", "densities.gaussian_validate"),
    (gibbs.AssociationProblem, "__post_init__", "gibbs.problem_build"),
)

LOG_WEIGHT_TOL = 1e-9


class InvariantError(AssertionError):
    """A filter-state invariant failed in the traced run."""


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.step = array("i")
        self._stack: list[int] = []
        self._step_id = -1
        self._next_step = 0
        self._step_nid = -1
        self.counts: Counter = Counter()
        self.check_s = 0.0
        self._saved: list = []
        self._pass_start = (0, Counter(), 0.0)

    # -- spans -----------------------------------------------------------

    def _open(self, nid: int) -> int:
        if nid == self._step_nid:
            self._step_id = self._next_step
            self._next_step += 1
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.step.append(self._step_id)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, owner, attr: str, name: str):
        orig = owner.__dict__[attr]
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        after = getattr(self, "_after_" + attr, None)
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                out = orig(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(args, kwargs, out)
            return out

        setattr(owner, attr, traced)
        self._saved.append((owner, attr, orig))

    def install(self) -> None:
        for owner, attr, name in TARGETS:
            self._wrap(owner, attr, name)
        self._step_nid = self._name_ids[PHASES[0]]

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # -- hooks: step ids, counts and invariants ---------------------------
    # A step id is taken when a step's first phase (predict) opens and
    # released when its last phase (gospa) returns.

    def _after_gospa(self, args, kwargs, out) -> None:
        self._step_id = -1

    def _after_run_gibbs(self, args, kwargs, out) -> None:
        self.counts["gibbs.sweeps"] += args[1]
        self.counts["gibbs.unique"] += len(out)
        self.counts["gibbs.calls_this_update"] += 1

    def _after_update(self, args, kwargs, out) -> None:
        t0 = time.perf_counter()
        self.counts["filtering.updates"] += 1
        self.counts["filtering.scan_m"] += len(args[1])
        self.counts["filtering.globals_updated"] += len(out.globals_)
        self.counts["filtering.trees"] += len(out.trees)
        if self.counts.pop("gibbs.calls_this_update", 0):
            self.counts["gibbs.sampled_updates"] += 1
        _check_normalized(out, "update")
        self.check_s += time.perf_counter() - t0

    def _after_reduce(self, args, kwargs, out) -> None:
        t0 = time.perf_counter()
        self.counts["filtering.globals_reduced"] += len(out.globals_)
        _check_normalized(out, "reduce")
        for g in out.globals_:
            if not validate_global(g, out.trees, out.clutter_trees, out.universe):
                raise InvariantError(f"step {out.step}: reduce left an invalid global hypothesis")
        self.check_s += time.perf_counter() - t0

    # -- results -----------------------------------------------------------

    def begin_pass(self) -> None:
        self._pass_start = (len(self.start), self.counts.copy(), self.check_s)

    def end_pass(self) -> tuple:
        """Span totals, counts and check seconds of the pass just ended."""
        mark, counts0, check0 = self._pass_start
        return self.totals(mark), self.counts - counts0, self.check_s - check0

    def totals(self, since: int = 0) -> dict:
        """Per span name: calls, total ms and self ms for spans from ``since``."""
        start = np.frombuffer(self.start, dtype=float)[since:]
        end = np.frombuffer(self.end, dtype=float)[since:]
        name = np.frombuffer(self.name_id, dtype=np.int32)[since:]
        parent = np.frombuffer(self.parent, dtype=np.int32)[since:] - since
        dur = end - start
        child = parent >= 0
        child_ms = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
        self_t = dur - child_ms
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        self_sum = np.bincount(name, weights=self_t, minlength=k)
        return {
            n: {"calls": int(calls[i]), "ms": 1000.0 * total[i], "self_ms": 1000.0 * self_sum[i]}
            for i, n in enumerate(self.names)
        }

    def save(self, path: str) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            step=np.frombuffer(self.step, dtype=np.int32),
        )


# Spans that some workload never records.  A time that reads 0 on every run
# is not reported as a metric; these times are printed instead.
ZERO_ON_SOME = (
    "filtering.project_to_pmb",
    "measmodel.extended_set_density",
    "harness.sample_scans",
    "harness.write_outputs",
)

KERNELS = (
    "kalman_update",
    "kalman_predict",
    "ellipsoidal_gate",
    "predicted_measurement_loglik",
    "moment_match",
    "gaussian_validate",
)


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def pass_metrics(totals: dict, counts: Counter) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass: counts (with ratios of counts),
    which repeat exactly for a given code and seed, and times in ms."""

    def t(name, field):
        return totals.get(name, {}).get(field, 0)

    c = {
        "gibbs.run_gibbs.calls": t("gibbs.run_gibbs", "calls"),
        "gibbs.sweeps": counts["gibbs.sweeps"],
        "gibbs.unique": counts["gibbs.unique"],
        "gibbs.sampled_updates": counts["gibbs.sampled_updates"],
        "clutter.log_density.calls": t("clutter.log_density", "calls"),
        "measmodel.extended_set_density.calls": t("measmodel.extended_set_density", "calls"),
        "measmodel.detection_update.calls": t("measmodel.detection_update", "calls"),
        **{f"densities.{k}.calls": t(f"densities.{k}", "calls") for k in KERNELS},
        "filtering.updates": counts["filtering.updates"],
        "filtering.scan_m.sum": counts["filtering.scan_m"],
        "filtering.globals_updated.sum": counts["filtering.globals_updated"],
        "filtering.globals_reduced.sum": counts["filtering.globals_reduced"],
        "filtering.trees.sum": counts["filtering.trees"],
    }
    updates = c["filtering.updates"]
    c.update({
        "gibbs.unique_ratio": _ratio(c["gibbs.unique"], c["gibbs.sweeps"]),
        "gibbs.sampled_update_ratio": _ratio(c["gibbs.sampled_updates"], updates),
        "filtering.scan_m.mean": _ratio(c["filtering.scan_m.sum"], updates),
        "filtering.globals_updated.mean": _ratio(c["filtering.globals_updated.sum"], updates),
        "filtering.globals_reduced.mean": _ratio(c["filtering.globals_reduced.sum"], updates),
        # reduce takes update's output, so globals_updated is what it starts from.
        "filtering.reduce.kept_ratio": _ratio(
            c["filtering.globals_reduced.sum"], c["filtering.globals_updated.sum"]
        ),
        "filtering.trees.mean": _ratio(c["filtering.trees.sum"], updates),
    })
    ms = {
        "gibbs.run_gibbs.self_ms": t("gibbs.run_gibbs", "self_ms"),
        "gibbs.problem_build.ms": t("gibbs.problem_build", "ms"),
        "clutter.log_density.ms": t("clutter.log_density", "ms"),
        "clutter.log_density.self_ms": t("clutter.log_density", "self_ms"),
        "measmodel.detection_update.self_ms": t("measmodel.detection_update", "self_ms"),
        **{f"densities.{k}.self_ms": t(f"densities.{k}", "self_ms") for k in KERNELS},
        **{f"{p}.ms": t(p, "ms") for p in PHASES[:-1] if p not in ZERO_ON_SOME},
        "filtering.update.self_ms": t("filtering.update", "self_ms"),
        "gospa.gospa.self_ms": t("gospa.gospa", "self_ms"),
    }
    return c, ms


def _check_normalized(d, where: str) -> None:
    total = float(logsumexp([g.log_w for g in d.globals_]))
    if abs(total) > LOG_WEIGHT_TOL:
        raise InvariantError(f"step {d.step}: global log-weights after {where} sum to {total!r}")
