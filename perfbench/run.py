#!/usr/bin/env python3
"""The pmbm benchmark: one workload, one seed, a fixed run length.

    python3 perfbench/run.py --workload nb-paired --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` it prints the end-to-end metrics, measured with tracing
off; with ``--trace 1`` it prints the per-layer metrics of a traced run.
The metric names, units and workloads are those declared in
``BENCHMARK.json``.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# One thread per process, BLAS included: trials run one after another.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")

MIN_PASSES = 2  # determinism is checked by comparing passes
SETUP_PROBES = 5
GOSPA_REL_TOL = 1e-9


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


if not os.path.isfile(os.path.join(SRC, "pmbm", "__init__.py")):
    fail(f"no pmbm package under {SRC}; run from the root of a pmbm checkout")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import pmbm  # noqa: E402
from pmbm import harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

if os.path.dirname(os.path.abspath(pmbm.__file__)) != os.path.join(SRC, "pmbm"):
    fail(f"imported pmbm from {pmbm.__file__}, not from {SRC}")


def load_declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Set-up time: from process start to the first filter step.


class _FirstStep(Exception):
    pass


def setup_probe(workload: str, seed: int, picks: list) -> None:
    """Child-process body: build the workload from the candidates the run
    picked, start a pass and stop at the first filter step, printing the
    monotonic clock reading there.  Given the picks, the probe skips the
    benchmark's search for inputs of the stated size and times only imports,
    model building and the program's own scan generation."""

    def first_predict(*args, **kwargs):
        raise _FirstStep(repr(time.monotonic()))

    wl = WORKLOADS[workload](seed, OUT_ROOT, picks)
    harness.predict = first_predict
    try:
        wl.run_pass()
    except _FirstStep as hit:
        print(hit.args[0])
        return
    fail("setup probe finished a pass without reaching a filter step")


def measure_setup(wl, seed: int) -> list:
    """Set-up seconds of several fresh processes, each timed from just
    before it is started (CLOCK_MONOTONIC is shared across processes)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           ",".join(map(str, wl.picks)), "--workload", wl.name, "--seed", str(seed),
           "--seconds", "0"]
    out = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            fail(f"setup probe failed:\n{proc.stderr}")
        out.append(float(proc.stdout.strip().splitlines()[-1]) - t0)
    return out


# ---------------------------------------------------------------------------
# Output checks.


def gospa_digest(records) -> str:
    h = hashlib.sha256()
    for r in records:
        h.update(f"{r.filter}|{r.run}|{r.failed}|".encode())
        for row in r.gospa:
            h.update(repr(tuple(float(v) for v in row)).encode())
    return h.hexdigest()


def gospa_identity_errors(records) -> int:
    """Steps where total**2 != loc + missed + false (order 2)."""
    bad = 0
    for r in records:
        for total, loc, missed, false_ in r.gospa:
            parts = loc + missed + false_
            if abs(total**2 - parts) > GOSPA_REL_TOL * max(1.0, parts):
                bad += 1
    return bad


# ---------------------------------------------------------------------------
# Environment.


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
    }


def host_reference_ms() -> float:
    """Fastest of 20 runs of a fixed pure-Python loop, in ms.  The host is
    shared and its speed drifts; this reading, taken before and after the
    passes, shows stretches of heavy contention.  The loop fits in cache,
    so it can miss contention for the memory system."""
    best = math.inf
    for _ in range(20):
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return 1000.0 * best


# ---------------------------------------------------------------------------
# Runs.


def pass_count(wl, seconds: float) -> int:
    """Passes in a run of ``seconds``, at the workload's nominal pass time.

    The count never depends on how fast the host runs at the time: timings
    are the fastest of the passes, and a count that grew with host speed
    would shift that minimum with the speed it measures."""
    return max(MIN_PASSES, round(seconds / wl.pass_s))


def run_passes(wl, n: int, before=None, after=None):
    """Closed loop of ``n`` passes.  Returns the passes and the error that
    stopped them, if one escaped."""
    passes = []
    for _ in range(n):
        if before is not None:
            before()
        try:
            res = wl.run_pass()
        except Exception as exc:  # recorded as failed trials, reported below
            return passes, f"{type(exc).__name__}: {exc}"
        passes.append(res)
        if after is not None:
            after(res)
    return passes, None


def trial_counts(wl, passes, error):
    attempted = sum(len(p.records) for p in passes)
    failed = sum(r.failed for p in passes for r in p.records)
    if error is not None:
        attempted += wl.trials
        failed += wl.trials
    return attempted, failed


def best_scan_ms(passes) -> np.ndarray:
    """Wall time of each scan through all the workload's filters.

    Each step's time (from RunRecord.ms) is the fastest over the passes,
    which all run the same steps; a scan's time is the sum of its steps'
    times over the filters.  The host is shared, and contention only ever
    adds time, so the fastest repeat is the steadiest estimate of the
    program's own cost."""
    best: dict = {}
    for p in passes:
        for r in p.records:
            for k, m in enumerate(r.ms):
                key = (r.filter, r.run, k)
                best[key] = min(best.get(key, math.inf), m)
    per_scan: dict = {}
    for (_, run, k), m in best.items():
        per_scan[run, k] = per_scan.get((run, k), 0.0) + m
    return np.array(list(per_scan.values()))


def end_to_end(wl, args, passes) -> tuple[dict, list, dict]:
    steps = sum(len(r.ms) for r in passes[0].records)
    scans = best_scan_ms(passes)
    # The highest percentile up to 90 with at least ten samples beyond it.
    q90 = min(90.0, 100.0 * (1.0 - 10.0 / scans.size))
    setup = measure_setup(wl, args.seed)
    totals = np.array([row[0] for r in passes[0].records if not r.failed for row in r.gospa])
    metrics = {
        "steps_per_s": max(steps / p.wall_s for p in passes),
        "cpu_ms_per_step": min(1000.0 * p.cpu_s / steps for p in passes),
        "scan_ms.p50": float(np.percentile(scans, 50)),
        "scan_ms.p90": float(np.percentile(scans, q90)),
        "setup_s": statistics.median(setup),
        "rms_gospa": float(np.sqrt(np.mean(totals**2))),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = [
        f"passes {len(passes)}, steps per pass {steps}",
        f"pass wall s {[round(p.wall_s, 3) for p in passes]}",
        f"scan time samples {scans.size}; scan_ms.p90 is the {q90:.2f}th percentile",
        f"setup s {[round(s, 4) for s in setup]}",
    ]
    counts = {"steps_per_pass": steps, "scans_per_pass": int(scans.size), "gospa_rows": int(totals.size)}
    return metrics, notes, counts


def traced(wl, args, tracer_mod):
    """Pairs of passes, an untraced one and then a traced one, so that the
    tracing overhead compares passes run at about the same host speed.  A
    pair counts as two passes of the run length.
    Returns both pass lists, the error that stopped them and, per traced
    pass, its span totals, counts and check seconds."""
    tracer = tracer_mod.Tracer()
    untraced, passes, per_pass = [], [], []
    try:
        for _ in range(pass_count(wl, args.seconds / 2)):
            done, error = run_passes(wl, 1)
            untraced += done
            if error is not None:
                break
            tracer.install()
            try:
                done, error = run_passes(
                    wl, 1, tracer.begin_pass, lambda res: per_pass.append(tracer.end_pass())
                )
            finally:
                tracer.uninstall()
            passes += done
            if error is not None:
                break
    finally:
        tracer.save(os.path.join(OUT_ROOT, f"spans-{args.workload}-seed{args.seed}.npz"))
    return untraced, passes, error, per_pass


def per_layer(tracer_mod, untraced, passes, per_pass) -> tuple[dict, dict, list, list]:
    """Per-layer metrics of the traced passes: times are medians over the
    passes, counts must repeat exactly."""
    counts, times, shares = [], [], []
    for res, (totals, pass_counts, check_s) in zip(passes, per_pass):
        c, ms = tracer_mod.pass_metrics(totals, pass_counts)
        step_ms = sum(m for r in res.records for m in r.ms) - 1000.0 * check_s
        share = {p: totals.get(p, {}).get("ms", 0.0) / step_ms for p in tracer_mod.PHASES}
        ms["trace.step_ms"] = step_ms
        ms["harness.outside_steps.ms"] = 1000.0 * res.wall_s - sum(m for r in res.records for m in r.ms)
        ms["trace.phase_coverage"] = sum(share.values())
        counts.append(c)
        times.append(ms)
        shares.append(share)
    metrics = dict(counts[0])
    for name in times[0]:
        metrics[name] = statistics.median(ms[name] for ms in times)
    traced_s = [res.wall_s - check_s for res, (_, _, check_s) in zip(passes, per_pass)]
    untraced_s = [res.wall_s for res in untraced]
    metrics["trace.overhead_frac"] = statistics.median(traced_s) / statistics.median(untraced_s) - 1.0
    notes = [
        f"pass wall s, untraced {[round(t, 3) for t in untraced_s]}, "
        f"traced less checks {[round(t, 3) for t in traced_s]}"
    ]
    notes += [
        f"phase share {p}: {statistics.median(s[p] for s in shares):.4f}" for p in tracer_mod.PHASES
    ]
    notes += [
        f"last traced pass, span {name}: {t.get('calls', 0)} calls, "
        f"{t.get('ms', 0.0):.3f} ms, {t.get('self_ms', 0.0):.3f} self ms"
        for name in tracer_mod.ZERO_ON_SOME
        for t in [totals.get(name, {})]
    ]
    problems = [] if all(c == counts[0] for c in counts) else [
        "per-layer counts differ between traced passes"
    ]
    if metrics["trace.phase_coverage"] < 0.95:
        problems.append(f"phase spans cover {metrics['trace.phase_coverage']:.3f} < 0.95 of step time")
    return metrics, counts[0], notes, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="PICKS", help=argparse.SUPPRESS)
    args = parser.parse_args()
    os.makedirs(OUT_ROOT, exist_ok=True)
    if args.setup_probe:
        setup_probe(args.workload, args.seed, [int(i) for i in args.setup_probe.split(",")])
        return 0

    declared = load_declared()
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[section]}
    env = environment()
    ref_before = host_reference_ms()
    wl = WORKLOADS[args.workload](args.seed, OUT_ROOT)
    problems = []
    counts = {}
    if args.trace:
        import tracer

        untraced, passes, error, per_pass = traced(wl, args, tracer)
        all_passes = untraced + passes
        if passes:
            metrics, counts, notes, problems = per_layer(tracer, untraced, passes, per_pass)
    else:
        all_passes, error = run_passes(wl, pass_count(wl, args.seconds))
        passes = all_passes
        if passes:
            metrics, notes, counts = end_to_end(wl, args, passes)

    env["host_ref_ms"] = [ref_before, host_reference_ms()]
    attempted, failed = trial_counts(wl, all_passes, error)
    if error is not None:
        problems.append(f"error escaped a pass: {error}")
    if failed:
        problems.append(f"{failed} of {attempted} trials failed")
    digests = [gospa_digest(p.records) for p in all_passes]
    if len(set(digests)) > 1:
        problems.append("GOSPA rows differ between passes of the same seed")
    bad = sum(gospa_identity_errors(p.records) for p in all_passes)
    if bad:
        problems.append(f"GOSPA identity total^2 = loc + missed + false fails on {bad} steps")
    if not passes:
        for p in problems:
            print(f"problem: {p}")
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}))
        return 1
    if set(metrics) != set(units):
        fail(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json {section}")

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    for line in notes:
        print(line)
    print(f"gospa digest {digests[0]}")
    print(f"trials attempted {attempted}, failed {failed}, failed_frac {failed / attempted:.4f}")
    print("counts (repeat exactly for a given code and seed):")
    for name, value in counts.items():
        print(f"  {name} {value}")
    print("measurements:")
    for name in units:
        if name not in counts:
            print(f"  {name} {metrics[name]:.6g} {units[name]}")
    for p in problems:
        print(f"problem: {p}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
