#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise the results.

    python3 perfbench/collect.py --seeds 101-110 --out perfbench/baseline/seed-commit.json

For each workload it makes one untraced run per seed and one traced run on
the first seed, one process at a time.  It writes every run's result, the
GOSPA digests and the environment.  For each end-to-end metric it adds the
median, the quartiles and their distance as a share of the median (the
spread, as ``statistics.quantiles(values, n=4)`` gives the quartiles).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} failed:\n{proc.stderr}")

    def field(prefix):
        return next(line[len(prefix):] for line in lines if line.startswith(prefix))

    return {
        "seed": seed,
        "result": json.loads(lines[-1]),
        "gospa_digest": field("gospa digest "),
        "environment": json.loads(field("environment ")),
    }


def summary(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, required=True, help="e.g. 101-110 or 1,5,9")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    seconds = declared["run_seconds"]
    out = {"seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in (w["name"] for w in declared["workloads"]):
        runs = [run(workload, seed, seconds, 0) for seed in args.seeds]
        traced = run(workload, args.seeds[0], seconds, 1)
        metrics = {
            m["name"]: summary([r["result"]["metrics"][m["name"]]["value"] for r in runs])
            for m in declared["end_to_end"]
        }
        out["workloads"][workload] = {"end_to_end": metrics, "runs": runs, "traced": traced}
        print(workload)
        for m in declared["end_to_end"]:
            s = metrics[m["name"]]
            print(f"  {m['name']:<16} median {s['median']:<10.4g} spread {s['spread']:.3f}"
                  f" (bound {m['bound']})")
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
