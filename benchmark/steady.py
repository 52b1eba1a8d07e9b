"""Steadiness of the end-to-end metrics: repeated runs, medians and quartiles.

    python3 benchmark/steady.py [--runs 10] [--seed0 100] [--seconds S] [--workload NAME ...]

Runs ``run.py`` once per seed (seed0, seed0+1, ...) on each workload, one run
at a time, and prints for every end-to-end metric the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the spread: the
distance between the quartiles as a share of the median.  The spread of each
metric, ``setup_s`` apart, must stay within its bound in BENCHMARK.json; the
bounds were set from this command's output.  It also prints the share of
failed operations, which must be the same on every run.
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


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=100)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary = {}
    status = 0
    for workload in args.workload or names:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        shares = set()
        for k in range(args.runs):
            seed = args.seed0 + k
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            shares.add(result["failed"] / result["attempted"])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={values[n][-1]:.4g}" for n in bounds), flush=True)
        summary[workload] = {"failed_share": sorted(shares)}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            ok = name == "setup_s" or spread <= bounds[name]
            status |= not ok
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                       "bound": bounds[name], "values": vals}
            print(f"  {workload:16} {name:12} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
                  f"spread {spread:6.3f}  bound {bounds[name]:.2f}  {'ok' if ok else 'TOO WIDE'}")
        print(f"  {workload:16} failed share {sorted(shares)}", flush=True)
        status |= len(shares) != 1
    os.makedirs(os.path.join(ROOT, ".multiflow-bench"), exist_ok=True)
    with open(os.path.join(ROOT, ".multiflow-bench", "steady.json"), "w") as fh:
        json.dump(summary, fh, indent=1)
    return status


if __name__ == "__main__":
    sys.exit(main())
