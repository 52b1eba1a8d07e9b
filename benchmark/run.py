"""The multiflow benchmark: one workload, one run.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Set-up is timed first: ``import
multiflow.cli`` in several fresh interpreters.  Then ``worker.py`` runs the
workload's CLI jobs in whole rounds for S seconds in one fresh process, and
its outputs are checked against independent computations (``checks.py``).
The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (one operation is one CLI job; it fails on a
non-zero exit code, on an output that fails its check, or on an output that
differs from the same job's output in another round) and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, measured untraced; with
``--trace 1`` they are the per-layer ones of ``tracing.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 9
IMPORTTIME_PROBES = 3
# One walker worker thread.  With two, the per-path loop fights over the GIL
# and a round's wall time moved by 35% between runs on the shared 2-core
# reference machine, depending on whether the host gave it the second core;
# it was also slower than one thread (see CHANGES.md).
THREADS = "1"
PROBE = (
    "import sys, time; t = time.perf_counter(); import multiflow.cli; t = time.perf_counter() - t; "
    f"sys.path.insert(0, {HERE!r}); import calibrate; "
    "print(t, min(calibrate.loop() for _ in range(3)))"
)
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["MULTIFLOW_THREADS"] = THREADS
    return env


def setup_samples(env: dict) -> tuple[list[float], list[float]]:
    """Seconds to import multiflow.cli, once per fresh interpreter: raw and
    scaled by the fastest of three calibration loops run right after it."""
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, "-c", PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        seconds, loop = map(float, proc.stdout.split())
        raw.append(seconds)
        scaled.append(seconds * calibrate.REFERENCE_S / loop)
    return raw, scaled


def import_metrics(env: dict) -> dict:
    """Self import time of numpy, scipy and multiflow modules (-X importtime)."""
    samples = {"numpy": [], "scipy": [], "multiflow": []}
    for _ in range(IMPORTTIME_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import multiflow.cli"],
                              env=env, cwd=ROOT, capture_output=True, text=True, timeout=60,
                              check=True)
        totals = dict.fromkeys(samples, 0)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if not line.startswith("import time:") or len(parts) != 3:
                continue
            try:
                self_us = int(parts[0].split(":")[1])
            except ValueError:  # the column header line
                continue
            top = parts[2].strip().split(".")[0]
            if top in totals:
                totals[top] += self_us
        for top, us in totals.items():
            samples[top].append(us / 1e6)
    return {f"import.{top}.s": statistics.median(v) for top, v in samples.items()}


def failed_operations(record: dict, check_report: dict) -> int:
    """Job-rounds with a bad exit code, a failed check or a differing output.

    The checked files are the last round's; a round whose output hash differs
    from them fails, and so does every round of a job whose check failed.
    """
    final = record["rounds"][-1]["digests"]
    failed = 0
    for r in record["rounds"]:
        for name, code, digest, ref in zip(record["jobs"], r["codes"], r["digests"], final):
            failed += code != 0 or digest != ref or digest == "missing" or bool(check_report[name])
    return failed


def main() -> int:
    parser = argparse.ArgumentParser(description="multiflow benchmark, one run of one workload")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "multiflow", "cli.py")):
        print(f"benchmark: no multiflow sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    import checks

    env = child_env()
    base = os.path.join(ROOT, ".multiflow-bench")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    outdir = os.path.join(base, f"work-{tag}-{os.getpid()}")
    os.makedirs(outdir)
    try:
        if args.trace:
            imports = import_metrics(env)
        else:
            setup_raw, setup = setup_samples(env)
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--outdir", outdir,
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + 90)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"benchmark: worker exited with {proc.returncode}", file=sys.stderr)
            return 1
        record = json.loads(lines[-1])
        jobs = workloads.jobs_for(args.workload, args.seed, outdir)
        started = time.perf_counter()
        report = checks.check_jobs(jobs)
        check_s = time.perf_counter() - started
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    for name, errors in report.items():
        for error in errors:
            print(f"check failed: {name}: {error}")
    rounds = [r for r in record["rounds"] if not r["traced"]]
    if args.trace:
        metrics = {**imports, **record["per_layer"]}
        units = tracing.PER_LAYER
        with open(os.path.join(base, f"trace-{args.workload}-seed{args.seed}.json"), "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "metrics": metrics,
                       "functions": record["functions"], "spans": record["spans"]}, fh, indent=1)
    else:
        metrics = {
            "setup_s": statistics.median(setup + [record["scaled_import_s"]]),
            "wall_s": statistics.median(r["scaled_wall_s"] for r in rounds),
            "cpu_s": statistics.median(r["scaled_cpu_s"] for r in rounds),
            "peak_rss_mb": record["peak_rss_mb"],
        }
        units = END_TO_END_UNITS
        print("unscaled medians: setup {:.4f} s, wall {:.4f} s, cpu {:.4f} s".format(
            statistics.median(setup_raw + [record["import_s"]]),
            statistics.median(r["wall_s"] for r in rounds),
            statistics.median(r["cpu_s"] for r in rounds)))
    result = {
        "correct": True,
        "attempted": len(record["rounds"]) * len(record["jobs"]),
        "failed": failed_operations(record, report),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(f"{args.workload}: {len(record['rounds'])} rounds of {len(record['jobs'])} jobs, "
          f"checks took {check_s:.1f} s")
    with open(os.path.join(base, f"result-{tag}.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
