"""One benchmark run of one workload, in a fresh interpreter.

Imports ``multiflow.cli``, then runs the workload's jobs in whole rounds
through ``multiflow.cli.main(argv)`` until ``--seconds`` have passed.
Each job is timed (wall and CPU of this process, all threads).  The jobs of
a round are grouped into segments of at least ``SEGMENT_S`` seconds, and the
calibration loop runs before the round and after every segment; a segment's
times are also reported scaled by the machine speed around it (see
``calibrate.py``).  Between rounds the output files are hashed.  Neither the
calibration nor the hashing is inside a timed region.  With ``--trace 1``
untraced and traced rounds alternate, and one more pass under tracemalloc
measures allocation peaks.  The last line of standard output is a JSON
record that ``run.py`` reads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import calibrate  # noqa: E402
import workloads  # noqa: E402

SEGMENT_S = 0.5


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _digest(job) -> str:
    h = hashlib.sha256()
    for path in job.outputs:
        try:
            with open(path, "rb") as fh:
                h.update(fh.read())
        except OSError:
            return "missing"
    return h.hexdigest()


def _run_job(cli, job):
    try:
        return cli.main(list(job.argv))
    except Exception:  # a crash is one failed operation; the run goes on
        traceback.print_exc()
        return None


def _run_round(cli, jobs) -> dict:
    """Run the jobs once; raw and speed-scaled wall and CPU seconds."""
    out = {"wall_s": 0.0, "cpu_s": 0.0, "scaled_wall_s": 0.0, "scaled_cpu_s": 0.0,
           "codes": []}
    before = calibrate.loop()
    seg_wall = seg_cpu = 0.0
    for k, job in enumerate(jobs):
        cpu0, wall0 = _cpu_s(), time.perf_counter()
        out["codes"].append(_run_job(cli, job))
        seg_wall += time.perf_counter() - wall0
        seg_cpu += _cpu_s() - cpu0
        if seg_wall >= SEGMENT_S or k == len(jobs) - 1:
            after = calibrate.loop()
            speed = calibrate.REFERENCE_S / (0.5 * (before + after))
            out["wall_s"] += seg_wall
            out["cpu_s"] += seg_cpu
            out["scaled_wall_s"] += seg_wall * speed
            out["scaled_cpu_s"] += seg_cpu * speed
            before, seg_wall, seg_cpu = after, 0.0, 0.0
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    start = time.perf_counter()
    import multiflow
    import multiflow.cli as cli

    import_s = time.perf_counter() - start
    import_speed = calibrate.REFERENCE_S / min(calibrate.loop() for _ in range(3))
    jobs = workloads.jobs_for(args.workload, args.seed, args.outdir)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(multiflow)

    rounds = []
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        result = _run_round(cli, jobs)
        if traced:
            tracer.uninstall()
        rounds.append({"traced": traced, **result, "digests": [_digest(job) for job in jobs]})
        if time.perf_counter() >= deadline and (tracer is None or len(rounds) >= 2):
            break

    record = {"import_s": import_s, "scaled_import_s": import_s * import_speed,
              "rounds": rounds, "jobs": [job.name for job in jobs]}
    # peak RSS of the measured rounds, before any tracemalloc pass
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        import tracing

        heavy = [job for job in jobs if job.command in ("kernel", "simulate")]
        alloc = tracing.AllocPeaks(multiflow)
        if heavy:
            alloc.run(lambda: [_run_job(cli, job) for job in heavy])
        plain = [r["wall_s"] for r in rounds if not r["traced"]]
        traced_walls = [r["wall_s"] for r in rounds if r["traced"]]
        record["per_layer"] = tracing.per_layer_metrics(
            tracer, alloc.peak, jobs, plain, traced_walls)
        record["functions"] = tracer.summary()
        record["spans"] = tracer.spans
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
