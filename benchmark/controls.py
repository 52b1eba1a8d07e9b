"""Negative controls of the output checks.

Runs every job of the chosen workloads once, in this process, and checks the
outputs: each must pass.  Then it puts one small error into a copy of each
output and checks the copy: each must fail.  The errors are a 1e-6 relative
error in one ``ell2``, ``Z`` or ``density`` value and a 5% bias in every
row of one MSD file.

    python3 benchmark/controls.py [--seed N] [--workload NAME ...]

Exits 0 when every clean output passes and every perturbed copy fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402

# column perturbed, relative error put in, by job command
PERTURB = {"flow": ("ell2", 1e-6), "kernel": ("Z", 1e-6), "pdf": ("density", 1e-6),
           "simulate": ("msd", 0.05)}


def perturb(job, workdir: str):
    """Copy the job's outputs and scale one value of the checked column."""
    column, rel = PERTURB[job.command]
    outputs = []
    for path in job.outputs:
        copy = os.path.join(workdir, "perturbed-" + os.path.basename(path))
        shutil.copyfile(path, copy)
        outputs.append(copy)
    with open(outputs[0]) as fh:
        lines = fh.read().splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    data = [i for i in range(header + 1, len(lines)) if not lines[i].startswith("#")]
    # a biased walker shifts its whole MSD curve; elsewhere one middle row is off
    targets = data if job.command == "simulate" else [data[len(data) // 2]]
    idx = lines[header].split(",").index(column)
    for target in targets:
        cells = lines[target].split(",")
        cells[idx] = repr(float(cells[idx]) * (1.0 + rel))
        lines[target] = ",".join(cells)
    with open(outputs[0], "w") as fh:
        fh.write("\n".join(lines) + "\n")
    where = "every row" if len(targets) > 1 else f"row {targets[0] - header - 1}"
    return dataclasses.replace(job, outputs=tuple(outputs)), f"{column} {where} x (1{rel:+g})"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    args = parser.parse_args()
    import multiflow.cli as cli

    workdir = os.path.join(ROOT, ".multiflow-bench", "controls")
    os.makedirs(workdir, exist_ok=True)
    ok = True
    for name in args.workload or workloads.WORKLOADS:
        jobs = workloads.jobs_for(name, args.seed, workdir)
        for job in jobs:
            code = cli.main(list(job.argv))
            clean = checks.check_jobs([job])[job.name]
            bad, what = perturb(job, workdir)
            caught = checks.check_jobs([bad])[job.name]
            verdict = "ok" if code == 0 and not clean and caught else "CONTROL BROKEN"
            ok &= verdict == "ok"
            print(f"{name:16} {job.name:22} exit={code} clean={'pass' if not clean else clean} "
                  f"{what}: {'caught: ' + caught[0] if caught else 'NOT CAUGHT'}  [{verdict}]")
    shutil.rmtree(workdir)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
