"""Job lists of the three benchmark workloads, built from a seed.

A job is one ``multiflow`` CLI call.  ``argv`` is what ``multiflow.cli.main``
receives; ``params`` holds the inputs the output checks need; ``outputs``
lists the files the job writes.  The same (workload, seed, directory) always
gives the same jobs.  Seeds move parameters inside fixed intervals, chosen so
that every job keeps its numeric route (pole window, panel route, regular
continuation) and about the same cost whatever the seed.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

WORKLOADS = ("flow-sweep", "kernel-trace", "walker-ensemble")

# Removable poles beta* = 1 +- 1/k of the binomial dispersion swept on every
# seed, besides the paper's beta* = 0.5 and 1.5 (k = 2).
POLE_KS = (3, 4, 8)
FLOW_SIGMA = (1e-6, 1e6)
FLOW_POINTS = 1000
FLOW_DIM = 4

KERNEL_SIGMA = (1e-2, 1e2)
# Nested log grids: every D = 2 and D = 3 sigma is also a D = 1 sigma, so the
# factorised traces can be compared row by row.
KERNEL_POINTS = {1: 37, 2: 19, 3: 10}
KERNEL_MS_POINTS = {1: 19, 2: 7}

WALK_SIGMA = (1e-3, 10.0)
WALK_STEPS = 128


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]
    params: dict
    outputs: tuple[str, ...]

    @property
    def command(self) -> str:
        return self.argv[0]


def _num(x: float) -> str:
    return repr(float(x))


def _flow(name: str, outdir: str, model: str, beta_star: float, fuzzy: bool = False) -> Job:
    out = os.path.join(outdir, f"{name}.csv")
    argv = [
        "flow", "--model", model, "--dim", str(FLOW_DIM), "--beta-star", _num(beta_star),
        "--lstar", "1.0", "--kappa", "1.0",
        "--sigma-min", _num(FLOW_SIGMA[0]), "--sigma-max", _num(FLOW_SIGMA[1]),
        "--sigma-points", str(FLOW_POINTS), "--out", out,
    ]
    if fuzzy:
        argv.append("--fuzzy")
    params = {
        "model": model, "dim": FLOW_DIM, "beta_star": beta_star, "fuzzy": fuzzy,
        "lstar": 1.0, "kappa": 1.0, "sigma_min": FLOW_SIGMA[0],
        "sigma_max": FLOW_SIGMA[1], "points": FLOW_POINTS,
    }
    return Job(name, tuple(argv), params, (out,))


def flow_sweep(seed: int, outdir: str) -> list[Job]:
    rng = random.Random(seed)
    betas = [("paper-0.5", 0.5), ("paper-1.5", 1.5)]
    for k in POLE_KS:
        betas.append((f"pole-below-{k}", 1.0 - 1.0 / k))
        betas.append((f"pole-above-{k}", 1.0 + 1.0 / k))
    # Regular points: b = 1/(beta*-1) stays at least 0.1 away from every integer.
    betas.append(("regular-below-a", rng.uniform(0.2, 0.4)))
    betas.append(("regular-below-b", rng.uniform(0.55, 0.62)))
    betas.append(("regular-above-a", rng.uniform(1.36, 1.45)))
    betas.append(("regular-above-b", rng.uniform(1.55, 1.9)))
    # Next to 1: b > 40 takes the panel route above 1; below 1 it is regular.
    betas.append(("near-one-above-a", 1.0 + 1.0 / rng.uniform(45.2, 45.8)))
    betas.append(("near-one-above-b", 1.0 + 1.0 / rng.uniform(60.2, 60.8)))
    betas.append(("near-one-below", 1.0 - 1.0 / rng.uniform(45.2, 45.8)))
    jobs = [_flow(f"flow-{name}", outdir, "weighted", bs) for name, bs in betas]
    jobs.append(_flow("flow-fuzzy", outdir, "weighted", rng.uniform(0.3, 0.7), fuzzy=True))
    jobs.append(_flow("flow-ordinary", outdir, "ordinary", rng.uniform(0.2, 0.4)))
    jobs.append(_flow("flow-q", outdir, "q", rng.uniform(0.3, 0.7)))
    return jobs


def _kernel(name: str, outdir: str, dim: int, alpha: float, points: int, multiscale: bool) -> Job:
    out = os.path.join(outdir, f"{name}.csv")
    argv = [
        "kernel", "--model", "ordinary", "--dim", str(dim), "--alpha", _num(alpha),
        "--lstar", "1.0", "--kappa", "1.0",
        "--sigma-min", _num(KERNEL_SIGMA[0]), "--sigma-max", _num(KERNEL_SIGMA[1]),
        "--sigma-points", str(points), "--out", out,
    ]
    if multiscale:
        argv.append("--multiscale-space")
    params = {
        "dim": dim, "alpha": alpha, "multiscale": multiscale, "lstar": 1.0, "kappa": 1.0,
        "sigma_min": KERNEL_SIGMA[0], "sigma_max": KERNEL_SIGMA[1], "points": points,
    }
    return Job(name, tuple(argv), params, (out,))


def kernel_trace(seed: int, outdir: str) -> list[Job]:
    rng = random.Random(seed)
    # The charges stay where the trace's order-40 and order-64 Gauss rules
    # agree to within a quarter of the program's 1e-7 refinement test at
    # D = 3: above alpha = 0.6 the D = 2 and D = 3 traces are refused (see
    # the README).
    alpha = rng.uniform(0.35, 0.55)
    alpha_ms = rng.uniform(0.35, 0.6)
    alpha_pdf = rng.uniform(0.35, 0.65)
    jobs = [
        _kernel(f"kernel-d{d}", outdir, d, alpha, n, False) for d, n in KERNEL_POINTS.items()
    ]
    jobs += [
        _kernel(f"kernel-ms-d{d}", outdir, d, alpha_ms, n, True)
        for d, n in KERNEL_MS_POINTS.items()
    ]
    out = os.path.join(outdir, "pdf-d1.csv")
    # The slice starts at the origin, where the fractional measure is singular
    # and the Kummer normalization is evaluated at z = 0.
    pdf = {"dim": 1, "alpha": alpha_pdf, "sigma": 1.0, "x0": 0.0, "x_max": 5.0,
           "x_points": 201, "kappa": 1.0, "lstar": 1.0}
    argv = [
        "pdf", "--model", "ordinary", "--dim", "1", "--alpha", _num(alpha_pdf),
        "--lstar", "1.0", "--kappa", "1.0", "--sigma", "1.0", "--x0", "0.0",
        "--x-max", "5.0", "--x-points", "201", "--out", out,
    ]
    jobs.append(Job("pdf-d1", tuple(argv), pdf, (out,)))
    return jobs


def _walk(name: str, outdir: str, process: str, dim: int, paths: int, seed: int,
          extra: dict, traj_paths: int = 10) -> Job:
    out = os.path.join(outdir, f"{name}.csv")
    argv = [
        "simulate", "--model", process, "--dim", str(dim), "--paths", str(paths),
        "--steps", str(WALK_STEPS), "--sigma-min", _num(WALK_SIGMA[0]),
        "--sigma-max", _num(WALK_SIGMA[1]), "--kappa", "1.0", "--seed", str(seed),
        "--traj-paths", str(traj_paths), "--out", out,
    ]
    for flag, value in extra.items():
        argv += [f"--{flag}", _num(value)]
    params = {
        "process": process, "dim": dim, "paths": paths, "steps": WALK_STEPS,
        "sigma_min": WALK_SIGMA[0], "sigma_max": WALK_SIGMA[1], "kappa": 1.0,
        "seed": seed, "traj_paths": traj_paths, "lstar": 1.0,
        **{k.replace("-", "_"): v for k, v in extra.items()},
    }
    traj = os.path.join(outdir, f"{name}.traj.csv")
    return Job(name, tuple(argv), params, (out, traj))


def walker_ensemble(seed: int, outdir: str) -> list[Job]:
    # D = 4 and these path counts keep the standard error of every MSD row at
    # about 0.65% of the row, so a 5% bias puts rows about 7 standard errors
    # out, beyond the checks' 5.5; the heavy-tailed q walker needs more paths
    # for that.
    base = 1000 * (seed % 1_000_000)
    return [
        _walk("walk-bm", outdir, "bm", 4, 12000, base + 1, {}, traj_paths=400),
        _walk("walk-sbm", outdir, "sbm", 4, 12000, base + 2, {"nu": 0.5}),
        _walk("walk-fsbm-v-frac", outdir, "fsbm-v", 4, 12000, base + 3, {"beta": 0.5}),
        _walk("walk-fsbm-v-binom", outdir, "fsbm-v", 4, 12000, base + 4, {"beta-star": 1.5}),
        _walk("walk-fsbm-q", outdir, "fsbm-q", 4, 20000, base + 5, {"alpha": 0.75, "beta": 0.5}),
    ]


def jobs_for(workload: str, seed: int, outdir: str) -> list[Job]:
    if workload == "flow-sweep":
        return flow_sweep(seed, outdir)
    if workload == "kernel-trace":
        return kernel_trace(seed, outdir)
    if workload == "walker-ensemble":
        return walker_ensemble(seed, outdir)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
