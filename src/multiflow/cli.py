"""Command-line front end.

Commands: ``flow`` (dimension flow curves), ``simulate`` (walker ensembles
with MSD summaries), ``pdf`` (density slices), ``kernel`` (return-probability
curves), ``validate`` (oracle cross-checks of the closed forms).

Exit codes: 0 ok, 1 validation failure, 2 config error, 3 numeric error.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from dataclasses import dataclass
from functools import cache
from itertools import chain, repeat

import numpy as np

from . import kernel as kernel_mod
from . import spectral, walker
from .config import COMMANDS, RunConfig, build_spec, merge_overrides, read_config
from .csvio import write_csv, write_line_chart
from .dispersion import _MODELS, DiffusionSpec, binomial_time_integral, dispersion, dispersion_quadrature
from .errors import ConfigError, MultiflowError
from .grid import geometric_grid, log_slope
from .measure import GeometryScales
from .spectral import LegacyAnsatzWarning

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def run_flow(cfg: RunConfig) -> None:
    """Write (sigma, ell2, ds, d_w, model) rows with asymptote metadata."""
    spec = build_spec(cfg)
    grid = cfg.sigma_grid(cfg.points)
    meta = {"model": spec.model, "dim": spec.dim, "fuzzy": spec.fuzzy}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LegacyAnsatzWarning)
        flow, ell2 = spectral.flow_curve(spec, grid)
    if _MODELS[spec.model].caveat:
        meta["caveat"] = _MODELS[spec.model].caveat
    meta.update(
        uv_asymptote=flow.uv_asymptote, ir_asymptote=flow.ir_asymptote,
        uv_converged=flow.uv_converged, ir_converged=flow.ir_converged,
    )
    d_w = spectral.walk_dimension(spec, flow.ds)
    write_csv(
        cfg.out, "flow", ("sigma", "ell2", "ds", "d_w", "model"),
        (grid, ell2, flow.ds, d_w, spec.model), meta,
    )
    if cfg.svg:
        write_line_chart(cfg.svg, list(grid), [("ds", list(flow.ds))], logx=cfg.log)


def run_simulate(cfg: RunConfig) -> None:
    """Run a walker ensemble; emit trajectory and MSD summary files."""
    spec = build_spec(cfg)
    grid = cfg.sigma_grid(cfg.steps)
    ensemble = walker.simulate(cfg.process, cfg.paths, grid, spec, cfg.seed, keep=cfg.traj_paths)
    sigmas, mean_sq, stderr = walker.msd(ensemble)
    window = walker.fit_window(grid)  # the last two decades
    heavy_tailed = walker._PROCESSES[cfg.process].heavy_tailed
    if heavy_tailed:
        fit = walker.fit_scaling_exponent_batched(ensemble, window)
    else:
        fit = walker.fit_scaling_exponent(sigmas, mean_sq, window, sq_radii=ensemble.sq_radii)

    meta = {
        "process": cfg.process, "dim": spec.dim, "paths": cfg.paths,
        "steps": cfg.steps, "seed": cfg.seed,
    }
    footer = {
        "fit_exponent": fit.exponent, "fit_stderr": fit.stderr,
        "fit_window_lo": fit.window[0], "fit_window_hi": fit.window[1],
        "heavy_tailed": heavy_tailed,
    }
    write_csv(
        cfg.out, "msd", ("sigma", "msd", "stderr"),
        (sigmas, mean_sq, stderr), meta, footer,
    )

    if cfg.traj_paths > 0:
        base = cfg.out[:-4] if cfg.out.endswith(".csv") else cfg.out
        traj_path = f"{base}.traj.csv"
        header = ["path_id", "step", "sigma"] + [f"x_{i + 1}" for i in range(spec.dim)]
        kept = ensemble.positions[:, ::cfg.subsample]
        n_paths, n_steps = kept.shape[:2]
        # the path id and the "step,sigma" prefix are formatted once and
        # repeated down the rows of each path
        steps = range(0, ensemble.n_steps, cfg.subsample)
        prefix = [f"{s},{sigma!r}" for s, sigma in zip(steps, grid[::cfg.subsample].tolist())]
        columns = [
            chain.from_iterable(repeat(str(p), n_steps) for p in range(n_paths)),
            chain.from_iterable(repeat(prefix, n_paths)),
            *kept.reshape(-1, spec.dim).T,
        ]
        write_csv(traj_path, "trajectory", header, columns, {"process": cfg.process, "subsample": cfg.subsample})
        if cfg.svg:
            series = [
                (f"path {p}", ensemble.positions[p, ::cfg.subsample, 0].tolist())
                for p in range(min(3, ensemble.n_kept))
            ]
            write_line_chart(cfg.svg, grid[::cfg.subsample].tolist(), series, logx=cfg.log)


def run_pdf(cfg: RunConfig) -> None:
    """Sample the model density along the first axis through x0.

    Transverse coordinates sit at 1.0 (in units of lstar) so the slice stays
    clear of the measure singularities on the coordinate hyperplanes.
    """
    spec = build_spec(cfg)
    xs = np.linspace(-cfg.x_max, cfg.x_max, cfg.x_points)
    transverse = spec.scales.lstar
    x0 = np.full(spec.dim, transverse)
    x0[0] = cfg.x0
    if _MODELS[spec.model].drops_origin:
        xs = xs[xs != 0.0]  # measure-singular point of the weighted density
    points = np.full((xs.size, spec.dim), transverse)
    points[:, 0] = xs
    densities = kernel_mod.pdf(spec, points, x0, cfg.sigma)
    write_csv(
        cfg.out, "pdf", ("x", "density", "model"), (xs, densities, spec.model),
        {"model": spec.model, "dim": spec.dim, "sigma": cfg.sigma,
         "x0": cfg.x0, "transverse": transverse},
    )
    if cfg.svg:
        write_line_chart(cfg.svg, xs.tolist(), [("density", densities.tolist())])


def run_kernel(cfg: RunConfig) -> None:
    """Sample the return probability Z(sigma) and write (sigma, Z, convention)."""
    spec = build_spec(cfg)
    grid = cfg.sigma_grid(cfg.points)
    curve = kernel_mod.heat_kernel_curve(spec, grid, box_halfwidth=cfg.box)
    write_csv(
        cfg.out, "kernel", ("sigma", "Z", "convention"), (curve.sigmas, curve.Z, curve.convention),
        {"model": spec.model, "dim": spec.dim, "convention": curve.convention},
    )
    if cfg.svg:
        write_line_chart(cfg.svg, list(curve.sigmas), [("Z", list(curve.Z))], logx=cfg.log, logy=True)


@dataclass
class _Check:
    name: str
    measured: float
    expected: float
    tol: float

    @property
    def passed(self) -> bool:
        return abs(self.measured - self.expected) <= self.tol


def _validate_checks(cfg: RunConfig, quick: bool, kappa_error: float) -> list[_Check]:
    checks: list[_Check] = []
    kappa_fudge = 1.0 + kappa_error / 100.0
    # validate reads no sigma grid and no box: the runs it checks keep the defaults
    unread = {f: getattr(RunConfig, f) for f in ("sigma_min", "sigma_max", "points", "box")}

    def spec_as(command: str, **model) -> DiffusionSpec:
        """The spec of ``cfg`` with ``model`` over it, its config checked as ``command``'s."""
        return build_spec(merge_overrides(cfg, {**unread, "command": command, **model}))

    def oracle_gap(beta_star: float, sigmas) -> float:
        """Worst relative gap between the closed-form dispersion and the
        adaptive quadrature of its defining integral."""
        spec = spec_as("flow", model="weighted", beta_star=beta_star)
        sigmas = np.asarray(sigmas, dtype=float)
        closed = kappa_fudge * dispersion(spec, sigmas)
        quad = dispersion_quadrature(spec, sigmas)
        return float(np.max(np.abs(closed - quad) / quad))

    # Closed-form dispersion against adaptive quadrature of its defining integral.
    beta_stars = (0.5, 1.5) if quick else (0.25, 0.5, 0.75, 1.25, 1.5, 1.75)
    n_sigma = 10 if quick else 50
    for beta_star in beta_stars:
        worst = oracle_gap(beta_star, np.geomspace(1e-3 * cfg.lstar, 1e3 * cfg.lstar, n_sigma))
        checks.append(_Check(f"dispersion-oracle-beta-star-{beta_star}", worst, 0.0, 1e-7))

    # Removable pole at beta* = 1.5: each side of it matches its own
    # quadrature, and both stay close to the value on the pole.
    s_probe = 37.0 * cfg.lstar
    center = binomial_time_integral(1.5, cfg.lstar, s_probe)
    for eps in (-1e-6, 1e-6):
        near = binomial_time_integral(1.5 + eps, cfg.lstar, s_probe)
        drift = abs(near - center) / center
        checks.append(_Check(f"removable-pole-continuity-{eps:+.0e}", drift, 0.0, 1e-4))
        gap = oracle_gap(1.5 + eps, (s_probe,))
        checks.append(_Check(f"removable-pole-oracle-{eps:+.0e}", gap, 0.0, 1e-7))

    # Numeric spectral dimension against the closed flow.
    spec = spec_as("flow", model="weighted", beta_star=0.5)
    grid = np.geomspace(1e-2 * cfg.lstar, 1e2 * cfg.lstar, 40 if quick else 200)
    ell2 = dispersion(spec, grid)
    probes = grid[2:-2:5]
    numeric = [spec.dim * log_slope(grid, ell2, s) for s in probes]
    closed = spectral.flow_curve(spec, probes)[0].ds
    worst = float(np.max(np.abs(np.array(numeric) - closed)))
    checks.append(_Check("numeric-vs-closed-flow", worst, 0.0, 1e-3))

    # Fixed points are exact identities.
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        beta = rng.uniform(0.1, 1.4)
        nu = rng.uniform(0.5, 1.5)
        expected = cfg.dim * (1.0 + nu - beta)
        got = spectral.fixed_point_ds(
            DiffusionSpec(model="weighted", dim=cfg.dim, scales=GeometryScales(nu=nu, beta=beta))
        )
        worst = max(worst, abs(got - expected))
    checks.append(_Check("fixed-point-identity", worst, 0.0, 0.0))

    if not quick:
        # Kummer normalization against direct quadrature (1-d, alpha = 0.5).
        from scipy import integrate as _integrate

        spec_k = spec_as("kernel", model="ordinary", dim=1, alpha=0.5, beta=1.0)
        worst = 0.0
        sigmas_k = (0.2, 2.0)
        ell2s = dispersion(spec_k, np.array(sigmas_k)).tolist()
        for x0 in (0.5, 2.0):
            for s, ell2 in zip(sigmas_k, ell2s):
                c_closed = kernel_mod.ordinary_normalization([x0], s, spec_k)

                def integrand(x, _x0=x0, _e2=ell2):
                    return abs(x) ** (-0.5) / math.gamma(0.5) * math.exp(
                        -((x - _x0) ** 2) / (4.0 * _e2)
                    )

                lo = min(0.0, x0) - 14.0 * math.sqrt(ell2)
                hi = max(0.0, x0) + 14.0 * math.sqrt(ell2)
                val = 0.0
                for a, b in ((lo, 0.0), (0.0, hi)):
                    part, _ = _integrate.quad(
                        integrand, a, b, epsabs=1e-12, epsrel=1e-11, limit=300,
                        points=[p for p in (x0,) if a < p < b],
                    )
                    val += part
                worst = max(worst, abs(c_closed * val - 1.0))
        checks.append(_Check("kummer-normalization-quadrature", worst, 0.0, 1e-6))

        # Walker scaling: Brownian exponent.
        grid_w = geometric_grid(1e-3, 10.0, 256)
        spec_w = DiffusionSpec(model="weighted", dim=1, scales=GeometryScales(kappa=cfg.kappa))
        ens = walker.simulate("bm", 2000, grid_w, spec_w, cfg.seed)
        sig, mean_sq, _ = walker.msd(ens)
        fit = walker.fit_scaling_exponent(sig, mean_sq, (0.1, 10.0))
        checks.append(_Check("bm-msd-exponent", fit.exponent, 1.0, 0.05))

    return checks


def run_validate(cfg: RunConfig, quick: bool = False, kappa_error: float = 0.0) -> int:
    """Oracle cross-checks; prints one line per check, exit 0 iff all pass."""
    checks = _validate_checks(cfg, quick, kappa_error)
    status = EXIT_OK
    for check in checks:
        verdict = "PASS" if check.passed else "FAIL"
        print(
            f"check {check.name}: measured={check.measured:.6e} "
            f"expected={check.expected:.6e} tol={check.tol:.1e} {verdict}"
        )
        if not check.passed:
            status = EXIT_VALIDATION
    print(f"validate: {'all checks passed' if status == EXIT_OK else 'FAILURES detected'}")
    return status


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="multiflow",
        description="Diffusion, dimensional flow, and random walkers on multiscale spacetimes.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="|".join(COMMANDS))
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="config file to load before applying flags")
        p.add_argument("--model", help="flow/pdf/kernel: weighted|ordinary|q|legacy; simulate: process tag")
        p.add_argument("--dim", type=int)
        p.add_argument("--beta", type=float)
        p.add_argument("--beta-star", type=float, dest="beta_star")
        p.add_argument("--nu", type=float)
        p.add_argument("--alpha", type=float)
        p.add_argument("--lstar", type=float)
        p.add_argument("--kappa", type=float)
        p.add_argument("--fuzzy", action="store_const", const=True)
        p.add_argument("--multiscale-space", action="store_const", const=True, dest="multiscale_space")
        p.add_argument("--sigma-min", type=float, dest="sigma_min")
        p.add_argument("--sigma-max", type=float, dest="sigma_max")
        p.add_argument("--sigma-points", type=int, dest="points")
        p.add_argument("--sigma-log", dest="log", choices=("true", "false"))
        p.add_argument("--paths", type=int)
        p.add_argument("--steps", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--out")
        p.add_argument("--svg")
        if name == "simulate":
            p.add_argument("--subsample", type=int)
            p.add_argument("--traj-paths", type=int, dest="traj_paths")
        if name == "pdf":
            p.add_argument("--sigma", type=float)
            p.add_argument("--x-max", type=float, dest="x_max")
            p.add_argument("--x-points", type=int, dest="x_points")
            p.add_argument("--x0", type=float)
        if name == "kernel":
            p.add_argument("--box", type=float)
        if name == "validate":
            p.add_argument("--quick", action="store_true")
            p.add_argument(
                "--inject-kappa-error", type=float, default=0.0, dest="inject_kappa_error",
                help="negative control: perturb kappa by this percent so checks must fail",
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # the file's values are validated once, under the subcommand, with the flags
        cfg = RunConfig()
        if args.config:
            with open(args.config) as fh:
                cfg = read_config(fh.read())
        overrides = {
            key: value
            for key, value in vars(args).items()
            if key not in ("config", "quick", "inject_kappa_error") and value is not None
        }
        if "model" in overrides and args.command == "simulate":
            overrides["process"] = overrides.pop("model")
        if "log" in overrides:
            overrides["log"] = overrides["log"] == "true"
        overrides["command"] = args.command
        cfg = merge_overrides(cfg, overrides)

        if args.command == "validate":
            return run_validate(cfg, quick=args.quick, kappa_error=args.inject_kappa_error)
        {"flow": run_flow, "simulate": run_simulate, "pdf": run_pdf, "kernel": run_kernel}[args.command](cfg)
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MultiflowError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
