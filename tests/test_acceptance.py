"""Acceptance suite: one test per release criterion, each printing a verdict line.

Every tolerance is pinned here, not configurable.  The suite exercises the
public API the way the CLI does, plus the independent quadrature oracles.
"""

import math
import time
import warnings

import numpy as np
from scipy import integrate

from conftest import (
    binomial_spec,
    flow_asymptotes,
    flow_at,
    fractional_spec,
    quad_dispersion_oracle,
    weighted_norm_quad_1d,
)
from multiflow import kernel as kernel_mod
from multiflow import specfun as specfun_mod
from multiflow import walker as walker_mod
from multiflow.cli import EXIT_OK, main
from multiflow.dispersion import (
    DiffusionSpec,
    binomial_time_integral,
    dispersion,
)
from multiflow.grid import geometric_grid, uniform_grid
from multiflow.kernel import (
    ds_from_kernel,
    heat_kernel_curve,
    ordinary_normalization,
    pdf,
)
from multiflow.measure import FractionalCharges, GeometryScales
from multiflow.spectral import LegacyAnsatzWarning, fixed_point_ds
from multiflow.walker import (
    fit_scaling_exponent,
    fit_scaling_exponent_batched,
    increment_diagnostics,
    msd,
    simulate,
)

SEED = 20130409


class _Budget:
    """Context manager asserting the criterion's runtime budget and printing
    the verdict line the suite promises."""

    def __init__(self, number: int, label: str, seconds: float):
        self.number = number
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"[criterion {self.number:2d}] {verdict} ({elapsed:6.2f}s < {self.seconds}s) {self.label}")
        if exc_type is None:
            assert elapsed < self.seconds, f"criterion {self.number} blew its {self.seconds}s budget"
        return False


def test_criterion_1_fixed_point_spectral_dimensions():
    rng = np.random.default_rng(SEED)
    with _Budget(1, "fixed-point spectral dimensions are exact identities", 1.0):
        for _ in range(100):
            dim = int(rng.integers(1, 8))
            beta = float(rng.uniform(0.05, 1.6))
            nu = float(rng.uniform(0.3, 1.7))
            alphas = tuple(rng.uniform(0.05, 1.0, dim))
            for model in ("weighted", "ordinary"):
                spec = fractional_spec(beta=beta, nu=nu, dim=dim, model=model)
                assert fixed_point_ds(spec) == dim * (1.0 + nu - beta)
            assert fixed_point_ds(fractional_spec(beta=beta, dim=dim, model="q")) == dim * beta
            legacy = DiffusionSpec(
                model="legacy", dim=dim, scales=GeometryScales(), charges=FractionalCharges(alphas)
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", LegacyAnsatzWarning)
                assert fixed_point_ds(legacy) == sum(alphas)


def test_criterion_2_weighted_multiscale_flow():
    with _Budget(2, "weighted multiscale flow asymptotes (incl. fuzzy)", 5.0):
        # analytic plateaus carried by the flow, per the asymptote table
        for beta_star, (uv, ir) in ((1.5, (4.0, 2.0)), (0.5, (6.0, 4.0))):
            spec = binomial_spec(beta_star, dim=4)
            got_uv, got_ir = flow_asymptotes(spec)
            assert abs(got_uv - uv) <= 0.01
            assert abs(got_ir - ir) <= 0.01
            # sampled flow has reached the UV plateau at sigma/lstar = 1e-6
            assert abs(flow_at(spec, 1e-6) - uv) <= 0.01
            # the IR transient decays like log(sigma)/sqrt(sigma); at the 1e6
            # probe it still carries ~1e-2 for beta* = 1.5 (approach check)
            assert abs(flow_at(spec, 1e6) - ir) <= 0.015
        fuzzy = binomial_spec(0.5, dim=4, fuzzy=True)
        assert flow_at(fuzzy, 1e-6) < 0.05
        h = 0.05
        slope = (
            math.log(flow_at(fuzzy, 1e-6 * math.exp(h)))
            - math.log(flow_at(fuzzy, 1e-6 * math.exp(-h)))
        ) / (2.0 * h)
        assert abs(slope - (2.0 - 0.5)) <= 0.02


def test_criterion_3_q_model_flow():
    with _Budget(3, "q-model binomial flow", 1.0):
        spec = DiffusionSpec(model="q", dim=4, scales=GeometryScales(lstar=1.0), beta_star=0.5)
        assert abs(flow_at(spec, 1e-6) - 2.0) <= 0.005
        assert abs(flow_at(spec, 1e6) - 4.0) <= 0.005
        assert abs(flow_at(spec, 1.0) - 3.0) <= 1e-9


def test_criterion_4_dispersion_oracle_equivalence():
    with _Budget(4, "closed-form dispersion vs adaptive quadrature", 10.0):
        lstar, kappa = 1.0, 1.0
        for beta_star in (0.25, 0.5, 0.75, 1.25, 1.5, 1.75):
            spec = binomial_spec(beta_star, lstar=lstar, kappa=kappa)
            for s in np.geomspace(1e-3 * lstar, 1e3 * lstar, 50):
                closed = dispersion(spec, float(s))
                oracle = quad_dispersion_oracle(beta_star, lstar, kappa, float(s))
                assert abs(closed - oracle) <= 1e-7 * oracle
        # removable pole at beta* = 1.5: the perturbed closed forms still match
        # their own quadrature at 1e-7, and they approach the exact limit value
        sigma = 40.0
        limit_value = binomial_time_integral(1.5, lstar, sigma)
        for eps in (-1e-6, 0.0, 1e-6):
            closed = binomial_time_integral(1.5 + eps, lstar, sigma)
            oracle = quad_dispersion_oracle(1.5 + eps, lstar, 1.0, sigma)
            assert abs(closed - oracle) <= 1e-7 * oracle
            assert abs(closed - limit_value) <= 1e-4 * limit_value


def test_criterion_5_kummer_normalization():
    rng = np.random.default_rng(SEED)
    with _Budget(5, "Kummer normalization vs 1-d/2-d quadrature", 30.0):
        pairs_1d = [(float(rng.uniform(-3, 3)), float(rng.uniform(0.1, 3.0))) for _ in range(10)]
        pairs_2d = [
            ((float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3))), float(rng.uniform(0.1, 3.0)))
            for _ in range(10)
        ]
        for alpha in (0.3, 0.5, 0.8):
            spec1 = DiffusionSpec(
                model="ordinary", dim=1, scales=GeometryScales(beta=0.5),
                charges=FractionalCharges.isotropic(alpha, 1),
            )
            for x0, sigma in pairs_1d:
                ell2 = dispersion(spec1, sigma)
                oracle = 1.0 / weighted_norm_quad_1d(alpha, x0, ell2)
                got = ordinary_normalization([x0], sigma, spec1)
                assert abs(got - oracle) <= 1e-6 * oracle
            spec2 = DiffusionSpec(
                model="ordinary", dim=2, scales=GeometryScales(beta=0.5),
                charges=FractionalCharges.isotropic(alpha, 2),
            )
            for (x0, y0), sigma in pairs_2d:
                ell2 = dispersion(spec2, sigma)
                oracle = 1.0 / (
                    weighted_norm_quad_1d(alpha, x0, ell2) * weighted_norm_quad_1d(alpha, y0, ell2)
                )
                got = ordinary_normalization([x0, y0], sigma, spec2)
                assert abs(got - oracle) <= 1e-6 * oracle
        # pointlike limit at |x0|/ell = 100 recovers the weighted delta
        for alpha in (0.3, 0.5, 0.8):
            spec1 = DiffusionSpec(
                model="ordinary", dim=1, scales=GeometryScales(),
                charges=FractionalCharges.isotropic(alpha, 1),
            )
            x0, ell = 2.0, 0.02
            c = ordinary_normalization([x0], ell * ell, spec1)  # ell^2 = sigma here
            v = abs(x0) ** (alpha - 1.0) / math.gamma(alpha)
            assert abs(c * math.sqrt(4.0 * math.pi * ell * ell) * v - 1.0) <= 1e-2


def test_criterion_6_heat_kernel_duality():
    with _Budget(6, "ordinary-model UV trace slope = weighted closed flow", 60.0):
        for dim in (1, 2):
            for beta_star in (1.5, 0.5):
                spec = DiffusionSpec(
                    model="ordinary", dim=dim,
                    scales=GeometryScales(lstar=1.0, beta=beta_star),
                    charges=FractionalCharges.isotropic(0.5, dim),
                    beta_star=beta_star,
                    multiscale_space=True,
                )
                wspec = binomial_spec(beta_star, dim=dim)
                grid = np.geomspace(10 ** -4.8, 10 ** -4.0, 5)
                curve = heat_kernel_curve(spec, grid, box_halfwidth=10.0)
                mid = float(grid[2])
                got = ds_from_kernel(curve, mid)
                expected = flow_at(wspec, mid)
                assert abs(got - expected) <= 1e-2


def test_criterion_7_monte_carlo_exponents():
    with _Budget(7, "walker MSD exponents", 60.0):
        n_paths, n_steps = 10_000, 1024
        grid = geometric_grid(1e-3, 10.0, n_steps)
        window = (float(grid[-1]) / 100.0, float(grid[-1]))

        ens = simulate("bm", n_paths, grid, fractional_spec(beta=1.0, dim=1), SEED)
        fit = fit_scaling_exponent(*msd(ens)[:2], window)
        assert abs(fit.exponent - 1.0) <= 0.03

        ens = simulate("sbm", n_paths, grid, fractional_spec(beta=1.0, nu=0.5, dim=1), SEED)
        fit = fit_scaling_exponent(*msd(ens)[:2], window)
        assert abs(fit.exponent - 0.5) <= 0.03

        ens = simulate("fsbm-v", n_paths, grid, fractional_spec(beta=0.5, nu=1.0, dim=1), SEED)
        fit = fit_scaling_exponent(*msd(ens)[:2], window)
        assert abs(fit.exponent - 1.5) <= 0.05

        ens = simulate("fsbm-v", n_paths, grid, fractional_spec(beta=0.5, nu=0.75, dim=1), SEED)
        fit = fit_scaling_exponent(*msd(ens)[:2], window)
        assert abs(fit.exponent - 1.25) <= 0.05

        ens = simulate("fsbm-q", n_paths, grid, fractional_spec(beta=0.5, dim=1, alpha=0.5), SEED)
        fit = fit_scaling_exponent_batched(ens, window)
        assert abs(fit.exponent - 1.0) <= 0.1


def test_criterion_8_increment_diagnostics():
    with _Budget(8, "increment stationarity/correlation classification", 30.0):
        grid = uniform_grid(0.01, 10.0, 512)

        bm, sbm = fractional_spec(beta=1.0, dim=1), fractional_spec(beta=1.0, nu=0.5, dim=1)
        report = increment_diagnostics(simulate("bm", 10_000, grid, bm, SEED), lag=8)
        assert report.stationary and report.uncorrelated

        spec = fractional_spec(beta=0.5, nu=1.0, dim=1)
        report = increment_diagnostics(simulate("fsbm-v", 10_000, grid, spec, SEED), lag=8)
        assert abs(report.stationarity_tstat) >= 5.0
        assert report.uncorrelated

        report = increment_diagnostics(simulate("sbm", 10_000, grid, sbm, SEED), lag=8)
        assert abs(report.stationarity_tstat) >= 5.0


def test_criterion_9_pdf_suite():
    rng = np.random.default_rng(SEED)
    with _Budget(9, "PDF positivity, normalization, self-similarity", 30.0):
        weighted = fractional_spec(beta=0.5, nu=1.0, alpha=0.5, dim=1)
        ordinary = DiffusionSpec(
            model="ordinary", dim=1, scales=GeometryScales(beta=0.5),
            charges=FractionalCharges.isotropic(0.5, 1),
        )
        q_model = DiffusionSpec(
            model="q", dim=1, scales=GeometryScales(beta=0.5),
            charges=FractionalCharges.isotropic(0.5, 1),
        )
        # positivity at 1e5 random points, split across the three models
        for spec, count in ((weighted, 50_000), (ordinary, 20_000), (q_model, 30_000)):
            xs = rng.uniform(-8.0, 8.0, count)
            x0s = rng.uniform(-2.0, 2.0, count)
            sigmas = rng.uniform(0.05, 20.0, count)
            for x, x0, sigma in zip(xs, x0s, sigmas):
                if x == 0.0:
                    continue
                assert pdf(spec, [x], [x0], float(sigma)) >= 0.0

        # measure-weighted normalization to 1e-6 in one dimension
        def quad_norm(weight, density, x0, ell):
            lo = min(0.0, x0) - 12.0 * ell
            hi = max(0.0, x0) + 12.0 * ell
            total = 0.0
            for a, b in ((lo, 0.0), (0.0, hi)):
                part, _ = integrate.quad(
                    lambda x: weight(x) * density(x), a, b,
                    epsabs=1e-12, epsrel=1e-10, limit=500,
                    points=[x0] if a < x0 < b else None,
                )
                total += part
            return total

        sigma, x0 = 0.8, 0.4
        ell = math.sqrt(dispersion(weighted, sigma))
        val = quad_norm(
            lambda x: abs(x) ** (-0.5) / math.gamma(0.5),
            lambda x: pdf(weighted, [x], [x0], sigma),
            x0, ell,
        )
        assert abs(val - 1.0) <= 1e-6

        ell = math.sqrt(dispersion(ordinary, sigma))
        c = ordinary_normalization([x0], sigma, ordinary)
        val = quad_norm(
            lambda x: abs(x) ** (-0.5) / math.gamma(0.5),
            lambda x: c * math.exp(-((x - x0) ** 2) / (4.0 * ell * ell)),
            x0, ell,
        )
        assert abs(val - 1.0) <= 1e-6

        # q model: 12*ell in geometric coordinates maps to a wide x box
        ell_q = math.sqrt(dispersion(q_model, sigma))
        x_half = (math.gamma(1.5) * 12.0 * ell_q) ** 2.0  # inverse profile at 12 ell
        val = quad_norm(
            lambda x: 0.5 * abs(x) ** (-0.5) / math.gamma(1.5),
            lambda x: pdf(q_model, [x], [x0], sigma),
            x0, max(x_half, 12.0 * ell_q),
        )
        assert abs(val - 1.0) <= 1e-6

        # exact self-similarity of the weighted density at lambda = 2
        beta, nu, alpha, dim = 0.5, 0.75, 0.6, 2
        spec = fractional_spec(beta=beta, nu=nu, alpha=alpha, dim=dim)
        s = (1.0 + nu - beta) / 2.0
        lam = 2.0
        for _ in range(50):
            x = rng.uniform(0.1, 3.0, dim)
            x0v = rng.uniform(-3.0, -0.1, dim)
            sig = float(rng.uniform(0.2, 5.0))
            lhs = pdf(spec, lam ** s * x, lam ** s * x0v, lam * sig)
            rhs = lam ** (-dim * alpha * s) * pdf(spec, x, x0v, sig)
            assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


def test_criterion_10_block_size_determinism(tmp_path, monkeypatch):
    # the walker's path block, the panel rule's upper block and the trace's
    # Kummer block are cache sizes only: one path per block, 1 or 7 uppers
    # per panel block and one trace case per Kummer call must write the
    # bytes of the default blocks
    walker_block, panel_block = walker_mod._BLOCK_BYTES, specfun_mod._PANEL_BLOCK
    phi_chunk = kernel_mod._PHI_CHUNK
    settings = (
        ("default", walker_block, panel_block, phi_chunk),
        ("one-path-one-upper-one-case", 1, 1, 1),
        ("seven-uppers", walker_block, 7, phi_chunk),
    )
    with _Budget(10, "byte-identical CSVs for every walker, panel and Kummer block size", 60.0):
        outputs = {}
        for name, block_bytes, uppers, chunk in settings:
            monkeypatch.setattr(walker_mod, "_BLOCK_BYTES", block_bytes)
            monkeypatch.setattr(specfun_mod, "_PANEL_BLOCK", uppers)
            monkeypatch.setattr(kernel_mod, "_PHI_CHUNK", chunk)
            sim_out = tmp_path / f"sim_{name}.csv"
            code = main(
                [
                    "simulate", "--model", "fsbm-v", "--dim", "1", "--beta", "0.5",
                    "--paths", "2000", "--steps", "512", "--sigma-min", "1e-3",
                    "--sigma-max", "10", "--seed", str(SEED), "--out", str(sim_out),
                ]
            )
            assert code == EXIT_OK
            flow_out = tmp_path / f"flow_{name}.csv"
            code = main(
                [
                    "flow", "--model", "weighted", "--dim", "4", "--beta-star", "0.5",
                    "--sigma-min", "1e-6", "--sigma-max", "1e6",
                    "--sigma-points", "200", "--out", str(flow_out),
                ]
            )
            assert code == EXIT_OK
            kernel_out = tmp_path / f"kernel_{name}.csv"
            code = main(
                [
                    "kernel", "--model", "ordinary", "--dim", "2", "--alpha", "0.7",
                    "--multiscale-space", "--sigma-min", "1e-2", "--sigma-max", "1e2",
                    "--sigma-points", "9", "--out", str(kernel_out),
                ]
            )
            assert code == EXIT_OK
            outputs[name] = (
                sim_out.read_bytes(),
                (tmp_path / f"sim_{name}.traj.csv").read_bytes(),
                flow_out.read_bytes(),
                kernel_out.read_bytes(),
            )
        assert outputs["one-path-one-upper-one-case"] == outputs["default"]
        assert outputs["seven-uppers"] == outputs["default"]
