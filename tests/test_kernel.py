import itertools
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate

from conftest import binomial_spec, flow_at, fractional_spec, weighted_norm_quad_1d
from multiflow.cli import EXIT_NUMERIC, EXIT_OK, main
from multiflow.dispersion import DiffusionSpec, dispersion
from multiflow import kernel as kernel_mod
from multiflow import specfun as specfun_mod
from multiflow.errors import BoxError, ConvergenceError, DomainError, GridError
from multiflow.kernel import (
    PER_HAUSDORFF_VOLUME,
    PER_INTEGER_VOLUME,
    HeatKernelCurve,
    ds_from_kernel,
    gaussian_pdf,
    heat_kernel_curve,
    ordinary_normalization,
    pdf,
    position_weight,
    return_probability,
)
from multiflow.kernel import _axis_tables, _box_for, _hausdorff_box_volume, _trace_quadrature
from multiflow.measure import FractionalCharges, GeometryScales
from multiflow.specfun import kummer_phi


def ordinary_spec(alpha, dim=1, beta=1.0, nu=1.0, kappa=1.0):
    return DiffusionSpec(
        model="ordinary",
        dim=dim,
        scales=GeometryScales(kappa=kappa, nu=nu, beta=beta),
        charges=FractionalCharges.isotropic(alpha, dim),
    )


def q_spec(alpha, beta, dim=1, lstar=1.0, multiscale=False):
    return DiffusionSpec(
        model="q",
        dim=dim,
        scales=GeometryScales(beta=1.0 if multiscale else beta, lstar=lstar),
        charges=FractionalCharges.isotropic(alpha, dim),
        beta_star=beta if multiscale else None,
    )


class TestGaussian:
    def test_peak_value(self):
        for dim in (1, 2, 3):
            x0 = np.zeros(dim)
            assert math.isclose(
                gaussian_pdf(x0, x0, 0.7, dim), (4.0 * math.pi * 0.7) ** (-dim / 2.0)
            )

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_normalization_by_quadrature(self, dim):
        ell2 = 0.4
        one_dim, _ = integrate.quad(
            lambda x: gaussian_pdf([x], [0.3], ell2, 1), -12, 12, epsabs=1e-12, epsrel=1e-11
        )
        # factorizable: the D-dimensional integral is the 1-d one to the D-th power
        assert abs(one_dim ** dim - 1.0) < 1e-8

    def test_second_moment(self):
        ell2 = 0.9
        val, _ = integrate.quad(
            lambda x: x * x * gaussian_pdf([x], [0.0], ell2, 1), -15, 15, epsabs=1e-12
        )
        assert math.isclose(val, 2.0 * ell2, rel_tol=1e-9)  # 2 D ell^2 per direction

    def test_domain(self):
        with pytest.raises(DomainError):
            gaussian_pdf([0.0], [0.0], 0.0, 1)


class TestWeightedPdf:
    def test_trivial_measure_reduces_to_gaussian(self):
        spec = fractional_spec(beta=1.0, alpha=1.0, dim=2)
        x, x0 = [0.3, -0.4], [0.1, 0.2]
        assert math.isclose(
            pdf(spec, x, x0, 1.3), gaussian_pdf(x, x0, 1.3, 2), rel_tol=1e-14
        )

    def test_measure_weighted_normalization(self):
        spec = fractional_spec(beta=0.5, alpha=0.5, dim=1)
        sigma = 0.8
        ell2 = dispersion(spec, sigma)

        def integrand(x):
            v = abs(x) ** (-0.5) / math.gamma(0.5)
            return v * pdf(spec, [x], [0.4], sigma)

        hw = 12.0 * math.sqrt(ell2)
        total = 0.0
        for a, b in ((-hw, 0.0), (0.0, hw)):
            part, _ = integrate.quad(
                integrand, a, b, epsabs=1e-12, epsrel=1e-10, limit=400,
                points=[0.4] if a < 0.4 < b else None,
            )
            total += part
        assert abs(total - 1.0) < 1e-6

    def test_self_similarity(self, rng):
        # P(lam^s x, lam^s x0, lam sigma) = lam^(-D alpha s) P(x, x0, sigma)
        beta, nu, alpha, dim = 0.5, 0.75, 0.6, 2
        spec = fractional_spec(beta=beta, nu=nu, alpha=alpha, dim=dim)
        s = (1.0 + nu - beta) / 2.0
        lam = 2.0
        for _ in range(25):
            x = rng.uniform(0.1, 3.0, dim)
            x0 = rng.uniform(-3.0, -0.1, dim)
            sigma = float(rng.uniform(0.2, 5.0))
            lhs = pdf(spec, lam ** s * x, lam ** s * x0, lam * sigma)
            rhs = lam ** (-dim * alpha * s) * pdf(spec, x, x0, sigma)
            assert abs(lhs - rhs) <= 1e-10 * abs(rhs)

    def test_singular_point(self):
        spec = fractional_spec(beta=1.0, alpha=0.5, dim=1)
        with pytest.raises(DomainError):
            pdf(spec, [0.0], [1.0], 1.0)


class TestOrdinaryNormalization:
    def test_unit_charges_reduce_to_gaussian_norm(self):
        spec = ordinary_spec(1.0, dim=3)
        sigma = 0.7
        ell2 = dispersion(spec, sigma)
        assert math.isclose(
            ordinary_normalization([0.4, -1.0, 2.0], sigma, spec),
            (4.0 * math.pi * ell2) ** (-1.5),
            rel_tol=1e-12,
        )

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
    def test_quadrature_oracle_1d(self, alpha, rng):
        spec = ordinary_spec(alpha, dim=1, beta=0.5)
        for _ in range(4):
            x0 = float(rng.uniform(-3.0, 3.0))
            sigma = float(rng.uniform(0.1, 4.0))
            ell2 = dispersion(spec, sigma)
            oracle = 1.0 / weighted_norm_quad_1d(alpha, x0, ell2)
            got = ordinary_normalization([x0], sigma, spec)
            assert abs(got - oracle) <= 1e-6 * oracle

    def test_quadrature_oracle_2d(self, rng):
        alpha = 0.5
        spec = ordinary_spec(alpha, dim=2)
        x0 = [0.7, -1.2]
        sigma = 0.9
        ell2 = dispersion(spec, sigma)
        # the fixed-dimensionality integral factorizes exactly; integrating
        # each direction adaptively is the 2-d oracle
        oracle = 1.0 / (
            weighted_norm_quad_1d(alpha, x0[0], ell2) * weighted_norm_quad_1d(alpha, x0[1], ell2)
        )
        got = ordinary_normalization(x0, sigma, spec)
        assert abs(got - oracle) <= 1e-6 * oracle

    def test_pointlike_limit(self):
        # sigma -> 0 at |x0|/ell = 100 recovers the measure-weighted delta
        alpha = 0.5
        spec = ordinary_spec(alpha, dim=1)
        x0 = 2.0
        ell = x0 / 100.0
        sigma = ell * ell  # kappa = beta = nu = 1: ell^2 = sigma
        c = ordinary_normalization([x0], sigma, spec)
        v = abs(x0) ** (alpha - 1.0) / math.gamma(alpha)
        assert abs(c * math.sqrt(4.0 * math.pi * sigma) * v - 1.0) < 1e-2

    def test_binomial_bracket_matches_1d_quadrature(self):
        # one dimension: the two-term bracket is the exact integral
        alpha, lstar = 0.5, 1.0
        spec = DiffusionSpec(
            model="ordinary",
            dim=1,
            scales=GeometryScales(lstar=lstar, beta=1.0),
            charges=FractionalCharges.isotropic(alpha, 1),
            multiscale_space=True,
        )
        sigma = 0.6
        ell2 = dispersion(spec, sigma)
        x0 = 0.8

        def integrand(x):
            v = 1.0 + lstar ** (1.0 - alpha) * abs(x) ** (alpha - 1.0) / math.gamma(alpha)
            return v * math.exp(-((x - x0) ** 2) / (4.0 * ell2))

        hw = 14.0 * math.sqrt(ell2)
        total = 0.0
        for a, b in ((x0 - hw, 0.0), (0.0, x0 + hw)):
            part, _ = integrate.quad(
                integrand, a, b, epsabs=1e-13, epsrel=1e-11, limit=400,
                points=[x0] if a < x0 < b else None,
            )
            total += part
        assert abs(ordinary_normalization([x0], sigma, spec) * total - 1.0) < 1e-8


class TestQPdf:
    def test_unit_charge_reduces_to_gaussian(self):
        spec = q_spec(1.0, 1.0, dim=2)
        sigma = 1.1
        ell2 = dispersion(spec, sigma)
        x, x0 = [0.5, -0.3], [0.0, 0.4]
        assert math.isclose(
            pdf(spec, x, x0, sigma), gaussian_pdf(x, x0, ell2, 2), rel_tol=1e-12
        )

    def test_peak_value(self):
        spec = q_spec(0.5, 0.5)
        sigma = 0.9
        ell2 = dispersion(spec, sigma)
        x0 = [1.3]
        assert math.isclose(
            pdf(spec, x0, x0, sigma), (4.0 * math.pi * ell2) ** -0.5, rel_tol=1e-12
        )

    def test_measure_weighted_normalization(self):
        # v = dq/dx makes the normalization exact; check by quadrature
        alpha = 0.5
        spec = q_spec(alpha, 0.5)
        sigma = 0.7
        x0 = 0.6

        def integrand(x):
            v = alpha * abs(x) ** (alpha - 1.0) / math.gamma(alpha + 1.0)
            return v * pdf(spec, [x], [x0], sigma)

        val = 0.0
        for a, b in ((-60.0, 0.0), (0.0, 60.0)):
            part, _ = integrate.quad(
                integrand, a, b, epsabs=1e-12, epsrel=1e-10, limit=500,
                points=[x0] if a < x0 < b else None,
            )
            val += part
        assert abs(val - 1.0) < 1e-6


class TestPdfDispatcher:
    def test_positivity_sample(self, rng):
        specs = [
            fractional_spec(beta=0.5, alpha=0.5, dim=1),
            ordinary_spec(0.5, dim=1, beta=0.5),
            q_spec(0.5, 0.5),
        ]
        for spec in specs:
            for _ in range(200):
                x = [float(rng.uniform(-8.0, 8.0)) or 0.1]
                x0 = [float(rng.uniform(-2.0, 2.0))]
                sigma = float(rng.uniform(0.05, 20.0))
                assert pdf(spec, x, x0, sigma) >= 0.0

    def test_legacy_maps_to_normalized_gaussian(self):
        spec = DiffusionSpec(
            model="legacy",
            dim=1,
            scales=GeometryScales(kappa=1.0),
            charges=FractionalCharges.isotropic(0.5, 1),
        )
        got = pdf(spec, [1.0], [0.0], 2.0)
        v = abs(1.0) ** (-0.5) / math.gamma(0.5)
        assert math.isclose(got, gaussian_pdf([1.0], [0.0], 2.0, 1) / v, rel_tol=1e-12)


class TestReturnProbability:
    def test_weighted_brownian_closed_form(self):
        spec = fractional_spec(beta=1.0, nu=1.0, dim=3, kappa=0.8)
        for sigma in (0.3, 2.0, 50.0):
            assert math.isclose(
                return_probability(spec, sigma),
                (4.0 * math.pi * 0.8 * sigma) ** -1.5,
                rel_tol=1e-12,
            )

    def test_legacy_power_law(self):
        spec = DiffusionSpec(
            model="legacy",
            dim=4,
            scales=GeometryScales(),
            charges=FractionalCharges.isotropic(0.5, 4),
        )
        # regularized trace: ell^(-D alpha) with unit prefactor
        assert math.isclose(return_probability(spec, 2.0), 2.0 ** -1.0, rel_tol=1e-12)

    def test_q_binomial_ultraviolet_power(self):
        spec = q_spec(0.5, 0.5, dim=2, multiscale=True)
        s1, s2 = 1e-8, 1e-7
        slope = math.log(return_probability(spec, s2) / return_probability(spec, s1)) / math.log(
            s2 / s1
        )
        assert abs(slope - (-2 * 0.5 / 2.0)) < 1e-3  # Z ~ sigma^(-D beta*/2)

    def test_ordinary_fixed_dim_small_sigma_slope(self):
        # UV log-slope of Z: -D(1+nu-beta)/2
        spec = ordinary_spec(0.5, dim=1, beta=0.5)
        grid = np.geomspace(1e-7, 1e-5, 7)
        curve = heat_kernel_curve(spec, grid, box_halfwidth=30.0)
        d_s = ds_from_kernel(curve, float(grid[2]))
        assert abs(d_s - 1.5) < 1e-2

    def test_box_too_small(self):
        spec = ordinary_spec(0.5, dim=1)
        with pytest.raises(BoxError):
            return_probability(spec, 4.0, box_halfwidth=1.0)

    def test_curve_conventions(self):
        weighted = heat_kernel_curve(fractional_spec(beta=1.0), np.geomspace(0.1, 10, 6))
        assert weighted.convention == PER_INTEGER_VOLUME
        qc = heat_kernel_curve(q_spec(0.5, 0.5, multiscale=True), np.geomspace(0.1, 10, 6))
        assert qc.convention == PER_HAUSDORFF_VOLUME


class TestDsFromKernel:
    def test_pure_power_law(self):
        sig = np.geomspace(0.01, 100.0, 41)
        curve = HeatKernelCurve(
            sigmas=sig, Z=sig ** -2.0, convention=PER_INTEGER_VOLUME, model="weighted"
        )
        assert abs(ds_from_kernel(curve, float(sig[20])) - 4.0) < 1e-10

    def test_q_binomial_matches_closed_flow(self):
        spec = q_spec(0.5, 0.5, dim=4, multiscale=True)
        grid = np.geomspace(1e-3, 1e3, 121)
        curve = heat_kernel_curve(spec, grid)
        for s in grid[5:-5:13]:
            got = ds_from_kernel(curve, float(s))
            assert abs(got - flow_at(spec, float(s))) < 1e-3

    def test_weighted_multiscale_matches_closed_flow(self):
        spec = binomial_spec(0.5, dim=4)
        grid = np.geomspace(1e-2, 1e2, 101)
        curve = heat_kernel_curve(spec, grid)
        for s in grid[5:-5:13]:
            got = ds_from_kernel(curve, float(s))
            assert abs(got - flow_at(spec, float(s))) < 1e-3

    def test_curve_may_be_flat_but_not_increase(self):
        sig = np.geomspace(0.1, 10.0, 4)
        flat = HeatKernelCurve(sigmas=sig, Z=np.array([0.5, 0.5, 0.25, 0.125]),
                               convention=PER_INTEGER_VOLUME, model="weighted")
        assert flat.Z[0] == flat.Z[1]
        with pytest.raises(DomainError, match="must not increase"):
            HeatKernelCurve(sigmas=sig, Z=np.array([0.5, 0.25, 0.25 + 2 ** -54, 0.125]),
                            convention=PER_INTEGER_VOLUME, model="weighted")

    @pytest.mark.parametrize("z", [math.inf, math.nan], ids=["inf", "nan"])
    def test_curve_refuses_non_finite_z(self, z):
        # heat_kernel_curve returned [inf, inf] and [nan, nan] for ordinary
        # traces past the double range
        with pytest.raises(DomainError, match=rf"^return probability must be finite, got {z}$"):
            HeatKernelCurve(sigmas=np.array([0.1, 1.0]), Z=np.array([z, z]),
                            convention=PER_HAUSDORFF_VOLUME, model="ordinary")

    def test_grid_errors(self):
        sig = np.geomspace(0.1, 10.0, 11)
        curve = HeatKernelCurve(
            sigmas=sig, Z=sig ** -1.0, convention=PER_INTEGER_VOLUME, model="weighted"
        )
        with pytest.raises(GridError):
            ds_from_kernel(curve, float(sig[0]))
        with pytest.raises(DomainError):
            ds_from_kernel(curve, None)


class TestOrdinaryPdf:
    def test_peak_is_normalization(self):
        spec = ordinary_spec(0.5, dim=1, beta=0.5)
        x0, sigma = [0.7], 0.9
        assert math.isclose(
            pdf(spec, x0, x0, sigma),
            ordinary_normalization(x0, sigma, spec),
            rel_tol=1e-14,
        )

    def test_gaussian_falloff(self):
        spec = ordinary_spec(0.5, dim=1)
        sigma = 1.0
        ell2 = dispersion(spec, sigma)
        c = ordinary_normalization([0.5], sigma, spec)
        got = pdf(spec, [2.0], [0.5], sigma)
        assert math.isclose(got, c * math.exp(-(1.5 ** 2) / (4.0 * ell2)), rel_tol=1e-12)


class TestWeightedNormalization2D:
    def test_measure_weighted_integral_2d(self):
        # nested adaptive quadrature of v(x) P over a 12-ell box, D = 2
        spec = fractional_spec(beta=0.5, alpha=0.5, dim=2)
        sigma, x0 = 0.8, (0.4, -0.6)
        ell = math.sqrt(dispersion(spec, sigma))

        def weighted_density_1d(x, x0_mu):
            # v * P factorizes: each direction integrates the plain Gaussian
            return math.exp(-((x - x0_mu) ** 2) / (4.0 * ell * ell)) / math.sqrt(
                4.0 * math.pi * ell * ell
            )

        total = 1.0
        for x0_mu in x0:
            val, _ = integrate.quad(
                weighted_density_1d, x0_mu - 12.0 * ell, x0_mu + 12.0 * ell,
                args=(x0_mu,), epsabs=1e-12, epsrel=1e-10,
            )
            total *= val
        assert abs(total - 1.0) < 1e-4
        # spot check that the factorized integrand is v * pdf
        x = (0.3, 0.2)
        v = 1.0
        for xi, a in zip(x, (0.5, 0.5)):
            v *= abs(xi) ** (a - 1.0) / math.gamma(a)
        direct = v * pdf(spec, list(x), list(x0), sigma)
        factorized = weighted_density_1d(x[0], x0[0]) * weighted_density_1d(x[1], x0[1])
        assert math.isclose(direct, factorized, rel_tol=1e-12)


class TestOrdinaryWeightedDuality:
    def test_multiscale_ir_slope_d2(self):
        # infrared end of the ordinary-model multiscale trace: D(2 - beta*)
        beta_star, dim = 1.5, 2
        spec = DiffusionSpec(
            model="ordinary",
            dim=dim,
            scales=GeometryScales(lstar=1.0),
            charges=FractionalCharges.isotropic(0.5, dim),
            beta_star=beta_star,
            multiscale_space=True,
        )
        grid = np.geomspace(10 ** 5.0, 10 ** 5.8, 5)
        ell_max = math.sqrt(dispersion(spec, float(grid[-1])))
        curve = heat_kernel_curve(spec, grid, box_halfwidth=14.0 * ell_max)
        got = ds_from_kernel(curve, float(grid[2]))
        expected = flow_at(binomial_spec(beta_star, dim=dim), float(grid[2]))
        assert abs(expected - dim * (2.0 - beta_star)) < 0.02  # near the IR plateau
        assert abs(got - expected) < 1e-2

    @pytest.mark.parametrize("beta_star", [1.5, 0.5])
    def test_multiscale_uv_slope_matches_weighted_flow_1d(self, beta_star):
        # ordinary-Laplacian trace (quadrature) vs weighted closed flow, D = 1
        alpha = 0.5
        spec = DiffusionSpec(
            model="ordinary",
            dim=1,
            scales=GeometryScales(lstar=1.0),
            charges=FractionalCharges.isotropic(alpha, 1),
            beta_star=beta_star,
            multiscale_space=True,
        )
        wspec = binomial_spec(beta_star, dim=1)
        grid = np.geomspace(1e-5, 1e-3, 9)
        curve = heat_kernel_curve(spec, grid, box_halfwidth=10.0)
        mid = float(grid[4])
        got = ds_from_kernel(curve, mid)
        expected = flow_at(wspec, mid)
        assert abs(got - expected) < 1e-2


def multiscale_space_spec(alpha, dim, lstar=1.0):
    return DiffusionSpec(
        model="ordinary",
        dim=dim,
        scales=GeometryScales(lstar=lstar, beta=1.0),
        charges=FractionalCharges.isotropic(alpha, dim),
        multiscale_space=True,
    )


def tensor_trace_oracle(spec, sigma, halfwidth, order):
    """Binomial box sum of v(x) C(x, sigma) on full tensor-product grids, scalar Kummer calls."""
    ell2 = dispersion(spec, sigma)
    ell = math.sqrt(ell2)
    tables = _axis_tables(spec, halfwidth, 4.0 * ell, order)
    alpha, lstar = spec.charges.alphas[0], spec.scales.lstar
    coeff = lstar ** spec.dim * (
        math.gamma(alpha / 2.0) / math.gamma(alpha) * (2.0 * ell / lstar) ** alpha
    ) ** spec.dim
    total = 0.0
    for combo in itertools.product(*tables):
        prefactor = math.prod(g for g, _, _ in combo)
        grid = coeff * np.ones(())
        for _, xs, _ in combo:
            phi = np.array([kummer_phi((1.0 - alpha) / 2.0, 0.5, -(x * x) / (4.0 * ell2)) for x in xs])
            grid = np.multiply.outer(grid, phi)
        c_grid = 1.0 / ((4.0 * math.pi * ell2) ** (spec.dim / 2.0) + grid)
        w_grid = np.ones(())
        for _, _, w in combo:
            w_grid = np.multiply.outer(w_grid, w)
        total += prefactor * float(np.sum(w_grid * c_grid))
    return total


def axis_spec(spec, alpha):
    """The one-dimensional spec of one direction of ``spec``."""
    return DiffusionSpec(
        model="ordinary", dim=1, scales=spec.scales, charges=FractionalCharges((alpha,)),
        multiscale_space=spec.multiscale_space,
    )


def axis_volume_mpquad(spec1, halfwidth):
    """int_{-L}^{L} position_weight(spec1, x) dx by mpmath.quad in u = |x|^alpha,
    where the |x|^(alpha-1) term of the weight is flat."""
    a = spec1.charges.alphas[0]

    def integrand(u):
        return position_weight(spec1, [float(u ** (1 / a))]) * u ** (1 / a - 1) / a

    return 2.0 * float(mp.quad(integrand, [0, min(1.0, halfwidth) ** a, halfwidth ** a]))


class TestHausdorffBoxVolume:
    SPECS = {
        "fixed-d1": DiffusionSpec(
            model="ordinary", dim=1, scales=GeometryScales(), charges=FractionalCharges((0.2,))
        ),
        "fixed-d2-alpha-one": DiffusionSpec(
            model="ordinary", dim=2, scales=GeometryScales(), charges=FractionalCharges((1.0, 0.45))
        ),
        "fixed-d3-alpha-one": DiffusionSpec(
            model="ordinary", dim=3, scales=GeometryScales(),
            charges=FractionalCharges((0.3, 1.0, 0.6)),
        ),
        "multiscale-d1": multiscale_space_spec(0.5, dim=1),
        "multiscale-d2": multiscale_space_spec(0.3, dim=2, lstar=2.0),
        "multiscale-d3": multiscale_space_spec(0.7, dim=3, lstar=0.5),
    }

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_is_the_product_of_axis_integrals_of_the_weight(self, name, rng):
        spec = self.SPECS[name]
        axes = [axis_spec(spec, a) for a in spec.charges.alphas]
        for x in rng.uniform(-3.0, 3.0, (5, spec.dim)).tolist():
            assert position_weight(spec, x) == math.prod(
                position_weight(s1, [xi]) for s1, xi in zip(axes, x)
            )
        for halfwidth in (0.3, 10.0, 1234.5):
            want = math.prod(axis_volume_mpquad(s1, halfwidth) for s1 in axes)
            assert abs(_hausdorff_box_volume(spec, halfwidth) / want - 1.0) < 1e-12


class TestTraceQuadrature:
    # the box rule serves a multiscale space at D = 2 and 3 only
    @pytest.mark.parametrize(
        "spec",
        [multiscale_space_spec(0.5, dim=2), multiscale_space_spec(0.4, dim=3, lstar=2.0)],
        ids=["binomial-d2", "binomial-d3"],
    )
    @pytest.mark.parametrize("sigma", [0.03, 2.0])
    def test_matches_tensor_product_sum(self, spec, sigma):
        halfwidth = _box_for(spec, dispersion(spec, sigma))
        got = _trace_quadrature(spec, [(dispersion(spec, sigma), halfwidth, 8)])[0]
        assert math.isclose(got, tensor_trace_oracle(spec, sigma, halfwidth, 8), rel_tol=1e-13)

    def test_isotropic_d3_is_d1_cubed(self):
        for sigma in (0.05, 1.0, 20.0):
            z1 = return_probability(ordinary_spec(0.5, dim=1), sigma)
            z3 = return_probability(ordinary_spec(0.5, dim=3), sigma)
            assert math.isclose(z3, z1 ** 3, rel_tol=1e-13)

    def test_fixed_charge_d4_is_a_product_of_d1_traces(self):
        # with fixed charges the trace factorizes, so D = 4 needs no box sum
        for sigma in (0.05, 1.0, 20.0):
            z1 = return_probability(ordinary_spec(0.5, dim=1), sigma)
            z4 = return_probability(ordinary_spec(0.5, dim=4), sigma)
            assert math.isclose(z4, z1 ** 4, rel_tol=1e-13)
            alphas = (0.3, 0.5, 0.5, 0.9)
            anisotropic = DiffusionSpec(
                model="ordinary", dim=4, scales=GeometryScales(), charges=FractionalCharges(alphas)
            )
            per_charge = math.prod(return_probability(ordinary_spec(a, dim=1), sigma) for a in alphas)
            assert math.isclose(return_probability(anisotropic, sigma), per_charge, rel_tol=1e-13)

    def test_d3_trace_memory(self):
        spec = ordinary_spec(0.5, dim=3)
        tracemalloc.start()
        try:
            return_probability(spec, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20


class TestCurveBatch:
    """heat_kernel_curve takes every sigma's trace from one per-axis integral
    per distinct charge, in blocks of sigmas (fixed charges and a
    one-dimensional multiscale space), or from one blocked quadrature (a
    multiscale space at D >= 2)."""

    SPECS = {
        "frac-d1": ordinary_spec(0.8, dim=1),
        "frac-d2": DiffusionSpec(
            model="ordinary", dim=2, scales=GeometryScales(),
            charges=FractionalCharges((0.3, 0.9)),
        ),
        "frac-d3": DiffusionSpec(
            model="ordinary", dim=3, scales=GeometryScales(),
            charges=FractionalCharges((0.25, 0.6, 0.6)),
        ),
        "binomial-d1": multiscale_space_spec(0.7, dim=1),
        "binomial-d1-beta-star": DiffusionSpec(
            model="ordinary", dim=1, scales=GeometryScales(lstar=0.5),
            charges=FractionalCharges((0.3,)), beta_star=0.5, multiscale_space=True,
        ),
        "binomial-d2": multiscale_space_spec(0.35, dim=2, lstar=2.0),
    }

    @pytest.mark.parametrize("chunk", ["one-case", "default"])
    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_curve_equals_scalar_calls(self, name, chunk, monkeypatch):
        spec = self.SPECS[name]
        grid = np.geomspace(1e-2, 1e2, 9)
        scalar = [return_probability(spec, s) for s in grid]
        if chunk == "one-case":
            monkeypatch.setattr(kernel_mod, "_PHI_CHUNK", 1)
            monkeypatch.setattr(kernel_mod, "_SIGMA_BLOCK", 1)
        curve = heat_kernel_curve(spec, grid)
        assert curve.Z.tolist() == scalar

    EMPTY_GRID_SPECS = {
        "ordinary-fixed": ordinary_spec(0.5, dim=2),
        "ordinary-multiscale-d1": multiscale_space_spec(0.5, dim=1),
        "ordinary-multiscale-d2": multiscale_space_spec(0.5, dim=2),
        "weighted": fractional_spec(beta=0.5, dim=2),
        "q": q_spec(0.5, 0.5, dim=2, multiscale=True),
        "legacy": DiffusionSpec(
            model="legacy", dim=2, scales=GeometryScales(), charges=FractionalCharges.isotropic(0.5, 2)
        ),
    }

    @pytest.mark.parametrize("name", sorted(EMPTY_GRID_SPECS))
    def test_empty_grid_is_refused_before_any_work(self, name, monkeypatch):
        # a multiscale space raised an untyped ValueError from its sums
        def no_dispersion(*args):
            raise AssertionError("an empty grid reached the trace")

        monkeypatch.setattr(kernel_mod, "dispersion", no_dispersion)
        with pytest.raises(GridError, match=r"^sigma grid needs at least 2 points, got 0$"):
            heat_kernel_curve(self.EMPTY_GRID_SPECS[name], [])

    def test_refusal_names_first_failing_sigma(self, monkeypatch):
        # both rules check each sigma.  The binomial box rule's coarse/fine
        # gaps on binomial-d2 are 1.1e-13 at the first sigma and 5.9e-13 at
        # the second; the per-axis integral's at order 4 on binomial-d1 are
        # 4.6e-7 and 7.9e-7, and its product's at order 3 on frac-d2 2.4e-5
        # and 4.4e-5
        cases = {
            "binomial-d2": (np.geomspace(10 ** -1.5, 1e2, 8), {"_GL_RTOL": 3e-13}),
            "binomial-d1": (np.geomspace(1e-2, 1e2, 9), {"_GL_ORDER": 4, "_GL_RTOL": 6e-7}),
            "frac-d2": (np.geomspace(1e-2, 1e2, 9), {"_GL_ORDER": 3, "_GL_RTOL": 3e-5}),
        }
        for name, (grid, patches) in cases.items():
            spec = self.SPECS[name]
            with monkeypatch.context() as patch:
                for constant, value in patches.items():
                    patch.setattr(kernel_mod, constant, value)
                messages = []
                for s in grid:
                    try:
                        return_probability(spec, s)
                    except ConvergenceError as exc:
                        messages.append(str(exc))
                # the first sigma passes, so the refusal must come from later in the grid
                assert messages and f"at sigma = {grid[0]}" not in messages[0], name
                with pytest.raises(ConvergenceError) as refused:
                    heat_kernel_curve(spec, grid)
                assert str(refused.value) == messages[0], name

    def test_table_refuses_a_coarse_fine_gap(self, monkeypatch):
        # with fixed charges the per-axis integral checks its order-24 sum
        # against its order-40 sum at each sigma; an order-3 rule misses by
        # far more than the default tolerance, already at the first sigma
        monkeypatch.setattr(kernel_mod, "_GL_ORDER", 3)
        with pytest.raises(ConvergenceError, match=r"^trace quadrature not converged: .* at sigma = 0\.01$"):
            heat_kernel_curve(self.SPECS["frac-d2"], np.geomspace(1e-2, 1e2, 9))

    def test_kummer_calls_do_not_grow_with_the_grid(self, monkeypatch):
        # one Phi table per distinct charge and call (fixed charges, and a
        # one-dimensional multiscale space with or without beta*): the Kummer
        # calls do not depend on the grid, and a second call makes them again
        calls = []
        engine = specfun_mod._kummer_phi_array

        def counted(a, b, z):
            calls.append(a)
            return engine(a, b, z)

        monkeypatch.setattr(kernel_mod, "_kummer_phi_array", counted)
        monkeypatch.setattr(specfun_mod, "_kummer_phi_array", counted)
        for name in ("frac-d3", "binomial-d1", "binomial-d1-beta-star"):  # frac-d3: charges 0.25, 0.6, 0.6
            counts = []
            for points in (5, 500, 500):
                calls.clear()
                heat_kernel_curve(self.SPECS[name], np.geomspace(1e-2, 1e2, points))
                counts.append(len(calls))
            assert 0 < counts[0] == counts[1] == counts[2] <= (2 * 2 if name == "frac-d3" else 1), name

    def test_one_axis_integral_call_per_charge(self, monkeypatch):
        # the per-axis route takes the whole grid in one call per distinct
        # charge, with one shared lam for fixed charges and one lam per
        # sigma in a multiscale space
        calls = []
        integral = kernel_mod._axis_integral

        def counted(alpha, p, lam, uppers):
            calls.append((alpha, lam.size, uppers.size))
            return integral(alpha, p, lam, uppers)

        monkeypatch.setattr(kernel_mod, "_axis_integral", counted)
        for name, want in (("frac-d3", [(0.25, 1), (0.6, 1)]), ("binomial-d1", [(0.7, 300)])):
            calls.clear()
            heat_kernel_curve(self.SPECS[name], np.geomspace(1e-2, 1e2, 300))
            assert calls == [(alpha, size, 300) for alpha, size in want], name

    def test_long_curve_memory(self):
        # sigmas are taken block by block, and the grid is held as arrays,
        # not per-sigma Python objects, so the memory held stays flat in the
        # grid, with fixed charges or in a multiscale space
        for size in (2000, 20000):
            for spec in (ordinary_spec(0.6, dim=1), multiscale_space_spec(0.6, dim=1)):
                tracemalloc.start()
                try:
                    curve = heat_kernel_curve(spec, np.geomspace(1e-2, 1e2, size))
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert curve.Z.size == size
                assert peak < 4 * 2 ** 20, (size, spec)


class TestTraceRange:
    """An ordinary trace whose U = L/(2 ell), product over the axes or Z
    leaves the double range is refused at the first such sigma, with no
    RuntimeWarning (the suite makes one an error).  Each case wrote inf or
    nan rows and exited 0, or returned 0."""

    CLI_CASES = {
        # U = 5e150 on each of three axes: the product overflows
        "product-d3": (
            ["--dim", "3", "--alpha", "0.5", "--sigma-min", "1e-300", "--sigma-max", "1e-290"],
            "Z = inf (product inf) at sigma = 1e-300",
        ),
        # U = 5e302 on each of two axes; Z is about 2.5e305, but not from this product
        "product-d2-box": (
            ["--dim", "2", "--alpha", "0.5", "--box", "1e300"], "Z = inf (product inf) at sigma = 1e-06"
        ),
        # L/(2 ell) overflows, and its tail panel count was an invalid cast
        "upper-multiscale-d1": (
            ["--dim", "1", "--alpha", "0.5", "--multiscale-space", "--box", "1.7e308",
             "--sigma-min", "1e-6", "--sigma-max", "1e-5"],
            "U = L/(2 ell) = inf at sigma = 1e-06",
        ),
    }

    @pytest.mark.parametrize("case", sorted(CLI_CASES))
    def test_kernel_is_refused(self, case, tmp_path, capsys):
        argv, where = self.CLI_CASES[case]
        assert _kernel_rows(tmp_path, case, [*argv, "--sigma-points", "4"])[0] == EXIT_NUMERIC
        assert capsys.readouterr().err == f"numeric error: trace leaves the double range: {where}\n"
        assert list(tmp_path.iterdir()) == []

    def test_box_volume_past_the_double_range(self):
        # vol_H = 2L + 2L^alpha/Gamma(alpha + 1) overflows at L = 1.7e308, and Z was 0.0
        with pytest.raises(
            ConvergenceError, match=r"^trace leaves the double range: Z = 0\.0 \(product 9\.\d+e\+307\) at sigma = 1\.0$"
        ):
            return_probability(multiscale_space_spec(0.5, dim=1), 1.0, 1.7e308)


def _mp_phi(alpha, xs, ell2):
    """Phi[(1-alpha)/2; 1/2; -x^2/(4 ell^2)] at each x, from mpmath at 20 digits."""
    with mp.workdps(20):
        a = (1 - mp.mpf(alpha)) / 2
        return np.array([float(mp.hyp1f1(a, 0.5, -mp.mpf(x) ** 2 / (4 * ell2))) for x in xs])


def trace_d1_mpquad(alpha, sigma, multiscale, lstar=1.0, ell2=None, box=None):
    """mpmath.quad of the one-dimensional ordinary-model trace per Hausdorff box volume.

    ell^2 is ``ell2`` if given, else sigma (beta = nu = kappa = 1); the box
    half-width is ``box`` if given, else max(12 ell, 10 lstar).  Fixed
    charge: v = |x|^(alpha-1)/Gamma(alpha); binomial profile:
    v = 1 + lstar^(1-alpha) |x|^(alpha-1)/Gamma(alpha).  The fractional part
    is integrated in u = x^alpha, with breaks at a few diffusion lengths.
    """
    with mp.workdps(20):
        a = mp.mpf(alpha)
        ell2 = mp.mpf(sigma if ell2 is None else ell2)
        ell = mp.sqrt(ell2)
        box = max(12 * ell, 10 * mp.mpf(lstar)) if box is None else mp.mpf(box)
        kummer = mp.gamma(a / 2) / mp.gamma(a) * (2 * ell) ** a
        breaks = [ell * k for k in (1, 2, 4, 8, 16) if ell * k < box]
        if multiscale:
            gauss = mp.sqrt(4 * mp.pi * ell2)
            frac = lstar * (2 * ell / lstar) ** a * mp.gamma(a / 2) / mp.gamma(a)

            def c(x):
                return 1 / (gauss + frac * mp.hyp1f1((1 - a) / 2, 0.5, -x * x / (4 * ell2)))

            gfrac, const = lstar ** (1 - a), mp.quad(c, [0, *breaks, box])
            volume = 2 * box + gfrac * 2 * box ** a / mp.gamma(a + 1)
        else:

            def c(x):
                return 1 / (kummer * mp.hyp1f1((1 - a) / 2, 0.5, -x * x / (4 * ell2)))

            gfrac, const = 1, 0
            volume = 2 * box ** a / mp.gamma(a + 1)
        pts = [0, *(b ** a for b in breaks), box ** a]
        fractional = mp.quad(lambda u: c(u ** (1 / a)), pts) / a / mp.gamma(a)
        return float(2 * (const + gfrac * fractional) / volume)


def _geometric_half_axis(upper, ell, alpha):
    """Composite 16-node Gauss rule on [0, upper], panels growing 2.5-fold from
    ell/64; in u = x^alpha when alpha is set (weights then carry 1/alpha)."""
    edges = [0.0]
    edge = ell / 64.0
    while edge < upper:
        edges.append(edge)
        edge *= 2.5
    edges = np.array(edges + [upper])
    if alpha is not None:
        edges = edges ** alpha
    nodes, weights = np.polynomial.legendre.leggauss(16)
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    u, w = (mid + half * nodes).ravel(), (half * weights).ravel()
    return (u, w) if alpha is None else (u ** (1.0 / alpha), w / alpha)


def trace_binomial_tensor(dim, alpha, sigma, lstar=1.0):
    """Binomial-profile trace per Hausdorff box volume by a tensor-product rule.

    Each axis takes the geometric-panel rule above, for the constant and the
    fractional measure term, with Kummer values from mpmath; all 2^D term
    combinations are summed over the positive orthant and doubled per axis.
    """
    ell2 = sigma
    ell = math.sqrt(ell2)
    box = max(12.0 * ell, 10.0 * lstar)
    gauss = (4.0 * math.pi * ell2) ** (dim / 2.0)
    coeff = lstar ** dim * (
        math.gamma(alpha / 2.0) / math.gamma(alpha) * (2.0 * ell / lstar) ** alpha
    ) ** dim
    terms = []
    for frac in (False, True):
        x, w = _geometric_half_axis(box, ell, alpha if frac else None)
        if frac:
            w = w * lstar ** (1.0 - alpha) / math.gamma(alpha)
        terms.append((_mp_phi(alpha, x, ell2), w))
    total = 0.0
    for combo in itertools.product(terms, repeat=dim):
        rest_phi, rest_w = np.ones(1), np.ones(1)
        for phi, w in combo[1:]:
            rest_phi = np.multiply.outer(rest_phi, phi).ravel()
            rest_w = np.multiply.outer(rest_w, w).ravel()
        first_phi, first_w = combo[0]
        for i in range(0, first_phi.size, 16):
            cells = gauss + coeff * np.multiply.outer(first_phi[i : i + 16], rest_phi)
            total += float(first_w[i : i + 16] @ ((1.0 / cells) @ rest_w))
    per_axis = 2.0 * box + lstar ** (1.0 - alpha) * 2.0 * box ** alpha / math.gamma(alpha + 1.0)
    return 2 ** dim * total / per_axis ** dim


class TestTraceAccuracySweep:
    """Ordinary-model traces against independent oracles at 1e-10, seeded sweep.

    Fixed charges in [1e-3, 0.95], from the smallest the trace admits, and
    binomial-profile charges in [0.2, 0.95]; sigma in [1e-2, 1e2].  Fixed
    charges (one per axis, drawn separately) factorize, so the
    D-dimensional oracle is the product of one-dimensional mpmath
    quadratures; a binomial spatial profile takes mpmath.quad at D = 1 and
    the tensor-product rule above at D = 2 and 3.  A one-dimensional
    multiscale space is also swept densely at 1e-12: charges log-uniform from
    the floor to 0.95, sigma in [1e-6, 1e3], with and without beta* and in a
    fixed box.
    """

    CASES = {(1, False): 6, (2, False): 4, (3, False): 3, (1, True): 5, (2, True): 4, (3, True): 2}

    @pytest.mark.parametrize(
        "dim,multiscale", sorted(CASES),
        ids=[f"d{d}-{'binomial' if m else 'frac'}" for d, m in sorted(CASES)],
    )
    def test_sweep(self, dim, multiscale):
        rng = np.random.default_rng(1000 * dim + multiscale)
        for _ in range(self.CASES[dim, multiscale]):
            sigma = float(10.0 ** rng.uniform(-2.0, 2.0))
            if multiscale:
                alpha = float(rng.uniform(0.2, 0.95))
                spec = multiscale_space_spec(alpha, dim)
                want = (
                    trace_d1_mpquad(alpha, sigma, True) if dim == 1
                    else trace_binomial_tensor(dim, alpha, sigma)
                )
            else:
                alphas = rng.uniform(kernel_mod._G_ALPHA_MIN, 0.95, dim).tolist()
                spec = DiffusionSpec(
                    model="ordinary", dim=dim, scales=GeometryScales(),
                    charges=FractionalCharges(tuple(alphas)),
                )
                want = math.prod(trace_d1_mpquad(a, sigma, False) for a in alphas)
            got = return_probability(spec, sigma)
            assert abs(got / want - 1.0) < 1e-10, (spec, sigma, got, want)

    # beta*, lstar, the largest charge drawn and the box: the default, a
    # fixed half-width, or 13 ell.  In the narrow box U = 6.5, and with
    # lstar/ell large the e^(-u^2) term of Phi moves small charges by 1e-11
    MULTISCALE_D1 = {
        "none": (None, 1.0, 0.95, None),
        "beta-star-0.5": (0.5, 1.0, 0.95, None),
        "beta-star-1.5": (1.5, 1.0, 0.95, None),
        "fixed-box": (None, 1.0, 0.95, ("fixed", 60.0)),
        "narrow-box": (None, 1e4, 0.01, ("ell", 13.0)),
    }

    @pytest.mark.parametrize("case", sorted(MULTISCALE_D1))
    def test_multiscale_d1_dense(self, case):
        # the per-axis integral of a one-dimensional multiscale space at
        # 1e-12, from the charge floor up and over the sigma range where the
        # binomial box rule was 1e-10 off or refused
        beta_star, lstar, top, box = self.MULTISCALE_D1[case]
        rng = np.random.default_rng(sorted(self.MULTISCALE_D1).index(case) + 36)
        for _ in range(2 if box else 3):
            alpha = math.exp(rng.uniform(math.log(kernel_mod._G_ALPHA_MIN), math.log(top)))
            sigma = float(10.0 ** rng.uniform(-6.0, 3.0))
            spec = DiffusionSpec(
                model="ordinary", dim=1, scales=GeometryScales(lstar=lstar),
                charges=FractionalCharges((alpha,)), beta_star=beta_star, multiscale_space=True,
            )
            halfwidth = None
            if box and box[0] == "fixed":  # wide enough for 12 ell
                sigma, halfwidth = min(sigma, (box[1] / 12.0) ** 2), box[1]
            ell2 = dispersion(spec, sigma)
            if box and box[0] == "ell":
                halfwidth = box[1] * math.sqrt(ell2)
            want = trace_d1_mpquad(alpha, sigma, True, lstar=lstar, ell2=ell2, box=halfwidth)
            got = return_probability(spec, sigma, halfwidth)
            assert abs(got / want - 1.0) < 1e-12, (spec, sigma, got, want)

    def test_multiscale_d1_huge_box(self):
        # u^2 overflows past u = 1e154 without a warning, and in a box that
        # wide the constant part of the measure leaves the Gaussian trace
        spec = multiscale_space_spec(0.5, dim=1)
        for sigma in (1e-6, 1.0, 1e3):
            z = return_probability(spec, sigma, 1e300)
            assert abs(z * math.sqrt(4.0 * math.pi * sigma) - 1.0) < 1e-12, sigma


def g_alpha_mpquad(alpha, uppers):
    """G_alpha(U) = 1/Gamma(alpha/2) int_0^U u^(alpha-1)/Phi((1-alpha)/2; 1/2; -u^2) du
    at each U >= 1 of an increasing list, by mpmath.quad and mpmath.hyp1f1 at
    30 digits: on [0, 1] as 1/alpha plus the integral of u^(alpha-1)(1/Phi - 1),
    which is O(u^(alpha+1)) at 0, then panels ending at 2, 3, sqrt(30) and
    every decade."""
    with mp.workdps(30):
        a = mp.mpf(alpha)

        def inv_phi(u):
            return 1 / mp.hyp1f1((1 - a) / 2, mp.mpf(1) / 2, -u * u)

        total = 1 / a + mp.quad(lambda u: u ** (a - 1) * (inv_phi(u) - 1), [0, 0.5, 1])
        breaks = [2, 3, mp.sqrt(30), *(mp.mpf(10) ** k for k in range(1, 9))]
        values, lower = [], mp.mpf(1)
        for upper in map(mp.mpf, uppers):
            total += mp.quad(
                lambda u: u ** (a - 1) * inv_phi(u), [lower, *(b for b in breaks if lower < b < upper), upper]
            )
            values.append(total / mp.gamma(a / 2))
            lower = upper
        return values


class TestChargeTable:
    """G_alpha, one axis of the fixed-charge trace: the per-axis integral at
    p = 0, whose lam cancels, at every U = L/(2 ell) >= 6 the box admits."""

    @pytest.mark.parametrize("alpha", [1e-3, 0.002, 0.02, 0.2, 0.5, 0.95, 1.0])
    def test_matches_mpmath(self, alpha):
        uppers = [6.0, 7.5, 40.0, 1e4, 1e8]
        _, g_alpha = kernel_mod._axis_integral(alpha, 0.0, np.ones(1), np.array(uppers))
        for upper, got, want in zip(uppers, g_alpha.tolist(), g_alpha_mpquad(alpha, uppers)):
            assert abs(got / want - 1) < 1e-12, (alpha, upper)

    def test_charge_below_the_floor_is_refused(self):
        spec = DiffusionSpec(
            model="ordinary", dim=2, scales=GeometryScales(), charges=FractionalCharges((0.5, 9e-4))
        )
        with pytest.raises(DomainError, match=r"with fixed charges needs alpha >= 0\.001, got alpha = 0\.0009$"):
            heat_kernel_curve(spec, [1.0])
        # at the floor the trace runs
        return_probability(ordinary_spec(kernel_mod._G_ALPHA_MIN, dim=2), 1.0)
        # the per-axis integral of a one-dimensional multiscale space has the same floor
        with pytest.raises(DomainError, match=r"in a multiscale space needs alpha >= 0\.001, got alpha = 0\.0009$"):
            heat_kernel_curve(multiscale_space_spec(9e-4, dim=1), [1.0])
        return_probability(multiscale_space_spec(kernel_mod._G_ALPHA_MIN, dim=1), 1.0)


def _kernel_rows(tmp_path, name, argv):
    """Exit code and (sigma, Z) rows of one ``kernel`` run."""
    out = tmp_path / f"{name}.csv"
    code = main(["kernel", "--model", "ordinary", *argv, "--out", str(out)])
    if code != EXIT_OK:
        return code, []
    lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    return code, [(float(sigma), float(z)) for sigma, z, _ in (line.split(",") for line in lines[1:])]


class TestSmallCharges:
    """At alpha = 0.02 every ordinary trace on the default grid, 1e-6 to 1e6,
    exited 3 at sigma = 1e-6 or 5.3e-6 with "trace quadrature not
    converged".  With fixed charges and in a one-dimensional multiscale
    space the per-axis integral takes them; the binomial box rule of a
    multiscale space at D = 2 still refuses them."""

    def test_fixed_charges_run_at_every_dimension(self, tmp_path):
        curves = {}
        for dim in (1, 2, 3):
            code, curves[dim] = _kernel_rows(tmp_path, f"d{dim}", ["--dim", str(dim), "--alpha", "0.02"])
            assert code == EXIT_OK
        for i in (0, 1, 100, 199):
            sigma = curves[1][i][0]
            z1 = trace_d1_mpquad(0.02, sigma, False)
            for dim in (1, 2, 3):
                assert curves[dim][i][0] == sigma
                assert abs(curves[dim][i][1] / z1 ** dim - 1.0) < 1e-10, (dim, sigma)

    def test_multiscale_space_runs_at_d1(self, tmp_path):
        code, rows = _kernel_rows(tmp_path, "ms-d1", ["--dim", "1", "--alpha", "0.02", "--multiscale-space"])
        assert code == EXIT_OK
        for i in (0, 199):
            sigma, z = rows[i]
            assert abs(z / trace_d1_mpquad(0.02, sigma, True) - 1.0) < 1e-12, sigma

    @pytest.mark.parametrize("dim", [2])
    def test_multiscale_space_is_still_refused(self, dim, tmp_path, capsys):
        argv = ["--dim", str(dim), "--alpha", "0.02", "--multiscale-space"]
        assert _kernel_rows(tmp_path, "ms", argv)[0] == EXIT_NUMERIC
        assert "trace quadrature not converged" in capsys.readouterr().err
