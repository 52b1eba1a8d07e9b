import math

import numpy as np
import pytest

from conftest import binomial_spec, fractional_spec, quad_dispersion_oracle
from multiflow.dispersion import (
    MODELS,
    DiffusionSpec,
    DispersionCurve,
    binomial_time_integral,
    dispersion,
    dispersion_quadrature,
    sample_dispersion,
    time_weight,
)
from multiflow.errors import DomainError, ExponentDomainError, GridError
from multiflow.grid import check_grid
from multiflow.measure import FractionalCharges, GeometryScales

BETA_STARS = (0.25, 0.5, 0.75, 1.25, 1.5, 1.75)


class TestFractional:
    def test_brownian_reduction(self, rng):
        spec = fractional_spec(beta=1.0, nu=1.0, kappa=1.0)
        for s in rng.uniform(0.01, 100.0, 20):
            assert math.isclose(dispersion(spec, float(s)), float(s), rel_tol=1e-14)

    def test_frozen_subfractional_value(self):
        # quadrature oracle of kappa Gamma(beta) int_0^1 s^(nu-beta) ds = 2 sqrt(pi)/3
        spec = fractional_spec(beta=0.5, nu=1.0, kappa=1.0)
        assert math.isclose(
            dispersion(spec, 1.0), 1.1816359006036773515, rel_tol=1e-14
        )

    def test_subfractional_matches_quadrature(self):
        spec = fractional_spec(beta=0.5, nu=1.0, kappa=1.0)
        got = dispersion_quadrature(
            time_weight(spec), 1.0, 1.0, 1.0, 0.0, min_charge=0.5
        )
        assert math.isclose(got, dispersion(spec, 1.0), rel_tol=1e-8)

    def test_exponent_domain_error(self):
        spec = fractional_spec(beta=2.0, nu=1.0)
        with pytest.raises(ExponentDomainError):
            dispersion(spec, 1.0)


class TestMultiscaleWeighted:
    def test_regular_charge_ultraviolet_is_brownian(self):
        spec = binomial_spec(1.5, kappa=0.7)
        s = 1e-7
        assert math.isclose(dispersion(spec, s), 0.7 * s, rel_tol=1e-3)

    def test_regular_charge_infrared_asymptote(self):
        # kappa*sigma/(2-beta*) * (sigma/lstar)^(1-beta*) = 2 kappa sigma sqrt(lstar/sigma)
        spec = binomial_spec(1.5, kappa=0.7)
        s = 1e8
        expected = 2.0 * 0.7 * s * math.sqrt(1.0 / s)
        assert math.isclose(dispersion(spec, s), expected, rel_tol=1e-3)

    def test_singular_charge_crossover_vs_quadrature(self):
        spec = binomial_spec(0.5, kappa=1.0)
        got = dispersion(spec, 1.0)
        assert math.isclose(got, quad_dispersion_oracle(0.5, 1.0, 1.0, 1.0), rel_tol=1e-10)

    @pytest.mark.parametrize("beta_star", BETA_STARS)
    def test_oracle_equivalence_grid(self, beta_star):
        # closed form vs adaptive quadrature at 1e-7 over sigma/lstar in [1e-3, 1e3]
        lstar, kappa = 1.3, 0.8
        spec = binomial_spec(beta_star, lstar=lstar, kappa=kappa)
        for s in np.geomspace(1e-3 * lstar, 1e3 * lstar, 50):
            closed = dispersion(spec, float(s))
            oracle = quad_dispersion_oracle(beta_star, lstar, kappa, float(s))
            assert abs(closed - oracle) <= 1e-7 * oracle

    def test_removable_pole_continuity(self):
        # continuity in beta* across 1.5 = 1 + 1/2 at fixed sigma
        lstar = 1.0
        for sigma in (0.05, 5.0, 4e3):
            center = binomial_time_integral(1.5, lstar, sigma)
            for eps in (-1e-6, 1e-6):
                near = binomial_time_integral(1.5 + eps, lstar, sigma)
                assert math.isclose(near, center, rel_tol=1e-4)
                # each value individually agrees with its own quadrature
                assert math.isclose(
                    near, quad_dispersion_oracle(1.5 + eps, lstar, 1.0, sigma), rel_tol=1e-7
                )

    def test_monotone_increasing(self):
        for beta_star in BETA_STARS:
            spec = binomial_spec(beta_star)
            grid = np.geomspace(1e-4, 1e4, 120)
            vals = [dispersion(spec, float(s)) for s in grid]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_initial_condition_pointlike(self):
        for beta_star in (0.5, 1.5):
            spec = binomial_spec(beta_star)
            assert dispersion(spec, 0.0) == 0.0
            assert dispersion(spec, 1e-12) < 1e-9

    def test_initial_condition_fuzzy(self):
        spec = binomial_spec(0.5, fuzzy=True, lstar=2.0)
        assert math.isclose(dispersion(spec, 0.0), 4.0, rel_tol=1e-12)
        assert math.isclose(dispersion(spec, 1e-10), 4.0, rel_tol=1e-6)

    @pytest.mark.parametrize("lstar", [0.5, 2.0, 3.0])
    @pytest.mark.parametrize("beta_star", [0.25, 0.5, 0.75, 1.25, 1.5])
    def test_one_lstar_per_spec(self, beta_star, lstar):
        # the spec holds (beta*, lstar) as given: an lstar inverted from the
        # profile coefficient lstar^(1 - beta*) is off by ulps for most
        # lstar != 1, enough to move the dispersion at some of these sigmas
        spec = binomial_spec(beta_star, lstar=lstar, kappa=1.3)
        grid = np.geomspace(1e-3, 1e3, 61)
        expected = 1.3 * binomial_time_integral(beta_star, lstar, grid)
        assert dispersion(spec, grid).tolist() == expected.tolist()

    @pytest.mark.parametrize("offset", [1e-4, -1e-4, 1e-6, -1e-6, 1e-9, -1e-9, 1e-12, -1e-12])
    def test_near_unit_charge_matches_quadrature(self, offset):
        # beta* next to 1 is inside the domain: the panel rule is held to the
        # adaptive quadrature there, on both sides
        beta_star = 1.0 + offset
        for sigma in (1e-3, 1.0, 1e3):
            got = binomial_time_integral(beta_star, 1.0, sigma)
            oracle = quad_dispersion_oracle(beta_star, 1.0, 1.0, sigma)
            assert math.isclose(got, oracle, rel_tol=1e-7), (beta_star, sigma, got, oracle)

    def test_requires_nu_one(self):
        spec = DiffusionSpec(
            model="weighted", dim=4, scales=GeometryScales(nu=0.9, beta=0.5), beta_star=0.5
        )
        with pytest.raises(DomainError):
            dispersion(spec, 1.0)


class TestQDispersion:
    def test_single_unit_term(self, rng):
        # beta = 1: the one term sigma / Gamma(2)
        spec = fractional_spec(beta=1.0, kappa=0.9, model="q")
        for s in rng.uniform(0.01, 10.0, 10):
            assert math.isclose(dispersion(spec, float(s)), 0.9 * float(s))

    def test_binomial_crossover_value(self):
        spec = DiffusionSpec(model="q", dim=4, scales=GeometryScales(lstar=2.0, kappa=1.5), beta_star=0.5)
        # both terms equal at sigma = lstar: kappa*lstar*(1 + 1) with the
        # binomial coefficients expressed in absolute units
        got = dispersion(spec, 2.0)
        assert math.isclose(got, 1.5 * 2.0 * 2.0, rel_tol=1e-14)

    def test_binomial_ultraviolet_power(self):
        spec = DiffusionSpec(model="q", dim=4, scales=GeometryScales(), beta_star=0.5)
        s = 1e-6
        got = dispersion(spec, s)
        assert math.isclose(got, s ** 0.5, rel_tol=2e-3)  # second term dominates


class TestQuadrature:
    def test_flat_weight(self):
        assert math.isclose(
            dispersion_quadrature(lambda s: 1.0, 0.7, 1.0, 3.0), 2.1, rel_tol=1e-10
        )

    def test_binomial_regular_matches_closed(self):
        spec = binomial_spec(1.5, kappa=1.0)
        weight = time_weight(spec)
        for s in np.geomspace(1e-3, 1e3, 25):
            got = dispersion_quadrature(weight, 1.0, 1.0, float(s), 0.0, min_charge=1.0)
            closed = dispersion(spec, float(s))
            assert abs(got - closed) <= 1e-7 * closed

    def test_non_integrable_singularity(self):
        # weight ~ s^(c-1) with c = 2 and nu = 0: integrand s^(-2) diverges
        with pytest.raises(DomainError):
            dispersion_quadrature(lambda s: s, 1.0, 0.0, 1.0, min_charge=2.0)


class TestSpecAndCurve:
    def test_spec_validation(self):
        with pytest.raises(DomainError):
            DiffusionSpec(model="bogus", dim=4, scales=GeometryScales())
        with pytest.raises(DomainError):
            DiffusionSpec(model="q", dim=4, scales=GeometryScales(), beta_star=1.5)
        with pytest.raises(DomainError):
            DiffusionSpec(model="weighted", dim=4, scales=GeometryScales(), fuzzy=True)

    @pytest.mark.parametrize(
        "model,scales,beta_star,match",
        [
            ("legacy", GeometryScales(), 0.5, "legacy model reads no beta_star"),
            ("q", GeometryScales(nu=0.7, beta=0.5), None, "q model reads no nu"),
            ("q", GeometryScales(nu=0.7), 0.5, "q model reads no nu"),
            ("q", GeometryScales(beta=3.0), None, r"must lie in \(0, 2\), got 3.0"),
            ("q", GeometryScales(beta=0.0), None, r"must lie in \(0, 2\), got 0.0"),
            ("q", GeometryScales(lbar=0.5, beta=0.5), None, "lbar is read only at fixed dim"),
            ("q", GeometryScales(lbar=0.5), 0.5, "lbar is read only at fixed dim"),
            ("legacy", GeometryScales(lbar=0.5), None, "lbar is read only at fixed dim"),
            ("weighted", GeometryScales(lbar=0.5), 0.5, "lbar is read only at fixed dim"),
            ("ordinary", GeometryScales(lbar=0.5), 0.5, "lbar is read only at fixed dim"),
        ],
    )
    def test_parameters_the_model_never_reads_are_refused(self, model, scales, beta_star, match):
        with pytest.raises(DomainError, match=match):
            DiffusionSpec(model=model, dim=2, scales=scales, beta_star=beta_star)

    @pytest.mark.parametrize("alphas", [(0.5,), (0.5, 0.7, 0.9)])
    def test_charges_must_match_dim(self, alphas):
        # one charge per direction: the density and the trace read them all
        with pytest.raises(DomainError, match="charges for dim = 2"):
            DiffusionSpec(
                model="ordinary", dim=2, scales=GeometryScales(), charges=FractionalCharges(alphas)
            )

    def test_no_charges_are_unit_charges(self):
        unit = FractionalCharges.isotropic(1.0, 2)
        for model in MODELS:
            bare = DiffusionSpec(model=model, dim=2, scales=GeometryScales(beta=0.5))
            assert bare.charges == unit
            assert bare == DiffusionSpec(
                model=model, dim=2, scales=GeometryScales(beta=0.5), charges=unit
            )

    def test_multiscale_space_needs_one_charge(self):
        with pytest.raises(DomainError, match="isotropic"):
            DiffusionSpec(
                model="ordinary", dim=2, scales=GeometryScales(),
                charges=FractionalCharges((0.5, 0.7)), multiscale_space=True,
            )
        spec = DiffusionSpec(
            model="ordinary", dim=2, scales=GeometryScales(lstar=2.0),
            charges=FractionalCharges((0.5, 0.5)), multiscale_space=True,
        )
        assert spec.spatial_profile.terms == ((2.0 ** 0.5, 0.5), (1.0, 1.0))

    def test_curve_invariants(self):
        sig = np.array([1.0, 2.0, 3.0])
        with pytest.raises(DomainError):
            DispersionCurve(sigmas=sig, ell2=np.array([1.0, 0.5, 2.0]), method="closed-form")
        with pytest.raises(GridError):
            DispersionCurve(sigmas=sig[::-1], ell2=sig, method="closed-form")
        with pytest.raises(DomainError):
            DispersionCurve(sigmas=sig, ell2=sig, method="bogus")

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_grid_rejects_non_finite_sigma(self, bad):
        with pytest.raises(GridError):
            check_grid(np.array([1.0, 2.0, bad]))

    def test_sampling_methods_agree(self):
        spec = binomial_spec(0.5)
        grid = np.geomspace(0.01, 100.0, 20)
        closed = sample_dispersion(spec, grid, "closed-form")
        quad = sample_dispersion(spec, grid, "quadrature")
        assert np.allclose(closed.ell2, quad.ell2, rtol=1e-7)

    def test_sampling_q_quadrature(self):
        spec = DiffusionSpec(model="q", dim=4, scales=GeometryScales(beta=0.5), beta_star=0.5)
        grid = np.geomspace(0.01, 100.0, 10)
        closed = sample_dispersion(spec, grid, "closed-form")
        quad = sample_dispersion(spec, grid, "quadrature")
        assert np.allclose(closed.ell2, quad.ell2, rtol=1e-7)

    @pytest.mark.parametrize("case", ["fixed-lbar", "legacy", "q", "multiscale", "fuzzy"])
    def test_quadrature_integrates_each_models_own_law(self, case):
        # the oracle integrates the model's own law from its own initial
        # width: lbar^2 at fixed dimensionality, kappa alone for the legacy
        # ansatz whatever beta is
        spec = {
            "fixed-lbar": DiffusionSpec(
                model="weighted", dim=2, scales=GeometryScales(lbar=0.5, kappa=1.3, beta=0.5)
            ),
            "legacy": DiffusionSpec(model="legacy", dim=2, scales=GeometryScales(kappa=1.3, beta=0.5)),
            "q": DiffusionSpec(model="q", dim=2, scales=GeometryScales(kappa=1.3), beta_star=0.5),
            "multiscale": binomial_spec(1.5, dim=2, lstar=0.8, kappa=1.3),
            "fuzzy": binomial_spec(0.5, dim=2, lstar=0.8, kappa=1.3, fuzzy=True),
        }[case]
        grid = np.geomspace(1e-3, 1e3, 13)
        closed = sample_dispersion(spec, grid, "closed-form").ell2
        quad = sample_dispersion(spec, grid, "quadrature").ell2
        assert np.max(np.abs(closed - quad) / closed) < 1e-8

    def test_dispersion_dispatcher_legacy(self):
        spec = DiffusionSpec(model="legacy", dim=4, scales=GeometryScales(kappa=2.0))
        assert dispersion(spec, 3.0) == 6.0
