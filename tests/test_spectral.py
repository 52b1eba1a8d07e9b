import math

import numpy as np
import pytest

from conftest import binomial_spec, fractional_spec
from multiflow.dispersion import DiffusionSpec, sample_dispersion
from multiflow.errors import DomainError, GridError
from multiflow.measure import (
    DIFFUSION_TIME,
    FractionalCharges,
    GeometryScales,
    MeasureProfile,
)
from multiflow.spectral import (
    LegacyAnsatzWarning,
    density_of_states_exponent,
    dimension_triple,
    fixed_point_ds,
    flow_curve,
    legacy_ds,
    q_flow_asymptotes,
    spectral_from_dispersion,
    spectral_q_flow,
    spectral_weighted_flow,
    walk_dimension,
    weighted_flow_asymptotes,
)

BETA_STARS = (0.25, 0.5, 0.75, 1.25, 1.5, 1.75)


def q_binomial_profile(beta_star=0.5, lstar=1.0):
    return MeasureProfile.binomial(beta_star, lstar, kind=DIFFUSION_TIME)


class TestNumericExtraction:
    def test_brownian_curve_gives_dim(self):
        spec = fractional_spec(beta=1.0, nu=1.0, dim=3)
        grid = np.geomspace(0.01, 100.0, 60)
        curve = sample_dispersion(spec, grid)
        for s in grid[5:-5:7]:
            assert abs(spectral_from_dispersion(curve, 3, float(s)) - 3.0) < 1e-10

    def test_power_law_gives_exponent_times_dim(self):
        spec = fractional_spec(beta=0.5, nu=0.75, dim=4)
        grid = np.geomspace(0.01, 100.0, 60)
        curve = sample_dispersion(spec, grid)
        expected = 4 * (1.0 + 0.75 - 0.5)
        for s in grid[5:-5:7]:
            assert abs(spectral_from_dispersion(curve, 4, float(s)) - expected) < 1e-9

    def test_q_binomial_crossover_value(self):
        spec = DiffusionSpec(model="q", dim=4, scales=GeometryScales(beta=0.5), beta_star=0.5)
        profile = spec.multiscale
        grid = np.geomspace(1e-3, 1e3, 121)  # grid contains sigma = 1 = lstar
        curve = sample_dispersion(spec, grid)
        got = spectral_from_dispersion(curve, 4, 1.0)
        assert abs(got - 4 * (1.0 + 0.5) / 2.0) < 1e-5

    def test_edge_of_grid_error(self):
        spec = fractional_spec(beta=1.0)
        curve = sample_dispersion(spec, np.geomspace(0.1, 10.0, 12))
        with pytest.raises(GridError):
            spectral_from_dispersion(curve, 4, float(curve.sigmas[1]))
        with pytest.raises(GridError):
            spectral_from_dispersion(curve, 4, 0.123456)

    def test_flow_from_curve_trims_edges(self):
        from multiflow.spectral import flow_from_curve

        spec = fractional_spec(beta=0.5, nu=1.0, dim=2)
        curve = sample_dispersion(spec, np.geomspace(0.01, 100.0, 30))
        flow = flow_from_curve(curve, 2)
        assert flow.sigmas.size == 26
        assert np.allclose(flow.ds, 2 * 1.5, atol=1e-9)


class TestWeightedFlow:
    def test_regular_charge_ultraviolet(self):
        spec = binomial_spec(1.5, dim=4)
        assert abs(spectral_weighted_flow(spec, 1e-6) - 4.0) < 1e-2

    def test_regular_charge_infrared(self):
        spec = binomial_spec(1.5, dim=4)
        assert abs(spectral_weighted_flow(spec, 1e6) - 2.0) < 2e-2

    def test_singular_charge_interchanged_regimes(self):
        spec = binomial_spec(0.5, dim=4)
        assert abs(spectral_weighted_flow(spec, 1e-6) - 6.0) < 1e-2
        assert abs(spectral_weighted_flow(spec, 1e6) - 4.0) < 1e-2

    def test_fuzzy_ultraviolet_vanishes_with_slope(self):
        spec = binomial_spec(0.5, dim=4, fuzzy=True)
        assert spectral_weighted_flow(spec, 1e-6) < 1e-4
        h = 0.05
        lo = spectral_weighted_flow(spec, 1e-6 * math.exp(-h))
        hi = spectral_weighted_flow(spec, 1e-6 * math.exp(h))
        slope = (math.log(hi) - math.log(lo)) / (2.0 * h)
        assert abs(slope - 1.5) < 0.02  # 2 - beta*

    def test_asymptote_table(self):
        assert weighted_flow_asymptotes(binomial_spec(1.5, dim=4)) == (4.0, 2.0)
        assert weighted_flow_asymptotes(binomial_spec(0.5, dim=4)) == (6.0, 4.0)
        assert weighted_flow_asymptotes(binomial_spec(0.5, dim=4, fuzzy=True)) == (0.0, 4.0)

    def test_mirror_interchange(self):
        # swapping beta* -> 2 - beta* exchanges the roles of the two plateaus
        for beta_star in (1.25, 1.5, 1.75):
            uv, ir = weighted_flow_asymptotes(binomial_spec(beta_star, dim=4))
            uv_m, ir_m = weighted_flow_asymptotes(binomial_spec(2.0 - beta_star, dim=4))
            assert math.isclose(uv_m, 2.0 * 4 - ir)
            assert math.isclose(ir_m, uv)

    def test_numeric_matches_closed_flow(self):
        for beta_star in (0.5, 1.5):
            spec = binomial_spec(beta_star, dim=4)
            grid = np.geomspace(1e-2, 1e2, 200)
            curve = sample_dispersion(spec, grid, method="quadrature")
            for s in grid[2:-2:11]:
                numeric = spectral_from_dispersion(curve, 4, float(s))
                closed = spectral_weighted_flow(spec, float(s))
                assert abs(numeric - closed) < 1e-3

    def test_monotone_flow_between_asymptotes(self):
        for beta_star in BETA_STARS:
            spec = binomial_spec(beta_star, dim=4)
            grid = np.geomspace(1e-6, 1e6, 200)
            ds = np.array([spectral_weighted_flow(spec, float(s)) for s in grid])
            diffs = np.diff(ds)
            assert np.all(diffs <= 1e-12) or np.all(diffs >= -1e-12)
            uv, ir = weighted_flow_asymptotes(spec)
            band = 0.05 * abs(uv - ir)
            assert np.all(ds <= max(uv, ir) + band) and np.all(ds >= min(uv, ir) - band)

    def test_flow_curve_convergence_flags(self):
        flow, _ = flow_curve(binomial_spec(0.5, dim=4), np.geomspace(1e-6, 1e6, 25))
        assert flow.uv_asymptote == 6.0 and flow.ir_asymptote == 4.0
        # sqrt(sigma) transient: still drifting by > 1e-3 per decade at 1e-6
        assert not flow.uv_converged
        # the fuzzy flow dies like sigma^(2-beta*): flat to 1e-3 well before 1e-6
        fuzzy, _ = flow_curve(binomial_spec(0.5, dim=4, fuzzy=True), np.geomspace(1e-6, 1e6, 25))
        assert fuzzy.uv_converged and fuzzy.sigmas.size == 25


class TestQFlow:
    def test_single_charge(self):
        profile = MeasureProfile(terms=((1.0, 0.5),), kind=DIFFUSION_TIME)
        assert math.isclose(spectral_q_flow(profile, 4, 3.7), 2.0, rel_tol=1e-14)

    def test_binomial_asymptotes(self):
        profile = q_binomial_profile(0.5)
        assert abs(spectral_q_flow(profile, 4, 1e-8) - 2.0) < 1e-3
        assert abs(spectral_q_flow(profile, 4, 1e8) - 4.0) < 1e-3
        assert q_flow_asymptotes(profile, 4) == (2.0, 4.0)

    def test_crossover_closed_value(self):
        profile = q_binomial_profile(0.5)
        assert abs(spectral_q_flow(profile, 4, 1.0) - 3.0) < 1e-12

    def test_monotone(self):
        profile = q_binomial_profile(0.5)
        grid = np.geomspace(1e-6, 1e6, 200)
        ds = [spectral_q_flow(profile, 4, float(s)) for s in grid]
        assert all(b >= a for a, b in zip(ds, ds[1:]))

    def test_numeric_matches_closed_flow_on_quadrature_curve(self):
        spec = DiffusionSpec(model="q", dim=4, scales=GeometryScales(beta=0.5), beta_star=0.5)
        profile = spec.multiscale
        grid = np.geomspace(1e-2, 1e2, 200)
        curve = sample_dispersion(spec, grid, method="quadrature")
        for s in grid[2:-2:11]:
            numeric = spectral_from_dispersion(curve, 4, float(s))
            assert abs(numeric - spectral_q_flow(profile, 4, float(s))) < 1e-3

    def test_flow_curve(self):
        spec = DiffusionSpec(model="q", dim=4, scales=GeometryScales(beta=0.5), beta_star=0.5)
        flow, _ = flow_curve(spec, np.geomspace(1e-6, 1e6, 30))
        assert flow.uv_asymptote == 2.0 and flow.ir_asymptote == 4.0


class TestFixedPoints:
    def test_weighted_table(self):
        assert fixed_point_ds("weighted", 4, beta=1.0, nu=1.0) == 4.0
        assert fixed_point_ds("weighted", 4, beta=0.5, nu=1.0) == 6.0
        assert fixed_point_ds("ordinary", 3, beta=0.25, nu=1.0) == 3 * 1.75

    def test_named_cases(self):
        dim, alpha0, alpha = 4, 0.3, 0.6
        # beta = time charge
        assert fixed_point_ds("weighted", dim, beta=alpha0, nu=1.0) == dim * (2.0 - alpha0)
        # beta = average charge
        assert fixed_point_ds("weighted", dim, beta=alpha, nu=1.0) == dim * (2.0 - alpha)
        # beta = 1, scaled statistics nu = alpha: recovers D * alpha
        assert math.isclose(fixed_point_ds("weighted", dim, beta=1.0, nu=alpha), dim * alpha)

    def test_identity_with_formula(self, rng):
        for _ in range(100):
            dim = int(rng.integers(1, 7))
            beta = float(rng.uniform(0.1, 1.5))
            nu = float(rng.uniform(0.5, 1.5))
            assert fixed_point_ds("weighted", dim, beta=beta, nu=nu) == dim * (1.0 + nu - beta)
            assert fixed_point_ds("q", dim, beta=beta) == dim * beta

    def test_q_fixed_point_meets_hausdorff(self):
        # charge locked to the average spatial charge: d_S = d_H
        dim, alpha = 4, 0.5
        d_s = fixed_point_ds("q", dim, beta=alpha)
        assert d_s == 2.0 == dim * alpha

    def test_legacy(self):
        with pytest.warns(LegacyAnsatzWarning):
            assert legacy_ds(FractionalCharges.isotropic(1.0, 4)) == 4.0
        with pytest.warns(LegacyAnsatzWarning):
            assert legacy_ds(FractionalCharges.isotropic(0.5, 4)) == 2.0
        with pytest.warns(LegacyAnsatzWarning):
            assert math.isclose(legacy_ds(FractionalCharges.isotropic(0.3, 2)), 0.6)


class TestWalkDimension:
    def test_values(self):
        assert walk_dimension("q", 4, 2.0, 2.0) == 2.0
        assert math.isclose(walk_dimension("weighted", 4, 2.0, 6.0), 4.0 / 3.0)
        assert walk_dimension("ordinary", 4, 4.0, 4.0) == 2.0

    def test_domain_error(self):
        with pytest.raises(DomainError):
            walk_dimension("q", 4, 2.0, 0.0)
        with pytest.raises(DomainError, match="-1.5"):
            walk_dimension("weighted", 4, 2.0, np.array([3.0, -1.5, 0.0]))

    @pytest.mark.parametrize("model,d_h", [("q", 2.7), ("legacy", 1.3), ("weighted", 4.0),
                                           ("ordinary", 3.1)])
    def test_array_equals_float_calls(self, model, d_h):
        # float in, float out; an array gives each element its float call's bits
        d_s = np.random.default_rng(3).uniform(0.1, 8.0, 200)
        got = walk_dimension(model, 4, d_h, d_s)
        assert isinstance(got, np.ndarray)
        scalar = [walk_dimension(model, 4, d_h, d) for d in d_s.tolist()]
        assert all(type(d_w) is float for d_w in scalar)
        numerator = 2.0 * (d_h if model in ("q", "legacy") else 4)
        assert got.tolist() == scalar == [numerator / d for d in d_s.tolist()]

    def test_q_model_scaling_closure(self):
        # d_W = 2 d_H / d_S with d_H = D alpha, d_S = D beta gives 2 alpha/beta
        for alpha, beta in ((0.5, 0.5), (0.8, 0.4), (1.0, 0.7)):
            d_h = 4 * alpha
            d_s = fixed_point_ds("q", 4, beta=beta)
            assert math.isclose(walk_dimension("q", 4, d_h, d_s), 2.0 * alpha / beta)

    def test_triple_invariants(self):
        triple = dimension_triple("q", 4, FractionalCharges.isotropic(0.5, 4), beta=0.5)
        assert math.isclose(triple.d_w, 2.0 * triple.d_h / triple.d_s)
        triple = dimension_triple("weighted", 4, FractionalCharges.isotropic(0.5, 4), beta=0.5)
        assert math.isclose(triple.d_w, 2.0 * 4 / triple.d_s)


class TestDensityOfStates:
    @pytest.mark.parametrize("d_s,expected", [(2.0, 0.0), (3.0, 0.5), (4.0, 1.0)])
    def test_values(self, d_s, expected):
        assert density_of_states_exponent(d_s) == expected
