import math

import numpy as np
import pytest

from conftest import binomial_spec, flow_asymptotes, flow_at, fractional_spec
from multiflow.dispersion import DiffusionSpec, dispersion, dispersion_quadrature
from multiflow.errors import DomainError, GridError
from multiflow.grid import log_slope
from multiflow.measure import FractionalCharges, GeometryScales, hausdorff_dimension
from multiflow.spectral import (
    LegacyAnsatzWarning,
    fixed_point_ds,
    flow_curve,
    walk_dimension,
)

BETA_STARS = (0.25, 0.5, 0.75, 1.25, 1.5, 1.75)


def q_binomial_spec(beta_star=0.5, lstar=1.0):
    return DiffusionSpec(model="q", dim=4, scales=GeometryScales(lstar=lstar), beta_star=beta_star)


class TestNumericExtraction:
    """The numeric d_S of a sampled dispersion: D times its log-log slope."""

    def test_brownian_curve_gives_dim(self):
        spec = fractional_spec(beta=1.0, nu=1.0, dim=3)
        grid = np.geomspace(0.01, 100.0, 60)
        ell2 = dispersion(spec, grid)
        for s in grid[5:-5:7]:
            assert abs(3 * log_slope(grid, ell2, float(s)) - 3.0) < 1e-10

    def test_power_law_gives_exponent_times_dim(self):
        spec = fractional_spec(beta=0.5, nu=0.75, dim=4)
        grid = np.geomspace(0.01, 100.0, 60)
        ell2 = dispersion(spec, grid)
        expected = 4 * (1.0 + 0.75 - 0.5)
        for s in grid[5:-5:7]:
            assert abs(4 * log_slope(grid, ell2, float(s)) - expected) < 1e-9

    def test_q_binomial_crossover_value(self):
        spec = DiffusionSpec(model="q", dim=4, scales=GeometryScales(), beta_star=0.5)
        grid = np.geomspace(1e-3, 1e3, 121)  # grid contains sigma = 1 = lstar
        got = 4 * log_slope(grid, dispersion(spec, grid), 1.0)
        assert abs(got - 4 * (1.0 + 0.5) / 2.0) < 1e-5

    def test_edge_of_grid_error(self):
        spec = fractional_spec(beta=1.0)
        grid = np.geomspace(0.1, 10.0, 12)
        ell2 = dispersion(spec, grid)
        with pytest.raises(GridError):
            log_slope(grid, ell2, float(grid[1]))
        with pytest.raises(GridError):
            log_slope(grid, ell2, 0.123456)


class TestWeightedFlow:
    def test_regular_charge_ultraviolet(self):
        spec = binomial_spec(1.5, dim=4)
        assert abs(flow_at(spec, 1e-6) - 4.0) < 1e-2

    def test_regular_charge_infrared(self):
        spec = binomial_spec(1.5, dim=4)
        assert abs(flow_at(spec, 1e6) - 2.0) < 2e-2

    def test_singular_charge_interchanged_regimes(self):
        spec = binomial_spec(0.5, dim=4)
        assert abs(flow_at(spec, 1e-6) - 6.0) < 1e-2
        assert abs(flow_at(spec, 1e6) - 4.0) < 1e-2

    def test_fuzzy_ultraviolet_vanishes_with_slope(self):
        spec = binomial_spec(0.5, dim=4, fuzzy=True)
        assert flow_at(spec, 1e-6) < 1e-4
        h = 0.05
        lo = flow_at(spec, 1e-6 * math.exp(-h))
        hi = flow_at(spec, 1e-6 * math.exp(h))
        slope = (math.log(hi) - math.log(lo)) / (2.0 * h)
        assert abs(slope - 1.5) < 0.02  # 2 - beta*

    def test_asymptote_table(self):
        assert flow_asymptotes(binomial_spec(1.5, dim=4)) == (4.0, 2.0)
        assert flow_asymptotes(binomial_spec(0.5, dim=4)) == (6.0, 4.0)
        assert flow_asymptotes(binomial_spec(0.5, dim=4, fuzzy=True)) == (0.0, 4.0)

    def test_mirror_interchange(self):
        # swapping beta* -> 2 - beta* exchanges the roles of the two plateaus
        for beta_star in (1.25, 1.5, 1.75):
            uv, ir = flow_asymptotes(binomial_spec(beta_star, dim=4))
            uv_m, ir_m = flow_asymptotes(binomial_spec(2.0 - beta_star, dim=4))
            assert math.isclose(uv_m, 2.0 * 4 - ir)
            assert math.isclose(ir_m, uv)

    def test_numeric_matches_closed_flow(self):
        for beta_star in (0.5, 1.5):
            spec = binomial_spec(beta_star, dim=4)
            grid = np.geomspace(1e-2, 1e2, 200)
            ell2 = dispersion_quadrature(spec, grid)
            for s in grid[2:-2:11]:
                numeric = 4 * log_slope(grid, ell2, float(s))
                closed = flow_at(spec, float(s))
                assert abs(numeric - closed) < 1e-3

    def test_monotone_flow_between_asymptotes(self):
        for beta_star in BETA_STARS:
            spec = binomial_spec(beta_star, dim=4)
            grid = np.geomspace(1e-6, 1e6, 200)
            ds = np.array([flow_at(spec, float(s)) for s in grid])
            diffs = np.diff(ds)
            assert np.all(diffs <= 1e-12) or np.all(diffs >= -1e-12)
            uv, ir = flow_asymptotes(spec)
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
        spec = fractional_spec(beta=0.5, dim=4, model="q")
        assert math.isclose(flow_at(spec, 3.7), 2.0, rel_tol=1e-14)

    def test_binomial_asymptotes(self):
        spec = q_binomial_spec(0.5)
        assert abs(flow_at(spec, 1e-8) - 2.0) < 1e-3
        assert abs(flow_at(spec, 1e8) - 4.0) < 1e-3
        assert flow_asymptotes(spec) == (2.0, 4.0)

    def test_crossover_closed_value(self):
        spec = q_binomial_spec(0.5)
        assert abs(flow_at(spec, 1.0) - 3.0) < 1e-12

    def test_monotone(self):
        spec = q_binomial_spec(0.5)
        grid = np.geomspace(1e-6, 1e6, 200)
        ds = [flow_at(spec, float(s)) for s in grid]
        assert all(b >= a for a, b in zip(ds, ds[1:]))

    def test_numeric_matches_closed_flow_on_quadrature_curve(self):
        spec = DiffusionSpec(model="q", dim=4, scales=GeometryScales(), beta_star=0.5)
        grid = np.geomspace(1e-2, 1e2, 200)
        ell2 = dispersion_quadrature(spec, grid)
        for s in grid[2:-2:11]:
            numeric = 4 * log_slope(grid, ell2, float(s))
            assert abs(numeric - flow_at(spec, float(s))) < 1e-3

    def test_flow_curve(self):
        spec = DiffusionSpec(model="q", dim=4, scales=GeometryScales(), beta_star=0.5)
        flow, _ = flow_curve(spec, np.geomspace(1e-6, 1e6, 30))
        assert flow.uv_asymptote == 2.0 and flow.ir_asymptote == 4.0


# one spec per branch of flow_curve's dispatch
FLOW_SPECS = {
    "weighted": binomial_spec(1.5, dim=4, lstar=0.8, kappa=1.3),
    "weighted-fuzzy": binomial_spec(0.5, dim=4, lstar=0.8, kappa=1.3, fuzzy=True),
    "ordinary": binomial_spec(0.3, dim=3, lstar=0.8, kappa=1.3, model="ordinary", alpha=0.5),
    "q": DiffusionSpec(model="q", dim=4, scales=GeometryScales(lstar=0.8, kappa=1.3), beta_star=0.5),
    "q-single-term": fractional_spec(beta=0.7, dim=4, kappa=1.3, model="q"),
    "fixed-weighted": fractional_spec(beta=0.6, nu=0.8, dim=3, kappa=1.3),
    "legacy": DiffusionSpec(
        model="legacy", dim=3, scales=GeometryScales(kappa=1.3), charges=FractionalCharges((0.5, 0.7, 0.9))
    ),
}


def closed_asymptotes(spec):
    """The (UV, IR) rules: D <-> D(2 - beta*), fuzzy 0 -> D, q D * (min, max)
    charge, and the fixed point of a scale-free model at both ends."""
    dim, beta_star, sc = spec.dim, spec.beta_star, spec.scales
    if spec.model == "q":
        charges = (sc.beta,) if beta_star is None else (beta_star, 1.0)
        return dim * min(charges), dim * max(charges)
    if spec.model == "legacy":
        return sum(spec.charges.alphas), sum(spec.charges.alphas)
    if beta_star is None:
        return dim * (1.0 + sc.nu - sc.beta), dim * (1.0 + sc.nu - sc.beta)
    if spec.fuzzy:
        return 0.0, dim
    return (dim, dim * (2.0 - beta_star)) if beta_star > 1.0 else (dim * (2.0 - beta_star), dim)


@pytest.mark.filterwarnings("ignore::multiflow.spectral.LegacyAnsatzWarning")
@pytest.mark.parametrize("name", sorted(FLOW_SPECS))
class TestFlowCurveContract:
    def test_grid_equals_its_one_sigma_calls(self, name):
        spec = FLOW_SPECS[name]
        grid = np.geomspace(1e-5, 1e5, 41)
        flow, ell2 = flow_curve(spec, grid)
        for i, s in enumerate(grid.tolist()):
            one, one_ell2 = flow_curve(spec, [s])
            assert one.ds.tolist() == [flow.ds[i]] and one_ell2.tolist() == [ell2[i]]
            assert (one.uv_converged, one.ir_converged) == (flow.uv_converged, flow.ir_converged)

    def test_asymptotes_follow_the_closed_rules(self, name):
        spec = FLOW_SPECS[name]
        flow, _ = flow_curve(spec, np.geomspace(1e-3, 1e3, 7))
        assert (flow.uv_asymptote, flow.ir_asymptote) == closed_asymptotes(spec)
        assert flow.model == ("weighted-fuzzy" if spec.fuzzy else spec.model)


class TestFixedPoints:
    def test_weighted_table(self):
        assert fixed_point_ds(fractional_spec(beta=1.0, nu=1.0, dim=4)) == 4.0
        assert fixed_point_ds(fractional_spec(beta=0.5, nu=1.0, dim=4)) == 6.0
        assert fixed_point_ds(fractional_spec(beta=0.25, nu=1.0, dim=3, model="ordinary")) == 3 * 1.75

    def test_named_cases(self):
        dim, alpha0, alpha = 4, 0.3, 0.6
        # beta = time charge
        assert fixed_point_ds(fractional_spec(beta=alpha0, nu=1.0, dim=dim)) == dim * (2.0 - alpha0)
        # beta = average charge
        assert fixed_point_ds(fractional_spec(beta=alpha, nu=1.0, dim=dim)) == dim * (2.0 - alpha)
        # beta = 1, scaled statistics nu = alpha: recovers D * alpha
        assert math.isclose(fixed_point_ds(fractional_spec(beta=1.0, nu=alpha, dim=dim)), dim * alpha)

    def test_identity_with_formula(self, rng):
        for _ in range(100):
            dim = int(rng.integers(1, 7))
            beta = float(rng.uniform(0.1, 1.5))
            nu = float(rng.uniform(0.5, 1.5))
            assert fixed_point_ds(fractional_spec(beta=beta, nu=nu, dim=dim)) == dim * (1.0 + nu - beta)
            assert fixed_point_ds(fractional_spec(beta=beta, dim=dim, model="q")) == dim * beta

    def test_q_fixed_point_meets_hausdorff(self):
        # charge locked to the average spatial charge: d_S = d_H
        dim, alpha = 4, 0.5
        d_s = fixed_point_ds(fractional_spec(beta=alpha, dim=dim, model="q"))
        assert d_s == 2.0 == dim * alpha

    def test_legacy(self):
        with pytest.warns(LegacyAnsatzWarning):
            assert fixed_point_ds(fractional_spec(beta=1.0, dim=4, alpha=1.0, model="legacy")) == 4.0
        with pytest.warns(LegacyAnsatzWarning):
            assert fixed_point_ds(fractional_spec(beta=1.0, dim=4, alpha=0.5, model="legacy")) == 2.0
        with pytest.warns(LegacyAnsatzWarning):
            assert math.isclose(
                fixed_point_ds(fractional_spec(beta=1.0, dim=2, alpha=0.3, model="legacy")), 0.6
            )

    @pytest.mark.parametrize("model", ["weighted", "ordinary", "q"])
    def test_beta_star_has_a_flow_not_a_fixed_point(self, model):
        spec = binomial_spec(0.5, dim=4, model=model)
        with pytest.raises(DomainError, match="flow, not a fixed point"):
            fixed_point_ds(spec)


class TestWalkDimension:
    def test_values(self):
        assert walk_dimension(fractional_spec(beta=1.0, dim=4, alpha=0.5, model="q"), 2.0) == 2.0
        assert math.isclose(walk_dimension(fractional_spec(beta=1.0, dim=4, alpha=0.5), 6.0), 4.0 / 3.0)
        assert walk_dimension(fractional_spec(beta=1.0, dim=4, model="ordinary"), 4.0) == 2.0

    def test_domain_error(self):
        with pytest.raises(DomainError):
            walk_dimension(fractional_spec(beta=1.0, dim=4, alpha=0.5, model="q"), 0.0)
        with pytest.raises(DomainError, match="-1.5"):
            walk_dimension(fractional_spec(beta=1.0, dim=4, alpha=0.5), np.array([3.0, -1.5, 0.0]))

    # ids: the model and its Hausdorff dimension D alpha
    @pytest.mark.parametrize("model,alpha", [("q", 0.675), ("legacy", 0.325), ("weighted", 1.0),
                                             ("ordinary", 0.775)],
                             ids=["q-2.7", "legacy-1.3", "weighted-4.0", "ordinary-3.1"])
    def test_array_equals_float_calls(self, model, alpha):
        # float in, float out; an array gives each element its float call's bits
        spec = fractional_spec(beta=1.0, dim=4, alpha=alpha, model=model)
        d_h = sum(spec.charges.alphas)
        d_s = np.random.default_rng(3).uniform(0.1, 8.0, 200)
        got = walk_dimension(spec, d_s)
        assert isinstance(got, np.ndarray)
        scalar = [walk_dimension(spec, d) for d in d_s.tolist()]
        assert all(type(d_w) is float for d_w in scalar)
        numerator = 2.0 * (d_h if model in ("q", "legacy") else 4)
        assert got.tolist() == scalar == [numerator / d for d in d_s.tolist()]

    def test_q_model_scaling_closure(self):
        # d_W = 2 d_H / d_S with d_H = D alpha, d_S = D beta gives 2 alpha/beta
        for alpha, beta in ((0.5, 0.5), (0.8, 0.4), (1.0, 0.7)):
            spec = fractional_spec(beta=beta, dim=4, alpha=alpha, model="q")
            d_s = fixed_point_ds(spec)
            assert math.isclose(walk_dimension(spec, d_s), 2.0 * alpha / beta)

    def test_triple_invariants(self):
        # (d_H, d_S, d_W): d_W = 2 d_H/d_S for q, 2 D/d_S for weighted
        spec = fractional_spec(beta=0.5, dim=4, alpha=0.5, model="q")
        d_h, d_s = hausdorff_dimension(spec.charges), fixed_point_ds(spec)
        assert math.isclose(walk_dimension(spec, d_s), 2.0 * d_h / d_s)
        spec = fractional_spec(beta=0.5, dim=4, alpha=0.5)
        d_s = fixed_point_ds(spec)
        assert math.isclose(walk_dimension(spec, d_s), 2.0 * 4 / d_s)
