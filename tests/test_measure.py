import math

import pytest

from multiflow.errors import DomainError, SingularPointError
from multiflow.measure import (
    DIFFUSION_TIME,
    POSITION,
    FractionalCharges,
    GeometryScales,
    MeasureProfile,
    ball_volume,
    fractional_weight,
    geometric_profile,
    geometric_profile_inverse,
    hausdorff_dimension,
    multiscale_weight,
    unit_ball_volume,
)


class TestProfiles:
    def test_binomial_construction_and_recovery(self):
        # the terms hold the charge and lstar^(1 - charge) as given, sorted by charge
        for beta_star in (0.3, 0.5, 1.5, 1.75):
            profile = MeasureProfile.binomial(beta_star, 2.0, kind=DIFFUSION_TIME)
            terms = {c: g for g, c in profile.terms}
            assert terms == {beta_star: 2.0 ** (1.0 - beta_star), 1.0: 1.0}
            assert profile.charges == tuple(sorted(profile.charges))

    def test_validation(self):
        with pytest.raises(DomainError):
            MeasureProfile(terms=())
        with pytest.raises(DomainError):
            MeasureProfile(terms=((1.0, 0.5), (1.0, 0.5)))  # not increasing
        with pytest.raises(DomainError):
            MeasureProfile(terms=((-1.0, 0.5),))
        with pytest.raises(DomainError):
            MeasureProfile(terms=((1.0, 2.5),))
        with pytest.raises(DomainError):
            MeasureProfile(terms=((1.0, 0.5),), kind="bogus")

    def test_charges_validation(self):
        with pytest.raises(DomainError):
            FractionalCharges(())
        with pytest.raises(DomainError):
            FractionalCharges((1.2,))
        charges = FractionalCharges((0.2, 0.5, 0.9))
        assert charges.dim == 3
        assert math.isclose(charges.average, 1.6 / 3.0)

    def test_scales_validation(self):
        with pytest.raises(DomainError):
            GeometryScales(lstar=0.0)
        with pytest.raises(DomainError):
            GeometryScales(kappa=-1.0)


class TestFractionalWeight:
    def test_alpha_one_is_flat(self):
        assert fractional_weight(7.3, 1.0) == 1.0

    def test_half_charge_value(self):
        assert math.isclose(fractional_weight(1.0, 0.5), 0.56418958354775628695, rel_tol=1e-14)

    def test_singular_origin(self):
        with pytest.raises(SingularPointError):
            fractional_weight(0.0, 0.5)

    def test_alpha_domain(self):
        with pytest.raises(DomainError):
            fractional_weight(1.0, 1.5)


class TestMultiscaleWeight:
    def test_binomial_at_crossover(self):
        profile = MeasureProfile.binomial(0.5, 1.0, kind=DIFFUSION_TIME)
        assert math.isclose(multiscale_weight(1.0, profile), 2.0, rel_tol=1e-14)

    def test_binomial_infrared(self):
        profile = MeasureProfile.binomial(0.5, 1.0, kind=DIFFUSION_TIME)
        assert math.isclose(multiscale_weight(1e6, profile), 1.001, rel_tol=1e-12)

    def test_binomial_ultraviolet_regular_charge(self):
        # for 1 < beta* < 2 the constant term dominates at small scales
        profile = MeasureProfile.binomial(1.5, 1.0, kind=DIFFUSION_TIME)
        assert math.isclose(multiscale_weight(1e-12, profile), 1.0, rel_tol=1e-5)

    def test_single_unit_term_is_one(self, rng):
        profile = MeasureProfile(terms=((1.0, 1.0),), kind=DIFFUSION_TIME)
        for x in rng.uniform(1e-6, 1e6, 100):
            assert multiscale_weight(float(x), profile) == 1.0

    def test_position_kind_carries_gamma(self):
        profile = MeasureProfile(terms=((1.0, 0.5),), kind=POSITION)
        assert math.isclose(
            multiscale_weight(2.0, profile),
            2.0 ** (-0.5) / math.gamma(0.5),
            rel_tol=1e-14,
        )

    def test_singularity_error(self):
        profile = MeasureProfile.binomial(0.5, 1.0, kind=DIFFUSION_TIME)
        with pytest.raises(SingularPointError):
            multiscale_weight(0.0, profile)


class TestGeometricProfiles:
    def test_identity_at_alpha_one(self, rng):
        for x in rng.uniform(-5, 5, 20):
            assert geometric_profile(float(x), 1.0) == pytest.approx(float(x), rel=1e-15)

    def test_half_charge_value(self):
        assert math.isclose(geometric_profile(1.0, 0.5), 1.1283791670955125739, rel_tol=1e-14)

    def test_odd_symmetry(self, rng):
        for x in rng.uniform(0.01, 10, 50):
            assert geometric_profile(-float(x), 0.5) == -geometric_profile(float(x), 0.5)

    def test_inverse_round_trip(self, rng):
        xs = rng.uniform(-50.0, 50.0, 1000)
        for alpha in (0.3, 0.5, 0.8, 1.0):
            for x in xs:
                q = geometric_profile(float(x), alpha)
                back = geometric_profile_inverse(q, alpha)
                assert abs(back - float(x)) <= 1e-12 * max(1.0, abs(float(x)))


class TestHausdorff:
    def test_values(self):
        assert hausdorff_dimension(FractionalCharges.isotropic(1.0, 4)) == 4.0
        assert hausdorff_dimension(FractionalCharges.isotropic(0.5, 4)) == 2.0
        assert math.isclose(hausdorff_dimension(FractionalCharges((0.2, 0.5, 0.9))), 1.6)

    def test_additive_and_bounded(self, rng):
        alphas = tuple(rng.uniform(0.05, 1.0, 6))
        total = hausdorff_dimension(FractionalCharges(alphas))
        split = hausdorff_dimension(FractionalCharges(alphas[:2])) + hausdorff_dimension(
            FractionalCharges(alphas[2:])
        )
        assert math.isclose(total, split, rel_tol=1e-14)
        assert total <= 6.0


class TestBallVolume:
    def test_degenerate_double_count_at_unit_charge(self):
        # both charges coincide: the two-term form double counts, documented
        for dim in (1, 2, 3):
            got = ball_volume(2.5, dim, 1.0, 1.0)
            assert math.isclose(got, 2.0 * unit_ball_volume(dim) * 2.5 ** dim, rel_tol=1e-14)

    def test_infrared_ratio_tends_to_one(self):
        dim, alpha_star, lstar = 3, 0.5, 1.0
        ratio = ball_volume(1e8, dim, alpha_star, lstar) / (unit_ball_volume(dim) * 1e8 ** dim)
        assert abs(ratio - 1.0) < 1e-3

    def test_ultraviolet_anomalous_scaling(self):
        dim, alpha_star = 2, 0.5
        r = 1e-8
        got = ball_volume(r, dim, alpha_star, 1.0)
        # leading term proportional to R^(D alpha*) = R
        assert math.isclose(
            got, unit_ball_volume(dim) / math.gamma(1.5) ** dim * r, rel_tol=1e-6
        )

    @pytest.mark.parametrize("ratio,expected_slope", [(1e-6, 2 * 0.5), (1e6, 2.0)])
    def test_loglog_slope_flow(self, ratio, expected_slope):
        dim, alpha_star, lstar = 2, 0.5, 1.0
        h = 1e-3
        r = lstar * ratio
        lo = ball_volume(r * math.exp(-h), dim, alpha_star, lstar)
        hi = ball_volume(r * math.exp(h), dim, alpha_star, lstar)
        slope = (math.log(hi) - math.log(lo)) / (2.0 * h)
        assert abs(slope - expected_slope) < 1e-2

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            ball_volume(-1.0, 2, 0.5, 1.0)
        with pytest.raises(DomainError):
            ball_volume(1.0, 2, 0.5, 0.0)
        with pytest.raises(DomainError):
            ball_volume(1.0, 2, 1.5, 1.0)
