import math

import numpy as np
import pytest

from multiflow.dispersion import DiffusionSpec
from multiflow.errors import DomainError, SingularPointError
from multiflow.measure import (
    DIFFUSION_TIME,
    POSITION,
    FractionalCharges,
    GeometryScales,
    MeasureProfile,
    fractional_weight,
    geometric_profile,
    hausdorff_dimension,
    multiscale_weight,
)
from multiflow.grid import geometric_grid
from multiflow.walker import simulate


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

    def test_inverse_round_trip(self):
        # the fsbm-q walker maps its Brownian paths Q through the inverse
        # x = sgn(Q)[Gamma(alpha+1)|Q|]^(1/alpha); q(x) gives Q back, which
        # the unit-charge walker draws from the same stream
        grid = geometric_grid(1e-2, 10.0, 32)

        def positions(alpha):
            spec = DiffusionSpec(
                model="q", dim=1, scales=GeometryScales(beta=0.5),
                charges=FractionalCharges.isotropic(alpha, 1),
            )
            return simulate("fsbm-q", 64, grid, spec, 5).positions.ravel()

        brownian = positions(1.0)
        for alpha in (0.3, 0.5, 0.8):
            back = np.array([geometric_profile(x, alpha) for x in positions(alpha).tolist()])
            assert np.all(np.abs(back - brownian) <= 1e-12 * np.maximum(1.0, np.abs(brownian)))


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
