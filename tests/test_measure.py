import math

import numpy as np
import pytest

from conftest import binomial_spec, fractional_spec
from multiflow.dispersion import DiffusionSpec, time_weight
from multiflow.errors import DomainError, SingularPointError
from multiflow.kernel import position_weight
from multiflow.measure import (
    FractionalCharges,
    GeometryScales,
    MeasureProfile,
    geometric_profile,
    hausdorff_dimension,
)
from multiflow.grid import geometric_grid
from multiflow.specfun import gamma_fn
from multiflow.walker import simulate


def space_spec(alphas, lstar=1.0, multiscale_space=False):
    """A weighted spec whose position measure has the given charges."""
    return DiffusionSpec(
        model="weighted", dim=len(alphas), scales=GeometryScales(lstar=lstar),
        charges=FractionalCharges(alphas), multiscale_space=multiscale_space,
    )


class TestProfiles:
    def test_binomial_construction_and_recovery(self):
        # the terms hold the charge and lstar^(1 - charge) as given, sorted by charge
        for beta_star in (0.3, 0.5, 1.5, 1.75):
            profile = MeasureProfile.binomial(beta_star, 2.0)
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
        assert position_weight(space_spec((1.0,)), [7.3]) == 1.0
        # a unit-charge direction is flat on its hyperplane too
        assert position_weight(space_spec((1.0, 1.0)), [0.0, 0.0]) == 1.0

    def test_half_charge_value(self):
        assert math.isclose(
            position_weight(space_spec((0.5,)), [1.0]), 0.56418958354775628695, rel_tol=1e-14
        )

    def test_singular_origin(self):
        with pytest.raises(SingularPointError):
            position_weight(space_spec((0.5,)), [0.0])
        with pytest.raises(SingularPointError):
            position_weight(space_spec((1.0, 0.5)), [2.0, 0.0])

    def test_alpha_domain(self):
        with pytest.raises(DomainError):
            space_spec((1.5,))


class TestMultiscaleWeight:
    def test_binomial_at_crossover(self):
        assert math.isclose(time_weight(binomial_spec(0.5), 1.0), 2.0, rel_tol=1e-14)

    def test_binomial_infrared(self):
        assert math.isclose(time_weight(binomial_spec(0.5), 1e6), 1.001, rel_tol=1e-12)

    def test_binomial_ultraviolet_regular_charge(self):
        # for 1 < beta* < 2 the constant term dominates at small scales
        assert math.isclose(time_weight(binomial_spec(1.5), 1e-12), 1.0, rel_tol=1e-5)

    def test_single_unit_term_is_one(self, rng):
        # at fixed dimensionality beta = 1 the weight is the one term s^0/Gamma(1)
        spec = fractional_spec(1.0)
        xs = rng.uniform(1e-6, 1e6, 100)
        for x in xs:
            assert time_weight(spec, float(x)) == 1.0
        assert time_weight(spec, xs).tolist() == [1.0] * 100

    def test_position_weight_carries_gamma(self):
        value = 2.0 ** (-0.5) / math.gamma(0.5)
        assert math.isclose(position_weight(space_spec((0.5,)), [2.0]), value, rel_tol=1e-14)
        multiscale = space_spec((0.5,), multiscale_space=True)
        assert math.isclose(position_weight(multiscale, [2.0]), 1.0 + value, rel_tol=1e-14)

    def test_singularity_error(self):
        with pytest.raises(SingularPointError):
            position_weight(space_spec((0.5, 0.5), multiscale_space=True), [1.0, 0.0])
        with pytest.raises(DomainError, match="^sigma must be positive, got 0.0$"):
            time_weight(binomial_spec(0.5), 0.0)

    def test_position_weight_is_the_spatial_profile_sum(self, rng):
        # the written-out binomial weight has the bits of the spec's term
        # table, each term g |x|^(c-1)/Gamma(c), summed in charge order
        for alpha in (0.2, 0.5, 0.9):
            for lstar in (0.3, 1.0, 2.5):
                spec = space_spec((alpha, alpha), lstar=lstar, multiscale_space=True)
                for x in rng.uniform(-5.0, 5.0, (20, 2)).tolist():
                    want = 1.0
                    for xi in x:
                        want *= sum(g * abs(xi) ** (c - 1.0) / gamma_fn(c)
                                    for g, c in spec.spatial_profile.terms)
                    assert position_weight(spec, x) == want


class TestTimeWeight:
    SPECS = {
        "binomial-uv": binomial_spec(0.5, lstar=0.7),
        "binomial-ir": binomial_spec(1.5, lstar=2.0),
        "fuzzy": binomial_spec(0.3, fuzzy=True),
        "fixed": fractional_spec(0.6),
    }

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_grid_equals_scalar_calls(self, name):
        spec = self.SPECS[name]
        grid = np.geomspace(1e-6, 1e6, 301)
        values = time_weight(spec, grid)
        assert values.shape == grid.shape
        assert values.tolist() == [time_weight(spec, s) for s in grid.tolist()]
        assert all(isinstance(time_weight(spec, s), float) for s in grid[:3].tolist())
        assert time_weight(spec, grid.reshape(7, 43)).tolist() == values.reshape(7, 43).tolist()

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_refuses_nonpositive_and_nan_sigma(self, name):
        spec = self.SPECS[name]
        for bad, shown in ((0.0, "0.0"), (-1.0, "-1.0"), (float("nan"), "nan")):
            with pytest.raises(DomainError, match=f"^sigma must be positive, got {shown}$"):
                time_weight(spec, bad)
            with pytest.raises(DomainError, match=f"^sigma must be positive, got {shown}$"):
                time_weight(spec, np.array([1.0, bad, 2.0]))


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
