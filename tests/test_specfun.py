import math
import re

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate

from multiflow.dispersion import binomial_time_integral
from multiflow.errors import ConvergenceError, DomainError, PoleError
from multiflow import specfun
from multiflow.specfun import gamma_fn, kummer_phi


@pytest.fixture(autouse=True)
def fifty_digits():
    """Every oracle here works at 50 digits, without leaking the precision."""
    with mp.workdps(50):
        yield


def phi_series_oracle(a, b, z, terms=2000):
    """Direct high-precision series summation, independent of the library path."""
    s = mp.mpf(1)
    t = mp.mpf(1)
    for n in range(terms):
        t *= (mp.mpf(a) + n) / (mp.mpf(b) + n) * mp.mpf(z) / (n + 1)
        s += t
        if abs(t) < mp.mpf(10) ** (-40) * abs(s):
            break
    return float(s)


def pattern_series_oracle(b, z):
    """F(1, b; b+1; z) = sum_n b/(b+n) z^n, summed at 50 digits for |z| < 1."""
    s = mp.mpf(0)
    zn = mp.mpf(1)
    for n in range(20_000):
        t = mp.mpf(b) / (mp.mpf(b) + n) * zn
        s += t
        if n > 0 and abs(t) < mp.mpf(10) ** (-40) * abs(s):
            break
        zn *= mp.mpf(z)
    return s


def pattern_integral_oracle(b, z):
    """int_0^sigma ds / (1 + s^(1/b)), sigma = (-z)^b, from the closed form.

    sigma F(1, b; b+1; z), less pi b / sin(pi b) for b < -1 (beta* < 1),
    where the closed form's antiderivative is not regular at s = 0.
    """
    sigma = (-mp.mpf(z)) ** mp.mpf(b)
    value = sigma * pattern_series_oracle(b, z)
    if b < 0.0:
        value -= mp.pi * b / mp.sin(mp.pi * b)
    return float(value)


class TestGamma:
    def test_trivial_values(self):
        assert gamma_fn(1.0) == 1.0
        assert gamma_fn(5.0) == 24.0
        assert math.isclose(gamma_fn(0.5), 1.7724538509055160273, rel_tol=1e-15)

    @pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -37.0])
    def test_poles(self, x):
        with pytest.raises(PoleError):
            gamma_fn(x)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_refused(self, x):
        # nan and inf came back as nan and inf, and -inf raised an untyped
        # OverflowError from the pole test's round
        with pytest.raises(DomainError, match=f"finite x, got x = {x}"):
            gamma_fn(x)

    def test_accuracy_against_high_precision(self, rng):
        # target: 1e-12 relative error on 0.1 <= |x| <= 50
        xs = np.concatenate(
            [rng.uniform(0.1, 50.0, 200), -rng.uniform(0.1, 50.0, 200)]
        )
        for x in xs:
            if x < 0 and abs(x - round(x)) < 1e-3:
                continue
            expected = float(mp.gamma(mp.mpf(float(x))))
            assert math.isclose(gamma_fn(float(x)), expected, rel_tol=1e-12)

    def test_recurrence_invariant(self, rng):
        xs = rng.uniform(0.1, 40.0, 1000)
        for x in xs:
            lhs = gamma_fn(float(x) + 1.0)
            rhs = float(x) * gamma_fn(float(x))
            assert abs(lhs - rhs) <= 1e-11 * abs(rhs)


class TestKummerPhi:
    @pytest.mark.parametrize("a,b", [(0.3, 0.5), (-1.7, 2.0), (4.0, 0.25), (-4.0, 0.25)])
    def test_unit_at_zero(self, a, b):
        if a >= b:
            # a > b is outside the domain b > 0, a < b, z <= 0, at z = 0 too
            with pytest.raises(DomainError):
                kummer_phi(a, b, 0.0)
            return
        assert kummer_phi(a, b, 0.0) == 1.0

    def test_exponential_reduction(self):
        # Phi(1; 2; z) = (e^z - 1) / z, on the reflection and the asymptotic branch
        for z in (-1.0, -5.0, -29.0, -40.0):
            assert math.isclose(kummer_phi(1.0, 2.0, z), math.expm1(z) / z, rel_tol=1e-14)

    def test_frozen_series_oracle_value(self):
        # oracle (50-digit direct summation): 2.0090063079402745748
        got = kummer_phi(-0.25, 0.5, -4.0)
        assert math.isclose(got, 2.0090063079402745748, rel_tol=1e-13)
        assert math.isclose(got, phi_series_oracle(-0.25, 0.5, -4.0), rel_tol=1e-13)

    @pytest.mark.parametrize(
        "a,b,z",
        [
            (0.25, 0.5, -9.0),
            (0.1, 0.5, 3.5),
            (0.1, 0.5, -3.5),
            (-0.35, 0.5, -28.0),
            (0.45, 1.3, -55.0),
            (0.2, 0.7, -2500.0),
        ],
    )
    def test_against_oracle_wide_range(self, a, b, z):
        expected = float(mp.hyp1f1(a, b, z))
        if z > 0.0:
            # z > 0 is outside the domain b > 0, a < b, z <= 0, though Phi is finite there
            assert math.isfinite(expected)
            with pytest.raises(DomainError):
                kummer_phi(a, b, z)
            return
        assert math.isclose(kummer_phi(a, b, z), expected, rel_tol=5e-12)

    def test_asymptotic_consistency_invariant(self, rng):
        # |Phi * Gamma(b-a)/Gamma(b) * (-z)^a - 1| < 1e-2 deep in the left tail
        for _ in range(100):
            a = float(rng.uniform(-2.0, -0.05))
            b = float(rng.uniform(0.1, 3.0))
            z = -float(rng.uniform(1e3, 1e6))
            ratio = kummer_phi(a, b, z) * gamma_fn(b - a) / gamma_fn(b) * (-z) ** a
            assert abs(ratio - 1.0) < 1e-2

    @pytest.mark.parametrize(
        "a,b,z", [(-math.inf, 0.5, -40.0), (-math.inf, 0.5, -1.0), (0.3, math.inf, -1.0), (0.3, math.inf, 0.0)]
    )
    def test_non_finite_parameter_refused_by_the_call(self, a, b, z):
        # each raised an OverflowError from round, or a ConvergenceError
        # naming the reflected series Phi(inf;inf;1.0), or returned 1.0
        with pytest.raises(DomainError, match=re.escape(f"Phi({a};{b};{z}) is evaluated only at finite a and b")):
            kummer_phi(a, b, z)

    @pytest.mark.parametrize("b", [0.0, -1.0, -6.0])
    def test_pole_on_b(self, b):
        # b <= 0 is outside the evaluated domain b > 0, a < b, z <= 0
        with pytest.raises(DomainError):
            kummer_phi(0.3, b, -1.0)

    def test_nonconvergence_error(self, monkeypatch):
        monkeypatch.setattr(specfun, "_MAX_TERMS", 2)
        with pytest.raises(ConvergenceError):
            kummer_phi(0.3, 0.7, -5.0)


class TestGauss2F1:
    """The closed form sigma F(1, b; b+1; z) of the binomial dispersion.

    With b = 1/(beta*-1), lstar = 1 and z = -sigma^(1/b), it is the integral
    int_0^sigma ds / (1 + s^(beta*-1)) (plus pi b / sin(pi b) for beta* < 1);
    these checks hold :func:`dispersion.binomial_time_integral`, which
    sums that integral, to the series, to quadrature and to a frozen value.
    """

    def test_frozen_continuation_value_vs_integral_oracle(self):
        # F(1,2;3;-5) through the quadrature of the dispersion integral it
        # comes from: with beta* = 3/2, z = -(sigma)^(1/2) = -5 => sigma = 25
        # and F = (1/sigma) int_0^sigma ds / (1 + s^(1/2)).
        sigma = 25.0
        val, err = integrate.quad(
            lambda s: 1.0 / (1.0 + math.sqrt(s)), 0.0, sigma, epsabs=0.0, epsrel=1e-12, limit=300
        )
        assert err < 1e-10
        oracle = val / sigma
        got = binomial_time_integral(1.5, 1.0, sigma) / sigma
        assert math.isclose(got, oracle, rel_tol=1e-10)
        assert math.isclose(got, 0.25665924246175559994, rel_tol=1e-13)

    def test_series_region_matches_direct_series(self, rng):
        # beta* < 1 (b < -1) with z inside the disk, off the negative
        # integers b where F itself diverges
        for _ in range(80):
            b = float(rng.uniform(-3.5, -1.05))
            if abs(b - round(b)) < 0.05:
                continue
            z = float(rng.uniform(-0.95, -0.05))
            got = binomial_time_integral(1.0 + 1.0 / b, 1.0, (-z) ** b)
            assert math.isclose(got, pattern_integral_oracle(b, z), rel_tol=1e-10)

    def test_pattern_series_and_continuation_agree_inside_disk(self, rng):
        # beta* > 1 (b > 1) with z in (-1, -0.5], where the series of F
        # converges slowest; the integral is sigma F itself
        for _ in range(30):
            b = float(rng.uniform(1.05, 4.0))
            z = float(rng.uniform(-0.95, -0.5))
            got = binomial_time_integral(1.0 + 1.0 / b, 1.0, (-z) ** b)
            assert math.isclose(got, pattern_integral_oracle(b, z), rel_tol=1e-10)

    @pytest.mark.parametrize("b", [2.0, 2.5, 4.0 / 3.0, -4.0 / 3.0])
    def test_continuation_vs_quadrature(self, b):
        # the defining integral: for b = 1/(beta*-1), lstar = 1,
        # sigma F(1,b;b+1;-sigma^(1/b)) = int_0^sigma ds/(1+s^(1/b)) + pi*b/sin(pi*b)
        # for b < -1, and the integral alone for b > 1, where the
        # antiderivative is regular at 0; the integral is what runs
        for z in (-2.0, -7.5, -40.0):
            sigma = (-z) ** b
            beta_star = 1.0 + 1.0 / b
            c = min(beta_star, 1.0)

            def integrand(u):
                s = u ** (1.0 / c)
                return (1.0 / c) * u ** (1.0 / c - 1.0) / (1.0 + s ** (beta_star - 1.0))

            val, err = integrate.quad(
                integrand, 0.0, sigma ** c, epsabs=0.0, epsrel=1e-12, limit=500
            )
            assert err <= 1e-9 * abs(val)
            assert math.isclose(binomial_time_integral(beta_star, 1.0, sigma), val, rel_tol=1e-8)

    def test_integer_b_limit_agrees_with_nearby(self):
        # removable point of the closed form at b = 2 (beta* = 3/2): F is
        # continuous in b there
        z = -12.0

        def pattern(b):
            sigma = (-z) ** b
            return binomial_time_integral(1.0 + 1.0 / b, 1.0, sigma) / sigma

        center = pattern(2.0)
        for eps in (-1e-6, 1e-6):
            assert math.isclose(pattern(2.0 + eps), center, rel_tol=1e-5)

    def test_domain_errors(self):
        # beta* = 2 is b = 1, beta* = 0 is b = -1; a negative sigma has no
        # real z; lstar sets the scale of z and must be positive
        for beta_star in (0.0, 2.0, -0.5, 2.5):
            with pytest.raises(DomainError):
                binomial_time_integral(beta_star, 1.0, 4.0)
        with pytest.raises(DomainError):
            binomial_time_integral(1.5, 1.0, -4.0)
        with pytest.raises(DomainError):
            binomial_time_integral(1.5, 0.0, 4.0)
