import math

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate

from multiflow.errors import ConvergenceError, DomainError, PoleError
from multiflow.specfun import DEFAULT_CONTROL, SeriesControl, gamma_fn, gauss_2f1, kummer_phi


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


def f21_series_oracle(a, b, c, z, terms=4000):
    s = mp.mpf(1)
    t = mp.mpf(1)
    for n in range(terms):
        t *= (mp.mpf(a) + n) * (mp.mpf(b) + n) / ((mp.mpf(c) + n) * (n + 1)) * mp.mpf(z)
        s += t
        if abs(t) < mp.mpf(10) ** (-40) * abs(s):
            break
    return float(s)


class TestSeriesControl:
    def test_defaults(self):
        assert DEFAULT_CONTROL.max_terms == 10_000
        assert DEFAULT_CONTROL.rel_tol == 1e-14

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_terms": 0},
            {"abs_tol": -1.0},
            {"abs_tol": 0.0, "rel_tol": 0.0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(DomainError):
            SeriesControl(**kwargs)


class TestGamma:
    def test_trivial_values(self):
        assert gamma_fn(1.0) == 1.0
        assert gamma_fn(5.0) == 24.0
        assert math.isclose(gamma_fn(0.5), 1.7724538509055160273, rel_tol=1e-15)

    @pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -37.0])
    def test_poles(self, x):
        with pytest.raises(PoleError):
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
    @pytest.mark.parametrize("a,b", [(0.3, 0.5), (-1.7, 2.0), (4.0, 0.25)])
    def test_unit_at_zero(self, a, b):
        assert kummer_phi(a, b, 0.0) == 1.0

    def test_exponential_reduction(self):
        assert math.isclose(kummer_phi(1.0, 1.0, 1.0), math.e, rel_tol=1e-14)

    def test_frozen_series_oracle_value(self):
        # oracle (50-digit direct summation): 2.0090063079402745748
        got = kummer_phi(-0.25, 0.5, -4.0)
        assert math.isclose(got, 2.0090063079402745748, rel_tol=1e-13)
        assert math.isclose(got, phi_series_oracle(-0.25, 0.5, -4.0), rel_tol=1e-13)

    @pytest.mark.parametrize(
        "a,b,z",
        [(0.25, 0.5, -9.0), (0.1, 0.5, 3.5), (-0.35, 0.5, -28.0), (0.45, 1.3, -55.0), (0.2, 0.7, -2500.0)],
    )
    def test_against_oracle_wide_range(self, a, b, z):
        expected = float(mp.hyp1f1(a, b, z))
        assert math.isclose(kummer_phi(a, b, z), expected, rel_tol=5e-12)

    def test_asymptotic_consistency_invariant(self, rng):
        # |Phi * Gamma(b-a)/Gamma(b) * (-z)^a - 1| < 1e-2 deep in the left tail
        for _ in range(100):
            a = float(rng.uniform(-2.0, -0.05))
            b = float(rng.uniform(0.1, 3.0))
            z = -float(rng.uniform(1e3, 1e6))
            ratio = kummer_phi(a, b, z) * gamma_fn(b - a) / gamma_fn(b) * (-z) ** a
            assert abs(ratio - 1.0) < 1e-2

    @pytest.mark.parametrize("b", [0.0, -1.0, -6.0])
    def test_pole_on_b(self, b):
        with pytest.raises(PoleError):
            kummer_phi(0.3, b, 1.0)

    def test_nonconvergence_error(self):
        with pytest.raises(ConvergenceError):
            kummer_phi(0.3, 0.7, 5.0, SeriesControl(max_terms=2, rel_tol=1e-14))


class TestGauss2F1:
    @pytest.mark.parametrize("a,b,c", [(0.5, 1.5, 2.5), (1.0, 2.0, 3.0), (-0.3, 0.8, 1.1)])
    def test_unit_at_zero(self, a, b, c):
        assert gauss_2f1(a, b, c, 0.0) == 1.0

    def test_log_reduction(self):
        assert math.isclose(gauss_2f1(1.0, 1.0, 2.0, 0.5), 2.0 * math.log(2.0), rel_tol=1e-13)

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
        got = gauss_2f1(1.0, 2.0, 3.0, -5.0)
        assert math.isclose(got, oracle, rel_tol=1e-10)
        assert math.isclose(got, 0.25665924246175559994, rel_tol=1e-13)

    def test_series_region_matches_direct_series(self, rng):
        for _ in range(80):
            a = float(rng.uniform(-1.5, 2.5))
            b = float(rng.uniform(0.2, 3.0))
            c = float(rng.uniform(0.4, 4.0))
            z = float(rng.uniform(-0.99, 0.0))
            if abs(a - 1.0) < 1e-6 and abs(c - b - 1.0) < 1e-6:
                continue  # routed through the continuation, covered elsewhere
            assert math.isclose(
                gauss_2f1(a, b, c, z), f21_series_oracle(a, b, c, z), rel_tol=1e-10
            )

    def test_pattern_series_and_continuation_agree_inside_disk(self, rng):
        # z in (-1, -0.5] routes the pattern with b > 0 through Euler's
        # integral; it must agree with the plain series to full accuracy
        for _ in range(30):
            b = float(rng.uniform(1.05, 4.0))
            z = float(rng.uniform(-0.95, -0.5))
            assert math.isclose(
                gauss_2f1(1.0, b, b + 1.0, z), f21_series_oracle(1.0, b, b + 1.0, z),
                rel_tol=1e-10,
            )

    @pytest.mark.parametrize("b", [2.0, 2.5, 4.0 / 3.0, -4.0 / 3.0])
    def test_continuation_vs_quadrature(self, b):
        # the defining integral: for b = 1/(beta*-1), lstar = 1,
        # sigma F(1,b;b+1;-sigma^(1/b)) = int_0^sigma ds/(1+s^(1/b)) + pi*b/sin(pi*b)
        # (the constant vanishes into the integral for b > 1 where the
        # antiderivative is regular at 0; for b < -1 it must be added back).
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
            if b > 1.0:
                oracle = val / sigma
            else:
                oracle = (val + math.pi * b / math.sin(math.pi * b)) / sigma
            assert math.isclose(gauss_2f1(1.0, b, b + 1.0, z), oracle, rel_tol=1e-8)

    def test_integer_b_limit_agrees_with_nearby(self):
        # removable point of the continuation formula: continuity in b
        z = -12.0
        center = gauss_2f1(1.0, 2.0, 3.0, z)
        for eps in (-1e-6, 1e-6):
            assert math.isclose(gauss_2f1(1.0, 2.0 + eps, 3.0 + eps, z), center, rel_tol=1e-5)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            gauss_2f1(1.0, 2.0, 3.0, 1.0)
        with pytest.raises(DomainError):
            gauss_2f1(0.5, 2.0, 3.0, -4.0)  # outside the continuation pattern

    def test_pole_errors(self):
        with pytest.raises(PoleError):
            gauss_2f1(1.0, 2.0, 0.0, 0.5)
        with pytest.raises(PoleError):
            gauss_2f1(1.0, -2.0, -1.0, 0.5)
        # near-negative-integer b in the continuation: the function diverges
        with pytest.raises(PoleError):
            gauss_2f1(1.0, -2.0 + 1e-12, -1.0 + 1e-12, -4.0)

    def test_nonconvergence_error(self):
        with pytest.raises(ConvergenceError):
            gauss_2f1(0.5, 0.5, 1.5, 0.999, SeriesControl(max_terms=50, rel_tol=1e-14))
