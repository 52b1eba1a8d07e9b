"""Dense sweeps next to the removable poles of the binomial dispersion.

With b = 1/(beta* - 1), the closed form sigma * F(1, b; b+1; z) of the
binomial dispersion integral can be assembled from two terms that grow like
1/|b - k| next to every integer k, while their sum stays finite.  These
sweeps hold the dispersion integral and F(1, b; b+1; z) to mpmath next to
every pole with k <= 40, on both sides of it and at offsets from 1e-3 down
to 1e-10, and over their whole domains: beta* in (0, 2) with
sigma/lstar in [1e-280, 1e280], and 0 < b <= 200 with z in [-1e5, -0.5].
The sample points are drawn from seeded generators.
"""

import math

import numpy as np
import pytest

from multiflow.dispersion import binomial_time_integral
from multiflow.errors import ConvergenceError, DomainError, MultiflowError
from multiflow.specfun import gauss_2f1, sinpi

mp = pytest.importorskip("mpmath")

SEED = 20130409
K_MAX = 40


def _offsets(first: int, last: int) -> list[float]:
    return [sign * 10.0 ** -e for e in range(first, last + 1) for sign in (1.0, -1.0)] + [0.0]


def quad_oracle(beta_star: float, sigma: float) -> float:
    """mpmath.quad of int_0^sigma ds / (1 + s^(beta*-1)), split at s = 1."""
    with mp.workdps(15):
        power = mp.mpf(beta_star) - 1
        nodes = [0, 1, sigma] if sigma > 1.0 else [0, sigma]
        return float(mp.quad(lambda s: 1 / (1 + s ** power), nodes))


def decade_quad_oracle(beta_star: float, lstar: float, sigma: float) -> float:
    """int_0^sigma ds / (1 + (s/lstar)^(beta*-1)) at any sigma/lstar.

    With s = sigma t and r = sigma/lstar this is sigma f(1) int_0^1 f(t)/f(1)
    dt, f(t) = 1/(1 + (r t)^(beta*-1)); the rescaled integrand is of order
    one, and mpmath.quad sums it decade by decade down to 1e-30 below
    min(1, 1/r), across the turnover at t = 1/r.
    """
    with mp.workdps(30):
        power = mp.mpf(beta_star) - 1
        r = mp.mpf(sigma) / mp.mpf(lstar)
        f1 = 1 / (1 + r ** power)
        low = min(0, int(mp.floor(-mp.log10(r)))) - 30
        nodes = sorted({0, 1, *(mp.mpf(10) ** k for k in range(low, 0)), *([1 / r] if r > 1 else [])})
        body = mp.quad(lambda t: 1 / ((1 + (r * t) ** power) * f1), nodes)
        return float(mp.mpf(sigma) * f1 * body)


def hyp2f1_oracle(b: float, z: float) -> float:
    with mp.workdps(40):
        return float(mp.hyp2f1(1, mp.mpf(b), mp.mpf(b) + 1, mp.mpf(z)))


@pytest.mark.parametrize("k", range(1, K_MAX + 1))
def test_binomial_integral_near_pole(k):
    # beta* = 1 +- 1/k plus offsets 1e-3 ... 1e-10; sigma is log-uniform
    # inside a decade that cycles through [1e-4, 1e4], so every pole is
    # probed over all eight decades.  The 1e-7 contract holds everywhere and
    # nothing may be refused.
    rng = np.random.default_rng([SEED, k])
    for side in (1.0, -1.0):
        for i, offset in enumerate(_offsets(3, 10)):
            beta_star = 1.0 + side / k + offset
            if not 0.0 < beta_star < 2.0:
                continue
            sigma = 10.0 ** (-4 + i % 8 + rng.uniform())
            got = binomial_time_integral(beta_star, 1.0, sigma)
            expected = quad_oracle(beta_star, sigma)
            assert abs(got - expected) <= 1e-7 * expected, (beta_star, sigma, got, expected)


@pytest.mark.parametrize("k", range(0, K_MAX + 1))
def test_gauss_2f1_near_integer_b(k):
    # b = k + offset, offsets 1e-1 ... 1e-10 (both sides of the window);
    # z at the disk's edge -0.5 (where the continuation terms grow most),
    # inside the disk, in [-316, -1] and beyond.  Up to z = -316 the 1e-8
    # contract holds; beyond, a typed refusal is allowed but no wrong value.
    rng = np.random.default_rng([SEED, 100 + k])
    for offset in _offsets(1, 10):
        b = k + offset
        if b < 0.0 and abs(b - round(b)) < 1e-8:
            continue  # F itself diverges there (c = b+1 is a pole)
        disk = -float(rng.uniform(0.5, 1.0))
        near = -(10.0 ** rng.uniform(0.0, math.log10(316.0)))
        far = -(10.0 ** rng.uniform(math.log10(316.0), 5.0))
        for z in (-0.5, disk, near):
            got = gauss_2f1(1.0, b, b + 1.0, z)
            expected = hyp2f1_oracle(b, z)
            assert abs(got - expected) <= 1e-8 * abs(expected), (b, z, got, expected)
        try:
            got = gauss_2f1(1.0, b, b + 1.0, far)
        except MultiflowError:
            continue
        expected = hyp2f1_oracle(b, far)
        assert abs(got - expected) <= 1e-8 * abs(expected), (b, far, got, expected)


def test_sinpi_relative_accuracy_next_to_integers():
    for k in (-40, -3, 0, 1, 2, 12, 40):
        for offset in _offsets(1, 12):
            x = k + offset
            expected = float(mp.sinpi(mp.mpf(x)))
            got = sinpi(x)
            if expected == 0.0:
                assert got == 0.0
            else:
                assert abs(got - expected) <= 4e-16 * abs(expected), (x, got, expected)


def test_binomial_integral_whole_domain():
    # beta* uniform in (0, 2), next to 1 down to 1e-12 and at a few poles;
    # sigma/lstar log-uniform in [1e-30, 1e30], and at the ends 1e-280 and
    # 1e280 of the accepted range: within 1e-14 everywhere
    rng = np.random.default_rng([SEED, 200])
    near_one = [1.0 + sign * 10.0 ** -e for e in (4, 6, 9, 12) for sign in (1.0, -1.0)]
    poles = [1.0 + sign / k for k in (2, 3, 8, 40) for sign in (1.0, -1.0)]
    points = [
        (float(beta_star), 10.0 ** rng.uniform(-1.0, 1.0), 10.0 ** rng.uniform(-30.0, 30.0))
        for beta_star in [*rng.uniform(0.0, 2.0, 40), *near_one, *poles]
    ]
    edges = [(beta_star, 1.0, ratio) for beta_star in (0.999, 1.0 + 1e-12, 1.99) for ratio in (1e-280, 1e280)]
    for beta_star, lstar, ratio in [*points, *edges]:
        sigma = lstar * ratio
        got = binomial_time_integral(beta_star, lstar, sigma)
        expected = decade_quad_oracle(beta_star, lstar, sigma)
        assert 0.0 < expected and abs(got - expected) <= 1e-14 * expected, (
            beta_star, lstar, sigma, got, expected
        )
    nan, inf = float("nan"), float("inf")
    for lstar, sigma in ((1.0, 1e-281), (1.0, 1e281), (nan, 1.0), (1.0, nan), (1.0, inf), (inf, 1.0)):
        with pytest.raises(DomainError):
            binomial_time_integral(1.5, lstar, sigma)


def test_gauss_2f1_pattern_whole_range():
    # b log-uniform in (1e-6, 200] and z log-uniform in [-1e5, -0.5], plus
    # b beyond 60 (where the continuation's inner series undercuts double
    # precision) at fixed z, and the largest b at the disk's edge: within
    # 1e-12 everywhere
    rng = np.random.default_rng([SEED, 201])
    points = [
        (10.0 ** rng.uniform(-6.0, math.log10(200.0)), -(10.0 ** rng.uniform(math.log10(0.5), 5.0)))
        for _ in range(120)
    ]
    large_b = [
        (float(b), z)
        for b in 10.0 ** rng.uniform(math.log10(60.0), math.log10(200.0), 4)
        for z in (-0.6, -5.0, -300.0, -1e5)
    ]
    for b, z in [*points, *large_b, (200.0, -0.5), (200.0, -1e5)]:
        got = gauss_2f1(1.0, b, b + 1.0, z)
        expected = hyp2f1_oracle(b, z)
        assert abs(got - expected) <= 1e-12 * abs(expected), (b, z, got, expected)


def test_gauss_2f1_beyond_euler_b_max():
    # b > 200 keeps the Taylor series inside the disk and is refused beyond
    for b, z in ((250.0, -0.6), (1000.0, -0.95)):
        got = gauss_2f1(1.0, b, b + 1.0, z)
        expected = hyp2f1_oracle(b, z)
        assert abs(got - expected) <= 1e-12 * abs(expected), (b, z, got, expected)
    for b in (250.0, 1000.0):
        with pytest.raises(ConvergenceError):
            gauss_2f1(1.0, b, b + 1.0, -5.0)
