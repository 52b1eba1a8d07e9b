"""Dense sweeps next to the removable poles of the binomial dispersion.

With b = 1/(beta* - 1), the closed form sigma * F(1, b; b+1; z),
z = -(sigma/lstar)^(1/b), of the binomial dispersion integral can be
assembled from two terms that grow like 1/|b - k| next to every integer k,
while their sum stays finite.  The integral itself is summed by a
decade-panel rule that sees no pole.  These sweeps hold it to mpmath
quadrature next to every pole with k <= 40, on both sides of it and at
offsets from 1e-3 down to 1e-10, and over its whole domain: beta* in (0, 2)
with sigma/lstar in [1e-280, 1e280] wherever the integral is a normal
double, and refused below the normal range.  The closed form, evaluated by
mpmath.hyp2f1, is a second oracle on the poles beta* = 1 + 1/k themselves.
The float sum of the rule is also held to the same rule at 40 digits, which
separates its rounding from its truncation, and that 40-digit sum to the
integral at 40 digits, which bounds its truncation.  The sample points are
drawn from seeded generators.
"""

import math
import sys

import numpy as np
import pytest

from multiflow import specfun
from multiflow.dispersion import DiffusionSpec, binomial_time_integral
from multiflow.errors import DomainError
from multiflow.measure import GeometryScales
from multiflow.spectral import flow_curve

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


def decade_quad(beta_star: float, lstar: float, sigma: float, dps: int):
    """int_0^sigma ds / (1 + (s/lstar)^(beta*-1)) at any sigma/lstar, at
    ``dps`` digits and unrounded.

    With s = sigma t and r = sigma/lstar this is sigma f(1) int_0^1 f(t)/f(1)
    dt, f(t) = 1/(1 + (r t)^(beta*-1)); the rescaled integrand is of order
    one, and mpmath.quad sums it decade by decade down to 1e-``dps`` below
    min(1, 1/r), across the turnover at t = 1/r.
    """
    with mp.workdps(dps):
        power = mp.mpf(beta_star) - 1
        r = mp.mpf(sigma) / mp.mpf(lstar)
        f1 = 1 / (1 + r ** power)
        low = min(0, int(mp.floor(-mp.log10(r)))) - dps
        nodes = sorted({0, 1, *(mp.mpf(10) ** k for k in range(low, 0)), *([1 / r] if r > 1 else [])})
        body = mp.quad(lambda t: 1 / ((1 + (r * t) ** power) * f1), nodes)
        return mp.mpf(sigma) * f1 * body


def decade_quad_oracle(beta_star: float, lstar: float, sigma: float) -> float:
    """:func:`decade_quad` at 30 digits, rounded to a float."""
    return float(decade_quad(beta_star, lstar, sigma, 30))


def hyp2f1_oracle(b, z):
    """F(1, b; b+1; z) at 40 digits, unrounded: callers may cancel against it."""
    with mp.workdps(40):
        return mp.hyp2f1(1, mp.mpf(b), mp.mpf(b) + 1, mp.mpf(z))


def closed_form_oracle(beta_star: float, lstar: float, sigma: float) -> float:
    """sigma F(1, b; b+1; -(sigma/lstar)^(1/b)), b = 1/(beta* - 1).

    For beta* < 1 (b < -1) the closed form exceeds the integral by
    lstar pi b / sin(pi b), which is taken off again.
    """
    with mp.workdps(40):
        b = 1 / (mp.mpf(beta_star) - 1)
        ratio = mp.mpf(sigma) / mp.mpf(lstar)
        value = mp.mpf(sigma) * hyp2f1_oracle(b, -ratio ** (1 / b))
        if b < 0:
            value -= mp.mpf(lstar) * mp.pi * b / mp.sin(mp.pi * b)
        return float(value)


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


@pytest.mark.parametrize("beta_star", [0.02, 0.5, 0.85])
def test_binomial_integral_refuses_values_below_the_normal_range(beta_star):
    # near sigma/lstar = 1e-280 the integral is about sigma^(2 - beta*)/(2 - beta*),
    # below 2.2e-308 for these beta*: it came out 0, or 3.4% off at 0.85
    named = f"sigma = 1e-280, beta_star = {beta_star}"
    with pytest.raises(DomainError, match=named):
        binomial_time_integral(beta_star, 1.0, 1e-280)
    with pytest.raises(DomainError, match=named):
        binomial_time_integral(beta_star, 1.0, np.array([1.0, 1e-280, 0.0]))
    # d_S = D kappa sigma / (v ell^2) was inf at 0.5, and off its plateau at 0.85
    spec = DiffusionSpec(model="weighted", dim=4, scales=GeometryScales(), beta_star=beta_star)
    with pytest.raises(DomainError, match=named):
        flow_curve(spec, [1e-280, 1.0])
    # where the integral is just inside the normal range, about 3e-308,
    # it keeps its 1e-14
    sigma = (3e-308 * (2.0 - beta_star)) ** (1.0 / (2.0 - beta_star))
    got = binomial_time_integral(beta_star, 1.0, sigma)
    expected = decade_quad_oracle(beta_star, 1.0, sigma)
    assert got >= sys.float_info.min and abs(got - expected) <= 1e-14 * expected, (got, expected)


def panel_rule_oracle(beta_star: float, lstar: float, sigma: float):
    """The decade-panel rule of binomial_time_integral summed at 40 digits.

    The same float64 Gauss-Legendre nodes and weights, decade count, power
    beta* - 1 and head as the library, every operation exact to 40 digits:
    the float result may differ from it by rounding only, not by the
    rule's truncation.
    """
    factors, weights = specfun._panel_rule()
    power = beta_star - 1.0
    ratio = sigma / lstar
    decades = 18 + (math.ceil(math.log10(ratio)) - 7 if ratio > 1e7 else 0)
    with mp.workdps(40):
        p, ls, sig = mp.mpf(power), mp.mpf(lstar), mp.mpf(sigma)
        total = mp.mpf(0)
        for k in range(1, decades + 1):
            lo = sig / mp.mpf(10) ** k
            # decade [lo, 10 lo]: node s = lo c, weight lo w
            body = mp.fsum(
                mp.mpf(w) / (1 + (lo * mp.mpf(c) / ls) ** p)
                for w, c in zip(weights.tolist(), factors.tolist())
            )
            total += lo * body
        if power > 0.0:
            total += sig / mp.mpf(10) ** decades
        return total


def test_binomial_integral_rounds_its_rule():
    # the float sum of the panel rule against the same rule at 40 digits:
    # within 16 units of 2^-53, for beta* uniform in (0, 2), at the poles
    # 1 +- 1/k and next to 1; lstar 1 and random; sigma/lstar log-uniform
    # in [1e-30, 1e30] and at the ends 1e-280 and 1e280
    rng = np.random.default_rng([SEED, 400])
    poles = [1.0 + sign / k for k in (2, 3, 8, 40) for sign in (1.0, -1.0)]
    beta_stars = [*rng.uniform(0.0, 2.0, 6).tolist(), *poles, 1.0 + 1e-12, 1.0 - 1e-12]
    points = [
        (beta_star, lstar, lstar * 10.0 ** rng.uniform(-30.0, 30.0))
        for beta_star in beta_stars
        for lstar in (1.0, float(10.0 ** rng.uniform(-3.0, 3.0)))
    ]
    # at sigma = 1e-280 the integral is about sigma^(2 - beta*): beta* well
    # below 1 would take it below the double range
    edges = [(beta_star, 1.0, ratio) for beta_star in (1.0 - 1.0 / 40.0, 1.5) for ratio in (1e-280, 1e280)]
    worst = 0.0
    for beta_star, lstar, sigma in [*points, *edges]:
        got = binomial_time_integral(beta_star, lstar, sigma)
        exact = panel_rule_oracle(beta_star, lstar, sigma)
        units = float(abs(got - exact) / exact) / 2.0 ** -53
        worst = max(worst, units)
        assert units <= 16.0, (beta_star, lstar, sigma, got, units)
    assert worst > 0.0, worst


def test_panel_tables_round_once():
    # each node factor c = 10^((1 + x)/2) and weight (ln 10 / 2) w c of the
    # rule within one unit of 2^-52 of its value from the Gauss-Legendre
    # nodes x and weights w at 40 digits; numpy's own weights are up to 63
    # units off at 16 nodes
    factors, weights = specfun._panel_rule()
    n = factors.size
    legendre = lambda x: mp.legendre(n, x)
    with mp.workdps(40):
        for c, weight in zip(factors.tolist(), weights.tolist()):
            x = mp.findroot(legendre, 2 * mp.log10(c) - 1)
            exact_c = mp.mpf(10) ** ((1 + x) / 2)
            exact_w = mp.log(10) / ((1 - x ** 2) * mp.diff(legendre, x) ** 2) * exact_c
            assert abs(c - exact_c) <= 2.0 ** -52 * exact_c, (c, exact_c)
            assert abs(weight - exact_w) <= 2.0 ** -52 * exact_w, (weight, exact_w)


@pytest.mark.parametrize("power", [-0.999, -0.9, -0.5, 1e-3, 0.5, 0.9, 0.999])
def test_panel_rule_truncation(power):
    # the float64 tables of the rule, summed at 40 digits, against the
    # integral at 40 digits: the rule's truncation alone, within 2^-51 of
    # the integral at |beta* - 1| up to 0.999, where the strip of
    # analyticity in ln s is narrowest, and across the turnover s = lstar
    for ratio in (1e-6, 0.3, 1.0, 3.0, 1e6):
        rule = panel_rule_oracle(1.0 + power, 1.0, ratio)
        exact = decade_quad(1.0 + power, 1.0, ratio, 40)
        with mp.workdps(40):
            error = abs(rule - exact) / exact
        assert error <= 2.0 ** -51, (power, ratio, float(error))


def test_binomial_integral_matches_closed_form():
    # on the poles beta* = 1 + 1/k themselves (b = k; k = 1 is beta* = 2,
    # outside the domain), and at beta* < 1 off the negative integers b,
    # where the closed form itself diverges; sigma/lstar log-uniform in
    # [1e-4, 1e4]
    rng = np.random.default_rng([SEED, 300])
    poles = [1.0 + 1.0 / k for k in range(2, K_MAX + 1)]
    below_one = [1.0 + 1.0 / b for b in (-1.5, -4.0 / 3.0, -2.5, -7.25, -20.5)]
    for beta_star in [*poles, *below_one]:
        for lstar in (1.0, float(10.0 ** rng.uniform(-2.0, 2.0))):
            sigma = lstar * 10.0 ** rng.uniform(-4.0, 4.0)
            got = binomial_time_integral(beta_star, lstar, sigma)
            expected = closed_form_oracle(beta_star, lstar, sigma)
            assert abs(got - expected) <= 1e-14 * expected, (beta_star, lstar, sigma, got, expected)
    # F(1, 2; 3; -5) = 0.25665924246175559994, at beta* = 3/2 and sigma = 25
    frozen = 25.0 * 0.25665924246175559994
    assert abs(binomial_time_integral(1.5, 1.0, 25.0) - frozen) <= 1e-14 * frozen
