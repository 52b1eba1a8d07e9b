"""Kummer's function against its term-by-term oracle and mpmath.

``_kummer_phi_array`` is the only engine of ``Phi(a; b; z)`` in the package:
it evaluates the domain its callers use, b > 0, a < b and z <= 0, takes the
branch of every argument there and sums each branch's series for all its
arguments together, and ``kummer_phi`` is a one-element call of it.  The
scalar loops it replaced live here as the oracle, restricted to the same
domain: ``phi_oracle`` takes the branch of one argument and sums its series
term by term, with the same stopping rules and refusals.  The engine is held
to it element by element, for values and for refusals alike, and to
``mpmath.hyp1f1`` off the arguments the kernel trace takes.  Every argument
outside the domain, nan included, is a ``DomainError`` of both calls.
"""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from multiflow import specfun
from multiflow.errors import ConvergenceError, DomainError, MultiflowError
from multiflow.specfun import (
    _PHI_ASYMPTOTIC_CUT,
    _is_nonpositive_integer,
    _kummer_phi_array,
    _series_1f1_array,
    gamma_fn,
    kummer_phi,
)


def series_oracle(a, b, x):
    """Taylor sum of Phi(a;b;x) at a, b, x > 0, term by term.

    Sums 1 + t_1 + t_2 + ... with t_(n+1) = t_n (a+n)/(b+n) x/(n+1), every
    term positive.  Stops after two consecutive small terms past t_1, trusted
    only while the terms decrease.
    """
    total = 1.0
    term = 1.0
    prev = 1.0
    small_runs = 0
    for n in range(specfun._MAX_TERMS):
        term *= (a + n) / (b + n) * x / (n + 1)
        total += term
        settled = n > 0 and term <= prev
        prev = term
        if settled and term <= specfun._REL_TOL * total:
            small_runs += 1
            if small_runs >= 2:
                return total
        else:
            small_runs = 0
    raise ConvergenceError(f"Phi({a};{b};{x}) series did not converge within {specfun._MAX_TERMS} terms")


def asymptotic_oracle(a, b, z):
    """Phi(a;b;z) ~ Gamma(b)/Gamma(b-a) (-z)^(-a) sum_k (a)_k (a-b+1)_k / (k! (-z)^k),
    summed term by term to its smallest term."""
    inv = 1.0 / (-z)
    total = 1.0
    term = 1.0
    prev = math.inf
    for k in range(specfun._MAX_TERMS):
        term *= (a + k) * (a - b + 1.0 + k) * inv / (k + 1)
        if abs(term) >= prev:
            break
        total += term
        prev = abs(term)
        if abs(term) <= specfun._REL_TOL * abs(total):
            break
    if prev > 1e-8 * abs(total):
        raise ConvergenceError(f"Phi({a};{b};{z}) asymptotic truncation floor {prev:.2e} too coarse")
    prefactor = gamma_fn(b) / gamma_fn(b - a) * (-z) ** (-a)
    return prefactor * total


def phi_oracle(a, b, z):
    """The branch choice of Phi at one argument, with ``math.exp``."""
    if not (math.isfinite(a) and math.isfinite(b) and b > 0.0 and a < b and z <= 0.0):
        raise DomainError(f"Phi({a};{b};{z}) outside finite a and b, b > 0, a < b, z <= 0")
    if z == 0.0 or a == 0.0:
        return 1.0
    if z <= -_PHI_ASYMPTOTIC_CUT:
        if _is_nonpositive_integer(b) or _is_nonpositive_integer(b - a):
            raise DomainError(f"Phi({a};{b};{z}) asymptotic branch at the edge b -> 0 or b - a -> 0")
        value = asymptotic_oracle(a, b, z)
    else:
        value = math.exp(z) * series_oracle(b - a, b, -z)
    if not math.isfinite(value):
        raise ConvergenceError(f"Phi({a};{b};{z}) is off the double range")
    return value


def scalar_phi(a, b, zs):
    return np.array([phi_oracle(a, b, float(z)) for z in zs])


def passes(a, b, z):
    try:
        phi_oracle(a, b, z)
    except MultiflowError:
        return False
    return True


def assert_refused(a, b, zs):
    """Every z is a DomainError of the oracle, of ``kummer_phi`` and of a
    one-element array, and so is the whole array, with no numpy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z in zs:
            with pytest.raises(DomainError):
                phi_oracle(a, b, float(z))
            with pytest.raises(DomainError, match="evaluated only at"):
                kummer_phi(a, b, float(z))
            with pytest.raises(DomainError, match="evaluated only at"):
                _kummer_phi_array(a, b, np.array([z], dtype=float))
        with pytest.raises(DomainError, match="evaluated only at"):
            _kummer_phi_array(a, b, np.asarray(zs, dtype=float))


def set_limits(monkeypatch, limits):
    """Truncation constants of both series, read by the engine and the oracle alike."""
    for name, value in limits.items():
        monkeypatch.setattr(specfun, name, value)


def sweep_points(rng):
    """z at 0, across (-30, 0), at -30 exactly and down to -1e4."""
    return np.concatenate(
        [
            [0.0, -30.0, -np.nextafter(30.0, 0.0), -np.nextafter(30.0, 60.0), -1e-8, -1e4],
            -rng.uniform(0.0, 30.0, 300),
            -np.geomspace(1e-8, 30.0, 60),
            -np.exp(rng.uniform(np.log(30.0), np.log(1e4), 200)),
        ]
    )


PARAMS = [(float(a), 0.5) for a in np.linspace(-0.5, 0.5, 21) if abs(a - 0.5) > 1e-12]
PARAMS += [(0.3, 0.7), (0.45, 1.3), (1.2, 2.5), (0.05, 3.0)]


@pytest.mark.parametrize("a,b", PARAMS)
def test_array_matches_scalar(a, b):
    zs = sweep_points(np.random.default_rng(20130409))
    got = _kummer_phi_array(a, b, zs)
    want = scalar_phi(a, b, zs)
    assert got.shape == zs.shape
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


def test_dense_kernel_range():
    # the trace's arguments: a = (1 - alpha)/2 for alpha in [0.35, 0.9], z in [-1e4, -1e-8]
    rng = np.random.default_rng(7)
    zs = -np.geomspace(1e-8, 1e4, 2000)
    for alpha in rng.uniform(0.35, 0.9, 6):
        a = (1.0 - alpha) / 2.0
        np.testing.assert_allclose(_kummer_phi_array(a, 0.5, zs), scalar_phi(a, 0.5, zs), rtol=1e-14)


@pytest.mark.parametrize(
    "limits", [{"_REL_TOL": 1e-6}, {"_MAX_TERMS": 40}], ids=["rel-1e-6", "max-terms-40"]
)
@pytest.mark.parametrize("a,b", [(0.275, 0.5), (-0.3, 0.5), (0.45, 1.3)])
def test_loose_controls_stop_where_scalar_stops(a, b, limits, monkeypatch):
    # a term more or less moves a loosely stopped sum far beyond 1e-14
    set_limits(monkeypatch, limits)
    zs = sweep_points(np.random.default_rng(11))
    try:
        want = scalar_phi(a, b, zs)
    except MultiflowError as exc:
        with pytest.raises(type(exc)):
            _kummer_phi_array(a, b, zs)
        return
    np.testing.assert_allclose(_kummer_phi_array(a, b, zs), want, rtol=1e-14, atol=0.0)


def test_series_sums_bit_for_bit(monkeypatch):
    # same terms, same order, same last term: the series sums are identical,
    # with the default stop as with a loose one
    zs = np.geomspace(1e-8, 30.0, 500)
    cases = [(0.225, 0.5, {}), (1.0, 0.5, {}), (0.8, 1.3, {"_REL_TOL": 1e-5})]
    for a, b, limits in cases:
        with monkeypatch.context() as patch:
            set_limits(patch, limits)
            want = [series_oracle(a, b, float(x)) for x in zs]
            np.testing.assert_array_equal(_series_1f1_array(a, b, zs), want)


@pytest.mark.parametrize("a,b", [(0.0, 0.5), (0.5, 0.5), (-1.5, 0.5)])
def test_shortcuts_and_scalar_fallback(a, b):
    # a = 0 is the closed form 1; the rest mixes every other branch
    zs = np.array([0.0, -1e-3, -2.5, -29.0, -30.0, -75.0])
    if a == b:
        # Phi(a; a; z) = e^z is outside the domain, at every z
        assert_refused(a, b, zs)
        return
    np.testing.assert_allclose(_kummer_phi_array(a, b, zs), scalar_phi(a, b, zs), rtol=1e-14)


def test_two_dimensional_input_keeps_its_shape():
    zs = -np.geomspace(1e-3, 1e3, 12).reshape(3, 4)
    got = _kummer_phi_array(0.3, 0.5, zs)
    assert got.shape == (3, 4)
    np.testing.assert_allclose(got.ravel(), scalar_phi(0.3, 0.5, zs.ravel()), rtol=1e-14)


# (a, b, z) off the trace's b = 1/2 and 0 <= a < 1/2, every point accepted
# by the oracle, with each branch's agreement with mpmath
BRANCH_POINTS = {
    # e^z times a positive-term series: a few ulps of e^z and of the sum
    "reflection": (
        [(0.3, 0.7, z) for z in (-1e-3, -0.5, -3.0, -20.0, -29.9)]
        + [(1.2, 2.5, z) for z in (-1.0, -12.0, -29.0)]
        + [(-0.4, 0.5, -10.0), (-20.3, 0.5, -20.0), (-5.5, 3.0, -25.0), (2.9, 3.0, -15.0)]
        # b - a of one ulp: terms below the stop grow before they decay, and
        # a sum stopped while they grow misses 7e-13 of Phi
        + [(float(np.nextafter(0.5, 0.0)), 0.5, -10.0)],
        1e-14,
    ),
    # the expansion's truncation floor, largest at the cut (4e-14 at (0.3, 0.7, -30))
    "asymptotic": (
        [(0.3, 0.7, z) for z in (-30.0, -55.0, -300.0, -1e4)]
        + [(-0.4, 0.5, -30.0), (-0.4, 0.5, -300.0), (1.2, 2.5, -80.0), (-2.5, 3.0, -45.0)],
        1e-12,
    ),
}


# (a, b, z) outside the domain, on the branches of a general Phi: each has a
# finite value in mpmath, and both the oracle and the engine refuse it
REFUSED_BRANCH_POINTS = {
    # z > 0
    "z-positive": [(0.3, 0.7, z) for z in (1e-3, 0.5, 3.0, 20.0, 100.0, 400.0, 699.0)]
    + [(-0.4, 0.5, z) for z in (2.0, 50.0, 300.0)],
    # b < 0, with z of either sign
    "b-negative": [(0.3, -40.5, z) for z in (0.5, 5.0, 20.0, -0.5, -5.0)]
    + [(-0.4, -40.5, 10.0), (-20.3, -40.5, 20.0), (1.2, -40.5, 3.0), (3.7, -50.5, 10.0)]
    + [(0.3, -2.5, z) for z in (1.0, 10.0, -10.0)],
    # a > b at -30 < z < 0
    "b-minus-a-nonpositive": [(0.8, 0.6, z) for z in (-0.5, -3.0, -10.0)]
    + [(1.5, 0.5, z) for z in (-3.0, -8.0)] + [(2.25, 1.5, z) for z in (-1.0, -5.0, -12.0)],
    # Phi(a; a; z) = e^z
    "a-equals-b": [(0.7, 0.7, z) for z in (-29.0, -5.0, 5.0, 700.0, 709.0)],
}


@pytest.mark.parametrize("branch", sorted(BRANCH_POINTS) + sorted(REFUSED_BRANCH_POINTS))
def test_branches_against_oracle_and_mpmath(branch):
    if branch in REFUSED_BRANCH_POINTS:
        for a, b, z in REFUSED_BRANCH_POINTS[branch]:
            with mp.workdps(40):
                assert mp.isfinite(mp.hyp1f1(a, b, z)), (a, b, z)
            assert_refused(a, b, [z])
        return
    points, tol = BRANCH_POINTS[branch]
    for a, b, z in points:
        got = kummer_phi(a, b, z)
        assert math.isclose(got, phi_oracle(a, b, z), rel_tol=1e-14, abs_tol=0.0), (a, b, z)
        with mp.workdps(40):
            want = mp.hyp1f1(a, b, z)
            assert abs(got - want) <= tol * abs(want), (a, b, z)


@pytest.mark.parametrize(
    "a,b,edge",
    [(-1.0, 1e-13, "b"), (0.5 - 1e-13, 0.5, "b - a")],
    ids=["b-to-0", "b-minus-a-to-0"],
)
def test_large_z_edge_refused_by_name(a, b, edge):
    # inside the domain, within gamma_fn's 1e-12 pole tolerance of b = 0 or
    # b - a = 0: the large-|z| branch is refused with the edge named, though
    # mpmath has a value; the reflection branch still evaluates the same a, b
    with mp.workdps(40):
        assert mp.isfinite(mp.hyp1f1(a, b, -40.0))
        assert abs(kummer_phi(a, b, -5.0) - mp.hyp1f1(a, b, -5.0)) <= 1e-13 * abs(mp.hyp1f1(a, b, -5.0))
    with pytest.raises(DomainError):
        phi_oracle(a, b, -40.0)
    for call in (lambda: kummer_phi(a, b, -40.0),
                 lambda: _kummer_phi_array(a, b, np.array([-5.0, -40.0, -1e4]))):
        with pytest.raises(DomainError, match=f"edge {edge} -> 0"):
            call()


@pytest.mark.parametrize("gap", [1e-11, 1e-9], ids=["1e-11", "1e-9"])
def test_dropped_exponential_term_refused(gap):
    # just above the b - a edge the large-|z| expansion drops the e^z term
    # of DLMF 13.7.2, Gamma(b-a)/Gamma(a) e^z (-z)^(2a-b) of its leading term:
    # 1.5e-6 at b - a = 1e-11 and z = -40, and the value was off by as much
    a, b = 0.5 - gap, 0.5
    for call in (lambda: kummer_phi(a, b, -40.0),
                 lambda: _kummer_phi_array(a, b, np.array([-5.0, -40.0, -1e4]))):
        with pytest.raises(ConvergenceError, match=r"drops an e\^z term of relative size"):
            call()


@pytest.mark.parametrize(
    "a,b", [(0.5 - 1e-6, 0.5), (-1.0, 0.5), (-3.0, 2.5)],
    ids=["b-minus-a-1e-6", "a-minus-1", "a-minus-3"],
)
def test_dropped_exponential_term_small_is_computed(a, b):
    # the dropped term is 1.5e-11 of the leading one at b - a = 1e-6, and 0
    # at a nonpositive integer a, where the estimate takes no gamma at its pole
    zs = np.array([-5.0, -40.0, -1e4])
    got = _kummer_phi_array(a, b, zs)
    with mp.workdps(40):
        for value, z in zip(got.tolist(), zs.tolist()):
            want = mp.hyp1f1(a, b, z)
            assert abs(value - want) <= 1e-10 * abs(want), (a, b, z)


@pytest.mark.parametrize(
    "a,b",
    [(0.3, 0.7), (0.3, -40.5), (0.8, 0.6), (0.7, 0.7), (0.25, 0.5), (-0.4, 0.5)],
)
def test_mixed_branch_array_equals_one_element_calls(a, b):
    # every branch in one array; each element gets the bits it gets alone
    zs = np.array([0.0, -0.5, -4.0, -29.0, -30.0, -75.0, -1e4, -1e-9])
    if not (b > 0.0 and a < b):
        # b < 0, a > b or a = b: no branch takes any z, alone or in the array
        assert_refused(a, b, zs)
        return
    got = _kummer_phi_array(a, b, zs)
    for z, value in zip(zs, got):
        assert value == _kummer_phi_array(a, b, np.array([z]))[0] == kummer_phi(a, b, z)
    np.testing.assert_allclose(got, scalar_phi(a, b, zs), rtol=1e-14, atol=0.0)
    # one element outside the domain refuses the whole array, as it refuses alone
    with pytest.raises(DomainError):
        _kummer_phi_array(a, b, np.concatenate([zs, [1e-9]]))


@pytest.mark.parametrize(
    "a,b,z,ctl,error",
    [
        # reflection series cut after two terms
        (0.3, 0.5, -5.0, {"_MAX_TERMS": 2}, ConvergenceError),
        # asymptotic series too coarse at its smallest term
        (9.5, 10.0, -30.0, {}, ConvergenceError),
        # a positive-term sum past the double range: only extreme parameters get there
        (-1e300, 0.5, -1.0, {}, ConvergenceError),
        # outside the domain: a > b
        (1.5, 0.5, -40.0, {}, DomainError),
        # b <= 0, on a pole and off it
        (0.3, -2.0, -5.0, {}, DomainError),
        (0.3, -40.5, -5.0, {}, DomainError),
        (0.3, 0.0, -5.0, {}, DomainError),
        # z > 0
        (0.3, 0.7, 5.0, {}, DomainError),
        (0.3, 0.7, 700.5, {}, DomainError),
        (0.0, 0.5, 1e-300, {}, DomainError),
        # a = b, where Phi is e^z
        (0.5, 0.5, -5.0, {}, DomainError),
        (0.5, 0.5, 0.0, {}, DomainError),
        # a > b at -30 < z < 0
        (1.5, 0.5, -0.5, {}, DomainError),
        (0.8, 0.6, -3.0, {}, DomainError),
        # nan in any argument
        (0.3, 0.5, math.nan, {}, DomainError),
        (math.nan, 0.5, -5.0, {}, DomainError),
        (0.3, math.nan, -5.0, {}, DomainError),
        # refused before any term: sums that would leave the double range
        (0.3, -40.5, 650.0, {}, DomainError),
        (1.5, 0.5, -25.0, {}, DomainError),
        # a non-finite a or b, on every branch and at z = 0
        (-math.inf, 0.5, -40.0, {}, DomainError),
        (-math.inf, 0.5, -1.0, {}, DomainError),
        (-math.inf, 0.5, 0.0, {}, DomainError),
        (0.3, math.inf, -40.0, {}, DomainError),
        (0.3, math.inf, -1.0, {}, DomainError),
        (0.3, math.inf, 0.0, {}, DomainError),
    ],
)
def test_refusals_match_scalar(a, b, z, ctl, error, monkeypatch):
    set_limits(monkeypatch, ctl)
    with pytest.raises(error):
        phi_oracle(a, b, z)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused without a numpy warning
        with pytest.raises(error):
            kummer_phi(a, b, z)
        # the refused point among points that pass on their own is still refused
        passing = [x for x in (0.0, -0.5, -2.0, -50.0, -1e4) if passes(a, b, x)]
        zs = np.array(passing[:2] + [z] + passing[2:])
        with pytest.raises(error):
            _kummer_phi_array(a, b, zs)


@pytest.mark.parametrize("a,b,z", [(0.3, -40.5, 650.0), (5.0, 0.5, 690.0)])
def test_direct_series_overflow_is_refused(a, b, z):
    # a general Phi's direct series passes 1.8e308 here (to -inf and to +inf);
    # b < 0, a > b and z > 0 are outside the domain, refused before any term
    # and with no numpy overflow warning, 100 below as at z
    assert_refused(a, b, [1.0, 600.0, z, 2.0, z - 100.0])
    with mp.workdps(40):
        assert mp.isfinite(mp.hyp1f1(a, b, z - 100.0))
