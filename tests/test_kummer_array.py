"""Kummer's function against its term-by-term oracle and mpmath.

``_kummer_phi_array`` is the only engine of ``Phi(a; b; z)`` in the package:
it takes every branch and sums each branch's series for all its arguments
together, and ``kummer_phi`` is a one-element call of it.  The scalar loops
it replaced live here as the oracle: ``phi_oracle`` takes the branch of one
argument and sums its series term by term, with the same stopping rules and
refusals.  The engine is held to it element by element, for values and for
refusals alike, and to ``mpmath.hyp1f1`` on the branches the kernel trace
never takes.
"""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from multiflow.errors import ConvergenceError, DomainError, MultiflowError, PoleError
from multiflow.specfun import (
    _CANCELLATION_BAR,
    _PHI_ASYMPTOTIC_CUT,
    DEFAULT_CONTROL,
    SeriesControl,
    _is_nonpositive_integer,
    _kummer_phi_array,
    _series_1f1_array,
    gamma_fn,
    kummer_phi,
)


def series_oracle(a, b, z, ctl):
    """Direct Taylor sum of Phi(a;b;z), term by term.  Caller guarantees b has no pole.

    Sums 1 + t_1 + t_2 + ... with t_(n+1) = t_n (a+n)/(b+n) z/(n+1).  Stops
    after two consecutive small terms, trusted only past the denominator zero
    crossing n = -b of a negative b and while magnitudes decrease; refuses a
    sum whose roundoff floor (from its largest term) exceeds the bar, and a
    sum that leaves the double range.
    """
    crossing = -b if b < 0.0 else 0.0
    if crossing >= ctl.max_terms:
        raise ConvergenceError(f"Phi({a};{b};{z}) needs more than max_terms={ctl.max_terms} terms")
    total = 1.0
    term = 1.0
    peak = 1.0
    prev_abs = 1.0
    small_runs = 0
    for n in range(ctl.max_terms):
        term *= (a + n) / (b + n) * z / (n + 1)
        total += term
        if not math.isfinite(total):
            raise ConvergenceError(f"Phi({a};{b};{z}) series sum is not finite")
        peak = max(peak, abs(term))
        settled = n > crossing and abs(term) <= prev_abs
        prev_abs = abs(term)
        if settled and abs(term) <= max(ctl.abs_tol, ctl.rel_tol * abs(total)):
            small_runs += 1
            if small_runs >= 2:
                if 5e-16 * peak > _CANCELLATION_BAR(ctl) * abs(total):
                    raise ConvergenceError(f"Phi({a};{b};{z}) series cancellation")
                return total
        else:
            small_runs = 0
    raise ConvergenceError(f"Phi({a};{b};{z}) series did not converge within {ctl.max_terms} terms")


def asymptotic_oracle(a, b, z, ctl):
    """Phi(a;b;z) ~ Gamma(b)/Gamma(b-a) (-z)^(-a) sum_k (a)_k (a-b+1)_k / (k! (-z)^k),
    summed term by term to its smallest term."""
    if _is_nonpositive_integer(b - a):
        raise DomainError(f"asymptotic branch of Phi undefined for b - a = {b - a}")
    inv = 1.0 / (-z)
    total = 1.0
    term = 1.0
    prev = math.inf
    for k in range(ctl.max_terms):
        term *= (a + k) * (a - b + 1.0 + k) * inv / (k + 1)
        if abs(term) >= prev:
            break
        total += term
        prev = abs(term)
        if abs(term) <= max(ctl.abs_tol, ctl.rel_tol * abs(total)):
            break
    if prev > 1e-8 * abs(total):
        raise ConvergenceError(f"Phi({a};{b};{z}) asymptotic truncation floor {prev:.2e} too coarse")
    prefactor = gamma_fn(b) / gamma_fn(b - a) * (-z) ** (-a)
    return prefactor * total


def phi_oracle(a, b, z, ctl=DEFAULT_CONTROL):
    """The branch choice of Phi at one argument, with ``math.exp``."""
    if _is_nonpositive_integer(b):
        raise PoleError(f"Phi pole: b = {b}")
    if z == 0.0 or a == 0.0:
        return 1.0
    if a == b:
        try:
            return math.exp(z)
        except OverflowError as exc:
            raise ConvergenceError(f"Phi overflow for z = {z}") from exc
    if z > 0.0:
        if z > 700.0:
            raise ConvergenceError(f"Phi overflow for z = {z}")
        return series_oracle(a, b, z, ctl)
    if z <= -_PHI_ASYMPTOTIC_CUT:
        return asymptotic_oracle(a, b, z, ctl)
    if b > 0.0 and b - a > 0.0:
        return math.exp(z) * series_oracle(b - a, b, -z, ctl)
    return series_oracle(a, b, z, ctl)


def scalar_phi(a, b, zs, ctl=DEFAULT_CONTROL):
    return np.array([phi_oracle(a, b, float(z), ctl) for z in zs])


def passes(a, b, z, ctl):
    try:
        phi_oracle(a, b, z, ctl)
    except MultiflowError:
        return False
    return True


def sweep_points(rng):
    """z at 0, across (-30, 0), at -30 exactly, down to -1e4, plus a few z > 0."""
    return np.concatenate(
        [
            [0.0, -30.0, -np.nextafter(30.0, 0.0), -np.nextafter(30.0, 60.0), -1e-8, -1e4],
            -rng.uniform(0.0, 30.0, 300),
            -np.geomspace(1e-8, 30.0, 60),
            -np.exp(rng.uniform(np.log(30.0), np.log(1e4), 200)),
            rng.uniform(0.0, 20.0, 8),
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
    "ctl",
    [SeriesControl(rel_tol=1e-6), SeriesControl(abs_tol=1e-9, rel_tol=0.0), SeriesControl(max_terms=40)],
    ids=["rel-1e-6", "abs-1e-9", "max-terms-40"],
)
@pytest.mark.parametrize("a,b", [(0.275, 0.5), (-0.3, 0.5), (0.45, 1.3)])
def test_loose_controls_stop_where_scalar_stops(a, b, ctl):
    # a term more or less moves a loosely stopped sum far beyond 1e-14
    zs = sweep_points(np.random.default_rng(11))
    try:
        want = scalar_phi(a, b, zs, ctl)
    except MultiflowError as exc:
        with pytest.raises(type(exc)):
            _kummer_phi_array(a, b, zs, ctl)
        return
    np.testing.assert_allclose(_kummer_phi_array(a, b, zs, ctl), want, rtol=1e-14, atol=0.0)


def test_series_sums_bit_for_bit():
    # same terms, same order, same last term: the series sums are identical,
    # for positive b as for negative b with its zero crossing past a block
    zs = np.geomspace(1e-8, 30.0, 500)
    cases = [
        (0.225, 0.5, zs, SeriesControl()),
        (0.8, 1.3, zs, SeriesControl(rel_tol=1e-5)),
        (0.3, -40.5, np.concatenate([zs[zs < 20.0], -zs[zs < 8.0]]), SeriesControl()),
        (0.8, 0.6, -zs[zs < 12.0], SeriesControl()),
    ]
    for a, b, z, ctl in cases:
        want = [series_oracle(a, b, float(x), ctl) for x in z]
        np.testing.assert_array_equal(_series_1f1_array(a, b, z, ctl), want)


@pytest.mark.parametrize("a,b", [(0.0, 0.5), (0.5, 0.5), (-1.5, 0.5)])
def test_shortcuts_and_scalar_fallback(a, b):
    # a = 0 and a = b are closed forms; the rest mixes every other branch
    zs = np.array([0.0, -1e-3, -2.5, -29.0, 3.0])
    np.testing.assert_allclose(_kummer_phi_array(a, b, zs), scalar_phi(a, b, zs), rtol=1e-14)


def test_two_dimensional_input_keeps_its_shape():
    zs = -np.geomspace(1e-3, 1e3, 12).reshape(3, 4)
    got = _kummer_phi_array(0.3, 0.5, zs)
    assert got.shape == (3, 4)
    np.testing.assert_allclose(got.ravel(), scalar_phi(0.3, 0.5, zs.ravel()), rtol=1e-14)


def abs_series(a, b, z):
    """sum |t_n| of the direct series at 40 digits: the scale of its roundoff."""
    with mp.workdps(40):
        term, total, n = mp.mpf(1), mp.mpf(1), 0
        while n < 60 or abs(term) > mp.mpf(10) ** -40 * total:
            term *= (a + n) / mp.mpf(b + n) * z / (n + 1)
            total += abs(term)
            n += 1
        return total


# (a, b, z) on the branches only the scalar code took before the array
# engine took them all, every point accepted by the oracle
BRANCH_POINTS = {
    # direct series, z > 0, up to the overflow cut
    "z-positive": [(0.3, 0.7, z) for z in (1e-3, 0.5, 3.0, 20.0, 100.0, 400.0, 699.0)]
    + [(-0.4, 0.5, z) for z in (2.0, 50.0, 300.0)],
    # negative b, zero crossing past the first 32-term block; a sum stopped
    # before the crossing misses the resurgent terms by 4e-6 at
    # (-0.4, -40.5, 10) and by 3e-5 at (3.7, -50.5, 10)
    "b-negative": [(0.3, -40.5, z) for z in (0.5, 5.0, 20.0, -0.5, -5.0)]
    + [(-0.4, -40.5, 10.0), (-20.3, -40.5, 20.0), (1.2, -40.5, 3.0), (3.7, -50.5, 10.0)]
    + [(0.3, -2.5, z) for z in (1.0, 10.0, -10.0)],
    # b - a <= 0 at -30 < z < 0: the direct series, alternating
    "b-minus-a-nonpositive": [(0.8, 0.6, z) for z in (-0.5, -3.0, -10.0)]
    + [(1.5, 0.5, z) for z in (-3.0, -8.0)] + [(2.25, 1.5, z) for z in (-1.0, -5.0, -12.0)],
    # Phi(a; a; z) = e^z
    "a-equals-b": [(0.7, 0.7, z) for z in (-29.0, -5.0, 5.0, 700.0, 709.0)],
}


@pytest.mark.parametrize("branch", sorted(BRANCH_POINTS))
def test_branches_against_oracle_and_mpmath(branch):
    for a, b, z in BRANCH_POINTS[branch]:
        got = kummer_phi(a, b, z)
        assert math.isclose(got, phi_oracle(a, b, z), rel_tol=1e-14, abs_tol=0.0), (a, b, z)
        with mp.workdps(40):
            want = mp.hyp1f1(a, b, z)
            # roundoff of a double sum grows with its largest terms
            cond = 1.0 if a == b else float(abs_series(a, b, z) / abs(want))
            assert abs(got - want) <= 1e-13 * cond * abs(want), (a, b, z, cond)


@pytest.mark.parametrize(
    "a,b",
    [(0.3, 0.7), (0.3, -40.5), (0.8, 0.6), (0.7, 0.7), (0.25, 0.5), (-0.4, 0.5)],
)
def test_mixed_branch_array_equals_one_element_calls(a, b):
    # every branch in one array; each element gets the bits it gets alone
    zs = np.array([0.0, 5.0, 300.0, -0.5, -4.0, -29.0, -30.0, -75.0, -1e4, 1e-9, -1e-9])
    keep = [z for z in zs if passes(a, b, float(z), DEFAULT_CONTROL)]
    assert len(keep) >= 6
    got = _kummer_phi_array(a, b, np.array(keep))
    for z, value in zip(keep, got):
        assert value == _kummer_phi_array(a, b, np.array([z]))[0] == kummer_phi(a, b, z)
    np.testing.assert_allclose(got, scalar_phi(a, b, keep), rtol=1e-14, atol=0.0)


@pytest.mark.parametrize(
    "a,b,z,ctl,error",
    [
        # reflection series cut after two terms
        (0.3, 0.5, -5.0, SeriesControl(max_terms=2), ConvergenceError),
        # asymptotic series too coarse at its smallest term
        (10.0, 0.5, -40.0, SeriesControl(), ConvergenceError),
        # positive z takes the direct series, also cut short
        (0.3, 0.7, 5.0, SeriesControl(max_terms=2), ConvergenceError),
        # the leading asymptotic term vanishes
        (1.5, 0.5, -40.0, SeriesControl(), DomainError),
        (0.3, -2.0, -5.0, SeriesControl(), PoleError),
        # Phi(a; a; z) = e^z overflows
        (0.5, 0.5, 800.0, SeriesControl(), ConvergenceError),
        (0.5, 0.5, 710.0, SeriesControl(), ConvergenceError),
        # the direct series is refused above z = 700
        (0.3, 0.7, 700.5, SeriesControl(), ConvergenceError),
        # the zero crossing of b = -40.5 lies beyond max_terms
        (0.3, -40.5, 5.0, SeriesControl(max_terms=40), ConvergenceError),
        # b - a <= 0: the alternating direct series cancels to e^z (1 + 2z) = 0
        (1.5, 0.5, -0.5, SeriesControl(), ConvergenceError),
        # below the z = 700 cut the direct series still leaves the double range
        (0.3, -40.5, 650.0, SeriesControl(), ConvergenceError),
        (5.0, 0.5, 690.0, SeriesControl(), ConvergenceError),
        # b - a <= 0 again, stopping past the first 32-term block: the peak is carried
        (1.5, 0.5, -25.0, SeriesControl(), ConvergenceError),
    ],
)
def test_refusals_match_scalar(a, b, z, ctl, error):
    with pytest.raises(error):
        phi_oracle(a, b, z, ctl)
    with pytest.raises(error):
        kummer_phi(a, b, z, ctl)
    # the refused point among points that pass on their own is still refused
    passing = [x for x in (0.0, -0.5, -2.0, -50.0, -1e4) if passes(a, b, x, ctl)]
    zs = np.array(passing[:2] + [z] + passing[2:])
    with pytest.raises(error):
        _kummer_phi_array(a, b, zs, ctl)


@pytest.mark.parametrize("a,b,z", [(0.3, -40.5, 650.0), (5.0, 0.5, 690.0)])
def test_direct_series_overflow_is_refused(a, b, z):
    # these sums pass 1.8e308 (to -inf and to +inf) well below the z = 700 cut;
    # the refusal comes without a numpy overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="sum is not finite"):
            kummer_phi(a, b, z)
        with pytest.raises(ConvergenceError, match="sum is not finite"):
            _kummer_phi_array(a, b, np.array([1.0, 600.0, z, 2.0]))
        # 100 below, the same sums are finite and agree with mpmath
        near = kummer_phi(a, b, z - 100.0)
    with mp.workdps(40):
        assert abs(near - float(mp.hyp1f1(a, b, z - 100.0))) <= 1e-13 * abs(near)
