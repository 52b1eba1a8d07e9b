"""The array path of Kummer's function against the scalar ``kummer_phi``.

``_kummer_phi_array`` sums the reflection and large-|z| branches for whole
arrays of arguments; the scalar function is its oracle, element by element,
for values and for refusals alike.
"""

import numpy as np
import pytest

from multiflow.errors import ConvergenceError, DomainError, MultiflowError, PoleError
from multiflow.specfun import (
    SeriesControl,
    _kummer_phi_array,
    _series_1f1,
    _series_1f1_array,
    kummer_phi,
)


def scalar_phi(a, b, zs, ctl=SeriesControl()):
    return np.array([kummer_phi(a, b, float(z), ctl) for z in zs])


def passes(a, b, z, ctl):
    try:
        kummer_phi(a, b, z, ctl)
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
    # same terms, same order, same last term: the reflection sums are identical
    zs = np.geomspace(1e-8, 30.0, 500)
    for a, b, ctl in [(0.225, 0.5, SeriesControl()), (0.8, 1.3, SeriesControl(rel_tol=1e-5))]:
        want = [_series_1f1(a, b, float(z), ctl) for z in zs]
        np.testing.assert_array_equal(_series_1f1_array(a, b, zs, ctl), want)


@pytest.mark.parametrize("a,b", [(0.0, 0.5), (0.5, 0.5), (-1.5, 0.5)])
def test_shortcuts_and_scalar_fallback(a, b):
    # a = 0 and a = b are closed forms; b - a <= 0 has no array reflection
    zs = np.array([0.0, -1e-3, -2.5, -29.0, 3.0])
    np.testing.assert_allclose(_kummer_phi_array(a, b, zs), scalar_phi(a, b, zs), rtol=1e-14)


def test_two_dimensional_input_keeps_its_shape():
    zs = -np.geomspace(1e-3, 1e3, 12).reshape(3, 4)
    got = _kummer_phi_array(0.3, 0.5, zs)
    assert got.shape == (3, 4)
    np.testing.assert_allclose(got.ravel(), scalar_phi(0.3, 0.5, zs.ravel()), rtol=1e-14)


@pytest.mark.parametrize(
    "a,b,z,ctl,error",
    [
        # reflection series cut after two terms
        (0.3, 0.5, -5.0, SeriesControl(max_terms=2), ConvergenceError),
        # asymptotic series too coarse at its smallest term
        (10.0, 0.5, -40.0, SeriesControl(), ConvergenceError),
        # positive z falls back to the scalar series, also cut short
        (0.3, 0.7, 5.0, SeriesControl(max_terms=2), ConvergenceError),
        # the leading asymptotic term vanishes
        (1.5, 0.5, -40.0, SeriesControl(), DomainError),
        (0.3, -2.0, -5.0, SeriesControl(), PoleError),
    ],
)
def test_refusals_match_scalar(a, b, z, ctl, error):
    with pytest.raises(error):
        kummer_phi(a, b, z, ctl)
    # the refused point among points that pass on their own is still refused
    passing = [x for x in (0.0, -0.5, -2.0, -50.0, -1e4) if passes(a, b, x, ctl)]
    zs = np.array(passing[:2] + [z] + passing[2:])
    with pytest.raises(error):
        _kummer_phi_array(a, b, zs, ctl)
