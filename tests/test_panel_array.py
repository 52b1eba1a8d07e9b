"""The decade-panel rule of the binomial dispersion on whole sigma arrays.

``binomial_time_integral`` sums an array of sigma in blocks of
``specfun._PANEL_BLOCK`` uppers.  Every element must carry the bits of its
own scalar call, and of the one-upper rule written out below, wherever it
sits in a block and whatever decade count it needs; every refusal of the
scalar call must apply to each element.
"""

import math
import tracemalloc

import numpy as np
import pytest

from conftest import binomial_spec
from multiflow import specfun
from multiflow.dispersion import (
    binomial_time_integral,
    dispersion_multiscale_weighted,
    sample_dispersion,
)
from multiflow.errors import DomainError
from multiflow.measure import multiscale_weight
from multiflow.spectral import _weighted_flow_and_dispersion, spectral_weighted_flow

SEED = 20130409
BLOCK = specfun._PANEL_BLOCK
LENGTHS = [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5]


def one_upper_rule(beta_star: float, lstar: float, sigma: float) -> float:
    """The rule for one sigma, on (decades, order) arrays, with no blocks."""
    if sigma == 0.0:
        return 0.0
    power = beta_star - 1.0
    ratio = sigma / lstar
    decades = 18 + (math.ceil(math.log10(ratio)) - 7 if ratio > 1e7 else 0)
    nodes, weights = specfun._panel_rule()
    lo = sigma * 10.0 ** -np.arange(decades, 0, -1, dtype=float)
    half = 4.5 * lo
    x = (lo + half)[:, None] + half[:, None] * nodes
    body = math.fsum(half * ((1.0 / (1.0 + (x / lstar) ** power)) @ weights))
    head = sigma * 10.0 ** (-decades) if power > 0.0 else 0.0
    return head + body


def _beta_stars() -> list[float]:
    rng = np.random.default_rng([SEED, 300])
    poles = [1.0 + sign / k for k in (2, 3, 4, 8, 40) for sign in (1.0, -1.0)]
    return [*rng.uniform(0.0, 2.0, 4).tolist(), *poles, 1.0 + 1e-12, 1.0 - 1e-12]


def _sigmas(n: int, lstar: float, seed: int) -> np.ndarray:
    """sigma/lstar log-uniform in [1e-30, 1e30], about one in eight zero."""
    rng = np.random.default_rng([SEED, 301, n, seed])
    sig = lstar * 10.0 ** rng.uniform(-30.0, 30.0, n)
    sig[rng.random(n) < 0.125] = 0.0
    return sig


@pytest.mark.parametrize("n", LENGTHS)
def test_array_equals_scalar_calls(n):
    for i, beta_star in enumerate(_beta_stars()):
        lstar = 0.7 if i % 2 else 1.0
        sig = _sigmas(n, lstar, i)
        got = binomial_time_integral(beta_star, lstar, sig)
        assert isinstance(got, np.ndarray) and got.shape == sig.shape
        for s, value in zip(sig.tolist(), got.tolist()):
            assert value == binomial_time_integral(beta_star, lstar, s), (beta_star, lstar, s)
            assert value == one_upper_rule(beta_star, lstar, s), (beta_star, lstar, s)


def test_one_array_mixes_decade_counts_and_zeros():
    sig = np.array([0.0, 1e-30, 1.0, 1e7, 3e7, 1e12, 0.0, 1e30, 2.0])
    got = binomial_time_integral(1.5, 1.0, sig)
    assert got[0] == 0.0 and got[6] == 0.0
    assert got.tolist() == [binomial_time_integral(1.5, 1.0, s) for s in sig.tolist()]


@pytest.mark.parametrize("panel_block", [1, 7])
def test_block_size_does_not_move_bits(monkeypatch, panel_block):
    sig = _sigmas(3 * BLOCK + 5, 1.0, 0)
    expected = binomial_time_integral(0.5, 1.0, sig)
    monkeypatch.setattr(specfun, "_PANEL_BLOCK", panel_block)
    assert np.array_equal(binomial_time_integral(0.5, 1.0, sig), expected)


def test_float_in_float_out():
    for sigma in (0.0, 1.0, np.float64(37.0)):
        assert type(binomial_time_integral(0.5, 1.0, sigma)) is float
    assert type(specfun.decade_panels(np.exp, 1.0, 18)) is float
    spec = binomial_spec(1.5, dim=2)
    assert type(dispersion_multiscale_weighted(spec, 2.0)) is float


@pytest.mark.parametrize(
    "bad", [-1.0, -math.inf, math.nan, math.inf, 1e-281, 1e281]
)
def test_one_bad_element_refused_like_its_scalar(bad):
    sig = np.geomspace(1e-3, 1e3, 2 * BLOCK + 3)
    with pytest.raises(DomainError) as scalar:
        binomial_time_integral(0.5, 1.0, bad)
    for at in (0, BLOCK, sig.size - 1):
        arr = sig.copy()
        arr[at] = bad
        with pytest.raises(DomainError) as array:
            binomial_time_integral(0.5, 1.0, arr)
        assert str(array.value) == str(scalar.value)


def test_scalar_refusals_hold_for_arrays():
    sig = np.array([0.0, 1.0])
    for beta_star, lstar in ((0.0, 1.0), (2.0, 1.0), (0.5, 0.0), (0.5, -1.0), (0.5, math.nan)):
        with pytest.raises(DomainError):
            binomial_time_integral(beta_star, lstar, sig)


def test_thousand_points_stay_in_blocks():
    # unblocked, the 1000 x 18 x 48 node array and its temporaries peak
    # near 20 MB; in blocks of 32 uppers they stay below 1 MB
    sig = np.geomspace(1e-6, 1e6, 1000)
    binomial_time_integral(0.5, 1.0, sig[:2])
    tracemalloc.start()
    try:
        binomial_time_integral(0.5, 1.0, sig)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


@pytest.mark.parametrize("fuzzy", [False, True])
def test_grid_routes_equal_scalar_route(fuzzy):
    # the dispersion, the sampled curve and the flow on a grid carry the
    # bits of their scalar calls and of the flow formula on Python floats
    beta_star = 0.5 if fuzzy else 1.25
    spec = binomial_spec(beta_star, dim=3, lstar=0.8, kappa=1.3, fuzzy=fuzzy)
    grid = np.geomspace(1e-4, 1e4, 2 * BLOCK + 9)
    scalar = [dispersion_multiscale_weighted(spec, s) for s in grid.tolist()]
    assert dispersion_multiscale_weighted(spec, grid).tolist() == scalar
    assert sample_dispersion(spec, grid, "closed-form").ell2.tolist() == scalar
    flow, ell2 = _weighted_flow_and_dispersion(spec, grid)
    assert ell2.tolist() == scalar
    weight = [multiscale_weight(s, spec.multiscale) for s in grid.tolist()]
    ds = [3 * 1.3 * s / (v * e) for s, v, e in zip(grid.tolist(), weight, scalar)]
    assert flow.ds.tolist() == ds
    assert [spectral_weighted_flow(spec, s) for s in grid.tolist()] == ds


def test_grid_route_refuses_nonpositive_sigma():
    spec = binomial_spec(0.5, dim=2)
    with pytest.raises(DomainError):
        _weighted_flow_and_dispersion(spec, np.array([1.0, 0.0, 2.0]))
    with pytest.raises(DomainError):
        dispersion_multiscale_weighted(spec, np.array([1.0, -2.0]))


@pytest.mark.parametrize("beta_star,flags", [
    (0.1, (True, False)), (0.5, (False, False)), (1.9, (True, False)),
    (1.0 + 1.0 / 45.5, (False, False)),
])
def test_plateau_flags_equal_scalar_probes(beta_star, flags):
    # the six plateau probes ride in the grid's array call; the flags are
    # those of six one-sigma calls
    spec = binomial_spec(beta_star, dim=4, lstar=0.8)
    flow, _ = _weighted_flow_and_dispersion(spec, np.geomspace(1e-3, 1e3, 40))
    uv = [spectral_weighted_flow(spec, 0.8 * 1e-6 * 10.0 ** k) for k in (2, 1, 0)]
    ir = [spectral_weighted_flow(spec, 0.8 * 1e6 * 10.0 ** (-k)) for k in (2, 1, 0)]

    def flat(values):
        return all(abs(b - a) < 1e-3 for a, b in zip(values, values[1:]))

    assert (flow.uv_converged, flow.ir_converged) == (flat(uv), flat(ir)) == flags
