"""The dispersion and the flow of every model on whole sigma arrays.

``binomial_time_integral`` sums an array of sigma in blocks of
``specfun._PANEL_BLOCK`` uppers.  Every element must carry the bits of its
own scalar call, and of the one-upper rule written out below, wherever it
sits in a block and whatever decade count it needs; every refusal of the
scalar call must apply to each element.  The other closed forms, and
``spectral.flow_curve`` on them, are held to their scalar formulas written
out on Python floats.  So are the heat-kernel traces of every model on a
grid, and a density slice of every model is held to its one-point calls.
"""

import importlib
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import binomial_spec, flow_at
from multiflow import kernel, specfun
from multiflow.dispersion import (
    DiffusionSpec,
    binomial_time_integral,
    dispersion,
    dispersion_quadrature,
    q_time_profile,
)
from multiflow.errors import DomainError
from multiflow.kernel import (
    PER_HAUSDORFF_VOLUME,
    PER_INTEGER_VOLUME,
    heat_kernel_curve,
    pdf,
    return_probability,
)
from multiflow.measure import FractionalCharges, GeometryScales
from multiflow.spectral import flow_curve

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
    factors, weights = specfun._panel_rule()
    lo = sigma / 10.0 ** np.arange(decades, 0, -1, dtype=float)
    # the nodes of decade [lo, 10 lo] are lo * c and its weights lo * w
    ratio_powers = ((lo / lstar) ** power)[:, None]
    integrand = 1.0 / (1.0 + ratio_powers * factors ** power)
    body = math.fsum(lo * (integrand @ weights))
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
    assert type(specfun.decade_panels(0.5, 1.0, 1.0, 18)) is float
    spec = binomial_spec(1.5, dim=2)
    assert type(dispersion(spec, 2.0)) is float


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
    # unblocked, the 1000 x 18 x 16 node array and its temporaries peak
    # near 3.1 MiB; in blocks of 96 uppers they stay below 0.5 MiB, so a
    # 1 MiB bound tells the two apart
    sig = np.geomspace(1e-6, 1e6, 1000)
    binomial_time_integral(0.5, 1.0, sig[:2])
    tracemalloc.start()
    try:
        binomial_time_integral(0.5, 1.0, sig)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@pytest.mark.parametrize("fuzzy", [False, True])
def test_grid_routes_equal_scalar_route(fuzzy):
    # the dispersion and the flow on a grid carry the bits of their scalar
    # calls and of the flow formula on Python floats
    beta_star = 0.5 if fuzzy else 1.25
    spec = binomial_spec(beta_star, dim=3, lstar=0.8, kappa=1.3, fuzzy=fuzzy)
    grid = np.geomspace(1e-4, 1e4, 2 * BLOCK + 9)
    scalar = [dispersion(spec, s) for s in grid.tolist()]
    assert dispersion(spec, grid).tolist() == scalar
    flow, ell2 = flow_curve(spec, grid)
    assert ell2.tolist() == scalar
    weight = [sum(g * s ** (c - 1.0) for g, c in spec.multiscale.terms) for s in grid.tolist()]
    ds = [3 * 1.3 * s / (v * e) for s, v, e in zip(grid.tolist(), weight, scalar)]
    assert flow.ds.tolist() == ds
    assert [flow_at(spec, s) for s in grid.tolist()] == ds


def test_grid_route_refuses_nonpositive_sigma():
    spec = binomial_spec(0.5, dim=2)
    with pytest.raises(DomainError):
        flow_curve(spec, np.array([1.0, 0.0, 2.0]))
    with pytest.raises(DomainError, match="^sigma must be positive, got nan$"):
        flow_curve(spec, np.array([1.0, math.nan, 2.0]))
    with pytest.raises(DomainError):
        dispersion(spec, np.array([1.0, -2.0]))


@pytest.mark.parametrize("beta_star,flags", [
    (0.1, (True, False)), (0.5, (False, False)), (1.9, (True, False)),
    (1.0 + 1.0 / 45.5, (False, False)),
])
def test_plateau_flags_equal_scalar_probes(beta_star, flags):
    # the six plateau probes ride in the grid's array call; the flags are
    # those of six one-sigma calls
    spec = binomial_spec(beta_star, dim=4, lstar=0.8)
    flow, _ = flow_curve(spec, np.geomspace(1e-3, 1e3, 40))
    uv = [flow_at(spec, 0.8 * 1e-6 * 10.0 ** k) for k in (2, 1, 0)]
    ir = [flow_at(spec, 0.8 * 1e6 * 10.0 ** (-k)) for k in (2, 1, 0)]

    def flat(values):
        return all(abs(b - a) < 1e-3 for a, b in zip(values, values[1:]))

    assert (flow.uv_converged, flow.ir_converged) == (flat(uv), flat(ir)) == flags


# the closed forms without a binomial time measure, on shared scales
_SCALES = GeometryScales(lstar=0.8, lbar=0.5, kappa=1.3, nu=0.8, beta=0.6)
OTHER_MODELS = {
    "fixed-weighted": DiffusionSpec(model="weighted", dim=3, scales=_SCALES),
    "fixed-ordinary": DiffusionSpec(
        model="ordinary", dim=2, scales=GeometryScales(kappa=1.3, beta=0.5),
        charges=FractionalCharges.isotropic(0.5, 2),
    ),
    # the q model reads no nu (its clock is beta), and only fixed
    # dimensionality reads lbar
    "q-binomial": DiffusionSpec(
        model="q", dim=4, scales=replace(_SCALES, nu=1.0, lbar=0.0),
        beta_star=0.5,
    ),
    "q-single-term": DiffusionSpec(model="q", dim=4, scales=GeometryScales(kappa=1.3, beta=0.7)),
    "legacy": DiffusionSpec(
        model="legacy", dim=3, scales=replace(_SCALES, lbar=0.0),
        charges=FractionalCharges((0.5, 0.7, 0.9)),
    ),
}


def scalar_dispersion(spec: DiffusionSpec, s: float) -> float:
    """The closed forms of the scalar dispersion, on Python floats."""
    sc = spec.scales
    if spec.model == "legacy":
        return sc.kappa * s
    if spec.model == "q":
        return sc.kappa * sum(g * s ** c for g, c in q_time_profile(spec).terms)
    exponent = 1.0 + sc.nu - sc.beta
    return sc.lbar ** 2 + sc.kappa * specfun.gamma_fn(sc.beta) / exponent * s ** exponent


def scalar_q_flow(spec: DiffusionSpec, s: float) -> float:
    terms = q_time_profile(spec).terms
    return spec.dim * sum(g * c * s ** c for g, c in terms) / sum(g * s ** c for g, c in terms)


def _grid(n: int) -> np.ndarray:
    # log-uniform over 16 decades: numpy's vectorised power would differ
    # from pow in the last bit on a few percent of these
    rng = np.random.default_rng([SEED, 302, n])
    return np.unique(10.0 ** rng.uniform(-8.0, 8.0, n))


@pytest.mark.filterwarnings("ignore::multiflow.spectral.LegacyAnsatzWarning")
@pytest.mark.parametrize("name", sorted(OTHER_MODELS))
def test_every_model_on_a_grid_equals_its_scalar_formula(name):
    spec = OTHER_MODELS[name]
    grid = _grid(1000)
    with_zero = np.concatenate([[0.0], grid])
    expected = [scalar_dispersion(spec, s) for s in with_zero.tolist()]
    assert dispersion(spec, with_zero).tolist() == expected
    assert [dispersion(spec, s) for s in with_zero.tolist()] == expected
    assert all(type(dispersion(spec, s)) is float for s in (0.0, 2.0, np.float64(3.0)))
    assert dispersion(spec, with_zero.reshape(7, -1)).shape == (7, 143)
    flow, ell2 = flow_curve(spec, grid)
    assert ell2.tolist() == expected[1:]
    if spec.model == "q":
        ds = [scalar_q_flow(spec, s) for s in grid.tolist()]
        assert [flow_at(spec, s) for s in grid.tolist()] == ds
    else:
        ds = [flow.uv_asymptote] * grid.size
    assert flow.ds.tolist() == ds


@pytest.mark.parametrize("name", sorted(OTHER_MODELS) + ["weighted", "fuzzy"])
def test_negative_sigma_refused_before_any_work(name, monkeypatch):
    spec = OTHER_MODELS.get(name) or binomial_spec(0.5, dim=2, fuzzy=name == "fuzzy")
    with pytest.raises(DomainError) as scalar:
        dispersion(spec, -2.0)

    def no_work(*args):
        raise AssertionError("evaluated before the sigma check")

    # the package binds the name ``dispersion`` to the function
    module = importlib.import_module("multiflow.dispersion")
    monkeypatch.setattr(module, "powers", no_work)
    monkeypatch.setattr(module, "decade_panels", no_work)
    with pytest.raises(DomainError) as array:
        dispersion(spec, np.array([1.0, 0.0, -2.0, 3.0]))
    assert str(array.value) == str(scalar.value) == "sigma must be nonnegative, got -2.0"
    # nan <= 0 is false: the sign rule once let nan through to a nan result
    for bad in (math.nan, np.array([1.0, math.nan, 2.0])):
        with pytest.raises(DomainError, match="^sigma must be nonnegative, got nan$"):
            dispersion(spec, bad)
    # the quadrature oracle takes the same rule, in the same words
    with pytest.raises(DomainError) as closed:
        dispersion(spec, -1.0)
    with pytest.raises(DomainError) as quadrature:
        dispersion_quadrature(spec, -1.0)
    assert str(quadrature.value) == str(closed.value) == "sigma must be nonnegative, got -1.0"


@pytest.mark.filterwarnings("ignore::multiflow.spectral.LegacyAnsatzWarning")
@pytest.mark.parametrize("name", sorted(OTHER_MODELS))
def test_plateau_flags_of_every_model(name):
    # the probes sit at lstar * 1e-6 ... lstar * 1e6 whatever the model;
    # the scale-free flows are flat, the q flows flat only where a charge wins
    spec = OTHER_MODELS[name]
    flow, _ = flow_curve(spec, np.geomspace(1e-3, 1e3, 40))
    if spec.model != "q":
        assert flow.uv_converged and flow.ir_converged
        return
    lstar = spec.scales.lstar
    uv = [scalar_q_flow(spec, lstar * 1e-6 * 10.0 ** k) for k in (2, 1, 0)]
    ir = [scalar_q_flow(spec, lstar * 1e6 * 10.0 ** (-k)) for k in (2, 1, 0)]

    def flat(values):
        return all(abs(b - a) < 1e-3 for a, b in zip(values, values[1:]))

    assert (flow.uv_converged, flow.ir_converged) == (flat(uv), flat(ir))
    assert flow.model == "q"


# every model of the kernel: the closed forms above, a binomial time measure
# with fractional charges, and the ordinary model in one dimension and with
# a binomial space measure
KERNEL_MODELS = {
    **OTHER_MODELS,
    "weighted": binomial_spec(0.5, dim=2, alpha=0.6),
    "ordinary-d1": DiffusionSpec(
        model="ordinary", dim=1, scales=_SCALES, charges=FractionalCharges.isotropic(0.4, 1)
    ),
    "ordinary-multiscale-space": DiffusionSpec(
        model="ordinary", dim=2, scales=GeometryScales(lstar=0.8, beta=1.0),
        charges=FractionalCharges.isotropic(0.5, 2), multiscale_space=True,
    ),
}


@pytest.mark.filterwarnings("ignore::multiflow.spectral.LegacyAnsatzWarning")
@pytest.mark.parametrize("name", sorted(KERNEL_MODELS))
def test_every_trace_on_a_grid_equals_its_scalar_formula(name):
    spec = KERNEL_MODELS[name]
    if spec.model == "ordinary":
        # box quadrature: the grid equals its one-sigma calls
        grid = np.geomspace(1e-2, 1e2, 9)
        expected = [return_probability(spec, s) for s in grid.tolist()]
    else:
        rng = np.random.default_rng([SEED, 303])
        grid = np.unique(10.0 ** rng.uniform(-2.0, 4.0, 300))
        ell2 = [
            scalar_dispersion(spec, s) if name in OTHER_MODELS else dispersion(spec, s)
            for s in grid.tolist()
        ]
        if spec.model == "legacy":
            expected = [e ** (-spec.dim * spec.charges.average / 2.0) for e in ell2]
        else:
            expected = [(4.0 * math.pi * e) ** (-spec.dim / 2.0) for e in ell2]
        assert [return_probability(spec, s) for s in grid.tolist()] == expected
    curve = heat_kernel_curve(spec, grid)
    assert curve.Z.tolist() == expected
    hausdorff = spec.model in ("q", "ordinary")
    assert curve.convention == (PER_HAUSDORFF_VOLUME if hausdorff else PER_INTEGER_VOLUME)


@pytest.mark.parametrize("name", sorted(KERNEL_MODELS))
def test_pdf_slice_equals_its_point_calls(name):
    spec = KERNEL_MODELS[name]
    rng = np.random.default_rng([SEED, 304])
    points = rng.uniform(-6.0, 6.0, (400, spec.dim))
    x0 = rng.uniform(-2.0, 2.0, spec.dim)
    for sigma in (1e-3, 0.7, 40.0):
        densities = pdf(spec, points, x0, sigma)
        assert densities.shape == (400,)
        assert densities.tolist() == [pdf(spec, p, x0, sigma) for p in points]
    assert type(pdf(spec, points[0], x0, 1.0)) is float
    assert pdf(spec, points[:1], x0, 1.0).shape == (1,)
    with pytest.raises(DomainError):
        pdf(spec, np.ones((3, spec.dim + 1)), x0, 1.0)


@pytest.mark.filterwarnings("ignore::multiflow.spectral.LegacyAnsatzWarning")
@pytest.mark.parametrize("name", sorted(KERNEL_MODELS))
def test_kernel_refuses_nonpositive_sigma_before_any_work(name, monkeypatch):
    # sigma = 0 would otherwise reach 0.0 ** (-D/2) in the closed-form trace
    spec = KERNEL_MODELS[name]

    def no_work(*args):
        raise AssertionError("evaluated before the sigma check")

    monkeypatch.setattr(kernel, "dispersion", no_work)
    monkeypatch.setattr(kernel, "powers", no_work)
    point = np.ones(spec.dim)
    for bad in (0.0, -2.0, math.nan):
        calls = (
            lambda: pdf(spec, point, point, bad),
            lambda: pdf(spec, np.ones((3, spec.dim)), point, bad),
            lambda: return_probability(spec, bad),
            lambda: heat_kernel_curve(spec, np.array([bad, 1.0, 2.0])),
        )
        for call in calls:
            with pytest.raises(DomainError) as refused:
                call()
            assert str(refused.value) == f"sigma must be positive, got {bad}"
