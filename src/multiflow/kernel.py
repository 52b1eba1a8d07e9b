"""Probability densities, normalization constants, and heat-kernel traces.

Every model shares a Gaussian core; they differ in how the measure weight
enters.  The weighted model divides the Gaussian by the position weight, the
ordinary model keeps the bare Gaussian but acquires a position-dependent
normalization built from Kummer's function Phi((1 - alpha)/2; 1/2;
-x^2/(4 ell^2)), whose arguments always lie in its domain b > 0, a < b,
z <= 0, and the q model is an ordinary Gaussian in geometric coordinates.
Return probabilities are traces of these densities per unit volume, with
the volume convention an explicit tag since it decides the spectral
dimension one reads off.  Each is one lookup of the model's law:
:func:`pdf` evaluates a whole slice of points from one ell^2, and every
trace grid takes its ell^2 from one ``dispersion`` call.  The position
weight, the trace's per-axis tables and the box volume read one per-axis
term table, :func:`_axis_terms`: the spec's spatial profile in a
multiscale space, else one fractional term per direction.

The ordinary-model trace with fixed charges is a product of one factor per
direction.  In u = x/(2 ell) the factor of charge alpha is 2 G_alpha(U),
G_alpha(U) = 1/Gamma(alpha/2) int_0^U u^(alpha-1)/Phi((1-alpha)/2; 1/2; -u^2) du,
so sigma enters only through U = L/(2 ell) >= 6 for a box of half-width L.
A trace call builds one table of G_alpha(sqrt(30)) per distinct charge,
:func:`_g_table`, with one call of the array engine
``specfun._kummer_phi_array`` on Gauss-Legendre panels in ln u, whose
order-24 sum is checked against the order-40 sum; each sigma then adds the
closed-form tail from sqrt(30) to U and makes no Kummer call.  In a
one-dimensional multiscale space the binomial bracket is exact, and the
trace is 2 I(lam, U)/vol_H with
I(lam, U) = int_0^U (1 + lam u^(alpha-1)/Gamma(alpha)) /
(sqrt(pi) + lam Gamma(alpha/2)/Gamma(alpha) Phi((1-alpha)/2; 1/2; -u^2)) du,
lam = (lstar/(2 ell))^(1-alpha): :func:`_binomial_axis` takes Phi on the
same panels from one Kummer call per trace call and from DLMF 13.7.2 past
sqrt(30), and checks the order-24 sum against the order-40 sum per sigma.
At D >= 2 the two-term bracket does not factorize, and the trace is a box
quadrature of v(x) C(x, sigma): each axis is integrated over [0, L]
with doubled weights, on panels that start at the origin, since a panel
across x = 0 would see |u|^(2/alpha) in u = |x|^alpha, which is not smooth
there.  Its order-24 sum is checked against the order-40 sum, which is
returned, per sigma; the cases of consecutive sigmas go to one Kummer call,
a block of at most :data:`_PHI_CHUNK` arguments at a time.  It becomes a
product of the same per-axis factors only once the normalization keeps the
whole product bracket, whose 2^D terms factorize; the two extreme terms it
keeps now are exact at D = 1 alone.  The scalar
``kummer_phi`` is left to the pointwise normalization,
:func:`ordinary_normalization`, which shares its Gamma-ratio prefactors with
the binomial bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Sequence

import numpy as np

from .dispersion import _MODELS, DiffusionSpec, check_dispersion, dispersion
from .errors import BoxError, ConvergenceError, DomainError, SingularPointError
from .grid import check_grid, check_sigma, log_slope, powers
from .measure import geometric_profile
from .specfun import _kummer_phi_array, gamma_fn, kummer_phi

__all__ = [
    "HeatKernelCurve",
    "PER_INTEGER_VOLUME",
    "PER_HAUSDORFF_VOLUME",
    "gaussian_pdf",
    "ordinary_normalization",
    "pdf",
    "position_weight",
    "return_probability",
    "check_trace",
    "heat_kernel_curve",
    "ds_from_kernel",
]

PER_INTEGER_VOLUME = "per-unit-integer-volume"
PER_HAUSDORFF_VOLUME = "per-hausdorff-volume"

# Minimum box half-width in units of the diffusion length for trace quadrature.
_BOX_ELL_FACTOR = 12.0
_BOX_LSTAR_FACTOR = 10.0
# Gauss-Legendre order per panel of the binomial box rule and of the G_alpha
# table, and of the refinement check of each: the order-24 sum must be within
# _GL_RTOL of the order-40 sum, which is returned.
_GL_ORDER = 24
_GL_REFINE = 40
_GL_RTOL = 1e-7
# The G_alpha table of the fixed-charge trace: the power series of 1/Phi on
# [0, 0.1], one decade panel in ln u, then four panels of equal width in ln u
# out to u^2 = _G_CUT.  Every Kummer argument -u^2 then lies in (-30, 0).  At
# small charges 1/Phi climbs as e^(u^2) until u^2 is about ln(1/alpha), and
# needs the narrower panels: one panel on [1, sqrt(30)] left the order-40 sum
# 4e-10 off at alpha = 0.002.
_G_CUT = 30.0
_G_EDGES = (0.1, 1.0, *(_G_CUT ** (k / 8.0) for k in range(1, 4)), math.sqrt(_G_CUT))
# Terms of the power series of 1/Phi at u <= 0.1, below 1e-20 of its sum, and
# of the large-u series past sqrt(30), which diverges there past about 30
# terms: 30 leave G_alpha within 3e-15 of mpmath at alpha >= 0.02, 20 left 8e-14.
_G_SERIES_TERMS = 12
_G_TAIL_TERMS = 30
# The smallest fixed charge whose G_alpha holds 1e-12 of mpmath: the e^(-u^2)
# term of the tail grows as 1/alpha, and the table's Kummer values lose
# about 1e-16/alpha to the rounding of (1 - alpha)/2.
_G_ALPHA_MIN = 1e-3


@dataclass(frozen=True)
class HeatKernelCurve:
    """Sampled return probability Z(sigma) with its volume convention."""

    sigmas: np.ndarray
    Z: np.ndarray
    convention: str
    model: str

    def __post_init__(self) -> None:
        sig = np.asarray(self.sigmas, dtype=float)
        zz = np.asarray(self.Z, dtype=float)
        object.__setattr__(self, "sigmas", sig)
        object.__setattr__(self, "Z", zz)
        if self.convention not in (PER_INTEGER_VOLUME, PER_HAUSDORFF_VOLUME):
            raise DomainError(f"unknown volume convention {self.convention!r}")
        check_grid(sig, zz)
        if np.any(zz <= 0.0):
            raise DomainError("return probability must be positive")
        # equal neighbours are allowed: a trace can be flat to double
        # precision, as the weighted model with lbar > 0 is at small sigma
        if np.any(np.diff(zz) > 0.0):
            raise DomainError("return probability must not increase")


def _as_point(x, dim: int) -> np.ndarray:
    pt = np.atleast_1d(np.asarray(x, dtype=float))
    if pt.shape != (dim,):
        raise DomainError(f"point {x!r} does not match dimension {dim}")
    return pt


def _as_rows(x, dim: int) -> tuple[np.ndarray, bool]:
    """Points as an (N, D) array, and whether ``x`` was one point of shape (D,)."""
    rows = np.asarray(x, dtype=float)
    if rows.ndim == 2 and rows.shape[1] == dim:
        return rows, False
    return _as_point(x, dim)[None, :], True


def _exp_factors(rows: np.ndarray, x0p: np.ndarray, ell2: float) -> np.ndarray:
    """exp(-|x - x0|^2 / (4 ell^2)) at each row, each exp on a Python float."""
    r2 = np.sum((rows - x0p) ** 2, axis=-1)
    return np.array([math.exp(-r / (4.0 * ell2)) for r in r2.tolist()])


def gaussian_pdf(x, x0, ell2: float, dim: int):
    """Isotropic Gaussian exp(-|x-x0|^2/(4 ell^2)) / (4 pi ell^2)^(D/2).

    ``x`` is one point, shape (D,), giving a float, or an (N, D) array of
    points, giving N densities.
    """
    if ell2 <= 0.0:
        raise DomainError(f"ell2 must be positive, got {ell2}")
    rows, one = _as_rows(x, dim)
    density = _exp_factors(rows, _as_point(x0, dim), ell2) / (4.0 * math.pi * ell2) ** (dim / 2.0)
    return float(density[0]) if one else density


def _axis_terms(spec: DiffusionSpec) -> list[tuple[tuple[float, float], ...]]:
    """Per direction, the (g, c) terms of its weight sum g |x|^(c-1)/Gamma(c),
    in charge order: the spec's spatial profile in a multiscale space, else
    the one term (1, alpha_mu)."""
    if spec.spatial_profile is not None:
        return [spec.spatial_profile.terms] * spec.dim
    return [((1.0, a),) for a in spec.charges.alphas]


def position_weight(spec: DiffusionSpec, x) -> float:
    """Position-space measure weight v(x) of a spec at point x: the product
    over directions of their :func:`_axis_terms` sums, |x|^(alpha-1)/Gamma(alpha)
    or, in a multiscale space, lstar^(1-alpha) |x|^(alpha-1)/Gamma(alpha) + 1.
    A direction with a charge below 1 raises :class:`SingularPointError` at
    x = 0."""
    w = 1.0
    for xi, terms in zip(_as_point(x, spec.dim).tolist(), _axis_terms(spec)):
        if xi == 0.0 and terms[0][1] < 1.0:
            raise SingularPointError(f"weight singular at x = 0 for alpha = {terms[0][1]}")
        w *= sum(g * abs(xi) ** (c - 1.0) / gamma_fn(c) for g, c in terms)
    return w


def _weighted_density(spec: DiffusionSpec, rows: np.ndarray, x0p: np.ndarray, ell2: float) -> np.ndarray:
    """The Gaussian over the position weight, normalized against the measure
    and self-similar with s = (1 + nu - beta)/2; the legacy ansatz's too."""
    weights = np.array([position_weight(spec, row) for row in rows])
    return gaussian_pdf(rows, x0p, ell2, spec.dim) / weights


def _q_density(spec: DiffusionSpec, rows: np.ndarray, x0p: np.ndarray, ell2: float) -> np.ndarray:
    """A Gaussian in geometric coordinates, normalized against v = dq/dx."""
    alphas = spec.charges.alphas
    q0 = [geometric_profile(xi, a) for xi, a in zip(x0p.tolist(), alphas)]
    root = math.sqrt(4.0 * math.pi * ell2)
    return np.array([
        math.prod(math.exp(-((geometric_profile(xi, a) - q0i) ** 2) / (4.0 * ell2)) / root
                  for xi, q0i, a in zip(row, q0, alphas))
        for row in rows.tolist()
    ])


_DENSITIES = {
    "weighted": _weighted_density, "legacy": _weighted_density, "q": _q_density,
    # C(x0, sigma) exp(-|x-x0|^2/(4 ell^2)), one normalization per call
    "ordinary": lambda spec, rows, x0, ell2: _normalization_at(x0, ell2, spec) * _exp_factors(rows, x0, ell2),
}


def pdf(spec: DiffusionSpec, x, x0, sigma: float):
    """Model density at one point, shape (D,), or at each row of an (N, D)
    array: one point gives a float, N points N densities, each with the bits
    of its one-point call.  ell^2(sigma) comes from one :func:`dispersion`
    call, and the density from the model's law in :data:`_DENSITIES`."""
    check_sigma(sigma)
    rows, one = _as_rows(x, spec.dim)
    x0p = _as_point(x0, spec.dim)
    ell2 = dispersion(spec, sigma)
    if ell2 <= 0.0:
        raise DomainError(f"dispersion must be positive, got {ell2}")
    density = _DENSITIES[spec.model](spec, rows, x0p, ell2)
    return float(density[0]) if one else density


def _kummer_prefactor(alpha: float, length: float) -> float:
    """Gamma(a/2)/Gamma(a) length^a: the factor of Phi[(1-a)/2; 1/2; z] in
    one direction of the inverse normalization, at length = 2 ell."""
    return gamma_fn(alpha / 2.0) / gamma_fn(alpha) * length ** alpha


def _bracket_terms(dim: int, alpha: float, lstar: float, ell2: float) -> tuple[float, float]:
    """Gaussian term and Phi-product coefficient of the binomial bracket of C^-1:
    (4 pi ell^2)^(D/2) and lstar^D (Gamma(a/2)/Gamma(a) (2 ell/lstar)^a)^D."""
    ell = math.sqrt(ell2)
    return (4.0 * math.pi * ell2) ** (dim / 2.0), lstar ** dim * _kummer_prefactor(
        alpha, 2.0 * ell / lstar
    ) ** dim


def ordinary_normalization(x0, sigma: float, spec: DiffusionSpec) -> float:
    """Normalization C(x0, sigma) of the ordinary-Laplacian Gaussian.

    Defined by 1 = C int d^Dx v(x) exp(-|x-x0|^2 / (4 ell^2)).  For the
    fixed-dimensionality fractional measure the integral factorizes into the
    exact per-direction Kummer form; for a binomial spatial profile the
    two extreme terms of the expanded product are kept (exact in one
    dimension).  At D >= 2 the density then has mass int v C exp(...) d^Dx
    other than 1: at alpha = 0.5, lstar = 1 and an off-origin x0 it is
    1.97-3.74 for sigma in [1e-3, 1] (1.28 at D = 2 and 1.50 at D = 3 at
    sigma = 1e3).  As sigma -> 0 it approaches [(4 pi ell^2)^(D/2)
    v(x0)]^(-1), restoring the measure-weighted delta initial condition.
    """
    return _normalization_at(x0, dispersion(spec, sigma), spec)


def _normalization_at(x0, ell2: float, spec: DiffusionSpec) -> float:
    """:func:`ordinary_normalization` at the dispersion ell2 = ell^2(sigma)."""
    if ell2 <= 0.0:
        raise DomainError(f"dispersion must be positive, got {ell2}")
    ell = math.sqrt(ell2)
    x0p = _as_point(x0, spec.dim)
    if spec.multiscale_space:
        alpha = spec.charges.alphas[0]
        phi_product = 1.0
        for xi in x0p:
            phi_product *= kummer_phi((1.0 - alpha) / 2.0, 0.5, -(xi ** 2) / (4.0 * ell2))
        gauss_norm, bracket_coeff = _bracket_terms(spec.dim, alpha, spec.scales.lstar, ell2)
        return 1.0 / (gauss_norm + bracket_coeff * phi_product)
    inverse = 1.0
    for xi, a in zip(x0p, spec.charges.alphas):
        inverse *= _kummer_prefactor(a, 2.0 * ell) * kummer_phi(
            (1.0 - a) / 2.0, 0.5, -(xi ** 2) / (4.0 * ell2)
        )
    return 1.0 / inverse


@cache
def _gl_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


def _panel_edges(center: float, upper: float) -> list[tuple[float, float]]:
    """Half-axis panels: [0, c] plus decade-spaced outer panels out to the box.

    The integrand is even in every coordinate, so only [0, L] is integrated.
    The origin is a panel edge, never an interior point: in u = |x|^alpha the
    integrand holds |u|^(2/alpha), which is smooth on either side of 0 but
    not across it, so a panel spanning 0 converges only algebraically.  The
    central panel isolates the width-ell transition zone of the
    normalization; the decade splitting keeps the slowly decaying power-law
    corrections polynomial-friendly on every panel.
    """
    if center >= upper:
        return [(0.0, upper)]
    edges = [0.0, center]
    while edges[-1] * 10.0 < upper:
        edges.append(edges[-1] * 10.0)
    edges.append(upper)
    return list(zip(edges, edges[1:]))


def _axis_rule(
    order: int, halfwidth: float, transition: float, charge: float
) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss rule for one axis term of charge c, returned as (x
    nodes, weights).

    The nodes are positive and the weights doubled: the rule integrates an
    even function over [-L, L].  It integrates in u = |x|^c, removing the
    |x|^(c-1) endpoint singularity, with the transition scale mapped along;
    at c = 1, u is x to the bit.
    """
    upper = halfwidth ** charge
    lo, hi = np.array(_panel_edges(min(transition ** charge, upper), upper)).T
    gl_nodes, gl_weights = _gl_rule(order)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    nodes = (mid[:, None] + half[:, None] * gl_nodes).ravel() ** (1.0 / charge)
    return nodes, (2.0 * half[:, None] * gl_weights).ravel()


def _axis_tables(spec: DiffusionSpec, halfwidth: float, transition: float, order: int):
    """Per-direction (prefactor, x nodes, weights) tables, one entry per
    :func:`_axis_terms` term: g |x|^(c-1)/Gamma(c) is integrated in u = |x|^c
    with prefactor g/Gamma(c + 1).  The binomial profile's two terms per
    direction expand into 2^D combinations.  Terms of one charge share one
    rule."""
    terms = _axis_terms(spec)
    charges = {c for axis in terms for _, c in axis}
    rules = {c: _axis_rule(order, halfwidth, transition, c) for c in charges}
    return [[(g / gamma_fn(c + 1.0), *rules[c]) for g, c in axis] for axis in terms]


# Largest number of grid cells the binomial box sum holds at once.
_SLICE_CELLS = 1 << 16
# Largest number of Kummer arguments of one trace block: the array series
# holds four float and three bool (32 x arguments) work arrays, about 1.1 MB
# at 1024 arguments.
_PHI_CHUNK = 1 << 10


def _bracket_box_sum(
    gauss_norm: float, coeff: float, phis: list[np.ndarray], weights: list[np.ndarray]
) -> float:
    """sum of w / (gauss_norm + coeff prod_mu Phi_mu) over the tensor grid of the axes.

    The grid of the axes after the first is flattened once; the first axis
    is reduced in slices of at most :data:`_SLICE_CELLS` cells, so no N^D
    array is built for D = 3.
    """
    rest_phi, rest_w = np.ones(1), np.ones(1)
    for p, w in zip(phis[1:], weights[1:]):
        rest_phi = np.multiply.outer(rest_phi, p).ravel()
        rest_w = np.multiply.outer(rest_w, w).ravel()
    first_phi, first_w = coeff * phis[0], weights[0]
    rows = max(1, _SLICE_CELLS // rest_phi.size)
    total = 0.0
    for start in range(0, first_phi.size, rows):
        cells = gauss_norm + np.multiply.outer(first_phi[start : start + rows], rest_phi)
        total += float(first_w[start : start + rows] @ ((1.0 / cells) @ rest_w))
    return total


def _case_totals(spec: DiffusionSpec, block: list) -> list[float]:
    """Binomial box sums of a block of ``(ell2, axis table)`` cases, the
    table of one axis, which every axis of the isotropic space shares.

    Kummer's function is evaluated in one array call over the nodes of the
    whole block; the array path works element by element, so the blocking
    moves no bit.
    """
    alpha = spec.charges.alphas[0]
    zs = [-(x_nodes * x_nodes) / (4.0 * ell2) for ell2, entries in block for _, x_nodes, _ in entries]
    values = _kummer_phi_array((1.0 - alpha) / 2.0, 0.5, np.concatenate(zs))
    phis = iter(np.split(values, np.cumsum([z.size for z in zs[:-1]])))

    totals = []
    for ell2, entries in block:
        # charge order: the fractional term, then the constant one
        (frac_g, _, frac_w), (_, _, const_w) = entries
        frac_phi, const_phi = next(phis), next(phis)
        gauss_norm, bracket_coeff = _bracket_terms(spec.dim, alpha, spec.scales.lstar, ell2)
        total = 0.0
        for k in range(spec.dim + 1):  # k fractional axes, dim - k constant ones
            total += math.comb(spec.dim, k) * frac_g ** k * _bracket_box_sum(
                gauss_norm, bracket_coeff,
                [frac_phi] * k + [const_phi] * (spec.dim - k),
                [frac_w] * k + [const_w] * (spec.dim - k),
            )
        totals.append(total)
    return totals


def _trace_quadrature(
    spec: DiffusionSpec, cases: Sequence[tuple[float, float, int]]
) -> list[float]:
    """Box integrals of v(x) C(x, sigma) for the ordinary model in a
    multiscale space.

    One total per ``(ell2, box half-width, Gauss order)`` case.  Every axis
    is integrated over [0, L] with doubled weights (the integrand is even in
    each coordinate).  Consecutive cases are gathered into blocks of at most
    :data:`_PHI_CHUNK` Kummer arguments (a case with more makes a block of
    its own), and each block takes one Kummer call, so the memory held
    stays flat however many cases there are.

    The binomial bracket does not factorize, but it is symmetric under a
    permutation of the axes: of its 2^D term combinations only the number k
    of fractional axes matters, so D + 1 box sums with weights C(D, k) make
    the total.
    """
    totals, block, held = [], [], 0
    for ell2, halfwidth, order in cases:
        # the normalization varies on the diffusion-length scale around the
        # origin; a few-ell central panel plus decade panels resolve it
        entries = _axis_tables(spec, halfwidth, 4.0 * math.sqrt(ell2), order)[0]
        size = sum(x_nodes.size for _, x_nodes, _ in entries)
        if block and held + size > _PHI_CHUNK:
            totals += _case_totals(spec, block)
            block, held = [], 0
        block.append((ell2, entries))
        held += size
    return totals + _case_totals(spec, block)


def _hausdorff_box_volume(spec: DiffusionSpec, halfwidth: float) -> float:
    """Closed-form measure volume of the cubic box [-L, L]^D: the product
    over directions of the :func:`_axis_terms` sums g 2 L^c/Gamma(c + 1)."""
    vol = 1.0
    for terms in _axis_terms(spec):
        vol *= sum(g * 2.0 * halfwidth ** c / gamma_fn(c + 1.0) for g, c in terms)
    return vol


def _box_for(spec: DiffusionSpec, ell2: float) -> float:
    """Default box half-width at dispersion ell2: max(12 ell, 10 lstar)."""
    return max(_BOX_ELL_FACTOR * math.sqrt(ell2), _BOX_LSTAR_FACTOR * spec.scales.lstar)


def return_probability(
    spec: DiffusionSpec, sigma: float, box_halfwidth: float | None = None
) -> float:
    """Return probability Z(sigma) under the model's volume convention: the
    one-sigma call of :func:`heat_kernel_curve`'s trace path."""
    return float(_traces(spec, np.array([sigma], dtype=float), box_halfwidth)[0])


def check_trace(spec: DiffusionSpec) -> None:
    """Every refusal of a trace that the spec alone decides: those of
    :func:`dispersion.check_dispersion`, and, where the model's ``kernel``
    row reads a multiscale space (the ordinary model), D <= 3 on one, whose
    binomial box sum at D >= 2 is O(N^D), and every charge of a per-axis
    trace at or above :data:`_G_ALPHA_MIN`: with fixed charges, at any D,
    where the floor is the G_alpha table's 1e-12, and in a one-dimensional
    multiscale space, whose per-axis integral :func:`_binomial_axis` is held
    to 1e-12 of mpmath down to the same floor."""
    check_dispersion(spec)
    if "multiscale_space" not in _MODELS[spec.model].commands.get("kernel", ()):
        return
    if spec.multiscale_space and spec.dim > 3:
        raise DomainError(f"the {spec.model}-model trace needs dim <= 3, got {spec.dim}")
    smallest = min(spec.charges.alphas)
    if (not spec.multiscale_space or spec.dim == 1) and smallest < _G_ALPHA_MIN:
        space = "in a multiscale space" if spec.multiscale_space else "with fixed charges"
        raise DomainError(
            f"the {spec.model}-model trace {space} needs alpha >= {_G_ALPHA_MIN:g}, "
            f"got alpha = {smallest}"
        )


def _reciprocal_series(coeffs: list[float]) -> list[float]:
    """The coefficients of 1/f, as many as given, of a power series f with f_0 = 1."""
    inverse = [1.0]
    for k in range(1, len(coeffs)):
        inverse.append(-sum(coeffs[j] * inverse[k - j] for j in range(1, k + 1)))
    return inverse


def _series_coefficients(alpha: float) -> tuple[list[float], list[float]]:
    """The coefficients of Phi((1-alpha)/2; 1/2; -w) in w = u^2, the
    :data:`_G_SERIES_TERMS` of the series at u <= 0.1, and of the large-u
    series S(t) = sum (a)_s (1 - alpha/2)_s/s! t^s of DLMF 13.7.2,
    a = (1 - alpha)/2, the :data:`_G_TAIL_TERMS` used past sqrt(30)."""
    a = (1.0 - alpha) / 2.0
    phi = [1.0]
    for k in range(1, _G_SERIES_TERMS):
        phi.append(-phi[-1] * (a + k - 1.0) / ((k - 0.5) * k))
    s = [1.0]
    for k in range(1, _G_TAIL_TERMS):
        s.append(s[-1] * (a + k - 1.0) * (k - alpha / 2.0) / k)
    return phi, s


def _head_table(alpha: float) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """The Gauss-Legendre panels of :data:`_G_EDGES` in ln u at orders
    :data:`_GL_ORDER` and :data:`_GL_REFINE`: the nodes u of both orders in
    one array, Phi((1-alpha)/2; 1/2; -u^2) at them from one
    ``_kummer_phi_array`` call, every argument in (-30, 0), and the ln-u
    weights of each order, whose nodes come in that order."""
    edges = np.log(_G_EDGES)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    nodes, weights = [], []
    for order in (_GL_ORDER, _GL_REFINE):
        gl_nodes, gl_weights = _gl_rule(order)
        nodes.append(np.exp(mid[:, None] + half[:, None] * gl_nodes).ravel())
        weights.append((half[:, None] * gl_weights).ravel())
    u = np.concatenate(nodes)
    return u, _kummer_phi_array((1.0 - alpha) / 2.0, 0.5, -(u * u)), weights


def _g_table(alpha: float):
    """G_alpha(U) = 1/Gamma(alpha/2) int_0^U u^(alpha-1)/Phi((1-alpha)/2; 1/2; -u^2) du
    as a function of U >= sqrt(30) that makes no Kummer call.

    In u = x/(2 ell) one axis of the fixed-charge trace integrates to
    2 G_alpha(L/(2 ell)).  G_alpha(sqrt(30)) is summed on :data:`_G_EDGES`:
    the power series of 1/Phi in u^2 on [0, 0.1], each term integrated
    against u^(alpha-1), then u^alpha/Phi on Gauss-Legendre panels in ln u,
    at both orders in one Kummer call; orders that differ by more than
    :data:`_GL_RTOL` raise :class:`ConvergenceError`.  Past sqrt(30), DLMF
    13.7.2 gives Phi = sqrt(pi)/Gamma(alpha/2) u^(alpha-1) S(u^-2), with S
    the series sum (a)_s (1 - alpha/2)_s/s! t^s, a = (1 - alpha)/2, plus an
    e^(-u^2) term.  The first makes the integrand 1/(sqrt(pi) S), integrated
    term by term in 1/S.  The second, of relative size Gamma(alpha/2)/Gamma(a)
    cos(pi alpha/2) e^(-u^2) u^(1 - 2 alpha) (2.9e-10 at alpha = 0.002 and
    u^2 = 30), adds its integral from sqrt(30) on, to first order in u^-2,
    whose next order is about 1e-3 of it; the part of that integral beyond
    U >= 6 is dropped, 4e-14 of G_alpha at alpha = 0.001.
    """
    phi, s = _series_coefficients(alpha)
    first = _G_EDGES[0]
    head = sum(e * first ** (alpha + 2 * k) / (alpha + 2 * k) for k, e in enumerate(_reciprocal_series(phi)))
    u, phi_nodes, weights = _head_table(alpha)
    values = np.split(u ** alpha / phi_nodes, [weights[0].size])
    coarse, fine = (head + float(w @ v) for w, v in zip(weights, values))
    if abs(fine - coarse) > _GL_RTOL * abs(fine):
        raise ConvergenceError(f"trace table not converged: {coarse!r} vs {fine!r} at alpha = {alpha}")

    # the antiderivative of 1/S(u^-2) is u + p(u^-2)/u
    p = [d / (1.0 - 2.0 * k) for k, d in enumerate(_reciprocal_series(s)) if k][::-1]

    def antiderivative(upper: float) -> float:
        y, total = 1.0 / (upper * upper), 0.0
        for coeff in p:
            total = total * y + coeff
        return (upper + total / upper) / math.sqrt(math.pi)

    # the e^(-u^2) term's integral, -Gamma(alpha/2)/Gamma(a) cos(pi alpha/2)
    # e^(-30) 30^(-alpha)/(2 sqrt(pi)) (1 - (alpha + r1 + 2 s1)/30): with
    # 1/Gamma(a) = Gamma(1 - a) cos(pi alpha/2)/pi and the duplication formula
    # it has no pole at alpha = 1, where it vanishes
    r1 = alpha * (1.0 + alpha) / 4.0
    exp_term = -(
        2.0 ** -alpha * gamma_fn(alpha) * math.cos(math.pi * alpha / 2.0) ** 2 / math.pi
        * math.exp(-_G_CUT) * _G_CUT ** -alpha * (1.0 - (alpha + r1 + 2.0 * s[1]) / _G_CUT)
    )
    const = fine / gamma_fn(alpha / 2.0) + exp_term - antiderivative(_G_EDGES[-1])
    return lambda upper: const + antiderivative(upper)


def _binomial_axis(alpha: float):
    """I(lam, U) = int_0^U (1 + lam u^(alpha-1)/Gamma(alpha)) /
    (sqrt(pi) + lam Gamma(alpha/2)/Gamma(alpha) Phi((1-alpha)/2; 1/2; -u^2)) du
    at orders :data:`_GL_ORDER` and :data:`_GL_REFINE`, as a function of
    arrays of lam > 0 and U >= sqrt(30) that makes no Kummer call.

    In u = x/(2 ell) the trace of a one-dimensional multiscale space
    integrates to 2 I(lam, L/(2 ell)), lam = (lstar/(2 ell))^(1-alpha): the
    binomial bracket is exact at D = 1, and sigma enters only through lam
    and U.  On [0, 0.1] the denominator's power series in u^2 is inverted,
    each term integrated against 1 and u^(alpha-1).  On [0.1, sqrt(30)] the
    integrand is one (sigma x node) array on the nodes of
    :func:`_head_table`, made once per call.  Past sqrt(30) DLMF 13.7.2
    gives Phi = sqrt(pi)/Gamma(alpha/2) u^(alpha-1) S(u^-2) + E(u), E the
    e^(-u^2) term sqrt(pi) cos(pi alpha/2)/Gamma(a) e^(-u^2) u^(-alpha)
    (1 - r1 u^-2), a = (1 - alpha)/2, with 1/Gamma(a) written as
    Gamma(1 - a) cos(pi alpha/2)/pi as in :func:`_g_table`.
    The integrand is then 1/sqrt(pi), integrated in closed form, less a
    remainder of order u^(alpha-3) taken on Gauss-Legendre panels in ln u,
    one per decade, the last cut at U.  The panels of all sigmas are
    evaluated as one array and summed per sigma.  E moves I by about 1e-11
    at alpha = 0.001 where lam is large and U small; a first panel of a
    quarter of ln u, where E lives, changed no result by more than 2e-16.
    """
    phi, s = _series_coefficients(alpha)
    u, phi_nodes, weights = _head_table(alpha)
    u_alpha, split = u ** alpha, weights[0].size
    first, root_pi = _G_EDGES[0], math.sqrt(math.pi)
    powers_one = [first ** (2 * k + 1) / (2 * k + 1) for k in range(len(phi))]
    powers_alpha = [first ** (alpha + 2 * k) / (alpha + 2 * k) for k in range(len(phi))]
    g_alpha, ratio = gamma_fn(alpha), gamma_fn(alpha / 2.0) / gamma_fn(alpha)
    r1 = alpha * (1.0 + alpha) / 4.0
    # sqrt(pi) cos(pi alpha/2)/Gamma(a), by 1/Gamma(a) = Gamma(1 - a) cos(pi alpha/2)/pi
    e_coeff = gamma_fn((1.0 + alpha) / 2.0) * math.cos(math.pi * alpha / 2.0) ** 2 / root_pi
    tau_cut, root_cut = 0.5 * math.log(_G_CUT), math.sqrt(_G_CUT)
    rules = [_gl_rule(order) for order in (_GL_ORDER, _GL_REFINE)]

    # in a box past u = 1e154 u^2 overflows to inf, whose u^-2 and e^(-u^2)
    # are the 0 they stand for
    @np.errstate(over="ignore")
    def integrals(lam: np.ndarray, uppers: np.ndarray) -> list[np.ndarray]:
        mu, k = lam / g_alpha, lam * ratio
        r = k / (root_pi + k)
        inverse = _reciprocal_series([1.0, *(r * c for c in phi[1:])])
        series = sum(e * (p + mu * q) for e, p, q in zip(inverse, powers_one, powers_alpha)) / (root_pi + k)
        f = (u + mu[:, None] * u_alpha) / (root_pi + k[:, None] * phi_nodes)
        heads = [(f[:, :split] * weights[0]).sum(axis=1), (f[:, split:] * weights[1]).sum(axis=1)]

        span = np.log(uppers) - tau_cut
        counts = np.maximum(np.ceil(span / math.log(10.0)).astype(int), 1)
        owner = np.repeat(np.arange(lam.size), counts)
        index = np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts, counts)
        offsets = math.log(10.0) * np.arange(counts.max() + 1)
        lo, hi = offsets[index], np.minimum(offsets[index + 1], span[owner])
        mid, half = (tau_cut + 0.5 * (hi + lo))[:, None], 0.5 * (hi - lo)[:, None]
        mu_p, k_p = mu[owner][:, None], k[owner][:, None]
        tails = []
        for gl_nodes, gl_weights in rules:
            tau = mid + half * gl_nodes
            x = np.exp(tau)
            y = 1.0 / (x * x)
            s_rest = np.zeros_like(y)  # (S - 1)/y
            for coeff in s[:0:-1]:
                s_rest = s_rest * y + coeff
            power = mu_p * np.exp((alpha - 1.0) * tau)
            e_term = k_p * e_coeff * np.exp(-(x * x) - alpha * tau) * (1.0 - r1 * y)
            # 1/sqrt(pi) less the integrand, times du/dtau = x
            rest = x * (root_pi * power * y * s_rest + e_term) / (
                root_pi * (root_pi * (1.0 + power * (1.0 + y * s_rest)) + e_term)
            )
            panels = (rest * (half * gl_weights)).sum(axis=1)
            tails.append(np.bincount(owner, weights=panels, minlength=lam.size))
        linear = (uppers - root_cut) / root_pi
        return [series + head + linear - tail for head, tail in zip(heads, tails)]

    return integrals


def _box_trace(spec: DiffusionSpec, sigmas, ell2s: np.ndarray, box_halfwidth) -> np.ndarray:
    """ordinary: the trace of the module doc per Hausdorff volume of the box.
    With fixed charges each sigma is read off one :func:`_g_table` per
    distinct charge at U = L/(2 ell) >= 6; in a one-dimensional multiscale
    space every sigma is 2 I(lam, U) of one :func:`_binomial_axis`, and at
    D >= 2 both orders of every sigma come from one :func:`_trace_quadrature`
    call.  Both multiscale rules refuse the first sigma whose orders differ
    by more than :data:`_GL_RTOL`."""
    boxes = []
    for ell2 in ell2s.tolist():
        ell = math.sqrt(ell2)
        halfwidth = _box_for(spec, ell2) if box_halfwidth is None else box_halfwidth
        if halfwidth < _BOX_ELL_FACTOR * ell:
            raise BoxError(
                f"box half-width {halfwidth} is below {_BOX_ELL_FACTOR} "
                f"diffusion lengths ({_BOX_ELL_FACTOR * ell:.3e}); boundary region would "
                "contaminate the trace"
            )
        boxes.append((ell2, ell, halfwidth))
    if not spec.multiscale_space:
        alphas = spec.charges.alphas
        tables = {a: _g_table(a) for a in set(alphas)}
        traces = []
        for _, ell, halfwidth in boxes:
            axis = {a: 2.0 * g_alpha(halfwidth / (2.0 * ell)) for a, g_alpha in tables.items()}
            traces.append(math.prod(axis[a] for a in alphas) / _hausdorff_box_volume(spec, halfwidth))
        return np.array(traces)
    if spec.dim == 1:
        alpha, lstar = spec.charges.alphas[0], spec.scales.lstar
        lam = np.array([(lstar / (2.0 * ell)) ** (1.0 - alpha) for _, ell, _ in boxes])
        uppers = np.array([halfwidth / (2.0 * ell) for _, ell, halfwidth in boxes])
        coarses, fines = ((2.0 * total).tolist() for total in _binomial_axis(alpha)(lam, uppers))
    else:
        cases = [(ell2, halfwidth, order) for ell2, _, halfwidth in boxes for order in (_GL_ORDER, _GL_REFINE)]
        totals = _trace_quadrature(spec, cases)
        coarses, fines = totals[::2], totals[1::2]
    traces = []
    for sigma, (_, _, halfwidth), coarse, fine in zip(sigmas.tolist(), boxes, coarses, fines):
        if abs(fine - coarse) > _GL_RTOL * abs(fine) + 1e-300:
            raise ConvergenceError(
                f"trace quadrature not converged: {coarse!r} vs {fine!r} at sigma = {sigma}"
            )
        traces.append(fine / _hausdorff_box_volume(spec, halfwidth))
    return np.array(traces)


def _gaussian_trace(spec: DiffusionSpec, sigmas, ell2s: np.ndarray, box_halfwidth) -> np.ndarray:
    """The measure-traced Gaussian (4 pi ell^2)^(-D/2), each power on a float."""
    return powers(4.0 * math.pi * ell2s, -spec.dim / 2.0)


_TRACES = {
    "weighted": _gaussian_trace, "q": _gaussian_trace, "ordinary": _box_trace,
    # the regularized power law ell^(-D alpha) with unit prefactor
    "legacy": lambda spec, sigmas, ell2s, box: powers(ell2s, -spec.dim * spec.charges.average / 2.0),
}


def _traces(spec: DiffusionSpec, sigmas: np.ndarray, box_halfwidth: float | None) -> np.ndarray:
    """Z at each sigma of a 1-d array under the model's volume convention,
    by its law in :data:`_TRACES`.  Every sigma is checked positive, and the
    spec by :func:`check_trace`, before any work; ell^2 of the whole array
    then comes from one :func:`dispersion` call."""
    check_sigma(sigmas)
    check_trace(spec)
    return _TRACES[spec.model](spec, sigmas, dispersion(spec, sigmas), box_halfwidth)


def heat_kernel_curve(
    spec: DiffusionSpec,
    sigmas: Sequence[float] | np.ndarray,
    box_halfwidth: float | None = None,
) -> HeatKernelCurve:
    """Sample Z(sigma) on a grid with the model's volume convention tag.

    The whole grid takes one dispersion call, and the ordinary-model traces
    one G_alpha table per distinct charge (fixed charges), one Phi table (a
    one-dimensional multiscale space) or one blocked quadrature call (a
    multiscale space at D >= 2, until the exact bracket makes it a product
    of per-axis tables); each value equals the one-sigma
    :func:`return_probability` bit for bit.
    """
    sig = np.asarray(sigmas, dtype=float)
    convention = PER_HAUSDORFF_VOLUME if _MODELS[spec.model].hausdorff_volume else PER_INTEGER_VOLUME
    return HeatKernelCurve(
        sigmas=sig, Z=_traces(spec, sig, box_halfwidth), convention=convention, model=spec.model
    )


def ds_from_kernel(curve: HeatKernelCurve, sigma: float) -> float:
    """Spectral dimension -2 dln Z/dln sigma at the grid point ``sigma`` of a
    log-uniform trace: the five-point stencil of :func:`grid.log_slope`."""
    return -2.0 * log_slope(curve.sigmas, curve.Z, sigma)
