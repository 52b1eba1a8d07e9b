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

The ordinary-model trace with fixed charges, and in a one-dimensional
multiscale space, where the binomial bracket is exact, is a product of one
factor per direction.  In u = x/(2 ell) the factor of charge alpha is
2 I_p(lam, U), with
I_p(lam, U) = int_0^U (p + lam u^(alpha-1)/Gamma(alpha)) /
(p sqrt(pi) + lam Gamma(alpha/2)/Gamma(alpha) Phi((1-alpha)/2; 1/2; -u^2)) du,
p the weight of the direction's constant term: 0 with fixed charges, where
lam cancels, and 1 in a multiscale space, where lam = (lstar/(2 ell))^(1-alpha).
sigma enters only through lam and U = L/(2 ell) >= 6 for a box of
half-width L.  A trace call is one pass over its sigma array: the boxes,
U and lam are arrays, and it makes one :func:`_axis_integral` call per
distinct charge with every sigma, one call of the array engine
``specfun._kummer_phi_array`` on Gauss-Legendre panels in ln u out to
sqrt(30), and takes Phi past sqrt(30) from DLMF 13.7.2; no sigma makes a
Kummer call.  One gate then refuses the first sigma whose order-24 product
differs from its order-40 product, or whose U, product or Z leaves the
double range, with :class:`ConvergenceError`.  In a multiscale space
at D >= 2 the two-term bracket does not factorize, and the trace is a box
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
from .errors import BoxError, ConvergenceError, DomainError, GridError, SingularPointError
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
# Gauss-Legendre order per panel of the binomial box rule and of the per-axis
# integral, and of the refinement check of each: per sigma, the order-24 sum
# must be within _GL_RTOL of the order-40 sum, which is returned.
_GL_ORDER = 24
_GL_REFINE = 40
_GL_RTOL = 1e-7
# The head of the per-axis integral: the power series of its denominator on
# [0, 0.1], one decade panel in ln u, then four panels of equal width in ln u
# out to u^2 = _G_CUT.  Every Kummer argument -u^2 then lies in (-30, 0).  At
# small charges 1/Phi climbs as e^(u^2) until u^2 is about ln(1/alpha), and
# needs the narrower panels: one panel on [1, sqrt(30)] left the order-40 sum
# 4e-10 off at alpha = 0.002.
_G_CUT = 30.0
_G_EDGES = (0.1, 1.0, *(_G_CUT ** (k / 8.0) for k in range(1, 4)), math.sqrt(_G_CUT))
# Terms of the power series of Phi at u <= 0.1, below 1e-20 of its sum, and
# of the large-u series past sqrt(30), which diverges there past about 30
# terms: 30 leave the fixed-charge integral within 3e-15 of mpmath at
# alpha >= 0.02, 20 left 8e-14.
_G_SERIES_TERMS = 12
_G_TAIL_TERMS = 30
# The smallest charge whose per-axis integral holds 1e-12 of mpmath: the
# e^(-u^2) term of the tail grows as 1/alpha, and the head's Kummer values
# lose about 1e-16/alpha to the rounding of (1 - alpha)/2.
_G_ALPHA_MIN = 1e-3
# Largest number of sigmas whose per-axis integrals are one array: the head
# of a per-sigma lam holds a few (sigma x 320) float arrays, about 0.2 MB
# each at 64 sigmas, and the tail one row per sigma and decade of U.
_SIGMA_BLOCK = 64


@dataclass(frozen=True)
class HeatKernelCurve:
    """Sampled return probability Z(sigma) with its volume convention: every
    Z finite, positive and not increasing."""

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
        if not np.all(np.isfinite(zz)):
            raise DomainError(f"return probability must be finite, got {zz[~np.isfinite(zz)][0]}")
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


def _hausdorff_box_volume(spec: DiffusionSpec, halfwidths) -> np.ndarray:
    """Closed-form measure volume of the cubic box [-L, L]^D at each
    half-width L of an array: the product over directions of the
    :func:`_axis_terms` sums g 2 L^c/Gamma(c + 1), with one ``gamma_fn``
    call per term and each L^c a scalar power (:func:`grid.powers`)."""
    vol = 1.0
    for terms in _axis_terms(spec):
        vol *= sum(g * 2.0 * powers(halfwidths, c) / gamma_fn(c + 1.0) for g, c in terms)
    return vol


def _box_for(spec: DiffusionSpec, ell2s) -> np.ndarray:
    """Default box half-width at each dispersion ell^2: max(12 ell, 10 lstar)."""
    return np.maximum(_BOX_ELL_FACTOR * np.sqrt(ell2s), _BOX_LSTAR_FACTOR * spec.scales.lstar)


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
    trace (fixed charges at any D, a multiscale space at D = 1) at or above
    :data:`_G_ALPHA_MIN`, down to which :func:`_axis_integral` is held to
    1e-12 of mpmath."""
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


# past u = 1e154 u^2 overflows to inf, whose u^-2 and e^(-u^2) are the 0 they stand for
@np.errstate(over="ignore")
def _axis_integral(alpha: float, p: float, lam: np.ndarray, uppers: np.ndarray) -> np.ndarray:
    """I_p(lam, U) = int_0^U (p + lam u^(alpha-1)/Gamma(alpha)) /
    (p sqrt(pi) + lam Gamma(alpha/2)/Gamma(alpha) Phi((1-alpha)/2; 1/2; -u^2)) du
    at each finite U >= sqrt(30) of ``uppers``, a (2, U) array of its order
    :data:`_GL_ORDER` and :data:`_GL_REFINE` values.  ``lam`` > 0 holds one
    value per U, or one value that every U shares.

    In u = x/(2 ell) one axis of the ordinary-model trace integrates to
    2 I_p(lam, L/(2 ell)), p the weight of the axis's constant term.  With
    fixed charges p = 0, lam cancels and I_0(U) = 1/Gamma(alpha/2)
    int_0^U u^(alpha-1)/Phi du; in a one-dimensional multiscale space p = 1,
    lam = (lstar/(2 ell))^(1-alpha), and sigma enters only through lam and
    U.  On [0, 0.1] the denominator's power series in u^2 is inverted, each
    term integrated against 1 and u^(alpha-1).  On [0.1, sqrt(30)] the
    integrand is one (lam x node) array on Gauss-Legendre panels in ln u
    over :data:`_G_EDGES`, whose nodes of both orders take Phi from one
    ``_kummer_phi_array`` call per call.  These two parts depend on lam
    alone: a shared lam takes them once per call.  Past sqrt(30) DLMF
    13.7.2 gives Phi = sqrt(pi)/Gamma(alpha/2) u^(alpha-1) S(u^-2) + E(u),
    S(t) = sum (a)_s (1 - alpha/2)_s/s! t^s, a = (1 - alpha)/2, and E the
    e^(-u^2) term sqrt(pi) cos(pi alpha/2)/Gamma(a) e^(-u^2) u^(-alpha)
    (1 - r1 u^-2), r1 = alpha (1 + alpha)/4, with 1/Gamma(a) written as
    Gamma(1 - a) cos(pi alpha/2)/pi, which has no pole at alpha = 1.  The
    integrand is then 1/sqrt(pi), integrated in closed form, less a
    remainder of order u^(alpha-3) taken on Gauss-Legendre panels in ln u,
    one per decade, the last cut at U.  The U are taken
    :data:`_SIGMA_BLOCK` at a time, and every operation is per U, so a
    value has the same bits in any block.  E moves I_1 by about 1e-11 at
    alpha = 0.001 where lam is large and U small; a first panel of a quarter
    of ln u, where E lives, changed no result by more than 2e-16.
    """
    a = (1.0 - alpha) / 2.0
    phi, s = [1.0], [1.0]
    for k in range(1, _G_SERIES_TERMS):
        phi.append(-phi[-1] * (a + k - 1.0) / ((k - 0.5) * k))
    for k in range(1, _G_TAIL_TERMS):
        s.append(s[-1] * (a + k - 1.0) * (k - alpha / 2.0) / k)
    rules = [_gl_rule(order) for order in (_GL_ORDER, _GL_REFINE)]
    edges = np.log(_G_EDGES)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    u = np.concatenate([np.exp(mid[:, None] + half[:, None] * nodes).ravel() for nodes, _ in rules])
    phi_nodes, u_alpha = _kummer_phi_array(a, 0.5, -(u * u)), u ** alpha
    # the weights of both orders side by side, as their nodes are
    head_weights = np.concatenate([(half[:, None] * weights).ravel() for _, weights in rules])
    tail_nodes, tail_weights = (np.concatenate(column) for column in zip(*rules))
    head_split, tail_split = (len(_G_EDGES) - 1) * _GL_ORDER, _GL_ORDER
    first, root_pi = _G_EDGES[0], math.sqrt(math.pi)
    powers_one = [first ** (2 * k + 1) / (2 * k + 1) for k in range(len(phi))]
    powers_alpha = [first ** (alpha + 2 * k) / (alpha + 2 * k) for k in range(len(phi))]
    g_alpha, ratio = gamma_fn(alpha), gamma_fn(alpha / 2.0) / gamma_fn(alpha)
    r1 = alpha * (1.0 + alpha) / 4.0
    # sqrt(pi) cos(pi alpha/2)/Gamma(a), by 1/Gamma(a) = Gamma(1 - a) cos(pi alpha/2)/pi
    e_coeff = gamma_fn((1.0 + alpha) / 2.0) * math.cos(math.pi * alpha / 2.0) ** 2 / root_pi
    tau_cut, root_cut = 0.5 * math.log(_G_CUT), math.sqrt(_G_CUT)

    def heads(lam: np.ndarray):
        """mu, k and the integral up to sqrt(30) at both orders, per lam."""
        mu, k = lam / g_alpha, lam * ratio
        r = k / (p * root_pi + k)
        coeffs, inverse = [r * c for c in phi], [1.0]  # 1/(1 + r (Phi - 1)) in u^2
        for n in range(1, len(phi)):
            inverse.append(-sum(coeffs[j] * inverse[n - j] for j in range(1, n + 1)))
        series = sum(
            e * (p * one + mu * q) for e, one, q in zip(inverse, powers_one, powers_alpha)
        ) / (p * root_pi + k)
        f = (p * u + mu[:, None] * u_alpha) / (p * root_pi + k[:, None] * phi_nodes)
        return mu, k, [series + part.sum(axis=1) for part in np.split(f * head_weights, [head_split], axis=1)]

    shared = heads(lam) if lam.size == 1 else None
    out = np.empty((2, uppers.size))
    for start in range(0, uppers.size, _SIGMA_BLOCK):
        rows = slice(start, start + _SIGMA_BLOCK)
        mu, k, head = shared or heads(lam[rows])
        upper = uppers[rows]
        span = np.log(upper) - tau_cut
        counts = np.maximum(np.ceil(span / math.log(10.0)).astype(int), 1)
        owner = np.repeat(np.arange(upper.size), counts)
        index = np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts, counts)
        offsets = math.log(10.0) * np.arange(counts.max() + 1)
        lo, hi = offsets[index], np.minimum(offsets[index + 1], span[owner])
        middle, width = (tau_cut + 0.5 * (hi + lo))[:, None], 0.5 * (hi - lo)[:, None]
        tau = middle + width * tail_nodes
        x = np.exp(tau)
        y = 1.0 / (x * x)
        s_rest = np.polynomial.polynomial.polyval(y, s[1:])  # (S - 1)/y
        # a shared lam is the one row 0 of mu and k
        power = mu[owner % mu.size][:, None] * np.exp((alpha - 1.0) * tau)
        e_term = k[owner % k.size][:, None] * e_coeff * np.exp(-(x * x) - alpha * tau) * (1.0 - r1 * y)
        # 1/sqrt(pi) less the integrand, times du/dtau = x
        rest = x * (root_pi * power * y * s_rest + e_term) / (
            root_pi * (root_pi * (p + power * (1.0 + y * s_rest)) + e_term)
        )
        tails = [
            np.bincount(owner, weights=part.sum(axis=1), minlength=upper.size)
            for part in np.split(rest * (width * tail_weights), [tail_split], axis=1)
        ]
        linear = (upper - root_cut) / root_pi
        out[:, rows] = [h + linear - t for h, t in zip(head, tails)]
    return out


def _box_trace(spec: DiffusionSpec, sigmas, ell2s: np.ndarray, box_halfwidth) -> np.ndarray:
    """ordinary: the trace of the module doc per Hausdorff volume of the box,
    in one pass over the sigma array.  With fixed charges and in a
    one-dimensional multiscale space it is the product over the axes of
    2 I_p(lam, U), one :func:`_axis_integral` call per distinct charge with
    every sigma; in a multiscale space at D = 2 and 3 both orders of every
    sigma come from one :func:`_trace_quadrature` call.  The first sigma
    whose box is below 12 ell is a :class:`BoxError`; a sigma whose U =
    L/(2 ell) is past the double range is refused before any integral, and
    then the first sigma whose orders differ by more than :data:`_GL_RTOL`,
    or whose product or Z is not finite and positive, is refused."""
    ells = np.sqrt(ell2s)
    halfwidths = _box_for(spec, ell2s) if box_halfwidth is None else np.full(ells.shape, float(box_halfwidth))
    small = np.flatnonzero(halfwidths < _BOX_ELL_FACTOR * ells)
    if small.size:
        raise BoxError(
            f"box half-width {halfwidths[small[0]]} is below {_BOX_ELL_FACTOR} "
            f"diffusion lengths ({_BOX_ELL_FACTOR * ells[small[0]]:.3e}); boundary region would "
            "contaminate the trace"
        )
    # a value past the double range is refused below by name, not warned of
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.multiscale_space and spec.dim > 1:
            orders = [_GL_ORDER, _GL_REFINE] * ells.size
            cases = zip(np.repeat(ell2s, 2).tolist(), np.repeat(halfwidths, 2).tolist(), orders)
            coarse, fine = np.reshape(_trace_quadrature(spec, list(cases)), (-1, 2)).T
        else:
            uppers = halfwidths / (2.0 * ells)
            overflow = np.flatnonzero(np.isinf(uppers))
            if overflow.size:
                raise ConvergenceError(
                    f"trace leaves the double range: U = L/(2 ell) = inf at sigma = {sigmas[overflow[0]]}"
                )
            # p, the weight of each axis's constant term; at p = 0 lam cancels
            p, lstar = float(spec.multiscale_space), spec.scales.lstar
            charges, which = np.unique(spec.charges.alphas, return_inverse=True)
            factors = [_axis_integral(c, p, powers(lstar / (2.0 * ells), 1.0 - c) if p else np.ones(1), uppers)
                       for c in charges.tolist()]
            coarse, fine = np.prod(2.0 * np.array(factors)[which], axis=0)
        traces = fine / _hausdorff_box_volume(spec, halfwidths)
        ok = (np.abs(fine - coarse) <= _GL_RTOL * np.abs(fine) + 1e-300) & (0.0 < traces) & (traces < math.inf)
    failed = np.flatnonzero(~ok)
    if failed.size:
        coarse, fine, z, sigma = (float(v[failed[0]]) for v in (coarse, fine, traces, sigmas))
        if 0.0 < z < math.inf:
            raise ConvergenceError(f"trace quadrature not converged: {coarse!r} vs {fine!r} at sigma = {sigma}")
        raise ConvergenceError(f"trace leaves the double range: Z = {z!r} (product {fine!r}) at sigma = {sigma}")
    return traces


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

    An empty grid is refused before any work.  The whole grid takes one
    dispersion call, and the ordinary-model traces one per-axis integral per
    distinct charge (fixed charges, and a one-dimensional multiscale space)
    or one blocked quadrature call (a multiscale space at D >= 2, until the
    exact bracket makes it a product of per-axis integrals); each value
    equals the one-sigma :func:`return_probability` bit for bit.
    """
    sig = np.asarray(sigmas, dtype=float)
    if not sig.size:  # before any work: every trace route reduces over the grid
        raise GridError("sigma grid needs at least 2 points, got 0")
    convention = PER_HAUSDORFF_VOLUME if _MODELS[spec.model].hausdorff_volume else PER_INTEGER_VOLUME
    return HeatKernelCurve(
        sigmas=sig, Z=_traces(spec, sig, box_halfwidth), convention=convention, model=spec.model
    )


def ds_from_kernel(curve: HeatKernelCurve, sigma: float) -> float:
    """Spectral dimension -2 dln Z/dln sigma at the grid point ``sigma`` of a
    log-uniform trace: the five-point stencil of :func:`grid.log_slope`."""
    return -2.0 * log_slope(curve.sigmas, curve.Z, sigma)
