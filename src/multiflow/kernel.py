"""Probability densities, normalization constants, and heat-kernel traces.

Every model shares a Gaussian core; they differ in how the measure weight
enters.  The weighted model divides the Gaussian by the position weight, the
ordinary model keeps the bare Gaussian but acquires a position-dependent
normalization built from Kummer's function, and the q model is an ordinary
Gaussian in geometric coordinates.  Return probabilities are traces of these
densities per unit volume, with the volume convention an explicit tag since
it decides the spectral dimension one reads off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import product
from typing import Sequence

import numpy as np

from .dispersion import DiffusionSpec, dispersion
from .errors import BoxError, ConvergenceError, DomainError, GridError
from .measure import (
    FractionalCharges,
    fractional_weight,
    geometric_profile,
    multiscale_weight,
)
from .specfun import _kummer_phi_array, gamma_fn, kummer_phi

__all__ = [
    "PdfEvaluation",
    "HeatKernelCurve",
    "PER_INTEGER_VOLUME",
    "PER_HAUSDORFF_VOLUME",
    "gaussian_pdf",
    "weighted_pdf",
    "ordinary_normalization",
    "ordinary_pdf",
    "q_pdf",
    "pdf_evaluate",
    "position_weight",
    "return_probability",
    "heat_kernel_curve",
    "ds_from_kernel",
    "fixed_dim_trace_slopes",
    "default_box_halfwidth",
]

PER_INTEGER_VOLUME = "per-unit-integer-volume"
PER_HAUSDORFF_VOLUME = "per-hausdorff-volume"

# Minimum box half-width in units of the diffusion length for trace quadrature.
_BOX_ELL_FACTOR = 12.0
_BOX_LSTAR_FACTOR = 10.0
# Gauss-Legendre order per panel for the trace quadrature and its refinement check.
_GL_ORDER = 40
_GL_REFINE = 64
_GL_RTOL = 1e-7


@dataclass(frozen=True)
class PdfEvaluation:
    """One density evaluation, tagged by model."""

    x: tuple[float, ...]
    x0: tuple[float, ...]
    sigma: float
    density: float
    model: str

    def __post_init__(self) -> None:
        if self.sigma <= 0.0:
            raise DomainError(f"sigma must be positive, got {self.sigma}")
        if self.density < 0.0:
            raise DomainError(f"densities are nonnegative, got {self.density}")


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
        if sig.ndim != 1 or zz.shape != sig.shape or sig.size < 2:
            raise GridError("curve needs matching 1-d sigma and Z arrays (>= 2 points)")
        if np.any(sig <= 0.0) or np.any(np.diff(sig) <= 0.0):
            raise GridError("sigma grid must be positive and strictly increasing")
        if np.any(zz <= 0.0):
            raise DomainError("return probability must be positive")
        if np.any(np.diff(zz) >= 0.0):
            raise DomainError("return probability must be strictly decreasing")

    def rows(self):
        for s, z in zip(self.sigmas, self.Z):
            yield s, z, self.convention


def _as_point(x, dim: int) -> np.ndarray:
    pt = np.atleast_1d(np.asarray(x, dtype=float))
    if pt.shape != (dim,):
        raise DomainError(f"point {x!r} does not match dimension {dim}")
    return pt


def gaussian_pdf(x, x0, ell2: float, dim: int) -> float:
    """Isotropic Gaussian exp(-|x-x0|^2/(4 ell^2)) / (4 pi ell^2)^(D/2)."""
    if ell2 <= 0.0:
        raise DomainError(f"ell2 must be positive, got {ell2}")
    xp = _as_point(x, dim)
    x0p = _as_point(x0, dim)
    r2 = float(np.sum((xp - x0p) ** 2))
    return math.exp(-r2 / (4.0 * ell2)) / (4.0 * math.pi * ell2) ** (dim / 2.0)


def position_weight(spec: DiffusionSpec, x) -> float:
    """Position-space measure weight of a spec at point x.

    A binomial spatial profile wins over per-direction fractional charges;
    with neither attached the weight is 1 (ordinary space).
    """
    xp = _as_point(x, spec.dim)
    if spec.spatial_profile is not None:
        w = 1.0
        for xi in xp:
            w *= multiscale_weight(float(xi), spec.spatial_profile)
        return w
    if spec.charges is not None:
        w = 1.0
        for xi, a in zip(xp, spec.charges.alphas):
            w *= fractional_weight(float(xi), a)
        return w
    return 1.0


def weighted_pdf(x, x0, sigma: float, spec: DiffusionSpec) -> float:
    """Weighted-model density: model Gaussian divided by the position weight.

    Normalized against the measure, int d^Dx v(x) P(x, x0, sigma) = 1, and
    self-similar under (x, x0, sigma) -> (lam^s x, lam^s x0, lam sigma) with
    s = (1 + nu - beta)/2.
    """
    ell2 = dispersion(spec, sigma)
    v = position_weight(spec, x)
    return gaussian_pdf(x, x0, ell2, spec.dim) / v


def _direction_normalization(alpha: float, ell: float, z: float) -> float:
    """One direction of the inverse normalization:
    Gamma(a/2)/Gamma(a) (2 ell)^a Phi[(1-a)/2; 1/2; z]."""
    return gamma_fn(alpha / 2.0) / gamma_fn(alpha) * (2.0 * ell) ** alpha * kummer_phi(
        (1.0 - alpha) / 2.0, 0.5, z
    )


def ordinary_normalization(x0, sigma: float, spec: DiffusionSpec) -> float:
    """Normalization C(x0, sigma) of the ordinary-Laplacian Gaussian.

    Defined by 1 = C int d^Dx v(x) exp(-|x-x0|^2 / (4 ell^2)).  For the
    fixed-dimensionality fractional measure the integral factorizes into the
    exact per-direction Kummer form; for a binomial spatial profile the
    two extreme terms of the expanded product are kept (exact in one
    dimension).  As sigma -> 0 it approaches [(4 pi ell^2)^(D/2) v(x0)]^(-1),
    restoring the measure-weighted delta initial condition.
    """
    ell2 = dispersion(spec, sigma)
    if ell2 <= 0.0:
        raise DomainError(f"dispersion must be positive, got {ell2}")
    ell = math.sqrt(ell2)
    x0p = _as_point(x0, spec.dim)
    if spec.spatial_profile is not None:
        alpha, lstar = spec.spatial_profile.binomial_params()
        dim = spec.dim
        phi_product = 1.0
        for xi in x0p:
            phi_product *= kummer_phi((1.0 - alpha) / 2.0, 0.5, -(xi ** 2) / (4.0 * ell2))
        bracket = (4.0 * math.pi * ell2) ** (dim / 2.0) + lstar ** dim * (
            gamma_fn(alpha / 2.0) / gamma_fn(alpha) * (2.0 * ell / lstar) ** alpha
        ) ** dim * phi_product
        return 1.0 / bracket
    if spec.charges is None:
        return (4.0 * math.pi * ell2) ** (-spec.dim / 2.0)
    inverse = 1.0
    for xi, a in zip(x0p, spec.charges.alphas):
        inverse *= _direction_normalization(a, ell, -(xi ** 2) / (4.0 * ell2))
    return 1.0 / inverse


def ordinary_pdf(x, x0, sigma: float, spec: DiffusionSpec) -> float:
    """Ordinary-model density C(x0, sigma) exp(-|x-x0|^2/(4 ell^2))."""
    ell2 = dispersion(spec, sigma)
    xp = _as_point(x, spec.dim)
    x0p = _as_point(x0, spec.dim)
    r2 = float(np.sum((xp - x0p) ** 2))
    return ordinary_normalization(x0, sigma, spec) * math.exp(-r2 / (4.0 * ell2))


def q_pdf(x, x0, sigma: float, spec: DiffusionSpec) -> float:
    """q-model density: product of Gaussians in geometric coordinates.

    P = prod_mu exp(-|q(x_mu) - q(x0_mu)|^2 / (4 ell^2)) / sqrt(4 pi ell^2)
    with ell^2 the (isotropic) q-model dispersion.  Normalization against the
    measure v = dq/dx is automatic.
    """
    if spec.model != "q":
        raise DomainError(f"q_pdf needs the q model, got {spec.model!r}")
    ell2 = dispersion(spec, sigma)
    if ell2 <= 0.0:
        raise DomainError(f"dispersion must be positive, got {ell2}")
    xp = _as_point(x, spec.dim)
    x0p = _as_point(x0, spec.dim)
    charges = spec.charges or FractionalCharges.isotropic(1.0, spec.dim)
    density = 1.0
    for xi, x0i, a in zip(xp, x0p, charges.alphas):
        dq = geometric_profile(float(xi), a) - geometric_profile(float(x0i), a)
        density *= math.exp(-(dq ** 2) / (4.0 * ell2)) / math.sqrt(4.0 * math.pi * ell2)
    return density


def pdf_evaluate(spec: DiffusionSpec, x, x0, sigma: float) -> PdfEvaluation:
    """Model dispatcher returning a tagged density evaluation.

    The legacy ansatz shares the weighted functional form at beta = nu = 1
    (its normalized solution), so it maps onto :func:`weighted_pdf` with the
    Brownian dispersion.
    """
    if spec.model == "weighted":
        rho = weighted_pdf(x, x0, sigma, spec)
    elif spec.model == "ordinary":
        rho = ordinary_pdf(x, x0, sigma, spec)
    elif spec.model == "q":
        rho = q_pdf(x, x0, sigma, spec)
    else:  # legacy
        ell2 = spec.scales.kappa * sigma
        rho = gaussian_pdf(x, x0, ell2, spec.dim) / position_weight(spec, x)
    xp = tuple(float(v) for v in _as_point(x, spec.dim))
    x0p = tuple(float(v) for v in _as_point(x0, spec.dim))
    return PdfEvaluation(x=xp, x0=x0p, sigma=sigma, density=rho, model=spec.model)


@cache
def _gl_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


def _gl_nodes(order: int, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = _gl_rule(order)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return mid + half * nodes, half * weights


def _panel_edges(center: float, upper: float) -> list[tuple[float, float]]:
    """Symmetric panels: [-c, c] plus decade-spaced outer panels out to the box.

    The central panel isolates the width-ell transition zone of the
    normalization; the decade splitting keeps the slowly decaying power-law
    corrections polynomial-friendly on every panel.
    """
    if center >= upper:
        return [(-upper, upper)]
    edges = [center]
    while edges[-1] * 10.0 < upper:
        edges.append(edges[-1] * 10.0)
    edges.append(upper)
    panels = [(-b, -a) for a, b in zip(edges, edges[1:])][::-1]
    panels.append((-center, center))
    panels.extend((a, b) for a, b in zip(edges, edges[1:]))
    return panels


def _axis_rule(
    order: int, halfwidth: float, transition: float, alpha_sub: float | None
) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss rule for one axis term, returned as (x nodes, weights).

    ``alpha_sub`` (when set) integrates in u = sgn(x)|x|^alpha, removing the
    |x|^(alpha-1) endpoint singularity; the transition scale is mapped along.
    """
    if alpha_sub is None:
        upper, center = halfwidth, min(transition, halfwidth)
    else:
        upper, center = halfwidth ** alpha_sub, min(transition ** alpha_sub, halfwidth ** alpha_sub)
    nodes_list, weights_list = [], []
    for lo, hi in _panel_edges(center, upper):
        n, w = _gl_nodes(order, lo, hi)
        nodes_list.append(n)
        weights_list.append(w)
    nodes = np.concatenate(nodes_list)
    weights = np.concatenate(weights_list)
    if alpha_sub is not None:
        nodes = np.sign(nodes) * np.abs(nodes) ** (1.0 / alpha_sub)
    return nodes, weights


def _axis_tables(spec: DiffusionSpec, halfwidth: float, transition: float, order: int):
    """Per-direction (prefactor, x nodes, weights) tables for each measure term.

    The binomial spatial profile contributes a constant and a fractional term
    per direction (their product expands into 2^D combinations); fixed
    per-direction charges contribute the fractional term only.
    """
    tables = []
    if spec.spatial_profile is not None:
        alpha, lstar = spec.spatial_profile.binomial_params()
        gfrac = lstar ** (1.0 - alpha)
        per_direction = [("const", 1.0, 1.0), ("frac", gfrac, alpha)]
        dims = [per_direction] * spec.dim
    elif spec.charges is not None:
        dims = [[("frac", 1.0, a)] for a in spec.charges.alphas]
    else:
        dims = [[("const", 1.0, 1.0)]] * spec.dim
    for terms in dims:
        entries = []
        for kind, g, alpha in terms:
            if kind == "const" or alpha == 1.0:
                x_nodes, w = _axis_rule(order, halfwidth, transition, None)
                entries.append((g if kind == "frac" else 1.0, x_nodes, w))
            else:
                x_nodes, w = _axis_rule(order, halfwidth, transition, alpha)
                entries.append((g / gamma_fn(alpha + 1.0), x_nodes, w))
        tables.append(entries)
    return tables


# Largest number of grid cells the binomial box sum holds at once.
_SLICE_CELLS = 1 << 16


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


def _trace_quadrature(spec: DiffusionSpec, sigma: float, halfwidth: float, order: int) -> float:
    """Box integral of v(x) C(x, sigma) for the ordinary model, D <= 3.

    With fixed per-direction charges, or no measure, C^-1 is a product of
    per-direction factors and the box sum is the product of one-dimensional
    sums.  The binomial bracket does not factorize: its Kummer values are
    taken once per node set and summed over the 2^D term combinations.
    """
    ell2 = dispersion(spec, sigma)
    ell = math.sqrt(ell2)
    # the normalization varies on the diffusion-length scale around the origin;
    # a few-ell central panel plus decade panels resolve the transition zone
    transition = 4.0 * ell
    tables = _axis_tables(spec, halfwidth, transition, order)

    def phi_nodes(alpha: float, xs: np.ndarray) -> np.ndarray:
        return _kummer_phi_array((1.0 - alpha) / 2.0, 0.5, -(xs * xs) / (4.0 * ell2))

    if spec.spatial_profile is None:
        alphas = spec.charges.alphas if spec.charges is not None else (1.0,) * spec.dim
        axis_sums = {}
        total = 1.0
        for ((g, x_nodes, w),), a in zip(tables, alphas):
            if a not in axis_sums:
                axis = gamma_fn(a / 2.0) / gamma_fn(a) * (2.0 * ell) ** a * phi_nodes(a, x_nodes)
                axis_sums[a] = g * float(np.sum(w / axis))
            total *= axis_sums[a]
        return total

    alpha, lstar = spec.spatial_profile.binomial_params()
    gauss_norm = (4.0 * math.pi * ell2) ** (spec.dim / 2.0)
    bracket_coeff = lstar ** spec.dim * (
        gamma_fn(alpha / 2.0) / gamma_fn(alpha) * (2.0 * ell / lstar) ** alpha
    ) ** spec.dim
    # every direction carries the same (constant, fractional) term tables
    entries = tables[0]
    phis = [phi_nodes(alpha, x_nodes) for _, x_nodes, _ in entries]
    total = 0.0
    for combo in product(range(len(entries)), repeat=spec.dim):
        prefactor = math.prod(entries[i][0] for i in combo)
        total += prefactor * _bracket_box_sum(
            gauss_norm, bracket_coeff, [phis[i] for i in combo], [entries[i][2] for i in combo]
        )
    return total


def _hausdorff_box_volume(spec: DiffusionSpec, halfwidth: float) -> float:
    """Closed-form measure volume of the cubic box [-L, L]^D."""
    vol = 1.0
    if spec.spatial_profile is not None:
        alpha, lstar = spec.spatial_profile.binomial_params()
        per = 2.0 * halfwidth + lstar ** (1.0 - alpha) * 2.0 * halfwidth ** alpha / gamma_fn(
            alpha + 1.0
        )
        return per ** spec.dim
    if spec.charges is not None:
        for a in spec.charges.alphas:
            vol *= 2.0 * halfwidth ** a / gamma_fn(a + 1.0)
        return vol
    return (2.0 * halfwidth) ** spec.dim


def default_box_halfwidth(spec: DiffusionSpec, sigma: float) -> float:
    ell = math.sqrt(dispersion(spec, sigma))
    return max(_BOX_ELL_FACTOR * ell, _BOX_LSTAR_FACTOR * spec.scales.lstar)


def return_probability(
    spec: DiffusionSpec, sigma: float, box_halfwidth: float | None = None
) -> float:
    """Return probability Z(sigma) under the model's volume convention.

    weighted (and the fixed-dimensionality closed forms): the measure-traced
    Gaussian per unit integer volume, (4 pi ell^2)^(-D/2).  ordinary: box
    quadrature of v(x) C(x, sigma) per Hausdorff volume of the box (D <= 3).
    q: closed form per Hausdorff volume.  legacy: the regularized power law
    ell^(-D alpha) with unit prefactor.
    """
    if sigma <= 0.0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    if spec.model == "weighted":
        ell2 = dispersion(spec, sigma)
        return (4.0 * math.pi * ell2) ** (-spec.dim / 2.0)
    if spec.model == "q":
        ell2 = dispersion(spec, sigma)
        return (4.0 * math.pi * ell2) ** (-spec.dim / 2.0)
    if spec.model == "legacy":
        alpha = spec.alpha_average
        ell2 = spec.scales.kappa * sigma
        return ell2 ** (-spec.dim * alpha / 2.0)
    # ordinary model: quadrature
    if spec.dim > 3:
        raise DomainError("trace quadrature supports D <= 3")
    ell = math.sqrt(dispersion(spec, sigma))
    if box_halfwidth is None:
        box_halfwidth = default_box_halfwidth(spec, sigma)
    if box_halfwidth < _BOX_ELL_FACTOR * ell:
        raise BoxError(
            f"box half-width {box_halfwidth} is below {_BOX_ELL_FACTOR} "
            f"diffusion lengths ({_BOX_ELL_FACTOR * ell:.3e}); boundary region would "
            "contaminate the trace"
        )
    coarse = _trace_quadrature(spec, sigma, box_halfwidth, _GL_ORDER)
    fine = _trace_quadrature(spec, sigma, box_halfwidth, _GL_REFINE)
    if abs(fine - coarse) > _GL_RTOL * abs(fine) + 1e-300:
        raise ConvergenceError(
            f"trace quadrature not converged: {coarse!r} vs {fine!r} at sigma = {sigma}"
        )
    return fine / _hausdorff_box_volume(spec, box_halfwidth)


def fixed_dim_trace_slopes(
    spec: DiffusionSpec,
    box_halfwidth: float,
    uv_sigma: float,
    ir_sigma: float,
) -> dict:
    """Both trace slopes of the fixed-dimensionality ordinary model.

    With no scale in the measure, the trace is not a single power law: the
    small-sigma slope gives d_S = D(1+nu-beta) while the large-sigma slope is
    a factor alpha smaller.  The infrared entry is reported for completeness
    but tagged non-physical: it reflects the volume normalization of a
    scale-free measure, not local geometry.  In the infrared regime the
    normalization is flat across the box, so the minimum-box precondition is
    deliberately not applied there.
    """
    if spec.model != "ordinary" or spec.charges is None or spec.spatial_profile is not None:
        raise DomainError("trace slopes target the fixed-dimensionality ordinary model")

    def slope_at(sigma: float, enforce_box: bool) -> float:
        h = 0.05
        zs = []
        for k in (-2, -1, 0, 1, 2):
            s = sigma * math.exp(k * h)
            if enforce_box:
                z = return_probability(spec, s, box_halfwidth)
            else:
                z = _trace_quadrature(spec, s, box_halfwidth, _GL_REFINE) / _hausdorff_box_volume(
                    spec, box_halfwidth
                )
            zs.append(math.log(z))
        return -2.0 * (zs[0] - 8.0 * zs[1] + 8.0 * zs[3] - zs[4]) / (12.0 * h)

    ell_ir = math.sqrt(dispersion(spec, ir_sigma))
    if ell_ir < 30.0 * box_halfwidth:
        raise BoxError(
            "infrared slope needs ell(sigma) >= 30 box half-widths so the "
            "normalization is flat across the box"
        )
    return {
        "uv_ds": slope_at(uv_sigma, True),
        "ir_ds": slope_at(ir_sigma, False),
        "ir_physical": False,
    }


def heat_kernel_curve(
    spec: DiffusionSpec,
    sigmas: Sequence[float] | np.ndarray,
    box_halfwidth: float | None = None,
) -> HeatKernelCurve:
    """Sample Z(sigma) on a grid with the model's volume convention tag."""
    sig = np.asarray(sigmas, dtype=float)
    zz = np.array([return_probability(spec, s, box_halfwidth) for s in sig])
    convention = PER_HAUSDORFF_VOLUME if spec.model in ("q", "ordinary") else PER_INTEGER_VOLUME
    return HeatKernelCurve(sigmas=sig, Z=zz, convention=convention, model=spec.model)


def ds_from_kernel(
    curve: HeatKernelCurve, sigma: float | None = None, limit: bool = False
) -> float:
    """Spectral dimension -2 dln Z/dln sigma from a sampled trace.

    Five-point central stencil on a log-uniform grid; ``limit=True`` returns
    the estimate at the smallest usable grid point (the small-sigma limit
    favoured when Z is not a global power law).
    """
    logs = np.log(curve.sigmas)
    steps = np.diff(logs)
    h = steps[0]
    if np.any(np.abs(steps - h) > 1e-8 * max(abs(h), 1.0)):
        raise GridError("kernel slope needs a log-uniform grid")
    if curve.sigmas.size < 5:
        raise GridError("kernel slope needs at least five grid points")
    if limit:
        idx = 2
    else:
        if sigma is None:
            raise DomainError("pass sigma or set limit=True")
        idx = int(np.argmin(np.abs(curve.sigmas - sigma)))
        if not math.isclose(curve.sigmas[idx], sigma, rel_tol=1e-9):
            raise GridError(f"sigma = {sigma} is not a grid point of the curve")
        if idx < 2 or idx > curve.sigmas.size - 3:
            raise GridError(f"sigma = {sigma} is too close to the grid edge")
    f = np.log(curve.Z[idx - 2 : idx + 3])
    slope = (f[0] - 8.0 * f[1] + 8.0 * f[3] - f[4]) / (12.0 * h)
    return -2.0 * slope
