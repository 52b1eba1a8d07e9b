"""Spectral, walk, and density-of-states dimensions.

The spectral dimension probes how a diffusing particle sees the geometry:

    d_S(sigma) = D * dln ell^2(sigma) / dln sigma,

constant for pure power-law dispersions and flowing between an ultraviolet
and an infrared plateau for binomial multiscale measures.  :func:`flow_curve`
samples the closed-form flow of every model, with the dispersion it came
from, in one array pass over the grid and the plateau probes; a
stencil-based numeric extractor works on any sampled dispersion curve.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dispersion import (
    DiffusionSpec,
    DispersionCurve,
    dispersion,
    dispersion_multiscale_weighted,
    q_time_profile,
)
from .errors import DomainError, GridError
from .grid import check_grid, log_slope, powers
from .measure import FractionalCharges, MeasureProfile

__all__ = [
    "SpectralFlow",
    "DimensionTriple",
    "LegacyAnsatzWarning",
    "spectral_from_dispersion",
    "spectral_weighted_flow",
    "weighted_flow_asymptotes",
    "spectral_q_flow",
    "q_flow_asymptotes",
    "fixed_point_ds",
    "legacy_ds",
    "walk_dimension",
    "density_of_states_exponent",
    "flow_curve",
    "flow_from_curve",
    "dimension_triple",
]

# Scale ratios at which asymptote convergence is probed, and the plateau
# criterion: three successive decades differing by less than this.
_UV_PROBE = 1e-6
_IR_PROBE = 1e6
_PLATEAU_TOL = 1e-3


class LegacyAnsatzWarning(UserWarning):
    """Marks results produced by the legacy diffusion ansatz, retained for
    comparison despite its known normalization pathologies."""


@dataclass(frozen=True)
class SpectralFlow:
    """Sampled spectral-dimension flow with its analytic asymptotes.

    ``uv_asymptote``/``ir_asymptote`` hold the exact small- and large-scale
    limits; the ``*_converged`` flags record whether the sampled flow has
    actually reached its plateau at the ends of the probed range.
    """

    sigmas: np.ndarray
    ds: np.ndarray
    uv_asymptote: float
    ir_asymptote: float
    model: str
    uv_converged: bool = False
    ir_converged: bool = False

    def __post_init__(self) -> None:
        sig = np.asarray(self.sigmas, dtype=float)
        ds = np.asarray(self.ds, dtype=float)
        object.__setattr__(self, "sigmas", sig)
        object.__setattr__(self, "ds", ds)
        check_grid(sig)
        if ds.shape != sig.shape:
            raise GridError("flow needs matching sigma and ds arrays")


@dataclass(frozen=True)
class DimensionTriple:
    """Hausdorff, spectral, and walk dimension of one model."""

    d_h: float
    d_s: float
    d_w: float
    model: str


def spectral_from_dispersion(curve: DispersionCurve, dim: int, sigma: float) -> float:
    """Numeric d_S = D dln ell^2/dln sigma on a log-uniform dispersion curve.

    Uses a five-point central stencil in ln sigma, so the evaluation point
    must sit at least two grid points away from either edge; the grid must be
    geometric (uniform in ln sigma).
    """
    return dim * log_slope(curve.sigmas, curve.ell2, sigma)


def _positive(sigma: float | Sequence[float] | np.ndarray) -> np.ndarray:
    """sigma as a 1-d float array; :class:`DomainError` if any element is not positive."""
    sig = np.asarray(sigma, dtype=float).reshape(-1)
    nonpositive = sig[sig <= 0.0]
    if nonpositive.size:
        raise DomainError(f"sigma must be positive, got {float(nonpositive[0])}")
    return sig


def spectral_weighted_flow(spec: DiffusionSpec, sigma: float) -> float:
    """Closed-form weighted-model flow d_S(sigma) = D kappa sigma / (v(sigma) ell^2(sigma))."""
    return float(_weighted_flow_points(spec, _positive(sigma))[1][0])


def _weighted_flow_points(spec: DiffusionSpec, sig: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ell^2 and d_S of the weighted-model flow on a 1-d sigma array.

    ell^2 comes from one array call of the dispersion.  The weight
    v(sigma) = sum_n g_n sigma^(c_n - 1) takes its powers from
    :func:`grid.powers`; the sums, products and quotient are the scalar
    ones, in the same order, so d_S keeps the bits of its scalar formula.
    """
    if spec.model not in ("weighted", "ordinary"):
        raise DomainError(f"weighted flow needs the weighted/ordinary model, got {spec.model!r}")
    if spec.multiscale is None:
        raise DomainError("weighted flow requires a binomial diffusion-time profile")
    if abs(spec.scales.nu - 1.0) > 1e-12:
        raise DomainError(f"weighted flow is defined at nu = 1, got {spec.scales.nu}")
    ell2 = dispersion_multiscale_weighted(spec, sig)
    weight = 0
    for g, c in spec.multiscale.terms:
        weight = weight + g * powers(sig, c - 1.0)
    return ell2, spec.dim * spec.scales.kappa * sig / (weight * ell2)


def weighted_flow_asymptotes(spec: DiffusionSpec) -> tuple[float, float]:
    """Analytic (UV, IR) limits of the weighted-model flow.

    1 < beta* < 2: D -> D(2-beta*); 0 < beta* < 1: D(2-beta*) -> D;
    fuzzy scenario: 0 -> D.
    """
    if spec.multiscale is None:
        raise DomainError("asymptotes require a binomial diffusion-time profile")
    beta_star, _ = spec.multiscale.binomial_params()
    dim = float(spec.dim)
    if spec.fuzzy:
        return 0.0, dim
    if beta_star > 1.0:
        return dim, dim * (2.0 - beta_star)
    return dim * (2.0 - beta_star), dim


def spectral_q_flow(profile: MeasureProfile, dim: int, sigma: float) -> float:
    """q-model flow: charge average D sum g c sigma^c / sum g sigma^c."""
    return float(_q_flow_points(profile, dim, _positive(sigma))[1][0])


def _q_flow_points(
    profile: MeasureProfile, dim: int, sig: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """sum g sigma^c and d_S of the q-model flow on a 1-d sigma array.

    One power per term gives both sums; kappa times the first is
    :func:`dispersion.dispersion_q` bit for bit.
    """
    num = den = 0
    for g, c in profile.terms:
        p = powers(sig, c)
        num = num + g * c * p
        den = den + g * p
    return den, dim * num / den


def q_flow_asymptotes(profile: MeasureProfile, dim: int) -> tuple[float, float]:
    """Analytic (UV, IR) limits of the q-model flow: D * (min, max) charge."""
    return dim * profile.charges[0], dim * profile.charges[-1]


def fixed_point_ds(
    model: str,
    dim: int,
    beta: float | None = None,
    nu: float = 1.0,
    alphas: Sequence[float] | FractionalCharges | None = None,
) -> float:
    """Constant (no-scale) spectral dimension of each model.

    weighted/ordinary: D(1 + nu - beta); q: D beta; legacy: D alpha with alpha
    the average fractional charge.  Named parameter choices are expressed by
    the caller: beta = 1, nu = 1 recovers D; beta = alpha gives D(2 - alpha);
    beta = 1, nu = alpha gives D alpha.
    """
    if model in ("weighted", "ordinary"):
        if beta is None:
            raise DomainError("weighted/ordinary fixed point needs beta")
        return dim * (1.0 + nu - beta)
    if model == "q":
        if beta is None:
            raise DomainError("q fixed point needs beta")
        return dim * beta
    if model == "legacy":
        if alphas is None:
            raise DomainError("legacy fixed point needs fractional charges")
        charges = alphas if isinstance(alphas, FractionalCharges) else FractionalCharges(tuple(alphas))
        return legacy_ds(charges)
    raise DomainError(f"unknown model {model!r}")


def legacy_ds(charges: FractionalCharges) -> float:
    """Legacy-ansatz spectral dimension D alpha = sum_mu alpha_mu.

    Emits :class:`LegacyAnsatzWarning`: this mode reproduces the earlier
    regularized-trace prescription whose volume normalization is ambiguous.
    """
    warnings.warn(
        "legacy diffusion ansatz: d_S = D*alpha relies on a regularized, "
        "normalization-dependent return probability",
        LegacyAnsatzWarning,
        stacklevel=2,
    )
    return float(sum(charges.alphas))


def walk_dimension(model: str, dim: int, d_h: float, d_s: float | np.ndarray) -> float | np.ndarray:
    """Walk dimension: 2 d_H/d_S for q/legacy (fractal relation), 2 D/d_S for
    weighted/ordinary (integer-volume state counting).

    ``d_s`` is a float or an array of them; a float gives a float, an array
    an array, and any d_S <= 0 raises :class:`DomainError`.
    """
    d = np.asarray(d_s, dtype=float)
    low = d[d <= 0.0]
    if low.size:
        raise DomainError(f"walk dimension undefined for d_S = {float(low[0])} <= 0")
    if model in ("q", "legacy"):
        d_w = 2.0 * d_h / d
    elif model in ("weighted", "ordinary"):
        d_w = 2.0 * dim / d
    else:
        raise DomainError(f"unknown model {model!r}")
    return float(d_w) if d.ndim == 0 else d_w


def density_of_states_exponent(d_s: float) -> float:
    """Exponent of the energy density of states, rho(E) ~ E^(d_S/2 - 1)."""
    return d_s / 2.0 - 1.0


def _plateau_converged(values: Sequence[float]) -> bool:
    diffs = [abs(b - a) for a, b in zip(values, values[1:])]
    return all(d < _PLATEAU_TOL for d in diffs)


def _probe_sigmas(lstar: float) -> list[float]:
    """The three UV then the three IR scales at which the plateaus are probed."""
    uv = [lstar * _UV_PROBE * 10.0 ** k for k in (2, 1, 0)]
    return uv + [lstar * _IR_PROBE * 10.0 ** (-k) for k in (2, 1, 0)]


def _convergence_flags(probed: Sequence[float]) -> tuple[bool, bool]:
    """(UV, IR) plateau flags from the flow at :func:`_probe_sigmas`."""
    return _plateau_converged(probed[:3]), _plateau_converged(probed[3:])


def flow_curve(
    spec: DiffusionSpec, sigmas: Sequence[float] | np.ndarray
) -> tuple[SpectralFlow, np.ndarray]:
    """The model's flow on a sigma grid, with its asymptotes, and the ell^2 it came from.

    weighted/ordinary with a binomial time profile: D kappa sigma / (v ell^2).
    q: D sum g c sigma^c / sum g sigma^c.  legacy and fixed dimensionality:
    the constant :func:`fixed_point_ds`.  The six plateau probes ride in the
    same array pass as the grid; every element has the bits of its own
    one-sigma call.  A nonpositive sigma raises :class:`DomainError`.
    """
    sig = np.asarray(sigmas, dtype=float)
    n = sig.size
    sc = spec.scales
    binomial = spec.model in ("weighted", "ordinary") and spec.multiscale is not None
    lstar = spec.multiscale.binomial_params()[1] if binomial else sc.lstar
    points = np.concatenate([_positive(sig), _probe_sigmas(lstar)])
    if spec.model == "q":
        profile = q_time_profile(spec)
        den, ds = _q_flow_points(profile, spec.dim, points)
        ell2 = sc.kappa * den
        uv, ir = q_flow_asymptotes(profile, spec.dim)
    elif binomial:
        ell2, ds = _weighted_flow_points(spec, points)
        uv, ir = weighted_flow_asymptotes(spec)
    else:  # legacy or fixed dimensionality: no scale, a constant flow
        uv = ir = fixed_point_ds(spec.model, spec.dim, sc.beta, sc.nu, spec.spatial_charges)
        ell2 = dispersion(spec, points)
        ds = np.full(points.size, uv)
    uv_ok, ir_ok = _convergence_flags(ds[n:].tolist())
    flow = SpectralFlow(
        sigmas=sig, ds=ds[:n], uv_asymptote=uv, ir_asymptote=ir,
        model="weighted-fuzzy" if spec.fuzzy else spec.model,
        uv_converged=uv_ok, ir_converged=ir_ok,
    )
    return flow, ell2[:n]


def flow_from_curve(curve: DispersionCurve, dim: int, model: str = "numeric") -> SpectralFlow:
    """Numeric flow from any log-uniform dispersion curve (edges trimmed)."""
    interior = curve.sigmas[2:-2]
    ds = np.array([spectral_from_dispersion(curve, dim, s) for s in interior])
    return SpectralFlow(
        sigmas=interior, ds=ds,
        uv_asymptote=float(ds[0]), ir_asymptote=float(ds[-1]),
        model=model,
    )


def dimension_triple(
    model: str,
    dim: int,
    charges: FractionalCharges | None = None,
    beta: float | None = None,
    nu: float = 1.0,
    d_s: float | None = None,
) -> DimensionTriple:
    """Assemble (d_H, d_S, d_W) for one model, with d_S overridable by a
    scale-dependent value (e.g. a flow sample)."""
    if charges is None:
        charges = FractionalCharges.isotropic(1.0, dim)
    d_h = float(sum(charges.alphas))
    if d_s is None:
        if model == "legacy":
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", LegacyAnsatzWarning)
                d_s = legacy_ds(charges)
        else:
            d_s = fixed_point_ds(model, dim, beta=beta, nu=nu, alphas=charges)
    return DimensionTriple(d_h=d_h, d_s=d_s, d_w=walk_dimension(model, dim, d_h, d_s), model=model)
