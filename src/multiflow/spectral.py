"""Spectral and walk dimensions.

The spectral dimension probes how a diffusing particle sees the geometry:

    d_S(sigma) = D * dln ell^2(sigma) / dln sigma,

constant for pure power-law dispersions and flowing between an ultraviolet
and an infrared plateau for binomial multiscale measures.  :func:`flow_curve`
samples the closed-form flow of every model, with the dispersion it came
from, in one array pass over the grid and the plateau probes.  On any
sampled dispersion curve the numeric d_S is D times :func:`grid.log_slope`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dispersion import DiffusionSpec, dispersion, q_time_profile, time_weight
from .errors import DomainError
from .grid import check_grid, check_sigma, powers
from .measure import hausdorff_dimension

__all__ = [
    "SpectralFlow",
    "LegacyAnsatzWarning",
    "fixed_point_ds",
    "walk_dimension",
    "flow_curve",
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
        check_grid(sig, ds, min_points=0)


def fixed_point_ds(spec: DiffusionSpec) -> float:
    """Constant (no-scale) spectral dimension of a spec without ``beta_star``.

    weighted/ordinary: D(1 + nu - beta); q: D beta; legacy: D alpha =
    sum_mu alpha_mu, the sum of the spatial charges.  Named parameter choices
    are expressed by the caller: beta = 1, nu = 1 recovers D; beta = alpha
    gives D(2 - alpha); beta = 1, nu = alpha gives D alpha.  The legacy value
    emits :class:`LegacyAnsatzWarning`: it reproduces the earlier
    regularized-trace prescription whose volume normalization is ambiguous.
    A spec with ``beta_star`` has a flow (:func:`flow_curve`), not a fixed
    point, and raises :class:`DomainError`.
    """
    if spec.beta_star is not None:
        raise DomainError(f"beta_star = {spec.beta_star} gives a flow, not a fixed point")
    sc = spec.scales
    if spec.model == "q":
        return spec.dim * sc.beta
    if spec.model == "legacy":
        warnings.warn(
            "legacy diffusion ansatz: d_S = D*alpha relies on a regularized, "
            "normalization-dependent return probability",
            LegacyAnsatzWarning,
            stacklevel=2,
        )
        return hausdorff_dimension(spec.charges)
    return spec.dim * (1.0 + sc.nu - sc.beta)


def walk_dimension(spec: DiffusionSpec, d_s: float | np.ndarray) -> float | np.ndarray:
    """Walk dimension: 2 d_H/d_S for q/legacy (fractal relation, d_H the sum
    of the spec's charges), 2 D/d_S for weighted/ordinary (integer-volume
    state counting).

    ``d_s`` is a float or an array of them; a float gives a float, an array
    an array, and any d_S <= 0 raises :class:`DomainError`.
    """
    d = np.asarray(d_s, dtype=float)
    low = d[d <= 0.0]
    if low.size:
        raise DomainError(f"walk dimension undefined for d_S = {float(low[0])} <= 0")
    fractal = spec.model in ("q", "legacy")
    d_w = 2.0 * (hausdorff_dimension(spec.charges) if fractal else spec.dim) / d
    return float(d_w) if d.ndim == 0 else d_w


def _plateau_converged(values: Sequence[float]) -> bool:
    diffs = [abs(b - a) for a, b in zip(values, values[1:])]
    return all(d < _PLATEAU_TOL for d in diffs)


def _probe_sigmas(lstar: float) -> list[float]:
    """The three UV then the three IR scales at which the plateaus are probed."""
    uv = [lstar * _UV_PROBE * 10.0 ** k for k in (2, 1, 0)]
    return uv + [lstar * _IR_PROBE * 10.0 ** (-k) for k in (2, 1, 0)]


def flow_curve(
    spec: DiffusionSpec, sigmas: Sequence[float] | np.ndarray
) -> tuple[SpectralFlow, np.ndarray]:
    """The model's flow on a sigma grid, with its asymptotes, and the ell^2 it came from.

    weighted/ordinary with a binomial time measure:
    d_S = D kappa sigma / (v(sigma) ell^2(sigma)), v the
    :func:`dispersion.time_weight`; its (UV, IR) limits are D -> D(2-beta*)
    for 1 < beta* < 2, D(2-beta*) -> D for 0 < beta* < 1 and 0 -> D in the
    fuzzy scenario.  q: the charge average D sum g c sigma^c / sum g sigma^c,
    from D min charge to D max charge.  legacy and fixed dimensionality: the
    constant :func:`fixed_point_ds`.  ell^2 is one :func:`dispersion` call on
    the grid and the six plateau probes, and v one ``time_weight`` call on
    the same points; the powers of the flow come from :func:`grid.powers`
    and the sums, products and quotients are the scalar ones, so every
    element has the bits of its own one-sigma call.  A
    nonpositive sigma raises :class:`DomainError`.
    """
    sig = np.asarray(sigmas, dtype=float)
    n = sig.size
    points = np.concatenate([check_sigma(sig).reshape(-1), _probe_sigmas(spec.scales.lstar)])
    ell2 = dispersion(spec, points)
    dim = float(spec.dim)
    if spec.model == "q":
        profile = q_time_profile(spec)
        num = den = 0
        for g, c in profile.terms:
            p = powers(points, c)
            num = num + g * c * p
            den = den + g * p
        ds = spec.dim * num / den
        uv, ir = dim * profile.charges[0], dim * profile.charges[-1]
    elif spec.beta_star is not None:  # weighted or ordinary
        ds = spec.dim * spec.scales.kappa * points / (time_weight(spec, points) * ell2)
        if spec.fuzzy:
            uv, ir = 0.0, dim
        elif spec.beta_star > 1.0:
            uv, ir = dim, dim * (2.0 - spec.beta_star)
        else:
            uv, ir = dim * (2.0 - spec.beta_star), dim
    else:  # legacy or fixed dimensionality: no scale, a constant flow
        uv = ir = fixed_point_ds(spec)
        ds = np.full(points.size, uv)
    probed = ds[n:].tolist()
    flow = SpectralFlow(
        sigmas=sig, ds=ds[:n], uv_asymptote=uv, ir_asymptote=ir,
        model="weighted-fuzzy" if spec.fuzzy else spec.model,
        uv_converged=_plateau_converged(probed[:3]), ir_converged=_plateau_converged(probed[3:]),
    )
    return flow, ell2[:n]
