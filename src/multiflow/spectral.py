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

from .dispersion import _MODELS, DiffusionSpec, dispersion, q_time_profile, time_weight
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


_FIXED_POINTS = {
    **dict.fromkeys(("weighted", "ordinary"), lambda spec: spec.dim * (1.0 + spec.scales.nu - spec.scales.beta)),
    "q": lambda spec: spec.dim * spec.scales.beta,
    "legacy": lambda spec: hausdorff_dimension(spec.charges),
}


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
    caveat = _MODELS[spec.model].caveat
    if caveat:
        warnings.warn(caveat, LegacyAnsatzWarning, stacklevel=2)
    return _FIXED_POINTS[spec.model](spec)


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
    d_w = 2.0 * (hausdorff_dimension(spec.charges) if _MODELS[spec.model].fractal else spec.dim) / d
    return float(d_w) if d.ndim == 0 else d_w


def _plateau_converged(values: Sequence[float]) -> bool:
    diffs = [abs(b - a) for a, b in zip(values, values[1:])]
    return all(d < _PLATEAU_TOL for d in diffs)


def _probe_sigmas(lstar: float) -> list[float]:
    """The three UV then the three IR scales at which the plateaus are probed."""
    uv = [lstar * _UV_PROBE * 10.0 ** k for k in (2, 1, 0)]
    return uv + [lstar * _IR_PROBE * 10.0 ** (-k) for k in (2, 1, 0)]


def _fixed_flow(spec: DiffusionSpec, points: np.ndarray, ell2: np.ndarray):
    """No scale: the constant :func:`fixed_point_ds` at every point."""
    d = fixed_point_ds(spec)
    return np.full(points.size, d), d, d


def _binomial_flow(spec: DiffusionSpec, points: np.ndarray, ell2: np.ndarray):
    """weighted/ordinary: D kappa sigma / (v(sigma) ell^2(sigma)) with a
    binomial time measure, from D to D(2-beta*) for beta* > 1, D(2-beta*) to
    D for beta* < 1 and 0 to D fuzzy; else the fixed point."""
    if spec.beta_star is None:
        return _fixed_flow(spec, points, ell2)
    dim, beta_star = float(spec.dim), spec.beta_star
    ds = spec.dim * spec.scales.kappa * points / (time_weight(spec, points) * ell2)
    if spec.fuzzy:
        return ds, 0.0, dim
    return (ds, dim, dim * (2.0 - beta_star)) if beta_star > 1.0 else (ds, dim * (2.0 - beta_star), dim)


def _q_flow(spec: DiffusionSpec, points: np.ndarray, ell2: np.ndarray):
    """q: the charge average D sum g c sigma^c / sum g sigma^c, from D times
    the least charge to D times the greatest."""
    profile = q_time_profile(spec)
    terms = [(g, c, powers(points, c)) for g, c in profile.terms]
    ds = spec.dim * sum(g * c * p for g, c, p in terms) / sum(g * p for g, _, p in terms)
    return ds, spec.dim * profile.charges[0], spec.dim * profile.charges[-1]


_FLOWS = {"weighted": _binomial_flow, "ordinary": _binomial_flow, "q": _q_flow, "legacy": _fixed_flow}


def flow_curve(
    spec: DiffusionSpec, sigmas: Sequence[float] | np.ndarray
) -> tuple[SpectralFlow, np.ndarray]:
    """The model's flow on a sigma grid, by its law in :data:`_FLOWS`, with
    its asymptotes, and the ell^2 it came from.  ell^2 is one
    :func:`dispersion` call on the grid and the six plateau probes; the
    powers of the flow come from :func:`grid.powers` and the sums, products
    and quotients are the scalar ones, so every element has the bits of its
    own one-sigma call.  A nonpositive sigma raises :class:`DomainError`."""
    sig = np.asarray(sigmas, dtype=float)
    n = sig.size
    points = np.concatenate([check_sigma(sig).reshape(-1), _probe_sigmas(spec.scales.lstar)])
    ell2 = dispersion(spec, points)
    ds, uv, ir = _FLOWS[spec.model](spec, points, ell2)
    probed = ds[n:].tolist()
    flow = SpectralFlow(
        sigmas=sig, ds=ds[:n], uv_asymptote=uv, ir_asymptote=ir,
        model="weighted-fuzzy" if spec.fuzzy else spec.model,
        uv_converged=_plateau_converged(probed[:3]), ir_converged=_plateau_converged(probed[3:]),
    )
    return flow, ell2[:n]
