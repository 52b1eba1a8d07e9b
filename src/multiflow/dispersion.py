"""Dispersion laws ell^2(sigma) for every diffusion model.

The dispersion is the Gaussian width entering each probability density,

    ell^2(sigma) = lbar^2 + kappa * int_0^sigma ds s^(nu-1) / v(s),

where ``v`` is the diffusion-time measure weight.  Closed forms are provided
for the fractional weight (pure power law) and the q-model polynomial form.
The binomial multiscale weight has the hypergeometric closed form
sigma * F(1, b; b+1; z), whose terms cancel next to its removable poles
beta_star = 1 +- 1/k; its integral is summed instead by one decade-panel
Gauss rule on the defining integral, within 1e-14 of mpmath for every
beta_star in (0, 2) and sigma/lstar in [1e-280, 1e280].  The rule takes a
whole sigma grid in one call, summed in cache-sized blocks of
``specfun._PANEL_BLOCK`` values.  Every closed form takes a float or an
array of sigma, each element with the bits of its scalar call: powers of
sigma stay on Python floats (:func:`grid.powers`), since numpy's vectorised
power rounds differently from ``pow``.  :func:`dispersion_quadrature`,
the adaptive quadrature of each model's defining integral, is the one
oracle of every closed form.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError, ExponentDomainError
from .grid import check_sigma, powers
from .measure import (
    DIFFUSION_TIME,
    POSITION,
    FractionalCharges,
    GeometryScales,
    MeasureProfile,
    multiscale_weight,
)
from .specfun import decade_panels, gamma_fn

__all__ = [
    "DiffusionSpec",
    "MODELS",
    "dispersion_quadrature",
    "check_dispersion",
    "dispersion",
    "time_weight",
    "q_time_profile",
]

MODELS = ("weighted", "ordinary", "q", "legacy")

_QUAD_REL_TOL = 1e-9


@dataclass(frozen=True)
class DiffusionSpec:
    """Model selection plus every scale the dispersion and kernels need.

    ``charges`` are the spatial fractional charges, one per direction; a
    spec built without them gets unit charges (ordinary space), so
    ``charges`` is never None.  ``beta_star``, when set, is the charge of the
    binomial diffusion-time measure 1 + (sigma/lstar)^(beta_star - 1) and
    switches the dispersion to its multiscale form.  ``multiscale_space``
    replaces the fractional position measure by the binomial one
    1 + lstar^(1-alpha) |x|^(alpha-1)/Gamma(alpha) per direction, alpha the
    one charge of the (isotropic) ``charges``.  Both measures take lstar from
    ``scales``; :attr:`multiscale` and :attr:`spatial_profile` are their
    term tables, built once per spec.  A spec refuses what no evaluator of
    its model can take: ``beta_star`` for legacy, nu != 1 for q (clocked by
    beta, which must lie in (0, 2) without ``beta_star``), lbar > 0 but at
    fixed dimensionality in the weighted and ordinary models, beta <= 0 at
    fixed dimensionality in those two (s^(beta-1)/Gamma(beta) is a positive
    measure only for beta > 0), and anisotropic charges with
    ``multiscale_space``.  A refusal of one evaluator only is that
    evaluator's check: :func:`check_dispersion`, ``kernel.check_trace`` and
    ``walker.check_simulation``.
    """

    model: str
    dim: int
    scales: GeometryScales
    charges: FractionalCharges | None = None
    beta_star: float | None = None
    multiscale_space: bool = False
    fuzzy: bool = False

    def __post_init__(self) -> None:
        if self.model not in MODELS:
            raise DomainError(f"unknown model {self.model!r}; expected one of {MODELS}")
        if self.dim < 1:
            raise DomainError(f"dim must be >= 1, got {self.dim}")
        object.__setattr__(self, "charges", self.charges or FractionalCharges.isotropic(1.0, self.dim))
        if self.charges.dim != self.dim:
            raise DomainError(f"{self.charges.dim} fractional charges for dim = {self.dim}")
        if self.multiscale_space and len(set(self.charges.alphas)) > 1:
            raise DomainError(f"a multiscale space needs isotropic charges, got {self.charges.alphas}")
        # a parameter the model never reads is refused, not silently dropped
        if self.model == "legacy" and self.beta_star is not None:
            raise DomainError(f"the legacy model reads no beta_star, got {self.beta_star}")
        if self.model == "q" and self.scales.nu != 1.0:
            raise DomainError(f"the q model reads no nu (beta is its clock), got nu = {self.scales.nu}")
        if self.scales.lbar > 0.0 and (self.model in ("q", "legacy") or self.beta_star is not None):
            raise DomainError(
                "lbar is read only at fixed dimensionality by the weighted and ordinary models, "
                f"got lbar = {self.scales.lbar}"
            )
        fixed_dimensionality = self.model in ("weighted", "ordinary") and self.beta_star is None
        if fixed_dimensionality and not self.scales.beta > 0.0:
            raise DomainError(
                f"beta must be positive at fixed dimensionality, got beta = {self.scales.beta}"
            )
        # both profiles are built here, once: a binomial charge outside (0, 2), or 1, raises
        time_profile, _ = self.multiscale, self.spatial_profile
        if self.model == "q" and time_profile is not None and not 0.0 < self.beta_star < 1.0:
            raise DomainError(f"q model requires a binomial charge in (0, 1), got {self.beta_star}")
        if self.model == "q" and time_profile is None and not 0.0 < self.scales.beta < 2.0:
            raise DomainError(f"q-model charge must lie in (0, 2), got {self.scales.beta}")
        if self.fuzzy:
            if self.model != "weighted" or time_profile is None:
                raise DomainError("fuzzy mode is only valid for the weighted multiscale model")
            if not 0.0 < self.beta_star < 1.0:
                raise DomainError(
                    f"fuzzy mode requires a binomial charge in (0, 1), got {self.beta_star}"
                )

    @cached_property
    def multiscale(self) -> MeasureProfile | None:
        """The binomial diffusion-time profile of ``beta_star``; None without one."""
        if self.beta_star is None:
            return None
        return MeasureProfile.binomial(self.beta_star, self.scales.lstar, kind=DIFFUSION_TIME)

    @cached_property
    def spatial_profile(self) -> MeasureProfile | None:
        """The binomial position profile of a multiscale space; None for a fractional one."""
        if not self.multiscale_space:
            return None
        return MeasureProfile.binomial(self.charges.alphas[0], self.scales.lstar, kind=POSITION)


def _shaped(sig: np.ndarray, values: np.ndarray) -> float | np.ndarray:
    """A float for a 0-d sigma, else ``values`` in the shape of sigma."""
    return values.item() if sig.ndim == 0 else values.reshape(sig.shape)


_PANEL_DECADES = 18


def binomial_time_integral(
    beta_star: float, lstar: float, sigma: float | np.ndarray
) -> float | np.ndarray:
    """int_0^sigma ds / (1 + (s/lstar)^(beta_star-1)) for 0 < beta_star < 2.

    ``sigma`` is a float or an array; a float gives a float, an array an
    array of its shape, each element bit for bit the value its float gives.
    Summed by the decade-panel rule of :func:`specfun.decade_panels`,
    16-node Gauss-Legendre in ln s, on the 18 decades below sigma, with one
    more decade for every decade of sigma/lstar beyond 1e7, so that the
    panels always reach below 1e-11 lstar; an array is summed in one call
    per decade count, in cache-sized blocks, with one power per decade
    edge and one per Gauss node, not one per node of every panel.  The
    rule summed exactly is within 2^-51 of the integral at |beta* - 1| up
    to 0.999 (tests/test_removable_poles.py), and the float sum within a
    few units of 2^-53 of the rule.  The integrand is positive, bounded by
    1 and, in ln s, analytic in a strip of half-width
    pi/|beta* - 1| >= pi about every decade (the branch point at s = 0 is
    at ln s = -inf), so nothing cancels: the hypergeometric
    closed form sigma * F(1, b; b+1; z), b = 1/(beta*-1), has removable
    poles at beta* = 1 +- 1/k and a resurgent continuation for beta* next
    to 1, but this rule sees neither.  It is within 1e-14 of mpmath for
    every beta* in (0, 2), 1 +- 1e-12 included, and sigma/lstar in
    [1e-280, 1e280] where the integral is a normal double, at least
    ``sys.float_info.min`` (2.2e-308).  :class:`DomainError` is raised if
    any element is negative or has sigma/lstar outside that range, and if a
    nonzero sigma gives an integral below the normal range: near
    sigma/lstar = 1e-280 the integral is about sigma^(2 - beta*), which is
    below 2.2e-308 for beta* under about 0.9.  sigma = 0 gives 0.
    """
    sig = check_sigma(sigma, zero=True)
    flat = sig.reshape(-1)
    if lstar <= 0.0:
        raise DomainError(f"lstar must be positive, got {lstar}")
    if not 0.0 < beta_star < 2.0:
        raise DomainError(f"beta_star = {beta_star} outside the range (0, 2)")
    nonzero = np.flatnonzero(flat != 0.0)
    ratio = flat[nonzero] / lstar
    # beyond, the panel nodes push (s/lstar)^power out of the double range
    outside = ratio[~((ratio >= 1e-280) & (ratio <= 1e280))]
    if outside.size:
        raise DomainError(f"sigma/lstar = {float(outside[0])} outside [1e-280, 1e280]")
    power = beta_star - 1.0
    # up to sigma/lstar = 1e7 the 18 decades reach below 1e-11 lstar, and
    # each further decade of sigma/lstar adds one: there the integrand is
    # 1 + O((s/lstar)^power) for beta* > 1, so the head is its length; for
    # beta* <= 1 it increases with s, so the dropped head is below 1e-17 of
    # the total
    decades = np.full(nonzero.size, _PANEL_DECADES)
    beyond = np.flatnonzero(ratio > 1e7)
    decades[beyond] += np.array(
        [math.ceil(math.log10(r)) - 7 for r in ratio[beyond].tolist()], dtype=int
    )

    out = np.zeros(flat.size)
    for count in np.unique(decades).tolist():
        index = nonzero[decades == count]
        upper = flat[index]
        head = upper * 10.0 ** (-count) if power > 0.0 else 0.0
        out[index] = head + decade_panels(power, lstar, upper, count)
    # the panel sums lose bits below the normal range, and reach 0 under it
    subnormal = nonzero[out[nonzero] < sys.float_info.min]
    if subnormal.size:
        i = subnormal[0]
        raise DomainError(
            f"the binomial time integral at sigma = {float(flat[i])}, beta_star = {beta_star} is "
            f"{float(out[i])}, below the normal double range ({sys.float_info.min})"
        )
    return _shaped(sig, out)


def _quadrature(weight: Callable[[float], float], nu: float, sigma: float, charge: float) -> float:
    """int_0^sigma s^(nu-1)/weight(s) ds by adaptive quadrature, at sigma > 0.

    ``charge`` is the smallest power-law charge of the weight near zero;
    unless it is 1, the substitution u = s^charge removes the integrable
    endpoint singularity before the adaptive rule sees it.  Raises
    :class:`ConvergenceError` when the 1e-9 relative tolerance is not met.
    """
    if abs(charge - 1.0) > 1e-12:

        def integrand(u: float) -> float:
            s = u ** (1.0 / charge)
            return (1.0 / charge) * u ** (nu / charge - 1.0) / weight(s)

        upper = sigma ** charge
    else:

        def integrand(s: float) -> float:
            return s ** (nu - 1.0) / weight(s)

        upper = sigma

    from scipy import integrate

    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            value, abserr = integrate.quad(
                integrand, 0.0, upper, epsabs=0.0, epsrel=_QUAD_REL_TOL, limit=200
            )
        except integrate.IntegrationWarning as exc:
            raise ConvergenceError(f"adaptive quadrature did not converge: {exc}") from exc
    if not math.isfinite(value):
        raise DomainError("dispersion integral diverges (non-integrable singularity)")
    if value > 0.0 and abserr > 50.0 * _QUAD_REL_TOL * abs(value):
        raise ConvergenceError(
            f"quadrature tolerance not met: abserr = {abserr:.3e} on value {value:.6e}"
        )
    return value


def time_weight(spec: DiffusionSpec) -> Callable[[float], float]:
    """Diffusion-time weight v(sigma) of a spec: binomial profile if present,
    otherwise the fractional power law sigma^(beta-1)/Gamma(beta)."""
    if spec.multiscale is not None:
        profile = spec.multiscale
        return lambda s: multiscale_weight(s, profile)
    beta = spec.scales.beta
    norm = gamma_fn(beta)
    return lambda s: s ** (beta - 1.0) / norm


def q_time_profile(spec: DiffusionSpec) -> MeasureProfile:
    """Diffusion-time profile of a q-model spec.

    Falls back to the single-term fixed-dimensionality form with coefficient
    1/Gamma(beta+1) when no multiscale profile is attached.
    """
    if spec.multiscale is not None:
        return spec.multiscale
    beta = spec.scales.beta
    return MeasureProfile(
        terms=((1.0 / gamma_fn(beta + 1.0), beta),), kind=DIFFUSION_TIME
    )


def check_dispersion(spec: DiffusionSpec) -> None:
    """The refusals of :func:`dispersion` that the spec alone decides, made
    first by every evaluator of the dispersion.  weighted/ordinary only: a
    binomial time measure is read at |nu - 1| <= 1e-12 only, and at fixed
    dimensionality 1 + nu - beta must be positive, or no normalizable
    pointlike initial condition exists (:class:`ExponentDomainError`)."""
    if spec.model not in ("weighted", "ordinary"):
        return
    sc = spec.scales
    if spec.beta_star is not None:
        if abs(sc.nu - 1.0) > 1e-12:
            raise DomainError(f"beta_star is read only at nu = 1, got nu = {sc.nu}")
    elif 1.0 + sc.nu - sc.beta <= 0.0:
        raise ExponentDomainError(
            f"1 + nu - beta = {1.0 + sc.nu - sc.beta} must be positive for a pointlike "
            "initial condition"
        )


def dispersion(spec: DiffusionSpec, sigma: float | np.ndarray) -> float | np.ndarray:
    """The model's dispersion ell^2 at a diffusion time or a whole array of them.

    weighted/ordinary (the two share one Gaussian width) with a binomial
    time measure: ell2(0) + kappa * int_0^sigma ds / v_*(s), the integral
    :func:`binomial_time_integral` and ell2(0) zero for the pointlike
    initial condition or lstar^2 in the fuzzy scenario (Gaussian initial
    spread of width lstar).  At fixed dimensionality:
    lbar^2 + kappa Gamma(beta) sigma^(1+nu-beta)/(1+nu-beta).
    q: kappa * sum_n g_n sigma^(beta_n) over :func:`q_time_profile`.
    legacy: kappa * sigma.  The spec's refusals (:func:`check_dispersion`)
    come first.  A float gives a float, an array an array of its shape,
    each element bit for bit the value its float gives; a negative element
    raises :class:`DomainError` before anything is evaluated.
    """
    check_dispersion(spec)
    sc = spec.scales
    if spec.model in ("weighted", "ordinary") and spec.beta_star is not None:
        base = sc.lstar ** 2 if spec.fuzzy else 0.0
        return base + sc.kappa * binomial_time_integral(spec.beta_star, sc.lstar, sigma)
    sig = check_sigma(sigma, zero=True)
    if spec.model == "legacy":  # ordinary Brownian width
        return _shaped(sig, sc.kappa * sig)
    if spec.model == "q":
        total = 0
        for g, c in q_time_profile(spec).terms:
            total = total + g * powers(sig, c)
        return _shaped(sig, sc.kappa * total)
    exponent = 1.0 + sc.nu - sc.beta
    coeff = sc.kappa * gamma_fn(sc.beta) / exponent
    return _shaped(sig, sc.lbar ** 2 + coeff * powers(sig, exponent))


def dispersion_quadrature(spec: DiffusionSpec, sigma: float | np.ndarray) -> float | np.ndarray:
    """The oracle of :func:`dispersion`: each model's defining integral by
    adaptive quadrature, independent of every closed form.

    weighted/ordinary: ell2(0) + kappa int_0^sigma s^(nu-1)/v(s) ds, v the
    :func:`time_weight` and ell2(0) lstar^2 fuzzy, lbar^2 at fixed
    dimensionality, else 0; q: the integral of its derivative
    kappa sum_n g_n c_n s^(c_n - 1) over :func:`q_time_profile`; legacy:
    the Brownian kappa sigma.  It takes what :func:`dispersion` takes and
    refuses what it refuses (:func:`check_dispersion`, then any negative
    sigma), and a float gives a float, an array an array of its shape.
    """
    check_dispersion(spec)
    sig = check_sigma(sigma, zero=True)
    sc = spec.scales
    if spec.model == "q":
        profile = q_time_profile(spec)
        nu, base, charge = 1.0, 0.0, profile.min_charge

        def weight(s: float) -> float:
            return 1.0 / sum(g * c * s ** (c - 1.0) for g, c in profile.terms)

    elif spec.model == "legacy":
        nu, base, charge = 1.0, 0.0, 1.0

        def weight(s: float) -> float:
            return 1.0

    elif spec.beta_star is not None:
        nu, charge, weight = sc.nu, spec.multiscale.min_charge, time_weight(spec)
        base = sc.lstar ** 2 if spec.fuzzy else 0.0
    else:
        nu, base, charge, weight = sc.nu, sc.lbar ** 2, sc.beta, time_weight(spec)
    values = [
        base + sc.kappa * _quadrature(weight, nu, s, charge) if s > 0.0 else base
        for s in sig.reshape(-1).tolist()
    ]
    return _shaped(sig, np.array(values))
