"""Measure profiles, geometric coordinate profiles, and dimension bookkeeping.

A multiscale geometry is encoded by a positive weight multiplying the Lebesgue
measure, a sum of power-law terms (a :class:`MeasureProfile`).  The binomial
(two-charge) profile interpolating between an anomalous ultraviolet regime and
an ordinary infrared one is the workhorse: ``1 + (x/lstar)^(c-1)`` in
diffusion time.  Each weight has one evaluator, on the spec that holds it:
``dispersion.time_weight`` in diffusion time and ``kernel.position_weight``
in position, whose terms carry a gamma normalization ``|x|^(c-1)/Gamma(c)``.
The kernel reads the position weight, its trace tables and its box volume
from one per-axis term table, the spec's spatial profile in a multiscale
space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .specfun import gamma_fn

__all__ = [
    "MeasureProfile",
    "FractionalCharges",
    "GeometryScales",
    "geometric_profile",
    "hausdorff_dimension",
]


@dataclass(frozen=True)
class MeasureProfile:
    """Ordered list of (coefficient, charge) terms defining a power-law weight.

    Charges must be strictly increasing and lie in (0, 2); coefficients are
    nonnegative with at least one term present.
    """

    terms: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        terms = tuple((float(g), float(c)) for g, c in self.terms)
        object.__setattr__(self, "terms", terms)
        if not terms:
            raise DomainError("profile needs at least one term")
        charges = [c for _, c in terms]
        if any(g < 0.0 for g, _ in terms):
            raise DomainError("profile coefficients must be nonnegative")
        if any(not 0.0 < c < 2.0 for c in charges):
            raise DomainError(f"profile charges must lie in (0, 2), got {charges}")
        if any(c2 <= c1 for c1, c2 in zip(charges, charges[1:])):
            raise DomainError("profile charges must be strictly increasing")

    @classmethod
    def binomial(cls, charge_star: float, lstar: float) -> "MeasureProfile":
        """Two-term profile with charges {charge_star, 1} and coefficients
        {lstar^(1-charge_star), 1}, sorted by charge."""
        if not 0.0 < charge_star < 2.0 or charge_star == 1.0:
            raise DomainError(f"binomial charge must be in (0, 2) and not 1, got {charge_star}")
        if lstar <= 0.0:
            raise DomainError(f"lstar must be positive, got {lstar}")
        pair = [(lstar ** (1.0 - charge_star), charge_star), (1.0, 1.0)]
        pair.sort(key=lambda t: t[1])
        return cls(terms=tuple(pair))

    @property
    def charges(self) -> tuple[float, ...]:
        return tuple(c for _, c in self.terms)

    @property
    def min_charge(self) -> float:
        return self.terms[0][1]


@dataclass(frozen=True)
class FractionalCharges:
    """Per-direction fractional charges alpha_mu in (0, 1]."""

    alphas: tuple[float, ...]

    def __post_init__(self) -> None:
        alphas = tuple(float(a) for a in self.alphas)
        object.__setattr__(self, "alphas", alphas)
        if not alphas:
            raise DomainError("need at least one fractional charge")
        if any(not 0.0 < a <= 1.0 for a in alphas):
            raise DomainError(f"fractional charges must lie in (0, 1], got {alphas}")

    @classmethod
    def isotropic(cls, alpha: float, dim: int) -> "FractionalCharges":
        if dim < 1:
            raise DomainError(f"dimension must be >= 1, got {dim}")
        return cls(alphas=(alpha,) * dim)

    @property
    def dim(self) -> int:
        return len(self.alphas)

    @property
    def average(self) -> float:
        return sum(self.alphas) / len(self.alphas)


@dataclass(frozen=True)
class GeometryScales:
    """Dimensionful knobs of a diffusion model.

    ``lstar`` is the crossover length of a binomial measure, ``lbar`` an
    optional initial Gaussian spread, ``kappa`` the diffusion constant, ``nu``
    the noise exponent and ``beta`` the diffusion-time charge.
    """

    lstar: float = 1.0
    lbar: float = 0.0
    kappa: float = 1.0
    nu: float = 1.0
    beta: float = 1.0

    def __post_init__(self) -> None:
        if self.lstar <= 0.0:
            raise DomainError(f"lstar must be positive, got {self.lstar}")
        if self.kappa <= 0.0:
            raise DomainError(f"kappa must be positive, got {self.kappa}")
        if self.lbar < 0.0:
            raise DomainError(f"lbar must be nonnegative, got {self.lbar}")


def geometric_profile(x: float, alpha: float) -> float:
    """Geometric coordinate q(x) = sgn(x) |x|^alpha / Gamma(alpha + 1)."""
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha must lie in (0, 1], got {alpha}")
    if x == 0.0:
        return 0.0
    return math.copysign(abs(x) ** alpha / gamma_fn(alpha + 1.0), x)


def hausdorff_dimension(charges: FractionalCharges) -> float:
    """Hausdorff dimension sum_mu alpha_mu of a factorizable fractional measure."""
    return sum(charges.alphas)
