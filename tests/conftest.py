import math

import numpy as np
import pytest
from scipy import integrate

from multiflow.dispersion import DiffusionSpec
from multiflow.measure import FractionalCharges, GeometryScales
from multiflow.spectral import flow_curve


@pytest.fixture
def rng():
    return np.random.default_rng(20130409)


def binomial_spec(
    beta_star: float,
    dim: int = 4,
    lstar: float = 1.0,
    kappa: float = 1.0,
    fuzzy: bool = False,
    model: str = "weighted",
    alpha: float = 1.0,
) -> DiffusionSpec:
    """Weighted/ordinary-model spec with a binomial diffusion-time measure."""
    return DiffusionSpec(
        model=model,
        dim=dim,
        scales=GeometryScales(lstar=lstar, kappa=kappa),
        charges=FractionalCharges.isotropic(alpha, dim),
        beta_star=beta_star,
        fuzzy=fuzzy,
    )


def fractional_spec(
    beta: float,
    nu: float = 1.0,
    dim: int = 4,
    kappa: float = 1.0,
    alpha: float = 1.0,
    model: str = "weighted",
) -> DiffusionSpec:
    """Fixed-dimensionality spec: power-law diffusion-time weight."""
    return DiffusionSpec(
        model=model,
        dim=dim,
        scales=GeometryScales(kappa=kappa, nu=nu, beta=beta),
        charges=FractionalCharges.isotropic(alpha, dim),
    )


def flow_at(spec: DiffusionSpec, sigma: float) -> float:
    """d_S of the spec's closed-form flow at one sigma: a one-point flow_curve call."""
    return float(flow_curve(spec, [sigma])[0].ds[0])


def flow_asymptotes(spec: DiffusionSpec) -> tuple[float, float]:
    """The (UV, IR) asymptotes flow_curve reports for the spec."""
    flow, _ = flow_curve(spec, [spec.scales.lstar])
    return flow.uv_asymptote, flow.ir_asymptote


def quad_dispersion_oracle(beta_star: float, lstar: float, kappa: float, sigma: float) -> float:
    """Adaptive quadrature of kappa * int_0^sigma ds / (1 + (s/lstar)^(beta_star-1)),
    independent of the closed-form path (substitution tames the endpoint)."""
    c = min(beta_star, 1.0)

    def integrand(u: float) -> float:
        s = u ** (1.0 / c)
        v = 1.0 + (s / lstar) ** (beta_star - 1.0)
        return (1.0 / c) * u ** (1.0 / c - 1.0) / v

    value, err = integrate.quad(
        integrand, 0.0, sigma ** c, epsabs=0.0, epsrel=1e-12, limit=500
    )
    assert err < 1e-9 * abs(value) + 1e-15
    return kappa * value


def gauss_tail_box(x0: float, ell: float, factor: float = 14.0) -> tuple[float, float]:
    lo = min(0.0, x0) - factor * ell
    hi = max(0.0, x0) + factor * ell
    return lo, hi


def weighted_norm_quad_1d(alpha: float, x0: float, ell2: float) -> float:
    """int |x|^(alpha-1)/Gamma(alpha) exp(-(x-x0)^2/(4 ell^2)) dx by adaptive quadrature."""
    ell = math.sqrt(ell2)

    def f(x: float) -> float:
        return abs(x) ** (alpha - 1.0) / math.gamma(alpha) * math.exp(
            -((x - x0) ** 2) / (4.0 * ell2)
        )

    lo, hi = gauss_tail_box(x0, ell)
    total = 0.0
    for a, b in ((lo, 0.0), (0.0, hi)):
        pts = [p for p in (x0,) if a < p < b]
        part, _ = integrate.quad(f, a, b, epsabs=1e-13, epsrel=1e-11, limit=400, points=pts or None)
        total += part
    return total
