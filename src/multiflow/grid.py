"""Diffusion-time grids: the builders of every sigma grid, every rule a
sigma obeys, the power of every grid point, and the five-point stencil in
ln sigma that turns a sampled curve into a log-log slope (a spectral
dimension).

Each sigma rule is written here once: :func:`check_grid_args` for the
(sigma_min, sigma_max, n) of a grid builder, :func:`check_sigma` for the
sign of a sigma or of each element of a sigma array, and :func:`check_grid`
for the grid of a sampled curve and the columns sampled on it.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import DomainError, GridError

__all__ = [
    "geometric_grid", "uniform_grid", "check_grid_args", "check_sigma", "check_grid",
    "five_point_slope", "log_slope", "powers",
]


def check_grid_args(sigma_min: float, sigma_max: float, n: int, count: str = "steps") -> None:
    """:class:`GridError` unless 0 < sigma_min < sigma_max and ``n`` >= 2;
    ``count`` names what ``n`` counts in the message."""
    if not 0.0 < sigma_min < sigma_max:
        raise GridError(f"need 0 < sigma_min < sigma_max, got {sigma_min}, {sigma_max}")
    if n < 2:
        raise GridError(f"need at least 2 {count}, got {n}")


def geometric_grid(sigma_min: float, sigma_max: float, n_steps: int) -> np.ndarray:
    """Log-spaced grid, the default: exact variance differences need no small
    steps and the decades of a scaling law get equal weight."""
    check_grid_args(sigma_min, sigma_max, n_steps)
    return np.geomspace(sigma_min, sigma_max, n_steps)


def uniform_grid(sigma_min: float, sigma_max: float, n_steps: int) -> np.ndarray:
    """Uniformly spaced grid starting after zero (for increment diagnostics)."""
    check_grid_args(sigma_min, sigma_max, n_steps)
    return np.linspace(sigma_min, sigma_max, n_steps)


def check_sigma(sigma: float | Sequence[float] | np.ndarray, zero: bool = False) -> np.ndarray:
    """sigma as a float array of its shape; :class:`DomainError` naming the
    first element that is not positive, or, where ``zero`` admits 0, the
    first that is not nonnegative: nan is refused either way."""
    sig = np.asarray(sigma, dtype=float)
    bad = sig[~(sig >= 0.0)] if zero else sig[~(sig > 0.0)]
    if bad.size:
        raise DomainError(f"sigma must be {'nonnegative' if zero else 'positive'}, got {float(bad[0])}")
    return sig


def check_grid(sigmas: np.ndarray, *columns: np.ndarray, min_points: int = 2) -> None:
    """Raise :class:`GridError` unless ``sigmas`` is 1-d, finite, positive and
    strictly increasing with at least ``min_points`` points, and each column
    sampled on it has its shape."""
    if (
        sigmas.ndim != 1
        or not np.all(np.isfinite(sigmas) & (sigmas > 0.0))
        or np.any(np.diff(sigmas) <= 0.0)
    ):
        raise GridError("sigma grid must be 1-d, finite, positive and strictly increasing")
    if sigmas.size < min_points:
        raise GridError(f"sigma grid needs at least {min_points} points, got {sigmas.size}")
    for column in columns:
        if column.shape != sigmas.shape:
            raise GridError(f"values of shape {column.shape} do not match {sigmas.size} sigmas")


def powers(values: np.ndarray, exponent: float) -> np.ndarray:
    """values ** exponent element by element, each a scalar ``pow`` on a Python float.

    numpy's vectorised power rounds differently from ``pow`` in a few
    percent of elements; this keeps every element the bits of its scalar
    expression.  ``values`` is flattened.
    """
    return np.array([v ** exponent for v in np.ravel(values).tolist()], dtype=float)


def five_point_slope(f: Sequence[float], h: float) -> float:
    """Central derivative at f[2] of samples f[0..4] spaced h apart, error O(h^4)."""
    return (f[0] - 8.0 * f[1] + 8.0 * f[3] - f[4]) / (12.0 * h)


def log_slope(sigmas: np.ndarray, values: np.ndarray, sigma: float | None) -> float:
    """d ln(values)/d ln(sigma) at the grid point ``sigma``.

    The grid must be uniform in ln sigma, and ``sigma`` must sit at least two
    grid points away from either edge, where the five-point stencil fits.
    """
    steps = np.diff(np.log(sigmas))
    h = steps[0]
    if np.any(np.abs(steps - h) > 1e-8 * max(abs(h), 1.0)):
        raise GridError("a slope in ln sigma needs a log-uniform grid")
    if sigma is None:
        raise DomainError("no grid point sigma given for the slope")
    idx = int(np.argmin(np.abs(sigmas - sigma)))
    if not math.isclose(sigmas[idx], sigma, rel_tol=1e-9):
        raise GridError(f"sigma = {sigma} is not a grid point of the curve")
    if idx < 2 or idx > sigmas.size - 3:
        raise GridError(f"sigma = {sigma} is too close to the grid edge for a 5-point stencil")
    return five_point_slope(np.log(values[idx - 2 : idx + 3]), h)
