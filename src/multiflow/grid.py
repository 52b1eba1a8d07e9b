"""Diffusion-time grids: the check every sampled curve makes of its sigma
grid, the power of every grid point, and the five-point stencil in ln sigma
that turns a sampled curve into a log-log slope (a spectral dimension)."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import DomainError, GridError

__all__ = ["check_grid", "five_point_slope", "log_slope", "powers"]


def check_grid(sigmas: np.ndarray) -> None:
    """Raise :class:`GridError` unless ``sigmas`` is 1-d, finite, positive and strictly increasing."""
    if (
        sigmas.ndim != 1
        or not np.all(np.isfinite(sigmas) & (sigmas > 0.0))
        or np.any(np.diff(sigmas) <= 0.0)
    ):
        raise GridError("sigma grid must be 1-d, finite, positive and strictly increasing")


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
