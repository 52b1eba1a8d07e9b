"""Monte Carlo walkers: Brownian, scaled, and multiscale-spacetime processes.

Five processes are simulated, all reducible to Gaussian increments:

* ``bm``      -- Brownian motion, variance 2 kappa dsigma per step/direction;
* ``sbm``     -- scaled Brownian motion, the exact time change sigma -> sigma^nu;
* ``fsbm-v``  -- Brownian motion divided pointwise by sqrt(v(sigma));
* ``fssbm``   -- scaled Brownian motion divided by sqrt(v(sigma));
* ``fsbm-q``  -- scaled Brownian motion (nu = beta) mapped through the
  sign-preserving inverse geometric profile x = sgn(Q)[Gamma(alpha+1)|Q|]^(1/alpha).

Reproducibility contract: paths are drawn in groups of ``_GROUP_PATHS`` = 64.
Group g (paths 64g to 64g + 63) draws from its own SFC64 stream, seeded by
``SeedSequence(seed, spawn_key=(g,))`` (the g-th child that
``SeedSequence(seed).spawn`` makes, numpy's way to independent streams) and
consumed in (path, step, direction) order.  A stream is read in order, so
ensembles are bit-identical for a fixed (seed, grid, spec) whatever the path
count: the first n paths of a larger ensemble are the n-path ensemble.
Paths are simulated in blocks of ``_BLOCK_BYTES`` = 1 MB of positions (256
paths at D = 4 and 128 steps), small enough to stay in cache: a group's
generator is built once, where the group starts, and draws the group's share
of a block straight into the block buffer in one call, a group that spans
two blocks drawing on from where it stopped.  The block is then
scaled, summed along the steps and mapped by the process in place, and
finally reduced to squared radii by explicit adds in np.sum's order.  An
ensemble therefore holds the squared radius of every path and step,
O(paths * steps) memory plus one block, and full positions only for the
first ``keep`` paths (all of them by default).  Its non-finite check, the
standard error of ``msd`` and the increment statistics also work one block
of rows at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dispersion import DiffusionSpec, time_weight
from .errors import DomainError, GridError, SingularPointError
from .grid import check_grid

__all__ = [
    "WalkerEnsemble",
    "MsdFit",
    "IncrementReport",
    "PROCESSES",
    "check_seed",
    "check_simulation",
    "simulate",
    "msd",
    "fit_window",
    "fit_scaling_exponent",
    "fit_scaling_exponent_batched",
    "increment_diagnostics",
]

PROCESSES = ("bm", "sbm", "fsbm-v", "fssbm", "fsbm-q")

# Path batches of the batch-means and median-of-batches fits; every batch
# needs a path, so ``simulate`` needs at least this many.
FIT_BATCHES = 16
_BLOCK_BYTES = 1 << 20
# Paths per SFC64 stream (the reproducibility contract in the module doc).
_GROUP_PATHS = 64


@dataclass(frozen=True)
class WalkerEnsemble:
    """Sampled trajectories of one process on a common diffusion-time grid.

    ``sq_radii`` holds the squared distance from the origin of every path at
    every grid time; ``positions`` holds the full coordinates of the first
    ``n_kept`` paths only.
    """

    process: str
    grid: np.ndarray
    sq_radii: np.ndarray  # (n_paths, n_steps)
    positions: np.ndarray  # (n_kept, n_steps, dim), n_kept <= n_paths

    def __post_init__(self) -> None:
        grid = np.asarray(self.grid, dtype=float)
        sq = np.asarray(self.sq_radii, dtype=float)
        pos = np.asarray(self.positions, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "sq_radii", sq)
        object.__setattr__(self, "positions", pos)
        if self.process not in PROCESSES:
            raise DomainError(f"unknown process {self.process!r}")
        check_grid(grid)
        if sq.ndim != 2 or sq.shape[1] != grid.size:
            raise GridError(f"squared radii shape {sq.shape} does not match grid of {grid.size} steps")
        if pos.ndim != 3 or pos.shape[1] != grid.size or pos.shape[0] > sq.shape[0]:
            raise GridError(f"positions shape {pos.shape} does not match {sq.shape[0]} paths of {grid.size} steps")
        if not (_all_finite(sq, _block_paths(grid.size, 1))
                and _all_finite(pos, _block_paths(grid.size, pos.shape[2]))):
            raise DomainError("ensemble contains non-finite positions")

    @property
    def n_paths(self) -> int:
        return self.sq_radii.shape[0]

    @property
    def n_kept(self) -> int:
        return self.positions.shape[0]

    @property
    def n_steps(self) -> int:
        return self.grid.size


@dataclass(frozen=True)
class MsdFit:
    """Power-law fit of a mean-squared-displacement curve."""

    exponent: float
    prefactor: float
    stderr: float
    window: tuple[float, float]

    def __post_init__(self) -> None:
        if self.stderr < 0.0:
            raise DomainError("stderr must be nonnegative")


@dataclass(frozen=True)
class IncrementReport:
    """Stationarity and correlation diagnostics of path increments.

    ``stationarity_tstat`` is the t statistic of the regression slope of the
    increment variance against the window start time (0 for stationary
    increments).  ``correlation_tstat`` is the normalized sample correlation
    of two disjoint, well-separated increments (0 for uncorrelated ones).
    """

    stationarity_slope: float
    stationarity_tstat: float
    correlation: float
    correlation_tstat: float
    lag: int

    @property
    def stationary(self) -> bool:
        return abs(self.stationarity_tstat) < 3.0

    @property
    def uncorrelated(self) -> bool:
        return abs(self.correlation_tstat) < 3.0


def _block_paths(n_steps: int, dim: int) -> int:
    """Paths per block: as many as fit ``_BLOCK_BYTES`` of float64 positions."""
    return max(1, _BLOCK_BYTES // (8 * n_steps * dim))


def _all_finite(values: np.ndarray, rows: int) -> bool:
    """Whether every value is finite, checked ``rows`` leading-axis rows at a time."""
    return all(np.isfinite(values[lo: lo + rows]).all() for lo in range(0, values.shape[0], rows))


def _row_sum(fill: Callable[[int, np.ndarray], None], n_rows: int, width: int, rows: int) -> np.ndarray:
    """Column sums of the (n_rows, width) array that ``fill(lo, out)`` writes
    ``rows`` rows at a time, from row ``lo`` into ``out``.

    Only one block of rows is held.  Row 0 of the block buffer carries the
    running sum, so each block's reduction continues np.add.reduce's
    sequential row order: the sums have the bits of the whole array's
    ``sum(axis=0)``, and so of the sums inside np.mean, np.var and np.std.
    """
    buf = np.zeros((min(rows, n_rows) + 1, width))
    for lo in range(0, n_rows, rows):
        k = min(rows, n_rows - lo)
        fill(lo, buf[1: k + 1])
        buf[0] = np.add.reduce(buf[: k + 1], axis=0)
    return buf[0]


def _simulate_paths(
    clock: np.ndarray,
    kappa: float,
    dim: int,
    seed: int,
    n_paths: int,
    keep: int | None,
    transform=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Brownian paths in the clock tau, one value per grid time, by block.

    Increment n has variance 2*kappa*(tau_n - tau_{n-1}) per direction, with
    tau_{-1} = 0, which is the exact simulation of the time change (no Euler
    bias).  Path p is path p % 64 of group g = p // 64, whose SFC64 stream
    is seeded by ``SeedSequence(seed, spawn_key=(g,))`` and read in (path,
    step, direction) order; one generator is built per group.  ``transform``
    maps a block of positions in place before it is reduced.  Returns the
    squared radii (n_paths, n_steps) and the positions of the first ``keep``
    paths (all when ``keep`` is None).
    """
    # imported where the walkers draw, so that no other command loads it
    from numpy.random import SFC64, Generator, SeedSequence

    dtau = np.diff(np.concatenate(([0.0], clock)))
    if np.any(dtau <= 0.0):
        raise GridError("time-change increments must be positive")
    if n_paths < 0 or (keep is not None and keep < 0):
        raise DomainError(f"path and kept-path counts must be nonnegative, got {n_paths}, {keep}")
    keep = n_paths if keep is None else min(keep, n_paths)
    n_steps = clock.size
    # (n_steps, dim), not broadcast from (n_steps, 1): a contiguous operand
    # keeps the in-place product one long inner loop.
    scale = np.repeat(np.sqrt(2.0 * kappa * dtau)[:, None], dim, axis=1)
    per_block = _block_paths(n_steps, dim)
    block = np.empty((min(per_block, n_paths), n_steps, dim))
    sq = np.empty((n_paths, n_steps))
    pos = np.empty((keep, n_steps, dim))
    for lo in range(0, n_paths, per_block):
        hi = min(lo + per_block, n_paths)
        buf = block[: hi - lo]
        # the block's group segments; one begun in the last block draws on
        edges = [lo, *range(lo - lo % _GROUP_PATHS + _GROUP_PATHS, hi, _GROUP_PATHS), hi]
        for a, b in zip(edges[:-1], edges[1:]):
            if a % _GROUP_PATHS == 0:
                gen = Generator(SFC64(SeedSequence(seed, spawn_key=(a // _GROUP_PATHS,))))
            gen.standard_normal(out=buf[a - lo: b - lo])
        buf *= scale
        np.cumsum(buf, axis=1, out=buf)
        if transform is not None:
            transform(buf)
        if lo < keep:
            pos[lo: min(hi, keep)] = buf[: min(hi, keep) - lo]
        _sum_squares(buf, sq[lo:hi])
    return sq, pos


def _sum_squares(block: np.ndarray, out: np.ndarray) -> None:
    """out = sum of block**2 over the last axis, bit for bit as ``np.sum``.

    ``block`` is squared in place.  Below eight axes the squares are then
    added into ``out`` in axis order, which is np.sum's order and several
    times faster than its short-axis reduction.
    """
    np.square(block, out=block)
    dim = block.shape[-1]
    if dim >= 8:
        # np.sum adds eight or more terms pairwise, in eight interleaved
        # partial sums; an explicit order would have to copy that
        np.sum(block, axis=-1, out=out)
        return
    np.copyto(out, block[..., 0])
    for k in range(1, dim):
        out += block[..., k]


def check_seed(seed: int) -> None:
    """The walkers' seed rule: numpy's seed sequence takes no negative seed."""
    if seed < 0:
        raise DomainError(f"seed must be nonnegative, got {seed}")


def check_simulation(process: str, spec: DiffusionSpec, seed: int) -> float:
    """The clock exponent nu of ``process``: 1 for ``bm``, beta for ``fsbm-q``,
    the spec's nu otherwise.  :class:`DomainError` for what the process, spec
    and seed alone refuse: a negative seed, lbar > 0 (no walker starts from a
    spread), ``beta_star`` for ``bm``, ``sbm`` and ``fsbm-q``, nu != 1 for
    ``bm`` and ``fuzzy`` (parameters those processes never read), an
    unknown process, nu <= 0, and for ``fsbm-q`` anisotropic charges or beta
    outside (0, 1]."""
    check_seed(seed)
    if spec.scales.lbar > 0.0:
        raise DomainError(f"walkers read no lbar, got lbar = {spec.scales.lbar}")
    if spec.beta_star is not None and process in ("bm", "sbm", "fsbm-q"):
        raise DomainError(f"{process} reads no beta_star, got beta_star = {spec.beta_star}")
    if spec.fuzzy:
        raise DomainError("walkers read no fuzzy (no walker starts from a spread)")
    if process == "bm":
        if abs(spec.scales.nu - 1.0) > 1e-12:
            raise DomainError(f"bm reads no nu (its clock is sigma), got nu = {spec.scales.nu}")
        return 1.0
    if process == "fsbm-q":
        alphas = spec.charges.alphas
        if len(set(alphas)) > 1:
            raise DomainError(f"fsbm-q needs isotropic charges, got {alphas}")
        nu = spec.scales.beta
        if not 0.0 < nu <= 1.0:
            raise DomainError(f"fsbm-q needs beta in (0, 1], got {nu}")
        return nu
    if process not in PROCESSES:
        raise DomainError(f"unknown process {process!r}; expected one of {PROCESSES}")
    nu = spec.scales.nu
    if nu <= 0.0:
        raise DomainError(f"nu must be positive, got {nu}")
    return nu


def simulate(
    process: str,
    n_paths: int,
    grid: Sequence[float] | np.ndarray,
    spec: DiffusionSpec,
    seed: int,
    keep: int | None = None,
) -> WalkerEnsemble:
    """Ensemble of ``n_paths`` paths of ``process``, its parameters from the spec.

    The one builder of every process in the module doc.  Each is Brownian
    motion in the clock sigma^nu, mapped in place.  The grid is checked
    first (:func:`grid.check_grid`); nu and every refusal that the process,
    spec and seed alone decide come next from :func:`check_simulation`,
    before any path is drawn.  ``fsbm-v`` and ``fssbm`` divide by
    sqrt(v(sigma)), v the spec's diffusion-time weight (one
    :func:`dispersion.time_weight` call on the grid), and are tagged
    ``fsbm-v`` at nu = 1 and ``fssbm`` otherwise, whichever is asked for.
    ``fsbm-q`` maps every axis with one charge (the odd extension of the
    first-orthant identification, an implementation choice), so it needs
    isotropic charges.  Its q(x) is N(0, 2 kappa sigma^beta) by
    construction (clock sigma^beta, variance 2 kappa dtau), while the q
    model's density is Gaussian in q with
    2 ell^2 = 2 kappa sigma^beta / Gamma(1 + beta)
    (:func:`dispersion.q_time_profile`): the walker samples that density at
    a time rescaled by Gamma(1 + beta), 0.886 at beta = 0.5.  ``keep`` is
    how many leading paths keep their full positions (all when None); every
    path keeps its squared radius.
    """
    grid = np.asarray(grid, dtype=float)
    check_grid(grid)
    nu = check_simulation(process, spec, seed)
    transform = None
    if process == "fsbm-q":
        # the charges themselves lie in (0, 1]: FractionalCharges refuses others
        alpha = spec.charges.alphas[0]
        if alpha != 1.0:
            gamma_a1 = math.gamma(alpha + 1.0)

            def transform(block: np.ndarray) -> None:
                mag = gamma_a1 * np.abs(block)
                mag **= 1.0 / alpha
                np.sign(block, out=block)
                block *= mag

    elif process in ("fsbm-v", "fssbm"):
        v = time_weight(spec, grid)
        if np.any(v <= 0.0) or not np.all(np.isfinite(v)):
            raise SingularPointError("diffusion-time weight must be finite and positive on the grid")
        root_v = np.repeat(np.sqrt(v)[:, None], spec.dim, axis=1)

        def transform(block: np.ndarray) -> None:
            block /= root_v

        process = "fsbm-v" if abs(nu - 1.0) <= 1e-12 else "fssbm"
    sq, pos = _simulate_paths(grid ** nu, spec.scales.kappa, spec.dim, seed, n_paths, keep, transform)
    return WalkerEnsemble(process, grid, sq, pos)


def msd(ensemble: WalkerEnsemble) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean squared displacement from the origin at each grid time.

    Returns (sigmas, msd, stderr); the ensemble mean is a fixed-order
    reduction, so it inherits the simulator's determinism.  The standard
    error needs at least 2 paths.  It is ``sq.std(axis=0, ddof=1) / sqrt(n)``
    bit for bit, but the squared deviations are made one block of rows at a
    time (``_row_sum``), never for the whole ensemble.  An MSD or standard
    error off the double range (squared radii past about 1e154 square to
    inf) is a :class:`DomainError` naming the first such sigma.
    """
    n = ensemble.n_paths
    if n < 2:
        raise DomainError(f"msd needs at least 2 paths, got {n}")
    sq = ensemble.sq_radii

    def squared_deviations(lo: int, out: np.ndarray) -> None:
        np.subtract(sq[lo: lo + out.shape[0]], mean, out=out)
        np.square(out, out=out)

    with np.errstate(over="ignore"):
        mean = sq.mean(axis=0)
        acc = _row_sum(squared_deviations, n, ensemble.n_steps, _block_paths(ensemble.n_steps, 1))
        stderr = np.sqrt(acc / (n - 1)) / math.sqrt(n)
    off = ~(np.isfinite(mean) & np.isfinite(stderr))
    if off.any():
        raise DomainError(
            f"{ensemble.process} msd or its standard error is not finite at "
            f"sigma = {float(ensemble.grid[off][0])!r}"
        )
    return ensemble.grid.copy(), mean, stderr


def fit_window(
    sigmas: Sequence[float] | np.ndarray, window: tuple[float, float] | None = None
) -> tuple[float, float]:
    """``window``, by default the last two decades (sigmas[-1]/100, sigmas[-1]),
    once it holds at least 10 of the grid's sigmas; else :class:`DomainError`."""
    sigmas = np.asarray(sigmas, dtype=float)
    lo, hi = (float(sigmas[-1]) / 100.0, float(sigmas[-1])) if window is None else window
    if not lo < hi:
        raise DomainError(f"degenerate fit window ({lo}, {hi})")
    inside = int(np.count_nonzero((sigmas >= lo) & (sigmas <= hi)))
    if inside < 10:
        raise DomainError(f"fit window ({lo}, {hi}) holds {inside} points; need >= 10")
    return lo, hi


def fit_scaling_exponent(
    sigmas: np.ndarray,
    values: np.ndarray,
    window: tuple[float, float],
    sq_radii: np.ndarray | None = None,
) -> MsdFit:
    """Least-squares slope of ln(values) against ln(sigmas) inside the window.

    The window must hold 10 grid points (:func:`fit_window`), and every
    value in it must be positive.  The standard error is the
    usual OLS slope error from the fit residuals, unless ``sq_radii``, the
    (paths, steps) squared radii whose path mean is ``values``, is given.
    Then it is the batch-means error: the sd of the slopes fitted to
    ``FIT_BATCHES`` contiguous path batches over sqrt(batches).  MSD
    points share their paths, so their errors are correlated and the OLS
    error understates the seed-to-seed spread (Flyvbjerg & Petersen,
    J. Chem. Phys. 91, 1989).
    """
    sigmas = np.asarray(sigmas, dtype=float)
    values = np.asarray(values, dtype=float)
    lo, hi = fit_window(sigmas, window)
    mask = (sigmas >= lo) & (sigmas <= hi)
    if np.any(values[mask] <= 0.0):
        raise DomainError("fit window contains non-positive values")
    x = np.log(sigmas[mask])
    y = np.log(values[mask])
    n = x.size
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    intercept = ym - slope * xm
    if sq_radii is None:
        resid = y - (intercept + slope * x)
        variance = float(np.sum(resid ** 2)) / (n - 2) if n > 2 else 0.0
        stderr = math.sqrt(variance / sxx)
    else:
        batches = _batch_exponents(sigmas, sq_radii, window)
        stderr = float(np.std(batches, ddof=1)) / math.sqrt(FIT_BATCHES)
    return MsdFit(exponent=slope, prefactor=math.exp(intercept), stderr=stderr, window=(lo, hi))


def _batch_exponents(
    sigmas: np.ndarray, sq_radii: np.ndarray, window: tuple[float, float]
) -> np.ndarray:
    """Exponents fitted to the MSD of each of ``FIT_BATCHES`` contiguous path batches."""
    n_paths = sq_radii.shape[0]
    if n_paths < FIT_BATCHES:
        raise DomainError(f"need at least {FIT_BATCHES} paths, got {n_paths}")
    bounds = np.linspace(0, n_paths, FIT_BATCHES + 1, dtype=int)
    return np.array([
        fit_scaling_exponent(sigmas, sq_radii[lo:hi].mean(axis=0), window).exponent
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ])


def fit_scaling_exponent_batched(
    ensemble: WalkerEnsemble,
    window: tuple[float, float],
) -> MsdFit:
    """Median-of-batches exponent fit for heavy-tailed walkers.

    Paths are split into ``FIT_BATCHES`` contiguous batches, the exponent is
    fitted per batch, and the median is reported with a MAD-based standard
    error.  This keeps the scaling estimate robust when squared displacements
    have large kurtosis (the q-model walker raises Gaussians to 1/alpha).
    """
    exponents = _batch_exponents(ensemble.grid, ensemble.sq_radii, window)
    med = float(np.median(exponents))
    mad = float(np.median(np.abs(exponents - med)))
    stderr = 1.4826 * mad / math.sqrt(FIT_BATCHES)
    return MsdFit(exponent=med, prefactor=math.nan, stderr=stderr, window=window)


def increment_diagnostics(ensemble: WalkerEnsemble, lag: int) -> IncrementReport:
    """Stationarity and correlation statistics of increments at a given lag.

    Stationarity: the variance of X(sigma_{i+lag}) - X(sigma_i) is regressed
    against sigma_i over all window starts; a nonzero slope flags
    nonstationary increments.  Meaningful start-to-start comparison needs a
    uniform grid (equal sigma differences), which is enforced.

    Correlation: the sample correlation across paths between the first and
    the last lag-sized increments (disjoint and maximally separated).  The
    t statistic uses stderr = 1/sqrt(n_paths).
    """
    if ensemble.n_kept < ensemble.n_paths:
        raise DomainError(
            f"increment diagnostics need the positions of all {ensemble.n_paths} paths; "
            f"the ensemble keeps {ensemble.n_kept}"
        )
    if lag < 1 or lag >= ensemble.n_steps:
        raise DomainError(f"lag must lie in [1, n_steps), got {lag}")
    n_pairs = ensemble.n_steps - lag
    if n_pairs < 3 or ensemble.n_paths < 8:
        raise DomainError("insufficient data for increment diagnostics")
    steps = np.diff(ensemble.grid)
    if np.any(np.abs(steps - steps[0]) > 1e-9 * abs(steps[0])):
        raise GridError("increment diagnostics need a uniform grid")

    pos, n = ensemble.positions, ensemble.n_paths
    rows = _block_paths(n_pairs, pos.shape[2])
    inc = np.empty((min(rows, n), n_pairs, pos.shape[2]))

    def squared_increments(lo: int, out: np.ndarray) -> None:
        blk = inc[: out.shape[0]]
        np.subtract(pos[lo: lo + out.shape[0], lag:], pos[lo: lo + out.shape[0], :-lag], out=blk)
        _sum_squares(blk, out)

    # mean and ddof=1 variance over paths of the squared increments, one
    # block of rows at a time
    variances = _row_sum(squared_increments, n, n_pairs, rows) / n

    def squared_deviations(lo: int, out: np.ndarray) -> None:
        squared_increments(lo, out)
        np.subtract(out, variances, out=out)
        np.square(out, out=out)

    var_of_var = _row_sum(squared_deviations, n, n_pairs, rows) / (n - 1) / n

    starts = ensemble.grid[:-lag]
    xm = starts.mean()
    sxx = float(np.sum((starts - xm) ** 2))
    scale = variances.mean()
    slope = float(np.sum((starts - xm) * (variances - variances.mean())) / sxx) / scale
    # Propagated per-point sampling error of the slope (variance estimates are
    # independent across paths, approximately across starts).
    slope_err = math.sqrt(float(np.sum(((starts - xm) / sxx) ** 2 * var_of_var))) / scale
    stat_t = slope / slope_err if slope_err > 0.0 else math.inf if slope else 0.0

    first = (pos[:, lag] - pos[:, 0]).sum(axis=1)
    last = (pos[:, -1] - pos[:, -1 - lag]).sum(axis=1)
    fm, lm = first.mean(), last.mean()
    num = float(np.mean((first - fm) * (last - lm)))
    den = float(first.std(ddof=0) * last.std(ddof=0))
    corr = num / den if den > 0.0 else 0.0
    corr_t = corr * math.sqrt(n)
    return IncrementReport(
        stationarity_slope=slope,
        stationarity_tstat=stat_t,
        correlation=corr,
        correlation_tstat=corr_t,
        lag=lag,
    )
