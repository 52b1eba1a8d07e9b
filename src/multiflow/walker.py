"""Monte Carlo walkers: Brownian, scaled, and multiscale-spacetime processes.

Five processes are simulated, all reducible to Gaussian increments:

* ``bm``      -- Brownian motion, variance 2 kappa dsigma per step/direction;
* ``sbm``     -- scaled Brownian motion, the exact time change sigma -> sigma^nu;
* ``fsbm-v``  -- Brownian motion divided pointwise by sqrt(v(sigma));
* ``fssbm``   -- scaled Brownian motion divided by sqrt(v(sigma));
* ``fsbm-q``  -- scaled Brownian motion (nu = beta) mapped through the
  sign-preserving inverse geometric profile x = sgn(Q)[Gamma(alpha+1)|Q|]^(1/alpha).

Reproducibility contract: every path draws from its own counter-based Philox
stream keyed by the master seed, starting at counter [0, 0, path, 0], consumed
in (step, direction) order, so ensembles are bit-identical for a fixed (seed,
grid, spec) whatever the path count.  Paths are simulated in blocks of
``_BLOCK_BYTES`` = 1 MB of positions (256 paths at D = 4 and 128 steps),
small enough to stay in cache: one Philox generator is reset to each path's
counter in turn and draws straight into the block buffer, which is then
scaled, summed along the steps and mapped by the process in place, and
finally reduced to squared radii by explicit adds in np.sum's order.  An
ensemble therefore holds the squared radius of every path and step,
O(paths * steps) memory plus one block, and full positions only for the
first ``keep`` paths (all of them by default).  Its non-finite check and the
standard error of ``msd`` also work one block of rows at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from .dispersion import DiffusionSpec, time_weight
from .errors import DomainError, GridError, SingularPointError
from .grid import check_grid

__all__ = [
    "WalkerEnsemble",
    "MsdFit",
    "IncrementReport",
    "PROCESSES",
    "geometric_grid",
    "uniform_grid",
    "simulate_bm",
    "simulate_sbm",
    "simulate_fsbm_v",
    "simulate_fsbm_q",
    "simulate",
    "msd",
    "fit_scaling_exponent",
    "fit_scaling_exponent_batched",
    "increment_diagnostics",
]

PROCESSES = ("bm", "sbm", "fsbm-v", "fssbm", "fsbm-q")

# Path batches of the batch-means and median-of-batches fits; every batch
# needs a path, so ``simulate`` needs at least this many.
FIT_BATCHES = 16
_BLOCK_BYTES = 1 << 20


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
    seed: int
    kappa: float = 1.0
    params: dict = field(default_factory=dict)
    spec: DiffusionSpec | None = None

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
        if grid.size < 2:
            raise GridError("grid needs at least 2 steps")
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

    @property
    def dim(self) -> int:
        return self.positions.shape[2]


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


def _check_grid_args(sigma_min: float, sigma_max: float, n_steps: int) -> None:
    if not 0.0 < sigma_min < sigma_max:
        raise GridError(f"need 0 < sigma_min < sigma_max, got {sigma_min}, {sigma_max}")
    if n_steps < 2:
        raise GridError(f"need at least 2 steps, got {n_steps}")


def geometric_grid(sigma_min: float, sigma_max: float, n_steps: int) -> np.ndarray:
    """Log-spaced grid, the default: exact variance differences need no small
    steps and the decades of a scaling law get equal weight."""
    _check_grid_args(sigma_min, sigma_max, n_steps)
    return np.geomspace(sigma_min, sigma_max, n_steps)


def uniform_grid(sigma_min: float, sigma_max: float, n_steps: int) -> np.ndarray:
    """Uniformly spaced grid starting after zero (for increment diagnostics)."""
    _check_grid_args(sigma_min, sigma_max, n_steps)
    return np.linspace(sigma_min, sigma_max, n_steps)


def _block_paths(n_steps: int, dim: int) -> int:
    """Paths per block: as many as fit ``_BLOCK_BYTES`` of float64 positions."""
    return max(1, _BLOCK_BYTES // (8 * n_steps * dim))


def _all_finite(values: np.ndarray, rows: int) -> bool:
    """Whether every value is finite, checked ``rows`` leading-axis rows at a time."""
    return all(np.isfinite(values[lo: lo + rows]).all() for lo in range(0, values.shape[0], rows))


def _simulate_paths(
    grid: np.ndarray,
    kappa: float,
    nu: float,
    dim: int,
    seed: int,
    n_paths: int,
    keep: int | None,
    transform=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Brownian paths in the (possibly rescaled) time sigma^nu, by block.

    Increment n has variance 2*kappa*(sigma_{n}^nu - sigma_{n-1}^nu) per
    direction, with sigma_{-1} = 0, which is the exact simulation of the time
    change (no Euler bias).  ``transform`` maps a block of positions in place
    before it is reduced.  Returns the squared radii (n_paths, n_steps) and
    the positions of the first ``keep`` paths (all when ``keep`` is None).
    """
    taus = grid.astype(float) ** nu
    dtau = np.diff(np.concatenate(([0.0], taus)))
    if np.any(dtau <= 0.0):
        raise GridError("time-change increments must be positive")
    if n_paths < 0 or (keep is not None and keep < 0):
        raise DomainError(f"path and kept-path counts must be nonnegative, got {n_paths}, {keep}")
    keep = n_paths if keep is None else min(keep, n_paths)
    # (n_steps, dim), not broadcast from (n_steps, 1): a contiguous operand
    # keeps the in-place product one long inner loop.
    scale = np.repeat(np.sqrt(2.0 * kappa * dtau)[:, None], dim, axis=1)
    key = SeedSequence(seed).generate_state(2, np.uint64)
    bitgen = Philox(key=key)
    gen = Generator(bitgen)
    # Path p's stream starts at counter [0, 0, p, 0] with an empty buffer,
    # exactly as a freshly constructed Philox(counter=..., key=key) does.
    counter = np.zeros(4, dtype=np.uint64)
    state = {"bit_generator": "Philox", "state": {"counter": counter, "key": key},
             "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    per_block = _block_paths(grid.size, dim)
    block = np.empty((min(per_block, n_paths), grid.size, dim))
    sq = np.empty((n_paths, grid.size))
    pos = np.empty((keep, grid.size, dim))
    for lo in range(0, n_paths, per_block):
        hi = min(lo + per_block, n_paths)
        buf = block[: hi - lo]
        for i in range(hi - lo):
            counter[2] = lo + i
            bitgen.state = state
            gen.standard_normal(out=buf[i])
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


def simulate_bm(
    n_paths: int,
    grid: Sequence[float] | np.ndarray,
    kappa: float,
    dim: int,
    seed: int,
    keep: int | None = None,
) -> WalkerEnsemble:
    """Brownian motion: independent Gaussian increments, <X^2> = 2 D kappa sigma."""
    grid = np.asarray(grid, dtype=float)
    sq, pos = _simulate_paths(grid, kappa, 1.0, dim, seed, n_paths, keep)
    return WalkerEnsemble(process="bm", grid=grid, sq_radii=sq, positions=pos, seed=seed, kappa=kappa)


def simulate_sbm(
    n_paths: int,
    grid: Sequence[float] | np.ndarray,
    kappa: float,
    nu: float,
    dim: int,
    seed: int,
    keep: int | None = None,
) -> WalkerEnsemble:
    """Scaled Brownian motion X(sigma) = BM(sigma^nu); time ordering needs nu > 0."""
    if nu <= 0.0:
        raise DomainError(f"nu must be positive, got {nu}")
    grid = np.asarray(grid, dtype=float)
    sq, pos = _simulate_paths(grid, kappa, nu, dim, seed, n_paths, keep)
    return WalkerEnsemble(
        process="sbm", grid=grid, sq_radii=sq, positions=pos, seed=seed, kappa=kappa,
        params={"nu": nu},
    )


def simulate_fsbm_v(
    n_paths: int,
    grid: Sequence[float] | np.ndarray,
    spec: DiffusionSpec,
    seed: int,
    keep: int | None = None,
) -> WalkerEnsemble:
    """Multiscale-spacetime Brownian motion: BM (or SBM for nu != 1) divided
    pointwise by sqrt(v(sigma)).

    The diffusion-time weight comes from the spec: fractional power law
    sigma^(beta-1)/Gamma(beta) or binomial multiscale profile.  The grid must
    stay clear of the weight's singular point at zero (it does, by
    construction: grids start after 0).
    """
    grid = np.asarray(grid, dtype=float)
    sc = spec.scales
    weight = time_weight(spec)
    v = np.array([weight(s) for s in grid])
    if np.any(v <= 0.0) or not np.all(np.isfinite(v)):
        raise SingularPointError("diffusion-time weight must be finite and positive on the grid")
    root_v = np.repeat(np.sqrt(v)[:, None], spec.dim, axis=1)

    def divide(block: np.ndarray) -> None:
        block /= root_v

    sq, pos = _simulate_paths(grid, sc.kappa, sc.nu, spec.dim, seed, n_paths, keep, divide)
    process = "fsbm-v" if abs(sc.nu - 1.0) <= 1e-12 else "fssbm"
    return WalkerEnsemble(
        process=process,
        grid=grid,
        sq_radii=sq,
        positions=pos,
        seed=seed,
        kappa=sc.kappa,
        params={"beta": sc.beta, "nu": sc.nu, "multiscale": spec.multiscale is not None},
        spec=spec,
    )


def simulate_fsbm_q(
    n_paths: int,
    grid: Sequence[float] | np.ndarray,
    alpha: float,
    beta: float,
    dim: int,
    seed: int,
    kappa: float = 1.0,
    keep: int | None = None,
) -> WalkerEnsemble:
    """q-model walker: SBM with nu = beta pushed through the inverse profile.

    Each coordinate is mapped by x = sgn(Q)[Gamma(alpha+1)|Q|]^(1/alpha),
    extending the first-orthant identification to all orthants through the
    sign-preserving inverse (an implementation choice; the map is odd).
    """
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha must lie in (0, 1], got {alpha}")
    if not 0.0 < beta <= 1.0:
        raise DomainError(f"beta must lie in (0, 1], got {beta}")
    grid = np.asarray(grid, dtype=float)
    transform = None
    if alpha != 1.0:
        gamma_a1 = math.gamma(alpha + 1.0)

        def transform(block: np.ndarray) -> None:
            mag = gamma_a1 * np.abs(block)
            mag **= 1.0 / alpha
            np.sign(block, out=block)
            block *= mag

    sq, pos = _simulate_paths(grid, kappa, beta, dim, seed, n_paths, keep, transform)
    return WalkerEnsemble(
        process="fsbm-q",
        grid=grid,
        sq_radii=sq,
        positions=pos,
        seed=seed,
        kappa=kappa,
        params={"alpha": alpha, "beta": beta},
    )


def simulate(
    process: str,
    n_paths: int,
    grid: Sequence[float] | np.ndarray,
    spec: DiffusionSpec,
    seed: int,
    keep: int | None = None,
) -> WalkerEnsemble:
    """Dispatch by process tag, pulling parameters from the spec.

    ``keep`` is how many leading paths keep their full positions (all when
    None); every path keeps its squared radius.  ``fsbm-q`` maps every axis
    with one charge, so anisotropic charges raise :class:`DomainError`.
    """
    sc = spec.scales
    if process == "bm":
        return simulate_bm(n_paths, grid, sc.kappa, spec.dim, seed, keep)
    if process == "sbm":
        return simulate_sbm(n_paths, grid, sc.kappa, sc.nu, spec.dim, seed, keep)
    if process in ("fsbm-v", "fssbm"):
        return simulate_fsbm_v(n_paths, grid, spec, seed, keep)
    if process == "fsbm-q":
        alphas = spec.charges.alphas if spec.charges is not None else (1.0,)
        if len(set(alphas)) > 1:
            raise DomainError(f"fsbm-q needs isotropic charges, got {alphas}")
        return simulate_fsbm_q(n_paths, grid, alphas[0], sc.beta, spec.dim, seed, sc.kappa, keep)
    raise DomainError(f"unknown process {process!r}; expected one of {PROCESSES}")


def msd(ensemble: WalkerEnsemble) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean squared displacement from the origin at each grid time.

    Returns (sigmas, msd, stderr); the ensemble mean is a fixed-order
    reduction, so it inherits the simulator's determinism.  The standard
    error needs at least 2 paths.  It is ``sq.std(axis=0, ddof=1) / sqrt(n)``
    bit for bit, but the squared deviations are made one block of
    ``_BLOCK_BYTES`` at a time, never for the whole ensemble: row 0 of the
    block buffer carries the running column sum, so each block's reduction
    continues np.std's sequential row order.
    """
    n = ensemble.n_paths
    if n < 2:
        raise DomainError(f"msd needs at least 2 paths, got {n}")
    sq = ensemble.sq_radii
    mean = sq.mean(axis=0)
    rows = _block_paths(ensemble.n_steps, 1)
    buf = np.zeros((min(rows, n) + 1, ensemble.n_steps))
    for lo in range(0, n, rows):
        blk = sq[lo: lo + rows]
        dev = buf[1: blk.shape[0] + 1]
        np.subtract(blk, mean, out=dev)
        np.square(dev, out=dev)
        buf[0] = np.add.reduce(buf[: blk.shape[0] + 1], axis=0)
    stderr = np.sqrt(buf[0] / (n - 1)) / math.sqrt(n)
    return ensemble.grid.copy(), mean, stderr


def fit_scaling_exponent(
    sigmas: np.ndarray,
    values: np.ndarray,
    window: tuple[float, float],
    sq_radii: np.ndarray | None = None,
) -> MsdFit:
    """Least-squares slope of ln(values) against ln(sigmas) inside the window.

    Needs at least 10 strictly positive points.  The standard error is the
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
    lo, hi = window
    if not lo < hi:
        raise DomainError(f"degenerate fit window {window}")
    mask = (sigmas >= lo) & (sigmas <= hi)
    if int(mask.sum()) < 10:
        raise DomainError(f"fit window {window} holds {int(mask.sum())} points; need >= 10")
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
        batches = _batch_exponents(sigmas, sq_radii, window, FIT_BATCHES)
        stderr = float(np.std(batches, ddof=1)) / math.sqrt(FIT_BATCHES)
    return MsdFit(exponent=slope, prefactor=math.exp(intercept), stderr=stderr, window=(lo, hi))


def _batch_exponents(
    sigmas: np.ndarray, sq_radii: np.ndarray, window: tuple[float, float], n_batches: int
) -> np.ndarray:
    """Exponents fitted to the MSD of each of ``n_batches`` contiguous path batches."""
    n_paths = sq_radii.shape[0]
    if n_paths < n_batches:
        raise DomainError(f"need at least {n_batches} paths, got {n_paths}")
    bounds = np.linspace(0, n_paths, n_batches + 1, dtype=int)
    return np.array([
        fit_scaling_exponent(sigmas, sq_radii[lo:hi].mean(axis=0), window).exponent
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ])


def fit_scaling_exponent_batched(
    ensemble: WalkerEnsemble,
    window: tuple[float, float],
    n_batches: int = FIT_BATCHES,
) -> MsdFit:
    """Median-of-batches exponent fit for heavy-tailed walkers.

    Paths are split into ``n_batches`` contiguous batches, the exponent is
    fitted per batch, and the median is reported with a MAD-based standard
    error.  This keeps the scaling estimate robust when squared displacements
    have large kurtosis (the q-model walker raises Gaussians to 1/alpha).
    """
    exponents = _batch_exponents(ensemble.grid, ensemble.sq_radii, window, n_batches)
    med = float(np.median(exponents))
    mad = float(np.median(np.abs(exponents - med)))
    stderr = 1.4826 * mad / math.sqrt(n_batches)
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

    pos = ensemble.positions
    inc = pos[:, lag:, :] - pos[:, :-lag, :]  # (paths, n_pairs, dim)
    inc_sq = np.sum(inc ** 2, axis=2)
    variances = inc_sq.mean(axis=0)
    var_of_var = inc_sq.var(axis=0, ddof=1) / ensemble.n_paths

    starts = ensemble.grid[:-lag]
    xm = starts.mean()
    sxx = float(np.sum((starts - xm) ** 2))
    scale = variances.mean()
    slope = float(np.sum((starts - xm) * (variances - variances.mean())) / sxx) / scale
    # Propagated per-point sampling error of the slope (variance estimates are
    # independent across paths, approximately across starts).
    slope_err = math.sqrt(float(np.sum(((starts - xm) / sxx) ** 2 * var_of_var))) / scale
    stat_t = slope / slope_err if slope_err > 0.0 else math.inf if slope else 0.0

    first = inc[:, 0, :].sum(axis=1)
    last = inc[:, -1, :].sum(axis=1)
    fm, lm = first.mean(), last.mean()
    num = float(np.mean((first - fm) * (last - lm)))
    den = float(first.std(ddof=0) * last.std(ddof=0))
    corr = num / den if den > 0.0 else 0.0
    corr_t = corr * math.sqrt(ensemble.n_paths)
    return IncrementReport(
        stationarity_slope=slope,
        stationarity_tstat=stat_t,
        correlation=corr,
        correlation_tstat=corr_t,
        lag=lag,
    )
