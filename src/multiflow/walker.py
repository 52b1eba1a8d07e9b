"""Monte Carlo walkers: Brownian, scaled, and multiscale-spacetime processes.

Four processes are simulated under five names, all Brownian motion in a
clock sigma^nu mapped in place:

* ``bm``      -- Brownian motion, variance 2 kappa dsigma per step/direction;
* ``sbm``     -- scaled Brownian motion, the exact time change sigma -> sigma^nu;
* ``fsbm-v``  -- scaled Brownian motion divided pointwise by sqrt(v(sigma)),
  named ``fssbm`` too; an ensemble is tagged ``fsbm-v`` at nu = 1 and
  ``fssbm`` otherwise;
* ``fsbm-q``  -- scaled Brownian motion (nu = beta) mapped through the
  sign-preserving inverse geometric profile x = sgn(Q)[Gamma(alpha+1)|Q|]^(1/alpha).

Reproducibility contract: paths are drawn in groups of ``_GROUP_PATHS`` = 64.
Group g (paths 64g to 64g + 63) draws from its own SFC64 stream, seeded by
``SeedSequence(seed, spawn_key=(g,))`` and consumed in (path, step,
direction) order, so ensembles are bit-identical for a fixed (seed, grid,
spec) whatever the path count: the first n paths of a larger ensemble are
the n-path ensemble.  Paths are simulated in blocks of ``_BLOCK_BYTES`` =
1 MB of positions, drawn, scaled, summed and mapped in place, and reduced to
squared radii (:func:`_simulate_paths`).  At even D the sum over steps runs
on a complex128 view that pairs adjacent directions; a complex add is two
independent float64 adds, so every bit is that of the real sum.  An
ensemble holds the squared radius of every path and step, O(paths * steps)
memory plus one block, and full positions only for the first ``keep``
paths.  Its non-finite check, the standard error of ``msd`` and the
increment statistics also work one block of rows at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dispersion import _DEFAULTS, _MODELS, DiffusionSpec, _refuse_unread, _spec_values, time_weight
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

# Path batches of the batch-means and median-of-batches fits; every batch
# needs a path, so ``simulate`` needs at least this many.
FIT_BATCHES = 16
_BLOCK_BYTES = 1 << 20
# Paths per SFC64 stream (the reproducibility contract in the module doc).
_GROUP_PATHS = 64


# The in-place maps of a block of positions, built from the spec and the grid
def _divide_by_root_weight(spec: DiffusionSpec, grid: np.ndarray):
    """fsbm-v: divide by sqrt(v(sigma)), one :func:`dispersion.time_weight` call."""
    v = time_weight(spec, grid)
    if np.any(v <= 0.0) or not np.all(np.isfinite(v)):
        raise SingularPointError("diffusion-time weight must be finite and positive on the grid")
    root_v = np.repeat(np.sqrt(v)[:, None], spec.dim, axis=1)

    def transform(block: np.ndarray) -> None:
        block /= root_v

    return transform


def _inverse_geometric_profile(spec: DiffusionSpec, grid: np.ndarray):
    """fsbm-q: every axis with the one charge, in (0, 1]; none at alpha = 1.
    Gamma(alpha+1)|x| is made in one scratch block, allocated here, once per
    :func:`simulate` call."""
    alpha = spec.charges.alphas[0]
    if alpha == 1.0:
        return None
    gamma_a1 = math.gamma(alpha + 1.0)
    scratch = np.empty((_block_paths(grid.size, spec.dim), grid.size, spec.dim))

    def transform(block: np.ndarray) -> None:
        mag = scratch[: block.shape[0]]
        np.abs(block, out=mag)
        mag *= gamma_a1
        mag **= 1.0 / alpha
        # np.sign, not np.copysign: the sign of 0.0 is +0.0, never -0.0
        np.sign(block, out=block)
        block *= mag

    return transform


@dataclass(frozen=True)
class _Process:
    """The facts of one process; dim and kappa it always reads."""

    reads: tuple[tuple[str, ...], tuple[str, ...]]  # of dispersion._DEFAULTS, without and with beta_star
    clock: str | None  # the scale nu or beta of its clock sigma^clock; None: sigma
    transform: Callable | None  # (spec, grid) -> its in-place map, or None
    heavy_tailed: bool
    model: str  # the model of the spec it is built on
    clock_max: float = math.inf


_FSBM_V = _Process(
    (("nu", "beta"), ("beta_star", "nu", "lstar")), "nu", _divide_by_root_weight, False, "weighted"
)
_PROCESSES = {
    "bm": _Process(((), ()), None, None, False, "weighted"),
    "sbm": _Process((("nu",),) * 2, "nu", None, False, "weighted"),
    "fsbm-v": _FSBM_V,
    # fsbm-v in the clock sigma^nu, nu != 1: the one process under a second name
    "fssbm": _FSBM_V,
    "fsbm-q": _Process((("beta", "alpha"),) * 2, "beta", _inverse_geometric_profile, True, "q", clock_max=1.0),
}
PROCESSES = tuple(_PROCESSES)


def _read_words(process: str) -> dict[str, str]:
    """The refusal text of a field no process reads, and of nu, which names
    the process's clock, or its model where that model reads no nu either."""
    record, read = _PROCESSES[process], {f for p in _PROCESSES.values() for fields in p.reads for f in fields}
    clock = "sigma" if record.clock is None else f"sigma^{record.clock}"
    own = "nu" in _MODELS[record.model].reads[0]
    nu = f"{process} reads no nu (its clock is {clock})" if own else f"the {record.model} model reads no nu"
    return {f: f"walkers read no {f}" for f in _DEFAULTS if f not in read} | {"nu": nu}


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
    step, direction) order; one generator is built per group.  At even D
    the in-place cumulative sum runs on the block's complex128 view, (paths,
    steps, D/2) along the steps: a complex add is two independent float64
    adds, so each direction keeps its sequential sum x_0 + x_1 + ... + x_n
    bit for bit, and each step advances two running sums.  ``transform``
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
        sums = buf.view(np.complex128) if dim % 2 == 0 else buf
        np.cumsum(sums, axis=1, out=sums)
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
    times faster than its short-axis reduction; from two axes the first add
    writes ``out`` itself, the same sum as a copy of axis 0 plus axis 1.
    """
    np.square(block, out=block)
    dim = block.shape[-1]
    if dim >= 8:
        # np.sum adds eight or more terms pairwise, in eight interleaved
        # partial sums; an explicit order would have to copy that
        np.sum(block, axis=-1, out=out)
        return
    if dim == 1:
        np.copyto(out, block[..., 0])
        return
    np.add(block[..., 0], block[..., 1], out=out)
    for k in range(2, dim):
        out += block[..., k]


def check_seed(seed: int) -> None:
    """The walkers' seed rule: numpy's seed sequence takes no negative seed."""
    if seed < 0:
        raise DomainError(f"seed must be nonnegative, got {seed}")


def check_simulation(process: str, spec: DiffusionSpec, seed: int) -> float:
    """The clock exponent of ``process``: 1, or the spec's nu or beta.
    :class:`DomainError` for a negative seed, an unknown process, a field off
    its default outside the process's read set, anisotropic charges where
    the charge is read, and a clock exponent outside (0, ``clock_max``]."""
    check_seed(seed)
    record = _PROCESSES.get(process)
    if record is None:
        raise DomainError(f"unknown process {process!r}; expected one of {PROCESSES}")
    _refuse_unread(_spec_values(spec), record.reads, process, _read_words(process), fields=_DEFAULTS)
    if "alpha" in record.reads[0] and len(set(spec.charges.alphas)) > 1:
        raise DomainError(f"{process} needs isotropic charges, got {spec.charges.alphas}")
    nu = 1.0 if record.clock is None else getattr(spec.scales, record.clock)
    if not nu > 0.0:
        raise DomainError(f"{record.clock} must be positive, got {nu}")
    if nu > record.clock_max:
        raise DomainError(f"{process} needs {record.clock} in (0, {record.clock_max:g}], got {nu}")
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

    The grid is checked first (:func:`grid.check_grid`), then the process,
    spec and seed (:func:`check_simulation`), before any path is drawn.
    ``fsbm-q`` maps every axis with one charge (the odd extension of the
    first-orthant identification, an implementation choice).  Its q(x) is
    N(0, 2 kappa sigma^beta) by construction (clock sigma^beta, variance
    2 kappa dtau), while the q model's density is Gaussian in q with
    2 ell^2 = 2 kappa sigma^beta / Gamma(1 + beta)
    (:func:`dispersion.q_time_profile`): the walker samples that density at
    a time rescaled by Gamma(1 + beta), 0.886 at beta = 0.5.  ``keep`` is
    how many leading paths keep their full positions (all when None); every
    path keeps its squared radius.
    """
    grid = np.asarray(grid, dtype=float)
    check_grid(grid)
    nu = check_simulation(process, spec, seed)
    record = _PROCESSES[process]
    transform = None if record.transform is None else record.transform(spec, grid)
    # a record under two names is tagged by the first at nu = 1, else by the second
    names = [name for name, row in _PROCESSES.items() if row is record]
    tag = names[0] if abs(nu - 1.0) <= 1e-12 else names[-1]
    sq, pos = _simulate_paths(grid ** nu, spec.scales.kappa, spec.dim, seed, n_paths, keep, transform)
    return WalkerEnsemble(tag, grid, sq, pos)


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
