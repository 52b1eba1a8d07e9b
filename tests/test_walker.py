import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.random import Generator, Philox, SeedSequence
from scipy import stats

from conftest import binomial_spec, fractional_spec
from multiflow import walker as walker_mod
from multiflow.dispersion import time_weight
from multiflow.errors import DomainError, GridError
from multiflow.measure import FractionalCharges
from multiflow.walker import (
    PROCESSES,
    IncrementReport,
    WalkerEnsemble,
    _block_paths,
    _sum_squares,
    fit_scaling_exponent,
    fit_scaling_exponent_batched,
    geometric_grid,
    increment_diagnostics,
    msd,
    simulate,
    uniform_grid,
)

SEED = 20130409
FULL_PATHS = 10_000
FULL_STEPS = 1024
# unit-charge specs: bm and sbm read only kappa, nu and the dimension
BM_1D = fractional_spec(beta=1.0, dim=1)
BM_2D = fractional_spec(beta=1.0, dim=2)
SBM_HALF = fractional_spec(beta=1.0, nu=0.5, dim=1)
Q_HALF = fractional_spec(beta=0.5, dim=1, alpha=0.5)


@pytest.fixture(scope="module")
def full_grid():
    return geometric_grid(1e-3, 10.0, FULL_STEPS)


@pytest.fixture(scope="module")
def bm_full(full_grid):
    return simulate("bm", FULL_PATHS, full_grid, BM_1D, SEED)


def last_two_decades(grid):
    return (float(grid[-1]) / 100.0, float(grid[-1]))


class TestDeterminism:
    def test_bit_identical_across_block_sizes(self, monkeypatch):
        # one path per block draws and reduces the paths of the default block
        grid = geometric_grid(1e-2, 1.0, 64)
        results = []
        for block_bytes in (walker_mod._BLOCK_BYTES, 1):
            monkeypatch.setattr(walker_mod, "_BLOCK_BYTES", block_bytes)
            ens = simulate("bm", 200, grid, BM_2D, 99)
            results.append((ens.positions.copy(), ens.sq_radii.copy()))
        assert _block_paths(64, 2) == 1
        assert np.array_equal(results[0][0], results[1][0])
        assert np.array_equal(results[0][1], results[1][1])

    def test_same_seed_same_paths(self):
        grid = geometric_grid(1e-2, 1.0, 32)
        a = simulate("bm", 50, grid, BM_1D, 7)
        b = simulate("bm", 50, grid, BM_1D, 7)
        c = simulate("bm", 50, grid, BM_1D, 8)
        assert np.array_equal(a.positions, b.positions)
        assert not np.array_equal(a.positions, c.positions)


class TestBrownian:
    def test_msd_slope(self, bm_full, full_grid):
        sig, mean_sq, _ = msd(bm_full)
        fit = fit_scaling_exponent(sig, mean_sq, last_two_decades(full_grid))
        assert abs(fit.exponent - 1.0) < 0.03

    def test_msd_matches_2dkappasigma(self, bm_full):
        # pointwise sampling noise is ~1.4% at 1e4 paths; compare the
        # decade-averaged ratio to the closed form at the 3% gate
        sig, mean_sq, _ = msd(bm_full)
        ratio = mean_sq / (2.0 * 1 * 1.0 * sig)
        tail = ratio[sig >= sig[-1] / 10.0]
        assert abs(float(tail.mean()) - 1.0) < 0.03
        assert abs(float(ratio[FULL_STEPS // 2]) - 1.0) < 0.05

    def test_zero_mean(self, bm_full):
        final = bm_full.positions[:, -1, 0]
        stderr = final.std(ddof=1) / math.sqrt(bm_full.n_paths)
        assert abs(final.mean()) < 3.0 * stderr

    def test_diffusive_rescaling_ks(self, full_grid, bm_full):
        # X(4 sigma) / 2 has the same marginal law as X(sigma):
        # compare independent halves of the ensemble
        i = 700
        sigma_i = float(full_grid[i])
        j = int(np.argmin(np.abs(full_grid - 4.0 * sigma_i)))
        assert abs(full_grid[j] / (4.0 * sigma_i) - 1.0) < 5e-3
        half = FULL_PATHS // 2
        sample_a = bm_full.positions[:half, i, 0]
        sample_b = bm_full.positions[half:, j, 0] * math.sqrt(sigma_i / float(full_grid[j]))
        assert stats.ks_2samp(sample_a, sample_b).pvalue > 0.01

    def test_additivity_over_directions(self):
        grid = geometric_grid(1e-2, 1.0, 64)
        ens = simulate("bm", 400, grid, fractional_spec(beta=1.0, dim=3), 5)
        _, total, _ = msd(ens)
        per_direction = np.zeros_like(total)
        for mu in range(3):
            per_direction += (ens.positions[:, :, mu] ** 2).mean(axis=0)
        assert np.allclose(total, per_direction, rtol=1e-12)


class TestScaledBrownian:
    def test_nu_one_is_brownian(self, full_grid):
        a = simulate("bm", 100, full_grid, BM_1D, 3)
        b = simulate("sbm", 100, full_grid, fractional_spec(beta=1.0, nu=1.0, dim=1), 3)
        assert np.array_equal(a.positions, b.positions)

    def test_subdiffusive_exponent(self, full_grid):
        ens = simulate("sbm", FULL_PATHS, full_grid, SBM_HALF, SEED)
        sig, mean_sq, _ = msd(ens)
        fit = fit_scaling_exponent(sig, mean_sq, last_two_decades(full_grid))
        assert abs(fit.exponent - 0.5) < 0.03

    def test_nonstationary_increments(self):
        grid = uniform_grid(0.01, 10.0, 512)
        ens = simulate("sbm", 4000, grid, SBM_HALF, SEED)
        report = increment_diagnostics(ens, lag=8)
        assert abs(report.stationarity_tstat) > 5.0
        assert not report.stationary

    def test_nu_domain(self, full_grid):
        # one check for every nu-clocked process, naming nu rather than the grid
        for process in ("sbm", "fsbm-v", "fssbm"):
            for nu in (0.0, -0.5):
                with pytest.raises(DomainError, match="nu must be positive"):
                    simulate(process, 10, full_grid, fractional_spec(beta=0.5, nu=nu, dim=1), 0)


class TestFsbmV:
    def test_unit_charge_is_brownian(self, full_grid):
        spec = fractional_spec(beta=1.0, nu=1.0, dim=1)
        a = simulate("fsbm-v", 100, full_grid, spec, 3)
        b = simulate("bm", 100, full_grid, BM_1D, 3)
        assert np.allclose(a.positions, b.positions, rtol=1e-12)

    def test_fractional_exponent(self, full_grid):
        spec = fractional_spec(beta=0.5, nu=1.0, dim=1)
        ens = simulate("fsbm-v", FULL_PATHS, full_grid, spec, SEED)
        assert ens.process == "fsbm-v"
        sig, mean_sq, _ = msd(ens)
        fit = fit_scaling_exponent(sig, mean_sq, last_two_decades(full_grid))
        assert abs(fit.exponent - 1.5) < 0.05

    def test_scaled_noise_exponent(self, full_grid):
        spec = fractional_spec(beta=0.5, nu=0.75, dim=1)
        ens = simulate("fsbm-v", FULL_PATHS, full_grid, spec, SEED)
        assert ens.process == "fssbm"
        sig, mean_sq, _ = msd(ens)
        fit = fit_scaling_exponent(sig, mean_sq, last_two_decades(full_grid))
        assert abs(fit.exponent - 1.25) < 0.05

    def test_uncorrelated_but_nonstationary(self):
        grid = uniform_grid(0.01, 10.0, 512)
        spec = fractional_spec(beta=0.5, nu=1.0, dim=1)
        ens = simulate("fsbm-v", FULL_PATHS, grid, spec, SEED)
        report = increment_diagnostics(ens, lag=8)
        assert abs(report.stationarity_tstat) > 5.0
        assert report.uncorrelated

    @pytest.mark.parametrize(
        "spec", [fractional_spec(beta=0.5, dim=2), binomial_spec(1.5, dim=2)],
        ids=["fractional-0.5", "binomial-1.5"],
    )
    def test_exact_law_at_every_sigma(self, spec):
        # X = B(sigma) / sqrt(v(sigma)), so <X^2> = 2 D kappa sigma / v(sigma)
        # exactly; |X|^2 is that mean times a chi-square of D degrees over D,
        # whose sd is the mean times sqrt(2 / D)
        n = 4000
        grid = geometric_grid(1e-4, 1e2, 64)
        ens = simulate("fsbm-v", n, grid, spec, SEED, keep=0)
        assert ens.process == "fsbm-v"
        sig, mean_sq, stderr = msd(ens)
        weight = time_weight(spec)
        exact = np.array([2.0 * spec.dim * spec.scales.kappa * s / weight(s) for s in sig.tolist()])
        assert np.all(np.abs(mean_sq - exact) < 5.0 * stderr)
        assert np.all(np.abs(stderr / (exact * math.sqrt(2.0 / (spec.dim * n))) - 1.0) < 0.15)

    def test_multiscale_crossover_slopes(self):
        spec = binomial_spec(0.5, dim=1)
        grid = geometric_grid(1e-5, 1e4, FULL_STEPS)
        ens = simulate("fsbm-v", FULL_PATHS, grid, spec, SEED)
        sig, mean_sq, _ = msd(ens)
        uv = fit_scaling_exponent(sig, mean_sq, (1e-5, 1e-3))
        ir = fit_scaling_exponent(sig, mean_sq, (1e2, 1e4))
        assert abs(uv.exponent - 1.5) < 0.1
        assert abs(ir.exponent - 1.0) < 0.1


class TestFsbmQ:
    def test_trivial_charges_is_brownian(self, full_grid):
        a = simulate("fsbm-q", 100, full_grid, fractional_spec(beta=1.0, dim=1, alpha=1.0), 3)
        b = simulate("bm", 100, full_grid, BM_1D, 3)
        assert np.allclose(a.positions, b.positions, rtol=1e-12)

    def test_heavy_tailed_exponent_median_of_batches(self, full_grid):
        ens = simulate("fsbm-q", FULL_PATHS, full_grid, Q_HALF, SEED)
        fit = fit_scaling_exponent_batched(ens, last_two_decades(full_grid))
        assert abs(fit.exponent - 1.0) < 0.1  # beta/alpha

    def test_sign_symmetric_mean(self, full_grid):
        ens = simulate("fsbm-q", FULL_PATHS, full_grid, Q_HALF, SEED)
        final = ens.positions[:, -1, 0]
        stderr = final.std(ddof=1) / math.sqrt(ens.n_paths)
        assert abs(final.mean()) < 3.0 * stderr

    def test_parameter_domain(self, full_grid):
        # the spec's charges refuse alpha outside (0, 1]; simulate refuses beta
        with pytest.raises(DomainError):
            simulate("fsbm-q", 10, full_grid, fractional_spec(beta=0.5, dim=1, alpha=1.5), 0)
        with pytest.raises(DomainError, match="beta"):
            simulate("fsbm-q", 10, full_grid, fractional_spec(beta=1.5, dim=1, alpha=0.5), 0)


# msd's row blocks: every steps x paths shape of at most 20 000 x 128 values
MSD_STEPS = (2, 3, 4, 5, 7, 8, 9, 16, 17, 64, 128, 129, 1024)
MSD_PATHS = (2, 3, 16, 17, 100, 1000, 5000, 20000)


def _sq_ensemble(sq):
    """An ensemble of the given squared radii and no kept positions."""
    steps = sq.shape[1]
    return WalkerEnsemble("bm", geometric_grid(1e-3, 1.0, steps), sq, np.empty((0, steps, 1)))


class TestMsdAndFits:
    @pytest.mark.parametrize("block_bytes", [walker_mod._BLOCK_BYTES, 1], ids=["default", "one-row"])
    @pytest.mark.parametrize("steps", MSD_STEPS)
    def test_msd_equals_numpy_reductions(self, steps, block_bytes, monkeypatch):
        # the blocked standard error keeps np.std's bits at every block size
        monkeypatch.setattr(walker_mod, "_BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng([SEED, steps])
        for n in (n for n in MSD_PATHS if n * steps <= 20000 * 128):
            sq = rng.standard_exponential((n, steps)) * np.geomspace(1e-3, 1e3, steps)
            _, mean, stderr = msd(_sq_ensemble(sq))
            assert np.array_equal(mean, sq.mean(axis=0))
            assert np.array_equal(stderr, sq.std(axis=0, ddof=1) / math.sqrt(n))

    def test_msd_memory_is_one_block(self):
        # np.std made a 19.6 MiB temporary of deviations for 20 000 x 128
        ens = _sq_ensemble(np.random.default_rng(SEED).standard_exponential((20000, 128)))
        tracemalloc.start()
        try:
            msd(ens)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20

    def test_ensemble_check_memory_is_one_block(self):
        # np.isfinite of all 20 000 x 128 squared radii made 2.4 MiB of bools
        sq = np.random.default_rng(SEED).standard_exponential((20000, 128))
        pos = np.zeros((1000, 128, 4))
        tracemalloc.start()
        try:
            WalkerEnsemble("bm", geometric_grid(1e-3, 1.0, 128), sq, pos)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 19

    def test_msd_deterministic(self, full_grid):
        a = simulate("bm", 500, full_grid, BM_1D, 11)
        b = simulate("bm", 500, full_grid, BM_1D, 11)
        assert np.array_equal(msd(a)[1], msd(b)[1])

    def test_exact_power_law_fit(self):
        sig = np.geomspace(0.1, 100.0, 50)
        fit = fit_scaling_exponent(sig, 3.0 * sig ** 1.5, (0.1, 100.0))
        assert abs(fit.exponent - 1.5) < 1e-12
        assert abs(fit.prefactor - 3.0) < 1e-10
        assert fit.stderr < 1e-12

    def test_window_validation(self):
        sig = np.geomspace(0.1, 100.0, 50)
        with pytest.raises(DomainError):
            fit_scaling_exponent(sig, sig, (5.0, 5.0))
        with pytest.raises(DomainError):
            fit_scaling_exponent(sig, sig, (90.0, 100.0))  # too few points

    def test_walk_dimension_closure(self, full_grid):
        # 2 / fitted exponent vs the model's walk dimension
        from multiflow.spectral import fixed_point_ds, walk_dimension

        window = last_two_decades(full_grid)
        cases = []
        ens = simulate("bm", FULL_PATHS, full_grid, BM_1D, SEED)
        cases.append((ens, walk_dimension(BM_1D, fixed_point_ds(BM_1D))))
        spec = fractional_spec(beta=0.5, nu=1.0, dim=1)
        cases.append(
            (
                simulate("fsbm-v", FULL_PATHS, full_grid, spec, SEED),
                walk_dimension(spec, fixed_point_ds(spec)),
            )
        )
        for ens, expected_dw in cases:
            sig, mean_sq, _ = msd(ens)
            fit = fit_scaling_exponent(sig, mean_sq, window)
            assert abs(2.0 / fit.exponent - expected_dw) < 0.1

    def test_q_walk_dimension_closure(self, full_grid):
        from multiflow.spectral import fixed_point_ds, walk_dimension

        ens = simulate("fsbm-q", FULL_PATHS, full_grid, Q_HALF, SEED)
        fit = fit_scaling_exponent_batched(ens, last_two_decades(full_grid))
        # d_W = 2 d_H / d_S = 2 alpha / beta = 2
        q_model = fractional_spec(beta=0.5, dim=1, alpha=0.5, model="q")
        assert abs(2.0 / fit.exponent - walk_dimension(q_model, fixed_point_ds(q_model))) < 0.1


class TestIncrementDiagnostics:
    def test_brownian_stationary_uncorrelated(self):
        grid = uniform_grid(0.01, 10.0, 512)
        ens = simulate("bm", FULL_PATHS, grid, BM_1D, SEED)
        report = increment_diagnostics(ens, lag=8)
        assert report.stationary and report.uncorrelated

    def test_lag_validation(self, full_grid):
        ens = simulate("bm", 20, uniform_grid(0.1, 1.0, 32), BM_1D, 0)
        with pytest.raises(DomainError):
            increment_diagnostics(ens, lag=0)
        with pytest.raises(DomainError):
            increment_diagnostics(ens, lag=32)

    def test_needs_uniform_grid(self):
        ens = simulate("bm", 20, geometric_grid(0.1, 1.0, 32), BM_1D, 0)
        with pytest.raises(GridError):
            increment_diagnostics(ens, lag=4)

    @pytest.mark.parametrize("block_bytes", [walker_mod._BLOCK_BYTES, 4096, 1], ids=["default", "4k", "one-row"])
    @pytest.mark.parametrize("dim", [1, 2, 3, 9])
    def test_equals_whole_array_formula(self, dim, block_bytes, monkeypatch):
        # the row blocks keep every bit of the (paths, pairs, D) formula
        monkeypatch.setattr(walker_mod, "_BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng([SEED, dim])
        for n_paths, steps, lag in ((8, 5, 1), (100, 64, 4), (700, 130, 8), (1500, 17, 2)):
            if block_bytes == 1 and n_paths > 100:
                continue
            pos = np.cumsum(rng.standard_normal((n_paths, steps, dim)), axis=1)
            ens = WalkerEnsemble("sbm", uniform_grid(0.1, 1.0, steps), np.sum(pos ** 2, axis=2), pos)
            assert increment_diagnostics(ens, lag) == _whole_array_increments(ens, lag)

    def test_memory_is_one_block(self):
        # the whole-array formula peaked at 76.9 MiB here, on 31.25 MiB of positions
        ens = simulate("bm", 4000, uniform_grid(0.01, 10.0, 512), BM_2D, SEED)
        tracemalloc.start()
        try:
            increment_diagnostics(ens, lag=8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20


def _whole_array_increments(ensemble, lag):
    """increment_diagnostics as it was written before its row blocks: full
    (paths, pairs, D) increments, their squares and numpy's mean and var."""
    pos = ensemble.positions
    inc = pos[:, lag:, :] - pos[:, :-lag, :]
    inc_sq = np.sum(inc ** 2, axis=2)
    variances = inc_sq.mean(axis=0)
    var_of_var = inc_sq.var(axis=0, ddof=1) / ensemble.n_paths
    starts = ensemble.grid[:-lag]
    xm = starts.mean()
    sxx = float(np.sum((starts - xm) ** 2))
    scale = variances.mean()
    slope = float(np.sum((starts - xm) * (variances - variances.mean())) / sxx) / scale
    slope_err = math.sqrt(float(np.sum(((starts - xm) / sxx) ** 2 * var_of_var))) / scale
    stat_t = slope / slope_err if slope_err > 0.0 else math.inf if slope else 0.0
    first = inc[:, 0, :].sum(axis=1)
    last = inc[:, -1, :].sum(axis=1)
    fm, lm = first.mean(), last.mean()
    num = float(np.mean((first - fm) * (last - lm)))
    den = float(first.std(ddof=0) * last.std(ddof=0))
    corr = num / den if den > 0.0 else 0.0
    return IncrementReport(slope, stat_t, corr, corr * math.sqrt(ensemble.n_paths), lag)


class TestDispatcher:
    def test_all_processes(self, full_grid):
        spec = fractional_spec(beta=0.5, nu=1.0, dim=1, alpha=0.5)
        for process in ("bm", "sbm", "fsbm-v", "fsbm-q"):
            ens = simulate(process, 20, full_grid, spec, 1)
            assert ens.n_paths == 20
        with pytest.raises(DomainError):
            simulate("bogus", 20, full_grid, spec, 1)

    def test_fsbm_q_refuses_anisotropic_charges(self, full_grid):
        # the q-model walker maps every axis with one charge
        spec = replace(
            fractional_spec(beta=0.5, dim=2, alpha=0.5), charges=FractionalCharges((0.5, 0.8))
        )
        with pytest.raises(DomainError, match="isotropic"):
            simulate("fsbm-q", 20, full_grid, spec, 1)

    @pytest.mark.parametrize("asked", ["fsbm-v", "fssbm"])
    def test_tag_follows_nu_whichever_is_asked(self, asked, full_grid):
        for nu, tag in ((1.0, "fsbm-v"), (0.75, "fssbm")):
            ens = simulate(asked, 20, full_grid, fractional_spec(beta=0.5, nu=nu, dim=1), 1)
            assert ens.process == tag

    def test_grid_validation(self):
        with pytest.raises(GridError):
            simulate("bm", 10, np.array([0.0, 1.0, 2.0]), BM_1D, 0)
        with pytest.raises(GridError):
            simulate("bm", 10, np.array([1.0, 0.5]), BM_1D, 0)


# The stream tests run on a grid whose blocks hold 170 paths at D = 3.
STREAM_GRID = geometric_grid(1e-3, 10.0, 256)
STREAM_DIM = 3
STREAM_BLOCK = _block_paths(STREAM_GRID.size, STREAM_DIM)


def _stream_spec(process):
    nu = 0.75 if process in ("sbm", "fssbm") else 1.0
    return fractional_spec(beta=0.5, nu=nu, dim=STREAM_DIM, alpha=0.5)


def _reference_paths(process, spec, n_paths, seed):
    """The ensemble as drawn before path blocks: one freshly built generator
    per path, counter [0, 0, p, 0], positions for every path."""
    sc = spec.scales
    nu = {"bm": 1.0, "fsbm-q": sc.beta}.get(process, sc.nu)
    dtau = np.diff(np.concatenate(([0.0], STREAM_GRID ** nu)))
    scale = np.sqrt(2.0 * sc.kappa * dtau)[:, None]
    key = SeedSequence(seed).generate_state(2, np.uint64)
    pos = np.empty((n_paths, STREAM_GRID.size, STREAM_DIM))
    for p in range(n_paths):
        gen = Generator(Philox(counter=np.array([0, 0, p, 0], dtype=np.uint64), key=key))
        np.cumsum(gen.standard_normal((STREAM_GRID.size, STREAM_DIM)) * scale, axis=0, out=pos[p])
    if process in ("fsbm-v", "fssbm"):
        weight = time_weight(spec)
        pos /= np.sqrt(np.array([weight(s) for s in STREAM_GRID]))[None, :, None]
    elif process == "fsbm-q":
        alpha = spec.charges.alphas[0]
        pos = np.sign(pos) * (math.gamma(alpha + 1.0) * np.abs(pos)) ** (1.0 / alpha)
    return pos, np.sum(pos ** 2, axis=2)


class TestBlockStream:
    @pytest.mark.parametrize("process", PROCESSES)
    @pytest.mark.parametrize(
        "n_paths", [2, STREAM_BLOCK - 1, STREAM_BLOCK, STREAM_BLOCK + 1, 3 * STREAM_BLOCK + 5]
    )
    def test_equals_per_path_generators(self, process, n_paths):
        spec = _stream_spec(process)
        pos, sq = _reference_paths(process, spec, n_paths, 31)
        for keep in sorted({0, 1, min(STREAM_BLOCK + 3, n_paths), n_paths}):
            ens = simulate(process, n_paths, STREAM_GRID, spec, 31, keep=keep)
            assert ens.process == process
            assert ens.n_paths == n_paths and ens.n_kept == keep
            assert np.array_equal(ens.sq_radii, sq)
            assert np.array_equal(ens.positions, pos[:keep])
        assert np.array_equal(simulate(process, n_paths, STREAM_GRID, spec, 31).positions, pos)

    def test_keep_beyond_paths_keeps_all(self):
        ens = simulate("bm", 5, STREAM_GRID, BM_2D, 3, keep=50)
        assert ens.n_kept == 5

    def test_negative_counts_refused(self):
        with pytest.raises(DomainError):
            simulate("bm", 5, STREAM_GRID, BM_2D, 3, keep=-1)
        with pytest.raises(DomainError):
            simulate("bm", -1, STREAM_GRID, BM_2D, 3)

    def test_memory_is_squared_radii_plus_one_block(self):
        # 12 000 paths x 128 steps: 12.3 MB of squared radii; the full
        # positions at D = 4 would be 49 MB
        grid = geometric_grid(1e-3, 10.0, 128)
        spec = fractional_spec(beta=1.0, dim=4)
        tracemalloc.start()
        try:
            ens = simulate("bm", 12000, grid, spec, 5, keep=10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ens.positions.shape == (10, 128, 4)
        assert peak < 48 * 2 ** 20

    @pytest.mark.parametrize("dim", range(1, 10))
    def test_squared_radii_equal_np_sum(self, dim):
        # explicit adds below eight axes, np.sum from eight on: the same bits
        block = np.random.default_rng([SEED, dim]).standard_normal((97, 256, dim)) * 3.0
        expected = np.sum(np.square(block), axis=2)
        got = np.empty(block.shape[:2])
        _sum_squares(block.copy(), got)
        assert np.array_equal(got, expected)

    def test_increment_diagnostics_need_all_positions(self):
        ens = simulate("bm", 20, uniform_grid(0.1, 1.0, 32), BM_1D, 0, keep=19)
        with pytest.raises(DomainError):
            increment_diagnostics(ens, lag=4)

    def test_non_finite_refused(self):
        # the check runs by row blocks: a value on either side of a block
        # edge, or in the last partial block, is found
        rows, pos_rows = _block_paths(STREAM_GRID.size, 1), _block_paths(STREAM_GRID.size, 2)
        ens = simulate("bm", rows + 4, STREAM_GRID, BM_2D, 3, keep=pos_rows + 2)
        WalkerEnsemble("bm", STREAM_GRID, ens.sq_radii, ens.positions)
        for row in (3, rows - 1, rows, rows + 3):
            sq = ens.sq_radii.copy()
            sq[row, 7] = math.nan
            with pytest.raises(DomainError):
                WalkerEnsemble("bm", STREAM_GRID, sq, ens.positions)
        for row in (1, pos_rows - 1, pos_rows, pos_rows + 1):
            pos = ens.positions.copy()
            pos[row, 7, 0] = math.inf
            with pytest.raises(DomainError):
                WalkerEnsemble("bm", STREAM_GRID, ens.sq_radii, pos)

    def test_msd_needs_two_paths(self):
        ens = simulate("bm", 1, STREAM_GRID, BM_2D, 3)
        with pytest.raises(DomainError):
            msd(ens)
