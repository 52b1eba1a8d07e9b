import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.random import SFC64, Generator, SeedSequence
from scipy import stats

from conftest import binomial_spec, fractional_spec
from multiflow import walker as walker_mod
from multiflow.dispersion import time_weight
from multiflow.errors import DomainError, GridError
from multiflow.grid import geometric_grid, uniform_grid
from multiflow.kernel import gaussian_pdf
from multiflow.measure import FractionalCharges
from multiflow.walker import (
    PROCESSES,
    IncrementReport,
    WalkerEnsemble,
    _block_paths,
    _sum_squares,
    fit_scaling_exponent,
    fit_scaling_exponent_batched,
    increment_diagnostics,
    msd,
    simulate,
)

SEED = 20130409
FULL_PATHS = 10_000
FULL_STEPS = 1024
# The reproducibility contract's paths per SFC64 stream, written out, not
# read from the module.
GROUP = 64
# unit-charge specs: bm and sbm read only kappa, nu and the dimension
BM_1D = fractional_spec(beta=1.0, dim=1)
BM_2D = fractional_spec(beta=1.0, dim=2)
SBM_HALF = fractional_spec(beta=1.0, nu=0.5, dim=1)
Q_HALF = fractional_spec(beta=0.5, dim=1, alpha=0.5)


def _process_spec(process, dim):
    """A spec that sets only what ``process`` reads: the clock nu of sbm and
    fssbm, the time charge of fsbm-v and fssbm, the charge of fsbm-q."""
    nu = 0.75 if process in ("sbm", "fssbm") else 1.0
    beta = 1.0 if process in ("bm", "sbm") else 0.5
    alpha = 0.5 if process == "fsbm-q" else 1.0
    return fractional_spec(beta=beta, nu=nu, dim=dim, alpha=alpha)


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


class TestStreamIndependence:
    def test_neighbouring_paths_uncorrelated(self):
        # the first-step increment of path p against that of path p + 1,
        # over n seeds: pairs inside a group, the pair 63 | 64 across the
        # edge between the first two groups' streams, and the first paths
        # of two streams
        n = 2000
        grid = np.array([1.0, 2.0])
        first = np.array([simulate("bm", 2 * GROUP + 2, grid, BM_1D, seed).positions[:, 0, 0]
                          for seed in range(n)])
        pairs = [(p, p + 1) for p in (0, GROUP // 2, GROUP - 2, GROUP - 1, GROUP, 2 * GROUP)]
        for p, q in pairs + [(0, GROUP)]:
            r = float(np.corrcoef(first[:, p], first[:, q])[0, 1])
            assert abs(r) < 4.0 / math.sqrt(n), (p, q, r)


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


# One-point law: seeds, path count and sigma fixed before any result was seen.
LAW_PATHS = 4000
LAW_GRID = geometric_grid(1e-2, 10.0, 32)
LAW_STEP = 16
# the q law's variances differ by Gamma(1.5) = 0.886, a KS distance of about
# 0.015: 40 000 paths put the p = 1e-3 level at 0.0097
Q_LAW_PATHS = 40_000
Q_LAW_SEED = 3011
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def _gaussian_axis_cdf(x, ell2):
    """CDF of one axis of the law ``kernel.gaussian_pdf(., 0, ell2, D)``,
    N(0, 2 ell2): the library's 1-D density integrated from 0 to each x by
    64-node Gauss-Legendre."""
    x = np.asarray(x, dtype=float)
    nodes = (x[:, None] * (1.0 + _GL_NODES) / 2.0).reshape(-1, 1)
    density = gaussian_pdf(nodes, [0.0], ell2, 1).reshape(x.size, -1)
    return 0.5 + x / 2.0 * (density @ _GL_WEIGHTS)


class TestOnePointLaw:
    # bm and sbm at one sigma are N(0, 2 kappa tau) on each axis, tau = sigma^nu
    # their clock; the other process's clock is rejected at the same sigma
    @pytest.mark.parametrize(
        "process, nu, other_nu, seed", [("bm", 1.0, 0.5, 2701), ("sbm", 0.5, 1.0, 2702)]
    )
    def test_positions_follow_gaussian_pdf(self, process, nu, other_nu, seed):
        spec = fractional_spec(beta=1.0, nu=nu, dim=2, kappa=0.7)
        ens = simulate(process, LAW_PATHS, LAW_GRID, spec, seed)
        sigma = float(LAW_GRID[LAW_STEP])
        for axis in range(spec.dim):
            sample = ens.positions[:, LAW_STEP, axis]
            own = stats.kstest(sample, lambda x: _gaussian_axis_cdf(x, 0.7 * sigma ** nu))
            other = stats.kstest(sample, lambda x: _gaussian_axis_cdf(x, 0.7 * sigma ** other_nu))
            assert own.pvalue > 1e-3, (axis, own)
            assert other.pvalue < 1e-3, (axis, other)

    def test_fsbm_q_geometric_coordinates_follow_the_construction_law(self):
        # q(x) = sgn(x)|x|^alpha / Gamma(alpha + 1) undoes the walker's map, so
        # each axis of q is N(0, 2 kappa sigma^beta) by construction; the q
        # model's N(0, 2 kappa sigma^beta / Gamma(1 + beta)) is rejected
        alpha, beta, kappa = 0.75, 0.5, 0.7
        spec = fractional_spec(beta=beta, dim=2, kappa=kappa, alpha=alpha)
        ens = simulate("fsbm-q", Q_LAW_PATHS, LAW_GRID, spec, Q_LAW_SEED)
        sigma = float(LAW_GRID[LAW_STEP])
        x = ens.positions[:, LAW_STEP]
        q = np.sign(x) * np.abs(x) ** alpha / math.gamma(alpha + 1.0)
        for axis in range(spec.dim):
            own = stats.kstest(q[:, axis], lambda v: _gaussian_axis_cdf(v, kappa * sigma ** beta))
            q_model = stats.kstest(
                q[:, axis], lambda v: _gaussian_axis_cdf(v, kappa * sigma ** beta / math.gamma(1.0 + beta))
            )
            assert own.pvalue > 1e-3, (axis, own)
            assert q_model.pvalue < 1e-3, (axis, q_model)

    def test_axis_cdf_is_the_normal_law(self):
        x = np.linspace(-8.0, 8.0, 161)
        assert np.allclose(_gaussian_axis_cdf(x * math.sqrt(1.4), 0.7), stats.norm.cdf(x),
                           rtol=0.0, atol=1e-13)


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
                    simulate(process, 10, full_grid, fractional_spec(beta=1.0, nu=nu, dim=1), 0)


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
        exact = np.array(
            [2.0 * spec.dim * spec.scales.kappa * s / time_weight(spec, s) for s in sig.tolist()]
        )
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
        for process in ("bm", "sbm", "fsbm-v", "fsbm-q"):
            ens = simulate(process, 20, full_grid, _process_spec(process, 1), 1)
            assert ens.n_paths == 20
        with pytest.raises(DomainError):
            simulate("bogus", 20, full_grid, BM_1D, 1)

    def test_fsbm_q_refuses_anisotropic_charges(self, full_grid):
        # the q-model walker maps every axis with one charge
        spec = replace(
            fractional_spec(beta=0.5, dim=2, alpha=0.5), charges=FractionalCharges((0.5, 0.8))
        )
        with pytest.raises(DomainError, match="isotropic"):
            simulate("fsbm-q", 20, full_grid, spec, 1)

    @pytest.mark.parametrize("process", PROCESSES)
    def test_lbar_refused(self, process, full_grid):
        # no walker starts from a spread: lbar was dropped silently
        spec = fractional_spec(beta=0.5, dim=1, alpha=0.5)
        spec = replace(spec, scales=replace(spec.scales, lbar=0.5))
        with pytest.raises(DomainError, match="walkers read no lbar, got lbar = 0.5"):
            simulate(process, 20, full_grid, spec, 1)

    def test_multiscale_space_refused(self, full_grid):
        # bm returned the bytes of a run without the multiscale space
        spec = replace(fractional_spec(beta=1.0, dim=1, alpha=0.5), multiscale_space=True)
        with pytest.raises(DomainError, match="walkers read no multiscale_space, got multiscale_space = True"):
            simulate("bm", 20, full_grid, spec, 1)

    @pytest.mark.parametrize("asked", ["fsbm-v", "fssbm"])
    def test_tag_follows_nu_whichever_is_asked(self, asked, full_grid):
        for nu, tag in ((1.0, "fsbm-v"), (0.75, "fssbm")):
            ens = simulate(asked, 20, full_grid, fractional_spec(beta=0.5, nu=nu, dim=1), 1)
            assert ens.process == tag

    def test_negative_seed_named(self, full_grid):
        for process in PROCESSES:
            with pytest.raises(DomainError, match="seed must be nonnegative, got -1"):
                simulate(process, 20, full_grid, BM_1D, -1)
        assert simulate("bm", 20, full_grid, BM_1D, 0).n_paths == 20

    def test_grid_validation(self):
        with pytest.raises(GridError):
            simulate("bm", 10, np.array([0.0, 1.0, 2.0]), BM_1D, 0)
        with pytest.raises(GridError):
            simulate("bm", 10, np.array([1.0, 0.5]), BM_1D, 0)

    @pytest.mark.parametrize("process", PROCESSES)
    @pytest.mark.parametrize(
        "grid", [[-0.5, 1.0, 2.0], [1.0, 0.5, 2.0], [1.0, math.nan, 2.0]],
        ids=["negative", "decreasing", "nan"],
    )
    def test_grid_checked_before_any_work(self, process, grid):
        # sbm and fsbm-v powered the negative sigma before the grid was
        # checked, and raised numpy's RuntimeWarning in place of GridError
        nu = 0.5 if process in ("sbm", "fssbm") else 1.0
        spec = fractional_spec(beta=0.5, nu=nu, dim=1, alpha=0.5)
        with pytest.raises(GridError, match="sigma grid must be 1-d, finite, positive"):
            simulate(process, 20, np.array(grid), spec, 1)


# The stream tests run on a grid whose blocks hold 170 paths at D = 3, so
# that a block edge falls inside a group of 64 paths.
STREAM_GRID = geometric_grid(1e-3, 10.0, 256)
STREAM_DIM = 3
STREAM_BLOCK = _block_paths(STREAM_GRID.size, STREAM_DIM)


def _stream_spec(process):
    return _process_spec(process, STREAM_DIM)


def _reference_paths(process, spec, n_paths, seed):
    """The ensemble as drawn without path blocks: one freshly built SFC64
    generator per group g of 64 paths, seeded by SeedSequence(seed,
    spawn_key=(g,)), positions for every path."""
    sc = spec.scales
    nu = {"bm": 1.0, "fsbm-q": sc.beta}.get(process, sc.nu)
    dtau = np.diff(np.concatenate(([0.0], STREAM_GRID ** nu)))
    scale = np.sqrt(2.0 * sc.kappa * dtau)[:, None]
    pos = np.empty((n_paths, STREAM_GRID.size, STREAM_DIM))
    for g, lo in enumerate(range(0, n_paths, GROUP)):
        gen = Generator(SFC64(SeedSequence(seed, spawn_key=(g,))))
        draws = gen.standard_normal((min(GROUP, n_paths - lo), STREAM_GRID.size, STREAM_DIM))
        np.cumsum(draws * scale, axis=1, out=pos[lo: lo + draws.shape[0]])
    if process in ("fsbm-v", "fssbm"):
        pos /= np.sqrt(np.array([time_weight(spec, s) for s in STREAM_GRID]))[None, :, None]
    elif process == "fsbm-q":
        alpha = spec.charges.alphas[0]
        pos = np.sign(pos) * (math.gamma(alpha + 1.0) * np.abs(pos)) ** (1.0 / alpha)
    return pos, np.sum(pos ** 2, axis=2)


class TestBlockStream:
    @pytest.mark.parametrize("process", PROCESSES)
    @pytest.mark.parametrize(
        "n_paths",
        [2, GROUP - 1, GROUP, GROUP + 1, 2 * GROUP + 1, STREAM_BLOCK - 1, STREAM_BLOCK,
         STREAM_BLOCK + 1, 3 * STREAM_BLOCK + 5],
    )
    def test_equals_per_path_generators(self, process, n_paths):
        # blocking moves no bit: the blocked draws equal one generator per group
        spec = _stream_spec(process)
        pos, sq = _reference_paths(process, spec, n_paths, 31)
        for keep in sorted({0, 1, min(STREAM_BLOCK + 3, n_paths), n_paths}):
            ens = simulate(process, n_paths, STREAM_GRID, spec, 31, keep=keep)
            assert ens.process == process
            assert ens.n_paths == n_paths and ens.n_kept == keep
            assert np.array_equal(ens.sq_radii, sq)
            assert np.array_equal(ens.positions, pos[:keep])
        assert np.array_equal(simulate(process, n_paths, STREAM_GRID, spec, 31).positions, pos)

    @pytest.mark.parametrize(
        "steps, dim", [(256, 3), (4096, 4)], ids=["170-per-block", "8-per-block"]
    )
    def test_prefix_of_a_larger_ensemble(self, steps, dim):
        # a stream is read in order, so n paths are the first n of 300; at
        # 8 paths per block every group's stream crosses seven block edges
        grid = geometric_grid(1e-3, 10.0, steps)
        spec = fractional_spec(beta=1.0, dim=dim)
        if steps == 4096:
            assert _block_paths(steps, dim) == 8
        big = simulate("bm", 300, grid, spec, 41)
        for n in (1, GROUP - 1, GROUP, GROUP + 1, 200):
            ens = simulate("bm", n, grid, spec, 41)
            assert np.array_equal(ens.positions, big.positions[:n])
            assert np.array_equal(ens.sq_radii, big.sq_radii[:n])

    @pytest.mark.parametrize("block_bytes", [1, 40_000, walker_mod._BLOCK_BYTES],
                             ids=["1-per-block", "9-per-block", "256-per-block"])
    @pytest.mark.parametrize("n_paths", [1, GROUP, GROUP + 1, 3 * STREAM_BLOCK + 5])
    def test_one_generator_per_group(self, n_paths, block_bytes, monkeypatch):
        # ceil(n / 64) bit generators, each built once where its group
        # starts, never once per block segment of a group
        built = []

        class CountingSFC64(SFC64):
            def __init__(self, seed):
                built.append(seed.spawn_key)
                super().__init__(seed)

        monkeypatch.setattr(np.random, "SFC64", CountingSFC64)
        monkeypatch.setattr(walker_mod, "_BLOCK_BYTES", block_bytes)
        simulate("bm", n_paths, STREAM_GRID, BM_2D, 3, keep=0)
        assert built == [(g,) for g in range(math.ceil(n_paths / GROUP))]

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
