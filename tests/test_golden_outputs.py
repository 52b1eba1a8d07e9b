"""Byte-level pins of the CLI outputs.

Each case runs one CLI job on a small grid and compares the SHA-256 of every
file it writes with a recorded digest.  A refactoring that keeps these
digests keeps the outputs byte-identical; a change that moves one value by
one unit in the last place fails here.  The digests depend on the platform's
floating-point library, so they were recorded on x86-64 Linux.
"""

from __future__ import annotations

import hashlib

import pytest

from multiflow.cli import EXIT_OK, main
from multiflow.walker import _block_paths

_FLOW = ("--dim", "4", "--sigma-min", "1e-6", "--sigma-max", "1e6", "--sigma-points", "60")
_KERNEL = ("kernel", "--model", "ordinary", "--sigma-min", "1e-2", "--sigma-max", "1e2")
_WALK = ("--paths", "200", "--steps", "64", "--sigma-min", "1e-3", "--sigma-max", "10")
# 256 steps: the walker's path blocks then hold 256 paths at D = 2 and 170 at
# D = 3, so these pins cross block edges (see test_block_pins_cross_block_edges).
_WALK_BLOCKS = ("--steps", "256", "--sigma-min", "1e-3", "--sigma-max", "10")

# name -> (argv without --out, digest of the main file, digest of the trajectory file)
GOLDEN = {
    "flow-weighted-0.5": (
        ("flow", "--model", "weighted", "--beta-star", "0.5", *_FLOW),
        "ce40eb3b45766930372b68c0351f548394990ea2aed5f4e16bdc598a6eed7bd1",
        None,
    ),
    "flow-weighted-1.5": (
        ("flow", "--model", "weighted", "--beta-star", "1.5", *_FLOW),
        "6233f1813b97dff4bacf1a888b680732a72a4572dad39b36d9ac1402658de48a",
        None,
    ),
    "flow-weighted-pole": (
        ("flow", "--model", "weighted", "--beta-star", repr(1.0 + 1.0 / 3.0), *_FLOW),
        "2e29c3f97a819ff3646614b58f073ca4db419f50621cc72366f57578758fcddf",
        None,
    ),
    "flow-weighted-regular-below": (
        ("flow", "--model", "weighted", "--beta-star", "0.3", *_FLOW),
        "abbc2ab08d149a46f689101e99301fbdb40edf6e3f271ab8349534a6d041bd11",
        None,
    ),
    "flow-weighted-regular-above": (
        ("flow", "--model", "weighted", "--beta-star", "1.7", *_FLOW),
        "0df6a4b9c0e158cb3d480dc64309e7ca81a8b1fc61d898c96255ebb87b86d7e1",
        None,
    ),
    "flow-fuzzy": (
        ("flow", "--model", "weighted", "--beta-star", "0.5", "--fuzzy", *_FLOW),
        "4134e13fda9935e1a30303cfffb1a376e141b2b642ebe3c0efc518a3267138cc",
        None,
    ),
    "flow-q": (
        ("flow", "--model", "q", "--beta-star", "0.5", *_FLOW),
        "f0c15fded9bc452cbd9362917e666c7ac4453d4ee8bcc412d6a14afcb0ecd2e8",
        None,
    ),
    "flow-legacy": (
        ("flow", "--model", "legacy", "--alpha", "0.5", *_FLOW),
        "4453e822daf1b9baac8d6e2fa5bd5f6cc83cd8f6ae9d577804661bf03053027c",
        None,
    ),
    "flow-ordinary-multiscale": (
        ("flow", "--model", "ordinary", "--beta-star", "0.3", *_FLOW),
        "9a5021c8e6981d911f75d559052d4cc5059c8f7dc95c75bb4e33924edbca0a5c",
        None,
    ),
    # 1000 sigmas fill 32 blocks of the panel rule; the plateau probes ride along
    "flow-weighted-1.5-dense": (
        ("flow", "--model", "weighted", "--beta-star", "1.5", "--dim", "4",
         "--sigma-min", "1e-6", "--sigma-max", "1e6", "--sigma-points", "1000"),
        "f6db47b124b7976524cb6cf3f463da909cc45fc637c603a7374f1c5c6e5259c0",
        None,
    ),
    "flow-ordinary-fixed": (
        ("flow", "--model", "ordinary", "--beta", "0.5", *_FLOW),
        "c25b7c51a0586004b9529f96d301d06b7ff4a1a5b09bb6b0653e7ca4cb4d8202",
        None,
    ),
    # a single-term q profile: no beta*, the charge is --beta
    "flow-q-single-term": (
        ("flow", "--model", "q", "--beta", "0.7"),
        "5d4cd7baaedd804d71f664c15d1f585fc47544e37c772346d6743d12d765611f",
        None,
    ),
    "flow-weighted-fixed-nu": (
        ("flow", "--model", "weighted", "--beta", "0.6", "--nu", "0.8"),
        "4a37b16e659a0ade2c897a224381e47ef2156b676fc8525a50a66262d794a087",
        None,
    ),
    "flow-weighted-uniform-grid": (
        ("flow", "--model", "weighted", "--beta-star", "0.5", "--sigma-log", "false"),
        "e788eaf17011c9b72e5137ae67bd1242b05cb2f01b3a21be77094df6bc253bd7",
        None,
    ),
    "kernel-d1": (
        (*_KERNEL, "--dim", "1", "--alpha", "0.5", "--sigma-points", "9"),
        "0732921c62cf231afb0d82be4312f760d4c53de57b9cec578a52f2acbfc82634",
        None,
    ),
    "kernel-d2": (
        (*_KERNEL, "--dim", "2", "--alpha", "0.45", "--sigma-points", "5"),
        "388aac24e1478fe3ae82d2de423415400a7335180ee51db003c0e09159f0cd32",
        None,
    ),
    "kernel-multiscale-d1": (
        (*_KERNEL, "--dim", "1", "--alpha", "0.5", "--multiscale-space", "--sigma-points", "7"),
        "84ba2862d32769a6ab0c5e49f68c425591c11826d546333b22ac913ad647b34e",
        None,
    ),
    # a binomial diffusion-time measure sets ell^2 and the box of the trace
    "kernel-d1-binomial-time": (
        ("kernel", "--model", "ordinary", "--dim", "1", "--alpha", "0.5", "--beta-star", "1.5"),
        "8e38f0d98191ae518af34b01f38831f41331ceed607b3b40d6aca2cf4d730cc4",
        None,
    ),
    # the README's kernel example
    "kernel-q": (
        ("kernel", "--model", "q", "--dim", "2", "--beta-star", "0.5"),
        "cbb3134d18179fa1f45c0086a26e6668538f300c1d6356cf31b775da503fe288",
        None,
    ),
    # 200 sigmas of the binomial panel rule in one dispersion call
    "kernel-weighted-binomial-time": (
        ("kernel", "--model", "weighted", "--beta-star", "0.5", "--sigma-points", "200"),
        "1fed8b70dd559de06969b8b4024eb59be9e66261c7c0d157d8c9dea1077f59fe",
        None,
    ),
    "kernel-legacy-d4": (
        ("kernel", "--model", "legacy", "--alpha", "0.5", "--dim", "4"),
        "64e72eb3a0b2aaf32d89e64db3346caad85e325ae7a3226b956fc0883087eb5a",
        None,
    ),
    "pdf-q": (
        ("pdf", "--model", "q", "--dim", "2", "--beta-star", "0.5", "--sigma", "1.0"),
        "67337908cd2971b3566a61994b5819fcbfba5531a8de36104a8972ad70cbeab7",
        None,
    ),
    "pdf-legacy": (
        ("pdf", "--model", "legacy", "--dim", "1", "--alpha", "0.5"),
        "86e3a26ea52bf5b3651cc6fa37d6cbe49e9b77b0a0ee5d7886ddfff963fcbbf8",
        None,
    ),
    # the binomial bracket of the normalization, off the origin, in two dimensions
    "pdf-ordinary-multiscale-d2": (
        ("pdf", "--model", "ordinary", "--dim", "2", "--multiscale-space", "--alpha", "0.5",
         "--x0", "0.3"),
        "598fb9ae220f4b3f0b57fe799e5d6fd03e270e1789967c192a394df7d8406059",
        None,
    ),
    "pdf-ordinary": (
        ("pdf", "--model", "ordinary", "--dim", "1", "--alpha", "0.5", "--sigma", "1.0",
         "--x-points", "41"),
        "f58a92109af2000211a12c199a77d0683733a40cdcae8565b8b6fc644735827a",
        None,
    ),
    # an odd point count puts x = 0 on the grid, where the weighted density is skipped
    "pdf-weighted-odd": (
        ("pdf", "--model", "weighted", "--dim", "2", "--beta-star", "0.5", "--sigma", "1.0",
         "--x-points", "41"),
        "2ded663d6ec2a0aaf6f88e71d4a06d649d210bf91a3acd9e3f1c5163ec151109",
        None,
    ),
    "simulate-bm": (
        ("simulate", "--model", "bm", "--dim", "2", *_WALK, "--seed", "7", "--traj-paths", "5"),
        "bf316d3250dea62be38866be44421aca3a72ff5ec481c429a699d5d947aaa3f5",
        "97ddd0ca254292f47d59332de410de5da74d6819c59b61cc624e8cc75dcb2557",
    ),
    "simulate-fsbm-v-subsample": (
        ("simulate", "--model", "fsbm-v", "--dim", "2", "--beta", "0.5", *_WALK, "--seed", "13",
         "--subsample", "8", "--traj-paths", "3"),
        "de386531241b0698a4143c28d8b15ab333758db4e8c89475949981367c3d7b26",
        "1685fbe457d60b1313933d2c064454bae1779ec5736637ce53b41d83aee5718f",
    ),
    "simulate-fsbm-q": (
        ("simulate", "--model", "fsbm-q", "--dim", "2", "--alpha", "0.5", "--beta", "0.5",
         *_WALK, "--seed", "11", "--traj-paths", "0"),
        "f7c1a522fabba7766853e1b166a3e5838e558b4d26a007b249cccf8108d50414",
        None,
    ),
    "simulate-bm-d3-blocks": (
        ("simulate", "--model", "bm", "--dim", "3", "--paths", "600", *_WALK_BLOCKS,
         "--seed", "21", "--traj-paths", "300"),
        "0ba3c685cdee4fc2af04a51c1eb31d62b93137ba7ccfbd865a7e7c57484d5cf5",
        "c25fc19e8348f826a6b4b649cc88754a87b0f18fb4405646175ffd9296b0cf0e",
    ),
    "simulate-fsbm-v-binomial-blocks": (
        ("simulate", "--model", "fsbm-v", "--dim", "2", "--beta-star", "1.5", "--paths", "513",
         *_WALK_BLOCKS, "--seed", "23", "--traj-paths", "3"),
        "f60d3ca5823cadd2fe1e45572b260843d1c059c3ea8f92c4a8bc0e4df7506e1e",
        "0a812954ad97bbc256b92928183abee70fed6e5e8c04148b98dbd470c5a07b3f",
    ),
    "simulate-fsbm-q-blocks": (
        ("simulate", "--model", "fsbm-q", "--dim", "2", "--alpha", "0.5", "--beta", "0.5",
         "--paths", "700", *_WALK_BLOCKS, "--seed", "29", "--traj-paths", "0"),
        "381006a55a11973b85ad9577fc6d51a0d37f7a1919990aa1adc66f3bf5c1df0d",
        None,
    ),
}


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_pinned(name, tmp_path):
    argv, main_digest, traj_digest = GOLDEN[name]
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    assert _digest(out) == main_digest
    traj = tmp_path / "out.traj.csv"
    assert (_digest(traj) if traj.exists() else None) == traj_digest


def test_pins_hold_across_jobs_in_one_process(tmp_path):
    # the CLI parser is built once per process: a flag given to one job
    # (--fuzzy, --multiscale-space) must not reach the next
    for i, name in enumerate(("flow-fuzzy", "kernel-multiscale-d1", "flow-weighted-0.5")):
        argv, main_digest, _ = GOLDEN[name]
        out = tmp_path / f"job{i}.csv"
        assert main([*argv, "--out", str(out)]) == EXIT_OK
        assert _digest(out) == main_digest, name


def _flag(argv, name):
    return int(argv[argv.index(name) + 1])


@pytest.mark.parametrize("name", [n for n in sorted(GOLDEN) if n.endswith("-blocks")])
def test_block_pins_cross_block_edges(name):
    # every block pin spans three or more path blocks, the last one partly filled
    argv = GOLDEN[name][0]
    block = _block_paths(_flag(argv, "--steps"), _flag(argv, "--dim"))
    paths = _flag(argv, "--paths")
    assert paths > 2 * block and paths % block != 0
    if name == "simulate-bm-d3-blocks":  # its trajectory file spans two blocks
        assert block < _flag(argv, "--traj-paths") < 2 * block
