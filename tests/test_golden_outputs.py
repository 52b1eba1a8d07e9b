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
# 256 steps: the walker's path blocks then hold 512 paths at D = 1, 256 at D = 2
# and 170 at D = 3, so these pins cross block edges (see
# test_block_pins_cross_block_edges).
_WALK_BLOCKS = ("--steps", "256", "--sigma-min", "1e-3", "--sigma-max", "10")
# 128 steps: the blocks hold 256 paths at D = 4, the benchmark's dimension,
# where the walker sums two axes per complex add.
_WALK_D4 = ("--steps", "128", "--sigma-min", "1e-3", "--sigma-max", "10")

# name -> (argv without --out, digest of the main file, digest of the trajectory file)
GOLDEN = {
    "flow-weighted-0.5": (
        ("flow", "--model", "weighted", "--beta-star", "0.5", *_FLOW),
        "576b086a4d300befa507e6e633d6648043697b6efeee4e3f916f3e40bbe06483",
        None,
    ),
    "flow-weighted-1.5": (
        ("flow", "--model", "weighted", "--beta-star", "1.5", *_FLOW),
        "accafa3f53d5198ad4a24e0e4479a96f570921681a499b446ea9e4a3a5891ce0",
        None,
    ),
    "flow-weighted-pole": (
        ("flow", "--model", "weighted", "--beta-star", repr(1.0 + 1.0 / 3.0), *_FLOW),
        "075ee22dd6e419e8446151a0cf473cfae5ea709ba66e40fefe0e0c902ca9a8e7",
        None,
    ),
    "flow-weighted-regular-below": (
        ("flow", "--model", "weighted", "--beta-star", "0.3", *_FLOW),
        "3300b9b5fb5d6d8787f25a98ffa5ee9705aaf7cc4634955c92fa0aded58981cb",
        None,
    ),
    "flow-weighted-regular-above": (
        ("flow", "--model", "weighted", "--beta-star", "1.7", *_FLOW),
        "8ef13cdc7dd5d0bc17d770ef8edbc4feefa0f405e1e88e316ebecb9c11c6c960",
        None,
    ),
    "flow-fuzzy": (
        ("flow", "--model", "weighted", "--beta-star", "0.5", "--fuzzy", *_FLOW),
        "f489140adad1e0568daf620e7e34702e7e2661d980a1dbd805ac7cb3bba4507c",
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
        "58c66d15f40a23a1f00a75fd531e01ee44b6ff66fb826c70f9df8be09d0d2f50",
        None,
    ),
    # 1000 sigmas fill 32 blocks of the panel rule; the plateau probes ride along
    "flow-weighted-1.5-dense": (
        ("flow", "--model", "weighted", "--beta-star", "1.5", "--dim", "4",
         "--sigma-min", "1e-6", "--sigma-max", "1e6", "--sigma-points", "1000"),
        "275c456e2ac01be9940bdf7c3683b5c0091da7792177a6cb50bc780c372ad671",
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
        "c356e26c25823e27e0b1b7c577fc521e8085b45e867f683f992f81fdd9767ea0",
        None,
    ),
    "kernel-d1": (
        (*_KERNEL, "--dim", "1", "--alpha", "0.5", "--sigma-points", "9"),
        "b473e7b127197bbda25b8b305798e7d02723a1fd0d3cb992f80e4af3b3d75608",
        None,
    ),
    "kernel-d2": (
        (*_KERNEL, "--dim", "2", "--alpha", "0.45", "--sigma-points", "5"),
        "d3b6a99e5cb5a471cadbf208f9b298a4518bb4ae6f7fc8f88b8359865de003d6",
        None,
    ),
    # the per-axis integral I_1(lam, U) of a one-dimensional multiscale space
    "kernel-multiscale-d1": (
        (*_KERNEL, "--dim", "1", "--alpha", "0.5", "--multiscale-space", "--sigma-points", "7"),
        "bebac6c0847a7687c88b0980df776db004ed642dfe179b25267d769e0349d8df",
        None,
    ),
    # the binomial box sum over the expanded 2^D term combinations
    "kernel-multiscale-d2": (
        (*_KERNEL, "--dim", "2", "--alpha", "0.5", "--multiscale-space", "--sigma-points", "5"),
        "f879470914f9c6057b9a9f601ed28b11a75a8102aa48736ef90b74fef23c5a21",
        None,
    ),
    # alpha = 1: Phi = 1, so each axis factor is I_0(U) = U/sqrt(pi) to rounding
    "kernel-alpha-one-d2": (
        (*_KERNEL, "--dim", "2", "--alpha", "1.0", "--sigma-points", "5"),
        "3cdb095eba57b50e31c1ce814179eaff4e4bb13e5ef79d915fc1b0533f9c4f1b",
        None,
    ),
    # a binomial diffusion-time measure sets ell^2 and the box of the trace
    "kernel-d1-binomial-time": (
        ("kernel", "--model", "ordinary", "--dim", "1", "--alpha", "0.5", "--beta-star", "1.5"),
        "b3d6fc843d7da86ff30d8fdd23c89ab9a38e6238f83899863e0df4e4ab390820",
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
        "42eb335ed8cc429b07fa5f3d7dd3bf9b34f347cdf50e46f47669dd14115a19d2",
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
        "40e31b28c897c3cd99a87ad476cc6380a8b7897a27b7225866134af359387d1a",
        None,
    ),
    # the Gaussian over the binomial position weight, x = 0 dropped
    "pdf-weighted-multiscale-d2": (
        ("pdf", "--model", "weighted", "--dim", "2", "--multiscale-space", "--alpha", "0.5",
         "--x-points", "41"),
        "6f1f7d5583b13e918dafbf2a610fb288a537d6b9fed08a65b54c67ca8c7a01df",
        None,
    ),
    "simulate-bm": (
        ("simulate", "--model", "bm", "--dim", "2", *_WALK, "--seed", "7", "--traj-paths", "5"),
        "03362750620edfd9389fb67860b618451d3280389cffb36a4fb1ad431be6b34f",
        "43f8c3c4a244ba6beb85ca15f31ab4a0b892cae33edacd9659e05ba7934eb684",
    ),
    "simulate-fsbm-v-subsample": (
        ("simulate", "--model", "fsbm-v", "--dim", "2", "--beta", "0.5", *_WALK, "--seed", "13",
         "--subsample", "8", "--traj-paths", "3"),
        "c24af9ead7d709c64c306d8e7ff92206b48787a32bb4c47d32aa18077a95c402",
        "9a35a3dafea1d97f6259ff4da598cafe86964008ad026a2e61cea875a3addc0d",
    ),
    # asked for as fssbm and tagged so at nu != 1
    "simulate-fssbm": (
        ("simulate", "--model", "fssbm", "--dim", "2", "--beta", "0.5", "--nu", "0.75", *_WALK,
         "--seed", "17", "--traj-paths", "4"),
        "150d631b9b70984c341479d8835adc0cef2ae6caead7036a147a354f425d0355",
        "a290d48ef11c10c9ffda78399aafa4455931df8723deaa5ca62393ea84ce2115",
    ),
    # alpha = 1: the q walker without its inverse-profile map
    "simulate-fsbm-q-identity": (
        ("simulate", "--model", "fsbm-q", "--dim", "2", "--alpha", "1.0", "--beta", "0.5",
         *_WALK, "--seed", "19", "--traj-paths", "4"),
        "6f18a85f6d428c0ad6c21aa2f2ff4d50ff482437ef83d1f8da8edbe5cb57021d",
        "4138ca22dd3ab04ffe9776c04aa449ef7a67293bf58d11f2d64d1cc5861bc0d6",
    ),
    "simulate-fsbm-q": (
        ("simulate", "--model", "fsbm-q", "--dim", "2", "--alpha", "0.5", "--beta", "0.5",
         *_WALK, "--seed", "11", "--traj-paths", "0"),
        "8c809fe16ad1985aae7896e6749795ad10f54cf9f853362fa5ef4855c3af2566",
        None,
    ),
    "simulate-bm-d3-blocks": (
        ("simulate", "--model", "bm", "--dim", "3", "--paths", "600", *_WALK_BLOCKS,
         "--seed", "21", "--traj-paths", "300"),
        "d8ebccf639f643c13b1b82cb4305c23f4a4dc757fac94828a3c3098f1f01f850",
        "cb4f900fd1bdcc07bd8fa5091f8623fa9647851a5648d29cd61c844870fd48bb",
    ),
    "simulate-fsbm-v-binomial-blocks": (
        ("simulate", "--model", "fsbm-v", "--dim", "2", "--beta-star", "1.5", "--paths", "513",
         *_WALK_BLOCKS, "--seed", "23", "--traj-paths", "3"),
        "1570440538b780ec6d12e7fa0042d8b51ffe29fc66a2a8dd13c219738f9d1f6c",
        "3f98a4de465eb13103a9f2d0714b03dcfc10c214c56c19328e0350239f7edc10",
    ),
    "simulate-fsbm-q-blocks": (
        ("simulate", "--model", "fsbm-q", "--dim", "2", "--alpha", "0.5", "--beta", "0.5",
         "--paths", "700", *_WALK_BLOCKS, "--seed", "29", "--traj-paths", "0"),
        "92c170f302b0726034d8692c2d8c5168ebba041c88ab02cc8e68849f4448b46d",
        None,
    ),
    "simulate-bm-d4-blocks": (
        ("simulate", "--model", "bm", "--dim", "4", "--paths", "600", *_WALK_D4,
         "--seed", "37", "--traj-paths", "300"),
        "2362d640ed71d9e820e4733e6f30c6ec5d90ed9db9bd54f124fb511f46e38a4a",
        "7d6b9d63af4ffa9b8ed83a987f89d074b206c59ed037f47efcd39c9db8ed716b",
    ),
    # the inverse-profile map at D = 4, over a full block of 256 paths and a
    # partial one of 44
    "simulate-fsbm-q-d4": (
        ("simulate", "--model", "fsbm-q", "--dim", "4", "--alpha", "0.5", "--beta", "0.5",
         "--paths", "300", *_WALK_D4, "--seed", "43", "--traj-paths", "3"),
        "8cf1d6bceff0df2e7f2ccac7963c284c39b9c03c3664a9adf209b22f11d158ab",
        "3217cf56333d53919f2f2f3331723dc2e799acbdb02b964fa67af1bcb91ab8a6",
    ),
    # at D = 1 the msd row blocks are the path blocks: 512 + 512 + 276 rows
    "simulate-sbm-d1-blocks": (
        ("simulate", "--model", "sbm", "--nu", "0.5", "--dim", "1", "--paths", "1300",
         *_WALK_BLOCKS, "--seed", "31", "--traj-paths", "0"),
        "13b75d91be42107cf5c70c01f2fd7bbfc82010244846cccd57818a0886ecc00d",
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


# SHA-256 of the full ``validate`` standard output
VALIDATE_DIGEST = "5985420e2082b57251bb5beaa4322b986e2d7294607111f81ad3aaddef22b49a"


def test_validate_output_pinned(capsys):
    assert main(["validate"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "check bm-msd-exponent: measured=9.974820e-01 expected=1.000000e+00" in out
    assert hashlib.sha256(out.encode()).hexdigest() == VALIDATE_DIGEST


def _flag(argv, name):
    return int(argv[argv.index(name) + 1])


@pytest.mark.parametrize("name", [n for n in sorted(GOLDEN) if n.endswith("-blocks")])
def test_block_pins_cross_block_edges(name):
    # every block pin spans three or more path blocks, the last one partly filled
    argv = GOLDEN[name][0]
    block = _block_paths(_flag(argv, "--steps"), _flag(argv, "--dim"))
    paths = _flag(argv, "--paths")
    assert paths > 2 * block and paths % block != 0
    if name in ("simulate-bm-d3-blocks", "simulate-bm-d4-blocks"):  # its trajectory file spans two blocks
        assert block < _flag(argv, "--traj-paths") < 2 * block
    if name == "simulate-sbm-d1-blocks":  # and so does its msd reduction
        rows = _block_paths(_flag(argv, "--steps"), 1)
        assert (rows, paths - 2 * rows) == (512, 276)
