"""A seeded fuzz of small CLI configurations, each run to its exit code.

Parameters are drawn inside their ranges and, three times in ten, at an
edge: alpha down to 0.02, beta and beta* at 0, 1 and 2, nu next to 1 and
below 0, lstar and kappa at 1e-3 and 1e3, a negative seed.  A configuration
decides its own admissibility, so a refusal that it alone decides exits 2
before any file is written.  Exit 3 is left only to the numeric refusals
listed below, and no run may end in a traceback (exit 1).
"""

import random
import time

import pytest

from multiflow.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, main

SEED = 20130409
RUNS = 200
SECONDS = 20.0

# Numeric refusals that depend on more than the configuration: the
# ordinary trace's order-24/40 refinement test at small charges, and the
# fsbm-q MSD underflowing through |q|^(1/alpha).
NUMERIC_REFUSALS = ("trace quadrature not converged", "fit window contains non-positive values")


def _value(rng: random.Random, lo: float, hi: float, edges: tuple[float, ...]) -> str:
    return repr(rng.choice(edges) if rng.random() < 0.3 else rng.uniform(lo, hi))


def _argv(rng: random.Random) -> list[str]:
    command = rng.choice(("flow", "pdf", "kernel", "simulate"))
    nu = "1.0" if rng.random() < 0.6 else _value(rng, 0.05, 2.0, (1.0 + 1e-13, 1.0 + 1e-11, 0.5, -0.5))
    sigma_min = 10.0 ** rng.uniform(-4.0, 0.0)
    argv = [
        command,
        "--alpha", _value(rng, 0.02, 1.0, (0.02, 0.05, 0.5, 1.0)),
        "--beta", _value(rng, 0.05, 1.5, (1e-3, 0.5, 1.0, 1.999, 2.0, 2.5)),
        "--nu", nu,
        "--lstar", _value(rng, 0.01, 100.0, (1e-3, 1.0, 1e3)),
        "--kappa", _value(rng, 0.01, 100.0, (1e-3, 1.0, 1e3)),
        "--seed", str(rng.choice((0, 1, 7, 12, 99, -1))),
        "--sigma-min", repr(sigma_min),
        "--sigma-max", repr(sigma_min * 10.0 ** rng.uniform(2.0, 6.0)),
    ]
    if rng.random() < 0.6:
        argv += ["--beta-star", _value(rng, 0.02, 1.98, (0.02, 0.5, 1.5, 1.98, 1.0, 2.0))]
    if command == "simulate":
        return argv + [
            "--model", rng.choice(("bm", "sbm", "fsbm-v", "fssbm", "fsbm-q")),
            "--dim", str(rng.randint(1, 3)), "--paths", str(rng.randint(16, 64)),
            "--steps", str(rng.choice((8, 32, 48, 64))), "--traj-paths", str(rng.randint(0, 3)),
        ]
    argv += [
        "--model", rng.choice(("weighted", "ordinary", "q", "legacy")),
        "--dim", str(rng.randint(1, 2 if command == "kernel" else 4)),
        "--sigma-points", str(rng.randint(2, 12 if command == "kernel" else 30)),
    ]
    if rng.random() < 0.2:
        argv.append("--fuzzy")
    if command != "flow" and rng.random() < 0.2:
        argv.append("--multiscale-space")
    if command == "pdf":
        argv += ["--x-points", "11", "--sigma", _value(rng, 0.01, 10.0, (1e-3, 1.0))]
    return argv


def test_every_config_exits_0_or_2_or_a_listed_numeric_refusal(tmp_path, capsys):
    rng = random.Random(SEED)
    codes = []
    start = time.monotonic()
    for i in range(RUNS):
        argv = _argv(rng)
        out = tmp_path / f"run{i}" / "out.csv"
        out.parent.mkdir()
        code = main([*argv, "--out", str(out)])
        err = capsys.readouterr().err
        codes.append(code)
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC), (argv, code, err)
        if code == EXIT_OK:
            assert out.exists(), argv
        elif code == EXIT_CONFIG:
            assert list(out.parent.iterdir()) == [], (argv, err)
        else:
            assert any(reason in err for reason in NUMERIC_REFUSALS), (argv, err)
    assert time.monotonic() - start < SECONDS
    # the draw reaches both sides of admissibility
    assert codes.count(EXIT_OK) > RUNS // 4 and codes.count(EXIT_CONFIG) > RUNS // 4, codes


@pytest.mark.parametrize("nu,code", [("1.0000000000001", EXIT_OK), ("1.00000000001", EXIT_CONFIG)])
@pytest.mark.parametrize("command", ["flow", "pdf"])
def test_one_nu_tolerance_with_beta_star(command, nu, code, tmp_path, capsys):
    # the binomial dispersion reads nu = 1 to within 1e-12, in the library
    # and in the config check alike
    out = tmp_path / "x.csv"
    argv = [command, "--model", "weighted", "--beta-star", "0.5", "--nu", nu,
            "--sigma-points", "20", "--out", str(out)]
    assert main(argv) == code
    assert out.exists() == (code == EXIT_OK)
    if code == EXIT_CONFIG:
        assert f"beta_star is read only at nu = 1, got nu = {float(nu)}" in capsys.readouterr().err
