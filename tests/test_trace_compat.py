"""CLI jobs run under the benchmark's tracer.

``benchmark/tracing.py`` wraps every public function of the package and
reads some arguments by position (``kummer_phi``'s ``z`` as a float, for
one).  A signature change that breaks a traced run fails here, in the test
suite, rather than in a benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

import multiflow
import multiflow.cli as cli

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"

JOBS = {
    "flow": (
        "flow", "--model", "weighted", "--beta-star", "1.5", "--dim", "4",
        "--sigma-min", "1e-6", "--sigma-max", "1e6", "--sigma-points", "40",
    ),
    # the q and legacy flows take the same array pass as the weighted one
    "flow-q": (
        "flow", "--model", "q", "--beta-star", "0.5", "--dim", "4",
        "--sigma-min", "1e-6", "--sigma-max", "1e6", "--sigma-points", "40",
    ),
    "flow-legacy": (
        "flow", "--model", "legacy", "--alpha", "0.5", "--dim", "4",
        "--sigma-min", "1e-6", "--sigma-max", "1e6", "--sigma-points", "40",
    ),
    "kernel": (
        "kernel", "--model", "ordinary", "--dim", "1", "--alpha", "0.5",
        "--sigma-min", "1e-2", "--sigma-max", "1e2", "--sigma-points", "9",
    ),
    # the closed-form trace takes its whole grid from one dispersion call
    "kernel-weighted": (
        "kernel", "--model", "weighted", "--beta-star", "0.5", "--sigma-points", "20",
    ),
    "pdf": ("pdf", "--model", "ordinary", "--dim", "1", "--alpha", "0.5", "--x-points", "41"),
    # writes the msd file and a trajectory file
    "simulate": (
        "simulate", "--model", "bm", "--dim", "2", "--paths", "50", "--steps", "32",
        "--sigma-min", "1e-3", "--sigma-max", "10", "--seed", "5", "--subsample", "4",
        "--traj-paths", "3",
    ),
}


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("multiflow_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(JOBS))
def test_traced_job_runs_and_writes_the_untraced_bytes(name, tracing, tmp_path):
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    plain.mkdir()
    traced.mkdir()
    assert cli.main([*JOBS[name], "--out", str(plain / "out.csv")]) == 0
    tracer = tracing.Tracer(multiflow)
    tracer.install()
    try:
        code = cli.main([*JOBS[name], "--out", str(traced / "out.csv")])
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.stats["cli.main"].calls == 1
    command = JOBS[name][0]
    assert tracer.stats[f"cli.run_{command}"].calls == 1
    if command == "flow":
        assert tracer.stats["spectral.flow_curve"].calls == 1
    if name in ("pdf", "kernel-weighted"):
        # one ell^2 per slice and per grid
        assert tracer.stats["dispersion.dispersion"].calls == 1
    if name == "pdf":
        # the off-origin normalization is one traced scalar Kummer call per slice
        assert tracer.stats["specfun.kummer_phi"].calls == 1
    written = sorted(traced.iterdir())
    assert [f.name for f in written] == sorted(f.name for f in plain.iterdir())
    assert len(written) == (2 if command == "simulate" else 1)
    for f in written:
        assert f.read_bytes() == (plain / f.name).read_bytes()
    # the tracer reads the written file's path from write_csv's first argument
    assert tracer.stats["csvio.write_csv"].calls == len(written)
    assert tracer.bytes_written == sum(f.stat().st_size for f in written)
