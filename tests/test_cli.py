import os
import re
import subprocess
import sys
import time
from dataclasses import fields, replace

import numpy as np
import pytest

import multiflow
from multiflow import walker
from multiflow.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, EXIT_VALIDATION, main
from multiflow.config import (
    RunConfig,
    build_spec,
    merge_overrides,
    parse_config,
    read_config,
    serialize_config,
)
from multiflow.csvio import CSV_VERSION
from multiflow.dispersion import _DEFAULTS, _MODEL_FIELDS, MODELS
from multiflow.errors import ConfigError, GridError
from multiflow.grid import geometric_grid, uniform_grid


def read_csv(path):
    meta, columns, rows = {}, None, []
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith(f"# {CSV_VERSION} ")
    for line in lines[1:]:
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, columns, rows


class TestCurveSerialization:
    def test_documented_column_orders(self, tmp_path):
        # every sampled curve type serializes through write_csv in its
        # documented column order
        import numpy as np

        from multiflow.csvio import write_csv
        from multiflow.kernel import PER_INTEGER_VOLUME, HeatKernelCurve
        from multiflow.spectral import SpectralFlow

        sig = np.geomspace(0.1, 10.0, 5)
        flow = SpectralFlow(sigmas=sig, ds=np.full(5, 2.0), uv_asymptote=2.0,
                            ir_asymptote=4.0, model="q")
        path = tmp_path / "flow.csv"
        write_csv(path, "spectral", ("sigma", "ds", "model", "uv", "ir"),
                  (flow.sigmas, flow.ds, flow.model, repr(flow.uv_asymptote),
                   repr(flow.ir_asymptote)))
        _, columns, rows = read_csv(path)
        assert columns == ["sigma", "ds", "model", "uv", "ir"]
        assert rows[0][2] == "q" and float(rows[0][4]) == 4.0

        kern = HeatKernelCurve(sigmas=sig, Z=1.0 / sig, convention=PER_INTEGER_VOLUME,
                               model="weighted")
        path = tmp_path / "kern.csv"
        write_csv(path, "kernel", ("sigma", "Z", "convention"),
                  (kern.sigmas, kern.Z, kern.convention))
        _, columns, rows = read_csv(path)
        assert columns == ["sigma", "Z", "convention"]


def _reference_cell(value) -> str:
    """A cell by the row-wise writer's rules: exact built-in types first."""
    kind = type(value)
    if kind is float:
        return repr(value)
    if kind is int or kind is str:
        return str(value)
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _reference_csv(kind, header, rows, meta=None, footer=None) -> bytes:
    lines = [f"# {CSV_VERSION} {kind}"]
    lines += [f"# {k}={_reference_cell(v)}" for k, v in (meta or {}).items()]
    lines.append(",".join(header))
    lines += [",".join(map(_reference_cell, row)) for row in rows]
    lines += [f"# {k}={_reference_cell(v)}" for k, v in (footer or {}).items()]
    return ("\n".join(lines) + "\n").encode()


class TestColumnWriter:
    """write_csv formats whole columns; its bytes are those of a row-wise writer."""

    FLOATS = np.array([-0.0, 5e-324, 1e16, 1e-5, 1.0 / 3.0, -2.5, 1e300, 0.1 + 0.2])

    def test_bytes_equal_row_wise_reference(self, tmp_path):
        from multiflow.csvio import write_csv

        n = self.FLOATS.size
        singles = np.array([-0.0, 1e-45, 1e16, 1e-5, 1.0 / 3.0, -2.5, 3e38, 0.1], dtype=np.float32)
        ints = np.arange(-3, n - 3)
        small = np.arange(n, dtype=np.uint8)
        flags = np.arange(n) % 3 == 0
        header = ("f", "f32", "i", "u", "b", "tag")
        meta = {"seed": 7, "np_int": np.int64(-4), "scale": 1e-5, "np_float": np.float64(1 / 3),
                "flag": True, "np_flag": np.bool_(False), "name": "x"}
        footer = {"fit": -0.0, "tiny": 5e-324}
        path = tmp_path / "cols.csv"
        write_csv(path, "test", header,
                  (self.FLOATS, singles, ints, small, flags, "const"), meta, footer)
        rows = [
            (f, f32, int(i), u, bool(b), "const")
            for f, f32, i, u, b in zip(self.FLOATS.tolist(), singles, ints.tolist(), small, flags)
        ]
        expected = _reference_csv("test", header, rows, meta, footer)
        assert path.read_bytes() == expected
        assert b"-0.0,-0.0," in expected and b"5e-324" in expected and b"1e+16" in expected
        assert b"1e-05" in expected and b"0.3333333333333333" in expected

    def test_numpy_and_python_ints_write_alike(self, tmp_path):
        from multiflow.csvio import write_csv

        path = tmp_path / "ints.csv"
        write_csv(path, "ints", ("a", "b"), (np.array([0, 7, -12], dtype=np.int32),
                                             iter(["x", "y", "z"])))
        expected = _reference_csv("ints", ("a", "b"), [(0, "x"), (7, "y"), (-12, "z")])
        assert path.read_bytes() == expected

    def test_empty_table(self, tmp_path):
        from multiflow.csvio import write_csv

        path = tmp_path / "empty.csv"
        write_csv(path, "empty", ("sigma", "model"), (np.array([]), "q"), {"dim": 1}, {"n": 0})
        assert path.read_bytes() == _reference_csv("empty", ("sigma", "model"), [],
                                                   {"dim": 1}, {"n": 0})

    def test_memory_is_one_block_of_lines(self, tmp_path):
        # 51 200 rows, 12.5 blocks of lines: converting whole columns to
        # Python objects at once held 7.4 MiB for four float columns
        import tracemalloc

        from multiflow.csvio import write_csv

        rng = np.random.default_rng(5)
        n = 51200
        columns = (rng.standard_normal(n), rng.standard_normal(n) * 1e-300,
                   rng.integers(-10 ** 12, 10 ** 12, n), rng.standard_normal(n) > 0.0)
        header = ("a", "b", "i", "flag")
        path = tmp_path / "big.csv"
        tracemalloc.start()
        try:
            write_csv(path, "big", header, columns)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2 ** 20
        rows = zip(columns[0].tolist(), columns[1].tolist(), columns[2].tolist(), columns[3])
        assert path.read_bytes() == _reference_csv("big", header, rows)

    @pytest.mark.parametrize("columns", [
        ("only", "constants"),
        (np.zeros(3), np.zeros(4)),
        (np.zeros((2, 2)),),
    ])
    def test_refuses_columns_without_one_row_count(self, columns, tmp_path):
        from multiflow.csvio import write_csv

        path = tmp_path / "bad.csv"
        with pytest.raises(ValueError):
            write_csv(path, "bad", ("a",) * len(columns), columns)
        assert not path.exists()


class TestConfig:
    def test_round_trip_identity(self):
        cfg = RunConfig(command="simulate", process="fsbm-v", beta=0.5, dim=1, seed=77)
        text = serialize_config(cfg)
        assert parse_config(text) == cfg
        assert parse_config(serialize_config(parse_config(text))) == cfg
        # every field has its key: a config that moves each one from its default comes back
        # whole; alpha and alphas are one setting, written by whichever is read
        full = RunConfig(
            command="kernel", out="a.csv", svg="a.svg", model="ordinary", dim=2,
            alphas=(0.5, 0.25), beta=0.75, beta_star=0.5, nu=0.9, lstar=2.0, kappa=3.0, lbar=0.1,
            fuzzy=True, multiscale_space=True, sigma_min=0.01, sigma_max=100.0, points=7, log=False,
            process="sbm", paths=9, steps=11, seed=5, subsample=2, traj_paths=3, sigma=0.5,
            x_max=4.0, x_points=21, x0=0.3, box=6.0,
        )
        assert all(getattr(full, f.name) != f.default for f in fields(RunConfig) if f.name != "alpha")
        assert read_config(serialize_config(full)) == full
        by_alpha = replace(full, alpha=0.5, alphas=())
        assert read_config(serialize_config(by_alpha)) == by_alpha

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[model]\nwibble = 3\n")
        # a key is the field name with '-' for '_', in the field's own section
        for text in ("[model]\nbeta_star = 0.5\n", "[grid]\nbeta-star = 0.5\n"):
            with pytest.raises(ConfigError, match="unknown key"):
                parse_config(text)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[nonsense]\nmodel = q\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[model]\ndim = 2\ndim = 3\n")

    def test_bad_value_diagnostics(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("[model]\ndim = banana\n")

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            RunConfig(command="bogus").validate()
        with pytest.raises(ConfigError):
            RunConfig(sigma_min=2.0, sigma_max=1.0).validate()
        with pytest.raises(ConfigError):
            merge_overrides(RunConfig(), {"definitely_not_a_key": 1})
        for x_points, x_max in ((0, 5.0), (1, 5.0), (41, 0.0), (41, -3.0)):
            with pytest.raises(ConfigError, match="x-points"):
                RunConfig(command="pdf", x_points=x_points, x_max=x_max).validate()
        for box in (0.0, -1.0):
            with pytest.raises(ConfigError, match="box"):
                RunConfig(command="kernel", box=box).validate()
        for sigma in (0.0, -1.0):
            with pytest.raises(ConfigError, match="sigma must be positive"):
                RunConfig(command="pdf", sigma=sigma).validate()
        # one grid rule: the config's points and steps refuse what the grid
        # builders refuse, with the builders' words
        for lo, hi, n in ((2.0, 1.0, 50), (1.0, 1.0, 50), (0.0, 1.0, 50), (-1.0, 1.0, 50),
                          (1e-3, 10.0, 1), (1e-3, 10.0, 0)):
            for make in (geometric_grid, uniform_grid):
                with pytest.raises(GridError) as grid:
                    make(lo, hi, n)
            with pytest.raises(ConfigError) as points:
                RunConfig(sigma_min=lo, sigma_max=hi, points=n).validate()
            with pytest.raises(ConfigError) as steps:
                RunConfig(command="simulate", sigma_min=lo, sigma_max=hi, steps=n).validate()
            assert str(points.value) == str(grid.value).replace("steps", "points")
            assert str(steps.value) == str(grid.value)
        RunConfig(sigma_min=1e-3, sigma_max=10.0, points=2, steps=2).validate()

    @pytest.mark.parametrize(
        "argv",
        [
            ("flow", "--model", "weighted", "--beta-star", "0.5", "--lstar", "inf"),
            ("flow", "--model", "weighted", "--beta-star", "0.5", "--kappa", "inf"),
            ("flow", "--model", "q", "--beta-star", "0.5", "--sigma-max", "inf"),
            ("flow", "--model", "ordinary", "--beta", "0.5", "--sigma-max", "inf"),
            ("pdf", "--model", "ordinary", "--dim", "1", "--alpha", "0.5", "--x0", "inf"),
            ("pdf", "--model", "q", "--dim", "1", "--alpha", "0.5", "--x-max", "inf"),
            ("pdf", "--model", "weighted", "--dim", "1", "--x-points", "1", "--x-max", "0"),
            ("kernel", "--model", "ordinary", "--dim", "1", "--alpha", "0.5", "--box", "-1"),
            ("kernel", "--model", "ordinary", "--dim", "1", "--alpha", "0.5", "--box", "0"),
            ("kernel", "--model", "q", "--dim", "1", "--alpha", "0.5", "--box", "-1"),
        ],
    )
    def test_non_finite_setting_is_config_error(self, argv, tmp_path):
        # refused before any numerics: no nan or inf rows, no empty or
        # reversed pdf grid and no empty kernel box are written
        out = tmp_path / "x.csv"
        assert main([*argv, "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    def test_non_finite_charge_list_rejected(self):
        with pytest.raises(ConfigError, match="alphas"):
            RunConfig(dim=2, alphas=(0.5, float("inf"))).validate()

    def test_build_spec_multiscale(self):
        cfg = RunConfig(model="weighted", beta_star=0.5, fuzzy=True).validate()
        spec = build_spec(cfg)
        assert spec.fuzzy and spec.multiscale is not None


class TestMultiscaleSpace:
    """--multiscale-space is taken only where a density or trace reads it."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("flow", "--model", "weighted", "--beta-star", "0.5"),
            ("flow", "--model", "ordinary", "--beta-star", "0.5"),
            ("flow", "--model", "q", "--beta-star", "0.5"),
            ("flow", "--model", "legacy"),
            ("simulate", "--model", "fsbm-v", "--paths", "16", "--steps", "8"),
            ("pdf", "--model", "q"),
            ("kernel", "--model", "q"),
            ("kernel", "--model", "weighted"),
            ("kernel", "--model", "legacy"),
            ("validate", "--quick"),
        ],
    )
    def test_refused_where_nothing_reads_it(self, argv, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main([*argv, "--dim", "1", "--alpha", "0.5", "--multiscale-space", "--out", str(out)])
        assert code == EXIT_CONFIG
        # the one read rule's text: "flow --model weighted reads no multiscale_space",
        # "walkers read no …", "validate reads no …"
        assert "no multiscale_space, got multiscale_space = True" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ("pdf", "--model", "weighted", "--x-points", "21"),
            ("pdf", "--model", "legacy", "--x-points", "21"),
            ("pdf", "--model", "ordinary", "--x-points", "21"),
            ("kernel", "--model", "ordinary", "--sigma-points", "5",
             "--sigma-min", "0.1", "--sigma-max", "10"),
        ],
    )
    def test_accepted_where_read(self, argv, tmp_path):
        plain, multiscale = tmp_path / "plain.csv", tmp_path / "multiscale.csv"
        base = [*argv, "--dim", "1", "--alpha", "0.5"]
        assert main([*base, "--out", str(plain)]) == EXIT_OK
        assert main([*base, "--multiscale-space", "--out", str(multiscale)]) == EXIT_OK
        assert multiscale.read_bytes() != plain.read_bytes()

    def _config(self, tmp_path, model_lines):
        path = tmp_path / "run.conf"
        path.write_text("[model]\nmodel = ordinary\ndim = 2\n" + model_lines)
        return str(path)

    def test_refused_with_anisotropic_alphas(self, tmp_path, capsys):
        # the binomial space measure has one charge: anisotropic alphas have none
        config = self._config(tmp_path, "alphas = 0.5,0.7\n")
        out = tmp_path / "x.csv"
        code = main(["pdf", "--config", config, "--multiscale-space", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "needs isotropic charges, got (0.5, 0.7)" in capsys.readouterr().err
        assert not out.exists()

    def test_isotropic_alphas_give_the_charge(self, tmp_path):
        # the charge is read from alphas as well as from alpha
        config = self._config(tmp_path, "alphas = 0.5,0.5\n")
        by_alphas, by_alpha = tmp_path / "alphas.csv", tmp_path / "alpha.csv"
        assert main(["pdf", "--config", config, "--multiscale-space", "--out", str(by_alphas)]) == EXIT_OK
        argv = ["pdf", "--model", "ordinary", "--dim", "2", "--alpha", "0.5", "--multiscale-space"]
        assert main([*argv, "--out", str(by_alpha)]) == EXIT_OK
        assert by_alphas.read_bytes() == by_alpha.read_bytes()

    def test_alpha_flag_beats_the_files_alphas(self, tmp_path):
        # the file's alphas were read in place of the flag's alpha
        config = self._config(tmp_path, "alphas = 0.5,0.5\n")
        by_flag, plain = tmp_path / "flag.csv", tmp_path / "plain.csv"
        assert main(["pdf", "--config", config, "--alpha", "0.3", "--out", str(by_flag)]) == EXIT_OK
        argv = ["pdf", "--model", "ordinary", "--dim", "2", "--alpha", "0.3"]
        assert main([*argv, "--out", str(plain)]) == EXIT_OK
        assert by_flag.read_bytes() == plain.read_bytes()

    def test_file_setting_alpha_and_alphas_refused(self, tmp_path, capsys):
        config = self._config(tmp_path, "alpha = 0.3\nalphas = 0.5,0.5\n")
        out = tmp_path / "x.csv"
        assert main(["pdf", "--config", config, "--out", str(out)]) == EXIT_CONFIG
        assert "line 5: set either 'alpha' or 'alphas', not both" in capsys.readouterr().err
        assert not out.exists()

    def test_charges_not_matching_dim_are_a_config_error(self, tmp_path, capsys):
        config = self._config(tmp_path, "alphas = 0.5,0.7,0.9\n")
        out = tmp_path / "x.csv"
        assert main(["kernel", "--config", config, "--out", str(out)]) == EXIT_CONFIG
        assert "3 fractional charges for dim = 2" in capsys.readouterr().err
        assert not out.exists()


_WALK_GRID = ("--paths", "16", "--steps", "64", "--sigma-min", "1e-3", "--sigma-max", "10")


class TestUnreadParameters:
    """A parameter the model never reads, or a value that every evaluation of
    the model refuses, is a config error, not a silent no-op or a numeric
    error; the edge of each range still runs."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("flow", "--model", "weighted", "--beta-star", "0.5", "--nu", "0.7"),
             "beta_star is read only at nu = 1, got nu = 0.7"),
            (("flow", "--model", "ordinary", "--beta-star", "0.3", "--nu", "0.7"),
             "beta_star is read only at nu = 1, got nu = 0.7"),
            (("pdf", "--model", "weighted", "--beta-star", "0.5", "--nu", "0.7"),
             "beta_star is read only at nu = 1, got nu = 0.7"),
            (("kernel", "--model", "ordinary", "--dim", "1", "--alpha", "0.5", "--beta-star", "1.5",
              "--nu", "0.7"), "beta_star is read only at nu = 1, got nu = 0.7"),
            (("flow", "--model", "legacy", "--alpha", "0.5", "--beta-star", "0.5"),
             "legacy model reads no beta_star"),
            (("kernel", "--model", "legacy", "--alpha", "0.5", "--beta-star", "0.5"),
             "legacy model reads no beta_star"),
            (("pdf", "--model", "legacy", "--alpha", "0.5", "--beta-star", "0.5"),
             "legacy model reads no beta_star"),
            (("flow", "--model", "q", "--beta", "0.5", "--nu", "0.7"), "q model reads no nu"),
            (("simulate", "--model", "fsbm-q", "--alpha", "0.5", "--beta", "0.5", "--nu", "0.7",
              *_WALK_GRID), "q model reads no nu"),
            (("flow", "--model", "q", "--beta", "3"), "q-model charge must lie in (0, 2), got 3.0"),
            (("simulate", "--model", "fsbm-q", "--alpha", "0.5", "--beta", "1.5", *_WALK_GRID),
             "fsbm-q needs beta in (0, 1], got 1.5"),
            (("flow", "--model", "weighted", "--beta", "2.5"), "1 + nu - beta = -0.5 must be positive"),
            (("flow", "--model", "ordinary", "--beta", "2.5"), "1 + nu - beta = -0.5 must be positive"),
            (("pdf", "--model", "weighted", "--beta", "2.5"), "1 + nu - beta = -0.5 must be positive"),
            (("kernel", "--model", "ordinary", "--dim", "1", "--alpha", "0.5", "--beta", "2.5"),
             "1 + nu - beta = -0.5 must be positive"),
            (("flow", "--model", "weighted", "--beta", "1.5", "--nu", "0.5"),
             "1 + nu - beta = 0.0 must be positive"),
            (("kernel", "--model", "ordinary", "--dim", "4", "--alpha", "0.5", "--multiscale-space"),
             "the ordinary-model trace needs dim <= 3, got 4"),
            # s^(beta-1)/Gamma(beta) is a measure only for beta > 0: the flow
            # wrote ell2 < 0, the trace ended in a traceback or exit 3
            (("flow", "--model", "weighted", "--beta", "-0.5"),
             "beta must be positive at fixed dimensionality, got beta = -0.5"),
            (("kernel", "--model", "weighted", "--beta", "-0.5", "--dim", "3"),
             "beta must be positive at fixed dimensionality, got beta = -0.5"),
            (("kernel", "--model", "weighted", "--beta", "-0.5", "--dim", "2"),
             "beta must be positive at fixed dimensionality, got beta = -0.5"),
            # walkers that never read beta_star or nu wrote the bytes of a run without them
            (("simulate", "--model", "bm", "--beta-star", "0.5", *_WALK_GRID),
             "bm reads no beta_star, got beta_star = 0.5"),
            (("simulate", "--model", "sbm", "--beta-star", "0.5", "--nu", "0.5", *_WALK_GRID),
             "sbm reads no beta_star, got beta_star = 0.5"),
            (("simulate", "--model", "fsbm-q", "--alpha", "0.5", "--beta", "0.5", "--beta-star", "0.5",
              *_WALK_GRID), "fsbm-q reads no beta_star, got beta_star = 0.5"),
            (("simulate", "--model", "bm", "--nu", "0.5", *_WALK_GRID),
             "bm reads no nu (its clock is sigma), got nu = 0.5"),
            # no walker starts from a spread: --fuzzy wrote the bytes of a run without it
            (("simulate", "--model", "fsbm-v", "--beta-star", "0.5", "--fuzzy", *_WALK_GRID),
             "walkers read no fuzzy"),
            (("simulate", "--model", "fssbm", "--nu", "0.5", "--beta-star", "0.5", "--fuzzy",
              *_WALK_GRID), "walkers read no fuzzy"),
            # each wrote the bytes of the run without its last flag
            (("simulate", "--model", "bm", "--beta", "0.5", *_WALK_GRID),
             "bm reads no beta, got beta = 0.5"),
            (("simulate", "--model", "bm", "--lstar", "3", *_WALK_GRID),
             "bm reads no lstar, got lstar = 3.0"),
            (("simulate", "--model", "bm", "--alpha", "0.5", *_WALK_GRID),
             "bm reads no alpha, got alpha = 0.5"),
            (("simulate", "--model", "sbm", "--nu", "0.5", "--beta", "0.5", *_WALK_GRID),
             "sbm reads no beta, got beta = 0.5"),
            (("simulate", "--model", "fsbm-v", "--beta", "0.5", "--alpha", "0.3", *_WALK_GRID),
             "fsbm-v reads no alpha, got alpha = 0.3"),
            (("simulate", "--model", "fsbm-v", "--beta-star", "1.5", "--beta", "0.7", *_WALK_GRID),
             "beta_star is read only at beta = 1, got beta = 0.7"),
            (("simulate", "--model", "fsbm-q", "--beta", "0.5", "--lstar", "3", *_WALK_GRID),
             "fsbm-q reads no lstar, got lstar = 3.0"),
            (("flow", "--model", "legacy", "--nu", "0.5"), "the legacy model reads no nu, got nu = 0.5"),
            (("flow", "--model", "legacy", "--beta", "0.5"),
             "the legacy model reads no beta, got beta = 0.5"),
            (("flow", "--model", "weighted", "--beta-star", "0.5", "--beta", "0.7"),
             "beta_star is read only at beta = 1, got beta = 0.7"),
            (("flow", "--model", "q", "--beta-star", "0.5", "--beta", "0.7"),
             "beta_star is read only at beta = 1, got beta = 0.7"),
            # each wrote the bytes of the run without its last flag: the
            # command reads that field for no run of the model
            (("flow", "--model", "weighted", "--dim", "2", "--alpha", "0.5"),
             "flow --model weighted reads no alpha, got alpha = 0.5"),
            (("flow", "--model", "weighted", "--dim", "2", "--beta-star", "0.5", "--alpha", "0.5"),
             "flow --model weighted reads no alpha, got alpha = 0.5"),
            (("flow", "--model", "ordinary", "--dim", "2", "--alpha", "0.5"),
             "flow --model ordinary reads no alpha, got alpha = 0.5"),
            (("flow", "--model", "ordinary", "--dim", "2", "--beta-star", "0.5", "--alpha", "0.5"),
             "flow --model ordinary reads no alpha, got alpha = 0.5"),
            (("flow", "--model", "weighted", "--dim", "2", "--lstar", "3"),
             "flow --model weighted reads no lstar, got lstar = 3.0"),
            (("flow", "--model", "ordinary", "--dim", "2", "--lstar", "3"),
             "flow --model ordinary reads no lstar, got lstar = 3.0"),
            (("flow", "--model", "q", "--dim", "2", "--beta", "0.5", "--lstar", "3"),
             "flow --model q reads no lstar, got lstar = 3.0"),
            (("flow", "--model", "legacy", "--dim", "2", "--lstar", "3"),
             "flow --model legacy reads no lstar, got lstar = 3.0"),
            (("kernel", "--model", "weighted", "--dim", "2", "--alpha", "0.5"),
             "kernel --model weighted reads no alpha, got alpha = 0.5"),
            (("kernel", "--model", "weighted", "--dim", "2", "--beta-star", "0.5", "--alpha", "0.5"),
             "kernel --model weighted reads no alpha, got alpha = 0.5"),
            (("kernel", "--model", "q", "--dim", "2", "--alpha", "0.5"),
             "kernel --model q reads no alpha, got alpha = 0.5"),
            (("kernel", "--model", "q", "--dim", "2", "--beta-star", "0.5", "--alpha", "0.5"),
             "kernel --model q reads no alpha, got alpha = 0.5"),
            (("kernel", "--model", "weighted", "--dim", "2", "--lstar", "3"),
             "kernel --model weighted reads no lstar, got lstar = 3.0"),
            (("kernel", "--model", "q", "--dim", "2", "--lstar", "3"),
             "kernel --model q reads no lstar, got lstar = 3.0"),
            (("kernel", "--model", "legacy", "--dim", "2", "--lstar", "3"),
             "kernel --model legacy reads no lstar, got lstar = 3.0"),
            (("kernel", "--model", "weighted", "--dim", "2", "--box", "400"),
             "kernel --model weighted reads no box, got box = 400.0"),
            (("kernel", "--model", "q", "--dim", "2", "--box", "400"),
             "kernel --model q reads no box, got box = 400.0"),
            (("kernel", "--model", "legacy", "--dim", "2", "--box", "400"),
             "kernel --model legacy reads no box, got box = 400.0"),
            # lstar sets only the default box of a fixed-charge trace: given a
            # box, the run wrote the bytes of the run without lstar
            (("kernel", "--model", "ordinary", "--dim", "1", "--alpha", "0.5", "--box", "1e5",
              "--lstar", "3"),
             "kernel --model ordinary with a box and fixed charges reads no lstar, got lstar = 3.0"),
            # the fixed-charge trace holds 1e-12 from this charge on
            (("kernel", "--model", "ordinary", "--dim", "2", "--alpha", "0.0005"),
             "the ordinary-model trace with fixed charges needs alpha >= 0.001, got alpha = 0.0005"),
        ],
        ids=["weighted-nu", "ordinary-nu", "pdf-nu", "kernel-nu", "legacy-flow", "legacy-kernel",
             "legacy-pdf", "q-nu", "fsbm-q-nu", "q-beta", "fsbm-q-beta", "fixed-dim-flow-weighted",
             "fixed-dim-flow-ordinary", "fixed-dim-pdf", "fixed-dim-kernel", "fixed-dim-nu",
             "multiscale-kernel-dim-4", "negative-beta-flow", "negative-beta-kernel-dim-3",
             "negative-beta-kernel-dim-2", "bm-beta-star", "sbm-beta-star", "fsbm-q-beta-star",
             "bm-nu", "fsbm-v-fuzzy", "fssbm-fuzzy", "bm-beta", "bm-lstar", "bm-alpha", "sbm-beta",
             "fsbm-v-alpha", "fsbm-v-beta-star-beta", "fsbm-q-lstar", "legacy-nu", "legacy-beta",
             "weighted-beta-star-beta", "q-beta-star-beta", "flow-weighted-alpha",
             "flow-weighted-beta-star-alpha", "flow-ordinary-alpha", "flow-ordinary-beta-star-alpha",
             "flow-weighted-lstar", "flow-ordinary-lstar", "flow-q-lstar", "flow-legacy-lstar",
             "kernel-weighted-alpha", "kernel-weighted-beta-star-alpha", "kernel-q-alpha",
             "kernel-q-beta-star-alpha", "kernel-weighted-lstar", "kernel-q-lstar", "kernel-legacy-lstar",
             "kernel-weighted-box", "kernel-q-box", "kernel-legacy-box", "kernel-ordinary-box-lstar",
             "kernel-ordinary-alpha-floor"],
    )
    def test_refused(self, argv, message, tmp_path, capsys):
        code = main([*argv, "--sigma-points", "20", "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("simulate", "--model", "bm", "--paths", "16", "--steps", "64", "--traj-paths", "0"),
             "svg needs traj-paths >= 1"),
            (("validate", "--quick"), "svg is not read by validate"),
        ],
        ids=["simulate-traj-paths-0", "validate"],
    )
    def test_svg_refused_where_no_chart_is_drawn(self, argv, message, tmp_path, capsys):
        # each exited 0 and wrote no chart
        code = main([*argv, "--out", str(tmp_path / "x.csv"), "--svg", str(tmp_path / "x.svg")])
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate", "--model", "fsbm-q", "--alpha", "0.5", "--beta", "1.0", *_WALK_GRID,
             "--traj-paths", "0"),
            ("flow", "--model", "weighted", "--beta", "1.9"),
            ("pdf", "--model", "weighted", "--beta", "1.9"),
            ("kernel", "--model", "ordinary", "--dim", "1", "--alpha", "0.5", "--beta", "1.9",
             "--sigma-min", "0.1", "--sigma-max", "10"),
            # only the multiscale-space trace is a box sum held to D <= 3
            ("kernel", "--model", "ordinary", "--dim", "3", "--alpha", "0.5",
             "--sigma-min", "0.1", "--sigma-max", "10"),
            ("flow", "--model", "ordinary", "--dim", "4"),
            ("kernel", "--model", "ordinary", "--alpha", "0.5"),
        ],
        ids=["fsbm-q-beta-1", "fixed-dim-flow", "fixed-dim-pdf", "fixed-dim-kernel",
             "ordinary-kernel-dim-3", "ordinary-flow-dim-4", "ordinary-kernel-dim-4"],
    )
    def test_range_edges_run(self, argv, tmp_path):
        out = tmp_path / "x.csv"
        assert main([*argv, "--sigma-points", "20", "--out", str(out)]) == EXIT_OK
        assert read_csv(out)

    @pytest.mark.parametrize(
        "argv",
        [
            ("flow", "--steps", "1"),
            ("pdf", "--sigma-points", "1"),
            ("simulate", "--sigma-points", "1", "--paths", "20", "--steps", "64"),
            ("validate", "--quick", "--sigma-min", "5", "--sigma-max", "1"),
        ],
        ids=["flow-steps", "pdf-sigma-points", "simulate-sigma-points", "validate-sigma-range"],
    )
    def test_fields_the_command_never_reads_run(self, argv, tmp_path):
        # each was refused with exit 2 by the rule of a field its command never reads
        assert main([*argv, "--out", str(tmp_path / "x.csv")]) == EXIT_OK

    @pytest.mark.parametrize(
        "argv", [("simulate", "--model", "bm", "--paths", "32"), ("validate",)],
        ids=["simulate", "validate"],
    )
    def test_negative_seed_refused(self, argv, tmp_path, capsys):
        # numpy's seed sequence refused it with a traceback and exit 1;
        # seed 0 runs
        out = tmp_path / "x.csv"
        assert main([*argv, "--seed", "-1", "--out", str(out)]) == EXIT_CONFIG
        assert "seed must be nonnegative, got -1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        assert main([*argv, "--seed", "0", "--out", str(out)]) == EXIT_OK

    def test_simulate_reads_nu_with_beta_star(self, tmp_path):
        # fssbm divides by the binomial weight in the clock sigma^nu
        out = tmp_path / "fssbm.csv"
        argv = ["simulate", "--model", "fssbm", "--beta-star", "1.5", "--nu", "0.75", "--dim", "2",
                *_WALK_GRID, "--traj-paths", "0", "--out", str(out)]
        assert main(argv) == EXIT_OK
        assert read_csv(out)[0]["process"] == "fssbm"

    def test_config_file_takes_the_same_rule(self):
        with pytest.raises(ConfigError, match="beta_star is read only at nu = 1, got nu = 0.7"):
            parse_config("[model]\nmodel = weighted\nbeta-star = 0.5\nnu = 0.7\n")
        cfg = parse_config(
            "[run]\ncommand = simulate\n[model]\nbeta-star = 0.5\nnu = 0.7\n[ensemble]\nprocess = fssbm\n"
        )
        assert (cfg.beta_star, cfg.nu) == (0.5, 0.7)

    @pytest.mark.parametrize(
        "command,model",
        [("flow", "model = weighted\nbeta-star = 0.5"), ("flow", "model = q\nbeta = 0.5"),
         ("simulate", "model = bm")],
        ids=["binomial-flow", "q-flow", "walker"],
    )
    def test_unread_lbar_refused(self, command, model, tmp_path, capsys):
        # only the fixed-dimensionality weighted and ordinary dispersions read
        # lbar; the others exited 0 with it dropped
        cfg_path = tmp_path / "lbar.conf"
        cfg_path.write_text(f"[model]\n{model}\nlbar = 0.5\n")
        out = tmp_path / "x.csv"
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == EXIT_CONFIG
        assert "lbar" in capsys.readouterr().err
        assert not out.exists()


# Each field of a read set, moved to an admissible value off its default:
# a config line, or a flag where the config has no key
_MOVES = {
    "lbar": "lbar = 0.5", "fuzzy": "fuzzy = true", "beta_star": "beta-star = 0.5", "nu": "nu = 0.75",
    "beta": "beta = 0.5", "multiscale_space": "multiscale-space = true", "lstar": "lstar = 3.0",
    "alpha": "alpha = 0.5", "box": "[kernel]\nbox = 400.0",
}
_MODEL_RUNS = (
    ("flow", "--sigma-min", "0.01", "--sigma-max", "100", "--sigma-points", "7"),
    ("pdf", "--x-points", "11"),
    ("kernel", "--sigma-min", "0.1", "--sigma-max", "10", "--sigma-points", "5"),
)
# What each model and process reads, without and with beta_star, and what
# flow, pdf and kernel read of a model besides, written out here and not
# taken from dispersion._MODELS or walker._PROCESSES: a record that leaves
# out a field its evaluators read refuses that field, and fails the byte
# check below, as one that lists a field nothing reads does.
_MODEL_READS = {
    "weighted": (("lbar", "nu", "beta"), ("fuzzy", "beta_star", "lstar")),
    "ordinary": (("lbar", "nu", "beta"), ("beta_star", "lstar")),
    "q": (("beta",), ("beta_star", "lstar")),
    "legacy": ((), ()),
}
_SPACE = ("multiscale_space", "lstar", "alpha")
_COMMAND_READS = {
    "weighted": {"flow": (), "pdf": _SPACE, "kernel": ()},
    "ordinary": {"flow": (), "pdf": _SPACE, "kernel": (*_SPACE, "box")},
    "q": {"flow": ("alpha",), "pdf": ("lstar", "alpha"), "kernel": ()},
    "legacy": {"flow": ("alpha",), "pdf": _SPACE, "kernel": ("alpha",)},
}
_PROCESS_READS = {
    "bm": ((), ()),
    "sbm": (("nu",), ("nu",)),
    "fsbm-v": (("nu", "beta"), ("beta_star", "nu", "lstar")),
    "fssbm": (("nu", "beta"), ("beta_star", "nu", "lstar")),
    "fsbm-q": (("beta", "alpha"), ("beta", "alpha")),
}
# (name, binomial, field): the field moved on a run with beta_star when
# binomial, where the name reads beta_star
_MODEL_CASES = [
    (model, binomial, field)
    for model, reads in _MODEL_READS.items()
    for binomial in (False, True)
    if not binomial or "beta_star" in reads[1]
    for field in _MODEL_FIELDS
    if field != "beta_star" or not binomial
]
# (model, binomial, command, field) over the fields a command row can name;
# box is a field of the kernel section
_COMMAND_CASES = [
    (model, binomial, argv[0], field)
    for model, reads in _MODEL_READS.items()
    for binomial in (False, True)
    if not binomial or "beta_star" in reads[1]
    for argv in _MODEL_RUNS
    for field in ("multiscale_space", "lstar", "alpha", "box")
    if field != "box" or argv[0] == "kernel"
]
_PROCESS_CASES = [
    (process, binomial, field)
    for process, reads in _PROCESS_READS.items()
    for binomial in (False, True)
    if not binomial or "beta_star" in reads[1]
    for field in _DEFAULTS
    if field != "beta_star" or not binomial
]


def _run_moved(tmp_path, name, argv, lines):
    """Exit code, stderr and output bytes of ``argv`` on a config of ``lines``."""
    config = tmp_path / f"{name}.conf"
    config.write_text("[model]\n" + "".join(f"{line}\n" for line in lines))
    out = tmp_path / f"{name}.csv"
    code = main([*argv, "--config", str(config), "--out", str(out)])
    return code, out.read_bytes() if code == EXIT_OK else b""


class TestReadSets:
    """Every field a model or process reads changes the bytes of some
    command, and every other field, moved off its default, is refused by
    name: a record that lists a field nothing reads, or leaves out one its
    evaluators read, fails here."""

    def test_every_model_and_process_is_listed(self):
        assert (tuple(_MODEL_READS), tuple(_PROCESS_READS)) == (MODELS, walker.PROCESSES)
        assert tuple(_COMMAND_READS) == MODELS

    def _check(self, reads, binomial, field, runs, tmp_path, capsys):
        # moving beta_star itself makes the run binomial
        reads = reads[binomial or field == "beta_star"]
        changed = []
        for i, (argv, base) in enumerate(runs):
            code, plain = _run_moved(tmp_path, f"plain{i}", argv, base)
            assert code == EXIT_OK, (argv, base, capsys.readouterr().err)
            code, moved = _run_moved(tmp_path, f"moved{i}", argv, [*base, _MOVES[field]])
            err = capsys.readouterr().err
            if field in reads:
                changed.append(code == EXIT_OK and moved != plain)
            else:
                assert code == EXIT_CONFIG, (argv, base, field)
                assert f"got {field} = " in err or field.replace("_", "-") in err, err
        assert field not in reads or any(changed), (field, runs)

    @pytest.mark.parametrize("model,binomial,field", _MODEL_CASES)
    def test_model_read_set_is_exact(self, model, binomial, field, tmp_path, capsys):
        base = [f"model = {model}", "dim = 1", *(["beta-star = 0.5"] if binomial else [])]
        runs = [(argv, base) for argv in _MODEL_RUNS]
        self._check(_MODEL_READS[model], binomial, field, runs, tmp_path, capsys)

    @pytest.mark.parametrize("model,binomial,command,field", _COMMAND_CASES)
    def test_command_read_set_is_exact(self, model, binomial, command, field, tmp_path, capsys):
        # a command reads the model's dispersion fields and its own row
        reads = tuple(part + _COMMAND_READS[model][command] for part in _MODEL_READS[model])
        base = [f"model = {model}", "dim = 1", *(["beta-star = 0.5"] if binomial else [])]
        if field == "multiscale_space" and "alpha" in reads[binomial]:
            base.append("alpha = 0.5")  # a binomial space of charge 1 is no measure
        runs = [(argv, base) for argv in _MODEL_RUNS if argv[0] == command]
        self._check(reads, binomial, field, runs, tmp_path, capsys)

    @pytest.mark.parametrize(
        "binomial,space", [(False, False), (True, False), (False, True)],
        ids=["fixed", "binomial-time", "multiscale-space"],
    )
    def test_kernel_box_reads_lstar_only_through_the_run(self, binomial, space, tmp_path, capsys):
        # given a box, the ordinary trace reads lstar only through beta_star
        # or a multiscale space: with fixed charges it sets only the default box
        reads = tuple(part + ("multiscale_space", "alpha", "box") for part in _MODEL_READS["ordinary"])
        base = ["model = ordinary", "dim = 1", "alpha = 0.5", *(["beta-star = 0.5"] if binomial else [])]
        if space:
            reads = tuple(part + ("lstar",) for part in reads)
            base.append("multiscale-space = true")
        argv = ("kernel", "--sigma-min", "0.1", "--sigma-max", "10", "--sigma-points", "5", "--box", "400")
        self._check(reads, binomial, "lstar", [(argv, base)], tmp_path, capsys)

    @pytest.mark.parametrize("process,binomial,field", _PROCESS_CASES)
    def test_process_read_set_is_exact(self, process, binomial, field, tmp_path, capsys):
        argv = ("simulate", "--model", process, *_WALK_GRID[:2], "--steps", "32",
                *_WALK_GRID[4:], "--traj-paths", "0")
        base = ["dim = 1", *(["beta-star = 0.5"] if binomial else [])]
        self._check(_PROCESS_READS[process], binomial, field, [(argv, base)], tmp_path, capsys)


class TestFlowCommand:
    def test_q_binomial_flow_endpoints(self, tmp_path):
        out = tmp_path / "q.csv"
        code = main(
            [
                "flow", "--model", "q", "--dim", "4", "--beta-star", "0.5",
                "--sigma-min", "1e-6", "--sigma-max", "1e6",
                "--sigma-points", "200", "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        meta, columns, rows = read_csv(out)
        assert columns == ["sigma", "ell2", "ds", "d_w", "model"]
        assert float(meta["uv_asymptote"]) == 2.0
        assert float(meta["ir_asymptote"]) == 4.0
        assert abs(float(rows[0][2]) - 2.0) <= 0.01
        assert abs(float(rows[-1][2]) - 4.0) <= 0.01

    def test_weighted_fuzzy_uv_vanishes(self, tmp_path):
        out = tmp_path / "fuzzy.csv"
        code = main(
            [
                "flow", "--model", "weighted", "--dim", "4", "--beta-star", "0.5",
                "--fuzzy", "--sigma-min", "1e-6", "--sigma-max", "1e6",
                "--sigma-points", "100", "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        meta, _, rows = read_csv(out)
        assert float(meta["uv_asymptote"]) == 0.0
        assert float(rows[0][2]) < 0.05

    def test_legacy_constant_column(self, tmp_path):
        out = tmp_path / "legacy.csv"
        code = main(
            [
                "flow", "--model", "legacy", "--dim", "4", "--alpha", "0.5",
                "--sigma-min", "0.01", "--sigma-max", "100", "--sigma-points", "20",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        _, _, rows = read_csv(out)
        assert all(float(r[2]) == 2.0 for r in rows)

    def test_svg_emission(self, tmp_path):
        out = tmp_path / "flow.csv"
        svg = tmp_path / "flow.svg"
        code = main(
            [
                "flow", "--model", "q", "--beta-star", "0.5", "--sigma-points", "50",
                "--out", str(out), "--svg", str(svg),
            ]
        )
        assert code == EXIT_OK
        content = svg.read_text()
        assert content.startswith("<svg") and "polyline" in content


class TestSimulateCommand:
    def test_bm_fit_near_one(self, tmp_path):
        out = tmp_path / "bm.csv"
        code = main(
            [
                "simulate", "--model", "bm", "--dim", "1", "--paths", "2000",
                "--steps", "256", "--sigma-min", "1e-3", "--sigma-max", "10",
                "--seed", "99", "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        meta, columns, rows = read_csv(out)
        assert columns == ["sigma", "msd", "stderr"]
        assert abs(float(meta["fit_exponent"]) - 1.0) < 0.05
        traj = tmp_path / "bm.traj.csv"
        _, traj_columns, traj_rows = read_csv(traj)
        assert traj_columns == ["path_id", "step", "sigma", "x_1"]
        assert len(traj_rows) == 10 * 256

    def test_smooth_walker_small_exponent(self, tmp_path):
        out = tmp_path / "smooth.csv"
        code = main(
            [
                "simulate", "--model", "fsbm-v", "--dim", "1", "--beta", "1.5",
                "--paths", "4000", "--steps", "512", "--sigma-min", "1e-3",
                "--sigma-max", "10", "--seed", "7", "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        meta, _, _ = read_csv(out)
        assert abs(float(meta["fit_exponent"]) - 0.5) < 0.05

    def test_heavy_tail_flag(self, tmp_path):
        out = tmp_path / "q.csv"
        code = main(
            [
                "simulate", "--model", "fsbm-q", "--dim", "1", "--alpha", "0.5",
                "--beta", "0.5", "--paths", "1600", "--steps", "256",
                "--sigma-min", "1e-3", "--sigma-max", "10", "--seed", "3",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        meta, _, _ = read_csv(out)
        assert meta["heavy_tailed"] == "true"
        assert abs(float(meta["fit_exponent"]) - 1.0) < 0.2

    def test_subsample(self, tmp_path):
        out = tmp_path / "s.csv"
        main(
            [
                "simulate", "--model", "bm", "--paths", "20", "--steps", "64",
                "--sigma-min", "0.01", "--sigma-max", "1.0", "--seed", "1",
                "--subsample", "8", "--traj-paths", "3", "--out", str(out),
            ]
        )
        _, _, rows = read_csv(tmp_path / "s.traj.csv")
        assert len(rows) == 3 * (64 // 8)

    @pytest.mark.parametrize("log", ["true", "false"], ids=["geometric", "uniform"])
    def test_chart_axis_follows_sigma_log(self, log, tmp_path):
        # a geometric grid is drawn on a log axis and a uniform one on a
        # linear axis: either way the chart's x coordinates are evenly spaced
        svg = tmp_path / "s.svg"
        code = main(
            [
                "simulate", "--model", "bm", "--paths", "20", "--steps", "64",
                "--sigma-min", "1e-3", "--sigma-max", "10", "--sigma-log", log, "--seed", "1",
                "--subsample", "4", "--traj-paths", "3", "--out", str(tmp_path / "s.csv"),
                "--svg", str(svg),
            ]
        )
        assert code == EXIT_OK
        polylines = re.findall(r'<polyline [^>]*points="([^"]*)"', svg.read_text())
        assert len(polylines) == 3
        for points in polylines:
            xs = np.array([float(p.split(",")[0]) for p in points.split()])
            assert xs.size == 64 // 4
            # the coordinates are written to 0.01
            assert np.ptp(np.diff(xs)) <= 0.02 + 1e-9

    def test_single_path_refused(self, tmp_path, capsys):
        # one path has no standard error: refused before any file is written
        out = tmp_path / "one.csv"
        code = main(
            [
                "simulate", "--model", "bm", "--dim", "2", "--paths", "1", "--steps", "64",
                "--sigma-min", "1e-3", "--sigma-max", "10", "--out", str(out),
            ]
        )
        assert code == EXIT_CONFIG
        assert "paths >= 16" in capsys.readouterr().err
        assert not out.exists()

    def test_path_floor_is_the_fit_batch_count(self, tmp_path, capsys):
        # the batch-means fit needs one path per batch: 15 paths are refused
        # before any file is written, 16 run through
        argv = ["simulate", "--model", "bm", "--dim", "2", "--steps", "64",
                "--sigma-min", "1e-3", "--sigma-max", "10"]
        few, enough = tmp_path / "few.csv", tmp_path / "enough.csv"
        assert main([*argv, "--paths", "15", "--out", str(few)]) == EXIT_CONFIG
        assert "paths >= 16" in capsys.readouterr().err
        assert not few.exists() and not (tmp_path / "few.traj.csv").exists()
        assert main([*argv, "--paths", "16", "--out", str(enough)]) == EXIT_OK
        assert enough.exists()

    def test_short_fit_window_refused(self, tmp_path, capsys):
        # the fit takes the last two decades: 8 steps put 4 grid points
        # there, refused before any path is drawn; 64 steps run through
        argv = ["simulate", "--model", "bm", "--dim", "2", "--paths", "16",
                "--sigma-min", "1e-3", "--sigma-max", "10"]
        few, enough = tmp_path / "few.csv", tmp_path / "enough.csv"
        assert main([*argv, "--steps", "8", "--out", str(few)]) == EXIT_CONFIG
        assert "fit window (0.1, 10.0) holds 4 points; need >= 10" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        assert main([*argv, "--steps", "64", "--out", str(enough)]) == EXIT_OK
        assert read_csv(enough)[0]["steps"] == "64"

    def test_anisotropic_fsbm_q_refused(self, tmp_path, capsys):
        # fsbm-q maps every axis with one charge
        config = tmp_path / "run.conf"
        config.write_text("[model]\ndim = 2\nalphas = 0.5,0.8\nbeta = 0.5\n")
        out = tmp_path / "q.csv"
        code = main(["simulate", "--config", str(config), "--model", "fsbm-q", *_WALK_GRID,
                     "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "fsbm-q needs isotropic charges, got (0.5, 0.8)" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "q.traj.csv").exists()

    def test_msd_off_the_double_range_refused(self, tmp_path, capsys):
        # |q|^(1/alpha) at alpha = 0.02 squares past 1.8e308: the msd refuses
        # its infinite standard errors, and neither file is written
        out = tmp_path / "q.csv"
        code = main(
            [
                "simulate", "--model", "fsbm-q", "--dim", "2", "--alpha", "0.02",
                "--beta", "0.29505973263008745", "--kappa", "82.88601364381874",
                "--paths", "24", "--steps", "32", "--seed", "12",
                "--sigma-min", "0.010069428225889155", "--sigma-max", "884.337890653077",
                "--out", str(out),
            ]
        )
        assert code == EXIT_NUMERIC
        assert "fsbm-q msd or its standard error is not finite at sigma = 2.48" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("process", ["sbm", "fsbm-v", "fssbm"])
    def test_nonpositive_nu_names_nu(self, process, tmp_path, capsys):
        # every nu-clocked process refuses nu <= 0 by name, not as a grid
        # fault, and before any path is drawn
        out = tmp_path / "nu.csv"
        code = main(
            [
                "simulate", "--model", process, "--nu", "-0.5", "--dim", "2", "--paths", "16",
                "--steps", "64", "--sigma-min", "1e-3", "--sigma-max", "10", "--out", str(out),
            ]
        )
        assert code == EXIT_CONFIG
        assert "nu must be positive, got -0.5" in capsys.readouterr().err
        assert not out.exists()

    def test_fit_stderr_covers_seed_spread(self, tmp_path):
        # MSD points share their paths, so the error of the fitted exponent
        # must come from path batches; the OLS residual error is ~10x too small
        exponents, errors = [], []
        for seed in range(8):
            out = tmp_path / f"sbm_{seed}.csv"
            code = main(
                [
                    "simulate", "--model", "sbm", "--nu", "0.5", "--dim", "2",
                    "--paths", "2000", "--steps", "256", "--sigma-min", "1e-3",
                    "--sigma-max", "10", "--seed", str(seed), "--traj-paths", "0",
                    "--out", str(out),
                ]
            )
            assert code == EXIT_OK
            meta, _, _ = read_csv(out)
            assert meta["heavy_tailed"] == "false"
            exponents.append(float(meta["fit_exponent"]))
            errors.append(float(meta["fit_stderr"]))
        spread = float(np.std(exponents, ddof=1))
        ratio = float(np.median(errors)) / spread
        assert 1.0 / 3.0 < ratio < 3.0


class TestKernelAndPdfCommands:
    def test_kernel_curve(self, tmp_path):
        out = tmp_path / "k.csv"
        code = main(
            [
                "kernel", "--model", "weighted", "--dim", "2", "--beta", "1.0",
                "--sigma-min", "0.1", "--sigma-max", "10", "--sigma-points", "10",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        meta, columns, rows = read_csv(out)
        assert columns == ["sigma", "Z", "convention"]
        assert rows[0][2] == "per-unit-integer-volume"
        z0, z1 = float(rows[0][1]), float(rows[-1][1])
        assert z0 > z1

    def test_flat_trace_is_accepted(self, tmp_path):
        # with lbar > 0, ell^2 rounds to lbar^2 at small sigma and Z is flat
        # to double precision; a strictly decreasing check refused it (exit 3)
        cfg_path = tmp_path / "flat.conf"
        cfg_path.write_text("[model]\nmodel = weighted\ndim = 2\nbeta = 0.6\nlbar = 0.5\n")
        out = tmp_path / "k.csv"
        code = main(["kernel", "--config", str(cfg_path), "--sigma-min", "1e-14", "--out", str(out)])
        assert code == EXIT_OK
        _, _, rows = read_csv(out)
        z = [float(r[1]) for r in rows]
        assert z[0] == z[1] and all(b <= a for a, b in zip(z, z[1:])) and z[-1] < z[0]

    def test_pdf_slice(self, tmp_path):
        out = tmp_path / "p.csv"
        code = main(
            [
                "pdf", "--model", "q", "--dim", "1", "--alpha", "0.5", "--beta", "0.5",
                "--sigma", "1.0", "--x-max", "3.0", "--x-points", "61",
                "--x0", "0.5", "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        _, columns, rows = read_csv(out)
        assert columns == ["x", "density", "model"]
        assert all(float(r[1]) >= 0.0 for r in rows)

    @pytest.mark.parametrize(
        "charge", [("--dim", "2", "--alpha", "0.6437150360218323"), ("--dim", "1", "--alpha", "0.8")],
        ids=["d2-0.644", "d1-0.8"],
    )
    def test_high_charge_trace_converges(self, charge, tmp_path):
        # both jobs were refused (exit 3) while x = 0 sat inside a Gauss panel
        out = tmp_path / "k.csv"
        code = main(
            [
                "kernel", "--model", "ordinary", *charge, "--sigma-min", "1e-2",
                "--sigma-max", "1e2", "--sigma-points", "19", "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        _, _, rows = read_csv(out)
        z = [float(r[1]) for r in rows]
        assert len(z) == 19 and all(b < a for a, b in zip(z, z[1:]))

    @pytest.mark.parametrize(
        "model", [("weighted",), ("ordinary", "--alpha", "0.5"), ("q", "--beta-star", "0.5"),
                  ("legacy", "--alpha", "0.5")],
        ids=lambda m: m[0],
    )
    @pytest.mark.parametrize("sigma", ["0", "-1"])
    def test_nonpositive_pdf_sigma_is_config_error(self, model, sigma, tmp_path, capsys):
        # each model used to exit 3 with its own message from the numerics
        out = tmp_path / "p.csv"
        assert main(["pdf", "--model", *model, "--sigma", sigma, "--out", str(out)]) == EXIT_CONFIG
        assert f"sigma must be positive, got {float(sigma)}" in capsys.readouterr().err
        assert not out.exists()

    def test_numeric_error_exit_code(self, tmp_path):
        out = tmp_path / "bad.csv"
        code = main(
            [
                "kernel", "--model", "ordinary", "--dim", "1", "--alpha", "0.5",
                "--sigma-min", "1.0", "--sigma-max", "10.0", "--sigma-points", "5",
                "--box", "0.5", "--out", str(out),
            ]
        )
        assert code == EXIT_NUMERIC


class TestValidateCommand:
    def test_default_suite_passes(self, capsys):
        assert main(["validate"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert "kummer-normalization-quadrature" in out

    def test_quick_suite_passes_fast(self, capsys):
        start = time.monotonic()
        code = main(["validate", "--quick"])
        elapsed = time.monotonic() - start
        assert code == EXIT_OK
        assert elapsed < 10.0
        out = capsys.readouterr().out
        assert "all checks passed" in out

    def test_removable_pole_sides_checked_against_quadrature(self, capsys):
        assert main(["validate", "--quick"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        for eps in ("-1e-06", "+1e-06"):
            (line,) = [ln for ln in lines if f"removable-pole-oracle-{eps}:" in ln]
            assert "tol=1.0e-07 PASS" in line

    @pytest.mark.parametrize(
        "flags",
        [("--beta", "0.5"), ("--nu", "0.7"), ("--fuzzy",), ("--alpha", "0.5"),
         ("--beta-star", "0.5"), ("--model", "legacy")],
        ids=["beta", "nu", "fuzzy", "alpha", "beta-star", "model"],
    )
    def test_fields_it_does_not_read_are_refused(self, flags, capsys):
        # each check builds its spec from dim, lstar and kappa alone; each of
        # these runs printed the stdout of the run without the flag
        assert main(["validate", "--quick", *flags]) == EXIT_CONFIG
        field = flags[0][2:].replace("-", "_")
        assert f"validate reads no {field}, got {field} = " in capsys.readouterr().err

    def test_fields_it_reads_run(self, capsys):
        # dim, lstar, kappa and seed, and a model field at its default
        argv = ["validate", "--quick", "--dim", "2", "--lstar", "2", "--kappa", "3", "--seed", "5"]
        assert main([*argv, "--model", "q", "--nu", "1.0"]) == EXIT_OK
        assert "all checks passed" in capsys.readouterr().out

    @pytest.mark.parametrize("flags", [("--lstar", "-1"), ("--kappa", "0")], ids=["lstar", "kappa"])
    def test_scales_it_reads_are_checked(self, flags, capsys):
        assert main(["validate", "--quick", *flags]) == EXIT_CONFIG
        assert "must be positive" in capsys.readouterr().err

    def test_negative_control_fails_named_check(self, capsys):
        code = main(["validate", "--quick", "--inject-kappa-error", "1.0"])
        assert code == EXIT_VALIDATION
        out = capsys.readouterr().out
        assert "dispersion-oracle" in out and "FAIL" in out


class TestDeterministicOutput:
    def test_byte_identical_across_block_sizes(self, tmp_path, monkeypatch):
        # one path per walker block writes the bytes of the default 1 MB block
        blobs = []
        for name, block_bytes in (("default", walker._BLOCK_BYTES), ("one-path", 1)):
            monkeypatch.setattr(walker, "_BLOCK_BYTES", block_bytes)
            out = tmp_path / f"run_{name}.csv"
            code = main(
                [
                    "simulate", "--model", "fsbm-v", "--dim", "1", "--beta", "0.5",
                    "--paths", "400", "--steps", "128", "--sigma-min", "1e-3",
                    "--sigma-max", "10", "--seed", "11", "--out", str(out),
                ]
            )
            assert code == EXIT_OK
            blobs.append(out.read_bytes() + (tmp_path / f"run_{name}.traj.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_identical_config_identical_bytes(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            main(
                [
                    "flow", "--model", "q", "--beta-star", "0.5",
                    "--sigma-points", "50", "--out", str(out),
                ]
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_config_file_run(self, tmp_path):
        cfg_path = tmp_path / "run.conf"
        out = tmp_path / "out.csv"
        cfg_path.write_text(
            "\n".join(
                [
                    "[run]",
                    "command = flow",
                    f"out = {out}",
                    "[model]",
                    "model = q",
                    "dim = 2",
                    "beta-star = 0.5",
                    "[grid]",
                    "sigma-min = 1e-3",
                    "sigma-max = 1e3",
                    "points = 40",
                ]
            )
        )
        assert main(["flow", "--config", str(cfg_path)]) == EXIT_OK
        meta, _, _ = read_csv(out)
        assert meta["dim"] == "2"

    def test_subcommand_sets_the_command(self, tmp_path, capsys):
        # the file is checked under the subcommand: flow never reads paths
        cfg_path = tmp_path / "run.conf"
        cfg_path.write_text("[run]\ncommand = simulate\n[ensemble]\npaths = 8\n")
        out = tmp_path / "f.csv"
        assert main(["flow", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
        assert read_csv(out)[0]["model"] == "q"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == EXIT_CONFIG
        assert "simulate needs paths >= 16" in capsys.readouterr().err

    def test_bad_config_exit_code(self, tmp_path):
        cfg_path = tmp_path / "bad.conf"
        cfg_path.write_text("[model]\nnot_a_key = 1\n")
        assert main(["flow", "--config", str(cfg_path)]) == EXIT_CONFIG

    def test_invalid_model_combination_is_config_error(self, tmp_path):
        # fuzzy without a multiscale profile: rejected before any numerics
        out = tmp_path / "x.csv"
        code = main(["flow", "--model", "weighted", "--fuzzy", "--out", str(out)])
        assert code == EXIT_CONFIG


def loaded_by_cli_import(module: str) -> bool:
    """Whether ``import multiflow.cli`` in a fresh interpreter loads ``module``."""
    src = os.path.dirname(os.path.dirname(multiflow.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = f"import sys, multiflow.cli; print({module!r} in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip() == "True"


def test_cli_import_leaves_scipy_unloaded():
    # scipy costs most of the import time; only the quadrature oracles use it
    assert not loaded_by_cli_import("scipy")


def test_cli_import_leaves_numpy_random_unloaded():
    # only the walkers draw; every other command runs without numpy.random
    assert not loaded_by_cli_import("numpy.random")


def test_cli_import_leaves_numpy_polynomial_unloaded():
    # the panel rule's Gauss-Legendre tables are built on first use, not at
    # import: a command that never sums the binomial integral never loads them
    assert not loaded_by_cli_import("numpy.polynomial")
