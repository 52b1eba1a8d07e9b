"""Run configuration: a flat key-value text format with section headers.

Grammar (documented in the README):

* lines are ``key = value`` pairs grouped under ``[section]`` headers;
* ``#`` starts a comment (full line), blank lines are ignored;
* every key belongs to a fixed schema; unknown sections or keys are rejected;
* values are integers, floats, booleans (``true``/``false``), strings, or
  comma-separated float lists (for anisotropic charges).

Parsing then serializing then parsing is the identity on :class:`RunConfig`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .dispersion import DiffusionSpec, MODELS
from .errors import ConfigError
from .measure import FractionalCharges, GeometryScales
from .walker import FIT_BATCHES, PROCESSES

__all__ = ["RunConfig", "parse_config", "serialize_config", "build_spec"]

COMMANDS = ("flow", "simulate", "pdf", "kernel", "validate")


@dataclass(frozen=True)
class RunConfig:
    """Everything a CLI run needs; defaults give a sensible q-model flow."""

    command: str = "flow"
    out: str = "multiflow.csv"
    svg: str = ""
    # model section
    model: str = "q"
    dim: int = 4
    alpha: float = 1.0
    alphas: tuple[float, ...] = ()
    beta: float = 1.0
    beta_star: float | None = None  # None: no multiscale profile
    nu: float = 1.0
    lstar: float = 1.0
    kappa: float = 1.0
    lbar: float = 0.0
    fuzzy: bool = False
    multiscale_space: bool = False
    # grid section
    sigma_min: float = 1e-6
    sigma_max: float = 1e6
    points: int = 200
    log: bool = True
    # ensemble section
    process: str = "bm"
    paths: int = 1000
    steps: int = 256
    seed: int = 1234
    subsample: int = 1
    traj_paths: int = 10
    # pdf section
    sigma: float = 1.0
    x_max: float = 5.0
    x_points: int = 201
    x0: float = 1.0
    # kernel section
    box: float | None = None  # None: automatic box half-width

    def validate(self) -> "RunConfig":
        for f in fields(self):
            value = getattr(self, f.name)
            for x in value if isinstance(value, tuple) else (value,):
                if isinstance(x, float) and not math.isfinite(x):
                    raise ConfigError(f"{f.name} must be finite, got {value}")
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}; expected one of {COMMANDS}")
        if self.command == "simulate":
            if self.process not in PROCESSES:
                raise ConfigError(
                    f"unknown process {self.process!r}; expected one of {PROCESSES}"
                )
            if self.paths < FIT_BATCHES:
                raise ConfigError(
                    f"simulate needs paths >= {FIT_BATCHES} for the batch-means fit, got {self.paths}"
                )
        elif self.model not in MODELS:
            raise ConfigError(f"unknown model {self.model!r}; expected one of {MODELS}")
        if self.dim < 1:
            raise ConfigError(f"dim must be >= 1, got {self.dim}")
        if self.points < 2:
            raise ConfigError(f"points must be >= 2, got {self.points}")
        if not 0.0 < self.sigma_min < self.sigma_max:
            raise ConfigError(
                f"need 0 < sigma-min < sigma-max, got {self.sigma_min}, {self.sigma_max}"
            )
        if self.x_points < 2 or self.x_max <= 0.0:
            raise ConfigError(
                f"pdf needs x-points >= 2 and x-max > 0, got {self.x_points}, {self.x_max}"
            )
        if self.sigma <= 0.0:
            raise ConfigError(f"pdf needs sigma > 0, got {self.sigma}")
        if self.box is not None and self.box <= 0.0:
            raise ConfigError(f"kernel box half-width must be > 0, got {self.box}")
        if self.paths < 1 or self.steps < 2:
            raise ConfigError("ensemble needs paths >= 1 and steps >= 2")
        if self.subsample < 1 or self.traj_paths < 0:
            raise ConfigError("subsample must be >= 1 and traj-paths >= 0")
        if self.multiscale_space:
            # the binomial position measure is read by these densities and traces only
            readers = {"pdf": ("weighted", "legacy", "ordinary"), "kernel": ("ordinary",)}
            if self.model not in readers.get(self.command, ()):
                where = f"{self.command} --model {self.model}" if self.command in readers else self.command
                raise ConfigError(
                    "multiscale-space is read only by pdf (weighted, legacy, ordinary) "
                    f"and kernel (ordinary), not by {where}"
                )
            if len(set(self.alphas)) > 1:
                raise ConfigError(f"multiscale-space needs one charge, got alphas = {self.alphas}")
        if self.beta_star is not None and self.nu != 1.0 and self.command != "simulate":
            # the binomial dispersion is defined at nu = 1; fssbm reads both
            raise ConfigError(f"beta-star is read only at nu = 1 outside simulate, got nu = {self.nu}")
        return self


# section -> config key -> (attribute, type tag)
_SCHEMA: dict[str, dict[str, tuple[str, str]]] = {
    "run": {
        "command": ("command", "str"),
        "out": ("out", "str"),
        "svg": ("svg", "str"),
    },
    "model": {
        "model": ("model", "str"),
        "dim": ("dim", "int"),
        "alpha": ("alpha", "float"),
        "alphas": ("alphas", "floats"),
        "beta": ("beta", "float"),
        "beta-star": ("beta_star", "ofloat"),
        "nu": ("nu", "float"),
        "lstar": ("lstar", "float"),
        "kappa": ("kappa", "float"),
        "lbar": ("lbar", "float"),
        "fuzzy": ("fuzzy", "bool"),
        "multiscale-space": ("multiscale_space", "bool"),
    },
    "grid": {
        "sigma-min": ("sigma_min", "float"),
        "sigma-max": ("sigma_max", "float"),
        "points": ("points", "int"),
        "log": ("log", "bool"),
    },
    "ensemble": {
        "process": ("process", "str"),
        "paths": ("paths", "int"),
        "steps": ("steps", "int"),
        "seed": ("seed", "int"),
        "subsample": ("subsample", "int"),
        "traj-paths": ("traj_paths", "int"),
    },
    "pdf": {
        "sigma": ("sigma", "float"),
        "x-max": ("x_max", "float"),
        "x-points": ("x_points", "int"),
        "x0": ("x0", "float"),
    },
    "kernel": {
        "box": ("box", "ofloat"),
    },
}


def _parse_value(raw: str, kind: str, where: str):
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "ofloat":
            return None if raw in ("", "none") else float(raw)
        if kind == "bool":
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if kind == "floats":
            if not raw:
                return ()
            return tuple(float(part) for part in raw.split(","))
        return raw
    except ValueError as exc:
        raise ConfigError(f"{where}: cannot parse {raw!r} as {kind}") from exc


def parse_config(text: str) -> RunConfig:
    """Parse the flat key-value format into a validated :class:`RunConfig`."""
    values: dict[str, object] = {}
    section = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        schema = _SCHEMA[section]
        if key not in schema:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in section [{section}]")
        attr, kind = schema[key]
        if attr in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[attr] = _parse_value(raw, kind, f"line {lineno}, key {key!r}")
    try:
        cfg = RunConfig(**values)
    except TypeError as exc:  # pragma: no cover - schema guards this
        raise ConfigError(str(exc)) from exc
    return cfg.validate()


def _format_value(value, kind: str) -> str:
    if kind == "bool":
        return "true" if value else "false"
    if kind == "floats":
        return ",".join(repr(float(v)) for v in value)
    if kind == "ofloat":
        return "none" if value is None else repr(float(value))
    if kind == "float":
        return repr(float(value))
    return str(value)


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form; parse(serialize(cfg)) == cfg."""
    lines = ["# multiflow config v1"]
    for section, schema in _SCHEMA.items():
        lines.append(f"[{section}]")
        for key, (attr, kind) in schema.items():
            value = getattr(cfg, attr)
            lines.append(f"{key} = {_format_value(value, kind)}")
        lines.append("")
    return "\n".join(lines)


def merge_overrides(cfg: RunConfig, overrides: dict[str, object]) -> RunConfig:
    """Apply non-None attribute overrides (CLI flags beat config values)."""
    known = {f.name for f in fields(RunConfig)}
    clean = {}
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in known:
            raise ConfigError(f"unknown config attribute {key!r}")
        clean[key] = value
    return replace(cfg, **clean).validate()


def build_spec(cfg: RunConfig) -> DiffusionSpec:
    """Assemble the DiffusionSpec a validated config describes.

    Parameter combinations the model layer rejects surface as
    :class:`ConfigError`: they are configuration mistakes, not numeric
    failures.
    """
    from .errors import DomainError

    try:
        return DiffusionSpec(
            model=cfg.model if cfg.command != "simulate" else _process_model(cfg.process),
            dim=cfg.dim,
            scales=GeometryScales(
                lstar=cfg.lstar, lbar=cfg.lbar, kappa=cfg.kappa, nu=cfg.nu, beta=cfg.beta
            ),
            charges=FractionalCharges(cfg.alphas or (cfg.alpha,) * cfg.dim),
            beta_star=cfg.beta_star,
            multiscale_space=cfg.multiscale_space,
            fuzzy=cfg.fuzzy,
        )
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


def _process_model(process: str) -> str:
    return "q" if process == "fsbm-q" else "weighted"
