"""Run configuration: a flat key-value text format with section headers.

Grammar (documented in the README):

* lines are ``key = value`` pairs grouped under ``[section]`` headers;
* ``#`` starts a comment (full line), blank lines are ignored;
* every key is a :class:`RunConfig` field, its name with ``-`` for ``_``,
  under the section :data:`_SCHEMA` gives it; unknown sections or keys are
  rejected;
* each value is read and written by its field's annotation: integers,
  floats, booleans (``true``/``false``), strings, comma-separated float
  lists (for anisotropic charges) and ``none`` for an unset optional float;
* a file sets the charges by ``alpha`` or by ``alphas``, not both.

Parsing then serializing then parsing is the identity on :class:`RunConfig`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from . import walker
from .dispersion import _DEFAULTS, _MODELS, _ROW_FIELDS, DiffusionSpec, _refuse_unread, check_dispersion
from .errors import ConfigError, DomainError
from .grid import check_grid_args, check_sigma, geometric_grid, uniform_grid
from .kernel import check_trace
from .measure import FractionalCharges, GeometryScales

__all__ = [
    "RunConfig", "read_config", "parse_config", "serialize_config", "merge_overrides", "build_spec",
]

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
        """This config, once its command can run it.  Every field must be
        finite; a field outside the model section is checked only for the
        command that reads it, ``svg`` refused where no chart is drawn.  Then
        one read rule, :func:`dispersion._refuse_unread` on the config's
        values before any spec is built, refuses by name each field the
        command does not read, moved off its default (a float by more than
        1e-12): ``flow``, ``pdf`` and ``kernel`` read the model's dispersion
        read set and its row for the command (:class:`dispersion._Model`),
        ``simulate`` the process record, and ``validate`` dim, lstar, kappa
        and seed.  The rest are the library's own rules: the sigma grid rule
        on the one count the command reads, then the evaluator's check on
        the :func:`build_spec` spec (the dispersion's, the trace's, or the
        walker's and its fit window's; for ``validate`` the seed rule and the
        lstar and kappa rules of :class:`GeometryScales`).  A
        :class:`DomainError` becomes a :class:`ConfigError`.
        """
        for f in fields(self):
            value = getattr(self, f.name)
            for x in value if isinstance(value, tuple) else (value,):
                if isinstance(x, float) and not math.isfinite(x):
                    raise ConfigError(f"{f.name} must be finite, got {value}")
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}; expected one of {COMMANDS}")
        if self.command == "simulate":
            if self.paths < walker.FIT_BATCHES:
                raise ConfigError(
                    f"simulate needs paths >= {walker.FIT_BATCHES} for the batch-means fit, got {self.paths}"
                )
            if self.subsample < 1 or self.traj_paths < 0:
                raise ConfigError("subsample must be >= 1 and traj-paths >= 0")
            if self.svg and self.traj_paths == 0:
                raise ConfigError("svg needs traj-paths >= 1: the simulate chart draws kept paths")
            if self.process not in walker.PROCESSES:
                raise ConfigError(f"unknown process {self.process!r}; expected one of {walker.PROCESSES}")
        elif self.model not in _MODELS:
            raise ConfigError(f"unknown model {self.model!r}; expected one of {tuple(_MODELS)}")
        if self.dim < 1:
            raise ConfigError(f"dim must be >= 1, got {self.dim}")
        if self.command == "pdf" and (self.x_points < 2 or self.x_max <= 0.0):
            raise ConfigError(
                f"pdf needs x-points >= 2 and x-max > 0, got {self.x_points}, {self.x_max}"
            )
        if self.command == "kernel" and self.box is not None and self.box <= 0.0:
            raise ConfigError(f"kernel box half-width must be > 0, got {self.box}")
        # the one read rule, on the config's values: validate's row, the
        # process record, or the model's dispersion reads and command row;
        # the fields it weighs are the model section's, and svg and model
        # for validate, box for kernel
        alphas = self.alphas or (self.alpha,)
        values = vars(self) | {"alpha": alphas[0] if len(set(alphas)) == 1 else alphas}
        extra = {"validate": ("svg", "model"), "kernel": ("box",)}.get(self.command, ())
        if self.command == "validate":
            # each of its checks sets its own model, charges and clock, and it draws no chart
            reads, owner = (("dim", "lstar", "kappa", "seed"),) * 2, "validate"
            words = {"svg": "svg is not read by validate, which draws no chart"}
        elif self.command == "simulate":
            reads, owner = walker._PROCESSES[self.process].reads, self.process
            words = walker._read_words(self.process)
        else:
            model, owner = _MODELS[self.model], f"the {self.model} model"
            reads = tuple(part + model.commands.get(self.command, ()) for part in model.reads)
            words = {f: f"{self.command} --model {self.model} reads no {f}" for f in _ROW_FIELDS}
        # the one sigma grid count the command reads
        count = {"flow": "points", "kernel": "points", "simulate": "steps"}.get(self.command)
        try:
            _refuse_unread(values, reads, owner, words, fields=(*_DEFAULTS, *extra), defaults=_FIELD_DEFAULTS)
            if count is not None:
                check_grid_args(self.sigma_min, self.sigma_max, getattr(self, count), count)
            if self.command == "pdf":
                check_sigma(self.sigma)
            if self.command == "validate":
                walker.check_seed(self.seed)
                GeometryScales(lstar=self.lstar, kappa=self.kappa)  # the scales its checks read
            elif self.command == "simulate":
                walker.check_simulation(self.process, build_spec(self), self.seed)
                walker.fit_window(self.sigma_grid(self.steps))
            elif self.command == "kernel":
                check_trace(build_spec(self))
            else:
                check_dispersion(build_spec(self))
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc
        return self

    def sigma_grid(self, points: int) -> np.ndarray:
        """``points`` sigmas from sigma-min to sigma-max, log-spaced unless ``log`` is off."""
        make = geometric_grid if self.log else uniform_grid
        return make(self.sigma_min, self.sigma_max, points)


# section -> the RunConfig fields it holds
_SCHEMA: dict[str, tuple[str, ...]] = {
    "run": ("command", "out", "svg"),
    "model": (
        "model", "dim", "alpha", "alphas", "beta", "beta_star", "nu", "lstar", "kappa", "lbar",
        "fuzzy", "multiscale_space",
    ),
    "grid": ("sigma_min", "sigma_max", "points", "log"),
    "ensemble": ("process", "paths", "steps", "seed", "subsample", "traj_paths"),
    "pdf": ("sigma", "x_max", "x_points", "x0"),
    "kernel": ("box",),
}
# section -> config key -> field: each key is its field's name with '-' for '_'
_KEYS = {section: {name.replace("_", "-"): name for name in names} for section, names in _SCHEMA.items()}
# field -> its annotation, a string under postponed evaluation
_KINDS = {f.name: f.type for f in fields(RunConfig)}
_FIELD_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}


def _parse_bool(raw: str) -> bool:
    if raw.lower() in ("true", "1", "yes"):
        return True
    if raw.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


# field annotation -> (parse, format) of its config value
_CODECS = {
    "str": (str, str),
    "int": (int, str),
    "float": (float, lambda v: repr(float(v))),
    "bool": (_parse_bool, lambda v: "true" if v else "false"),
    "float | None": (
        lambda raw: None if raw in ("", "none") else float(raw),
        lambda v: "none" if v is None else repr(float(v)),
    ),
    "tuple[float, ...]": (
        lambda raw: tuple(float(part) for part in raw.split(",")) if raw else (),
        lambda v: ",".join(repr(float(x)) for x in v),
    ),
}


def read_config(text: str) -> RunConfig:
    """The :class:`RunConfig` the flat key-value format sets, not yet validated."""
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
        key, raw = key.strip(), raw.strip()
        attr = _KEYS[section].get(key)
        if attr is None:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in section [{section}]")
        if attr in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if {"alpha", "alphas"} <= {attr, *values}:
            raise ConfigError(f"line {lineno}: set either 'alpha' or 'alphas', not both")
        try:
            values[attr] = _CODECS[_KINDS[attr]][0](raw)
        except ValueError as exc:
            raise ConfigError(
                f"line {lineno}, key {key!r}: cannot parse {raw!r} as {_KINDS[attr]}"
            ) from exc
    return RunConfig(**values)


def parse_config(text: str) -> RunConfig:
    """Parse the flat key-value format into a :class:`RunConfig` validated
    against the file's own command."""
    return read_config(text).validate()


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form; parse(serialize(cfg)) == cfg.  Of ``alpha`` and
    ``alphas`` it writes the one that :func:`build_spec` reads: ``alphas``
    when set, so an ``alpha`` beside them comes back at its default."""
    lines = ["# multiflow config v1"]
    for section, keys in _KEYS.items():
        lines.append(f"[{section}]")
        for key, name in keys.items():
            if name == ("alpha" if cfg.alphas else "alphas"):
                continue  # of the two charge keys, only the one build_spec reads
            lines.append(f"{key} = {_CODECS[_KINDS[name]][1](getattr(cfg, name))}")
        lines.append("")
    return "\n".join(lines)


def merge_overrides(cfg: RunConfig, overrides: dict[str, object]) -> RunConfig:
    """Apply non-None attribute overrides (CLI flags beat config values): an
    ``alpha`` override also clears the config's ``alphas``, which would
    otherwise be read in its place."""
    clean = {key: value for key, value in overrides.items() if value is not None}
    unknown = [key for key in clean if key not in _FIELD_DEFAULTS]
    if unknown:
        raise ConfigError(f"unknown config attribute {unknown[0]!r}")
    if "alpha" in clean:
        clean.setdefault("alphas", ())
    return replace(cfg, **clean).validate()


def build_spec(cfg: RunConfig) -> DiffusionSpec:
    """Assemble the DiffusionSpec a validated config describes.

    Parameter combinations the model layer rejects surface as
    :class:`ConfigError`: they are configuration mistakes, not numeric
    failures.
    """
    try:
        return DiffusionSpec(
            model=cfg.model if cfg.command != "simulate" else walker._PROCESSES[cfg.process].model,
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
