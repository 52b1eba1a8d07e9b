"""The README's examples run as written: its library example executes and its
config example parses.  A name the package no longer defines, or a config
line the grammar refuses, fails here rather than in a reader's session."""

import re
from pathlib import Path

from multiflow.config import parse_config

README = Path(__file__).resolve().parents[1] / "README.md"


def fenced_block(lang: str) -> str:
    blocks = re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    assert len(blocks) == 1, f"README holds {len(blocks)} {lang} blocks"
    return blocks[0]


def test_library_example_runs(capsys):
    exec(compile(fenced_block("python"), str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert printed[1] == "6.0 4.0"


def test_config_example_parses():
    cfg = parse_config(fenced_block("ini"))
    assert (cfg.command, cfg.model, cfg.beta_star, cfg.traj_paths) == ("flow", "weighted", 0.5, 10)


def _modules():
    """The package and each of its modules."""
    import importlib
    import pkgutil

    import multiflow

    names = [info.name for info in pkgutil.iter_modules(multiflow.__path__)]
    return [multiflow, *(importlib.import_module(f"multiflow.{name}") for name in names)]


def _resolves(name: str, modules) -> bool:
    for obj in modules:
        try:
            for part in name.split("."):
                obj = getattr(obj, part)
        except AttributeError:
            continue
        return True
    return False


def test_backticked_calls_name_what_the_package_defines():
    # a backticked call `name(` of four or more ASCII characters, dotted or
    # not, resolves in the package or one of its modules: a renamed or
    # deleted function fails here, not in a reader's session
    prose = re.sub(r"^```.*?^```", "", README.read_text(), flags=re.M | re.S)
    calls = {
        match.group(1)
        for span in re.findall(r"`([^`]+)`", prose)
        for match in re.finditer(r"(?<![\w.])([A-Za-z_][A-Za-z0-9_.]*)\(", span)
        if len(match.group(1)) >= 4
    }
    modules = _modules()
    assert len(calls) >= 10, calls
    assert sorted(name for name in calls if not _resolves(name, modules)) == []


def test_read_set_table_is_the_records():
    # one row per model and per process name; each cell lists the record's
    # fields without and with beta_star, then what flow, pdf and kernel read
    # of a model besides (a process runs under simulate only)
    from multiflow.dispersion import _MODELS
    from multiflow.walker import _PROCESSES

    rows = {}
    for line in README.read_text().splitlines():
        match = re.match(r"^\| (model|process) `([^`]+)` \|(.*)\|$", line)
        if match:
            cells = [set(re.findall(r"`([^`]+)`", cell)) for cell in match.group(3).split("|")]
            rows[(match.group(1), match.group(2))] = cells
    commands = ("flow", "pdf", "kernel")
    expected = {
        ("model", name): [*map(set, m.reads), *(set(m.commands.get(c, ())) for c in commands)]
        for name, m in _MODELS.items()
    }
    expected.update({("process", name): [*map(set, p.reads), set(), set(), set()] for name, p in _PROCESSES.items()})
    assert {c for m in _MODELS.values() for c in m.commands} <= set(commands)
    assert rows == expected
