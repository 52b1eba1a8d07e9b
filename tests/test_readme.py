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
