"""The README against the code: every command of its CLI block parses
with the CLI's own parser, its JSON config example loads, and every
Python block runs. No CLI command is run."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from randcol import cli
from randcol.harness import ExperimentConfig

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def block(heading: str, language: str = "") -> str:
    """The first fenced block of the language after the heading."""
    found = re.search(rf"^{re.escape(heading)}\n.*?^```{language}\n(.*?)^```", README, re.M | re.S)
    assert found, f"README has no {language or 'plain'} block under {heading!r}"
    return found.group(1)


COMMANDS = [shlex.split(line, comments=True)[1:] for line in block("## CLI").splitlines()
            if line.startswith("randcol ")]


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(argv) for argv in COMMANDS])
def test_a_readme_command_parses(argv):
    try:
        cli.build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"README command `randcol {' '.join(argv)}` does not parse")


def test_the_readme_shows_every_subcommand():
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if a.dest == "command").choices
    assert sorted({argv[0] for argv in COMMANDS}) == sorted(commands)


def test_the_readme_config_example_loads():
    cfg = ExperimentConfig.from_json(block("## Experiments", "json"))
    assert cfg.kind == "core_emptiness"


PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)


@pytest.mark.parametrize("code", PYTHON_BLOCKS, ids=[f"block-{i}" for i in range(len(PYTHON_BLOCKS))])
def test_a_readme_python_block_runs(code, tmp_path):
    # a fresh interpreter on the source tree, so a name the package no longer has fails here
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_the_readme_has_a_python_block():
    assert PYTHON_BLOCKS
