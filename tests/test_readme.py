"""Every one-line `afcurves ...` example in README's `sh` blocks runs.

Each command goes through cli.main in-process, from the repository root,
and must exit 0.  Lines holding `$` need a shell (loops, variables) and are
left out.
"""

import re
import shlex
from pathlib import Path

import pytest

from afcurves.cli import build_parser, main

ROOT = Path(__file__).resolve().parent.parent


def readme_commands() -> list:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S):
        for line in block.splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["afcurves"] and "$" not in line:
                commands.append(argv[1:])
    return commands


COMMANDS = readme_commands()


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_readme_example_exits_zero(argv, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert main(argv) == 0, capsys.readouterr().err


def test_readme_shows_every_subcommand():
    (sub,) = [a for a in build_parser()._actions if a.dest == "command"]
    assert {argv[0] for argv in COMMANDS} == set(sub.choices)
