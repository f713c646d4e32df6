"""Every `spherelab` command line in the README's sh blocks runs as written,
at the README's sizes, and writes the artifact its --out names."""

import re
import shlex
from pathlib import Path

import pytest

from spherelab import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_commands() -> list:
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["spherelab"]:
                commands.append(words[1:])
    return commands


COMMANDS = _readme_commands()


def test_the_readme_shows_every_subcommand():
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if a.dest == "command")
    assert {argv[0] for argv in COMMANDS} == set(subparsers.choices)


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
def test_readme_command_runs(argv, tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
    assert cli.main(argv) == 0
    if "--out" in argv:
        assert (tmp_path / argv[argv.index("--out") + 1]).is_file()
