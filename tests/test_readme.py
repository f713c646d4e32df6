"""Every `spherelab` command line in the README's sh blocks runs as written,
at the README's sizes, and writes the artifact its --out names; the python
library example runs and gives the values its comments state."""

import ast
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


def test_readme_library_example_runs():
    [block] = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    namespace, values = {}, {}
    # Statement by statement, keeping each bare expression's value by its text.
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            code = compile(ast.Expression(stmt.value), "README.md", "eval")
            values[ast.get_source_segment(block, stmt)] = eval(code, namespace)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert values["compare.model_hardy_report(0.0).mismatches()"] == []
    assert repr(values['compare.model_report(ghz3, mode="table").meta["value"]']).startswith("0.1218")
