"""The README's library examples run as doctests, and its CLI examples run
through cli.main."""

from __future__ import annotations

import doctest
import re
import shlex
from pathlib import Path

import pytest

from polysum.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def readme_cli_examples() -> list[tuple[str, str]]:
    """Each "$ polysum ..." line of the README's text blocks, with the lines
    below it up to the next blank line as its expected stdout."""
    examples = []
    text = README.read_text(encoding="utf-8")
    for block in re.findall(r"^```text\n(.*?)^```", text, re.M | re.S):
        for example in block.split("\n\n"):
            command, *output = example.strip("\n").split("\n")
            if command.startswith("$ polysum "):
                examples.append((command[2:], "".join(line + "\n" for line in output)))
    return examples


CLI_EXAMPLES = readme_cli_examples()


@pytest.mark.parametrize(("command", "stdout"), CLI_EXAMPLES, ids=[c for c, _ in CLI_EXAMPLES])
def test_readme_cli_examples(capsys, command, stdout):
    assert main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out == stdout


def test_readme_has_cli_examples():
    # an empty parametrization would only skip test_readme_cli_examples
    assert CLI_EXAMPLES
