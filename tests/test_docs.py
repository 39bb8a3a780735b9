"""The examples in the docstrings of every invseq module and in README.md
run as doctests, and README.md's shell examples print what it shows."""

import doctest
import importlib
import pathlib
import pkgutil
import re
import shlex

import pytest

import invseq
from invseq import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

# __main__ runs the command line on import
MODULES = ["invseq"] + ["invseq." + info.name
                        for info in pkgutil.iter_modules(invseq.__path__)
                        if info.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


def test_readme_doctests():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def _shell_examples():
    """(command line, the text README.md shows after it) for each line
    of a fenced block that starts with "$ invseq", but a piped one; the
    text runs up to the next "$" line or the end of the block."""
    blocks, block = [], None
    for line in README.read_text().splitlines(keepends=True):
        if not line.startswith("```"):
            if block is not None:
                block.append(line)
        elif block is None:
            block = []
        else:
            blocks.append("".join(block))
            block = None
    examples = []
    for block in blocks:
        for example in re.split(r"^(?=\$ )", block, flags=re.MULTILINE):
            command, _, shown = example.partition("\n")
            if command.startswith("$ invseq ") and "|" not in command:
                examples.append((command[2:], shown))
    return examples


EXAMPLES = _shell_examples()


def test_readme_has_shell_examples():
    assert len(EXAMPLES) == 6


@pytest.mark.parametrize("command, shown", EXAMPLES,
                         ids=[command for command, _ in EXAMPLES])
def test_readme_shell_examples(command, shown, capsys):
    assert cli.main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out == shown
