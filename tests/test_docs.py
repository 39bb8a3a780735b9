"""The examples in the docstrings of every invseq module and in README.md
run as doctests."""

import doctest
import importlib
import pathlib
import pkgutil

import pytest

import invseq

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
