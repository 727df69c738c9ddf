"""Run the doctest examples in the package docstrings and the README."""

import doctest
import os

import pytest

import foldeg.bott
import foldeg.commands
import foldeg.exact
import foldeg.fields
import foldeg.forms
import foldeg.limits
import foldeg.linalg
import foldeg.matrices
import foldeg.pencil
import foldeg.polyfit
import foldeg.verify

MODULES = (
    foldeg.exact,
    foldeg.fields,
    foldeg.forms,
    foldeg.linalg,
    foldeg.limits,
    foldeg.matrices,
    foldeg.bott,
    foldeg.pencil,
    foldeg.polyfit,
    foldeg.commands,
    foldeg.verify,
)

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0
    assert result.attempted > 0


def test_readme_python_api():
    result = doctest.testfile(README, module_relative=False)
    assert result.failed == 0
    assert result.attempted > 0
