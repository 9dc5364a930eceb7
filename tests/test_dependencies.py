"""The package imports nothing at runtime beyond the standard library,
numpy and scipy."""

import ast
import sys
from pathlib import Path

import pytest

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "scipy", "zfolio"}
SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "zfolio").glob("*.py"))


def imported(tree):
    """The top-level package of every import in the module, relative
    imports counting as zfolio."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "zfolio" if node.level else node.module.split(".")[0]


def test_sources_found():
    assert len(SOURCES) > 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_only_numpy_scipy_and_the_standard_library(path):
    outside = set(imported(ast.parse(path.read_text(), str(path)))) - ALLOWED
    assert not outside, f"{path.name} imports {sorted(outside)}"
