"""The package imports nothing at runtime beyond the standard library,
numpy and scipy, and README documents each of its numeric constants."""

import ast
import re
import sys
from pathlib import Path

import pytest

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "scipy", "zfolio"}
ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "zfolio").glob("*.py"))
CONSTANTS_SECTION = "## Fixed search and fitting constants"
SENTINELS = {"MISSING", "UNASSIGNED", "TRUE", "FALSE"}  # status and truth codes, not method values


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


def numeric(node) -> bool:
    """Whether an expression is a number literal, an arithmetic expression
    of them, or a tuple of those."""
    if isinstance(node, ast.Constant):
        return type(node.value) in (int, float)
    if isinstance(node, ast.UnaryOp):
        return numeric(node.operand)
    if isinstance(node, ast.BinOp):
        return numeric(node.left) and numeric(node.right)
    if isinstance(node, ast.Tuple):
        return bool(node.elts) and all(map(numeric, node.elts))
    return False


def numeric_constants(tree):
    """The module-level ALL_CAPS names bound to a numeric expression."""
    for node in tree.body:
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            unpacked = isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
            pairs = zip(target.elts, node.value.elts) if unpacked else [(target, node.value)]
            for name, value in pairs:
                if (isinstance(name, ast.Name) and re.fullmatch(r"[A-Z][A-Z0-9_]*", name.id)
                        and numeric(value)):
                    yield name.id


def test_every_numeric_constant_is_documented():
    readme = (ROOT / "README.md").read_text()
    section = readme.split(CONSTANTS_SECTION, 1)[1].split("\n## ", 1)[0]
    found = {name for path in SOURCES
             for name in numeric_constants(ast.parse(path.read_text(), str(path)))}
    assert {"DEFAULT_DELTA", "PRESOLVER_CUTOFFS", "SAPS_WEIGHT_LIMIT"} <= found
    missing = sorted(name for name in found - SENTINELS
                     if not re.search(rf"\b{name}\b", section))
    assert not missing, f"not in README's constants section: {missing}"


def test_each_feature_name_is_written_once():
    written = {}
    for path in SOURCES:
        for name in re.findall(r"\bf\d\d_\w+", path.read_text()):
            written.setdefault(name, []).append(path.name)
    repeated = {name: files for name, files in written.items() if len(files) > 1}
    assert len(written) >= 40 and not repeated, f"written more than once: {repeated}"
