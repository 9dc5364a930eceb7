"""The package imports nothing at runtime beyond the standard library,
numpy and scipy, opens its files only through runtimes.read_utf8 and
write_utf8, loads scipy only when it fits a model, and README documents
each of its numeric constants."""

import ast
import json
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from zfolio.cli import main
from zfolio.cnf import write_dimacs
from zfolio.hierarchy import HierarchicalModel
from zfolio.portfolio import load_portfolio
from conftest import package_env, random_3cnf, small_train_flags

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


FILE_CALLS = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}
# (module, function) pairs that may open a file: the two UTF-8 helpers, and the
# status parser that reads a solver's own output
FILE_ACCESS_ALLOWED = {("runtimes.py", "read_utf8"), ("runtimes.py", "write_utf8"),
                       ("execution.py", "_parse_status")}


def file_access(node, function=None):
    """(innermost enclosing function, call) for each call under `node` that
    opens, reads or writes a file: open, a Path's read_/write_text and
    read_/write_bytes, json.dump and json.load."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from file_access(child, child.name)
            continue
        if isinstance(child, ast.Call):
            func = child.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            on_json = isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "json"
            if name in FILE_CALLS or (on_json and name in ("dump", "load")):
                yield function, name
        yield from file_access(child, function)


def test_files_are_opened_only_by_the_utf8_helpers():
    found = {(path.name, function, call) for path in SOURCES
             for function, call in file_access(ast.parse(path.read_text(), str(path)))}
    assert {("runtimes.py", "read_utf8", "read_bytes"),
            ("runtimes.py", "write_utf8", "write_text"),
            ("execution.py", "_parse_status", "open")} <= found
    outside = sorted(access for access in found if access[:2] not in FILE_ACCESS_ALLOWED)
    assert not outside, f"file access outside runtimes.read_utf8/write_utf8: {outside}"


@pytest.mark.parametrize("source, expected", [
    ("def f(p):\n    return open(p).read()", [("f", "open")]),
    ("def f(p):\n    p.write_bytes(b'')", [("f", "write_bytes")]),
    ("def f(d, fh):\n    json.dump(d, fh)", [("f", "dump")]),
    ("class C:\n    def f(self, p):\n        return json.load(p.open())",
     [("f", "load"), ("f", "open")]),
    ("x = json.dumps(Path('a').read_text())", [(None, "read_text")]),
], ids=["open", "write_bytes", "json.dump", "method", "module-level"])
def test_the_file_access_scan_finds_each_kind_of_call(source, expected):
    assert list(file_access(ast.parse(source))) == expected


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


# Run in a fresh interpreter by run_fresh: the extraction and the solves
# that `zfolio features` and `zfolio solve` make, in-process (ZF_WORKERS=1).
SOLVE_SCRIPT = """
import sys
import zfolio, zfolio.cli
from zfolio import SimulatedRunner, load_feature_csv, load_portfolio, load_runtime_csv, solve
bench, cnf_dir, out, *portfolios = sys.argv[1:]
assert zfolio.cli.main(["features", cnf_dir, "-o", out, "--deterministic",
                        "--max-ls-steps", "200"]) == 0
features = load_feature_csv(bench + "/features.csv")
predicted = []  # per portfolio, the solves that reached its models' predictions
for path in portfolios:
    built = load_portfolio(path)
    runner = SimulatedRunner(features, load_runtime_csv(bench + "/runtimes.csv",
                                                        built.cutoff_seconds))
    traces = [solve(built, iid, runner).trace for iid in sorted(features)]
    predicted.append(sum(any(step["phase"] == "predict" for step in t) for t in traces))
print(predicted)
"""


def run_fresh(script, *args):
    """Run `script` in a fresh interpreter with ZF_WORKERS=1; return its last
    line of output and the scipy modules it left loaded."""
    probe = ("\nimport json, sys\nprint(json.dumps([m for m in sys.modules"
             " if m.split('.')[0] == 'scipy']))")
    done = subprocess.run([sys.executable, "-c", script + probe, *map(str, args)], cwd=ROOT,
                          env=package_env(ZF_WORKERS="1"), capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    *lines, loaded = done.stdout.strip().splitlines()
    return lines[-1] if lines else "", set(json.loads(loaded))


def train_flags(bench, *flags):
    return [*small_train_flags(bench), "--purse", str(bench / "purse.json"), *flags]


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    bench = tmp_path_factory.mktemp("bench")
    assert main(["synth-bench", "--instances", "120", "--seed", "4", "-o", str(bench)]) == 0
    return bench


def test_features_and_solve_never_load_the_fitting_modules(bench, tmp_path):
    cnf_dir = tmp_path / "cnfs"
    cnf_dir.mkdir()
    (cnf_dir / "small.cnf").write_text(write_dimacs(random_3cnf(30, 120, random.Random(3))))
    portfolios = []
    for name, flags in [("runtime-none", ["--objective", "runtime", "--hierarchy", "none"]),
                        ("score-sat2", ["--objective", "score", "--hierarchy", "sat2"])]:
        portfolios.append(tmp_path / f"{name}.json")
        assert main([*train_flags(bench, *flags), "-o", str(portfolios[-1])]) == 0
    gated = load_portfolio(portfolios[1]).models.values()
    assert any(isinstance(model, HierarchicalModel) for model in gated)
    predicted, loaded = run_fresh(SOLVE_SCRIPT, bench, cnf_dir, tmp_path / "features.csv",
                                  *portfolios)
    assert all(json.loads(predicted))
    assert (tmp_path / "features.csv").read_text().count("\n") == 2
    assert not loaded, f"loaded {sorted(loaded)}"


def test_importing_the_package_leaves_scipy_unloaded():
    assert run_fresh("import zfolio") == ("", set())


def test_a_flat_runtime_build_never_loads_the_optimizer(bench, tmp_path):
    script = "import sys, zfolio.cli\nassert zfolio.cli.main(sys.argv[1:]) == 0"
    _, loaded = run_fresh(script, *train_flags(bench, "--objective", "runtime", "--hierarchy",
                                               "none", "-o", tmp_path / "portfolio.json"))
    assert "scipy.optimize" not in loaded
    assert "scipy.linalg" in loaded  # loaded by the first fit, where it is used
