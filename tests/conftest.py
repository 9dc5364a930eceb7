import os
import random
from pathlib import Path

import pytest

from zfolio.cnf import CnfFormula

SRC = Path(__file__).resolve().parent.parent / "src"

# collected by the acceptance suite; echoed after the run so the
# per-criterion lines show even under output capture
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def random_3cnf(num_vars: int, num_clauses: int, rng: random.Random) -> CnfFormula:
    """Uniform random 3-CNF with distinct variables per clause."""
    clauses = []
    for _ in range(num_clauses):
        vs = rng.sample(range(1, num_vars + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return CnfFormula(num_vars=num_vars, clauses=clauses)


@pytest.fixture
def rng():
    return random.Random(20240817)


def mixed_cnf(num_vars: int, num_clauses: int, rng: random.Random) -> CnfFormula:
    """Mixed 1/2/3-CNF with unit clauses, duplicate literals and tautologies."""

    def lit(v):
        return v if rng.random() < 0.5 else -v

    clauses = []
    for i in range(num_clauses):
        kind = i % 10
        if kind == 0:
            clauses.append([lit(rng.randrange(1, num_vars + 1))])
        elif kind == 1:
            v, w = rng.sample(range(1, num_vars + 1), 2)
            x = lit(v)
            clauses.append([x, x, lit(w)])
        elif kind == 2:
            v, w = rng.sample(range(1, num_vars + 1), 2)
            clauses.append([v, -v, lit(w)])
        elif kind < 6:
            clauses.append([lit(v) for v in rng.sample(range(1, num_vars + 1), 2)])
        else:
            clauses.append([lit(v) for v in rng.sample(range(1, num_vars + 1), 3)])
    return CnfFormula(num_vars=num_vars, clauses=clauses)


def small_train_flags(bench_dir):
    """`zfolio train` on a synth-bench directory, at small fitting settings."""
    return ["train", "--features", str(bench_dir / "features.csv"),
            "--runtimes", str(bench_dir / "runtimes.csv"),
            "--solvers", str(bench_dir / "solvers.json"),
            "--cv-folds", "3", "--max-raw-terms", "3", "--max-expanded-terms", "4",
            "--presolver-top", "1", "--min-training-rows", "5"]


def package_env(**variables) -> dict:
    """The environment, with these variables set, for a fresh interpreter
    that imports the package from this checkout's src/."""
    env = dict(os.environ, **variables)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env
