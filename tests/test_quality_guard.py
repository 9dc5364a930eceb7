"""The quality guard on speed and simplicity work, as a Tier-1 check.

The 4 acceptance-settings builds on the 600-instance synthetic benchmark
(min_runtime and max_score, each with hierarchy none and sat2) must pick the
golden file's pre-solver schedule, backup solver and subset, and predict
every test-split instance with usable features as the golden file records,
within 1e-9 (relative to the value, absolute below 1).

A change that means to alter a choice or a prediction regenerates the file,
and says why, with

    PYTHONPATH=src python tests/test_quality_guard.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from zfolio.evaluation import drop_unsolvable, split_data
from zfolio.portfolio import BuildSettings, build_portfolio, portfolio_to_doc
from zfolio.synthetic import generate_benchmark

GOLDEN = Path(__file__).resolve().parent / "data" / "bench600_builds_golden.json"
BUILDS = [f"{objective}/{hierarchy}" for objective in ("min_runtime", "max_score")
          for hierarchy in ("none", "sat2")]
TOLERANCE = 1e-9


def bench600():
    """The benchmark and its (train, valid, test) split."""
    bench = generate_benchmark(num_instances=600, seed=0)
    kept, _ = drop_unsolvable(bench.matrix)
    return bench, split_data(kept, seed=0)


def outcome(bench, splits, build: str) -> dict:
    """The choices of one acceptance-settings build and its subset's
    predictions on the test split, as the golden file holds them."""
    objective, hierarchy = build.split("/")
    train, valid, test = splits
    portfolio = build_portfolio(
        train, valid, bench.features, bench.matrix.restrict(instances=[*train, *valid]),
        bench.descriptors,
        BuildSettings(objective=objective, hierarchy=hierarchy, cv_folds=5, max_raw_terms=4,
                      max_expanded_terms=6, seed=0),
        bench.purse, bench.series)
    usable = [iid for iid in test if bench.features[iid].usable]
    predictions = portfolio.stack.predict(np.vstack([bench.features[iid].values
                                                     for iid in usable]))
    return {"presolvers": portfolio_to_doc(portfolio)["presolvers"],
            "backup_solver": portfolio.backup_solver,
            "subset": portfolio.subset,
            "test_ids": usable,
            "predictions": dict(zip(portfolio.subset, predictions.T.tolist()))}


@pytest.fixture(scope="module")
def inputs():
    return bench600()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("build", BUILDS)
def test_build_keeps_its_choices_and_predictions(inputs, golden, build):
    got, want = outcome(*inputs, build), golden[build]
    for key in ("presolvers", "backup_solver", "subset", "test_ids"):
        assert got[key] == want[key], key
    assert list(got["predictions"]) == list(want["predictions"])
    for sid, values in want["predictions"].items():
        expected = np.array(values)
        gap = np.abs(np.array(got["predictions"][sid]) - expected)
        worst = float((gap / np.maximum(1.0, np.abs(expected))).max())
        assert worst <= TOLERANCE, (sid, worst)


if __name__ == "__main__":
    made = bench600()
    GOLDEN.write_text(json.dumps({build: outcome(*made, build) for build in BUILDS},
                                 indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
