"""One short perfbench run of each train workload passes its own checks.

A train round builds its portfolios (train-score: sat2 under max_score;
train-runtime: flat under min_runtime, whose setup counts the distinct
training sets through RuntimeMatrix.get) and checks each one: its
predictions survive save_portfolio/load_portfolio bit for bit, every timed
solve() through SimulatedRunner gives what PortfolioSimulator.simulate says
it must, and its simulated runs join a restrict() copy of the test runs for
evaluate(). The run reports a failure for each check that does not hold, so
a clean one-second run puts all of them into each test pass.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["train-score", "train-runtime"])
def test_train_round_is_correct(workload):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "2",
           "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["failed"] == 0, done.stderr[-2000:]
    assert report["correct"] is True
