"""One short perfbench train-score run passes its own checks.

A train-score round builds 10 sat2 portfolios and checks each one: its
predictions survive save_portfolio/load_portfolio bit for bit, and every
timed solve() gives what PortfolioSimulator.simulate says it must. The run
reports a failure for each check that does not hold, so a clean one-second
run puts all of them into each test pass.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_train_score_round_is_correct():
    cmd = [sys.executable, "perfbench/run.py", "--workload", "train-score", "--seed", "2",
           "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["failed"] == 0, done.stderr[-2000:]
    assert report["correct"] is True
