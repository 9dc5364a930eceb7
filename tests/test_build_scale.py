"""scripts/build_scale.py builds a portfolio end to end on a small benchmark
and reports its phase times, rows scored, simulators, memory and document
digest."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_reports_one_simulator_and_the_document_digest():
    done = subprocess.run([sys.executable, "scripts/build_scale.py", "--instances", "90",
                           "--complete", "3", "--local", "2", "--objective", "max_score"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    report = json.loads(done.stdout)
    assert (report["objective"], report["complete"], report["local"]) == ("max_score", 3, 2)
    assert list(report["phase_s"]) == ["0", "1", "2a", "2b", "2c", "3"]
    assert report["build_s"] >= sum(report["phase_s"].values()) - 0.01
    assert report["simulators"] == 1 and report["rows_scored"] > 0
    assert report["peak_rss_mb"] > 10  # numpy alone is more
    assert len(report["sha256"]) == 64 and report["subset"]
