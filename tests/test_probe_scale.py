"""scripts/probe_scale.py runs end to end on a small formula and reports the
static, DPLL, SAPS and GSAT feature values and its memory peaks."""

import json
import subprocess
import sys
from pathlib import Path

from zfolio.features import FEATURE_NAMES
from zfolio.probes import DPLL_NAMES

ROOT = Path(__file__).resolve().parents[1]


def test_reports_every_layer_and_the_local_search_features():
    done = subprocess.run([sys.executable, "scripts/probe_scale.py", "--vars", "300"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    report = json.loads(done.stdout)
    assert (report["vars"], report["clauses"]) == (300, 1278)
    for layer in ("parse", "static", "index", "saps", "gsat", "dpll"):
        assert report[f"{layer}_s"] > 0
    assert report["saps_steps_per_s"] > 0 and report["gsat_steps_per_s"] > 0
    assert report["peak_rss_mb"] > 10  # numpy alone is more
    assert 0 < report["static_peak_mb"] < report["peak_rss_mb"]
    local_search = {name for name in FEATURE_NAMES if "saps" in name or "gsat" in name}
    assert set(report["features"]) == local_search | set(DPLL_NAMES)
    assert list(report["static_features"]) == list(FEATURE_NAMES[:33])
