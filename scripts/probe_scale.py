"""Time feature extraction, layer by layer, on one large random 3-CNF.

Usage (from the root of a source checkout):

    python3 scripts/probe_scale.py [--vars 20000]

The formula is a uniform random 3-CNF at clause/variable ratio 4.26: each
clause has 3 distinct variables drawn by `random.Random(SEED)`, each with a
random sign. It is written as DIMACS text and parsed back, and the probes
run under one deterministic budget: one 2,000-step run per local-search
probe and 10 DPLL dives. One JSON object is printed with the seconds of
each layer, the budgeted local-search steps per second, the 33 static
feature values and the DPLL, SAPS and GSAT feature values, so two checkouts
can be compared for speed and for identical features. The layers are parse
(which fills and checks the formula's clause arena), static, index (the
formula's occurrence lists, which SAPS, GSAT and DPLL then read), SAPS, GSAT
and DPLL. `peak_rss_mb` is the process's peak resident set after them
(`ru_maxrss`, formula text included). `static_peak_mb` is the tracemalloc
peak of one more `base_features` call, made after the timed layers so that
tracing slows none of them (the formula's cached `literal_clause` is not
rebuilt in it).
"""

import argparse
import json
import random
import resource
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from zfolio.cnf import CnfFormula, parse_dimacs, write_dimacs  # noqa: E402
from zfolio.features import base_features  # noqa: E402
from zfolio.probes import ProbeBudget, dpll_probe, gsat_probe, saps_probe  # noqa: E402

RATIO = 4.26
SEED = 0  # draws the formula and seeds the three probes
BUDGET = ProbeBudget(max_ls_steps=2000, ls_runs=1, dpll_runs=10, total_seconds=3600.0,
                     deterministic=True)


def random_3cnf(num_vars: int) -> CnfFormula:
    rng = random.Random(SEED)
    clauses = []
    for _ in range(round(RATIO * num_vars)):
        clauses.append([v if rng.random() < 0.5 else -v
                        for v in rng.sample(range(1, num_vars + 1), 3)])
    return CnfFormula(num_vars, clauses)


def timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


def main(argv=None) -> dict:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--vars", type=int, default=20_000)
    args = ap.parse_args(argv)

    text = write_dimacs(random_3cnf(args.vars))
    formula, parse_s = timed(parse_dimacs, text)
    static, static_s = timed(base_features, formula)
    _, index_s = timed(lambda: formula.occurrences)
    saps, saps_s = timed(saps_probe, formula, BUDGET, SEED)
    gsat, gsat_s = timed(gsat_probe, formula, BUDGET, SEED)
    dpll, dpll_s = timed(dpll_probe, formula, BUDGET, SEED)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    tracemalloc.start()
    base_features(formula)
    static_peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    steps = BUDGET.ls_runs * (BUDGET.max_ls_steps // BUDGET.ls_runs)
    report = {
        "vars": formula.num_vars,
        "clauses": formula.num_clauses,
        "seed": SEED,
        "file_mb": round(len(text) / 1e6, 3),
        "parse_s": parse_s,
        "static_s": static_s,
        "index_s": index_s,
        "saps_s": saps_s,
        "gsat_s": gsat_s,
        "dpll_s": dpll_s,
        "saps_steps_per_s": steps / saps_s,
        "gsat_steps_per_s": steps / gsat_s,
        "peak_rss_mb": peak_rss_mb,
        "static_peak_mb": static_peak_mb,
        "static_features": static,
        "features": {**dpll, **saps, **gsat},
    }
    print(json.dumps(report))
    return report


if __name__ == "__main__":
    main()
