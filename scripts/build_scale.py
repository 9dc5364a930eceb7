"""Time one portfolio build, phase by phase, as the candidate solvers grow.

Usage (from the root of a source checkout):

    python3 scripts/build_scale.py [--complete 12] [--local 3]
        [--objective min_runtime] [--instances 600] [--seed 0]

The instances, their features and series come from
`generate_benchmark(instances, clusters=k, seed)`, with k the larger of
the two solver counts. The solvers are the script's own: `--complete`
complete and `--local` local-search `SyntheticSolverModel`s, solver j of
each kind fast on cluster j and slow on the others, in the style of
`default_solver_models`; their runs are sampled with `run_synthetic`.
Instances no solver solves are dropped, the rest split by `split_data`,
and one portfolio is built at the acceptance suite's settings (5 folds,
4 raw and 6 expanded terms, seed 0, no hierarchy). Under min_runtime only
the complete solvers are subset candidates; under max_score all are.

One JSON object is printed: the build's seconds, the seconds of each
phase and the (behaviour, subset) rows phase 3 scored, both read from the
build's summary INFO line, the `PortfolioSimulator`s made, the process's
peak resident set (`ru_maxrss`), the picks and the sha256 of the
portfolio document (`json.dumps(portfolio_to_doc(p), sort_keys=True)`),
so two checkouts can be compared for speed and for identical portfolios.
"""

import argparse
import hashlib
import json
import logging
import math
import random
import re
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from zfolio import portfolio  # noqa: E402
from zfolio.evaluation import drop_unsolvable, split_data  # noqa: E402
from zfolio.runtimes import RuntimeMatrix, SolverDescriptor  # noqa: E402
from zfolio.synthetic import SyntheticSolverModel, generate_benchmark, run_synthetic  # noqa: E402

CUTOFF = 1200.0


def solver_models(complete: int, local: int, clusters: int, seed: int):
    """Descriptors and models: per kind, solver j fast on cluster j."""
    rng = random.Random(seed)
    descriptors, models = [], {}
    for kind, count, fast, slow in (("complete", complete, (5.0, 0.5), (4000.0, 1.0)),
                                    ("local_search", local, (1.5, 0.6), (40.0, 0.8))):
        for j in range(count):
            sid = f"{kind.split('_')[0]}-{j:02d}"
            mu, sigma = {}, {}
            for k in range(clusters):
                centre, sigma[k] = fast if k == j else slow
                mu[k] = math.log(centre) + rng.uniform(-0.3, 0.3)
            descriptors.append(SolverDescriptor(sid, kind))
            models[sid] = SyntheticSolverModel(sid, kind, mu, sigma)
    return descriptors, models


class Summary(logging.Handler):
    """Keeps the build's summary line."""

    line = ""

    def emit(self, record):
        if "schedules enumerated" in record.getMessage():
            self.line = record.getMessage()


def main(argv=None) -> dict:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--complete", type=int, default=12)
    ap.add_argument("--local", type=int, default=3)
    ap.add_argument("--objective", default="min_runtime", choices=("min_runtime", "max_score"))
    ap.add_argument("--instances", type=int, default=600)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    clusters = max(args.complete, args.local)
    bench = generate_benchmark(args.instances, clusters=clusters, seed=args.seed,
                               cutoff_seconds=CUTOFF)
    descriptors, models = solver_models(args.complete, args.local, clusters, args.seed + 2)
    matrix = RuntimeMatrix(CUTOFF)
    matrix.add(*(run_synthetic(model, inst, CUTOFF, args.seed)
                 for inst in bench.instances for model in models.values()))
    kept, _ = drop_unsolvable(matrix)
    train, valid, _ = split_data(kept, seed=args.seed)
    matrix = matrix.restrict(instances=[*train, *valid])
    settings = portfolio.BuildSettings(objective=args.objective, cv_folds=5, max_raw_terms=4,
                                       max_expanded_terms=6, seed=0)

    made = []
    init = portfolio.PortfolioSimulator.__init__

    def counted(self, *a, **kw):
        made.append(self)
        init(self, *a, **kw)
    portfolio.PortfolioSimulator.__init__ = counted
    summary = Summary()
    logger = logging.getLogger("zfolio.portfolio")
    logger.addHandler(summary)
    logger.setLevel(logging.INFO)
    start = time.perf_counter()
    built = portfolio.build_portfolio(train, valid, bench.features, matrix, descriptors,
                                      settings, bench.purse, bench.series)
    build_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux

    phases = summary.line.split("seconds by phase:")[1]
    doc = json.dumps(portfolio.portfolio_to_doc(built), sort_keys=True)
    report = {
        "objective": args.objective,
        "complete": args.complete,
        "local": args.local,
        "instances": args.instances,
        "seed": args.seed,
        "build_s": build_s,
        "phase_s": {k: float(v) for k, v in re.findall(r"(\w+) (\d+\.\d+)", phases)},
        "rows_scored": int(re.search(r"(\d+) \(behaviour, subset\) rows scored",
                                     summary.line)[1]),
        "simulators": len(made),
        "peak_rss_mb": peak_rss_mb,
        "presolvers": built.presolvers.describe(),
        "backup": built.backup_solver,
        "subset": built.subset,
        "sha256": hashlib.sha256(doc.encode()).hexdigest(),
    }
    print(json.dumps(report))
    return report


if __name__ == "__main__":
    main()
