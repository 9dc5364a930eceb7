"""Command-line interface.

Subcommands cover the whole workflow: feature extraction over a directory
of CNF files, runtime collection for external solvers, dataset splitting,
portfolio training, solving a single instance, evaluation reports, and
synthetic benchmark generation. Randomized commands take --seed; the
ZF_WORKERS environment variable sets parallelism for feature extraction
and runtime collection. --log-level (default WARNING) sets which log
messages go to stderr; at INFO a build writes its summary line.
"""

from __future__ import annotations

import argparse
import csv
import logging
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from pathlib import Path

from . import evaluation, execution, features as features_mod, portfolio as portfolio_mod
from .cnf import DimacsError
from .probes import ProbeBudget
from .runners import ExternalRunner
from .runtimes import (SolverDescriptor, csv_text, load_json, load_runtime_csv, read_csv_table,
                       read_utf8, save_json, save_runtime_csv, solver_descriptors, write_utf8)
from .scoring import PurseConfig, load_purse_config, save_purse_config, singleton_series
from .synthetic import generate_benchmark

# The default budget of `zfolio features`, stored by `zfolio train` for `zfolio
# solve`: wall-clock probe groups, as deterministic ones take ~10x longer.
FEATURE_BUDGET = ProbeBudget(deterministic=False)


def _extract_one(args):
    """Features of one CNF file as (instance id, vector, error message).

    A file that fails to parse or whose extraction raises yields an error
    message instead of a vector, so one bad instance costs only itself.
    """
    path, budget, seed = args
    iid = Path(path).stem
    try:
        return iid, features_mod.extract_file(path, budget, seed), None
    except DimacsError as exc:
        return iid, None, str(exc)
    except Exception:
        return iid, None, "feature extraction failed\n" + traceback.format_exc()


def cmd_features(args) -> int:
    paths = sorted(Path(args.cnf_dir).glob("*.cnf"))
    if not paths:
        print(f"no .cnf files under {args.cnf_dir}", file=sys.stderr)
        return 1
    budget = ProbeBudget(
        per_probe_seconds=args.per_probe_seconds,
        total_seconds=args.total_seconds,
        max_ls_steps=args.max_ls_steps,
        deterministic=args.deterministic,
    )
    jobs = [(str(p), budget, args.seed) for p in paths]
    workers = execution.worker_count()
    table = {}
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_extract_one, jobs))
    else:
        results = [_extract_one(j) for j in jobs]
    for iid, fv, err in results:
        if err is not None:
            print(f"skipping {iid}: {err}", file=sys.stderr)
            continue
        table[iid] = fv
    features_mod.save_feature_csv(args.output, table)
    print(f"wrote features for {len(table)} instances to {args.output}")
    return 0


def load_solvers_config(path) -> list[SolverDescriptor]:
    return load_json(path, solver_descriptors)


def cmd_collect(args) -> int:
    descriptors = load_solvers_config(args.solvers)
    paths = sorted(Path(args.cnf_dir).glob("*.cnf"))
    if not paths:
        print(f"no .cnf files under {args.cnf_dir}", file=sys.stderr)
        return 1
    matrix = execution.collect_runtimes(descriptors, [str(p) for p in paths], args.cutoff)
    save_runtime_csv(args.output, matrix)
    print(f"wrote {len(matrix)} runs to {args.output}")
    return 0


def _read_instance_ids(path) -> list[str]:
    """Each instance id once: from the instance_id column of a CSV table, read
    by read_csv_table without keys (a runs CSV repeats ids), when the first
    nonblank line names that column; else from a UTF-8 list of one id a line,
    blank lines skipped."""
    lines = [line.strip() for line in read_utf8(path).splitlines() if line.strip()]
    if lines and "instance_id" in next(csv.reader(lines[:1])):
        return sorted(set(read_csv_table(path, ("instance_id",), str, key_width=0).values()))
    return sorted(set(lines))


def split_ratios(text) -> tuple[float, float, float]:
    """A --ratios value: three comma-separated numbers."""
    ratios = tuple(map(float, text.split(",")))
    if len(ratios) != 3:
        raise argparse.ArgumentTypeError(f"expected 3 comma-separated numbers, got {text!r}")
    return ratios


def cmd_split(args) -> int:
    ids = _read_instance_ids(args.source)
    train, valid, test = evaluation.split_data(ids, args.ratios, args.seed)
    save_json(args.output, {
        "ratios": list(args.ratios), "seed": args.seed,
        "train": train, "validation": valid, "test": test,
    })
    print(f"split {len(ids)} instances into {len(train)}/{len(valid)}/{len(test)}")
    return 0


def _load_categories_csv(path) -> dict[str, str]:
    """Each instance's category, read by read_csv_table."""
    return read_csv_table(path, ("instance_id", "category"), lambda iid, category: category)


def _load_purse(path, instance_ids):
    """A purse JSON's purse and series map over `instance_ids`, where an
    instance the map omits is a series of its own (singleton_series)."""
    purse, series = load_purse_config(path)
    alone = singleton_series(instance_ids)
    return purse, {i: series.get(i, alone[i]) for i in instance_ids}


def cmd_train(args) -> int:
    features = features_mod.load_feature_csv(args.features)
    matrix = load_runtime_csv(args.runtimes, args.cutoff)
    descriptors = load_solvers_config(args.solvers)

    kept, fraction = evaluation.drop_unsolvable(matrix)
    if fraction < 1.0:
        print(f"dropped {len(matrix.instances) - len(kept)} unsolvable instances "
              f"({100 * fraction:.1f}% retained)")
    matrix = matrix.restrict(instances=kept)

    if args.split:
        kept_ids = set(kept)

        def kept_part(doc, part):  # one part of a `zfolio split` document
            if not isinstance(doc[part], list):
                raise ValueError(f"{part!r} is not a list of instance ids")
            return [i for i in doc[part] if i in kept_ids]
        train, valid = load_json(args.split, lambda doc: [kept_part(doc, "train"),
                                                          kept_part(doc, "validation")])
    else:
        train, valid, _ = evaluation.split_data(kept, args.ratios, args.seed)

    purse, series = _load_purse(args.purse, kept) if args.purse else (None, None)

    category_labels = _load_categories_csv(args.labels) if args.labels else None

    objective = {"runtime": portfolio_mod.OBJECTIVE_RUNTIME,
                 "score": portfolio_mod.OBJECTIVE_SCORE}[args.objective]
    settings = portfolio_mod.BuildSettings(
        objective=objective,
        hierarchy=args.hierarchy,
        cutoff_seconds=args.cutoff,
        cv_folds=args.cv_folds,
        max_raw_terms=args.max_raw_terms,
        max_expanded_terms=args.max_expanded_terms,
        presolver_top=args.presolver_top,
        min_training_rows=args.min_training_rows,
        seed=args.seed,
        feature_budget=FEATURE_BUDGET,
    )
    built = portfolio_mod.build_portfolio(
        train, valid, features, matrix.restrict(instances=[*train, *valid]),
        descriptors, settings, purse, series, category_labels,
    )
    portfolio_mod.save_portfolio(built, args.output)
    print(f"portfolio: presolvers [{built.presolvers.describe()}], "
          f"backup {built.backup_solver}, subset {built.subset}")
    print(f"wrote {args.output}")
    return 0


def cmd_solve(args) -> int:
    built = portfolio_mod.load_portfolio(args.portfolio)
    needed = set(built.subset) | {built.backup_solver}
    needed |= {e.solver_id for e in built.presolvers.active()}
    missing = [sid for sid in needed if not built.descriptors[sid].command]
    if missing:
        print(f"portfolio references solvers without commands: {missing}",
              file=sys.stderr)
        return 1
    runner = ExternalRunner(built.descriptors)
    outcome = portfolio_mod.solve(built, args.instance, runner)
    for step in outcome.trace:
        print(f"c {step}")
    print(f"c chosen: {outcome.chosen_solver}  "
          f"time: {outcome.total_time_seconds:.3f}s")
    if outcome.status == "sat":
        print("s SATISFIABLE")
        return 10
    if outcome.status == "unsat":
        print("s UNSATISFIABLE")
        return 20
    print("s UNKNOWN")
    return 0


def cmd_evaluate(args) -> int:
    if args.portfolio and not args.features:
        print("--portfolio needs --features, the features CSV its models read",
              file=sys.stderr)
        return 1
    matrix = load_runtime_csv(args.runtimes, args.cutoff)
    if args.purse:
        purse, series = _load_purse(args.purse, matrix.instances)
    else:
        purse = PurseConfig(time_limit=args.cutoff)
        series = singleton_series(matrix.instances)

    if args.portfolio:
        # the simulated portfolio's records join the matrix as solver "portfolio"
        if "portfolio" in matrix.solvers:
            print(f"{args.runtimes} already has a solver named 'portfolio', the name "
                  "--portfolio reports the trained portfolio under", file=sys.stderr)
            return 1
        built = portfolio_mod.load_portfolio(args.portfolio)
        features = features_mod.load_feature_csv(args.features)
        sim = portfolio_mod.PortfolioSimulator(
            matrix, features, matrix.instances, built.presolvers,
            built.backup_solver, built.models, built.objective,
            built.cutoff_seconds, purse, series,
        )
        matrix.add(*sim.records(built.subset).values())

    report = evaluation.evaluate(matrix, purse, series)
    text = report.to_csv()
    if args.output:
        write_utf8(args.output, text)
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    return 0


def cmd_synth_bench(args) -> int:
    bench = generate_benchmark(
        num_instances=args.instances, clusters=args.clusters, seed=args.seed,
        unsat_fraction=args.unsat_fraction, cutoff_seconds=args.cutoff,
    )
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    features_mod.save_feature_csv(outdir / "features.csv", bench.features)
    save_runtime_csv(outdir / "runtimes.csv", bench.matrix)
    save_json(outdir / "solvers.json", [asdict(d) for d in bench.descriptors])
    save_purse_config(outdir / "purse.json", bench.purse, bench.series)
    write_utf8(outdir / "labels.csv", csv_text(
        ("instance_id", "satisfiable", "category"),
        ([inst.id, "sat" if inst.satisfiable else "unsat", inst.category]
         for inst in bench.instances)))
    print(f"wrote synthetic benchmark ({args.instances} instances, "
          f"{len(bench.descriptors)} solvers) to {outdir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zfolio",
        description="Per-instance SAT solver portfolios from learned models",
    )
    parser.add_argument("--log-level", default="WARNING",
                        choices=["DEBUG", "INFO", "WARNING", "ERROR"],
                        help="the least severe log messages written to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("features", help="extract instance features from CNF files")
    p.add_argument("cnf_dir")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--per-probe-seconds", type=float, default=FEATURE_BUDGET.per_probe_seconds)
    p.add_argument("--total-seconds", type=float, default=FEATURE_BUDGET.total_seconds)
    p.add_argument("--max-ls-steps", type=int, default=FEATURE_BUDGET.max_ls_steps)
    p.add_argument("--deterministic", action="store_true", default=FEATURE_BUDGET.deterministic,
                   help="end probe groups by step counts, not --per-probe-seconds "
                        "(reproducible; --total-seconds still times out)")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("collect", help="run external solvers over CNF files")
    p.add_argument("solvers", help="JSON solver config")
    p.add_argument("cnf_dir")
    p.add_argument("--cutoff", type=float, default=1200.0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_collect)

    p = sub.add_parser("split", help="split instances into train/validation/test")
    p.add_argument("source", help="features.csv, runtimes.csv or an id list")
    p.add_argument("--ratios", type=split_ratios, default="0.4,0.3,0.3")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_split)

    settings = portfolio_mod.BuildSettings()
    p = sub.add_parser("train", help="build a portfolio")
    p.add_argument("--features", required=True)
    p.add_argument("--runtimes", required=True)
    p.add_argument("--solvers", required=True)
    p.add_argument("--objective", choices=["runtime", "score"], default="runtime")
    p.add_argument("--hierarchy", choices=["none", "sat2", "general6"], default="none")
    p.add_argument("--split", help="split JSON from the split command")
    p.add_argument("--ratios", type=split_ratios, default="0.4,0.3,0.3")
    p.add_argument("--purse", help="purse/series JSON (needed for score)")
    p.add_argument("--labels", help="labels CSV (categories for general6)")
    p.add_argument("--cutoff", type=float, default=settings.cutoff_seconds)
    p.add_argument("--seed", type=int, default=settings.seed)
    p.add_argument("--cv-folds", type=int, default=settings.cv_folds)
    p.add_argument("--max-raw-terms", type=int, default=settings.max_raw_terms)
    p.add_argument("--max-expanded-terms", type=int, default=settings.max_expanded_terms)
    p.add_argument("--presolver-top", type=int, default=settings.presolver_top)
    p.add_argument("--min-training-rows", type=int, default=settings.min_training_rows)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("solve", help="solve one CNF instance with a portfolio")
    p.add_argument("portfolio")
    p.add_argument("instance")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("evaluate", help="evaluation report over recorded runs")
    p.add_argument("--runtimes", required=True)
    p.add_argument("--purse")
    p.add_argument("--portfolio", help="include a trained portfolio as a virtual solver")
    p.add_argument("--features", help="features CSV (needed with --portfolio)")
    p.add_argument("--cutoff", type=float, default=1200.0)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("synth-bench", help="generate a synthetic benchmark")
    p.add_argument("--clusters", type=int, default=3)
    p.add_argument("--instances", type=int, default=600)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--unsat-fraction", type=float, default=0.3)
    p.add_argument("--cutoff", type=float, default=1200.0)
    p.add_argument("-o", "--output-dir", required=True)
    p.set_defaults(func=cmd_synth_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=args.log_level, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
