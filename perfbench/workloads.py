"""The benchmark's workloads: input generation, the measured loop, checks.

Each workload is a closed loop with one caller in one process on one
thread: the next call into zfolio starts only after the previous one
returned. Inputs come only from the workload seed.

A run repeats *rounds* until its time is used up (at least one round). A
round is a fixed amount of work made from the seed, so two versions of the
program measured on the same seed do exactly the same work per round:

* train-*: build one portfolio on each of the workload's datasets, check
  it, and call `solve` on its test split through `SimulatedRunner`;
* features-cnf: read and extract features from every file of the CNF
  directory.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import math
import random
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from zfolio import cnf as zf_cnf
from zfolio import features as zf_features
from zfolio import portfolio as zf_portfolio
from zfolio.evaluation import drop_unsolvable, evaluate, split_data
from zfolio.probes import ProbeBudget
from zfolio.runners import SimulatedRunner
from zfolio.synthetic import generate_benchmark

# -- workload definitions ---------------------------------------------------

# Criterion-11 build settings (the acceptance suite's reduced settings).
CV_FOLDS, MAX_RAW_TERMS, MAX_EXPANDED_TERMS = 5, 4, 6

# Synthetic datasets per train round and instances per dataset. A single
# build's time varies by about 30% from one dataset to the next (the number
# of distinct fits follows how the pre-solver schedules split the training
# set), so a round averages many small independent datasets.
TRAIN_DATASETS = {"train-runtime": 16, "train-score": 10}
TRAIN_INSTANCES = 30
# Online solves timed per dataset and round: the test split repeated, so
# that well over ten samples lie beyond p99 in every round.
SOLVES_PER_DATASET = 1000

# features-cnf: (family, clauses per variable)
CNF_FAMILIES = (
    ("under-sat", 3.0),     # planted model, so satisfiable
    ("threshold", 4.26),
    ("over-unsat", 6.0),
    ("mixed-2-3", 2.5),     # 40% binary clauses, 60% ternary
)
CNF_SIZES = (100, 175, 250, 325, 400)
# Deterministic probes stop on step counts only; per_probe_seconds is not
# enforced in this mode. The default max_ls_steps (300 000) would keep GSAT
# on one 200-variable formula busy for over a minute, so the workload sets
# its own step budget.
FEATURE_BUDGET = ProbeBudget(max_ls_steps=2000, deterministic=True)


WORKLOADS = {
    "train-runtime": (
        "censored runtime targets: build time is censored_fit's one-row-at-a-time "
        "imputation; 3 candidates, 7 subsets per schedule; bypasses scoring and hierarchy"
    ),
    "train-score": (
        "uncensored score targets with sat2 hierarchy: select_basis, fit_gating and "
        "63-subset search by virtual_total; bypasses the censored imputation"
    ),
    "features-cnf": (
        "zfolio features on 20 CNFs (SAT, threshold, UNSAT, mixed 2/3; 100-400 vars): cnf, "
        "features, probes; max_ls_steps=2000, as deterministic mode ignores per-probe time"
    ),
}


# The machine this runs on is shared: the same work measured minutes apart
# took up to 40% longer. A fixed interpreter loop, timed between the calls
# being measured, tracks that speed. Times in the end-to-end metrics are
# scaled by REFERENCE_NOMINAL_S / (mean loop time over the round): seconds
# as they would read at a fixed machine speed. The loop is the benchmark's
# own code, so a faster or slower program still shows in full.
REFERENCE_NOMINAL_S = 0.003


def reference_work() -> float:
    """Seconds for a fixed interpreter loop: the machine's speed right now."""
    start = time.perf_counter()
    acc = 0
    for i in range(40_000):
        acc += i * i % 7
    return time.perf_counter() - start


def derived_seed(seed: int, *parts) -> int:
    text = ":".join(str(p) for p in (seed, *parts))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")


TRAIN_SETTINGS = {
    "train-runtime": (zf_portfolio.OBJECTIVE_RUNTIME, "none"),
    "train-score": (zf_portfolio.OBJECTIVE_SCORE, "sat2"),
}


def describe_settings(workload: str) -> dict:
    if workload == "features-cnf":
        return {
            "files": len(CNF_FAMILIES) * len(CNF_SIZES),
            "families": dict(CNF_FAMILIES), "sizes": list(CNF_SIZES),
            "budget": dataclasses.asdict(FEATURE_BUDGET),
        }
    objective, hierarchy = TRAIN_SETTINGS[workload]
    return {
        "objective": objective, "hierarchy": hierarchy, "cv_folds": CV_FOLDS,
        "max_raw_terms": MAX_RAW_TERMS, "max_expanded_terms": MAX_EXPANDED_TERMS,
        "datasets_per_round": TRAIN_DATASETS[workload],
        "instances_per_dataset": TRAIN_INSTANCES, "split": [0.4, 0.3, 0.3],
        "solves_per_dataset": SOLVES_PER_DATASET,
    }


# -- results ---------------------------------------------------------------

@dataclass
class RunLog:
    """What one run measured and checked."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    # one entry per round: wall time of the batch job (mean build_portfolio
    # time, or one pass over the CNF directory), the same per unit of batch
    # work, the online time per unit of online work (both unscaled), and
    # the round's speed scale (see REFERENCE_NOMINAL_S)
    batch_seconds: list[float] = field(default_factory=list)
    batch_unit_seconds: list[float] = field(default_factory=list)
    online_unit_seconds: list[float] = field(default_factory=list)
    speed_scale: list[float] = field(default_factory=list)
    reference_seconds: list[float] = field(default_factory=list)
    # per-call online latencies, one group per dataset (train) or pass (features)
    online_groups: list[list[float]] = field(default_factory=list)
    round_records: list[dict] = field(default_factory=list)    # what each round produced
    quality: dict = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    @property
    def online_seconds(self) -> list[float]:
        return [x for group in self.online_groups for x in group]

    @property
    def online_p50_seconds(self) -> float:
        """Median call latency of each group, averaged over the groups."""
        return statistics.fmean(statistics.median(g) for g in self.online_groups if g)

    def close_round(self, first_reference: int) -> None:
        """Records the speed scale from the reference loops of this round."""
        loops = self.reference_seconds[first_reference:]
        self.speed_scale.append(REFERENCE_NOMINAL_S / statistics.fmean(loops))

    @property
    def deterministic(self) -> bool:
        """Every round produced the same portfolios, predictions and features."""
        return all(r == self.round_records[0] for r in self.round_records)


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


# -- train workloads --------------------------------------------------------

@dataclass
class TrainDataset:
    seed: int
    bench: object
    train: list
    valid: list
    test: list
    matrix: object        # runs on train + valid, what build_portfolio sees
    test_matrix: object   # runs on the test split
    training_sets: int    # units of build work, see count_training_sets


def count_training_sets(bench, train, settings) -> int:
    """Distinct training sets the enumerated pre-solver schedules leave.

    The method fits one model per solver for every schedule, on the
    training instances the schedule's pre-solvers leave unsolved, and skips
    sets smaller than min_training_rows. Schedules leaving the same set
    share a fit, so the number of distinct sets is the build's unit of
    work. It is computed here from the runs alone, with the method's
    pre-solving rule (each active entry runs up to its cutoff, in order,
    within the instance cutoff), so it does not depend on the program
    being measured.
    """
    m = bench.matrix
    cutoffs = zf_portfolio.PRESOLVER_CUTOFFS
    by_kind = {kind: [d.id for d in bench.descriptors if d.kind == kind]
               for kind in ("complete", "local_search")}
    usable = [i for i in train
              if not (bench.features[i].timed_out or bench.features[i].values is None)]
    sets = set()
    for c_id, c_cut, l_id, l_cut in itertools.product(
            by_kind["complete"], cutoffs, by_kind["local_search"], cutoffs):
        for order in (((c_id, c_cut), (l_id, l_cut)), ((l_id, l_cut), (c_id, c_cut))):
            remaining = []
            for iid in usable:
                elapsed = 0.0
                for sid, cut in order:
                    if cut <= 0:
                        continue
                    rec = m.get(sid, iid)
                    if (rec.solved and rec.runtime_seconds <= cut
                            and elapsed + rec.runtime_seconds <= settings.cutoff_seconds):
                        break
                    elapsed += cut
                else:
                    remaining.append(iid)
            if len(remaining) >= settings.min_training_rows:
                sets.add(tuple(remaining))
    return len(sets)


def make_train_inputs(workload: str, seed: int) -> tuple[list[TrainDataset], float]:
    """The round's datasets, and the seconds spent in generate_benchmark."""
    out = []
    generate_s = 0.0
    attempt = 0
    while len(out) < TRAIN_DATASETS[workload]:
        sub = derived_seed(seed, workload, attempt)
        attempt += 1
        start = time.perf_counter()
        bench = generate_benchmark(num_instances=TRAIN_INSTANCES, seed=sub)
        generate_s += time.perf_counter() - start
        kept, _ = drop_unsolvable(bench.matrix)
        train, valid, test = split_data(kept, seed=sub)
        # a sat2 hierarchy needs both classes among the training instances;
        # small samples without them are not valid training sets
        if len({bench.matrix.sat_label(i) for i in train}) < 2:
            continue
        out.append(TrainDataset(
            sub, bench, train, valid, test,
            bench.matrix.restrict(instances=[*train, *valid]),
            bench.matrix.restrict(instances=test),
            count_training_sets(bench, train, _build_settings(workload, sub)),
        ))
    return out, generate_s


def _build_settings(workload: str, seed: int) -> zf_portfolio.BuildSettings:
    objective, hierarchy = TRAIN_SETTINGS[workload]
    return zf_portfolio.BuildSettings(
        objective=objective, hierarchy=hierarchy, cv_folds=CV_FOLDS,
        max_raw_terms=MAX_RAW_TERMS, max_expanded_terms=MAX_EXPANDED_TERMS, seed=seed,
    )


def _check_portfolio(d: TrainDataset, p, workdir: Path, log: RunLog) -> tuple[dict, dict]:
    """Checks one built portfolio and records what it chose.

    Predictions must survive save_portfolio/load_portfolio bit for bit. The
    record holds the choices, a digest of the test-split predictions and
    the test quality as a virtual solver in evaluate(). Also returns, per
    test instance, what PortfolioSimulator.simulate says solve() must give:
    (solved, total time, models consulted).
    """
    b = d.bench
    X = np.vstack([b.features[i].values for i in d.test])
    predictions = [p.models[sid].predict_matrix(X) for sid in p.subset]

    path = workdir / f"portfolio-{d.seed}.json"
    zf_portfolio.save_portfolio(p, path)
    loaded = zf_portfolio.load_portfolio(path)
    path.unlink()
    same = (loaded.subset == p.subset and loaded.backup_solver == p.backup_solver
            and loaded.presolvers == p.presolvers)
    for sid, before in zip(p.subset, predictions):
        after = loaded.models[sid].predict_matrix(X)
        same = same and after.tobytes() == before.tobytes()
    if not same:
        log.fail(f"dataset {d.seed}: predictions changed after save/load")

    sim = zf_portfolio.PortfolioSimulator(
        d.test_matrix, b.features, d.test, p.presolvers, p.backup_solver, p.models,
        p.objective, p.cutoff_seconds, b.purse, b.series,
    )
    solved, total, chosen = sim.simulate(p.subset)
    # online units of a solve: the subset models it consults (none when a
    # pre-solver or the backup solver handles the instance)
    expected = {
        iid: (bool(s), float(t), len(p.subset) if kind == "main" else 0)
        for iid, s, t, (kind, _) in zip(d.test, solved, total, chosen)
    }

    extended = d.test_matrix.restrict()
    for rec in sim.records(p.subset).values():
        extended.add(rec)
    row = evaluate(extended, b.purse, b.series).row("portfolio")
    quality = {"pct_solved": row.pct_solved, "avg_runtime_s": row.avg_runtime,
               "score": row.score.total}
    record = {
        "dataset_seed": d.seed,
        "schedule": p.presolvers.describe(),
        "backup": p.backup_solver,
        "subset": list(p.subset),
        "prediction_digest": _digest(predictions),
        "quality": quality,
    }
    return record, expected


def _solve_matches(outcome, expected) -> bool:
    solved, total, _ = expected
    if outcome.status == "crash_exhausted":
        return False
    if (outcome.status in ("sat", "unsat")) != solved:
        return False
    return math.isclose(outcome.total_time_seconds, total, rel_tol=1e-12, abs_tol=1e-9)


def train_round(workload: str, datasets, tracer, workdir: Path, log: RunLog) -> None:
    build_times = []
    records = []
    units = solve_seconds = solve_units = 0
    first_reference = len(log.reference_seconds)
    for d in datasets:
        log.reference_seconds.append(reference_work())
        settings = _build_settings(workload, d.seed)
        b = d.bench
        log.attempted += 1
        start = time.perf_counter()
        try:
            with tracer.span("portfolio.build_portfolio"):
                p = zf_portfolio.build_portfolio(
                    d.train, d.valid, b.features, d.matrix, b.descriptors, settings,
                    b.purse, b.series,
                )
        except Exception as exc:  # a failed build is counted, not fatal
            log.fail(f"dataset {d.seed}: build raised {exc!r}")
            records.append({"dataset_seed": d.seed, "error": repr(exc)})
            continue
        build_times.append(time.perf_counter() - start)
        units += d.training_sets

        with tracer.pause():
            record, expected = _check_portfolio(d, p, workdir, log)
        records.append(record)

        runner = SimulatedRunner(b.features, d.test_matrix)
        clock = time.perf_counter
        samples = []
        log.online_groups.append(samples)
        for j in range(SOLVES_PER_DATASET):
            if j % 100 == 0:
                log.reference_seconds.append(reference_work())
            iid = d.test[j % len(d.test)]
            log.attempted += 1
            t0 = clock()
            with tracer.span("portfolio.solve"):
                outcome = zf_portfolio.solve(p, iid, runner)
            elapsed = clock() - t0
            samples.append(elapsed)
            if expected[iid][2]:
                solve_seconds += elapsed
                solve_units += expected[iid][2]
            if not _solve_matches(outcome, expected[iid]):
                log.fail(f"dataset {d.seed}: solve({iid}) -> {outcome.status} "
                         f"{outcome.total_time_seconds!r}, simulate says {expected[iid]}")
    if build_times:
        log.batch_seconds.append(statistics.fmean(build_times))
        log.batch_unit_seconds.append(sum(build_times) / units)
        log.online_unit_seconds.append(solve_seconds / solve_units if solve_units else 0.0)
        log.close_round(first_reference)
    log.round_records.append({"datasets": records})
    good = [r["quality"] for r in records if "quality" in r]
    if good:
        log.quality = {k: statistics.fmean(q[k] for q in good) for k in good[0]}


# -- features-cnf -------------------------------------------------------------

def _random_cnf(rng: random.Random, num_vars: int, ratio: float, family: str):
    planted = None
    if family == "under-sat":
        planted = [False] + [rng.random() < 0.5 for _ in range(num_vars)]
    clauses = []
    target = int(round(ratio * num_vars))
    while len(clauses) < target:
        k = 2 if family == "mixed-2-3" and rng.random() < 0.4 else 3
        clause = [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, num_vars + 1), k)]
        if planted is not None and not any((lit > 0) == planted[abs(lit)] for lit in clause):
            continue
        clauses.append(clause)
    return zf_cnf.CnfFormula(num_vars, clauses)


@dataclass
class CnfFile:
    path: Path
    formula: object
    seed: int
    size_bytes: int


def make_cnf_inputs(seed: int, workdir: Path) -> list[CnfFile]:
    directory = workdir / "cnf"
    directory.mkdir(parents=True, exist_ok=True)
    out = []
    for family, ratio in CNF_FAMILIES:
        for num_vars in CNF_SIZES:
            name = f"{family}-{num_vars}"
            formula = _random_cnf(random.Random(derived_seed(seed, name)), num_vars, ratio, family)
            path = directory / f"{name}.cnf"
            text = zf_cnf.write_dimacs(formula)
            path.write_text(text)
            out.append(CnfFile(path, formula, derived_seed(seed, "extract", name), len(text)))
    return out


def features_round(files, tracer, log: RunLog, parse_stats: list) -> None:
    clock = time.perf_counter
    digests = []
    samples = []
    per_kclause = []
    log.online_groups.append(samples)
    first_reference = len(log.reference_seconds)
    for f in files:
        log.reference_seconds.append(reference_work())
        log.attempted += 1
        t0 = clock()
        try:
            with tracer.span("features.file"):
                with tracer.span("cnf.read_dimacs_file"):
                    formula = zf_cnf.read_dimacs_file(f.path)
                parsed = clock()
                with tracer.span("features.extract_all"):
                    fv = zf_features.extract_all(formula, FEATURE_BUDGET, f.seed)
        except Exception as exc:  # a failed extraction is counted, not fatal
            log.fail(f"{f.path.name}: {exc!r}")
            digests.append(f"error:{exc!r}")
            continue
        samples.append(clock() - t0)
        per_kclause.append(samples[-1] / (f.formula.num_clauses / 1000))
        parse_stats.append((parsed - t0, f.size_bytes))
        if formula != f.formula:
            log.fail(f"{f.path.name}: read_dimacs_file did not return the written formula")
        if fv.timed_out or fv.values is None:
            log.fail(f"{f.path.name}: extraction timed out")
            digests.append("timed-out")
            continue
        if fv.values.shape != (48,) or not np.all(np.isfinite(fv.values)):
            log.fail(f"{f.path.name}: feature vector is not 48 finite values")
        digests.append(_digest([fv.values]))
    # the pass is the sum of the per-file calls, without the reference loops
    log.batch_seconds.append(sum(samples))
    # a probe step costs time in proportion to the formula's clauses, so
    # per-1000-clause figures do not depend on which file is the median
    kclauses = sum(f.formula.num_clauses for f in files) / 1000
    log.batch_unit_seconds.append(log.batch_seconds[-1] / kclauses)
    log.online_unit_seconds.append(statistics.median(per_kclause) if per_kclause else 0.0)
    log.reference_seconds.append(reference_work())
    log.close_round(first_reference)
    log.round_records.append({"feature_digest": hashlib.sha256("".join(digests).encode()).hexdigest()})
