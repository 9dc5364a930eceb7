"""Portfolio construction and online execution.

Offline: pick pre-solver candidates from validation scores, enumerate every
(two pre-solvers x cutoffs x order) schedule, and for each one train
per-solver models on the training instances the schedule leaves unsolved,
choose a backup solver, and search solver subsets for the best simulated
validation performance. The best schedule wins.

Online: run the pre-solvers, compute features (falling back to the backup
solver on timeout or error), predict each subset member's objective, and
run the predicted best, moving to the next best if a solver crashes.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import logging
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .features import FEATURE_NAMES, FeatureVector
from .hierarchy import (
    HierarchicalModel,
    hier_from_doc,
    hier_to_doc,
    train_classifier,
    train_hierarchical,
)
from .learning import (
    DEFAULT_DELTA,
    LabeledDataset,
    RidgeModel,
    censored_fit,
    fit_ridge_model,
    log_runtime,
    model_from_doc,
    model_to_doc,
    select_basis,
)
from .probes import ProbeBudget
from .runtimes import (
    STATUS_CODES,
    STATUSES,
    DenseRuns,
    RunRecord,
    RuntimeMatrix,
    SolverDescriptor,
)
from .scoring import (
    PurseConfig,
    ScoreContext,
    competition_score,
    score_labels,
    singleton_series,
)

log = logging.getLogger(__name__)

OBJECTIVE_RUNTIME = "min_runtime"
OBJECTIVE_SCORE = "max_score"

PRESOLVER_CUTOFFS = (0.0, 2.0, 5.0, 10.0)
PRESOLVER_CANDIDATE_CAP = 10.0

FORMAT_TAG = "zfolio-portfolio/1"


class TooManySolvers(ValueError):
    pass


class InsufficientData(ValueError):
    pass


@dataclass(frozen=True)
class PresolverEntry:
    solver_id: str
    kind: str
    cutoff_seconds: float

    def __post_init__(self):
        if self.cutoff_seconds not in PRESOLVER_CUTOFFS:
            raise ValueError(f"pre-solver cutoff must be one of {PRESOLVER_CUTOFFS}")
        if self.kind not in ("complete", "local_search"):
            raise ValueError(f"unknown solver kind {self.kind!r}")


@dataclass(frozen=True)
class PresolverSchedule:
    """Up to two pre-solvers, at most one complete and one local search.

    Entries with cutoff 0 are retained (the enumeration counts them) but
    skipped at run time.
    """

    entries: tuple[PresolverEntry, ...] = ()

    def __post_init__(self):
        if len(self.entries) > 2:
            raise ValueError("at most two pre-solvers")
        kinds = [e.kind for e in self.entries]
        for kind in ("complete", "local_search"):
            if kinds.count(kind) > 1:
                raise ValueError(f"at most one {kind} pre-solver")

    def active(self) -> tuple[PresolverEntry, ...]:
        return tuple(e for e in self.entries if e.cutoff_seconds > 0)

    def describe(self) -> str:
        if not self.active():
            return "(none)"
        return "; ".join(f"{e.solver_id}({e.cutoff_seconds:g}s)" for e in self.active())


def select_presolver_candidates(matrix: RuntimeMatrix, descriptors,
                                purse: PurseConfig | None = None,
                                series=None, cap: float = PRESOLVER_CANDIDATE_CAP,
                                top: int = 3):
    """Top pre-solver candidates per kind by validation score at a 10 s cap.

    Every run is truncated at `cap` seconds, scores are computed as if that
    were the competition, and the best `top` solvers of each kind are
    returned (ties broken by solver id).
    """
    purse = purse or PurseConfig()
    series = series or singleton_series(matrix.instances)
    runs = matrix.dense().block()
    within = runs.solved & (runs.runtime <= cap)
    capped = DenseRuns(runs.solvers, runs.instances, np.where(within, runs.runtime, cap),
                       np.where(within, runs.status, STATUS_CODES["timeout"]))
    capped_purse = dataclasses.replace(purse, time_limit=cap)
    totals = competition_score(capped, capped_purse, series)
    kinds = {d.id: d.kind for d in descriptors}
    out = {}
    for kind in ("complete", "local_search"):
        ranked = sorted(
            (sid for sid in matrix.solvers if kinds.get(sid) == kind),
            key=lambda sid: (-totals[sid].total, sid),
        )
        out[kind] = ranked[:top]
    return out["complete"], out["local_search"]


def enumerate_presolver_configs(complete_ids, local_ids) -> list[PresolverSchedule]:
    """All (complete choice x cutoff) x (local choice x cutoff) x 2 orders.

    With three candidates per kind this yields exactly 288 schedules;
    schedules that differ only in the position of a cutoff-0 entry are kept
    as distinct configurations.
    """
    schedules = []
    for c_id in complete_ids:
        for c_cut in PRESOLVER_CUTOFFS:
            for l_id in local_ids:
                for l_cut in PRESOLVER_CUTOFFS:
                    first = PresolverEntry(c_id, "complete", c_cut)
                    second = PresolverEntry(l_id, "local_search", l_cut)
                    schedules.append(PresolverSchedule((first, second)))
                    schedules.append(PresolverSchedule((second, first)))
    return schedules


@dataclass
class PortfolioConfig:
    """Everything the online procedure needs, plus provenance."""

    presolvers: PresolverSchedule
    backup_solver: str
    subset: list[str]
    models: dict[str, RidgeModel | HierarchicalModel]
    objective: str
    descriptors: dict[str, SolverDescriptor]
    cutoff_seconds: float = 1200.0
    feature_budget: ProbeBudget = field(default_factory=ProbeBudget)
    seed: int = 0

    def __post_init__(self):
        if self.objective not in (OBJECTIVE_RUNTIME, OBJECTIVE_SCORE):
            raise ValueError(f"unknown objective {self.objective!r}")
        if not self.subset:
            raise ValueError("subset must be nonempty")
        for sid in self.subset:
            if sid not in self.models:
                raise ValueError(f"subset member {sid!r} has no model")
        if self.backup_solver not in self.descriptors:
            raise ValueError("backup solver must come from the candidate set")
        unknown = sorted(
            {*self.subset, *(e.solver_id for e in self.presolvers.entries)}
            - set(self.descriptors)
        )
        if unknown:
            raise ValueError(f"solvers {unknown} have no descriptor")
        self.subset = sorted(self.subset)


@dataclass
class SolveOutcome:
    status: str  # sat | unsat | timeout | crash_exhausted
    chosen_solver: str
    total_time_seconds: float
    trace: list[dict] = field(default_factory=list)


def simulate_presolving(runs: DenseRuns, schedule: PresolverSchedule, cutoff: float):
    """Replays the schedule's active pre-solvers on every instance of `runs`.

    Entries run in order, each up to its own cutoff and within the instance
    cutoff. Returns per instance: whether a pre-solver solved it, the time
    it finished, that pre-solver's id (None if unsolved) and the time spent
    on instances left unsolved.
    """
    n = len(runs.instances)
    solved = np.zeros(n, dtype=bool)
    finish = np.zeros(n)
    solver = np.full(n, None, dtype=object)
    elapsed = np.zeros(n)
    for entry in schedule.active():
        row = runs.solver_index[entry.solver_id]
        rt = runs.runtime[row]
        end = elapsed + rt
        win = ~solved & runs.solved[row] & (rt <= entry.cutoff_seconds) & (end <= cutoff)
        finish[win] = end[win]
        solver[win] = entry.solver_id
        solved |= win
        elapsed[~solved] += entry.cutoff_seconds
    return solved, finish, solver, elapsed


class PortfolioSimulator:
    """Replays the online procedure against recorded runs.

    Charges pre-solver cutoffs, recorded feature time and the selected
    solver's recorded runtime against the instance cutoff; crashes cascade
    to the next-best prediction. Used for subset search, schedule ranking
    and test-set evaluation.
    """

    def __init__(self, matrix: RuntimeMatrix, features: dict[str, FeatureVector],
                 instance_ids, schedule: PresolverSchedule, backup: str,
                 models: dict, objective: str, cutoff: float,
                 purse: PurseConfig | None = None, series=None):
        self.ids = list(instance_ids)
        self.objective = objective
        self.cutoff = cutoff
        self.backup = backup
        self.schedule = schedule
        n = len(self.ids)
        self.runs = matrix.dense().block(instance_ids=self.ids)
        self.crashed = self.runs.status == STATUS_CODES["crash"]

        self.feature_ok = np.zeros(n, dtype=bool)
        self.feature_time = np.zeros(n)
        missing = np.full(len(FEATURE_NAMES), np.nan)
        rows = []
        for j, iid in enumerate(self.ids):
            fv = features.get(iid)
            if fv is None:
                rows.append(missing)
                continue
            self.feature_time[j] = fv.feature_time_seconds
            if fv.values is not None and not fv.timed_out:
                self.feature_ok[j] = True
                rows.append(fv.values)
            else:
                rows.append(missing)
        self.X = np.vstack(rows) if rows else np.zeros((0, len(FEATURE_NAMES)))

        (self.pre_solved, self.pre_time, self.pre_solver,
         self.pre_elapsed) = simulate_presolving(self.runs, schedule, cutoff)

        self.predictions = {}
        ok = self.feature_ok
        for sid, model in models.items():
            col = np.full(n, np.nan)
            if ok.any():
                col[ok] = model.predict_matrix(self.X[ok])
            self.predictions[sid] = col

        self.score_ctx = None
        if objective == OBJECTIVE_SCORE:
            if purse is None:
                raise ValueError("score objective needs a purse configuration")
            series = series or singleton_series(self.ids)
            self.score_ctx = ScoreContext(self.runs, purse, series)

    def simulate(self, subset):
        """Returns (solved mask, total time, chosen (kind, solver) pairs)."""
        subset = sorted(subset)
        n = len(self.ids)
        solved = self.pre_solved.copy()
        total = np.where(solved, self.pre_time, self.cutoff)
        chosen_kind = np.where(self.pre_solved, "presolver", "").astype(object)
        chosen_sid = self.pre_solver.copy()
        remaining = ~solved
        elapsed = self.pre_elapsed + self.feature_time

        runs = self.runs
        backup_rows = remaining & ~self.feature_ok
        if backup_rows.any():
            rt = runs.runtime[runs.solver_index[self.backup]]
            ok = runs.solved[runs.solver_index[self.backup]]
            win = backup_rows & ok & (elapsed + rt <= self.cutoff)
            total[win] = (elapsed + rt)[win]
            solved |= win
            chosen_kind[backup_rows] = "backup"
            chosen_sid[backup_rows] = self.backup

        model_rows = remaining & self.feature_ok
        if subset and model_rows.any():
            pred = np.column_stack([self.predictions[sid] for sid in subset])
            key = pred if self.objective == OBJECTIVE_RUNTIME else -pred
            order = np.argsort(key, axis=1, kind="stable")
            active = model_rows.copy()
            el = elapsed.copy()
            members = [runs.solver_index[sid] for sid in subset]
            rt_cols = runs.runtime[members].T
            ok_cols = runs.solved[members].T
            crash_cols = self.crashed[members].T
            idx = np.arange(n)
            sid_arr = np.array(subset, dtype=object)
            for rank in range(len(subset)):
                if not active.any():
                    break
                sel = order[:, rank]
                rt = rt_cols[idx, sel]
                ok = ok_cols[idx, sel]
                crash = crash_cols[idx, sel]
                fits = el + rt <= self.cutoff
                win = active & ok & fits
                total[win] = (el + rt)[win]
                solved |= win
                chosen_kind[active] = "main"
                chosen_sid[active] = sid_arr[sel[active]]
                # a crash within the remaining time moves on to the next best
                step = active & ~ok & crash & fits
                el[step] += rt[step]
                active = step
        chosen = list(zip(chosen_kind, chosen_sid))
        return solved, total, chosen

    def performance(self, subset) -> float:
        """Scalar validation performance; higher is better."""
        solved, total, _ = self.simulate(subset)
        if self.objective == OBJECTIVE_RUNTIME:
            return -float(total.mean())
        solved_map = {iid: bool(s) for iid, s in zip(self.ids, solved)}
        time_map = {iid: float(t) for iid, t in zip(self.ids, total)}
        return self.score_ctx.virtual_total(solved_map, time_map).total

    def records(self, subset, solver_id: str = "portfolio"):
        """Virtual-solver run records for the simulated portfolio."""
        solved, total, chosen = self.simulate(subset)
        out = {}
        for j, iid in enumerate(self.ids):
            if solved[j]:
                _, sid = chosen[j]
                status = STATUSES[self.runs.status[self.runs.solver_index[sid], j]]
                out[iid] = RunRecord(solver_id, iid, float(total[j]), status)
            else:
                out[iid] = RunRecord(solver_id, iid, self.cutoff, "timeout")
        return out


def _iter_subsets(solver_ids):
    solver_ids = sorted(solver_ids)
    for size in range(1, len(solver_ids) + 1):
        yield from itertools.combinations(solver_ids, size)


def subset_search_exhaustive(solver_ids, simulator: PortfolioSimulator,
                             max_solvers: int = 12):
    """Best subset by simulated validation performance, trying all of them.

    Ties go to smaller subsets, then lexicographically smaller ones.
    """
    solver_ids = sorted(solver_ids)
    if len(solver_ids) > max_solvers:
        raise TooManySolvers(f"{len(solver_ids)} solvers exceed the exhaustive guard")
    if not solver_ids:
        raise ValueError("need at least one solver")
    best_subset, best_perf = None, -math.inf
    for subset in _iter_subsets(solver_ids):
        perf = simulator.performance(subset)
        if perf > best_perf:
            best_subset, best_perf = list(subset), perf
    return best_subset, best_perf


def subset_search_local(solver_ids, simulator: PortfolioSimulator, seed: int = 0,
                        accept_prob: float = 0.05, stall_steps: int = 100,
                        runs: int = 10):
    """Randomized iterative improvement over solver subsets.

    From a random nonempty subset, each step proposes a uniformly random
    single add/drop neighbour (never the empty set) and accepts it on
    improvement, or anyway with 5% probability. A run restarts after 100
    steps without an improving step; after 10 runs the best subset ever
    seen is returned.
    """
    import random as _random

    solver_ids = sorted(solver_ids)
    if not solver_ids:
        raise ValueError("need at least one solver")
    if len(solver_ids) == 1:
        return list(solver_ids), simulator.performance(solver_ids)
    rng = _random.Random(seed)
    cache: dict[frozenset, float] = {}

    def perf(subset: frozenset) -> float:
        if subset not in cache:
            cache[subset] = simulator.performance(sorted(subset))
        return cache[subset]

    def random_subset() -> frozenset:
        while True:
            s = frozenset(sid for sid in solver_ids if rng.random() < 0.5)
            if s:
                return s

    best_subset, best_perf = None, -math.inf
    for _ in range(runs):
        current = random_subset()
        current_perf = perf(current)
        if current_perf > best_perf:
            best_subset, best_perf = current, current_perf
        since_improvement = 0
        while since_improvement < stall_steps:
            sid = solver_ids[rng.randrange(len(solver_ids))]
            neighbour = current ^ {sid}
            if not neighbour:
                since_improvement += 1
                continue
            neighbour_perf = perf(neighbour)
            if neighbour_perf > current_perf:
                current, current_perf = neighbour, neighbour_perf
                since_improvement = 0
                if current_perf > best_perf:
                    best_subset, best_perf = current, current_perf
                continue
            if rng.random() < accept_prob:
                current, current_perf = neighbour, neighbour_perf
            since_improvement += 1
    return sorted(best_subset), best_perf


def choose_backup(matrix: RuntimeMatrix, schedule: PresolverSchedule,
                  feature_timed_out: dict[str, bool], objective: str,
                  candidate_ids, cutoff: float,
                  purse: PurseConfig | None = None, series=None) -> str:
    """Backup solver for instances whose feature computation times out.

    Ranked on the validation instances unsolved by the pre-solvers whose
    features timed out; with no such instances, the winner-take-all solver
    over the whole validation set is used.
    """
    candidate_ids = sorted(candidate_ids)
    runs = matrix.dense().block()
    pre_solved = simulate_presolving(runs, schedule, cutoff)[0]
    pool = [
        iid for iid, done in zip(runs.instances, pre_solved.tolist())
        if not done and feature_timed_out.get(iid, True)
    ] or runs.instances
    pool_runs = runs.block(candidate_ids, pool)

    if objective == OBJECTIVE_SCORE and purse is not None:
        totals = competition_score(pool_runs, purse, series or singleton_series(pool))
        return min(candidate_ids, key=lambda sid: (-totals[sid].total, sid))

    times = np.where(pool_runs.solved, pool_runs.runtime, cutoff).tolist()
    avg_runtime = {sid: sum(row) / len(pool) for sid, row in zip(candidate_ids, times)}
    return min(candidate_ids, key=lambda sid: (avg_runtime[sid], sid))


@dataclass
class BuildSettings:
    """Knobs for portfolio construction; defaults follow the methodology,
    smaller values keep desk-scale experiments fast."""

    objective: str = OBJECTIVE_RUNTIME
    hierarchy: str = "none"  # none | sat2 | general6
    cutoff_seconds: float = 1200.0
    delta: float = DEFAULT_DELTA
    cv_folds: int = 10
    max_raw_terms: int = 30
    max_expanded_terms: int = 40
    presolver_top: int = 3
    exhaustive_limit: int = 12
    min_training_rows: int = 10
    classifier_penalty: float = 1e-2
    seed: int = 0
    feature_budget: ProbeBudget = field(default_factory=ProbeBudget)

    def __post_init__(self):
        if self.objective not in (OBJECTIVE_RUNTIME, OBJECTIVE_SCORE):
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.hierarchy not in ("none", "sat2", "general6"):
            raise ValueError(f"unknown hierarchy mode {self.hierarchy!r}")


class _ModelTrainer:
    """Per-solver model fitting with caching across schedules.

    Schedules that leave the same training instances unsolved reuse the
    same fitted models, which collapses most of the enumeration's cost.
    """

    def __init__(self, matrix, features, settings, purse, series,
                 sat_labels, category_labels, classifier_rows):
        self.matrix = matrix
        self.features = features
        self.settings = settings
        self.purse = purse
        self.series = series
        self.sat_labels = sat_labels
        self.category_labels = category_labels
        self.classifier = None
        if settings.hierarchy != "none":
            self.classifier = train_classifier(
                np.vstack([features[iid].values for iid in classifier_rows]),
                [self.hierarchy_label(iid) for iid in classifier_rows],
                settings.classifier_penalty,
            )
        self.cutoff_log = float(np.log(matrix.cutoff_seconds))
        self._cache: dict[tuple, object] = {}
        self._score_label_cache: dict[str, dict[str, float]] = {}

    def _labels_for(self, sid, train_ids) -> dict[str, float]:
        if sid not in self._score_label_cache:
            sub = self.matrix.restrict(instances=train_ids)
            self._score_label_cache[sid] = score_labels(
                sub, sid, self.purse, {i: self.series[i] for i in train_ids}
            )
        return self._score_label_cache[sid]

    def hierarchy_label(self, iid) -> str:
        sat = self.sat_labels.get(iid, "sat")
        if self.settings.hierarchy == "general6":
            return f"{self.category_labels[iid]}:{sat}"
        return sat

    def fit(self, sid: str, row_ids: tuple[str, ...], all_train_ids):
        key = (sid, row_ids)
        if key in self._cache:
            return self._cache[key]
        model = self._fit(sid, list(row_ids), all_train_ids)
        self._cache[key] = model
        return model

    def _fit(self, sid, rows, all_train_ids):
        s = self.settings
        X = np.vstack([self.features[iid].values for iid in rows])

        if s.objective == OBJECTIVE_SCORE:
            labels = self._labels_for(sid, sorted(all_train_ids))
            y = np.array([labels[iid] for iid in rows])
            censored = np.zeros(len(rows), dtype=bool)
            cutoff_log = None
            target = "score"
        else:
            recs = [self.matrix.get(sid, iid) for iid in rows]
            keep = [j for j, r in enumerate(recs) if r.status != "crash"]
            if len(keep) < len(rows):
                rows = [rows[j] for j in keep]
                recs = [recs[j] for j in keep]
                X = X[keep]
            if len(rows) < s.min_training_rows:
                raise InsufficientData(f"{sid}: {len(rows)} usable rows")
            runtimes = np.array([r.runtime_seconds for r in recs])
            censored = np.array([r.censored for r in recs])
            y = log_runtime(runtimes)
            y[censored] = self.cutoff_log
            cutoff_log = self.cutoff_log
            target = "log_runtime"
            if not (~censored).any():
                raise InsufficientData(f"{sid}: every training run censored")

        def fit_flat(sub_rows: np.ndarray):
            Xs, ys, cs = X[sub_rows], y[sub_rows], censored[sub_rows]
            basis = select_basis(
                Xs, ys, folds=min(s.cv_folds, max(2, len(sub_rows))),
                max_raw_terms=s.max_raw_terms,
                max_expanded_terms=s.max_expanded_terms, delta=s.delta,
            )
            if cs.any():
                data = LabeledDataset(Xs, ys, cs, cutoff_log)
                return censored_fit(data, s.delta, basis, target=target)
            return fit_ridge_model(Xs, ys, basis, s.delta, target)

        everything = np.arange(len(rows))
        if self.classifier is None:
            return fit_flat(everything)

        def fit_conditional(sub_rows):
            if len(sub_rows) < s.min_training_rows or not (~censored[sub_rows]).any():
                return fit_flat(everything)
            return fit_flat(np.asarray(sub_rows))

        # the gate is fit against observed targets, so censored rows are
        # dropped from it when a true runtime is unknown
        gate_rows = np.flatnonzero(~censored)
        if gate_rows.size < s.min_training_rows:
            gate_rows = everything
        return train_hierarchical(
            X, y, [self.hierarchy_label(iid) for iid in rows], fit_conditional,
            self.classifier, gate_rows=gate_rows,
        )


def build_portfolio(train_ids, valid_ids, features: dict[str, FeatureVector],
                    matrix: RuntimeMatrix, descriptors, settings: BuildSettings,
                    purse: PurseConfig | None = None, series=None,
                    category_labels: dict[str, str] | None = None) -> PortfolioConfig:
    """Construct a portfolio over the candidate solvers.

    Instances unsolvable by every candidate must already be dropped.
    Local-search solvers are pre-solver material under min_runtime but only
    become subset candidates when optimizing score.
    """
    s = settings
    descriptors = {d.id: d for d in descriptors}
    kinds = {sid: d.kind for sid, d in descriptors.items()}
    purse = purse or PurseConfig(time_limit=s.cutoff_seconds)
    series = series or singleton_series(matrix.instances)
    if s.hierarchy == "general6" and category_labels is None:
        raise ValueError("general6 hierarchy needs category labels")

    if s.objective == OBJECTIVE_RUNTIME:
        candidate_ids = sorted(sid for sid, k in kinds.items() if k == "complete")
    else:
        candidate_ids = sorted(kinds)
    if not candidate_ids:
        raise ValueError("no candidate solvers for this objective")

    train_ids = sorted(train_ids)
    valid_ids = sorted(valid_ids)
    valid_matrix = matrix.restrict(instances=valid_ids)
    feature_timed_out = {
        iid: (features.get(iid) is None or features[iid].timed_out)
        for iid in matrix.instances
    }

    complete_cands, local_cands = select_presolver_candidates(
        valid_matrix, descriptors.values(), purse, series, top=s.presolver_top
    )
    schedules = enumerate_presolver_configs(complete_cands, local_cands)

    sat_labels = {iid: matrix.sat_label(iid) or "sat" for iid in matrix.instances}
    trainer = _ModelTrainer(
        matrix, features, s, purse, series, sat_labels, category_labels,
        classifier_rows=[iid for iid in train_ids if not feature_timed_out[iid]],
    )
    train_runs = matrix.dense().block(complete_cands + local_cands, train_ids)

    best = None  # (perf, schedule, backup, subset, models)
    for schedule in schedules:
        pre_solved = simulate_presolving(train_runs, schedule, s.cutoff_seconds)[0]
        remaining = tuple(
            iid for iid, done in zip(train_ids, pre_solved.tolist())
            if not done and not feature_timed_out[iid]
        )
        if not remaining:
            log.warning("schedule %s solves every training instance; skipped",
                        schedule.describe())
            continue

        models = {}
        for sid in candidate_ids:
            if len(remaining) < s.min_training_rows:
                log.info("schedule %s: only %d training rows; solver %s excluded",
                         schedule.describe(), len(remaining), sid)
                continue
            try:
                models[sid] = trainer.fit(sid, remaining, train_ids)
            except InsufficientData as exc:
                log.info("schedule %s: %s", schedule.describe(), exc)
        if not models:
            continue

        backup = choose_backup(
            valid_matrix, schedule, feature_timed_out, s.objective,
            candidate_ids, s.cutoff_seconds, purse, series,
        )
        simulator = PortfolioSimulator(
            valid_matrix, features, valid_ids, schedule, backup, models,
            s.objective, s.cutoff_seconds, purse, series,
        )
        if len(models) <= s.exhaustive_limit:
            subset, perf = subset_search_exhaustive(models.keys(), simulator,
                                                    s.exhaustive_limit)
        else:
            subset, perf = subset_search_local(models.keys(), simulator, seed=s.seed)
        if best is None or perf > best[0]:
            best = (perf, schedule, backup, subset, {k: models[k] for k in subset})

    if best is None:
        raise InsufficientData("no schedule produced a usable portfolio")
    _, schedule, backup, subset, models = best
    return PortfolioConfig(
        presolvers=schedule,
        backup_solver=backup,
        subset=subset,
        models=models,
        objective=s.objective,
        descriptors=descriptors,
        cutoff_seconds=s.cutoff_seconds,
        feature_budget=s.feature_budget,
        seed=s.seed,
    )


def solve(portfolio: PortfolioConfig, instance, runner) -> SolveOutcome:
    """Run the online procedure on one instance through a runner.

    The runner supplies `run(solver_id, instance, time_limit) -> RunRecord`
    and `features(instance, budget, seed) -> FeatureVector`. All failure
    paths are encoded in the outcome, never raised.
    """
    cutoff = portfolio.cutoff_seconds
    trace: list[dict] = []
    elapsed = 0.0

    for entry in portfolio.presolvers.active():
        budget = min(entry.cutoff_seconds, cutoff - elapsed)
        if budget <= 0:
            break
        rec = runner.run(entry.solver_id, instance, budget)
        elapsed += min(rec.runtime_seconds, budget)
        trace.append({
            "phase": "presolve", "solver": entry.solver_id,
            "budget": budget, "status": rec.status,
            "runtime": rec.runtime_seconds,
        })
        if rec.solved:
            return SolveOutcome(rec.status, f"presolver:{entry.solver_id}", elapsed, trace)

    budget = dataclasses.replace(
        portfolio.feature_budget,
        total_seconds=max(min(portfolio.feature_budget.total_seconds, cutoff - elapsed), 1e-9),
    )
    feature_error = None
    try:
        fv = runner.features(instance, budget, portfolio.seed)
        elapsed += fv.feature_time_seconds
        timed_out = fv.timed_out or fv.values is None
    except Exception as exc:  # extraction error routes to the backup solver
        fv = None
        timed_out = True
        feature_error = repr(exc)
    trace.append({
        "phase": "features", "timed_out": timed_out,
        "feature_time": fv.feature_time_seconds if fv else 0.0,
        "error": feature_error,
    })

    if timed_out:
        remaining = cutoff - elapsed
        chosen = f"backup:{portfolio.backup_solver}"
        if remaining <= 0:
            return SolveOutcome("timeout", chosen, cutoff, trace)
        rec = runner.run(portfolio.backup_solver, instance, remaining)
        elapsed += min(rec.runtime_seconds, remaining)
        trace.append({
            "phase": "backup", "solver": portfolio.backup_solver,
            "status": rec.status, "runtime": rec.runtime_seconds,
        })
        status = rec.status if rec.solved else "timeout"
        return SolveOutcome(status, chosen, elapsed if rec.solved else cutoff, trace)

    preds = {sid: portfolio.models[sid].predict(fv.values) for sid in portfolio.subset}
    trace.append({"phase": "predict", "predictions": dict(preds)})
    reverse = portfolio.objective == OBJECTIVE_SCORE
    ranked = sorted(preds, key=lambda sid: (-preds[sid] if reverse else preds[sid], sid))

    for sid in ranked:
        remaining = cutoff - elapsed
        if remaining <= 0:
            return SolveOutcome("timeout", ranked[0], cutoff, trace)
        rec = runner.run(sid, instance, remaining)
        elapsed += min(rec.runtime_seconds, remaining)
        trace.append({
            "phase": "main", "solver": sid, "status": rec.status,
            "runtime": rec.runtime_seconds,
        })
        if rec.solved:
            return SolveOutcome(rec.status, sid, elapsed, trace)
        if rec.status == "timeout":
            return SolveOutcome("timeout", sid, cutoff, trace)
        # crash: fall through to the next best prediction
    return SolveOutcome("crash_exhausted", ranked[-1] if ranked else "", elapsed, trace)


def portfolio_to_doc(portfolio: PortfolioConfig) -> dict:
    models = {}
    for sid, model in portfolio.models.items():
        if isinstance(model, HierarchicalModel):
            models[sid] = hier_to_doc(model)
        else:
            models[sid] = model_to_doc(model)
    return {
        "format": FORMAT_TAG,
        "objective": portfolio.objective,
        "cutoff_seconds": portfolio.cutoff_seconds,
        "seed": portfolio.seed,
        "feature_budget": asdict(portfolio.feature_budget),
        "presolvers": [
            {"solver_id": e.solver_id, "kind": e.kind, "cutoff": e.cutoff_seconds}
            for e in portfolio.presolvers.entries
        ],
        "backup_solver": portfolio.backup_solver,
        "subset": list(portfolio.subset),
        "solvers": [
            {"id": d.id, "kind": d.kind, "command": d.command}
            for d in portfolio.descriptors.values()
        ],
        "models": models,
    }


def portfolio_from_doc(doc: dict) -> PortfolioConfig:
    if doc.get("format") != FORMAT_TAG:
        raise ValueError(f"unsupported portfolio format {doc.get('format')!r}")
    descriptors = {
        d["id"]: SolverDescriptor(d["id"], d["kind"], d.get("command"))
        for d in doc["solvers"]
    }
    models = {}
    for sid, mdoc in doc["models"].items():
        if mdoc.get("type") == "hierarchical":
            models[sid] = hier_from_doc(mdoc)
        else:
            models[sid] = model_from_doc(mdoc)
    schedule = PresolverSchedule(tuple(
        PresolverEntry(e["solver_id"], e["kind"], float(e["cutoff"]))
        for e in doc["presolvers"]
    ))
    return PortfolioConfig(
        presolvers=schedule,
        backup_solver=doc["backup_solver"],
        subset=list(doc["subset"]),
        models=models,
        objective=doc["objective"],
        descriptors=descriptors,
        cutoff_seconds=float(doc["cutoff_seconds"]),
        feature_budget=ProbeBudget(**doc["feature_budget"]),
        seed=int(doc["seed"]),
    )


def save_portfolio(portfolio: PortfolioConfig, path) -> None:
    with open(path, "w") as fh:
        json.dump(portfolio_to_doc(portfolio), fh, indent=1)


def load_portfolio(path) -> PortfolioConfig:
    with open(path) as fh:
        return portfolio_from_doc(json.load(fh))
