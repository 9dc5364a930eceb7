"""Portfolio construction and online execution.

Offline: pick pre-solver candidates from validation scores and enumerate
every (two pre-solvers x cutoffs x order) schedule. The build then runs in
phases, each doing its distinct work once:

0. gather the training runs, feature rows, score labels and classifier,
   and the validation rows every simulator shares;
1. group the schedules by behaviour: the training instances a schedule
   leaves unsolved, and its pre-solve outcome on the validation set;
2. fit each candidate's model on each distinct training remainder;
3. per behaviour, choose a backup solver and search solver subsets for
   the best simulated validation performance, scoring all subsets in one
   array pass.

The best behaviour wins, represented by its first schedule in enumeration
order.

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
EXHAUSTIVE_LIMIT = 12  # larger candidate sets get the local subset search
LOCAL_ACCEPT_PROB = 0.05
LOCAL_STALL_STEPS = 100
LOCAL_RUNS = 10
BATCH_CELLS = 1 << 16  # (subset, instance) cells the simulator scores at once

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
                                series=None, top: int = 3):
    """Top pre-solver candidates per kind by validation score at a 10 s cap.

    Every run is truncated at PRESOLVER_CANDIDATE_CAP seconds, scores are
    computed as if that were the competition, and the best `top` solvers of
    each kind are returned (ties broken by solver id).
    """
    purse = purse or PurseConfig()
    series = series or singleton_series(matrix.instances)
    cap = PRESOLVER_CANDIDATE_CAP
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


class SimulationRows:
    """The schedule-independent inputs of a simulation over some instances:
    their runs, their feature rows and, under max_score, the score context.

    A build makes one for the validation set and hands it to each of its
    simulators, so each fitted model is predicted on the rows once.
    """

    def __init__(self, matrix: RuntimeMatrix, features: dict[str, FeatureVector],
                 instance_ids, objective: str, purse: PurseConfig | None = None,
                 series=None):
        self.ids = list(instance_ids)
        n = len(self.ids)
        self.runs = matrix.dense().block(instance_ids=self.ids)
        self.crashed = self.runs.status == STATUS_CODES["crash"]
        self.feature_ok = np.zeros(n, dtype=bool)
        self.feature_time = np.zeros(n)
        self.X = np.full((n, len(FEATURE_NAMES)), np.nan)
        for j, iid in enumerate(self.ids):
            fv = features.get(iid)
            if fv is None:
                continue
            self.feature_time[j] = fv.feature_time_seconds
            if fv.usable:
                self.feature_ok[j] = True
                self.X[j] = fv.values

        self.score_ctx = None
        if objective == OBJECTIVE_SCORE:
            if purse is None:
                raise ValueError("score objective needs a purse configuration")
            self.score_ctx = ScoreContext(self.runs, purse, series or singleton_series(self.ids))
        self._columns: dict[int, tuple] = {}  # id(model) -> (model, predictions)

    def predict(self, model) -> np.ndarray:
        """The model's prediction on each instance with usable features,
        NaN on the others; computed on the first call for this model object
        and shared afterwards (the column must not be written to)."""
        if id(model) not in self._columns:
            col = np.full(len(self.ids), np.nan)
            if self.feature_ok.any():
                col[self.feature_ok] = model.predict_matrix(self.X[self.feature_ok])
            self._columns[id(model)] = (model, col)
        return self._columns[id(model)][1]


class PortfolioSimulator:
    """Replays the online procedure against recorded runs.

    Charges pre-solver cutoffs, recorded feature time and the selected
    solver's recorded runtime against the instance cutoff; crashes cascade
    to the next-best prediction. Used for subset search, schedule ranking
    and test-set evaluation.

    The members (the models' solvers) are sorted by id and ranked once per
    instance with a stable sort of their predictions. A subset's own stable
    ranking is that ranking restricted to the subset, so every subset's
    choice and crash cascade walk the same ranking, masked by membership,
    and performances() scores many subsets in one array pass.

    A build passes `rows`, made from the same matrix, features, instance
    ids, objective, purse and series, to share it among its simulators.
    """

    def __init__(self, matrix: RuntimeMatrix, features: dict[str, FeatureVector],
                 instance_ids, schedule: PresolverSchedule, backup: str,
                 models: dict, objective: str, cutoff: float,
                 purse: PurseConfig | None = None, series=None, *,
                 rows: SimulationRows | None = None):
        if rows is None:
            rows = SimulationRows(matrix, features, instance_ids, objective, purse, series)
        self.ids = rows.ids
        self.runs = runs = rows.runs
        self.score_ctx = rows.score_ctx
        self.objective = objective
        self.cutoff = cutoff
        self.backup = backup
        self.schedule = schedule
        n = len(self.ids)

        pre_solved, pre_time, pre_solver, pre_elapsed = simulate_presolving(runs, schedule, cutoff)
        # what does not depend on the subset: pre-solved and backup rows
        self._solved = pre_solved.copy()
        self._total = np.where(pre_solved, pre_time, cutoff)
        self._kind = np.where(pre_solved, "presolver", "").astype(object)
        self._solver = pre_solver
        self._elapsed = pre_elapsed + rows.feature_time
        backup_rows = ~pre_solved & ~rows.feature_ok
        if backup_rows.any():
            rt = runs.runtime[runs.solver_index[backup]]
            ok = runs.solved[runs.solver_index[backup]]
            win = backup_rows & ok & (self._elapsed + rt <= cutoff)
            self._total[win] = (self._elapsed + rt)[win]
            self._solved |= win
            self._kind[backup_rows] = "backup"
            self._solver[backup_rows] = backup
        self._model_rows = ~pre_solved & rows.feature_ok

        self.members = sorted(models)
        self._member_index = {sid: m for m, sid in enumerate(self.members)}
        pred = np.empty((n, len(self.members)))
        for m, sid in enumerate(self.members):
            pred[:, m] = rows.predict(models[sid])
        # per instance, the members from best to worst predicted, and the
        # runtime, solved and crash flags of the member at each rank
        self._ranking = np.argsort(pred if objective == OBJECTIVE_RUNTIME else -pred,
                                   axis=1, kind="stable")
        cells = np.arange(n)[:, None], self._ranking
        member_rows = [runs.solver_index[sid] for sid in self.members]
        self._ranked_rt = runs.runtime[member_rows].T[cells]
        self._ranked_ok = runs.solved[member_rows].T[cells]
        self._ranked_crash = rows.crashed[member_rows].T[cells]

    def _membership(self, subsets) -> np.ndarray:
        """(subsets, members) flags; KeyError for a solver without a model."""
        flags = np.zeros((len(subsets), len(self.members)), dtype=bool)
        for k, subset in enumerate(subsets):
            flags[k, [self._member_index[sid] for sid in subset]] = True
        return flags

    def _cascade(self, membership: np.ndarray):
        """The simulation of each subset in `membership`: (solved, total
        time, chosen member index or -1), each a C-contiguous (subsets,
        instances) array."""
        shape = (len(membership), len(self.ids))
        solved = np.broadcast_to(self._solved, shape).copy()
        total = np.broadcast_to(self._total, shape).copy()
        chosen = np.full(shape, -1)
        active = np.broadcast_to(self._model_rows, shape).copy()
        el = np.broadcast_to(self._elapsed, shape).copy()
        for rank in range(len(self.members)):
            if not active.any():
                break
            sel = self._ranking[:, rank]
            take = active & membership[:, sel]
            end = el + self._ranked_rt[:, rank]
            fits = end <= self.cutoff
            win = take & self._ranked_ok[:, rank] & fits
            total[win] = end[win]
            solved |= win
            np.copyto(chosen, sel, where=take)
            # a crash within the remaining time moves on to the next best
            step = take & self._ranked_crash[:, rank] & fits
            el[step] = end[step]
            active &= ~take | step
        return solved, total, chosen

    def simulate(self, subset):
        """Returns (solved mask, total time, chosen (kind, solver) pairs)."""
        solved, total, chosen = (a[0] for a in self._cascade(self._membership([subset])))
        kind, solver = self._kind.copy(), self._solver.copy()
        main = chosen >= 0
        kind[main] = "main"
        solver[main] = np.array(self.members, dtype=object)[chosen[main]]
        return solved, total, list(zip(kind, solver))

    def performances(self, subsets: list) -> np.ndarray:
        """Validation performance of each subset; higher is better. Subsets
        are simulated in batches of at most BATCH_CELLS (subset, instance)
        cells, which bounds the memory a large search takes."""
        per_batch = max(1, BATCH_CELLS // max(1, len(self.ids)))
        out = np.empty(len(subsets))
        for at in range(0, len(subsets), per_batch):
            solved, total, _ = self._cascade(self._membership(subsets[at:at + per_batch]))
            if self.objective == OBJECTIVE_RUNTIME:
                out[at:at + per_batch] = -total.mean(axis=1)
            else:
                solution, speed, series = self.score_ctx.virtual_scores(solved, total)
                out[at:at + per_batch] = solution + speed + series
        return out

    def performance(self, subset) -> float:
        """Scalar validation performance; higher is better."""
        return float(self.performances([subset])[0])

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


def subset_search_exhaustive(solver_ids, simulator: PortfolioSimulator):
    """Best subset by simulated validation performance, trying all of them
    (at most EXHAUSTIVE_LIMIT solvers) in one batch.

    Ties go to smaller subsets, then lexicographically smaller ones.
    """
    solver_ids = sorted(solver_ids)
    if len(solver_ids) > EXHAUSTIVE_LIMIT:
        raise TooManySolvers(f"{len(solver_ids)} solvers exceed the exhaustive guard")
    if not solver_ids:
        raise ValueError("need at least one solver")
    subsets = list(_iter_subsets(solver_ids))
    best_subset, best_perf = None, -math.inf
    for subset, perf in zip(subsets, simulator.performances(subsets).tolist()):
        if perf > best_perf:
            best_subset, best_perf = list(subset), perf
    return best_subset, best_perf


def subset_search_local(solver_ids, simulator: PortfolioSimulator, seed: int = 0):
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
    for _ in range(LOCAL_RUNS):
        current = random_subset()
        current_perf = perf(current)
        if current_perf > best_perf:
            best_subset, best_perf = current, current_perf
        since_improvement = 0
        while since_improvement < LOCAL_STALL_STEPS:
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
            if rng.random() < LOCAL_ACCEPT_PROB:
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
    cv_folds: int = 10
    max_raw_terms: int = 30
    max_expanded_terms: int = 40
    presolver_top: int = 3
    min_training_rows: int = 10
    seed: int = 0
    feature_budget: ProbeBudget = field(default_factory=ProbeBudget)

    def __post_init__(self):
        if self.objective not in (OBJECTIVE_RUNTIME, OBJECTIVE_SCORE):
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.hierarchy not in ("none", "sat2", "general6"):
            raise ValueError(f"unknown hierarchy mode {self.hierarchy!r}")


class _ModelTrainer:
    """Per-solver model fitting on subsets of the training instances.

    The candidates' runs on the training instances with usable features,
    those instances' feature rows and, under max_score, every candidate's
    score labels are gathered once; each fit reads its rows from them.
    """

    def __init__(self, matrix, features, settings, candidate_ids, train_ids, usable,
                 purse, series, category_labels):
        s = self.settings = settings
        rows = [iid for iid in train_ids if iid in usable]
        if not rows:
            raise InsufficientData("no training instance has usable features")
        self.runs = matrix.dense().block(candidate_ids, rows)
        self.X = np.vstack([features[iid].values for iid in rows])
        self.cutoff_log = float(np.log(matrix.cutoff_seconds))
        if s.objective == OBJECTIVE_SCORE:
            # labels score each instance against every solver on all the
            # training instances, whether their features are usable or not
            everyone = matrix.dense().block(instance_ids=train_ids)
            labels = score_labels(everyone, purse, series)
            self.labels = labels[np.ix_([everyone.solver_index[sid] for sid in candidate_ids],
                                        [everyone.instance_index[iid] for iid in rows])]
        self.classifier = None
        if s.hierarchy != "none":
            self.classes = [matrix.sat_label(iid) or "sat" for iid in rows]
            if s.hierarchy == "general6":
                self.classes = [f"{category_labels[iid]}:{sat}"
                                for iid, sat in zip(rows, self.classes)]
            self.classifier = train_classifier(self.X, self.classes)

    def fit(self, sid: str, row_ids: tuple[str, ...]):
        """The model of `sid` on these training rows; raises InsufficientData
        when the rows cannot support one."""
        s = self.settings
        runs = self.runs
        k = runs.solver_index[sid]
        cols = np.array([runs.instance_index[iid] for iid in row_ids])

        if s.objective == OBJECTIVE_SCORE:
            y = self.labels[k, cols]
            censored = np.zeros(len(cols), dtype=bool)
            cutoff_log, target = None, "score"
        else:
            cols = cols[runs.status[k, cols] != STATUS_CODES["crash"]]
            if len(cols) < s.min_training_rows:
                raise InsufficientData(f"{sid}: {len(cols)} usable rows")
            censored = runs.status[k, cols] == STATUS_CODES["timeout"]
            if censored.all():
                raise InsufficientData(f"{sid}: every training run censored")
            y = log_runtime(runs.runtime[k, cols])
            y[censored] = self.cutoff_log
            cutoff_log, target = self.cutoff_log, "log_runtime"
        X = self.X[cols]

        def fit_flat(sub_rows: np.ndarray):
            Xs, ys, cs = X[sub_rows], y[sub_rows], censored[sub_rows]
            basis = select_basis(
                Xs, ys, folds=min(s.cv_folds, max(2, len(sub_rows))),
                max_raw_terms=s.max_raw_terms, max_expanded_terms=s.max_expanded_terms,
            )
            if cs.any():
                return censored_fit(LabeledDataset(Xs, ys, cs, cutoff_log), basis=basis,
                                    target=target)
            return fit_ridge_model(Xs, ys, basis, target=target)

        everything = np.arange(len(cols))
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
            X, y, [self.classes[c] for c in cols], fit_conditional,
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
    usable = {iid for iid, fv in features.items() if fv.usable}
    feature_timed_out = {iid: iid not in usable for iid in matrix.instances}

    complete_cands, local_cands = select_presolver_candidates(
        valid_matrix, descriptors.values(), purse, series, top=s.presolver_top
    )
    schedules = enumerate_presolver_configs(complete_cands, local_cands)

    # Phase 0: the inputs of every later phase, gathered once
    trainer = _ModelTrainer(matrix, features, s, candidate_ids, train_ids, usable,
                            purse, series, category_labels)
    rows = SimulationRows(valid_matrix, features, valid_ids, s.objective, purse, series)
    train_runs = matrix.dense().block(complete_cands + local_cands, train_ids)

    # Phase 1: group the schedules by behaviour, that is by the training
    # instances they leave for the models and what they do on the validation
    # set. Models, backup, simulation and subset search follow from it alone.
    behaviours: dict[tuple, list[PresolverSchedule]] = {}
    skipped = 0
    for schedule in schedules:
        pre_solved = simulate_presolving(train_runs, schedule, s.cutoff_seconds)[0]
        remaining = tuple(
            iid for iid, done in zip(train_ids, pre_solved.tolist())
            if not done and iid in usable
        )
        if not remaining:
            log.warning("schedule %s solves every training instance; skipped",
                        schedule.describe())
            skipped += 1
            continue
        solved, finish, _, elapsed = simulate_presolving(rows.runs, schedule, s.cutoff_seconds)
        key = (remaining, solved.tobytes(), finish.tobytes(), elapsed.tobytes())
        behaviours.setdefault(key, []).append(schedule)

    # Phase 2: each distinct (solver, training remainder) fit once, the
    # remainders in order of the first schedule that leaves them
    remainders: dict[tuple, PresolverSchedule] = {}
    for (remaining, *_), group in behaviours.items():
        remainders.setdefault(remaining, group[0])
    pairs = []
    for remaining, schedule in remainders.items():
        if len(remaining) < s.min_training_rows:
            log.info("schedule %s: only %d training rows; no models fitted",
                     schedule.describe(), len(remaining))
            continue
        pairs += [(sid, remaining) for sid in candidate_ids]
    fits = {}
    for sid, remaining in pairs:
        try:
            fits[sid, remaining] = trainer.fit(sid, remaining)
        except InsufficientData as exc:
            log.info("schedule %s: %s", remainders[remaining].describe(), exc)

    # Phase 3: per behaviour, in order of their first schedule, which stands
    # for them, a backup and a subset search; with the strict > the earliest
    # of the best schedules wins
    best = None  # (perf, schedule, backup, subset, models)
    for (remaining, *_), group in behaviours.items():
        schedule = group[0]
        models = {sid: fits[sid, remaining] for sid in candidate_ids
                  if (sid, remaining) in fits}
        if not models:
            skipped += len(group)
            continue

        backup = choose_backup(
            valid_matrix, schedule, feature_timed_out, s.objective,
            candidate_ids, s.cutoff_seconds, purse, series,
        )
        simulator = PortfolioSimulator(
            valid_matrix, features, valid_ids, schedule, backup, models,
            s.objective, s.cutoff_seconds, purse, series, rows=rows,
        )
        if len(models) <= EXHAUSTIVE_LIMIT:
            subset, perf = subset_search_exhaustive(models.keys(), simulator)
        else:
            subset, perf = subset_search_local(models.keys(), simulator, seed=s.seed)
        if best is None or perf > best[0]:
            best = (perf, schedule, backup, subset, {k: models[k] for k in subset})

    log.info("%s build: %d schedules enumerated, %d skipped, %d distinct behaviours, "
             "%d fits, %d refused fits", s.objective, len(schedules), skipped,
             len(behaviours), len(fits), len(pairs) - len(fits))
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
        timed_out = not fv.usable
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
