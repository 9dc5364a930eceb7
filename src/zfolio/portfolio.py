"""Portfolio construction and online execution.

Offline: pick pre-solver candidates from validation scores and enumerate
every (two pre-solvers x cutoffs x order) schedule. The build then runs in
phases, each doing its distinct work once:

0. make one SimulationRows view of the training instances and one of the
   validation set, and from the training view the targets, score labels
   and classifier;
1. replay every schedule's pre-solvers in one array pass on each view's
   runs, and group the schedules by behaviour: the training instances with
   usable features that a schedule leaves unsolved, a row mask, and its
   pre-solve outcome on the validation set: its replay_presolving row,
   which phase 3's simulator reads as it is;
2. fit each candidate's model on each distinct training remainder:
   a. list the distinct problems, each the rows a model learns from with
      their targets, and select all their bases in one select_basis batch.
      A flat model learns from the remainder; under a hierarchy, a class
      expert learns from its class's rows, and the classes too small for
      their own share one fallback model of the whole remainder. A problem
      that several remainders or solvers share is listed once;
   b. fit every problem of the build in one censored_fit batch;
   c. assemble the flat models, and fit the gates of all the hierarchical
      models in one hierarchy.train_hierarchical batch;
3. take each behaviour's backup solver, that of its pool (chosen once per
   distinct pool), and search each behaviour's subsets on one stacked
   simulator: all of them in one batch where its own members fit
   EXHAUSTIVE_LIMIT, else by local searches in lockstep, each step's
   proposals in one batch; each behaviour keeps its best subset.

The build's summary INFO line gives the wall seconds of each phase and of
steps 2a-2c, how many Schmee-Hahn fits stopped at their iteration cap, the
gates' count, median and largest Newton iterations and cap hits, and how
many (behaviour, subset) rows phase 3 scored.

The best behaviour wins, represented by its first schedule in enumeration
order.

Online: run the pre-solvers, compute features (falling back to the backup
solver on timeout or error), predict each subset member's objective, and
run the predicted best, moving to the next best if a solver crashes. The
subset's models are predicted in one pass of the hierarchy.ModelStack the
portfolio compiles once; the simulator predicts its models through a stack
as well, and a row's prediction does not depend on what it is stacked with,
so solve and the simulator rank on the same bits.
"""

from __future__ import annotations

import dataclasses
import itertools
import logging
import math
import random
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .features import FEATURE_NAMES, FeatureVector
from . import hierarchy, learning
from .hierarchy import (HierarchicalModel, ModelStack, hier_from_doc, hier_to_doc,
                        train_classifier)
from .learning import (
    LabeledDataset,
    RidgeModel,
    censored_fit,
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
    integer,
    load_json,
    parse_number,
    save_json,
    solver_descriptors,
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
EXHAUSTIVE_LIMIT = 12  # a behaviour with more members gets the local subset search
LOCAL_ACCEPT_PROB = 0.05
LOCAL_STALL_STEPS = 100
LOCAL_RUNS = 10

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


def select_presolver_candidates(runs: DenseRuns, descriptors,
                                purse: PurseConfig | None = None,
                                series=None, top: int = 3):
    """Top pre-solver candidates per kind by validation score at a 10 s cap.

    Every run is truncated at PRESOLVER_CANDIDATE_CAP seconds, scores are
    computed as if that were the competition, and the best `top` solvers of
    each kind are returned (ties broken by solver id).
    """
    purse = purse or PurseConfig()
    series = series or singleton_series(runs.instances)
    cap = PRESOLVER_CANDIDATE_CAP
    within = runs.solved & (runs.runtime <= cap)
    capped = DenseRuns(runs.solvers, runs.instances, np.where(within, runs.runtime, cap),
                       np.where(within, runs.status, STATUS_CODES["timeout"]))
    capped_purse = dataclasses.replace(purse, time_limit=cap)
    totals = competition_score(capped, capped_purse, series)
    kinds = {d.id: d.kind for d in descriptors}
    out = {}
    for kind in ("complete", "local_search"):
        ranked = sorted(
            (sid for sid in runs.solvers if kinds.get(sid) == kind),
            key=lambda sid: (-totals[sid].total, sid),
        )
        out[kind] = ranked[:top]
    return out["complete"], out["local_search"]


def enumerate_presolver_configs(complete_ids, local_ids) -> list[PresolverSchedule]:
    """All (complete choice x cutoff) x (local choice x cutoff) x 2 orders.

    With three candidates per kind this yields exactly 288 schedules;
    schedules that differ only in the position of a cutoff-0 entry are kept
    as distinct configurations. When one kind has no candidate, each
    (choice x cutoff) of the other is a one-entry schedule.
    """
    complete = [PresolverEntry(sid, "complete", cut)
                for sid in complete_ids for cut in PRESOLVER_CUTOFFS]
    local = [PresolverEntry(sid, "local_search", cut)
             for sid in local_ids for cut in PRESOLVER_CUTOFFS]
    if not (complete and local):
        return [PresolverSchedule((entry,)) for entry in complete or local]
    return [PresolverSchedule(order) for first, second in itertools.product(complete, local)
            for order in ((first, second), (second, first))]


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
    # the subset's models in subset order, compiled once for solve
    stack: ModelStack = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.objective not in (OBJECTIVE_RUNTIME, OBJECTIVE_SCORE):
            raise ValueError(f"unknown objective {self.objective!r}")
        if not self.subset:
            raise ValueError("subset must be nonempty")
        cutoff = self.cutoff_seconds
        if not (math.isfinite(cutoff) and cutoff > 0):
            raise ValueError(f"cutoff_seconds must be finite and positive, got {cutoff!r}")
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
        self.stack = ModelStack([self.models[sid] for sid in self.subset])


@dataclass
class SolveOutcome:
    status: str  # sat | unsat | timeout | crash_exhausted
    chosen_solver: str
    total_time_seconds: float
    trace: list[dict] = field(default_factory=list)


def replay_presolving(runs: DenseRuns, schedules, cutoff: float):
    """Replays each schedule's active pre-solvers on every instance of `runs`,
    in order, each up to its own cutoff and within the instance cutoff. One
    that does not solve costs its cutoff, or, as in solve, its runtime if it
    crashes within that cutoff. Returns (schedules, instances) arrays: solved,
    the finish time, the solving pre-solver's row in `runs` (-1 if none) and
    the time spent on the unsolved. Batches peak within
    learning.FIT_BATCH_CELLS float64 cells."""
    # an entry's cutoff 0, as a padding entry's, masks it out
    width = max((len(schedule.entries) for schedule in schedules), default=0)
    pad = [(0, 0.0)] * width
    cells = np.array([[(runs.solver_index[e.solver_id] if e.cutoff_seconds else 0,
                        e.cutoff_seconds) for e in schedule.entries] + pad[len(schedule.entries):]
                      for schedule in schedules]).reshape(len(schedules), width, 2)
    rows, cuts = cells[..., 0].astype(np.intp), cells[..., 1]
    shape = (len(schedules), len(runs.instances))
    solved, winner = np.zeros(shape, dtype=bool), np.full(shape, -1)
    finish, elapsed = np.zeros(shape), np.zeros(shape)
    crashed = runs.status == STATUS_CODES["crash"]
    # a position's peak per (schedule, instance): its gathered runtimes, end
    # times and charges, and the masks; tracemalloc reads 4.5 cells
    per_batch = max(1, learning.FIT_BATCH_CELLS // max(1, 5 * shape[1]))
    for at in range(0, len(schedules), per_batch):
        b = slice(at, at + per_batch)
        done, el = solved[b], elapsed[b]
        for p in range(width):
            row, cut = rows[b, p], cuts[b, p, None]
            on, rt = cut > 0, runs.runtime[row]
            end = el + rt
            win = on & ~done & runs.solved[row] & (rt <= cut) & (end <= cutoff)
            np.copyto(finish[b], end, where=win)
            np.copyto(winner[b], row[:, None], where=win)
            done |= win
            charge = np.where(crashed[row] & (rt <= cut), rt, cut)
            np.add(el, charge, out=el, where=on & ~done)
    return solved, finish, winner, elapsed


class SimulationRows:
    """One build's view of an instance set: every solver's runs on it, their
    cutoff and crash flags, and the instances' feature rows, feature seconds
    and usable flags. A cell without a record raises KeyError.

    A build makes two: of the training instances, for the model trainer and
    phase 1's training replay, and of the validation set, for phase 1's
    validation replay, the backup pools and the simulator.
    """

    def __init__(self, matrix: RuntimeMatrix, features: dict[str, FeatureVector], instance_ids):
        self.ids = list(instance_ids)
        n = len(self.ids)
        self.runs = matrix.dense().block(instance_ids=self.ids)
        self.cutoff = matrix.cutoff_seconds
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

    def predict(self, models: list) -> np.ndarray:
        """(instances, models): each model's prediction on each instance with
        usable features, NaN on the others, in one ModelStack pass."""
        cols = np.full((len(self.ids), len(models)), np.nan)
        if self.feature_ok.any():
            cols[self.feature_ok] = ModelStack(models).predict(self.X[self.feature_ok])
        return cols


class PortfolioSimulator:
    """Replays the online procedure against recorded runs.

    Charges the pre-solvers' time as replay_presolving does, recorded
    feature time and the selected solver's recorded runtime against the
    instance cutoff; crashes cascade to the next-best prediction. Used for
    subset search, schedule ranking and test-set evaluation.

    A simulator holds one schedule behaviour, or a stack of them, when
    `schedule`, `backup` and `models` are lists with an item per behaviour;
    a build makes one stack of all its behaviours, whatever their number.
    Its members, the solvers with a model in any behaviour sorted by id,
    are ranked once per distinct model set and instance by a stable sort of
    their predictions, the members without a model last. A subset's own
    stable ranking is that ranking restricted to the subset, so scores()
    scores any list of (behaviour, subset) pairs in one array pass.
    simulate and records read the first behaviour.

    A build passes `rows`, its SimulationRows of the same matrix, features
    and instance ids, and `presolved`, the behaviours' rows of
    replay_presolving on `rows.runs` as they are (one behaviour's without
    the leading axis). Without it the schedules are replayed here.
    """

    def __init__(self, matrix: RuntimeMatrix, features: dict[str, FeatureVector],
                 instance_ids, schedule, backup, models, objective: str, cutoff: float,
                 purse: PurseConfig | None = None, series=None, *,
                 rows: SimulationRows | None = None, presolved: tuple | None = None):
        if objective == OBJECTIVE_SCORE and purse is None:
            raise ValueError("score objective needs a purse configuration")
        if rows is None:
            rows = SimulationRows(matrix, features, instance_ids)
        self.ids = rows.ids
        self.runs = runs = rows.runs
        self.score_ctx = (ScoreContext(runs, purse, series or singleton_series(self.ids))
                          if objective == OBJECTIVE_SCORE else None)
        self.objective = objective
        self.cutoff = cutoff
        self.stacked = not isinstance(schedule, PresolverSchedule)
        if not self.stacked:
            schedule, backup, models = [schedule], [backup], [models]
            if presolved is not None:
                presolved = tuple(a[None] for a in presolved)
        self.schedules, self.backups = list(schedule), list(backup)
        self.scored = 0  # the (behaviour, subset) rows _scores has scored
        n = len(self.ids)

        if presolved is None:
            presolved = replay_presolving(runs, self.schedules, cutoff)
        pre_solved, pre_time, self._winner, pre_elapsed = presolved
        # what does not depend on the subset: pre-solved and backup rows
        self._solved = pre_solved.copy()
        self._total = np.where(pre_solved, pre_time, cutoff)
        self._elapsed = pre_elapsed + rows.feature_time
        self._backup_rows = ~pre_solved & ~rows.feature_ok
        if self._backup_rows.any():
            k = [runs.solver_index[sid] for sid in self.backups]
            end = self._elapsed + runs.runtime[k]
            win = self._backup_rows & runs.solved[k] & (end <= cutoff)
            self._total[win] = end[win]
            self._solved |= win
        self._model_rows = ~pre_solved & rows.feature_ok

        self.members = sorted(set().union(*models))
        self._member_index = {sid: m for m, sid in enumerate(self.members)}
        # member bits, in the least unsigned type holding them (Python ints past 64)
        dtype = np.min_scalar_type(1 << max(0, len(self.members) - 1))
        self._bit = np.left_shift(np.ones((), dtype), np.arange(len(self.members)).astype(dtype))
        self._present = np.array([[sid in own for sid in self.members] for own in models])
        # per rank, distinct model set (one row of model ids, the first
        # behaviour with it in `firsts`) and instance: the member there in
        # the order from best to worst predicted, its bit, runtime, and
        # solved and crash flags
        keys = np.array([[id(own.get(sid)) for sid in self.members] for own in models])
        _, firsts, self._set = np.unique(keys, axis=0, return_index=True, return_inverse=True)
        self._ranking = np.empty((len(self.members), len(firsts), n), dtype=np.intp)
        for k, b in enumerate(firsts):
            own = np.flatnonzero(self._present[b])
            pred = rows.predict([models[b][self.members[m]] for m in own])
            self._ranking[:len(own), k] = own[np.argsort(
                pred if objective == OBJECTIVE_RUNTIME else -pred, axis=1, kind="stable").T]
            self._ranking[len(own):, k] = np.flatnonzero(~self._present[b])[:, None]
        member_rows = [runs.solver_index[sid] for sid in self.members]
        self._ranked = [self._bit[self._ranking]] + [
            a[member_rows][self._ranking, np.arange(n)]
            for a in (runs.runtime, runs.solved, rows.crashed)]

    def _masks(self, subsets) -> np.ndarray:
        """Each subset as a mask of its members' bits; KeyError for a non-member."""
        flags = np.zeros((len(subsets), len(self.members)), dtype=bool)
        flags[np.repeat(np.arange(len(subsets)), [len(subset) for subset in subsets]),
              [self._member_index[sid] for subset in subsets for sid in subset]] = True
        return flags @ self._bit

    def _cascade(self, masks: np.ndarray, behaviours: np.ndarray, choose: bool = False):
        """The simulation of each pair of an item of `behaviours` and the
        subset mask beside it in `masks`: (solved, total time, and with
        `choose` the chosen member index or -1), each (pairs, instances)."""
        sets = self._set[behaviours]
        solved, total, active, el = (a[behaviours] for a in (
            self._solved, self._total, self._model_rows, self._elapsed))
        chosen = np.full(total.shape, -1) if choose else None
        for sel, bit, rt, ok, crash in zip(self._ranking, *self._ranked):
            if not active.any():
                break
            take = active & ((bit[sets] & masks[:, None]) != 0)
            end = el + rt[sets]
            fits = end <= self.cutoff
            win = take & ok[sets] & fits
            np.copyto(total, end, where=win)
            solved |= win
            if choose:
                np.copyto(chosen, sel[sets], where=take)
            # a crash within the remaining time moves on to the next best
            step = take & crash[sets] & fits
            np.copyto(el, end, where=step)
            active &= ~take | step
        return solved, total, chosen

    def simulate(self, subset):
        """Returns (solved mask, total time, chosen (kind, solver) pairs)."""
        solved, total, chosen = (a[0] for a in self._cascade(
            self._masks([subset]), np.zeros(1, dtype=np.intp), choose=True))
        pairs = [("presolver", self.runs.solvers[w]) if w >= 0 else
                 ("backup", self.backups[0]) if b else
                 ("main", self.members[c]) if c >= 0 else ("", None)
                 for w, b, c in zip(self._winner[0].tolist(), self._backup_rows[0].tolist(),
                                    chosen.tolist())]
        return solved, total, pairs

    def scores(self, pairs) -> np.ndarray:
        """The validation performance of each (behaviour index, subset) pair,
        higher is better; -inf where the subset holds a solver without a
        model in the behaviour. Pairs are scored in batches that peak within
        learning.FIT_BATCH_CELLS float64 cells, the fit kernels' budget; a
        pair's score does not depend on its batch."""
        return self._scores_of(np.array([b for b, _ in pairs], dtype=np.intp),
                               self._masks([subset for _, subset in pairs]))

    def _scores_of(self, behaviours, masks) -> np.ndarray:
        """scores() of the pairs of an item of `behaviours` and the subset
        mask beside it in `masks`."""
        # a batch's peak per (pair, instance): 7 cells under min_runtime
        # (_cascade's float64 arrays, a rank's gathered members, times and
        # masks), 11 under max_score (virtual_scores's reordered copies, terms
        # and shares); tracemalloc reads 4.8 and 9.4 on bench600's splits
        cells = (7 if self.objective == OBJECTIVE_RUNTIME else 11) * len(self.ids)
        per_batch = max(1, learning.FIT_BATCH_CELLS // max(1, cells))
        out = np.empty(len(masks))
        for at in range(0, len(masks), per_batch):
            batch = slice(at, at + per_batch)
            out[batch] = self._scores(masks[batch], behaviours[batch])
        out[(masks & ~(self._present @ self._bit)[behaviours]) != 0] = -np.inf
        return out

    def _scores(self, masks, behaviours) -> np.ndarray:
        """scores() of one batch of pairs."""
        solved, total, _ = self._cascade(masks, behaviours)
        self.scored += len(total)
        if self.objective == OBJECTIVE_RUNTIME:
            return -total.mean(axis=1)
        solution, speed, series = self.score_ctx.virtual_scores(solved, total)
        return solution + speed + series

    def records(self, subset):
        """Run records of the simulated portfolio, as virtual solver "portfolio"."""
        solved, total, chosen = self.simulate(subset)
        out = {}
        for j, iid in enumerate(self.ids):
            if solved[j]:
                _, sid = chosen[j]
                status = STATUSES[self.runs.status[self.runs.solver_index[sid], j]]
                out[iid] = RunRecord("portfolio", iid, float(total[j]), status)
            else:
                out[iid] = RunRecord("portfolio", iid, self.cutoff, "timeout")
        return out


def _iter_subsets(solver_ids):
    solver_ids = sorted(solver_ids)
    for size in range(1, len(solver_ids) + 1):
        yield from itertools.combinations(solver_ids, size)


def subset_search_exhaustive(solver_ids, simulator: PortfolioSimulator):
    """Best subset by simulated validation performance, trying all of them,
    those of the behaviours with one member set in one batch. Returns
    (subset, performance) over `solver_ids`, at most EXHAUSTIVE_LIMIT of
    them; from a stacked simulator, a list with one per behaviour, over the
    subsets of its own members among `solver_ids`, and None for a behaviour
    with more than the limit.

    Ties go to smaller subsets, then lexicographically smaller ones.
    """
    solver_ids = sorted(solver_ids)
    if not solver_ids:
        raise ValueError("need at least one solver")
    if not simulator.stacked and len(solver_ids) > EXHAUSTIVE_LIMIT:
        raise TooManySolvers(f"{len(solver_ids)} solvers exceed the exhaustive guard")
    present = simulator._present[:, [simulator._member_index[sid] for sid in solver_ids]]
    groups: dict[tuple, list] = {}  # own members among solver_ids -> their behaviours
    for b, row in enumerate(present.tolist()):
        if sum(row) <= EXHAUSTIVE_LIMIT:
            groups.setdefault(tuple(itertools.compress(solver_ids, row)), []).append(b)
    picks = [None] * len(present)
    for own, behaviours in groups.items():
        subsets = list(_iter_subsets(own))
        table = simulator._scores_of(np.repeat(behaviours, len(subsets)), np.tile(
            simulator._masks(subsets), len(behaviours))).reshape(len(behaviours), -1)
        # argmax takes the first of equal maxima: the smallest, then lexicographic
        for b, perf, k in zip(behaviours, table.tolist(), table.argmax(axis=1).tolist()):
            picks[b] = (list(subsets[k]), perf[k])
    return picks if simulator.stacked else picks[0]


def _local_search(solver_ids, seed: int):
    """subset_search_local's search as a _lockstep generator, holding each
    subset as a bit mask over the sorted `solver_ids`."""
    rng = random.Random(seed)
    cache: dict[int, float] = {}

    def members(mask: int) -> list:
        return [sid for k, sid in enumerate(solver_ids) if mask >> k & 1]

    best, best_perf = 0, -math.inf
    for _ in range(LOCAL_RUNS):
        current = 0
        while not current:
            current = sum(1 << k for k in range(len(solver_ids)) if rng.random() < 0.5)
        if current not in cache:
            cache[current] = yield members(current)
        current_perf = cache[current]
        if current_perf > best_perf:
            best, best_perf = current, current_perf
        since_improvement = 0
        while since_improvement < LOCAL_STALL_STEPS:
            neighbour = current ^ 1 << rng.randrange(len(solver_ids))
            if not neighbour:
                since_improvement += 1
                continue
            if neighbour not in cache:
                cache[neighbour] = yield members(neighbour)
            neighbour_perf = cache[neighbour]
            if neighbour_perf > current_perf:
                current, current_perf = neighbour, neighbour_perf
                since_improvement = 0
                if current_perf > best_perf:
                    best, best_perf = current, current_perf
                continue
            if rng.random() < LOCAL_ACCEPT_PROB:
                current, current_perf = neighbour, neighbour_perf
            since_improvement += 1
    return members(best), best_perf


def _lockstep(simulator: PortfolioSimulator, searches: dict) -> dict:
    """Runs searches (behaviour index -> generator) in lockstep; each round
    scores every subset one of them yields in one scores call and sends it
    its performance. Returns each search's pick by behaviour."""
    picks, perfs = {}, dict.fromkeys(searches)
    while perfs:
        asked = {}
        for b, perf in perfs.items():
            try:
                asked[b] = searches[b].send(perf)
            except StopIteration as stop:
                picks[b] = stop.value
        perfs = dict(zip(asked, simulator.scores(list(asked.items())).tolist()))
    return picks


def subset_search_local(solver_ids, simulator: PortfolioSimulator, seed: int = 0):
    """Randomized iterative improvement over solver subsets, for the first
    behaviour of `simulator`.

    From a random nonempty subset, each step proposes a uniformly random
    single add/drop neighbour (never the empty set) and accepts it on
    improvement, or anyway with 5% probability. A run restarts after 100
    steps without an improving step; after 10 runs the best subset ever
    seen is returned, with its performance.
    """
    solver_ids = sorted(solver_ids)
    if not solver_ids:
        raise ValueError("need at least one solver")
    return _lockstep(simulator, {0: _local_search(solver_ids, seed)})[0]


def choose_backup(runs: DenseRuns, pool: np.ndarray, objective: str,
                  candidate_ids, cutoff: float,
                  purse: PurseConfig | None = None, series=None) -> str:
    """Backup solver for instances whose feature computation times out.

    Ranked on the instances of `runs` that the boolean mask `pool` flags:
    in a build, the validation instances unsolved by the pre-solvers whose
    features are unusable. With none flagged, the winner-take-all solver
    over all the instances is used. The objective alone picks the ranking:
    score under max_score, which needs a purse, else mean runtime.
    """
    if objective == OBJECTIVE_SCORE and purse is None:
        raise ValueError("score objective needs a purse configuration")
    candidate_ids = sorted(candidate_ids)
    ids = [iid for iid, inside in zip(runs.instances, pool) if inside] or runs.instances
    pool_runs = runs.block(candidate_ids, ids)

    if objective == OBJECTIVE_SCORE:
        totals = competition_score(pool_runs, purse, series or singleton_series(ids))
        return min(candidate_ids, key=lambda sid: (-totals[sid].total, sid))

    times = np.where(pool_runs.solved, pool_runs.runtime, cutoff).tolist()
    avg_runtime = {sid: sum(row) / len(ids) for sid, row in zip(candidate_ids, times)}
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
        cutoff = self.cutoff_seconds
        if not (math.isfinite(cutoff) and cutoff > 0):
            raise ValueError(f"cutoff_seconds must be finite and positive, got {cutoff!r}")
        for name, least in (("cv_folds", 2), ("max_raw_terms", 1), ("presolver_top", 1),
                            ("min_training_rows", 2)):
            if integer(name, getattr(self, name)) < least:
                raise ValueError(f"{name} must be at least {least}")
        integer("seed", self.seed)  # stored in the portfolio, which load_portfolio checks


class _ModelTrainer:
    """Per-solver model fitting on subsets of the training instances.

    Reads from the training view, on its instances with usable features
    (`ids`), their feature rows and every solver's targets (score labels
    under max_score, else log runtimes), censoring and crash flags, and
    their classes (sat unless a run says unsat); each fit reads its rows
    from them. A remainder is the bytes of a boolean mask over `ids`.
    `seconds` holds the wall seconds of the last fit's steps 2a, 2b and 2c,
    `capped` the models of its Schmee-Hahn fits that stopped at
    CENSORED_MAX_ITER, and `gate_fits` the GateFit of each gate it fitted.
    """

    def __init__(self, train: SimulationRows, settings, purse, series, category_labels):
        s = self.settings = settings
        usable = train.feature_ok
        if not usable.any():
            raise InsufficientData("no training instance has usable features")
        runs = train.runs
        self.ids = [iid for iid, ok in zip(train.ids, usable.tolist()) if ok]
        self.solver_index = runs.solver_index
        self.X, self.crashed = train.X[usable], train.crashed[:, usable]
        self.cutoff_log = float(np.log(train.cutoff))
        status = runs.status[:, usable]
        if s.objective == OBJECTIVE_SCORE:
            # labels score each instance against every solver on all the
            # training instances, whether their features are usable or not
            self.y = score_labels(runs, purse, series)[:, usable]
            self.censored = np.zeros(self.y.shape, dtype=bool)
        else:
            self.censored = status == STATUS_CODES["timeout"]
            self.y = np.where(self.censored, self.cutoff_log, log_runtime(runs.runtime[:, usable]))
        self.seconds: dict[str, float] = {}
        self.gate_fits: list = []
        self.classifier = None
        if s.hierarchy != "none":
            classes = np.where((status == STATUS_CODES["unsat"]).any(axis=0), "unsat", "sat")
            if s.hierarchy == "general6":
                classes = [f"{category_labels[iid]}:{sat}" for iid, sat in zip(self.ids, classes)]
            self.classes = np.asarray(classes)
            self.classifier = train_classifier(self.X, self.classes.tolist())

    def _columns(self, sid: str, remainder: bytes) -> np.ndarray:
        """The instance columns a model of `sid` on this remainder learns
        from; raises InsufficientData when they cannot support one."""
        s = self.settings
        k = self.solver_index[sid]
        cols = np.flatnonzero(np.frombuffer(remainder, dtype=bool))
        if s.objective == OBJECTIVE_SCORE:
            return cols
        cols = cols[~self.crashed[k, cols]]
        if len(cols) < s.min_training_rows:
            raise InsufficientData(f"{sid}: {len(cols)} usable rows")
        if self.censored[k, cols].all():
            raise InsufficientData(f"{sid}: every training run censored")
        return cols

    def _expert_columns(self, k: int, cols: np.ndarray) -> list[np.ndarray]:
        """The columns each expert learns from: all of them for a flat model;
        under a hierarchy, a class with at least min_training_rows rows, not
        all censored, gets its own, and every other class all of them."""
        if self.classifier is None:
            return [cols]
        out = []
        for cls in self.classifier.classes:
            own = cols[self.classes[cols] == cls]
            ok = len(own) >= self.settings.min_training_rows and not self.censored[k, own].all()
            out.append(own if ok else cols)
        return out

    def fit(self, pairs):
        """The models of (solver, remainder) pairs, in three steps:

        a. list the distinct problems, each the instance columns a model
           learns from (a flat model's or a class expert's own, or the whole
           remainder for a fallback shared by the small classes) with their
           targets. Each is listed once, in first-appearance order, and its
           dataset is built then, so solvers with the same targets on the
           same rows share it; all their bases are selected in one
           select_basis batch;
        b. fit every problem in one censored_fit batch;
        c. per pair, take its flat fit, or list the gate of its class
           experts with its rows (the observed ones, when enough are) and
           their targets; every gate is fitted in one
           hierarchy.train_hierarchical batch.

        Returns the models by pair and, for each pair whose rows cannot
        support a model, the reason.
        """
        s = self.settings
        start = time.perf_counter()
        refused, plans = {}, {}
        problems: dict[tuple, LabeledDataset] = {}
        for sid, remainder in pairs:
            try:
                cols = self._columns(sid, remainder)
            except InsufficientData as exc:
                refused[sid, remainder] = str(exc)
                continue
            k = self.solver_index[sid]
            experts = []
            for c in self._expert_columns(k, cols):
                problem = (c.tobytes(), self.y[k, c].tobytes(), self.censored[k, c].tobytes())
                if problem not in problems:
                    problems[problem] = LabeledDataset(self.X[c], self.y[k, c],
                                                       self.censored[k, c], self.cutoff_log)
                experts.append(problem)
            plans[sid, remainder] = (k, cols, experts)
        bases = select_basis(list(problems.values()), folds=s.cv_folds,
                             max_raw_terms=s.max_raw_terms,
                             max_expanded_terms=s.max_expanded_terms)
        selected = time.perf_counter()
        target = "score" if s.objective == OBJECTIVE_SCORE else "log_runtime"
        self.capped = []
        fitted = dict(zip(problems, censored_fit(list(problems.values()), basis=bases,
                                                 target=target, capped=self.capped)))
        del problems  # their feature rows, copied per problem, are not needed past 2b
        fitted_at = time.perf_counter()

        models, gates = {}, {}
        for pair, (k, cols, experts) in plans.items():
            if self.classifier is None:
                models[pair] = fitted[experts[0]]
                continue
            # the gate is fit against observed targets, so censored rows are
            # dropped from it when a true runtime is unknown
            rows = cols[~self.censored[k, cols]]
            if rows.size < s.min_training_rows:
                rows = cols
            gates[pair] = ([fitted[e] for e in experts], rows, self.y[k, rows])
        self.gate_fits = []
        if gates:
            hierarchical, self.gate_fits = hierarchy.train_hierarchical(
                self.classifier, self.X, gates.values())
            models.update(zip(gates, hierarchical))
        self.seconds = {"2a": selected - start, "2b": fitted_at - selected,
                        "2c": time.perf_counter() - fitted_at}
        return models, refused


def build_portfolio(train_ids, valid_ids, features: dict[str, FeatureVector],
                    matrix: RuntimeMatrix, descriptors, settings: BuildSettings,
                    purse: PurseConfig | None = None, series=None,
                    category_labels: dict[str, str] | None = None) -> PortfolioConfig:
    """Construct a portfolio over the candidate solvers.

    Instances unsolvable by every candidate must already be dropped.
    Local-search solvers are pre-solver material under min_runtime but only
    become subset candidates when optimizing score. `matrix` must hold a run
    of every solver on every training and validation instance; a missing
    cell raises the KeyError that names it.
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

    # Phase 0: the inputs of every later phase, gathered once
    stamps = [time.perf_counter()]  # the start and the end of each phase
    train = SimulationRows(matrix, features, sorted(train_ids))
    rows = SimulationRows(matrix, features, sorted(valid_ids))
    complete_cands, local_cands = select_presolver_candidates(
        rows.runs, descriptors.values(), purse, series, top=s.presolver_top
    )
    schedules = enumerate_presolver_configs(complete_cands, local_cands)
    trainer = _ModelTrainer(train, s, purse, series, category_labels)

    stamps.append(time.perf_counter())

    # Phase 1: group the schedules by behaviour, that is by the training
    # instances they leave for the models and what they do on the validation
    # set. Models, backup, simulation and subset search follow from it alone;
    # each behaviour keeps the index of its first schedule, which stands for
    # it, into the one replay of every schedule on the validation runs. A
    # remainder is a mask over the training instances with usable features.
    left = ~replay_presolving(train.runs, schedules, s.cutoff_seconds)[0][:, train.feature_ok]
    replayed = replay_presolving(rows.runs, schedules, s.cutoff_seconds)
    keys = np.hstack([left, replayed[0], replayed[1].view(np.uint8),
                      replayed[3].view(np.uint8)])
    behaviours: dict[bytes, tuple] = {}  # key -> (remainder bytes, first index, schedules)
    skipped = 0
    for k, (schedule, keep) in enumerate(zip(schedules, left.any(axis=1).tolist())):
        if not keep:
            log.warning("schedule %s solves every training instance; skipped",
                        schedule.describe())
            skipped += 1
            continue
        key = keys[k].tobytes()
        if key not in behaviours:
            behaviours[key] = (left[k].tobytes(), k, [])
        behaviours[key][2].append(schedule)

    stamps.append(time.perf_counter())

    # Phase 2: each distinct (solver, training remainder) pair, the
    # remainders in order of the first schedule that leaves them, fitted by
    # the trainer's three steps: 2a lists the distinct problems and selects
    # their bases, 2b fits them all in one censored_fit batch, 2c assembles
    # the flat models and fits every gate of the hierarchical ones in one batch
    remainders: dict[bytes, int] = {}  # remainder -> the first schedule leaving it
    for remaining, first, _ in behaviours.values():
        remainders.setdefault(remaining, first)
    pairs = []
    for remaining, first in remainders.items():
        count = np.count_nonzero(left[first])
        if count < s.min_training_rows:
            log.info("schedule %s: only %d training rows; no models fitted",
                     schedules[first].describe(), count)
            continue
        pairs += [(sid, remaining) for sid in candidate_ids]
    fits, refused = trainer.fit(pairs)
    for (_, remaining), reason in refused.items():
        log.info("schedule %s: %s", schedules[remainders[remaining]].describe(), reason)

    stamps.append(time.perf_counter())

    # Phase 3: each behaviour with models, in order of its first schedule,
    # which stands for it, with the backup of its pool (chosen once per
    # distinct pool), and its best subset on one stacked simulator, by the
    # search its own members' count calls for; max keeps the earliest of the
    # best behaviours
    kept = []  # (schedule, backup, models, first index)
    backups: dict[bytes, str] = {}  # pool mask bytes -> backup
    for remaining, first, group in behaviours.values():
        models = {sid: fits[sid, remaining] for sid in candidate_ids
                  if (sid, remaining) in fits}
        if not models:
            skipped += len(group)
            continue
        pool = ~replayed[0][first] & ~rows.feature_ok
        if pool.tobytes() not in backups:
            backups[pool.tobytes()] = choose_backup(
                rows.runs, pool, s.objective, candidate_ids, s.cutoff_seconds, purse, series)
        kept.append((group[0], backups[pool.tobytes()], models, first))
    picks, scored = [], 0
    if kept:
        schedule, backup, models, first = (list(column) for column in zip(*kept))
        simulator = PortfolioSimulator(
            matrix, features, rows.ids, schedule, backup, models, s.objective,
            s.cutoff_seconds, purse, series, rows=rows,
            presolved=tuple(a[first] for a in replayed))
        picks = subset_search_exhaustive(simulator.members, simulator)
        local = _lockstep(simulator, {b: _local_search(sorted(models[b]), s.seed)
                                      for b, pick in enumerate(picks) if pick is None})
        picks = [local.get(b, pick) for b, pick in enumerate(picks)]
        scored = simulator.scored
    best = max(range(len(picks)), key=lambda b: picks[b][1], default=None)

    stamps.append(time.perf_counter())
    spent = np.diff(stamps)
    iterations = [fit.iterations for fit in trainer.gate_fits] or [0]
    log.info("%s build: %d schedules enumerated, %d skipped, %d distinct behaviours, "
             "%d fits, %d refused fits, %d Schmee-Hahn fits stopped at %d iterations, "
             "%d gates (Newton iterations median %g, max %d; %d at the cap), "
             "%d (behaviour, subset) rows scored; seconds by phase: 0 %.3f, 1 %.3f, "
             "2a %.3f, 2b %.3f, 2c %.3f, 3 %.3f", s.objective, len(schedules), skipped,
             len(behaviours), len(fits), len(pairs) - len(fits), len(trainer.capped),
             learning.CENSORED_MAX_ITER, len(trainer.gate_fits), np.median(iterations),
             max(iterations), sum(not fit.converged for fit in trainer.gate_fits),
             scored, spent[0], spent[1],
             *(trainer.seconds[k] for k in ("2a", "2b", "2c")), spent[3])
    if best is None:
        raise InsufficientData("no schedule produced a usable portfolio")
    (schedule, backup, models, _), (subset, _) = kept[best], picks[best]
    return PortfolioConfig(
        presolvers=schedule,
        backup_solver=backup,
        subset=subset,
        models={sid: models[sid] for sid in subset},
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

    budget = portfolio.feature_budget
    if budget.total_seconds > cutoff - elapsed:
        budget = dataclasses.replace(budget, total_seconds=max(cutoff - elapsed, 1e-9))
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

    preds = dict(zip(portfolio.subset, portfolio.stack.predict(fv.values)[0].tolist()))
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
        "solvers": [asdict(d) for d in portfolio.descriptors.values()],
        "models": models,
    }


def _check_usable(field: str, model) -> None:
    """Refuse a loaded model that `solve` cannot apply to a feature vector:
    a basis term outside the features, or a classifier, gate or ridge
    weight or a ridge intercept that is not finite."""
    experts = [(field, model)]
    if isinstance(model, HierarchicalModel):
        experts = [(f"{field}.conditional_models[{k}]", m)
                   for k, m in enumerate(model.conditional_models)]
        for name, weights in (("classifier.weights", model.classifier.weights),
                              ("gating_weights", model.gating_weights)):
            if not np.all(np.isfinite(weights)):
                raise ValueError(f"{field}.{name} must be finite")
    for name, expert in experts:
        for part in ("weights", "intercept"):
            if not np.all(np.isfinite(getattr(expert, part))):
                raise ValueError(f"{name}.{part} must be finite")
        basis = expert.basis
        for part, indices in (("raw_indices", basis.raw_indices),
                              ("product_pairs", itertools.chain(*basis.product_pairs))):
            bad = [i for i in indices if not 0 <= i < len(FEATURE_NAMES)]
            if bad:
                raise ValueError(f"{name}.basis.{part}: {bad[0]} is not a feature index "
                                 f"(0 to {len(FEATURE_NAMES) - 1})")


def portfolio_from_doc(doc: dict) -> PortfolioConfig:
    if doc.get("format") != FORMAT_TAG:
        raise ValueError(f"unsupported portfolio format {doc.get('format')!r}")
    descriptors = {d.id: d for d in solver_descriptors(doc["solvers"])}
    models = {}
    classifiers = {}  # hierarchical models with equal classifier documents share one
    for sid, mdoc in doc["models"].items():
        if mdoc.get("type") == "hierarchical":
            models[sid] = hier_from_doc(mdoc, classifiers)
        else:
            models[sid] = model_from_doc(mdoc)
        _check_usable(f"models[{sid!r}]", models[sid])
    schedule = PresolverSchedule(tuple(
        PresolverEntry(e["solver_id"], e["kind"], parse_number("cutoff", e["cutoff"]))
        for e in doc["presolvers"]
    ))
    return PortfolioConfig(
        presolvers=schedule,
        backup_solver=doc["backup_solver"],
        subset=list(doc["subset"]),
        models=models,
        objective=doc["objective"],
        descriptors=descriptors,
        cutoff_seconds=parse_number("cutoff_seconds", doc["cutoff_seconds"]),
        feature_budget=ProbeBudget(**doc["feature_budget"]),
        seed=integer("seed", doc["seed"]),
    )


def save_portfolio(portfolio: PortfolioConfig, path) -> None:
    save_json(path, portfolio_to_doc(portfolio))


def load_portfolio(path) -> PortfolioConfig:
    """A portfolio file; a missing or malformed field raises a ValueError."""
    return load_json(path, portfolio_from_doc)
