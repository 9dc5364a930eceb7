"""Probing engines behind the dynamic instance features.

Unit propagation and short randomized DPLL dives measure propagation
activity and estimate search-space size; SAPS and GSAT runs characterize
the local-search landscape. All probes are seed-deterministic: in
deterministic mode (the default) termination is gated purely by step
counts, in wall-clock mode the per-group time budget is enforced as well.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

import numpy as np

from .cnf import CnfFormula

UNASSIGNED, TRUE, FALSE = 0, 1, -1

DPLL_DEPTHS = (1, 4, 16, 64, 256)


@dataclass
class ProbeBudget:
    """Resource limits for feature probing.

    `per_probe_seconds` caps each probe group (DPLL, SAPS, GSAT) and
    `total_seconds` caps the whole extraction. `max_ls_steps` is shared by
    the runs of one local-search group. In deterministic mode step counts
    alone end each group and `per_probe_seconds` is not enforced, so the
    values are reproducible; `total_seconds` still applies in both modes,
    as a backstop that interrupts a group and times the extraction out.
    """

    per_probe_seconds: float = 1.0
    total_seconds: float = 60.0
    max_ls_steps: int = 300_000
    ls_runs: int = 20
    dpll_runs: int = 10
    deterministic: bool = True

    def __post_init__(self):
        for name in ("per_probe_seconds", "total_seconds", "max_ls_steps", "ls_runs", "dpll_runs"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


class Assignment:
    """Ternary truth assignment over variables 1..num_vars."""

    __slots__ = ("states",)

    def __init__(self, num_vars: int):
        self.states = [UNASSIGNED] * (num_vars + 1)

    @property
    def num_vars(self) -> int:
        return len(self.states) - 1

    def value(self, var: int):
        s = self.states[var]
        return None if s == UNASSIGNED else s == TRUE

    def set(self, var: int, value: bool) -> None:
        self.states[var] = TRUE if value else FALSE

    def copy(self) -> "Assignment":
        out = Assignment(self.num_vars)
        out.states = list(self.states)
        return out

    def __eq__(self, other):
        return isinstance(other, Assignment) and self.states == other.states


def _occurrence_lists(clauses, num_vars: int) -> tuple[list[list[int]], list[list[int]]]:
    """Per variable, the indices of the clauses it occurs in positively and
    negatively; a duplicated literal lists its clause once per occurrence."""
    pos_occ: list[list[int]] = [[] for _ in range(num_vars + 1)]
    neg_occ: list[list[int]] = [[] for _ in range(num_vars + 1)]
    for ci, clause in enumerate(clauses):
        for lit in clause:
            if lit > 0:
                pos_occ[lit].append(ci)
            else:
                neg_occ[-lit].append(ci)
    return pos_occ, neg_occ


class PropagationEngine:
    """Counter-based unit propagation over a fixed formula.

    Per clause we track the number of satisfied literal occurrences and the
    number of unassigned occurrences; duplicates count once per occurrence,
    so a clause like [x, x] is only unit once one occurrence is falsified.
    """

    def __init__(self, formula: CnfFormula):
        self.num_vars = formula.num_vars
        self.clauses = [list(c) for c in formula.clauses]
        self.pos_occ, self.neg_occ = _occurrence_lists(self.clauses, self.num_vars)
        self._initial_free = [len(c) for c in self.clauses]
        self.reset()

    def reset(self) -> None:
        self.assign = [UNASSIGNED] * (self.num_vars + 1)
        self.true_count = [0] * len(self.clauses)
        self.free_count = list(self._initial_free)
        self.num_unsat = len(self.clauses)
        self.conflict = False
        self._unit_queue = [
            ci for ci, c in enumerate(self.clauses) if len(c) == 1
        ]

    def satisfied(self) -> bool:
        return self.num_unsat == 0

    def unassigned_vars(self) -> list[int]:
        return [v for v in range(1, self.num_vars + 1) if self.assign[v] == UNASSIGNED]

    def assign_var(self, var: int, value: bool) -> None:
        """Assign a variable and update clause counters."""
        self.assign[var] = TRUE if value else FALSE
        sat_side = self.pos_occ[var] if value else self.neg_occ[var]
        false_side = self.neg_occ[var] if value else self.pos_occ[var]
        true_count = self.true_count
        free_count = self.free_count
        for ci in sat_side:
            if true_count[ci] == 0:
                self.num_unsat -= 1
            true_count[ci] += 1
            free_count[ci] -= 1
        for ci in false_side:
            free_count[ci] -= 1
            if true_count[ci] == 0:
                left = free_count[ci]
                if left == 0:
                    self.conflict = True
                elif left == 1:
                    self._unit_queue.append(ci)

    def _forced_literal(self, ci: int) -> int:
        for lit in self.clauses[ci]:
            if self.assign[abs(lit)] == UNASSIGNED:
                return lit
        raise AssertionError("unit clause without an unassigned literal")

    def propagate(self) -> int:
        """Run unit propagation to fixpoint; return forced-assignment count."""
        count = 0
        queue = self._unit_queue
        while queue and not self.conflict:
            ci = queue.pop()
            if self.true_count[ci] > 0 or self.free_count[ci] != 1:
                continue
            lit = self._forced_literal(ci)
            self.assign_var(abs(lit), lit > 0)
            count += 1
        queue.clear()
        return count


def unit_propagate(formula: CnfFormula, assignment: Assignment):
    """Propagate all forced assignments from `assignment` to fixpoint.

    Returns (new assignment, number of forced assignments, conflict flag).
    The input assignment is not modified; a variable is never unassigned.
    """
    if assignment.num_vars != formula.num_vars:
        raise ValueError("assignment length does not match formula")
    engine = PropagationEngine(formula)
    engine._unit_queue.clear()
    for var in range(1, formula.num_vars + 1):
        state = assignment.states[var]
        if state != UNASSIGNED:
            engine.assign_var(var, state == TRUE)
    # seed complete; now discover units created by the seed plus original units
    engine._unit_queue = [
        ci
        for ci in range(len(engine.clauses))
        if engine.true_count[ci] == 0 and engine.free_count[ci] == 1
    ]
    count = engine.propagate() if not engine.conflict else 0
    out = Assignment(formula.num_vars)
    out.states = list(engine.assign)
    return out, count, engine.conflict


def dpll_probe(formula: CnfFormula, budget: ProbeBudget, seed: int,
               deadline: float | None = None) -> dict[str, float]:
    """Randomized DPLL dives; features 34-40.

    Each probe assigns a uniformly random unassigned variable to a random
    polarity and unit-propagates, until a conflict or a satisfying
    assignment. Features 34-38 are cumulative propagation counts when the
    probe first reaches decision depths 1, 4, 16, 64 and 256 (a probe ending
    earlier contributes its final count); 39 is the mean termination depth;
    40 averages log2 of the product of branching factors (2 per decision).

    `deadline` is a `time.perf_counter()` value, such as the end of the
    caller's total budget; once it has passed the probe stops at its next
    check (here between dives), in deterministic mode too, and reports what
    it measured so far.
    """
    rng = random.Random(seed)
    engine = PropagationEngine(formula)
    deadline = _group_deadline(budget, deadline)

    depth_counts = [[] for _ in DPLL_DEPTHS]
    end_depths: list[float] = []
    log_estimates: list[float] = []

    for _ in range(budget.dpll_runs):
        if deadline is not None and time.perf_counter() > deadline:
            break
        engine.reset()
        props = engine.propagate()
        depth = 0
        recorded = [False] * len(DPLL_DEPTHS)
        while not engine.conflict and not engine.satisfied():
            free = engine.unassigned_vars()
            if not free:
                break
            var = free[rng.randrange(len(free))]
            engine.assign_var(var, rng.random() < 0.5)
            depth += 1
            if not engine.conflict:
                props += engine.propagate()
            for i, d in enumerate(DPLL_DEPTHS):
                if depth >= d and not recorded[i]:
                    depth_counts[i].append(props)
                    recorded[i] = True
        for i in range(len(DPLL_DEPTHS)):
            if not recorded[i]:
                depth_counts[i].append(props)
        end_depths.append(float(depth))
        log_estimates.append(float(depth))

    if not end_depths:
        values = [0.0] * len(DPLL_DEPTHS) + [0.0, 0.0]
    else:
        values = [float(np.mean(c)) for c in depth_counts]
        values.append(float(np.mean(end_depths)))
        values.append(float(np.mean(log_estimates)))
    names = [f"f{34 + i}_up_depth{d}" for i, d in enumerate(DPLL_DEPTHS)]
    names += ["f39_dpll_mean_depth", "f40_dpll_log_nodes"]
    return dict(zip(names, values))


def dpll_tree_size(formula: CnfFormula, seed: int = 0, max_nodes: int = 10_000_000) -> int:
    """Exhaustive node count of the DPLL tree under the probes' branching rule.

    Test oracle for the feature-40 estimator; only usable on tiny formulas.
    Branch variables are drawn from the same random rule as the probes.
    """
    rng = random.Random(seed)
    engine = PropagationEngine(formula)

    def explore() -> int:
        if engine.conflict or engine.satisfied():
            return 1
        free = engine.unassigned_vars()
        if not free:
            return 1
        var = free[rng.randrange(len(free))]
        total = 1
        for value in (True, False):
            saved = (
                list(engine.assign),
                list(engine.true_count),
                list(engine.free_count),
                engine.num_unsat,
                engine.conflict,
            )
            engine.assign_var(var, value)
            if not engine.conflict:
                engine.propagate()
            total += explore()
            if total > max_nodes:
                raise RuntimeError("DPLL tree too large for the oracle")
            (engine.assign, engine.true_count, engine.free_count,
             engine.num_unsat, engine.conflict) = saved
        return total

    engine.reset()
    engine.propagate()
    return explore()


@dataclass
class SapsParams:
    """Standard SAPS parameter defaults; all configurable."""

    alpha: float = 1.3
    rho: float = 0.8
    p_smooth: float = 0.05
    p_walk: float = 0.01


class _SlsState:
    """Clause bookkeeping and flip-score cache shared by the local-search probes.

    The occurrence lists and each clause's distinct variables are built once
    per probe call. `score` caches one flip score per variable for the
    current run and `stale` holds the variables whose cached score may be
    out of date. A variable's score reads only its own value, the weights
    of its clauses (`weights`, set by a SAPS run; None in a GSAT run) and
    whether each clause's true count is 0 or 1. So `flip` marks the flipped
    variable and the variables of each clause whose true count moves to or
    from 0 or 1, and a SAPS run marks the variables of each clause whose
    weight it changes. Stale scores are recomputed with `flip_delta` /
    `weighted_flip_delta` before use, so a cached score equals a fresh one
    bit for bit.
    """

    def __init__(self, formula: CnfFormula):
        self.num_vars = formula.num_vars
        self.clauses = [list(c) for c in formula.clauses]
        self.pos_occ, self.neg_occ = _occurrence_lists(self.clauses, self.num_vars)
        self.clause_vars = [sorted({abs(lit) for lit in c}) for c in self.clauses]

    def random_init(self, rng: random.Random) -> None:
        n = self.num_vars
        self.assign = [False] + [rng.random() < 0.5 for _ in range(n)]
        true_count = [0] * len(self.clauses)
        for v in range(1, n + 1):
            for ci in self.pos_occ[v] if self.assign[v] else self.neg_occ[v]:
                true_count[ci] += 1
        self.true_count = true_count
        self.unsat = {ci for ci, tc in enumerate(true_count) if tc == 0}
        self.score: list = [0] * (n + 1)
        self.stale = set(range(1, n + 1))
        self.weights: list[float] | None = None

    def flip(self, var: int) -> None:
        new_value = not self.assign[var]
        self.assign[var] = new_value
        sat_side = self.pos_occ[var] if new_value else self.neg_occ[var]
        false_side = self.neg_occ[var] if new_value else self.pos_occ[var]
        true_count = self.true_count
        unsat = self.unsat
        stale = self.stale
        clause_vars = self.clause_vars
        for ci in sat_side:
            tc = true_count[ci]
            if tc == 0:
                unsat.discard(ci)
            if tc <= 1:
                stale.update(clause_vars[ci])
            true_count[ci] = tc + 1
        for ci in false_side:
            tc = true_count[ci] - 1
            true_count[ci] = tc
            if tc == 0:
                unsat.add(ci)
            if tc <= 1:
                stale.update(clause_vars[ci])
        stale.add(var)

    def flip_delta(self, var: int) -> int:
        """Change in unsatisfied-clause count if var were flipped."""
        value = self.assign[var]
        breaks = 0
        makes = 0
        # clauses where var's current literal is true may break
        cur_side = self.pos_occ[var] if value else self.neg_occ[var]
        other_side = self.neg_occ[var] if value else self.pos_occ[var]
        for ci in cur_side:
            if self.true_count[ci] == 1:
                breaks += 1
        for ci in other_side:
            if self.true_count[ci] == 0:
                makes += 1
        return breaks - makes

    def weighted_flip_delta(self, var: int, weights: list[float]) -> float:
        value = self.assign[var]
        cur_side = self.pos_occ[var] if value else self.neg_occ[var]
        other_side = self.neg_occ[var] if value else self.pos_occ[var]
        delta = 0.0
        for ci in cur_side:
            if self.true_count[ci] == 1:
                delta += weights[ci]
        for ci in other_side:
            if self.true_count[ci] == 0:
                delta -= weights[ci]
        return delta


@dataclass
class _RunStats:
    init_unsat: int
    best_unsat: int
    best_step: int
    first_lm_fraction: float
    lm_cv: float

    @property
    def improvement(self) -> int:
        return self.init_unsat - self.best_unsat

    @property
    def per_step_improvement(self) -> float:
        if self.best_step <= 0:
            return 0.0
        return self.improvement / self.best_step


def _finish_run(init_unsat, best_unsat, best_step, lm_counts, first_lm_best):
    total = init_unsat - best_unsat
    if first_lm_best is None or total <= 0:
        frac = 1.0
    else:
        frac = (init_unsat - first_lm_best) / total
    counts = np.asarray(lm_counts, dtype=float)
    if counts.size >= 2 and counts.mean() > 0:
        cv = float(counts.std(ddof=1) / counts.mean())
    else:
        cv = 0.0
    return _RunStats(init_unsat, best_unsat, best_step, frac, cv)


def _pick_tied(values: list, best, rng: random.Random) -> int:
    """Index of a uniformly drawn entry equal to `best`.

    Makes the one draw that `ties[rng.randrange(len(ties))]` makes over the
    tied entries in list order, without building the list of ties.
    """
    i = values.index(best)
    for _ in range(rng.randrange(values.count(best))):
        i = values.index(best, i + 1)
    return i


def _saps_run(state: _SlsState, rng: random.Random, max_steps: int,
              params: SapsParams, deadline) -> _RunStats | None:
    state.random_init(rng)
    weights = state.weights = [1.0] * len(state.clauses)
    score = state.score
    stale = state.stale
    unsat = state.unsat
    clause_vars = state.clause_vars
    init_unsat = len(unsat)
    best_unsat = init_unsat
    best_step = 0
    lm_counts: list[int] = []
    first_lm_best = None

    for step in range(1, max_steps + 1):
        if not unsat:
            break
        if deadline is not None and step % 256 == 0 and time.perf_counter() > deadline:
            return None
        cand = {v for ci in unsat for v in clause_vars[ci]}
        for v in stale & cand:
            score[v] = state.weighted_flip_delta(v, weights)
        stale -= cand
        cand = sorted(cand)
        deltas = [score[v] for v in cand]
        best_delta = min(deltas)
        if best_delta < -1e-12:
            state.flip(cand[_pick_tied(deltas, best_delta, rng)])
        else:
            # local minimum under the current weights
            lm_counts.append(len(unsat))
            if first_lm_best is None:
                first_lm_best = best_unsat
            if rng.random() < params.p_walk:
                clause = state.clauses[rng.choice(tuple(unsat))]
                state.flip(abs(clause[rng.randrange(len(clause))]))
            else:
                for ci in unsat:
                    weights[ci] *= params.alpha
                    stale.update(clause_vars[ci])
                if rng.random() < params.p_smooth:
                    mean_w = sum(weights) / len(weights)
                    for ci in range(len(weights)):
                        weights[ci] = weights[ci] * params.rho + (1 - params.rho) * mean_w
                    stale.update(range(1, state.num_vars + 1))
        if len(unsat) < best_unsat:
            best_unsat = len(unsat)
            best_step = step
    return _finish_run(init_unsat, best_unsat, best_step, lm_counts, first_lm_best)


GSAT_STALL_LIMIT = 100


def _gsat_run(state: _SlsState, rng: random.Random, max_steps: int, deadline) -> _RunStats | None:
    def rescore():
        score = state.score
        for v in state.stale:
            score[v] = state.flip_delta(v)
        state.stale.clear()

    state.random_init(rng)
    rescore()
    init_unsat = len(state.unsat)
    best_unsat = init_unsat
    best_step = 0
    lm_counts: list[int] = []
    first_lm_best = None
    stall = 0

    for step in range(1, max_steps + 1):
        if not state.unsat:
            break
        if deadline is not None and step % 256 == 0 and time.perf_counter() > deadline:
            return None
        if stall >= GSAT_STALL_LIMIT:
            state.random_init(rng)
            rescore()
            stall = 0
            if not state.unsat:
                if len(state.unsat) < best_unsat:
                    best_unsat = 0
                    best_step = step
                break
        deltas = state.score[1:]
        best_delta = min(deltas)
        if best_delta >= 0:
            lm_counts.append(len(state.unsat))
            if first_lm_best is None:
                first_lm_best = best_unsat
        state.flip(_pick_tied(deltas, best_delta, rng) + 1)
        rescore()
        if len(state.unsat) < best_unsat:
            best_unsat = len(state.unsat)
            best_step = step
            stall = 0
        else:
            stall += 1
    return _finish_run(init_unsat, best_unsat, best_step, lm_counts, first_lm_best)


def _group_deadline(budget: ProbeBudget, deadline: float | None) -> float | None:
    """The earlier of the caller's deadline and, in wall-clock mode, the
    end of this probe group's own `per_probe_seconds`."""
    if budget.deterministic:
        return deadline
    own = time.perf_counter() + budget.per_probe_seconds
    return own if deadline is None else min(deadline, own)


def _ls_runs(formula, budget, seed, run_fn, deadline) -> list[_RunStats]:
    rng = random.Random(seed)
    state = _SlsState(formula)
    max_steps = max(1, budget.max_ls_steps // budget.ls_runs)
    deadline = _group_deadline(budget, deadline)
    stats = []
    for _ in range(budget.ls_runs):
        if deadline is not None and time.perf_counter() > deadline:
            break
        run = run_fn(state, rng, max_steps, deadline)
        if run is None:  # interrupted mid-run by the deadline
            break
        stats.append(run)
    return stats


def saps_probe(formula: CnfFormula, budget: ProbeBudget, seed: int,
               params: SapsParams | None = None,
               deadline: float | None = None) -> dict[str, float]:
    """SAPS local-search probe; features 41-46 and 48.

    `deadline` (a `time.perf_counter()` value) stops the runs in either
    mode, as `dpll_probe` describes.
    """
    params = params or SapsParams()
    stats = _ls_runs(
        formula, budget, seed,
        lambda st, rng, steps, dl: _saps_run(st, rng, steps, params, dl),
        deadline,
    )
    if not stats:
        return {
            "f41_saps_beststep_mean": 0.0,
            "f42_saps_beststep_median": 0.0,
            "f43_saps_beststep_q10": 0.0,
            "f44_saps_beststep_q90": 0.0,
            "f45_saps_improve_per_step": 0.0,
            "f46_saps_first_lm_frac": 0.0,
            "f48_saps_cv_unsat": 0.0,
        }
    best_steps = np.array([s.best_step for s in stats], dtype=float)
    return {
        "f41_saps_beststep_mean": float(best_steps.mean()),
        "f42_saps_beststep_median": float(np.percentile(best_steps, 50)),
        "f43_saps_beststep_q10": float(np.percentile(best_steps, 10)),
        "f44_saps_beststep_q90": float(np.percentile(best_steps, 90)),
        "f45_saps_improve_per_step": float(np.mean([s.per_step_improvement for s in stats])),
        "f46_saps_first_lm_frac": float(np.mean([s.first_lm_fraction for s in stats])),
        "f48_saps_cv_unsat": float(np.mean([s.lm_cv for s in stats])),
    }


def gsat_probe(formula: CnfFormula, budget: ProbeBudget, seed: int,
               deadline: float | None = None) -> dict[str, float]:
    """GSAT local-search probe; feature 47. `deadline` as in `dpll_probe`."""
    stats = _ls_runs(formula, budget, seed, _gsat_run, deadline)
    if not stats:
        return {"f47_gsat_first_lm_frac": 0.0}
    return {
        "f47_gsat_first_lm_frac": float(np.mean([s.first_lm_fraction for s in stats]))
    }
