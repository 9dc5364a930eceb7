"""Probing engines behind the dynamic instance features.

Unit propagation and short randomized DPLL dives measure propagation
activity and estimate search-space size; SAPS and GSAT runs characterize
the local-search landscape. All probes are seed-deterministic: in
deterministic mode (the default) termination is gated purely by step
counts, in wall-clock mode the per-group time budget is enforced as well.
SAPS runs with the published default parameters of Hutter, Tompkins & Hoos
(CP 2002), fixed as SAPS_ALPHA, SAPS_RHO, SAPS_P_SMOOTH and SAPS_P_WALK.
"""

from __future__ import annotations

import math
import random
import time
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, compress
from numbers import Integral

import numpy as np

from .cnf import CnfFormula, split_flat

UNASSIGNED, TRUE, FALSE = 0, 1, -1

DPLL_DEPTHS = (1, 4, 16, 64, 256)

# Each probe group's feature names, in the order its values are computed
DPLL_NAMES = (*(f"f{34 + i}_up_depth{d}" for i, d in enumerate(DPLL_DEPTHS)),
              "f39_dpll_mean_depth", "f40_dpll_log_nodes")
SAPS_NAMES = ("f41_saps_beststep_mean", "f42_saps_beststep_median", "f43_saps_beststep_q10",
              "f44_saps_beststep_q90", "f45_saps_improve_per_step", "f46_saps_first_lm_frac",
              "f48_saps_cv_unsat")
GSAT_NAMES = ("f47_gsat_first_lm_frac",)


@dataclass
class ProbeBudget:
    """Resource limits for feature probing.

    `per_probe_seconds` caps each probe group (DPLL, SAPS, GSAT) and
    `total_seconds` caps the whole extraction. `max_ls_steps` is shared by
    the runs of one local-search group. In deterministic mode step counts
    alone end each group and `per_probe_seconds` is not enforced, so the
    values are reproducible; `total_seconds` still applies in both modes,
    as a backstop that times the extraction out. Each group checks it
    between runs and inside each run: every 256 local-search steps and
    every 256 DPLL decisions. No check interrupts parsing, `base_features`,
    the formula's occurrence lists, `_SlsState` or `PropagationEngine`, so
    each can overrun the budget by its own time; on a 200 k-variable random
    3-CNF they take 0.7, 0.8, 1.2, 1.1 and 0.02 s. Parsing counts against
    the budget in `extract_file`, which starts the clock before it reads.
    """

    per_probe_seconds: float = 1.0
    total_seconds: float = 60.0
    max_ls_steps: int = 300_000
    ls_runs: int = 20
    dpll_runs: int = 10
    deterministic: bool = True

    def __post_init__(self):
        for name in ("per_probe_seconds", "total_seconds"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        for name in ("max_ls_steps", "ls_runs", "dpll_runs"):
            value = getattr(self, name)
            if isinstance(value, bool) or not (isinstance(value, Integral) and value > 0):
                raise ValueError(f"{name} must be a positive integer, got {value!r}")


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


class PropagationEngine:
    """Counter-based unit propagation over a fixed formula.

    Per clause we track the number of satisfied literal occurrences and the
    number of unassigned occurrences; duplicates count once per occurrence,
    so a clause like [x, x] is only unit once one occurrence is falsified.
    A unit clause's literals are read from the formula's arena.
    `free` lists the unassigned variables in increasing order.
    """

    def __init__(self, formula: CnfFormula):
        self.num_vars, self.num_clauses = formula.num_vars, formula.num_clauses
        self._literals = memoryview(formula.literals)  # slices iterate as Python ints
        self.pos_occ, self.neg_occ = formula.occurrences
        lengths = formula.clause_lengths
        self._initial_free = lengths.tolist()
        self._starts = (np.cumsum(lengths) - lengths).tolist()
        self._units = np.flatnonzero(lengths == 1).tolist()
        self.reset()

    def reset(self) -> None:
        self.assign = [UNASSIGNED] * (self.num_vars + 1)
        self.true_count = [0] * self.num_clauses
        self.free_count = list(self._initial_free)
        self.num_unsat = self.num_clauses
        self.conflict = False
        self._unit_queue = list(self._units)
        self.free = list(range(1, self.num_vars + 1))

    def satisfied(self) -> bool:
        return self.num_unsat == 0

    def assign_var(self, var: int, value: bool) -> None:
        """Assign an unassigned variable and update clause counters."""
        self.assign[var] = TRUE if value else FALSE
        del self.free[bisect_left(self.free, var)]
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
        start = self._starts[ci]
        for lit in self._literals[start:start + self._initial_free[ci]]:
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
    for var in range(1, formula.num_vars + 1):
        state = assignment.states[var]
        if state != UNASSIGNED:
            engine.assign_var(var, state == TRUE)
    # seed complete; now queue the clauses left unit, original units included
    unit = (np.array(engine.true_count) == 0) & (np.array(engine.free_count) == 1)
    engine._unit_queue = np.flatnonzero(unit).tolist()
    count = engine.propagate() if not engine.conflict else 0
    out = Assignment(formula.num_vars)
    out.states = list(engine.assign)
    return out, count, engine.conflict


def _dive(engine: PropagationEngine, rng: random.Random, deadline: float | None):
    """One dive's propagation counts at each of DPLL_DEPTHS (the last count past
    its end) and its depth, or None once a check every 256 decisions finds the
    deadline passed."""
    engine.reset()
    props = engine.propagate()
    depth, reached = 0, []
    while not engine.conflict and not engine.satisfied():
        free = engine.free
        if not free:
            break
        var = free[rng.randrange(len(free))]
        engine.assign_var(var, rng.random() < 0.5)
        depth += 1
        if not engine.conflict:
            props += engine.propagate()
        if len(reached) < len(DPLL_DEPTHS) and depth == DPLL_DEPTHS[len(reached)]:
            reached.append(props)
        if deadline is not None and depth % 256 == 0 and time.perf_counter() > deadline:
            return None
    return [*reached, *[props] * (len(DPLL_DEPTHS) - len(reached)), depth]


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
    check (between dives and every 256 decisions of a dive), in
    deterministic mode too, and reports the dives it finished.
    """
    rng = random.Random(seed)
    engine = PropagationEngine(formula)
    dives = _runs(budget, budget.dpll_runs, lambda until: _dive(engine, rng, until), deadline)
    if not dives:
        return dict.fromkeys(DPLL_NAMES, 0.0)
    # log2 of a dive's product of branching factors, 2 per decision, is its depth
    values = [float(np.mean(c)) for c in zip(*dives)]
    return dict(zip(DPLL_NAMES, [*values, values[-1]]))


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
        free = engine.free
        if not free:
            return 1
        var = free[rng.randrange(len(free))]
        total = 1
        for value in (True, False):
            saved = (
                list(engine.assign),
                list(engine.true_count),
                list(engine.free_count),
                list(engine.free),
                engine.num_unsat,
                engine.conflict,
            )
            engine.assign_var(var, value)
            if not engine.conflict:
                engine.propagate()
            total += explore()
            if total > max_nodes:
                raise RuntimeError("DPLL tree too large for the oracle")
            (engine.assign, engine.true_count, engine.free_count, engine.free,
             engine.num_unsat, engine.conflict) = saved
        return total

    engine.reset()
    engine.propagate()
    return explore()


class _SlsState:
    """Clause bookkeeping and exact flip scores shared by the local-search probes.

    Built once per formula, and shared by the SAPS and GSAT probes of one
    `extract_all`: each clause's variables once per occurrence (`_occ_vars`).
    It reads the formula's occurrence lists and flat literal index, from
    which `random_init` computes a run's start with `np.bincount`. Per
    clause, `true_count` counts the true literal occurrences and `true_sum`
    adds up their variables, so while the count is 1 the sum is the
    variable of the one true literal.

    A variable's integer score is +1 for each of its true occurrences in a
    clause with true count 1 and -1 for each of its false occurrences in a
    clause with true count 0 (the change in unsatisfied clauses if it were
    flipped, with a variable that occurs twice in a clause counted per
    occurrence). A flip walks the flipped variable's occurrence lists one
    literal occurrence at a time: first the occurrences it makes true, then
    those it makes false, each in clause order. Each step moves one clause's
    true count by exactly 1, so a literal written twice is two steps, and a
    clause with both x and -x rises and falls back without becoming
    unsatisfied. Scores change only at the steps that move a count to or
    from 0 or 1, and a flip acts on those alone. What it keeps up depends on
    the mode:
    - exact (`weights` None), used by GSAT and by SAPS until it first
      changes a weight: `score` stays exact, by taking each such clause's old
      contributions away and adding its new ones, and `buckets` maps each
      score to the set of the variables that have it.
    - weighted, from `weigh` on: `score` holds weighted scores and `stale`
      the variables whose score may be out of date. A clause that becomes
      satisfied or unsatisfied marks all its variables, one whose true count
      moves between 1 and 2 the variable of its lone true literal, and the
      flipped variable is always marked; a SAPS run also marks the
      variables of each clause whose weight it changes. Stale scores are
      recomputed with `weighted_flip_delta` before use, so a score not
      marked stale equals a fresh one bit for bit. `cand` is the set of
      variables of unsatisfied clauses, kept through `cand_count`, each
      variable's number of occurrences in unsatisfied clauses.
    `unsat` sees its `discard` calls before its `add` calls, each group in
    clause order, because SAPS's walk step draws from `tuple(unsat)`.
    """

    def __init__(self, formula: CnfFormula):
        self.num_vars = formula.num_vars
        lits, occ_clause = formula.literals, formula.literal_clause
        occ_var = np.abs(lits)
        self.pos_occ, self.neg_occ = formula.occurrences
        self._occ_var, self._occ_pos, self._occ_clause = occ_var, lits > 0, occ_clause
        # each clause's variables once per occurrence
        self._occ_vars = split_flat(occ_var.tolist(), formula.clause_lengths)

    def random_init(self, rng: random.Random) -> None:
        """Start a run in exact mode from a random assignment."""
        n = self.num_vars
        m = len(self._occ_vars)
        assign = np.fromiter(chain((False,), (rng.random() < 0.5 for _ in range(n))), bool, n + 1)
        occ_var, occ_clause = self._occ_var, self._occ_clause
        occ_true = assign[occ_var] == self._occ_pos
        true_count = np.bincount(occ_clause, weights=occ_true, minlength=m).astype(np.int64)
        true_sum = np.bincount(occ_clause, weights=occ_var * occ_true, minlength=m)
        occ_tc = true_count[occ_clause]
        cand_count = np.bincount(occ_var[occ_tc == 0], minlength=n + 1)
        score = np.bincount(occ_var, weights=occ_true & (occ_tc == 1), minlength=n + 1)
        score = score.astype(np.int64) - cand_count
        self.assign = assign.tolist()
        self.true_count = true_count.tolist()
        self.true_sum = true_sum.astype(np.int64).tolist()
        self.unsat = set(np.flatnonzero(true_count == 0).tolist())
        self.cand_count = cand_count.tolist()
        self.score: list = score.tolist()
        self.stale: set[int] = set()
        self.weights: list[float] | None = None
        self.file_buckets(score)

    def file_buckets(self, score: np.ndarray) -> None:
        """File every variable in the bucket of its integer score, `score` as
        an array that equals `self.score`."""
        order = np.argsort(score[1:]) + 1
        keys, starts = np.unique(score[order], return_index=True)
        members = split_flat(order.tolist(), np.diff(starts, append=self.num_vars))
        self.buckets: dict[int, set[int]] | None = {
            k: set(vs) for k, vs in zip(keys.tolist(), members)}
        self._filed = list(self.score)  # the bucket each variable is in

    def weigh(self) -> None:
        """Switch from exact to weighted mode, with every clause weight 1.0.

        A weighted score is then a sum of +-1.0 terms, each exact in a
        double, so `float` of the integer score equals a fresh weighted one.
        """
        self.weights = [1.0] * len(self._occ_vars)
        self.score = [float(s) for s in self.score]
        count = self.cand_count = [0] * (self.num_vars + 1)
        for ci in self.unsat:
            for u in self._occ_vars[ci]:
                count[u] += 1
        self.cand = set(compress(range(len(count)), count))
        self.buckets = None

    def flip(self, var: int) -> None:
        new_value = not self.assign[var]
        self.assign[var] = new_value
        rising, falling = ((self.pos_occ[var], self.neg_occ[var]) if new_value
                           else (self.neg_occ[var], self.pos_occ[var]))
        true_count = self.true_count
        true_sum = self.true_sum
        unsat = self.unsat
        occ_vars = self._occ_vars
        if self.weights is None:
            score = self.score
            touched = []
            for ci in rising:
                t = true_count[ci]
                s = true_sum[ci]
                true_count[ci] = t + 1
                true_sum[ci] = s + var
                if t == 0:  # satisfied now, by var alone
                    unsat.discard(ci)
                    for u in occ_vars[ci]:
                        score[u] += 1
                    score[var] += 1
                    touched += occ_vars[ci]
                elif t == 1:  # the one true literal's variable is the true sum
                    score[s] -= 1
                    touched.append(s)
            for ci in falling:
                t = true_count[ci] = true_count[ci] - 1
                s = true_sum[ci] = true_sum[ci] - var
                if t == 0:  # unsatisfied now, var was its one true literal
                    unsat.add(ci)
                    for u in occ_vars[ci]:
                        score[u] -= 1
                    score[var] -= 1
                    touched += occ_vars[ci]
                elif t == 1:
                    score[s] += 1
                    touched.append(s)
            buckets = self.buckets
            filed = self._filed
            for u in touched:
                s, old = score[u], filed[u]
                if s != old:
                    bucket = buckets[old]
                    bucket.discard(u)
                    if not bucket:
                        del buckets[old]
                    if s in buckets:
                        buckets[s].add(u)
                    else:
                        buckets[s] = {u}
                    filed[u] = s
            return
        stale = self.stale
        cand = self.cand
        count = self.cand_count
        for ci in rising:
            t = true_count[ci]
            s = true_sum[ci]
            true_count[ci] = t + 1
            true_sum[ci] = s + var
            if t == 0:
                unsat.discard(ci)
                stale.update(occ_vars[ci])
                for u in occ_vars[ci]:
                    count[u] -= 1
                    if not count[u]:
                        cand.discard(u)
            elif t == 1:
                stale.add(s)
        for ci in falling:
            t = true_count[ci] = true_count[ci] - 1
            s = true_sum[ci] = true_sum[ci] - var
            if t == 0:
                unsat.add(ci)
                stale.update(occ_vars[ci])
                for u in occ_vars[ci]:
                    if not count[u]:
                        cand.add(u)
                    count[u] += 1
            elif t == 1:
                stale.add(s)
        stale.add(var)

    def weighted_flip_delta(self, var: int, weights: list[float]) -> float:
        value = self.assign[var]
        cur_side = self.pos_occ[var] if value else self.neg_occ[var]
        other_side = self.neg_occ[var] if value else self.pos_occ[var]
        true_count = self.true_count
        delta = 0.0
        for ci in cur_side:
            if true_count[ci] == 1:
                delta += weights[ci]
        for ci in other_side:
            if true_count[ci] == 0:
                delta -= weights[ci]
        return delta


def _finish_run(init_unsat, best_unsat, best_step, lm_counts, first_lm_best):
    """A run's best step, improvement per step up to it, first-local-minimum
    fraction and variation coefficient of the unsatisfied counts at local minima."""
    total = init_unsat - best_unsat
    per_step = total / best_step if best_step > 0 else 0.0
    frac = 1.0 if first_lm_best is None or total <= 0 else (init_unsat - first_lm_best) / total
    counts = np.asarray(lm_counts, dtype=float)
    mean = counts.mean() if counts.size >= 2 else 0.0
    cv = float(counts.std(ddof=1) / mean) if mean > 0 else 0.0
    return best_step, per_step, frac, cv


# Two clauses that cannot both hold grow their weights geometrically; all
# weights are divided by the limit once one passes it, so they stay finite
SAPS_WEIGHT_LIMIT = 2.0 ** 512
SAPS_ALPHA = 1.3  # factor on the weights of unsatisfied clauses at a local minimum
SAPS_RHO = 0.8  # smoothing keeps this share of each weight and moves the rest to the mean
SAPS_P_SMOOTH = 0.05  # probability of smoothing after a scaling step
SAPS_P_WALK = 0.01  # probability of a random walk step at a local minimum


def _saps_run(state: _SlsState, rng: random.Random, max_steps: int,
              deadline) -> tuple | None:
    state.random_init(rng)
    buckets = state.buckets
    unsat = state.unsat
    stale = state.stale
    occ_vars = state._occ_vars
    weights = None
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
        if weights is None:
            # Until the first weight change every weight is 1.0, so each
            # weighted score is the exact integer score that the buckets
            # keep, and the lowest bucket holds the ties a scan of the
            # candidates would find (a negative score needs an unsatisfied
            # clause, and -1 < -1e-12)
            best_delta = min(buckets)
            ties = buckets[best_delta]
        else:
            fresh = stale & cand
            for v in fresh:
                score[v] = state.weighted_flip_delta(v, weights)
            stale -= fresh
            best_delta = min(map(score.__getitem__, cand))
            ties = [v for v in cand if score[v] == best_delta] if best_delta < -1e-12 else ()
        if best_delta < -1e-12:
            pick = rng.randrange(len(ties))
            state.flip(sorted(ties)[pick] if len(ties) > 1 else min(ties))
        else:
            # local minimum under the current weights
            lm_counts.append(len(unsat))
            if first_lm_best is None:
                first_lm_best = best_unsat
            if rng.random() < SAPS_P_WALK:
                clause = occ_vars[rng.choice(tuple(unsat))]
                state.flip(clause[rng.randrange(len(clause))])
            else:
                if weights is None:  # the first weight change: `weigh` makes the
                    # exact integer scores floats, which equal weighted ones here
                    state.weigh()
                    weights, score, cand = state.weights, state.score, state.cand
                rescale = False
                for ci in unsat:
                    weights[ci] *= SAPS_ALPHA
                    rescale |= weights[ci] > SAPS_WEIGHT_LIMIT
                    stale.update(occ_vars[ci])
                if rescale:
                    # a power of two scales every weight and score exactly
                    weights[:] = [w / SAPS_WEIGHT_LIMIT for w in weights]
                    stale.update(range(1, state.num_vars + 1))
                if rng.random() < SAPS_P_SMOOTH:
                    mean_w = sum(weights) / len(weights)
                    weights[:] = [w * SAPS_RHO + (1 - SAPS_RHO) * mean_w for w in weights]
                    stale.update(range(1, state.num_vars + 1))
        if len(unsat) < best_unsat:
            best_unsat = len(unsat)
            best_step = step
    return _finish_run(init_unsat, best_unsat, best_step, lm_counts, first_lm_best)


GSAT_STALL_LIMIT = 100


def _gsat_run(state: _SlsState, rng: random.Random, max_steps: int, deadline) -> tuple | None:
    state.random_init(rng)
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
            stall = 0
            if not state.unsat:
                if len(state.unsat) < best_unsat:
                    best_unsat = 0
                    best_step = step
                break
        best_delta = min(state.buckets)
        if best_delta >= 0:
            lm_counts.append(len(state.unsat))
            if first_lm_best is None:
                first_lm_best = best_unsat
        ties = state.buckets[best_delta]
        pick = rng.randrange(len(ties))
        state.flip(sorted(ties)[pick] if len(ties) > 1 else min(ties))
        if len(state.unsat) < best_unsat:
            best_unsat = len(state.unsat)
            best_step = step
            stall = 0
        else:
            stall += 1
    return _finish_run(init_unsat, best_unsat, best_step, lm_counts, first_lm_best)


def _runs(budget: ProbeBudget, count: int, run, deadline: float | None) -> list:
    """The results of up to `count` calls run(group deadline), stopping between
    runs once that deadline has passed and at a run that returns None (one it
    interrupted). The group deadline is the earlier of `deadline` and, in
    wall-clock mode, the end of the group's own `per_probe_seconds`."""
    if not budget.deterministic:
        own = time.perf_counter() + budget.per_probe_seconds
        deadline = own if deadline is None else min(deadline, own)
    results = []
    for _ in range(count):
        if deadline is not None and time.perf_counter() > deadline:
            break
        result = run(deadline)
        if result is None:
            break
        results.append(result)
    return results


def _ls_runs(formula, budget, seed, run_fn, deadline, state) -> list[tuple]:
    rng = random.Random(seed)
    state = state or _SlsState(formula)
    max_steps = max(1, budget.max_ls_steps // budget.ls_runs)
    return _runs(budget, budget.ls_runs, lambda until: run_fn(state, rng, max_steps, until),
                 deadline)


def saps_probe(formula: CnfFormula, budget: ProbeBudget, seed: int,
               deadline: float | None = None, state: _SlsState | None = None) -> dict[str, float]:
    """SAPS local-search probe; features 41-46 and 48.

    `deadline` (a `time.perf_counter()` value) stops the runs in either
    mode, as `dpll_probe` describes. `state`, an `_SlsState` of `formula`,
    saves building a second one when both local-search probes run.
    """
    stats = _ls_runs(formula, budget, seed, _saps_run, deadline, state)
    if not stats:
        return dict.fromkeys(SAPS_NAMES, 0.0)
    best_steps, per_step, first_lm, cv = np.array(stats, dtype=float).T
    return dict(zip(SAPS_NAMES, map(float, (
        best_steps.mean(), *np.percentile(best_steps, (50, 10, 90)),
        per_step.mean(), first_lm.mean(), cv.mean()))))


def gsat_probe(formula: CnfFormula, budget: ProbeBudget, seed: int,
               deadline: float | None = None, state: _SlsState | None = None) -> dict[str, float]:
    """GSAT local-search probe; feature 47. `deadline` and `state` as in
    `dpll_probe` and `saps_probe`."""
    stats = _ls_runs(formula, budget, seed, _gsat_run, deadline, state)
    if not stats:
        return dict.fromkeys(GSAT_NAMES, 0.0)
    return dict(zip(GSAT_NAMES, [float(np.mean([first_lm for _, _, first_lm, _ in stats]))]))
