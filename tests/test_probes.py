import json
import math
import random
import time
import weakref
from pathlib import Path
from types import SimpleNamespace

import pytest

from zfolio import probes
from zfolio.cnf import CnfFormula
from zfolio.features import extract_all
from zfolio.probes import (
    DPLL_NAMES,
    GSAT_NAMES,
    GSAT_STALL_LIMIT,
    SAPS_NAMES,
    Assignment,
    ProbeBudget,
    PropagationEngine,
    _finish_run,
    _gsat_run,
    _saps_run,
    _SlsState,
    dpll_probe,
    dpll_tree_size,
    gsat_probe,
    saps_probe,
    unit_propagate,
)
from conftest import mixed_cnf, random_3cnf


def assigned(a):
    return sum(a.value(v) is not None for v in range(1, a.num_vars + 1))


def make(num_vars, clauses):
    return CnfFormula(num_vars=num_vars, clauses=clauses)


def small_budget(**kw):
    defaults = dict(max_ls_steps=400, ls_runs=4, dpll_runs=5, deterministic=True)
    defaults.update(kw)
    return ProbeBudget(**defaults)


@pytest.mark.parametrize("field, value", [
    ("total_seconds", float("nan")), ("total_seconds", float("inf")),
    ("per_probe_seconds", float("nan")), ("per_probe_seconds", float("-inf")),
    ("max_ls_steps", 2.5), ("ls_runs", 4.0), ("dpll_runs", "10"), ("ls_runs", True),
])
def test_probe_budget_refuses_a_value_out_of_its_domain(field, value):
    # a nan budget would be no budget: every `perf_counter() > nan` is False
    with pytest.raises(ValueError, match=field):
        ProbeBudget(**{field: value})


class TestUnitPropagate:
    def test_single_unit_clause(self):
        f = make(2, [[2]])
        out, count, conflict = unit_propagate(f, Assignment(2))
        assert out.value(2) is True
        assert count == 1
        assert conflict is False

    def test_immediate_contradiction(self):
        f = make(1, [[1], [-1]])
        _, count, conflict = unit_propagate(f, Assignment(1))
        assert count == 1
        assert conflict is True

    def test_chained_propagation(self):
        f = make(3, [[1, 2], [-1, 2], [-2, 3]])
        a = Assignment(3)
        a.set(1, False)
        out, count, conflict = unit_propagate(f, a)
        assert out.value(2) is True
        assert out.value(3) is True
        assert count == 2
        assert conflict is False

    def test_never_unassigns(self):
        f = make(3, [[1, 2], [-2, 3]])
        a = Assignment(3)
        a.set(1, True)
        out, count, _ = unit_propagate(f, a)
        assert out.value(1) is True
        # count equals the number of unassigned -> assigned transitions
        assert assigned(out) - assigned(a) == count

    def test_input_not_mutated(self):
        f = make(2, [[1], [2]])
        a = Assignment(2)
        unit_propagate(f, a)
        assert assigned(a) == 0

    def test_seed_conflict_detected(self):
        f = make(2, [[1, 2]])
        a = Assignment(2)
        a.set(1, False)
        a.set(2, False)
        _, count, conflict = unit_propagate(f, a)
        assert conflict is True
        assert count == 0


class TestDpllProbe:
    def test_solved_by_up_before_decisions(self):
        f = make(1, [[1]])
        feats = dpll_probe(f, small_budget(), seed=7)
        assert feats["f39_dpll_mean_depth"] == 0.0
        assert feats["f40_dpll_log_nodes"] == 0.0

    def test_conflict_at_root(self):
        f = make(1, [[1], [-1]])
        feats = dpll_probe(f, small_budget(), seed=7)
        assert feats["f39_dpll_mean_depth"] == 0.0

    def test_depth_gates_cumulative_and_monotone(self, rng):
        f = random_3cnf(12, 40, rng)
        feats = dpll_probe(f, small_budget(dpll_runs=20), seed=3)
        gates = [feats[f"f{k}_up_depth{d}"] for k, d in
                 ((34, 1), (35, 4), (36, 16), (37, 64), (38, 256))]
        assert all(b >= a for a, b in zip(gates, gates[1:]))

    def test_unsat_regime_depth_stability(self, rng):
        # 10-variable random 3-CNF at ratio 6.0: conflicts before exhausting vars
        f = random_3cnf(10, 60, rng)
        values = []
        for seed in range(5):
            feats = dpll_probe(f, small_budget(dpll_runs=40), seed=seed)
            values.append(feats["f39_dpll_mean_depth"])
        mean = sum(values) / len(values)
        assert mean > 0
        assert all(abs(v - mean) <= 0.2 * mean for v in values)

    def test_determinism(self, rng):
        f = random_3cnf(15, 50, rng)
        a = dpll_probe(f, small_budget(), seed=9)
        b = dpll_probe(f, small_budget(), seed=9)
        assert a == b

    def test_estimator_against_exhaustive_oracle(self, rng):
        # brute-force DPLL tree on the same tiny formula bounds the estimate
        f = random_3cnf(8, 24, rng)
        feats = dpll_probe(f, small_budget(dpll_runs=400), seed=5)
        truth = math.log2(dpll_tree_size(f, seed=11))
        est = feats["f40_dpll_log_nodes"]
        assert truth / 4 - 1e-9 <= est <= truth * 4 + 1e-9


class TestSapsProbe:
    def test_single_positive_unit(self):
        f = make(1, [[1]])
        feats = saps_probe(f, small_budget(), seed=2)
        for name in ("f41_saps_beststep_mean", "f42_saps_beststep_median",
                     "f43_saps_beststep_q10", "f44_saps_beststep_q90"):
            assert 0.0 <= feats[name] <= 1.0

    def test_contradiction_constant_objective(self):
        f = make(1, [[1], [-1]])
        feats = saps_probe(f, small_budget(max_ls_steps=200, ls_runs=2), seed=2)
        assert feats["f48_saps_cv_unsat"] == 0.0

    def test_weights_stay_finite_on_a_contradiction(self):
        # units [1] and [-1] take turns being unsatisfied, so their weights
        # grow at every local minimum; unbounded they reach inf by this step
        state = _SlsState(make(2, [[1], [-1], [1, 2]]))
        _saps_run(state, random.Random(0), 15000, None)
        assert all(math.isfinite(w) for w in state.weights)
        assert all(math.isfinite(state.weighted_flip_delta(v, state.weights)) for v in (1, 2))

    def test_determinism(self, rng):
        f = random_3cnf(20, 60, rng)
        a = saps_probe(f, small_budget(), seed=13)
        b = saps_probe(f, small_budget(), seed=13)
        assert a == b

    def test_fraction_bounds(self, rng):
        f = random_3cnf(15, 60, rng)
        feats = saps_probe(f, small_budget(), seed=1)
        assert 0.0 <= feats["f46_saps_first_lm_frac"] <= 1.0


class TestGsatProbe:
    def test_single_positive_unit(self):
        f = make(1, [[1]])
        feats = gsat_probe(f, small_budget(), seed=2)
        assert feats["f47_gsat_first_lm_frac"] == 1.0

    def test_contradiction(self):
        f = make(1, [[1], [-1]])
        feats = gsat_probe(f, small_budget(max_ls_steps=100, ls_runs=2), seed=2)
        assert feats["f47_gsat_first_lm_frac"] == 1.0

    def test_determinism(self, rng):
        f = random_3cnf(12, 40, rng)
        a = gsat_probe(f, small_budget(), seed=21)
        b = gsat_probe(f, small_budget(), seed=21)
        assert a == b

    def test_fraction_bounds(self, rng):
        f = random_3cnf(15, 60, rng)
        feats = gsat_probe(f, small_budget(), seed=4)
        assert 0.0 <= feats["f47_gsat_first_lm_frac"] <= 1.0


@pytest.mark.parametrize("probe, names", [(saps_probe, SAPS_NAMES), (gsat_probe, GSAT_NAMES),
                                          (dpll_probe, DPLL_NAMES)], ids=["saps", "gsat", "dpll"])
@pytest.mark.parametrize("passed", [False, True], ids=["values", "zeros"])
def test_probe_returns_its_names_in_order(probe, names, passed, rng):
    f = random_3cnf(30, 120, rng)
    feats = probe(f, small_budget(), seed=3, deadline=time.perf_counter() if passed else None)
    assert tuple(feats) == names
    assert any(feats.values()) != passed  # all zero once the deadline has passed


class TestPassedDeadline:
    @pytest.mark.parametrize("probe", [saps_probe, gsat_probe, dpll_probe])
    def test_stops_the_group_in_deterministic_mode(self, probe, rng):
        f = random_3cnf(30, 180, rng)
        feats = probe(f, small_budget(), seed=3, deadline=time.perf_counter())
        assert all(v == 0.0 for v in feats.values())

    def test_stops_a_dpll_dive_within_one_check_interval(self, monkeypatch):
        # 1,000 disjoint binary clauses take a dive at least 1,000 decisions
        # to satisfy; the clock passes the deadline at the 300th
        f = make(2000, [[2 * k + 1, 2 * k + 2] for k in range(1000)])
        now, decisions = [0.0], []

        class Draws(random.Random):
            def randrange(self, *args):  # called once per decision, to pick its variable
                decisions.append(None)
                if len(decisions) == 300:
                    now[0] = 2.0
                return super().randrange(*args)
        monkeypatch.setattr(probes, "time", SimpleNamespace(perf_counter=lambda: now[0]))
        monkeypatch.setattr(probes, "random", SimpleNamespace(Random=Draws))
        feats = dpll_probe(f, small_budget(), seed=3, deadline=1.0)
        assert 300 < len(decisions) <= 300 + 256
        assert all(v == 0.0 for v in feats.values())  # the interrupted dive is dropped


def test_occurrence_lists_shared_by_both_engines():
    f = make(3, [[1, 1, -2], [2, -2], [-3], [3, -1, 2]])
    engine, sls = PropagationEngine(f), _SlsState(f)
    assert engine.pos_occ is sls.pos_occ is f.occurrences[0]
    assert engine.neg_occ is sls.neg_occ is f.occurrences[1]
    assert engine.pos_occ == [[], [0, 0], [1, 3], [3]]
    assert engine.neg_occ == [[], [3], [0, 1], [2]]
    assert sls._occ_vars == [[abs(lit) for lit in c] for c in f.clauses]


# -- flip-score cache ---------------------------------------------------
#
# The two loops below are the local-search runs as they were before the
# score cache: every step rescores every candidate from scratch. They are
# the reference the cached runs must reproduce exactly.

def flip_delta(state, var):
    """Change in unsatisfied-clause count if var were flipped, counted from
    the occurrence lists: the integer score `_SlsState` keeps."""
    value = state.assign[var]
    # clauses where var's current literal is true may break
    cur_side = state.pos_occ[var] if value else state.neg_occ[var]
    other_side = state.neg_occ[var] if value else state.pos_occ[var]
    breaks = sum(state.true_count[ci] == 1 for ci in cur_side)
    makes = sum(state.true_count[ci] == 0 for ci in other_side)
    return breaks - makes


def _saps_run_reference(state, rng, max_steps, deadline):
    state.random_init(rng)
    weights = [1.0] * len(state.true_count)
    init_unsat = len(state.unsat)
    best_unsat = init_unsat
    best_step = 0
    lm_counts = []
    first_lm_best = None
    for step in range(1, max_steps + 1):
        if not state.unsat:
            break
        cand = sorted({v for ci in state.unsat for v in state._occ_vars[ci]})
        deltas = [state.weighted_flip_delta(v, weights) for v in cand]
        best_delta = min(deltas)
        if best_delta < -1e-12:
            choices = [v for v, d in zip(cand, deltas) if d == best_delta]
            state.flip(choices[rng.randrange(len(choices))])
        else:
            lm_counts.append(len(state.unsat))
            if first_lm_best is None:
                first_lm_best = best_unsat
            if rng.random() < probes.SAPS_P_WALK:
                clause_vars = state._occ_vars[rng.choice(tuple(state.unsat))]
                state.flip(clause_vars[rng.randrange(len(clause_vars))])
            else:
                for ci in state.unsat:
                    weights[ci] *= probes.SAPS_ALPHA
                if rng.random() < probes.SAPS_P_SMOOTH:
                    mean_w = sum(weights) / len(weights)
                    for ci in range(len(weights)):
                        rho = probes.SAPS_RHO
                        weights[ci] = weights[ci] * rho + (1 - rho) * mean_w
        if len(state.unsat) < best_unsat:
            best_unsat = len(state.unsat)
            best_step = step
    return _finish_run(init_unsat, best_unsat, best_step, lm_counts, first_lm_best)


def _gsat_run_reference(state, rng, max_steps, deadline):
    state.random_init(rng)
    init_unsat = len(state.unsat)
    best_unsat = init_unsat
    best_step = 0
    lm_counts = []
    first_lm_best = None
    stall = 0
    for step in range(1, max_steps + 1):
        if not state.unsat:
            break
        if stall >= GSAT_STALL_LIMIT:
            state.random_init(rng)
            stall = 0
            if not state.unsat:
                if len(state.unsat) < best_unsat:
                    best_unsat = 0
                    best_step = step
                break
        deltas = [flip_delta(state, v) for v in range(1, state.num_vars + 1)]
        best_delta = min(deltas)
        if best_delta >= 0:
            lm_counts.append(len(state.unsat))
            if first_lm_best is None:
                first_lm_best = best_unsat
        choices = [v + 1 for v, d in enumerate(deltas) if d == best_delta]
        state.flip(choices[rng.randrange(len(choices))])
        if len(state.unsat) < best_unsat:
            best_unsat = len(state.unsat)
            best_step = step
            stall = 0
        else:
            stall += 1
    return _finish_run(init_unsat, best_unsat, best_step, lm_counts, first_lm_best)


def _cache_formulas():
    out = [
        make(3, [[1, 1, 2], [1, -1], [-2], [2, 3], [-1, -3, 3], [-3, -3]]),
        make(4, [[1], [-1], [2, -3], [3, 4, 4], [-4, 2, -2], [-2, -3, 1]]),
        # a flip steps once per occurrence: through 0 -> 1 -> 2 -> 3 on [-2, -2, -2]
        # and [1, 1, 1, 3], and up and back down on [4, -4, 4], never unsatisfied
        make(4, [[-2, -2, -2], [1, 1, 1, 3], [4, -4, 4], [-1, 2], [-3, -4, 2], [3, -1, -1]]),
    ]
    for k in range(4):
        rng = random.Random(100 + k)
        out.append(random_3cnf(rng.randint(10, 40), rng.randint(30, 200), rng))
        out.append(mixed_cnf(rng.randint(8, 30), rng.randint(20, 150), rng))
    return out


CACHE_FORMULAS = _cache_formulas()
# the SAPS constants as they are, and set to walk and smooth often
SAPS_SETTINGS = [{}, {"SAPS_P_WALK": 0.3, "SAPS_P_SMOOTH": 0.5}]


def _ls_trace(run, formula, seed, runs=5, steps=300):
    """Per run: its stats, the final assignment and the next RNG draw."""
    state = _SlsState(formula)
    rng = random.Random(seed)
    out = []
    for _ in range(runs):
        stats = run(state, rng, steps)
        out.append((stats, list(state.assign), rng.random()))
    return out


def _check_cache(state):
    """Every score not marked stale equals a fresh recomputation."""
    weights = state.weights
    for v in range(1, state.num_vars + 1):
        if v in state.stale:
            continue
        fresh = flip_delta(state, v) if weights is None else state.weighted_flip_delta(v, weights)
        assert state.score[v] == fresh, v


@pytest.fixture
def checked_flips(monkeypatch):
    """Check the score cache before and after every flip; counts the flips."""
    flips = [0]
    original = _SlsState.flip

    def flip(self, var):
        _check_cache(self)
        original(self, var)
        _check_cache(self)
        flips[0] += 1

    monkeypatch.setattr(_SlsState, "flip", flip)
    return flips


class TestScoreCache:
    @pytest.mark.parametrize("fi", range(len(CACHE_FORMULAS)))
    @pytest.mark.parametrize("params", SAPS_SETTINGS)
    def test_saps_cache_matches_fresh_scores_and_reference(self, fi, params, checked_flips,
                                                           monkeypatch):
        for name, value in params.items():
            monkeypatch.setattr(probes, name, value)
        f = CACHE_FORMULAS[fi]
        cached = _ls_trace(lambda st, rng, n: _saps_run(st, rng, n, None), f, seed=fi)
        assert checked_flips[0] > 0
        reference = _ls_trace(lambda st, rng, n: _saps_run_reference(st, rng, n, None),
                              f, seed=fi)
        assert cached == reference

    @pytest.mark.parametrize("fi", range(len(CACHE_FORMULAS)))
    def test_gsat_cache_matches_fresh_scores_and_reference(self, fi, checked_flips):
        f = CACHE_FORMULAS[fi]
        cached = _ls_trace(lambda st, rng, n: _gsat_run(st, rng, n, None), f, seed=fi)
        assert checked_flips[0] > 0
        reference = _ls_trace(lambda st, rng, n: _gsat_run_reference(st, rng, n, None),
                              f, seed=fi)
        assert cached == reference

    def test_probes_match_reference_loops(self, monkeypatch):
        f = random_3cnf(60, 300, random.Random(7))
        budget = small_budget(max_ls_steps=2000, ls_runs=5)
        cached = (saps_probe(f, budget, seed=4), gsat_probe(f, budget, seed=4))
        monkeypatch.setattr("zfolio.probes._saps_run", _saps_run_reference)
        monkeypatch.setattr("zfolio.probes._gsat_run", _gsat_run_reference)
        assert (saps_probe(f, budget, seed=4), gsat_probe(f, budget, seed=4)) == cached


def _start_from_scratch(formula, rng):
    """A run's start computed clause by clause: the assignment, true counts,
    unsatisfied clauses in insertion order, each variable's occurrences in
    them and scores."""
    clauses = formula.clauses  # rebuilt on each access
    assign = [False] + [rng.random() < 0.5 for _ in range(formula.num_vars)]
    true_count = [sum(assign[abs(lit)] == (lit > 0) for lit in c) for c in clauses]
    unsat = {ci for ci, tc in enumerate(true_count) if tc == 0}
    cand_count = [0] * (formula.num_vars + 1)
    for ci in unsat:
        for lit in clauses[ci]:
            cand_count[abs(lit)] += 1
    score = [0] * (formula.num_vars + 1)
    for clause, tc in zip(clauses, true_count):
        for lit in clause:
            true = assign[abs(lit)] == (lit > 0)
            if true and tc == 1:
                score[abs(lit)] += 1
            elif not true and tc == 0:
                score[abs(lit)] -= 1
    return assign, true_count, list(unsat), cand_count, score


START_FORMULAS = CACHE_FORMULAS + [random_3cnf(400, 1704, random.Random(400))]


@pytest.mark.parametrize("fi", range(len(START_FORMULAS)))
def test_random_init_matches_a_start_from_scratch(fi):
    f = START_FORMULAS[fi]
    state = _SlsState(f)
    for seed in range(3):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        state.random_init(rng)
        assign, true_count, unsat, cand_count, score = _start_from_scratch(f, ref_rng)
        assert state.assign == assign
        assert state.true_count == true_count
        assert list(state.unsat) == unsat
        assert state.cand_count == cand_count
        assert state.score == score
        assert rng.random() == ref_rng.random()


def _check_buckets(state):
    """The buckets partition 1..n by score, and none is empty."""
    filed = {}
    for s, members in state.buckets.items():
        assert members
        for v in members:
            assert v not in filed
            filed[v] = s
    assert filed == {v: state.score[v] for v in range(1, state.num_vars + 1)}


@pytest.mark.parametrize("fi", range(len(CACHE_FORMULAS)))
def test_gsat_buckets_partition_the_variables_by_score(fi, monkeypatch):
    checks = [0]
    original_file, original_flip = _SlsState.file_buckets, _SlsState.flip

    def checked(original):
        def method(self, *args):
            original(self, *args)
            _check_buckets(self)
            checks[0] += 1
        return method

    monkeypatch.setattr(_SlsState, "file_buckets", checked(original_file))
    monkeypatch.setattr(_SlsState, "flip", checked(original_flip))
    _ls_trace(lambda st, rng, n: _gsat_run(st, rng, n, None), CACHE_FORMULAS[fi], seed=fi)
    assert checks[0] > 5


def test_threshold_formula_matches_reference_loops_through_restarts(monkeypatch):
    # 2,000-step runs at ratio 4.26 stall long enough for GSAT to restart
    f = random_3cnf(200, 852, random.Random(200))
    starts = [0]
    original_init = _SlsState.random_init

    def random_init(self, rng):
        starts[0] += 1
        original_init(self, rng)

    monkeypatch.setattr(_SlsState, "random_init", random_init)
    for run, reference in ((_saps_run, _saps_run_reference), (_gsat_run, _gsat_run_reference)):
        starts[0] = 0
        new = _ls_trace(lambda st, rng, n: run(st, rng, n, None), f, seed=5, runs=5, steps=2000)
        assert new == _ls_trace(lambda st, rng, n: reference(st, rng, n, None), f, seed=5,
                                runs=5, steps=2000)
    assert starts[0] > 5  # the GSAT runs restarted


class _CallLog(set):
    """A set that logs its `discard` and `add` calls."""

    def __init__(self, items, log):
        super().__init__(items)
        self.log = log

    def discard(self, x):
        self.log.append(("discard", x))
        super().discard(x)

    def add(self, x):
        self.log.append(("add", x))
        super().add(x)


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("fi", range(len(CACHE_FORMULAS)))
def test_a_flip_discards_from_unsat_before_it_adds(fi, weighted):
    # the order of the calls shapes the set's iteration order, from which
    # SAPS's walk step draws
    f = CACHE_FORMULAS[fi]
    state, rng = _SlsState(f), random.Random(fi)
    state.random_init(rng)
    if weighted:
        state.weigh()
    log = []
    state.unsat = _CallLog(state.unsat, log)
    for _ in range(50):
        var = rng.randint(1, f.num_vars)
        before = list(state.true_count)
        log.clear()
        state.flip(var)
        clauses = sorted(set(state.pos_occ[var] + state.neg_occ[var]))
        made = [("discard", c) for c in clauses if before[c] == 0 < state.true_count[c]]
        broken = [("add", c) for c in clauses if before[c] > 0 == state.true_count[c]]
        assert log == made + broken
        assert state.unsat == {c for c, tc in enumerate(state.true_count) if tc == 0}


def planted_3cnf(num_vars, num_clauses, rng):
    """Random 3-CNF that a hidden assignment satisfies, as perfbench's
    ratio-3 family: clauses the assignment falsifies are drawn again."""
    planted = [rng.random() < 0.5 for _ in range(num_vars + 1)]
    clauses = []
    while len(clauses) < num_clauses:
        clause = [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, num_vars + 1), 3)]
        if any((lit > 0) == planted[abs(lit)] for lit in clause):
            clauses.append(clause)
    return make(num_vars, clauses)


def _saps_against_reference(formula, seed, runs, steps):
    """Runs `_saps_run` and `_saps_run_reference` from the same seed and
    checks that each run's stats, final assignment and next RNG draw are
    equal. Per run, returns whether no weight changed and whether it solved
    the formula."""
    state, ref_state = _SlsState(formula), _SlsState(formula)
    rng, ref_rng = random.Random(seed), random.Random(seed)
    ends = []
    for _ in range(runs):
        stats = _saps_run(state, rng, steps, None)
        assert stats == _saps_run_reference(ref_state, ref_rng, steps, None)
        assert state.assign == ref_state.assign
        assert rng.random() == ref_rng.random()
        ends.append((state.weights is None, not state.unsat))
    return ends


PERFBENCH_SHAPES = {
    "planted_3": lambda: planted_3cnf(400, 1200, random.Random(3)),
    "threshold_4.26": lambda: random_3cnf(400, 1704, random.Random(4)),
    "over_6": lambda: random_3cnf(400, 2400, random.Random(6)),
    "mixed_2_3": lambda: mixed_cnf(400, 1000, random.Random(25)),
}


class TestSapsDescent:
    """SAPS runs on the exact integer scores until it first changes a
    weight, and must still take every step the reference loop takes."""

    def test_a_step_budget_spent_in_the_descent(self):
        f = random_3cnf(400, 1704, random.Random(17))
        assert _saps_against_reference(f, seed=0, runs=3, steps=30) == [(True, False)] * 3

    def test_runs_solved_in_the_descent(self):
        f = planted_3cnf(60, 180, random.Random(60))
        ends = _saps_against_reference(f, seed=2, runs=6, steps=200)
        assert (True, True) in ends and all(solved for _, solved in ends)

    def test_a_run_that_starts_at_a_local_minimum(self):
        f = make(1, [[1], [-1]])
        state = _SlsState(f)
        state.random_init(random.Random(0))
        assert min(state.buckets) == 0
        assert _saps_against_reference(f, seed=0, runs=4, steps=5) == [(False, False)] * 4

    @pytest.mark.parametrize("shape", sorted(PERFBENCH_SHAPES))
    def test_perfbench_shaped_runs(self, shape):
        _saps_against_reference(PERFBENCH_SHAPES[shape](), seed=1, runs=20, steps=100)

    def test_no_weighted_score_while_every_weight_is_one(self, monkeypatch):
        calls = [0]
        original = _SlsState.weighted_flip_delta

        def counted(self, var, weights):
            assert any(w != 1.0 for w in weights)
            calls[0] += 1
            return original(self, var, weights)

        monkeypatch.setattr(_SlsState, "weighted_flip_delta", counted)
        for shape in sorted(PERFBENCH_SHAPES):
            saps_probe(PERFBENCH_SHAPES[shape](), small_budget(max_ls_steps=2000, ls_runs=20),
                       seed=1)
        assert calls[0] > 0


@pytest.mark.parametrize("shape", sorted(PERFBENCH_SHAPES))
def test_gsat_perfbench_shaped_runs(shape):
    f = PERFBENCH_SHAPES[shape]()
    new = _ls_trace(lambda st, rng, n: _gsat_run(st, rng, n, None), f, seed=1, runs=20, steps=100)
    assert new == _ls_trace(lambda st, rng, n: _gsat_run_reference(st, rng, n, None), f, seed=1,
                            runs=20, steps=100)


# -- DPLL dives ---------------------------------------------------------
#
# The dive and the tree oracle as they were before `PropagationEngine.free`:
# the unassigned variables are rebuilt, in increasing order, before every
# decision. They are the reference the dives on `free` must reproduce.

def _unassigned(engine):
    return [v for v in range(1, engine.num_vars + 1) if engine.assign[v] == probes.UNASSIGNED]


def _dive_reference(engine, rng, deadline):
    engine.reset()
    props = engine.propagate()
    depth, reached = 0, []
    while not engine.conflict and not engine.satisfied():
        free = _unassigned(engine)
        if not free:
            break
        var = free[rng.randrange(len(free))]
        engine.assign_var(var, rng.random() < 0.5)
        depth += 1
        if not engine.conflict:
            props += engine.propagate()
        if len(reached) < len(probes.DPLL_DEPTHS) and depth == probes.DPLL_DEPTHS[len(reached)]:
            reached.append(props)
    return [*reached, *[props] * (len(probes.DPLL_DEPTHS) - len(reached)), depth]


def _tree_size_reference(formula, seed):
    rng = random.Random(seed)
    engine = PropagationEngine(formula)

    def explore():
        if engine.conflict or engine.satisfied():
            return 1
        free = _unassigned(engine)
        if not free:
            return 1
        var = free[rng.randrange(len(free))]
        total = 1
        for value in (True, False):
            saved = (list(engine.assign), list(engine.true_count), list(engine.free_count),
                     list(engine.free), engine.num_unsat, engine.conflict)
            engine.assign_var(var, value)
            if not engine.conflict:
                engine.propagate()
            total += explore()
            (engine.assign, engine.true_count, engine.free_count, engine.free,
             engine.num_unsat, engine.conflict) = saved
        return total

    engine.reset()
    engine.propagate()
    return explore()


DPLL_FORMULAS = {
    "random": lambda: random_3cnf(40, 170, random.Random(41)),
    "unsat": lambda: random_3cnf(20, 140, random.Random(42)),
    "mixed": lambda: mixed_cnf(50, 160, random.Random(43)),
    "units": lambda: make(30, random_3cnf(30, 100, random.Random(44)).clauses
                          + [[3], [-7], [11], [5, 5], [-20]]),
    "duplicates": lambda: make(8, [[1, 1, -2], [2, -2, 3], [-3, -3], [4, 5, 4], [-1, -5, -5],
                                   [6, 7, -8], [-6, -6, -6], [8, -7, 1, 1], [2, 3, 4]]),
}


@pytest.mark.parametrize("name", sorted(DPLL_FORMULAS))
def test_dives_match_the_rebuild_per_decision_reference(name, monkeypatch):
    f = DPLL_FORMULAS[name]()
    engine, ref_engine = PropagationEngine(f), PropagationEngine(f)
    for seed in range(3):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        for _ in range(20):
            assert probes._dive(engine, rng, None) == _dive_reference(ref_engine, ref_rng, None)
            assert engine.free == _unassigned(engine)
        assert rng.random() == ref_rng.random()
    budget = small_budget(dpll_runs=25)
    feats = dpll_probe(f, budget, seed=9)
    monkeypatch.setattr(probes, "_dive", _dive_reference)
    assert dpll_probe(f, budget, seed=9) == feats


@pytest.mark.parametrize("name", ["unsat", "duplicates"])
def test_tree_size_matches_the_rebuild_per_decision_reference(name):
    f = DPLL_FORMULAS[name]()
    for seed in range(3):
        assert dpll_tree_size(f, seed=seed) == _tree_size_reference(f, seed)


def test_extract_all_shares_one_local_search_index_and_frees_it_before_dpll(monkeypatch):
    import zfolio.features as features_mod

    built = []
    original_init = _SlsState.__init__

    def init(self, formula):
        original_init(self, formula)
        built.append(weakref.ref(self))

    real_dpll = features_mod.dpll_probe

    def dpll(*args, **kwargs):
        assert len(built) == 1 and built[0]() is None
        return real_dpll(*args, **kwargs)

    monkeypatch.setattr(_SlsState, "__init__", init)
    monkeypatch.setattr(features_mod, "dpll_probe", dpll)
    fv = extract_all(random_3cnf(30, 120, random.Random(5)), small_budget(), seed=3)
    assert fv.values is not None and len(built) == 1


# All 48 features of four formulas, recorded with the from-scratch probe
# loops above; exact float equality, stored as float.hex().
GOLDEN_PATH = Path(__file__).parent / "data" / "extract_all_golden.json"
GOLDEN_BUDGET = ProbeBudget(max_ls_steps=3000, ls_runs=6, dpll_runs=8)
GOLDEN_CASES = {
    "random3_60": (lambda: random_3cnf(60, 256, random.Random(1)), 11),
    "random3_40_unsat": (lambda: random_3cnf(40, 240, random.Random(2)), 12),
    "mixed_50": (lambda: mixed_cnf(50, 160, random.Random(3)), 13),
    "mixed_30_dense": (lambda: mixed_cnf(30, 150, random.Random(4)), 14),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_extract_all_matches_recorded_values(name):
    expected = [float.fromhex(h) for h in json.loads(GOLDEN_PATH.read_text())[name]]
    make_formula, seed = GOLDEN_CASES[name]
    fv = extract_all(make_formula(), GOLDEN_BUDGET, seed)
    assert fv.timed_out is False
    assert fv.values.tolist() == expected
