import json
import math
import random
import time
from pathlib import Path

import pytest

from zfolio.cnf import CnfFormula
from zfolio.features import extract_all
from zfolio.probes import (
    GSAT_STALL_LIMIT,
    Assignment,
    ProbeBudget,
    PropagationEngine,
    SapsParams,
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


class TestPassedDeadline:
    @pytest.mark.parametrize("probe", [saps_probe, gsat_probe, dpll_probe])
    def test_stops_the_group_in_deterministic_mode(self, probe, rng):
        f = random_3cnf(30, 180, rng)
        feats = probe(f, small_budget(), seed=3, deadline=time.perf_counter())
        assert all(v == 0.0 for v in feats.values())


def test_occurrence_lists_shared_by_both_engines():
    f = make(3, [[1, 1, -2], [2, -2], [-3], [3, -1, 2]])
    engine, sls = PropagationEngine(f), _SlsState(f)
    assert engine.pos_occ == sls.pos_occ == [[], [0, 0], [1, 3], [3]]
    assert engine.neg_occ == sls.neg_occ == [[], [3], [0, 1], [2]]
    assert sls.clause_vars == [[1, 2], [2], [3], [1, 2, 3]]


# -- flip-score cache ---------------------------------------------------
#
# The two loops below are the local-search runs as they were before the
# score cache: every step rescores every candidate from scratch. They are
# the reference the cached runs must reproduce exactly.

def _saps_run_reference(state, rng, max_steps, params, deadline):
    state.random_init(rng)
    weights = [1.0] * len(state.clauses)
    init_unsat = len(state.unsat)
    best_unsat = init_unsat
    best_step = 0
    lm_counts = []
    first_lm_best = None
    for step in range(1, max_steps + 1):
        if not state.unsat:
            break
        cand = sorted({abs(lit) for ci in state.unsat for lit in state.clauses[ci]})
        deltas = [state.weighted_flip_delta(v, weights) for v in cand]
        best_delta = min(deltas)
        if best_delta < -1e-12:
            choices = [v for v, d in zip(cand, deltas) if d == best_delta]
            state.flip(choices[rng.randrange(len(choices))])
        else:
            lm_counts.append(len(state.unsat))
            if first_lm_best is None:
                first_lm_best = best_unsat
            if rng.random() < params.p_walk:
                clause = state.clauses[rng.choice(tuple(state.unsat))]
                state.flip(abs(clause[rng.randrange(len(clause))]))
            else:
                for ci in state.unsat:
                    weights[ci] *= params.alpha
                if rng.random() < params.p_smooth:
                    mean_w = sum(weights) / len(weights)
                    for ci in range(len(weights)):
                        weights[ci] = weights[ci] * params.rho + (1 - params.rho) * mean_w
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
        deltas = [state.flip_delta(v) for v in range(1, state.num_vars + 1)]
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
    ]
    for k in range(4):
        rng = random.Random(100 + k)
        out.append(random_3cnf(rng.randint(10, 40), rng.randint(30, 200), rng))
        out.append(mixed_cnf(rng.randint(8, 30), rng.randint(20, 150), rng))
    return out


CACHE_FORMULAS = _cache_formulas()
# the default parameters and one setting that walks and smooths often
SAPS_SETTINGS = [SapsParams(), SapsParams(p_walk=0.3, p_smooth=0.5)]


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
        fresh = state.flip_delta(v) if weights is None else state.weighted_flip_delta(v, weights)
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
    def test_saps_cache_matches_fresh_scores_and_reference(self, fi, params, checked_flips):
        f = CACHE_FORMULAS[fi]
        cached = _ls_trace(lambda st, rng, n: _saps_run(st, rng, n, params, None), f, seed=fi)
        assert checked_flips[0] > 0
        reference = _ls_trace(lambda st, rng, n: _saps_run_reference(st, rng, n, params, None),
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
