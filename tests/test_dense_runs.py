"""The dense view of a RuntimeMatrix and the consumers that read it.

Each consumer is compared with a reference that reads the matrix one cell
at a time through get(), on random matrices with crashes and timeouts;
matrices with a missing cell must make the strict consumers raise.
"""

import random

import numpy as np
import pytest

from zfolio.evaluation import drop_unsolvable, evaluate
from zfolio.features import FEATURE_NAMES, FeatureVector
from zfolio.learning import BasisSpec, RidgeModel
from zfolio.portfolio import (
    PRESOLVER_CUTOFFS,
    PortfolioSimulator,
    PresolverEntry,
    PresolverSchedule,
    choose_backup,
    select_presolver_candidates,
    simulate_presolving,
)
from zfolio.runtimes import MISSING, STATUSES, RunRecord, RuntimeMatrix, SolverDescriptor
from zfolio.scoring import (
    MissingReferenceRuns,
    PurseConfig,
    ScoreBreakdown,
    ScoreContext,
    competition_score,
    independent_series_share,
    score_labels,
    series_groups,
    series_scores,
    singleton_series,
    speed_factor,
)

from test_scoring import random_matrix, random_series

CUTOFF = 15.0  # pre-solvers (2-10 s each) solve some runs, and two can overrun it


def cases(n=40, seed=0):
    """Random complete matrices of 2-5 solvers over 2-12 instances."""
    rng = random.Random(seed)
    for _ in range(n):
        matrix = random_matrix(rng, n_solvers=rng.randint(2, 5),
                               n_instances=rng.randint(2, 12), cutoff=CUTOFF)
        yield rng, matrix, random_series(rng, matrix)


def with_hole(rng, matrix):
    """A copy of the matrix without one of its cells, and that cell."""
    cells = [(s, i) for s in matrix.solvers for i in matrix.instances]
    hole = rng.choice(cells)
    out = RuntimeMatrix(matrix.cutoff_seconds)
    for s, i in cells:
        if (s, i) != hole:
            out.add(matrix.get(s, i))
    return out, hole


def random_schedule(rng, matrix):
    first, second = rng.sample(matrix.solvers, 2)
    entries = (PresolverEntry(first, "complete", rng.choice(PRESOLVER_CUTOFFS)),
               PresolverEntry(second, "local_search", rng.choice(PRESOLVER_CUTOFFS)))
    return PresolverSchedule(entries)


# --- per-cell references ---------------------------------------------------

def ref_instance_scores(records, purse):
    solving = [s for s in sorted(records) if records[s].solved]
    out = {s: (0.0, 0.0) for s in records}
    if not solving:
        return out
    sfs = {s: speed_factor(purse.time_limit, records[s].runtime_seconds) for s in solving}
    sf_sum = sum(sfs.values())
    for s in solving:
        out[s] = (purse.solution_purse / len(solving), purse.speed_purse * sfs[s] / sf_sum)
    return out


def ref_competition_score(matrix, purse, series):
    totals = {s: ScoreBreakdown() for s in matrix.solvers}
    for iid in matrix.instances:
        per_solver = ref_instance_scores({s: matrix.get(s, iid) for s in matrix.solvers}, purse)
        for s, (solution, speed) in per_solver.items():
            totals[s] = totals[s] + ScoreBreakdown(solution, speed, 0.0)
    solved_sets = {
        s: {iid for iid in matrix.instances if matrix.get(s, iid).solved}
        for s in matrix.solvers
    }
    for s, val in series_scores(solved_sets, series, purse, matrix.instances).items():
        totals[s] = totals[s] + ScoreBreakdown(0.0, 0.0, val)
    return totals


def ref_score_labels(matrix, sid, purse, series):
    solvers, solved = matrix.solvers, lambda s, i: matrix.get(s, i).solved
    groups = series_groups(series, matrix.instances)
    solvable = {g: sum(1 for i in m if any(solved(s, i) for s in solvers))
                for g, m in groups.items()}
    winners = {g: sum(1 for s in solvers if any(solved(s, i) for i in m))
               for g, m in groups.items()}
    shares = independent_series_share(series, solvable, winners, purse)
    labels = {}
    for iid in matrix.instances:
        if not solved(sid, iid):
            labels[iid] = 0.0
            continue
        per_solver = ref_instance_scores({s: matrix.get(s, iid) for s in solvers}, purse)
        solution, speed = per_solver[sid]
        labels[iid] = solution + speed + shares[series[iid]]
    return labels


def ref_score_context(matrix, purse, series, instances):
    n_solving, sf_sum = {}, {}
    for iid in instances:
        solving = [s for s in matrix.solvers if matrix.get(s, iid).solved]
        n_solving[iid] = len(solving)
        sf_sum[iid] = sum(speed_factor(purse.time_limit, matrix.get(s, iid).runtime_seconds)
                          for s in solving)
    winners = {g: sum(1 for s in matrix.solvers if any(matrix.get(s, i).solved for i in m))
               for g, m in series_groups(series, instances).items()}
    return n_solving, sf_sum, winners


def ref_presolved(matrix, instance_ids, schedule, cutoff):
    """Per instance: None, or (finish time, pre-solver)."""
    out = {}
    for iid in instance_ids:
        elapsed, out[iid] = 0.0, None
        for entry in schedule.active():
            rec = matrix.get(entry.solver_id, iid)
            if rec.solved and rec.runtime_seconds <= entry.cutoff_seconds \
                    and elapsed + rec.runtime_seconds <= cutoff:
                out[iid] = (elapsed + rec.runtime_seconds, entry.solver_id)
                break
            elapsed += entry.cutoff_seconds
    return out


def ref_choose_backup(matrix, schedule, timed_out, objective, candidates, cutoff,
                      purse=None, series=None):
    presolved = ref_presolved(matrix, matrix.instances, schedule, cutoff)
    pool = [i for i in matrix.instances if presolved[i] is None and timed_out.get(i, True)]
    pool = pool or matrix.instances
    candidates = sorted(candidates)
    if objective == "max_score" and purse is not None:
        sub = matrix.restrict(instances=pool, solvers=candidates)
        series = series or singleton_series(pool)
        totals = ref_competition_score(sub, purse, {i: series[i] for i in pool})
        return min(candidates, key=lambda s: (-totals[s].total, s))

    def avg(s):
        times = [matrix.get(s, i).runtime_seconds if matrix.get(s, i).solved else cutoff
                 for i in pool]
        return sum(times) / len(times)

    return min(candidates, key=lambda s: (avg(s), s))


def ref_presolver_candidates(matrix, descriptors, purse, series, cap=10.0, top=3):
    capped = RuntimeMatrix(cap)
    for s in matrix.solvers:
        for i in matrix.instances:
            rec = matrix.get(s, i)
            if rec.solved and rec.runtime_seconds <= cap:
                capped.add(RunRecord(s, i, rec.runtime_seconds, rec.status))
            else:
                capped.add(RunRecord(s, i, cap, "timeout"))
    capped_purse = PurseConfig(purse.solution_purse, purse.speed_purse,
                               purse.series_purse, time_limit=cap)
    totals = ref_competition_score(capped, capped_purse, series)
    kinds = {d.id: d.kind for d in descriptors}
    return tuple(
        sorted((s for s in matrix.solvers if kinds[s] == kind),
               key=lambda s: (-totals[s].total, s))[:top]
        for kind in ("complete", "local_search")
    )


def ref_simulation(matrix, features, ids, schedule, backup, models, objective, cutoff,
                   subset):
    """The online procedure replayed one instance at a time: (solved, time,
    (kind, solver)) per instance."""
    presolved = ref_presolved(matrix, ids, schedule, cutoff)
    out = []
    for iid in ids:
        if presolved[iid] is not None:
            out.append((True, presolved[iid][0], ("presolver", presolved[iid][1])))
            continue
        elapsed = sum(e.cutoff_seconds for e in schedule.active())
        fv = features.get(iid)
        if fv is not None:
            elapsed += fv.feature_time_seconds
        if fv is None or fv.values is None or fv.timed_out:
            rec = matrix.get(backup, iid)
            ok = rec.solved and elapsed + rec.runtime_seconds <= cutoff
            out.append((ok, elapsed + rec.runtime_seconds if ok else cutoff,
                        ("backup", backup)))
            continue
        preds = {s: models[s].predict(fv.values) for s in subset}
        sign = 1.0 if objective == "min_runtime" else -1.0
        result = None
        for sid in sorted(subset, key=lambda s: (sign * preds[s], s)):
            rec = matrix.get(sid, iid)
            fits = elapsed + rec.runtime_seconds <= cutoff
            result = (False, cutoff, ("main", sid))
            if rec.solved and fits:
                result = (True, elapsed + rec.runtime_seconds, ("main", sid))
            if rec.status != "crash" or not fits:
                break
            elapsed += rec.runtime_seconds
        out.append(result)
    return out


def ref_evaluate(matrix, purse, series, solvers):
    """(avg runtime, % solved, score total) per solver and for the oracle."""
    cutoff, n = matrix.cutoff_seconds, len(matrix.instances)
    scores = ref_competition_score(matrix.restrict(solvers=solvers), purse, series)
    rows = {}
    for s in solvers:
        times = [matrix.get(s, i).runtime_seconds for i in matrix.instances
                 if matrix.get(s, i).solved]
        rows[s] = ((sum(times) + (n - len(times)) * cutoff) / n,
                   100.0 * len(times) / n, scores[s].total)
    best = {}
    for i in matrix.instances:
        times = [matrix.get(s, i).runtime_seconds for s in solvers if matrix.get(s, i).solved]
        if times:
            best[i] = min(times)
    times = list(best.values())
    rows["oracle"] = ((sum(times) + (n - len(times)) * cutoff) / n, 100.0 * len(times) / n)
    return rows


# --- the view itself -------------------------------------------------------

class TestDenseView:
    def test_cells_match_records(self):
        for rng, matrix, _ in cases():
            holed, (hs, hi) = with_hole(rng, matrix)
            for m in (matrix, holed):
                view = m.dense()
                assert view.solvers == m.solvers and view.instances == m.instances
                assert view.runtime.dtype == np.float64 and view.status.dtype == np.int8
                for s in m.solvers:
                    for i in m.instances:
                        cell = view.solver_index[s], view.instance_index[i]
                        if not m.has(s, i):
                            assert view.status[cell] == MISSING
                            assert not view.solved[cell]
                            continue
                        rec = m.get(s, i)
                        assert STATUSES[view.status[cell]] == rec.status
                        assert view.runtime[cell] == rec.runtime_seconds
                        assert view.solved[cell] == rec.solved
            assert holed.is_complete() is False and matrix.is_complete() is True

    def test_block_raises_on_a_missing_cell(self):
        for rng, matrix, _ in cases(10):
            holed, hole = with_hole(rng, matrix)
            with pytest.raises(KeyError) as err:
                holed.dense().block()
            assert err.value.args[0] == hole
            others = [s for s in holed.solvers if s != hole[0]]
            assert holed.dense().block(others).solvers == others
            with pytest.raises(KeyError):
                matrix.dense().block(["no-such-solver"])

    def test_add_after_the_view_is_reflected(self):
        rng = random.Random(3)
        matrix = random_matrix(rng, n_solvers=3, n_instances=4, cutoff=CUTOFF)
        purse = PurseConfig(time_limit=CUTOFF)
        before = competition_score(matrix, purse, singleton_series(matrix.instances))
        view = matrix.dense()
        assert matrix.dense() is view  # cached until the next add
        for s in matrix.solvers:
            matrix.add(RunRecord(s, "new", 1.0 + len(s), "sat"))
        matrix.add(RunRecord("s0", "i0", CUTOFF, "timeout"))
        assert matrix.dense() is not view
        assert "new" in matrix.dense().instances
        series = singleton_series(matrix.instances)
        after = competition_score(matrix, purse, series)
        assert after == ref_competition_score(matrix, purse, series)
        assert after != before
        assert drop_unsolvable(matrix) == drop_unsolvable_ref(matrix)
        assert score_labels(matrix, "s0", purse, series)["i0"] == 0.0


def drop_unsolvable_ref(matrix):
    kept = [i for i in matrix.instances
            if any(matrix.has(s, i) and matrix.get(s, i).solved for s in matrix.solvers)]
    return kept, len(kept) / len(matrix.instances)


# --- consumers -------------------------------------------------------------

class TestScoringConsumers:
    def test_competition_score_and_score_labels(self):
        for _, matrix, series in cases():
            purse = PurseConfig(time_limit=CUTOFF)
            assert competition_score(matrix, purse, series) == \
                ref_competition_score(matrix, purse, series)
            for s in matrix.solvers:
                assert score_labels(matrix, s, purse, series) == \
                    ref_score_labels(matrix, s, purse, series)

    def test_score_context(self):
        for rng, matrix, series in cases():
            purse = PurseConfig(time_limit=CUTOFF)
            ids = rng.sample(matrix.instances, rng.randint(1, len(matrix.instances)))
            block = matrix.dense().block(instance_ids=ids)  # in sampled order
            for runs, instances in ((matrix.dense(), matrix.instances), (block, sorted(ids))):
                ctx = ScoreContext(runs, purse, series)
                assert ctx.instances == instances
                n_solving, sf_sum, winners = ref_score_context(matrix, purse, series,
                                                               instances)
                assert ctx.n_solving == n_solving and ctx.sf_sum == sf_sum
                assert ctx.series_winner_counts == winners

    def test_a_missing_cell_raises(self):
        for rng, matrix, series in cases(20):
            holed, _ = with_hole(rng, matrix)
            purse = PurseConfig(time_limit=CUTOFF)
            for s in holed.solvers:
                with pytest.raises(MissingReferenceRuns):
                    score_labels(holed, s, purse, series)
            with pytest.raises(KeyError):
                competition_score(holed, purse, series)
            with pytest.raises(KeyError):
                ScoreContext(holed.dense().block(), purse, series)


class TestEvaluationConsumers:
    def test_evaluate(self):
        for rng, matrix, series in cases():
            purse = PurseConfig(time_limit=CUTOFF)
            solvers = rng.sample(matrix.solvers, rng.randint(1, len(matrix.solvers)))
            report = evaluate(matrix, purse, series, solvers)
            want = ref_evaluate(matrix, purse, series, solvers)
            for s in solvers:
                r = report.row(s)
                assert (r.avg_runtime, r.pct_solved, r.score.total) == want[s]
            assert (report.oracle.avg_runtime, report.oracle.pct_solved) == want["oracle"]

    def test_drop_unsolvable_counts_a_missing_cell_as_unsolved(self):
        for rng, matrix, _ in cases():
            holed, _ = with_hole(rng, matrix)
            for m in (matrix, holed):
                assert drop_unsolvable(m) == drop_unsolvable_ref(m)

    def test_evaluate_raises_on_a_missing_cell(self):
        for rng, matrix, series in cases(10):
            holed, _ = with_hole(rng, matrix)
            with pytest.raises(KeyError):
                evaluate(holed)


class TestPortfolioConsumers:
    def descriptors(self, matrix):
        return [SolverDescriptor(s, "complete" if k % 2 == 0 else "local_search")
                for k, s in enumerate(matrix.solvers)]

    def test_simulate_presolving(self):
        for rng, matrix, _ in cases():
            schedule = random_schedule(rng, matrix)
            solved, finish, solver, _ = simulate_presolving(
                matrix.dense().block(), schedule, CUTOFF)
            want = ref_presolved(matrix, matrix.instances, schedule, CUTOFF)
            for j, iid in enumerate(matrix.instances):
                got = (float(finish[j]), solver[j]) if solved[j] else None
                assert got == want[iid]

    def test_select_presolver_candidates(self):
        for _, matrix, series in cases():
            purse = PurseConfig(time_limit=CUTOFF)
            descriptors = self.descriptors(matrix)
            for top in (1, 3):
                got = select_presolver_candidates(matrix, descriptors, purse, series, top=top)
                assert got == ref_presolver_candidates(matrix, descriptors, purse, series,
                                                       top=top)

    def test_choose_backup(self):
        for rng, matrix, series in cases():
            purse = PurseConfig(time_limit=CUTOFF)
            schedule = random_schedule(rng, matrix)
            timed_out = {i: rng.random() < 0.5 for i in matrix.instances[1:]}
            candidates = rng.sample(matrix.solvers, rng.randint(1, len(matrix.solvers)))
            for objective in ("min_runtime", "max_score"):
                args = (matrix, schedule, timed_out, objective, candidates, CUTOFF,
                        purse, series)
                assert choose_backup(*args) == ref_choose_backup(*args)

    def simulator_inputs(self, rng, matrix):
        features = {}
        for iid in matrix.instances:
            roll = rng.random()
            if roll < 0.15:
                continue  # no features recorded
            values = np.array([rng.gauss(0, 1) for _ in FEATURE_NAMES])
            features[iid] = FeatureVector(values, rng.uniform(0, 3), roll < 0.3, 0)
        models = {
            s: RidgeModel(BasisSpec.identity([0, 1]), np.array([rng.gauss(0, 1), 0.5]),
                          1e-3, 0.1, "log_runtime", rng.gauss(0, 1))
            for s in matrix.solvers
        }
        return features, models

    def test_portfolio_simulator(self):
        for rng, matrix, series in cases(60):
            purse = PurseConfig(time_limit=CUTOFF)
            features, models = self.simulator_inputs(rng, matrix)
            ids = rng.sample(matrix.instances, rng.randint(1, len(matrix.instances)))
            schedule = random_schedule(rng, matrix)
            backup = rng.choice(matrix.solvers)
            subset = sorted(rng.sample(matrix.solvers, rng.randint(1, len(matrix.solvers))))
            for objective in ("min_runtime", "max_score"):
                sim = PortfolioSimulator(matrix, features, ids, schedule, backup, models,
                                         objective, CUTOFF, purse, series)
                solved, total, chosen = sim.simulate(subset)
                got = [(bool(a), float(b), (c[0], c[1])) for a, b, c in
                       zip(solved, total, chosen)]
                want = ref_simulation(matrix, features, ids, schedule, backup, models,
                                      objective, CUTOFF, subset)
                assert got == want
                for (ok, t, (_, sid)), (iid, rec) in zip(want, sim.records(subset).items()):
                    status = matrix.get(sid, iid).status if ok else "timeout"
                    assert (rec.status, rec.runtime_seconds) == (status, t if ok else CUTOFF)

    def test_portfolio_simulator_raises_on_a_missing_cell(self):
        for rng, matrix, series in cases(20):
            holed, (_, hole_instance) = with_hole(rng, matrix)
            features, models = self.simulator_inputs(rng, matrix)
            with pytest.raises(KeyError):
                PortfolioSimulator(holed, features, [hole_instance], PresolverSchedule(),
                                   holed.solvers[0], models, "min_runtime", CUTOFF)
