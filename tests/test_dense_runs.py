"""The dense view of a RuntimeMatrix and the consumers that read it.

Each consumer is compared with a reference that reads the matrix one cell
at a time through get(), on random matrices with crashes and timeouts;
matrices with a missing cell must make the strict consumers raise.
"""

import dataclasses
import random
import tracemalloc

import numpy as np
import pytest

from zfolio.evaluation import drop_unsolvable, evaluate
from zfolio.features import FEATURE_NAMES, FeatureVector
from zfolio import learning, portfolio
from zfolio.learning import BasisSpec, RidgeModel, log_runtime
from zfolio.portfolio import (
    PRESOLVER_CUTOFFS,
    BuildSettings,
    PortfolioSimulator,
    PresolverEntry,
    PresolverSchedule,
    SimulationRows,
    _ModelTrainer,
    choose_backup,
    replay_presolving,
    select_presolver_candidates,
    subset_search_exhaustive,
)
from zfolio.runners import SimulatedRunner
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


def sub_matrix(matrix, solvers, instances=None):
    """A new matrix of these solvers' runs on these instances (all by
    default), built with add."""
    out = RuntimeMatrix(matrix.cutoff_seconds)
    out.add(*(matrix.get(s, i) for s in solvers for i in instances or matrix.instances))
    return out


def with_zero_second_run(rng, matrix):
    """A copy of the matrix where one solved run took 0 s."""
    solved = [(s, i) for s in matrix.solvers for i in matrix.instances
              if matrix.get(s, i).solved]
    zero = rng.choice(solved) if solved else None
    out = RuntimeMatrix(matrix.cutoff_seconds)
    for s in matrix.solvers:
        for i in matrix.instances:
            rec = matrix.get(s, i)
            out.add(RunRecord(s, i, 0.0, rec.status) if (s, i) == zero else rec)
    return out


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
    totals = {s: [0.0, 0.0, 0.0] for s in matrix.solvers}
    for iid in matrix.instances:
        per_solver = ref_instance_scores({s: matrix.get(s, iid) for s in matrix.solvers}, purse)
        for s, (solution, speed) in per_solver.items():
            totals[s][0] += solution
            totals[s][1] += speed
    for members in series_groups(series, matrix.instances).values():
        winners = [s for s in matrix.solvers
                   if any(matrix.get(s, iid).solved for iid in members)]
        for s in winners:
            totals[s][2] += purse.series_purse / len(winners)
    return {s: ScoreBreakdown(*sums) for s, sums in totals.items()}


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


def ref_virtual_total(matrix, purse, series, outcomes):
    """A virtual solver's score against the matrix's solvers, one instance at
    a time in sorted order, a series' share added at its first solved
    instance; `outcomes` maps instance -> (solved, runtime)."""
    instances = sorted(outcomes)
    n_solving, sf_sum, winners = ref_score_context(matrix, purse, series, instances)
    solution = speed = 0.0
    hit = []
    for iid in instances:
        ok, t = outcomes[iid]
        if not ok:
            continue
        solution += purse.solution_purse / (n_solving[iid] + 1)
        sf = speed_factor(purse.time_limit, t)
        speed += purse.speed_purse * sf / (sf_sum[iid] + sf)
        hit.append(series[iid])
    return ScoreBreakdown(solution, speed,
                          sum(purse.series_purse / (winners[g] + 1) for g in dict.fromkeys(hit)))


def interleaved_series(rng, matrix):
    """Series of up to four instances that need not be neighbours in sorted
    order, so subsets can reach a series first at different instances."""
    groups = max(1, len(matrix.instances) // 3)
    return {iid: f"g{rng.randrange(groups)}" for iid in matrix.instances}


def ref_replay(matrix, instance_ids, schedule, cutoff):
    """Per instance: None or (finish time, pre-solver), and the time spent
    before the pre-solver that solved it, or on all of them. An entry that
    does not solve costs its cutoff, or its runtime when it crashes within
    that cutoff, as solve charges it."""
    out = {}
    for iid in instance_ids:
        elapsed, won = 0.0, None
        for entry in schedule.active():
            rec = matrix.get(entry.solver_id, iid)
            if rec.solved and rec.runtime_seconds <= entry.cutoff_seconds \
                    and elapsed + rec.runtime_seconds <= cutoff:
                won = (elapsed + rec.runtime_seconds, entry.solver_id)
                break
            crashed = rec.status == "crash" and rec.runtime_seconds <= entry.cutoff_seconds
            elapsed += rec.runtime_seconds if crashed else entry.cutoff_seconds
        out[iid] = (won, elapsed)
    return out


def ref_presolved(matrix, instance_ids, schedule, cutoff):
    """Per instance: None, or (finish time, pre-solver)."""
    return {iid: won for iid, (won, _) in ref_replay(matrix, instance_ids, schedule,
                                                      cutoff).items()}


def ref_choose_backup(matrix, schedule, timed_out, objective, candidates, cutoff,
                      purse=None, series=None):
    presolved = ref_presolved(matrix, matrix.instances, schedule, cutoff)
    pool = [i for i in matrix.instances if presolved[i] is None and timed_out.get(i, True)]
    pool = pool or matrix.instances
    candidates = sorted(candidates)
    if objective == "max_score":
        sub = sub_matrix(matrix, candidates, pool)
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
    presolved = ref_replay(matrix, ids, schedule, cutoff)
    out = []
    for iid in ids:
        won, elapsed = presolved[iid]
        if won is not None:
            out.append((True, won[0], ("presolver", won[1])))
            continue
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


def ref_fit_inputs(matrix, features, sid, rows, settings, purse, series, train_ids):
    """One fit's feature rows, targets and censoring flags read record by
    record: under min_runtime crashes are dropped and timeouts censored at
    the cutoff; None where the fit must be refused."""
    if settings.objective == "max_score":
        sub = matrix.restrict(instances=train_ids)
        labels = ref_score_labels(sub, sid, purse, {i: series[i] for i in train_ids})
        X = np.vstack([features[i].values for i in rows])
        return X, np.array([labels[i] for i in rows]), np.zeros(len(rows), dtype=bool)
    recs = [r for r in (matrix.get(sid, i) for i in rows) if r.status != "crash"]
    censored = np.array([r.censored for r in recs], dtype=bool)
    if len(recs) < settings.min_training_rows or censored.all():
        return None
    y = log_runtime([r.runtime_seconds for r in recs])
    y[censored] = np.log(matrix.cutoff_seconds)
    return np.vstack([features[r.instance_id].values for r in recs]), y, censored


def ref_evaluate(matrix, purse, series, solvers):
    """(avg runtime, % solved, score total) per solver and for the oracle."""
    cutoff, n = matrix.cutoff_seconds, len(matrix.instances)
    scores = ref_competition_score(sub_matrix(matrix, solvers), purse, series)
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
                        if (s, i) == (hs, hi) and m is holed:
                            with pytest.raises(KeyError):
                                m.get(s, i)
                            assert view.status[cell] == MISSING
                            assert not view.solved[cell]
                            continue
                        rec = m.get(s, i)
                        assert STATUSES[view.status[cell]] == rec.status
                        assert view.runtime[cell] == rec.runtime_seconds
                        assert view.solved[cell] == rec.solved
            assert holed.dense().complete is False and matrix.dense().complete is True

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
            matrix.add(RunRecord(s, "new", CUTOFF, "timeout") if s == "s0"
                       else RunRecord(s, "new", 1.0 + len(s), "sat"))
        assert matrix.dense() is not view
        assert "new" in matrix.dense().instances
        series = singleton_series(matrix.instances)
        after = competition_score(matrix, purse, series)
        assert after == ref_competition_score(matrix, purse, series)
        assert after != before
        assert drop_unsolvable(matrix) == drop_unsolvable_ref(matrix)
        view = matrix.dense()
        labels = score_labels(view, purse, series)
        assert labels[view.solver_index["s0"], view.instance_index["new"]] == 0.0


def drop_unsolvable_ref(matrix):
    def solved(s, i):
        try:
            return matrix.get(s, i).solved
        except KeyError:  # a cell without a run
            return False

    kept = [i for i in matrix.instances if any(solved(s, i) for s in matrix.solvers)]
    return kept, len(kept) / len(matrix.instances)


# --- consumers -------------------------------------------------------------

class TestScoringConsumers:
    def test_competition_score_and_score_labels(self):
        for _, matrix, series in cases():
            purse = PurseConfig(time_limit=CUTOFF)
            assert competition_score(matrix, purse, series) == \
                ref_competition_score(matrix, purse, series)
            labels = score_labels(matrix.dense(), purse, series)
            for s, row in zip(matrix.solvers, labels.tolist()):
                assert dict(zip(matrix.instances, row)) == \
                    ref_score_labels(matrix, s, purse, series)

    def test_virtual_scores_add_up_one_instance_at_a_time(self):
        # bit for bit, also with series spread over the sorted instances and
        # columns handed over in an unsorted order
        for rng, matrix, series in cases():
            purse = PurseConfig(time_limit=CUTOFF)
            sampled = rng.sample(matrix.instances, rng.randint(1, len(matrix.instances)))
            for ids in (matrix.instances, sampled):
                for groups in (series, interleaved_series(rng, matrix)):
                    ctx = ScoreContext(matrix.dense().block(instance_ids=ids), purse, groups)
                    solved = np.array([[rng.random() < 0.6 for _ in ids] for _ in range(6)])
                    runtime = np.array([[rng.uniform(0, CUTOFF) for _ in ids]
                                        for _ in range(6)])
                    got = ctx.virtual_scores(solved, runtime)
                    for k in range(len(solved)):
                        outcomes = dict(zip(ids, zip(solved[k].tolist(), runtime[k].tolist())))
                        want = ref_virtual_total(matrix, purse, groups, outcomes)
                        assert (got[0][k], got[1][k], got[2][k]) == \
                            (want.solution, want.speed, want.series)
                        one = ctx.virtual_total(dict(zip(ids, solved[k].tolist())),
                                                dict(zip(ids, runtime[k].tolist())))
                        assert one == want and one.total == want.total

    def test_a_missing_cell_raises(self):
        for rng, matrix, series in cases(20):
            holed, _ = with_hole(rng, matrix)
            purse = PurseConfig(time_limit=CUTOFF)
            with pytest.raises(MissingReferenceRuns):
                score_labels(holed.dense(), purse, series)
            with pytest.raises(KeyError):
                competition_score(holed, purse, series)
            with pytest.raises(KeyError):
                ScoreContext(holed.dense().block(), purse, series)


class TestEvaluationConsumers:
    def test_evaluate(self):
        for rng, matrix, series in cases():
            purse = PurseConfig(time_limit=CUTOFF)
            solvers = rng.sample(matrix.solvers, rng.randint(1, len(matrix.solvers)))
            report = evaluate(sub_matrix(matrix, solvers), purse, series)
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
                evaluate(holed, PurseConfig(time_limit=CUTOFF), series)


def table(sim, subsets):
    """(behaviours, subsets): sim.scores of every pair of the cross product."""
    behaviours = range(len(sim.schedules))
    return sim.scores([(b, subset) for b in behaviours for subset in subsets]).reshape(
        len(behaviours), len(subsets))


class TestPortfolioConsumers:
    def descriptors(self, matrix):
        return [SolverDescriptor(s, "complete" if k % 2 == 0 else "local_search")
                for k, s in enumerate(matrix.solvers)]

    def test_replay_presolving(self, monkeypatch):
        """Every row of the batched replay against the per-instance
        reference, for every schedule of 0, 1 and 2 entries, in one batch
        and in batches of one or a few schedules."""
        seen = dict.fromkeys(("0 s run under a cutoff-0 entry", "overrun", "crash charged",
                              "second entry wins"), 0)
        for rng, matrix, _ in cases():
            matrix = with_zero_second_run(rng, matrix)
            complete, local = matrix.solvers[0::2], matrix.solvers[1::2]
            schedules = [PresolverSchedule(),
                         *portfolio.enumerate_presolver_configs(complete, []),
                         *portfolio.enumerate_presolver_configs([], local),
                         *portfolio.enumerate_presolver_configs(complete, local)]
            assert len(schedules) > 40
            runs = matrix.dense().block()
            whole = portfolio.replay_presolving(runs, schedules, CUTOFF)
            for cells in (1, 40 * len(runs.instances)):
                monkeypatch.setattr(learning, "FIT_BATCH_CELLS", cells)
                batched = portfolio.replay_presolving(runs, schedules, CUTOFF)
                assert all(np.array_equal(a, b) for a, b in zip(batched, whole))
            monkeypatch.undo()
            solved, finish, winner, elapsed = whole
            for k, schedule in enumerate(schedules):
                want = ref_replay(matrix, matrix.instances, schedule, CUTOFF)
                for j, iid in enumerate(matrix.instances):
                    won, spent = want[iid]
                    got = (float(finish[k, j]), runs.solvers[winner[k, j]]) if solved[k, j] \
                        else None
                    assert (got, float(elapsed[k, j])) == (won, spent)
                    assert (winner[k, j] >= 0) == solved[k, j]
                    active = schedule.active()
                    for entry in schedule.entries:
                        rec = matrix.get(entry.solver_id, iid)
                        if entry.cutoff_seconds == 0 and rec.solved and rec.runtime_seconds == 0:
                            assert got is None or got[1] != entry.solver_id
                            seen["0 s run under a cutoff-0 entry"] += 1
                        seen["crash charged"] += entry in active and rec.status == "crash" \
                            and rec.runtime_seconds < entry.cutoff_seconds
                    seen["overrun"] += spent > CUTOFF
                    seen["second entry wins"] += len(active) == 2 and got is not None \
                        and got[1] == active[1].solver_id
        assert all(seen.values()), seen

    def test_select_presolver_candidates(self):
        for _, matrix, series in cases():
            purse = PurseConfig(time_limit=CUTOFF)
            descriptors = self.descriptors(matrix)
            for top in (1, 3):
                got = select_presolver_candidates(matrix.dense().block(), descriptors, purse,
                                                  series, top=top)
                assert got == ref_presolver_candidates(matrix, descriptors, purse, series,
                                                       top=top)

    def test_choose_backup(self):
        for rng, matrix, series in cases():
            purse = PurseConfig(time_limit=CUTOFF)
            schedule = random_schedule(rng, matrix)
            timed_out = {i: rng.random() < 0.5 for i in matrix.instances[1:]}
            candidates = rng.sample(matrix.solvers, rng.randint(1, len(matrix.solvers)))
            runs = matrix.dense().block()
            # the build's pool: not pre-solved, and features unusable
            pool = ~portfolio.replay_presolving(runs, [schedule], CUTOFF)[0][0] & np.array(
                [timed_out.get(i, True) for i in runs.instances])
            for objective in ("min_runtime", "max_score"):
                rest = (objective, candidates, CUTOFF, purse, series)
                assert choose_backup(runs, pool, *rest) == \
                    ref_choose_backup(matrix, schedule, timed_out, *rest)

    def simulator_inputs(self, rng, matrix):
        features = {}
        for iid in matrix.instances:
            roll = rng.random()
            if roll < 0.15:
                continue  # no features recorded
            values = np.array([rng.gauss(0, 1) for _ in FEATURE_NAMES])
            features[iid] = FeatureVector(values, rng.uniform(0, 3), roll < 0.3)
        models = {
            s: RidgeModel(BasisSpec.identity([0, 1]), np.array([rng.gauss(0, 1), 0.5]),
                          1e-3, 0.1, "log_runtime", rng.gauss(0, 1))
            for s in matrix.solvers
        }
        return features, models

    def test_portfolio_simulator(self):
        """simulate, records and performances against the one-instance-at-a-
        time replay, for every subset; performances bit for bit."""
        seen = dict.fromkeys(("crash cascade", "tie", "backup", "presolved",
                              "series first hit differs"), 0)
        for rng, matrix, series in cases(60):
            purse = PurseConfig(time_limit=CUTOFF)
            features, models = self.simulator_inputs(rng, matrix)
            if rng.random() < 0.5:  # two members with equal predictions
                a, b = rng.sample(matrix.solvers, 2)
                models[b] = models[a]
            if rng.random() < 0.5:
                series = interleaved_series(rng, matrix)
            ids = rng.sample(matrix.instances, rng.randint(1, len(matrix.instances)))
            schedule = random_schedule(rng, matrix)
            backup = rng.choice(matrix.solvers)
            subsets = [list(c) for c in portfolio._iter_subsets(matrix.solvers)]
            for objective in ("min_runtime", "max_score"):
                sim = PortfolioSimulator(matrix, features, ids, schedule, backup, models,
                                         objective, CUTOFF, purse, series)
                perfs = sim.scores([(0, subset) for subset in subsets])
                first_hits = {}
                for subset, perf in zip(subsets, perfs.tolist()):
                    solved, total, chosen = sim.simulate(subset)
                    got = [(bool(a), float(b), (c[0], c[1])) for a, b, c in
                           zip(solved, total, chosen)]
                    want = ref_simulation(matrix, features, ids, schedule, backup, models,
                                          objective, CUTOFF, subset)
                    assert got == want
                    for (ok, t, (_, sid)), (iid, rec) in zip(want, sim.records(subset).items()):
                        status = matrix.get(sid, iid).status if ok else "timeout"
                        assert (rec.status, rec.runtime_seconds) == (status, t if ok else CUTOFF)
                    if objective == "min_runtime":
                        want_perf = -np.array([t for _, t, _ in want]).mean()
                    else:
                        outcomes = {iid: (ok, t) for iid, (ok, t, _) in zip(ids, want)}
                        want_perf = ref_virtual_total(matrix, purse, series, outcomes).total
                    assert perf == want_perf and sim.scores([(0, subset)])[0] == want_perf
                    self.coverage(seen, first_hits, matrix, features, models, objective,
                                  series, ids, subset, want)
                seen["series first hit differs"] += sum(
                    len(firsts) > 1 for firsts in first_hits.values())
        assert all(seen.values()), seen

    @staticmethod
    def coverage(seen, first_hits, matrix, features, models, objective, series, ids,
                 subset, want):
        """Counts the cases one replay went through, and notes where it first
        solved an instance of each series."""
        sign = 1.0 if objective == "min_runtime" else -1.0
        firsts = {}
        for iid, (ok, _, (kind, sid)) in sorted(zip(ids, want)):
            if ok:
                firsts.setdefault(series[iid], iid)
            seen["backup"] += kind == "backup"
            seen["presolved"] += kind == "presolver"
            if kind == "main":
                preds = {s: models[s].predict(features[iid].values) for s in subset}
                seen["tie"] += len(set(preds.values())) < len(preds)
                top = min(subset, key=lambda s: (sign * preds[s], s))
                if sid != top:
                    assert matrix.get(top, iid).status == "crash"
                    seen["crash cascade"] += 1
        for group, iid in firsts.items():
            first_hits.setdefault(group, set()).add(iid)

    def test_simulator_agrees_with_solve_on_presolver_crashes(self):
        """solve through SimulatedRunner and the simulator on every instance,
        where pre-solvers crash: a crash within an entry's cutoff costs its
        recorded runtime in both, not the entry's cutoff."""
        charged = 0
        for rng, matrix, _ in cases(60, seed=5):
            features, models = self.simulator_inputs(rng, matrix)
            schedule = random_schedule(rng, matrix)
            subset = rng.sample(matrix.solvers, rng.randint(1, len(matrix.solvers)))
            for objective in ("min_runtime", "max_score"):
                config = portfolio.PortfolioConfig(
                    schedule, rng.choice(matrix.solvers), subset,
                    {s: models[s] for s in subset}, objective,
                    {d.id: d for d in self.descriptors(matrix)}, cutoff_seconds=CUTOFF)
                sim = PortfolioSimulator(matrix, features, matrix.instances, schedule,
                                         config.backup_solver, config.models, objective,
                                         CUTOFF, PurseConfig(time_limit=CUTOFF))
                solved, total, chosen = sim.simulate(subset)
                runner = SimulatedRunner(features, matrix)
                for j, iid in enumerate(matrix.instances):
                    outcome = portfolio.solve(config, iid, runner)
                    assert (outcome.status in ("sat", "unsat")) == solved[j]
                    if solved[j]:
                        kind, sid = chosen[j]
                        name = sid if kind == "main" else f"{kind}:{sid}"
                        assert (outcome.chosen_solver, outcome.total_time_seconds) == \
                            (name, total[j])
                        charged += any(
                            t["phase"] == "presolve" and t["status"] == "crash"
                            and t["runtime"] < t["budget"] for t in outcome.trace)
        assert charged > 10

    def test_batched_runtime_mean_is_the_mean_of_each_row(self):
        # over 300 instances numpy's pairwise sum splits each row in blocks;
        # a batched row must still equal the one-subset total's mean
        rng = random.Random(9)
        matrix = random_matrix(rng, n_solvers=4, n_instances=300, cutoff=CUTOFF)
        features, models = self.simulator_inputs(rng, matrix)
        sim = PortfolioSimulator(matrix, features, matrix.instances, PresolverSchedule(),
                                 matrix.solvers[0], models, "min_runtime", CUTOFF)
        subsets = list(portfolio._iter_subsets(matrix.solvers))
        for subset, perf in zip(subsets, table(sim, subsets)[0]):
            total = sim.simulate(subset)[1]
            assert perf == -total.mean()

    def test_more_members_than_a_machine_word(self):
        # past 64 members a subset's mask is a Python int: scores, simulate
        # and the -inf of a subset outside a behaviour's models still follow
        # the reference replay
        rng = random.Random(21)
        matrix = random_matrix(rng, n_solvers=70, n_instances=12, cutoff=CUTOFF)
        features, models = self.simulator_inputs(rng, matrix)
        schedule, backup = random_schedule(rng, matrix), matrix.solvers[0]
        fewer = dict(list(models.items())[1:])
        sim = PortfolioSimulator(matrix, features, matrix.instances, [schedule] * 2,
                                 [backup] * 2, [models, fewer], "min_runtime", CUTOFF)
        subsets = [rng.sample(matrix.solvers, rng.randint(1, 70)) for _ in range(30)]
        perfs = table(sim, subsets)
        for subset, perf, other in zip(subsets, *perfs.tolist()):
            want = ref_simulation(matrix, features, matrix.instances, schedule, backup, models,
                                  "min_runtime", CUTOFF, subset)
            assert perf == -np.array([t for _, t, _ in want]).mean()
            assert other == (perf if set(subset) <= set(fewer) else -np.inf)
            solved, total, chosen = sim.simulate(subset)
            assert [(bool(a), float(b), c) for a, b, c in zip(solved, total, chosen)] == want
        assert (perfs == -np.inf).any() and np.isfinite(perfs).sum() > 30

    def test_performances_do_not_depend_on_the_batch_size(self, monkeypatch):
        for rng, matrix, series in cases(10):
            purse = PurseConfig(time_limit=CUTOFF)
            features, models = self.simulator_inputs(rng, matrix)
            subsets = list(portfolio._iter_subsets(matrix.solvers))
            for objective in ("min_runtime", "max_score"):
                sim = PortfolioSimulator(matrix, features, matrix.instances,
                                         random_schedule(rng, matrix), matrix.solvers[0],
                                         models, objective, CUTOFF, purse, series)
                whole = table(sim, subsets)
                # two subsets a batch under max_score, three under min_runtime
                monkeypatch.setattr(learning, "FIT_BATCH_CELLS", 22 * len(matrix.instances) + 1)
                assert np.array_equal(table(sim, subsets), whole)
                monkeypatch.undo()

    def test_each_batch_peaks_within_the_budget(self, monkeypatch):
        # the traced peak of every batch of more than one (behaviour, subset)
        # pair stays within FIT_BATCH_CELLS float64 cells (and a quarter for
        # numpy's own buffers), on a validation set of bench600's size: 6
        # solvers, 63 subsets, 180 instances; for one behaviour, and for a
        # stack of four whose batches span whole behaviours
        rng = random.Random(12)
        matrix = random_matrix(rng, n_solvers=6, n_instances=180, cutoff=CUTOFF)
        series = random_series(rng, matrix)
        features, models = self.simulator_inputs(rng, matrix)
        subsets = list(portfolio._iter_subsets(matrix.solvers))
        peaks = []
        scores = PortfolioSimulator._scores

        def traced(self, batch, behaviours):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            out = scores(self, batch, behaviours)
            peaks.append((self.objective, out.size, tracemalloc.get_traced_memory()[1] - start))
            return out
        for objective, budget, stack in (("min_runtime", 1 << 14, 1), ("max_score", 1 << 14, 1),
                                         ("min_runtime", 1 << 18, 4), ("max_score", 1 << 18, 4)):
            schedules = [random_schedule(rng, matrix) for _ in range(stack)]
            sim = PortfolioSimulator(matrix, features, matrix.instances, schedules,
                                     matrix.solvers[:stack], [models] * stack, objective,
                                     CUTOFF, PurseConfig(time_limit=CUTOFF), series)
            whole = table(sim, subsets)
            peaks.clear()
            with monkeypatch.context() as patch:
                patch.setattr(PortfolioSimulator, "_scores", traced)
                patch.setattr(learning, "FIT_BATCH_CELLS", budget)
                tracemalloc.start()
                try:
                    batched = table(sim, subsets)
                finally:
                    tracemalloc.stop()
                shared = [(size, peak) for obj, size, peak in peaks if size > 1]
                assert len(shared) > (2 if stack == 1 else 1), objective
                assert stack == 1 or max(shared)[0] > len(subsets), objective
                assert max(p for _, p in shared) <= 1.25 * 8 * budget, objective
            assert np.array_equal(batched, whole)

    def test_stacked_table_rows_equal_one_behaviour_simulators(self, monkeypatch):
        """Each row of a stacked simulator's table equals, bit for bit, the
        performances of a simulator made for its behaviour alone, and is
        -inf where a subset holds a solver without a model in the behaviour;
        the stacked search picks each behaviour's subset as a strict > scan
        of that simulator's subsets does, in size and then lexicographic
        order. Behaviours lack candidates and share model sets, rows lack
        features or have unusable ones, two members may predict alike, so
        that subsets tie, and the table is the same in batches of whole
        behaviours and of a few pairs."""
        lacking = shared = ties = 0
        for rng, matrix, series in cases(30, seed=3):
            purse = PurseConfig(time_limit=CUTOFF)
            features, models = self.simulator_inputs(rng, matrix)
            if rng.random() < 0.5:  # two members with equal predictions
                a, b = rng.sample(matrix.solvers, 2)
                models[b] = models[a]
            ids = rng.sample(matrix.instances, rng.randint(1, len(matrix.instances)))
            owns = []
            for _ in range(rng.randint(1, 6)):
                if owns and rng.random() < 0.3:  # another schedule, a model set seen before
                    owns.append(rng.choice(owns))
                    continue
                if rng.random() < 0.3:  # refits: equal models, other objects
                    models = {s: dataclasses.replace(m) for s, m in models.items()}
                size = rng.randint(1, len(matrix.solvers))
                owns.append({s: models[s] for s in rng.sample(matrix.solvers, size)})
            schedules = [random_schedule(rng, matrix) for _ in owns]
            backups = [rng.choice(matrix.solvers) for _ in owns]
            for objective in ("min_runtime", "max_score"):
                rows = SimulationRows(matrix, features, ids)
                stacked = PortfolioSimulator(
                    matrix, features, ids, schedules, backups, owns, objective, CUTOFF,
                    purse, series, rows=rows, presolved=replay_presolving(rows.runs, schedules, CUTOFF))
                subsets = [list(c) for c in portfolio._iter_subsets(stacked.members)]
                whole = table(stacked, subsets)
                picks = subset_search_exhaustive(stacked.members, stacked)
                pair = (7 if objective == "min_runtime" else 11) * len(ids)
                for budget in (2 * len(subsets) * pair, 2 * pair + 1):
                    with monkeypatch.context() as patch:
                        patch.setattr(learning, "FIT_BATCH_CELLS", budget)
                        assert whole.tobytes() == table(stacked, subsets).tobytes()
                for b, (schedule, backup, own) in enumerate(zip(schedules, backups, owns)):
                    alone = PortfolioSimulator(matrix, features, ids, schedule, backup, own,
                                               objective, CUTOFF, purse, series)
                    inside = np.array([set(subset) <= set(own) for subset in subsets])
                    own_subsets = [sub for sub, ok in zip(subsets, inside) if ok]
                    want = table(alone, own_subsets)[0]
                    assert whole[b, inside].tobytes() == want.tobytes()
                    assert (whole[b, ~inside] == -np.inf).all()
                    best = None
                    for subset, perf in zip(own_subsets, want.tolist()):
                        if best is None or perf > best[1]:
                            best = (subset, perf)
                    assert picks[b] == best
                    lacking += len(own) < len(stacked.members)
                    ties += (want == best[1]).sum() > 1
            shared += len(set(map(id, owns))) < len(owns)
        assert lacking > 10 and shared > 5 and ties > 10

    def test_shared_rows_predict_each_model_once(self, monkeypatch):
        # a stacked simulator predicts each distinct model set of its
        # behaviours in one ModelStack pass, however many behaviours share it
        rng = random.Random(4)
        matrix = random_matrix(rng, n_solvers=3, n_instances=10, cutoff=CUTOFF)
        features, models = self.simulator_inputs(rng, matrix)
        calls = []

        class Counted(portfolio.ModelStack):
            """Records the models of each stacked prediction."""

            def __init__(self, stacked):
                super().__init__(stacked)
                self.stacked = list(stacked)

            def predict(self, X):
                calls.append(self.stacked)
                return super().predict(X)
        monkeypatch.setattr(portfolio, "ModelStack", Counted)
        rows = portfolio.SimulationRows(matrix, features, matrix.instances)
        first, second, third = matrix.solvers
        owns = [models, {first: models[first], second: models[second]}, models,
                {third: models[third]}]
        schedules = [random_schedule(rng, matrix) for _ in owns]
        sim = PortfolioSimulator(matrix, features, matrix.instances, schedules,
                                 [first] * len(owns), owns, "min_runtime", CUTOFF, rows=rows)
        assert sorted(list(map(id, call)) for call in calls) == sorted(
            list(map(id, own.values())) for own in (owns[0], owns[1], owns[3]))
        monkeypatch.undo()
        for schedule, own, row in zip(schedules, owns, table(sim, [[first], [third]])):
            alone = PortfolioSimulator(matrix, features, matrix.instances, schedule, first, own,
                                       "min_runtime", CUTOFF)
            assert row.tolist() == [alone.scores([(0, [sid])])[0] if sid in own else -np.inf
                                    for sid in (first, third)]

    def test_model_trainer_fits_what_the_records_say(self, monkeypatch):
        got = {}

        def spy(name, read):
            original = getattr(portfolio, name)

            def wrapper(*args, **kw):
                got.update(read(*args))
                return original(*args, **kw)
            monkeypatch.setattr(portfolio, name, wrapper)
        spy("select_basis", lambda data: {"X": [d.features for d in data],
                                          "y": [d.targets for d in data]})
        spy("censored_fit", lambda data: {"censored": [d.censored for d in data]})

        rng = random.Random(5)
        fits = refused = 0
        for _ in range(12):
            matrix = random_matrix(rng, n_solvers=3, n_instances=24, cutoff=CUTOFF)
            for iid in matrix.instances:  # a solver every runtime fit must refuse
                matrix.add(RunRecord("never", iid, CUTOFF, "timeout") if rng.random() < 0.8
                           else RunRecord("never", iid, rng.uniform(0, CUTOFF), "crash"))
            series = random_series(rng, matrix)
            purse = PurseConfig(time_limit=CUTOFF)
            features, _ = self.simulator_inputs(rng, matrix)
            train_ids = sorted(rng.sample(matrix.instances, 18))
            train = SimulationRows(matrix, features, train_ids)
            for objective in ("min_runtime", "max_score"):
                settings = BuildSettings(objective=objective, cv_folds=2, max_raw_terms=2,
                                         max_expanded_terms=3, min_training_rows=6)
                trainer = _ModelTrainer(train, settings, purse, series, None)
                assert trainer.ids == [i for i in train_ids if i in features
                                       and features[i].usable]
                for _ in range(3):
                    keep = rng.uniform(0.3, 1.0)
                    mask = np.array([rng.random() < keep for _ in trainer.ids])
                    rows = [i for i, inside in zip(trainer.ids, mask) if inside]
                    if len(rows) < settings.min_training_rows:
                        continue  # the build fits no smaller row set
                    remainder = mask.tobytes()
                    for sid in matrix.solvers:
                        want = ref_fit_inputs(matrix, features, sid, rows, settings, purse,
                                              series, train_ids)
                        got.clear()
                        models, reasons = trainer.fit([(sid, remainder)])
                        if want is None:
                            refused += 1
                            assert not models and list(reasons) == [(sid, remainder)]
                            continue
                        fits += 1
                        assert list(models) == [(sid, remainder)] and not reasons
                        for key, value in zip(("X", "y", "censored"), want):
                            assert len(got[key]) == 1, key
                            assert np.array_equal(got[key][0], value), key
        assert fits > 50 and refused > 20

    def test_portfolio_simulator_raises_on_a_missing_cell(self):
        for rng, matrix, series in cases(20):
            holed, (_, hole_instance) = with_hole(rng, matrix)
            features, models = self.simulator_inputs(rng, matrix)
            with pytest.raises(KeyError):
                PortfolioSimulator(holed, features, [hole_instance], PresolverSchedule(),
                                   holed.solvers[0], models, "min_runtime", CUTOFF)
