import logging
import re

import numpy as np
import pytest

import zfolio.portfolio as portfolio_module
from zfolio.evaluation import drop_unsolvable, evaluate, split_data
from zfolio.features import FeatureVector
from zfolio.portfolio import (
    BuildSettings,
    PortfolioConfig,
    PortfolioSimulator,
    PresolverEntry,
    PresolverSchedule,
    TooManySolvers,
    build_portfolio,
    choose_backup,
    enumerate_presolver_configs,
    load_portfolio,
    portfolio_from_doc,
    portfolio_to_doc,
    save_portfolio,
    select_presolver_candidates,
    solve,
    subset_search_exhaustive,
    subset_search_local,
)
from zfolio.runners import SimulatedRunner
from zfolio.runtimes import RunRecord, RuntimeMatrix, SolverDescriptor
from zfolio.scoring import PurseConfig, singleton_series
from zfolio.synthetic import generate_benchmark

CUTOFF = 1200.0


def small_settings(objective="min_runtime", **kw):
    defaults = dict(
        objective=objective, cv_folds=3, max_raw_terms=3, max_expanded_terms=4,
        min_training_rows=5, presolver_top=1, seed=3,
    )
    defaults.update(kw)
    return BuildSettings(**defaults)


@pytest.fixture(scope="module")
def bench():
    return generate_benchmark(num_instances=150, seed=11)


@pytest.fixture(scope="module")
def built(bench):
    kept, _ = drop_unsolvable(bench.matrix)
    train, valid, test = split_data(kept, seed=1)
    matrix = bench.matrix.restrict(instances=[*train, *valid])
    portfolio = build_portfolio(
        train, valid, bench.features, matrix, bench.descriptors,
        small_settings(), bench.purse, bench.series,
    )
    return portfolio, train, valid, test


class TestPresolverSchedule:
    def test_cutoff_domain(self):
        with pytest.raises(ValueError):
            PresolverEntry("a", "complete", 7.0)

    def test_at_most_one_per_kind(self):
        e1 = PresolverEntry("a", "complete", 2.0)
        e2 = PresolverEntry("b", "complete", 5.0)
        with pytest.raises(ValueError):
            PresolverSchedule((e1, e2))

    def test_zero_cutoff_entries_skipped_at_runtime(self):
        e1 = PresolverEntry("a", "complete", 0.0)
        e2 = PresolverEntry("b", "local_search", 5.0)
        sched = PresolverSchedule((e1, e2))
        assert [e.solver_id for e in sched.active()] == ["b"]


def presolver_fixture_matrix():
    """Five complete and three local solvers with controlled 10 s behavior."""
    matrix = RuntimeMatrix(CUTOFF)
    descriptors = []
    speeds = {
        "c1": 1.0, "c2": 2.0, "c3": 4.0,
        "c4": 500.0, "c5": 600.0,  # never inside 10 s
        "l1": 0.5, "l2": 1.5, "l3": 3.0,
    }
    for sid, t in speeds.items():
        kind = "complete" if sid.startswith("c") else "local_search"
        descriptors.append(SolverDescriptor(sid, kind))
        for k in range(6):
            matrix.add(RunRecord(sid, f"i{k}", t, "sat"))
    return matrix, descriptors


class TestSelectPresolverCandidates:
    def test_all_returned_when_no_pressure(self):
        matrix, descriptors = presolver_fixture_matrix()
        matrix = matrix.restrict(solvers=["c1", "c2", "c3", "l1", "l2", "l3"])
        comp, local = select_presolver_candidates(matrix, descriptors)
        assert comp == ["c1", "c2", "c3"]
        assert local == ["l1", "l2", "l3"]

    def test_never_solvers_excluded(self):
        matrix, descriptors = presolver_fixture_matrix()
        comp, _ = select_presolver_candidates(matrix, descriptors)
        assert "c4" not in comp and "c5" not in comp
        assert comp == ["c1", "c2", "c3"]

    def test_tie_break_lexicographic(self):
        matrix = RuntimeMatrix(CUTOFF)
        descriptors = []
        for sid in ("zeta", "beta", "alpha", "gamma"):
            descriptors.append(SolverDescriptor(sid, "complete"))
            matrix.add(RunRecord(sid, "i0", 1.0, "sat"))
        comp, _ = select_presolver_candidates(matrix, descriptors)
        assert comp == ["alpha", "beta", "gamma"]


class TestEnumeratePresolverConfigs:
    def test_288_with_three_per_kind(self):
        scheds = enumerate_presolver_configs(["c1", "c2", "c3"], ["l1", "l2", "l3"])
        assert len(scheds) == 288

    def test_32_with_one_per_kind(self):
        scheds = enumerate_presolver_configs(["c1"], ["l1"])
        assert len(scheds) == 32

    def test_schedule_constraints(self):
        for sched in enumerate_presolver_configs(["c1", "c2"], ["l1"]):
            assert len(sched.entries) <= 2
            for e in sched.entries:
                assert e.cutoff_seconds in (0.0, 2.0, 5.0, 10.0)


def backup_fixture():
    """Validation matrix where A wins on average (300.75 vs 400) but B
    dominates the rows where A times out."""
    matrix = RuntimeMatrix(CUTOFF)
    for k in range(8):
        iid = f"i{k}"
        fast_a = k < 6
        matrix.add(RunRecord("A", iid, 1.0 if fast_a else CUTOFF,
                             "sat" if fast_a else "timeout"))
        matrix.add(RunRecord("B", iid, 400.0, "sat"))
    return matrix


class TestChooseBackup:
    def test_winner_take_all_without_timeouts(self):
        matrix = backup_fixture()
        sched = PresolverSchedule()
        flags = {iid: False for iid in matrix.instances}
        sid = choose_backup(matrix, sched, flags, "min_runtime", ["A", "B"], CUTOFF)
        assert sid == "A"  # avg (6*1 + 2*1200)/8 = 300.75 beats B's 400

    def test_timeout_subset_dominator_wins(self):
        matrix = backup_fixture()
        sched = PresolverSchedule()
        flags = {iid: iid in ("i6", "i7") for iid in matrix.instances}
        sid = choose_backup(matrix, sched, flags, "min_runtime", ["A", "B"], CUTOFF)
        assert sid == "B"  # A times out on exactly those rows

    def test_single_candidate(self):
        matrix = backup_fixture()
        sched = PresolverSchedule()
        flags = {iid: False for iid in matrix.instances}
        assert choose_backup(matrix, sched, flags, "min_runtime", ["B"], CUTOFF) == "B"


def two_cluster_validation():
    """Two solvers, each dominant on half the instances, perfect features."""
    matrix = RuntimeMatrix(CUTOFF)
    features = {}
    from zfolio.features import FeatureVector

    for k in range(20):
        iid = f"i{k:02d}"
        first = k < 10
        matrix.add(RunRecord("fast-a", iid, 1.0 if first else 900.0, "sat"))
        matrix.add(RunRecord("fast-b", iid, 900.0 if first else 1.0, "sat"))
        vec = np.zeros(48)
        vec[0] = 1.0 if first else -1.0
        features[iid] = FeatureVector(vec, 0.5, False, 0)
    return matrix, features


def perfect_models(matrix, features):
    """Models that reproduce each solver's true log runtime from feature 0."""
    from zfolio.learning import fit_ridge_model, log_runtime, make_basis

    ids = matrix.instances
    X = np.vstack([features[iid].values for iid in ids])
    models = {}
    for sid in matrix.solvers:
        y = log_runtime([matrix.get(sid, iid).runtime_seconds for iid in ids])
        models[sid] = fit_ridge_model(X, y, make_basis(X, [0]), delta=1e-6)
    return models


class TestSubsetSearchExhaustive:
    def make_simulator(self, subset_models=None):
        matrix, features = two_cluster_validation()
        models = subset_models or perfect_models(matrix, features)
        sim = PortfolioSimulator(
            matrix, features, matrix.instances, PresolverSchedule(),
            backup="fast-a", models=models, objective="min_runtime", cutoff=CUTOFF,
        )
        return sim, models

    def test_two_cluster_keeps_both(self):
        sim, models = self.make_simulator()
        subset, perf = subset_search_exhaustive(models.keys(), sim)
        assert subset == ["fast-a", "fast-b"]

    def test_tie_prefers_smaller_then_lexicographic(self):
        matrix = RuntimeMatrix(CUTOFF)
        features = {}
        from zfolio.features import FeatureVector

        for k in range(6):
            iid = f"i{k}"
            matrix.add(RunRecord("aaa", iid, 1.0, "sat"))
            matrix.add(RunRecord("bbb", iid, 1.0, "sat"))
            features[iid] = FeatureVector(np.zeros(48), 0.1, False, 0)
        models = perfect_models(matrix, features)
        sim = PortfolioSimulator(
            matrix, features, matrix.instances, PresolverSchedule(),
            backup="aaa", models=models, objective="min_runtime", cutoff=CUTOFF,
        )
        subset, _ = subset_search_exhaustive(models.keys(), sim)
        assert subset == ["aaa"]

    def test_returned_beats_every_other_subset(self):
        sim, models = self.make_simulator()
        best, best_perf = subset_search_exhaustive(models.keys(), sim)
        import itertools

        for size in (1, 2):
            for subset in itertools.combinations(sorted(models), size):
                assert sim.performance(subset) <= best_perf + 1e-12

    def test_guard(self):
        sim, models = self.make_simulator()
        with pytest.raises(TooManySolvers):
            subset_search_exhaustive(list("abcdefghijklmn"), sim)


def six_solver_fixture(seed):
    """Six synthetic solvers with noisy models for subset-search stress."""
    import random

    from zfolio.features import FeatureVector
    from zfolio.learning import fit_ridge_model, log_runtime, make_basis

    rng = random.Random(seed)
    nprng = np.random.default_rng(seed)
    matrix = RuntimeMatrix(CUTOFF)
    features = {}
    solver_ids = [f"s{j}" for j in range(6)]
    for k in range(60):
        iid = f"i{k:02d}"
        cluster = k % 3
        vec = np.zeros(48)
        vec[cluster] = 3.0
        vec[3:] = nprng.normal(size=45) * 0.1
        features[iid] = FeatureVector(vec, 0.2, False, 0)
        for j, sid in enumerate(solver_ids):
            good = (j % 3) == cluster
            base = 2.0 if good else 400.0
            t = base * rng.uniform(0.5, 2.0)
            if t > CUTOFF:
                matrix.add(RunRecord(sid, iid, CUTOFF, "timeout"))
            else:
                matrix.add(RunRecord(sid, iid, t, "sat"))
    ids = matrix.instances
    X = np.vstack([features[iid].values for iid in ids])
    models = {}
    for sid in solver_ids:
        y = log_runtime([matrix.get(sid, iid).runtime_seconds for iid in ids])
        y += nprng.normal(scale=0.3, size=len(y))  # imperfect predictions
        models[sid] = fit_ridge_model(X, y, make_basis(X, [0, 1, 2]), delta=1e-3)
    sim = PortfolioSimulator(
        matrix, features, ids, PresolverSchedule(), backup=solver_ids[0],
        models=models, objective="min_runtime", cutoff=CUTOFF,
    )
    return sim, solver_ids


class TestSubsetSearchLocal:
    def test_single_solver_returns_singleton(self):
        sim, models = TestSubsetSearchExhaustive().make_simulator()
        subset, _ = subset_search_local(["fast-a"], sim, seed=0)
        assert subset == ["fast-a"]

    def test_matches_exhaustive_on_six_solvers(self):
        # acceptance-style check at reduced seed count; the full 20-seed run
        # lives in the acceptance suite
        hits = 0
        for seed in range(5):
            sim, solver_ids = six_solver_fixture(seed=100 + seed)
            _, best = subset_search_exhaustive(solver_ids, sim)
            _, local = subset_search_local(solver_ids, sim, seed=seed)
            # performances are negative mean runtimes; compare on runtimes
            if -local <= -best * 1.05 + 1e-9:
                hits += 1
        assert hits >= 4

    def test_never_below_visited_initials(self):
        sim, solver_ids = six_solver_fixture(seed=7)
        subset, perf = subset_search_local(solver_ids, sim, seed=1)
        assert perf >= sim.performance(subset) - 1e-12


class TestBuildPortfolio:
    def test_runtime_objective_excludes_local_search(self, bench, built):
        portfolio, *_ = built
        kinds = {d.id: d.kind for d in bench.descriptors}
        for sid in portfolio.subset:
            assert kinds[sid] == "complete"

    def test_portfolio_beats_best_single_on_validation(self, bench, built):
        portfolio, train, valid, _ = built
        matrix = bench.matrix.restrict(instances=valid)
        sim = PortfolioSimulator(
            matrix, bench.features, valid, portfolio.presolvers,
            portfolio.backup_solver, portfolio.models, "min_runtime", CUTOFF,
        )
        _, total, _ = sim.simulate(portfolio.subset)
        report = evaluate(matrix)
        best_single = min(r.avg_runtime for r in report.rows)
        assert total.mean() <= best_single

    def test_score_objective_allows_local_search(self, bench):
        kept, _ = drop_unsolvable(bench.matrix)
        train, valid, _ = split_data(kept, seed=1)
        matrix = bench.matrix.restrict(instances=[*train, *valid])
        portfolio = build_portfolio(
            train, valid, bench.features, matrix, bench.descriptors,
            small_settings("max_score"), bench.purse, bench.series,
        )
        kinds = {d.id: d.kind for d in bench.descriptors}
        assert any(kinds[sid] == "local_search" for sid in portfolio.models) or \
            any(kinds[sid] == "local_search" for sid in portfolio.subset) or \
            len(portfolio.subset) >= 1  # local members are legal, not mandatory

    def test_instance_without_feature_values_is_skipped(self, bench, built, monkeypatch):
        # no values but not timed out: the build skips the training row and
        # ranks backups on the validation instance, exactly as it does when
        # the features timed out
        _, train, valid, _ = built
        matrix = bench.matrix.restrict(instances=[*train, *valid])
        flags = []

        def spy(matrix, schedule, feature_timed_out, *args):
            flags.append(feature_timed_out[valid[0]])
            return choose_backup(matrix, schedule, feature_timed_out, *args)
        monkeypatch.setattr(portfolio_module, "choose_backup", spy)
        docs = []
        for timed_out in (False, True):
            vector = FeatureVector(None, 1.0, timed_out, 0)
            features = {**bench.features, train[0]: vector, valid[0]: vector}
            docs.append(portfolio_to_doc(build_portfolio(
                train, valid, features, matrix, bench.descriptors,
                small_settings(hierarchy="sat2"), bench.purse, bench.series,
            )))
        assert docs[0] == docs[1]
        assert flags and all(flags)

    def test_runs_read_from_the_dense_view(self, monkeypatch):
        # fits read runs from one dense block, not a get() per cell, and
        # score labels come from one restrict of the training split
        bench = generate_benchmark(num_instances=100, seed=21)
        kept, _ = drop_unsolvable(bench.matrix)
        train, valid, _ = split_data(kept, seed=1)
        matrix = bench.matrix.restrict(instances=[*train, *valid])
        calls = {"get": 0, "restrict": 0}
        for name in calls:
            def counted(self, *args, _name=name, _method=getattr(RuntimeMatrix, name), **kw):
                calls[_name] += 1
                return _method(self, *args, **kw)
            monkeypatch.setattr(RuntimeMatrix, name, counted)
        for objective, hierarchy in (("min_runtime", "none"), ("max_score", "sat2")):
            calls.update(get=0, restrict=0)
            build_portfolio(train, valid, bench.features, matrix, bench.descriptors,
                            small_settings(objective, hierarchy=hierarchy),
                            bench.purse, bench.series)
            assert calls["get"] == 0, objective
            assert calls["restrict"] <= 1, objective

    def test_oracle_bound(self, bench, built):
        portfolio, _, valid, _ = built
        matrix = bench.matrix.restrict(instances=valid)
        sim = PortfolioSimulator(
            matrix, bench.features, valid, portfolio.presolvers,
            portfolio.backup_solver, portfolio.models, "min_runtime", CUTOFF,
        )
        _, total, _ = sim.simulate(portfolio.subset)
        report = evaluate(matrix)
        assert total.mean() >= report.oracle.avg_runtime - 1e-9


class TestBehaviourGrouping:
    """The build runs one simulator and one subset search per distinct
    schedule behaviour (training remainder and validation pre-solving)."""

    @pytest.fixture
    def split(self, bench):
        kept, _ = drop_unsolvable(bench.matrix)
        train, valid, _ = split_data(kept, seed=1)
        return train, valid, bench.matrix.restrict(instances=[*train, *valid])

    def build(self, bench, split, monkeypatch, schedules=lambda listed: listed, **settings):
        """Builds with the enumeration passed through `schedules`; returns
        the portfolio, the schedules enumerated and those the simulators
        were made for."""
        listed, built_for = [], []
        init = PortfolioSimulator.__init__

        def counted(self, matrix, features, ids, schedule, *args, **kw):
            built_for.append(schedule)
            init(self, matrix, features, ids, schedule, *args, **kw)

        def enumerate_(complete, local):
            listed.extend(schedules(enumerate_presolver_configs(complete, local)))
            return listed
        monkeypatch.setattr(PortfolioSimulator, "__init__", counted)
        monkeypatch.setattr(portfolio_module, "enumerate_presolver_configs", enumerate_)
        train, valid, matrix = split
        portfolio = build_portfolio(train, valid, bench.features, matrix, bench.descriptors,
                                    small_settings(**settings), bench.purse, bench.series)
        return portfolio, listed, built_for

    def test_one_behaviour_builds_one_simulator(self, bench, split, monkeypatch):
        # without an active pre-solver every schedule leaves the same work
        portfolio, listed, built_for = self.build(
            bench, split, monkeypatch, presolver_top=2,
            schedules=lambda listed: [s for s in listed if not s.active()])
        assert len(listed) == 8
        assert built_for == [listed[0]] and portfolio.presolvers == listed[0]

    def test_simulators_follow_behaviours_not_schedules(self, bench, split, monkeypatch,
                                                        caplog):
        caplog.set_level(logging.INFO, logger="zfolio.portfolio")
        _, listed, built_for = self.build(bench, split, monkeypatch, presolver_top=3)
        summary = [r.getMessage() for r in caplog.records
                   if "schedules enumerated" in r.getMessage()]
        assert len(summary) == 1
        counts = {name: int(n) for n, name in re.findall(
            r"(\d+) (schedules enumerated|skipped|distinct behaviours|fits|refused fits)",
            summary[0])}
        assert counts["schedules enumerated"] == len(listed) == 288  # criterion 7's count
        assert len(built_for) == counts["distinct behaviours"] < 288 - counts["skipped"]
        assert len(set(built_for)) == len(built_for)
        candidates = [d.id for d in bench.descriptors if d.kind == "complete"]
        assert counts["fits"] < len(candidates) * counts["distinct behaviours"]

    def test_fits_come_first_and_once(self, bench, split, monkeypatch):
        # phase 2 fits each (solver, training rows) pair once, before phase
        # 3 makes its first simulator; max_score labels are scored once
        events = []

        def record(owner, name, event):
            original = getattr(owner, name)

            def wrapper(*args, **kw):
                events.append(event(*args))
                return original(*args, **kw)
            monkeypatch.setattr(owner, name, wrapper)
        record(portfolio_module._ModelTrainer, "fit",
               lambda trainer, sid, rows: ("fit", sid, rows))
        record(PortfolioSimulator, "__init__", lambda *args: ("simulator",))
        record(portfolio_module, "score_labels", lambda *args: ("labels",))
        train, valid, matrix = split
        for objective in ("min_runtime", "max_score"):
            events.clear()
            build_portfolio(train, valid, bench.features, matrix, bench.descriptors,
                            small_settings(objective, presolver_top=2), bench.purse,
                            bench.series)
            fits = [e for e in events if e[0] == "fit"]
            first_simulator = events.index(("simulator",))
            assert fits and all(e[0] != "fit" for e in events[first_simulator:])
            assert len(set(fits)) == len(fits)
            assert events.count(("labels",)) == (objective == "max_score")

    def test_ties_go_to_the_earliest_schedule(self, bench, split, monkeypatch):
        # schedules whose active pre-solvers' cutoffs sum to 2 s tie for the
        # best; they belong to more than one behaviour, and the first of them
        # in enumeration order wins, whichever way the enumeration runs
        def cost(schedule):
            return abs(sum(e.cutoff_seconds for e in schedule.active()) - 2.0)

        monkeypatch.setattr(PortfolioSimulator, "performances",
                            lambda self, subsets: np.full(len(subsets), -cost(self.schedule)))
        winners = []
        for order in (list, reversed):
            portfolio, listed, built_for = self.build(
                bench, split, monkeypatch, presolver_top=2,
                schedules=lambda listed, order=order: list(order(listed)))
            assert len([s for s in built_for if cost(s) == 0]) >= 2
            assert portfolio.presolvers == next(s for s in listed if cost(s) == 0)
            winners.append(portfolio.presolvers)
        assert winners[0] != winners[1]


class TestSimulatorProperties:
    def test_single_member_no_presolver_equals_member_plus_features(self):
        matrix, features = two_cluster_validation()
        models = perfect_models(matrix, features)
        sim = PortfolioSimulator(
            matrix, features, matrix.instances, PresolverSchedule(),
            backup="fast-a", models=models, objective="min_runtime", cutoff=CUTOFF,
        )
        _, total, _ = sim.simulate(["fast-a"])
        member = np.array([matrix.get("fast-a", iid).runtime_seconds for iid in matrix.instances])
        ftime = np.array([features[iid].feature_time_seconds for iid in matrix.instances])
        assert np.allclose(total, member + ftime)

    def test_simulator_agrees_with_solve(self, bench, built):
        portfolio, _, valid, _ = built
        matrix = bench.matrix.restrict(instances=valid)
        sim = PortfolioSimulator(
            matrix, bench.features, valid, portfolio.presolvers,
            portfolio.backup_solver, portfolio.models, "min_runtime", CUTOFF,
        )
        solved, total, chosen = sim.simulate(portfolio.subset)
        runner = SimulatedRunner(bench.features, matrix)
        for j, iid in enumerate(valid[:40]):
            outcome = solve(portfolio, iid, runner)
            assert (outcome.status in ("sat", "unsat")) == bool(solved[j])
            assert abs(outcome.total_time_seconds - total[j]) < 1e-9


class TestSolve:
    def make_portfolio(self, bench, built):
        return built[0]

    def test_presolver_success_skips_features(self, bench, built):
        portfolio = built[0]
        matrix = bench.matrix
        # find an instance the first active pre-solver solves inside its cutoff
        entry = portfolio.presolvers.active()[0]
        target = next(
            iid for iid in matrix.instances
            if matrix.solved(entry.solver_id, iid)
            and matrix.get(entry.solver_id, iid).runtime_seconds <= entry.cutoff_seconds
        )
        calls = []

        class CountingRunner(SimulatedRunner):
            def features(self, iid, budget, seed):
                calls.append(iid)
                return super().features(iid, budget, seed)

        runner = CountingRunner(bench.features, matrix)
        outcome = solve(portfolio, target, runner)
        assert outcome.chosen_solver == f"presolver:{entry.solver_id}"
        assert calls == []

    def test_feature_timeout_routes_to_backup(self, bench, built):
        portfolio = built[0]
        matrix = bench.matrix
        target = self.unsolved_by_presolvers(portfolio, matrix)
        runner = SimulatedRunner(bench.features, matrix, feature_timeouts={target})
        outcome = solve(portfolio, target, runner)
        assert outcome.chosen_solver == f"backup:{portfolio.backup_solver}"
        phases = [t["phase"] for t in outcome.trace]
        assert "backup" in phases

    def unsolved_by_presolvers(self, portfolio, matrix):
        for iid in matrix.instances:
            ok = True
            for entry in portfolio.presolvers.active():
                rec = matrix.get(entry.solver_id, iid)
                if rec.solved and rec.runtime_seconds <= entry.cutoff_seconds:
                    ok = False
                    break
            if ok:
                return iid
        raise AssertionError("fixture has no pre-solver-hard instance")

    def test_crash_routes_to_next_best(self, bench, built):
        portfolio = built[0]
        matrix = bench.matrix
        target = self.unsolved_by_presolvers(portfolio, matrix)
        clean = SimulatedRunner(bench.features, matrix)
        baseline = solve(portfolio, target, clean)
        first_choice = baseline.chosen_solver
        assert ":" not in first_choice  # main-phase selection
        runner = SimulatedRunner(
            bench.features, matrix, crashes={(first_choice, target)}
        )
        outcome = solve(portfolio, target, runner)
        mains = [t for t in outcome.trace if t["phase"] == "main"]
        assert mains[0]["solver"] == first_choice
        assert mains[0]["status"] == "crash"
        assert len(mains) >= 2
        assert outcome.chosen_solver != first_choice

    def test_crash_exhausted(self, bench, built):
        portfolio = built[0]
        matrix = bench.matrix
        target = self.unsolved_by_presolvers(portfolio, matrix)
        crashes = {(sid, target) for sid in portfolio.subset}
        runner = SimulatedRunner(bench.features, matrix, crashes=crashes)
        outcome = solve(portfolio, target, runner)
        assert outcome.status == "crash_exhausted"

    def test_deterministic(self, bench, built):
        portfolio = built[0]
        runner = SimulatedRunner(bench.features, bench.matrix)
        target = bench.matrix.instances[0]
        a = solve(portfolio, target, runner)
        b = solve(portfolio, target, runner)
        assert a == b

    def test_time_accounting(self, bench, built):
        portfolio = built[0]
        runner = SimulatedRunner(bench.features, bench.matrix)
        for iid in bench.matrix.instances[:30]:
            outcome = solve(portfolio, iid, runner)
            assert outcome.total_time_seconds <= portfolio.cutoff_seconds + 1e-9


class TestPortfolioPersistence:
    def test_round_trip_predictions_and_outcomes(self, bench, built, tmp_path):
        portfolio = built[0]
        path = tmp_path / "portfolio.json"
        save_portfolio(portfolio, path)
        loaded = load_portfolio(path)
        assert loaded.subset == portfolio.subset
        assert loaded.backup_solver == portfolio.backup_solver
        assert loaded.presolvers == portfolio.presolvers
        probe = [iid for iid in bench.matrix.instances[:100]]
        X = np.vstack([bench.features[iid].values for iid in probe])
        for sid in portfolio.subset:
            a = portfolio.models[sid].predict_matrix(X)
            b = loaded.models[sid].predict_matrix(X)
            assert np.array_equal(a, b)

    def test_format_tag_checked(self, tmp_path, bench, built):
        import json

        portfolio = built[0]
        path = tmp_path / "portfolio.json"
        save_portfolio(portfolio, path)
        doc = json.loads(path.read_text())
        doc["format"] = "something-else"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_portfolio(path)

    def test_unknown_solvers_rejected_on_load(self, built):
        doc = portfolio_to_doc(built[0])
        sid = doc["subset"][0]
        ghost_member = {**doc, "subset": [*doc["subset"], "ghost"],
                        "models": {**doc["models"], "ghost": doc["models"][sid]}}
        entries = [dict(e) for e in doc["presolvers"]]
        entries[0]["solver_id"] = "ghost"
        ghost_presolver = {**doc, "presolvers": entries}
        for bad in (ghost_member, ghost_presolver):
            with pytest.raises(ValueError, match="no descriptor"):
                portfolio_from_doc(bad)
        portfolio_from_doc(doc)
