import dataclasses
import hashlib
import logging
import random
import re
import time

import numpy as np
import pytest

import zfolio.hierarchy as hierarchy_module
import zfolio.learning as learning_module
import zfolio.portfolio as portfolio_module
from zfolio.evaluation import drop_unsolvable, evaluate, split_data
from zfolio.features import FeatureVector
from zfolio.hierarchy import HierarchicalModel
from zfolio.portfolio import (
    BuildSettings,
    PortfolioConfig,
    PortfolioSimulator,
    PresolverEntry,
    PresolverSchedule,
    SimulationRows,
    TooManySolvers,
    build_portfolio,
    choose_backup,
    enumerate_presolver_configs,
    load_portfolio,
    portfolio_from_doc,
    portfolio_to_doc,
    replay_presolving,
    save_portfolio,
    select_presolver_candidates,
    solve,
    subset_search_exhaustive,
    subset_search_local,
)
from zfolio.probes import ProbeBudget
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
        runs = matrix.dense().block(["c1", "c2", "c3", "l1", "l2", "l3"])
        comp, local = select_presolver_candidates(runs, descriptors)
        assert comp == ["c1", "c2", "c3"]
        assert local == ["l1", "l2", "l3"]

    def test_never_solvers_excluded(self):
        matrix, descriptors = presolver_fixture_matrix()
        comp, _ = select_presolver_candidates(matrix.dense().block(), descriptors)
        assert "c4" not in comp and "c5" not in comp
        assert comp == ["c1", "c2", "c3"]

    def test_tie_break_lexicographic(self):
        matrix = RuntimeMatrix(CUTOFF)
        descriptors = []
        for sid in ("zeta", "beta", "alpha", "gamma"):
            descriptors.append(SolverDescriptor(sid, "complete"))
            matrix.add(RunRecord(sid, "i0", 1.0, "sat"))
        comp, _ = select_presolver_candidates(matrix.dense().block(), descriptors)
        assert comp == ["alpha", "beta", "gamma"]


class TestEnumeratePresolverConfigs:
    def test_288_with_three_per_kind(self):
        scheds = enumerate_presolver_configs(["c1", "c2", "c3"], ["l1", "l2", "l3"])
        assert len(scheds) == 288

    def test_32_with_one_per_kind(self):
        scheds = enumerate_presolver_configs(["c1"], ["l1"])
        assert len(scheds) == 32

    def test_one_kind_gives_one_entry_schedules(self):
        for complete, local in ((["c1", "c2", "c3"], []), ([], ["l1"])):
            scheds = enumerate_presolver_configs(complete, local)
            assert len(scheds) == 4 * len(complete or local)
            assert [(e.solver_id, e.cutoff_seconds) for s in scheds for e in s.entries] == \
                [(sid, cut) for sid in complete or local for cut in (0.0, 2.0, 5.0, 10.0)]
        assert enumerate_presolver_configs([], []) == []

    def test_schedule_constraints(self):
        for sched in enumerate_presolver_configs(["c1", "c2"], ["l1"]):
            assert len(sched.entries) <= 2
            for e in sched.entries:
                assert e.cutoff_seconds in (0.0, 2.0, 5.0, 10.0)


def backup_fixture():
    """Validation runs where A wins on average (300.75 vs 400) but B
    dominates the rows where A times out."""
    matrix = RuntimeMatrix(CUTOFF)
    for k in range(8):
        iid = f"i{k}"
        fast_a = k < 6
        matrix.add(RunRecord("A", iid, 1.0 if fast_a else CUTOFF,
                             "sat" if fast_a else "timeout"))
        matrix.add(RunRecord("B", iid, 400.0, "sat"))
    return matrix.dense().block()


class TestChooseBackup:
    def test_winner_take_all_without_timeouts(self):
        runs = backup_fixture()
        pool = np.zeros(len(runs.instances), dtype=bool)
        sid = choose_backup(runs, pool, "min_runtime", ["A", "B"], CUTOFF)
        assert sid == "A"  # avg (6*1 + 2*1200)/8 = 300.75 beats B's 400

    def test_timeout_subset_dominator_wins(self):
        runs = backup_fixture()
        pool = np.array([iid in ("i6", "i7") for iid in runs.instances])
        sid = choose_backup(runs, pool, "min_runtime", ["A", "B"], CUTOFF)
        assert sid == "B"  # A times out on exactly those rows

    def test_single_candidate(self):
        runs = backup_fixture()
        pool = np.zeros(len(runs.instances), dtype=bool)
        assert choose_backup(runs, pool, "min_runtime", ["B"], CUTOFF) == "B"

    def test_score_objective_needs_a_purse(self):
        # the objective alone picks the ranking: max_score never falls back
        # to mean runtime
        runs = backup_fixture()
        pool = np.zeros(len(runs.instances), dtype=bool)
        with pytest.raises(ValueError, match="purse"):
            choose_backup(runs, pool, "max_score", ["A", "B"], CUTOFF)


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
        features[iid] = FeatureVector(vec, 0.5, False)
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
            features[iid] = FeatureVector(np.zeros(48), 0.1, False)
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
                assert sim.scores([(0, subset)])[0] <= best_perf + 1e-12

    def test_guard_admits_exactly_the_limit(self, monkeypatch):
        sim, models = self.make_simulator()
        monkeypatch.setattr(portfolio_module, "EXHAUSTIVE_LIMIT", 2)
        assert subset_search_exhaustive(models.keys(), sim)[0] == ["fast-a", "fast-b"]
        monkeypatch.setattr(portfolio_module, "EXHAUSTIVE_LIMIT", 1)
        with pytest.raises(TooManySolvers):
            subset_search_exhaustive(models.keys(), sim)

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
        features[iid] = FeatureVector(vec, 0.2, False)
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
        assert perf >= sim.scores([(0, subset)])[0] - 1e-12


class TestBuildPortfolio:
    @pytest.mark.parametrize("solver", ["local-a", "local-b", "local-c"])
    def test_a_missing_training_cell_is_named(self, bench, solver):
        # the training view reads every (solver, training instance) cell, as
        # the validation view does, whether a fit or a replay reads it or not
        kept, _ = drop_unsolvable(bench.matrix)
        train, valid, _ = split_data(kept, seed=1)
        hole = (solver, sorted(train)[0])
        matrix = RuntimeMatrix(bench.matrix.cutoff_seconds)
        matrix.add(*(bench.matrix.get(sid, iid) for sid in bench.matrix.solvers
                     for iid in [*train, *valid] if (sid, iid) != hole))
        with pytest.raises(KeyError) as exc:
            build_portfolio(train, valid, bench.features, matrix, bench.descriptors,
                            small_settings(), bench.purse, bench.series)
        assert exc.value.args == (hole,)

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
        report = evaluate(matrix, PurseConfig(time_limit=CUTOFF), singleton_series(valid))
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

    def test_complete_solvers_only(self):
        # without a local-search candidate the schedules have one entry each
        bench = generate_benchmark(90, seed=1)
        kept, _ = drop_unsolvable(bench.matrix)
        train, valid, _ = split_data(kept, seed=1)
        descriptors = [dataclasses.replace(d, kind="complete") for d in bench.descriptors]
        portfolio = build_portfolio(train, valid, bench.features,
                                    bench.matrix.restrict(instances=[*train, *valid]),
                                    descriptors, small_settings(), bench.purse, bench.series)
        assert len(portfolio.presolvers.entries) == 1
        assert portfolio.subset

    def test_instance_without_feature_values_is_skipped(self, bench, built, monkeypatch):
        # no values but not timed out: the build skips the training row and
        # ranks backups on the validation instance, exactly as it does when
        # the features timed out
        _, train, valid, _ = built
        matrix = bench.matrix.restrict(instances=[*train, *valid])
        pooled = []

        def spy(runs, pool, *args):
            pooled.append(pool[runs.instance_index[valid[0]]])
            return choose_backup(runs, pool, *args)
        monkeypatch.setattr(portfolio_module, "choose_backup", spy)
        docs = []
        for timed_out in (False, True):
            pooled.clear()
            vector = FeatureVector(None, 1.0, timed_out)
            features = {**bench.features, train[0]: vector, valid[0]: vector}
            docs.append(portfolio_to_doc(build_portfolio(
                train, valid, features, matrix, bench.descriptors,
                small_settings(hierarchy="sat2"), bench.purse, bench.series,
            )))
            # the first behaviour has no active pre-solver, so its backup
            # pool holds every validation instance without usable features
            assert pooled[0]
        assert docs[0] == docs[1]

    def test_runs_read_from_the_dense_view(self, monkeypatch):
        # fits, backups and simulators read runs from the dense view: no
        # get() per cell and no restrict copy
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
            assert calls["restrict"] == 0, objective

    def test_chunking_leaves_the_build_unchanged(self, bench, monkeypatch):
        # a min_runtime/sat2 build whose batched fits run one problem per
        # chunk picks what the default-budget build picks, with the same
        # predictions
        kept, _ = drop_unsolvable(bench.matrix)
        train, valid, test = split_data(kept, seed=1)
        matrix = bench.matrix.restrict(instances=[*train, *valid])
        chunks = {}
        for owner, name in ((learning_module, "_select_chunk"), (learning_module, "_lockstep"),
                            (hierarchy_module, "_gate_chunk")):
            def counted(chunk, *args, _name=name, _kernel=getattr(owner, name)):
                chunks[_name] = chunks.get(_name, 0) + 1
                return _kernel(chunk, *args)
            monkeypatch.setattr(owner, name, counted)
        builds = []
        for cells in (learning_module.FIT_BATCH_CELLS, 1):
            monkeypatch.setattr(learning_module, "FIT_BATCH_CELLS", cells)
            chunks.clear()
            portfolio = build_portfolio(train, valid, bench.features, matrix, bench.descriptors,
                                        small_settings(hierarchy="sat2"), bench.purse,
                                        bench.series)
            builds.append((portfolio, dict(chunks)))
        (whole, whole_chunks), (split, split_chunks) = builds
        assert len(split_chunks) == 3
        assert all(split_chunks[name] > max(1, n) for name, n in whole_chunks.items())
        assert split.presolvers == whole.presolvers
        assert split.backup_solver == whole.backup_solver and split.subset == whole.subset
        assert split.models.keys() == whole.models.keys()
        X = np.array([bench.features[iid].values for iid in test
                      if bench.features[iid].values is not None])
        for sid, model in whole.models.items():
            got = split.models[sid].predict_matrix(X)
            assert np.max(np.abs(got - model.predict_matrix(X))) <= 1e-9, sid

    @pytest.mark.parametrize("objective, gates, digest", [
        ("min_runtime", 12, "c6f3ae60974dc3224c3d62d10fa56f8d578488eb68509fa51d525845a62ea61b"),
        ("max_score", 24, "a1ccdc8fbc0e41cb7a981801661fd1bbf60e130701cbda7adcadc56c0f1fb085"),
    ])
    def test_sat2_gate_weights_keep_their_bits(self, monkeypatch, objective, gates, digest):
        # the sha256 of every gate weight of a small sat2 build, in fitting
        # order, recorded before step 2c went through train_hierarchical. The
        # gates' Newton steps use BLAS, so another BLAS build may round them
        # differently
        bench = generate_benchmark(num_instances=30, seed=1)
        kept, _ = drop_unsolvable(bench.matrix)
        train, valid, _ = split_data(kept, seed=1)
        matrix = bench.matrix.restrict(instances=[*train, *valid])
        fitted = []
        original = hierarchy_module.fit_gating

        def spy(batch):
            fits = original(batch)
            fitted.extend(fits)
            return fits
        monkeypatch.setattr(hierarchy_module, "fit_gating", spy)
        build_portfolio(train, valid, bench.features, matrix, bench.descriptors,
                        small_settings(objective, hierarchy="sat2"), bench.purse, bench.series)
        h = hashlib.sha256()
        for fit in fitted:
            h.update(fit.weights.tobytes())
        assert (len(fitted), h.hexdigest()) == (gates, digest)

    def test_oracle_bound(self, bench, built):
        portfolio, _, valid, _ = built
        matrix = bench.matrix.restrict(instances=valid)
        sim = PortfolioSimulator(
            matrix, bench.features, valid, portfolio.presolvers,
            portfolio.backup_solver, portfolio.models, "min_runtime", CUTOFF,
        )
        _, total, _ = sim.simulate(portfolio.subset)
        report = evaluate(matrix, PurseConfig(time_limit=CUTOFF), singleton_series(valid))
        assert total.mean() >= report.oracle.avg_runtime - 1e-9


class TestBehaviourGrouping:
    """The build simulates each distinct schedule behaviour (training
    remainder and validation pre-solving) once, all of them in one stacked
    simulator and one subset search."""

    @pytest.fixture
    def split(self, bench):
        kept, _ = drop_unsolvable(bench.matrix)
        train, valid, _ = split_data(kept, seed=1)
        return train, valid, bench.matrix.restrict(instances=[*train, *valid])

    def build(self, bench, split, monkeypatch, schedules=lambda listed: listed, **settings):
        """Builds with the enumeration passed through `schedules`; returns
        the portfolio, the schedules enumerated and, per simulator made, the
        schedules it stacks."""
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
        assert built_for == [[listed[0]]] and portfolio.presolvers == listed[0]

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
        [stacked] = built_for
        assert len(stacked) == counts["distinct behaviours"] < 288 - counts["skipped"]
        assert len(set(stacked)) == len(stacked)
        candidates = [d.id for d in bench.descriptors if d.kind == "complete"]
        assert counts["fits"] < len(candidates) * counts["distinct behaviours"]

    def test_summary_times_each_phase(self, bench, split, monkeypatch, caplog):
        caplog.set_level(logging.INFO, logger="zfolio.portfolio")
        start = time.perf_counter()
        self.build(bench, split, monkeypatch, presolver_top=2)
        wall = time.perf_counter() - start
        [summary] = [r.getMessage() for r in caplog.records
                     if "schedules enumerated" in r.getMessage()]
        spent = re.findall(r"(\w+) (\d+\.\d{3})", summary.split("seconds by phase:")[1])
        assert [phase for phase, _ in spent] == ["0", "1", "2a", "2b", "2c", "3"]
        seconds = [float(v) for _, v in spent]
        assert min(seconds) >= 0 and sum(seconds) <= wall + 0.01
        assert seconds[2] > 0 and seconds[3] > 0  # bases selected, models fitted

    def test_summary_counts_capped_fits_and_scored_rows(self, bench, split, monkeypatch,
                                                         caplog):
        # the summary line counts the Schmee-Hahn fits that stopped at the
        # iteration cap, each of them also a DEBUG line, and the (behaviour,
        # subset) rows phase 3 scored: every subset of the members, for each
        # behaviour of the one stacked simulator
        caplog.set_level(logging.DEBUG, logger="zfolio")
        portfolio, _, [stacked] = self.build(bench, split, monkeypatch, presolver_top=2)
        [summary] = [r.getMessage() for r in caplog.records
                     if "schedules enumerated" in r.getMessage()]
        capped = re.search(r"(\d+) Schmee-Hahn fits stopped at (\d+) iterations", summary)
        debug = [r for r in caplog.records if r.getMessage().startswith(
            "Schmee-Hahn stopped at max_iter")]
        assert int(capped[1]) == len(debug) > 0
        assert int(capped[2]) == learning_module.CENSORED_MAX_ITER
        scored = re.search(r"(\d+) \(behaviour, subset\) rows scored", summary)
        members = {d.id for d in bench.descriptors if d.kind == "complete"}
        assert int(scored[1]) == len(stacked) * (2 ** len(members) - 1)

    def test_summary_of_a_flat_build(self, bench, split, monkeypatch, caplog):
        # a build without gates reads 0 Newton iterations, and its rows
        # scored are those of its one simulator
        made = []
        init = PortfolioSimulator.__init__

        def spy(self, *args, **kw):
            made.append(self)
            init(self, *args, **kw)
        monkeypatch.setattr(PortfolioSimulator, "__init__", spy)
        caplog.set_level(logging.INFO, logger="zfolio.portfolio")
        train, valid, matrix = split
        build_portfolio(train, valid, bench.features, matrix, bench.descriptors,
                        small_settings(presolver_top=2), bench.purse, bench.series)
        [summary] = [r.getMessage() for r in caplog.records
                     if "schedules enumerated" in r.getMessage()]
        assert "0 gates (Newton iterations median 0, max 0; 0 at the cap)" in summary
        [simulator] = made
        scored = re.search(r"(\d+) \(behaviour, subset\) rows scored", summary)
        assert int(scored[1]) == simulator.scored > 0

    @pytest.mark.parametrize("limit", [3, 2])
    def test_the_exhaustive_limit_admits_a_behaviour_of_its_size(self, bench, split,
                                                                 monkeypatch, limit):
        # every behaviour here has the 3 complete solvers' models: at
        # EXHAUSTIVE_LIMIT 3 each is searched over all its subsets, at 2 each
        # runs the local search from the build's seed
        searched = []
        local = portfolio_module._local_search

        def spy(solver_ids, seed):
            searched.append((solver_ids, seed))
            return local(solver_ids, seed)
        monkeypatch.setattr(portfolio_module, "_local_search", spy)
        monkeypatch.setattr(portfolio_module, "EXHAUSTIVE_LIMIT", limit)
        exhaustive = portfolio_module.subset_search_exhaustive
        picks = []

        def spy_exhaustive(solver_ids, simulator):
            picks.extend(exhaustive(solver_ids, simulator))
            return list(picks)
        monkeypatch.setattr(portfolio_module, "subset_search_exhaustive", spy_exhaustive)
        _, _, [stacked] = self.build(bench, split, monkeypatch, presolver_top=2)
        members = sorted(d.id for d in bench.descriptors if d.kind == "complete")
        assert len(picks) == len(stacked) > 1
        if limit == 3:
            assert searched == [] and None not in picks
        else:
            assert searched == [(members, 3)] * len(stacked) and picks == [None] * len(stacked)

    def test_fits_come_first_and_once(self, bench, split, monkeypatch):
        # phase 2 fits each (solver, training rows) pair once, in one
        # select_basis and one censored_fit batch, before phase 3 makes its
        # first simulator; max_score labels are scored once
        events = []

        def record(owner, name, event):
            original = getattr(owner, name)

            def wrapper(*args, **kw):
                events.append(event(*args))
                return original(*args, **kw)
            monkeypatch.setattr(owner, name, wrapper)
        record(portfolio_module._ModelTrainer, "fit",
               lambda trainer, pairs: ("fit", tuple(pairs)))
        record(portfolio_module, "select_basis", lambda data: ("select_basis",))
        record(portfolio_module, "censored_fit", lambda data: ("censored_fit",))
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
            assert len(fits) == 1 and events.count(("censored_fit",)) == 1
            assert events.count(("select_basis",)) == 1
            assert events.index(("select_basis",)) < events.index(("censored_fit",))
            assert all(e[0] not in ("fit", "select_basis", "censored_fit")
                       for e in events[first_simulator:])
            pairs = fits[0][1]
            assert pairs and len(set(pairs)) == len(pairs)
            assert events.count(("labels",)) == (objective == "max_score")

    def test_sat2_build_fits_every_gate_in_one_call(self, bench, split, monkeypatch, caplog):
        # phase 2c gathers every gate of the build and fits them in one
        # hierarchy.fit_gating call, through the module attribute; each
        # hierarchical model holds its gate's weights
        calls = []
        original = hierarchy_module.fit_gating

        def spy(gates, *args, **kw):
            fits = original(gates, *args, **kw)
            calls.append((list(gates), fits))
            return fits
        monkeypatch.setattr(hierarchy_module, "fit_gating", spy)
        caplog.set_level(logging.INFO, logger="zfolio.portfolio")
        train, valid, matrix = split
        portfolio = build_portfolio(train, valid, bench.features, matrix, bench.descriptors,
                                    small_settings("max_score", hierarchy="sat2",
                                                   presolver_top=2),
                                    bench.purse, bench.series)
        assert len(calls) == 1
        gates, fits = calls[0]
        assert len(fits) == len(gates) > 1 and all(fit.converged for fit in fits)
        inputs = gates[0][0]
        assert all(gate[0] is inputs for gate in gates)  # computed once for the batch
        weights = [fit.weights.tobytes() for fit in fits]
        assert all(m.gating_weights.tobytes() in weights for m in portfolio.models.values())
        [summary] = [r.getMessage() for r in caplog.records
                     if "schedules enumerated" in r.getMessage()]
        assert f"{len(gates)} gates (Newton iterations median" in summary
        assert "0 at the cap" in summary

    @pytest.mark.parametrize("objective", ["min_runtime", "max_score"])
    def test_validation_presolving_replayed_once_per_schedule(self, bench, split, monkeypatch,
                                                              objective):
        # phase 1 replays every schedule's pre-solvers on the validation set
        # in one batched call, and each simulator takes its behaviour's
        # outcome from there; no schedule is replayed on its own
        valid = sorted(split[1])
        replays = []
        original = portfolio_module.replay_presolving

        def spy(runs, schedules, cutoff):
            if runs.instances == valid:
                replays.append(list(schedules))
            return original(runs, schedules, cutoff)
        monkeypatch.setattr(portfolio_module, "replay_presolving", spy)
        _, listed, built_for = self.build(bench, split, monkeypatch, objective=objective,
                                          presolver_top=2)
        assert len(built_for) == 1 and len(built_for[0]) > 1
        assert replays == [listed]

    def test_backup_pool_follows_the_behaviour(self, bench, split, monkeypatch):
        # each simulator's backup is choose_backup's pick on the validation
        # instances that its behaviour's pre-solvers leave unsolved and whose
        # features are unusable; choose_backup ranks each distinct pool once
        train, valid, matrix = split
        features = dict(bench.features)
        for iid in valid[::4]:
            features[iid] = FeatureVector(None, 1.0, True)
        pools, built = [], []
        backup, init = portfolio_module.choose_backup, PortfolioSimulator.__init__

        def spy_backup(runs, pool, *args):
            pools.append(pool.tobytes())
            return backup(runs, pool, *args)

        def spy_init(self, matrix, features, ids, schedules, chosen, *args, **kw):
            built.extend((kw["rows"].runs, schedule, c) for schedule, c in zip(schedules, chosen))
            init(self, matrix, features, ids, schedules, chosen, *args, **kw)
        monkeypatch.setattr(portfolio_module, "choose_backup", spy_backup)
        monkeypatch.setattr(PortfolioSimulator, "__init__", spy_init)
        settings = small_settings(presolver_top=2)
        build_portfolio(train, valid, features, matrix, bench.descriptors, settings,
                        bench.purse, bench.series)
        candidates = sorted(d.id for d in bench.descriptors if d.kind == "complete")
        unusable = np.array([not features[iid].usable for iid in sorted(valid)])
        presolved_unusable, own_pools = 0, []
        for runs, schedule, chosen in built:
            assert runs.instances == sorted(valid)
            presolved = replay_presolving(runs, [schedule], CUTOFF)[0][0]
            pool = ~presolved & unusable
            own_pools.append(pool.tobytes())
            assert chosen == backup(runs, pool, settings.objective, candidates, CUTOFF,
                                    bench.purse, bench.series)
            presolved_unusable += bool((presolved & unusable).any())
        assert len(built) > 1 and presolved_unusable > 0
        assert pools == list(dict.fromkeys(own_pools))

    def test_ties_go_to_the_earliest_schedule(self, bench, split, monkeypatch):
        # schedules whose active pre-solvers' cutoffs sum to 2 s tie for the
        # best; they belong to more than one behaviour, and the first of them
        # in enumeration order wins, whichever way the enumeration runs
        def cost(schedule):
            return abs(sum(e.cutoff_seconds for e in schedule.active()) - 2.0)

        monkeypatch.setattr(PortfolioSimulator, "_scores_of", lambda self, behaviours, _: np.array(
            [-cost(self.schedules[b]) for b in behaviours]))
        winners = []
        for order in (list, reversed):
            portfolio, listed, [stacked] = self.build(
                bench, split, monkeypatch, presolver_top=2,
                schedules=lambda listed, order=order: list(order(listed)))
            assert len([s for s in stacked if cost(s) == 0]) >= 2
            assert portfolio.presolvers == next(s for s in listed if cost(s) == 0)
            winners.append(portfolio.presolvers)
        assert winners[0] != winners[1]


class TestStackedSelection:
    """Phase 3 picks what the per-behaviour loop it replaced picks."""

    @pytest.mark.parametrize("objective, limit", [("min_runtime", 12), ("max_score", 12),
                                                  ("min_runtime", 2), ("max_score", 5)])
    def test_choices_equal_a_per_behaviour_search(self, bench, monkeypatch, objective, limit):
        # the oracle is the loop the stacked simulator replaced: per
        # behaviour, in order of its first schedule, choose_backup on its
        # pool, a simulator of its own and a search of its own models (local
        # above the exhaustive limit), the strict > keeping the earliest of
        # the best. complete-a crashes on 70% of the instances, so under
        # min_runtime some training remainders leave it fewer than 10 rows
        # and some behaviours lack its model; a quarter of the validation
        # instances have unusable features. Under max_score at limit 5
        # every behaviour has 6 members and runs the local search
        rng = random.Random(7)
        matrix = RuntimeMatrix(CUTOFF)
        for sid in bench.matrix.solvers:
            for iid in bench.matrix.instances:
                rec = bench.matrix.get(sid, iid)
                if sid == "complete-a" and rng.random() < 0.7:
                    rec = RunRecord(sid, iid, rec.runtime_seconds, "crash")
                matrix.add(rec)
        kept, _ = drop_unsolvable(matrix)
        train, valid, _ = split_data(kept, seed=1)
        features = dict(bench.features)
        for iid in sorted(valid)[::4]:
            features[iid] = FeatureVector(None, 1.0, True)
        made = []
        init = PortfolioSimulator.__init__

        def spy(self, *args, **kw):
            made.append((args, kw))
            init(self, *args, **kw)
        monkeypatch.setattr(PortfolioSimulator, "__init__", spy)
        monkeypatch.setattr(portfolio_module, "EXHAUSTIVE_LIMIT", limit)
        settings = small_settings(objective, presolver_top=2, min_training_rows=10)
        matrix = matrix.restrict(instances=[*train, *valid])
        portfolio = build_portfolio(train, valid, features, matrix, bench.descriptors,
                                    settings, bench.purse, bench.series)
        monkeypatch.setattr(PortfolioSimulator, "__init__", init)

        # one stacked simulator at every limit
        [(args, kw)] = made
        schedules, models = args[3], args[5]
        rows, presolved = kw["rows"], kw["presolved"]
        candidates = sorted(d.id for d in bench.descriptors
                            if objective == "max_score" or d.kind == "complete")
        best = None
        for b, (schedule, own) in enumerate(zip(schedules, models)):
            pool = ~presolved[0][b] & ~rows.feature_ok
            backup = choose_backup(rows.runs, pool, objective, candidates, CUTOFF,
                                   bench.purse, bench.series)
            sim = PortfolioSimulator(matrix, features, valid, schedule, backup, own, objective,
                                     CUTOFF, bench.purse, bench.series, rows=rows,
                                     presolved=tuple(a[b] for a in presolved))
            if len(own) <= limit:
                subset, perf = subset_search_exhaustive(own.keys(), sim)
            else:
                subset, perf = subset_search_local(own.keys(), sim, seed=settings.seed)
            if best is None or perf > best[0]:
                best = (perf, schedule, backup, subset)
        assert (portfolio.presolvers, portfolio.backup_solver, portfolio.subset) == best[1:]
        assert len(schedules) > 1 and (~rows.feature_ok).any()
        lacking = sum(len(own) < len(candidates) for own in models)
        assert (lacking > 0) == (objective == "min_runtime")
        assert (min(map(len, models)) > limit) == (limit == 5)


class TestBuildSettings:
    @pytest.mark.parametrize("name, value", [
        ("cutoff_seconds", 0.0), ("cutoff_seconds", -1.0), ("cutoff_seconds", float("nan")),
        ("cutoff_seconds", float("inf")), ("cv_folds", 1), ("cv_folds", 2.5),
        ("max_raw_terms", 0), ("presolver_top", 0), ("min_training_rows", 1),
        ("seed", 3.7), ("seed", True),
    ])
    def test_values_no_build_can_use_are_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            BuildSettings(**{name: value})

    def test_smallest_usable_values_are_accepted(self):
        BuildSettings(cutoff_seconds=0.5, cv_folds=2, max_raw_terms=1, presolver_top=1,
                      min_training_rows=2)

    def test_defaults_follow_the_methodology(self):
        # the method's defaults: the competition cutoff, 10-fold validation,
        # at most 30 raw and 40 expanded basis terms, 3 pre-solver candidates
        # per kind and 10 rows before a model (or a class expert) is fitted
        assert dataclasses.asdict(BuildSettings()) == {
            "objective": "min_runtime", "hierarchy": "none", "cutoff_seconds": 1200.0,
            "cv_folds": 10, "max_raw_terms": 30, "max_expanded_terms": 40,
            "presolver_top": 3, "min_training_rows": 10, "seed": 0,
            "feature_budget": dataclasses.asdict(ProbeBudget())}

    def test_a_portfolio_defaults_to_seed_0(self, built):
        portfolio = built[0]
        fields = {f.name for f in dataclasses.fields(PortfolioConfig) if f.init}
        rebuilt = PortfolioConfig(**{name: getattr(portfolio, name)
                                     for name in fields - {"seed"}})
        assert rebuilt.seed == 0


class TestExpertRows:
    """Each hierarchical expert learns from its class's rows, and the
    classes too small for their own share one model of all the rows."""

    @pytest.fixture
    def spied(self, monkeypatch):
        """The (X, y) of every problem of every select_basis batch."""
        calls = []
        original = portfolio_module.select_basis

        def spy(data, **kw):
            calls.extend((d.features.copy(), d.targets.copy()) for d in data)
            return original(data, **kw)
        monkeypatch.setattr(portfolio_module, "select_basis", spy)
        return calls

    def trainer(self, bench, hierarchy):
        """The training split and a max_score trainer over it (minimum 5 rows)."""
        kept, _ = drop_unsolvable(bench.matrix)
        train, _, _ = split_data(kept, seed=1)
        categories = {inst.id: inst.category for inst in bench.instances}
        return train, portfolio_module._ModelTrainer(
            SimulationRows(bench.matrix, bench.features, sorted(train)),
            small_settings("max_score", hierarchy=hierarchy), bench.purse, bench.series,
            categories)

    @staticmethod
    def remainder(trainer, rows) -> bytes:
        """The remainder of these training instances: their mask's bytes."""
        return np.isin(trainer.ids, list(rows)).tobytes()

    def fit_one(self, trainer, sid, rows):
        remainder = self.remainder(trainer, rows)
        models, refused = trainer.fit([(sid, remainder)])
        assert not refused
        return models[sid, remainder]

    def test_small_classes_share_one_expert(self, bench, spied):
        train, trainer = self.trainer(bench, "sat2")
        sat = [i for i in train if bench.matrix.sat_label(i) == "sat"]
        unsat = [i for i in train if bench.matrix.sat_label(i) == "unsat"]
        X = {iid: bench.features[iid].values for iid in train}

        # both classes below the minimum of 5: one model of all the rows
        rows = tuple(sorted(sat[:3] + unsat[:3]))
        model = self.fit_one(trainer, "complete-a", rows)
        assert model.classes == ["sat", "unsat"]
        assert model.conditional_models[0] is model.conditional_models[1]
        assert len(spied) == 1
        assert np.array_equal(spied[0][0], np.vstack([X[i] for i in rows]))

        # a class at the minimum learns from exactly its own rows
        spied.clear()
        rows = tuple(sorted(sat[:5] + unsat[:2]))
        model = self.fit_one(trainer, "complete-a", rows)
        assert model.conditional_models[0] is not model.conditional_models[1]
        own = [i for i in rows if i in sat]
        assert [len(x) for x, _ in spied] == [5, 7]
        assert np.array_equal(spied[0][0], np.vstack([X[i] for i in own]))
        assert np.array_equal(spied[1][0], np.vstack([X[i] for i in rows]))

    def test_solvers_with_the_same_targets_share_an_expert(self, bench, spied):
        # local-search solvers solve no unsat instance, so they all score 0
        # on the unsat rows: one problem, fitted once, serves their experts
        train, trainer = self.trainer(bench, "sat2")
        sat = [i for i in train if bench.matrix.sat_label(i) == "sat"]
        unsat = [i for i in train if bench.matrix.sat_label(i) == "unsat"]
        rows = self.remainder(trainer, sat[:6] + unsat[:6])
        local = [d.id for d in bench.descriptors if d.kind == "local_search"]
        models, _ = trainer.fit([(sid, rows) for sid in local])
        k = trainer.classifier.classes.index("unsat")
        assert len({id(models[sid, rows].conditional_models[k]) for sid in local}) == 1
        assert len(local) > 1 and len(spied) == len(local) + 1
        assert len({(x.tobytes(), y.tobytes()) for x, y in spied}) == len(spied)

    @pytest.mark.parametrize("hierarchy", ["none", "sat2"])
    def test_pairs_with_equal_columns_get_equal_models(self, bench, hierarchy):
        # under min_runtime a solver learns nothing from its crashed runs, so
        # two remainders that differ only by an instance it crashed on leave
        # it the same columns, and its two pairs share one fit
        kept, _ = drop_unsolvable(bench.matrix)
        train, _, _ = split_data(kept, seed=1)
        usable = [iid for iid in train if bench.features[iid].usable]
        crashed = usable[0]
        matrix = RuntimeMatrix(bench.matrix.cutoff_seconds)
        matrix.add(*(bench.matrix.get(s, i) for s in bench.matrix.solvers
                     for i in bench.matrix.instances if (s, i) != ("complete-a", crashed)),
                   RunRecord("complete-a", crashed, 1.0, "crash"))
        trainer = portfolio_module._ModelTrainer(
            SimulationRows(matrix, bench.features, train), small_settings(hierarchy=hierarchy),
            bench.purse, bench.series, None)
        rows = self.remainder(trainer, usable[1:21])
        both = self.remainder(trainer, usable[:21])
        models, refused = trainer.fit([(sid, r) for r in (rows, both)
                                       for sid in ("complete-a", "complete-b")])
        assert not refused
        X = np.vstack([bench.features[iid].values for iid in usable])
        one, other = models["complete-a", rows], models["complete-a", both]
        assert one.predict_matrix(X).tobytes() == other.predict_matrix(X).tobytes()
        if hierarchy == "none":
            assert one is other
        b_rows, b_both = models["complete-b", rows], models["complete-b", both]
        assert b_rows.predict_matrix(X).tobytes() != b_both.predict_matrix(X).tobytes()

    def test_a_gate_with_the_minimum_of_observed_rows_fits_on_them_alone(self, bench,
                                                                         monkeypatch):
        # a gate learns from a pair's observed (uncensored) rows once they
        # number min_training_rows, and from all its rows below that
        gates = []
        original = hierarchy_module.train_hierarchical

        def spy(classifier, X, listed):
            listed = list(listed)
            gates.extend(rows.tolist() for _, rows, _ in listed)
            return original(classifier, X, listed)
        monkeypatch.setattr(hierarchy_module, "train_hierarchical", spy)
        kept, _ = drop_unsolvable(bench.matrix)
        train, _, _ = split_data(kept, seed=1)
        settings = small_settings(hierarchy="sat2")
        trainer = portfolio_module._ModelTrainer(
            SimulationRows(bench.matrix, bench.features, sorted(train)), settings,
            bench.purse, bench.series, None)
        status = [bench.matrix.get("complete-a", iid).status for iid in trainer.ids]
        solved = [j for j, st in enumerate(status) if st in ("sat", "unsat")]
        timeouts = [j for j, st in enumerate(status) if st == "timeout"]
        minimum = settings.min_training_rows
        for observed in (minimum, minimum - 1):
            gates.clear()
            cols = sorted(solved[:observed] + timeouts[:8])
            mask = np.isin(np.arange(len(trainer.ids)), cols)
            _, refused = trainer.fit([("complete-a", mask.tobytes())])
            assert not refused and len(timeouts) >= 8
            assert gates == [solved[:observed] if observed == minimum else cols]

    def test_general6_fits_all_rows_at_most_once(self, bench, spied):
        train, trainer = self.trainer(bench, "general6")
        rows = tuple(train[:24])
        model = self.fit_one(trainer, "local-a", rows)
        experts = model.conditional_models
        shared = [m for m in experts if sum(m is other for other in experts) > 1]
        assert len(model.classes) == 6 and len(shared) >= 2
        assert sum(len(x) == len(rows) for x, _ in spied) == 1
        assert len(spied) == len(experts) - len(shared) + 1

    def test_no_fit_selects_a_basis_twice_for_the_same_data(self, spied):
        # perfbench-sized builds, where most training remainders leave both
        # classes below the minimum number of rows, and where (seed 4) two
        # remainders hold the same rows of a class: each expert is fitted
        # once per build
        for seed in (0, 4):
            small = generate_benchmark(num_instances=30, seed=seed)
            kept, _ = drop_unsolvable(small.matrix)
            train, valid, _ = split_data(kept, seed=seed)
            for objective in ("min_runtime", "max_score"):
                spied.clear()
                settings = BuildSettings(objective=objective, hierarchy="sat2", cv_folds=5,
                                         max_raw_terms=4, max_expanded_terms=6, seed=seed)
                build_portfolio(train, valid, small.features,
                                small.matrix.restrict(instances=[*train, *valid]),
                                small.descriptors, settings, small.purse, small.series)
                assert spied
                inputs = {(x.tobytes(), y.tobytes()) for x, y in spied}
                assert len(inputs) == len(spied), (seed, objective)


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


@pytest.fixture(scope="module", params=["none", "sat2", "general6"])
def hierarchy_built(request, bench):
    """A max_score portfolio built with the hierarchy of the param, the test
    split and its runs."""
    kept, _ = drop_unsolvable(bench.matrix)
    train, valid, test = split_data(kept, seed=1)
    categories = {inst.id: inst.category for inst in bench.instances}
    portfolio = build_portfolio(
        train, valid, bench.features, bench.matrix.restrict(instances=[*train, *valid]),
        bench.descriptors, small_settings("max_score", hierarchy=request.param), bench.purse,
        bench.series, categories,
    )
    return portfolio, test, bench.matrix.restrict(instances=test)


class TestPredictionsAgree:
    """A row's prediction has the same bits alone, in a block or stacked
    beside other models, so solve and the simulator rank on the same values."""

    def test_row_alone_equals_its_row_of_the_block(self, bench, hierarchy_built):
        portfolio, test, _ = hierarchy_built
        X = np.vstack([bench.features[i].values for i in test if bench.features[i].usable])
        stacked = portfolio.stack.predict(X)
        for m, sid in enumerate(portfolio.subset):
            model = portfolio.models[sid]
            block = model.predict_matrix(X)
            assert block.tobytes() == np.ascontiguousarray(stacked[:, m]).tobytes(), sid
            for i, x in enumerate(X):
                assert model.predict_matrix(x[None, :])[0].tobytes() == block[i].tobytes()
                assert model.predict(x) == block[i]

    def test_solve_predicts_the_simulator_columns(self, bench, hierarchy_built):
        portfolio, test, matrix = hierarchy_built
        rows = SimulationRows(matrix, bench.features, test)
        sim = PortfolioSimulator(matrix, bench.features, test, portfolio.presolvers,
                                 portfolio.backup_solver, portfolio.models, portfolio.objective,
                                 portfolio.cutoff_seconds, bench.purse, bench.series, rows=rows)
        solved, total, _ = sim.simulate(portfolio.subset)
        columns = rows.predict([portfolio.models[sid] for sid in portfolio.subset])
        runner = SimulatedRunner(bench.features, matrix)
        consulted = 0
        for j, iid in enumerate(test):
            outcome = solve(portfolio, iid, runner)
            assert (outcome.status in ("sat", "unsat")) == bool(solved[j])
            assert abs(outcome.total_time_seconds - total[j]) < 1e-9
            for step in outcome.trace:
                if step["phase"] == "predict":
                    got = np.array([step["predictions"][sid] for sid in portfolio.subset])
                    assert got.tobytes() == columns[j].tobytes(), iid
                    consulted += 1
        assert consulted > 0

    def test_loaded_hierarchical_models_share_one_classifier(self, bench, hierarchy_built,
                                                             tmp_path):
        portfolio, test, _ = hierarchy_built
        path = tmp_path / "portfolio.json"
        save_portfolio(portfolio, path)
        loaded = load_portfolio(path)
        hierarchical = [m for m in loaded.models.values() if isinstance(m, HierarchicalModel)]
        assert len(hierarchical) == sum(isinstance(m, HierarchicalModel)
                                        for m in portfolio.models.values())
        assert len({id(m.classifier) for m in hierarchical}) <= 1
        X = np.vstack([bench.features[i].values for i in test if bench.features[i].usable])
        assert loaded.stack.predict(X).tobytes() == portfolio.stack.predict(X).tobytes()
        for sid in portfolio.subset:
            assert (loaded.models[sid].predict_matrix(X).tobytes()
                    == portfolio.models[sid].predict_matrix(X).tobytes())


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

    def test_feature_error_routes_to_backup(self, bench, built):
        # an exception from the feature phase is traced, not raised
        error = OSError("unreadable instance")

        class Failing(SimulatedRunner):
            def features(self, iid, budget, seed):
                raise error
        portfolio = built[0]
        target = self.unsolved_by_presolvers(portfolio, bench.matrix)
        outcome = solve(portfolio, target, Failing(bench.features, bench.matrix))
        assert outcome.chosen_solver == f"backup:{portfolio.backup_solver}"
        step = next(t for t in outcome.trace if t["phase"] == "features")
        assert step == {"phase": "features", "timed_out": True, "feature_time": 0.0,
                        "error": repr(error)}

    def test_presolver_after_the_cutoff_never_runs(self, bench, built):
        # the first pre-solver's 5 s use up the 5 s cutoff, so the 10 s one
        # gets no time and no run
        kinds = {d.id: d.kind for d in bench.descriptors}
        first = next(s for s in bench.matrix.solvers if kinds[s] == "complete")
        second = next(s for s in bench.matrix.solvers if kinds[s] == "local_search")
        portfolio = dataclasses.replace(built[0], cutoff_seconds=5.0, presolvers=PresolverSchedule(
            (PresolverEntry(first, "complete", 5.0), PresolverEntry(second, "local_search", 10.0))))
        target = next(iid for iid in bench.matrix.instances
                      if not (bench.matrix.solved(first, iid)
                              and bench.matrix.get(first, iid).runtime_seconds <= 5.0))
        calls = []

        class Spy(SimulatedRunner):
            def run(self, sid, iid, time_limit):
                calls.append((sid, time_limit))
                return super().run(sid, iid, time_limit)
        outcome = solve(portfolio, target, Spy(bench.features, bench.matrix))
        assert calls == [(first, 5.0)]
        assert [t["solver"] for t in outcome.trace if t["phase"] == "presolve"] == [first]
        assert outcome.status == "timeout"

    def test_deterministic(self, bench, built):
        portfolio = built[0]
        runner = SimulatedRunner(bench.features, bench.matrix)
        target = bench.matrix.instances[0]
        a = solve(portfolio, target, runner)
        b = solve(portfolio, target, runner)
        assert a == b

    def test_feature_budget_is_clipped_only_when_it_overruns(self, bench, built):
        # at the default budget (60 s) the time left after pre-solving (at
        # most 10 s each) is ample, and solve hands the portfolio's budget
        # over as it is; a budget longer than the time left is clipped to it
        budgets = []

        class Spy(SimulatedRunner):
            def features(self, iid, budget, seed):
                budgets.append(budget)
                return super().features(iid, budget, seed)
        runner = Spy(bench.features, bench.matrix)
        portfolio = built[0]
        target = self.unsolved_by_presolvers(portfolio, bench.matrix)
        solve(portfolio, target, runner)
        assert budgets[-1] is portfolio.feature_budget
        long = dataclasses.replace(portfolio, feature_budget=dataclasses.replace(
            portfolio.feature_budget, total_seconds=portfolio.cutoff_seconds))
        outcome = solve(long, target, runner)
        presolved = sum(min(t["runtime"], t["budget"]) for t in outcome.trace
                        if t["phase"] == "presolve")
        assert presolved > 0
        assert budgets[-1] == dataclasses.replace(
            long.feature_budget, total_seconds=long.cutoff_seconds - presolved)

    def at_the_boundary(self, bench, built, presolvers=(), feature_time=0.0):
        """Solve one instance with a 10.5 s cutoff, where every solver but
        `presolvers[0]` solves in 0.3 s and that one times out."""
        portfolio = dataclasses.replace(built[0], presolvers=PresolverSchedule(presolvers),
                                        cutoff_seconds=10.5)
        slow = presolvers[0].solver_id if presolvers else None
        matrix = RuntimeMatrix(10.5)
        matrix.add(*(RunRecord(sid, "x", 10.5, "timeout") if sid == slow else
                     RunRecord(sid, "x", 0.3, "sat") for sid in portfolio.descriptors))
        values = next(fv.values for fv in bench.features.values() if fv.usable)
        runner = SimulatedRunner({"x": FeatureVector(values, feature_time, False)}, matrix)
        return solve(portfolio, "x", runner)

    def test_a_presolver_with_half_a_second_left_still_runs(self, bench, built):
        # the first pre-solver times out at 10 s of the 10.5 s cutoff; the
        # second then runs with 0.5 s and solves in 0.3 s
        first, second = sorted(built[0].descriptors)[:2]
        outcome = self.at_the_boundary(bench, built, (PresolverEntry(first, "complete", 10.0),
                                                      PresolverEntry(second, "local_search", 2.0)))
        assert outcome.trace[1]["budget"] == 0.5
        assert (outcome.status, outcome.chosen_solver) == ("sat", f"presolver:{second}")
        assert outcome.total_time_seconds == pytest.approx(10.3)

    def test_a_main_run_with_half_a_second_left_still_runs(self, bench, built):
        # features take 10 s of the 10.5 s cutoff; the best predicted solver
        # then runs with 0.5 s and solves in 0.3 s
        outcome = self.at_the_boundary(bench, built, feature_time=10.0)
        assert [t["phase"] for t in outcome.trace] == ["features", "predict", "main"]
        assert outcome.status == "sat" and outcome.chosen_solver in built[0].subset
        assert outcome.total_time_seconds == pytest.approx(10.3)

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

    def test_round_trip_keeps_solver_ids_that_need_quoting(self, built, tmp_path):
        import json

        text = json.dumps(portfolio_to_doc(built[0]))
        for k, sid in enumerate(sorted(built[0].descriptors)):
            text = text.replace(json.dumps(sid), json.dumps(f' {sid},"caf\u00e9{k}"'))
        portfolio = portfolio_from_doc(json.loads(text))
        path = tmp_path / "portfolio.json"
        save_portfolio(portfolio, path)
        loaded = load_portfolio(path)
        assert portfolio_to_doc(loaded) == portfolio_to_doc(portfolio) == json.loads(text)
        assert loaded.subset == portfolio.subset and loaded.subset[0].startswith(" ")

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

    def test_weights_one_short_are_refused(self, built, tmp_path):
        import json

        doc = portfolio_to_doc(built[0])
        sid = doc["subset"][0]
        doc["models"][sid]["weights"].pop()
        path = tmp_path / "portfolio.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as exc:
            load_portfolio(path)
        assert str(exc.value).startswith(f"{path}: weight length")

    @pytest.fixture(scope="class")
    def gated_doc(self):
        """The document of a small max_score/sat2 build: hierarchical models."""
        bench = generate_benchmark(num_instances=30, seed=1)
        kept, _ = drop_unsolvable(bench.matrix)
        train, valid, _ = split_data(kept, seed=1)
        portfolio = build_portfolio(
            train, valid, bench.features, bench.matrix.restrict(instances=[*train, *valid]),
            bench.descriptors, small_settings("max_score", hierarchy="sat2"), bench.purse,
            bench.series)
        return portfolio_to_doc(portfolio)

    @staticmethod
    def set_raw_index(model, value):
        model["conditional_models"][0]["basis"]["raw_indices"][0] = value

    @staticmethod
    def set_product_factor(model, value):
        basis = model["conditional_models"][1]["basis"]
        basis["product_pairs"] = [*basis["product_pairs"], [0, value]]
        basis["means"].append(0.0)
        basis["scales"].append(1.0)
        model["conditional_models"][1]["weights"].append(0.0)

    @staticmethod
    def set_gate_weight(model, value):
        model["gating_weights"][0][-1] = value

    @staticmethod
    def set_classifier_weight(model, value):
        model["classifier"]["weights"][0][1] = value

    @staticmethod
    def set_expert_weight(model, value):
        model["conditional_models"][1]["weights"][0] = value

    @staticmethod
    def set_expert_intercept(model, value):
        model["conditional_models"][0]["intercept"] = value

    @pytest.mark.parametrize("mutate, value, fault", [
        (set_raw_index, 184, "conditional_models[0].basis.raw_indices: 184 is not a feature"
                             " index (0 to 47)"),
        (set_raw_index, -1, "conditional_models[0].basis.raw_indices: -1 is not a feature"
                            " index (0 to 47)"),
        (set_product_factor, 48, "conditional_models[1].basis.product_pairs: 48 is not a"
                                 " feature index (0 to 47)"),
        (set_gate_weight, float("inf"), "gating_weights must be finite"),
        (set_classifier_weight, float("nan"), "classifier.weights must be finite"),
        (set_expert_weight, float("inf"), "conditional_models[1].weights must be finite"),
        (set_expert_intercept, float("nan"), "conditional_models[0].intercept must be finite"),
    ], ids=["raw-index-184", "raw-index-negative", "product-factor", "gate-inf",
            "classifier-nan", "weight-inf", "intercept-nan"])
    def test_a_model_solve_cannot_apply_is_refused(self, gated_doc, tmp_path, mutate, value,
                                                   fault):
        import copy
        import json

        doc = copy.deepcopy(gated_doc)
        sid = doc["subset"][0]
        assert doc["models"][sid]["type"] == "hierarchical"
        mutate(doc["models"][sid], value)
        path = tmp_path / "portfolio.json"
        path.write_text(json.dumps(doc))  # inf and nan as JSON's Infinity and NaN
        with pytest.raises(ValueError) as exc:
            load_portfolio(path)
        assert str(exc.value) == f"{path}: models[{sid!r}].{fault}"

    @pytest.mark.parametrize("part, value, fault", [
        ("scales", float("nan"), "scales must be finite and positive"),
        ("scales", float("inf"), "scales must be finite and positive"),
        ("means", float("-inf"), "means must be finite"),
    ])
    def test_a_basis_that_is_not_finite_is_refused(self, gated_doc, built, tmp_path, part,
                                                    value, fault):
        # a NaN scale passes a `scales <= 0` test, and solve would then rank
        # NaN predictions; hierarchical experts and flat models alike
        import copy
        import json

        flat = portfolio_to_doc(built[0])
        for doc in (gated_doc, flat):
            doc = copy.deepcopy(doc)
            model = doc["models"][doc["subset"][0]]
            model = model["conditional_models"][0] if "conditional_models" in model else model
            model["basis"][part][0] = value
            path = tmp_path / "portfolio.json"
            path.write_text(json.dumps(doc))
            with pytest.raises(ValueError) as exc:
                load_portfolio(path)
            assert str(exc.value) == f"{path}: {fault}"

    @pytest.mark.parametrize("field, value, fault", [
        ("cutoff_seconds", float("nan"), "cutoff_seconds must be finite and positive, got nan"),
        ("cutoff_seconds", float("inf"), "cutoff_seconds must be finite and positive, got inf"),
        ("cutoff_seconds", 0.0, "cutoff_seconds must be finite and positive, got 0.0"),
        ("total_seconds", float("nan"), "total_seconds must be finite and positive, got nan"),
        ("per_probe_seconds", float("-inf"),
         "per_probe_seconds must be finite and positive, got -inf"),
        ("max_ls_steps", 2.5, "max_ls_steps must be a positive integer, got 2.5"),
        ("ls_runs", True, "ls_runs must be a positive integer, got True"),
        ("seed", 3.7, "seed 3.7 is not an integer"),
        ("seed", True, "seed True is not an integer"),
        ("seed", "5", "seed '5' is not an integer"),
    ], ids=["cutoff-nan", "cutoff-inf", "cutoff-zero", "total-nan", "per-probe-inf",
            "steps-fraction", "runs-bool", "seed-fraction", "seed-bool", "seed-string"])
    def test_a_number_out_of_its_domain_names_the_file(self, built, tmp_path, field, value,
                                                        fault):
        import json

        doc = portfolio_to_doc(built[0])
        if field in doc:
            doc[field] = value
        else:
            doc["feature_budget"][field] = value
        path = tmp_path / "portfolio.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as exc:
            load_portfolio(path)
        assert str(exc.value) == f"{path}: {fault}"
