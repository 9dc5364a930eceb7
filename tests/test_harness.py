import math
import os
import stat
import statistics

import pytest

from zfolio.evaluation import drop_unsolvable, evaluate, split_data
from zfolio.execution import SpawnFailure, collect_runtimes, run_external
from zfolio.runtimes import (
    DataConsistencyError,
    RunRecord,
    RuntimeMatrix,
    SolverDescriptor,
    load_runtime_csv,
    save_runtime_csv,
)
from zfolio.scoring import PurseConfig, singleton_series
from zfolio.synthetic import (
    SyntheticInstance,
    SyntheticSolverModel,
    generate_benchmark,
    run_synthetic,
)

CUTOFF = 1200.0


class TestRunRecord:
    def test_timeout_implies_censored(self):
        r = RunRecord("s", "i", CUTOFF, "timeout")
        assert r.censored is True

    def test_only_timeouts_are_censored(self):
        for status in ("sat", "unsat", "crash"):
            assert RunRecord("s", "i", 5.0, status).censored is False

    def test_solved_not_censored_by_default(self):
        r = RunRecord("s", "i", 3.0, "sat")
        assert r.censored is False
        assert r.solved

    def test_unknown_status(self):
        with pytest.raises(ValueError):
            RunRecord("s", "i", 1.0, "maybe")


class TestRuntimeMatrix:
    def test_consensus_enforced(self):
        m = RuntimeMatrix(CUTOFF)
        m.add(RunRecord("a", "i", 1.0, "sat"))
        with pytest.raises(DataConsistencyError):
            m.add(RunRecord("b", "i", 2.0, "unsat"))

    def test_timeout_runtime_must_equal_cutoff(self):
        m = RuntimeMatrix(CUTOFF)
        with pytest.raises(ValueError):
            m.add(RunRecord("a", "i", 100.0, "timeout"))

    def test_solved_runtime_within_cutoff(self):
        m = RuntimeMatrix(CUTOFF)
        with pytest.raises(ValueError):
            m.add(RunRecord("a", "i", CUTOFF + 1, "sat"))

    def test_sat_label_and_completeness(self):
        m = RuntimeMatrix(CUTOFF)
        m.add(RunRecord("a", "i0", 1.0, "unsat"))
        m.add(RunRecord("b", "i0", CUTOFF, "timeout"))
        assert m.sat_label("i0") == "unsat"
        assert m.is_complete()
        m.add(RunRecord("a", "i1", 1.0, "sat"))
        assert not m.is_complete()

    def test_csv_round_trip(self, tmp_path):
        m = RuntimeMatrix(CUTOFF)
        m.add(RunRecord("a", "i0", 1.5, "sat"))
        m.add(RunRecord("b", "i0", CUTOFF, "timeout"))
        m.add(RunRecord("a", "i1", 3.25, "crash"))
        m.add(RunRecord("b", "i1", 7.0, "sat"))
        path = tmp_path / "runs.csv"
        save_runtime_csv(path, m)
        loaded = load_runtime_csv(path, CUTOFF)
        for s in m.solvers:
            for i in m.instances:
                assert loaded.get(s, i) == m.get(s, i)


def script_solver(tmp_path, name, body):
    path = tmp_path / name
    path.write_text("#!/bin/sh\n" + body)
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return SolverDescriptor(name, "complete", f"{path} {{instance}}")


@pytest.fixture
def instance_file(tmp_path):
    p = tmp_path / "tiny.cnf"
    p.write_text("p cnf 1 1\n1 0\n")
    return p


class TestRunExternal:
    def test_sat_exit_code(self, tmp_path, instance_file):
        d = script_solver(tmp_path, "fast-sat", "exit 10\n")
        r = run_external(d, instance_file, 10.0)
        assert r.status == "sat"
        assert r.censored is False
        assert r.runtime_seconds <= 10.0

    def test_unsat_exit_code(self, tmp_path, instance_file):
        d = script_solver(tmp_path, "fast-unsat", "exit 20\n")
        r = run_external(d, instance_file, 10.0)
        assert r.status == "unsat"

    def test_output_line_convention(self, tmp_path, instance_file):
        d = script_solver(tmp_path, "printer", 'echo "s SATISFIABLE"\nexit 0\n')
        r = run_external(d, instance_file, 10.0)
        assert r.status == "sat"

    def test_cpu_timeout(self, tmp_path, instance_file):
        d = script_solver(tmp_path, "spin", "while :; do :; done\n")
        r = run_external(d, instance_file, 1.0)
        assert r.status == "timeout"
        assert r.runtime_seconds == 1.0
        assert r.censored is True

    def test_crash_by_signal(self, tmp_path, instance_file):
        d = script_solver(tmp_path, "crasher", "kill -SEGV $$\n")
        r = run_external(d, instance_file, 10.0)
        assert r.status == "crash"
        assert r.censored is False

    def test_unparseable_output_is_crash(self, tmp_path, instance_file):
        d = script_solver(tmp_path, "mute", "exit 0\n")
        r = run_external(d, instance_file, 10.0)
        assert r.status == "crash"

    def test_spawn_failure(self, instance_file):
        d = SolverDescriptor("ghost", "complete", "/does/not/exist {instance}")
        with pytest.raises(SpawnFailure):
            run_external(d, instance_file, 10.0)

    def test_never_reports_over_cutoff(self, tmp_path, instance_file):
        d = script_solver(tmp_path, "fast", "exit 10\n")
        r = run_external(d, instance_file, 5.0)
        assert r.runtime_seconds <= 5.0

    def test_collect_runtimes(self, tmp_path, instance_file):
        a = script_solver(tmp_path, "a", "exit 10\n")
        b = script_solver(tmp_path, "b", "exit 10\n")
        matrix = collect_runtimes([a, b], [instance_file], 10.0, workers=2)
        assert matrix.is_complete()
        assert len(matrix) == 2


class TestRunSynthetic:
    def model(self, kind="complete", mu=0.0, sigma=1.0):
        return SyntheticSolverModel("s", kind, {0: mu}, {0: sigma})

    def test_deterministic(self):
        inst = SyntheticInstance("i", 0, True, "random")
        a = run_synthetic(self.model(), inst, CUTOFF, seed=3)
        b = run_synthetic(self.model(), inst, CUTOFF, seed=3)
        assert a == b

    def test_local_search_never_solves_unsat(self):
        inst = SyntheticInstance("i", 0, False, "random")
        for seed in range(20):
            r = run_synthetic(self.model("local_search"), inst, CUTOFF, seed)
            assert r.status == "timeout"

    def test_solve_fraction_matches_lognormal_cdf(self):
        # median 600 s, sigma 1: P(solve within 1200) = Phi(ln 2)
        model = self.model(mu=math.log(600.0), sigma=1.0)
        n = 2000
        solved = 0
        for k in range(n):
            inst = SyntheticInstance(f"i{k}", 0, True, "random")
            if run_synthetic(model, inst, CUTOFF, seed=0).solved:
                solved += 1
        want = statistics.NormalDist().cdf(math.log(2.0))
        assert abs(solved / n - want) < 0.03

    def test_status_matches_truth(self):
        inst = SyntheticInstance("i", 0, False, "random")
        model = self.model(mu=-3.0, sigma=0.1)
        r = run_synthetic(model, inst, CUTOFF, seed=1)
        assert r.status == "unsat"


class TestSplitData:
    def test_ratio_sizes(self):
        train, valid, test = split_data([f"i{k}" for k in range(10)], seed=1)
        assert (len(train), len(valid), len(test)) == (4, 3, 3)

    def test_single_instance(self):
        train, valid, test = split_data(["only"], seed=1)
        assert (train, valid, test) == (["only"], [], [])

    def test_deterministic_and_partition(self):
        ids = [f"i{k}" for k in range(37)]
        a = split_data(ids, seed=9)
        b = split_data(list(reversed(ids)), seed=9)
        assert a == b
        combined = [*a[0], *a[1], *a[2]]
        assert sorted(combined) == sorted(ids)
        assert len(set(combined)) == len(ids)

    def test_ratios_must_sum_to_one(self):
        with pytest.raises(ValueError):
            split_data(["a"], ratios=(0.5, 0.2, 0.2))


class TestDropUnsolvable:
    def test_identity_when_all_solved(self):
        m = RuntimeMatrix(CUTOFF)
        m.add(RunRecord("a", "i0", 1.0, "sat"))
        m.add(RunRecord("a", "i1", 1.0, "unsat"))
        kept, frac = drop_unsolvable(m)
        assert kept == ["i0", "i1"]
        assert frac == 1.0

    def test_removes_all_timeout_instance(self):
        m = RuntimeMatrix(CUTOFF)
        m.add(RunRecord("a", "i0", 1.0, "sat"))
        m.add(RunRecord("a", "i1", CUTOFF, "timeout"))
        kept, frac = drop_unsolvable(m)
        assert kept == ["i0"]
        assert frac == 0.5

    def test_known_retained_share(self):
        m = RuntimeMatrix(CUTOFF)
        for k in range(39):
            status = "sat" if k < 28 else "timeout"
            runtime = 1.0 if k < 28 else CUTOFF
            m.add(RunRecord("a", f"i{k:02d}", runtime, status))
        kept, frac = drop_unsolvable(m)
        assert len(kept) == 28
        assert abs(frac - 28 / 39) < 1e-12


class TestEvaluate:
    def test_single_solver_spot_values(self):
        m = RuntimeMatrix(CUTOFF)
        for k in range(5):
            m.add(RunRecord("a", f"i{k}", 1.0, "sat"))
        report = evaluate(m)
        row = report.row("a")
        assert row.avg_runtime == 1.0
        assert row.pct_solved == 100.0
        assert row.cdf[0] == (1.0, 1.0)

    def test_oracle_dominance(self):
        import random

        rng = random.Random(3)
        m = RuntimeMatrix(CUTOFF)
        for k in range(20):
            truth = "sat" if rng.random() < 0.5 else "unsat"
            for sid in ("a", "b", "c"):
                if rng.random() < 0.7:
                    m.add(RunRecord(sid, f"i{k}", rng.uniform(0, CUTOFF), truth))
                else:
                    m.add(RunRecord(sid, f"i{k}", CUTOFF, "timeout"))
        report = evaluate(m, PurseConfig(), singleton_series(m.instances))
        for row in report.rows:
            assert report.oracle.avg_runtime <= row.avg_runtime + 1e-9
            assert report.oracle.pct_solved >= row.pct_solved - 1e-9

    def test_cdf_nondecreasing_reaches_pct(self):
        m = RuntimeMatrix(CUTOFF)
        m.add(RunRecord("a", "i0", 5.0, "sat"))
        m.add(RunRecord("a", "i1", 2.0, "sat"))
        m.add(RunRecord("a", "i2", CUTOFF, "timeout"))
        report = evaluate(m)
        cdf = report.row("a").cdf
        fracs = [f for _, f in cdf]
        assert fracs == sorted(fracs)
        assert cdf[-1][0] == CUTOFF
        assert abs(cdf[-1][1] - report.row("a").pct_solved / 100) < 1e-12

    def test_report_matches_brute_force(self):
        import random

        rng = random.Random(4)
        m = RuntimeMatrix(CUTOFF)
        truth = {}
        for k in range(12):
            truth[f"i{k}"] = "sat" if rng.random() < 0.5 else "unsat"
        for sid in ("a", "b", "c"):
            for k in range(12):
                iid = f"i{k}"
                if rng.random() < 0.6:
                    m.add(RunRecord(sid, iid, rng.uniform(0, 100), truth[iid]))
                else:
                    m.add(RunRecord(sid, iid, CUTOFF, "timeout"))
        report = evaluate(m)
        for sid in ("a", "b", "c"):
            times = []
            solved = 0
            for k in range(12):
                rec = m.get(sid, f"i{k}")
                if rec.solved:
                    solved += 1
                    times.append(rec.runtime_seconds)
                else:
                    times.append(CUTOFF)
            assert abs(report.row(sid).avg_runtime - sum(times) / 12) < 1e-9
            assert abs(report.row(sid).pct_solved - 100 * solved / 12) < 1e-9

    def test_csv_output(self):
        m = RuntimeMatrix(CUTOFF)
        m.add(RunRecord("a", "i0", 1.0, "sat"))
        report = evaluate(m, PurseConfig(), singleton_series(m.instances))
        text = report.to_csv()
        assert text.startswith("solver_id,avg_runtime,pct_solved,")
        assert "oracle" in text


class TestGenerateBenchmark:
    def test_shapes_and_determinism(self):
        bench = generate_benchmark(num_instances=60, seed=5)
        assert len(bench.instances) == 60
        assert len(bench.descriptors) == 6
        assert bench.matrix.is_complete()
        again = generate_benchmark(num_instances=60, seed=5)
        for inst in bench.instances:
            for sid in bench.models:
                assert bench.matrix.get(sid, inst.id) == again.matrix.get(sid, inst.id)

    def test_unsat_fraction_rough(self):
        bench = generate_benchmark(num_instances=300, seed=7, unsat_fraction=0.3)
        unsat = sum(1 for i in bench.instances if not i.satisfiable)
        assert 0.2 <= unsat / 300 <= 0.4

    def test_local_search_solvers_never_solve_unsat(self):
        bench = generate_benchmark(num_instances=60, seed=8)
        for inst in bench.instances:
            if inst.satisfiable:
                continue
            for sid, model in bench.models.items():
                if model.kind == "local_search":
                    assert not bench.matrix.solved(sid, inst.id)
