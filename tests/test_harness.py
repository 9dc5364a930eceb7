import csv
import math
import os
import stat
import statistics

import pytest

from zfolio import execution
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
RUNS_HEADER = "instance_id,solver_id,runtime,status"
# ids that a CSV writer must quote or keep as they are
AWKWARD_IDS = ["a,b", 'say "x"', " lead", "caf\u00e9"]


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

    @pytest.mark.parametrize("runtime", [math.nan, math.inf, -math.inf])
    def test_non_finite_runtime(self, runtime):
        with pytest.raises(ValueError, match="finite"):
            RunRecord("s", "i", runtime, "crash")


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
        assert m.dense().complete
        m.add(RunRecord("a", "i1", 1.0, "sat"))
        assert not m.dense().complete

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

    def test_csv_round_trip_keeps_ids_that_need_quoting(self, tmp_path):
        m = RuntimeMatrix(CUTOFF)
        for k, sid in enumerate(AWKWARD_IDS):
            for j, iid in enumerate(AWKWARD_IDS):
                m.add(RunRecord(sid, iid, 1.0 + k + j, "sat"))
        path = tmp_path / "runs.csv"
        save_runtime_csv(path, m)
        loaded = load_runtime_csv(path, CUTOFF)
        assert loaded.solvers == m.solvers == sorted(AWKWARD_IDS)
        assert loaded.instances == m.instances
        assert all(loaded.get(s, i) == m.get(s, i) for s in m.solvers for i in m.instances)

    @pytest.mark.parametrize("cutoff", [float("nan"), float("inf"), 0.0])
    def test_a_cutoff_that_is_not_finite_and_positive_is_refused(self, cutoff):
        with pytest.raises(ValueError, match=f"cutoff must be finite and positive, got {cutoff}"):
            RuntimeMatrix(cutoff)

    @pytest.mark.parametrize("runtime", ["nan", "inf"])
    def test_csv_with_a_non_finite_runtime_is_refused(self, tmp_path, runtime):
        path = tmp_path / "runs.csv"
        path.write_text(f"instance_id,solver_id,runtime,status\ni0,a,1.0,sat\n"
                        f"i1,a,{runtime},sat\n")
        with pytest.raises(ValueError, match="finite"):
            load_runtime_csv(path, CUTOFF)

    @pytest.mark.parametrize("text, fault", [
        ("", ": no header row"),
        ("instance_id,solver_id,status\ni0,a,sat\n", ": no 'runtime' column"),
        (f"{RUNS_HEADER}\ni0,a,1.0,sat\ni1,a,sat\n", ", line 3: expected 4 fields, got 3"),
        (f"{RUNS_HEADER}\ni0,a,1.0,sat\ni1,a,2.0,sat,x\n", ", line 3: expected 4 fields, got 5"),
        (f"{RUNS_HEADER}\ni0,a,1.0,sat\ni1,a,fast,sat\n", ", line 3: runtime 'fast' is not a number"),
        (f"{RUNS_HEADER}\ni0,a,1.0,sat\ni1,a,2.0,solved\n", ", line 3: unknown status 'solved'"),
        (f"{RUNS_HEADER}\n\ni0,a,1.0,sat\n\ni1,a,,sat\n", ", line 5: runtime '' is not a number"),
        (f"{RUNS_HEADER}\ni0,a,1.0,sat\ni0,b,2.0,sat\ni0,a,1200.0,timeout\n",
         ", line 4: a second row for instance 'i0' and solver 'a'"),
    ], ids=["empty", "missing-column", "width", "long", "runtime", "status", "blank-row",
            "second-row"])
    def test_csv_with_a_malformed_row_names_it(self, tmp_path, text, fault):
        path = tmp_path / "runs.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as exc:
            load_runtime_csv(path, CUTOFF)
        assert str(exc.value) == f"{path}{fault}"

    @pytest.mark.parametrize("data, fault", [
        (f"{RUNS_HEADER}\ni0,a,1.0,sat\ni1,a,2.0,sat\xff\n", ", line 3: byte 0xff is not UTF-8"),
        (f"{RUNS_HEADER}\xff\ni0,a,1.0,sat\n", ", line 1: byte 0xff is not UTF-8"),
        # far past the first line
        (f"{RUNS_HEADER}\n" + "".join(f"i{k},a,1.0,sat\n" for k in range(1500))
         + "j\xe9,a,1.0,sat\n",
         ", line 1502: byte 0xe9 is not UTF-8"),
        (f'{RUNS_HEADER}\ni0,a,1.0,"{"x" * 131073}"\n',
         ", line 2: field larger than field limit (131072)"),
    ], ids=["row", "header", "late-row", "csv-error"])
    def test_csv_that_cannot_be_read_names_the_line(self, tmp_path, data, fault):
        path = tmp_path / "runs.csv"
        path.write_bytes(data.encode("latin-1"))
        with pytest.raises(ValueError) as exc:
            load_runtime_csv(path, CUTOFF)
        assert str(exc.value) == f"{path}{fault}"

    @pytest.mark.parametrize("rows, fault", [
        ("i0,a,5.0,timeout\n", ", line 2: solver 'a' on instance 'i0': a timeout must carry "
                                "the cutoff 1200.0 as runtime, not 5.0"),
        ("i0,a,1.0,sat\ni1,a,1300.5,unsat\n",
         ", line 3: solver 'a' on instance 'i1': solved runtime 1300.5 exceeds the cutoff 1200.0"),
    ], ids=["timeout", "solved"])
    def test_csv_run_off_the_cutoff_names_the_line_and_cell(self, tmp_path, rows, fault):
        path = tmp_path / "runs.csv"
        path.write_text(f"{RUNS_HEADER}\n{rows}")
        with pytest.raises(ValueError) as exc:
            load_runtime_csv(path, CUTOFF)
        assert str(exc.value) == f"{path}{fault}"

    def test_csv_labelling_an_instance_sat_and_unsat_names_the_file_and_cell(self, tmp_path):
        path = tmp_path / "runs.csv"
        path.write_text(f"{RUNS_HEADER}\ni0,a,5.0,sat\ni0,b,6.0,unsat\n")
        with pytest.raises(DataConsistencyError) as exc:
            load_runtime_csv(path, CUTOFF)
        assert str(exc.value) == (
            f"{path}: solver 'b' on instance 'i0': unsat, where another solver found sat")

    def test_csv_columns_are_found_by_name_and_blank_rows_skipped(self, tmp_path):
        path = tmp_path / "runs.csv"
        path.write_text(f"{RUNS_HEADER}\n")
        assert len(load_runtime_csv(path, CUTOFF)) == 0
        path.write_text("status,note,runtime,instance_id,solver_id\n\n"
                        "sat,x,1.5,i0,a\n\ntimeout,,1200.0,i0,b\n\n")
        loaded = load_runtime_csv(path, CUTOFF)
        assert loaded.get("a", "i0") == RunRecord("a", "i0", 1.5, "sat")
        assert loaded.get("b", "i0") == RunRecord("b", "i0", CUTOFF, "timeout")
        assert len(loaded) == 2

    def test_a_second_run_for_a_cell_is_refused(self):
        m = RuntimeMatrix(CUTOFF)
        m.add(RunRecord("a", "i", 1.0, "sat"))
        with pytest.raises(ValueError, match="'a' already has a run on instance 'i'"):
            m.add(RunRecord("a", "i", CUTOFF, "timeout"))
        assert m.get("a", "i") == RunRecord("a", "i", 1.0, "sat")
        assert m.sat_label("i") == "sat"


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

    def test_collect_runtimes(self, tmp_path, instance_file, monkeypatch):
        a = script_solver(tmp_path, "a", "exit 10\n")
        b = script_solver(tmp_path, "b", "exit 10\n")
        monkeypatch.setenv("ZF_WORKERS", "2")
        matrix = collect_runtimes([a, b], [instance_file], 10.0)
        assert matrix.dense().complete
        assert len(matrix) == 2

    def test_collect_runtimes_refuses_two_paths_with_one_id(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(execution, "run_external", lambda *job: calls.append(job))
        paths = [str(tmp_path / part / "x.cnf") for part in ("a", "b")]
        with pytest.raises(ValueError) as exc:
            collect_runtimes([SolverDescriptor("s")], paths, 10.0)
        assert str(exc.value) == f"instances {paths[0]} and {paths[1]} share the id 'x'"
        assert calls == []

    def test_collect_runtimes_refuses_two_solvers_with_one_id(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(execution, "run_external", lambda *job: calls.append(job))
        paths = [str(tmp_path / f"{name}.cnf") for name in ("x", "y")]
        with pytest.raises(ValueError, match="^solver id 's' is repeated$"):
            collect_runtimes([SolverDescriptor("s"), SolverDescriptor("s")], paths, 10.0)
        assert calls == []

    @pytest.mark.parametrize("value", ["two", "-3", "0", "1.5", "+4", " "])
    def test_worker_count_refuses_a_value_that_is_not_a_positive_integer(self, monkeypatch,
                                                                          value):
        monkeypatch.setenv("ZF_WORKERS", value)
        with pytest.raises(ValueError) as exc:
            execution.worker_count()
        assert str(exc.value) == f"ZF_WORKERS must be a positive integer, got {value!r}"

    def test_worker_count_reads_zf_workers_or_the_cpu_count(self, monkeypatch):
        monkeypatch.setenv("ZF_WORKERS", "3")
        assert execution.worker_count() == 3
        monkeypatch.delenv("ZF_WORKERS")
        assert execution.worker_count() == (os.cpu_count() or 1)


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

    def test_a_repeated_id_is_refused(self):
        with pytest.raises(ValueError, match="'a' is given more than once"):
            split_data(["a", "b", "a", "c", "d", "e"], seed=1)

    @pytest.mark.parametrize("ratios", [(1.5, -0.5, 0.0), (math.nan, 0.5, 0.5),
                                        (math.inf, -math.inf, 1.0)],
                             ids=["negative", "nan", "inf"])
    def test_a_negative_or_non_finite_ratio_is_refused(self, ratios):
        with pytest.raises(ValueError, match="ratios must be finite and nonnegative"):
            split_data([f"i{k}" for k in range(10)], ratios)


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
        report = evaluate(m, PurseConfig(time_limit=CUTOFF), singleton_series(m.instances))
        row = report.row("a")
        assert row.avg_runtime == 1.0
        assert row.pct_solved == 100.0

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
        report = evaluate(m, PurseConfig(time_limit=CUTOFF), singleton_series(m.instances))
        for row in report.rows:
            assert report.oracle.avg_runtime <= row.avg_runtime + 1e-9
            assert report.oracle.pct_solved >= row.pct_solved - 1e-9

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
        report = evaluate(m, PurseConfig(time_limit=CUTOFF), singleton_series(m.instances))
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
        report = evaluate(m, PurseConfig(time_limit=CUTOFF), singleton_series(m.instances))
        text = report.to_csv()
        assert text.startswith("solver_id,avg_runtime,pct_solved,")
        assert "oracle" in text

    def test_csv_rows_read_back_with_the_header_width(self):
        m = RuntimeMatrix(CUTOFF)
        for k, sid in enumerate(AWKWARD_IDS):
            m.add(RunRecord(sid, "i0", 1.0 + k, "sat"))
        report = evaluate(m, PurseConfig(time_limit=CUTOFF), singleton_series(m.instances))
        header, *rows = csv.reader(report.to_csv().splitlines())
        assert len(header) == 7 and all(len(row) == 7 for row in rows)
        assert [row[0] for row in rows] == [*sorted(AWKWARD_IDS), "oracle"]
        assert [float(row[1]) for row in rows] == [r.avg_runtime for r in [*report.rows,
                                                                           report.oracle]]


class TestGenerateBenchmark:
    def test_shapes_and_determinism(self):
        bench = generate_benchmark(num_instances=60, seed=5)
        assert len(bench.instances) == 60
        assert len(bench.descriptors) == 6
        assert bench.matrix.dense().complete
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
