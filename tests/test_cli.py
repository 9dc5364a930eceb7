import csv
import json
import random
import stat
import subprocess
import sys

import numpy as np
import pytest

from zfolio import cli
from zfolio.cli import main
from zfolio.cnf import write_dimacs
from zfolio.evaluation import drop_unsolvable, split_data
from zfolio.features import FEATURE_NAMES, FeatureVector, load_feature_csv
from zfolio.portfolio import (FORMAT_TAG, BuildSettings, build_portfolio, load_portfolio,
                              save_portfolio)
from zfolio.probes import ProbeBudget
from zfolio.runners import ExternalRunner
from zfolio.runtimes import (RunRecord, RuntimeMatrix, SolverDescriptor, load_runtime_csv,
                             save_runtime_csv)
from zfolio.scoring import load_purse_config
from zfolio.synthetic import generate_benchmark
from conftest import package_env, random_3cnf, small_train_flags


@pytest.fixture
def cnf_dir(tmp_path):
    rng = random.Random(5)
    d = tmp_path / "cnfs"
    d.mkdir()
    for k in range(6):
        f = random_3cnf(8, 20, rng)
        (d / f"inst{k}.cnf").write_text(write_dimacs(f))
    return d


def script_solver(tmp_path, name, body):
    path = tmp_path / name
    path.write_text("#!/bin/sh\n" + body)
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return path


def test_features_command(tmp_path, cnf_dir, monkeypatch):
    monkeypatch.setenv("ZF_WORKERS", "1")
    out = tmp_path / "features.csv"
    rc = main([
        "features", str(cnf_dir), "-o", str(out),
        "--deterministic", "--max-ls-steps", "400", "--seed", "7",
    ])
    assert rc == 0
    table = load_feature_csv(out)
    assert len(table) == 6
    for fv in table.values():
        assert fv.values is not None and len(fv.values) == 48


def test_features_command_skips_a_failing_instance(tmp_path, cnf_dir, monkeypatch, capsys):
    monkeypatch.setenv("ZF_WORKERS", "1")
    import zfolio.features as features_mod

    real_probe = features_mod.saps_probe
    failing = (cnf_dir / "inst2.cnf").read_text()

    def probe(formula, *args, **kwargs):
        if write_dimacs(formula) == failing:
            raise RuntimeError("probe exploded")
        return real_probe(formula, *args, **kwargs)

    monkeypatch.setattr(features_mod, "saps_probe", probe)
    out = tmp_path / "features.csv"
    rc = main(["features", str(cnf_dir), "-o", str(out),
               "--deterministic", "--max-ls-steps", "400", "--seed", "7"])
    assert rc == 0
    assert sorted(load_feature_csv(out)) == ["inst0", "inst1", "inst3", "inst4", "inst5"]
    err = capsys.readouterr().err
    assert "skipping inst2" in err and "RuntimeError: probe exploded" in err


def test_features_command_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, monkeypatch,
                                                                     capsys):
    monkeypatch.setenv("ZF_WORKERS", "1")
    (tmp_path / "cnf").mkdir()
    (tmp_path / "cnf" / "bad.cnf").write_bytes(b"p cnf 2 1\n1 \xff2 0\n")
    (tmp_path / "cnf" / "good.cnf").write_text("p cnf 2 1\n1 -2 0\n")
    out = tmp_path / "features.csv"
    assert main(["features", str(tmp_path / "cnf"), "-o", str(out), "--deterministic",
                 "--max-ls-steps", "100"]) == 0
    assert sorted(load_feature_csv(out)) == ["good"]
    assert capsys.readouterr().err == (
        f"skipping bad: {tmp_path / 'cnf' / 'bad.cnf'}, line 2: byte 0xff is not UTF-8\n")


def test_collect_command(tmp_path, cnf_dir, monkeypatch):
    monkeypatch.setenv("ZF_WORKERS", "2")
    a = script_solver(tmp_path, "sat-solver", 'echo "s SATISFIABLE"\nexit 10\n')
    b = script_solver(tmp_path, "other", "exit 10\n")
    cfg = tmp_path / "solvers.json"
    cfg.write_text(json.dumps([
        {"id": "alpha", "kind": "complete", "command": f"{a} {{instance}}"},
        {"id": "beta", "kind": "local_search", "command": f"{b} {{instance}}"},
    ]))
    out = tmp_path / "runtimes.csv"
    rc = main(["collect", str(cfg), str(cnf_dir), "--cutoff", "10", "-o", str(out)])
    assert rc == 0
    matrix = load_runtime_csv(out, 10.0)
    assert matrix.dense().complete
    assert len(matrix) == 12


def test_split_command(tmp_path):
    src = tmp_path / "ids.txt"
    src.write_text("\n".join(f"i{k}" for k in range(10)) + "\n")
    out = tmp_path / "split.json"
    rc = main(["split", str(src), "--seed", "3", "-o", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert len(doc["train"]) == 4
    assert len(doc["validation"]) == 3
    assert len(doc["test"]) == 3


def test_split_skips_blank_csv_rows(tmp_path):
    src = tmp_path / "features.csv"
    src.write_text("instance_id,x\ni0,1\n\ni1,2\ni2,3\n\n")
    out = tmp_path / "split.json"
    assert main(["split", str(src), "--seed", "3", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert sorted(doc["train"] + doc["validation"] + doc["test"]) == ["i0", "i1", "i2"]


@pytest.mark.parametrize("text", ["a\na\nb\nc\nd\ne\n",
                                  "instance_id,x\na,1\na,2\nb,1\nc,1\nd,1\ne,1\n"],
                         ids=["id-list", "csv"])
def test_split_puts_a_repeated_id_in_one_part(tmp_path, text):
    src = tmp_path / "ids.csv"
    src.write_text(text)
    out = tmp_path / "split.json"
    assert main(["split", str(src), "--seed", "1", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert sorted(doc["train"] + doc["validation"] + doc["test"]) == list("abcde")


def test_split_reads_the_instance_id_column_of_a_runs_csv_by_name(tmp_path, capsys):
    src = tmp_path / "runtimes.csv"
    src.write_text("solver_id,instance_id,runtime,status\n"
                   + "".join(f"{s},i{k},1.0,sat\n" for s in "ab" for k in range(3)))
    out = tmp_path / "split.json"
    assert main(["split", str(src), "--seed", "1", "-o", str(out)]) == 0
    assert capsys.readouterr().out.startswith("split 3 instances into ")
    doc = json.loads(out.read_text())
    assert sorted(doc["train"] + doc["validation"] + doc["test"]) == ["i0", "i1", "i2"]


def test_split_names_the_line_of_a_byte_that_is_not_utf8(tmp_path):
    src = tmp_path / "ids.txt"
    src.write_bytes(b"a\nb\xff\nc\n")
    with pytest.raises(ValueError) as exc:
        main(["split", str(src), "-o", str(tmp_path / "split.json")])
    assert str(exc.value) == f"{src}, line 2: byte 0xff is not UTF-8"


@pytest.mark.parametrize("command", ["split", "train"])
@pytest.mark.parametrize("ratios, fault", [
    ("0.5,0.5", "expected 3 comma-separated numbers, got '0.5,0.5'"),
    ("0.4,0.3,0.2,0.1", "expected 3 comma-separated numbers, got '0.4,0.3,0.2,0.1'"),
    ("0.4,x,0.6", "invalid split_ratios value: '0.4,x,0.6'"),
], ids=["two", "four", "word"])
def test_ratios_flag_names_a_value_that_is_not_three_numbers(tmp_path, capsys, command, ratios,
                                                            fault):
    source = [str(tmp_path / "ids.txt")] if command == "split" else small_train_flags(tmp_path)[1:]
    with pytest.raises(SystemExit) as exc:
        main([command, *source, "--ratios", ratios, "-o", str(tmp_path / "out.json")])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: argument --ratios: {fault}\n")


def test_split_refuses_a_negative_ratio(tmp_path):
    src = tmp_path / "ids.txt"
    src.write_text("a\nb\n")
    with pytest.raises(ValueError, match="ratios must be finite and nonnegative"):
        main(["split", str(src), "--ratios", "1.5,-0.5,0", "-o", str(tmp_path / "split.json")])


def test_train_refuses_a_cutoff_that_is_not_finite(tmp_path):
    bench_dir = tmp_path / "bench"
    assert main(["synth-bench", "--instances", "60", "--seed", "4", "-o", str(bench_dir)]) == 0
    with pytest.raises(ValueError) as exc:
        main([*small_train_flags(bench_dir), "--cutoff", "nan", "-o", str(tmp_path / "p.json")])
    assert str(exc.value) == "cutoff must be finite and positive, got nan"


def test_evaluate_report_rows_keep_the_header_width(tmp_path):
    matrix = RuntimeMatrix(10.0)
    ids = ["a,b", 'say "x"', " lead", "caf\u00e9"]
    matrix.add(*(RunRecord(sid, iid, 1.0 + k, "sat") for k, sid in enumerate(ids)
                 for iid in ids))
    runs, report = tmp_path / "runs.csv", tmp_path / "report.csv"
    save_runtime_csv(runs, matrix)
    assert main(["evaluate", "--runtimes", str(runs), "--cutoff", "10", "-o", str(report)]) == 0
    with open(report, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert len(header) == 7 and all(len(row) == 7 for row in rows)
    assert [row[0] for row in rows] == [*sorted(ids), "oracle"]
    assert report.read_bytes().count(b"\r\n") == len(ids) + 2


def test_synth_train_evaluate_pipeline(tmp_path):
    bench_dir = tmp_path / "bench"
    rc = main(["synth-bench", "--instances", "120", "--seed", "4",
               "-o", str(bench_dir)])
    assert rc == 0
    for name in ("features.csv", "runtimes.csv", "solvers.json", "purse.json",
                 "labels.csv"):
        assert (bench_dir / name).exists()

    split_path = tmp_path / "split.json"
    rc = main(["split", str(bench_dir / "runtimes.csv"), "--seed", "2",
               "-o", str(split_path)])
    assert rc == 0

    portfolio_path = tmp_path / "portfolio.json"
    rc = main([
        "train",
        "--features", str(bench_dir / "features.csv"),
        "--runtimes", str(bench_dir / "runtimes.csv"),
        "--solvers", str(bench_dir / "solvers.json"),
        "--split", str(split_path),
        "--purse", str(bench_dir / "purse.json"),
        "--objective", "runtime",
        "--cv-folds", "3", "--max-raw-terms", "3", "--max-expanded-terms", "4",
        "--presolver-top", "1", "--min-training-rows", "5",
        "-o", str(portfolio_path),
    ])
    assert rc == 0
    doc = json.loads(portfolio_path.read_text())
    assert doc["format"] == "zfolio-portfolio/1"
    assert doc["subset"]

    report_path = tmp_path / "report.csv"
    rc = main([
        "evaluate",
        "--runtimes", str(bench_dir / "runtimes.csv"),
        "--purse", str(bench_dir / "purse.json"),
        "--portfolio", str(portfolio_path),
        "--features", str(bench_dir / "features.csv"),
        "-o", str(report_path),
    ])
    assert rc == 0
    text = report_path.read_text()
    assert "portfolio" in text
    assert "oracle" in text


def test_train_stores_the_budget_features_extract_under(tmp_path, cnf_dir, monkeypatch):
    # solve extracts under the portfolio's budget, so it must be the one the
    # training features were extracted under by default
    monkeypatch.setenv("ZF_WORKERS", "1")
    budgets = []

    def extract(path, budget, seed):
        budgets.append(budget)
        return FeatureVector(np.zeros(len(FEATURE_NAMES)), 0.0, False)
    monkeypatch.setattr(cli.features_mod, "extract_file", extract)
    assert main(["features", str(cnf_dir), "-o", str(tmp_path / "features.csv")]) == 0
    assert budgets and all(b == budgets[0] for b in budgets)

    bench_dir = tmp_path / "bench"
    assert main(["synth-bench", "--instances", "60", "--seed", "4", "-o", str(bench_dir)]) == 0
    out = tmp_path / "portfolio.json"
    assert main([*small_train_flags(bench_dir), "-o", str(out)]) == 0
    assert load_portfolio(out).feature_budget == budgets[0]


@pytest.mark.parametrize("level, shown", [([], False), (["--log-level", "INFO"], True)],
                         ids=["default", "info"])
def test_log_level_shows_the_build_summary_on_stderr(tmp_path, level, shown):
    # a fresh interpreter, as a test run's own log handlers would make
    # logging.basicConfig a no-op in-process
    bench_dir = tmp_path / "bench"
    assert main(["synth-bench", "--instances", "60", "--seed", "4", "-o", str(bench_dir)]) == 0
    done = subprocess.run([sys.executable, "-m", "zfolio.cli", *level,
                           *small_train_flags(bench_dir), "-o", str(tmp_path / "portfolio.json")],
                          env=package_env(), capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    summary = [line for line in done.stderr.splitlines()
               if line.startswith("INFO zfolio.portfolio: min_runtime build: ")]
    assert len(summary) == int(shown)
    assert not shown or "seconds by phase" in summary[0]


def test_series_map_may_omit_instances(tmp_path):
    # an instance the purse's series lists omit is a series of its own, in
    # train and evaluate alike
    bench_dir = tmp_path / "bench"
    assert main(["synth-bench", "--instances", "60", "--seed", "4", "-o", str(bench_dir)]) == 0
    purse = bench_dir / "purse.json"
    doc = json.loads(purse.read_text())
    series = next(s for s, members in doc["series"].items() if "synth-00000" in members)
    doc["series"][series].remove("synth-00000")
    purse.write_text(json.dumps(doc))
    out = tmp_path / "portfolio.json"
    assert main([*small_train_flags(bench_dir), "--objective", "score", "--purse", str(purse),
                 "-o", str(out)]) == 0
    assert main(["evaluate", "--runtimes", str(bench_dir / "runtimes.csv"), "--purse",
                 str(purse), "--portfolio", str(out), "--features",
                 str(bench_dir / "features.csv"), "-o", str(tmp_path / "report.csv")]) == 0


def test_evaluate_refuses_runs_with_a_solver_named_portfolio(tmp_path, capsys):
    # --portfolio adds the trained portfolio's records as solver "portfolio",
    # which would silently replace the rows of a recorded solver of that name
    bench_dir = tmp_path / "bench"
    assert main(["synth-bench", "--instances", "60", "--seed", "4", "-o", str(bench_dir)]) == 0
    out = tmp_path / "portfolio.json"
    assert main([*small_train_flags(bench_dir), "-o", str(out)]) == 0
    runtimes = bench_dir / "runtimes.csv"
    with open(runtimes, newline="") as fh:
        rows = list(csv.reader(fh))
    first = rows[1][1]
    with open(runtimes, "a", newline="") as fh:
        csv.writer(fh).writerows([iid, "portfolio", runtime, status]
                                 for iid, sid, runtime, status in rows[1:] if sid == first)
    report = tmp_path / "report.csv"
    rc = main(["evaluate", "--runtimes", str(runtimes), "--portfolio", str(out),
               "--features", str(bench_dir / "features.csv"), "-o", str(report)])
    assert rc == 1
    assert "already has a solver named 'portfolio'" in capsys.readouterr().err
    assert not report.exists()


def test_evaluate_refuses_a_portfolio_without_features(tmp_path, capsys):
    # the portfolio's models read the features CSV, so --portfolio alone
    # must name the missing --features, not end in a traceback
    bench_dir = tmp_path / "bench"
    assert main(["synth-bench", "--instances", "60", "--seed", "4", "-o", str(bench_dir)]) == 0
    out = tmp_path / "portfolio.json"
    assert main([*small_train_flags(bench_dir), "-o", str(out)]) == 0
    report = tmp_path / "report.csv"
    rc = main(["evaluate", "--runtimes", str(bench_dir / "runtimes.csv"),
               "--portfolio", str(out), "-o", str(report)])
    assert rc == 1
    assert "--portfolio needs --features" in capsys.readouterr().err
    assert not report.exists()


def test_train_refuses_labels_without_a_category_column(tmp_path):
    bench_dir = tmp_path / "bench"
    assert main(["synth-bench", "--instances", "60", "--seed", "4", "-o", str(bench_dir)]) == 0
    labels = tmp_path / "labels.csv"
    labels.write_text("instance_id,cat\nsynth-00000,a\n")
    with pytest.raises(ValueError) as exc:
        main([*small_train_flags(bench_dir), "--hierarchy", "general6", "--labels", str(labels),
              "-o", str(tmp_path / "portfolio.json")])
    assert str(exc.value) == f"{labels}: no 'category' column"


@pytest.mark.parametrize("text, fault", [
    ("", ": no header row"),
    ("instance,satisfiable,category\na,sat,crafted\n", ": no 'instance_id' column"),
    ("instance_id,satisfiable,category\na,sat,crafted\nb,random\n",
     ", line 3: expected 3 fields, got 2"),  # would read category None
    ("instance_id,satisfiable,category\na,sat,crafted,extra\n",
     ", line 2: expected 3 fields, got 4"),
    ("instance_id,satisfiable,category\n\na,sat,crafted\n\nb,sat\n",
     ", line 5: expected 3 fields, got 2"),
    ("instance_id,satisfiable,category\na,sat,crafted\nb,unsat,random\na,sat,industrial\n",
     ", line 4: a second row for instance 'a'"),
], ids=["empty", "missing-column", "short", "long", "blank-row", "second-row"])
def test_labels_csv_malformed_row_names_it(tmp_path, text, fault):
    labels = tmp_path / "labels.csv"
    labels.write_text(text)
    with pytest.raises(ValueError) as exc:
        cli._load_categories_csv(labels)
    assert str(exc.value) == f"{labels}{fault}"


def test_labels_csv_reads_each_instances_category(tmp_path):
    labels = tmp_path / "labels.csv"
    labels.write_text("instance_id,satisfiable,category\na,sat,crafted\nb,unsat,random\n")
    assert cli._load_categories_csv(labels) == {"a": "crafted", "b": "random"}
    # columns are found by name, and blank rows skipped
    labels.write_text("category,instance_id\n\ncrafted,a\n\nrandom,b\n\n")
    assert cli._load_categories_csv(labels) == {"a": "crafted", "b": "random"}
    labels.write_text("instance_id,category\n")
    assert cli._load_categories_csv(labels) == {}


@pytest.mark.parametrize("load, text, fault", [
    (cli.load_solvers_config, '[{"id": "a"}, {"kind": "complete"}]', "no 'id' field"),
    (cli.load_solvers_config, '[{"id": "a", "kind": "fast"}]', "unknown solver kind 'fast'"),
    (cli.load_solvers_config, '[{"id": "a"}, {"id": "b"}, {"id": "a"}]',
     "solver id 'a' is repeated"),
    (load_purse_config, '{"solution_purse": 1, "series_purse": 1, "time_limit": 9}',
     "no 'speed_purse' field"),
    (load_purse_config, '{"solution_purse": 1, "speed_purse": "fast", "series_purse": 1, '
                        '"time_limit": 9}', "speed_purse 'fast' is not a number"),
    (load_purse_config, '{"solution_purse": 1, "speed_purse": "nan", "series_purse": 1, '
                        '"time_limit": 9}', "speed_purse must be finite and nonnegative, got nan"),
    (load_purse_config, '{"solution_purse": 1, "speed_purse": 1, "series_purse": -1, '
                        '"time_limit": 9}',
     "series_purse must be finite and nonnegative, got -1.0"),
    (load_purse_config, '{"solution_purse": 1, "speed_purse": 1, "series_purse": 1, '
                        '"time_limit": "inf"}', "time_limit must be finite and positive, got inf"),
    (load_portfolio, '{"format": "%s"}' % FORMAT_TAG, "no 'solvers' field"),
    (load_portfolio, '{"format": ', "Expecting value: line 1 column 12 (char 11)"),
], ids=["solvers-id", "solvers-kind", "solvers-repeated", "purse-missing", "purse-malformed",
        "purse-nan", "purse-negative", "purse-inf", "portfolio", "invalid-json"])
def test_json_input_faults_name_the_file_and_field(tmp_path, load, text, fault):
    path = tmp_path / "input.json"
    path.write_text(text)
    with pytest.raises(ValueError) as exc:
        load(path)
    assert str(exc.value) == f"{path}: {fault}"


@pytest.mark.parametrize("load", [cli.load_solvers_config, load_purse_config, load_portfolio],
                         ids=["solvers", "purse", "portfolio"])
def test_json_input_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, load):
    path = tmp_path / "input.json"
    path.write_bytes(b'{\n "caf\xe9": 1,\n "x": "\xff"\n}\n')
    with pytest.raises(ValueError) as exc:
        load(path)
    assert str(exc.value) == f"{path}, line 2: byte 0xe9 is not UTF-8"


def test_split_file_names_the_line_of_a_byte_that_is_not_utf8(tmp_path):
    bench_dir = tmp_path / "bench"
    assert main(["synth-bench", "--instances", "60", "--seed", "4", "-o", str(bench_dir)]) == 0
    split = tmp_path / "split.json"
    split.write_bytes(b'{"train": [],\n "validation": [],\n\n "test": ["\xff"]}')
    with pytest.raises(ValueError) as exc:
        main([*small_train_flags(bench_dir), "--split", str(split),
              "-o", str(tmp_path / "portfolio.json")])
    assert str(exc.value) == f"{split}, line 4: byte 0xff is not UTF-8"


@pytest.mark.parametrize("doc, fault", [
    ({"validation": []}, "no 'train' field"),
    ({"train": [], "validation": "synth-00001"}, "'validation' is not a list of instance ids"),
], ids=["missing", "malformed"])
def test_train_names_the_fault_of_a_split_file(tmp_path, doc, fault):
    bench_dir = tmp_path / "bench"
    assert main(["synth-bench", "--instances", "60", "--seed", "4", "-o", str(bench_dir)]) == 0
    split = tmp_path / "split.json"
    split.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as exc:
        main([*small_train_flags(bench_dir), "--split", str(split),
              "-o", str(tmp_path / "portfolio.json")])
    assert str(exc.value) == f"{split}: {fault}"


def test_features_and_solve_extract_a_file_alike(tmp_path, cnf_dir, monkeypatch):
    # the models must read a solved instance's features as they were trained on them
    monkeypatch.setenv("ZF_WORKERS", "1")
    out = tmp_path / "features.csv"
    assert main(["features", str(cnf_dir), "-o", str(out), "--seed", "3",
                 "--deterministic", "--max-ls-steps", "400"]) == 0
    budget = ProbeBudget(max_ls_steps=400, deterministic=True)
    runner = ExternalRunner({})
    for iid, fv in load_feature_csv(out).items():
        online = runner.features(str(cnf_dir / f"{iid}.cnf"), budget, 3)
        assert np.array_equal(online.values, fv.values)


@pytest.mark.parametrize("body, code, verdict", [
    ("exit 10\n", 10, "s SATISFIABLE"),
    ("echo 's UNSATISFIABLE'\nexit 0\n", 20, "s UNSATISFIABLE"),  # read from the output
    ("exit 1\n", 0, "s UNKNOWN"),  # every solver crashes
], ids=["sat", "unsat", "unknown"])
def test_solve_command(tmp_path, capsys, body, code, verdict):
    bench = generate_benchmark(num_instances=100, seed=21)
    kept, _ = drop_unsolvable(bench.matrix)
    train, valid, _ = split_data(kept, seed=1)
    settings = BuildSettings(
        objective="min_runtime", cv_folds=3, max_raw_terms=3,
        max_expanded_terms=4, min_training_rows=5, presolver_top=1,
        feature_budget=ProbeBudget(max_ls_steps=400, ls_runs=4, dpll_runs=5),
    )
    built = build_portfolio(
        train, valid, bench.features,
        bench.matrix.restrict(instances=[*train, *valid]),
        bench.descriptors, settings, bench.purse, bench.series,
    )
    script = script_solver(tmp_path, "instant", body)
    built.descriptors = {
        sid: SolverDescriptor(sid, d.kind, f"{script} {{instance}}")
        for sid, d in built.descriptors.items()
    }
    path = tmp_path / "portfolio.json"
    save_portfolio(built, path)

    instance = tmp_path / "tiny.cnf"
    instance.write_text("p cnf 3 2\n1 -2 0\n2 3 0\n")
    rc = main(["solve", str(path), str(instance)])
    out = capsys.readouterr().out
    assert rc == code
    assert verdict in out.splitlines()


def test_solve_refuses_commandless_portfolio(tmp_path, capsys):
    bench = generate_benchmark(num_instances=100, seed=21)
    kept, _ = drop_unsolvable(bench.matrix)
    train, valid, _ = split_data(kept, seed=1)
    settings = BuildSettings(
        objective="min_runtime", cv_folds=3, max_raw_terms=3,
        max_expanded_terms=4, min_training_rows=5, presolver_top=1,
    )
    built = build_portfolio(
        train, valid, bench.features,
        bench.matrix.restrict(instances=[*train, *valid]),
        bench.descriptors, settings, bench.purse, bench.series,
    )
    path = tmp_path / "portfolio.json"
    save_portfolio(built, path)
    instance = tmp_path / "tiny.cnf"
    instance.write_text("p cnf 1 1\n1 0\n")
    rc = main(["solve", str(path), str(instance)])
    assert rc == 1
