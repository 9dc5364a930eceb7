import os
import random
import subprocess
import sys
from pathlib import Path

import zfolio
from zfolio.runtimes import RunRecord, RuntimeMatrix
from zfolio.scoring import (
    PurseConfig,
    ScoreBreakdown,
    ScoreContext,
    competition_score,
    independent_series_share,
    load_purse_config,
    save_purse_config,
    score_labels,
    score_report_csv,
    series_groups,
    singleton_series,
    speed_factor,
)

CUTOFF = 1200.0


def rec(sid, iid, runtime, status):
    return RunRecord(sid, iid, runtime, status)


def random_matrix(rng, n_solvers=4, n_instances=8, cutoff=CUTOFF):
    """Random complete matrix with a consistent sat/unsat truth per instance."""
    matrix = RuntimeMatrix(cutoff)
    solvers = [f"s{k}" for k in range(n_solvers)]
    for i in range(n_instances):
        iid = f"i{i}"
        truth = "sat" if rng.random() < 0.5 else "unsat"
        for sid in solvers:
            roll = rng.random()
            if roll < 0.6:
                matrix.add(rec(sid, iid, rng.uniform(0.0, cutoff), truth))
            elif roll < 0.9:
                matrix.add(rec(sid, iid, cutoff, "timeout"))
            else:
                matrix.add(RunRecord(sid, iid, rng.uniform(0, cutoff), "crash"))
    return matrix


def random_series(rng, matrix, max_size=3):
    series = {}
    sid = 0
    bucket = 0
    for iid in matrix.instances:
        series[iid] = f"g{sid}"
        bucket += 1
        if bucket >= rng.randint(1, max_size):
            sid += 1
            bucket = 0
    return series


class TestSpeedFactor:
    def test_spot_values_exact(self):
        assert speed_factor(1200, 0) == 1200.0
        assert speed_factor(1200, 1199) == 1.0
        assert speed_factor(1200, 599) == 2.0


def one_instance(*records):
    matrix = RuntimeMatrix(CUTOFF)
    for r in records:
        matrix.add(r)
    return matrix


class TestInstanceScores:
    """The per-instance purse split, read off a one-instance competition."""

    def test_equal_solution_split(self):
        purse = PurseConfig(solution_purse=1000, speed_purse=0, series_purse=0)
        matrix = one_instance(rec("a", "i", 0.0, "sat"), rec("b", "i", 1199.0, "sat"))
        out = competition_score(matrix, purse, singleton_series(["i"]))
        assert out["a"].solution == 500.0
        assert out["b"].solution == 500.0

    def test_speed_split_formula(self):
        purse = PurseConfig(solution_purse=0, speed_purse=1000, series_purse=0)
        matrix = one_instance(rec("a", "i", 0.0, "sat"), rec("b", "i", 1199.0, "sat"))
        out = competition_score(matrix, purse, singleton_series(["i"]))
        assert abs(out["a"].speed - 1000 * 1200 / 1201) < 1e-9
        assert abs(out["b"].speed - 1000 * 1.0 / 1201) < 1e-9

    def test_no_solver_solves(self):
        purse = PurseConfig()
        matrix = one_instance(
            rec("a", "i", CUTOFF, "timeout"),
            RunRecord("b", "i", 3.0, "crash"),
        )
        out = competition_score(matrix, purse, singleton_series(["i"]))
        assert out == {"a": ScoreBreakdown(), "b": ScoreBreakdown()}


def series_totals(solved, series, purse):
    """Series totals of competition_score when each solver solves exactly
    the instances listed for it and times out on the others."""
    matrix = RuntimeMatrix(CUTOFF)
    for sid, ids in solved.items():
        for iid in series:
            if iid in ids:
                matrix.add(rec(sid, iid, 1.0, "sat"))
            else:
                matrix.add(rec(sid, iid, CUTOFF, "timeout"))
    return {sid: b.series for sid, b in competition_score(matrix, purse, series).items()}


class TestSeriesScores:
    def test_equal_split_among_winners(self):
        purse = PurseConfig(series_purse=300)
        solved = {"a": {"i0"}, "b": {"i1"}, "c": set()}
        series = {"i0": "g", "i1": "g"}
        out = series_totals(solved, series, purse)
        assert out == {"a": 150.0, "b": 150.0, "c": 0.0}

    def test_unwon_series_distributes_nothing(self):
        purse = PurseConfig(series_purse=300)
        solved = {"a": set(), "b": set()}
        out = series_totals(solved, {"i0": "g"}, purse)
        assert out == {"a": 0.0, "b": 0.0}

    def test_disjoint_winners_sum(self):
        purse = PurseConfig(series_purse=300)
        solved = {"a": {"i0"}, "b": {"i1"}, "c": {"i2"}}
        series = {"i0": "g0", "i1": "g1", "i2": "g2"}
        out = series_totals(solved, series, purse)
        # brute-force: each series won by exactly one solver
        assert out == {"a": 300.0, "b": 300.0, "c": 300.0}


class TestIndependentSeriesShare:
    def test_direct_substitution(self):
        purse = PurseConfig(series_purse=300)
        series = {"i0": "g", "i1": "g", "i2": "g"}
        shares = independent_series_share(series, {"g": 3}, {"g": 2}, purse)
        assert shares["g"] == 50.0

    def test_solver_solving_all_reaches_exact_share(self):
        purse = PurseConfig(series_purse=300)
        series = {"i0": "g", "i1": "g", "i2": "g"}
        share = independent_series_share(series, {"g": 3}, {"g": 2}, purse)["g"]
        assert share * 3 == purse.series_purse / 2

    def test_partial_solver_below_exact_share(self):
        purse = PurseConfig(series_purse=300)
        series = {"i0": "g", "i1": "g", "i2": "g"}
        share = independent_series_share(series, {"g": 3}, {"g": 2}, purse)["g"]
        assert share * 2 < purse.series_purse / 2

    def test_zero_convention(self):
        purse = PurseConfig(series_purse=300)
        series = {"i0": "g"}
        assert independent_series_share(series, {"g": 0}, {"g": 0}, purse)["g"] == 0.0


class TestScoreLabels:
    def test_all_timeouts_zero(self):
        matrix = RuntimeMatrix(CUTOFF)
        for iid in ("i0", "i1"):
            matrix.add(rec("cand", iid, CUTOFF, "timeout"))
            matrix.add(rec("ref", iid, 1.0, "sat"))
        runs = matrix.dense()
        labels = score_labels(runs, PurseConfig(), singleton_series(matrix.instances))
        assert labels[runs.solver_index["cand"]].tolist() == [0.0, 0.0]

    def test_sole_solver_of_single_instance_series(self):
        purse = PurseConfig(solution_purse=1000, speed_purse=1000, series_purse=300)
        matrix = RuntimeMatrix(CUTOFF)
        matrix.add(rec("cand", "i0", 0.0, "sat"))
        matrix.add(rec("ref", "i0", CUTOFF, "timeout"))
        runs = matrix.dense()
        labels = score_labels(runs, purse, {"i0": "g"})
        assert abs(labels[runs.solver_index["cand"], 0] - (1000 + 1000 + 300)) < 1e-9

    def test_labels_nonnegative(self):
        rng = random.Random(5)
        matrix = random_matrix(rng)
        series = random_series(rng, matrix)
        labels = score_labels(matrix.dense(), PurseConfig(), series)
        assert labels.shape == (len(matrix.solvers), len(matrix.instances))
        assert (labels >= 0).all()


def brute_force_competition(matrix, purse, series):
    """Independent reimplementation with plain nested loops."""
    totals = {s: [0.0, 0.0, 0.0] for s in matrix.solvers}
    for iid in matrix.instances:
        winners = [
            s for s in matrix.solvers if matrix.get(s, iid).status in ("sat", "unsat")
        ]
        if not winners:
            continue
        for s in winners:
            totals[s][0] += purse.solution_purse / len(winners)
        sf = {
            s: purse.time_limit / (1 + matrix.get(s, iid).runtime_seconds)
            for s in winners
        }
        for s in winners:
            totals[s][1] += purse.speed_purse * sf[s] / sum(sf.values())
    all_series = sorted(set(series.values()))
    for g in all_series:
        members = [iid for iid in matrix.instances if series[iid] == g]
        winners = [
            s
            for s in matrix.solvers
            if any(matrix.get(s, iid).status in ("sat", "unsat") for iid in members)
        ]
        for s in winners:
            totals[s][2] += purse.series_purse / len(winners)
    return totals


class TestCompetitionScore:
    def test_monopoly_totals(self):
        purse = PurseConfig(solution_purse=1000, speed_purse=1000, series_purse=300)
        matrix = RuntimeMatrix(CUTOFF)
        for i in range(4):
            matrix.add(rec("only", f"i{i}", 1.0, "sat"))
        series = {"i0": "g0", "i1": "g0", "i2": "g1", "i3": "g1"}
        totals = competition_score(matrix, purse, series)
        b = totals["only"]
        assert abs(b.solution - 4000) < 1e-9
        assert abs(b.speed - 4000) < 1e-9
        assert abs(b.series - 600) < 1e-9

    def test_identical_solvers_tie(self):
        purse = PurseConfig()
        matrix = RuntimeMatrix(CUTOFF)
        for i in range(3):
            matrix.add(rec("a", f"i{i}", 2.0, "sat"))
            matrix.add(rec("b", f"i{i}", 2.0, "sat"))
        totals = competition_score(matrix, purse, singleton_series(matrix.instances))
        assert abs(totals["a"].total - totals["b"].total) < 1e-9

    def test_matches_brute_force_oracle(self):
        rng = random.Random(17)
        for _ in range(10):
            matrix = random_matrix(rng, n_solvers=3, n_instances=6)
            series = random_series(rng, matrix)
            purse = PurseConfig()
            got = competition_score(matrix, purse, series)
            want = brute_force_competition(matrix, purse, series)
            for s in matrix.solvers:
                assert abs(got[s].solution - want[s][0]) < 1e-9
                assert abs(got[s].speed - want[s][1]) < 1e-9
                assert abs(got[s].series - want[s][2]) < 1e-9


class TestConservationProperties:
    def test_purse_conservation_on_random_matrices(self):
        rng = random.Random(23)
        purse = PurseConfig()
        for _ in range(100):
            matrix = random_matrix(
                rng, n_solvers=rng.randint(2, 5), n_instances=rng.randint(2, 10)
            )
            series = random_series(rng, matrix)
            totals = competition_score(matrix, purse, series)
            solved_instances = sum(
                1
                for iid in matrix.instances
                if any(matrix.solved(s, iid) for s in matrix.solvers)
            )
            won_series = sum(
                1
                for g, members in series_groups(series, matrix.instances).items()
                if any(
                    matrix.solved(s, iid) for s in matrix.solvers for iid in members
                )
            )
            assert (
                abs(sum(t.solution for t in totals.values()) - solved_instances * purse.solution_purse)
                < 1e-6
            )
            assert (
                abs(sum(t.speed for t in totals.values()) - solved_instances * purse.speed_purse)
                < 1e-6
            )
            assert (
                abs(sum(t.series for t in totals.values()) - won_series * purse.series_purse)
                < 1e-6
            )

    def test_independent_total_bounded_by_exact_share(self):
        rng = random.Random(29)
        purse = PurseConfig()
        for _ in range(50):
            matrix = random_matrix(rng, n_solvers=3, n_instances=9)
            series = random_series(rng, matrix)
            groups = series_groups(series, matrix.instances)
            solvable = {
                g: sum(
                    1 for iid in members
                    if any(matrix.solved(s, iid) for s in matrix.solvers)
                )
                for g, members in groups.items()
            }
            nsolvers = {
                g: sum(
                    1 for s in matrix.solvers
                    if any(matrix.solved(s, iid) for iid in members)
                )
                for g, members in groups.items()
            }
            shares = independent_series_share(series, solvable, nsolvers, purse)
            for s in matrix.solvers:
                for g, members in groups.items():
                    solved_count = sum(1 for iid in members if matrix.solved(s, iid))
                    if solved_count == 0:
                        continue
                    approx = shares[g] * solved_count
                    exact = purse.series_purse / nsolvers[g]
                    assert approx <= exact + 1e-9
                    if solved_count == solvable[g]:
                        assert abs(approx - exact) < 1e-9
                    else:
                        assert approx < exact

    def test_nonsolving_solver_changes_nothing(self):
        rng = random.Random(31)
        matrix = random_matrix(rng, n_solvers=3, n_instances=6)
        series = random_series(rng, matrix)
        purse = PurseConfig()
        before = competition_score(matrix, purse, series)
        extended = matrix.restrict()
        for iid in matrix.instances:
            extended.add(rec("lazy", iid, CUTOFF, "timeout"))
        after = competition_score(extended, purse, series)
        for s in matrix.solvers:
            assert abs(before[s].total - after[s].total) < 1e-12
        assert after["lazy"].total == 0.0

    def test_instance_order_invariance(self):
        rng = random.Random(37)
        matrix = random_matrix(rng, n_solvers=3, n_instances=6)
        series = random_series(rng, matrix)
        purse = PurseConfig()
        shuffled = RuntimeMatrix(CUTOFF)
        records = [
            matrix.get(s, i) for s in matrix.solvers for i in matrix.instances
        ]
        rng.shuffle(records)
        for r in records:
            shuffled.add(r)
        a = competition_score(matrix, purse, series)
        b = competition_score(shuffled, purse, series)
        for s in matrix.solvers:
            assert a[s].total == b[s].total


class TestScoreContext:
    def test_virtual_total_matches_extended_matrix(self):
        rng = random.Random(41)
        for _ in range(10):
            matrix = random_matrix(rng, n_solvers=3, n_instances=8)
            series = random_series(rng, matrix)
            purse = PurseConfig()
            ctx = ScoreContext(matrix.dense(), purse, series)
            solved = {iid: rng.random() < 0.6 for iid in matrix.instances}
            runtime = {iid: rng.uniform(0, CUTOFF) for iid in matrix.instances}
            got = ctx.virtual_total(solved, runtime)
            extended = matrix.restrict()
            truth = matrix._sat_label
            for iid in matrix.instances:
                if solved[iid]:
                    status = truth.get(iid, "sat")
                    extended.add(rec("virtual", iid, runtime[iid], status))
                else:
                    extended.add(rec("virtual", iid, CUTOFF, "timeout"))
            want = competition_score(extended, purse, series)["virtual"]
            assert abs(got.solution - want.solution) < 1e-9
            assert abs(got.speed - want.speed) < 1e-9
            assert abs(got.series - want.series) < 1e-9

    def test_series_total_does_not_depend_on_string_hashing(self):
        # six one-instance series solved by 0..5 of six reference solvers; a
        # virtual solver that solves them all gets 1/(k+1) of each series
        # purse, summed along the sorted instances whatever PYTHONHASHSEED is
        script = (
            "from zfolio.runtimes import RunRecord, RuntimeMatrix\n"
            "from zfolio.scoring import PurseConfig, ScoreContext, singleton_series\n"
            "m = RuntimeMatrix(1200.0)\n"
            "for k in range(6):\n"
            "    for r in range(6):\n"
            "        m.add(RunRecord(f'ref{r}', f'i{k}', 1.0, 'sat') if r < k\n"
            "              else RunRecord(f'ref{r}', f'i{k}', 1200.0, 'timeout'))\n"
            "ctx = ScoreContext(m.dense(), PurseConfig(series_purse=1.0),\n"
            "                   singleton_series(m.instances))\n"
            "every = dict.fromkeys(m.instances, True)\n"
            "print(ctx.virtual_total(every, dict.fromkeys(every, 1.0)).series.hex())\n"
        )
        src = str(Path(zfolio.__file__).resolve().parents[1])
        results = set()
        for hash_seed in (1, 2, 3):
            env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                 capture_output=True, text=True, timeout=60)
            results.add(out.stdout.strip())
        assert results == {sum(1.0 / (k + 1) for k in range(6)).hex()}


def test_purse_config_round_trip(tmp_path):
    purse = PurseConfig(500, 700, 200, 900)
    series = {"i0": "g0", "i1": "g0", "i2": "g1"}
    path = tmp_path / "purse.json"
    save_purse_config(path, purse, series)
    purse2, series2 = load_purse_config(path)
    assert purse2 == purse
    assert series2 == series


def test_score_report_csv():
    totals = {"a": ScoreBreakdown(1.0, 2.0, 3.0)}
    text = score_report_csv(totals)
    assert text.splitlines()[0] == "solver_id,solution,speed,series,total"
    assert text.splitlines()[1].startswith("a,1.0,2.0,3.0,6.0")
