import dataclasses
import math
import random
import time

import numpy as np
import pytest

from zfolio.cnf import CnfFormula
from zfolio.features import (
    FEATURE_NAMES,
    FeatureVector,
    _vg_degrees,
    base_features,
    extract_all,
    extract_file,
    load_feature_csv,
    save_feature_csv,
)
from zfolio.probes import ProbeBudget
from conftest import random_3cnf


def make(num_vars, clauses):
    return CnfFormula(num_vars=num_vars, clauses=clauses)


TEST_BUDGET = ProbeBudget(max_ls_steps=400, ls_runs=4, dpll_runs=5, deterministic=True)

# Hand-computed expectations for five tiny formulas. Columns:
# c, v, horn fraction, per-clause positive-ratio mean, binary frac,
# ternary frac, then (min, mean, max) for variable degrees, clause degrees
# and variable-graph degrees, and the per-variable positive-ratio mean.
FIXTURES = [
    (
        make(2, [[1, -2], [2]]),
        dict(c=2, v=2, horn=1.0, clspos=0.75, binf=0.5, ternf=0.0,
             vdeg=(1, 1.5, 2), cdeg=(1, 1.5, 2), vg=(1, 1.0, 1), varpos=0.75),
    ),
    (
        make(1, [[1]]),
        dict(c=1, v=1, horn=1.0, clspos=1.0, binf=0.0, ternf=0.0,
             vdeg=(1, 1.0, 1), cdeg=(1, 1.0, 1), vg=(0, 0.0, 0), varpos=1.0),
    ),
    (
        make(3, [[1, 2, 3], [-1, -2], [-3, 1], [2]]),
        dict(c=4, v=3, horn=0.75, clspos=0.625, binf=0.5, ternf=0.25,
             vdeg=(2, 8 / 3, 3), cdeg=(1, 2.0, 3), vg=(2, 2.0, 2), varpos=11 / 18),
    ),
    (
        make(3, [[1, -2], [2, 1]]),
        dict(c=2, v=3, horn=0.5, clspos=0.75, binf=1.0, ternf=0.0,
             vdeg=(0, 4 / 3, 2), cdeg=(2, 2.0, 2), vg=(0, 2 / 3, 1), varpos=0.75),
    ),
    (
        make(2, [[1, 1], [1, -1], [-2, -2, 2]]),
        dict(c=3, v=2, horn=2 / 3, clspos=11 / 18, binf=2 / 3, ternf=1 / 3,
             vdeg=(3, 3.5, 4), cdeg=(2, 7 / 3, 3), vg=(0, 0.0, 0), varpos=13 / 24),
    ),
]


@pytest.mark.parametrize("formula,expect", FIXTURES)
def test_hand_computed_fixtures(formula, expect):
    tol = 1e-12
    f = base_features(formula)
    assert f["f01_nclauses"] == expect["c"]
    assert f["f02_nvars"] == expect["v"]
    assert abs(f["f03_clause_var_ratio"] - expect["c"] / expect["v"]) <= tol
    assert abs(f["f28_horn_frac"] - expect["horn"]) <= tol
    assert abs(f["f18_pos_ratio_cls_mean"] - expect["clspos"]) <= tol
    assert abs(f["f26_binary_frac"] - expect["binf"]) <= tol
    assert abs(f["f27_ternary_frac"] - expect["ternf"]) <= tol
    lo, mean, hi = expect["vdeg"]
    assert f["f06_vcg_var_deg_min"] == lo
    assert abs(f["f04_vcg_var_deg_mean"] - mean) <= tol
    assert f["f07_vcg_var_deg_max"] == hi
    lo, mean, hi = expect["cdeg"]
    assert f["f11_vcg_cls_deg_min"] == lo
    assert abs(f["f09_vcg_cls_deg_mean"] - mean) <= tol
    assert f["f12_vcg_cls_deg_max"] == hi
    lo, mean, hi = expect["vg"]
    assert f["f16_vg_deg_min"] == lo
    assert abs(f["f14_vg_deg_mean"] - mean) <= tol
    assert f["f17_vg_deg_max"] == hi
    assert abs(f["f21_pos_ratio_var_mean"] - expect["varpos"]) <= tol


def test_variation_coefficient_spot_value():
    # clause sizes [3,2,2,1]: sample std sqrt(2/3), mean 2
    f = base_features(make(3, [[1, 2, 3], [-1, -2], [-3, 1], [2]]))
    assert abs(f["f10_vcg_cls_deg_cv"] - math.sqrt(2 / 3) / 2) <= 1e-12


def test_degree_entropy_spot_value():
    # var degrees [3,3,2]: two distinct values with p = (2/3, 1/3)
    f = base_features(make(3, [[1, 2, 3], [-1, -2], [-3, 1], [2]]))
    expected = -(2 / 3 * math.log(2 / 3) + 1 / 3 * math.log(1 / 3))
    assert abs(f["f08_vcg_var_deg_entropy"] - expected) <= 1e-12


def test_point_mass_entropies_are_zero():
    f = base_features(make(1, [[1]]))
    for name in ("f08_vcg_var_deg_entropy", "f13_vcg_cls_deg_entropy",
                 "f20_pos_ratio_cls_entropy", "f25_pos_ratio_var_entropy",
                 "f33_horn_var_entropy"):
        assert f[name] == 0.0


STAT_GROUPS = [
    ("f06_vcg_var_deg_min", "f04_vcg_var_deg_mean", "f07_vcg_var_deg_max"),
    ("f11_vcg_cls_deg_min", "f09_vcg_cls_deg_mean", "f12_vcg_cls_deg_max"),
    ("f16_vg_deg_min", "f14_vg_deg_mean", "f17_vg_deg_max"),
    ("f23_pos_ratio_var_min", "f21_pos_ratio_var_mean", "f24_pos_ratio_var_max"),
    ("f31_horn_var_min", "f29_horn_var_mean", "f32_horn_var_max"),
]

ENTROPY_FEATURES = [n for n in FEATURE_NAMES if n.endswith("entropy")]


def test_random_formula_properties():
    rng = random.Random(99)
    for _ in range(200):
        f = base_features(random_3cnf(rng.randint(3, 25), rng.randint(2, 80), rng))
        for lo, mid, hi in STAT_GROUPS:
            assert f[lo] <= f[mid] + 1e-12
            assert f[mid] <= f[hi] + 1e-12
        for name in ENTROPY_FEATURES:
            assert f[name] >= 0.0
        assert 0.0 <= f["f28_horn_frac"] <= 1.0
        assert 0.0 <= f["f26_binary_frac"] <= 1.0
        assert 0.0 <= f["f27_ternary_frac"] <= 1.0
        assert f["f26_binary_frac"] + f["f27_ternary_frac"] <= 1.0 + 1e-12
        assert f["f03_clause_var_ratio"] == f["f01_nclauses"] / f["f02_nvars"]


def _reference_vg_degrees(formula):
    """Per variable, the number of other variables it shares a clause with."""
    neighbours = [set() for _ in range(formula.num_vars + 1)]
    for clause in formula.clauses:
        distinct = {abs(lit) for lit in clause}
        for v in distinct:
            neighbours[v] |= distinct - {v}
    return [len(n) for n in neighbours[1:]]


def _reference_base_features(formula):
    """Features 1-33 computed clause by clause, as zfolio did before it
    computed them from the flat literal index: the oracle of the test below."""

    def mean(xs):
        return float(np.mean(xs)) if len(xs) else 0.0

    def cv(xs):
        if len(xs) < 2:
            return 0.0
        m = float(np.mean(xs))
        return 0.0 if m == 0 else float(np.std(xs, ddof=1) / m)

    def entropy_int(xs):
        if not len(xs):
            return 0.0
        _, counts = np.unique(np.asarray(xs), return_counts=True)
        p = counts / counts.sum()
        return float(-(p * np.log(p)).sum())

    def entropy_ratio(xs):
        if not len(xs):
            return 0.0
        return entropy_int(np.minimum((np.asarray(xs, dtype=float) * 100).astype(int), 99))

    def stats(xs, entropy=None):
        out = [mean(xs), cv(xs), float(np.min(xs)) if len(xs) else 0.0,
               float(np.max(xs)) if len(xs) else 0.0]
        return out + [entropy(xs)] if entropy else out

    nv, clauses = formula.num_vars, formula.clauses
    nc = len(clauses)
    var_deg = np.zeros(nv, dtype=int)
    pos_occ = np.zeros(nv, dtype=int)
    horn_occ = np.zeros(nv, dtype=int)
    clause_len = np.zeros(nc, dtype=int)
    clause_pos_ratio = np.zeros(nc, dtype=float)
    horn_clauses = binary = ternary = 0
    for ci, clause in enumerate(clauses):
        k = len(clause)
        clause_len[ci] = k
        if k == 2:
            binary += 1
        elif k == 3:
            ternary += 1
        npos = 0
        for lit in clause:
            var_deg[abs(lit) - 1] += 1
            if lit > 0:
                npos += 1
                pos_occ[abs(lit) - 1] += 1
        clause_pos_ratio[ci] = npos / k
        if npos <= 1:
            horn_clauses += 1
            for lit in clause:
                horn_occ[abs(lit) - 1] += 1
    vg_deg = np.array(_reference_vg_degrees(formula), dtype=int)
    occurring = var_deg > 0
    var_pos_ratio = pos_occ[occurring] / var_deg[occurring] if occurring.any() else np.zeros(0)
    cr = stats(clause_pos_ratio, entropy_ratio)
    values = [
        float(nc), float(nv), nc / nv,
        *stats(var_deg, entropy_int), *stats(clause_len, entropy_int), *stats(vg_deg),
        cr[0], cr[1], cr[4], *stats(var_pos_ratio, entropy_ratio),
        binary / nc if nc else 0.0, ternary / nc if nc else 0.0,
        horn_clauses / nc if nc else 0.0, *stats(horn_occ, entropy_int),
    ]
    return dict(zip(FEATURE_NAMES[:33], values))


def _wild_cnf(rng):
    """Clauses of 1-9 literals over a few variables, so duplicate literals,
    tautologies, unit clauses and unused variables are all common."""
    nv = rng.randint(1, 12)
    used = rng.randint(1, nv)
    clauses = [[rng.choice((1, -1)) * rng.randint(1, used) for _ in range(rng.randint(1, 9))]
               for _ in range(rng.randint(0, 25))]
    return CnfFormula(nv, clauses)


_LONG = random.Random(31)
EDGE_CASES = [
    CnfFormula(3, []),
    CnfFormula(1, [[1, -1, 1]]),
    CnfFormula(3, [[2, 2, 2], [-3]]),
    CnfFormula(1, [[1], [-1]]),
    CnfFormula(300, [[_LONG.choice((1, -1)) * _LONG.randint(1, 250) for _ in range(200)],
                     [1, 2], [260], [-260, 299]]),  # one 200-literal clause
]


def test_static_features_bit_identical_to_the_clause_loop():
    rng = random.Random(22)
    formulas = EDGE_CASES + [_wild_cnf(rng) for _ in range(2000)]
    formulas += [random_3cnf(rng.randint(3, 40), rng.randint(1, 160), rng) for _ in range(200)]
    for formula in formulas:
        got = base_features(formula)
        want = _reference_base_features(formula)
        assert list(got) == list(FEATURE_NAMES[:33])
        assert [type(v) for v in got.values()] == [float] * 33
        assert {k: v.hex() for k, v in got.items()} == {k: v.hex() for k, v in want.items()}, \
            formula


def test_variable_graph_degree_matches_the_neighbour_sets():
    # features 14-17 are its statistics, checked bit for bit above
    rng = random.Random(31)
    for formula in EDGE_CASES + [_wild_cnf(rng) for _ in range(600)]:
        got = _vg_degrees(np.abs(formula.literals) - 1, formula.clause_lengths, formula.num_vars)
        assert got.tolist() == _reference_vg_degrees(formula), formula


# the 48 names in feature-number order, as written in every feature CSV
EXPECTED_NAMES = (
    "f01_nclauses",
    "f02_nvars",
    "f03_clause_var_ratio",
    "f04_vcg_var_deg_mean",
    "f05_vcg_var_deg_cv",
    "f06_vcg_var_deg_min",
    "f07_vcg_var_deg_max",
    "f08_vcg_var_deg_entropy",
    "f09_vcg_cls_deg_mean",
    "f10_vcg_cls_deg_cv",
    "f11_vcg_cls_deg_min",
    "f12_vcg_cls_deg_max",
    "f13_vcg_cls_deg_entropy",
    "f14_vg_deg_mean",
    "f15_vg_deg_cv",
    "f16_vg_deg_min",
    "f17_vg_deg_max",
    "f18_pos_ratio_cls_mean",
    "f19_pos_ratio_cls_cv",
    "f20_pos_ratio_cls_entropy",
    "f21_pos_ratio_var_mean",
    "f22_pos_ratio_var_cv",
    "f23_pos_ratio_var_min",
    "f24_pos_ratio_var_max",
    "f25_pos_ratio_var_entropy",
    "f26_binary_frac",
    "f27_ternary_frac",
    "f28_horn_frac",
    "f29_horn_var_mean",
    "f30_horn_var_cv",
    "f31_horn_var_min",
    "f32_horn_var_max",
    "f33_horn_var_entropy",
    "f34_up_depth1",
    "f35_up_depth4",
    "f36_up_depth16",
    "f37_up_depth64",
    "f38_up_depth256",
    "f39_dpll_mean_depth",
    "f40_dpll_log_nodes",
    "f41_saps_beststep_mean",
    "f42_saps_beststep_median",
    "f43_saps_beststep_q10",
    "f44_saps_beststep_q90",
    "f45_saps_improve_per_step",
    "f46_saps_first_lm_frac",
    "f47_gsat_first_lm_frac",
    "f48_saps_cv_unsat",
)


def test_feature_names_are_the_48_in_feature_number_order():
    assert FEATURE_NAMES == EXPECTED_NAMES


class TestExtractAll:
    def test_small_formula_completes(self):
        fv = extract_all(make(2, [[1, -2], [2]]), TEST_BUDGET, seed=0)
        assert fv.timed_out is False
        assert fv.values is not None and len(fv.values) == 48
        assert fv.feature_time_seconds < 60
        assert np.all(np.isfinite(fv.values))
        # ratio identity is exact
        assert fv.get("f03_clause_var_ratio") == fv.get("f01_nclauses") / fv.get("f02_nvars")

    def test_forced_timeout(self, rng):
        budget = ProbeBudget(total_seconds=0.0001, max_ls_steps=400, ls_runs=4,
                             dpll_runs=5, deterministic=True)
        fv = extract_all(random_3cnf(20, 80, rng), budget, seed=0)
        assert fv.timed_out is True
        assert fv.values is None
        assert fv.feature_time_seconds > 0

    def test_no_local_search_index_once_the_budget_ran_out(self, rng, monkeypatch):
        import zfolio.features as features_mod

        built = []
        real_base = features_mod.base_features

        def slow_base(formula):
            time.sleep(0.01)  # past the total budget below
            return real_base(formula)

        monkeypatch.setattr(features_mod, "base_features", slow_base)
        monkeypatch.setattr(features_mod, "_SlsState", built.append)
        budget = ProbeBudget(total_seconds=0.001, deterministic=True)
        fv = extract_all(random_3cnf(20, 80, rng), budget, seed=0)
        assert fv.timed_out is True and built == []

    def test_total_budget_interrupts_a_deterministic_probe_group(self, rng):
        # 2 000 000 local-search steps would take minutes; the 0.2 s total
        # budget must stop SAPS inside its first run
        budget = ProbeBudget(total_seconds=0.2, max_ls_steps=2_000_000, deterministic=True)
        start = time.perf_counter()
        fv = extract_all(random_3cnf(100, 600, rng), budget, seed=0)
        assert time.perf_counter() - start < 5.0
        assert fv.timed_out is True
        assert fv.values is None

    def test_seed_determinism(self, rng):
        f = random_3cnf(18, 60, rng)
        a = extract_all(f, TEST_BUDGET, seed=42)
        b = extract_all(f, TEST_BUDGET, seed=42)
        assert np.array_equal(a.values, b.values)


class TestExtractFile:
    """Parsing is part of computing a file's features: its time counts in the
    feature time and against the total budget."""

    @pytest.fixture
    def slow_read(self, monkeypatch):
        import zfolio.features as features_mod

        real_read = features_mod.read_dimacs_file

        def read(path):
            time.sleep(0.2)
            return real_read(path)
        monkeypatch.setattr(features_mod, "read_dimacs_file", read)

    def test_parsing_counts_in_the_feature_time(self, tmp_path, slow_read):
        path = tmp_path / "tiny.cnf"
        path.write_text("p cnf 2 2\n1 -2 0\n2 0\n")
        fv = extract_file(path, TEST_BUDGET, seed=0)
        assert fv.timed_out is False and fv.feature_time_seconds >= 0.2

    def test_parsing_counts_against_the_total_budget(self, tmp_path, slow_read):
        path = tmp_path / "tiny.cnf"
        path.write_text("p cnf 2 2\n1 -2 0\n2 0\n")
        budget = dataclasses.replace(TEST_BUDGET, total_seconds=0.1)
        fv = extract_file(path, budget, seed=0)
        assert fv.timed_out is True and fv.values is None and fv.feature_time_seconds >= 0.2


FEATURES_HEADER = ",".join(["instance_id", *FEATURE_NAMES, "feature_time", "timed_out"])
I0 = ",".join(["i0", *(str(k) for k in range(48)), "1.5", "0"])  # a well-formed row
I1 = "i1" + I0[2:]


@pytest.mark.parametrize("text, fault", [
    ("", ": no header row"),
    (FEATURES_HEADER.replace(",feature_time", "") + f"\n{I0}\n", ": no 'feature_time' column"),
    (f"{FEATURES_HEADER}\n{I0}\n{I1[:-2]}\n", ", line 3: expected 51 fields, got 50"),
    (f"{FEATURES_HEADER}\n{I0}\n{I1},0\n", ", line 3: expected 51 fields, got 52"),
    (f"{FEATURES_HEADER}\n{I0}\n{I1.replace(',3,', ',big,')}\n",
     f", line 3: {FEATURE_NAMES[3]} 'big' is not a number"),
    (f"{FEATURES_HEADER}\n{I0}\n{I1.replace(',1.5,', ',,')}\n",
     ", line 3: feature_time '' is not a number"),
    (f"{FEATURES_HEADER}\n{I0}\n{I1[:-1]}yes\n", ", line 3: timed_out 'yes' is not 0 or 1"),
    (f"{FEATURES_HEADER}\n\n{I0}\n\n{I1[:-1]}2\n", ", line 5: timed_out '2' is not 0 or 1"),
    # a concatenated file must not train on whichever row came last
    (f"{FEATURES_HEADER}\n{I0}\n{I0[:-5]}2.0,0\n", ", line 3: a second row for instance 'i0'"),
], ids=["empty", "missing-column", "width", "long", "feature", "feature_time", "timed_out",
        "blank-row", "second-row"])
def test_feature_csv_malformed_row_names_it(tmp_path, text, fault):
    path = tmp_path / "features.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as exc:
        load_feature_csv(path)
    assert str(exc.value) == f"{path}{fault}"


def test_feature_csv_columns_are_found_by_name_and_blank_rows_skipped(tmp_path):
    path = tmp_path / "features.csv"
    path.write_text(f"{FEATURES_HEADER}\n")
    assert load_feature_csv(path) == {}
    # the columns reversed, with an extra one and blank rows
    names = ["note", *reversed(FEATURES_HEADER.split(","))]
    path.write_text("\n".join([",".join(names), "", ",".join(["x", *reversed(I0.split(","))]),
                               "", ",".join(["", "1", "61.0", *[""] * 48, "slow"]), ""]))
    loaded = load_feature_csv(path)
    assert list(loaded) == ["i0", "slow"]
    assert np.array_equal(loaded["i0"].values, np.arange(48.0))
    assert (loaded["i0"].feature_time_seconds, loaded["i0"].timed_out) == (1.5, False)
    assert loaded["slow"].values is None
    assert (loaded["slow"].feature_time_seconds, loaded["slow"].timed_out) == (61.0, True)


def test_feature_csv_round_trip(tmp_path, rng):
    table = {}
    for i in range(4):
        f = random_3cnf(10, 30, rng)
        table[f"inst{i}"] = extract_all(f, TEST_BUDGET, seed=i)
    table["slow"] = FeatureVector(None, 61.0, True)
    path = tmp_path / "features.csv"
    save_feature_csv(path, table)
    loaded = load_feature_csv(path)
    assert set(loaded) == set(table)
    for iid, fv in table.items():
        got = loaded[iid]
        assert got.timed_out == fv.timed_out
        if fv.values is None:
            assert got.values is None
        else:
            assert np.array_equal(got.values, fv.values)
        assert got.feature_time_seconds == fv.feature_time_seconds


def test_feature_csv_round_trip_keeps_ids_that_need_quoting(tmp_path):
    values = np.arange(len(FEATURE_NAMES)) / 7
    table = {iid: FeatureVector(values + k, 0.5 + k, False)
             for k, iid in enumerate(["a,b", 'say "x"', " lead", "café"])}
    table['slow, "late"'] = FeatureVector(None, 61.0, True)
    path = tmp_path / "features.csv"
    save_feature_csv(path, table)
    loaded = load_feature_csv(path)
    assert list(loaded) == sorted(table)
    for iid, fv in table.items():
        got = loaded[iid]
        assert (got.feature_time_seconds, got.timed_out) == (fv.feature_time_seconds, fv.timed_out)
        assert (got.values is None if fv.values is None
                else got.values.tobytes() == fv.values.tobytes())
