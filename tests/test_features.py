import math
import random
import time

import numpy as np
import pytest

from zfolio.cnf import CnfFormula
from zfolio.features import (
    FEATURE_NAMES,
    FeatureVector,
    base_features,
    extract_all,
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


def test_feature_csv_round_trip(tmp_path, rng):
    table = {}
    for i in range(4):
        f = random_3cnf(10, 30, rng)
        table[f"inst{i}"] = extract_all(f, TEST_BUDGET, seed=i)
    table["slow"] = FeatureVector(None, 61.0, True, seed=9)
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
