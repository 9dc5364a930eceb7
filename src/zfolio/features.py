"""The 48 raw instance features.

Features 1-33 are static: problem size, variable-clause graph and variable
graph degree statistics, balance and Horn proximity. Features 34-48 come
from the DPLL and local-search probes. Duplicate literals count as written
throughout; the variable graph is a simple graph (co-occurrence in at least
one clause, no self loops).

Conventions for degenerate inputs: statistics of an empty collection are 0;
the variation coefficient (sample standard deviation / mean) is 0 when the
mean is 0 or fewer than two values exist; entropies use natural log, with a
distinct-value histogram for integer data and 100 equal-width bins on [0,1]
for ratio data. All feature values are finite.
"""

from __future__ import annotations

import csv
import random
import time
from dataclasses import dataclass

import numpy as np

from .cnf import CnfFormula
from .probes import ProbeBudget, _SlsState, dpll_probe, gsat_probe, saps_probe
from .runtimes import csv_number

FEATURE_NAMES = (
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

NUM_FEATURES = len(FEATURE_NAMES)

_INDEX = {name: i for i, name in enumerate(FEATURE_NAMES)}


@dataclass
class FeatureVector:
    """One instance's features plus its extraction time and timeout flag.

    `values` holds the 48 features in canonical order, or None when
    extraction timed out (the CSV form then carries empty cells).
    """

    values: np.ndarray | None
    feature_time_seconds: float
    timed_out: bool

    def __post_init__(self):
        if self.values is not None:
            self.values = np.asarray(self.values, dtype=float)
            if self.values.shape != (NUM_FEATURES,):
                raise ValueError(f"expected {NUM_FEATURES} features, got {self.values.shape}")
            if not np.all(np.isfinite(self.values)):
                raise ValueError("feature values must be finite")
        if self.feature_time_seconds < 0:
            raise ValueError("feature_time_seconds must be nonnegative")

    @property
    def usable(self) -> bool:
        """Values present and extraction not timed out: the only vectors
        a model reads; the others go to the backup solver."""
        return self.values is not None and not self.timed_out

    def get(self, name: str) -> float:
        if self.values is None:
            raise ValueError("no feature values (extraction timed out)")
        return float(self.values[_INDEX[name]])


def _mean(xs) -> float:
    return float(np.mean(xs)) if len(xs) else 0.0


def _cv(xs) -> float:
    if len(xs) < 2:
        return 0.0
    m = float(np.mean(xs))
    if m == 0:
        return 0.0
    return float(np.std(xs, ddof=1) / m)


def _entropy_int(xs) -> float:
    """Entropy of an integer-valued multiset via its distinct-value histogram."""
    if not len(xs):
        return 0.0
    _, counts = np.unique(np.asarray(xs), return_counts=True)
    p = counts / counts.sum()
    return float(-(p * np.log(p)).sum())


def _entropy_ratio(xs) -> float:
    """Entropy of values in [0,1] over 100 equal-width bins."""
    if not len(xs):
        return 0.0
    bins = np.minimum((np.asarray(xs, dtype=float) * 100).astype(int), 99)
    _, counts = np.unique(bins, return_counts=True)
    p = counts / counts.sum()
    return float(-(p * np.log(p)).sum())


def _stats(xs, entropy=None) -> dict[str, float]:
    out = {
        "mean": _mean(xs),
        "cv": _cv(xs),
        "min": float(np.min(xs)) if len(xs) else 0.0,
        "max": float(np.max(xs)) if len(xs) else 0.0,
    }
    if entropy is not None:
        out["entropy"] = entropy(xs)
    return out


def base_features(formula: CnfFormula) -> dict[str, float]:
    """Features 1-33 (problem size, graphs, balance, Horn proximity)."""
    nv = formula.num_vars
    clauses = formula.clauses
    nc = len(clauses)

    var_deg = np.zeros(nv, dtype=int)  # occurrence counts, duplicates included
    pos_occ = np.zeros(nv, dtype=int)
    horn_occ = np.zeros(nv, dtype=int)
    vg_neighbors: list[set[int]] = [set() for _ in range(nv + 1)]

    clause_len = np.zeros(nc, dtype=int)
    clause_pos_ratio = np.zeros(nc, dtype=float)
    horn_clauses = 0
    binary = 0
    ternary = 0

    for ci, clause in enumerate(clauses):
        k = len(clause)
        clause_len[ci] = k
        if k == 2:
            binary += 1
        elif k == 3:
            ternary += 1
        npos = 0
        for lit in clause:
            v = abs(lit)
            var_deg[v - 1] += 1
            if lit > 0:
                npos += 1
                pos_occ[v - 1] += 1
        clause_pos_ratio[ci] = npos / k
        if npos <= 1:
            horn_clauses += 1
            for lit in clause:
                horn_occ[abs(lit) - 1] += 1
        distinct = {abs(lit) for lit in clause}
        for v in distinct:
            vg_neighbors[v].update(distinct)

    vg_deg = np.array(
        [len(vg_neighbors[v] - {v}) for v in range(1, nv + 1)], dtype=int
    )

    occurring = var_deg > 0
    if occurring.any():
        var_pos_ratio = pos_occ[occurring] / var_deg[occurring]
    else:
        var_pos_ratio = np.zeros(0)

    out: dict[str, float] = {
        "f01_nclauses": float(nc),
        "f02_nvars": float(nv),
        "f03_clause_var_ratio": nc / nv,
    }
    vd = _stats(var_deg, _entropy_int)
    out.update(
        f04_vcg_var_deg_mean=vd["mean"], f05_vcg_var_deg_cv=vd["cv"],
        f06_vcg_var_deg_min=vd["min"], f07_vcg_var_deg_max=vd["max"],
        f08_vcg_var_deg_entropy=vd["entropy"],
    )
    cd = _stats(clause_len, _entropy_int)
    out.update(
        f09_vcg_cls_deg_mean=cd["mean"], f10_vcg_cls_deg_cv=cd["cv"],
        f11_vcg_cls_deg_min=cd["min"], f12_vcg_cls_deg_max=cd["max"],
        f13_vcg_cls_deg_entropy=cd["entropy"],
    )
    gd = _stats(vg_deg)
    out.update(
        f14_vg_deg_mean=gd["mean"], f15_vg_deg_cv=gd["cv"],
        f16_vg_deg_min=gd["min"], f17_vg_deg_max=gd["max"],
    )
    cr = _stats(clause_pos_ratio, _entropy_ratio)
    out.update(
        f18_pos_ratio_cls_mean=cr["mean"], f19_pos_ratio_cls_cv=cr["cv"],
        f20_pos_ratio_cls_entropy=cr["entropy"],
    )
    vr = _stats(var_pos_ratio, _entropy_ratio)
    out.update(
        f21_pos_ratio_var_mean=vr["mean"], f22_pos_ratio_var_cv=vr["cv"],
        f23_pos_ratio_var_min=vr["min"], f24_pos_ratio_var_max=vr["max"],
        f25_pos_ratio_var_entropy=vr["entropy"],
    )
    out["f26_binary_frac"] = binary / nc if nc else 0.0
    out["f27_ternary_frac"] = ternary / nc if nc else 0.0
    out["f28_horn_frac"] = horn_clauses / nc if nc else 0.0
    hd = _stats(horn_occ, _entropy_int)
    out.update(
        f29_horn_var_mean=hd["mean"], f30_horn_var_cv=hd["cv"],
        f31_horn_var_min=hd["min"], f32_horn_var_max=hd["max"],
        f33_horn_var_entropy=hd["entropy"],
    )
    return out


def extract_all(formula: CnfFormula, budget: ProbeBudget | None = None,
                seed: int = 0) -> FeatureVector:
    """Run all feature groups under the total time budget.

    Probe groups run in the order SAPS, GSAT, DPLL after the static
    features; SAPS and GSAT share one local-search index. When the total budget runs out, between groups or inside one
    (in deterministic mode too), the result has timed_out=True and no
    values (callers then fall back to the backup solver); the elapsed time
    is still recorded.
    """
    budget = budget or ProbeBudget()
    start = time.perf_counter()
    deadline = start + budget.total_seconds
    rng = random.Random(seed)
    sub_seeds = [rng.randrange(2**32) for _ in range(3)]

    def out_of_time() -> bool:
        return time.perf_counter() > deadline

    def phases():
        if out_of_time():  # no index is built for probes that will not run
            return
        sls = _SlsState(formula)  # one local-search index serves SAPS and GSAT
        yield lambda: saps_probe(formula, budget, sub_seeds[0], deadline=deadline, state=sls)
        yield lambda: gsat_probe(formula, budget, sub_seeds[1], deadline=deadline, state=sls)
        del sls  # freed before DPLL builds its own engine, so the two never coexist
        yield lambda: dpll_probe(formula, budget, sub_seeds[2], deadline=deadline)

    values: dict[str, float] = base_features(formula)
    for phase in phases():
        if out_of_time():
            return FeatureVector(None, time.perf_counter() - start, True)
        values.update(phase())
    if out_of_time():
        return FeatureVector(None, time.perf_counter() - start, True)

    vector = np.array([values[name] for name in FEATURE_NAMES], dtype=float)
    return FeatureVector(vector, time.perf_counter() - start, False)


CSV_HEADER = ("instance_id",) + FEATURE_NAMES + ("feature_time", "timed_out")


def save_feature_csv(path, table: dict[str, FeatureVector]) -> None:
    """Write a feature matrix; timed-out rows carry empty feature cells."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for iid in sorted(table):
            fv = table[iid]
            if fv.values is None:
                cells = [""] * NUM_FEATURES
            else:
                cells = [repr(float(v)) for v in fv.values]
            writer.writerow([iid, *cells, repr(fv.feature_time_seconds), int(fv.timed_out)])


def load_feature_csv(path) -> dict[str, FeatureVector]:
    """A malformed row, or a second row for an instance, raises a
    ValueError naming the file, the line and the bad field or instance."""
    table: dict[str, FeatureVector] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if tuple(next(reader)) != CSV_HEADER:
            raise ValueError("unexpected feature CSV header")
        for row in reader:
            try:
                if len(row) != len(CSV_HEADER):
                    raise ValueError(f"expected {len(CSV_HEADER)} fields, got {len(row)}")
                if row[0] in table:
                    raise ValueError(f"a second row for instance {row[0]!r}")
                if row[-1] not in ("0", "1"):
                    raise ValueError(f"timed_out {row[-1]!r} is not 0 or 1")
                timed_out = row[-1] == "1"
                values = None if timed_out else np.array(
                    [csv_number(name, c) for name, c in zip(FEATURE_NAMES, row[1:-2])])
                table[row[0]] = FeatureVector(values, csv_number("feature_time", row[-2]),
                                              timed_out)
            except ValueError as exc:
                raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
    return table
