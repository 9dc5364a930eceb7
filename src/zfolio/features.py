"""The 48 raw instance features.

Features 1-33 are static: problem size, variable-clause graph and variable
graph degree statistics, balance and Horn proximity. Features 34-48 come
from the DPLL and local-search probes. Duplicate literals count as written
throughout; the variable graph is a simple graph (co-occurrence in at least
one clause, no self loops).

The static features are computed without a loop over clauses, from the
formula's clause arena (`CnfFormula.literals`, `clause_lengths` and the
`literal_clause` view, which the probes read too): degrees and positive
and Horn occurrence counts are `np.bincount`s of it. The variable-graph
degree counts distinct variable pairs: every two positions of every clause
give one pair, coded min·n + max for n variables; the codes are
deduplicated by an in-place sort and an adjacent-difference mask, and pairs
of one variable (a duplicate literal, or x and -x) are dropped. `np.unique`
would dedupe them too, but on numpy 2.4.6 it took 2.1 s for 2.56 M int64
codes where `np.sort` took 0.03 s.

Conventions for degenerate inputs: statistics of an empty collection are 0;
the variation coefficient (sample standard deviation / mean) is 0 when the
mean is 0 or fewer than two values exist; entropies use natural log, with a
distinct-value histogram for integer data and 100 equal-width bins on [0,1]
for ratio data. All feature values are finite.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cnf import CnfFormula, read_dimacs_file
from .probes import (DPLL_NAMES, GSAT_NAMES, SAPS_NAMES, ProbeBudget, _SlsState, dpll_probe,
                     gsat_probe, saps_probe)
from .runtimes import csv_text, parse_number, read_csv_table, write_utf8

STATIC_NAMES = (
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
)
# the names in feature-number order; SAPS has 41-46 and 48, GSAT 47
FEATURE_NAMES = tuple(sorted(STATIC_NAMES + DPLL_NAMES + SAPS_NAMES + GSAT_NAMES))

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


def _stats(xs, ratio=False) -> list[float]:
    """Mean, variation coefficient, min, max and entropy of `xs`. The entropy
    is of a distinct-value histogram: of `xs` itself, or of ratios' 100
    equal-width bins on [0,1]."""
    if not len(xs):
        return [0.0] * 5
    mean = float(np.mean(xs))
    cv = float(np.std(xs, ddof=1) / mean) if len(xs) > 1 and mean != 0 else 0.0
    _, counts = np.unique(np.minimum((xs * 100).astype(int), 99) if ratio else xs,
                          return_counts=True)
    p = counts / counts.sum()
    return [mean, cv, float(np.min(xs)), float(np.max(xs)), float(-(p * np.log(p)).sum())]


def _pair_codes(occ_var: np.ndarray, clause_len: np.ndarray, nv: int) -> np.ndarray:
    """The variables (u, v) of every two positions of every clause, each as
    the code min(u, v)·nv + max(u, v), from the 0-based variable of each
    literal occurrence and the clause lengths. The clauses of one length k
    are gathered as k rows, and offset d pairs row i with row i + d; the
    code is written as min·(nv - 1) + u + v, which needs no temporary."""
    starts = np.cumsum(clause_len) - clause_len
    by_length = np.argsort(clause_len, kind="stable")
    counts = np.bincount(clause_len)
    lengths = np.arange(len(counts))
    codes = np.empty(int(counts @ (lengths * (lengths - 1) // 2)), np.int64)
    ends, pos = np.cumsum(counts), 0
    for k in np.flatnonzero(counts[2:]) + 2:
        at = starts[by_length[ends[k] - counts[k]:ends[k]]]
        clause_vars = np.empty((k, len(at)), np.int64)  # row i: each clause's i-th variable
        for row in clause_vars:
            np.take(occ_var, at, out=row)
            at += 1
        for d in range(1, k):
            u, v = clause_vars[:-d], clause_vars[d:]
            out = codes[pos:pos + u.size].reshape(u.shape)
            np.minimum(u, v, out=out)
            out *= nv - 1
            out += u
            out += v
            pos += u.size
    return codes


def _vg_degrees(occ_var: np.ndarray, clause_len: np.ndarray, nv: int) -> np.ndarray:
    """Each variable's number of variable-graph neighbours (the other
    variables it shares a clause with), from the distinct pair codes."""
    codes = _pair_codes(occ_var, clause_len, nv)
    codes.sort()
    first = np.ones(codes.size, dtype=bool)
    first[1:] = codes[1:] != codes[:-1]
    codes = codes[first]
    u = codes // nv
    v = np.remainder(codes, nv, out=codes)
    # a pair of one variable (a duplicate literal, or x and -x) is no edge:
    # take it out of both counts
    return (np.bincount(u, minlength=nv) + np.bincount(v, minlength=nv)
            - 2 * np.bincount(u[u == v], minlength=nv))


def base_features(formula: CnfFormula) -> dict[str, float]:
    """Features 1-33 (problem size, graphs, balance, Horn proximity)."""
    nv, nc = formula.num_vars, formula.num_clauses
    lits, occ_clause = formula.literals, formula.literal_clause
    occ_var = np.abs(lits) - 1
    pos = lits > 0

    clause_len = formula.clause_lengths
    clause_pos = np.bincount(occ_clause[pos], minlength=nc)
    horn = clause_pos <= 1
    var_deg = np.bincount(occ_var, minlength=nv)  # duplicates included
    pos_occ = np.bincount(occ_var[pos], minlength=nv)
    horn_occ = np.bincount(occ_var[horn[occ_clause]], minlength=nv)
    occurring = var_deg > 0
    vg_deg = _vg_degrees(occ_var, clause_len, nv)

    cls_ratio = _stats(clause_pos / clause_len, ratio=True)
    values = [
        nc, nv, nc / nv,
        *_stats(var_deg), *_stats(clause_len), *_stats(vg_deg)[:4],
        cls_ratio[0], cls_ratio[1], cls_ratio[4],
        *_stats(pos_occ[occurring] / var_deg[occurring], ratio=True),
        *(np.count_nonzero(f) / max(nc, 1) for f in (clause_len == 2, clause_len == 3, horn)),
        *_stats(horn_occ),
    ]
    return dict(zip(STATIC_NAMES, map(float, values)))


def extract_all(formula: CnfFormula, budget: ProbeBudget | None = None,
                seed: int = 0) -> FeatureVector:
    """Run all feature groups under the total time budget.

    Probe groups run in the order SAPS, GSAT, DPLL after the static
    features; SAPS and GSAT share one local-search index. When the total
    budget runs out, between groups or inside one (in deterministic mode
    too), the result has timed_out=True and no values (callers then fall
    back to the backup solver); the elapsed time is still recorded.
    """
    return _extract(lambda: formula, budget, seed)


def _extract(read_formula, budget: ProbeBudget | None, seed: int) -> FeatureVector:
    """`extract_all` of the formula `read_formula()` returns, with the clock
    started before the call, so reading the formula counts in the feature
    time and against the total budget."""
    budget = budget or ProbeBudget()
    start = time.perf_counter()
    formula = read_formula()
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
        del sls  # freed before DPLL builds its engine, which shares only the formula's index
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


def extract_file(path, budget: ProbeBudget, seed: int) -> FeatureVector:
    """Features of a CNF file for `zfolio features` and the online solve alike,
    probed with `seed` mixed with the file's stem, its instance id. Parsing
    the file counts in the feature time and against `budget.total_seconds`."""
    digest = hashlib.sha256(f"{seed}:{Path(path).stem}".encode()).digest()
    return _extract(lambda: read_dimacs_file(path), budget, int.from_bytes(digest[:8], "big"))


CSV_HEADER = ("instance_id",) + FEATURE_NAMES + ("feature_time", "timed_out")


def save_feature_csv(path, table: dict[str, FeatureVector]) -> None:
    """Write a feature matrix; timed-out rows carry empty feature cells."""
    write_utf8(path, csv_text(CSV_HEADER, (
        [iid, *([""] * NUM_FEATURES if fv.values is None else [repr(float(v)) for v in fv.values]),
         repr(fv.feature_time_seconds), int(fv.timed_out)]
        for iid, fv in sorted(table.items()))))


def _feature_row(iid, *cells) -> FeatureVector:
    *values, feature_time, timed_out = cells
    if timed_out not in ("0", "1"):
        raise ValueError(f"timed_out {timed_out!r} is not 0 or 1")
    values = None if timed_out == "1" else np.array(
        [parse_number(name, c) for name, c in zip(FEATURE_NAMES, values)])
    return FeatureVector(values, parse_number("feature_time", feature_time), timed_out == "1")


def load_feature_csv(path) -> dict[str, FeatureVector]:
    """The feature table of a CSV file, read by read_csv_table."""
    return read_csv_table(path, CSV_HEADER, _feature_row)
