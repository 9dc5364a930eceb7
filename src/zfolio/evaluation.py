"""Dataset splitting and evaluation reports.

Average runtimes count unsolved runs (timeouts and crashes) at the cutoff.
The oracle row is the per-instance best solver at zero overhead, an upper
bound on what any selection strategy over the same solvers can achieve.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .runtimes import RuntimeMatrix, csv_text
from .scoring import PurseConfig, ScoreBreakdown, ScoreContext, SeriesMap, competition_score


def split_data(instance_ids, ratios=(0.4, 0.3, 0.3), seed: int = 0):
    """Random partition into train/validation/test by the given ratios.

    Sizes use largest-remainder rounding; the shuffle is seeded and applied
    to a sorted copy, so the partition is independent of input order. An id
    given twice raises a ValueError, as it would land in two parts, and so
    do ratios that are negative, not finite or do not sum to 1.
    """
    if not all(math.isfinite(r) and r >= 0 for r in ratios):
        raise ValueError(f"ratios must be finite and nonnegative, got {list(ratios)}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError("ratios must sum to 1")
    ids = sorted(instance_ids)
    for a, b in zip(ids, ids[1:]):
        if a == b:
            raise ValueError(f"instance id {a!r} is given more than once")
    n = len(ids)
    raw = [n * r for r in ratios]
    sizes = [math.floor(v) for v in raw]
    remainders = sorted(
        range(len(ratios)), key=lambda i: (-(raw[i] - sizes[i]), i)
    )
    for i in range(n - sum(sizes)):
        sizes[remainders[i % len(ratios)]] += 1
    rng = random.Random(seed)
    rng.shuffle(ids)
    parts = []
    at = 0
    for size in sizes:
        parts.append(ids[at : at + size])
        at += size
    return tuple(parts)


def drop_unsolvable(matrix: RuntimeMatrix):
    """Instances solved by no solver are removed from consideration.

    Returns (kept instance ids, retained fraction). A cell without a
    record counts as unsolved.
    """
    runs = matrix.dense()
    kept = [iid for iid, ok in zip(runs.instances, runs.solved.any(axis=0).tolist()) if ok]
    fraction = len(kept) / len(matrix.instances) if matrix.instances else 0.0
    return kept, fraction


@dataclass
class SolverSummary:
    solver_id: str
    avg_runtime: float
    pct_solved: float
    score: ScoreBreakdown


@dataclass
class EvaluationReport:
    cutoff_seconds: float
    rows: list[SolverSummary]
    oracle: SolverSummary

    def row(self, solver_id: str) -> SolverSummary:
        return next(r for r in self.rows if r.solver_id == solver_id)

    def to_csv(self) -> str:
        return csv_text(
            ("solver_id", "avg_runtime", "pct_solved", "solution", "speed", "series", "total"),
            ([r.solver_id, *map(repr, (r.avg_runtime, r.pct_solved, r.score.solution,
                                       r.score.speed, r.score.series, r.score.total))]
             for r in [*self.rows, self.oracle]))


def _summary(solver_id, solved_times, n_total, cutoff, score) -> SolverSummary:
    total_time = sum(solved_times) + (n_total - len(solved_times)) * cutoff
    return SolverSummary(
        solver_id,
        total_time / n_total if n_total else 0.0,
        100.0 * len(solved_times) / n_total if n_total else 0.0,
        score,
    )


def evaluate(matrix: RuntimeMatrix, purse: PurseConfig, series: SeriesMap) -> EvaluationReport:
    """Per-solver average runtime, percent solved and competition score,
    plus the oracle over the same solvers. Raises KeyError for a cell
    without a run."""
    runs = matrix.dense().block()
    instances = runs.instances
    n = len(instances)
    cutoff = matrix.cutoff_seconds
    oracle_solved = runs.solved.any(axis=0)
    oracle_time = np.where(runs.solved, runs.runtime, np.inf).min(axis=0, initial=np.inf)
    scores = competition_score(runs, purse, series)
    oracle_score = ScoreContext(runs, purse, series).virtual_total(
        dict(zip(instances, oracle_solved.tolist())),
        dict(zip(instances, np.where(oracle_solved, oracle_time, cutoff).tolist())),
    )

    rows = []
    for k, s in enumerate(runs.solvers):
        rows.append(_summary(s, runs.runtime[k][runs.solved[k]].tolist(), n, cutoff, scores[s]))
    oracle = _summary("oracle", oracle_time[oracle_solved].tolist(), n, cutoff, oracle_score)
    return EvaluationReport(cutoff, rows, oracle)
