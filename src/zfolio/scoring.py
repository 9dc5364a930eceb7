"""Competition-style scoring.

Each instance carries a solution purse (split equally among solvers that
solve it) and a speed purse (split in proportion to the speed factor
SF = timeLimit / (1 + timeUsed)); each series of instances carries a series
purse split equally among solvers solving at least one instance of the
series. Crashes and timeouts score exactly zero. For training targets the
series purse is approximated by an independent per-instance share,
SeriesP / (N * n), a conservative lower bound on the exact share.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .runtimes import DenseRuns, RuntimeMatrix


class MissingReferenceRuns(ValueError):
    pass


@dataclass
class PurseConfig:
    """Per-instance and per-series purse values.

    The published purse amounts for real competitions vary; the defaults
    here are placeholders whose conservation and ranking properties do not
    depend on magnitude.
    """

    solution_purse: float = 1000.0
    speed_purse: float = 1000.0
    series_purse: float = 300.0
    time_limit: float = 1200.0

    def __post_init__(self):
        if min(self.solution_purse, self.speed_purse, self.series_purse) < 0:
            raise ValueError("purse values must be nonnegative")
        if self.time_limit <= 0:
            raise ValueError("time_limit must be positive")


# instance_id -> series_id; a trivial map puts each instance in its own series
SeriesMap = dict


def singleton_series(instance_ids) -> SeriesMap:
    return {iid: f"series-{iid}" for iid in instance_ids}


def series_groups(series: SeriesMap, instance_ids) -> dict[str, list[str]]:
    groups: dict[str, list[str]] = {}
    for iid in instance_ids:
        groups.setdefault(series[iid], []).append(iid)
    return groups


@dataclass
class ScoreBreakdown:
    solution: float = 0.0
    speed: float = 0.0
    series: float = 0.0

    @property
    def total(self) -> float:
        return self.solution + self.speed + self.series

    def __add__(self, other):
        return ScoreBreakdown(
            self.solution + other.solution,
            self.speed + other.speed,
            self.series + other.series,
        )


def speed_factor(time_limit: float, time_used: float) -> float:
    """SF = timeLimit / (1 + timeUsed); discounts small runtime differences."""
    return time_limit / (1.0 + time_used)


def independent_series_share(series: SeriesMap, solvable_counts: dict[str, int],
                             solver_counts: dict[str, int], purse: PurseConfig) -> dict[str, float]:
    """Per-instance series share SeriesP / (N * n) for each series.

    N is the number of the series' instances solved by any component solver
    and n the number of solvers solving at least one of them. The share is
    0 by convention when N or n is 0. A solver solving all N instances
    accumulates exactly SeriesP / n; solving fewer yields strictly less, so
    this is a lower bound on the exact series share.
    """
    shares = {}
    for sid in series_groups(series, list(series)).keys():
        n_inst = solvable_counts.get(sid, 0)
        n_solv = solver_counts.get(sid, 0)
        if n_inst == 0 or n_solv == 0:
            shares[sid] = 0.0
        else:
            shares[sid] = purse.series_purse / (n_inst * n_solv)
    return shares


def _ordered_sum(a: np.ndarray, axis: int) -> np.ndarray:
    """Sums along `axis` term by term in index order, as a Python loop adds;
    numpy's pairwise sum can move the last bits of a score."""
    if a.shape[axis] == 0:
        return np.zeros(a.shape[1 - axis])
    return np.cumsum(a, axis=axis).take(-1, axis=axis)


def _speed_factors(runs: DenseRuns, purse: PurseConfig) -> np.ndarray:
    """Each solving run's speed factor; 0 where the run did not solve."""
    return np.where(runs.solved, speed_factor(purse.time_limit, runs.runtime), 0.0)


def _purse_shares(runs: DenseRuns, purse: PurseConfig):
    """Per-cell purse shares: each instance's solution purse splits equally
    among the solvers solving it, its speed purse in proportion to their
    speed factors. Runs that time out or crash get exactly zero."""
    solved = runs.solved
    sf = _speed_factors(runs, purse)
    with np.errstate(divide="ignore", invalid="ignore"):
        solution = np.where(solved, purse.solution_purse / solved.sum(axis=0), 0.0)
        speed = np.where(solved, purse.speed_purse * sf / _ordered_sum(sf, 0), 0.0)
    return solution, speed


def _series_blocks(runs: DenseRuns, series: SeriesMap) -> dict[str, np.ndarray]:
    """Per series, the solved flags of its instance columns."""
    return {
        sid: runs.solved[:, [runs.instance_index[i] for i in members]]
        for sid, members in series_groups(series, runs.instances).items()
    }


def score_labels(runs: DenseRuns, purse: PurseConfig, series: SeriesMap) -> np.ndarray:
    """Per-instance independent score of each solver against the others, as
    a (solvers, instances) array.

    Solution and speed shares are exact; the series contribution uses the
    independent SeriesP / (N * n) approximation. Unsolved instances score
    zero, so these labels need no censoring machinery.
    """
    if not runs.complete:
        raise MissingReferenceRuns("reference runtimes must cover all (solver, instance) pairs")

    blocks = _series_blocks(runs, series)
    solvable_counts = {sid: int(b.any(axis=0).sum()) for sid, b in blocks.items()}
    solver_counts = {sid: int(b.any(axis=1).sum()) for sid, b in blocks.items()}
    shares = independent_series_share(series, solvable_counts, solver_counts, purse)
    share = np.array([shares[series[iid]] for iid in runs.instances])
    solution, speed = _purse_shares(runs, purse)
    return np.where(runs.solved, solution + speed + share, 0.0)


def competition_score(runs: DenseRuns | RuntimeMatrix, purse: PurseConfig,
                      series: SeriesMap) -> dict[str, ScoreBreakdown]:
    """Exact totals over complete runs (simulated competition); a matrix
    stands for all of its cells. Each series purse splits equally among the
    solvers solving at least one of its instances."""
    if isinstance(runs, RuntimeMatrix):
        runs = runs.dense().block()
    solution, speed = (_ordered_sum(a, 1).tolist() for a in _purse_shares(runs, purse))
    # per solver and series (in series_groups order), whether it won a share
    won = [b.any(axis=1) for b in _series_blocks(runs, series).values()]
    won = np.array(won, dtype=bool).reshape(len(won), len(runs.solvers)).T
    share = np.where(won, purse.series_purse / np.maximum(won.sum(axis=0), 1), 0.0)
    series_totals = _ordered_sum(share, 1).tolist()
    return {
        s: ScoreBreakdown(solution[k], speed[k], series_totals[k])
        for k, s in enumerate(runs.solvers)
    }


class ScoreContext:
    """Precomputed aggregates to score extra (virtual) solvers quickly.

    Scoring a portfolio as if it had entered the competition alongside the
    reference solvers only needs, per instance, how many references solved
    it and their speed-factor mass, and per series the reference winner
    count. virtual_scores() scores many virtual solvers at once in
    O(solvers x instances); each sum runs along the sorted instances and
    adds a series' share at its first solved instance, so the totals do
    not depend on string hashing and equal a one-instance-at-a-time loop
    bit for bit.
    """

    def __init__(self, runs: DenseRuns, purse: PurseConfig, series: SeriesMap):
        self.purse = purse
        # the batched scorer reads columns in the runs' order and works in
        # sorted-instance order
        self._column_ids = runs.instances
        instances = sorted(runs.instances)
        self._order = np.array([runs.instance_index[iid] for iid in instances], dtype=int)
        self._solution = purse.solution_purse / (runs.solved.sum(axis=0)[self._order] + 1)
        self._sf_sum = _ordered_sum(_speed_factors(runs, purse), 0)[self._order]
        # columns grouped by series (sorted within each series), and per
        # grouped column the position where its series' group starts
        group = np.unique([series[iid] for iid in instances], return_inverse=True)[1]
        self._by_series = np.argsort(group, kind="stable")
        grouped = group[self._by_series]
        starts = np.ones(len(grouped), dtype=bool)
        starts[1:] = grouped[1:] != grouped[:-1]
        self._group_start = np.maximum.accumulate(np.where(starts, np.arange(len(grouped)), 0))
        winners = {
            sid: int(b.any(axis=1).sum()) for sid, b in _series_blocks(runs, series).items()
        }
        self._series_share = np.array([
            purse.series_purse / (winners[series[iid]] + 1) for iid in instances
        ])[self._by_series]

    def virtual_scores(self, solved: np.ndarray, runtime: np.ndarray):
        """Solution, speed and series totals of virtual solvers.

        `solved` and `runtime` are (solvers, instances) arrays whose columns
        follow the runs this context was built from; runtimes of unsolved
        cells are ignored. Returns three arrays of one total per solver.
        """
        purse = self.purse
        solved = np.asarray(solved, dtype=bool)[:, self._order]
        runtime = np.asarray(runtime, dtype=float)[:, self._order]
        with np.errstate(divide="ignore", invalid="ignore"):
            sf = speed_factor(purse.time_limit, runtime)
            speed = np.where(solved, purse.speed_purse * sf / (self._sf_sum + sf), 0.0)
        solution = np.where(solved, self._solution, 0.0)

        # a series scores at its first solved instance, the one with no hit
        # of the same series before it in sorted order
        hits = solved[:, self._by_series]
        before = np.cumsum(hits, axis=1) - hits
        shares = np.zeros(solved.shape)
        shares[:, self._by_series] = np.where(
            hits & (before == before[:, self._group_start]), self._series_share, 0.0)
        return _ordered_sum(solution, 1), _ordered_sum(speed, 1), _ordered_sum(shares, 1)

    def virtual_total(self, solved: dict[str, bool], runtime: dict[str, float]) -> ScoreBreakdown:
        """One virtual solver's score, from per-instance solved flags and
        runtimes (read only where solved)."""
        ok = [bool(solved.get(iid, False)) for iid in self._column_ids]
        times = [runtime[iid] if o else 0.0 for iid, o in zip(self._column_ids, ok)]
        solution, speed, series = self.virtual_scores(np.array([ok]), np.array([times]))
        return ScoreBreakdown(float(solution[0]), float(speed[0]), float(series[0]))


def score_report_csv(totals: dict[str, ScoreBreakdown]) -> str:
    lines = ["solver_id,solution,speed,series,total"]
    for s in sorted(totals):
        b = totals[s]
        lines.append(f"{s},{b.solution!r},{b.speed!r},{b.series!r},{b.total!r}")
    return "\n".join(lines) + "\n"


def save_purse_config(path, purse: PurseConfig, series: SeriesMap) -> None:
    doc = {
        "solution_purse": purse.solution_purse,
        "speed_purse": purse.speed_purse,
        "series_purse": purse.series_purse,
        "time_limit": purse.time_limit,
        "series": {},
    }
    for sid, members in series_groups(series, list(series)).items():
        doc["series"][sid] = sorted(members)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)


def load_purse_config(path) -> tuple[PurseConfig, SeriesMap]:
    with open(path) as fh:
        doc = json.load(fh)
    purse = PurseConfig(
        solution_purse=float(doc["solution_purse"]),
        speed_purse=float(doc["speed_purse"]),
        series_purse=float(doc["series_purse"]),
        time_limit=float(doc["time_limit"]),
    )
    series = {}
    for sid, members in doc.get("series", {}).items():
        for iid in members:
            series[iid] = sid
    return purse, series
