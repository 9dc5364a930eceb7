"""Run records and the solver-by-instance runtime matrix."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from itertools import compress

import numpy as np

STATUSES = ("sat", "unsat", "timeout", "crash")
SOLVED_STATUSES = ("sat", "unsat")
STATUS_CODES = {status: code for code, status in enumerate(STATUSES)}
MISSING = -1  # status code of a (solver, instance) cell without a record


class DataConsistencyError(ValueError):
    """Contradictory sat/unsat statuses for the same instance."""


@dataclass(frozen=True)
class SolverDescriptor:
    """A component solver: complete or local_search, optionally with an
    external command template containing an {instance} placeholder."""

    id: str
    kind: str = "complete"
    command: str | None = None

    def __post_init__(self):
        if self.kind not in ("complete", "local_search"):
            raise ValueError(f"unknown solver kind {self.kind!r}")


@dataclass(frozen=True)
class RunRecord:
    """One (solver, instance) run. Timeouts sit exactly at the cutoff and
    are censored (the true runtime is only known to exceed it); no other
    run is censored."""

    solver_id: str
    instance_id: str
    runtime_seconds: float
    status: str

    def __post_init__(self):
        if self.status not in STATUSES:
            raise ValueError(f"unknown status {self.status!r}")
        if not 0 <= self.runtime_seconds < float("inf"):
            raise ValueError(f"runtime must be finite and nonnegative: {self.runtime_seconds!r}")

    @property
    def solved(self) -> bool:
        return self.status in SOLVED_STATUSES

    @property
    def censored(self) -> bool:
        return self.status == "timeout"


class DenseRuns:
    """Runs as arrays: one row per solver, one column per instance.

    `runtime` is float64 (NaN where a cell has no record); `status` is int8,
    the index of the run's status in STATUSES or MISSING.
    """

    def __init__(self, solvers, instances, runtime: np.ndarray, status: np.ndarray):
        self.solvers = list(solvers)
        self.instances = list(instances)
        self.solver_index = {sid: k for k, sid in enumerate(self.solvers)}
        self.instance_index = {iid: k for k, iid in enumerate(self.instances)}
        self.runtime = runtime
        self.status = status

    @cached_property
    def complete(self) -> bool:
        return not (self.status == MISSING).any()

    @cached_property
    def solved(self) -> np.ndarray:
        return (self.status == STATUS_CODES["sat"]) | (self.status == STATUS_CODES["unsat"])

    def block(self, solver_ids=None, instance_ids=None) -> "DenseRuns":
        """The cells of these solvers and instances (all by default), in the
        order given. Raises KeyError for an unknown id or a cell without a
        record, as RuntimeMatrix.get does."""
        if solver_ids is None and instance_ids is None and self.complete:
            return self
        solvers = self.solvers if solver_ids is None else list(solver_ids)
        instances = self.instances if instance_ids is None else list(instance_ids)
        cells = np.ix_([self.solver_index[s] for s in solvers],
                       [self.instance_index[i] for i in instances])
        status = self.status[cells]
        if (status == MISSING).any():
            row, col = np.argwhere(status == MISSING)[0]
            raise KeyError((solvers[row], instances[col]))
        return DenseRuns(solvers, instances, self.runtime[cells], status)


class RuntimeMatrix:
    """Runs over solvers x instances with a shared cutoff, stored as one
    DenseRuns over the sorted solvers and instances.

    Ingestion enforces the status invariants, one run per cell and the
    sat/unsat consensus: no instance may carry both a sat and an unsat
    status across solvers. Consumers that replay many cells read dense().
    """

    def __init__(self, cutoff_seconds: float):
        if cutoff_seconds <= 0:
            raise ValueError("cutoff must be positive")
        self.cutoff_seconds = float(cutoff_seconds)
        self._runs = DenseRuns([], [], np.empty((0, 0)), np.empty((0, 0), dtype=np.int8))

    def add(self, *records: RunRecord) -> None:
        """Writes these runs, all or none. Each must keep the status
        invariants, fill an empty cell and agree with its instance's label."""
        runs, cells, labels = self._runs, {}, {}
        for rec in records:
            sid, iid = rec.solver_id, rec.instance_id
            if rec.status == "timeout" and rec.runtime_seconds != self.cutoff_seconds:
                raise ValueError("timeout records must carry the cutoff as runtime")
            if rec.solved and rec.runtime_seconds > self.cutoff_seconds:
                raise ValueError("solved runtime exceeds the cutoff")
            cell = runs.solver_index.get(sid, -1), runs.instance_index.get(iid, -1)
            if (sid, iid) in cells or (min(cell) >= 0 and runs.status.item(cell) != MISSING):
                raise ValueError(f"solver {sid!r} already has a run on instance {iid!r}")
            cells[sid, iid] = rec
            if rec.solved:
                known = labels.setdefault(iid, self.sat_label(iid) or rec.status)
                if known != rec.status:
                    raise DataConsistencyError(
                        f"instance {iid!r} labeled both {known} and {rec.status}")
        new_solvers = {s for s, _ in cells} - runs.solver_index.keys()
        new_instances = {i for _, i in cells} - runs.instance_index.keys()
        # new ids grow the arrays; arrays that dense() handed out stay unchanged
        if new_solvers or new_instances or not runs.runtime.flags.writeable:
            solvers = sorted(new_solvers.union(runs.solvers))
            instances = sorted(new_instances.union(runs.instances))
            old = np.ix_(np.isin(solvers, runs.solvers), np.isin(instances, runs.instances))
            runtime = np.full((len(solvers), len(instances)), np.nan)
            status = np.full(runtime.shape, MISSING, dtype=np.int8)
            runtime[old], status[old] = runs.runtime, runs.status
            self._runs = runs = DenseRuns(solvers, instances, runtime, status)
        rows = [runs.solver_index[s] for s, _ in cells]
        cols = [runs.instance_index[i] for _, i in cells]
        runs.runtime[rows, cols] = [rec.runtime_seconds for rec in cells.values()]
        runs.status[rows, cols] = [STATUS_CODES[rec.status] for rec in cells.values()]

    def dense(self) -> DenseRuns:
        """Every cell, as read-only arrays."""
        self._runs.runtime.flags.writeable = self._runs.status.flags.writeable = False
        return self._runs

    @property
    def solvers(self) -> list[str]:
        return list(self._runs.solvers)

    @property
    def instances(self) -> list[str]:
        return list(self._runs.instances)

    def get(self, solver_id: str, instance_id: str) -> RunRecord:
        """The run of one cell; KeyError for an unknown id or an empty cell."""
        runs = self._runs
        cell = runs.solver_index[solver_id], runs.instance_index[instance_id]
        code = runs.status.item(cell)
        if code == MISSING:
            raise KeyError((solver_id, instance_id))
        rec = object.__new__(RunRecord)  # validated on add: __post_init__ would double get's cost
        rec.__dict__.update(solver_id=solver_id, instance_id=instance_id,
                            runtime_seconds=runs.runtime.item(cell), status=STATUSES[code])
        return rec

    def solved(self, solver_id: str, instance_id: str) -> bool:
        return self.get(solver_id, instance_id).solved

    def sat_label(self, instance_id: str) -> str | None:
        """Consensus satisfiability ('sat'/'unsat') or None if never solved."""
        j = self._runs.instance_index.get(instance_id)
        codes = set() if j is None else set(self._runs.status[:, j].tolist())
        return next((s for s in SOLVED_STATUSES if STATUS_CODES[s] in codes), None)

    def restrict(self, instances=None) -> "RuntimeMatrix":
        """The runs of these instances (all by default) as a new matrix;
        unknown ids are ignored, and ids left without a run dropped."""
        runs, out = self._runs, RuntimeMatrix(self.cutoff_seconds)
        keep = runs.status != MISSING
        if instances is not None:
            keep &= np.isin(runs.instances, list(instances))
        rows, cols = keep.any(axis=1), keep.any(axis=0)
        block = np.ix_(rows, cols)
        out._runs = DenseRuns(compress(runs.solvers, rows), compress(runs.instances, cols),
                              runs.runtime[block], runs.status[block])
        return out

    def __len__(self) -> int:
        return int(np.count_nonzero(self._runs.status != MISSING))


CSV_HEADER = ("instance_id", "solver_id", "runtime", "status")


def save_runtime_csv(path, matrix: RuntimeMatrix) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        runs = matrix.dense()
        for j, k in np.argwhere(runs.status.T != MISSING).tolist():
            writer.writerow([runs.instances[j], runs.solvers[k],
                             repr(runs.runtime.item(k, j)), STATUSES[runs.status.item(k, j)]])


def csv_number(field: str, text: str) -> float:
    """A CSV cell as a float, or a ValueError that names its field."""
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{field} {text!r} is not a number") from None


def load_runtime_csv(path, cutoff_seconds: float) -> RuntimeMatrix:
    """A malformed row raises a ValueError naming the file, the line and
    the bad field."""
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if tuple(next(reader)) != CSV_HEADER:
            raise ValueError("unexpected runtime CSV header")
        for row in reader:
            try:
                if len(row) != len(CSV_HEADER):
                    raise ValueError(f"expected {len(CSV_HEADER)} fields, got {len(row)}")
                iid, sid, runtime, status = row
                records.append(RunRecord(sid, iid, csv_number("runtime", runtime), status))
            except ValueError as exc:
                raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
    matrix = RuntimeMatrix(cutoff_seconds)
    matrix.add(*records)
    return matrix
