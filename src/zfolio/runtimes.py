"""Run records and the solver-by-instance runtime matrix."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property

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
        if self.runtime_seconds < 0:
            raise ValueError("runtime must be nonnegative")

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
    """Records over solvers x instances with a shared cutoff.

    Ingestion enforces the status invariants and the sat/unsat consensus:
    no instance may carry both a sat and an unsat status across solvers.
    Consumers that replay many cells read the arrays of dense() instead of
    calling get() cell by cell.
    """

    def __init__(self, cutoff_seconds: float):
        if cutoff_seconds <= 0:
            raise ValueError("cutoff must be positive")
        self.cutoff_seconds = float(cutoff_seconds)
        self._records: dict[tuple[str, str], RunRecord] = {}
        self._solvers: set[str] = set()
        self._instances: set[str] = set()
        self._sat_label: dict[str, str] = {}
        self._dense: DenseRuns | None = None

    def add(self, record: RunRecord) -> None:
        if record.status == "timeout" and record.runtime_seconds != self.cutoff_seconds:
            raise ValueError("timeout records must carry the cutoff as runtime")
        if record.solved and record.runtime_seconds > self.cutoff_seconds:
            raise ValueError("solved runtime exceeds the cutoff")
        if record.solved:
            known = self._sat_label.get(record.instance_id)
            if known is not None and known != record.status:
                raise DataConsistencyError(
                    f"instance {record.instance_id!r} labeled both {known} and {record.status}"
                )
            self._sat_label[record.instance_id] = record.status
        self._records[(record.solver_id, record.instance_id)] = record
        self._solvers.add(record.solver_id)
        self._instances.add(record.instance_id)
        self._dense = None

    def dense(self) -> DenseRuns:
        """Every cell as arrays over the sorted solvers and instances, built
        on the first call after a change."""
        if self._dense is None:
            shape = (len(self._solvers), len(self._instances))
            view = DenseRuns(self.solvers, self.instances, np.full(shape, np.nan),
                             np.full(shape, MISSING, dtype=np.int8))
            for (s, i), rec in self._records.items():
                cell = view.solver_index[s], view.instance_index[i]
                view.runtime[cell] = rec.runtime_seconds
                view.status[cell] = STATUS_CODES[rec.status]
            view.runtime.flags.writeable = view.status.flags.writeable = False
            self._dense = view
        return self._dense

    @property
    def solvers(self) -> list[str]:
        return sorted(self._solvers)

    @property
    def instances(self) -> list[str]:
        return sorted(self._instances)

    def get(self, solver_id: str, instance_id: str) -> RunRecord:
        return self._records[(solver_id, instance_id)]

    def has(self, solver_id: str, instance_id: str) -> bool:
        return (solver_id, instance_id) in self._records

    def solved(self, solver_id: str, instance_id: str) -> bool:
        return self.get(solver_id, instance_id).solved

    def sat_label(self, instance_id: str) -> str | None:
        """Consensus satisfiability ('sat'/'unsat') or None if never solved."""
        return self._sat_label.get(instance_id)

    def is_complete(self) -> bool:
        return len(self._records) == len(self._solvers) * len(self._instances)

    def restrict(self, instances=None, solvers=None) -> "RuntimeMatrix":
        instances = set(self._instances if instances is None else instances)
        solvers = set(self._solvers if solvers is None else solvers)
        out = RuntimeMatrix(self.cutoff_seconds)
        for (s, i), rec in self._records.items():
            if s in solvers and i in instances:
                out.add(rec)
        return out

    def __len__(self) -> int:
        return len(self._records)


CSV_HEADER = ("instance_id", "solver_id", "runtime", "status")


def save_runtime_csv(path, matrix: RuntimeMatrix) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for iid in matrix.instances:
            for sid in matrix.solvers:
                if matrix.has(sid, iid):
                    rec = matrix.get(sid, iid)
                    writer.writerow([iid, sid, repr(rec.runtime_seconds), rec.status])


def load_runtime_csv(path, cutoff_seconds: float) -> RuntimeMatrix:
    matrix = RuntimeMatrix(cutoff_seconds)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != CSV_HEADER:
            raise ValueError("unexpected runtime CSV header")
        for iid, sid, runtime, status in reader:
            matrix.add(RunRecord(sid, iid, float(runtime), status))
    return matrix
