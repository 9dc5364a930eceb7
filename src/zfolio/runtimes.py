"""Run records, the solver-by-instance runtime matrix, and one UTF-8 writer
and reader per file format (CSV, JSON); the readers name each fault's line."""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from numbers import Integral
from pathlib import Path

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


def solver_descriptors(doc) -> list[SolverDescriptor]:
    """The solvers of a JSON list of objects as asdict writes them, each id
    once."""
    return check_solver_ids([SolverDescriptor(d["id"], d.get("kind", "complete"), d.get("command"))
                             for d in doc])


def check_solver_ids(descriptors: list[SolverDescriptor]) -> list[SolverDescriptor]:
    """`descriptors`, after refusing a solver id that they repeat."""
    ids = set()
    for d in descriptors:
        if d.id in ids:
            raise ValueError(f"solver id {d.id!r} is repeated")
        ids.add(d.id)
    return descriptors


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
        if not (math.isfinite(cutoff_seconds) and cutoff_seconds > 0):
            raise ValueError(f"cutoff must be finite and positive, got {cutoff_seconds!r}")
        self.cutoff_seconds = float(cutoff_seconds)
        self._runs = DenseRuns([], [], np.empty((0, 0)), np.empty((0, 0), dtype=np.int8))

    def add(self, *records: RunRecord) -> None:
        """Writes these runs, all or none. Each must keep the status
        invariants, fill an empty cell and agree with its instance's label."""
        runs, cells, labels = self._runs, {}, {}
        for rec in map(self.check, records):
            sid, iid = rec.solver_id, rec.instance_id
            cell = runs.solver_index.get(sid, -1), runs.instance_index.get(iid, -1)
            if (sid, iid) in cells or (min(cell) >= 0 and runs.status.item(cell) != MISSING):
                raise ValueError(f"solver {sid!r} already has a run on instance {iid!r}")
            cells[sid, iid] = rec
            if rec.solved:
                known = labels.setdefault(iid, self.sat_label(iid) or rec.status)
                if known != rec.status:
                    raise DataConsistencyError(
                        f"solver {sid!r} on instance {iid!r}: {rec.status}, where another "
                        f"solver found {known}")
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

    def check(self, rec: RunRecord) -> RunRecord:
        """`rec`, if its runtime agrees with the cutoff; otherwise a ValueError
        that names its solver and instance."""
        cutoff, runtime = self.cutoff_seconds, rec.runtime_seconds
        if rec.status == "timeout" and runtime != cutoff:
            fault = f"a timeout must carry the cutoff {cutoff!r} as runtime, not {runtime!r}"
        elif rec.solved and runtime > cutoff:
            fault = f"solved runtime {runtime!r} exceeds the cutoff {cutoff!r}"
        else:
            return rec
        raise ValueError(f"solver {rec.solver_id!r} on instance {rec.instance_id!r}: {fault}")

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
    runs = matrix.dense()
    write_utf8(path, csv_text(CSV_HEADER, (
        [runs.instances[j], runs.solvers[k], repr(runs.runtime.item(k, j)),
         STATUSES[runs.status.item(k, j)]]
        for j, k in np.argwhere(runs.status.T != MISSING).tolist())))


def parse_number(field: str, value) -> float:
    """A CSV cell or JSON value as a float, or a ValueError naming its field."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{field} {value!r} is not a number") from None


def integer(field: str, value) -> int:
    """A JSON value or setting that is an integer, not a bool, or a ValueError
    naming its field."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{field} {value!r} is not an integer")
    return value


def located(path, fault, line=None) -> ValueError:
    """An input fault as a ValueError naming the file, and the line if known."""
    return ValueError(f"{path}, line {line}: {fault}" if line else f"{path}: {fault}")


def read_csv_table(path, columns, convert, key_width=1) -> dict:
    """{key: convert(*cells)} over the rows of a UTF-8 CSV table, in file order.

    `cells` are a row's cells under `columns`, found by name in the header;
    `key` is the first cell, the tuple of the first `key_width`, or with
    `key_width=0` the row's line, so that no cell is a key. Blank rows are
    skipped. No header row, a missing or repeated column, a row whose width
    differs from the header's, a second row for a key, a byte that is not
    UTF-8, a row that `csv` cannot read and a ValueError from `convert` raise
    a ValueError that names the file and the line."""
    reader = csv.reader(io.StringIO(read_utf8(path), newline=""))
    try:
        header = next((row for row in reader if row), None)
        if header is None:
            raise located(path, "no header row")
        for name in columns:
            if header.count(name) != 1:
                fault = "a repeated" if name in header else "no"
                raise located(path, f"{fault} {name!r} column")
        index = [header.index(name) for name in columns]
        table = {}
        for row in filter(None, reader):
            try:
                if len(row) != len(header):
                    raise ValueError(f"expected {len(header)} fields, got {len(row)}")
                cells = [row[i] for i in index]
                key = (tuple(cells[:key_width]) if key_width > 1 else
                       cells[0] if key_width else reader.line_num)
                if key in table:
                    raise ValueError("a second row for " + " and ".join(
                        f"{name.removesuffix('_id')} {cell!r}"
                        for name, cell in zip(columns, cells[:key_width])))
                table[key] = convert(*cells)
            except ValueError as exc:
                raise located(path, exc, reader.line_num) from None
    except csv.Error as exc:
        raise located(path, exc, reader.line_num) from None
    return table


def read_utf8(path) -> str:
    """The text of a UTF-8 file, line endings as written. Its first byte that
    is not UTF-8 raises a ValueError that names the file and the byte's line."""
    data = Path(path).read_bytes()
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        raise located(path, f"byte {data[exc.start]:#04x} is not UTF-8",
                      data.count(b"\n", 0, exc.start) + 1) from None


def write_utf8(path, text: str) -> None:
    """Write `text` to a file as UTF-8, line endings as given."""
    Path(path).write_text(text, encoding="utf-8", newline="")


def csv_text(header, rows) -> str:
    """A table in the csv module's default dialect, each row ending in \\r\\n."""
    out = io.StringIO()
    csv.writer(out).writerows([header, *rows])
    return out.getvalue()


def save_json(path, doc) -> None:
    """Write a JSON document, indented one space a level."""
    write_utf8(path, json.dumps(doc, indent=1))


def load_json(path, convert):
    """convert(the JSON document in a UTF-8 file). A byte that is not UTF-8,
    invalid JSON, and a field that `convert` finds missing (KeyError) or malformed
    (TypeError, ValueError), raise a ValueError that names the file and the fault."""
    text = read_utf8(path)
    try:
        return convert(json.loads(text))
    except KeyError as exc:
        raise located(path, f"no {exc.args[0]!r} field") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise located(path, exc) from None


def load_runtime_csv(path, cutoff_seconds: float) -> RuntimeMatrix:
    """The runs of a CSV table, read by read_csv_table, a row per cell. A row
    that disagrees with the cutoff is named by its line, and two rows that
    label an instance both sat and unsat by the file."""
    matrix = RuntimeMatrix(cutoff_seconds)
    records = read_csv_table(path, CSV_HEADER, lambda iid, sid, runtime, status: matrix.check(
        RunRecord(sid, iid, parse_number("runtime", runtime), status)), key_width=2)
    try:
        matrix.add(*records.values())
    except DataConsistencyError as exc:
        raise DataConsistencyError(f"{path}: {exc}") from None
    return matrix
