"""RuntimeMatrix against a dict-of-records reference.

`RecordMatrix` is the matrix as it was before its arrays became the only
store: a dict of validated RunRecords, rebuilt into a DenseRuns view cell by
cell. Random record streams, in random order, with missing cells and with
invalid records, go into both; every public result must agree, the arrays
of dense() bit for bit.
"""

import random

import numpy as np
import pytest

from zfolio.runtimes import (
    MISSING,
    STATUS_CODES,
    DataConsistencyError,
    DenseRuns,
    RunRecord,
    RuntimeMatrix,
    save_runtime_csv,
)

CUTOFF = 20.0


class RecordMatrix:
    """The reference store: one validated RunRecord per filled cell."""

    def __init__(self, cutoff_seconds):
        self.cutoff_seconds = float(cutoff_seconds)
        self._records = {}
        self._sat_label = {}

    def add(self, record):
        cell = f"solver {record.solver_id!r} on instance {record.instance_id!r}"
        cutoff, runtime = self.cutoff_seconds, record.runtime_seconds
        if record.status == "timeout" and runtime != cutoff:
            raise ValueError(f"{cell}: a timeout must carry the cutoff {cutoff!r} as runtime, "
                             f"not {runtime!r}")
        if record.solved and runtime > cutoff:
            raise ValueError(f"{cell}: solved runtime {runtime!r} exceeds the cutoff {cutoff!r}")
        if record.solved:
            known = self._sat_label.get(record.instance_id)
            if known is not None and known != record.status:
                raise DataConsistencyError(
                    f"{cell}: {record.status}, where another solver found {known}")
            self._sat_label[record.instance_id] = record.status
        self._records[(record.solver_id, record.instance_id)] = record

    @property
    def solvers(self):
        return sorted({s for s, _ in self._records})

    @property
    def instances(self):
        return sorted({i for _, i in self._records})

    def dense(self):
        shape = (len(self.solvers), len(self.instances))
        view = DenseRuns(self.solvers, self.instances, np.full(shape, np.nan),
                         np.full(shape, MISSING, dtype=np.int8))
        for (s, i), rec in self._records.items():
            cell = view.solver_index[s], view.instance_index[i]
            view.runtime[cell] = rec.runtime_seconds
            view.status[cell] = STATUS_CODES[rec.status]
        return view

    def get(self, solver_id, instance_id):
        return self._records[(solver_id, instance_id)]

    def solved(self, solver_id, instance_id):
        return self.get(solver_id, instance_id).solved

    def sat_label(self, instance_id):
        return self._sat_label.get(instance_id)

    def restrict(self, instances=None):
        instances = set(self.instances if instances is None else instances)
        out = RecordMatrix(self.cutoff_seconds)
        for (s, i), rec in self._records.items():
            if i in instances:
                out.add(rec)
        return out

    def __len__(self):
        return len(self._records)

    def csv_bytes(self):
        lines = ["instance_id,solver_id,runtime,status"]
        for iid in self.instances:
            for sid in self.solvers:
                if (sid, iid) in self._records:
                    rec = self._records[(sid, iid)]
                    lines.append(f"{iid},{sid},{rec.runtime_seconds!r},{rec.status}")
        return "".join(line + "\r\n" for line in lines).encode()


def csv_bytes(matrix, tmp_path):
    path = tmp_path / "runs.csv"
    save_runtime_csv(path, matrix)
    return path.read_bytes()


def outcome(call):
    """What a call returns, or the type and message of what it raises (the
    type alone for a KeyError, whose key may be an id or a cell)."""
    try:
        return call()
    except KeyError:
        return KeyError
    except ValueError as err:
        return type(err), str(err)


def assert_same(got, want, tmp_path):
    assert got.solvers == want.solvers and got.instances == want.instances
    assert got.cutoff_seconds == want.cutoff_seconds and len(got) == len(want)
    view, ref = got.dense(), want.dense()
    assert view.solvers == ref.solvers and view.instances == ref.instances
    assert view.solver_index == ref.solver_index and view.instance_index == ref.instance_index
    assert view.runtime.dtype == ref.runtime.dtype and view.status.dtype == ref.status.dtype
    assert view.runtime.tobytes() == ref.runtime.tobytes()
    assert view.status.tobytes() == ref.status.tobytes()
    assert not view.runtime.flags.writeable and not view.status.flags.writeable
    solvers, instances = want.solvers + ["nobody"], want.instances + ["nowhere"]
    for s in solvers:
        for i in instances:
            assert outcome(lambda: got.get(s, i)) == outcome(lambda: want.get(s, i))
            assert outcome(lambda: got.solved(s, i)) == outcome(lambda: want.solved(s, i))
    for i in instances:
        assert got.sat_label(i) == want.sat_label(i)
    assert csv_bytes(got, tmp_path) == want.csv_bytes()


def random_stream(rng):
    """Records over up to 6 solvers and 12 instances, some cells left out,
    in random order, with a consistent sat/unsat truth per instance."""
    solvers = [f"s{k}" for k in rng.sample(range(10), rng.randint(1, 6))]
    instances = [f"i{k}" for k in rng.sample(range(30), rng.randint(1, 12))]
    fill = rng.uniform(0.3, 1.0)
    stream = []
    for iid in instances:
        truth = rng.choice(("sat", "unsat"))
        for sid in solvers:
            if rng.random() < fill:
                stream.append(random_record(rng, sid, iid, truth))
    rng.shuffle(stream)
    return stream


def random_record(rng, sid, iid, truth):
    roll = rng.random()
    if roll < 0.5:
        return RunRecord(sid, iid, rng.choice((0.0, CUTOFF, rng.uniform(0, CUTOFF))), truth)
    if roll < 0.8:
        return RunRecord(sid, iid, CUTOFF, "timeout")
    return RunRecord(sid, iid, rng.uniform(0, 3 * CUTOFF), "crash")


def invalid_record(rng, ref):
    """A record that the reference refuses, with the error it raises."""
    sid, iid = rng.choice(ref.solvers + ["s-new"]), rng.choice(ref.instances + ["i-new"])
    labelled = [i for i in ref.instances if ref.sat_label(i)]
    kind = rng.randrange(3 if labelled else 2)
    if kind == 0:
        return RunRecord(sid, iid, rng.uniform(0, CUTOFF - 1), "timeout")
    if kind == 1:
        return RunRecord(sid, iid, CUTOFF + rng.uniform(0.001, 5), rng.choice(("sat", "unsat")))
    iid = rng.choice(labelled)
    other = {"sat": "unsat", "unsat": "sat"}[ref.sat_label(iid)]
    return RunRecord("s-new", iid, rng.uniform(0, CUTOFF), other)


def chunks(rng, stream):
    start = 0
    while start < len(stream):
        size = rng.randint(1, 8)
        yield stream[start:start + size]
        start += size


def build(rng, stream, tmp_path):
    """Both stores from one stream: the reference one record at a time, the
    matrix in random chunks, with dense() taken between some of them."""
    got, want = RuntimeMatrix(CUTOFF), RecordMatrix(CUTOFF)
    for chunk in chunks(rng, stream):
        got.add(*chunk)
        for rec in chunk:
            want.add(rec)
        if rng.random() < 0.3:
            assert_same(got, want, tmp_path)
    return got, want


def test_random_streams_match_the_reference(tmp_path):
    rng = random.Random(0)
    for _ in range(60):
        got, want = build(rng, random_stream(rng), tmp_path)
        assert_same(got, want, tmp_path)


def test_invalid_records_raise_what_the_reference_raises(tmp_path):
    rng = random.Random(1)
    for _ in range(60):
        got, want = build(rng, random_stream(rng), tmp_path)
        bad = invalid_record(rng, want)
        expected = outcome(lambda: want.add(bad))
        assert isinstance(expected, tuple) and issubclass(expected[0], ValueError)
        assert outcome(lambda: got.add(bad)) == expected
        # a call with one bad record writes none of its records
        fresh = [RunRecord(f"t{k}", rng.choice(want.instances), CUTOFF, "timeout")
                 for k in range(rng.randint(0, 3))]
        batch = fresh + [bad]
        rng.shuffle(batch)
        assert outcome(lambda: got.add(*batch)) == expected
        assert_same(got, want, tmp_path)


@pytest.mark.parametrize("record, fault", [
    (RunRecord("a", "i", 5.0, "timeout"),
     "a timeout must carry the cutoff 20.0 as runtime, not 5.0"),
    (RunRecord("a", "i", 21.0, "sat"), "solved runtime 21.0 exceeds the cutoff 20.0"),
], ids=["timeout", "solved"])
def test_a_run_off_the_cutoff_names_its_cell(record, fault):
    with pytest.raises(ValueError) as exc:
        RuntimeMatrix(CUTOFF).add(record)
    assert str(exc.value) == f"solver 'a' on instance 'i': {fault}"


def test_consensus_and_duplicates_within_one_call():
    m = RuntimeMatrix(CUTOFF)
    with pytest.raises(DataConsistencyError,
                       match="^solver 'b' on instance 'i': unsat, where another solver found sat$"):
        m.add(RunRecord("a", "i", 1.0, "sat"), RunRecord("b", "i", 2.0, "unsat"))
    with pytest.raises(ValueError, match="'a' already has a run on instance 'i'"):
        m.add(RunRecord("a", "i", 1.0, "sat"), RunRecord("a", "i", 1.0, "sat"))
    assert len(m) == 0 and m.solvers == [] and m.instances == []
    m.add(RunRecord("a", "i", 1.0, "sat"), RunRecord("b", "i", CUTOFF, "timeout"))
    with pytest.raises(DataConsistencyError,
                       match="^solver 'c' on instance 'i': unsat, where another solver found sat$"):
        m.add(RunRecord("c", "i", 2.0, "unsat"))
    assert m.sat_label("i") == "sat" and len(m) == 2


def test_restrict_matches_the_reference(tmp_path):
    rng = random.Random(2)
    for _ in range(60):
        got, want = build(rng, random_stream(rng), tmp_path)
        for _ in range(4):
            instances = None
            if rng.random() < 0.8:
                instances = rng.sample(want.instances, rng.randint(0, len(want.instances)))
                instances += ["unknown"] * rng.randint(0, 1)
            assert_same(got.restrict(instances), want.restrict(instances), tmp_path)
        assert_same(got, want, tmp_path)


def test_restrict_drops_ids_that_lose_every_run(tmp_path):
    got, want = RuntimeMatrix(CUTOFF), RecordMatrix(CUTOFF)
    records = [RunRecord("a", "i0", 1.0, "sat"), RunRecord("a", "i1", 2.0, "sat"),
               RunRecord("b", "i1", CUTOFF, "timeout"), RunRecord("c", "i2", 3.0, "unsat")]
    got.add(*records)
    for rec in records:
        want.add(rec)
    for instances in (["i0", "i1"], ["i0", "i2"], ["i2"], [], None, ["i1", "x"]):
        assert_same(got.restrict(instances), want.restrict(instances), tmp_path)
    assert got.restrict(["i0", "x"]).solvers == ["a"]
    assert got.restrict(["i0", "x"]).instances == ["i0"]


def test_an_add_to_a_restricted_copy_leaves_the_source(tmp_path):
    rng = random.Random(3)
    for _ in range(40):
        got, want = build(rng, random_stream(rng), tmp_path)
        copy = got.restrict()
        before = csv_bytes(copy, tmp_path)
        view = got.dense()
        missing = [(s, i) for s in want.solvers for i in want.instances
                   if (s, i) not in want._records]
        # a fresh row, and an empty cell inside the copy's own rows and columns
        copy.add(*(RunRecord("virtual", i, CUTOFF, "timeout") for i in want.instances))
        if missing:
            copy.add(RunRecord(*rng.choice(missing), CUTOFF, "timeout"))
        assert csv_bytes(copy, tmp_path) != before
        assert got.dense() is view
        assert_same(got, want, tmp_path)


def test_an_add_after_dense_leaves_the_earlier_view(tmp_path):
    rng = random.Random(4)
    for _ in range(40):
        got, want = build(rng, random_stream(rng), tmp_path)
        view = got.dense()
        runtime, status = view.runtime.copy(), view.status.copy()
        solvers, instances = list(view.solvers), list(view.instances)
        missing = [(s, i) for s in want.solvers for i in want.instances
                   if (s, i) not in want._records]
        # an empty cell filled in place, or a new instance that grows the arrays
        if missing and rng.random() < 0.7:
            s, i = rng.choice(missing)
            rec = RunRecord(s, i, CUTOFF, "timeout")
        else:
            rec = RunRecord(rng.choice(want.solvers), "i-late", 1.0, "sat")
        got.add(rec)
        want.add(rec)
        assert view.solvers == solvers and view.instances == instances
        assert view.runtime.tobytes() == runtime.tobytes()
        assert view.status.tobytes() == status.tobytes()
        assert got.dense() is not view
        assert_same(got, want, tmp_path)
