"""DIMACS CNF parsing, validation and serialization.

Formulas are kept exactly as written: duplicate literals and tautological
clauses are preserved, because instance features must reflect the input as
given, not a simplified form. A `CnfFormula` is one flat clause arena, as in
MiniSat, checked once for every feature layer; `parse_dimacs` fills it a
bounded chunk of lines at a time, with one numpy conversion per chunk.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from pathlib import Path

import numpy as np

from .runtimes import integer, read_utf8

CHUNK_CHARS = 1 << 20  # the text is parsed about this many characters at a time


class DimacsError(ValueError):
    """Base class for malformed DIMACS input."""


class MissingHeader(DimacsError):
    pass


class HeaderMismatch(DimacsError):
    pass


class LiteralOutOfRange(DimacsError):
    pass


class EmptyClause(DimacsError):
    pass


class MalformedToken(DimacsError):
    pass


def split_flat(flat: list, counts) -> list[list]:
    """`flat` cut into consecutive lists of the given lengths."""
    ends = np.cumsum(counts).tolist()
    return [flat[start:end] for start, end in zip([0] + ends[:-1], ends)]


class CnfFormula:
    """A propositional formula in conjunctive normal form.

    `CnfFormula(num_vars, clauses)` takes an ordered list of clauses, each
    an ordered list of nonzero signed integers; positive k is the positive
    literal of variable k. It keeps them only as a flat arena:
    `literals`, every literal occurrence in clause order (int64), and
    `clause_lengths`. Equality compares `num_vars` and the arena;
    `source_id` is an opaque instance identifier and does not take part in it.
    A `num_vars` or literal that is not an int (a float or a bool) raises.
    """

    def __init__(self, num_vars: int, clauses: list[list[int]], source_id: str = ""):
        integer("num_vars", num_vars)
        literals = list(chain.from_iterable(clauses))
        for kind in dict.fromkeys(map(type, literals)):  # one check per type, in order
            integer("literal", next(lit for lit in literals if type(lit) is kind))
        self._fill(num_vars, _integers(literals),
                   np.fromiter(map(len, clauses), np.int64, len(clauses)), source_id)

    def _fill(self, num_vars, literals, clause_lengths, source_id) -> None:
        """Keep the arena once it is checked: the first empty clause or
        literal out of range, in clause order, raises."""
        if num_vars < 1:
            raise ValueError(f"num_vars must be positive, got {num_vars}")
        bad = np.flatnonzero((literals == 0) | (literals > num_vars) | (literals < -num_vars))[:1]
        empty = np.flatnonzero(clause_lengths == 0)[:1]
        bad_clause = np.searchsorted(np.cumsum(clause_lengths), bad, side="right")
        if empty.size and not (bad.size and bad_clause[0] < empty[0]):
            raise EmptyClause(f"clause {empty[0] + 1} is empty")
        if bad.size:
            raise LiteralOutOfRange(
                f"literal {literals[bad[0]]} in clause {bad_clause[0] + 1}, num_vars={num_vars}")
        self.num_vars = num_vars
        self.literals = np.asarray(literals, dtype=np.int64)
        self.clause_lengths = clause_lengths
        self.source_id = source_id

    @property
    def num_clauses(self) -> int:
        return len(self.clause_lengths)

    @property
    def clauses(self) -> list[list[int]]:
        """The clauses as new lists, rebuilt from the arena on each access at
        a cost linear in the literals: a caller that reads them twice keeps them."""
        return split_flat(self.literals.tolist(), self.clause_lengths)

    @cached_property
    def literal_clause(self) -> np.ndarray:
        """Each literal occurrence's clause index, built on first use and kept."""
        return np.repeat(np.arange(self.num_clauses), self.clause_lengths)

    @cached_property
    def occurrences(self) -> tuple[list[list[int]], list[list[int]]]:
        """Per variable, the indices of the clauses it occurs in positively
        and negatively, in clause order; a duplicated literal lists its
        clause once per occurrence. Built on first use and kept."""
        key = 2 * np.abs(self.literals) + (self.literals < 0)
        order = np.argsort(key, kind="stable")
        lists = split_flat(self.literal_clause[order].tolist(),
                           np.bincount(key, minlength=2 * self.num_vars + 2))
        return lists[0::2], lists[1::2]

    def __eq__(self, other):
        if not isinstance(other, CnfFormula):
            return NotImplemented
        return (self.num_vars == other.num_vars
                and np.array_equal(self.clause_lengths, other.clause_lengths)
                and np.array_equal(self.literals, other.literals))

    def __repr__(self) -> str:
        return (f"CnfFormula(num_vars={self.num_vars!r}, clauses={self.clauses!r}, "
                f"source_id={self.source_id!r})")


def _integers(items: list) -> np.ndarray:
    """Integers or integer tokens as int64, in one conversion; after that
    fails, one by one: a token that is not an integer raises, and integers
    beyond int64 stay Python ints, for the arena's check to name."""
    try:
        return np.array(items, dtype=np.int64)
    except (ValueError, OverflowError):
        pass
    values = []
    for tok in items:
        try:
            values.append(int(tok))
        except ValueError:
            raise MalformedToken(f"non-integer token {tok!r}") from None
    return np.array(values, dtype=object)


def parse_dimacs(text: str, source_id: str = "") -> CnfFormula:
    """Parse DIMACS CNF text into a CnfFormula.

    Comment lines ("c ..."), blank lines and \\r line endings are ignored.
    Clauses may span multiple lines; literals accumulate until a 0.
    Everything after a lone "%" line is ignored (a known competition file
    convention). A bad problem line or token, an unterminated clause or a
    wrong clause count raises here; an empty clause or a literal out of
    range, from the arena's check. No partial formula escapes.

    The text is read in chunks of whole lines; the clause lines of a chunk
    are converted to int64 at once and split at their zeros.
    """
    num_vars = declared_clauses = None
    chunks, pos = [np.zeros(0, np.int64)], 0
    while pos < len(text):
        cut = text.find("\n", pos + CHUNK_CHARS)
        chunk = text[pos:len(text) if cut < 0 else cut + 1]
        pos += len(chunk)
        data, stop = [], None
        for raw_line in chunk.splitlines():
            line = raw_line.strip()
            if not line or line[0] == "c":
                continue
            if line == "%" or (line[0] == "p" and num_vars is not None):
                stop = line
                break
            if line[0] == "p":
                parts = line.split()
                if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                    raise MalformedToken(f"bad problem line: {line!r}")
                try:
                    num_vars, declared_clauses = int(parts[2]), int(parts[3])
                except ValueError:
                    raise MalformedToken(f"bad problem line: {line!r}") from None
                if num_vars < 1 or declared_clauses < 0:
                    raise MalformedToken(f"bad problem line counts: {line!r}")
            elif num_vars is None:
                raise MissingHeader("clause data before the problem line")
            else:
                data.append(line)
        chunks.append(_integers(" ".join(data).split()))
        if stop == "%":
            break
        if stop:
            raise MalformedToken("duplicate problem line")
    if num_vars is None:
        raise MissingHeader("no problem line found")
    values = np.concatenate(chunks)
    zeros = np.flatnonzero(values == 0)
    if len(values) > (zeros[-1] + 1 if len(zeros) else 0):
        raise MalformedToken("unterminated clause at end of input")
    if len(zeros) != declared_clauses:
        raise HeaderMismatch(
            f"header declares {declared_clauses} clauses, parsed {len(zeros)}")
    formula = CnfFormula.__new__(CnfFormula)  # the arena, with no clause lists on the way
    formula._fill(num_vars, values[values != 0], np.diff(zeros, prepend=-1) - 1, source_id)
    return formula


def write_dimacs(formula: CnfFormula) -> str:
    """Serialize a formula; parse_dimacs(write_dimacs(f)) reproduces f."""
    lines = [f"p cnf {formula.num_vars} {formula.num_clauses}"]
    for clause in formula.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


def read_dimacs_file(path) -> CnfFormula:
    """The formula of a DIMACS file, read as UTF-8: a byte that is not is a
    `DimacsError` naming the file and its line (`runtimes.read_utf8`)."""
    p = Path(path)
    try:
        text = read_utf8(p)
    except ValueError as exc:
        raise DimacsError(str(exc)) from None
    return parse_dimacs(text, source_id=p.stem)
