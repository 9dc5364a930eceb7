"""DIMACS CNF parsing, validation and serialization.

Formulas are kept exactly as written: duplicate literals and tautological
clauses are preserved, because instance features must reflect the input as
given, not a simplified form.

`CnfFormula` checks and indexes its clauses once, for every feature layer.
`parse_dimacs` leaves empty clauses and literal ranges to it, so a text
with both kinds of fault raises the parser's error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from pathlib import Path

import numpy as np


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


@dataclass
class CnfFormula:
    """A propositional formula in conjunctive normal form.

    `clauses` is an ordered list of clauses, each an ordered list of nonzero
    signed integers; positive k is the positive literal of variable k.
    `source_id` is an opaque instance identifier and does not take part in
    equality.

    The constructor checks the literals in one numpy pass over the index it
    keeps, outside equality and repr: `literals`, every literal occurrence
    in clause order, and `literal_clause`, its clause's index. The clauses
    must not change afterwards.
    """

    num_vars: int
    clauses: list[list[int]]
    source_id: str = field(default="", compare=False)
    literals: np.ndarray = field(init=False, compare=False, repr=False)
    literal_clause: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        nv = self.num_vars
        if nv < 1:
            raise ValueError(f"num_vars must be positive, got {nv}")
        lengths = np.fromiter(map(len, self.clauses), dtype=np.int64, count=len(self.clauses))
        try:
            lits = np.fromiter(chain.from_iterable(self.clauses), np.int64, int(lengths.sum()))
            valid = lengths.all() and not ((lits == 0) | (lits > nv) | (lits < -nv)).any()
        except OverflowError:  # a literal beyond int64
            valid = False
        if not valid:  # the first fault in clause order
            for idx, clause in enumerate(self.clauses):
                if not clause:
                    raise EmptyClause(f"clause {idx + 1} is empty")
                for lit in clause:
                    if lit == 0 or abs(lit) > nv:
                        raise LiteralOutOfRange(f"literal {lit} in clause {idx + 1}, num_vars={nv}")
        self.literals = lits
        self.literal_clause = np.repeat(np.arange(len(self.clauses)), lengths)

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

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


def parse_dimacs(text: str, source_id: str = "") -> CnfFormula:
    """Parse DIMACS CNF text into a CnfFormula.

    Comment lines ("c ..."), blank lines and \\r line endings are ignored.
    Clauses may span multiple lines; literals accumulate until a 0.
    Everything after a lone "%" line is ignored (a known competition file
    convention). A bad problem line or token, an unterminated clause or a
    wrong clause count raises here; an empty clause or a literal out of
    range, from the `CnfFormula` constructor. No partial formula escapes.
    """
    num_vars = None
    declared_clauses = None
    clauses: list[list[int]] = []
    current: list[int] = []

    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line or line[0] == "c":
            continue
        if line == "%":
            break
        if line[0] == "p":
            if num_vars is not None:
                raise MalformedToken("duplicate problem line")
            parts = line.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise MalformedToken(f"bad problem line: {line!r}")
            try:
                num_vars = int(parts[2])
                declared_clauses = int(parts[3])
            except ValueError:
                raise MalformedToken(f"bad problem line: {line!r}") from None
            if num_vars < 1 or declared_clauses < 0:
                raise MalformedToken(f"bad problem line counts: {line!r}")
            continue
        if num_vars is None:
            raise MissingHeader("clause data before the problem line")
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise MalformedToken(f"non-integer token {tok!r}") from None
            if lit == 0:
                clauses.append(current)
                current = []
            else:
                current.append(lit)

    if num_vars is None:
        raise MissingHeader("no problem line found")
    if current:
        raise MalformedToken("unterminated clause at end of input")
    if len(clauses) != declared_clauses:
        raise HeaderMismatch(
            f"header declares {declared_clauses} clauses, parsed {len(clauses)}"
        )
    return CnfFormula(num_vars=num_vars, clauses=clauses, source_id=source_id)


def write_dimacs(formula: CnfFormula) -> str:
    """Serialize a formula; parse_dimacs(write_dimacs(f)) reproduces f."""
    lines = [f"p cnf {formula.num_vars} {formula.num_clauses}"]
    for clause in formula.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


def read_dimacs_file(path) -> CnfFormula:
    p = Path(path)
    return parse_dimacs(p.read_text(), source_id=p.stem)
