import random

import pytest

from zfolio import cnf
from zfolio.cnf import (
    CnfFormula,
    DimacsError,
    EmptyClause,
    HeaderMismatch,
    LiteralOutOfRange,
    MalformedToken,
    MissingHeader,
    parse_dimacs,
    read_dimacs_file,
    write_dimacs,
)
from conftest import random_3cnf


def test_parse_basic():
    f = parse_dimacs("p cnf 2 2\n1 -2 0\n2 0\n")
    assert f.num_vars == 2
    assert f.clauses == [[1, -2], [2]]


def test_parse_skips_comments_and_blanks():
    f = parse_dimacs("c comment\n\np cnf 1 1\n1 0\n")
    assert f.num_vars == 1
    assert f.clauses == [[1]]


def test_literal_out_of_range():
    with pytest.raises(LiteralOutOfRange):
        parse_dimacs("p cnf 2 1\n3 0\n")


def test_header_mismatch():
    with pytest.raises(HeaderMismatch):
        parse_dimacs("p cnf 2 2\n1 0\n")


def test_missing_header():
    with pytest.raises(MissingHeader):
        parse_dimacs("1 0\n")
    with pytest.raises(MissingHeader):
        parse_dimacs("c only comments\n")


def test_empty_clause_rejected():
    with pytest.raises(EmptyClause):
        parse_dimacs("p cnf 1 1\n0\n")


def test_malformed_token():
    with pytest.raises(MalformedToken):
        parse_dimacs("p cnf 1 1\n1 x 0\n")


def test_unterminated_clause():
    with pytest.raises(MalformedToken):
        parse_dimacs("p cnf 2 1\n1 2\n")


def test_duplicate_header_rejected():
    with pytest.raises(MalformedToken):
        parse_dimacs("p cnf 1 1\np cnf 1 1\n1 0\n")


def test_multiline_clause():
    f = parse_dimacs("p cnf 3 1\n1 2\n3 0\n")
    assert f.clauses == [[1, 2, 3]]


def test_percent_terminator():
    f = parse_dimacs("p cnf 1 1\n1 0\n%\n0\ngarbage after\n")
    assert f.clauses == [[1]]


def test_crlf_line_endings():
    unix = parse_dimacs("p cnf 2 2\n1 -2 0\n2 0\n")
    dos = parse_dimacs("p cnf 2 2\r\n1 -2 0\r\n2 0\r\n")
    assert unix == dos


def test_duplicates_and_tautologies_preserved():
    f = parse_dimacs("p cnf 2 2\n1 1 0\n1 -1 0\n")
    assert f.clauses == [[1, 1], [1, -1]]


def test_write_canonical_form():
    f = CnfFormula(num_vars=1, clauses=[[1]])
    assert write_dimacs(f) == "p cnf 1 1\n1 0\n"


def test_round_trip_small():
    f = parse_dimacs("p cnf 2 2\n1 -2 0\n2 0\n")
    assert parse_dimacs(write_dimacs(f)) == f


def test_round_trip_random_formulas():
    rng = random.Random(1234)
    for _ in range(100):
        f = random_3cnf(rng.randint(3, 20), rng.randint(1, 40), rng)
        assert parse_dimacs(write_dimacs(f)) == f


def test_formula_invariants_enforced():
    with pytest.raises(LiteralOutOfRange):
        CnfFormula(num_vars=1, clauses=[[2]])
    with pytest.raises(EmptyClause):
        CnfFormula(num_vars=1, clauses=[[]])
    with pytest.raises(ValueError):
        CnfFormula(num_vars=0, clauses=[])


def test_parse_failure_is_atomic():
    # the failing call raises instead of returning any partial formula
    with pytest.raises(HeaderMismatch):
        parse_dimacs("p cnf 2 3\n1 0\n2 0\n")


def test_source_id_is_metadata_only():
    a = parse_dimacs("p cnf 1 1\n1 0\n", source_id="a")
    b = parse_dimacs("p cnf 1 1\n1 0\n", source_id="b")
    assert a == b


def test_literal_beyond_int64_is_out_of_range():
    with pytest.raises(LiteralOutOfRange):
        parse_dimacs(f"p cnf 2 1\n1 {2**70} 0\n")
    with pytest.raises(LiteralOutOfRange):
        CnfFormula(num_vars=2, clauses=[[1], [-(2**70)]])
    with pytest.raises(LiteralOutOfRange):
        CnfFormula(num_vars=2, clauses=[[-(2**63)]])  # int64's minimum has no absolute value


@pytest.mark.parametrize("num_vars, clauses, fault", [
    (2, [[1.9, -2]], "literal 1.9 is not an integer"),
    (2, [[1, -2], [True]], "literal True is not an integer"),
    (3, [[1, 2.0, "3"]], "literal 2.0 is not an integer"),
    (2.0, [[1]], "num_vars 2.0 is not an integer"),
    (True, [[1]], "num_vars True is not an integer"),
], ids=["float", "bool", "first-in-order", "num-vars-float", "num-vars-bool"])
def test_constructor_refuses_what_is_not_an_int(num_vars, clauses, fault):
    with pytest.raises(ValueError, match=f"^{fault}$"):
        CnfFormula(num_vars, clauses)


def test_constructor_raises_the_first_fault_in_clause_order():
    with pytest.raises(LiteralOutOfRange):
        CnfFormula(num_vars=2, clauses=[[1, 0], []])
    with pytest.raises(EmptyClause):
        CnfFormula(num_vars=2, clauses=[[1], [], [3]])


def test_flat_index_is_kept_outside_equality_and_repr():
    f = CnfFormula(num_vars=3, clauses=[[1, -2], [3], [-1, 2, 2]])
    assert f.literals.tolist() == [1, -2, 3, -1, 2, 2]
    assert f.literal_clause.tolist() == [0, 0, 1, 2, 2, 2]
    assert f.occurrences == ([[], [0], [2, 2], [1]], [[], [2], [0], []])
    assert f.occurrences is f.occurrences
    g = parse_dimacs(write_dimacs(f))
    assert g == f
    assert repr(g) == "CnfFormula(num_vars=3, clauses=[[1, -2], [3], [-1, 2, 2]], source_id='')"


def test_formula_keeps_no_per_clause_list():
    source = [[1, -2], [3], [-1, 2, 2]]
    for f in (parse_dimacs("p cnf 3 3\n1 -2 0\n3 0\n-1 2 2 0\n"), CnfFormula(3, source)):
        f.occurrences, f.literal_clause  # the cached views are built and kept
        assert not [k for k, v in vars(f).items() if isinstance(v, list)]
        clauses = f.clauses
        clauses[0].append(3)
        clauses.append([1])
        assert f.clauses == [[1, -2], [3], [-1, 2, 2]]
    source[1].append(-3)
    assert f.clauses == [[1, -2], [3], [-1, 2, 2]]


def test_read_dimacs_file_names_the_line_of_a_byte_that_is_not_utf8(tmp_path):
    path = tmp_path / "bad.cnf"
    path.write_bytes(b"p cnf 2 1\n1 \xff2 0\n")
    with pytest.raises(DimacsError) as exc:
        read_dimacs_file(path)
    assert str(exc.value) == f"{path}, line 2: byte 0xff is not UTF-8"
    path.write_bytes("c é\np cnf 2 1\n1 -2 0\n".encode())
    assert read_dimacs_file(path) == CnfFormula(2, [[1, -2]])


# -- parser differential ------------------------------------------------
#
# `reference_parse` is the parser as it was when every formula kept its
# clauses as lists: a per-line, per-token loop followed by the constructor's
# clause-by-clause check. The arena parser must give the same formula, or
# the same exception class and message, on every input.

def reference_parse(text):
    """(num_vars, clauses) of a DIMACS text, or the fault it raises."""
    num_vars = None
    declared_clauses = None
    clauses, current = [], []
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
        raise HeaderMismatch(f"header declares {declared_clauses} clauses, parsed {len(clauses)}")
    for idx, clause in enumerate(clauses):
        if not clause:
            raise EmptyClause(f"clause {idx + 1} is empty")
        for lit in clause:
            if lit == 0 or abs(lit) > num_vars:
                raise LiteralOutOfRange(f"literal {lit} in clause {idx + 1}, num_vars={num_vars}")
    return num_vars, clauses


DIFFERENTIAL_TEXTS = [
    # comments before and inside the body, a clause over two lines, CRLF, "%"
    "c made by hand\np cnf 5 4\n1 -2 0\nc a comment in the body\n3 4\n-5 0\r\n2 0\r\n"
    "-1 -3 5 0\n%\n0\ntrailing garbage\n",
    # signs, underscores and non-ASCII digits that int() reads, tabs and blank lines
    "p cnf 12 3\n+5 -1_0 0\n\n\t٣ -٤ 0\n１２ 7 0\n",
    # a literal beyond int64, then more clauses
    f"p cnf 3 3\n1 {2**64} 0\n-{2**63} 2 0\n-2 3 0\n",
    # a problem line after clause data
    "p cnf 3 2\n1 2 0\np cnf 3 2\n3 0\n",
    # a second problem line before any clause, and a comment line in between
    "c\np cnf 2 1\nc second\np cnf 2 1\n1 -2 0\n",
    # one clause fewer than declared, so that a stray 0 makes an empty clause
    "p cnf 3 3\n1 -2 0\n3 0\n",
    # other line breaks of str.splitlines, clauses that span lines
    "p cnf 4 3\x0b1 2\x0c3 0\x1c-4\x1d0\x85 2 -3  0 ",
]
MUTATION_BYTES = b"0123456789-+_ \t\n\rcp%x\x0b\x0c"


def mutants(text, count, rng):
    """`count` single-byte mutations of the UTF-8 text: a byte inserted,
    deleted or replaced, the new byte from MUTATION_BYTES or any value;
    bytes that are no longer UTF-8 decode as U+FFFD."""
    data = text.encode()
    for _ in range(count):
        pos = rng.randrange(len(data) + 1)
        byte = bytes([rng.choice(MUTATION_BYTES) if rng.random() < 0.8 else rng.randrange(256)])
        kind = rng.randrange(3)
        if kind == 0:
            out = data[:pos] + byte + data[pos:]
        elif kind == 1:
            out = data[:pos] + data[pos + 1:]
        else:
            out = data[:pos] + byte + data[pos + 1:]
        yield out.decode(errors="replace")


def outcome(parse, text):
    try:
        return parse(text)
    except Exception as exc:
        return type(exc), str(exc)


def test_parser_matches_the_reference_on_mutated_texts(monkeypatch):
    rng = random.Random(29)
    texts = [t for base in DIFFERENTIAL_TEXTS for t in (base, *mutants(base, 600, rng))]
    kinds = set()
    for chunk_chars in (1 << 20, 3):  # one chunk, and about one line a chunk
        monkeypatch.setattr(cnf, "CHUNK_CHARS", chunk_chars)
        for text in texts:
            expect = outcome(reference_parse, text)
            got = outcome(parse_dimacs, text)
            if isinstance(got, CnfFormula):
                got = (got.num_vars, got.clauses)
            assert got == expect, repr(text)
            kinds.add(expect[0] if isinstance(expect[0], type) else CnfFormula)
    assert kinds == {CnfFormula, EmptyClause, HeaderMismatch, LiteralOutOfRange,
                     MalformedToken, MissingHeader}
