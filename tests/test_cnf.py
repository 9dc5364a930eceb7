import random

import pytest

from zfolio.cnf import (
    CnfFormula,
    EmptyClause,
    HeaderMismatch,
    LiteralOutOfRange,
    MalformedToken,
    MissingHeader,
    parse_dimacs,
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
