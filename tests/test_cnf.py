import importlib.resources
import warnings

import pytest

from qdepth.cnf import (
    DegenerateClauseError,
    DimacsError,
    DuplicateClauseWarning,
    example1,
    load_dimacs,
    make_instance,
    parse_dimacs,
    to_dimacs,
)

from helpers import EXAMPLE1_CLAUSES

EXAMPLE1_TEXT = """\
c a comment
p cnf 5 4
1 2 -3 0
1 3 4 0
-2 4 5 0
1 -2 5 0
"""


def test_parse_example1():
    inst = parse_dimacs(EXAMPLE1_TEXT)
    assert inst.num_vars == 5
    assert inst.num_clauses == 4
    assert list(inst.clauses) == EXAMPLE1_CLAUSES
    assert inst.used_variables() == (1, 2, 3, 4, 5)


def test_example1_matches_packaged_file():
    ref = importlib.resources.files("qdepth") / "data" / "example1.cnf"
    assert load_dimacs(str(ref)).clauses == example1().clauses


def test_clauses_canonicalized_by_variable_index():
    inst = make_instance([(5, -2, 4), (-3, 2, 1)])
    assert inst.clauses == ((-2, 4, 5), (1, 2, -3))


def test_clause_spanning_lines_and_trailer():
    text = "p cnf 4 2\n1 -2\n3 0 2 3\n-4 0\n%\n0\n"
    inst = parse_dimacs(text)
    assert inst.clauses == ((1, -2, 3), (2, 3, -4))


def test_clause_vars():
    inst = example1()
    assert [inst.clause_vars(c) for c in range(4)] == [
        {1, 2, 3}, {1, 3, 4}, {2, 4, 5}, {1, 2, 5}]


def test_round_trip():
    inst = example1()
    again = parse_dimacs(to_dimacs(inst, comments=["round trip"]))
    assert again == inst


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("1 2 3 0", "before problem line"),
        ("p cnf 3 1\np cnf 3 1\n1 2 3 0", "duplicate problem"),
        ("p cnf x 1\n", "non-integer problem line"),
        ("p cnf 3\n", "expected 'p cnf"),
        ("p cnf 3 1\n1 2 4 0", "exceeds declared"),
        ("p cnf 3 1\n1 2 3", "not terminated"),
        ("p cnf 3 2\n1 2 3 0", "declares 2 clauses"),
        ("p cnf 3 1\n1 two 3 0", "non-integer token"),
        ("", "missing problem line"),
    ],
)
def test_malformed_inputs(text, fragment):
    with pytest.raises(DimacsError, match=fragment):
        parse_dimacs(text)


def test_degenerate_clauses_rejected_by_default():
    with pytest.raises(DegenerateClauseError, match="2 distinct"):
        parse_dimacs("p cnf 3 1\n1 2 0")
    with pytest.raises(DegenerateClauseError, match="both 2 and -2"):
        parse_dimacs("p cnf 3 1\n1 2 -2 0")
    with pytest.raises(DegenerateClauseError, match="empty"):
        parse_dimacs("p cnf 3 1\n0")
    with pytest.raises(DegenerateClauseError, match="4 distinct"):
        make_instance([(1, 2, 3, 4)])


def test_duplicate_literals_collapse():
    assert make_instance([(1, 1, 2, 3)]).clauses == ((1, 2, 3),)
    assert parse_dimacs("p cnf 3 1\n-2 3 -2 1 0").clauses == ((1, -2, 3),)


def test_duplicate_clause_warns_but_keeps_both():
    with pytest.warns(DuplicateClauseWarning):
        inst = make_instance([(1, 2, 3), (3, 2, 1)])
    assert inst.num_clauses == 2


def test_duplicate_warning_names_the_caller(tmp_path):
    text = "p cnf 3 2\n1 2 3 0\n3 2 1 0\n"
    path = tmp_path / "dup.cnf"
    path.write_text(text)
    entries = [lambda: make_instance([(1, 2, 3), (3, 2, 1)]),
               lambda: parse_dimacs(text),
               lambda: load_dimacs(path)]
    for entry in entries:
        with pytest.warns(DuplicateClauseWarning) as record:
            entry()
        assert [w.filename for w in record] == [__file__]


def test_no_warning_for_same_vars_different_polarity():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        make_instance([(1, 2, 3), (-1, 2, 3)])


def test_num_vars_override():
    inst = make_instance([(1, 2, 3)], num_vars=6)
    assert inst.num_vars == 6
    assert inst.used_variables() == (1, 2, 3)
    with pytest.raises(DimacsError):
        make_instance([(1, 2, 5)], num_vars=4)
