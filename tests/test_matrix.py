import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tropsolve import (
    BOTTOM,
    DimensionError,
    ParseError,
    TropMatrix,
    TropVector,
    format_matrix,
    format_vector,
    is_regular,
    mat_vec,
    parse_matrix,
    parse_scalar,
    parse_vector,
    submatrix,
)

from helpers import max_combination, rand_matrix, scalar_mul, transpose


def small_matrix(rows: int, cols: int):
    entries = st.one_of(st.just(None), st.integers(min_value=-20, max_value=20))
    return st.lists(
        st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    ).map(TropMatrix)


def test_mat_vec_known_product():
    a = TropMatrix(
        [
            [165, 57, 72, -7, 0],
            [141, 64, 48, 3, -1],
            [137, 101, 46, 0, 2],
            [-243, 98, -206, 156, -5],
        ]
    )
    x = TropVector([-63, -25, 30, 4, 74])
    assert mat_vec(a, x) == TropVector([102, 78, 76, 160])


def test_column_combination_reproduces_third_column():
    a = TropMatrix([[3, 6, 5], [-5, 0, -2], [4, 1, 6]])
    assert max_combination([a.column(0), a.column(1)], [Fraction(2), Fraction(-2)]) == a.column(2)


def test_scalar_mul():
    # the test-side reference that the rank tests build shifted copies with
    v = TropVector([5, -3, 4])
    assert scalar_mul(2, v) == TropVector([7, -1, 6])
    a = TropMatrix([[1, None], [0, 2]])
    assert scalar_mul(0, a) == a
    assert scalar_mul(BOTTOM, a) == TropMatrix([[None, None], [None, None]])


def test_is_regular():
    assert is_regular(TropVector([3, 3, 0, -6, 2]))
    assert not is_regular(TropVector([1, None]))


def test_index_errors():
    a = TropMatrix([[1, 2], [3, 4]])
    with pytest.raises(IndexError):
        a.column(2)
    with pytest.raises(IndexError):
        a.row(5)
    with pytest.raises(IndexError):
        a.row(-1)


@pytest.mark.parametrize("rows, cols", [([-1], [0]), ([0], [-1]), ([2], [0]), ([0], [2]), ([0, 1], [1, 5])])
def test_submatrix_index_errors(rows, cols):
    a = TropMatrix([[1, 2], [3, 4]])
    with pytest.raises(IndexError):
        submatrix(a, rows, cols)
    assert submatrix(a, [1, 0], [1]) == TropMatrix([[4], [2]])


def test_shapes_validated():
    with pytest.raises(DimensionError):
        TropMatrix([[1, 2], [3]])
    with pytest.raises(DimensionError):
        TropMatrix([])
    with pytest.raises(DimensionError):
        TropVector([])
    with pytest.raises(DimensionError):
        mat_vec(TropMatrix([[1, 2]]), TropVector([1]))


@given(small_matrix(2, 3))
def test_transpose_involution(a):
    # the test-side reference for rowrank against colrank
    assert transpose(transpose(a)) == a


# --- text format -----------------------------------------------------------


def test_parse_matrix_comments_and_whitespace():
    text = "# header\n\n  1 2.5 -13/4\n-inf 0 7\n# trailing\n"
    a = parse_matrix(text)
    assert a.rows == 2 and a.cols == 3
    assert a.entry(0, 1) == Fraction("5/2")
    assert a.entry(1, 0) == BOTTOM


def test_parse_matrix_ragged_row_diagnostics():
    with pytest.raises(ParseError) as exc:
        parse_matrix("1 2\n3\n")
    assert exc.value.line == 2


@pytest.mark.parametrize(
    "parse,text,bad,line,column",
    [
        pytest.param(parse_matrix, "1 2\n3 oops\n", "oops", 2, 3, id="second-row"),
        pytest.param(parse_matrix, "-inf " * 40 + "inf\n", "inf", 1, 201, id="after-repeats"),
        pytest.param(parse_matrix, "1 oops 2 oops\n", "oops", 1, 3, id="bad-twice"),
        pytest.param(parse_matrix, "1\t2\n3\t\toops\n", "oops", 2, 4, id="tabs"),
        pytest.param(
            parse_matrix, "5/2 -inf 7\n" * 3 + "# c\n5/2 -inf 7/0\n", "7/0", 5, 10, id="later-row"
        ),
        pytest.param(parse_vector, "1\n2\n  oops\n", "oops", 3, 3, id="vector-column"),
        pytest.param(parse_vector, "1 2 1 2 1.x 1.x\n", "1.x", 1, 9, id="vector-row"),
    ],
)
def test_parse_matrix_bad_token_diagnostics(parse, text, bad, line, column):
    with pytest.raises(ParseError) as first:
        parse(text)
    assert (first.value.line, first.value.column) == (line, column)
    assert repr(bad) in str(first.value)
    with pytest.raises(ParseError) as again:  # nothing carries over between calls
        parse(text)
    assert (again.value.line, again.value.column, str(again.value)) == (
        line,
        column,
        str(first.value),
    )


@pytest.mark.parametrize("sep", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_rows_end_only_at_line_breaks(sep):
    # str.splitlines breaks at these too; in a file they are whitespace inside a row
    a = parse_matrix(f"0 1{sep}2 3\r\n4 5 6 7\r8 9 10 11\n")
    assert (a.rows, a.cols) == (3, 4)
    with pytest.raises(ParseError) as exc:
        parse_matrix(f"1 2{sep}\n1 x\n")
    assert (exc.value.line, exc.value.column) == (2, 3)


def test_parse_matrix_empty():
    with pytest.raises(ParseError):
        parse_matrix("# nothing here\n")


def test_parse_vector_one_per_line_and_single_line():
    assert parse_vector("1\n2\n3\n") == TropVector([1, 2, 3])
    assert parse_vector("1 2 3\n") == TropVector([1, 2, 3])
    assert parse_vector("-inf\n") == TropVector([None])
    with pytest.raises(ParseError):
        parse_vector("1 2\n3\n")


def test_round_trip_bit_exact():
    # equal values spelled differently must each parse as their own token
    text = "5/2 2.5 10/4 0 -0 0/7 -inf\n" * 30
    a = parse_matrix(text)
    assert [list(r) for r in a.row_tuples()] == [
        [parse_scalar(t) for t in line.split()] for line in text.splitlines()
    ]
    assert parse_matrix(format_matrix(a)) == a
    rng = random.Random(7)
    for _ in range(25):
        a = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), bottom_p=0.3)
        assert parse_matrix(format_matrix(a)) == a
        v = TropVector([a.entry(i, 0) for i in range(a.rows)])
        assert parse_vector(format_vector(v)) == v
