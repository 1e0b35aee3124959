import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tropsolve import (
    BOTTOM,
    DegenerateColumnError,
    DimensionError,
    ParseError,
    RegularityError,
    Solvable,
    TropicalError,
    TropMatrix,
    TropVector,
    check_equivalence,
    colrank,
    degrees_of_freedom,
    dof_via_reduction,
    exhaustive_solvable,
    expand_solution,
    is_regular,
    mat_vec,
    minimal_leading_oracle,
    normalize,
    normalized_solution,
    parse_matrix,
    parse_vector,
    principal_solution,
    reduce_system,
    rowrank,
    solve,
    submatrix,
)

from tropsolve.oracle import satisfies
from tropsolve.scalar import as_scalar, format_scalar, parse_pair

from helpers import (
    format_matrix,
    format_vector,
    is_reduced_pair,
    max_combination,
    prime_value,
    rand_matrix,
    scalar_mul,
    solves,
    transpose,
)


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


@pytest.mark.parametrize(
    "i, j, message",
    [(-1, 0, "row index -1 out of range for 2 rows"), (0, -1, "column index -1 out of range for 2 columns"),
     (2, 0, "row index 2 out of range for 2 rows"), (0, 2, "column index 2 out of range for 2 columns")],
)
def test_entry_and_vector_index_never_count_from_the_end(i, j, message):
    a = TropMatrix([[1, 2], [3, 4]])
    with pytest.raises(IndexError, match=f"^{message}$"):
        a.entry(i, j)
    v = TropVector([5, 6])
    with pytest.raises(IndexError, match=f"^index {i + j} out of range for 2 entries$"):
        v[i + j]
    assert (a.entry(1, 0), v[1]) == (Fraction(3), Fraction(6))
    assert v[1:] == v[-1:] == (Fraction(6),)  # slices keep Python's meaning


@pytest.mark.parametrize("rows, cols", [([-1], [0]), ([0], [-1]), ([2], [0]), ([0], [2]), ([0, 1], [1, 5])])
def test_submatrix_index_errors(rows, cols):
    a = TropMatrix([[1, 2], [3, 4]])
    with pytest.raises(IndexError):
        submatrix(a, rows, cols)
    assert submatrix(a, [1, 0], [1]) == TropMatrix([[4], [2]])


def test_shapes_validated():
    with pytest.raises(DimensionError):
        TropMatrix([[1, 2], [3]])
    # a vector or matrix is never equal to the plain sequence of its entries
    assert TropVector([1, 2]) != (Fraction(1), Fraction(2))
    assert TropMatrix([[1, 2]]) != [[Fraction(1), Fraction(2)]]
    assert repr(TropVector([Fraction(5, 2), None])) == "TropVector(5/2, -inf)"
    with pytest.raises(DimensionError):
        mat_vec(TropMatrix([[1, 2]]), TropVector([1]))
    # empty shapes are values; a matrix with no rows has no columns
    assert len(TropVector([])) == 0
    assert (TropMatrix([]).rows, TropMatrix([]).cols) == (0, 0)
    assert (TropMatrix([[], []]).rows, TropMatrix([[], []]).cols) == (2, 0)
    with pytest.raises(DimensionError):
        submatrix(TropMatrix([[1, 2]]), [], [0])


# the 0x0 system, and 2x0 against an all -inf b and a finite one
EMPTY_SYSTEMS = {
    "0x0": (TropMatrix([]), TropVector([])),
    "2x0-bottom-b": (TropMatrix([[], []]), TropVector([None, None])),
    "2x0-finite-b": (TropMatrix([[], []]), TropVector([0, 1])),
}


def _expand_reduced(a, b):
    sys = reduce_system(a, b)
    return expand_solution(solve(sys.a_bar, sys.b_bar).x_star, sys)


PUBLIC_CALLS = {
    "solve": solve,
    "satisfies": lambda a, b: satisfies(a, TropVector([None] * a.cols), b),
    "mat_vec": lambda a, b: mat_vec(a, TropVector([None] * a.cols)),
    "normalize": normalize,
    "normalized_solution": lambda a, b: normalized_solution(a, b, solve(a, b).x_star),
    "degrees_of_freedom": lambda a, b: degrees_of_freedom(solve(a, b)),
    "minimal_leading_oracle": lambda a, b: minimal_leading_oracle(solve(a, b)),
    "colrank": lambda a, b: colrank(a),
    "rowrank": lambda a, b: rowrank(a),
    "reduce_system": reduce_system,
    "expand_solution": _expand_reduced,
    "dof_via_reduction": dof_via_reduction,
    "check_equivalence": lambda a, b: check_equivalence(a, a),
    "principal_solution": principal_solution,
    "exhaustive_solvable": exhaustive_solvable,
    "submatrix": lambda a, b: submatrix(a, range(a.rows), range(a.cols)),
}


@pytest.mark.parametrize("system", EMPTY_SYSTEMS)
@pytest.mark.parametrize("call", PUBLIC_CALLS)
def test_public_functions_take_empty_systems(call, system):
    # a value or a library error; never an IndexError, ZeroDivisionError or AttributeError
    try:
        PUBLIC_CALLS[call](*EMPTY_SYSTEMS[system])
    except TropicalError:
        pass


@pytest.mark.parametrize("system", EMPTY_SYSTEMS)
def test_empty_systems_solve_like_the_oracles(system):
    a, b = EMPTY_SYSTEMS[system]
    solvable = isinstance(solve(a, b), Solvable)
    assert solvable == exhaustive_solvable(a, b) == solves(a, principal_solution(a, b), b)
    assert solvable == (system != "2x0-finite-b")


def test_normalize_empty_systems():
    # the 0x0 system has no b entry to take a mean of; 2x0 normalizes to empty grids
    with pytest.raises(DegenerateColumnError, match="^b has no entry, so it has no mean$"):
        normalize(*EMPTY_SYSTEMS["0x0"])
    with pytest.raises(RegularityError):
        normalize(*EMPTY_SYSTEMS["2x0-bottom-b"])
    res = normalize(*EMPTY_SYSTEMS["2x0-finite-b"])
    assert res.b_mean == Fraction(1, 2)
    assert res.b_tilde == TropVector([Fraction(-1, 2), Fraction(1, 2)])
    assert res.a_tilde == ((), ())
    assert res.q == ((), ())
    assert res.col_means == res.argmin_rows == ()
    assert res.column_minima == TropVector([])
    for a, b in EMPTY_SYSTEMS.values():
        assert normalized_solution(a, b, solve(a, b).x_star) == TropVector([])


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


def _token_by_token(text: str, vector: bool):
    """What the file parsers must give, from `parse_pair` one token at a time in line order.

    The values (rows of pairs for a matrix, `Fraction`s for a vector) or the
    expected error as (message, line, column).
    """
    lines = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        tokens = raw.split()
        if not tokens:
            continue
        row, pos = [], 0
        for t in tokens:
            start = raw.index(t, pos)
            pos = start + len(t)
            try:
                row.append(parse_pair(t))
            except ParseError as exc:
                return str(exc), lineno, start + 1
        if not vector and lines and len(row) != len(lines[0][1]):
            return f"row has {len(row)} entries but row at line {lines[0][0]} has {len(lines[0][1])}", lineno, None
        lines.append((lineno, row))
    if not lines:
        return f"no {'vector entries' if vector else 'matrix rows'} found", None, None
    if not vector:
        return tuple(tuple(row) for _, row in lines)
    if len(lines) > 1 and any(len(row) != 1 for _, row in lines):
        bad = next(lineno for lineno, row in lines if len(row) != 1)
        return "vector must be one scalar per line or a single line", bad, None
    return [None if p is None else Fraction(*p) for _, row in lines for p in row]


def _assert_parsers_agree(text: str) -> None:
    for parse, vector in ((parse_matrix, False), (parse_vector, True)):
        expected = _token_by_token(text, vector)
        if isinstance(expected, tuple) and expected and isinstance(expected[0], str):
            message, line, column = expected
            with pytest.raises(ParseError) as exc:
                parse(text)
            assert (str(exc.value), exc.value.line, exc.value.column) == (
                str(ParseError(message, line, column)), line, column
            )
        else:
            got = parse(text)
            assert (got.pair_rows() if not vector else list(got)) == expected


# ASCII grammar characters and near misses: `٣` is an Arabic-Indic digit, `²`
# a superscript digit, `１` a full-width digit, all of which `int` would
# take; `\x85` is whitespace to `str.split` but no line break in a file.
_GRAMMAR_ALPHABET = "0123456789-/.+_einf٣²１\x85"
_GRAMMAR_TOKEN = st.one_of(
    st.text(_GRAMMAR_ALPHABET, min_size=1, max_size=7),
    st.sampled_from(["-inf", "0", "-12", "3/4", "-6/4", "2.50", "007", "0/5", "-007/010"]),
)


@given(st.lists(st.lists(_GRAMMAR_TOKEN, min_size=1, max_size=4).map(" ".join), min_size=1, max_size=4))
def test_file_parsers_agree_with_parse_pair(lines):
    _assert_parsers_agree("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "token",
    [
        "5/-3", "0/0", "1/00", "-0/5", "007", "--1", "1.", ".5", "-INF", "+5", "1_000",
        "9" * 100, "-" + "9" * 100 + "/" + "7" * 100, "1." + "0" * 100,
        "9" * 101, "1/" + "7" * 101, "1." + "0" * 101,
    ],
)
def test_file_parsers_near_misses(token):
    for text in (f"1 {token} 2/3\n", f"4 -inf 5\n1 {token} 2/3\n", f"1\n{token}\n2/3\n", f"{token}\n"):
        _assert_parsers_agree(text)


@pytest.mark.parametrize(
    "parse,text,message,line,column",
    [
        pytest.param(
            parse_matrix, "1 2\n3\n4 x\n", "row has 1 entries but row at line 1 has 2", 2, None, id="ragged-first"
        ),
        pytest.param(parse_matrix, "1 2\n3 4 x\n", "malformed scalar token 'x'", 2, 5, id="token-before-width"),
        pytest.param(parse_matrix, "1 2\n3 x\nx 4\n", "malformed scalar token 'x'", 2, 3, id="repeated-later"),
        pytest.param(parse_vector, "1 2\n3\nx\n", "malformed scalar token 'x'", 3, 1, id="vector-token-before-shape"),
    ],
)
def test_first_error_in_line_order(parse, text, message, line, column):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (str(exc.value), exc.value.line, exc.value.column) == (str(ParseError(message, line, column)), line, column)


def test_parse_peak_memory_stays_near_what_the_matrix_keeps():
    rng = random.Random(29)
    text = "".join(
        " ".join("-inf" if rng.random() < 0.1 else format_scalar(prime_value(rng)) for _ in range(200)) + "\n"
        for _ in range(200)
    )
    tracemalloc.start()
    try:
        a = parse_matrix(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert a.rows == a.cols == 200
    # about 2.3x; one regex match over the whole file at once reads about 7x
    assert peak <= 3 * kept


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


def test_parse_vector_empty():
    with pytest.raises(ParseError) as exc:
        parse_vector("# nothing here\n\n")
    assert str(exc.value) == "no vector entries found"


def test_parse_vector_one_per_line_and_single_line():
    assert parse_vector("1\n2\n3\n") == TropVector([1, 2, 3])
    assert parse_vector("1 2 3\n") == TropVector([1, 2, 3])
    assert parse_vector("-inf\n") == TropVector([None])
    with pytest.raises(ParseError):
        parse_vector("1 2\n3\n")


def test_parsed_matrix_stores_reduced_pairs():
    text = "6/4 2.50 -0 007 0/5 -inf\n"
    a = parse_matrix(text)
    public = TropMatrix([[Fraction(3, 2), Fraction(5, 2), Fraction(0), Fraction(7), Fraction(0), None]])
    assert a == public and hash(a) == hash(public)
    assert a.pair_rows() == public.pair_rows() == (((3, 2), (5, 2), (0, 1), (7, 1), (0, 1), None),)
    assert all(is_reduced_pair(p) for r in a.pair_rows() for p in r)
    assert a.row_tuples() == public.row_tuples() and a.entry(0, 0) == Fraction(3, 2)
    # a vector stores the same pairs, however it is built
    for v in (parse_vector(text), a.row(0), TropVector(list(public.row(0)))):
        assert v.pairs() == a.pair_rows()[0] and v == a.row(0) and hash(v) == hash(a.row(0))
    canonical = format_matrix(a)
    assert canonical == "3/2 5/2 0 7 0 -inf\n"
    assert parse_matrix(canonical) == a and format_matrix(parse_matrix(canonical)) == canonical


def test_round_trip_bit_exact():
    # equal values spelled differently must each parse as their own token
    text = "5/2 2.5 10/4 0 -0 0/7 -inf\n" * 30
    a = parse_matrix(text)
    assert [list(r) for r in a.row_tuples()] == [
        [as_scalar(t) for t in line.split()] for line in text.splitlines()
    ]
    assert parse_matrix(format_matrix(a)) == a
    rng = random.Random(7)
    for _ in range(25):
        a = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), bottom_p=0.3)
        assert parse_matrix(format_matrix(a)) == a
        v = TropVector([a.entry(i, 0) for i in range(a.rows)])
        assert parse_vector(format_vector(v)) == v
