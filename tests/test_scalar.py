import math
import pathlib
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tropsolve import (
    BOTTOM,
    ParseError,
    TropMatrix,
    TropVector,
    as_scalar,
    colrank,
    expand_solution,
    format_pair,
    mat_vec,
    normalize,
    normalized_solution,
    parse_matrix,
    parse_vector,
    reduce_system,
    solve,
)
from tropsolve.scalar import MAX_DIGITS, format_pairs, parse_pairs

from helpers import is_reduced_pair, product, read_token, trop_add, trop_mul

finite = st.fractions(min_value=-100, max_value=100, max_denominator=12)
scalars = st.one_of(st.just(BOTTOM), finite)


def test_trop_add_identity_and_max():
    assert trop_add(BOTTOM, Fraction(3)) == Fraction(3)
    assert trop_add(Fraction(2), Fraction(5)) == Fraction(5)
    assert trop_add(Fraction(-117), Fraction(-115)) == Fraction(-115)


def test_trop_mul_absorbing_and_sum():
    assert trop_mul(BOTTOM, Fraction(7)) == BOTTOM
    assert trop_mul(Fraction(0), Fraction(9)) == Fraction(9)
    assert trop_mul(Fraction(-49), Fraction(-80)) == Fraction(-129)


@given(finite)
def test_bottom_is_least_element(x):
    assert trop_add(BOTTOM, x) == x
    assert trop_add(x, BOTTOM) == x


def test_floats_refused_at_every_entry_point():
    with pytest.raises(TypeError):
        TropVector([2.5])
    with pytest.raises(TypeError):
        TropMatrix([[2.5]])


def _exact(entries) -> bool:
    return all(e is None or type(e) is Fraction for e in entries)


_FINITE_TOKEN = st.sampled_from(["0", "3", "-7", "2.5", "-13/4", "1/3"])
_TOKEN = st.one_of(st.just("-inf"), _FINITE_TOKEN)


def _vector_text(tokens, n: int):
    return st.lists(tokens, min_size=n, max_size=n).map(" ".join)


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(_vector_text(_TOKEN, n), min_size=1, max_size=4).map("\n".join)
    ),
    st.data(),
)
def test_results_are_exact_fractions(text, data):
    a = parse_matrix(text)
    assert all(_exact(r) for r in a.row_tuples())
    x0 = parse_vector(data.draw(_vector_text(_TOKEN, a.cols)))
    out = solve(a, product(a, x0))  # solvable: x0 is a solution
    assert _exact(out.x_star)
    if all(any(e is not None for e in a.column(j)) for j in range(a.cols)):
        b = parse_vector(data.draw(_vector_text(_FINITE_TOKEN, a.rows)))
        res = normalize(a, b)
        assert all(is_reduced_pair(p) for r in (*res.q, *res.a_tilde.pair_rows()) for p in r)
        assert _exact(res.column_minima)
        assert _exact(res.b_tilde)
        assert _exact(res.col_means)
        assert is_reduced_pair(res.b_mean) and res.b_mean is not None
        assert _exact(normalized_solution(a, b, solve(a, b).x_star))
    for dep in colrank(a).dependent:
        assert _exact(dep.coefficients)


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(st.lists(_TOKEN, min_size=n, max_size=n), min_size=1, max_size=4)
    ),
    st.data(),
)
def test_parsed_and_computed_equal_public_construction(token_rows, data):
    # the library's own results compare and hash like the public
    # constructors' from the same tokens or values: each stored pair is reduced
    a = parse_matrix("\n".join(" ".join(r) for r in token_rows))
    public_a = TropMatrix([list(r) for r in token_rows])
    assert a == public_a and hash(a) == hash(public_a)
    tokens = data.draw(st.lists(_TOKEN, min_size=len(token_rows[0]), max_size=len(token_rows[0])))
    x = parse_vector(data.draw(st.sampled_from(["\n", " "])).join(tokens))
    public_x = TropVector(list(tokens))
    assert x == public_x and hash(x) == hash(public_x)
    y = mat_vec(a, x)
    public_y = product(a, x)
    assert y == public_y and hash(y) == hash(public_y)
    # every vector built from pairs: x*, b-bar, the expanded solution, rows, columns, b~ and Q's minima
    sys = reduce_system(a, y)  # y = A x is solvable, and so is the reduced system
    built = [solve(a, y).x_star, sys.b_bar, expand_solution(solve(sys.a_bar, sys.b_bar).x_star, sys)]
    built += [a.row(i) for i in range(a.rows)] + [a.column(j) for j in range(a.cols)]
    if all(any(e is not None for e in a.column(j)) for j in range(a.cols)):
        b = parse_vector(" ".join(data.draw(st.lists(_FINITE_TOKEN, min_size=a.rows, max_size=a.rows))))
        res = normalize(a, b)
        built += [res.b_tilde, res.column_minima]
    for v in built:
        public = TropVector(list(v))
        assert v == public and hash(v) == hash(public)


@given(scalars, scalars)
def test_add_commutative(a, b):
    assert trop_add(a, b) == trop_add(b, a)


@given(scalars, scalars, scalars)
def test_add_associative(a, b, c):
    assert trop_add(trop_add(a, b), c) == trop_add(a, trop_add(b, c))


@given(scalars)
def test_add_idempotent(a):
    assert trop_add(a, a) == a


@given(scalars, scalars, scalars)
def test_mul_distributes_over_add(a, b, c):
    left = trop_mul(a, trop_add(b, c))
    assert left == trop_add(trop_mul(a, b), trop_mul(a, c))
    right = trop_mul(trop_add(b, c), a)
    assert right == trop_add(trop_mul(b, a), trop_mul(c, a))


@given(st.fractions(max_denominator=50), st.fractions(max_denominator=50))
def test_finite_order_matches_rational_order(p, q):
    assert (trop_add(p, q) == q) == (p <= q)


@given(scalars)
def test_format_parse_round_trip(a):
    # `str` of a Fraction, -inf for None, is the token rule's reference; it shares no code with the writer
    token = format_pairs([None if a is None else a.as_integer_ratio()])[0]
    assert token == ("-inf" if a is None else str(a))
    assert as_scalar(token) == a


# 10**5000 + 7 and 3 * 10**4999 + 1 as decimal strings, built without str(int)
_LONG = "1" + "0" * 4998 + "07"
_LONG_DEN = "3" + "0" * 4998 + "1"


@pytest.mark.parametrize(
    "value,token",
    [
        (Fraction(10**5000 + 7), _LONG),
        (Fraction(-(10**5000 + 7)), "-" + _LONG),
        (Fraction(10**5000 + 7, 3), _LONG + "/3"),
        (Fraction(-1, 3 * 10**4999 + 1), "-1/" + _LONG_DEN),
        (Fraction(-(10**5000 + 7), 3 * 10**4999 + 1), f"-{_LONG}/{_LONG_DEN}"),
    ],
    ids=["int", "negative-int", "long-numerator", "long-denominator", "both-long"],
)
def test_format_past_digit_limit_is_exact(value, token):
    # about 5000 digits, past Python's default 4300-digit int/str limit
    assert format_pair(*value.as_integer_ratio()) == token
    assert format_pairs([None, value.as_integer_ratio()]) == ["-inf", token]


@given(st.integers(-(10**30), 10**30), st.integers(1, 10**30))
def test_format_pair_is_the_scalar_token(n, d):
    g = math.gcd(n, d)
    n, d = n // g, d // g
    assert format_pair(n, d) == str(Fraction(n, d))


def test_format_pair_past_digit_limit():
    # 10**5000 + 1 as a decimal string, built without str(int)
    long = "1" + "0" * 4999 + "1"
    assert format_pair(10**5000 + 1, 1) == long
    assert format_pair(1, 10**5000 + 1) == "1/" + long


def test_format_pairs_writes_each_row_as_format_pair_writes_its_cells():
    # rows mixing -inf, integers and negative fractions; a value past the
    # int/str digit limit sends its whole row through the Decimal path
    long = 10**5000 + 7
    rows = [
        [None, (0, 1), (-3, 1), (7, 2), (-5, 12)],
        [(-1, 3), None, (long, 1), (12, 1), (-7, 9)],
        [(4, 1), (-long, 3 * 10**4999 + 1), None, (-2, 5), (1, 1)],
    ]
    want = [
        ["-inf", "0", "-3", "7/2", "-5/12"],
        ["-1/3", "-inf", _LONG, "12", "-7/9"],
        ["4", f"-{_LONG}/{_LONG_DEN}", "-inf", "-2/5", "1"],
    ]
    for row, tokens in zip(rows, want):
        assert format_pairs(row) == tokens == ["-inf" if p is None else format_pair(*p) for p in row]
        assert format_pairs(row, "+inf-") == ["+inf-" if p is None else format_pair(*p) for p in row]


@pytest.mark.parametrize(
    "token,expected",
    [
        ("-243", Fraction(-243)),
        ("2.5", Fraction(5, 2)),
        ("-13/4", Fraction(-13, 4)),
        ("0.1", Fraction(1, 10)),
        ("9" * MAX_DIGITS, Fraction(10**MAX_DIGITS - 1)),
    ],
)
def test_parse_finite_tokens_exactly(token, expected):
    assert as_scalar(token) == expected
    pair = parse_pairs([token])[token]
    assert pair == expected.as_integer_ratio() and is_reduced_pair(pair)
    assert read_token(token) == expected.as_integer_ratio()
    assert TropVector([token]) == TropVector([expected])


def test_parse_bottom_token():
    assert as_scalar("-inf") == BOTTOM
    assert parse_pairs(["-inf"]) == {"-inf": None}
    assert read_token("-inf") is None
    assert TropVector(["-inf"]) == TropVector([BOTTOM])


@pytest.mark.parametrize(
    "token",
    [
        "inf", "+inf-", "abc", "1/0", "--3", "", "1e5000", "1e3", "1_000", "+5",
        "9" * (MAX_DIGITS + 1), " 7 ", ".5",
    ],
)
def test_parse_rejects_garbage(token):
    message = f"^{re.escape(f'malformed scalar token {token!r}')}$"
    with pytest.raises(ParseError, match=message):
        as_scalar(token)
    assert parse_pairs([token]) == {}
    with pytest.raises(ValueError):
        read_token(token)
    with pytest.raises(ParseError, match=message):  # as do the constructors
        TropVector([token])


def test_tokens_holding_a_space_are_left_out():
    # the space-joined grammar check of a chunk must not read one token "1 2" as two
    assert parse_pairs(["1 2", "3/4 5", "7"]) == {"7": (7, 1)}
    with pytest.raises(ParseError, match="^malformed scalar token '1 2'$"):
        as_scalar("1 2")
    with pytest.raises(ParseError, match="^malformed scalar token '3/4 5'$"):
        TropVector(["3/4 5"])


def test_src_uses_no_private_fraction_name():
    # CPython 3.12 changed Fraction's private names; the library must run unchanged on 3.10-3.13
    private = re.compile(r"\b_(numerator|denominator|normalize|from_coprime_ints)\b")
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    hits = [f"{path}:{n}" for path in sorted(src.rglob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1) if private.search(line)]
    assert hits == []
