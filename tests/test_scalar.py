from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tropsolve import (
    BOTTOM,
    ParseError,
    TropicalScalar,
    classical_sub,
    format_scalar,
    parse_scalar,
    trop_add,
    trop_mul,
)
from tropsolve.scalar import MAX_DIGITS

finite = st.fractions(min_value=-100, max_value=100, max_denominator=12).map(TropicalScalar)
scalars = st.one_of(st.just(BOTTOM), finite)


def test_trop_add_identity_and_max():
    assert trop_add(BOTTOM, TropicalScalar(3)) == TropicalScalar(3)
    assert trop_add(TropicalScalar(2), TropicalScalar(5)) == TropicalScalar(5)
    assert trop_add(TropicalScalar(-117), TropicalScalar(-115)) == TropicalScalar(-115)


def test_trop_mul_absorbing_and_sum():
    assert trop_mul(BOTTOM, TropicalScalar(7)) == BOTTOM
    assert trop_mul(TropicalScalar(0), TropicalScalar(9)) == TropicalScalar(9)
    assert trop_mul(TropicalScalar(-49), TropicalScalar(-80)) == TropicalScalar(-129)


def test_classical_sub():
    assert classical_sub(TropicalScalar(102), TropicalScalar(104)) == TropicalScalar(-2)
    assert classical_sub(TropicalScalar("7/3"), TropicalScalar("7/3")) == TropicalScalar(0)
    assert classical_sub(TropicalScalar(3), TropicalScalar(-4)) == TropicalScalar(7)


def test_classical_sub_rejects_bottom():
    with pytest.raises(ValueError, match="-inf"):
        classical_sub(BOTTOM, TropicalScalar(1))
    with pytest.raises(ValueError, match="-inf"):
        classical_sub(TropicalScalar(1), BOTTOM)


def test_bottom_below_everything():
    assert BOTTOM < TropicalScalar(-10**9)
    assert BOTTOM < TropicalScalar("-999999/7")
    assert not BOTTOM < BOTTOM
    assert BOTTOM <= BOTTOM


def test_rejects_floats():
    with pytest.raises(TypeError):
        TropicalScalar(2.5)


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
    assert (TropicalScalar(p) < TropicalScalar(q)) == (p < q)


@given(scalars)
def test_format_parse_round_trip(a):
    assert parse_scalar(format_scalar(a)) == a


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
    assert parse_scalar(token).value == expected


def test_parse_bottom_token():
    assert parse_scalar("-inf") == BOTTOM


@pytest.mark.parametrize(
    "token",
    ["inf", "+inf-", "abc", "1/0", "--3", "", "1e5000", "1e3", "1_000", "+5", "9" * (MAX_DIGITS + 1)],
)
def test_parse_rejects_garbage(token):
    with pytest.raises(ParseError):
        parse_scalar(token)
