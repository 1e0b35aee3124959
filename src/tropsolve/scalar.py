"""Exact max-plus scalars: rational numbers extended with -inf.

The scalar domain is the tropical (max-plus) semiring: addition is max,
multiplication is classical addition, the additive identity is -inf and
the multiplicative identity is 0. All finite values are exact rationals,
so results of the normalization pipeline are bit-reproducible.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError

__all__ = [
    "TropicalScalar",
    "BOTTOM",
    "as_scalar",
    "trop_add",
    "trop_mul",
    "classical_sub",
    "parse_scalar",
    "format_scalar",
]


class TropicalScalar:
    """A finite exact rational, or bottom (-inf).

    Instances are immutable and totally ordered, with bottom strictly below
    every finite value. Finite values are held as `Fraction`s, which keeps
    them in canonical reduced form.
    """

    __slots__ = ("_value",)

    def __init__(self, value: int | str | Fraction | None = None):
        if value is None:
            self._value = None
        elif isinstance(value, Fraction):
            self._value = value
        elif isinstance(value, (int, str)):
            self._value = Fraction(value)
        else:
            # floats are rejected: binary expansions are not what the
            # text syntax means by "2.5"
            raise TypeError(f"cannot build a tropical scalar from {type(value).__name__}")

    @property
    def is_bottom(self) -> bool:
        return self._value is None

    @property
    def value(self) -> Fraction:
        if self._value is None:
            raise ValueError("no finite value: scalar is -inf")
        return self._value

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TropicalScalar):
            return NotImplemented
        return self._value == other._value

    def __hash__(self) -> int:
        return hash(self._value)

    def __lt__(self, other: "TropicalScalar") -> bool:
        if self._value is None:
            return other._value is not None
        if other._value is None:
            return False
        return self._value < other._value

    def __le__(self, other: "TropicalScalar") -> bool:
        return self == other or self < other

    def __gt__(self, other: "TropicalScalar") -> bool:
        return not self <= other

    def __ge__(self, other: "TropicalScalar") -> bool:
        return not self < other

    def __repr__(self) -> str:
        return f"TropicalScalar({format_scalar(self)!r})"

    def __str__(self) -> str:
        return format_scalar(self)


BOTTOM = TropicalScalar()


def as_scalar(x) -> TropicalScalar:
    """Coerce ints, strings, Fractions, or None (= -inf) to a scalar."""
    if isinstance(x, TropicalScalar):
        return x
    if x is None:
        return BOTTOM
    return TropicalScalar(x)


def trop_add(a: TropicalScalar, b: TropicalScalar) -> TropicalScalar:
    """Tropical sum: max of the two scalars (-inf is the identity)."""
    return a if b <= a else b


def trop_mul(a: TropicalScalar, b: TropicalScalar) -> TropicalScalar:
    """Tropical product: classical sum (-inf is absorbing)."""
    if a._value is None or b._value is None:
        return BOTTOM
    return TropicalScalar(a._value + b._value)


def classical_sub(a: TropicalScalar, b: TropicalScalar) -> TropicalScalar:
    """Ordinary rational subtraction a - b; both operands must be finite."""
    if a._value is None or b._value is None:
        raise ValueError("subtraction undefined at -inf")
    return TropicalScalar(a._value - b._value)


# Longest digit run a token may hold. Far below Python's 4300-digit limit on
# int/str conversion, and checked before any digits are converted.
MAX_DIGITS = 100

# The README grammar: an optionally negative integer, decimal or fraction.
_RUN = rf"(\d{{1,{MAX_DIGITS}}})"
_TOKEN = re.compile(rf"(-?){_RUN}(?:\.{_RUN}|/{_RUN})?", re.ASCII)


def parse_scalar(token: str) -> TropicalScalar:
    """Parse one scalar token: `-243`, `2.5` (exactly 5/2), `-13/4`, `-inf`."""
    if token == "-inf":
        return BOTTOM
    match = _TOKEN.fullmatch(token)
    if match is None:
        raise ParseError(f"malformed scalar token {token!r}")
    sign, whole, decimals, den = match.groups()
    if decimals is not None:
        num, d = int(whole + decimals), 10 ** len(decimals)
    else:
        num, d = int(whole), 1 if den is None else int(den)
    if d == 0:
        raise ParseError(f"malformed scalar token {token!r}")
    return TropicalScalar(Fraction(-num if sign else num, d))


def format_scalar(s: TropicalScalar) -> str:
    """Canonical token for a scalar; inverse of parse_scalar."""
    if s._value is None:
        return "-inf"
    if s._value.denominator == 1:
        return str(s._value.numerator)
    return f"{s._value.numerator}/{s._value.denominator}"
