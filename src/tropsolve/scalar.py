"""Exact max-plus scalars: rational numbers extended with -inf.

The scalar domain is the tropical (max-plus) semiring: addition is max,
multiplication is classical addition, the additive identity is -inf and
the multiplicative identity is 0. A scalar is a plain `Fraction`, or
None for -inf (`BOTTOM`), so results are exact and bit-reproducible.
`as_scalar` is the one place where ints and strings become `Fraction`s
and floats are refused; matrices and vectors call it on every entry.
Strings follow the file-token grammar of `parse_scalar`.

The hot loops (`mat_vec`, `column_mean`, and the residuation kernel
`solver.residuate` behind `solve`, the rank scan and `expand_solution`)
do their arithmetic on exact `(numerator, denominator)` integer pairs
from `as_pairs` instead: sums and differences are left unreduced,
denominators stay positive, so p/q < r/s is decided by p*s < r*q, and
each result is reduced once into a `Fraction`. `mat_vec` and `residuate`
never form a common denominator, so their intermediates stay within a
few times the digits of their inputs.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable

from .errors import ParseError

__all__ = [
    "Scalar",
    "BOTTOM",
    "as_scalar",
    "trop_add",
    "trop_mul",
    "as_pairs",
    "parse_scalar",
    "format_scalar",
]

# A max-plus scalar: a finite exact rational, or None for -inf.
Scalar = Fraction | None

BOTTOM: Scalar = None


def as_scalar(x) -> Scalar:
    """Coerce ints, Fractions, None (= -inf) or file tokens such as "-13/4" to a scalar."""
    if x is None or isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return parse_scalar(x)
    # floats are rejected: binary expansions are not what the text syntax
    # means by "2.5"
    raise TypeError(f"cannot build a tropical scalar from {type(x).__name__}")


def trop_add(a: Scalar, b: Scalar) -> Scalar:
    """Tropical sum: max of the two scalars (-inf is the identity)."""
    if a is None:
        return b
    return a if b is None or b <= a else b


def trop_mul(a: Scalar, b: Scalar) -> Scalar:
    """Tropical product: classical sum (-inf is absorbing)."""
    if a is None or b is None:
        return None
    return a + b


def as_pairs(entries: Iterable[Scalar]) -> list[tuple[int, int] | None]:
    """Each scalar as its (numerator, denominator) pair, positive denominator; None stays None."""
    return [None if e is None else e.as_integer_ratio() for e in entries]


# Longest digit run a token may hold. Far below Python's 4300-digit limit on
# int/str conversion, and checked before any digits are converted.
MAX_DIGITS = 100

# The README grammar: an optionally negative integer, decimal or fraction.
_RUN = rf"(\d{{1,{MAX_DIGITS}}})"
_TOKEN = re.compile(rf"(-?){_RUN}(?:\.{_RUN}|/{_RUN})?", re.ASCII)


def parse_scalar(token: str) -> Scalar:
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
    return Fraction(-num if sign else num, d)


def format_scalar(s: Scalar) -> str:
    """Canonical token for a scalar; inverse of parse_scalar."""
    if s is None:
        return "-inf"
    if s.denominator == 1:
        return str(s.numerator)
    return f"{s.numerator}/{s.denominator}"
