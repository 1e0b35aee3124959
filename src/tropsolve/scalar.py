"""Exact max-plus scalars: rational numbers extended with -inf.

The scalar domain is the tropical (max-plus) semiring: addition is max,
multiplication is classical addition, the additive identity is -inf and
the multiplicative identity is 0. A scalar is a plain `Fraction`, or
None for -inf (`BOTTOM`), so results are exact and bit-reproducible.
`as_scalar` is the one place where ints and strings become `Fraction`s
and floats are refused; the public matrix and vector constructors call it
on every entry.
Strings follow the file-token grammar of `parse_scalar`.

The library's kernels do their arithmetic on exact `(numerator,
denominator)` integer pairs instead (`Pair`): a matrix stores its cells
as reduced pairs, and a vector's `Fraction`s become pairs through
`as_pairs`. `parse_pair` reads one file token. `parse_pairs` reads a
file's distinct tokens in one batch: one grammar check over all of them
before any digit is converted, then one integer pass and one gcd pass,
and `parse_pair` token by token only when a token is rejected. A
computed pair's denominator stays positive and is not always reduced, so
p/q < r/s is decided by p*s < r*q, and each result is reduced once, or
not at all where only a comparison needs it.
"""

from __future__ import annotations

import json
import re
from decimal import Decimal
from fractions import Fraction
from itertools import compress, repeat
from math import gcd
from typing import Iterable

from .errors import ParseError

__all__ = [
    "Scalar",
    "BOTTOM",
    "as_scalar",
    "trop_add",
    "trop_mul",
    "as_pairs",
    "parse_pair",
    "parse_pairs",
    "parse_scalar",
    "format_pair",
    "format_scalar",
]

# A max-plus scalar: a finite exact rational, or None for -inf.
Scalar = Fraction | None

BOTTOM: Scalar = None

# A finite scalar as (numerator, denominator), denominator > 0, not always reduced.
Pair = tuple[int, int]

# Rows of pairs, None for -inf.
PairGrid = tuple[tuple[Pair | None, ...], ...]


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


def as_pairs(entries: Iterable[Scalar]) -> list[Pair | None]:
    """Each scalar as its (numerator, denominator) pair, positive denominator; None stays None."""
    return [None if e is None else e.as_integer_ratio() for e in entries]


# Longest digit run a token may hold. Far below Python's 4300-digit limit on
# int/str conversion, and checked before any digits are converted.
MAX_DIGITS = 100

# The README grammar: an optionally negative integer, decimal or fraction.
# No capture group: `_TOKENS` repeats it, where groups would cost ~4x.
_GRAMMAR = rf"-?\d{{1,{MAX_DIGITS}}}(?:[./]\d{{1,{MAX_DIGITS}}})?"
_TOKEN = re.compile(_GRAMMAR, re.ASCII)
# Tokens joined by single spaces; `str.split` tokens hold no whitespace.
_TOKENS = re.compile(rf"{_GRAMMAR}(?: {_GRAMMAR})*", re.ASCII)
# Tokens per `_TOKENS` match: the engine's backtracking state grows by about
# 0.5 KB per token matched, so one match over a whole 200x200 file would
# triple the parse's peak memory.
_CHUNK = 256


def malformed(token: str, line: int | None = None, column: int | None = None) -> ParseError:
    """The error for a token that `parse_pair` rejects."""
    return ParseError(f"malformed scalar token {token!r}", line, column)


def parse_pair(token: str) -> Pair | None:
    """Parse one scalar token to its reduced pair, None for `-inf`: `6/4` gives (3, 2)."""
    if token == "-inf":
        return None
    if _TOKEN.fullmatch(token) is None:
        raise malformed(token)
    whole, point, decimals = token.partition(".")
    if point:
        num, d = int(whole + decimals), 10 ** len(decimals)
    else:
        whole, _, den = token.partition("/")
        num, d = int(whole), int(den) if den else 1
    if d == 0:
        raise malformed(token)
    g = gcd(num, d)
    return num // g, d // g


def parse_pairs(tokens: Iterable[str]) -> dict[str, Pair | None]:
    """Each distinct token that `parse_pair` accepts, mapped to its pair; a rejected token is left out.

    Every token is checked against the grammar, in space-joined chunks,
    before any digit is converted. Then, a chunk at a time, integers go
    through one pass of `_ints` and fractions through one `_ints` and one
    `gcd` pass over their halves, dividing only where the gcd is not 1;
    decimals go through `parse_pair`. Only when a token is rejected, by the
    grammar or for a zero denominator, does every token go through
    `parse_pair`.
    """
    memo = dict.fromkeys(tokens)  # None is already `-inf`'s value
    todo = [t for t in memo if t != "-inf"]
    chunks = [todo[k : k + _CHUNK] for k in range(0, len(todo), _CHUNK)]
    if not all(_TOKENS.fullmatch(" ".join(c)) for c in chunks):
        return _parse_each(memo)
    for chunk in chunks:
        fractions = [t for t in chunk if "/" in t]
        halves = _ints(",".join(fractions).replace("/", ","))
        nums, dens = halves[::2], halves[1::2]
        if 0 in dens:
            return _parse_each(memo)
        pairs = list(zip(nums, dens))
        gcds = list(map(gcd, nums, dens))
        for k in compress(range(len(gcds)), map((1).__ne__, gcds)):
            pairs[k] = nums[k] // gcds[k], dens[k] // gcds[k]
        memo.update(zip(fractions, pairs))
        rest = [t for t in chunk if "/" not in t]
        integers = [t for t in rest if "." not in t]
        memo.update(zip(integers, zip(_ints(",".join(integers)), repeat(1))))
        memo.update((t, parse_pair(t)) for t in rest if "." in t)
    return memo


def _ints(digits: str) -> list[int]:
    """The integers of a comma-separated list.

    JSON's decoder reads them in C, about twice as fast as `int` on each;
    a leading zero, which JSON refuses, sends the list through `int`.
    """
    try:
        return json.loads(f"[{digits}]")
    except ValueError:
        return list(map(int, digits.split(",")))


def _parse_each(tokens: Iterable[str]) -> dict[str, Pair | None]:
    memo = {}
    for t in tokens:
        try:
            memo[t] = parse_pair(t)
        except ParseError:
            pass
    return memo


def parse_scalar(token: str) -> Scalar:
    """Parse one scalar token: `-243`, `2.5` (exactly 5/2), `-13/4`, `-inf`."""
    p = parse_pair(token)
    return None if p is None else Fraction(*p)


def format_pair(n: int, d: int) -> str:
    """Canonical token for the reduced fraction n/d, d > 0, in full: the one token rule.

    Past Python's int/str digit limit the digits come from `Decimal`, which
    converts any int exactly and has no such limit.
    """
    try:
        return str(n) if d == 1 else f"{n}/{d}"
    except ValueError:
        n, d = Decimal(n), Decimal(d)
        return str(n) if d == 1 else f"{n}/{d}"


def format_scalar(s: Scalar) -> str:
    """Canonical token for a scalar, in full; inverse of parse_scalar."""
    return "-inf" if s is None else format_pair(s.numerator, s.denominator)
