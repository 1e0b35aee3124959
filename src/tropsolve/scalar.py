"""Exact max-plus scalars: rational numbers extended with -inf.

The scalar domain is the tropical (max-plus) semiring: addition is max,
multiplication is classical addition, the additive identity is -inf and
the multiplicative identity is 0. To the caller a scalar is a plain
`Fraction`, or None for -inf (`BOTTOM`), so results are exact and
bit-reproducible. `as_scalar` is the one place where ints and strings
become `Fraction`s and floats are refused; the public matrix and vector
constructors call it on every entry. It reads a string as a one-token
batch of `parse_pairs`, the library's one token reader.

Vectors and matrices store, and the library's kernels compute on, exact
`(numerator, denominator)` integer pairs instead (`Pair`). `parse_pairs`
reads a file's distinct tokens in one batch: one grammar check over all
of them before any digit is converted, then one integer pass and one
gcd pass; it leaves out each token it rejects. Inside a kernel a
pair's denominator stays positive and is not always reduced, so p/q <
r/s is decided by p*s < r*q; each pair a kernel returns is reduced once
(by `reduced` or `normalize`'s gcds), so its callers compare with `==`.
"""

from __future__ import annotations

import json
import re
from decimal import Decimal
from fractions import Fraction
from itertools import compress, repeat
from math import gcd
from typing import Iterable, Sequence

from .errors import ParseError

__all__ = [
    "Scalar",
    "BOTTOM",
    "as_scalar",
    "reduced",
    "parse_pairs",
    "format_pair",
]

# A max-plus scalar: a finite exact rational, or None for -inf.
Scalar = Fraction | None

BOTTOM: Scalar = None

# A finite scalar as (numerator, denominator), denominator > 0; reduced once stored or returned.
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
        try:
            p = parse_pairs((x,))[x]
        except KeyError:
            raise malformed(x) from None
        return None if p is None else Fraction(*p)
    # floats are rejected: binary expansions are not what the text syntax
    # means by "2.5"
    raise TypeError(f"cannot build a tropical scalar from {type(x).__name__}")


def reduced(p: Pair) -> Pair:
    """A computed pair in lowest terms, its denominator kept positive."""
    g = gcd(*p)
    return p if g == 1 else (p[0] // g, p[1] // g)


# Longest digit run a token may hold. Far below Python's 4300-digit limit on
# int/str conversion, and checked before any digits are converted.
MAX_DIGITS = 100

# The README grammar: an optionally negative integer, decimal or fraction.
# No capture group: `_TOKENS` repeats it, where groups would cost ~4x.
_GRAMMAR = rf"-?\d{{1,{MAX_DIGITS}}}(?:[./]\d{{1,{MAX_DIGITS}}})?"
_TOKEN = re.compile(_GRAMMAR, re.ASCII)
# Tokens joined by single spaces; `parse_pairs` counts the spaces, since a
# token of its own may hold one (`str.split` tokens hold none).
_TOKENS = re.compile(rf"{_GRAMMAR}(?: {_GRAMMAR})*", re.ASCII)
# Tokens per `_TOKENS` match: the engine's backtracking state grows by about
# 0.5 KB per token matched, so one match over a whole 200x200 file would
# triple the parse's peak memory.
_CHUNK = 256


def malformed(token: str, line: int | None = None, column: int | None = None) -> ParseError:
    """The error for a token that `parse_pairs` leaves out."""
    return ParseError(f"malformed scalar token {token!r}", line, column)


def parse_pairs(tokens: Iterable[str]) -> dict[str, Pair | None]:
    """Each distinct token the README grammar accepts, mapped to its reduced pair; a rejected token is left out.

    Every token is checked against the grammar, in space-joined chunks,
    before any digit is converted; only in a chunk that fails, or whose
    tokens hold a space of their own, is each token checked alone, and
    the malformed ones are left out. Then, a chunk at a time, integers go
    through one pass of `_ints`; fractions, and decimals `w.f` as the
    fractions `wf/10^len(f)`, have their digits read by `_ints` and go
    through one `gcd` pass, dividing only where the gcd exceeds 1, and
    those with denominator 0 are left out.
    """
    memo = dict.fromkeys(tokens)  # None is already `-inf`'s value
    todo = list(memo)  # a copy and one remove take a quarter of a filtering comprehension's time
    if "-inf" in memo:
        todo.remove("-inf")
    chunks = [todo[k : k + _CHUNK] for k in range(0, len(todo), _CHUNK)]
    for c, chunk in enumerate(chunks):
        joined = " ".join(chunk)
        if joined.count(" ") != len(chunk) - 1 or _TOKENS.fullmatch(joined) is None:
            chunks[c] = [t for t in chunk if _TOKEN.fullmatch(t)]
            for t in set(chunk).difference(chunks[c]):
                del memo[t]
    for chunk in chunks:
        fractions = [t for t in chunk if "/" in t]
        rest = [t for t in chunk if "/" not in t]
        integers = [t for t in rest if "." not in t]
        decimals = [t for t in rest if "." in t]
        halves = _ints(",".join(fractions).replace("/", ","))
        nums, dens = halves[::2], halves[1::2]
        if decimals:  # a decimal w.f is the fraction wf/10^len(f)
            nums += _ints(",".join(decimals).replace(".", ""))
            dens += [10 ** len(t.partition(".")[2]) for t in decimals]
            fractions += decimals
        pairs = list(zip(nums, dens))
        gcds = list(map(gcd, nums, dens))
        # skips gcd 0, which only 0/0 has; every n/0 is left out below
        for k in compress(range(len(gcds)), map((1).__lt__, gcds)):
            pairs[k] = nums[k] // gcds[k], dens[k] // gcds[k]
        memo.update(zip(fractions, pairs))
        for t in compress(fractions, map((0).__eq__, dens)):
            del memo[t]
        memo.update(zip(integers, zip(_ints(",".join(integers)), repeat(1))))
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


def format_pairs(pairs: Sequence[Pair | None], bottom: str = "-inf") -> list[str]:
    """The token of each reduced pair n/d, d > 0, in full, and `bottom` for None: the one token rule.

    A pair is written `n` when d == 1 and `n/d` otherwise. A batch with a part past Python's
    int/str digit limit is written again on `Decimal`s, which convert any int exactly.
    """
    try:
        return [bottom if p is None else str(p[0]) if p[1] == 1 else f"{p[0]}/{p[1]}" for p in pairs]
    except ValueError:
        return format_pairs([None if p is None else (Decimal(p[0]), Decimal(p[1])) for p in pairs], bottom)


def format_pair(n: int, d: int) -> str:
    """Canonical token for the reduced fraction n/d, d > 0, in full, by `format_pairs`."""
    return format_pairs(((n, d),))[0]
