"""Dense matrices and vectors over the max-plus scalars.

Shapes are fixed at construction and entries are immutable. Every entry
is a `Fraction` or None (-inf) to the caller. Vectors and matrices store
the same form: reduced (numerator, denominator) pairs, denominator
positive, None for -inf, which the kernels read through
`TropVector.pairs` and `TropMatrix.pair_rows`; `Fraction`s are built
only when asked. Both classes compare and hash on the stored pairs and
share one private constructor from pairs, `_of`, which the parsers, the
kernels, `row`, `column` and `submatrix` use; the public constructors
coerce every entry with `as_scalar` and check the shape.
Indexing is 0-based throughout the library, and an index out of range
raises `IndexError`, a negative one too; only rendered reports use
1-based indices. `row_maxima` is the one max-plus product loop: it
compares unreduced pairs and returns each row's maximum reduced once.
`mat_vec`, which every solve's self-check runs, wraps its list in a
vector; the rank scan's self-check calls it on pairs directly.
`parse_matrix` and `parse_vector` hand a file's distinct token texts to
`scalar.parse_pairs` in one batch and build each row by lookup, so the
cells that spell one token share its value; nothing is cached across
calls.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import Iterable, Sequence

from .errors import DimensionError, ParseError
from .scalar import Pair, PairGrid, Scalar, as_scalar, format_pairs, malformed, parse_pairs, reduced

__all__ = [
    "TropMatrix",
    "TropVector",
    "mat_vec",
    "submatrix",
    "is_regular",
    "parse_matrix",
    "parse_vector",
]


def _pair(e) -> Pair | None:
    """A public entry, coerced by `as_scalar`, as its reduced pair."""
    s = as_scalar(e)
    return None if s is None else s.as_integer_ratio()


def _scalar(p: Pair | None) -> Scalar:
    return None if p is None else Fraction(*p)


class _Stored:
    """The storage vectors and matrices share: reduced pairs, compared and hashed as stored."""

    __slots__ = ("_pairs",)

    @classmethod
    def _of(cls, pairs):
        """An instance on stored pairs taken as they are: reduced, and for a matrix rows of one width."""
        obj = cls.__new__(cls)
        obj._pairs = pairs
        return obj

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._pairs == other._pairs

    def __hash__(self) -> int:
        return hash(self._pairs)


class TropVector(_Stored):
    """A vector of max-plus scalars, possibly empty."""

    __slots__ = ()

    def __init__(self, entries: Iterable):
        # list first: tuple(<genexpr>) grows by resizing, stranding tuples in CPython's free lists (peak RSS)
        self._pairs = tuple([_pair(e) for e in entries])

    def __len__(self) -> int:
        return len(self._pairs)

    def __getitem__(self, i: int) -> Scalar:
        if isinstance(i, slice):
            return tuple(map(_scalar, self._pairs[i]))
        if not 0 <= i < len(self._pairs):
            raise IndexError(f"index {i} out of range for {len(self._pairs)} entries")
        return _scalar(self._pairs[i])

    def __iter__(self):
        return map(_scalar, self._pairs)

    def pairs(self) -> tuple[Pair | None, ...]:
        """The stored reduced pairs (denominator > 0) and None."""
        return self._pairs

    def __repr__(self) -> str:
        return "TropVector(" + ", ".join(format_pairs(self._pairs)) + ")"


class TropMatrix(_Stored):
    """A dense m x n matrix of max-plus scalars, m, n >= 0; a matrix with no rows has no columns."""

    __slots__ = ()

    def __init__(self, rows: Iterable[Iterable]):
        # lists first: tuple(<genexpr>) grows by resizing, stranding tuples in CPython's free lists (peak RSS)
        self._pairs = tuple([tuple([_pair(e) for e in r]) for r in rows])
        if len({len(r) for r in self._pairs}) > 1:
            raise DimensionError("matrix rows must all have the same length")

    @property
    def rows(self) -> int:
        return len(self._pairs)

    @property
    def cols(self) -> int:
        return len(self._pairs[0]) if self._pairs else 0

    def entry(self, i: int, j: int) -> Scalar:
        self._check("row", i, self.rows)
        self._check("column", j, self.cols)
        return _scalar(self._pairs[i][j])

    def row(self, i: int) -> TropVector:
        self._check("row", i, self.rows)
        return TropVector._of(self._pairs[i])

    def column(self, j: int) -> TropVector:
        self._check("column", j, self.cols)
        return TropVector._of(tuple([r[j] for r in self._pairs]))

    @staticmethod
    def _check(kind: str, k: int, size: int) -> None:
        if not 0 <= k < size:
            raise IndexError(f"{kind} index {k} out of range for {size} {kind}s")

    def row_tuples(self) -> tuple[tuple[Scalar, ...], ...]:
        """The entries as rows of `Fraction`s and None, built on each call, one per distinct pair."""
        memo = {p: _scalar(p) for p in set().union(*self._pairs)}
        return tuple([tuple(map(memo.__getitem__, r)) for r in self._pairs])

    def pair_rows(self) -> PairGrid:
        """The stored rows of reduced pairs (denominator > 0) and None."""
        return self._pairs

    def __repr__(self) -> str:
        return f"TropMatrix({self.rows}x{self.cols})"


def mat_vec(a: TropMatrix, x: TropVector) -> TropVector:
    """Apply a matrix to a column vector under max-plus."""
    if a.cols != len(x):
        raise DimensionError(f"matrix has {a.cols} columns but vector has {len(x)} entries")
    return TropVector._of(tuple(row_maxima(a.pair_rows(), x.pairs())))


def row_maxima(rows: Iterable[Sequence[Pair | None]], x_pairs: Sequence[Pair | None]) -> list[Pair | None]:
    """Per row of pairs, the greatest a_ik + x_k as a reduced pair (num, den > 0); None if every term is -inf.

    The one max-plus product loop: `mat_vec` and the rank scan's self-check
    both run it.
    """
    out = []
    for r in rows:
        best_n = best_d = None
        for ap, xp in zip(r, x_pairs):
            if ap is None or xp is None:
                continue
            na, da = ap
            nx, dx = xp
            pn, pd = na * dx + nx * da, da * dx
            if best_d is None or pn * best_d > best_n * pd:
                best_n, best_d = pn, pd
        out.append(None if best_d is None else reduced((best_n, best_d)))
    return out


def submatrix(a: TropMatrix, rows: Sequence[int], cols: Sequence[int]) -> TropMatrix:
    """The entries at the given row and column indices, in the given order."""
    if cols and not rows:
        raise DimensionError("a matrix with no rows has no columns")
    for kind, indices, size in (("row", rows, a.rows), ("column", cols, a.cols)):
        for k in indices:
            a._check(kind, k, size)
    pairs = a.pair_rows()
    return TropMatrix._of(tuple([tuple([pairs[i][j] for j in cols]) for i in rows]))


def is_regular(v: TropVector) -> bool:
    """True iff the vector has no -inf entry."""
    return None not in v.pairs()


# ---------------------------------------------------------------------------
# Text formats. Matrix files: `#` comment lines, one row per line,
# whitespace-separated scalar tokens. Vector files: one scalar per line, or
# all entries on a single line. Lines end at \n, \r\n or \r only.
# Writing each entry back with `format_pair` and parsing again is the identity.
# Each parse call maps every distinct token text (not value: `2.5` and `5/2`
# are separate keys) to its pair and drops the map when it returns. A token
# missing from the map is malformed; the first in line order is reported at
# the line and column of its first occurrence.


# A data line: its 1-based number, its text and its tokens.
Line = tuple[int, str, list[str]]


def _data_lines(text: str) -> list[Line]:
    # not str.splitlines: it also breaks at \v, \f, \x1c-\x1e, \x85, U+2028 and U+2029
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return [(lineno, raw, raw.split()) for lineno, raw in enumerate(lines, start=1) if raw.strip()[:1] not in ("", "#")]


def _token_memo(lines: list[Line]) -> dict[str, Pair | None]:
    return parse_pairs(chain.from_iterable(tokens for _, _, tokens in lines))


def _entries(lineno: int, raw: str, tokens: list[str], memo: dict) -> tuple:
    """The line's values by lookup; a token missing from `memo` is reported where it first occurs."""
    try:
        # list first: tuple(<map>) grows by resizing, stranding tuples in CPython's free lists (peak RSS)
        return tuple(list(map(memo.__getitem__, tokens)))
    except KeyError as missing:
        token = missing.args[0]
        raise malformed(token, line=lineno, column=_column(raw, token)) from None


def _column(raw: str, token: str) -> int:
    """1-based column of `token`'s first occurrence in `raw.split()`, which must hold it."""
    pos = 0
    for t in raw.split():
        start = raw.index(t, pos)
        if t == token:
            return start + 1
        pos = start + len(t)


def parse_matrix(text: str) -> TropMatrix:
    lines = _data_lines(text)
    memo = _token_memo(lines)
    rows = []
    for lineno, raw, tokens in lines:
        row = _entries(lineno, raw, tokens, memo)
        if rows and len(row) != len(rows[0]):
            raise ParseError(
                f"row has {len(row)} entries but row at line {lines[0][0]} has {len(rows[0])}",
                line=lineno,
            )
        rows.append(row)
    if not rows:
        raise ParseError("no matrix rows found")
    return TropMatrix._of(tuple(rows))


def parse_vector(text: str) -> TropVector:
    data = _data_lines(text)
    memo = _token_memo(data)
    lines = [(lineno, _entries(lineno, raw, tokens, memo)) for lineno, raw, tokens in data]
    if not lines:
        raise ParseError("no vector entries found")
    if all(len(entries) == 1 for _, entries in lines):
        return TropVector._of(tuple([entries[0] for _, entries in lines]))
    if len(lines) == 1:
        return TropVector._of(lines[0][1])
    bad = next(lineno for lineno, entries in lines if len(entries) != 1)
    raise ParseError("vector must be one scalar per line or a single line", line=bad)
