"""Dense matrices and vectors over the max-plus scalars.

Shapes are fixed at construction and entries are immutable. Every entry
is a `Fraction` or None (-inf). The constructors coerce every entry with
`as_scalar` and check the shape; `parse_matrix` alone skips that, through
the private `_of` constructor of `TropMatrix`, whose docstring says why.
Indexing is 0-based throughout the library; only rendered reports use
1-based indices. `row_maxima` is the one max-plus product loop: it works
on exact integer (numerator, denominator) pairs and returns each row's
maximum unreduced. `mat_vec`, which every solve's self-check runs, wraps
it and builds one reduced `Fraction` per output entry; the rank scan's
self-check calls it on pairs directly. `parse_matrix` and `parse_vector`
parse each distinct token text once per call and share its scalar
between the cells that spell it; nothing is cached across calls.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DimensionError, ParseError
from .scalar import BOTTOM, Pair, Scalar, as_pairs, as_scalar, format_scalar, parse_scalar

__all__ = [
    "TropMatrix",
    "TropVector",
    "mat_vec",
    "submatrix",
    "is_regular",
    "parse_matrix",
    "parse_vector",
    "format_matrix",
    "format_vector",
]


class TropVector:
    """A vector of max-plus scalars, possibly empty."""

    __slots__ = ("_entries",)

    def __init__(self, entries: Iterable):
        # list first: tuple(<genexpr>) grows by resizing, stranding tuples in CPython's free lists (peak RSS)
        self._entries = tuple([as_scalar(e) for e in entries])

    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, i: int) -> Scalar:
        return self._entries[i]

    def __iter__(self):
        return iter(self._entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TropVector):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        return hash(self._entries)

    def __repr__(self) -> str:
        return "TropVector(" + ", ".join(format_scalar(e) for e in self._entries) + ")"


class TropMatrix:
    """A dense m x n matrix of max-plus scalars, m, n >= 0; a matrix with no rows has no columns."""

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[Iterable]):
        # lists first: tuple(<genexpr>) grows by resizing, stranding tuples in CPython's free lists (peak RSS)
        self._rows = tuple([tuple([as_scalar(e) for e in r]) for r in rows])
        if len({len(r) for r in self._rows}) > 1:
            raise DimensionError("matrix rows must all have the same length")

    @classmethod
    def _of(cls, rows: tuple[tuple[Scalar, ...], ...]) -> TropMatrix:
        """A matrix on `parse_matrix`'s rows, tuples of one width of scalars, taken as they are.

        Coercing them again adds about a fifth to parsing: 1.1 of 4.3 ms on a
        100x100 file (denominators <= 5; Python 3.11, 2-CPU host).
        """
        m = cls.__new__(cls)
        m._rows = rows
        return m

    @property
    def rows(self) -> int:
        return len(self._rows)

    @property
    def cols(self) -> int:
        return len(self._rows[0]) if self._rows else 0

    def entry(self, i: int, j: int) -> Scalar:
        return self._rows[i][j]

    def row(self, i: int) -> TropVector:
        if not 0 <= i < self.rows:
            raise IndexError(f"row index {i} out of range for {self.rows} rows")
        return TropVector(self._rows[i])

    def column(self, j: int) -> TropVector:
        if not 0 <= j < self.cols:
            raise IndexError(f"column index {j} out of range for {self.cols} columns")
        return TropVector(r[j] for r in self._rows)

    def row_tuples(self) -> tuple[tuple[Scalar, ...], ...]:
        return self._rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TropMatrix):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        return f"TropMatrix({self.rows}x{self.cols})"


def mat_vec(a: TropMatrix, x: TropVector) -> TropVector:
    """Apply a matrix to a column vector under max-plus."""
    if a.cols != len(x):
        raise DimensionError(f"matrix has {a.cols} columns but vector has {len(x)} entries")
    best = row_maxima(a.row_tuples(), as_pairs(x))
    return TropVector([BOTTOM if p is None else Fraction(*p) for p in best])


def row_maxima(rows: Iterable[Sequence[Scalar]], x_pairs: Sequence[Pair | None]) -> list[Pair | None]:
    """Per row, the greatest a_ik + x_k as an unreduced pair (num, den > 0); None if every term is -inf.

    The one max-plus product loop: `mat_vec` and the rank scan's self-check
    both run it. Entries are read through `as_integer_ratio` in place.
    """
    out = []
    for r in rows:
        best_n = best_d = None
        for e, xp in zip(r, x_pairs):
            if e is None or xp is None:
                continue
            na, da = e.as_integer_ratio()
            nx, dx = xp
            pn, pd = na * dx + nx * da, da * dx
            if best_d is None or pn * best_d > best_n * pd:
                best_n, best_d = pn, pd
        out.append(None if best_d is None else (best_n, best_d))
    return out


def submatrix(a: TropMatrix, rows: Sequence[int], cols: Sequence[int]) -> TropMatrix:
    """The entries at the given row and column indices, in the given order."""
    if cols and not rows:
        raise DimensionError("a matrix with no rows has no columns")
    for kind, indices, size in (("row", rows, a.rows), ("column", cols, a.cols)):
        bad = next((k for k in indices if not 0 <= k < size), None)
        if bad is not None:
            raise IndexError(f"{kind} index {bad} out of range for {size} {kind}s")
    return TropMatrix([a.entry(i, j) for j in cols] for i in rows)


def is_regular(v: TropVector) -> bool:
    """True iff the vector has no -inf entry."""
    return all(e is not None for e in v)


# ---------------------------------------------------------------------------
# Text formats. Matrix files: `#` comment lines, one row per line,
# whitespace-separated scalar tokens. Vector files: one scalar per line, or
# all entries on a single line. Lines end at \n, \r\n or \r only.
# parse -> format -> parse is the identity.
# Each parse call keeps a memo from token text (not value: `2.5` and `5/2`
# are separate keys) to its scalar, and drops it when the call returns; a
# bad token is reported at the line and column of its first occurrence.


def _data_lines(text: str):
    # not str.splitlines: it also breaks at \v, \f, \x1c-\x1e, \x85, U+2028 and U+2029
    for lineno, raw in enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield lineno, raw


def _parse_tokens(lineno: int, raw: str, memo: dict[str, Scalar]) -> list[Scalar]:
    entries = []
    for token in raw.split():
        if token not in memo:
            try:
                memo[token] = parse_scalar(token)
            except ParseError as exc:
                raise ParseError(str(exc), line=lineno, column=_column(raw, token)) from None
        entries.append(memo[token])
    return entries


def _column(raw: str, token: str) -> int:
    """1-based column of `token`'s first occurrence in `raw.split()`, which must hold it."""
    pos = 0
    for t in raw.split():
        start = raw.index(t, pos)
        if t == token:
            return start + 1
        pos = start + len(t)


def parse_matrix(text: str) -> TropMatrix:
    rows = []
    width = None
    first_lineno = None
    memo: dict[str, Scalar] = {}
    for lineno, raw in _data_lines(text):
        entries = _parse_tokens(lineno, raw, memo)
        if width is None:
            width, first_lineno = len(entries), lineno
        elif len(entries) != width:
            raise ParseError(
                f"row has {len(entries)} entries but row at line {first_lineno} has {width}",
                line=lineno,
            )
        rows.append(tuple(entries))
    if not rows:
        raise ParseError("no matrix rows found")
    return TropMatrix._of(tuple(rows))


def parse_vector(text: str) -> TropVector:
    memo: dict[str, Scalar] = {}
    lines = [(lineno, _parse_tokens(lineno, raw, memo)) for lineno, raw in _data_lines(text)]
    if not lines:
        raise ParseError("no vector entries found")
    if all(len(entries) == 1 for _, entries in lines):
        return TropVector([entries[0] for _, entries in lines])
    if len(lines) == 1:
        return TropVector(lines[0][1])
    bad = next(lineno for lineno, entries in lines if len(entries) != 1)
    raise ParseError("vector must be one scalar per line or a single line", line=bad)


def format_matrix(a: TropMatrix) -> str:
    return "\n".join(" ".join(format_scalar(e) for e in r) for r in a.row_tuples()) + "\n"


def format_vector(v: TropVector) -> str:
    return "\n".join(format_scalar(e) for e in v) + "\n"
