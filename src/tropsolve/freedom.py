"""Degrees of freedom of a solvable system.

Works on the row coverage of the outcome `solve` returns: column j covers
row i when the j-th column minimum lies in row i. Rows with b_i = -inf
hold no column minimum and take no part; the trace names the other rows
by their index in A. Leading variables are chosen by the descriptive
procedure: first every column that is the unique cover of some row, then
greedily the column covering the most remaining rows. The number of
degrees of freedom is n minus the number of leading variables. An
exhaustive minimum-cover oracle is provided for testing the greedy step
on small instances.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .errors import SizeBoundError, UnsolvableSystemError
from .solver import SolveOutcome, Unsolvable

__all__ = ["DofStep", "DofReport", "degrees_of_freedom", "minimal_leading_oracle"]


class DofStep(NamedTuple):
    rule: str  # "singleton" | "greedy"
    chosen_col: int
    removed_rows: tuple[int, ...]


class DofReport(NamedTuple):
    leading_cols: tuple[int, ...]  # in choice order
    free_cols: tuple[int, ...]  # ascending
    d_f: int
    trace: tuple[DofStep, ...]


def _cover_sets(outcome: SolveOutcome, n: int) -> dict[int, frozenset[int]]:
    """The covered rows of a solvable outcome, keyed by their index in A."""
    if isinstance(outcome, Unsolvable):
        raise UnsolvableSystemError("system unsolvable: a row holds no column minimum")
    # in a Solvable the uncovered rows are exactly those with b_i = -inf
    sets = {i: frozenset(cols) for i, cols in enumerate(outcome.coverage) if cols}
    for rowcov in sets.values():
        if any(j < 0 or j >= n for j in rowcov):
            raise ValueError(f"column index out of range for n={n}")
    return sets


def degrees_of_freedom(outcome: SolveOutcome) -> DofReport:
    """Run the descriptive leading-variable procedure on `solve`'s outcome.

    Only the covered rows take part: in a solvable system those are the
    rows with a finite b_i. The trace names rows by their index in A; an
    `Unsolvable` raises `UnsolvableSystemError`.

    Singleton rows are processed first in ascending row order; then the
    greedy step repeatedly picks the column covering the most remaining
    rows, breaking ties toward the lowest column index.
    """
    n = len(outcome.x_star)
    sets = _cover_sets(outcome, n)

    remaining = set(sets)
    leading: list[int] = []
    trace: list[DofStep] = []

    def choose(rule: str, col: int) -> None:
        removed = tuple(sorted(r for r in remaining if col in sets[r]))
        remaining.difference_update(removed)
        leading.append(col)
        trace.append(DofStep(rule, col, removed))

    for r, rowcov in sets.items():
        if r in remaining and len(rowcov) == 1:
            choose("singleton", *rowcov)

    while remaining:
        freq: dict[int, int] = {}
        for r in remaining:
            for col in sets[r]:
                freq[col] = freq.get(col, 0) + 1
        best = max(freq.values())
        choose("greedy", min(col for col, c in freq.items() if c == best))

    free = tuple(j for j in range(n) if j not in leading)
    return DofReport(tuple(leading), free, n - len(leading), tuple(trace))


def minimal_leading_oracle(outcome: SolveOutcome) -> tuple[int, tuple[int, ...]]:
    """Exact minimum number of columns covering every covered row, by enumeration.

    Subsets are tried in increasing size, so the first cover found is
    minimum; returns (size, one witness subset). Refuses more than 20
    columns, before it looks at solvability.
    """
    n = len(outcome.x_star)
    if n > 20:
        raise SizeBoundError(f"exhaustive cover search limited to 20 columns, got {n}")
    sets = list(_cover_sets(outcome, n).values())
    candidates = sorted(set().union(*sets))
    for size in range(0, len(candidates) + 1):
        for subset in combinations(candidates, size):
            chosen = set(subset)
            if all(rowcov & chosen for rowcov in sets):
                return size, subset
    raise AssertionError("unreachable: the full candidate set always covers")
