"""Column and row rank of a max-plus matrix by iterative dependence scans.

Each column, scanned from the last to the first, is tested for linear
dependence on the other surviving columns, in index order, by solving a
max-plus system with that column as the right-hand side. Dependent
columns leave the working set; independent ones stay. Every finally
independent column is in the working set at every test, and residuation
fixes each coefficient from its own column alone, so a dependent
column's maximal combination over the final independent set is read
off its verdict solve. Row rank is the column rank of the transpose.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from .errors import DimensionError
from .matrix import TropMatrix, TropVector, mat_vec, transpose
from .scalar import BOTTOM, Scalar, trop_add, trop_mul
from .solver import Solvable, solve

__all__ = ["Dependence", "RankReport", "colrank", "rowrank", "dependence_oracle"]


@dataclass(frozen=True)
class Dependence:
    """A column reproduced exactly as max over (independent column + coefficient)."""

    col: int
    combination: tuple[tuple[int, Fraction], ...]  # (index, finite coefficient)


@dataclass(frozen=True)
class RankReport:
    axis: str  # "columns" | "rows"
    independent: tuple[int, ...]  # original indices, in discovery order
    dependent: tuple[Dependence, ...]  # ascending by index
    rank: int
    scan_trace: tuple[tuple[int, str], ...]  # (index, "dependent" | "independent")


def colrank(a: TropMatrix, scan_order: Sequence[int] | None = None) -> RankReport:
    """Scan for independent columns and the dependences of the rest.

    `scan_order` gives the order in which columns are tested (0-based,
    a permutation of all columns); the default tests the last column
    first, down to the first. Columns with no finite entry are removed
    up front as dependent with an empty combination.

    Each recorded dependence combines the final independent columns with
    the maximal coefficients, so it reproduces the column exactly.
    """
    n = a.cols
    if scan_order is None:
        order = list(range(n - 1, -1, -1))
    else:
        order = list(scan_order)
        if sorted(order) != list(range(n)):
            raise ValueError(f"scan order must be a permutation of 0..{n - 1}")

    cols = [a.column(j) for j in range(n)]
    bottom_cols = [j for j in range(n) if all(e is None for e in cols[j])]
    trace: list[tuple[int, str]] = [(j, "dependent") for j in bottom_cols]

    surviving = [j for j in range(n) if j not in bottom_cols]  # index order
    untested = set(surviving)
    discovery: list[int] = []
    verdicts: dict[int, dict[int, Scalar]] = {}  # dependent -> its solve's x*, by column
    for target in order:
        if target not in untested:
            continue
        untested.discard(target)
        working = [j for j in surviving if j != target]
        outcome = None
        if working:
            outcome = solve(TropMatrix.from_columns([cols[j] for j in working]), cols[target])
        if isinstance(outcome, Solvable):
            trace.append((target, "dependent"))
            surviving.remove(target)
            verdicts[target] = dict(zip(working, outcome.x_star))
        else:
            trace.append((target, "independent"))
            discovery.append(target)

    basis = surviving  # after the scan: the independent columns, in index order
    combinations = {j: () for j in bottom_cols}
    if verdicts:
        span = TropMatrix.from_columns([cols[k] for k in basis])
        for j, x_star in verdicts.items():
            coeffs = TropVector(x_star[k] for k in basis)
            if mat_vec(span, coeffs) != cols[j]:
                raise AssertionError("internal error: dependent column not spanned by the independent set")
            combinations[j] = tuple((k, c) for k, c in zip(basis, coeffs) if c is not None)

    return RankReport(
        axis="columns",
        independent=tuple(discovery),
        dependent=tuple(Dependence(j, combinations[j]) for j in sorted(combinations)),
        rank=len(discovery),
        scan_trace=tuple(trace),
    )


def rowrank(a: TropMatrix, scan_order: Sequence[int] | None = None) -> RankReport:
    """Row rank as the column rank of the transpose; indices are row indices."""
    return replace(colrank(transpose(a), scan_order), axis="rows")


def dependence_oracle(
    cols: Sequence[TropVector], target: TropVector
) -> list[Scalar] | None:
    """Residuation-based dependence test, independent of the solver path.

    For each column, the candidate coefficient is the least slack
    min_i (target_i - col_i) over rows where the column is finite (and
    -inf when the column must not contribute). Returns the coefficients
    iff their max-combination reproduces the target exactly.
    """
    m = len(target)
    if any(len(c) != m for c in cols):
        raise DimensionError("columns and target must have the same length")
    lambdas: list[Scalar] = []
    for col in cols:
        finite_rows = [i for i in range(m) if col[i] is not None]
        if not finite_rows or any(target[i] is None for i in finite_rows):
            lambdas.append(BOTTOM)
            continue
        lambdas.append(min(target[i] - col[i] for i in finite_rows))
    for i in range(m):
        acc = BOTTOM
        for col, lam in zip(cols, lambdas):
            acc = trop_add(acc, trop_mul(col[i], lam))
        if acc != target[i]:
            return None
    return lambdas
