"""Column-mean normalization of a max-plus system: the paper's route.

Given A (m x n) and a regular b, every column of A is shifted classically
by the negative of its column mean, and b by the negative of its mean.
The associated grid Q with q_ij = b~_i - a~_ij holds, in its column
minima, the largest admissible values of the transformed unknowns, and
the rows attaining them decide solvability.

q_ij = (b_i - a_ij) + mean_j - b_mean, so Q's column minima are plain
residuation shifted by mean_j - b_mean, attained in the same rows.
`normalize` reads them from `solve`: its x* shifted, and its coverage
transposed; Q is built only for the report. This is the only module that
knows the means: it materialises the grid for the `normalize` report and
shifts `solve`'s x* into the normalized y* for the `solve` report.

Means are taken over the finite entries of a column only; positions where
the matrix entry is -inf hold None in Q and are never a column minimum.
`column_mean` sums integer numerators per distinct denominator; A~, b~
and Q are plain `Fraction` grids, as the report prints them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import DegenerateColumnError, RegularityError
from .matrix import TropMatrix, TropVector, is_regular
from .scalar import BOTTOM, Scalar, as_pairs
from .solver import solve

__all__ = ["NormalizationResult", "column_mean", "normalize", "normalized_solution"]

# None marks a -inf matrix entry (rendered as +inf-).
QGrid = tuple[tuple[Fraction | None, ...], ...]


@dataclass(frozen=True)
class NormalizationResult:
    """Normalized system data: A~, column means, b~, mean of b, Q and its column minima."""

    a_tilde: TropMatrix
    col_means: tuple[Fraction, ...]
    b_tilde: TropVector
    b_mean: Fraction
    q: QGrid
    column_minima: TropVector
    argmin_rows: tuple[frozenset[int], ...]


def column_mean(col: Iterable[Scalar]) -> Fraction:
    """Classical mean of the finite entries of a column.

    The denominator is the number of finite entries, so -inf positions do
    not participate at all. Numerators are summed per distinct
    denominator, so only one `Fraction` is added per denominator.
    """
    sums: dict[int, int] = {}
    count = 0
    for n, d in as_pairs(e for e in col if e is not None):
        sums[d] = sums.get(d, 0) + n
        count += 1
    if not count:
        raise DegenerateColumnError("degenerate column: every entry is -inf")
    return sum((Fraction(n, d) for d, n in sums.items()), Fraction(0)) / count


def normalize(a: TropMatrix, b: TropVector) -> NormalizationResult:
    """Build the normalized system, its associated grid Q and Q's column minima.

    Requires a regular b and at least one finite entry per column of `a`
    (`solve` handles systems violating either). The minima are `solve`'s
    x*_j + mean_j - b_mean, attained in the rows its coverage lists.
    """
    outcome = solve(a, b)  # raises the shape error, which is reported before the others
    if not is_regular(b):
        raise RegularityError("b is not regular; preprocess the system to remove -inf equations")
    b_mean = column_mean(b)
    means = []
    for j, col in enumerate(zip(*a.row_tuples())):
        try:
            means.append(column_mean(col))
        except DegenerateColumnError:
            raise DegenerateColumnError(f"degenerate column {j + 1}: every entry is -inf") from None
    a_tilde = [[BOTTOM if e is None else e - m for e, m in zip(r, means)] for r in a.row_tuples()]
    b_tilde = [e - b_mean for e in b]
    # lists first: tuple(<genexpr>) grows by resizing, stranding tuples in CPython's free lists (peak RSS)
    q = tuple([tuple([None if e is None else bt - e for e in r]) for bt, r in zip(b_tilde, a_tilde)])
    return NormalizationResult(
        a_tilde=TropMatrix(a_tilde),
        col_means=tuple(means),
        b_tilde=TropVector(b_tilde),
        b_mean=b_mean,
        q=q,
        # b is regular and no column is all -inf, so every x*_j is finite
        column_minima=TropVector(x + m - b_mean for x, m in zip(outcome.x_star, means)),
        argmin_rows=tuple(
            frozenset(i for i, cols in enumerate(outcome.coverage) if j in cols) for j in range(a.cols)
        ),
    )


def normalized_solution(a: TropMatrix, b: TropVector, x_star: TropVector) -> TropVector:
    """Shift a solution of A x = b to normalized coordinates: y*_j = x*_j + mean_j - b_mean.

    Both means are over finite entries, and y*_j is -inf where x*_j is.
    For `solve`'s x* of a system `normalize` accepts, y* is Q's column
    minima. A finite x*_j implies a finite entry in column j and in b.
    """
    b_mean = None if all(e is None for e in b) else column_mean(b)
    return TropVector(
        BOTTOM if xj is None else xj + column_mean(col) - b_mean
        for xj, col in zip(x_star, zip(*a.row_tuples()))
    )
