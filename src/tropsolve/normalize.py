"""Column-mean normalization of a max-plus system: the paper's route.

Given A (m x n) and a regular b, every column of A is shifted classically
by the negative of its column mean, and b by the negative of its mean.
The associated grid Q with q_ij = b~_i - a~_ij holds, in its column
minima, the largest admissible values of the transformed unknowns, and
the rows attaining them decide solvability.

q_ij = (b_i - a_ij) + mean_j - b_mean, so Q's column minima are plain
residuation shifted by mean_j - b_mean, attained in the same rows.
`normalize` reads them from the solver's kernel `solver.residuate`, as
`solve` does unshifted, and builds Q only for the report. This is the
only module that knows the means: it materialises the grid for the
`normalize` report and shifts `solve`'s x* into the normalized y* for the
`solve` report.

Means are taken over the finite entries of a column only; positions where
the matrix entry is -inf hold None in Q and are never a column minimum.
`column_mean` sums integer numerators per distinct denominator; A~, b~
and Q are plain `Fraction` grids, as the report prints them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import DegenerateColumnError, DimensionError, RegularityError
from .matrix import TropMatrix, TropVector, is_regular
from .scalar import BOTTOM, Scalar, as_pairs
from .solver import mask_rows, residuate

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
    (`solve` handles systems violating either).
    """
    if a.rows != len(b):
        raise DimensionError(f"matrix has {a.rows} rows but vector has {len(b)} entries")
    if not is_regular(b):
        raise RegularityError("b is not regular; preprocess the system to remove -inf equations")
    b_mean = column_mean(b)
    b_pairs = as_pairs(b)
    means = []
    minima = []
    argmins = []
    for j, col in enumerate(zip(*a.row_tuples())):
        try:
            mean = column_mean(col)
        except DegenerateColumnError:
            raise DegenerateColumnError(f"degenerate column {j + 1}: every entry is -inf") from None
        # b is regular and the column has a finite entry, so the least slack exists
        mask, least = residuate(as_pairs(col), b_pairs)
        means.append(mean)
        minima.append(Fraction(*least) + mean - b_mean)
        argmins.append(frozenset(mask_rows(mask)))

    a_tilde_rows = []
    b_tilde = []
    q_rows = []
    for i in range(a.rows):
        bt = b[i] - b_mean
        b_tilde.append(bt)
        at_row = []
        q_row = []
        for j in range(a.cols):
            e = a.entry(i, j)
            if e is None:
                at_row.append(BOTTOM)
                q_row.append(None)
            else:
                shifted = e - means[j]
                at_row.append(shifted)
                q_row.append(bt - shifted)
        a_tilde_rows.append(at_row)
        q_rows.append(tuple(q_row))

    return NormalizationResult(
        a_tilde=TropMatrix(a_tilde_rows),
        col_means=tuple(means),
        b_tilde=TropVector(b_tilde),
        b_mean=b_mean,
        q=tuple(q_rows),
        column_minima=TropVector(minima),
        argmin_rows=tuple(argmins),
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
