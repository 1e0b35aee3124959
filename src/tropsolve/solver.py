"""Solvability test and maximal solution for A x = b over max-plus.

One residuation pass over the columns gives x*_j = min_i (b_i - a_ij) and
the rows attaining it. These are the paper's column minima of the
normalized grid Q, shifted by b_mean - mean_j and attained in the same
rows; the shift and the grid belong to `normalize`, which reads x* and
the coverage from `solve`. The system is solvable iff every row with a
finite b_i attains some column's minimum; x* is then the maximal
solution, and the unattained rows otherwise witness unsolvability.

`residuate` is the one exact kernel for that step, shared by `solve`,
the rank scan, `reduce.expand_solution` and `check_equivalence`.
It runs on the integer pairs that matrices and vectors store
(`TropMatrix.pair_rows`, `TropVector.pairs`): each slack t_i - k_i is the
unreduced (n_t*d_k - n_k*d_t, d_t*d_k), slacks are compared by
cross-multiplication with no common denominator, and only the least is
reduced, once, for the callers to store. It has three outcomes: k has no
finite entry (None; `solve` calls such a column unbounded), a finite k_i
meets t_i = -inf (no slack; the coefficient is forced to -inf), or the
least slack with its rows as an int bitmask, which `mask_rows` lists.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .errors import DimensionError
from .matrix import TropMatrix, TropVector, mat_vec
from .scalar import Pair, reduced

__all__ = [
    "RowCoverage",
    "Solvable",
    "Unsolvable",
    "SolveOutcome",
    "solve",
    "check_equivalence",
]

# Per row, the sorted column indices whose minimum lies in that row. Rows
# with b_i = -inf, and rows no column reaches, have empty coverage.
RowCoverage = tuple[tuple[int, ...], ...]


class Solvable(NamedTuple):
    """Maximal solution plus the coverage data behind it.

    Entries of `x_star` at `unbounded` columns are stored as -inf but are
    really unconstrained: the column is all -inf, so any value solves the
    system and no finite cap exists.
    """

    x_star: TropVector
    coverage: RowCoverage
    forced_bottom: frozenset[int]
    unbounded: frozenset[int]


class Unsolvable(NamedTuple):
    """Witness rows: every row listed holds no column minimum of Q.

    `x_star` is still the principal vector, the greatest x with A x <= b
    (-inf at forced and all -inf columns); A x* misses b exactly at the
    witness rows.
    """

    witness_rows: tuple[int, ...]
    coverage: RowCoverage
    x_star: TropVector


SolveOutcome = Solvable | Unsolvable


def residuate(k_pairs: Sequence[Pair | None], t_pairs: Sequence[Pair | None]) -> tuple[int, Pair | None] | None:
    """Least slack t_i - k_i over the finite k_i, and the rows attaining it.

    Returns None when k has no finite entry, (0, None) when a finite k_i
    meets t_i = -inf, and otherwise (mask, (num, den)): the attaining rows
    as an int bitmask and the slack as a reduced pair with den > 0.
    """
    least_n, least_d, mask = 1, 0, 0  # 1/0 stands for +inf: every slack n/d, d > 0, is below it
    for i, kp in enumerate(k_pairs):
        if kp is None:
            continue
        tp = t_pairs[i]
        if tp is None:
            return 0, None
        nk, dk = kp
        nt, dt = tp
        sn, sd = nt * dk - nk * dt, dt * dk
        lhs, rhs = sn * least_d, least_n * sd
        if lhs < rhs:
            least_n, least_d, mask = sn, sd, 1 << i
        elif lhs == rhs:
            mask |= 1 << i
    return (mask, reduced((least_n, least_d))) if least_d else None


def mask_rows(mask: int) -> list[int]:
    """The rows a `residuate` mask names: its set bits, ascending."""
    rows = []
    while mask:
        low = mask & -mask
        rows.append(low.bit_length() - 1)
        mask ^= low
    return rows


def support_mask(pairs: Sequence[Pair | None]) -> int:
    """The rows of the finite entries of `pairs`, as an int bitmask; `mask_rows` lists them back."""
    return sum(1 << i for i, p in enumerate(pairs) if p is not None)


def solve(a: TropMatrix, b: TropVector) -> SolveOutcome:
    """Decide solvability of A x = b and return the maximal solution if any.

    Per column j: x*_j is the least b_i - a_ij over the finite a_ij, and
    the rows attaining it are the ones j covers. A finite a_ij against
    b_i = -inf forces x*_j to -inf; an all -inf column is unbounded.
    """
    if a.rows != len(b):
        raise DimensionError(f"matrix has {a.rows} rows but vector has {len(b)} entries")
    b_pairs = b.pairs()

    coverage: list[list[int]] = [[] for _ in range(a.rows)]
    x_pairs: list[Pair | None] = [None] * a.cols
    forced: set[int] = set()
    unbounded: set[int] = set()
    for j, col in enumerate(zip(*a.pair_rows())):
        res = residuate(col, b_pairs)
        if res is None:
            unbounded.add(j)
            continue
        mask, least = res
        if least is None:
            forced.add(j)
            continue
        x_pairs[j] = least
        for i in mask_rows(mask):
            coverage[i].append(j)

    cov: RowCoverage = tuple(tuple(c) for c in coverage)
    x_star = TropVector._of(tuple(x_pairs))
    uncovered = tuple(i for i, p in enumerate(b_pairs) if p is not None and not coverage[i])
    if uncovered:
        return Unsolvable(uncovered, cov, x_star)
    if mat_vec(a, x_star) != b:
        raise AssertionError("internal error: covered system does not reproduce b")
    return Solvable(x_star, cov, frozenset(forced), frozenset(unbounded))


def check_equivalence(a: TropMatrix, a2: TropMatrix) -> TropVector | None:
    """Recover per-column finite shifts alpha_j with a2_j = a_j + alpha_j, as a vector.

    Returns None when no such shifts exist: the -inf patterns differ, or
    some column is not shifted by a constant. Columns that are entirely
    -inf in both matrices get alpha_j = 0. Two matrices with no column
    give an empty vector, a positive verdict although falsy, so test
    `is not None`.
    """
    if a.rows != a2.rows or a.cols != a2.cols:
        raise DimensionError(f"shapes differ: {a.rows}x{a.cols} vs {a2.rows}x{a2.cols}")
    alphas: list[Pair] = []
    for col, col2 in zip(zip(*a.pair_rows()), zip(*a2.pair_rows())):
        support = support_mask(col)
        if support != support_mask(col2):
            return None
        res = residuate(col, col2)
        if res is None:  # an all -inf column pair
            alphas.append((0, 1))
        elif res[0] == support:  # every finite row attains the least slack a2_ij - a_ij
            alphas.append(res[1])
        else:
            return None
    return TropVector._of(tuple(alphas))
