"""Row-column reduction of A x = b, for every b that `solve` takes.

Dependent columns and rows of A are expressed exactly as max-combinations
of the independent ones (coefficients eta for columns, xi for rows). The
reduced system keeps only independent rows and columns; a dependent row's
equation holds iff its b entry, -inf or not, is the same max-combination
of the kept b entries. With every such row holding, the full and reduced
systems are solvable together, and a reduced solution expands back.

The row scan runs on A's rows cut to the independent columns C, and gives
what `rowrank(a)` gives. The column scan has checked that every column j
is max_{l in C} (eta_jl + column l), an all -inf column with every eta_jl
= -inf. For rows a_k and the target row t:

1. For any rows S and any xi, since + distributes over max,
   max_{k in S} (a_kj + xi_k) = max_{l in C} (eta_jl + max_{k in S} (a_kl + xi_k)).
2. So if t_l = max_{k in S} (a_kl + xi_k) for every l in C, the right side
   of (1) is max_{l in C} (eta_jl + t_l), which is t_j by (1) for S = {t}
   and xi = 0: t equals the combination on every column.
3. The maximal coefficient of a_k, min (t_j - a_kj) over the finite a_kj,
   is the same over C as over all columns. A min over C has fewer terms,
   so it is >= the min over all columns. For a finite a_kj, (1) with
   S = {k} gives some l in C with a_kj = eta_jl + a_kl, and t_j >= eta_jl
   + t_l, so t_j - a_kj >= t_l - a_kl: every term of the min over all
   columns is >= a term of the min over C.

The -inf cases follow from (1) too. A row with no finite entry on C has
none anywhere. A pattern miss on a dependent column j (a_kj finite,
t_j = -inf) has an l in C with a_kl finite and t_l <= t_j - eta_jl =
-inf, a miss on C; so the coefficient is -inf on C iff it is on all
columns. A scan test asks whether t is the max-combination of some rows
with their maximal coefficients; by (2) and (3) each test, and so each
early stop, verdict, trace entry and coefficient, is the same on C. The
scan's self-check still compares each dependent row with its
combination on every column.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DimensionError, UnsolvableSystemError
from .freedom import degrees_of_freedom
from .matrix import TropMatrix, TropVector, mat_vec, row_maxima, submatrix
from .rank import Dependence, _scan, colrank
from .scalar import Pair
from .solver import Solvable, residuate, solve

__all__ = ["ReducedSystem", "reduce_system", "expand_solution", "dof_via_reduction"]


class ReducedSystem(NamedTuple):
    """Reduction data for one system.

    `eta` is the column scan's `Dependence` records: each dependent column
    (ascending) with its coefficients, a vector aligned with `indep_cols`;
    `xi` is the row scan's, for dependent rows and `indep_rows`. An entirely
    -inf matrix has rank 0: `a_bar` is 0x0 and `b_bar` empty, a system that
    is solvable, with no unknowns.
    """

    indep_rows: tuple[int, ...]  # ascending original indices
    indep_cols: tuple[int, ...]
    a_bar: TropMatrix
    b_bar: TropVector
    eta: tuple[Dependence, ...]
    xi: tuple[Dependence, ...]
    row_consistency: tuple[tuple[int, bool], ...]

    @property
    def n_cols(self) -> int:
        return len(self.indep_cols) + len(self.eta)

    def consistent(self) -> bool:
        return all(ok for _, ok in self.row_consistency)


def reduce_system(a: TropMatrix, b: TropVector) -> ReducedSystem:
    """Run column and row analysis and assemble the reduced system."""
    if a.rows != len(b):
        raise DimensionError(f"matrix has {a.rows} rows but vector has {len(b)} entries")

    col_scan = colrank(a)
    indep_cols = tuple(sorted(col_scan.independent))
    rows = a.pair_rows()
    # rowrank(a), on the rows cut to the independent columns (see the module docstring)
    cut = [[r[c] for c in indep_cols] for r in rows]
    row_scan = _scan(cut, None, "rows", rows)
    indep_rows = tuple(sorted(row_scan.independent))

    eta, xi = col_scan.dependent, row_scan.dependent

    a_bar = submatrix(a, indep_rows, indep_cols)
    b_pairs = b.pairs()
    b_bar = TropVector._of(tuple([b_pairs[i] for i in indep_rows]))
    # a dependent row's b entry against the same max-combination of b_bar (-inf when b_bar is empty),
    # by the one product loop on the coefficients' pairs
    rhs = row_maxima([coeffs.pairs() for _, coeffs in xi], b_bar.pairs())
    consistency = tuple((dep_row, p == b_pairs[dep_row]) for (dep_row, _), p in zip(xi, rhs))

    return ReducedSystem(
        indep_rows=indep_rows,
        indep_cols=indep_cols,
        a_bar=a_bar,
        b_bar=b_bar,
        eta=eta,
        xi=xi,
        row_consistency=consistency,
    )


def expand_solution(reduced_y: TropVector, sys: ReducedSystem) -> TropVector:
    """Expand a solution of the reduced system to the full unknown vector.

    Independent columns take their reduced value; each dependent column j
    takes min_i (y_i - eta_ij) over finite coefficients, by the solver's
    kernel `residuate`. Dependent columns with no finite coefficient (all
    -inf columns) are unconstrained and are stored as -inf, matching the
    solver's convention. The empty reduction of an all -inf A expands the
    empty vector to the all -inf x.
    """
    if len(reduced_y) != len(sys.indep_cols):
        raise DimensionError(
            f"reduced solution has {len(reduced_y)} entries, expected {len(sys.indep_cols)}"
        )
    if mat_vec(sys.a_bar, reduced_y) != sys.b_bar:
        raise ValueError("not a reduced solution")

    y_pairs = reduced_y.pairs()
    x: list[Pair | None] = [None] * sys.n_cols
    for c, p in zip(sys.indep_cols, y_pairs):
        x[c] = p
    for dep_col, coeffs in sys.eta:
        res = residuate(coeffs.pairs(), y_pairs)
        if res is not None:
            x[dep_col] = res[1]
    return TropVector._of(tuple(x))


def dof_via_reduction(a: TropMatrix, b: TropVector) -> int:
    """Degrees of freedom as (column rank) - (leading variables of the reduced system).

    The reduced system has the independent columns as its unknowns, so this
    is `degrees_of_freedom` of its `solve` outcome, which is 0 for the
    empty reduction of an all -inf A. Raises `UnsolvableSystemError` when
    A x = b is unsolvable, which is when a dependent row's equation fails
    or the reduced system is unsolvable (the module docstring).
    """
    sys = reduce_system(a, b)
    reduced = solve(sys.a_bar, sys.b_bar) if sys.consistent() else None
    if not isinstance(reduced, Solvable):
        raise UnsolvableSystemError("system unsolvable: degrees of freedom undefined")
    return degrees_of_freedom(reduced).d_f
