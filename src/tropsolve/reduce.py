"""Row-column reduction of A x = b, for every b that `solve` takes.

Dependent columns and rows of A are expressed exactly as max-combinations
of the independent ones (coefficients eta for columns, xi for rows). The
reduced system keeps only independent rows and columns; a dependent row's
equation holds iff its b entry, -inf or not, is the same max-combination
of the kept b entries. With every such row holding, the full and reduced
systems are solvable together, and a reduced solution expands back.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DimensionError, UnsolvableSystemError
from .freedom import degrees_of_freedom
from .matrix import TropMatrix, TropVector, mat_vec, submatrix
from .rank import colrank, rowrank
from .scalar import Pair, Scalar, reduced
from .solver import Solvable, residuate, solve

__all__ = ["ReducedSystem", "reduce_system", "expand_solution", "dof_via_reduction"]

CoeffRow = tuple[Scalar, ...]


class ReducedSystem(NamedTuple):
    """Reduction data for one system.

    `eta` maps each dependent column (pairs, ascending) to coefficients
    aligned with `indep_cols`; `xi` does the same for dependent rows and
    `indep_rows`. An entirely -inf matrix has rank 0: `a_bar` is 0x0 and
    `b_bar` empty, a system that is solvable, with no unknowns.
    """

    indep_rows: tuple[int, ...]  # ascending original indices
    indep_cols: tuple[int, ...]
    a_bar: TropMatrix
    b_bar: TropVector
    eta: tuple[tuple[int, CoeffRow], ...]
    xi: tuple[tuple[int, CoeffRow], ...]
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
    row_scan = rowrank(a)
    indep_cols = tuple(sorted(col_scan.independent))
    indep_rows = tuple(sorted(row_scan.independent))

    # a combination keys each finite coefficient by its independent index; a missing one is -inf;
    # lists first: a tuple built from an iterator grows by resizing (peak RSS)
    eta = tuple([(dep.col, tuple([*map(dict(dep.combination).get, indep_cols)])) for dep in col_scan.dependent])
    xi = tuple([(dep.col, tuple([*map(dict(dep.combination).get, indep_rows)])) for dep in row_scan.dependent])

    a_bar = submatrix(a, indep_rows, indep_cols)
    b_pairs = b.pairs()
    b_bar = TropVector._of(tuple([b_pairs[i] for i in indep_rows]))
    # a dependent row's b entry against the same max-combination of b_bar (-inf when b_bar is empty)
    rhs = mat_vec(TropMatrix([c for _, c in xi]), b_bar).pairs() if xi else ()
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
        res = residuate(TropVector(coeffs).pairs(), y_pairs)
        if res is not None and res[1] is not None:
            x[dep_col] = reduced(res[1])
    return TropVector._of(tuple(x))


def dof_via_reduction(a: TropMatrix, b: TropVector) -> int:
    """Degrees of freedom as (column rank) - (leading variables of the reduced system).

    The reduced system has the independent columns as its unknowns, so this
    is `degrees_of_freedom` of its `solve` outcome, which is 0 for the
    empty reduction of an all -inf A. Raises `UnsolvableSystemError` when
    A x = b is unsolvable.
    """
    full = solve(a, b)
    if not isinstance(full, Solvable):
        raise UnsolvableSystemError("system unsolvable: degrees of freedom undefined")
    sys = reduce_system(a, b)
    reduced = solve(sys.a_bar, sys.b_bar)
    if not isinstance(reduced, Solvable):
        raise AssertionError("internal error: reduced system unsolvable while full system solvable")
    return degrees_of_freedom(reduced).d_f
