"""Row-column reduction of A x = b.

Dependent columns and rows of A are expressed exactly as max-combinations
of the independent ones (coefficients eta for columns, xi for rows). The
reduced system keeps only independent rows and columns; a dependent row's
equation is consistent iff its b entry equals the same max-combination of
the kept b entries. Solvability of the full and reduced systems then
coincide, and a reduced solution expands back to a full one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionError, RegularityError, UnsolvableSystemError
from .freedom import degrees_of_freedom
from .matrix import TropMatrix, TropVector, is_regular, mat_vec, submatrix
from .rank import RankReport, colrank, rowrank
from .scalar import BOTTOM, Scalar, as_pairs
from .solver import Solvable, residuate, solve

__all__ = ["ReducedSystem", "reduce_system", "expand_solution", "dof_via_reduction"]

CoeffRow = tuple[Scalar, ...]


@dataclass(frozen=True)
class ReducedSystem:
    """Reduction data for one system.

    `eta` maps each dependent column (pairs, ascending) to coefficients
    aligned with `indep_cols`; `xi` does the same for dependent rows and
    `indep_rows`. `a_bar`/`b_bar` are None only in the degenerate case of
    an entirely -inf matrix, which has no independent rows or columns.
    """

    indep_rows: tuple[int, ...]  # ascending original indices
    indep_cols: tuple[int, ...]
    a_bar: TropMatrix | None
    b_bar: TropVector | None
    eta: tuple[tuple[int, CoeffRow], ...]
    xi: tuple[tuple[int, CoeffRow], ...]
    row_consistency: tuple[tuple[int, bool], ...]

    @property
    def n_cols(self) -> int:
        return len(self.indep_cols) + len(self.eta)

    def consistent(self) -> bool:
        return all(ok for _, ok in self.row_consistency)


def _aligned_coeffs(report: RankReport, indep_sorted: tuple[int, ...]) -> tuple[tuple[int, CoeffRow], ...]:
    position = {idx: k for k, idx in enumerate(indep_sorted)}
    out = []
    for dep in report.dependent:
        coeffs: list[Scalar] = [BOTTOM] * len(indep_sorted)
        for idx, coeff in dep.combination:
            coeffs[position[idx]] = coeff
        out.append((dep.col, tuple(coeffs)))
    return tuple(out)


def reduce_system(a: TropMatrix, b: TropVector) -> ReducedSystem:
    """Run column and row analysis and assemble the reduced system."""
    if a.rows != len(b):
        raise DimensionError(f"matrix has {a.rows} rows but vector has {len(b)} entries")
    if not is_regular(b):
        raise RegularityError("b must be regular for row-column reduction")

    col_scan = colrank(a)
    row_scan = rowrank(a)
    indep_cols = tuple(sorted(col_scan.independent))
    indep_rows = tuple(sorted(row_scan.independent))

    eta = _aligned_coeffs(col_scan, indep_cols)
    xi = _aligned_coeffs(row_scan, indep_rows)

    a_bar = submatrix(a, indep_rows, indep_cols) if indep_rows and indep_cols else None
    b_bar = TropVector(b[i] for i in indep_rows) if indep_rows else None

    # a dependent row's b entry against the same max-combination of b_bar;
    # with no independent row (all -inf matrix) every dependent row fails
    rhs = mat_vec(TropMatrix([c for _, c in xi]), b_bar) if xi and b_bar is not None else [BOTTOM] * len(xi)
    consistency = tuple((dep_row, v == b[dep_row]) for (dep_row, _), v in zip(xi, rhs))

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
    solver's convention.
    """
    if sys.a_bar is None or sys.b_bar is None:
        raise ValueError("reduced system is empty; nothing to expand")
    if len(reduced_y) != len(sys.indep_cols):
        raise DimensionError(
            f"reduced solution has {len(reduced_y)} entries, expected {len(sys.indep_cols)}"
        )
    if mat_vec(sys.a_bar, reduced_y) != sys.b_bar:
        raise ValueError("not a reduced solution")

    x: list[Scalar] = [BOTTOM] * sys.n_cols
    for pos, c in enumerate(sys.indep_cols):
        x[c] = reduced_y[pos]
    y_pairs = as_pairs(reduced_y)
    for dep_col, coeffs in sys.eta:
        res = residuate(as_pairs(coeffs), y_pairs)
        if res is not None and res[1] is not None:
            x[dep_col] = Fraction(*res[1])
    return TropVector(x)


def dof_via_reduction(a: TropMatrix, b: TropVector) -> int:
    """Degrees of freedom as (column rank) - (leading variables of the reduced system).

    The reduced system has the independent columns as its unknowns, so this
    is `degrees_of_freedom` of its `solve` outcome. Raises
    `UnsolvableSystemError` when A x = b is unsolvable.
    """
    full = solve(a, b)
    if not isinstance(full, Solvable):
        raise UnsolvableSystemError("system unsolvable: degrees of freedom undefined")
    sys = reduce_system(a, b)
    if sys.a_bar is None or sys.b_bar is None:
        return 0
    reduced = solve(sys.a_bar, sys.b_bar)
    if not isinstance(reduced, Solvable):
        raise AssertionError("internal error: reduced system unsolvable while full system solvable")
    return degrees_of_freedom(reduced).d_f
