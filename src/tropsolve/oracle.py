"""The library's one reference implementation, used to cross-check the solver.

Every production path (`solve`, and through it `normalize`'s column
minima; the rank scan; `reduce`; `check_equivalence`) runs on the
integer-pair kernels `solver.residuate` and `matrix.mat_vec`. Nothing
here shares their code: the principal solution is the direct residuation
formula on plain `Fraction`s, and tiny systems can be decided by
exhaustive enumeration over the finite grid of relevant candidate
values, checked with `trop_add`/`trop_mul`.
"""

from __future__ import annotations

from itertools import product

from .errors import DimensionError, SizeBoundError
from .matrix import TropMatrix, TropVector
from .scalar import BOTTOM, Scalar, trop_add, trop_mul

__all__ = ["principal_solution", "exhaustive_solvable"]

# the most rows, and the most columns, `exhaustive_solvable` takes
EXHAUSTIVE_MAX_SIDE = 4


def principal_solution(a: TropMatrix, b: TropVector) -> TropVector:
    """Residuation: x_j = min over rows with a_ij finite of (b_i - a_ij).

    Columns with no finite entry leave x_j unconstrained; the entry is
    stored as -inf (no finite cap exists). A -inf b entry against a
    finite a_ij forces x_j to -inf.
    """
    if a.rows != len(b):
        raise DimensionError(f"matrix has {a.rows} rows but vector has {len(b)} entries")
    b = list(b)
    out: list[Scalar] = []
    for col in zip(*a.row_tuples()):
        bounds = []
        forced = False
        for e, bi in zip(col, b):
            if e is None:
                continue
            if bi is None:
                forced = True
                break
            bounds.append(bi - e)
        if forced or not bounds:
            out.append(BOTTOM)
        else:
            out.append(min(bounds))
    return TropVector(out)


def _satisfies(rows: tuple[tuple[Scalar, ...], ...], x: tuple[Scalar, ...], b: list[Scalar]) -> bool:
    for r, bi in zip(rows, b):
        acc = BOTTOM
        for e, xj in zip(r, x):
            acc = trop_add(acc, trop_mul(e, xj))
        if acc != bi:
            return False
    return True


def exhaustive_solvable(a: TropMatrix, b: TropVector) -> bool:
    """Ground-truth solvability for tiny systems by enumerating candidates.

    Candidate values per unknown are {b_i - a_ij : both finite} plus
    -inf; any solution is dominated by the principal one, whose entries
    all lie on that grid. Refuses systems larger than 4x4.
    """
    if a.rows > EXHAUSTIVE_MAX_SIDE or a.cols > EXHAUSTIVE_MAX_SIDE:
        raise SizeBoundError(
            f"exhaustive search limited to {EXHAUSTIVE_MAX_SIDE}x{EXHAUSTIVE_MAX_SIDE} systems, got {a.rows}x{a.cols}"
        )
    if a.rows != len(b):
        raise DimensionError(f"matrix has {a.rows} rows but vector has {len(b)} entries")
    rows, b = a.row_tuples(), list(b)
    per_col = []
    for col in zip(*rows):
        vals = {bi - e for e, bi in zip(col, b) if e is not None and bi is not None}
        per_col.append(sorted(vals) + [BOTTOM])
    return any(_satisfies(rows, x, b) for x in product(*per_col))
