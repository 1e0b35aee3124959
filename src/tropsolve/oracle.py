"""The library's one reference implementation, used to cross-check the solver.

Every production path (`solve`, and through it `normalize`'s column
minima; the rank scan; `reduce`) runs on the integer-pair kernels
`solver.residuate` and `matrix.mat_vec`. Nothing here shares their code:
the principal solution is the direct residuation formula on plain
`Fraction`s, and tiny systems can be decided by exhaustive enumeration
over the finite grid of relevant candidate values, checked with
`trop_add`/`trop_mul`.
"""

from __future__ import annotations

from itertools import product

from .errors import DimensionError, SizeBoundError
from .matrix import TropMatrix, TropVector
from .scalar import BOTTOM, Scalar, trop_add, trop_mul

__all__ = ["principal_solution", "exhaustive_solvable"]


def principal_solution(a: TropMatrix, b: TropVector) -> TropVector:
    """Residuation: x_j = min over rows with a_ij finite of (b_i - a_ij).

    Intended for regular b. Columns with no finite entry leave x_j
    unconstrained; the entry is stored as -inf (no finite cap exists).
    A -inf b entry against a finite a_ij likewise forces x_j to -inf.
    """
    if a.rows != len(b):
        raise DimensionError(f"matrix has {a.rows} rows but vector has {len(b)} entries")
    out: list[Scalar] = []
    for j in range(a.cols):
        bounds = []
        forced = False
        for i in range(a.rows):
            e = a.entry(i, j)
            if e is None:
                continue
            if b[i] is None:
                forced = True
                break
            bounds.append(b[i] - e)
        if forced or not bounds:
            out.append(BOTTOM)
        else:
            out.append(min(bounds))
    return TropVector(out)


def _satisfies(a: TropMatrix, x: tuple[Scalar, ...], b: TropVector) -> bool:
    for i in range(a.rows):
        acc = BOTTOM
        for j in range(a.cols):
            acc = trop_add(acc, trop_mul(a.entry(i, j), x[j]))
        if acc != b[i]:
            return False
    return True


def exhaustive_solvable(a: TropMatrix, b: TropVector) -> bool:
    """Ground-truth solvability for tiny systems by enumerating candidates.

    Candidate values per unknown are {b_i - a_ij : both finite} plus
    -inf; any solution is dominated by the principal one, whose entries
    all lie on that grid. Refuses systems larger than 4x4.
    """
    if a.rows > 4 or a.cols > 4:
        raise SizeBoundError(f"exhaustive search limited to 4x4 systems, got {a.rows}x{a.cols}")
    if a.rows != len(b):
        raise DimensionError(f"matrix has {a.rows} rows but vector has {len(b)} entries")
    per_col = []
    for j in range(a.cols):
        vals = {
            b[i] - a.entry(i, j)
            for i in range(a.rows)
            if a.entry(i, j) is not None and b[i] is not None
        }
        per_col.append(sorted(vals) + [BOTTOM])
    return any(_satisfies(a, x, b) for x in product(*per_col))
