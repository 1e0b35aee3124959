"""The library's one reference implementation, used to cross-check the solver.

Every production path (`solve`, and through it `normalize`'s column
minima; the rank scan; `reduce`; `check_equivalence`) runs on the
integer-pair kernels `solver.residuate` and `matrix.mat_vec`. Nothing
here shares their code, and nothing is imported from `solver`: the
principal solution is the direct residuation formula written out again
on the matrix's stored integer pairs, and tiny systems can be decided by
exhaustive enumeration over the finite grid of relevant candidate
values, checked with `trop_add`/`trop_mul`. The tests check
`principal_solution` in turn against the same formula on plain
`Fraction`s (`tests/helpers.py`, `principal_reference`).
"""

from __future__ import annotations

from fractions import Fraction
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
    finite a_ij forces x_j to -inf. Both cases are read from the -inf
    pattern before any arithmetic. Otherwise each candidate b_i - a_ij
    is the unreduced integer pair (nb*d - n*db, db*d) of A's stored pair
    n/d and b_i = nb/db, the least is kept by cross-multiplication, and
    one `Fraction` is built per column.
    """
    if a.rows != len(b):
        raise DimensionError(f"matrix has {a.rows} rows but vector has {len(b)} entries")
    b_pairs = [None if e is None else e.as_integer_ratio() for e in b]
    bottom_rows = [i for i, p in enumerate(b_pairs) if p is None]
    out: list[Scalar] = []
    for col in zip(*a.pair_rows()):
        if col.count(None) == len(col) or any(col[i] is not None for i in bottom_rows):
            out.append(BOTTOM)
            continue
        least_n = least_d = None
        for ap, bp in zip(col, b_pairs):
            if ap is None:
                continue
            n, d = ap
            nb, db = bp
            cn, cd = nb * d - n * db, db * d
            if least_d is None or cn * least_d < least_n * cd:
                least_n, least_d = cn, cd
        out.append(Fraction(least_n, least_d))
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
