"""The library's one reference implementation, used to cross-check the solver.

Every production path (`solve`, and through it `normalize`'s column
minima; the rank scan; `reduce`; `check_equivalence`) runs on the
integer-pair kernels `solver.residuate` and `matrix.row_maxima`, which
return their results reduced by `scalar.reduced`. Nothing here shares their
code, and nothing is imported from `solver`: the principal solution is
the direct residuation formula written out again on the integer pairs
that A and b store, each result reduced by `Fraction`; `satisfies`
checks A x = b term by term against b on the same pairs; and tiny
systems can be decided by exhaustive enumeration over the finite grid of
relevant candidate values, each checked with `satisfies`. The tests check both in turn
against the same formulas on plain `Fraction`s (`tests/helpers.py`,
`principal_reference` and `max_combination`).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .errors import DimensionError, SizeBoundError
from .matrix import TropMatrix, TropVector
from .scalar import BOTTOM, Scalar

__all__ = ["principal_solution", "satisfies", "exhaustive_solvable"]

# the most rows, and the most columns, `exhaustive_solvable` takes
EXHAUSTIVE_MAX_SIDE = 4


def principal_solution(a: TropMatrix, b: TropVector) -> TropVector:
    """Residuation: x_j = min over rows with a_ij finite of (b_i - a_ij).

    Columns with no finite entry leave x_j unconstrained; the entry is
    stored as -inf (no finite cap exists). A -inf b entry against a
    finite a_ij forces x_j to -inf. Both cases are read from the -inf
    pattern before any arithmetic. Otherwise each candidate b_i - a_ij
    is the unreduced integer pair (nb*d - n*db, db*d) of the stored pairs
    n/d of A and nb/db of b, the least is kept by cross-multiplication, and
    one `Fraction` is built per column.
    """
    if a.rows != len(b):
        raise DimensionError(f"matrix has {a.rows} rows but vector has {len(b)} entries")
    b_pairs = b.pairs()
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


def satisfies(a: TropMatrix, x: TropVector, b: TropVector) -> bool:
    """Whether A x = b under max-plus: in each row no term a_ij + x_j exceeds b_i, and one attains it.

    A term is the integer pair (n*dx + nx*d, d*dx) of the stored pairs n/d
    of A and nx/dx of x, compared with b_i by cross-multiplication; a -inf
    b_i admits no finite term.
    """
    if a.cols != len(x) or a.rows != len(b):
        raise DimensionError(f"shapes do not conform: {a.rows}x{a.cols} matrix, x of length {len(x)}, "
                             f"b of length {len(b)}")
    x_pairs = x.pairs()
    for row, bp in zip(a.pair_rows(), b.pairs()):
        terms = [(ap, xp) for ap, xp in zip(row, x_pairs) if ap is not None and xp is not None]
        if bp is None:
            if terms:
                return False
            continue
        nb, db = bp
        # each term's excess over b_i times a positive denominator: the greatest must be 0
        if max([(n * dx + nx * d) * db - nb * (d * dx) for (n, d), (nx, dx) in terms], default=-1) != 0:
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
    per_col = []
    for col in zip(*a.row_tuples()):
        vals = {bi - e for e, bi in zip(col, b) if e is not None and bi is not None}
        per_col.append(sorted(vals) + [BOTTOM])
    return any(satisfies(a, TropVector(x), b) for x in product(*per_col))
