"""Per-instance checks of the seeded random campaigns, each written once.

Each check takes one seeded instance and tells whether every assertion of
its property holds there. An acceptance criterion in `test_acceptance.py`
and the module test that first checked the property run it, each on its
own seeded instances. `q_route` is shared the same way by
`test_normalize.py` and `test_solver.py`, and `bases_match` by
`reduction_outcome` and `test_reduce.py`'s reduction tests.
"""

from __future__ import annotations

import random
from fractions import Fraction

from tropsolve import (
    Solvable,
    TropMatrix,
    TropVector,
    check_equivalence,
    exhaustive_solvable,
    expand_solution,
    normalize,
    normalized_solution,
    reduce_system,
    solve,
)
from tropsolve.oracle import satisfies

from helpers import (
    columns_and_rows,
    fraction_grid,
    from_columns,
    map_equivalent_solution,
    oracle_scan,
    principal_reference,
    q_column_minima,
    rand_finite_vector,
    residuation,
    solves,
)


def maximal(a: TropMatrix, x0: TropVector, b: TropVector) -> bool:
    """b = A x0 is solvable, and x* solves it and dominates x0 on every column that is not unbounded."""
    out = solve(a, b)
    if not isinstance(out, Solvable) or not satisfies(a, out.x_star, b):
        return False
    return all(j in out.unbounded or x0[j] <= out.x_star[j] for j in range(a.cols))


def matches_reference(a: TropMatrix, b: TropVector) -> bool:
    """x* is `principal_reference` on any system, and the verdict is that of `satisfies`.

    A solvable x* gives A x* = b by `solves`; an unsolvable system's
    witness rows hold no coverage; up to 4x4 the verdict is that of
    `exhaustive_solvable`.
    """
    out = solve(a, b)
    x = principal_reference(a, b)
    solvable = isinstance(out, Solvable)
    if x != out.x_star or solvable != satisfies(a, x, b):
        return False
    if not (solves(a, x, b) if solvable else all(out.coverage[r] == () for r in out.witness_rows)):
        return False
    return a.rows > 4 or a.cols > 4 or exhaustive_solvable(a, b) == solvable


def equivalence_holds(rng: random.Random, a: TropMatrix, b: TropVector) -> bool:
    """Column j of A shifted by alpha_j and b by beta, both drawn from `rng`, give an equivalent system.

    `check_equivalence` recovers every alpha_j, and 0 for an all -inf
    column; Q stays when every column has a finite entry; the verdict
    stays, x* moves by beta - alpha_j, and the moved x* solves the
    shifted system.
    """
    alphas = [rand_finite_vector(rng, 1)[0] for _ in range(a.cols)]
    beta = rand_finite_vector(rng, 1)[0]
    a2 = from_columns([TropVector(e if e is None else e + al for e in a.column(j)) for j, al in enumerate(alphas)])
    b2 = TropVector(e + beta for e in b)
    empty = [all(e is None for e in a.column(j)) for j in range(a.cols)]
    if not any(empty) and normalize(a, b).q != normalize(a2, b2).q:
        return False
    if check_equivalence(a, a2) != TropVector(0 if e else al for e, al in zip(empty, alphas)):
        return False
    out, out2 = solve(a, b), solve(a2, b2)
    if isinstance(out, Solvable) != isinstance(out2, Solvable):
        return False
    if not isinstance(out, Solvable):
        return True
    return map_equivalent_solution(out.x_star, alphas, beta) == out2.x_star and satisfies(a2, out2.x_star, b2)


def bases_match(a: TropMatrix, sys) -> bool:
    """`sys`'s sorted column and row bases, with eta and xi, are those of `oracle_scan` on A's columns and rows."""
    cols, rows = columns_and_rows(a)
    scans = oracle_scan(cols, None, "columns"), oracle_scan(rows, None, "rows")
    return ((sys.indep_cols, sys.eta), (sys.indep_rows, sys.xi)) == tuple(
        (tuple(sorted(s.independent)), s.dependent) for s in scans
    )


def reduction_outcome(a: TropMatrix, b: TropVector):
    """`solve(a, b)` if `reduce_system` agrees with it, else None.

    Its bases, eta and xi pass `bases_match`. A x = b is solvable iff
    every row is consistent and the reduced system is solvable, and then
    x* is `principal_reference` and the expanded reduced x* is x*, which
    solves A x = b.
    """
    sys = reduce_system(a, b)
    if not bases_match(a, sys):
        return None
    full, reduced = solve(a, b), solve(sys.a_bar, sys.b_bar)
    if isinstance(full, Solvable) != (sys.consistent() and isinstance(reduced, Solvable)):
        return None
    if isinstance(full, Solvable):
        x = expand_solution(reduced.x_star, sys)
        if full.x_star != principal_reference(a, b) or not satisfies(a, x, b) or x != full.x_star:
            return None
    return full


def zero_sum(a: TropMatrix, b: TropVector) -> bool:
    """Every column of A~, and b~, sums to 0 over its finite entries."""
    res = normalize(a, b)
    columns = zip(*res.a_tilde.row_tuples())
    if any(sum((e for e in col if e is not None), Fraction(0)) != 0 for col in columns):
        return False
    return sum(res.b_tilde, Fraction(0)) == 0


def q_route(a: TropMatrix, b: TropVector):
    """Q's argmin rows and `solve(a, b)` if the paper's route through Q gives solve's verdict, else None.

    Q's minima and argmin rows, read off its grid, are `normalize`'s, and
    back-shifted they are plain `residuation` (so every column needs a
    finite entry). They give solve's verdict: its coverage is the argmin
    rows transposed, its witness rows are the uncovered ones, and
    `normalized_solution` takes its x* back to the minima.
    """
    res = normalize(a, b)
    minima, argmins = q_column_minima(fraction_grid(res.q))
    if list(res.column_minima) != minima or list(res.argmin_rows) != argmins:
        return None
    shift = Fraction(*res.b_mean)
    if any((minima[j] - res.col_means[j] + shift, argmins[j]) != residuation(a.column(j), b) for j in range(a.cols)):
        return None
    out = solve(a, b)
    if out.coverage != tuple(tuple(j for j in range(a.cols) if i in argmins[j]) for i in range(a.rows)):
        return None
    if normalized_solution(a, b, out.x_star) != TropVector(minima):
        return None
    if not isinstance(out, Solvable) and out.witness_rows != tuple(i for i in range(a.rows) if not out.coverage[i]):
        return None
    return argmins, out
