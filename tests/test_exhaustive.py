"""Every tiny system, walked with no sampling.

Bounds: every matrix A and right-hand side b with entries in
{-inf, 0, 1} at each shape m x n with m, n <= 2 (a matrix with no rows
has no columns: 0x0, 1x0, 1x1, 1x2, 2x0, 2x1, 2x2) and at 2x3 and 3x2,
3^(mn + m) systems a shape; then every shape but 2x2 of those again with
{-inf, 0, 1/2, 1}, 4^(mn + m) systems a shape, where the kernels' sums
and slacks of two halves are unreduced until they return (1/2 - 1/2 is
0/4). That is 27 460 systems on 1 602 matrices. The 2x2 shape with
halves (4 096 systems more) would add about 0.4 s, past the walk's
budget of 3 s of Tier-1 on a shared 2-CPU host.

Each matrix's `colrank` and `rowrank` are checked once against
`helpers.dependence_oracle`. Each system's `solve` is checked against
`helpers.residuation` and the test of `helpers.solves`, A x* = b by
`helpers.product`; `reduce_system`'s rows against `rowrank`, its row
consistency against the max-combination of b's kept entries by
`helpers.row_max`, and its solvability against `solve`'s by the theorem
in `reduce`. Every pair in every result must be reduced. The references
run on plain ints and `Fraction`s. A walk meets each pair of a column
and b, and each A with each x*, many times: it computes each such
residuation and product once.
"""

from fractions import Fraction
from itertools import product as grids

import pytest

from tropsolve import Solvable, TropMatrix, TropVector, colrank, reduce_system, rowrank, solve

from helpers import dependence_oracle, is_reduced_pair, product, residuation, row_max

INTEGERS = (None, 0, 1)
HALVES = (None, 0, Fraction(1, 2), 1)
SMALL = [(m, n) for m in range(3) for n in range(3) if m or not n]
WALKS = [(shape, INTEGERS) for shape in [*SMALL, (2, 3), (3, 2)]] + [(shape, HALVES) for shape in SMALL if shape != (2, 2)]


def check_scan(report, vectors: list) -> None:
    """A dependence scan's report on `vectors` (tuples of numbers and None) against `dependence_oracle`."""
    basis = sorted(report.independent)
    assert report.rank == len(basis)
    assert sorted(basis + [d.col for d in report.dependent]) == list(range(len(vectors)))
    for k in basis:  # no basis vector is a combination of the others
        assert dependence_oracle([vectors[l] for l in basis if l != k], vectors[k]) is None
    for dep in report.dependent:  # each dependence is the maximal combination over the basis
        lam = dependence_oracle([vectors[l] for l in basis], vectors[dep.col])
        assert lam is not None
        assert dep.combination == tuple((l, c) for l, c in zip(basis, lam) if c is not None)


def check_solve(a: TropMatrix, b: tuple, b_vec: TropVector, per_col: list, products: dict) -> bool:
    """`solve(a, b)` against `residuation` of each column (`per_col`) and A x* = b; True when solvable.

    `products` holds A x by `helpers.product` for each x already met with this A.
    """
    out = solve(a, b_vec)
    x = TropVector([None if r is None else r[0] for r in per_col])
    assert out.x_star == x and all(map(is_reduced_pair, out.x_star.pairs()))
    assert out.coverage == tuple(
        tuple(j for j, r in enumerate(per_col) if r is not None and i in r[1]) for i in range(len(b))
    )
    if x not in products:
        products[x] = product(a, x)
    solvable = products[x] == b_vec  # `helpers.solves`
    assert isinstance(out, Solvable) == solvable
    if solvable:
        assert out.unbounded == {j for j, r in enumerate(per_col) if r is None}
        assert out.forced_bottom == {j for j, r in enumerate(per_col) if r is not None and r[0] is None}
    else:
        assert out.witness_rows == tuple(i for i, c in enumerate(out.coverage) if b[i] is not None and not c)
    return solvable


def check_reduce(a: TropMatrix, b: tuple, b_vec: TropVector, solvable: bool, row_scan) -> None:
    """`reduce_system(a, b)`'s rows against `row_scan`, its row consistency, and its solvability by the theorem in `reduce`."""
    sys = reduce_system(a, b_vec)
    assert sys.indep_rows == tuple(sorted(row_scan.independent))
    assert sys.xi == tuple((d.col, tuple(map(dict(d.combination).get, sys.indep_rows))) for d in row_scan.dependent)
    kept = [b[i] for i in sys.indep_rows]
    assert sys.row_consistency == tuple((i, row_max(coeffs, kept) == b[i]) for i, coeffs in sys.xi)
    assert all(map(is_reduced_pair, sys.b_bar.pairs()))
    assert all(is_reduced_pair(p) for r in sys.a_bar.pair_rows() for p in r)
    assert solvable == (sys.consistent() and isinstance(solve(sys.a_bar, sys.b_bar), Solvable))


@pytest.mark.parametrize("shape, values", WALKS, ids=[f"{m}x{n}-{len(v)}" for (m, n), v in WALKS])
def test_every_tiny_system(shape, values):
    m, n = shape
    vectors = list(grids(values, repeat=m))  # every column of A, and every b
    slacks = {(col, b): residuation(col, b) for col in vectors for b in vectors}
    rhs = [(b, TropVector(b)) for b in vectors]
    seen = {True: 0, False: 0}
    for cells in grids(values, repeat=m * n):
        rows = [cells[i * n : (i + 1) * n] for i in range(m)]
        cols = list(zip(*rows))
        a = TropMatrix(rows)
        check_scan(colrank(a), cols)
        row_scan = rowrank(a)
        check_scan(row_scan, rows)
        products = {}
        for b, b_vec in rhs:
            solvable = check_solve(a, b, b_vec, [slacks[col, b] for col in cols], products)
            check_reduce(a, b, b_vec, solvable, row_scan)
            seen[solvable] += 1
    assert sum(seen.values()) == len(values) ** (m * n + m)
    assert seen[True] and (seen[False] or m == 0)
