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
in `reduce`. Every pair in every result must be reduced. Each matrix's
`check_equivalence` with A + alpha, alpha_j cycling through 0, 1/2 and
-1, must give alpha, with 0 for an all -inf column; with A with its
first finite cell moved by 1, it must give `helpers.column_shifts`. The
references run on plain ints and `Fraction`s. A walk meets each pair of
a column and b, and each A with each x*, many times: it computes each
such residuation and product once.

The two-input commands' mismatched shapes are walked apart from the
systems: every b one entry short or long for an A with sides 0-2, and
every A2 of another shape with sides 0-2, which differs in rows only,
in columns only or in both, each raising `DimensionError`. The same
classes then run through `cli.run` on files, whose shapes have sides
1-2: each mismatched pair exits 2 with the shape message, and each
matched pair with the verdict of `solve` or `check_equivalence`.
"""

from fractions import Fraction
from itertools import product as grids

import pytest

from tropsolve import (
    DimensionError,
    Solvable,
    TropMatrix,
    TropVector,
    check_equivalence,
    colrank,
    normalize,
    reduce_system,
    rowrank,
    solve,
)
from tropsolve.cli import run

from helpers import column_shifts, dependence_oracle, grid_text, is_reduced_pair, product, residuation, row_max

INTEGERS = (None, 0, 1)
HALVES = (None, 0, Fraction(1, 2), 1)
SMALL = [(m, n) for m in range(3) for n in range(3) if m or not n]
WALKS = [(shape, INTEGERS) for shape in [*SMALL, (2, 3), (3, 2)]] + [(shape, HALVES) for shape in SMALL if shape != (2, 2)]
SHIFTS = (0, Fraction(1, 2), -1)  # alpha_j = SHIFTS[j % 3]


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


def check_shifts(a: TropMatrix, rows: list, cols: list) -> None:
    """`check_equivalence` of A with A + alpha, which gives alpha, and with A with its first finite cell moved by 1."""
    alpha = [SHIFTS[j % 3] for j in range(len(cols))]
    shifted = TropMatrix([[None if e is None else e + al for e, al in zip(r, alpha)] for r in rows])
    assert check_equivalence(a, shifted) == [al if any(e is not None for e in col) else 0 for al, col in zip(alpha, cols)]
    finite = [(i, j) for i, r in enumerate(rows) for j, e in enumerate(r) if e is not None]
    if finite:
        i, j = finite[0]
        moved = [list(r) for r in rows]
        moved[i][j] += 1
        assert check_equivalence(a, TropMatrix(moved)) == column_shifts(rows, moved)


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
        check_shifts(a, rows, cols)
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


def cycled(m: int, length: int, start: int = 0) -> list[tuple]:
    """m rows of `length` entries that run through -inf, 0 and 1 in turn from INTEGERS[start]."""
    return [tuple(INTEGERS[(start + i * length + j) % 3] for j in range(length)) for i in range(m)]


def test_every_mismatched_shape_raises():
    """Every b one entry short or long for A's sides 0-2, and every A2 of another shape."""
    for m, n in SMALL:
        a = TropMatrix(cycled(m, n))
        for k in (m - 1, m + 1):
            if k < 0:
                continue
            b = TropVector(cycled(1, k)[0])
            for f in (solve, normalize, reduce_system):
                with pytest.raises(DimensionError, match=f"^matrix has {m} rows but vector has {k} entries$"):
                    f(a, b)
    kinds = set()
    for (m, n), (m2, n2) in grids(SMALL, repeat=2):
        if (m, n) != (m2, n2):
            kinds.add((m != m2, n != n2))
            with pytest.raises(DimensionError, match=f"^shapes differ: {m}x{n} vs {m2}x{n2}$"):
                check_equivalence(TropMatrix(cycled(m, n)), TropMatrix(cycled(m2, n2)))
    assert kinds == {(True, False), (False, True), (True, True)}  # rows only, columns only, both


def test_every_shape_class_through_the_cli(tmp_path):
    """The same classes through `cli.run`, with sides 1-2, the shapes a file can hold.

    A mismatched A and b, or A and A2, exits 2 with the shape message; a
    matched pair exits with `solve`'s or `check_equivalence`'s verdict.
    """
    mats, vecs = {}, {}
    for m, n, start in grids((1, 2), (1, 2), (0, 1)):
        rows = cycled(m, n, start)
        (tmp_path / f"{m}x{n}-{start}.mat").write_text(grid_text(rows))
        mats[tmp_path / f"{m}x{n}-{start}.mat"] = TropMatrix(rows)
    for k, start in grids((1, 2), (0, 1)):
        column = cycled(k, 1, start)
        (tmp_path / f"{k}-{start}.vec").write_text(grid_text(column))
        vecs[tmp_path / f"{k}-{start}.vec"] = TropVector(e for e, in column)
    verdicts = set()
    for (a_path, a), (b_path, b) in grids(mats.items(), vecs.items()):
        if a.rows == len(b):
            code = 0 if isinstance(solve(a, b), Solvable) else 1
            assert run(["solve", str(a_path), str(b_path)]).exit_code == code
            verdicts.add(code)
            continue
        message = f"matrix has {a.rows} rows but vector has {len(b)} entries"
        for command in ("normalize", "solve", "dof", "reduce"):
            report = run([command, str(a_path), str(b_path)])
            assert (report.exit_code, report.payload) == (2, {"error": message})
    assert verdicts == {0, 1}
    verdicts.clear()
    for (a_path, a), (a2_path, a2) in grids(mats.items(), repeat=2):
        report = run(["check-equiv", str(a_path), str(a2_path)])
        if (a.rows, a.cols) == (a2.rows, a2.cols):
            assert report.exit_code == (1 if check_equivalence(a, a2) is None else 0)
            verdicts.add(report.exit_code)
        else:
            message = f"shapes differ: {a.rows}x{a.cols} vs {a2.rows}x{a2.cols}"
            assert (report.exit_code, report.payload) == (2, {"error": message})
    assert verdicts == {0, 1}
