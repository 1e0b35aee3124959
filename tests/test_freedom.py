import itertools
import random
from fractions import Fraction

import pytest

from tropsolve import (
    DofStep,
    SizeBoundError,
    Solvable,
    TropMatrix,
    TropVector,
    Unsolvable,
    UnsolvableSystemError,
    degrees_of_freedom,
    minimal_leading_oracle,
    solve,
    submatrix,
)

from helpers import row_max, solvable_instance


def test_dof_four_way_tie_resolved_to_lowest(dof_4x5):
    a, b = dof_4x5
    out = solve(a, b)
    assert isinstance(out, Solvable)
    report = degrees_of_freedom(out)
    # rows 2 and 4 both force column 1; the remaining rows tie four ways
    assert report.leading_cols == (0, 1, 3)
    assert report.free_cols == (2, 4)
    assert report.d_f == 2
    assert report.trace[0].rule == "singleton"
    assert report.trace[0].chosen_col == 0
    assert report.trace[0].removed_rows == (1, 3)
    assert [s.rule for s in report.trace[1:]] == ["greedy", "greedy"]


def test_dof_singleton_then_dominant_column(solvable_4x5):
    a, b = solvable_4x5
    out = solve(a, b)
    report = degrees_of_freedom(out)
    assert report.leading_cols == (3, 2)
    assert report.d_f == 3
    assert report.trace[0].rule == "singleton" and report.trace[0].chosen_col == 3
    assert report.trace[0].removed_rows == (3,)
    assert report.trace[1].rule == "greedy" and report.trace[1].chosen_col == 2
    assert report.trace[1].removed_rows == (0, 1, 2)


def test_dof_single_row_all_columns():
    out = solve(TropMatrix([[0, 0, 0, 0]]), TropVector([0]))
    assert out.coverage == ((0, 1, 2, 3),)
    report = degrees_of_freedom(out)
    assert len(report.leading_cols) == 1
    assert report.d_f == 3


def test_dof_rejects_uncovered_row(unsolvable_5x4):
    out = solve(*unsolvable_5x4)
    assert isinstance(out, Unsolvable)
    with pytest.raises(UnsolvableSystemError, match="a row holds no column minimum"):
        degrees_of_freedom(out)
    with pytest.raises(UnsolvableSystemError, match="a row holds no column minimum"):
        minimal_leading_oracle(out)


@pytest.mark.parametrize("col", [-1, 2])
def test_dof_rejects_out_of_range_column(col):
    # a hand-built outcome whose coverage names a column that x* does not have
    out = Solvable(TropVector([0, 0]), ((0,), (col,)), frozenset(), frozenset())
    with pytest.raises(ValueError, match="column index out of range for n=2"):
        degrees_of_freedom(out)
    with pytest.raises(ValueError, match="column index out of range for n=2"):
        minimal_leading_oracle(out)


def test_dof_skips_bottom_rows_and_names_rows_in_a():
    # row 1 has b = -inf, forces x1 to -inf and holds no column minimum;
    # the system is solvable, and the trace keeps the rows' indices in A
    out = solve(TropMatrix([[0, None], [None, 0], [0, 0]]), TropVector([None, 1, 1]))
    assert isinstance(out, Solvable)
    assert out.coverage == ((), (1,), (1,))
    assert out.forced_bottom == {0}
    report = degrees_of_freedom(out)
    assert report.trace == (DofStep("singleton", 1, (1, 2)),)
    # the paper's count, n minus the leading variables, lists the forced x1 as free
    assert (report.leading_cols, report.free_cols, report.d_f) == ((1,), (0,), 1)
    assert minimal_leading_oracle(out) == (1, (1,))


def test_dof_leading_covers_all_rows_random():
    rng = random.Random(31)
    for _ in range(150):
        a, _, b = solvable_instance(rng)
        out = solve(a, b)
        report = degrees_of_freedom(out)
        assert report.d_f == a.cols - len(report.leading_cols)
        assert set(report.leading_cols) | set(report.free_cols) == set(range(a.cols))
        chosen = set(report.leading_cols)
        for cols in out.coverage:
            assert set(cols) & chosen


def test_dof_deterministic():
    # every column's minimum lies in two of the three rows
    out = solve(TropMatrix([[0, -1, 0], [-1, 0, 0], [0, 0, -1]]), TropVector([0, 0, 0]))
    assert out.coverage == ((0, 2), (1, 2), (0, 1))
    first = degrees_of_freedom(out)
    for _ in range(5):
        assert degrees_of_freedom(out) == first


def test_singleton_count_bounds_dof():
    # rows with a unique cover in k distinct columns leave at most n-k free
    rng = random.Random(32)
    for _ in range(150):
        a, _, b = solvable_instance(rng)
        out = solve(a, b)
        k = len({cols[0] for cols in out.coverage if len(cols) == 1})
        report = degrees_of_freedom(out)
        assert report.d_f <= a.cols - k
        if k == 0:
            assert report.d_f <= a.cols - 1


def test_oracle_golden_coverages(solvable_4x5, dof_4x5):
    a, b = solvable_4x5
    out = solve(a, b)
    size, witness = minimal_leading_oracle(out)
    assert size == 2
    a2, b2 = dof_4x5
    out2 = solve(a2, b2)
    size2, _ = minimal_leading_oracle(out2)
    assert size2 == 3


def test_oracle_single_row():
    assert minimal_leading_oracle(solve(TropMatrix([[0, 0, 0]]), TropVector([0]))) == (1, (0,))


def test_oracle_refuses_large_n():
    with pytest.raises(SizeBoundError):
        minimal_leading_oracle(solve(TropMatrix([[0] * 21]), TropVector([0])))
    # the size bound is checked before solvability: row 2 holds no column minimum
    unsolvable = solve(TropMatrix([[0] * 21, [0] * 21]), TropVector([0, 1]))
    assert isinstance(unsolvable, Unsolvable)
    with pytest.raises(SizeBoundError):
        minimal_leading_oracle(unsolvable)


def test_greedy_at_least_oracle_minimum_random():
    rng = random.Random(33)
    for _ in range(150):
        a, _, b = solvable_instance(rng)
        out = solve(a, b)
        report = degrees_of_freedom(out)
        size, witness = minimal_leading_oracle(out)
        assert len(report.leading_cols) >= size
        assert all(set(cols) & set(witness) for cols in out.coverage)


def test_dof_at_most_n_minus_least_cover_on_every_coverage():
    # the leading set covers every row with a finite b_i, so it holds at least tau columns: d_f <= n - tau.
    # With b = 0 and entries 0 or -1, row i is covered by the columns holding a 0 in it (a column of -1s
    # covers every row), so every set system occurs as a coverage, and so do greedy set cover's gaps
    rng = random.Random(34)
    gaps = 0
    for _ in range(400):
        m, n = rng.randint(1, 7), rng.randint(1, 8)
        rows = [[rng.choice((0, -1)) for _ in range(n)] for _ in range(m)]
        for r in rows:
            if 0 not in r:
                r[rng.randrange(n)] = 0
        out = solve(TropMatrix(rows), TropVector([0] * m))
        d_f, (tau, _) = degrees_of_freedom(out).d_f, minimal_leading_oracle(out)
        assert d_f <= n - tau
        gaps += d_f < n - tau
    assert gaps


@pytest.mark.parametrize(
    "order, d_f, leading, cover",
    [((0, 1, 2, 3, 4), 2, (0, 1, 2), (2, 4)), ((2, 4, 0, 1, 3), 3, (0, 1), (0, 1))],
    ids=["order-12345", "order-35124"],
)
def test_greedy_4x5_count_depends_on_column_order(greedy_4x5, order, d_f, leading, cover):
    # in the file's order the greedy's first pick, column 1 (a four-way tie on two rows), is in no
    # least cover; with columns 3 and 5 first it picks exactly them
    a, b = greedy_4x5
    out = solve(submatrix(a, range(a.rows), order), b)
    report = degrees_of_freedom(out)
    assert (report.d_f, report.leading_cols) == (d_f, leading)
    assert minimal_leading_oracle(out) == (2, cover)


def test_x_star_unique_iff_no_unbounded_column_and_every_finite_column_sole_cover():
    # x solves A x = b iff x <= x* and the columns with x_j = x*_j cover every row with a finite b_i.
    # So a column whose rows all have another cover can drop to -inf, a forced column has no other
    # value, and an unbounded column takes any value. The oracle counts solutions on a grid that holds,
    # per column, every finite b_i - a_ij, that value minus 1/2 and -inf (and 0 for an all -inf column),
    # checked by the plain-Fraction `row_max`: x* is on it, and so is a second solution whenever one exists
    rng = random.Random(35)
    solvable = unique = 0
    for _ in range(4000):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        rows = [[rng.choice((None, -1, 0, 1)) for _ in range(n)] for _ in range(m)]
        b = [rng.choice((None, -1, 0, 1, 2)) for _ in range(m)]
        axes = []
        for j in range(n):
            slack = {Fraction(bi - r[j]) for r, bi in zip(rows, b) if r[j] is not None and bi is not None}
            zero = {Fraction(0)} if all(r[j] is None for r in rows) else set()
            axes.append([None, *slack, *(s - Fraction(1, 2) for s in slack), *zero])
        # 0, 1 or 2, where 2 stands for "more than one"
        solves = (x for x in itertools.product(*axes) if all(row_max(r, x) == bi for r, bi in zip(rows, b)))
        solutions = len(list(itertools.islice(solves, 2)))
        out = solve(TropMatrix(rows), TropVector(b))
        assert isinstance(out, Solvable) == (solutions > 0)
        if not solutions:
            continue
        sole_covers = {cols[0] for cols in out.coverage if len(cols) == 1}
        finite = {j for j, x in enumerate(out.x_star) if x is not None}
        criterion = not out.unbounded and finite <= sole_covers
        assert criterion == (solutions == 1)
        solvable += 1
        unique += criterion
    assert solvable > 1000 and unique > 300
