import random

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
)

from helpers import solvable_instance


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


def test_dof_skips_bottom_rows_and_names_rows_in_a():
    # row 1 has b = -inf, forces x1 to -inf and holds no column minimum;
    # the system is solvable, and the trace keeps the rows' indices in A
    out = solve(TropMatrix([[0, None], [None, 0], [0, 0]]), TropVector([None, 1, 1]))
    assert isinstance(out, Solvable)
    assert out.coverage == ((), (1,), (1,))
    report = degrees_of_freedom(out)
    assert report.trace == (DofStep("singleton", 1, (1, 2)),)
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
