import random
from fractions import Fraction

import pytest

from tropsolve import (
    DimensionError,
    RegularityError,
    Solvable,
    TropMatrix,
    TropVector,
    UnsolvableSystemError,
    dof_via_reduction,
    expand_solution,
    mat_vec,
    principal_solution,
    reduce_system,
    solve,
    verify,
)

from helpers import identity, max_combination, planted_instance, rand_finite_vector


def check_reconstruction(a: TropMatrix, sys) -> None:
    for dep_col, coeffs in sys.eta:
        combo = max_combination([a.column(c) for c in sys.indep_cols], list(coeffs))
        assert combo == a.column(dep_col)
    for dep_row, coeffs in sys.xi:
        combo = max_combination([a.row(r) for r in sys.indep_rows], list(coeffs))
        assert combo == a.row(dep_row)


def test_reduce_no_reduction_when_everything_independent():
    a = TropMatrix([[0, None], [None, 0]])
    b = TropVector([1, 2])
    sys = reduce_system(a, b)
    assert sys.indep_rows == (0, 1) and sys.indep_cols == (0, 1)
    assert sys.a_bar == a and sys.b_bar == b
    assert sys.eta == () and sys.xi == ()
    assert sys.consistent()


def test_reduce_3x3_with_dependent_column_and_row(rank_3x3):
    b = mat_vec(rank_3x3, TropVector([0, 0, 0]))
    sys = reduce_system(rank_3x3, b)
    assert sys.indep_cols == (0, 1)
    assert sys.indep_rows == (1, 2)
    assert sys.eta == ((2, (Fraction(2), Fraction(-2))),)
    assert sys.xi == ((0, (Fraction(6), Fraction(-1))),)
    assert sys.row_consistency == ((0, True),)
    assert sys.a_bar == TropMatrix([[-5, 0], [4, 1]])
    assert sys.b_bar == TropVector([b[1], b[2]])
    check_reconstruction(rank_3x3, sys)


def test_reduce_planted_dependent_row_consistency():
    # row 4 = max(row 1 + 1, row 2 + 0); b matches on that row
    a = TropMatrix([[0, 3, 1], [2, 0, 4], [7, None, 0], [2, 4, 4]])
    x0 = TropVector([0, 0, 0])
    b = mat_vec(a, x0)
    assert a.row(3) == max_combination([a.row(0), a.row(1)], [Fraction(1), Fraction(0)])
    sys = reduce_system(a, b)
    assert 3 in {r for r, _ in sys.xi}
    assert sys.consistent()
    check_reconstruction(a, sys)


def test_inconsistent_row_gates_unsolvability():
    a = TropMatrix([[0, 1], [0, 1], [5, 6]])  # row 2 = row 1 + 0, row 3 = row 1 + 5
    b = TropVector([0, 4, 5])  # but b2 != b1
    sys = reduce_system(a, b)
    assert not sys.consistent()
    assert not isinstance(solve(a, b), Solvable)


def test_expand_identity_when_no_dependent_columns():
    a = TropMatrix([[0, None], [None, 0]])
    b = TropVector([1, 2])
    sys = reduce_system(a, b)
    y = TropVector([1, 2])
    assert expand_solution(y, sys) == y


def test_expand_min_over_shifts(rank_3x3):
    b = mat_vec(rank_3x3, TropVector([0, 0, 0]))
    sys = reduce_system(rank_3x3, b)
    reduced = solve(sys.a_bar, sys.b_bar)
    assert isinstance(reduced, Solvable)
    x = expand_solution(reduced.x_star, sys)
    assert verify(rank_3x3, x, b)
    full = solve(rank_3x3, b)
    assert x == full.x_star
    # dependent column bound: min over (y_i - eta_i)
    y = reduced.x_star
    expected = min(
        y[0] - Fraction(2), y[1] - Fraction(-2)
    )
    assert x[2] == Fraction(expected)


def test_expand_rejects_non_solution():
    a = TropMatrix([[0, None], [None, 0]])
    sys = reduce_system(a, TropVector([1, 2]))
    with pytest.raises(ValueError, match="not a reduced solution"):
        expand_solution(TropVector([0, 0]), sys)


def test_expand_length_check(rank_3x3):
    b = mat_vec(rank_3x3, TropVector([0, 0, 0]))
    sys = reduce_system(rank_3x3, b)
    with pytest.raises(Exception):
        expand_solution(TropVector([0, 0, 0]), sys)


def test_dof_via_reduction_goldens(rank_3x3, solvable_4x5):
    b = mat_vec(rank_3x3, TropVector([0, 0, 0]))
    assert dof_via_reduction(rank_3x3, b) == 0
    a, b45 = solvable_4x5
    assert dof_via_reduction(a, b45) >= 0


def test_dof_via_reduction_single_generator():
    a = TropMatrix([[0], [1]])
    b = TropVector([5, 6])
    assert dof_via_reduction(a, b) == 0


def test_dof_via_reduction_diagonal_coverage():
    # each reduced row is covered only by its own column, so every
    # reduced variable is leading and no freedom remains
    a = identity(3)
    b = TropVector([1, 2, 3])
    assert dof_via_reduction(a, b) == 0


def test_dof_via_reduction_requires_solvable():
    a = TropMatrix([[0, 0], [0, 0]])
    b = TropVector([0, 1])
    with pytest.raises(UnsolvableSystemError):
        dof_via_reduction(a, b)


def test_full_and_reduced_solvability_coincide_random():
    rng = random.Random(51)
    instances = [planted_instance(rng) for _ in range(200)]
    # then systems whose random scalars have 20-30-digit denominators
    instances += [planted_instance(rng, max_den=10 ** rng.randint(20, 30)) for _ in range(120)]
    assert sum(any(e is None for r in a.row_tuples() for e in r) for a, _ in instances[200:]) >= 20
    for a, b in instances:
        sys = reduce_system(a, b)
        check_reconstruction(a, sys)
        full = solve(a, b)
        if sys.a_bar is None:
            reduced_solvable = False
        else:
            reduced_solvable = isinstance(solve(sys.a_bar, sys.b_bar), Solvable)
        assert isinstance(full, Solvable) == (sys.consistent() and reduced_solvable)
        if isinstance(full, Solvable):
            reduced = solve(sys.a_bar, sys.b_bar)
            x = expand_solution(reduced.x_star, sys)
            assert verify(a, x, b)
            assert x == full.x_star
            # plain-Fraction residuation, sharing no code with the kernel
            assert x == principal_solution(a, b)


def test_reduce_regularity_and_shape_checks(rank_3x3):
    with pytest.raises(DimensionError) as shape:
        reduce_system(rank_3x3, TropVector([1, 2]))
    assert str(shape.value) == "matrix has 3 rows but vector has 2 entries"
    with pytest.raises(RegularityError) as regular:
        reduce_system(rank_3x3, TropVector([1, None, 2]))
    assert str(regular.value) == "b must be regular for row-column reduction"


def test_degenerate_all_bottom_matrix():
    a = TropMatrix([[None, None], [None, None]])
    b = rand_finite_vector(random.Random(0), 2)
    sys = reduce_system(a, b)
    assert sys.a_bar is None and sys.b_bar is None
    assert not sys.consistent()
    assert all(coeffs == () for _, coeffs in sys.eta)
    assert not isinstance(solve(a, b), Solvable)
