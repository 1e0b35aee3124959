import random
from fractions import Fraction

import pytest

from tropsolve import (
    DimensionError,
    Solvable,
    TropMatrix,
    TropVector,
    UnsolvableSystemError,
    dof_via_reduction,
    expand_solution,
    mat_vec,
    reduce_system,
    solve,
)
from tropsolve.cli import main
from tropsolve.oracle import satisfies

from helpers import (
    identity,
    max_combination,
    planted_instance,
    principal_reference,
    rand_finite_vector,
    rand_matrix,
    with_bottoms,
)


def check_reconstruction(a: TropMatrix, sys) -> None:
    if not sys.indep_cols:  # the empty combination of an all -inf A
        assert all(e is None for r in a.row_tuples() for e in r) and not sys.indep_rows
        return
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
    assert satisfies(rank_3x3, x, b)
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
    # then -inf entries in b, on planted systems and on random ones with -inf shares 0, 0.25, 0.5
    for _ in range(150):
        a, b = planted_instance(rng)
        instances.append((a, with_bottoms(rng, a, b if rng.random() < 0.5 else None)))
    for _ in range(300):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        a = rand_matrix(rng, m, n, bottom_p=rng.choice((0, 0.25, 0.5)))
        instances.append((a, with_bottoms(rng, a, rand_finite_vector(rng, m) if rng.random() < 0.5 else None)))
    # and the empty reduction, against an all -inf b and a finite one
    instances += [(TropMatrix([[None] * 3] * 2), TropVector([None, None])), (TropMatrix([[None]]), TropVector([0]))]
    solvable = {True: 0, False: 0}
    finite_x_with_bottom_b = 0
    for a, b in instances:
        sys = reduce_system(a, b)
        check_reconstruction(a, sys)
        full = solve(a, b)
        reduced = solve(sys.a_bar, sys.b_bar)
        assert isinstance(full, Solvable) == (sys.consistent() and isinstance(reduced, Solvable))
        if not isinstance(full, Solvable):
            continue
        solvable[None in b] += 1
        finite_x_with_bottom_b += None in b and any(e is not None for e in full.x_star)
        # plain-Fraction residuation, sharing no code with the kernel
        assert full.x_star == principal_reference(a, b)
        x = expand_solution(reduced.x_star, sys)
        assert satisfies(a, x, b)
        assert x == full.x_star
    assert solvable[False] >= 100 and solvable[True] >= 100 and finite_x_with_bottom_b >= 40


def test_reduce_shape_check(rank_3x3):
    with pytest.raises(DimensionError) as shape:
        reduce_system(rank_3x3, TropVector([1, 2]))
    assert str(shape.value) == "matrix has 3 rows but vector has 2 entries"


def test_empty_reduction_of_all_bottom_system(tmp_path, capsys):
    # column rank 0: the reduced system is empty and solvable, with no unknowns
    a, b = TropMatrix([[None, None], [None, None]]), TropVector([None, None])
    sys = reduce_system(a, b)
    assert sys.a_bar == TropMatrix([]) and sys.b_bar == TropVector([])
    assert sys.row_consistency == ((0, True), (1, True))
    full, reduced = solve(a, b), solve(sys.a_bar, sys.b_bar)
    assert isinstance(full, Solvable) and isinstance(reduced, Solvable)
    # the empty solution expands to the all -inf x that solve returns
    x = expand_solution(reduced.x_star, sys)
    assert x == full.x_star == TropVector([None, None]) and satisfies(a, x, b)
    assert dof_via_reduction(a, b) == 0
    (tmp_path / "a.mat").write_text("-inf -inf\n-inf -inf\n")
    (tmp_path / "b.vec").write_text("-inf\n-inf\n")
    assert main(["reduce", str(tmp_path / "a.mat"), str(tmp_path / "b.vec")]) == 0
    # an empty list prints as -
    assert capsys.readouterr().out.splitlines() == [
        "status: solvable",
        "independent rows: -",
        "independent columns: -",
        "eta for column 1: -",
        "eta for column 2: -",
        "xi for row 1: -",
        "xi for row 2: -",
        "row 1 consistency: ok",
        "row 2 consistency: ok",
        "degrees of freedom via reduction: 0",
        "degrees of freedom (direct): 2",
    ]
    # and colrank finds no independent column
    assert main(["colrank", str(tmp_path / "a.mat")]) == 0
    assert capsys.readouterr().out.splitlines()[:2] == ["colrank: 0", "independent columns: -"]


def test_degenerate_all_bottom_matrix():
    a = TropMatrix([[None, None], [None, None]])
    b = rand_finite_vector(random.Random(0), 2)
    sys = reduce_system(a, b)
    assert sys.a_bar == TropMatrix([]) and sys.b_bar == TropVector([])
    assert not sys.consistent()
    assert all(coeffs == () for _, coeffs in sys.eta)
    assert not isinstance(solve(a, b), Solvable)
