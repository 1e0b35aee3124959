import random
from fractions import Fraction

import pytest

from tropsolve import (
    DimensionError,
    Solvable,
    TropMatrix,
    TropVector,
    UnsolvableSystemError,
    degrees_of_freedom,
    dof_via_reduction,
    expand_solution,
    minimal_leading_oracle,
    parse_matrix,
    parse_vector,
    reduce_system,
    rowrank,
    solve,
)
from tropsolve import rank
from tropsolve import reduce as reduction
from tropsolve.cli import main
from tropsolve.oracle import satisfies

from helpers import (
    identity,
    max_combination,
    planted_instance,
    planted_low_rank,
    principal_reference,
    product,
    rand_finite_vector,
    rand_fraction,
    rand_matrix,
    residuation,
    solves,
    with_bottoms,
)


def check_reconstruction(a: TropMatrix, sys) -> None:
    # each coefficient vector is aligned with its basis, an all -inf target's too;
    # the combinations below cannot see a short one, as a missing term reads -inf
    assert all(len(coeffs) == len(sys.indep_cols) for _, coeffs in sys.eta)
    assert all(len(coeffs) == len(sys.indep_rows) for _, coeffs in sys.xi)
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
    b = product(rank_3x3, TropVector([0, 0, 0]))
    sys = reduce_system(rank_3x3, b)
    assert sys.indep_cols == (0, 1)
    assert sys.indep_rows == (1, 2)
    assert sys.eta == ((2, TropVector((Fraction(2), Fraction(-2)))),)
    assert sys.xi == ((0, TropVector((Fraction(6), Fraction(-1)))),)
    assert sys.row_consistency == ((0, True),)
    assert sys.a_bar == TropMatrix([[-5, 0], [4, 1]])
    assert sys.b_bar == TropVector([b[1], b[2]])
    check_reconstruction(rank_3x3, sys)


def test_reduce_planted_dependent_row_consistency():
    # row 4 = max(row 1 + 1, row 2 + 0); b matches on that row
    a = TropMatrix([[0, 3, 1], [2, 0, 4], [7, None, 0], [2, 4, 4]])
    x0 = TropVector([0, 0, 0])
    b = product(a, x0)
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
    b = product(rank_3x3, TropVector([0, 0, 0]))
    sys = reduce_system(rank_3x3, b)
    reduced = solve(sys.a_bar, sys.b_bar)
    assert isinstance(reduced, Solvable)
    x = expand_solution(reduced.x_star, sys)
    assert satisfies(rank_3x3, x, b)
    full = solve(rank_3x3, b)
    assert x == full.x_star
    # dependent column bound: min over (y_i - eta_i), eta = (2, -2)
    assert x[2] == residuation([Fraction(2), Fraction(-2)], reduced.x_star)[0]


def test_expand_rejects_non_solution():
    a = TropMatrix([[0, None], [None, 0]])
    sys = reduce_system(a, TropVector([1, 2]))
    with pytest.raises(ValueError, match="not a reduced solution"):
        expand_solution(TropVector([0, 0]), sys)


def test_expand_length_check(rank_3x3):
    b = product(rank_3x3, TropVector([0, 0, 0]))
    sys = reduce_system(rank_3x3, b)
    with pytest.raises(Exception):
        expand_solution(TropVector([0, 0, 0]), sys)


def test_dof_via_reduction_goldens(rank_3x3, solvable_4x5):
    b = product(rank_3x3, TropVector([0, 0, 0]))
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
    assert not reduce_system(a, b).consistent()  # row 2 = row 1, but b_2 != b_1
    # no dependent row, so every row holds, and the reduced system is A x = b itself
    a, b = TropMatrix([[0, 1], [1, 0]]), TropVector([0, 5])
    assert reduce_system(a, b).consistent() and not isinstance(solve(a, b), Solvable)
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


def _cover_on_least_reduced_cover(a: TropMatrix, b: TropVector, full: Solvable, sys) -> TropVector:
    """x*_j on a least cover of the reduced system, mapped to A's columns, and -inf elsewhere."""
    _, witness = minimal_leading_oracle(solve(sys.a_bar, sys.b_bar))
    chosen = {sys.indep_cols[k] for k in witness}
    return TropVector([e if j in chosen else None for j, e in enumerate(full.x_star)])


def test_greedy_dof_breaks_the_reduction_bound_on_4x5():
    # the smallest system found where dof_direct >= dof_via_reduction + (n - k) fails
    # for the greedy counts; the least covers keep tau_full <= tau_red
    a = parse_matrix("2 1 -1 -1 2\n-inf 1 -1 1 -1\n-inf -1 1/2 -inf 1/2\n2 2 -1 2 -1\n")
    b = parse_vector("4 3 5/2 4")
    sys, full = reduce_system(a, b), solve(a, b)
    n, k = a.cols, len(sys.indep_cols)
    assert k == 4 and isinstance(full, Solvable)
    dof_direct, dof_reduced = degrees_of_freedom(full).d_f, dof_via_reduction(a, b)
    assert dof_direct == dof_reduced == 2
    assert dof_direct < dof_reduced + (n - k)
    tau_full, witness = minimal_leading_oracle(full)
    tau_red, _ = minimal_leading_oracle(solve(sys.a_bar, sys.b_bar))
    assert (tau_full, witness, tau_red) == (2, (1, 4), 2)
    assert n - tau_full >= (k - tau_red) + (n - k)
    assert solves(a, _cover_on_least_reduced_cover(a, b, full, sys), b)


def test_least_covers_do_not_grow_under_reduction():
    # tau_full <= tau_red: x* on a least cover of the reduced system, -inf elsewhere, solves A x = b
    rng = random.Random(52)
    instances = [planted_instance(rng) for _ in range(300)]  # half of them plant b = A x0
    for _ in range(150):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        a = rand_matrix(rng, m, n, bottom_p=rng.choice((0, 0.25)))
        instances.append((a, product(a, rand_finite_vector(rng, n))))  # solvable, -inf rows of b included
    solvable = strict = 0
    for a, b in instances:
        full = solve(a, b)
        if not isinstance(full, Solvable):
            continue
        solvable += 1
        sys = reduce_system(a, b)
        tau_full, tau_red = minimal_leading_oracle(full)[0], minimal_leading_oracle(solve(sys.a_bar, sys.b_bar))[0]
        assert tau_full <= tau_red, (a, b)
        strict += tau_full < tau_red
        assert solves(a, _cover_on_least_reduced_cover(a, b, full, sys), b), (a, b)
    assert solvable >= 250 and strict >= 10, (solvable, strict)


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
    assert all(coeffs == TropVector(()) for _, coeffs in sys.eta)
    assert not isinstance(solve(a, b), Solvable)


def _row_scan_patched(monkeypatch, name: str, replacement) -> None:
    """From the moment `reduce_system`'s `colrank` returns, `rank.<name>(*args)` runs `replacement(original, *args)`.

    So only the row scan, which runs after the column scan, meets the patch.
    """
    original, col_scan, started = getattr(rank, name), reduction.colrank, []

    def patched(*args):
        return replacement(original, *args) if started else original(*args)

    def colrank_then_rows(a):
        report = col_scan(a)
        started.append(True)
        return report

    monkeypatch.setattr(rank, name, patched)
    monkeypatch.setattr(reduction, "colrank", colrank_then_rows)


def _row_scan_calls(monkeypatch, name: str, a: TropMatrix) -> tuple:
    """`reduce_system(a, A 0)` and the argument tuples of the `rank.<name>` calls its row scan makes."""
    calls = []

    def recording(original, *args):
        calls.append(args)
        return original(*args)

    _row_scan_patched(monkeypatch, name, recording)
    return reduce_system(a, product(a, TropVector([0] * a.cols))), calls


def test_row_scan_on_independent_columns_matches_rowrank():
    # reduce's row scan runs on the rows cut to the independent columns; by the
    # theorem in reduce's docstring it finds the rows and coefficients rowrank(a) finds
    rng = random.Random(33)
    matrices = [planted_low_rank(rng, m, n, r) for m, n in ((12, 12), (16, 9), (9, 16)) for r in (2, 3, 4)]
    matrices += [rand_matrix(rng, rng.randint(2, 9), rng.randint(2, 9), bottom_p=rng.uniform(0.25, 0.5)) for _ in range(60)]
    for _ in range(20):  # rows that are shifted copies of others
        base = rand_matrix(rng, rng.randint(1, 4), rng.randint(2, 7), bottom_p=0.2)
        rows = [list(r) for r in base.row_tuples()]
        for _ in range(3):
            shift, row = rand_fraction(rng), rows[rng.randrange(len(rows))]
            rows.append([None if e is None else e + shift for e in row])
        rng.shuffle(rows)
        matrices.append(TropMatrix(rows))
    matrices += [TropMatrix([[None] * 4] * 3), TropMatrix([[], [], []])]
    cut = 0
    for a in matrices:
        sys = reduce_system(a, rand_finite_vector(rng, a.rows))
        report = rowrank(a)
        basis = sorted(report.independent)
        assert sys.indep_rows == tuple(basis), a
        assert sys.xi == report.dependent, a
        check_reconstruction(a, sys)
        cut += len(sys.indep_cols) < a.cols
    assert cut >= 40


def test_row_scan_residuates_only_the_independent_columns(monkeypatch):
    # the work: on a planted 24 x 24 rank-5 matrix, every residuation of the row
    # scan gets vectors of length 5, |C|, not 24; its 216 calls, the ones
    # rowrank(a) makes, read 1,080 entries of each side, where rowrank reads 5,184
    a = planted_low_rank(random.Random(24), 24, 24, 5)
    sys, calls = _row_scan_calls(monkeypatch, "residuate", a)
    assert len(sys.indep_cols) == 5 and len(sys.indep_rows) == 5
    assert len(calls) == 216 and {(len(k), len(t)) for k, t in calls} == {(5, 5)}


def test_row_scan_self_check_covers_every_column(monkeypatch):
    # the scope: each dependent row is compared with its combination on all of
    # A's columns, once. A check cut back to C gives the same reports, by the
    # theorem, so no other test can tell the two apart
    a = planted_low_rank(random.Random(30), 30, 20, 5)
    sys, spans = _row_scan_calls(monkeypatch, "row_maxima", a)
    assert len(sys.indep_cols) < a.cols
    assert len(spans) == len(sys.xi) == 25
    assert all(len(span) == a.cols for span, _ in spans)


def test_row_scan_self_check_fires(monkeypatch, rank_3x3):
    # each finite coefficient of the row scan comes back 1 too large; its
    # verdicts are unchanged, but row 0's combination overshoots it
    def overshooting(original, k_pairs, t_pairs):
        res = original(k_pairs, t_pairs)
        if res is None or res[1] is None:
            return res
        mask, (n, d) = res
        return mask, (n + d, d)

    _row_scan_patched(monkeypatch, "residuate", overshooting)
    with pytest.raises(AssertionError, match="dependent column not spanned by the independent set"):
        reduce_system(rank_3x3, TropVector([0, 0, 0]))
