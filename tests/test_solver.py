import random
from fractions import Fraction

import pytest

from tropsolve import (
    BOTTOM,
    DimensionError,
    Solvable,
    TropMatrix,
    TropVector,
    Unsolvable,
    check_equivalence,
    exhaustive_solvable,
    mat_vec,
    normalize,
    normalized_solution,
    principal_solution,
    solve,
    solver,
)
from tropsolve.oracle import satisfies

from helpers import (
    PRIMES,
    arbitrary_instance,
    column_shifts,
    fraction_grid,
    from_columns,
    is_reduced_pair,
    map_equivalent_solution,
    perturbed,
    prime_value,
    principal_reference,
    product,
    q_column_minima,
    rand_finite_vector,
    rand_matrix,
    residuation,
    solvable_instance,
    solves,
    wide_value,
)


def test_solve_golden_solvable(solvable_4x5):
    a, b = solvable_4x5
    out = solve(a, b)
    assert isinstance(out, Solvable)
    assert out.x_star == TropVector([-63, -25, 30, 4, 74])
    assert normalized_solution(a, b, out.x_star) == TropVector([-117, -49, -84, -62, -31])
    assert out.coverage == ((0, 2), (0, 2), (1, 2, 4), (3,))
    assert out.forced_bottom == frozenset() and out.unbounded == frozenset()
    assert satisfies(a, out.x_star, b)


def test_solve_golden_unsolvable(unsolvable_5x4):
    a, b = unsolvable_5x4
    out = solve(a, b)
    assert isinstance(out, Unsolvable)
    assert out.witness_rows == (0, 1, 2)
    # the witness rows are exactly the uncovered ones
    for i in out.witness_rows:
        assert out.coverage[i] == ()
    assert out.coverage[3] == (0, 2, 3) and out.coverage[4] == (1,)


def test_rejected_candidate_fails_first_equation(unsolvable_5x4):
    a, b = unsolvable_5x4
    x = principal_solution(a, b)
    assert x == TropVector([-10, -6, -7, -8])
    assert not satisfies(a, x, b)
    assert mat_vec(a, x)[0] == Fraction(-1)


def test_solve_one_by_one():
    out = solve(TropMatrix([[0]]), TropVector([7]))
    assert isinstance(out, Solvable)
    assert out.x_star == TropVector([7])


def test_solve_shape_mismatch():
    # solve, the oracle's checker and both oracles refuse a b that does not match A's rows
    for call in (solve, lambda a, b: satisfies(a, TropVector([0, 0]), b), principal_solution, exhaustive_solvable):
        with pytest.raises(DimensionError):
            call(TropMatrix([[1, 2]]), TropVector([1, 2]))


# --- -inf right-hand sides and all -inf columns (the paper's preprocessing) --


def test_preprocess_identity_on_regular_b():
    # a regular b drops no row and forces no column: row 1 stays as a
    # witness and both columns keep their minima in row 2
    a = TropMatrix([[1, 2], [3, 4]])
    out = solve(a, TropVector([5, 6]))
    assert isinstance(out, Unsolvable)
    assert out.witness_rows == (0,)
    assert out.coverage == ((), (0, 1))
    out = solve(a, TropVector([5, 7]))
    assert isinstance(out, Solvable)
    assert out.forced_bottom == frozenset() and out.unbounded == frozenset()
    assert out.coverage == ((0, 1), (0, 1))


def test_preprocess_drops_row_and_forced_column():
    a = TropMatrix([[1, None], [2, 3]])
    b = TropVector([None, 5])
    out = solve(a, b)
    assert isinstance(out, Solvable)
    assert out.x_star == TropVector([None, 2])
    # column 2 alone, normalized against row 2 alone: its minimum is 0
    assert normalized_solution(a, b, out.x_star) == TropVector([None, 0])
    assert out.forced_bottom == frozenset({0}) and out.unbounded == frozenset()
    assert out.coverage == ((), (1,))
    assert satisfies(a, out.x_star, b)


def test_preprocess_all_bottom_b_vacuous():
    a = TropMatrix([[1, None], [2, 3]])
    b = TropVector([None, None])
    out = solve(a, b)
    assert isinstance(out, Solvable)
    assert out.x_star == TropVector([None, None])
    assert out.forced_bottom == frozenset({0, 1}) and out.unbounded == frozenset()
    assert out.coverage == ((), ())
    assert satisfies(a, out.x_star, b)


def test_preprocess_unconstrained_column():
    a = TropMatrix([[1, None], [2, None]])
    b = TropVector([3, 4])
    out = solve(a, b)
    assert isinstance(out, Solvable)
    assert out.unbounded == frozenset({1}) and out.forced_bottom == frozenset()
    assert out.coverage == ((0,), (0,))
    assert satisfies(a, out.x_star, b)


def test_unsatisfiable_after_forcing():
    # the only column that could cover row 2 is forced to -inf by row 1
    a = TropMatrix([[1, None], [2, None]])
    b = TropVector([None, 5])
    out = solve(a, b)
    assert isinstance(out, Unsolvable)
    assert out.witness_rows == (1,)


# --- maximality and oracle agreement ----------------------------------------


def test_maximality_random():
    rng = random.Random(21)
    for _ in range(200):
        a, x0, b = solvable_instance(rng)
        out = solve(a, b)
        assert isinstance(out, Solvable), (a, b)
        assert satisfies(a, out.x_star, b)
        # x0 is dominated; unbounded columns dominate any finite value
        for j in range(a.cols):
            if j not in out.unbounded:
                assert x0[j] <= out.x_star[j]


def test_solver_matches_residuation_oracle():
    rng = random.Random(22)
    for _ in range(200):
        a, b = arbitrary_instance(rng)
        out = solve(a, b)
        x = principal_reference(a, b)
        assert x == out.x_star
        assert satisfies(a, x, b) == isinstance(out, Solvable)


def test_residuate_returns_its_least_slack_reduced():
    # the kernel compares unreduced slacks and reduces only the least, so that
    # its callers store and compare what it returns as it is; two entries over
    # one prime p give a slack over p*p, and two 100-digit ones often a common factor
    rng = random.Random(27)

    def draw(n, p, bottom_p):
        return [None if rng.random() < bottom_p else prime_value(rng, p) if p else wide_value(rng) for _ in range(n)]

    seen = {"unbounded": 0, "forced": 0, "finite": 0}
    for k in range(400):
        n, p = rng.randint(1, 6), rng.choice(PRIMES) if k % 2 else None
        kv, tv = draw(n, p, 0.3), draw(n, p, 0.1)
        got, want = solver.residuate(TropVector(kv).pairs(), TropVector(tv).pairs()), residuation(kv, tv)
        if want is None:
            assert got is None
            seen["unbounded"] += 1
            continue
        mask, slack = got
        assert is_reduced_pair(slack)
        assert (None if slack is None else Fraction(*slack), frozenset(solver.mask_rows(mask))) == want
        seen["forced" if slack is None else "finite"] += 1
    assert min(seen.values()) >= 20, seen


def test_solve_matches_normalize_column_minima():
    # the residuation pass against the paper's route through the grid Q,
    # whose minima and rows the test reads off the grid itself
    # (normalize's own minima are solve's x* shifted, so they prove nothing here)
    rng = random.Random(25)
    solvable = 0
    for k in range(300):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        a = rand_matrix(rng, m, n, bottom_p=0.25, regular_rows=True, regular_cols=True)
        b = product(a, rand_finite_vector(rng, n)) if k % 2 else rand_finite_vector(rng, m)
        minima, argmins = q_column_minima(fraction_grid(normalize(a, b).q))
        out = solve(a, b)
        assert out.coverage == tuple(tuple(j for j in range(n) if i in argmins[j]) for i in range(m))
        assert normalized_solution(a, b, out.x_star) == TropVector(minima)
        if isinstance(out, Solvable):
            solvable += 1
        else:
            assert out.witness_rows == tuple(i for i in range(m) if not out.coverage[i])
    assert 150 <= solvable < 300


# --- equivalence ------------------------------------------------------------


def test_support_mask_and_mask_rows_are_inverse():
    # the finite rows of a pair list, as a bitmask past bit 63 and back
    rng = random.Random(61)
    for m in (0, 1, 5, 64, 70, 130):
        pairs = [None if rng.random() < 0.4 else (rng.randint(-9, 9), 1) for _ in range(m)]
        finite = [i for i, p in enumerate(pairs) if p is not None]
        assert solver.mask_rows(solver.support_mask(pairs)) == finite
    assert solver.support_mask([None, (1, 1), None, (0, 1)]) == 0b1010


def test_check_equivalence_identity_and_shift():
    a = TropMatrix([[3, 6, 5], [-5, 0, -2], [4, 1, 6]])
    assert check_equivalence(a, a) == [Fraction(0)] * 3
    shifted = TropMatrix(
        [[3, 11, 5], [-5, 5, -2], [4, 6, 6]]
    )  # column 2 shifted by 5
    assert check_equivalence(a, shifted) == [
        Fraction(0),
        Fraction(5),
        Fraction(0),
    ]


def test_check_equivalence_rejects_perturbation():
    a = TropMatrix([[3, 6], [-5, 0]])
    perturbed = TropMatrix([[3, 6], [-4, 0]])
    assert check_equivalence(a, perturbed) is None


def test_check_equivalence_rejects_bottom_pattern_change():
    a = TropMatrix([[3, None], [-5, 0]])
    other = TropMatrix([[3, 1], [-5, 0]])
    assert check_equivalence(a, other) is None
    assert check_equivalence(a, a) == [Fraction(0), Fraction(0)]
    # no column: the empty list of shifts is a positive verdict
    no_cols = TropMatrix([[], []])
    assert check_equivalence(no_cols, no_cols) == []
    assert check_equivalence(no_cols, no_cols) is not None


def test_check_equivalence_tall_long_denominators():
    # every change sits in a row at index 64 or later, past a 64-bit row mask
    rng = random.Random(31)

    def long_fraction() -> Fraction:
        digits = rng.randint(20, 100)
        den = rng.randrange(10 ** (digits - 1), 10**digits)
        return Fraction(rng.randrange(-50 * den, 50 * den), den)

    for _ in range(12):
        m, n = rng.randint(66, 80), rng.randint(2, 4)
        cols = [[None if rng.random() < 0.2 else long_fraction() for _ in range(m)] for _ in range(n)]
        empty, j = rng.sample(range(n), 2)
        cols[empty] = [None] * m  # an all -inf column pair: alpha 0
        late, gap = rng.sample(range(64, m), 2)
        cols[j][late], cols[j][gap] = long_fraction(), None
        alphas = [long_fraction() for _ in range(n)]
        shifted = [[None if e is None else e + al for e in col] for col, al in zip(cols, alphas)]
        a = from_columns(cols)

        expected = [Fraction(0) if c == empty else al for c, al in enumerate(alphas)]
        a2 = from_columns(shifted)
        assert check_equivalence(a, a2) == column_shifts(a.row_tuples(), a2.row_tuples()) == expected

        changed = []
        for sign in (1, -1):
            bumped = [list(col) for col in shifted]
            bumped[j][late] += sign * Fraction(1, 10 ** rng.randint(1, 60))
            changed.append(bumped)
        for col, row, value in ((j, late, None), (j, gap, long_fraction()), (empty, late, long_fraction())):
            pattern = [list(c) for c in shifted]
            pattern[col][row] = value
            changed.append(pattern)
        for cols2 in changed:
            a2 = from_columns(cols2)
            assert column_shifts(a.row_tuples(), a2.row_tuples()) is None
            assert check_equivalence(a, a2) is None


def test_map_equivalent_solution_formula():
    x = TropVector([1, 2])
    assert map_equivalent_solution(x, [Fraction(2), Fraction(0)], 3) == TropVector([2, 5])
    assert map_equivalent_solution(x, [Fraction(0)] * 2, 0) == x
    assert map_equivalent_solution(TropVector([None, 1]), [Fraction(1)] * 2, 1) == TropVector(
        [None, 1]
    )


def test_map_equivalent_uniform_shift_cancels(solvable_4x5):
    a, b = solvable_4x5
    out = solve(a, b)
    mapped = map_equivalent_solution(out.x_star, [Fraction(1)] * 5, 1)
    assert mapped == out.x_star
    shifted_a = TropMatrix(
        [[a.entry(i, j) + 1 for j in range(a.cols)] for i in range(a.rows)]
    )
    shifted_b = TropVector(e + 1 for e in b)
    assert satisfies(shifted_a, mapped, shifted_b)


def test_equivalence_invariance_random():
    rng = random.Random(23)
    for _ in range(150):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = rand_matrix(rng, m, n, bottom_p=0.2)
        b = rand_finite_vector(rng, m)
        alphas = [rand_finite_vector(rng, 1)[0] for _ in range(n)]
        beta = rand_finite_vector(rng, 1)[0]
        a2_cols = []
        for j in range(n):
            col = a.column(j)
            a2_cols.append(
                TropVector(
                    BOTTOM if e is None else e + alphas[j]
                    for e in col
                )
            )
        a2 = from_columns(a2_cols)
        b2 = TropVector(e + beta for e in b)
        recovered = check_equivalence(a, a2)
        for j in range(n):
            if all(e is None for e in a.column(j)):
                # shift of an all -inf column is unrecoverable; 0 by convention
                assert recovered[j] == Fraction(0)
            else:
                assert recovered[j] == alphas[j]
        out, out2 = solve(a, b), solve(a2, b2)
        assert isinstance(out, Solvable) == isinstance(out2, Solvable)
        if isinstance(out, Solvable):
            assert map_equivalent_solution(out.x_star, alphas, beta) == out2.x_star
            assert satisfies(a2, out2.x_star, b2)


def test_solvable_implies_exact_product_random():
    rng = random.Random(24)
    for _ in range(100):
        a, b = arbitrary_instance(rng, max_dim=5)
        out = solve(a, b)
        if isinstance(out, Solvable):
            assert solves(a, out.x_star, b)
        else:
            assert all(out.coverage[i] == () for i in out.witness_rows)


# --- internal self-check ----------------------------------------------------


def test_solve_self_check_fires(monkeypatch, solvable_4x5):
    a, b = solvable_4x5
    monkeypatch.setattr(solver, "mat_vec", perturbed(mat_vec))
    with pytest.raises(AssertionError, match="covered system does not reproduce b"):
        solve(a, b)


# --- exact integer pairs at large denominators -------------------------------


def big_fraction(rng: random.Random) -> Fraction:
    """Either sign, denominator up to 10**100."""
    den = rng.randint(1, 10 ** rng.randint(1, 100))
    return Fraction(rng.randint(-30 * den, 30 * den), den)


def big_scalar(rng: random.Random, bottom_p: float):
    return BOTTOM if rng.random() < bottom_p else big_fraction(rng)


def test_large_denominators_match_plain_fraction_references():
    rng = random.Random(26)
    solvable = tied = deep = 0
    # 300 systems of at most 6 rows, then 10 of 65-80 rows whose coverage masks pass bit 63
    for k in range(310):
        m, n = rng.randint(1, 6) if k < 300 else rng.randint(65, 80), rng.randint(1, 6)
        rows = [[big_scalar(rng, 0.2) for _ in range(n)] for _ in range(m)]
        a = TropMatrix(rows)
        if k % 2:
            b = product(a, TropVector(big_fraction(rng) for _ in range(n)))
        else:
            b = TropVector(big_scalar(rng, 0.1) for _ in range(m))
        # plant a slack at a column minimum, or 10**-20..10**-100 off it:
        # a_kj = b_k - (least slack of column j) + eps
        for j in range(n):
            finite = [i for i in range(m) if rows[i][j] is not None and b[i] is not None]
            spare = [i for i in range(m) if i not in finite and b[i] is not None]
            if finite and spare and rng.random() < 0.6:
                least, _ = residuation([None if bi is None else r[j] for r, bi in zip(rows, b)], b)
                eps = rng.choice([0, 0, 1, -1]) * Fraction(1, 10 ** rng.randint(20, 100))
                # in the tall systems, past bit 63 of the coverage masks
                k_row = rng.choice([i for i in spare if i >= 64] or spare)
                rows[k_row][j] = b[k_row] - least + eps
        a = TropMatrix(rows)

        out = solve(a, b)
        x0 = principal_reference(a, b)
        assert isinstance(out, Solvable) == satisfies(a, x0, b)
        if isinstance(out, Solvable):
            solvable += 1
            assert out.x_star == x0
        # per row, the columns whose least slack b_i - a_ij lies in that row
        slack_rows = [residuation(col, b) for col in zip(*a.row_tuples())]
        assert out.coverage == tuple(tuple(j for j, r in enumerate(slack_rows) if r and i in r[1]) for i in range(m))
        tied += sum(len(c) for c in out.coverage) > len({j for c in out.coverage for j in c})
        col_rows = [[i for i, c in enumerate(out.coverage) if j in c] for j in range(n)]
        deep += sum(len(r) > 1 and r[-1] >= 64 for r in col_rows)
        for x in (x0, TropVector(big_scalar(rng, 0.2) for _ in range(n))):
            assert mat_vec(a, x) == product(a, x)
    assert 60 <= solvable <= 240 and tied >= 60 and deep >= 8
