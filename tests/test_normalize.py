import importlib
import math
import random
from fractions import Fraction

import pytest

from tropsolve import (
    DegenerateColumnError,
    RegularityError,
    SizeBoundError,
    Solvable,
    TropMatrix,
    TropVector,
    normalize,
    normalized_solution,
    solve,
)

from helpers import (
    PRIMES,
    fraction_grid,
    is_reduced_pair,
    mean,
    normalize_reference,
    prime_value,
    principal_reference,
    product,
    q_column_minima,
    rand_finite_vector,
    rand_matrix,
    residuation,
    wide_value,
    with_bottoms,
)

F = Fraction


def test_normalize_solvable_4x5(solvable_4x5):
    a, b = solvable_4x5
    res = normalize(a, b)
    assert res.col_means == TropVector([F(50), F(80), F(-10), F(38), F(-1)])
    assert res.b_mean == (104, 1)
    assert res.b_tilde == TropVector([-2, -26, -28, 56])
    assert [r[0] for r in res.a_tilde.pair_rows()] == [(115, 1), (91, 1), (87, 1), (-293, 1)]
    assert res.q[3] == ((349, 1), (38, 1), (252, 1), (-62, 1), (60, 1))
    assert res.column_minima == TropVector([-117, -49, -84, -62, -31])
    assert res.argmin_rows == (
        frozenset({0, 1}),
        frozenset({2}),
        frozenset({0, 1, 2}),
        frozenset({3}),
        frozenset({2}),
    )


def test_normalize_dof_4x5(dof_4x5):
    a, b = dof_4x5
    res = normalize(a, b)
    assert res.col_means == TropVector([F(-2), F(9, 2), F(21, 4), F(1, 4), F(-1, 2)])
    assert res.b_mean == (7, 1)
    assert res.q[0] == ((0, 1), (-9, 2), (-35, 4), (5, 4), (-5, 2))


def test_normalize_unsolvable_5x4_fifths(unsolvable_5x4):
    a, b = unsolvable_5x4
    res = normalize(a, b)
    assert res.col_means == TropVector([F(0), F(14, 5), F(9, 5), F(3, 5)])
    assert res.b_mean == (2, 5)
    assert res.column_minima == TropVector([F(-52, 5), F(-18, 5), F(-28, 5), F(-39, 5)])


def test_normalize_fixed_point():
    # columns and b already have zero means
    a = TropMatrix([[1, -2], [-1, 2]])
    b = TropVector([3, -3])
    res = normalize(a, b)
    assert res.a_tilde.row_tuples() == a.row_tuples()
    assert res.b_tilde == b


def test_normalize_preserves_bottom_and_marks_sentinel():
    a = TropMatrix([[1, None], [3, 4]])
    b = TropVector([0, 2])
    res = normalize(a, b)
    assert res.a_tilde.entry(0, 1) is None
    assert res.q[0][1] is None
    assert res.q[1][1] is not None


def test_normalize_rejects_irregular_b():
    with pytest.raises(RegularityError, match="preprocess"):
        normalize(TropMatrix([[1], [2]]), TropVector([1, None]))


def test_normalize_rejects_degenerate_column():
    with pytest.raises(DegenerateColumnError, match="column 2"):
        normalize(TropMatrix([[1, None], [2, None]]), TropVector([1, 2]))


def test_column_minima_skips_sentinel():
    # row 2 has the least b, but its -inf entry in column 1 leaves None in Q,
    # which never attains a column minimum
    a = TropMatrix([[-5, -1], [None, -2], [-5, 0]])
    res = normalize(a, TropVector([3, -6, 3]))
    assert res.q == (((3, 1), (3, 1)), (None, (-5, 1)), ((3, 1), (2, 1)))
    assert res.column_minima == TropVector([3, -5])
    assert res.argmin_rows == (frozenset({0, 2}), frozenset({1}))


def test_zero_sum_property_random():
    rng = random.Random(11)
    for _ in range(100):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        a = rand_matrix(rng, m, n, bottom_p=0.25, regular_cols=True)
        b = rand_finite_vector(rng, m)
        res = normalize(a, b)
        for col in zip(*res.a_tilde.row_tuples()):
            assert sum((e for e in col if e is not None), F(0)) == 0
        assert sum(res.b_tilde, F(0)) == 0


def _wide_tied_system(rng: random.Random, m: int) -> tuple[TropMatrix, TropVector]:
    """An m x 5 system (m > 64) whose column minima are tied past row 63.

    Rows 64 onward are shifted copies, b entry included, of rows that
    attain some column's minimum among the first 64; a copy keeps every
    slack b_i - a_ij of its source, so it attains the same minima.
    """
    a = rand_matrix(rng, 64, 5, bottom_p=0.25, regular_cols=True)
    b = rand_finite_vector(rng, 64)
    attaining = []
    for j in range(a.cols):
        attaining += sorted(residuation(a.column(j), b)[1])
    rows, b_entries = [list(r) for r in a.row_tuples()], list(b)
    for k in range(m - 64):
        src, c = attaining[k % len(attaining)], F(rng.randint(-40, 40), rng.randint(1, 5))
        rows.append([None if e is None else e + c for e in rows[src]])
        b_entries.append(b_entries[src] + c)
    return TropMatrix(rows), TropVector(b_entries)


def test_back_transformed_minima_equal_direct_residuation():
    # Q's minima and rows, read off the grid by the test, are
    # normalize's, and back-shifted they are plain residuation
    rng = random.Random(12)
    cases = []
    for _ in range(100):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        cases.append((rand_matrix(rng, m, n, bottom_p=0.25, regular_cols=True), rand_finite_vector(rng, m)))
    cases.append(_wide_tied_system(rng, 75))
    high_ties = 0
    for a, b in cases:
        res = normalize(a, b)
        minima, argmins = q_column_minima(fraction_grid(res.q))
        assert list(res.column_minima) == minima
        assert list(res.argmin_rows) == argmins
        for j in range(a.cols):
            direct, rows = residuation(a.column(j), b)
            assert minima[j] - res.col_means[j] + F(*res.b_mean) == direct
            assert argmins[j] == rows
            high_ties += len(argmins[j]) > 1 and max(argmins[j]) > 63
    assert high_ties >= 3


def test_q_invariant_under_equivalence_shifts():
    # column j of A shifted by alpha_j and b by beta, with denominators 7 and
    # 11 that A's values never have: A~, b~, Q, its minima and argmin rows stay
    # pair for pair, each column mean moves by its alpha_j and b's mean by beta
    rng = random.Random(13)
    for _ in range(100):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = rand_matrix(rng, m, n, bottom_p=0.2, regular_cols=True)
        b = rand_finite_vector(rng, m)
        alphas = [F(rng.randint(-60, 60), 7) for _ in range(n)]
        beta = F(rng.randint(-60, 60), 11)
        a2 = TropMatrix([[None if e is None else e + s for e, s in zip(r, alphas)] for r in a.row_tuples()])
        b2 = TropVector([e + beta for e in b])
        res, shifted = normalize(a, b), normalize(a2, b2)
        assert shifted._replace(col_means=None, b_mean=None) == res._replace(col_means=None, b_mean=None)
        assert list(shifted.col_means) == [c + s for c, s in zip(res.col_means, alphas)]
        assert F(*shifted.b_mean) == F(*res.b_mean) + beta


def _prime_system(rng: random.Random, m: int, n: int) -> tuple[TropMatrix, TropVector]:
    """An m x n system with prime denominators <= 97, a -inf share of 0.25 and no all -inf column.

    Half the time b = A x0 for a random x0 (solvable when b is regular),
    otherwise b is random.
    """
    grid = [[None if rng.random() < 0.25 else prime_value(rng) for _ in range(n)] for _ in range(m)]
    for j in range(n):
        if all(r[j] is None for r in grid):
            grid[rng.randrange(m)][j] = prime_value(rng)
    a = TropMatrix(grid)
    if rng.random() < 0.5:
        b = product(a, TropVector(prime_value(rng) for _ in range(n)))
        if all(e is not None for e in b):
            return a, b
    return a, TropVector(prime_value(rng) for _ in range(m))


def _long_lcd_system(rng: random.Random) -> tuple[TropMatrix, TropVector]:
    """A 40 x 3 solvable system whose first column holds every prime <= 97 as a denominator."""
    first = [prime_value(rng, p) for p in PRIMES] + [prime_value(rng) for _ in range(40 - len(PRIMES))]
    rng.shuffle(first)
    a = TropMatrix([[e, prime_value(rng), prime_value(rng)] for e in first])
    return a, product(a, TropVector(prime_value(rng) for _ in range(3)))


def _near_digit_limit_system() -> tuple[TropMatrix, TropVector]:
    """A 50 x 2 system whose first column mean has 4299 digits, just under `MAX_MEAN_DIGITS`."""
    col = [F(i - 20, 10**89 + 7 * i + 1) for i in range(49)] + [F(1, 10**70 + 3)]
    a = TropMatrix([[e, F(3 * i + 1, 97)] for i, e in enumerate(col)])
    return a, TropVector(F(i % 5, 3) for i in range(50))


def _sum_branch(x: F, y: F) -> str:
    """The branch that the reduced sum x + y takes: g = gcd of the denominators, g2 = gcd(t, g)."""
    g = math.gcd(x.denominator, y.denominator)
    if g == 1:
        return "g=1"
    t = x.numerator * (y.denominator // g) + y.numerator * (x.denominator // g)
    return "g2=1" if math.gcd(t, g) == 1 else "g2>1"


def test_normalize_matches_plain_fraction_reference():
    # every field of the report, and Y* of solvable systems, against the
    # cell-by-cell Fraction reference on prime denominators, a 121-bit column
    # lcm and a mean just under the digit bound; each of a~_ij = a_ij - mean_j,
    # q_ij = (b_i - a_ij) - (b_mean - mean_j) and y*_j = x*_j - (b_mean - mean_j)
    # reaches every branch of the reduced difference, which x + (-y) takes too
    rng = random.Random(14)
    cases = [_prime_system(rng, rng.randint(1, 8), rng.randint(1, 8)) for _ in range(200)]
    long_lcd = _long_lcd_system(rng)
    assert math.lcm(*(e.denominator for e in long_lcd[0].column(0))).bit_length() > 100
    near_limit = _near_digit_limit_system()
    assert 10**4298 < normalize_reference(*near_limit).col_means[0].denominator < 10**4299
    cases += [long_lcd, near_limit]
    solvable = 0
    seen = {(part, branch): 0 for part in ("A~", "Q", "Y*") for branch in ("g=1", "g2=1", "g2>1")}
    for a, b in cases:
        res, ref = normalize(a, b), normalize_reference(a, b)
        assert len(res._fields) == 7
        for name in res._fields:
            got = getattr(res, name)
            if name == "q":
                got = fraction_grid(got)
            assert got == getattr(ref, name), name
        shifts = [m - F(*ref.b_mean) for m in ref.col_means]
        for r, bi in zip(a.row_tuples(), b):
            for e, m, s in zip(r, ref.col_means, shifts):
                if e is not None:
                    seen["A~", _sum_branch(e, -m)] += 1
                    seen["Q", _sum_branch(bi - e, s)] += 1
        outcome = solve(a, b)
        for x, s in zip(outcome.x_star, shifts):
            seen["Y*", _sum_branch(x, s)] += 1
        if isinstance(outcome, Solvable):
            solvable += 1
            y_ref = [x + m - F(*ref.b_mean) for x, m in zip(outcome.x_star, ref.col_means)]
            assert normalized_solution(a, b, outcome.x_star) == TropVector(y_ref) == ref.column_minima
    assert solvable >= 50
    assert min(seen.values()) >= 10, seen


def test_grid_cells_are_reduced_pairs():
    # every finite cell of A~ and Q is a pair of ints (n, d), d > 0, gcd(n, d) == 1;
    # on prime denominators most cells' unreduced pairs share a factor
    rng = random.Random(17)
    cases = [_prime_system(rng, rng.randint(1, 8), rng.randint(1, 8)) for _ in range(200)]
    cases.append(_long_lcd_system(rng))
    cells = 0
    for a, b in cases:
        res = normalize(a, b)
        for grid in (res.a_tilde.pair_rows(), res.q):
            assert len(grid) == a.rows and all(len(r) == a.cols for r in grid)
            for r, row in zip(a.row_tuples(), grid):
                for e, p in zip(r, row):
                    assert (p is None) == (e is None)
                    assert is_reduced_pair(p), p
                    cells += p is not None
    assert cells > 5000


def test_normalize_gcd_operands_stay_pair_sized(monkeypatch):
    # each cell of A~ and Q is a reduced sum whose gcds all take a small
    # denominator as one operand, so no per-cell gcd has two operands longer
    # than two input entries; reducing each cell over the column mean's
    # 800-digit denominator would take 2 * 8 * 8 such gcds
    rng = random.Random(66)
    a = TropMatrix([[wide_value(rng) for _ in range(8)] for _ in range(8)])
    b = TropVector(wide_value(rng) for _ in range(8))
    entries = [p for row in a.pair_rows() for p in row] + list(b.pairs())
    entry_bits = max(max(abs(n).bit_length(), d.bit_length()) for n, d in entries)
    calls, gcd = [], math.gcd

    def record(*args):
        calls.append(args)
        return gcd(*args)

    # the library's modules bind gcd by name at import; Fraction's own arithmetic calls math.gcd
    for module in (math, importlib.import_module("tropsolve.normalize"), importlib.import_module("tropsolve.scalar")):
        monkeypatch.setattr(module, "gcd", record)
    res = normalize(a, b)
    monkeypatch.undo()
    assert fraction_grid(res.q) == normalize_reference(a, b).q
    assert len(calls) > 2 * a.rows * a.cols  # the hooks see the per-cell gcds
    long_calls = [c for c in calls if min(abs(x).bit_length() for x in c) > 2 * entry_bits + 1]
    # b's mean and each column mean, reduced once as a pair and once more by
    # `Fraction` for `col_means` and `b_mean`, and each b_mean - mean_j, whose
    # two denominators are both long
    assert len(long_calls) <= 2 + 3 * a.cols, (len(long_calls), len(calls))


def test_normalized_solution_on_systems_normalize_refuses():
    # Y* where b holds -inf or a column is all -inf, against the plain-Fraction
    # y*_j = x*_j + mean_j - b_mean, means over finite entries, -inf where x*_j is
    rng = random.Random(16)
    finite_y = 0
    for _ in range(300):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        grid = [[None if rng.random() < 0.3 else prime_value(rng) for _ in range(n)] for _ in range(m)]
        for j in rng.sample(range(n), rng.randint(0, n // 2)):
            for r in grid:
                r[j] = None
        a = TropMatrix(grid)
        b = with_bottoms(rng, a, TropVector(prime_value(rng) for _ in range(m)) if rng.random() < 0.5 else None)
        with pytest.raises((RegularityError, DegenerateColumnError)):
            normalize(a, b)
        x_star = solve(a, b).x_star
        assert x_star == principal_reference(a, b)
        y_ref = [None if x is None else x + mean(col) - mean(b) for x, col in zip(x_star, zip(*grid))]
        assert normalized_solution(a, b, x_star) == TropVector(y_ref)
        finite_y += sum(y is not None for y in y_ref)
    assert finite_y >= 100


def test_normalize_refuses_mean_past_digit_limit(monkeypatch):
    # the system of tests/test_cli.py::test_derived_value_past_digit_limit_exit_2:
    # the column mean of 60 distinct 90-digit denominators has more than 4300
    # digits, and the library refuses it as the CLI does
    a = TropMatrix([[Fraction(1, 10**89 + 7 * i + 1)] for i in range(60)])
    b = TropVector([0] * 60)
    with pytest.raises(SizeBoundError) as exc:
        normalize(a, b)
    assert str(exc.value) == "a column mean or minimum has more than 4300 digits; the normalize report is refused"
    # the bound itself: a 4301-digit mean is refused, a 4300-digit one is not
    with pytest.raises(SizeBoundError):
        normalize(TropMatrix([[Fraction(1, 10**4300)]]), TropVector([0]))
    assert normalize(TropMatrix([[Fraction(1, 10**4300 - 1)]]), TropVector([0])).column_minima == TropVector([0])
    # `_sub` builds A~ and `_q_row` builds Q a row per call; before the refusal
    # only `_sub` runs, forming b_mean - mean_j and y*, one call each; a grid
    # row built before the refusal adds a call
    calls = []
    module = importlib.import_module("tropsolve.normalize")
    for name in ("_sub", "_q_row"):
        monkeypatch.setattr(module, name, lambda *args, f=getattr(module, name): calls.append(args) or f(*args))
    with pytest.raises(SizeBoundError):
        normalize(a, b)
    assert len(calls) == 2
    calls.clear()
    normalize(TropMatrix([[1, 2], [3, 4]]), TropVector([0, 1]))
    assert len(calls) > 2
