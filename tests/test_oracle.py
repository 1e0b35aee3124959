import ast
import inspect
import random
from fractions import Fraction

import pytest

from tropsolve import (
    BOTTOM,
    SizeBoundError,
    Solvable,
    TropMatrix,
    TropVector,
    exhaustive_solvable,
    mat_vec,
    matrix,
    oracle,
    principal_solution,
    scalar,
    solve,
    solver,
)

from helpers import (
    arbitrary_instance,
    max_combination,
    prime_value,
    principal_reference,
    rand_finite_vector,
    rand_fraction,
    rand_matrix,
    solves,
    wide_value,
    with_bottoms,
)


def test_principal_solution_goldens(solvable_4x5, unsolvable_5x4):
    a, b = solvable_4x5
    assert principal_solution(a, b) == TropVector([-63, -25, 30, 4, 74])
    a2, b2 = unsolvable_5x4
    x = principal_solution(a2, b2)
    assert x == TropVector([-10, -6, -7, -8])
    assert not solves(a2, x, b2)


def test_principal_solution_scalar_case():
    assert principal_solution(TropMatrix([[0]]), TropVector([7])) == TropVector([7])


def test_principal_solution_unconstrained_column():
    a = TropMatrix([[1, None], [2, None]])
    x = principal_solution(a, TropVector([5, 5]))
    assert x[1] == BOTTOM  # no finite cap exists


def _reference_system(rng: random.Random, family: str, m: int, n: int):
    """A seeded m x n system of one value family, with -inf in A, and in b or planted b at random."""
    value = {
        "small": lambda: rand_fraction(rng),
        "primes": lambda: prime_value(rng),
        "wide": lambda: wide_value(rng),
    }[family]
    bottom_p = rng.choice((0.0, 0.3))
    grid = [[None if rng.random() < bottom_p else value() for _ in range(n)] for _ in range(m)]
    if rng.random() < 0.3:
        j = rng.randrange(n)
        for row in grid:
            row[j] = None
    a = TropMatrix(grid)
    shape = rng.choice(("free", "planted", "bottoms"))
    if shape == "planted":
        b = mat_vec(a, TropVector(value() for _ in range(n)))
    else:
        b = TropVector(value() for _ in range(m))
        if shape == "bottoms":
            b = with_bottoms(rng, a, b)
    return a, b


def test_principal_solution_matches_fraction_reference():
    rng = random.Random(64)
    seen = {"forced": 0, "unbounded": 0, "tied": 0, "1xn": 0, "mx1": 0, "satisfies": 0, "fails": 0}
    for family, max_side, count in (("small", 12, 300), ("primes", 12, 300), ("wide", 8, 120)):
        for _ in range(count):
            m, n = rng.randint(1, max_side), rng.randint(1, max_side)
            m, n = rng.choice(((m, n), (1, n), (m, 1)))
            a, b = _reference_system(rng, family, m, n)
            x = principal_solution(a, b)
            assert x == principal_reference(a, b), (family, a.row_tuples(), b)
            # A y = b by the plain-Fraction max-plus product of A's columns, for
            # x and for x with -inf set to 0, whose terms reach -inf b entries
            for y in (x, TropVector(0 if e is None else e for e in x)):
                ok = oracle.satisfies(a, y, b)
                assert ok == (max_combination([a.column(j) for j in range(n)], list(y)) == b)
                seen["satisfies" if ok else "fails"] += 1
            seen["1xn"] += m == 1
            seen["mx1"] += n == 1
            rows = a.row_tuples()
            for j, xj in enumerate(x):
                col = [r[j] for r in rows]
                if all(e is None for e in col):
                    seen["unbounded"] += 1
                elif any(e is not None and bi is None for e, bi in zip(col, b)):
                    seen["forced"] += 1
                elif sum(e is not None and bi - e == xj for e, bi in zip(col, b)) > 1:
                    seen["tied"] += 1
    assert min(seen.values()) >= 20, seen


def test_principal_solution_shares_no_kernel(monkeypatch, solvable_4x5, unsolvable_5x4):
    def refuse(*args):
        raise AssertionError("the oracle called a production kernel")

    for module, name in ((solver, "residuate"), (matrix, "row_maxima"), (matrix, "mat_vec"), (scalar, "reduced")):
        monkeypatch.setattr(module, name, refuse)
        monkeypatch.setattr(oracle, name, refuse, raising=False)
    assert principal_solution(*solvable_4x5) == TropVector([-63, -25, 30, 4, 74])
    assert principal_solution(*unsolvable_5x4) == TropVector([-10, -6, -7, -8])
    a, b = solvable_4x5
    assert oracle.satisfies(a, TropVector([-63, -25, 30, 4, 74]), b)
    assert not oracle.satisfies(a, TropVector([-63, -25, 30, 4, 75]), b)
    a2, b2 = unsolvable_5x4
    assert not oracle.satisfies(a2, TropVector([-10, -6, -7, -8]), b2)
    tree = ast.parse(inspect.getsource(oracle))
    assert "solver" not in {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}


def test_principal_solution_operands_stay_pair_sized(monkeypatch):
    # each x_j is built from one candidate (nb*d - n*db, db*d), so neither part
    # outgrows two input entries; a common denominator per column would carry
    # the lcm of all 16 distinct 100-digit denominators of A's column and b
    rng = random.Random(65)
    a = TropMatrix([[wide_value(rng) for _ in range(8)] for _ in range(8)])
    b = TropVector(wide_value(rng) for _ in range(8))
    built = []

    def record(n, d):
        built.append((n, d))
        return Fraction(n, d)

    monkeypatch.setattr(oracle, "Fraction", record)
    assert principal_solution(a, b) == principal_reference(a, b)
    entries = [p for row in a.pair_rows() for p in row] + [e.as_integer_ratio() for e in b]
    entry_bits = max(max(abs(n).bit_length(), d.bit_length()) for n, d in entries)
    assert len(built) == a.cols
    assert all(max(abs(n).bit_length(), d.bit_length()) <= 2 * entry_bits + 1 for n, d in built), entry_bits


def test_exhaustive_unsolvable_2x2():
    a = TropMatrix([[0, 0], [0, 0]])
    assert not exhaustive_solvable(a, TropVector([0, 1]))


def test_exhaustive_witness_included():
    rng = random.Random(61)
    for _ in range(30):
        a = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), bottom_p=0.2, regular_rows=True)
        x0 = rand_finite_vector(rng, a.cols)
        assert exhaustive_solvable(a, mat_vec(a, x0))


def test_exhaustive_refuses_large():
    a = TropMatrix([[0] * 5])
    with pytest.raises(SizeBoundError):
        exhaustive_solvable(a, TropVector([0]))


def test_exhaustive_agrees_with_solve_random():
    rng = random.Random(62)
    for _ in range(200):
        a, b = arbitrary_instance(rng, max_dim=4, bottom_p=0.3)
        assert exhaustive_solvable(a, b) == isinstance(solve(a, b), Solvable)


def test_principal_agrees_with_solve_random():
    rng = random.Random(63)
    for _ in range(200):
        a, b = arbitrary_instance(rng, max_dim=6, bottom_p=0.25)
        out = solve(a, b)
        assert isinstance(out, Solvable) == solves(a, principal_solution(a, b), b)
