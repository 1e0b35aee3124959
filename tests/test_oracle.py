import ast
import inspect
import random
import sys
from fractions import Fraction

import pytest

import helpers
from tropsolve import (
    BOTTOM,
    SizeBoundError,
    Solvable,
    TropMatrix,
    TropVector,
    exhaustive_solvable,
    matrix,
    oracle,
    principal_solution,
    scalar,
    solve,
    solver,
)

from helpers import (
    arbitrary_instance,
    prime_value,
    principal_reference,
    product,
    rand_finite_vector,
    rand_fraction,
    rand_matrix,
    residuation,
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
        b = product(a, TropVector(value() for _ in range(n)))
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
                assert ok == solves(a, y, b)
                seen["satisfies" if ok else "fails"] += 1
            seen["1xn"] += m == 1
            seen["mx1"] += n == 1
            for res in (residuation(col, b) for col in zip(*a.row_tuples())):
                if res is None:
                    seen["unbounded"] += 1
                elif not res[1]:  # a finite a_ij against b_i = -inf
                    seen["forced"] += 1
                elif len(res[1]) > 1:
                    seen["tied"] += 1
    assert min(seen.values()) >= 20, seen


KERNELS = ((solver, "residuate"), (matrix, "row_maxima"), (matrix, "mat_vec"), (scalar, "reduced"))


def _refuse(monkeypatch, kernels, importers) -> None:
    """Make each (module, name) kernel raise, in its module and under every name an importer binds it to."""

    def refuse(*args):
        raise AssertionError("a reference called a production kernel")

    for module, name in kernels:
        kernel = getattr(module, name)
        for owner in (module, *importers):
            for alias, value in list(vars(owner).items()):
                if value is kernel:
                    monkeypatch.setattr(owner, alias, refuse)


def test_principal_solution_shares_no_kernel(monkeypatch, solvable_4x5, unsolvable_5x4):
    _refuse(monkeypatch, KERNELS, [oracle])
    assert principal_solution(*solvable_4x5) == TropVector([-63, -25, 30, 4, 74])
    assert principal_solution(*unsolvable_5x4) == TropVector([-10, -6, -7, -8])
    a, b = solvable_4x5
    assert oracle.satisfies(a, TropVector([-63, -25, 30, 4, 74]), b)
    assert not oracle.satisfies(a, TropVector([-63, -25, 30, 4, 75]), b)
    a2, b2 = unsolvable_5x4
    assert not oracle.satisfies(a2, TropVector([-10, -6, -7, -8]), b2)
    tree = ast.parse(inspect.getsource(oracle))
    assert "solver" not in {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}


def test_references_share_no_kernel(monkeypatch):
    # every reference and generator in `helpers` returns with the kernels and
    # the oracle refused, under every name helpers or the package binds them
    # to, so no test checks a kernel with the kernel itself
    package = [m for name, m in sys.modules.items() if name == "tropsolve" or name.startswith("tropsolve.")]
    refused = (*KERNELS, (oracle, "principal_solution"), (oracle, "satisfies"), (scalar, "parse_pairs"))
    _refuse(monkeypatch, refused, [helpers, *package])
    rng = random.Random(66)
    a = helpers.rand_matrix(rng, 5, 4, bottom_p=0.3, regular_rows=True, regular_cols=True)
    x0 = helpers.rand_finite_vector(rng, a.cols)
    b = helpers.product(a, x0)
    cols = [a.column(j) for j in range(a.cols)]
    calls = {
        "trop_add": lambda: helpers.trop_add(None, x0[0]),
        "trop_mul": lambda: helpers.trop_mul(x0[0], None),
        "row_max": lambda: helpers.row_max(a.row_tuples()[0], x0),
        "residuation": lambda: helpers.residuation(cols[0], b),
        "product": lambda: helpers.product(a, x0),
        "solves": lambda: helpers.solves(a, x0, b),
        "format_matrix": lambda: helpers.format_matrix(a),
        "format_vector": lambda: helpers.format_vector(b),
        "grid_text": lambda: helpers.grid_text(a.row_tuples()),
        "rand_fraction": lambda: helpers.rand_fraction(rng),
        "prime_value": lambda: helpers.prime_value(rng),
        "wide_value": lambda: helpers.wide_value(rng),
        "rand_scalar": lambda: helpers.rand_scalar(rng),
        "rand_matrix": lambda: helpers.rand_matrix(rng, 3, 4),
        "rand_finite_vector": lambda: helpers.rand_finite_vector(rng, 3),
        "solvable_instance": lambda: helpers.solvable_instance(rng),
        "arbitrary_instance": lambda: helpers.arbitrary_instance(rng),
        "with_bottoms": lambda: (helpers.with_bottoms(rng, a), helpers.with_bottoms(rng, a, b)),
        "from_columns": lambda: helpers.from_columns(cols),
        "transpose": lambda: helpers.transpose(a),
        "identity": lambda: helpers.identity(3),
        "scalar_mul": lambda: (helpers.scalar_mul(Fraction(2), a), helpers.scalar_mul(Fraction(2), b)),
        "map_equivalent_solution": lambda: helpers.map_equivalent_solution(x0, list(x0), Fraction(1)),
        "max_combination": lambda: helpers.max_combination(cols, list(x0)),
        "principal_reference": lambda: helpers.principal_reference(a, b),
        "dependence_oracle": lambda: helpers.dependence_oracle(cols, cols[0]),
        "q_column_minima": lambda: helpers.q_column_minima(helpers.normalize_reference(a, b).q),
        "is_reduced_pair": lambda: helpers.is_reduced_pair((1, 2)),
        "read_token": lambda: helpers.read_token("-007.250"),
        "fraction_grid": lambda: helpers.fraction_grid(a.pair_rows()),
        "mean": lambda: helpers.mean(cols[0]),
        "column_shifts": lambda: helpers.column_shifts(a.row_tuples(), helpers.scalar_mul(Fraction(2), a).row_tuples()),
        "normalize_reference": lambda: helpers.normalize_reference(a, b),
        "perturbed": lambda: helpers.perturbed(helpers.product)(a, x0),
        "planted_instance": lambda: helpers.planted_instance(rng),
        "planted_low_rank": lambda: helpers.planted_low_rank(rng, 5, 4, 2),
    }
    defined = {name for name, f in vars(helpers).items() if inspect.isfunction(f) and f.__module__ == helpers.__name__}
    assert set(calls) == defined
    got = {name: call() for name, call in calls.items()}
    assert got["solves"] and helpers.solves(a, got["principal_reference"], b)
    assert got["dependence_oracle"] is not None and got["perturbed"] != b
    assert got["read_token"] == (-29, 4)
    assert got["column_shifts"] == [Fraction(2)] * a.cols


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
        assert exhaustive_solvable(a, product(a, x0))


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
