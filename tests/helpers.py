"""Seeded random instance generators shared by the property and acceptance tests."""

from __future__ import annotations

import math
import random
from fractions import Fraction

from tropsolve import (
    BOTTOM,
    DimensionError,
    NormalizationResult,
    Scalar,
    TropMatrix,
    TropVector,
    mat_vec,
    trop_add,
    trop_mul,
)


def rand_fraction(rng: random.Random, lo: int = -30, hi: int = 30, max_den: int = 5) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(lo * den, hi * den), den)


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


def prime_value(rng: random.Random, p: int | None = None) -> Fraction:
    """A value in [-30, 30] with denominator p, a random prime <= 97 when p is None."""
    p = rng.choice(PRIMES) if p is None else p
    return Fraction(rng.randint(-30 * p, 30 * p), p)


def wide_value(rng: random.Random) -> Fraction:
    """A value with a 100-digit numerator and a 100-digit denominator, either sign, as in CI's `wide` system."""
    v = Fraction(rng.randrange(10**99, 10**100), rng.randrange(10**99, 10**100))
    return -v if rng.random() < 0.5 else v


def rand_scalar(rng: random.Random, bottom_p: float = 0.2, max_den: int = 5) -> Scalar:
    if rng.random() < bottom_p:
        return BOTTOM
    return rand_fraction(rng, max_den=max_den)


def rand_matrix(
    rng: random.Random,
    m: int,
    n: int,
    bottom_p: float = 0.2,
    regular_rows: bool = False,
    regular_cols: bool = False,
    max_den: int = 5,
) -> TropMatrix:
    grid = [[rand_scalar(rng, bottom_p, max_den) for _ in range(n)] for _ in range(m)]
    if regular_rows:
        for i in range(m):
            if all(e is None for e in grid[i]):
                grid[i][rng.randrange(n)] = rand_fraction(rng, max_den=max_den)
    if regular_cols:
        for j in range(n):
            if all(grid[i][j] is None for i in range(m)):
                grid[rng.randrange(m)][j] = rand_fraction(rng, max_den=max_den)
    return TropMatrix(grid)


def rand_finite_vector(rng: random.Random, n: int, max_den: int = 5) -> TropVector:
    return TropVector(rand_fraction(rng, max_den=max_den) for _ in range(n))


def solvable_instance(rng: random.Random, max_dim: int = 6, bottom_p: float = 0.2):
    """A, x0, b with b = A x0 regular (every row gets a finite entry)."""
    m, n = rng.randint(1, max_dim), rng.randint(1, max_dim)
    a = rand_matrix(rng, m, n, bottom_p, regular_rows=True)
    x0 = rand_finite_vector(rng, n)
    return a, x0, mat_vec(a, x0)


def arbitrary_instance(rng: random.Random, max_dim: int = 6, bottom_p: float = 0.2):
    """A with arbitrary -inf pattern and an unrelated regular b."""
    m, n = rng.randint(1, max_dim), rng.randint(1, max_dim)
    return rand_matrix(rng, m, n, bottom_p), rand_finite_vector(rng, m)


def with_bottoms(rng: random.Random, a: TropMatrix, b: TropVector | None = None) -> TropVector:
    """A right-hand side for `a` that is -inf on at least one row and at most half of them, at random.

    Given b, those entries of b become -inf. Without b, it is A x0 for a
    random x0 that is -inf on every column with a finite entry in those
    rows, so A x = b is solvable.
    """
    rows = rng.sample(range(a.rows), rng.randint(1, max(1, a.rows // 2)))
    if b is not None:
        return TropVector(BOTTOM if i in rows else e for i, e in enumerate(b))
    forced = {j for i in rows for j in range(a.cols) if a.entry(i, j) is not None}
    return mat_vec(a, TropVector(BOTTOM if j in forced else rand_fraction(rng) for j in range(a.cols)))


def from_columns(cols) -> TropMatrix:
    """The matrix whose columns are the given vectors."""
    return TropMatrix(list(zip(*cols)))


def transpose(a: TropMatrix) -> TropMatrix:
    return TropMatrix(list(zip(*a.row_tuples())))


def identity(n: int) -> TropMatrix:
    """Tropical identity: 0 on the diagonal, -inf elsewhere."""
    return TropMatrix([0 if i == j else BOTTOM for j in range(n)] for i in range(n))


def scalar_mul(lam: Scalar, a):
    """Tropical scalar multiple of a vector or matrix: lam added to every finite entry."""
    if isinstance(a, TropVector):
        return TropVector(trop_mul(lam, e) for e in a)
    return TropMatrix([trop_mul(lam, e) for e in r] for r in a.row_tuples())


def map_equivalent_solution(x: TropVector, alphas, beta) -> TropVector:
    """Carry a solution to the column-shifted system: x'_j = x_j + beta - alpha_j."""
    return TropVector(BOTTOM if xj is None else xj + beta - al for xj, al in zip(x, alphas))


def max_combination(vectors: list[TropVector], coeffs: list[Scalar]) -> TropVector:
    out = [BOTTOM] * len(vectors[0])
    for vec, lam in zip(vectors, coeffs):
        for i in range(len(out)):
            out[i] = trop_add(out[i], trop_mul(vec[i], lam))
    return TropVector(out)


def principal_reference(a: TropMatrix, b: TropVector) -> TropVector:
    """Plain-`Fraction` reference for `principal_solution`: x_j = min over rows with a_ij finite of (b_i - a_ij).

    Columns with no finite entry give -inf, and so does a -inf b entry
    against a finite a_ij. Shares no arithmetic with `principal_solution`,
    which works on integer pairs.
    """
    if a.rows != len(b):
        raise DimensionError(f"matrix has {a.rows} rows but vector has {len(b)} entries")
    b = list(b)
    out: list[Scalar] = []
    for col in zip(*a.row_tuples()):
        bounds = []
        forced = False
        for e, bi in zip(col, b):
            if e is None:
                continue
            if bi is None:
                forced = True
                break
            bounds.append(bi - e)
        if forced or not bounds:
            out.append(BOTTOM)
        else:
            out.append(min(bounds))
    return TropVector(out)


def dependence_oracle(cols: list[TropVector], target: TropVector) -> list[Scalar] | None:
    """The principal solution of [cols] x = target, if its max-combination is the target.

    Plain-`Fraction` reference for the rank scan: `principal_reference`
    and `max_combination` share no code with `residuate` or `mat_vec`.
    With no columns, only an all -inf target is the (empty) combination.
    """
    if not cols:
        return [] if all(e is None for e in target) else None
    lambdas = list(principal_reference(from_columns(cols), target))
    return lambdas if max_combination(cols, lambdas) == target else None


def q_column_minima(q) -> tuple[list[Fraction], list[frozenset[int]]]:
    """Per column of a normalized grid Q: the least finite entry and the rows attaining it."""
    minima, argmins = [], []
    for column in zip(*q):
        least = min(v for v in column if v is not None)
        minima.append(least)
        argmins.append(frozenset(i for i, v in enumerate(column) if v == least))
    return minima, argmins


def is_reduced_pair(p) -> bool:
    """True for None (-inf) and for a tuple of two ints n, d with d > 0 and gcd(n, d) == 1."""
    if p is None:
        return True
    return type(p) is tuple and len(p) == 2 and type(p[0]) is type(p[1]) is int and p[1] > 0 and math.gcd(*p) == 1


def fraction_grid(grid) -> tuple[tuple[Fraction | None, ...], ...]:
    """A grid of (numerator, denominator) pairs and None, as `Fraction`s and None."""
    return tuple(tuple(None if p is None else Fraction(*p) for p in row) for row in grid)


def normalize_reference(a: TropMatrix, b: TropVector) -> NormalizationResult:
    """Plain-`Fraction` reference for `normalize`, cell by cell as the paper defines it.

    Each mean is the sum of the finite entries over their count; then
    a~_ij = a_ij - mean_j, b~_i = b_i - b_mean and q_ij = b~_i - a~_ij.
    Shares no arithmetic with `normalize`, which works on integer pairs.
    A~ and Q are grids of `Fraction`s and None, to compare with
    `fraction_grid` of `normalize`'s pair grids.
    Expects a regular b and a finite entry in every column.
    """

    def mean(entries) -> Fraction:
        finite = [e for e in entries if e is not None]
        return sum(finite, Fraction(0)) / len(finite)

    means = [mean(col) for col in zip(*a.row_tuples())]
    b_mean = mean(b)
    a_tilde = tuple(tuple(None if e is None else e - m for e, m in zip(r, means)) for r in a.row_tuples())
    b_tilde = [e - b_mean for e in b]
    q = tuple(tuple(None if e is None else bt - e for e in r) for bt, r in zip(b_tilde, a_tilde))
    minima, argmins = q_column_minima(q)
    return NormalizationResult(
        a_tilde=a_tilde,
        col_means=tuple(means),
        b_tilde=TropVector(b_tilde),
        b_mean=b_mean,
        q=q,
        column_minima=TropVector(minima),
        argmin_rows=tuple(argmins),
    )


def perturbed(product):
    """A mat_vec that adds 1 to the first finite entry of the true product."""

    def wrong(a, x):
        out = list(product(a, x))
        k = next(i for i, e in enumerate(out) if e is not None)
        out[k] += 1
        return TropVector(out)

    return wrong


def planted_instance(rng: random.Random, max_den: int = 5):
    """A system whose matrix has planted dependent columns and rows.

    Starts from a small core, appends columns that are max-combinations of
    the core columns and rows that are max-combinations of the existing
    rows, then shuffles the column and row order. Every random scalar has
    a denominator of at most `max_den`.
    """
    h, k = rng.randint(1, 3), rng.randint(1, 3)
    core = rand_matrix(rng, h, k, bottom_p=0.15, regular_rows=True, regular_cols=True, max_den=max_den)
    cols = [core.column(j) for j in range(k)]
    for _ in range(rng.randint(1, 2)):
        coeffs = [rand_scalar(rng, 0.3, max_den) for _ in range(k)]
        if all(c is None for c in coeffs):
            coeffs[rng.randrange(k)] = rand_fraction(rng, max_den=max_den)
        cols.append(max_combination(cols[:k], coeffs))
    rng.shuffle(cols)
    a = from_columns(cols)

    rows = [a.row(i) for i in range(a.rows)]
    for _ in range(rng.randint(1, 2)):
        coeffs = [rand_scalar(rng, 0.3, max_den) for _ in range(len(rows))]
        if all(c is None for c in coeffs):
            coeffs[rng.randrange(len(rows))] = rand_fraction(rng, max_den=max_den)
        rows.append(max_combination(rows, coeffs))
    rng.shuffle(rows)
    a = TropMatrix([list(r) for r in rows])

    if rng.random() < 0.5:
        x0 = rand_finite_vector(rng, a.cols, max_den)
        b = mat_vec(a, x0)
        if any(e is None for e in b):
            b = rand_finite_vector(rng, a.rows, max_den)
    else:
        b = rand_finite_vector(rng, a.rows, max_den)
    return a, b
