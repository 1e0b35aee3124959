"""Seeded random instance generators and plain-`Fraction` references shared by the tests.

The paper's two formulas are written here once, on plain `Fraction`s and
None for -inf, and share no code with the library's integer-pair kernels:

- `row_max`, one row of the max-plus product, max_j (a_ij + x_j); it
  checks `matrix.row_maxima` and `mat_vec`;
- `residuation`, min_i (t_i - k_i) over the finite k_i with the rows
  attaining it; it checks `solver.residuate`, and through it `solve`'s
  x* and coverage, the rank scan and `normalize`'s column minima.

Every other reference here (`product`, `solves`, `max_combination`,
`principal_reference`, `dependence_oracle`) is written on these two, and
every generator plants b = A x0 with `product`. A test that needs the
product or a residuation calls them; it does not write its own.
`mean`, the sum of a column's finite entries over their count, is the
one reference mean: it checks `normalize`'s means, and through them A~,
b~, Q and every y*. `column_shifts`, each column's one difference
a2_ij - a_ij, is the reference for `check_equivalence`.

`read_token` reads one scalar token by the README grammar, character by
character, with no regular expression and nothing from
`tropsolve.scalar`; it checks `scalar.parse_pairs`, and through it the
file parsers, `as_scalar` and the public constructors.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Sequence

from tropsolve import (
    BOTTOM,
    DimensionError,
    NormalizationResult,
    Scalar,
    TropMatrix,
    TropVector,
)
from tropsolve.scalar import format_pairs


def trop_add(a: Scalar, b: Scalar) -> Scalar:
    """Tropical sum: max of the two scalars (-inf is the identity)."""
    if a is None:
        return b
    return a if b is None or b <= a else b


def trop_mul(a: Scalar, b: Scalar) -> Scalar:
    """Tropical product: classical sum (-inf is absorbing)."""
    if a is None or b is None:
        return None
    return a + b


def row_max(row: Sequence[Scalar], x: Sequence[Scalar]) -> Scalar:
    """One row of the max-plus product: max_j (a_ij + x_j), -inf when no term is finite."""
    return max((e + xj for e, xj in zip(row, x) if e is not None and xj is not None), default=BOTTOM)


def residuation(k: Sequence[Scalar], t: Sequence[Scalar]) -> tuple[Scalar, frozenset[int]] | None:
    """The least slack min_i (t_i - k_i) over the finite k_i, and the rows attaining it.

    The three outcomes of `solver.residuate`: None when k has no finite
    entry; (-inf, no rows) when a finite k_i meets t_i = -inf; otherwise
    the least slack and its rows.
    """
    k, t = list(k), list(t)  # a vector's Fractions built once
    finite = [i for i, e in enumerate(k) if e is not None]
    if not finite:
        return None
    if any(t[i] is None for i in finite):
        return BOTTOM, frozenset()
    slacks = {i: t[i] - k[i] for i in finite}
    least = min(slacks.values())
    return least, frozenset(i for i, s in slacks.items() if s == least)


def product(a: TropMatrix, x: TropVector) -> TropVector:
    """A x by `row_max`: the reference for `mat_vec`, and the way the tests plant b = A x0."""
    x = list(x)
    return TropVector([row_max(r, x) for r in a.row_tuples()])


def solves(a: TropMatrix, x: TropVector, b: TropVector) -> bool:
    """Plain-`Fraction` check of A x = b: each row's max of a_ij + x_j equals b_i."""
    return product(a, x) == b


def format_matrix(a: TropMatrix) -> str:
    """The matrix file of `a`: one row per line, each entry's canonical token."""
    return "\n".join(" ".join(format_pairs(r)) for r in a.pair_rows()) + "\n"


def format_vector(v: TropVector) -> str:
    """The vector file of `v`: one canonical token per line."""
    return "\n".join(format_pairs(v.pairs())) + "\n"


def grid_text(rows) -> str:
    """A matrix or vector file of plain values: one line per row, each `Fraction`'s `str`, `-inf` for None."""
    return "".join(" ".join("-inf" if e is None else str(e) for e in r) + "\n" for r in rows)


def read_token(token: str) -> tuple[int, int] | None:
    """A scalar token's reduced (numerator, denominator) pair, None for `-inf`; ValueError when the grammar rejects it.

    The README grammar: `-inf`, or an optional leading `-` and then
    digits, digits `.` digits (an exact decimal), or digits `/` digits
    with a nonzero denominator. Only ASCII digits count, at most 100 in
    each run.
    """

    def run(text: str) -> int:
        if not 1 <= len(text) <= 100 or any(c not in "0123456789" for c in text):
            raise ValueError(f"not a digit run: {text!r}")
        return int(text)

    if token == "-inf":
        return None
    negative = token.startswith("-")
    body = token[negative:]
    if "/" in body:
        top, _, bottom = body.partition("/")
        num, den = run(top), run(bottom)
        if den == 0:
            raise ValueError(f"zero denominator: {token!r}")
    elif "." in body:
        whole, _, decimals = body.partition(".")
        num, den = run(whole) * 10 ** len(decimals) + run(decimals), 10 ** len(decimals)
    else:
        num, den = run(body), 1
    g = math.gcd(num, den)
    return (-num if negative else num) // g, den // g


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
    return a, x0, product(a, x0)


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
    return product(a, TropVector(BOTTOM if j in forced else rand_fraction(rng) for j in range(a.cols)))


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
    """max_k (v_k + lambda_k), entry by entry: `row_max` of each entry's row across the vectors."""
    return TropVector([row_max(entries, coeffs) for entries in zip(*vectors)])


def principal_reference(a: TropMatrix, b: TropVector) -> TropVector:
    """Plain-`Fraction` reference for `principal_solution`: x_j is the `residuation` of column j against b.

    Columns with no finite entry give -inf, and so does a -inf b entry
    against a finite a_ij. Shares no arithmetic with `principal_solution`,
    which works on integer pairs.
    """
    if a.rows != len(b):
        raise DimensionError(f"matrix has {a.rows} rows but vector has {len(b)} entries")
    b = list(b)
    per_column = (residuation(col, b) for col in zip(*a.row_tuples()))
    return TropVector(BOTTOM if r is None else r[0] for r in per_column)


def dependence_oracle(cols: list[Sequence[Scalar]], target: Sequence[Scalar]) -> list[Scalar] | None:
    """The principal solution of [cols] x = target, if its max-combination is the target.

    Plain-`Fraction` reference for the rank scan: `principal_reference`
    and `max_combination` share no code with `residuate` or `row_maxima`.
    With no columns, only an all -inf target is the (empty) combination.
    The vectors are `TropVector`s or sequences of their `Fraction`s and None.
    """
    if not cols:
        return [] if all(e is None for e in target) else None
    lambdas = list(principal_reference(from_columns(cols), target))
    return lambdas if max_combination(cols, lambdas) == TropVector(target) else None


def column_shifts(rows: Sequence[Sequence[Scalar]], rows2: Sequence[Sequence[Scalar]]) -> TropVector | None:
    """Per-column shifts alpha_j with a2_ij = a_ij + alpha_j, by plain `Fraction` subtraction, as a vector, or None.

    Plain-`Fraction` reference for `check_equivalence`, on two same-shape
    grids of numbers and None: each column pair must have the same -inf
    pattern and one finite difference a2_ij - a_ij; an all -inf column
    gets 0.
    """
    alphas = []
    for col, col2 in zip(zip(*rows), zip(*rows2)):
        if [e is None for e in col] != [e is None for e in col2]:
            return None
        shifts = {e2 - e for e, e2 in zip(col, col2) if e is not None}
        if len(shifts) > 1:
            return None
        alphas.append(shifts.pop() if shifts else Fraction(0))
    return TropVector(alphas)


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
    """A grid of (numerator, denominator) pairs and None, as `Fraction`s and None: `normalize`'s Q."""
    return tuple(tuple(None if p is None else Fraction(*p) for p in row) for row in grid)


def mean(entries) -> Fraction:
    """The paper's column mean: the sum of the finite entries over their count; -inf (None) entries take no part."""
    finite = [e for e in entries if e is not None]
    return sum(finite, Fraction(0)) / len(finite)


def normalized_columns(a: TropMatrix) -> tuple[list[Fraction], list[list[Fraction | None]]]:
    """The column means of `a` by `mean`, and the rows of A~, a~_ij = a_ij - mean_j: what b does not move."""
    means = [mean(col) for col in zip(*a.row_tuples())]
    return means, [[None if e is None else e - m for e, m in zip(r, means)] for r in a.row_tuples()]


def normalize_reference(a: TropMatrix, b: TropVector, columns=None, b_mean=None) -> NormalizationResult:
    """Plain-`Fraction` reference for `normalize`, cell by cell as the paper defines it.

    Each mean is `mean` of a column or of b; then
    a~_ij = a_ij - mean_j, b~_i = b_i - b_mean and q_ij = b~_i - a~_ij.
    Shares no arithmetic with `normalize`, which works on integer pairs.
    A~ is a `TropMatrix` and Q a grid of `Fraction`s and None, to compare
    with `fraction_grid` of `normalize`'s pair grid Q.
    The means are a vector and b_mean a pair, as `normalize` returns them.
    Expects a regular b and a finite entry in every column. A walk that
    meets each A and each b many times passes `normalized_columns(a)` as
    `columns` and `mean(b)` as `b_mean`, to take each once.
    """
    means, a_tilde = columns or normalized_columns(a)
    if b_mean is None:
        b_mean = mean(b)
    b_tilde = [e - b_mean for e in b]
    q = tuple(tuple(None if e is None else bt - e for e in r) for bt, r in zip(b_tilde, a_tilde))
    minima, argmins = q_column_minima(q)
    return NormalizationResult(
        a_tilde=TropMatrix(a_tilde),
        col_means=TropVector(means),
        b_tilde=TropVector(b_tilde),
        b_mean=b_mean.as_integer_ratio(),
        q=q,
        column_minima=TropVector(minima),
        argmin_rows=tuple(argmins),
    )


def perturbed(kernel):
    """A mat_vec that adds 1 to the first finite entry of the product `kernel` gives."""

    def wrong(a, x):
        out = list(kernel(a, x))
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
        b = product(a, x0)
        if any(e is None for e in b):
            b = rand_finite_vector(rng, a.rows, max_den)
    else:
        b = rand_finite_vector(rng, a.rows, max_den)
    return a, b


def planted_low_rank(rng: random.Random, m: int, n: int, r: int) -> TropMatrix:
    """An m x n matrix spanned by an r x r core: max-combinations of its columns, then of the rows.

    Entries have denominators up to 97 and coefficients prime ones, so that
    two vectors are rarely equal.
    """
    core = rand_matrix(rng, r, r, bottom_p=0.1, regular_rows=True, regular_cols=True, max_den=97)
    cols = [core.column(j) for j in range(r)]
    cols += [max_combination(cols[:r], [prime_value(rng) for _ in range(r)]) for _ in range(n - r)]
    rng.shuffle(cols)
    rows = [list(v) for v in from_columns(cols).row_tuples()]
    rows += [list(max_combination(rows[:r], [prime_value(rng) for _ in range(r)])) for _ in range(m - r)]
    rng.shuffle(rows)
    return TropMatrix(rows)
