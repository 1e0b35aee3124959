"""Column-mean normalization of a max-plus system: the paper's route.

Given A (m x n) and a regular b, every column of A is shifted classically
by the negative of its column mean, and b by the negative of its mean.
The associated grid Q with q_ij = b~_i - a~_ij holds, in its column
minima, the largest admissible values of the transformed unknowns, and
the rows attaining them decide solvability.

q_ij = (b_i - a_ij) - (b_mean - mean_j), so Q's column minima are plain
residuation shifted by mean_j - b_mean, attained in the same rows.
`normalize` reads them from `solve`: its x* shifted, and its coverage
transposed; Q is built only for the report. This is the only module that
knows the means, and `_shift` alone forms them and b_mean - mean_j: Q's
column minima and the `solve` report's normalized y* are both x* minus it.

Means are taken over the finite entries of a column only; positions where
the matrix entry is -inf hold None in A~ and Q, and a None in Q is never a
column minimum.
Every value of the normalization is a reduced `(numerator, denominator)`
pair, denominator positive, built on the pairs that A and b store. A mean
sums integer numerators per distinct denominator, over their lcm, and is
reduced once. A difference of reduced pairs goes through one routine,
`_sub`, Knuth's identity: b_mean - mean_j once per column, then
a~_ij = a_ij - mean_j, y*_j = x*_j - (b_mean - mean_j) and b~_i = b_i - b_mean.
`_q_row` takes each q_ij = (b_i - a_ij) - (b_mean - mean_j) in one exact step,
b_i - a_ij left unreduced. Each per-cell gcd so has a short denominator as
one operand. A~ is a `TropMatrix`, so (A~, b~) goes straight into `solve`;
Q is a grid of pairs and None, since its None is +inf, not -inf. The column
means, b~ and the column minima are vectors, and b_mean is a pair like each
Q cell: the module builds no `Fraction`.
The report is refused before A~ and Q are built when a mean or minimum has
more than `MAX_MEAN_DIGITS` digits: a bound of this module's own, the same
under every interpreter setting.
"""

from __future__ import annotations

from itertools import repeat
from math import gcd, lcm
from typing import Iterable, NamedTuple

from .errors import DegenerateColumnError, RegularityError, SizeBoundError
from .matrix import TropMatrix, TropVector, is_regular
from .scalar import Pair, PairGrid, reduced
from .solver import solve

__all__ = ["NormalizationResult", "normalize", "normalized_solution"]

# the most digits a column mean, the mean of b or a column minimum may have,
# since A~ and Q over longer means run to megabytes
MAX_MEAN_DIGITS = 4300
_MEAN_BOUND = 10**MAX_MEAN_DIGITS

class NormalizationResult(NamedTuple):
    """Normalized system data: A~, column means, b~, mean of b, Q and its column minima."""

    a_tilde: TropMatrix
    col_means: TropVector
    b_tilde: TropVector
    b_mean: Pair
    q: PairGrid  # reduced pairs; None marks a -inf a_ij, where q_ij = +inf (rendered +inf-)
    column_minima: TropVector
    argmin_rows: tuple[frozenset[int], ...]


def _mean(pairs: list[Pair]) -> Pair:
    """The reduced mean of non-empty finite pairs: numerators summed per distinct denominator, the sums over their lcm."""
    sums: dict[int, int] = {}
    for n, d in pairs:
        sums[d] = sums.get(d, 0) + n
    lcd = lcm(*sums)
    return reduced((sum(n * (lcd // d) for d, n in sums.items()), lcd * len(pairs)))


def _sub(xs: Iterable[Pair | None], ys: Iterable[Pair | None]) -> list[Pair | None]:
    """x - y for each pair of reduced pairs of `xs` and `ys`, reduced; None where either is None.

    p/q - r/s by Knuth's identity (TAOCP vol. 2, 4.5.1): g = gcd(q, s); if
    g > 1, t = p*(s/g) - r*(q/g) and g2 = gcd(t, g) reduce it. Both gcds
    take the shorter denominator, or a divisor of it, as one operand, so a
    short entry less a long mean costs only short gcds. Q's cells take `_q_row`.
    """
    out = []
    for x, y in zip(xs, ys):
        if x is None or y is None:
            out.append(None)
            continue
        (p, q), (r, s) = x, y
        g = gcd(q, s)
        if g == 1:
            out.append((p * s - r * q, q * s))
        else:
            t = p * (s // g) - r * (q // g)
            g2 = gcd(t, g)
            out.append((t // g2, q // g * (s // g2)))
    return out


def _q_row(bi: Pair, row: Iterable[Pair | None], shifts: list[Pair]) -> tuple[Pair | None, ...]:
    """Row i of Q: q_ij = (b_i - a_ij) - s_j, s_j = r/s = b_mean - mean_j, each reduced in one exact step.

    b_i - a_ij stays unreduced as p/q, q = db*da; g = gcd(q, s), t = p*(s/g) - r*(q/g)
    and q_ij = t / (q*(s/g)). A prime of s/g dividing t would divide r*(q/g), yet
    gcd(r, s) = gcd(q/g, s/g) = 1; so G = gcd(t, q) is all t shares with the
    denominator (Knuth's gcd(t, g) is not, as p/q is unreduced), and both gcds take
    the short q as one operand. b_i and every shift are finite.
    """
    nb, db = bi
    out = []
    for x, (r, s) in zip(row, shifts):
        if x is None:
            out.append(None)
            continue
        na, da = x
        p, q = nb * da - na * db, db * da
        g = gcd(q, s)
        t = p * (s // g) - r * (q // g)
        G = gcd(t, q)
        out.append((t // G, q // g * s // G))
    return tuple(out)


def _shift(
    a: TropMatrix, b: TropVector, x_star: TropVector
) -> tuple[Pair | None, list[Pair | None], list[Pair | None], list[Pair | None]]:
    """The normalization shift: b_mean, each mean_j and b_mean - mean_j, and y* = x* - (b_mean - mean_j).

    mean_j and b_mean - mean_j are None, and so is y*_j, where x*_j is
    -inf; b_mean is None when b has no finite entry. A finite x*_j implies
    a finite entry in column j and in b, so no mean is of an empty set.
    """
    b_finite = [p for p in b.pairs() if p is not None]
    b_mean = _mean(b_finite) if b_finite else None
    cols = zip(x_star.pairs(), zip(*a.pair_rows()))
    means = [None if xp is None else _mean([p for p in col if p is not None]) for xp, col in cols]
    shifts = _sub(repeat(b_mean), means)
    return b_mean, means, shifts, _sub(x_star.pairs(), shifts)


def normalize(a: TropMatrix, b: TropVector) -> NormalizationResult:
    """Build the normalized system, its associated grid Q and Q's column minima.

    Requires a regular b and at least one finite entry per column of `a`
    (`solve` handles systems violating either), and a non-empty b. The
    minima are `solve`'s x*_j + mean_j - b_mean, attained in the rows its
    coverage lists. A mean or minimum of more than `MAX_MEAN_DIGITS`
    digits raises `SizeBoundError` before A~ and Q are built.
    """
    outcome = solve(a, b)  # raises the shape error, which is reported before the others
    if not is_regular(b):
        raise RegularityError("b is not regular; preprocess the system to remove -inf equations")
    # with a regular b, x*_j is -inf exactly where column j has no finite entry
    if not is_regular(outcome.x_star):
        j = outcome.x_star.pairs().index(None)
        raise DegenerateColumnError(f"degenerate column {j + 1}: every entry is -inf")
    if not len(b):
        raise DegenerateColumnError("b has no entry, so it has no mean")
    b_mean, means, shifts, y_star = _shift(a, b, outcome.x_star)
    # the means and minima carry the report's longest denominators
    if max(max(abs(n), d) for n, d in (*means, b_mean, *y_star)) >= _MEAN_BOUND:
        raise SizeBoundError(f"a column mean or minimum has more than {MAX_MEAN_DIGITS} digits; "
                             "the normalize report is refused")
    argmins: list[list[int]] = [[] for _ in range(a.cols)]
    for i, cols in enumerate(outcome.coverage):
        for j in cols:
            argmins[j].append(i)
    return NormalizationResult(
        a_tilde=TropMatrix._of(tuple([tuple(_sub(r, means)) for r in a.pair_rows()])),
        col_means=TropVector._of(tuple(means)),
        b_tilde=TropVector._of(tuple(_sub(b.pairs(), repeat(b_mean)))),
        b_mean=b_mean,
        q=tuple([_q_row(bi, r, shifts) for bi, r in zip(b.pairs(), a.pair_rows())]),
        column_minima=TropVector._of(tuple(y_star)),
        argmin_rows=tuple([frozenset(rows) for rows in argmins]),
    )


def normalized_solution(a: TropMatrix, b: TropVector, x_star: TropVector) -> TropVector:
    """Shift `solve`'s x* of A x = b to normalized coordinates: y*_j = x*_j + mean_j - b_mean.

    Both means are over finite entries, and y*_j is -inf where x*_j is; x*
    is finite only on columns with a finite entry, as `_shift` needs.
    For `solve`'s x* of a system `normalize` accepts, y* is Q's column
    minima.
    """
    return TropVector._of(tuple(_shift(a, b, x_star)[3]))
