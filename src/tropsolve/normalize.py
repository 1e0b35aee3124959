"""Column-mean normalization of a max-plus system: the paper's route.

Given A (m x n) and a regular b, every column of A is shifted classically
by the negative of its column mean, and b by the negative of its mean.
The associated grid Q with q_ij = b~_i - a~_ij holds, in its column
minima, the largest admissible values of the transformed unknowns, and
the rows attaining them decide solvability.

q_ij = (b_i - a_ij) + mean_j - b_mean, so Q's column minima are plain
residuation shifted by mean_j - b_mean, attained in the same rows.
`normalize` reads them from `solve`: its x* shifted, and its coverage
transposed; Q is built only for the report. This is the only module that
knows the means, and `_shift` alone forms them and the shift: Q's column
minima and the `solve` report's normalized y* are both its x* + shift.

Means are taken over the finite entries of a column only; positions where
the matrix entry is -inf hold None in A~ and Q, and a None in Q is never a
column minimum.
Every exact value of the report is built on the integer pairs that A and
b store: a mean sums integer numerators per distinct denominator and
forms one `Fraction` over their lcm. a~_ij = a_ij +
(-mean_j) and q_ij = (b_i - a_ij) + (mean_j - b_mean) each add a short
reduced fraction (the entry, or b_i - a_ij reduced over db*da) to one
reduced once per column, so every per-cell gcd has a small denominator
as one operand. A~ and Q are grids of reduced `(numerator, denominator)`
pairs, denominator positive, and None; `Fraction(*p)` gives a cell's
value. The means are `Fraction`s, and so are the entries of b~ and of
the column minima, which are vectors.
The report is refused before A~ and Q are built when a mean or minimum has
more than `MAX_MEAN_DIGITS` digits: a bound of this module's own, the same
under every interpreter setting.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, NamedTuple

from .errors import DegenerateColumnError, RegularityError, SizeBoundError
from .matrix import TropMatrix, TropVector, is_regular
from .scalar import BOTTOM, Pair, PairGrid, Scalar
from .solver import solve

__all__ = ["NormalizationResult", "column_mean", "normalize", "normalized_solution"]

# the most digits a column mean, the mean of b or a column minimum may have,
# since the A~ and Q grids over longer means run to megabytes
MAX_MEAN_DIGITS = 4300
_MEAN_BOUND = 10**MAX_MEAN_DIGITS

class NormalizationResult(NamedTuple):
    """Normalized system data: A~, column means, b~, mean of b, Q and its column minima."""

    a_tilde: PairGrid  # reduced pairs; None marks a -inf matrix entry (rendered as -inf in A~ and +inf- in Q)
    col_means: tuple[Fraction, ...]
    b_tilde: TropVector
    b_mean: Fraction
    q: PairGrid
    column_minima: TropVector
    argmin_rows: tuple[frozenset[int], ...]


def column_mean(col: Iterable[Scalar]) -> Fraction:
    """Classical mean of the finite entries of a column.

    The denominator is the number of finite entries, so -inf positions do
    not participate at all.
    """
    return _mean([e.as_integer_ratio() for e in col if e is not None])


def _mean(pairs: list[Pair]) -> Fraction:
    """The mean of finite pairs: numerators summed per distinct denominator, those sums once over their lcm."""
    if not pairs:
        raise DegenerateColumnError("degenerate column: every entry is -inf")
    sums: dict[int, int] = {}
    for n, d in pairs:
        sums[d] = sums.get(d, 0) + n
    lcd = lcm(*sums)
    return Fraction(sum(n * (lcd // d) for d, n in sums.items()), lcd * len(pairs))


def _shift(a: TropMatrix, b: TropVector, x_star: TropVector) -> tuple[Scalar, list[Scalar], list[Scalar], list[Scalar]]:
    """The normalization shift: b_mean, each mean_j and mean_j - b_mean, and y* = x* + shift.

    y*_j = x*_j + shift_j is `Fraction`'s own sum, which Python 3.11 and
    later reduce by the same identity as the grid cells of `normalize`.
    mean_j and the shift are None, and y*_j is -inf, where x*_j is -inf;
    b_mean is None when b has no finite entry. A finite x*_j implies a
    finite entry in column j and in b, so no mean is of an empty set.
    """
    b_finite = [p for p in b.pairs() if p is not None]
    b_mean = _mean(b_finite) if b_finite else None
    cols = zip(x_star.pairs(), zip(*a.pair_rows()))
    means = [None if xp is None else _mean([p for p in col if p is not None]) for xp, col in cols]
    shifts = [None if m is None else m - b_mean for m in means]
    y_star = [BOTTOM if s is None else xj + s for xj, s in zip(x_star, shifts)]
    return b_mean, means, shifts, y_star


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
    longest = max(max(abs(f.numerator), f.denominator) for f in (*means, b_mean, *y_star))
    if longest >= _MEAN_BOUND:
        raise SizeBoundError(f"a column mean or minimum has more than {MAX_MEAN_DIGITS} digits; "
                             "the normalize report is refused")
    mean_pairs = [m.as_integer_ratio() for m in means]
    shift_pairs = [s.as_integer_ratio() for s in shifts]
    a_tilde, q = [], []
    for (nb, db), r in zip(b.pairs(), a.pair_rows()):
        a_row, q_row = [], []
        for e, (nm, dm), (ns, ds) in zip(r, mean_pairs, shift_pairs):
            if e is None:
                a_row.append(None)
                q_row.append(None)
                continue
            # p/q + r/s of reduced operands (Knuth, TAOCP 4.5.1): g = gcd(q, s); if g > 1,
            # t = p*(s/g) + r*(q/g) and g2 = gcd(t, g) reduce it, so each gcd has a small operand
            na, da = e
            g = gcd(da, dm)  # a~_ij = a_ij + (-mean_j)
            if g == 1:
                a_row.append((na * dm - nm * da, da * dm))
            else:
                t = na * (dm // g) - nm * (da // g)
                g2 = gcd(t, g)
                a_row.append((t, da // g * dm) if g2 == 1 else (t // g2, da // g * (dm // g2)))
            sn, sd = nb * da - na * db, db * da  # b_i - a_ij, reduced over its small denominator
            g = gcd(sn, sd)
            if g != 1:
                sn, sd = sn // g, sd // g
            g = gcd(sd, ds)  # q_ij = (b_i - a_ij) + shift_j
            if g == 1:
                q_row.append((sn * ds + ns * sd, sd * ds))
            else:
                t = sn * (ds // g) + ns * (sd // g)
                g2 = gcd(t, g)
                q_row.append((t, sd // g * ds) if g2 == 1 else (t // g2, sd // g * (ds // g2)))
        a_tilde.append(tuple(a_row))
        q.append(tuple(q_row))
    argmins: list[list[int]] = [[] for _ in range(a.cols)]
    for i, cols in enumerate(outcome.coverage):
        for j in cols:
            argmins[j].append(i)
    return NormalizationResult(
        a_tilde=tuple(a_tilde),
        col_means=tuple(means),
        b_tilde=TropVector([e - b_mean for e in b]),
        b_mean=b_mean,
        q=tuple(q),
        column_minima=TropVector(y_star),
        argmin_rows=tuple([frozenset(rows) for rows in argmins]),
    )


def normalized_solution(a: TropMatrix, b: TropVector, x_star: TropVector) -> TropVector:
    """Shift a solution of A x = b to normalized coordinates: y*_j = x*_j + mean_j - b_mean.

    Both means are over finite entries, and y*_j is -inf where x*_j is.
    For `solve`'s x* of a system `normalize` accepts, y* is Q's column
    minima.
    """
    return TropVector(_shift(a, b, x_star)[3])
