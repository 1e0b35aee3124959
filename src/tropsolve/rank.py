"""Column and row rank of a max-plus matrix by iterative dependence scans.

The scan runs over a list of vectors, read as the matrix's stored
reduced pairs: the columns for `colrank`, the rows for `rowrank`. Each
vector, from the last to the first, is tested for dependence on the
other surviving vectors; dependent ones leave the working set,
independent ones stay.

A test is a residuation, `solver.residuate`: against a working vector k,
the target t gets the coefficient min_i (t_i - k_i) over the finite k_i,
attained in a set of rows; a finite k_i against t_i = -inf makes the
coefficient -inf and the set empty. Coefficient and rows depend on k and
t alone, so the scan memoises `residuate` per pair, with the rows as an
int bitmask, in a table keyed by the one int k * n + t. The target is
dependent iff the OR of its working vectors' masks equals the mask of
its finite entries. An OR does not depend on the order of its terms, so
the order in which a test visits its working vectors changes no
verdict, and two rules skip residuations:

- a pattern miss, k finite in a row where t is -inf, is read from the
  two support masks and gives (0, None) without calling `residuate`
  or storing a table entry;
- each test tries the vectors already found independent first, then
  the untested survivors in index order, and stops as soon as the OR
  covers the target's support.

Every finally independent vector is in the working set at every test,
so a dependent vector's maximal combination over the final independent
set is read from the same table. The self-check runs the one max-plus
product loop, `matrix.row_maxima`, on the basis vectors and the table's
coefficient pairs, and compares the reduced pairs it returns with the
target's stored pairs by `==`, -inf pattern included; the report holds
those verified pairs as they are. `reduce` runs the row scan on the rows
cut to A's independent columns, where every test gives the verdict and
the coefficients it gives on whole rows; its self-check still runs on
the whole rows.
The library holds no second dependence test: the tests replay the scan
against a residuation and a max-combination on plain `Fraction`s of
their own, which share no code with `residuate` or `row_maxima`.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, NamedTuple, Sequence

from .matrix import TropMatrix, TropVector, row_maxima
from .scalar import Pair
from .solver import residuate, support_mask

__all__ = ["Dependence", "RankReport", "colrank", "rowrank"]


class Dependence(NamedTuple):
    """A column reproduced exactly as max over (independent column + coefficient)."""

    col: int
    coefficients: TropVector  # aligned with the sorted independent indices; -inf where one takes no part


class RankReport(NamedTuple):
    axis: str  # "columns" | "rows"
    independent: tuple[int, ...]  # original indices, in discovery order
    dependent: tuple[Dependence, ...]  # ascending by index
    rank: int
    scan_trace: tuple[tuple[int, str], ...]  # (index, "dependent" | "independent")


def colrank(a: TropMatrix, scan_order: Sequence[int] | None = None) -> RankReport:
    """Scan for independent columns and the dependences of the rest.

    `scan_order` gives the order in which columns are tested (0-based,
    a permutation of all columns); the default tests the last column
    first, down to the first. Columns with no finite entry are removed
    up front as dependent, with all -inf coefficients.

    Each recorded dependence combines the final independent columns with
    the maximal coefficients, so it reproduces the column exactly.
    """
    return _scan(zip(*a.pair_rows()), scan_order, "columns")


def rowrank(a: TropMatrix, scan_order: Sequence[int] | None = None) -> RankReport:
    """The same scan over the rows; indices are row indices."""
    return _scan(a.pair_rows(), scan_order, "rows")


def _scan(
    vectors: Iterable[Sequence[Pair | None]],
    scan_order: Sequence[int] | None,
    axis: str,
    whole: Sequence[Sequence[Pair | None]] | None = None,
) -> RankReport:
    """The dependence scan over `vectors` (the columns or the rows, as pairs), reported under `axis`.

    `whole`, if given, holds the same vectors in full, and `vectors` holds
    them cut to entries that decide every dependence as the full vectors
    do; the self-check then runs on `whole`.
    """
    pairs = list(vectors)
    n = len(pairs)
    if scan_order is None:
        order = list(range(n - 1, -1, -1))
    else:
        order = list(scan_order)
        if sorted(order) != list(range(n)):
            raise ValueError(f"scan order must be a permutation of 0..{n - 1}")

    support = [support_mask(pv) for pv in pairs]
    bottom = [j for j in range(n) if not support[j]]
    trace: list[tuple[int, str]] = [(j, "dependent") for j in bottom]

    table: dict[int, tuple[int, Pair | None]] = {}  # k * n + t -> residuate; k is never all -inf

    def residual(k: int, t: int) -> tuple[int, Pair | None]:
        if support[k] & ~support[t]:  # a finite k_i meets t_i = -inf: residuate's (0, None)
            return 0, None
        hit = table.get(k * n + t)
        if hit is None:
            hit = table[k * n + t] = residuate(pairs[k], pairs[t])
        return hit

    untested = [j for j in range(n) if support[j]]  # index order
    discovery: list[int] = []
    dependents: list[int] = []
    for target in order:
        if not support[target]:
            continue
        untested.remove(target)
        goal, covered = support[target], 0
        for k in chain(discovery, untested):  # the working set: the known independents first
            covered |= residual(k, target)[0]
            if covered == goal:
                break
        if covered == goal:
            trace.append((target, "dependent"))
            dependents.append(target)
        else:
            trace.append((target, "independent"))
            discovery.append(target)

    basis = sorted(discovery)
    combinations = dict.fromkeys(bottom, TropVector._of((None,) * len(basis)))
    if dependents:
        whole = pairs if whole is None else whole
        span = list(zip(*(whole[k] for k in basis)))  # one row per entry, one column per basis vector
        for j in dependents:
            coeffs = [residual(k, j)[1] for k in basis]
            # the combination must give the target's pairs, -inf pattern included: both sides are reduced
            if row_maxima(span, coeffs) != list(whole[j]):
                raise AssertionError("internal error: dependent column not spanned by the independent set")
            combinations[j] = TropVector._of(tuple(coeffs))

    return RankReport(
        axis=axis,
        independent=tuple(discovery),
        dependent=tuple(Dependence(j, combinations[j]) for j in sorted(combinations)),
        rank=len(discovery),
        scan_trace=tuple(trace),
    )

