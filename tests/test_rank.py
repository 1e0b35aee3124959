import random
from fractions import Fraction
from itertools import permutations

import pytest

from tropsolve import (
    BOTTOM,
    TropMatrix,
    TropVector,
    colrank,
    rank,
    rowrank,
)

from tropsolve.rank import Dependence, RankReport
from tropsolve.reduce import reduce_system
from tropsolve.solver import residuate

from helpers import (
    dependence_oracle,
    from_columns,
    identity,
    max_combination,
    planted_instance,
    prime_value,
    rand_matrix,
    rand_scalar,
    scalar_mul,
    transpose,
)


def reproduces(a: TropMatrix, dep) -> bool:
    cols = [a.column(c) for c, _ in dep.combination]
    coeffs = [k for _, k in dep.combination]
    if not cols:
        return all(e is None for e in a.column(dep.col))
    return max_combination(cols, coeffs) == a.column(dep.col)


def test_colrank_scan_4x5(rank_4x5):
    report = colrank(rank_4x5)
    assert report.rank == 2
    assert report.independent == (3, 1)
    assert report.scan_trace == (
        (4, "dependent"),
        (3, "independent"),
        (2, "dependent"),
        (1, "independent"),
        (0, "dependent"),
    )
    assert [d.col for d in report.dependent] == [0, 2, 4]
    for dep in report.dependent:
        assert reproduces(rank_4x5, dep)


def test_dependence_subsystem_grid_4x5(rank_4x5):
    # second scan step: columns 1-3 against column 4 as right-hand side
    from tropsolve import normalize

    sub = from_columns([rank_4x5.column(j) for j in range(3)])
    res = normalize(sub, rank_4x5.column(3))
    assert res.q == (
        ((3, 4), (6, 1), (11, 4)),
        ((-5, 4), (-6, 1), (-13, 4)),
        ((-1, 4), (-5, 1), (-9, 4)),
        ((3, 4), (5, 1), (11, 4)),
    )
    # every minimum sits in row 2, so rows 1, 3, 4 are uncovered
    assert res.argmin_rows == (frozenset({1}), frozenset({1}), frozenset({1}))


def test_colrank_3x3_with_combination(rank_3x3):
    report = colrank(rank_3x3)
    assert report.rank == 2
    dep = next(d for d in report.dependent if d.col == 2)
    assert dep.combination == ((0, Fraction(2)), (1, Fraction(-2)))
    assert reproduces(rank_3x3, dep)


def test_rowrank_3x3_scan_finds_row_dependence(rank_3x3):
    # the scan can reproduce row 1 exactly from rows 2 and 3, so the row
    # rank is 2 under every scan order
    report = rowrank(rank_3x3)
    assert report.axis == "rows"
    assert report.rank == 2
    dep = next(d for d in report.dependent if d.col == 0)
    assert dep.combination == ((1, Fraction(6)), (2, Fraction(-1)))
    t = transpose(rank_3x3)
    assert max_combination(
        [t.column(1), t.column(2)], [Fraction(6), Fraction(-1)]
    ) == t.column(0)
    for order in ([0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]):
        assert rowrank(rank_3x3, scan_order=order).rank == 2


def test_spanned_column_check_fires(monkeypatch, rank_3x3):
    # each finite coefficient comes back 1 too large; the masks, and so the
    # verdicts, are unchanged, but every combination overshoots its target
    def overshooting(k_pairs, t_pairs):
        res = residuate(k_pairs, t_pairs)
        if res is None or res[1] is None:
            return res
        mask, (n, d) = res
        return mask, (n + d, d)

    monkeypatch.setattr(rank, "residuate", overshooting)
    with pytest.raises(AssertionError, match="dependent column not spanned by the independent set"):
        colrank(rank_3x3)


def test_spanned_column_check_compares_bottom_pattern(monkeypatch, rank_3x3):
    # every coefficient comes back -inf with its mask kept: the verdicts are
    # unchanged, but each combination is all -inf where its target is finite
    def bottomed(k_pairs, t_pairs):
        res = residuate(k_pairs, t_pairs)
        return res if res is None else (res[0], None)

    monkeypatch.setattr(rank, "residuate", bottomed)
    with pytest.raises(AssertionError, match="dependent column not spanned by the independent set"):
        colrank(rank_3x3)


def test_rank_independent_of_scan_order():
    # the scan keeps one column per extremal ray of the column cone, and a
    # finitely generated max cone has a basis unique up to scaling
    # (Cuninghame-Green & Butkovic, LAA 2004; Butkovic, Schneider & Sergeev,
    # LAA 2007), so every scan order gives the same rank
    rng = random.Random(31)
    matrices = [rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), bottom_p=0.25) for _ in range(16)]
    matrices += [planted_instance(rng)[0] for _ in range(32)]
    for a in matrices:
        for rank_fn, size in ((colrank, a.cols), (rowrank, a.rows)):
            ranks = {rank_fn(a, list(order)).rank for order in permutations(range(size))}
            assert len(ranks) == 1, (rank_fn.__name__, a)


def test_identity_matrix_full_rank():
    report = colrank(identity(4))
    assert report.rank == 4
    assert report.dependent == ()


def test_single_column():
    assert colrank(TropMatrix([[1], [2]])).rank == 1
    assert rowrank(TropMatrix([[1, 2]])).rank == 1


def test_all_bottom_columns_dependent_on_empty_combination():
    a = TropMatrix([[None, 1], [None, 2]])
    report = colrank(a)
    assert report.rank == 1
    assert report.independent == (1,)
    dep = report.dependent[0]
    assert dep.col == 0 and dep.combination == ()
    assert report.scan_trace[0] == (0, "dependent")


def test_all_bottom_matrix_rank_zero():
    a = TropMatrix([[None, None]])
    assert colrank(a).rank == 0
    assert rowrank(a).rank == 0


def test_scan_order_validation(rank_4x5):
    with pytest.raises(ValueError):
        colrank(rank_4x5, scan_order=[0, 1])
    with pytest.raises(ValueError):
        colrank(rank_4x5, scan_order=[0, 1, 2, 3, 3])


def test_scan_order_descending_is_default(rank_4x5):
    default = colrank(rank_4x5)
    explicit = colrank(rank_4x5, scan_order=[4, 3, 2, 1, 0])
    assert default == explicit


def test_rowrank_is_colrank_of_transpose(rank_4x5, rank_3x3):
    for a in (rank_4x5, rank_3x3):
        assert rowrank(a).rank == colrank(transpose(a)).rank
        assert rowrank(transpose(a)).rank == colrank(a).rank


def test_dependence_oracle_golden(rank_3x3):
    cols = [rank_3x3.column(0), rank_3x3.column(1)]
    lam = dependence_oracle(cols, rank_3x3.column(2))
    assert lam == [Fraction(2), Fraction(-2)]


def test_dependence_oracle_self_and_miss():
    v = TropVector([1, 2, 3])
    assert dependence_oracle([v], v) == [Fraction(0)]
    e1 = TropVector([0, None])
    e2 = TropVector([None, 0])
    target = TropVector([None, 5])
    lam = dependence_oracle([e1, e2], target)
    assert lam == [BOTTOM, Fraction(5)]
    # a target with support outside the span of a single generator
    assert dependence_oracle([e1], TropVector([1, 1])) is None


def test_dependence_reconstruction_random():
    rng = random.Random(41)
    for _ in range(150):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = rand_matrix(rng, m, n, bottom_p=0.25)
        report = colrank(a)
        assert report.rank == len(report.independent)
        for dep in report.dependent:
            assert reproduces(a, dep)
        assert {d.col for d in report.dependent} | set(report.independent) == set(range(n))


def _with_scaled_copies(rng: random.Random, a: TropMatrix) -> TropMatrix:
    """`a` with shifted copies of some of its columns inserted at random places."""
    cols = [a.column(j) for j in range(a.cols)]
    for _ in range(rng.randint(1, 3)):
        cols.insert(rng.randrange(len(cols) + 1), scalar_mul(rand_scalar(rng, 0), rng.choice(cols)))
    return from_columns(cols)


def test_scan_coefficients_match_oracle_on_final_basis():
    # each coefficient is read off the target's own verdict solve against the
    # surviving columns; it must equal the residuated coefficient against the
    # final independent set alone, under any scan order
    rng = random.Random(43)
    nonempty = 0
    for _ in range(150):
        a = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 4), bottom_p=0.25)
        a = transpose(_with_scaled_copies(rng, transpose(_with_scaled_copies(rng, a))))
        for rank_fn, vecs in (
            (colrank, [a.column(j) for j in range(a.cols)]),
            (rowrank, [a.row(i) for i in range(a.rows)]),
        ):
            report = rank_fn(a, rng.sample(range(len(vecs)), len(vecs)))
            basis = sorted(report.independent)
            for dep in report.dependent:
                lam = dependence_oracle([vecs[k] for k in basis], vecs[dep.col])
                assert lam is not None
                assert dep.combination == tuple((k, c) for k, c in zip(basis, lam) if c is not None)
                nonempty += bool(dep.combination)
    assert nonempty >= 500


def test_scan_verdicts_match_oracle_random():
    rng = random.Random(42)
    for _ in range(150):
        m, n = rng.randint(1, 5), rng.randint(2, 5)
        a = rand_matrix(rng, m, n, bottom_p=0.25, regular_cols=True)
        target = a.column(n - 1)
        others = [a.column(j) for j in range(n - 1)]
        from tropsolve import Solvable, solve

        solver_dep = isinstance(solve(from_columns(others), target), Solvable)
        oracle_dep = dependence_oracle(others, target) is not None
        assert solver_dep == oracle_dep


def _attaining(k: TropVector, t: TropVector) -> set[int]:
    """Rows attaining min_i (t_i - k_i) over the finite k_i; empty when some such t_i is -inf."""
    k, t = list(k), list(t)
    finite = [i for i, e in enumerate(k) if e is not None]
    if any(t[i] is None for i in finite):
        return set()
    least = min(t[i] - k[i] for i in finite)
    return {i for i in finite if t[i] - k[i] == least}


def _wide_low_rank(rng: random.Random, m: int) -> TropMatrix:
    """An m x m matrix (m > 64) of shifted copies and max-combinations of a few generators.

    One generator is -inf in rows 0-9, and the last column is a shifted
    copy of it; another column is finite only in rows 0-9, so against that
    last column its residuation mask is 0.
    """
    gens = [
        TropVector(None if rng.random() < 0.15 else Fraction(rng.randint(-200, 200), rng.randint(1, 3)) for _ in range(m))
        for _ in range(5)
    ]
    gens.append(TropVector(None if i < 10 else Fraction(rng.randint(-50, 50)) for i in range(m)))
    blind = TropVector(Fraction(rng.randint(-50, 50)) if i < 10 else None for i in range(m))
    cols = gens + [blind]
    while len(cols) < m - 1:
        if rng.random() < 0.3:
            cols.append(scalar_mul(Fraction(rng.randint(-9, 9)), rng.choice(gens)))  # ties in every finite row
        else:
            picked = rng.sample(gens, rng.randint(2, 4))
            cols.append(max_combination(picked, [Fraction(rng.randint(-20, 20)) for _ in picked]))
    rng.shuffle(cols)
    return from_columns(cols + [scalar_mul(Fraction(3), gens[-1])])


def oracle_scan(vecs: list[TropVector], order: list[int] | None, axis: str) -> RankReport:
    """The rank scan replayed with `dependence_oracle`, which shares no code with the scan.

    Each target is tested against all its working vectors in index order,
    and each dependence is the oracle's combination over the final basis.
    """
    vecs = [tuple(v) for v in vecs]  # each vector's Fractions built once, not once per test
    n = len(vecs)
    surviving = [j for j in range(n) if any(e is not None for e in vecs[j])]
    trace = [(j, "dependent") for j in range(n) if j not in surviving]
    independent = []
    for target in range(n - 1, -1, -1) if order is None else order:
        if target not in surviving:
            continue
        if dependence_oracle([vecs[j] for j in surviving if j != target], vecs[target]) is None:
            trace.append((target, "independent"))
            independent.append(target)
        else:
            trace.append((target, "dependent"))
            surviving.remove(target)
    dependent = []
    for j in sorted(j for j, verdict in trace if verdict == "dependent"):
        lam = dependence_oracle([vecs[k] for k in surviving], vecs[j])
        assert lam is not None
        dependent.append(Dependence(j, tuple((k, c) for k, c in zip(surviving, lam) if c is not None)))
    return RankReport(axis, tuple(independent), tuple(dependent), len(independent), tuple(trace))


def columns_and_rows(a: TropMatrix) -> tuple[list[TropVector], list[TropVector]]:
    return [a.column(j) for j in range(a.cols)], [a.row(i) for i in range(a.rows)]


def test_scan_stress_wide_masks_match_oracle_replay():
    # masks span more than one machine word; every report, verdicts and
    # combinations, equals the plain-Fraction oracle's replay of the scan
    rng = random.Random(47)
    a = _wide_low_rank(rng, 70)
    cols, rows = columns_and_rows(a)
    for rank_fn, vecs, order in (
        (colrank, cols, None),
        (colrank, cols, rng.sample(range(a.cols), a.cols)),
        (rowrank, rows, rng.sample(range(a.rows), a.rows)),
    ):
        report = rank_fn(a, order)
        assert report == oracle_scan(vecs, order, report.axis), rank_fn.__name__

    # the cases the masks must get right do occur: the first test (the last
    # column) has a working column with mask 0, and some dependences need
    # the union of several masks, with ties in rows past bit 63
    report = colrank(a)
    target, blind = cols[-1], next(c for c in cols if all(e is None for e in c[10:]))
    assert report.scan_trace[0] == (a.cols - 1, "dependent") and _attaining(blind, target) == set()
    basis = sorted(report.independent)
    union_only = high_ties = 0
    for dep in report.dependent:
        support = {i for i, e in enumerate(cols[dep.col]) if e is not None}
        attained = [_attaining(cols[k], cols[dep.col]) for k in basis]
        union_only += all(r != support for r in attained)
        high_ties += any(len(r) > 1 and max(r) >= 64 for r in attained)
    assert union_only > 0 and high_ties > 0


def _block_diagonal(blocks: list[TropMatrix]) -> TropMatrix:
    """The blocks along the diagonal, -inf everywhere else."""
    n = sum(b.cols for b in blocks)
    rows, left = [], 0
    for b in blocks:
        rows += [[None] * left + list(r) + [None] * (n - left - b.cols) for r in b.row_tuples()]
        left += b.cols
    return TropMatrix(rows)


def _pattern_misses(calls) -> list:
    """The recorded `residuate` calls in which a finite k_i meets t_i = -inf."""
    return [(k, t) for k, t in calls if any(kp is not None and tp is None for kp, tp in zip(k, t))]


def test_scan_reads_pattern_misses_from_masks(monkeypatch):
    # a pattern miss (a finite k_i against t_i = -inf) is decided by the
    # support masks, so `residuate` never sees one; skipping it, and trying
    # the known independents first, must leave every report equal to the
    # oracle's replay, whatever the scan order
    calls = []

    def recording(k_pairs, t_pairs):
        calls.append((k_pairs, t_pairs))
        return residuate(k_pairs, t_pairs)

    monkeypatch.setattr(rank, "residuate", recording)
    rng = random.Random(53)
    misses = 0  # ordered pairs of vectors that are pattern misses: the rule has work to do
    for _ in range(80):
        a = rand_matrix(rng, rng.randint(2, 8), rng.randint(2, 8), bottom_p=rng.uniform(0.3, 0.5))
        for rank_fn, vecs in zip((colrank, rowrank), columns_and_rows(a)):
            order = rng.sample(range(len(vecs)), len(vecs))
            report = rank_fn(a, order)
            assert report == oracle_scan(vecs, order, report.axis), (rank_fn.__name__, a, order)
            misses += len(_pattern_misses((k, t) for k in vecs for t in vecs))
    assert misses > 1000
    assert calls and not _pattern_misses(calls)

    # a column against a column of another block is a pattern miss, so
    # colrank calls `residuate` within a block only
    blocks = [planted_instance(rng)[0] for _ in range(3)]
    a = _block_diagonal(blocks)
    row_block = [k for k, b in enumerate(blocks) for _ in range(b.rows)]

    def block(pairs) -> int:
        return row_block[next(i for i, p in enumerate(pairs) if p is not None)]

    calls.clear()
    report = colrank(a)
    assert report == oracle_scan(columns_and_rows(a)[0], None, "columns")
    assert report.dependent and calls
    assert all(block(k) == block(t) for k, t in calls)


def _coefficient_rows(report: RankReport) -> tuple:
    """`reduce`'s form of a report's dependences: per dependent, one coefficient per basis index (None for -inf)."""
    basis = sorted(report.independent)
    return tuple((d.col, tuple(dict(d.combination).get(k) for k in basis)) for d in report.dependent)


def test_north_star_size_scans_match_oracle_replay():
    # colrank, rowrank and reduce at the 30 x 30 size the benchmark targets:
    # prime denominators, 10% -inf, and 8 planted dependent columns and rows
    rng = random.Random(59)

    def planted(vecs: list[TropVector], extra: int) -> list[TropVector]:
        """`vecs` and `extra` max-combinations of three of them each, shuffled."""
        out = list(vecs)
        for _ in range(extra):
            picked = rng.sample(vecs, 3)
            out.append(max_combination(picked, [prime_value(rng) for _ in picked]))
        rng.shuffle(out)
        return out

    core = [TropVector(None if rng.random() < 0.1 else prime_value(rng) for _ in range(22)) for _ in range(22)]
    wide = from_columns(planted(core, 8))  # 22 x 30; combining its rows keeps every column dependence
    a = TropMatrix([list(r) for r in planted([wide.row(i) for i in range(22)], 8)])
    assert (a.rows, a.cols) == (30, 30)
    cols, rows = columns_and_rows(a)
    want_cols, want_rows = oracle_scan(cols, None, "columns"), oracle_scan(rows, None, "rows")
    assert len(want_cols.dependent) >= 8 and len(want_rows.dependent) >= 8
    assert colrank(a) == want_cols
    assert rowrank(a) == want_rows

    b = max_combination(cols, [prime_value(rng) for _ in cols])
    red = reduce_system(a, b)
    assert red.indep_cols == tuple(sorted(want_cols.independent))
    assert red.indep_rows == tuple(sorted(want_rows.independent))
    assert (red.eta, red.xi) == (_coefficient_rows(want_cols), _coefficient_rows(want_rows))
    assert red.consistent()
