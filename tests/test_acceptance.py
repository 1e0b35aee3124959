"""Acceptance suite: every criterion checked exactly, zero tolerance.

Each test prints one `acceptance <criterion>: PASS/FAIL` line (visible
with `pytest -s`). All comparisons are exact: the arithmetic is rational
throughout, so no tolerances apply anywhere.
"""

import json
import random
from fractions import Fraction

import pytest

from tropsolve import (
    Solvable,
    TropVector,
    Unsolvable,
    check_equivalence,
    colrank,
    degrees_of_freedom,
    exhaustive_solvable,
    expand_solution,
    mat_vec,
    normalize,
    normalized_solution,
    parse_matrix,
    parse_vector,
    principal_solution,
    reduce_system,
    rowrank,
    solve,
)
from tropsolve.cli import render_json, render_text, run
from tropsolve.oracle import satisfies

from helpers import (
    arbitrary_instance,
    format_matrix,
    format_vector,
    fraction_grid,
    from_columns,
    map_equivalent_solution,
    planted_instance,
    principal_reference,
    rand_finite_vector,
    rand_matrix,
    solvable_instance,
    with_bottoms,
)


def report(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"acceptance {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" - {detail}"
    print(line)
    assert ok, line


def test_criterion_1_golden_solve(solvable_4x5):
    a, b = solvable_4x5
    res = normalize(a, b)
    out = solve(a, b)
    ok = (
        isinstance(out, Solvable)
        and normalized_solution(a, b, out.x_star) == TropVector([-117, -49, -84, -62, -31])
        and out.x_star == TropVector([-63, -25, 30, 4, 74])
        and res.col_means == (Fraction(50), Fraction(80), Fraction(-10), Fraction(38), Fraction(-1))
        and res.b_mean == Fraction(104)
    )
    report("1 (golden solve)", ok)


def test_criterion_2_golden_unsolvable(unsolvable_5x4):
    a, b = unsolvable_5x4
    out = solve(a, b)
    x = principal_solution(a, b)
    ok = (
        isinstance(out, Unsolvable)
        and out.witness_rows == (0, 1, 2)  # rows 1, 2, 3
        and x == TropVector([-10, -6, -7, -8])
        and not satisfies(a, x, b)
        and mat_vec(a, x)[0] == Fraction(-1)
    )
    report("2 (golden unsolvable)", ok)


def test_criterion_3_golden_dof(dof_4x5, solvable_4x5):
    a1, b1 = dof_4x5
    out1 = solve(a1, b1)
    rep1 = degrees_of_freedom(out1)
    a2, b2 = solvable_4x5
    out2 = solve(a2, b2)
    rep2 = degrees_of_freedom(out2)
    ok = (
        rep1.d_f == 2
        and len(rep1.leading_cols) == 3
        and 0 in rep1.leading_cols  # column 1
        and rep2.d_f == 3
        and rep2.leading_cols == (3, 2)  # columns 4 then 3
    )
    report("3 (golden degrees of freedom)", ok)


def test_criterion_4_golden_rank(rank_4x5, rank_3x3):
    scan = colrank(rank_4x5)
    three = colrank(rank_3x3)
    dep3 = next(d for d in three.dependent if d.col == 2)
    ok = (
        scan.rank == 2
        and scan.independent == (3, 1)  # columns 4 and 2
        and scan.scan_trace
        == (
            (4, "dependent"),
            (3, "independent"),
            (2, "dependent"),
            (1, "independent"),
            (0, "dependent"),
        )
        and three.rank == 2
        and dep3.combination == ((0, Fraction(2)), (1, Fraction(-2)))
    )
    report("4 (golden rank: scan trace, colrank, combination)", ok)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "stated expectation rowrank = 3 for the 3x3 example is not attainable: "
        "the dependence scan reproduces row 1 exactly as max(row 2 + 6, row 3 - 1) "
        "under every scan order, so the procedure yields rowrank 2"
    ),
)
def test_criterion_4_rowrank_claim(rank_3x3):
    ok = rowrank(rank_3x3).rank == 3
    report("4 (rowrank = 3 sub-claim)", ok, "procedure yields rowrank 2")


def test_criterion_5_maximality():
    rng = random.Random(1005)
    failures = 0
    for _ in range(1000):
        a, x0, b = solvable_instance(rng, max_dim=6, bottom_p=rng.uniform(0.0, 0.2))
        out = solve(a, b)
        if not isinstance(out, Solvable) or not satisfies(a, out.x_star, b):
            failures += 1
            continue
        for j in range(a.cols):
            if j not in out.unbounded and not x0[j] <= out.x_star[j]:
                failures += 1
                break
    report("5 (maximality, 1000 instances)", failures == 0, f"{failures} failures")


def test_criterion_6_oracle_equivalence():
    rng = random.Random(1006)
    failures = 0
    for i in range(1000):
        if i % 2:
            a, _, b = solvable_instance(rng, max_dim=6, bottom_p=0.2)
        else:
            a, b = arbitrary_instance(rng, max_dim=6, bottom_p=0.2)
        out = solve(a, b)
        x = principal_reference(a, b)
        solvable = isinstance(out, Solvable)
        if solvable != satisfies(a, x, b):
            failures += 1
            continue
        if solvable and x != out.x_star:
            failures += 1
            continue
        if a.rows <= 4 and a.cols <= 4 and exhaustive_solvable(a, b) != solvable:
            failures += 1
    report("6 (oracle equivalence, 1000 instances)", failures == 0, f"{failures} failures")


def test_criterion_7_equivalence_invariance():
    rng = random.Random(1007)
    failures = 0
    for _ in range(500):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        a = rand_matrix(rng, m, n, bottom_p=0.2, regular_cols=True)
        b = rand_finite_vector(rng, m)
        alphas = [rand_finite_vector(rng, 1)[0] for _ in range(n)]
        beta = rand_finite_vector(rng, 1)[0]
        a2 = from_columns(
            [
                TropVector(
                    e if e is None else e + alphas[j]
                    for e in a.column(j)
                )
                for j in range(n)
            ]
        )
        b2 = TropVector(e + beta for e in b)
        if normalize(a, b).q != normalize(a2, b2).q:
            failures += 1
            continue
        if check_equivalence(a, a2) != alphas:
            failures += 1
            continue
        out, out2 = solve(a, b), solve(a2, b2)
        if isinstance(out, Solvable) != isinstance(out2, Solvable):
            failures += 1
            continue
        if isinstance(out, Solvable):
            if map_equivalent_solution(out.x_star, alphas, beta) != out2.x_star:
                failures += 1
    report("7 (equivalence invariance, 500 instances)", failures == 0, f"{failures} failures")


def test_criterion_8_reduction_equivalence():
    rng = random.Random(1008)
    instances = [planted_instance(rng) for _ in range(500)]
    # -inf entries in b: planted b = A x0, random b, and the empty reduction of an all -inf A
    for _ in range(200):
        a = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6), bottom_p=rng.choice((0.25, 0.5)))
        instances.append((a, with_bottoms(rng, a, rand_finite_vector(rng, a.rows) if rng.random() < 0.5 else None)))
    instances.append((parse_matrix("-inf -inf\n-inf -inf\n"), parse_vector("-inf\n-inf\n")))
    failures = 0
    for a, b in instances:
        sys = reduce_system(a, b)
        full = solve(a, b)
        reduced_out = solve(sys.a_bar, sys.b_bar)
        if isinstance(full, Solvable) != (sys.consistent() and isinstance(reduced_out, Solvable)):
            failures += 1
            continue
        if isinstance(full, Solvable):
            x = expand_solution(reduced_out.x_star, sys)
            if not satisfies(a, x, b) or x != full.x_star:
                failures += 1
    report(f"8 (reduction equivalence, {len(instances)} instances)", failures == 0, f"{failures} failures")


def test_criterion_9_normalization_zero_sum():
    rng = random.Random(1009)
    failures = 0
    for _ in range(500):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        a = rand_matrix(rng, m, n, bottom_p=0.25, regular_cols=True)
        b = rand_finite_vector(rng, m)
        res = normalize(a, b)
        for col in zip(*fraction_grid(res.a_tilde)):
            if sum((e for e in col if e is not None), Fraction(0)) != 0:
                failures += 1
                break
        if sum(res.b_tilde, Fraction(0)) != 0:
            failures += 1
    report("9 (normalization zero-sum, 500 instances)", failures == 0, f"{failures} failures")


def test_criterion_10_cli_contract(data_dir):
    solvable = [str(data_dir / "solvable_4x5.mat"), str(data_dir / "solvable_4x5_b.vec")]
    unsolvable = [str(data_dir / "unsolvable_5x4.mat"), str(data_dir / "unsolvable_5x4_b.vec")]
    rank3 = str(data_dir / "rank_3x3.mat")

    ok = run(["solve"] + solvable).exit_code == 0
    ok = ok and run(["solve"] + unsolvable).exit_code == 1
    rank_report = run(["colrank", rank3])
    ok = ok and rank_report.exit_code == 0 and rank_report.payload["rank"] == 2

    # JSON and text carry identical data
    for args in (["solve"] + solvable, ["solve"] + unsolvable, ["colrank", rank3]):
        plain, as_json = run(args), run(args + ["--json"])
        ok = ok and plain.payload == as_json.payload and plain.exit_code == as_json.exit_code
        doc = json.loads(render_json(as_json))
        ok = ok and doc["payload"] == plain.payload
        ok = ok and render_text(plain) != ""

    # parse -> print -> parse is the identity on every fixture file
    for mat_file in data_dir.glob("*.mat"):
        a = parse_matrix(mat_file.read_text())
        ok = ok and parse_matrix(format_matrix(a)) == a
        ok = ok and format_matrix(parse_matrix(format_matrix(a))) == format_matrix(a)
    for vec_file in data_dir.glob("*.vec"):
        v = parse_vector(vec_file.read_text())
        ok = ok and parse_vector(format_vector(v)) == v
        ok = ok and format_vector(parse_vector(format_vector(v))) == format_vector(v)

    report("10 (CLI contract and round-trips)", ok)
