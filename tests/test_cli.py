import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tropsolve
from tropsolve import TropMatrix, TropVector, cli, parse_matrix, parse_vector, principal_solution, reduce_system, solve
from tropsolve import reduce as reduction
from tropsolve.cli import main, render_json, render_text, run
from tropsolve.errors import UnsolvableSystemError
from tropsolve.freedom import EXACT_COVER_MAX_COLS
from tropsolve.oracle import satisfies

from helpers import grid_text, mean, prime_value, product


def path(data_dir, name):
    return str(data_dir / name)


def test_solve_exit_0_and_solution(data_dir, capsys):
    code = main(["solve", path(data_dir, "solvable_4x5.mat"), path(data_dir, "solvable_4x5_b.vec")])
    out = capsys.readouterr().out
    assert code == 0
    assert "X* = (-63, -25, 30, 4, 74)" in out
    assert "Y* = (-117, -49, -84, -62, -31)" in out


def test_solve_exit_1_with_witnesses(data_dir, capsys):
    code = main(
        ["solve", path(data_dir, "unsolvable_5x4.mat"), path(data_dir, "unsolvable_5x4_b.vec")]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "witness rows" in out and "1, 2, 3" in out


def test_solve_json_payload(data_dir):
    report = run(
        ["solve", path(data_dir, "solvable_4x5.mat"), path(data_dir, "solvable_4x5_b.vec"), "--json"]
    )
    assert report.exit_code == 0
    p = report.payload
    assert p["status"] == "solvable"
    assert p["x_star"] == ["-63", "-25", "30", "4", "74"]
    assert p["y_star"] == ["-117", "-49", "-84", "-62", "-31"]
    assert p["coverage"] == [[1, 3], [1, 3], [2, 3, 5], [4]]
    assert p["witness_rows"] == [] and p["forced_bottom"] == []
    doc = json.loads(render_json(report))
    assert doc["payload"] == p
    assert doc["exit_code"] == 0
    assert all(len(i["sha256"]) == 64 for i in doc["inputs"])


def test_solve_check_flag_agrees(data_dir):
    report = run(
        [
            "solve",
            path(data_dir, "unsolvable_5x4.mat"),
            path(data_dir, "unsolvable_5x4_b.vec"),
            "--check",
        ]
    )
    assert report.exit_code == 1
    assert report.payload["check"]["agrees"] is True
    assert report.payload["check"]["verify"] is False
    assert report.payload["check"]["principal_solution"] == ["-10", "-6", "-7", "-8"]
    assert "agrees" in render_text(report)


def test_solve_check_verifies_with_the_oracle(data_dir, monkeypatch):
    # the "verifies" field is the oracle's own max-plus product, `oracle.satisfies`, not the solver's
    calls = []

    def counted(*args):
        calls.append(args)
        return satisfies(*args)

    monkeypatch.setattr(cli, "satisfies", counted)
    for name, verdict in (("solvable_4x5", True), ("unsolvable_5x4", False)):
        report = run(["solve", path(data_dir, f"{name}.mat"), path(data_dir, f"{name}_b.vec"), "--check"])
        assert report.payload["check"]["verify"] is verdict
        assert report.payload["check"]["agrees"] is True
    assert len(calls) == 2


def test_solve_check_compares_x_star_when_unsolvable(data_dir, monkeypatch):
    # an oracle whose principal vector differs, yet still fails to verify as
    # the solver's does, must be reported as a disagreement
    def lowered(a, b):
        return TropVector([None if e is None else e - 1 for e in principal_solution(a, b)])

    monkeypatch.setattr(cli, "principal_solution", lowered)
    report = run(
        ["solve", path(data_dir, "unsolvable_5x4.mat"), path(data_dir, "unsolvable_5x4_b.vec"), "--check"]
    )
    assert report.exit_code == 1
    assert report.payload["check"]["verify"] is False
    assert report.payload["check"]["agrees"] is False
    assert "oracle check: DISAGREES" in render_text(report)


def test_solve_check_reports_a_wrong_verifier(tmp_path, monkeypatch):
    # on systems small enough for the exhaustive oracle, which still agrees with
    # the solver, a `satisfies` with the wrong verdict alone makes the check disagree
    monkeypatch.setattr(cli, "satisfies", lambda *args: not satisfies(*args))
    for b, code in (("0\n0\n", 0), ("0\n1\n", 1)):
        (tmp_path / "a.mat").write_text("0 0\n0 0\n")
        (tmp_path / "b.vec").write_text(b)
        report = run(["solve", str(tmp_path / "a.mat"), str(tmp_path / "b.vec"), "--check"])
        assert report.exit_code == code
        check = report.payload["check"]
        assert check["exhaustive"] is (code == 0) and check["verify"] is (code == 1)
        assert check["agrees"] is False
        assert "oracle check: DISAGREES" in render_text(report)


def test_text_and_json_carry_identical_data(data_dir):
    for args in (
        ["solve", path(data_dir, "solvable_4x5.mat"), path(data_dir, "solvable_4x5_b.vec")],
        ["normalize", path(data_dir, "solvable_4x5.mat"), path(data_dir, "solvable_4x5_b.vec")],
        ["dof", path(data_dir, "dof_4x5.mat"), path(data_dir, "dof_4x5_b.vec")],
        ["colrank", path(data_dir, "rank_4x5.mat")],
    ):
        plain = run(args)
        as_json = run(args + ["--json"])
        assert plain.payload == as_json.payload
        assert plain.exit_code == as_json.exit_code


def test_normalize_report(data_dir):
    report = run(
        ["normalize", path(data_dir, "solvable_4x5.mat"), path(data_dir, "solvable_4x5_b.vec")]
    )
    assert report.exit_code == 0
    p = report.payload
    assert p["col_means"] == ["50", "80", "-10", "38", "-1"]
    assert p["b_mean"] == "104"
    assert p["column_minima"] == ["-117", "-49", "-84", "-62", "-31"]
    assert p["q"][3] == ["349", "38", "252", "-62", "60"]
    text = render_text(report)
    assert "[-117]" in text and "[-62]" in text  # boxed minima


def test_normalize_round_trips_bit_exact(data_dir):
    report = run(
        ["normalize", path(data_dir, "unsolvable_5x4.mat"), path(data_dir, "unsolvable_5x4_b.vec")]
    )
    p = report.payload
    a_tilde = parse_matrix("\n".join(" ".join(r) for r in p["a_tilde"]))
    again = [[str(e) for e in row] for row in a_tilde.row_tuples()]
    assert again == p["a_tilde"]
    b_tilde = parse_vector("\n".join(p["b_tilde"]))
    assert [str(e) for e in b_tilde] == p["b_tilde"]


def test_normalize_sentinel_rendering():
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        mat = pathlib.Path(tmp) / "a.mat"
        vec = pathlib.Path(tmp) / "b.vec"
        mat.write_text("1 -inf\n3 4\n")
        vec.write_text("0\n2\n")
        report = run(["normalize", str(mat), str(vec)])
        assert report.payload["q"][0][1] == "+inf-"


def test_dof_reports(data_dir):
    report = run(["dof", path(data_dir, "dof_4x5.mat"), path(data_dir, "dof_4x5_b.vec")])
    assert report.exit_code == 0
    p = report.payload
    assert p["degrees_of_freedom"] == 2
    assert p["leading"] == [1, 2, 4]
    assert p["free"] == [3, 5]
    report2 = run(
        ["dof", path(data_dir, "solvable_4x5.mat"), path(data_dir, "solvable_4x5_b.vec"), "--exact"]
    )
    assert report2.payload["degrees_of_freedom"] == 3
    assert report2.payload["leading"] == [4, 3]
    assert report2.payload["exact"]["min_size"] == 2


def test_dof_unsolvable_exit_1(data_dir):
    report = run(["dof", path(data_dir, "unsolvable_5x4.mat"), path(data_dir, "unsolvable_5x4_b.vec")])
    assert report.exit_code == 1
    assert report.payload["status"] == "unsolvable"


def test_dof_with_eliminated_equations(tmp_path):
    # a -inf right-hand side drops an equation before the count is taken
    (tmp_path / "a.mat").write_text("1 -inf\n2 3\n")
    (tmp_path / "b.vec").write_text("-inf\n5\n")
    report = run(["dof", str(tmp_path / "a.mat"), str(tmp_path / "b.vec")])
    assert report.exit_code == 0
    assert report.payload["degrees_of_freedom"] == 1
    assert report.payload["leading"] == [2]
    assert report.payload["trace"][0]["removed_rows"] == [2]


def test_dof_exact_empty_cover_prints_dash(tmp_path, capsys):
    # b = -inf leaves no row to cover, so the minimum cover is empty
    (tmp_path / "a.mat").write_text("0\n")
    (tmp_path / "b.vec").write_text("-inf\n")
    assert main(["dof", str(tmp_path / "a.mat"), str(tmp_path / "b.vec"), "--exact"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "exact minimum cover: 0 columns {-}"


def test_dof_exact_at_its_column_bound(tmp_path):
    # a 1 x n all-0 A with b = (0) has a minimum cover of one column, so at the
    # bound the enumeration stops at once; one column more is refused
    assert EXACT_COVER_MAX_COLS == 20
    (tmp_path / "b.vec").write_text("0\n")
    (tmp_path / "a.mat").write_text("0 " * 20 + "\n")
    report = run(["dof", str(tmp_path / "a.mat"), str(tmp_path / "b.vec"), "--exact"])
    assert report.exit_code == 0
    assert report.payload["exact"] == {"min_size": 1, "witness": [1]}
    (tmp_path / "a.mat").write_text("0 " * 21 + "\n")
    report = run(["dof", str(tmp_path / "a.mat"), str(tmp_path / "b.vec"), "--exact"])
    assert report.exit_code == 2
    assert report.payload == {"error": "exhaustive cover search limited to 20 columns, got 21"}


def test_normalize_irregular_b_exit_2(tmp_path):
    (tmp_path / "a.mat").write_text("1 2\n3 4\n")
    (tmp_path / "b.vec").write_text("1\n-inf\n")
    report = run(["normalize", str(tmp_path / "a.mat"), str(tmp_path / "b.vec")])
    assert report.exit_code == 2
    assert "preprocess" in report.payload["error"]


def test_reduce_accepts_bottom_in_b_like_solve(tmp_path, capsys):
    # README: only normalize needs a regular b; solve, dof and reduce take a -inf in b
    (tmp_path / "a.mat").write_text("0 -inf\n-inf 0\n0 0\n")
    (tmp_path / "b.vec").write_text("-inf\n1\n1\n")
    files = [str(tmp_path / "a.mat"), str(tmp_path / "b.vec")]
    assert [main([cmd, *files]) for cmd in ("solve", "dof", "reduce")] == [0, 0, 0]
    assert capsys.readouterr().out.splitlines()[-1] == "degrees of freedom (direct): 1"


def test_reduce_unsolvable_exit_1(data_dir):
    report = run(
        ["reduce", path(data_dir, "unsolvable_5x4.mat"), path(data_dir, "unsolvable_5x4_b.vec")]
    )
    assert report.exit_code == 1
    assert report.payload["status"] == "unsolvable"
    assert report.payload["dof_via_reduction"] is None


def test_colrank_and_rowrank_reports(data_dir, capsys):
    code = main(["colrank", path(data_dir, "rank_4x5.mat")])
    out = capsys.readouterr().out
    assert code == 0
    assert "colrank: 2" in out
    assert "independent columns: 4, 2" in out

    report = run(["colrank", path(data_dir, "rank_3x3.mat")])
    assert report.payload["rank"] == 2
    dep3 = next(d for d in report.payload["dependent"] if d["index"] == 3)
    assert dep3["combination"] == [
        {"index": 1, "coefficient": "2"},
        {"index": 2, "coefficient": "-2"},
    ]

    rows = run(["rowrank", path(data_dir, "rank_3x3.mat")])
    assert rows.payload["axis"] == "rows"
    assert rows.payload["rank"] == 2


def test_scan_order_flag(data_dir):
    default = run(["colrank", path(data_dir, "rank_4x5.mat")])
    explicit = run(["colrank", path(data_dir, "rank_4x5.mat"), "--scan-order", "5,4,3,2,1"])
    assert explicit.payload == default.payload
    ascending = run(["colrank", path(data_dir, "rank_4x5.mat"), "--scan-order", "1,2,3,4,5"])
    assert ascending.payload["scan_trace"][0]["index"] == 1
    bad = run(["colrank", path(data_dir, "rank_4x5.mat"), "--scan-order", "1,2"])
    assert bad.exit_code == 2
    for command in ("colrank", "rowrank"):
        empty = run([command, path(data_dir, "rank_4x5.mat"), "--scan-order", ""])
        assert empty.exit_code == 2, command
    # only ASCII digits between commas: int() alone would take each of these
    for order in ("+1,2,3,4,5", "1,2,3,4,0_5", " 1,2,3,4,5", "1,2,3,4,5 ", "1,2,3,4,\uff15", "1,,2,3,4,5"):
        spelled = run(["colrank", path(data_dir, "rank_4x5.mat"), "--scan-order", order])
        assert spelled.exit_code == 2, order
        assert "comma-separated integers" in spelled.payload["error"], order


def test_scan_order_past_digit_limit(data_dir):
    # more digits than Python converts (4300): the permutation message, not int()'s
    for order in ("9" * 5000, "5,4,3,2," + "1" * 5000, "6" * 2):
        report = run(["colrank", path(data_dir, "rank_4x5.mat"), "--scan-order", order])
        assert report.exit_code == 2
        assert report.payload["error"] == "scan order must be a permutation of 1..5"
    # leading zeros do not count
    padded = run(["colrank", path(data_dir, "rank_4x5.mat"), "--scan-order", "0" * 5000 + "5,04,3,2,1"])
    assert padded.payload == run(["colrank", path(data_dir, "rank_4x5.mat")]).payload


def test_byte_order_mark_is_dropped(data_dir, tmp_path):
    for args in (
        ["colrank", "rank_4x5.mat"],
        ["solve", "solvable_4x5.mat", "solvable_4x5_b.vec"],
        ["solve", "unsolvable_5x4.mat", "unsolvable_5x4_b.vec"],
    ):
        marked = []
        for name in args[1:]:
            (tmp_path / name).write_bytes(b"\xef\xbb\xbf" + (data_dir / name).read_bytes())
            marked.append(str(tmp_path / name))
        plain = run([args[0]] + [path(data_dir, name) for name in args[1:]])
        with_bom = run([args[0]] + marked)
        assert with_bom.payload == plain.payload and with_bom.exit_code == plain.exit_code, args
        assert with_bom.inputs[0]["sha256"] != plain.inputs[0]["sha256"]  # the hash is over the raw bytes


def test_reduce_report(data_dir, tmp_path):
    a = parse_matrix((data_dir / "rank_3x3.mat").read_text())
    b = product(a, TropVector([0, 0, 0]))
    mat = tmp_path / "a.mat"
    vec = tmp_path / "b.vec"
    mat.write_text((data_dir / "rank_3x3.mat").read_text())
    vec.write_text("\n".join(str(e) for e in b) + "\n")
    report = run(["reduce", str(mat), str(vec)])
    assert report.exit_code == 0
    p = report.payload
    assert p["independent_cols"] == [1, 2]
    assert p["independent_rows"] == [2, 3]
    assert p["eta"] == [{"column": 3, "coefficients": ["2", "-2"]}]
    assert p["xi"] == [{"row": 1, "coefficients": ["6", "-1"]}]
    assert p["row_consistency"] == [{"row": 1, "consistent": True}]
    # the two figures disagree here and both are reported as-is
    assert p["dof_via_reduction"] == 0
    assert p["dof_direct"] == 1


def test_reduce_solves_the_full_system_once(data_dir, tmp_path, monkeypatch):
    # a solvable `reduce` call solves A x = b once; dof_via_reduction reads
    # solvability from the reduction and solves only the reduced system
    a = parse_matrix((data_dir / "rank_3x3.mat").read_text())
    b = product(a, TropVector([0, 0, 0]))
    (tmp_path / "a.mat").write_text(grid_text(a.row_tuples()))
    (tmp_path / "b.vec").write_text(grid_text([e] for e in b))
    solved = []

    def counted(x, y):
        solved.append((x, y))
        return solve(x, y)

    monkeypatch.setattr(cli, "solve", counted)
    monkeypatch.setattr(reduction, "solve", counted)
    assert run(["reduce", str(tmp_path / "a.mat"), str(tmp_path / "b.vec")]).exit_code == 0
    reduced = reduce_system(a, b)
    assert reduced.a_bar != a
    assert solved == [(a, b), (reduced.a_bar, reduced.b_bar)]


def test_reduce_refuses_a_reduction_that_disagrees(data_dir, monkeypatch):
    # the full system is solvable, so a reduction that calls it unsolvable is
    # an internal error, not the exit-2 refusal of an UnsolvableSystemError
    def unsolvable(a, b):
        raise UnsolvableSystemError("system unsolvable: degrees of freedom undefined")

    monkeypatch.setattr(cli, "dof_via_reduction", unsolvable)
    args = ["reduce", path(data_dir, "solvable_4x5.mat"), path(data_dir, "solvable_4x5_b.vec")]
    with pytest.raises(AssertionError, match="reduced system unsolvable while full system solvable"):
        run(args)


def test_check_equiv(data_dir, tmp_path):
    original = (data_dir / "rank_3x3.mat").read_text()
    a = parse_matrix(original)
    shifted = tmp_path / "shifted.mat"
    rows = []
    for i in range(a.rows):
        rows.append(
            " ".join(
                str(a.entry(i, j) + [1, -2, 0][j]) for j in range(a.cols)
            )
        )
    shifted.write_text("\n".join(rows) + "\n")
    report = run(["check-equiv", path(data_dir, "rank_3x3.mat"), str(shifted)])
    assert report.exit_code == 0
    assert report.payload["alpha"] == ["1", "-2", "0"]

    perturbed = tmp_path / "perturbed.mat"
    perturbed.write_text(original.replace("-5", "-4"))
    report2 = run(["check-equiv", path(data_dir, "rank_3x3.mat"), str(perturbed)])
    assert report2.exit_code == 1
    assert report2.payload["equivalent"] is False


def test_malformed_input_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.mat"
    bad.write_text("1 2\n3 oops\n")
    vec = tmp_path / "b.vec"
    vec.write_text("1\n2\n")
    code = main(["solve", str(bad), str(vec)])
    out = capsys.readouterr().out
    assert code == 2
    assert "line 2" in out and "column 3" in out


@pytest.mark.parametrize(
    "mat_text, vec_text, message",
    [
        ("# no rows\n", "1\n", "no matrix rows found"),
        ("1\n", "# no entries\n\n", "no vector entries found"),
    ],
    ids=["matrix", "vector"],
)
def test_empty_input_file_exit_2(tmp_path, mat_text, vec_text, message):
    # empty vectors and matrices are values, but empty files are refused
    (tmp_path / "a.mat").write_text(mat_text)
    (tmp_path / "b.vec").write_text(vec_text)
    report = run(["solve", str(tmp_path / "a.mat"), str(tmp_path / "b.vec")])
    assert report.exit_code == 2
    assert render_text(report) == f"error: {message}"


def test_exponent_token_exit_2(tmp_path, capsys):
    # 1e5000 is outside the scalar grammar, and its value has more digits
    # than Python will convert to a string
    bad = tmp_path / "bad.mat"
    bad.write_text("1 1e5000\n3 4\n")
    vec = tmp_path / "b.vec"
    vec.write_text("1\n2\n")
    code = main(["solve", str(bad), str(vec)])
    out = capsys.readouterr().out
    assert code == 2
    assert out.startswith("error: ") and "1e5000" in out


def test_derived_value_past_digit_limit_exit_2(tmp_path, capsys):
    # every token is within the digit cap, but the column mean of 60 distinct
    # 90-digit denominators has more than 4300 digits; normalize refuses the
    # report its A~ and Q grids would make over it
    mat = tmp_path / "a.mat"
    mat.write_text("".join(f"1/{10**89 + 7 * i + 1}\n" for i in range(60)))
    vec = tmp_path / "b.vec"
    vec.write_text("0\n" * 60)
    message = "a column mean or minimum has more than 4300 digits; the normalize report is refused"
    report = run(["normalize", str(mat), str(vec)])
    assert report.exit_code == 2 and report.payload["error"] == message
    code = main(["normalize", str(mat), str(vec)])
    out = capsys.readouterr().out
    assert code == 2
    assert out == f"error: {message}\n"


def test_solve_y_star_past_digit_limit_keeps_verdict(tmp_path, capsys):
    # X* = (0, 0), and Y* shifts it by column means over 120 distinct 90-digit
    # denominators, past Python's int/str digit limit: Y* prints in full all
    # the same, and the verdict stands
    ds = [10**89 + 7 * i + 1 for i in range(120)]
    mat = tmp_path / "a.mat"
    mat.write_text("".join(f"1/{d} {i % 2}\n" for i, d in enumerate(ds)))
    vec = tmp_path / "b.vec"
    vec.write_text("".join(f"1/{d}\n" if i % 2 == 0 else "1\n" for i, d in enumerate(ds)))
    report = run(["solve", str(mat), str(vec), "--json"])
    assert report.exit_code == 0
    assert report.payload["x_star"] == ["0", "0"]
    assert report.payload["coverage"] == [[1] if i % 2 == 0 else [2] for i in range(120)]
    # the reference: y*_j = x*_j + mean_j - b_mean on plain Fractions
    b_mean = mean([Fraction(1, d) if i % 2 == 0 else Fraction(1) for i, d in enumerate(ds)])
    expected = [mean([Fraction(1, d) for d in ds]) - b_mean, mean([Fraction(i % 2) for i in range(120)]) - b_mean]
    tokens = report.payload["y_star"]
    assert min(map(len, tokens)) > 4300
    # int(tok) would itself refuse these digits; Decimal reads them exactly
    assert [Fraction(*(int(Decimal(t)) for t in tok.split("/"))) for tok in tokens] == expected
    assert json.loads(render_json(report))["payload"]["y_star"] == tokens
    code = main(["solve", str(mat), str(vec)])
    out = capsys.readouterr().out
    assert code == 0
    assert "X* = (0, 0)\nY* = (" + ", ".join(tokens) + ")\n" in out


# besides raw bytes: grammar tokens, near misses and rectangular grids, so that
# many inputs parse and reach the solver, rank scan and reduction
_TOKENS = st.sampled_from(["0", "1", "-2", "3/4", "-5/2", "2.5", "-inf"] * 3 + ["1/0", "1e3", "x", "#"])
_LINES = st.lists(st.lists(_TOKENS, max_size=4).map(" ".join), max_size=4).map("\n".join)
_GRID = st.integers(1, 3).flatmap(
    lambda w: st.lists(st.lists(_TOKENS, min_size=w, max_size=w).map(" ".join), min_size=1, max_size=4)
).map("\n".join)
_FILE = st.one_of(st.binary(max_size=40), _LINES.map(str.encode), _GRID.map(str.encode))


@settings(max_examples=100, deadline=None)
@given(matrix=_FILE, vector=_FILE)
def test_exit_code_contract_on_arbitrary_bytes(matrix, vector):
    with tempfile.TemporaryDirectory() as tmp:
        a, b = Path(tmp, "a"), Path(tmp, "b")
        a.write_bytes(matrix)
        b.write_bytes(vector)
        for argv in (
            ["normalize", a, b],
            ["solve", a, b],
            ["dof", a, b],
            ["colrank", a],
            ["rowrank", a],
            ["reduce", a, b],
            ["check-equiv", a, b],
        ):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main([str(x) for x in argv]) in (0, 1, 2)


@pytest.mark.parametrize(
    "command, second, message",
    [
        pytest.param(command, "solvable_4x5_b.vec", "matrix has 3 rows but vector has 4 entries", id=command)
        for command in ("normalize", "solve", "dof", "reduce")
    ]
    + [pytest.param("check-equiv", "rank_4x5.mat", "shapes differ: 3x3 vs 4x5", id="check-equiv")]
    # one dimension equal: the other alone refuses the pair, before zip can cut it short
    + [
        pytest.param("check-equiv", "0 0 0 0\n" * 3, "shapes differ: 3x3 vs 3x4", id="check-equiv-cols"),
        pytest.param("check-equiv", "0 0 0\n" * 4, "shapes differ: 3x3 vs 4x3", id="check-equiv-rows"),
    ],
)
def test_shape_mismatch_exit_2(data_dir, tmp_path, command, second, message):
    if "\n" in second:  # a matrix's text, not a data file
        (tmp_path / "a2.mat").write_text(second)
        second = tmp_path / "a2.mat"
    report = run([command, path(data_dir, "rank_3x3.mat"), path(data_dir, second)])
    assert report.exit_code == 2
    assert report.payload == {"error": message}
    assert render_text(report) == f"error: {message}"


def test_missing_file_exit_2(data_dir):
    report = run(["solve", "no_such_file.mat", path(data_dir, "solvable_4x5_b.vec")])
    assert report.exit_code == 2


def test_path_with_null_byte_exit_2(data_dir):
    # open() raises ValueError, not OSError, for a path with a NUL byte
    report = run(["solve", "a\x00b", path(data_dir, "solvable_4x5_b.vec")])
    assert report.exit_code == 2
    assert render_text(report) == "error: embedded null byte"


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2


def _fresh_run(argv) -> cli.Report:
    """`run` through a newly built parser instead of the process's shared one."""
    return cli._dispatch(cli._build_parser.__wrapped__().parse_args(argv))


def test_parser_reuse_keeps_reports(data_dir):
    # one process, one parser: no option of a call may reach the next one
    calls = [
        ["colrank", path(data_dir, "rank_4x5.mat"), "--scan-order", "1,2,3,4,5"],
        ["solve", path(data_dir, "unsolvable_5x4.mat"), path(data_dir, "unsolvable_5x4_b.vec"), "--check"],
        ["rowrank", path(data_dir, "rank_4x5.mat")],
        ["solve", path(data_dir, "solvable_4x5.mat"), path(data_dir, "solvable_4x5_b.vec")],
    ]
    reports = []
    for argv in calls:
        reports.append(run(argv))
        for bad in (argv + ["--bogus"], argv[:1]):  # an unknown option, a missing input
            with pytest.raises(SystemExit) as exc:
                run(bad)
            assert exc.value.code == 2
    assert cli._build_parser() is cli._build_parser()
    assert reports == [_fresh_run(argv) for argv in calls]


def test_concurrent_runs_match_serial(data_dir):
    # two subcommands through the one shared parser on more threads than cores,
    # switching threads as often as the interpreter allows
    calls = [
        ["rowrank", path(data_dir, "rank_4x5.mat"), "--scan-order", "4,3,2,1"],
        ["solve", path(data_dir, "solvable_4x5.mat"), path(data_dir, "solvable_4x5_b.vec"), "--check"],
    ] * 2
    serial = [run(argv) for argv in calls]

    def repeat(argv):
        return [run(argv) for _ in range(25)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(calls)) as pool:
            futures = [pool.submit(repeat, argv) for argv in calls]
            for future, expected in zip(futures, serial):
                assert future.result(timeout=120) == [expected] * 25
    finally:
        sys.setswitchinterval(interval)


def _child_env() -> dict:
    """Environment in which a child `python -m tropsolve.cli` imports the same tropsolve as this process."""
    src = str(Path(tropsolve.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_entry_point_subprocess(data_dir):
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "tropsolve.cli",
            "solve",
            path(data_dir, "solvable_4x5.mat"),
            path(data_dir, "solvable_4x5_b.vec"),
        ],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert "X* = (-63, -25, 30, 4, 74)" in proc.stdout


_LONG_DENOMINATORS = [10**89 + 7 * i + 1 for i in range(60)]


@pytest.mark.parametrize(
    "command, mat_text, vec_text, exit_code",
    [
        # the 60 column-mean denominators give a mean of more than 4300 digits
        ("normalize", "".join(f"1/{d}\n" for d in _LONG_DENOMINATORS), "0\n" * 60, 2),
        # 10 of them give a mean of about 900 digits, past the lowest limit Python takes
        ("normalize", "".join(f"1/{d}\n" for d in _LONG_DENOMINATORS[:10]), "0\n" * 10, 0),
        ("solve", "1 \u00e9\n", "0\n", 2),
    ],
    ids=["long60", "mid", "non-ascii-token"],
)
def test_report_bytes_ignore_interpreter_settings(tmp_path, command, mat_text, vec_text, exit_code):
    # the same input gives the same exit code and stdout bytes under every
    # int/str digit limit and stdout encoding; each setting is made in a child,
    # since the limit is process-wide and other tests run the CLI from threads
    (tmp_path / "a.mat").write_text(mat_text, encoding="utf-8")
    (tmp_path / "b.vec").write_text(vec_text)
    base = {k: v for k, v in _child_env().items() if k not in ("PYTHONINTMAXSTRDIGITS", "PYTHONIOENCODING")}
    settings = [(digits, encoding) for digits in (None, "0", "640") for encoding in ("utf-8", "ascii")]
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "tropsolve.cli", command, "a.mat", "b.vec"],
            cwd=tmp_path,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**base, "PYTHONIOENCODING": encoding, **({} if digits is None else {"PYTHONINTMAXSTRDIGITS": digits})},
        )
        for digits, encoding in settings
    ]
    results = [(*proc.communicate(timeout=60), proc.returncode) for proc in procs]
    assert [b"Traceback" in err for _, err, _ in results] == [False] * len(settings)
    out = results[0][0]
    assert {(code, stdout) for stdout, _, code in results} == {(exit_code, out)}
    if command == "solve":
        assert out == b"error: line 1, column 3: malformed scalar token '\\xe9'\n"
    elif exit_code == 2:
        assert out == b"error: a column mean or minimum has more than 4300 digits; the normalize report is refused\n"


def test_text_error_line_is_ascii():
    # JSON reports escape non-ASCII characters; a text error line does too
    report = cli.Report("solve", (), {"error": "[Errno 2] No such file or directory: 'd\u00e9j\u00e0.mat'"}, 2)
    assert render_text(report) == "error: [Errno 2] No such file or directory: 'd\\xe9j\\xe0.mat'"
    assert "\\u00e9" in render_json(report)


def test_closed_stdout_keeps_the_verdict(tmp_path):
    # a 60x60 normalize report in JSON is about 140 kB, more than a pipe
    # buffer holds, so the child is still writing when the reader goes away
    rng = random.Random(7)
    (tmp_path / "a.mat").write_text(
        "".join(" ".join(str(rng.randint(-999, 999)) for _ in range(60)) + "\n" for _ in range(60))
    )
    (tmp_path / "b.vec").write_text("".join(f"{rng.randint(-999, 999)}\n" for _ in range(60)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "tropsolve.cli", "normalize", "a.mat", "b.vec", "--json"],
        cwd=tmp_path,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(),
    )
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 0
    assert "Traceback" not in err.decode()


# `Fraction.__new__` calls of one in-process call on the 100x100 system below
# (0.12.0 built 601, 701, 701, 300 and 8020; 0.13.0 built 401, 501, 601, 0
# and 0; 0.17.0 built 0, 100, 101, 0 and 0): every library result is stored
# on pairs, so only `solve --check` builds Fractions, 100 in its oracle line.
# `check-equiv` reads A twice; `colrank` and `rowrank` read A alone
FRACTIONS_PER_CALL = {
    "solve": 0, "solve --check": 100, "normalize": 0, "dof": 0, "reduce": 0,
    "check-equiv": 0, "colrank": 0, "rowrank": 0,
}
_INPUTS = {"check-equiv": ("a.mat", "a.mat"), "colrank": ("a.mat",), "rowrank": ("a.mat",)}


def test_fraction_constructions_per_call(tmp_path, monkeypatch, capsys):
    # vectors and matrices store pairs, so no call builds more Fractions than listed
    rng = random.Random(5)
    a = TropMatrix([[None if rng.random() < 0.1 else prime_value(rng) for _ in range(100)] for _ in range(100)])
    b = product(a, TropVector(prime_value(rng) for _ in range(100)))  # planted: solvable and regular
    (tmp_path / "a.mat").write_text(grid_text(a.row_tuples()))
    (tmp_path / "b.vec").write_text(grid_text([e] for e in b))
    built = 0

    def counting(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return fraction_new(cls, *args, **kwargs)

    fraction_new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    counts = {}
    for command in FRACTIONS_PER_CALL:
        name, *flags = command.split()
        built = 0
        assert main([name, *(str(tmp_path / f) for f in _INPUTS.get(name, ("a.mat", "b.vec"))), *flags]) == 0
        counts[command] = built
    capsys.readouterr()
    assert all(counts[c] <= limit for c, limit in FRACTIONS_PER_CALL.items()), counts
