"""Golden digests of every CLI report: text and JSON output stay byte-identical.

`data/cli_golden.json` maps each command line to the sha256 of its exit
code and stdout. The inputs are the five fixtures plus seeded systems that
this module draws and writes as text on plain `Fraction`s, with
`helpers.row_max` for every product, so no input depends on the code
under test. Every command runs in one directory
with relative file names, because JSON reports carry the input paths.

`data/cli_golden_large.json` does the same for `reduce`, `colrank` and
`rowrank` on seven systems of 20 to 30 rows and columns, written the
same way: planted low rank (square, tall and wide), full rank with and
without `-inf`, and `-inf` in b. Only these reach the scan's early stop
with many working vectors and the parser's later token chunks. It also
pins `solve`, `solve --check`, `dof` and `normalize` on three planted
systems with about 10% `-inf`: 200x200 with denominators at most 5,
200x200 with prime denominators up to 97, and 30x30 with distinct
30-digit denominators, whose column means run to hundreds of digits;
`reduce` on the two 200x200 systems; `check-equiv` of the 30x30 system
with `-inf` against a column-shifted copy and against that copy with one
cell moved; and `colrank` and `rowrank` on an 80x80 matrix of planted
rank 6, so that the scans' row masks pass bit 63.

Regenerate both tables, only when a report is meant to change, with

    PYTHONPATH=src python tests/test_cli_golden.py

which first prints, per table, each command line whose digest it adds,
removes or changes against the committed file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pathlib
import random
import shutil
import sys
from fractions import Fraction

from tropsolve import cli

from helpers import PRIMES, row_max

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN = DATA / "cli_golden.json"
GOLDEN_LARGE = DATA / "cli_golden_large.json"
FIXTURES = ("solvable_4x5", "unsolvable_5x4", "dof_4x5", "rank_3x3", "rank_4x5")
SEEDED = 40


def _token(rng: random.Random, v: Fraction | None) -> str:
    if v is None:
        return "-inf"
    if v.denominator == 1:
        return str(v.numerator)
    k = next((k for k in (1, 2, 3) if 10**k % v.denominator == 0), None)
    if k is None or rng.random() < 0.5:
        return f"{v.numerator}/{v.denominator}"
    digits = str(abs(v.numerator) * (10**k // v.denominator)).rjust(k + 1, "0")
    return ("-" if v < 0 else "") + digits[:-k] + "." + digits[-k:]


def _value(rng: random.Random, big: bool) -> Fraction:
    # big: up to 98-digit denominators, so a value plus an integer of at most 30 still fits in 100 digits
    den = 10 ** rng.randint(1, 97) + rng.randrange(10 ** rng.randint(1, 97)) if big else rng.randint(1, 8)
    return Fraction(rng.randint(-30 * den, 30 * den), den)


def _shift(rng: random.Random, big: bool) -> Fraction:
    """A finite x0 entry or column shift; an integer for big values, so sums keep their denominators."""
    return Fraction(rng.randint(-30, 30)) if big else _value(rng, False)


def _system(k: int) -> tuple[list[list], list, list[list]]:
    """Seeded system k: matrix, right-hand side and a second matrix for check-equiv.

    k % 5 picks the family: 0 large denominators (up to 98 digits),
    1 -inf entries in b, 2 an all -inf column, 3 planted dependent columns,
    4 small random values. Even k // 5 plants b = A x0, odd draws b at random.
    """
    rng = random.Random(7000 + k)
    family, big = k % 5, k % 5 == 0
    m, n = rng.randint(1, 6), rng.randint(1, 6)
    bottom_p = 0.0 if family == 3 else 0.2
    rows = [[None if rng.random() < bottom_p else _value(rng, big) for _ in range(n)] for _ in range(m)]
    if family == 2:
        j = rng.randrange(n)
        for r in rows:
            r[j] = None
    if family == 3 and n > 1:
        for j in range(n // 2, n):
            coeffs = [None if rng.random() < 0.3 else _value(rng, False) for _ in range(n // 2)]
            for r in rows:
                r[j] = row_max(r[: n // 2], coeffs)
    if (k // 5) % 2 == 0:
        x0 = [_shift(rng, big) for _ in range(n)]
        b = [row_max(r, x0) for r in rows]
    else:
        b = [_value(rng, big) for _ in range(m)]
    if family == 1:
        for i in rng.sample(range(m), rng.randint(1, m)):
            b[i] = None
    if rng.random() < 0.5:
        shifts = [_shift(rng, big) for _ in range(n)]
        rows2 = [[None if e is None else e + s for e, s in zip(r, shifts)] for r in rows]
    else:
        rows2 = [[None if rng.random() < 0.2 else _value(rng, big) for _ in range(n)] for _ in range(m)]
    return rows, b, rows2


def _write_inputs(workdir: pathlib.Path) -> list[tuple[str, str, str, int, int]]:
    """Write every input file; returns (matrix, vector, matrix2, rows, cols) per system."""
    systems = []
    for name in FIXTURES:
        shutil.copy(DATA / f"{name}.mat", workdir / f"{name}.mat")
        rows = [ln for ln in (DATA / f"{name}.mat").read_text().splitlines() if ln and not ln.startswith("#")]
        m, n = len(rows), len(rows[0].split())
        b_file = DATA / f"{name}_b.vec"
        if b_file.exists():
            shutil.copy(b_file, workdir / f"{name}_b.vec")
        else:
            rng = random.Random(name)
            (workdir / f"{name}_b.vec").write_text("".join(f"{rng.randint(-9, 9)}\n" for _ in range(m)))
        systems.append((f"{name}.mat", f"{name}_b.vec", f"{name}.mat", m, n))
    for k in range(SEEDED):
        rows, b, rows2 = _system(k)
        rng = random.Random(k)
        for fname, grid in ((f"s{k}.mat", rows), (f"s{k}_2.mat", rows2)):
            text = f"# seeded system {k}\n" + "".join(" ".join(_token(rng, e) for e in r) + "\n" for r in grid)
            (workdir / fname).write_text(text)
        (workdir / f"s{k}_b.vec").write_text("".join(_token(rng, e) + "\n" for e in b))
        systems.append((f"s{k}.mat", f"s{k}_b.vec", f"s{k}_2.mat", len(rows), len(rows[0])))
    return systems


def _command_lines(systems) -> list[list[str]]:
    argvs = []
    for a, b, a2, m, n in systems:
        col_order = ",".join(str(j) for j in random.Random(a).sample(range(1, n + 1), n))
        row_order = ",".join(str(i) for i in random.Random(b).sample(range(1, m + 1), m))
        for argv in (
            ["normalize", a, b],
            ["solve", a, b],
            ["solve", a, b, "--check"],
            ["dof", a, b],
            ["dof", a, b, "--exact"],
            ["colrank", a],
            ["colrank", a, "--scan-order", col_order],
            ["rowrank", a],
            ["rowrank", a, "--scan-order", row_order],
            ["reduce", a, b],
            ["check-equiv", a, a2],
        ):
            argvs += [argv, argv + ["--json"]]
    return argvs


def _planted(rng: random.Random, m: int, n: int, rank: int, bottom_p: float) -> list[list[Fraction | None]]:
    """An m x n matrix spanned by a random rank x rank core, columns then rows, each order shuffled."""

    def combination(vectors) -> list[Fraction | None]:
        coeffs = [None if rng.random() < 0.3 else _value(rng, False) for _ in range(rank)]
        return [row_max(v, coeffs) for v in vectors]

    core = [[None if rng.random() < bottom_p else _value(rng, False) for _ in range(rank)] for _ in range(rank)]
    cols = [list(c) for c in zip(*core)]
    cols += [combination(core) for _ in range(n - rank)]
    rng.shuffle(cols)
    core_rows = [list(r) for r in zip(*cols)]
    rows = core_rows + [combination(list(zip(*core_rows))) for _ in range(m - rank)]
    rng.shuffle(rows)
    return rows


def _large_system(k: int) -> tuple[list[list], list]:
    """Large system k: 0-1 planted rank 5 at 24x24 and 30x30, 2-3 a tall 30x20 and a wide 20x30 planted
    system, 4 full rank with no -inf at 24x24, 5 full rank with about 10% -inf at 30x30, 6 a planted
    system with -inf in b. b = A x0 on the planted systems, drawn at random on the others."""
    rng = random.Random(8000 + k)
    shape = ((24, 24), (30, 30), (30, 20), (20, 30), (24, 24), (30, 30), (24, 24))[k]
    if k in (4, 5):
        bottom_p = 0.1 if k == 5 else 0.0
        rows = [[None if rng.random() < bottom_p else _value(rng, False) for _ in range(shape[1])] for _ in range(shape[0])]
        return rows, [_value(rng, False) for _ in range(shape[0])]
    rows = _planted(rng, *shape, 5, 0.2 if k % 2 else 0.0)
    x0 = [_shift(rng, False) for _ in range(shape[1])]
    b = [row_max(r, x0) for r in rows]
    if k == 6:
        for i in rng.sample(range(shape[0]), 6):
            b[i] = None
    return rows, b


# (file stem, side, denominator of one drawn value) per solve system
SOLVE_FAMILIES = (
    ("dense200", 200, lambda rng: rng.randint(1, 5)),
    ("primes200", 200, lambda rng: rng.choice(PRIMES)),
    ("wide30", 30, lambda rng: rng.randrange(10**29, 10**30)),
)


def _solve_system(k: int) -> tuple[list[list], list]:
    """Solve system k of `SOLVE_FAMILIES`: values in [-30, 30], about 10% -inf, b = A x0 planted.

    x0 takes the family's denominators, except on the 30-digit family,
    where it is an integer so that b keeps 30-digit denominators.
    """
    rng = random.Random(9000 + k)
    _, side, den = SOLVE_FAMILIES[k]

    def value() -> Fraction:
        d = den(rng)
        return Fraction(rng.randint(-30 * d, 30 * d), d)

    rows = [[None if rng.random() < 0.1 else value() for _ in range(side)] for _ in range(side)]
    x0 = [Fraction(rng.randint(-30, 30)) if k == 2 else value() for _ in range(side)]
    return rows, [row_max(r, x0) for r in rows]


def _equiv_copies(rows: list[list]) -> tuple[list[list], list[list]]:
    """A column-shifted copy of `rows`, and that copy with its last column's last finite cell moved by 1/3."""
    rng = random.Random(8100)
    shifts = [_shift(rng, False) for _ in rows[0]]
    shifted = [[None if e is None else e + s for e, s in zip(r, shifts)] for r in rows]
    perturbed = [list(r) for r in shifted]
    i = max(i for i, r in enumerate(perturbed) if r[-1] is not None)
    perturbed[i][-1] += Fraction(1, 3)
    return shifted, perturbed


def _write_large_inputs(workdir: pathlib.Path) -> list[tuple[str, str]]:
    """Write every large system; returns (matrix, vector) per system: the scan systems, the solve
    systems, then the 80x80 planted rank 6 scan system. Also writes `l5`'s two check-equiv copies,
    `l5_shift.mat` and `l5_perturbed.mat`."""
    systems = [(f"l{k}", _large_system(k)) for k in range(7)]
    systems += [(stem, _solve_system(k)) for k, (stem, _, _) in enumerate(SOLVE_FAMILIES)]
    rng = random.Random(8007)
    rows = _planted(rng, 80, 80, 6, 0.2)
    x0 = [_shift(rng, False) for _ in range(80)]
    systems.append(("l7", (rows, [row_max(r, x0) for r in rows])))
    for k, (stem, (rows, b)) in enumerate(systems):
        rng = random.Random(k)
        text = f"# large system {k}\n" + "".join(" ".join(_token(rng, e) for e in r) + "\n" for r in rows)
        (workdir / f"{stem}.mat").write_text(text)
        (workdir / f"{stem}_b.vec").write_text("".join(_token(rng, e) + "\n" for e in b))
    for stem, rows in zip(("l5_shift", "l5_perturbed"), _equiv_copies(systems[5][1][0])):
        rng = random.Random(stem)
        (workdir / f"{stem}.mat").write_text("".join(" ".join(_token(rng, e) for e in r) + "\n" for r in rows))
    return [(f"{stem}.mat", f"{stem}_b.vec") for stem, _ in systems]


def _run(workdir: pathlib.Path, argvs: list[list[str]]) -> dict[str, str]:
    """sha256 of each command's exit code and stdout, run from `workdir` with relative paths."""
    out = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in argvs:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            out[" ".join(argv)] = hashlib.sha256(f"{code}\n{buf.getvalue()}".encode()).hexdigest()
    finally:
        os.chdir(cwd)
    return out


def digests(workdir: pathlib.Path) -> dict[str, str]:
    """The first table: every command line over the fixtures and the seeded systems."""
    return _run(workdir, _command_lines(_write_inputs(workdir)))


def large_digests(workdir: pathlib.Path) -> dict[str, str]:
    """The second table: `reduce`, `colrank` and `rowrank` on the scan systems; `solve`,
    `solve --check`, `dof` and `normalize` on the solve systems, and `reduce` on the two
    200x200 ones; `check-equiv` of `l5` against its two copies; `colrank` and `rowrank`
    at 80x80."""
    systems = _write_large_inputs(workdir)
    cmds = [cmd for a, b in systems[:7] for cmd in (["reduce", a, b], ["colrank", a], ["rowrank", a])]
    cmds += [
        cmd
        for a, b in systems[7:10]
        for cmd in (["solve", a, b], ["solve", a, b, "--check"], ["dof", a, b], ["normalize", a, b])
    ]
    cmds += [["reduce", a, b] for a, b in systems[7:9]]
    cmds += [["check-equiv", "l5.mat", "l5_shift.mat"], ["check-equiv", "l5.mat", "l5_perturbed.mat"]]
    cmds += [["colrank", systems[10][0]], ["rowrank", systems[10][0]]]
    return _run(workdir, [argv for cmd in cmds for argv in (cmd, cmd + ["--json"])])


def table_changes(old: dict[str, str], new: dict[str, str]) -> list[str]:
    """One line per command line whose digest `new` adds, removes or changes against `old`."""
    changes = []
    for cmd in sorted(old.keys() | new.keys()):
        if old.get(cmd) != new.get(cmd):
            verb = "added" if cmd not in old else "removed" if cmd not in new else "changed"
            changes.append(f"{verb} {cmd}")
    return changes


def test_table_changes_names_each_moved_command():
    old = {"a": "1", "b": "2", "c": "3"}
    assert table_changes(old, {"a": "1", "b": "9", "d": "4"}) == ["changed b", "removed c", "added d"]
    assert table_changes(old, dict(old)) == []


def test_cli_reports_match_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    got = digests(tmp_path)
    assert sorted(got) == sorted(golden)
    assert [cmd for cmd in golden if got[cmd] != golden[cmd]] == []


def test_cli_large_reports_match_golden_digests(tmp_path):
    golden = json.loads(GOLDEN_LARGE.read_text())
    got = large_digests(tmp_path)
    assert sorted(got) == sorted(golden)
    assert [cmd for cmd in golden if got[cmd] != golden[cmd]] == []


if __name__ == "__main__":
    import tempfile

    for path, make in ((GOLDEN, digests), (GOLDEN_LARGE, large_digests)):
        with tempfile.TemporaryDirectory() as tmp:
            table = make(pathlib.Path(tmp))
        for line in table_changes(json.loads(path.read_text()) if path.exists() else {}, table):
            print(f"{path.name}: {line}", file=sys.stderr)
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(table)} digests to {path}", file=sys.stderr)
