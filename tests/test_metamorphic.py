"""Metamorphic relations: a transformed system's reports follow from the original's.

Scaling every entry of A, b and A2 by a positive rational lambda is a
max-plus automorphism: it keeps every max and every sum. So each report of
the scaled system is the original report with every value multiplied by
lambda, and every verdict, index, count and word unchanged.

Permuting the rows or the columns of a system renames its rows or columns
and changes nothing else. `solve`'s report is the other run's with each
row and column index renamed, x* and Y* reordered with the columns, and
every value equal. The rank scans test the vectors in another order, but
the independent vectors of a finitely generated max-plus cone are its
extremal generators (Butkovic, Schneider and Sergeev, "Generators,
extremals and bases of max cones", LAA 2007), which no scan order moves
as long as no two vectors are scaled copies of each other; of two scaled
copies, the order picks which one stays. So the permuted systems are
drawn with no two columns and no two rows scaled copies, and the rank
reports agree as sets: each independent index, each dependence with its
coefficients, and each verdict, renamed. `normalize`'s grids, b~, means,
minima and argmin rows move with the rows and columns they belong to, and
its b mean stays; `check-equiv` keeps its verdict under one permutation
of both matrices, and its alpha moves with the columns; `dof` keeps its
degrees of freedom and its leading and free columns under a row
permutation, since the singleton step takes the same columns in any row
order and the greedy step counts and breaks ties by column alone.
`reduce`'s independent rows and columns, reduced system, eta, xi and row
consistency are renamed as a whole, since its scans find the same
extremal rows and columns; its two degree-of-freedom figures stay under
a row permutation. A column permutation can move d_f, but `dof --exact`
keeps its least cover tau, and d_f <= n - tau holds on each copy.

Shifting column j of A by alpha_j and b by beta moves x*_j by
beta - alpha_j and keeps the rows attaining it, so `dof`'s report stays.
Column j is the max-combination of columns l with coefficients eta_jl
exactly when the shifted column is, with eta_jl + alpha_j - alpha_l; every
row moves by the same alphas, so a row's coefficients stay. So the scans
keep their verdicts, `rowrank` its whole report and `reduce` its xi and
row consistency, while its reduced matrix and b move with their columns.

Each expected payload is derived from the other run's payload with plain
`Fraction` arithmetic and the transform; the inputs are written with it
too, b = A x0 by `helpers.row_max`.
"""

from __future__ import annotations

import random
from fractions import Fraction

from tropsolve.cli import run

from helpers import grid_text, rand_fraction, row_max

LAMBDA = Fraction(3, 7)


def _system(rng: random.Random, k: int):
    """A, b as a one-column grid, and a column-shifted copy A2.

    b = A x0 for every third k; otherwise it is drawn, -inf in about 20% of rows, as A is.
    """
    m, n = rng.randint(1, 5), rng.randint(1, 5)
    a = [[None if rng.random() < 0.2 else rand_fraction(rng) for _ in range(n)] for _ in range(m)]
    if k % 3 == 0:
        x0 = [rand_fraction(rng) for _ in range(n)]
        b = [row_max(r, x0) for r in a]
    else:
        b = [None if rng.random() < 0.2 else rand_fraction(rng) for _ in range(m)]
    shifts = [rand_fraction(rng) for _ in range(n)]
    a2 = [[None if e is None else e + s for e, s in zip(r, shifts)] for r in a]
    return a, [[e] for e in b], a2


def _files(stem, *grids) -> list[str]:
    """Write A, b and A2, as many as given, next to `stem` and return their paths."""
    paths = []
    for suffix, rows in zip(("_a.mat", "_b.vec", "_a2.mat"), grids):
        path = stem.with_name(stem.name + suffix)
        path.write_text(grid_text(rows))
        paths.append(str(path))
    return paths


def _scale(rows):
    return [[None if e is None else LAMBDA * e for e in r] for r in rows]


def _scaled(value):
    """The payload with every value that Fraction reads multiplied by lambda; all else as it is."""
    if isinstance(value, dict):
        return {k: _scaled(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(map(_scaled, value))
    if isinstance(value, str):
        try:
            return str(LAMBDA * Fraction(value))
        except ValueError:
            return value  # -inf, +inf-, unbounded and the other words
    return value


def _commands(a: str, b: str, a2: str) -> list[list[str]]:
    return [
        ["solve", a, b],
        ["solve", a, b, "--check"],
        ["normalize", a, b],
        ["dof", a, b],
        ["dof", a, b, "--exact"],
        ["colrank", a],
        ["rowrank", a],
        ["reduce", a, b],
        ["check-equiv", a, a2],
    ]


def test_scaling_multiplies_every_value_and_keeps_everything_else(tmp_path):
    rng = random.Random(60)
    exit_codes, moved = set(), 0
    for k in range(60):
        a, b, a2 = _system(rng, k)
        files = _files(tmp_path / f"s{k}", a, b, a2)
        scaled_files = _files(tmp_path / f"s{k}x", _scale(a), _scale(b), _scale(a2))
        for argv, scaled_argv in zip(_commands(*files), _commands(*scaled_files)):
            report, scaled_report = run(argv), run(scaled_argv)
            assert scaled_report.exit_code == report.exit_code, argv
            expected = _scaled(report.payload)
            assert scaled_report.payload == expected, argv
            exit_codes.add(report.exit_code)
            moved += expected != report.payload
    # every exit code occurs, and about half of the 540 payloads hold a value that scaling moves
    assert exit_codes == {0, 1, 2} and moved > 200


def _has_scaled_copies(vectors) -> bool:
    """True if two of the vectors have one -inf pattern and a constant difference, all -inf included."""
    shapes = set()
    for v in vectors:
        first = next((e for e in v if e is not None), 0)
        shapes.add(tuple(None if e is None else e - first for e in v))
    return len(shapes) < len(vectors)


def _unscaled_system(rng: random.Random, k: int):
    """A and b as a one-column grid, no two columns and no two rows of A scaled copies.

    A's last column is a max-combination of the others and its last row one
    of the others, so the scans find dependences; b = A x0 for even k,
    drawn otherwise.
    """
    while True:
        m, n = rng.randint(2, 6), rng.randint(2, 6)
        a = [[None if rng.random() < 0.2 else rand_fraction(rng) for _ in range(n - 1)] for _ in range(m - 1)]
        x, y = [rand_fraction(rng) for _ in range(n - 1)], [rand_fraction(rng) for _ in range(m - 1)]
        for r in a:
            r.append(row_max(r, x))
        a.append([row_max(c, y) for c in zip(*a)])
        if not _has_scaled_copies(a) and not _has_scaled_copies(list(zip(*a))):
            break
    if k % 2 == 0:
        x0 = [rand_fraction(rng) for _ in range(n)]
        b = [row_max(r, x0) for r in a]
    else:
        b = [None if rng.random() < 0.2 else rand_fraction(rng) for _ in range(m)]
    return a, [[e] for e in b]


def _renamed_solve(p: dict, rows: list[int], cols: list[int]) -> dict:
    """The solve payload `p` with 1-based row i renamed rows[i - 1] + 1 and column j cols[j - 1] + 1."""

    def ones(indices, names):
        return sorted(names[i - 1] + 1 for i in indices)

    def by_column(values):
        return None if values is None else [values[cols.index(j)] for j in range(len(cols))]

    coverage = [None] * len(rows)
    for i, covering in enumerate(p["coverage"]):
        coverage[rows[i]] = ones(covering, cols)
    return {
        **p,
        "x_star": by_column(p["x_star"]),
        "y_star": by_column(p["y_star"]),
        "witness_rows": ones(p["witness_rows"], rows),
        "coverage": coverage,
        "forced_bottom": ones(p["forced_bottom"], cols),
        "unbounded": ones(p["unbounded"], cols),
    }


def _renamed_rank(p: dict, names: list[int]) -> dict:
    """The rank payload `p` with 1-based index i renamed names[i - 1] + 1, in an order no scan decides."""

    def name(i):
        return names[i - 1] + 1

    return {
        "axis": p["axis"],
        "rank": p["rank"],
        "independent": sorted(map(name, p["independent"])),
        "dependent": sorted(
            (name(d["index"]), sorted((name(c["index"]), c["coefficient"]) for c in d["combination"]))
            for d in p["dependent"]
        ),
        "scan_trace": sorted((name(t["index"]), t["verdict"]) for t in p["scan_trace"]),
    }


def _permuted(grid, rows: list[int], cols: list[int]):
    """Row i and column j of `grid` moved to rows[i] and cols[j]."""
    out = [[None] * len(cols) for _ in rows]
    for i, r in enumerate(grid):
        for j, e in enumerate(r):
            out[rows[i]][cols[j]] = e
    return out


def test_permutations_rename_every_index_and_keep_every_value(tmp_path):
    rng = random.Random(61)
    exit_codes, dependences = set(), 0
    for k in range(80):
        a, b = _unscaled_system(rng, k)
        m, n = len(a), len(a[0])
        rows, cols = rng.sample(range(m), m), rng.sample(range(n), n)
        same_rows, same_cols = list(range(m)), list(range(n))
        files = _files(tmp_path / f"p{k}", a, b)
        report = run(["solve", *files])
        exit_codes.add(report.exit_code)
        for r, c in ((rows, same_cols), (same_rows, cols)):
            moved = _files(tmp_path / f"p{k}_moved", _permuted(a, r, c), _permuted(b, r, [0]))
            moved_report = run(["solve", *moved])
            assert moved_report.exit_code == report.exit_code, (k, r, c)
            assert moved_report.payload == _renamed_solve(report.payload, r, c), (k, r, c)
        moved = _files(tmp_path / f"p{k}_moved", _permuted(a, rows, cols))
        for command, names, same in (("colrank", cols, same_cols), ("rowrank", rows, same_rows)):
            got, want = run([command, moved[0]]).payload, run([command, files[0]]).payload
            assert _renamed_rank(got, same) == _renamed_rank(want, names), (k, command)
            dependences += len(want["dependent"])
    # solvable and unsolvable systems both occur, and each system has a dependent column and row
    assert exit_codes == {0, 1} and dependences >= 2 * 80


def _moved(values: list, names: list[int]) -> list:
    """`values` with item i moved to names[i]."""
    return _permuted([values], [0], names)[0]


def _renamed_normalize(p: dict, rows: list[int], cols: list[int]) -> dict:
    """The normalize payload `p` with row i moved to rows[i] and column j to cols[j]."""
    return {
        "a_tilde": _permuted(p["a_tilde"], rows, cols),
        "col_means": _moved(p["col_means"], cols),
        "b_tilde": _moved(p["b_tilde"], rows),
        "b_mean": p["b_mean"],
        "q": _permuted(p["q"], rows, cols),
        "column_minima": _moved(p["column_minima"], cols),
        "argmin_rows": _moved([sorted(rows[i - 1] + 1 for i in s) for s in p["argmin_rows"]], cols),
    }


def _partner(rng: random.Random, a, k: int):
    """A column-shifted copy of A for k % 3 == 0; otherwise one finite entry is moved by 1 or made -inf.

    A value moved in a column with another finite entry, or a changed -inf
    pattern, leaves no constant shift, so those pairs are negative.
    """
    shifts = [rand_fraction(rng) for _ in a[0]]
    a2 = [[None if e is None else e + s for e, s in zip(r, shifts)] for r in a]
    cells = [(i, j) for i, r in enumerate(a) for j, e in enumerate(r) if e is not None]
    if k % 3 and cells:
        i, j = rng.choice(cells)
        a2[i][j] = None if k % 3 == 2 else a2[i][j] + 1
    return a2


def test_normalize_check_equiv_and_dof_follow_permutations(tmp_path):
    rng = random.Random(62)
    normalized, verdicts, solvable = 0, {0: 0, 1: 0}, 0
    for k in range(60):
        a, b = _unscaled_system(rng, k)
        a2 = _partner(rng, a, k)
        m, n = len(a), len(a[0])
        same_rows, same_cols = list(range(m)), list(range(n))
        files = _files(tmp_path / f"q{k}", a, b, a2)
        reports = {command: run([command, *paths]) for command, paths in
                   (("normalize", files[:2]), ("check-equiv", files[::2]), ("dof", files[:2]))}
        for r, c in ((rng.sample(range(m), m), same_cols), (same_rows, rng.sample(range(n), n))):
            moved = _files(tmp_path / f"q{k}_moved", _permuted(a, r, c), _permuted(b, r, [0]), _permuted(a2, r, c))
            got = run(["normalize", *moved[:2]])
            want = reports["normalize"]
            assert got.exit_code == want.exit_code, (k, r, c)
            if want.exit_code == 0:
                assert got.payload == _renamed_normalize(want.payload, r, c), (k, r, c)
                normalized += 1
            got, want = run(["check-equiv", *moved[::2]]), reports["check-equiv"]
            assert got.exit_code == want.exit_code, (k, r, c)
            alpha = want.payload["alpha"]
            assert got.payload["alpha"] == (None if alpha is None else _moved(alpha, c)), (k, r, c)
            verdicts[want.exit_code] += 1
            if c is same_cols:
                got, want = run(["dof", *moved[:2]]).payload, reports["dof"].payload
                if want["status"] == "solvable":
                    assert (got["degrees_of_freedom"], sorted(got["leading"]), got["free"]) == (
                        want["degrees_of_freedom"], sorted(want["leading"]), want["free"]), k
                    solvable += 1
                else:
                    assert got["witness_rows"] == sorted(r[i - 1] + 1 for i in want["witness_rows"]), k
    # normalize accepts a good share of the systems, and check-equiv sees both verdicts
    assert normalized >= 60 and min(verdicts.values()) >= 30 and solvable >= 20, (normalized, verdicts, solvable)


def _renamed_reduce(p: dict, rows: list[int], cols: list[int]) -> dict:
    """The reduce payload `p` with row i moved to rows[i] and column j to cols[j], less its two dof figures."""

    def renamed(indices, names):
        # the renamed indices, ascending, and where each old position goes among them
        new = sorted(names[i - 1] + 1 for i in indices)
        return new, [new.index(names[i - 1] + 1) for i in indices]

    def entries(items, key, names, at):
        out = ({key: names[e[key] - 1] + 1, "coefficients": _moved(e["coefficients"], at)} for e in items)
        return sorted(out, key=lambda e: e[key])

    independent_rows, at_row = renamed(p["independent_rows"], rows)
    independent_cols, at_col = renamed(p["independent_cols"], cols)
    return {
        "status": p["status"],
        "independent_rows": independent_rows,
        "independent_cols": independent_cols,
        "a_bar": _permuted(p["a_bar"], at_row, at_col),
        "b_bar": _moved(p["b_bar"], at_row),
        "eta": entries(p["eta"], "column", cols, at_col),
        "xi": entries(p["xi"], "row", rows, at_row),
        "row_consistency": sorted(
            ({"row": rows[e["row"] - 1] + 1, "consistent": e["consistent"]} for e in p["row_consistency"]),
            key=lambda e: e["row"],
        ),
    }


def test_reduce_and_exact_dof_follow_permutations(tmp_path):
    rng = random.Random(63)
    dependences, solvable = 0, 0
    for k in range(40):
        a, b = _unscaled_system(rng, k)
        m, n = len(a), len(a[0])
        same_rows, same_cols = list(range(m)), list(range(n))
        files = _files(tmp_path / f"r{k}", a, b)
        reduced, exact = run(["reduce", *files]), run(["dof", *files, "--exact"])
        dof_figures = (reduced.payload["dof_via_reduction"], reduced.payload["dof_direct"])
        for r, c in ((rng.sample(range(m), m), same_cols), (same_rows, rng.sample(range(n), n))):
            moved = _files(tmp_path / f"r{k}_moved", _permuted(a, r, c), _permuted(b, r, [0]))
            got = run(["reduce", *moved])
            assert got.exit_code == reduced.exit_code, (k, r, c)
            figures = (got.payload.pop("dof_via_reduction"), got.payload.pop("dof_direct"))
            assert got.payload == _renamed_reduce(reduced.payload, r, c), (k, r, c)
            if c is same_cols:
                assert figures == dof_figures, k
                continue
            # a column permutation keeps the least cover tau, but not d_f
            got, want = run(["dof", *moved, "--exact"]).payload, exact.payload
            if want["status"] == "solvable":
                assert got["exact"]["min_size"] == want["exact"]["min_size"], k
                assert all(p["degrees_of_freedom"] <= n - p["exact"]["min_size"] for p in (got, want)), k
                solvable += 1
            else:
                assert got == want, k  # the witness rows stay where they are
        dependences += len(reduced.payload["eta"]) + len(reduced.payload["xi"])
    # each system has a dependent column and row, and dof --exact meets solvable systems
    assert dependences >= 2 * 40 and solvable >= 10, (dependences, solvable)


def _plus(token: str, delta: Fraction) -> str:
    """A value token moved by delta; -inf stays."""
    return token if token == "-inf" else str(Fraction(token) + delta)


def _shifted_reduce(p: dict, alphas: list[Fraction], beta: Fraction) -> dict:
    """The reduce payload `p` with a_bar's column l moved by alpha_l, b_bar by beta and eta_jl by alpha_j - alpha_l."""
    if p["a_bar"] is None:
        return p
    cols = [alphas[j - 1] for j in p["independent_cols"]]
    return {
        **p,
        "a_bar": [[_plus(t, s) for t, s in zip(r, cols)] for r in p["a_bar"]],
        "b_bar": [_plus(t, beta) for t in p["b_bar"]],
        "eta": [
            {**e, "coefficients": [_plus(t, alphas[e["column"] - 1] - s) for t, s in zip(e["coefficients"], cols)]}
            for e in p["eta"]
        ],
    }


def _shifted_colrank(p: dict, alphas: list[Fraction]) -> dict:
    """The colrank payload `p` with the coefficient of column l in column j's combination moved by alpha_j - alpha_l."""

    def moved(j, c):
        return {**c, "coefficient": _plus(c["coefficient"], alphas[j - 1] - alphas[c["index"] - 1])}

    dependent = [{**d, "combination": [moved(d["index"], c) for c in d["combination"]]} for d in p["dependent"]]
    return {**p, "dependent": dependent}


def test_column_and_b_shifts_move_only_the_values_they_shift(tmp_path):
    # the shift relations of the module docstring, with denominators 7 and 11
    # that A's values never have
    rng = random.Random(64)
    solvable, etas = 0, 0
    for k in range(40):
        a, b = _unscaled_system(rng, k)
        alphas = [Fraction(rng.randint(-60, 60), 7) for _ in a[0]]
        beta = Fraction(rng.randint(-60, 60), 11)
        a2 = [[None if e is None else e + s for e, s in zip(r, alphas)] for r in a]
        b2 = [[None if e is None else e + beta] for e, in b]
        files, shifted = _files(tmp_path / f"h{k}", a, b), _files(tmp_path / f"h{k}_shifted", a2, b2)
        reports = {}
        for command, inputs, moved in (
            ("dof", 2, lambda p: p),
            ("reduce", 2, lambda p: _shifted_reduce(p, alphas, beta)),
            ("colrank", 1, lambda p: _shifted_colrank(p, alphas)),
            ("rowrank", 1, lambda p: p),
        ):
            want, got = run([command, *files[:inputs]]), run([command, *shifted[:inputs]])
            assert got.exit_code == want.exit_code, (k, command)
            assert got.payload == moved(want.payload), (k, command)
            reports[command] = want
        solvable += reports["dof"].exit_code == 0
        etas += len(reports["reduce"].payload["eta"])
    # solvable and unsolvable systems both occur, and reduce finds a dependent column in each
    assert 10 <= solvable <= 30 and etas >= 40, (solvable, etas)
