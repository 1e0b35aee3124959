"""Every CLI report judged by the benchmark's independent checker.

Seeded systems, drawn on plain `Fraction`s and combined with the tests'
max-plus references (`helpers.row_max` and `max_combination`), run
through `cli.main` in-process under every subcommand, as text and as
`--json`. `bench/checker.py` (imported by path; it imports nothing
from tropsolve) judges each text report from its own residuation.
`check-equiv` has no check there; `_check_equiv` below verifies its
shifts with the checker's max-combination and residuation primitives.
Each JSON report must carry the text run's exit code and render, through
`cli.render_text`, to the text report judged; the checker also reads the
JSON `solve` report itself.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import pathlib
import random
from fractions import Fraction

from tropsolve import cli

from helpers import grid_text, max_combination, row_max

_spec = importlib.util.spec_from_file_location(
    "report_checker", pathlib.Path(__file__).resolve().parents[1] / "bench" / "checker.py"
)
checker = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checker)

SYSTEMS = 48


class System(checker.System):
    """The checker's answers, with no column mean for an all -inf column.

    Its x* entry is None, so its Y* entry is None (printed -inf) without
    one; the checker itself assumes every column has a finite entry.
    """

    @property
    def means(self) -> list[Fraction | None]:
        out = []
        for col in zip(*self.a_int):
            finite = [v for v in col if v is not None]
            out.append(Fraction(sum(finite), self.d * len(finite)) if finite else None)
        return out


def _value(rng: random.Random, big: bool) -> Fraction:
    den = rng.randint(10**19, 10**30) if big and rng.random() < 0.5 else rng.randint(1, 6)
    return Fraction(rng.randint(-30 * den, 30 * den), den)


def _system(k: int) -> tuple[list[list], list, list[list]]:
    """Seeded system k: A with -inf entries, never all -inf (k % 5 == 1: an all -inf column;
    k % 3 == 0: planted dependent columns and rows; k % 4 == 0: some 20-30
    digit denominators), a finite b (A x0 for even k, random for odd k) and
    a second matrix for check-equiv (a column-shifted copy, perturbed for k % 3 == 2)."""
    rng = random.Random(9100 + k)
    big = k % 4 == 0
    m, n = rng.randint(1, 6), rng.randint(1, 6)
    rows = [[None if rng.random() < 0.2 else _value(rng, big) for _ in range(n)] for _ in range(m)]
    if k % 3 == 0 and n > 1:
        for j in rng.sample(range(n), rng.randint(1, n - 1)):
            src = [c for c in range(n) if c != j]
            picked = rng.sample(src, min(len(src), rng.randint(1, 2)))
            col = max_combination([[r[c] for r in rows] for c in picked], [Fraction(rng.randint(-9, 9)) for _ in picked])
            for r, e in zip(rows, col):
                r[j] = e
    if k % 3 == 0 and m > 1:
        i = rng.randrange(m)
        picked = rng.sample([r for r in range(m) if r != i], min(m - 1, 2))
        rows[i] = list(max_combination([rows[r] for r in picked], [Fraction(rng.randint(-9, 9)) for _ in picked]))
    if k % 5 == 1 and n > 1:
        j = rng.randrange(n)
        for r in rows:
            r[j] = None
        rows[0][j - 1] = _value(rng, big)
    if all(e is None for r in rows for e in r):  # the checker's reduce check needs a finite entry
        rows[0][0] = _value(rng, big)
    if k % 2 == 0:
        x0 = [Fraction(rng.randint(-9, 9)) for _ in range(n)]
        b = [e if e is not None else _value(rng, False) for e in [row_max(r, x0) for r in rows]]
    else:
        b = [_value(rng, big) for _ in range(m)]
    shifts = [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(n)]
    rows2 = [[None if e is None else e + s for e, s in zip(r, shifts)] for r in rows]
    if k % 3 == 2:
        i, j = rng.randrange(m), rng.randrange(n)
        rows2[i][j] = Fraction(1) if rows2[i][j] is None else (None if rng.random() < 0.5 else rows2[i][j] + 1)
    return rows, b, rows2


def _run(argv: list[str]) -> tuple[str, int]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return buf.getvalue(), code


def _check_equiv(a, a2, equivalent: bool, alphas: list[Fraction] | None, code: int) -> str | None:
    """A column pair is shifted by a finite constant iff each spans the other."""
    pairs = list(zip(checker.transpose(a), checker.transpose(a2)))
    shifted = all(checker.spanned([c], c2) and checker.spanned([c2], c) for c, c2 in pairs)
    if equivalent != shifted or code != (0 if shifted else 1):
        return f"verdict {equivalent} with exit {code}, but columns shifted: {shifted}"
    if shifted:
        for j, ((c, c2), alpha) in enumerate(zip(pairs, alphas)):
            if checker.max_combination([c], [alpha]) != c2 or (all(e is None for e in c) and alpha != 0):
                return f"alpha for column {j + 1} is {alpha}"
    return None


def _judge(command: str, flags: tuple, a, a2, s: System, out: str, code: int) -> str | None:
    if command == "normalize" and any(all(e is None for e in col) for col in zip(*a)):
        return None if code == 2 and "degenerate column" in out else f"exit {code}: {out!r}"
    if command == "check-equiv":
        lines = out.splitlines()
        alphas = [Fraction(t) for t in lines[1][len("alpha = ("):-1].split(", ")] if len(lines) > 1 else None
        return _check_equiv(a, a2, lines[0] == "equivalent: yes", alphas, code)
    return checker.check_call(command, flags, a, s, out, code)


def test_every_report_passes_the_independent_checker(tmp_path):
    seen = {"solvable": 0, "unsolvable": 0, "dependent": 0, "degenerate": 0, "big": 0}
    for k in range(SYSTEMS):
        a, b, a2 = _system(k)
        s = System(a, b)
        paths = {}
        for name, text in (("a", grid_text(a)), ("b", grid_text([[e] for e in b])), ("a2", grid_text(a2))):
            paths[name] = str(tmp_path / f"{name}{k}.txt")
            pathlib.Path(paths[name]).write_text(text)
        m, n = len(a), len(a[0])
        rng = random.Random(k)
        col_order = ",".join(map(str, rng.sample(range(1, n + 1), n)))
        row_order = ",".join(map(str, rng.sample(range(1, m + 1), m)))
        A, B = paths["a"], paths["b"]
        for command, extra in (
            ("normalize", [B]),
            ("solve", [B]),
            ("solve", [B, "--check"]),
            ("dof", [B]),
            ("dof", [B, "--exact"]),
            ("colrank", []),
            ("colrank", ["--scan-order", col_order]),
            ("rowrank", []),
            ("rowrank", ["--scan-order", row_order]),
            ("reduce", [B]),
            ("check-equiv", [paths["a2"]]),
        ):
            argv = [command, A, *extra]
            out, code = _run(argv)
            flags = tuple(x for x in extra if x.startswith("--") and x != "--scan-order")
            verdict = _judge(command, flags, a, a2, s, out, code)
            assert verdict is None, (k, argv, verdict, out)
            # the JSON report of the same call renders to the text report judged above
            doc_text, json_code = _run(argv + ["--json"])
            doc = json.loads(doc_text)
            assert json_code == code == doc["exit_code"], (k, argv)
            assert cli.render_text(cli.Report(**doc)) + "\n" == out, (k, argv)
            if command == "solve":
                verdict = checker.check_call(command, (*flags, "--json"), a, s, doc_text, json_code)
                assert verdict is None, (k, argv, verdict, doc_text)
            if command == "colrank":
                seen["dependent"] += "dependent column" in out
        seen["solvable" if s.solvable else "unsolvable"] += 1
        seen["degenerate"] += any(all(e is None for e in col) for col in zip(*a))
        seen["big"] += any(e is not None and e.denominator > 10**18 for r in a for e in r)
    assert min(seen.values()) >= 5, seen
