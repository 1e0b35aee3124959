"""Metamorphic relations: a transformed system's reports follow from the original's.

Scaling every entry of A, b and A2 by a positive rational lambda is a
max-plus automorphism: it keeps every max and every sum. So each report of
the scaled system is the original report with every value multiplied by
lambda, and every verdict, index, count and word unchanged. The expected
payload is derived from the other run's payload with plain `Fraction`
arithmetic; the inputs are written with it too, b = A x0 by `helpers.row_max`.
"""

from __future__ import annotations

import random
from fractions import Fraction

from tropsolve.cli import run

from helpers import row_max

LAMBDA = Fraction(3, 7)


def _value(rng: random.Random) -> Fraction:
    den = rng.randint(1, 5)
    return Fraction(rng.randint(-30 * den, 30 * den), den)


def _token(v: Fraction | None) -> str:
    return "-inf" if v is None else str(v)


def _system(rng: random.Random, k: int):
    """A, b as a one-column grid, and a column-shifted copy A2.

    b = A x0 for every third k; otherwise it is drawn, -inf in about 20% of rows, as A is.
    """
    m, n = rng.randint(1, 5), rng.randint(1, 5)
    a = [[None if rng.random() < 0.2 else _value(rng) for _ in range(n)] for _ in range(m)]
    if k % 3 == 0:
        x0 = [_value(rng) for _ in range(n)]
        b = [row_max(r, x0) for r in a]
    else:
        b = [None if rng.random() < 0.2 else _value(rng) for _ in range(m)]
    shifts = [_value(rng) for _ in range(n)]
    a2 = [[None if e is None else e + s for e, s in zip(r, shifts)] for r in a]
    return a, [[e] for e in b], a2


def _files(stem, a, b, a2) -> list[str]:
    """Write A, b and A2 next to `stem` and return their paths."""
    paths = []
    for suffix, rows in (("_a.mat", a), ("_b.vec", b), ("_a2.mat", a2)):
        path = stem.with_name(stem.name + suffix)
        path.write_text("".join(" ".join(map(_token, r)) + "\n" for r in rows))
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
