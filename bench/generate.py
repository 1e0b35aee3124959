"""Seeded inputs for the benchmark workloads.

Value ranges mirror the test-suite generators (entries in [-30, 30],
denominators up to 5, a share of -inf entries) without importing them or
tropsolve. Only the README scalar grammar is emitted: integers, `p/q` and
`-inf`. A matrix is a list of rows of `Fraction | None`, None being -inf.

Shapes and planted ranks come from a fixed grid rather than from the
seed, so every seed has the same size mix, the same largest input and
the same call order: the seed changes the values. Percentiles and peak
memory then stay comparable across seeds.
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass
from fractions import Fraction

from checker import mat_vec, max_combination

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
SMALL_DENS = (1, 2, 3, 4, 5)
WORKLOADS = ("solve-dense", "solve-primes", "rank-lowrank")


@dataclass(frozen=True)
class Instance:
    a: list[list[Fraction | None]]
    rhs: tuple[list[Fraction], ...]  # planted b = A x0, then (solve workloads) a random b
    planted_rank: tuple[int, int] | None = None  # (column rank, row rank) of the core


@dataclass(frozen=True)
class Call:
    command: str
    instance: int
    rhs: int | None  # index into Instance.rhs; None for matrix-only commands
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class Workload:
    name: str
    instances: list[Instance]
    calls: list[Call]  # one cycle; the benchmark repeats it


def token(v: Fraction | None) -> str:
    if v is None:
        return "-inf"
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def format_matrix(a) -> str:
    return "\n".join(" ".join(token(v) for v in row) for row in a) + "\n"


def format_vector(v) -> str:
    return "\n".join(token(x) for x in v) + "\n"


def _value(rng: random.Random, dens) -> Fraction:
    den = rng.choice(dens)
    return Fraction(rng.randint(-30 * den, 30 * den), den)


def _coeffs(rng: random.Random, k: int) -> list[Fraction | None]:
    """k combination coefficients, about 30% -inf, at least one finite."""
    coeffs = [None if rng.random() < 0.3 else _value(rng, SMALL_DENS) for _ in range(k)]
    if all(c is None for c in coeffs):
        coeffs[rng.randrange(k)] = _value(rng, SMALL_DENS)
    return coeffs


def _matrix(rng: random.Random, m: int, n: int, dens, bottom_p: float) -> list[list[Fraction | None]]:
    """Random matrix with at least one finite entry in every row and column."""
    a = [[None if rng.random() < bottom_p else _value(rng, dens) for _ in range(n)] for _ in range(m)]
    for row in a:
        if all(v is None for v in row):
            row[rng.randrange(n)] = _value(rng, dens)
    for j in range(n):
        if all(a[i][j] is None for i in range(m)):
            a[rng.randrange(m)][j] = _value(rng, dens)
    return a


def _shapes(lo: int, hi: int, count: int) -> list[tuple[int, int]]:
    """Sides from lo to hi evenly spaced in 1/side; even strata square, odd ones tall or wide in turn.

    The spacing is denser at small sides, which keeps a cycle of 100 calls
    short while the largest input is still in every cycle. An odd stratum
    pairs its side with the side of the stratum below.
    """
    sides = [round(1 / (1 / lo - (1 / lo - 1 / hi) * k / max(1, count - 1))) for k in range(count)]
    shapes = []
    for k, s in enumerate(sides):
        if k % 2 == 0:
            shapes.append((s, s))
        else:
            shapes.append((s, sides[k - 1]) if k % 4 == 1 else (sides[k - 1], s))
    return shapes


def _spread(calls: list[Call]) -> list[Call]:
    """Reorder calls listed from cheapest to dearest so that every stretch of the cycle holds all sizes.

    Call i goes to position i * stride mod N with stride near N / golden
    ratio, so the few dearest calls, which set the p90, fall far apart in
    time instead of sharing one slow moment of the machine.
    """
    n = len(calls)
    stride = next(s for s in range(round(n * 0.618), n + 1) if math.gcd(s, n) == 1)
    out: list[Call] = [calls[0]] * n
    for i, call in enumerate(calls):
        out[i * stride % n] = call
    return out


def _planted_rhs(rng: random.Random, a, dens) -> list[Fraction]:
    """b = A x0 for a random finite x0; finite because every row of A has a finite entry."""
    return mat_vec(a, [_value(rng, dens) for _ in range(len(a[0]))])


# --- solve workloads -------------------------------------------------------

SOLVE_INSTANCES = 17  # x 6 calls: one cycle holds 102 calls
SOLVE_SIDES = (40, 100)
SOLVE_BOTTOM_P = 0.1


def _solve_calls(k: int) -> list[Call]:
    """Both right-hand sides with plain `solve`, then one call of each other kind."""
    p, r = (0, 1) if k % 2 == 0 else (1, 0)
    return [
        Call("solve", k, 0),
        Call("solve", k, 1),
        Call("solve", k, p, ("--json",)),
        Call("solve", k, r, ("--check",)),
        Call("dof", k, p),
        Call("normalize", k, r),
    ]


def solve_workload(name: str, seed: int, dens, instances: int, sides: tuple[int, int]) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    insts = []
    for m, n in _shapes(*sides, instances):
        a = _matrix(rng, m, n, dens, SOLVE_BOTTOM_P)
        insts.append(Instance(a, (_planted_rhs(rng, a, dens), [_value(rng, dens) for _ in range(m)])))
    return Workload(name, insts, _spread([c for k in range(instances) for c in _solve_calls(k)]))


# --- rank workload ---------------------------------------------------------

RANK_INSTANCES = 45  # x 2 scans, plus reduce on every third one: 105 calls
RANK_SIDES = (12, 24)
RANK_RANKS = (3, 7)
RANK_BOTTOM_P = 0.15


def planted_low_rank(rng: random.Random, m: int, n: int, col_rank: int, row_rank: int):
    """An m x n matrix spanned by a row_rank x col_rank core.

    Appending max-combinations of the columns keeps every row dependence,
    and appending max-combinations of the rows keeps every column
    dependence, so the core's independent sets survive both steps.
    """
    core = _matrix(rng, row_rank, col_rank, SMALL_DENS, RANK_BOTTOM_P)
    core_cols = [list(c) for c in zip(*core)]
    cols = core_cols + [max_combination(core_cols, _coeffs(rng, col_rank)) for _ in range(n - col_rank)]
    rng.shuffle(cols)
    core_rows = [list(r) for r in zip(*cols)]
    rows = core_rows + [max_combination(core_rows, _coeffs(rng, row_rank)) for _ in range(m - row_rank)]
    rng.shuffle(rows)
    return rows


def _rank_calls(k: int, rng: random.Random, m: int) -> list[Call]:
    """Two of the three scans on instance k, in turn, and `reduce` with the planted b on every third.

    One shape per call keeps the call times spread evenly, so the median
    does not sit on a step between two shapes. Every reduce call is
    solvable, so it runs the reduction scans twice, as the solvable path
    does; at one call in seven the reduce calls form the tail.
    """
    order = list(range(1, m + 1))
    rng.shuffle(order)
    scans = [
        Call("colrank", k, None),
        Call("rowrank", k, None),
        Call("rowrank", k, None, ("--scan-order", ",".join(map(str, order)))),
    ]
    calls = [scans[k % 3], scans[(k + 1) % 3]]
    return calls + [Call("reduce", k, 0)] if k % 3 == 0 else calls


def rank_workload(seed: int, instances: int, sides: tuple[int, int], ranks: tuple[int, int]) -> Workload:
    name = "rank-lowrank"
    rng = random.Random(f"{name}:{seed}")
    # ranks are fixed per stratum like the sides, each running through the
    # rank grid in its own order so that rank does not grow with size
    grid = [ranks[0] + (k * (ranks[1] - ranks[0] + 1)) // instances for k in range(instances)]
    col_ranks = [grid[(k * 11) % instances] for k in range(instances)]
    row_ranks = [grid[(k * 7) % instances] for k in range(instances)]
    insts, calls = [], []
    for k, (m, n) in enumerate(_shapes(*sides, instances)):
        cr, rr = min(col_ranks[k], n), min(row_ranks[k], m)
        a = planted_low_rank(rng, m, n, cr, rr)
        insts.append(Instance(a, (_planted_rhs(rng, a, SMALL_DENS),), (cr, rr)))
        calls += _rank_calls(k, rng, m)
    return Workload(name, insts, _spread(calls))


# ---------------------------------------------------------------------------


def make(name: str, seed: int, scale: float = 1.0) -> Workload:
    """Build a workload; `scale` < 1 shrinks instance counts and sizes for smoke runs."""
    if name == "rank-lowrank":
        lo, hi = RANK_SIDES
        return rank_workload(
            seed,
            instances=max(2, round(RANK_INSTANCES * scale)),
            sides=(max(3, round(lo * scale)), max(4, round(hi * scale))),
            ranks=RANK_RANKS if scale >= 1 else (2, 3),
        )
    if name in ("solve-dense", "solve-primes"):
        lo, hi = SOLVE_SIDES
        return solve_workload(
            name,
            seed,
            SMALL_DENS if name == "solve-dense" else PRIMES,
            instances=max(2, round(SOLVE_INSTANCES * scale)),
            sides=(max(2, round(lo * scale)), max(3, round(hi * scale))),
        )
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def lcd_bits(inst: Instance) -> int:
    """Bit length of the least common denominator of every input entry."""
    rows = inst.a + list(inst.rhs)
    return math.lcm(*{v.denominator for row in rows for v in row if v is not None}).bit_length()


def describe(w: Workload) -> dict:
    """Shape range, call mix, planted ranks and median input LCD bit length of one cycle."""
    mix: dict[str, int] = {}
    for c in w.calls:
        key = " ".join((c.command,) + c.flags[:1])
        mix[key] = mix.get(key, 0) + 1
    desc = {
        "rows": [min(len(i.a) for i in w.instances), max(len(i.a) for i in w.instances)],
        "cols": [min(len(i.a[0]) for i in w.instances), max(len(i.a[0]) for i in w.instances)],
        "calls_per_cycle": len(w.calls),
        "call_mix": mix,
        "median_lcd_bits": statistics.median(lcd_bits(i) for i in w.instances),
    }
    ranks = [i.planted_rank for i in w.instances if i.planted_rank]
    if ranks:
        desc["planted_col_rank"] = [min(r[0] for r in ranks), max(r[0] for r in ranks)]
        desc["planted_row_rank"] = [min(r[1] for r in ranks), max(r[1] for r in ranks)]
    return desc
