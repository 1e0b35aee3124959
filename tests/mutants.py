"""A kept catalogue of mutants of `src/tropsolve`, and the tool that runs it.

Each mutant replaces one exact text, which occurs once, in one source file.
It names the test files that must kill it, or says why it is
`equivalent`: a rewrite that changes no value and no count, so that no test
can tell it from the original. The control mutant changes only a comment
and must survive its test files; if it dies, the run itself is broken.

Run from anywhere, with pytest and hypothesis installed:

    python tests/mutants.py

The tool copies the repository to a temporary directory, applies one
mutant at a time, runs that mutant's test files there with `pytest -x`,
and prints `killed` or `survived` for each, with its run time; equivalent
mutants are listed, not run. A run past `TIMEOUT_S` has its whole process
group killed and counts as killed, printed `hung`: a mutant that loops
for ever must not hold the run. The last line gives the whole catalogue's
run time. It exits with 1 when a mutant that must die survives or the
control dies. pytest does not collect this file; `tests/test_mutants.py`
checks in Tier-1 that every old text still occurs exactly once.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
# seconds one mutant's pytest run may take: the slowest entry that ends, the
# control, takes 5-9 s on a shared 2-CPU host. A hung run grows by about
# 20 MB a second, so the bound also caps its memory near 600 MB
TIMEOUT_S = 30


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str  # occurs exactly once in `file`
    new: str
    tests: tuple[str, ...] = ()  # test files that must kill it (the control: that it must survive)
    equivalent: str = ""  # why no test can kill it; such a mutant names no tests
    control: bool = False


MUTANTS = (
    # the rank scan's four rules; each raises the scan's residuate calls
    # and fails its own work-count test in tests/test_rank.py
    Mutant(
        "scan-memo-deleted",
        "src/tropsolve/rank.py",
        "        hit = table.get(k * n + t)\n",
        "        hit = None\n",
        ("tests/test_rank.py",),
    ),
    Mutant(
        "scan-early-stop-deleted",
        "src/tropsolve/rank.py",
        "            if covered == goal:\n                break\n",
        "",
        ("tests/test_rank.py",),
    ),
    Mutant(
        "scan-known-independents-not-first",
        "src/tropsolve/rank.py",
        "for k in chain(discovery, untested):",
        "for k in sorted(discovery + untested):",
        ("tests/test_rank.py",),
    ),
    # the same verdicts, since `residuate` gives a pattern miss (0, None) too,
    # but every miss then calls it and stores an entry
    Mutant(
        "scan-pattern-miss-pretest-deleted",
        "src/tropsolve/rank.py",
        "if support[k] & ~support[t]:",
        "if False:",
        ("tests/test_rank.py", "tests/test_reduce.py"),
    ),
    # the same values, each A~, b~ and y* value reduced by the gcd of its full long operands
    Mutant(
        "normalize-full-operand-gcd",
        "src/tropsolve/normalize.py",
        "out.append((t // g2, q // g * (s // g2)))",
        "out.append(reduced((t, q // g * s)))",
        ("tests/test_normalize.py",),
    ),
    # Q's one-step cell: Knuth's gcd(t, g) misses a factor of the unreduced
    # b_i - a_ij; the full operands give the same values over long gcds
    Mutant(
        "normalize-q-reduced-by-gcd-with-g",
        "src/tropsolve/normalize.py",
        "        G = gcd(t, q)\n",
        "        G = gcd(t, g)\n",
        ("tests/test_normalize.py",),
    ),
    Mutant(
        "normalize-q-full-operand-gcd",
        "src/tropsolve/normalize.py",
        "out.append((t // G, q // g * s // G))",
        "out.append(reduced((t, q // g * s)))",
        ("tests/test_normalize.py",),
    ),
    # the one column mean counts a -inf entry as 0, so its column's mean and every
    # A~ and Q cell of it shift
    Mutant(
        "normalize-mean-counts-inf-as-0",
        "src/tropsolve/normalize.py",
        "_mean([p for p in col if p is not None])",
        "_mean([(0, 1) if p is None else p for p in col])",
        ("tests/test_normalize.py",),
    ),
    # a report row with a part past the int/str digit limit raises instead of printing
    Mutant(
        "format-pairs-digit-limit-fallback-deleted",
        "src/tropsolve/scalar.py",
        "return format_pairs([None if p is None else (Decimal(p[0]), Decimal(p[1])) for p in pairs], bottom)",
        "raise",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "mask-bits-past-63-dropped",
        "src/tropsolve/solver.py",
        "    rows = []\n    while mask:",
        "    rows = []\n    mask &= (1 << 64) - 1\n    while mask:",
        ("tests/test_solver.py",),
    ),
    Mutant(
        "parse-first-chunk-only",
        "src/tropsolve/scalar.py",
        "    for chunk in chunks:\n",
        "    for chunk in chunks[:1]:\n",
        ("tests/test_matrix.py",),
    ),
    # the same reports, by the theorem in reduce.py; only the self-check's scope changes
    Mutant(
        "row-self-check-cut-to-independent-columns",
        "src/tropsolve/reduce.py",
        'row_scan = _scan(cut, None, "rows", rows)',
        'row_scan = _scan(cut, None, "rows")',
        ("tests/test_reduce.py",),
    ),
    # without the row consistency, an unsolvable A x = b whose reduced system
    # is solvable gets a degrees-of-freedom figure instead of the refusal
    Mutant(
        "dof-via-reduction-skips-row-consistency",
        "src/tropsolve/reduce.py",
        "solve(sys.a_bar, sys.b_bar) if sys.consistent() else None",
        "solve(sys.a_bar, sys.b_bar)",
        ("tests/test_reduce.py",),
    ),
    # "1 2" joined with "7" reads as three grammar tokens, and `_ints` then raises
    Mutant(
        "parse-space-count-check-deleted",
        "src/tropsolve/scalar.py",
        'joined.count(" ") != len(chunk) - 1 or ',
        "",
        ("tests/test_scalar.py",),
    ),
    # the max-plus product, the residuation and the oracle's row test
    Mutant(
        "row-maxima-keeps-least-term",
        "src/tropsolve/matrix.py",
        "if best_d is None or pn * best_d > best_n * pd:",
        "if best_d is None or pn * best_d < best_n * pd:",
        ("tests/test_matrix.py",),
    ),
    Mutant(
        "row-maxima-drops-last-term",
        "src/tropsolve/matrix.py",
        "for ap, xp in zip(r, x_pairs):",
        "for ap, xp in zip(r[:-1], x_pairs):",
        ("tests/test_matrix.py",),
    ),
    # only the last row attaining the least slack is kept in the mask
    Mutant(
        "residuate-keeps-last-attaining-row",
        "src/tropsolve/solver.py",
        "if lhs < rhs:",
        "if lhs <= rhs:",
        ("tests/test_solver.py",),
    ),
    # the two kernels return their results reduced, so that callers compare them with `==`
    Mutant(
        "residuate-returns-unreduced",
        "src/tropsolve/solver.py",
        "(mask, reduced((least_n, least_d)))",
        "(mask, (least_n, least_d))",
        ("tests/test_solver.py", "tests/test_reduce.py", "tests/test_exhaustive.py"),
    ),
    Mutant(
        "row-maxima-returns-unreduced",
        "src/tropsolve/matrix.py",
        "reduced((best_n, best_d))",
        "(best_n, best_d)",
        ("tests/test_matrix.py", "tests/test_rank.py", "tests/test_exhaustive.py"),
    ),
    # a row whose terms all fall short of b_i passes
    Mutant(
        "satisfies-accepts-row-below-b",
        "src/tropsolve/oracle.py",
        "default=-1) != 0:",
        "default=-1) > 0:",
        ("tests/test_oracle.py",),
    ),
    Mutant(
        "check-equivalence-all-inf-column-alpha-1",
        "src/tropsolve/solver.py",
        "alphas.append(Fraction(0))",
        "alphas.append(Fraction(1))",
        ("tests/test_solver.py",),
    ),
    Mutant(
        "greedy-tie-break-to-highest-column",
        "src/tropsolve/freedom.py",
        "min(col for col, c in freq.items() if c == best)",
        "max(col for col, c in freq.items() if c == best)",
        ("tests/test_freedom.py",),
    ),
    # a chosen column removes the rows it does not cover, so the greedy loop
    # soon meets rows that all hold its column and never ends: killed as `hung`
    Mutant(
        "greedy-removes-uncovered-rows",
        "src/tropsolve/freedom.py",
        "if col in sets[r]",
        "if col not in sets[r]",
        ("tests/test_freedom.py",),
    ),
    Mutant(
        "exact-cover-refuses-its-bound",
        "src/tropsolve/freedom.py",
        "if n > EXACT_COVER_MAX_COLS:",
        "if n >= EXACT_COVER_MAX_COLS:",
        ("tests/test_cli.py",),
    ),
    # two matrices that differ in one dimension only pass, and zip cuts the longer short
    Mutant(
        "check-equivalence-shape-needs-both-dimensions",
        "src/tropsolve/solver.py",
        "if a.rows != a2.rows or a.cols != a2.cols:",
        "if a.rows != a2.rows and a.cols != a2.cols:",
        ("tests/test_cli.py", "tests/test_exhaustive.py"),
    ),
    # an exhaustive verdict that agrees hides a verifier that does not
    Mutant(
        "solve-check-exhaustive-overrides-disagreement",
        "src/tropsolve/cli.py",
        "agree = agree and exh == solvable",
        "agree = agree or exh == solvable",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "principal-solution-keeps-last-least-row",
        "src/tropsolve/oracle.py",
        "if least_d is None or cn * least_d < least_n * cd:",
        "if least_d is None or cn * least_d <= least_n * cd:",
        equivalent="it keeps a later row of the same least value, and only that value is returned",
    ),
    Mutant(
        "parse-divides-by-gcd-1",
        "src/tropsolve/scalar.py",
        "map((1).__lt__, gcds)",
        "map((0).__lt__, gcds)",
        equivalent="dividing by a gcd of 1 changes no value; a gcd of 0, which only 0/0 has, is still skipped",
    ),
    Mutant(
        "control-comment-only",
        "src/tropsolve/scalar.py",
        "# skips gcd 0, which only 0/0 has;",
        "# skips a gcd of 0, which only 0/0 has;",
        ("tests/test_scalar.py", "tests/test_matrix.py"),
        control=True,
    ),
)


def verdict(mutant: Mutant, tree: Path, timeout: float = TIMEOUT_S) -> str:
    """`killed`, `survived` or `hung`: the mutant's test files run on `tree` with the mutant applied.

    The file is restored after. pytest runs in a session of its own, so that
    past `timeout` seconds its whole process group is killed.
    """
    path = tree / mutant.file
    original = path.read_text()
    path.write_text(original.replace(mutant.old, mutant.new, 1))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])),
           "PYTHONDONTWRITEBYTECODE": "1"}  # no stale bytecode of an earlier mutant of the same file
    try:
        proc = subprocess.Popen(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests],
            cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True,
        )
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return "hung"
    finally:
        path.write_text(original)
    if code not in (0, 1, 2):  # 1: a test failed; 2: a collection error
        raise RuntimeError(f"{mutant.name}: pytest exited with {code}")
    return "killed" if code else "survived"


def main() -> int:
    wrong, start_all = 0, time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache"))
        for m in MUTANTS:
            if m.equivalent:
                print(f"{m.name}: equivalent: {m.equivalent}", flush=True)
                continue
            start = time.perf_counter()
            got = verdict(m, tree)
            bad = (got != "survived") == m.control
            wrong += bad
            print(f"{m.name}: {got}{' (WRONG)' if bad else ''} in {time.perf_counter() - start:.1f} s", flush=True)
    print(f"catalogue of {len(MUTANTS)} mutants: {wrong} wrong, in {time.perf_counter() - start_all:.1f} s")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
