"""A generated sweep of one-site operator mutants of `src/tropsolve`, beside the kept catalogue.

Each mutant changes one operator at one site of one `src/tropsolve/*.py`
file:

- one comparison flips: `<` and `<=`, `>` and `>=`, `==` and `!=`, `is`
  and `is not`, `in` and `not in`;
- one boolean operator swaps: `and` becomes `or`, `or` becomes `and`;
- one call's name swaps: `min(...)` becomes `max(...)`, `max(...)` becomes
  `min(...)`.

Run from anywhere, with pytest and hypothesis installed:

    python tests/sweep.py            # run every mutant against Tier-1
    python tests/sweep.py --dry-run  # build every mutant, print the count

A mutant is built by editing the operator's text between its operands,
or the called name, and must parse to the source's syntax tree with that
one operator or name changed; the dry run also checks that it compiles
and differs from the source, and exits with 1 if any mutant does not.

A full run copies the repository to a temporary directory and runs the
whole of Tier-1 there once unmutated: it must pass, and twice its run
time bounds each mutant's run. Each mutant then runs the whole of Tier-1
with `-x` through `mutants.verdict`, but for `tests/test_mutants.py`: that
file checks that each catalogue entry's text still occurs, so it would
kill every mutant of a catalogued line by its text alone. A run past the
bound counts as killed and is printed `hung`; a pytest that breaks on
the mutant, exiting with neither a pass nor a failure, counts as killed
and is printed `errored`. Each survivor is printed with its file, line,
old text and new text, and the last lines give the totals and the run
time. The sweep is a triage tool, not a gate: a survivor is a test gap,
to be closed by a test and a catalogue entry in `tests/mutants.py`, or
an equivalent mutant, to be catalogued as one. It exits with 1 only when
the unmutated tree fails. pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import ast
import copy
import re
import shutil
import sys
import tempfile
import time
from bisect import bisect_right
from itertools import islice
from pathlib import Path
from typing import NamedTuple

import mutants

ROOT = mutants.ROOT
SOURCES = sorted((ROOT / "src" / "tropsolve").glob("*.py"))
TIER1 = ("tests", "--ignore=tests/test_mutants.py")  # pytest arguments; see the module docstring

SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In, ast.And: ast.Or, ast.Or: ast.And,
}
TEXT = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.Is: "is", ast.IsNot: "is not", ast.In: "in", ast.NotIn: "not in", ast.And: "and", ast.Or: "or",
}
NAMES = {"min": "max", "max": "min"}  # a called name that swaps


class Site(NamedTuple):
    file: str  # relative to the repository root
    line: int
    old: str  # the source line, stripped
    new: str  # the mutated line, stripped
    source: str  # the whole mutated file


def _pattern(op: type) -> re.Pattern:
    text = TEXT[op]
    if text[0].isalpha():  # a keyword, whose words may stand apart
        return re.compile(rb"\b" + rb"\s+".join(map(str.encode, text.split())) + rb"\b")
    return re.compile(re.escape(text.encode()))


def _swap(node: ast.AST, i: int | None) -> None:
    """Swap, in place, the called name of a `min`/`max` call, a boolean operator, or comparison i."""
    if isinstance(node, ast.Call):
        node.func.id = NAMES[node.func.id]
    elif i is None:
        node.op = SWAPS[type(node.op)]()
    else:
        node.ops[i] = SWAPS[type(node.ops[i])]()


def _sites(path: Path) -> list[Site]:
    """Every one-operator mutant of the file at `path`, each checked against the tree it must parse to."""
    source = path.read_text()
    data = source.encode()  # ast offsets count UTF-8 bytes
    starts = [0]
    for line in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    tree = ast.parse(source)

    def offset(line: int, col: int) -> int:
        return starts[line - 1] + col

    def between(left: ast.AST, right: ast.AST, op: type) -> tuple[int, int, bytes]:
        """The byte span of `op`'s text between two operands, and the text it swaps to."""
        lo, hi = offset(left.end_lineno, left.end_col_offset), offset(right.lineno, right.col_offset)
        found = _pattern(op).search(data, lo, hi)
        if found is None:
            raise RuntimeError(f"{path.name}:{left.end_lineno}: no {TEXT[op]!r} between the operands")
        return found.start(), found.end(), TEXT[SWAPS[op]].encode()

    out = []
    for index, node in enumerate(ast.walk(tree)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            edits = [([between(operands[i], operands[i + 1], type(op))], i) for i, op in enumerate(node.ops)]
        elif isinstance(node, ast.BoolOp):  # every keyword of the one node flips with its op
            edits = [([between(l, r, type(node.op)) for l, r in zip(node.values, node.values[1:])], None)]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in NAMES:
            f = node.func
            edits = [([(offset(f.lineno, f.col_offset), offset(f.end_lineno, f.end_col_offset), NAMES[f.id].encode())], None)]
        else:
            continue
        for spans, i in edits:
            mutated = data
            for lo, hi, text in reversed(spans):  # the later spans first, so earlier offsets hold
                mutated = mutated[:lo] + text + mutated[hi:]
            line = bisect_right(starts, spans[0][0])  # the first span's line
            expected = copy.deepcopy(tree)
            _swap(next(islice(ast.walk(expected), index, None)), i)  # `node` in the copy
            new_source = mutated.decode()
            if ast.dump(ast.parse(new_source)) != ast.dump(expected):
                raise RuntimeError(f"{path.name}:{node.lineno}: the edit changes more than one operator or name")
            old_line = source.splitlines()[line - 1].strip()
            new_line = new_source.splitlines()[line - 1].strip()
            out.append(Site(str(path.relative_to(ROOT)), line, old_line, new_line, new_source))
    return sorted(out, key=lambda site: site.line)  # `ast.walk` goes breadth first


def build() -> list[Site]:
    """Every mutant of every source file; each compiles and differs from its source."""
    sites = []
    for path in SOURCES:
        source = path.read_text()
        for site in _sites(path):
            compile(site.source, site.file, "exec")
            if site.source == source:
                raise RuntimeError(f"{site.file}:{site.line}: the mutant is the source")
            sites.append(site)
    return sites


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dry-run", action="store_true", help="build every mutant and print the count")
    args = parser.parse_args(argv)
    sites = build()
    print(f"{len(sites)} mutants over {len(SOURCES)} files", flush=True)
    if args.dry_run:
        return 0
    start_all = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache"))
        start = time.perf_counter()
        unmutated = mutants.Mutant("unmutated", sites[0].file, "", "", TIER1)  # replaces "" by ""
        if mutants.verdict(unmutated, tree, timeout=3600) != "survived":
            print("the unmutated tree fails Tier-1; no mutant can be judged")
            return 1
        bound = 2 * (time.perf_counter() - start)
        print(f"unmutated Tier-1 passes in {bound / 2:.1f} s; each mutant's bound is {bound:.1f} s", flush=True)
        counts = {"killed": 0, "hung": 0, "errored": 0, "survived": 0}
        survivors = []
        for site in sites:
            start = time.perf_counter()
            original = (tree / site.file).read_text()
            m = mutants.Mutant(f"{site.file}:{site.line}", site.file, original, site.source, TIER1)
            try:
                got = mutants.verdict(m, tree, timeout=bound)
            except RuntimeError as exc:  # pytest itself broke, as when the mutant runs the CLI on import
                got = "errored"
                print(exc)
            counts[got] += 1
            print(f"{m.name}: {site.old!r} -> {site.new!r}: {got} in {time.perf_counter() - start:.1f} s", flush=True)
            if got == "survived":
                survivors.append(site)
    for site in survivors:
        print(f"SURVIVED {site.file}:{site.line}\n  old: {site.old}\n  new: {site.new}")
    totals = ", ".join(f"{n} {k}" for k, n in counts.items())
    print(f"sweep of {len(sites)} mutants: {totals}, in {time.perf_counter() - start_all:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
