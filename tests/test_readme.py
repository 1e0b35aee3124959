"""The `$ tropsolve ...` examples in README.md, run through the CLI.

The shown lines must appear in the printed output in order, each on the
line after the previous one. A shown line ending in `...` matches as a
prefix, and a bare `...` skips any number of printed lines. Printed
lines after the last shown one are not checked.
"""

import contextlib
import io
import pathlib
import re

from tropsolve.cli import main

ROOT = pathlib.Path(__file__).parent.parent


def readme_examples() -> list[tuple[list[str], list[str]]]:
    """(argv, shown output lines) for every `$ tropsolve` line in a code block."""
    examples = []
    for block in re.findall(r"^```\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, *shown = chunk.rstrip("\n").split("\n")
            argv = command.split()
            assert argv[0] == "tropsolve", command
            while shown and not shown[-1]:
                shown.pop()
            examples.append((argv[1:], shown))
    return examples


def shown_output_matches(shown: list[str], printed: list[str]) -> bool:
    pos = 0
    skipping = False
    for line in shown:
        if line == "...":
            skipping = True
            continue
        while True:
            if pos == len(printed):
                return False
            got = printed[pos]
            pos += 1
            if got.startswith(line[:-3]) if line.endswith("...") else got == line:
                break
            if not skipping:
                return False
        skipping = False
    return True


def test_readme_examples(monkeypatch):
    monkeypatch.chdir(ROOT)
    examples = readme_examples()
    assert len(examples) >= 5
    for argv, shown in examples:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            main(argv)
        printed = out.getvalue().rstrip("\n").split("\n")
        assert shown_output_matches(shown, printed), (argv, printed)
