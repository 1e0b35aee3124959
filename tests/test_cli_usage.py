"""Help and usage text of the CLI stays byte-identical.

`data/cli_usage.json` maps each command line to the exit code, stdout and
stderr that argparse gives for it: the top-level `--help`, every
subcommand's `--help`, `solve` without its files, and an unknown command.
The golden report digests never reach the parser's own output, so this
pins it. Text is wrapped at `COLUMNS=80`. The one part of argparse's text
that differs between CPython patch releases, the quotes around each name
in an invalid-choice error's `(choose from ...)` list, is compared without
its quotes.

Regenerate the table, only when the help text is meant to change, with

    PYTHONPATH=src python tests/test_cli_usage.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
import re
import sys

from tropsolve import cli

USAGE = pathlib.Path(__file__).parent / "data" / "cli_usage.json"
SUBCOMMANDS = ("normalize", "solve", "dof", "colrank", "rowrank", "reduce", "check-equiv")
ARGVS = (["--help"], *([name, "--help"] for name in SUBCOMMANDS), ["solve"], ["frobnicate"])
CHOICES = re.compile(r"\(choose from [^)]*\)")


def usage_table() -> dict[str, dict]:
    """Exit code, stdout and stderr of each command line in ARGVS, at 80 columns."""
    table = {}
    saved = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        for argv in ARGVS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            table[" ".join(argv)] = {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    finally:
        if saved is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved
    return table


def _unquote_choices(entry: dict) -> dict:
    """The entry with `(choose from 'a', 'b')` in stderr read as `(choose from a, b)`."""
    stderr = CHOICES.sub(lambda m: m.group().replace("'", ""), entry["stderr"])
    return {**entry, "stderr": stderr}


def test_help_and_usage_text_unchanged():
    expected = json.loads(USAGE.read_text())
    got = usage_table()
    assert sorted(got) == sorted(expected)
    for argv, want in expected.items():
        assert _unquote_choices(got[argv]) == _unquote_choices(want), argv


if __name__ == "__main__":
    table = usage_table()
    USAGE.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {len(table)} command lines to {USAGE}", file=sys.stderr)
