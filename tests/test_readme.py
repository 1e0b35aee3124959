"""The examples in README.md: `$ tropsolve ...` lines and ```python blocks.

A `$ tropsolve` line runs through the CLI. The shown lines must appear in
the printed output in order, each on the line after the previous one. A
shown line ending in `...` matches as a prefix, and a bare `...` skips
any number of printed lines. Printed lines after the last shown one are
not checked. A ```python block runs as it stands, and its asserts must
hold. Every name the package exports is documented in the "Library"
section or used by another module of the package.
"""

import ast
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


def test_readme_python_blocks():
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_every_exported_name_has_a_user():
    # a name `tropsolve/__init__.py` exports is read by another module of the
    # package, or documented in README's "Library" section; otherwise it is dead code
    src = ROOT / "src" / "tropsolve"
    library = re.search(r"^## Library\n(.*?)^## ", (ROOT / "README.md").read_text(), re.M | re.S).group(1)
    used: dict[str, set[str]] = {}  # module -> names it reads
    for path in src.glob("*.py"):
        tree = ast.parse(path.read_text())
        used[path.stem] = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | {
            n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
        }
    exports = [
        (node.module, alias.name)
        for node in ast.parse((src / "__init__.py").read_text()).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert len(exports) > 30
    unused = [
        f"{module}.{name}"
        for module, name in exports
        if not any(name in names for m, names in used.items() if m not in ("__init__", module))
        and not re.search(rf"\b{name}\b", library)
    ]
    assert unused == []
