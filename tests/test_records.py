"""The result records are named tuples, and starting the CLI imports neither `dataclasses` nor `inspect`."""

import subprocess
import sys
from pathlib import Path

import pytest

import tropsolve
from tropsolve import (
    Dependence,
    DofReport,
    DofStep,
    NormalizationResult,
    RankReport,
    ReducedSystem,
    Solvable,
    Unsolvable,
    colrank,
    degrees_of_freedom,
    normalize,
    reduce_system,
    solve,
)
from tropsolve.cli import Report, run

# -B writes no __pycache__ into the checkout; -S skips site, whose imports are not the program's
STARTUP = """
import sys
sys.path.insert(0, sys.argv[1])
import tropsolve.cli
tropsolve.cli._build_parser()
print(" ".join(sorted({"dataclasses", "inspect"} & set(sys.modules))))
"""


def test_cli_start_up_imports_neither_dataclasses_nor_inspect():
    src = str(Path(tropsolve.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-B", "-S", "-c", STARTUP, src],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


@pytest.fixture()
def records(solvable_4x5, unsolvable_5x4, rank_3x3, data_dir):
    """One instance of each of the nine result records, made by the library and the CLI."""
    solvable = solve(*solvable_4x5)
    dof = degrees_of_freedom(solvable)
    rank = colrank(rank_3x3)
    report = run(["solve", str(data_dir / "solvable_4x5.mat"), str(data_dir / "solvable_4x5_b.vec")])
    return [solvable, solve(*unsolvable_5x4), rank, rank.dependent[0], reduce_system(*solvable_4x5),
            normalize(*solvable_4x5), dof, dof.trace[0], report]


def test_records_are_named_tuples(records):
    kinds = (Solvable, Unsolvable, RankReport, Dependence, ReducedSystem, NormalizationResult, DofReport, DofStep, Report)
    assert [type(r) for r in records] == list(kinds)
    assert all(isinstance(r, tuple) and r._fields for r in records)


def test_record_fields_cannot_be_assigned(records):
    # dataclasses' FrozenInstanceError was an AttributeError too, so handlers of it still work
    for record in records:
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)


def test_isinstance_tells_solvable_from_unsolvable(solvable_4x5, unsolvable_5x4):
    solvable, unsolvable = solve(*solvable_4x5), solve(*unsolvable_5x4)
    assert isinstance(solvable, Solvable) and not isinstance(solvable, Unsolvable)
    assert isinstance(unsolvable, Unsolvable) and not isinstance(unsolvable, Solvable)
