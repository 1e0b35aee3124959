"""The result records are named tuples whose matrices are `TropMatrix`es, and starting the CLI imports neither `dataclasses` nor `inspect`."""

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
    TropMatrix,
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


def _is_pair_grid(value) -> bool:
    """True for rows of (numerator, denominator) pairs and None, the form a record must not hold a matrix in."""
    return isinstance(value, tuple) and any(
        isinstance(r, tuple) and r and all(p is None or (type(p) is tuple and len(p) == 2) for p in r) for r in value
    )


def test_matrix_fields_are_matrices_and_q_is_the_one_pair_grid(records):
    # A~ goes into `solve` as `a_bar` does; Q's None is +inf, which a matrix would read as -inf
    kinds = {}
    for record in records:
        for name, value in zip(record._fields, record):
            if isinstance(value, TropMatrix):
                kinds[name] = "matrix"
            elif _is_pair_grid(value):
                kinds[name] = "grid"
    assert kinds == {"a_tilde": "matrix", "a_bar": "matrix", "q": "grid"}


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
