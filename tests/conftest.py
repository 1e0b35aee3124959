import faulthandler
import os
import pathlib

import pytest

from tropsolve import TropMatrix, TropVector, parse_matrix, parse_vector

DATA = pathlib.Path(__file__).parent / "data"

# seconds one test may run before the whole run ends with its stack printed:
# over 20 times the slowest test (3.1 s on a shared 2-CPU host), far below a
# CI job's limit
PER_TEST_S = 90

# the terminal's stderr, duplicated before any test's output is captured;
# a capture file would be lost when the hang guard exits the process
STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    config.stash[STDERR] = os.dup(2)


@pytest.fixture(autouse=True)
def _hang_guard(request):
    """End the run, printing every thread's stack, if a test runs past `PER_TEST_S`."""
    faulthandler.dump_traceback_later(PER_TEST_S, exit=True, file=request.config.stash[STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()


def load_matrix(name: str) -> TropMatrix:
    return parse_matrix((DATA / name).read_text())


def load_vector(name: str) -> TropVector:
    return parse_vector((DATA / name).read_text())


@pytest.fixture(scope="session")
def data_dir() -> pathlib.Path:
    return DATA


@pytest.fixture(scope="session")
def solvable_4x5():
    """Solvable 4x5 system with integer data and maximal solution (-63,-25,30,4,74)."""
    return load_matrix("solvable_4x5.mat"), load_vector("solvable_4x5_b.vec")


@pytest.fixture(scope="session")
def unsolvable_5x4():
    """5x4 system whose rows 1-3 hold no column minimum."""
    return load_matrix("unsolvable_5x4.mat"), load_vector("unsolvable_5x4_b.vec")


@pytest.fixture(scope="session")
def dof_4x5():
    """Solvable 4x5 system with quarter-valued normalization and 2 degrees of freedom."""
    return load_matrix("dof_4x5.mat"), load_vector("dof_4x5_b.vec")


@pytest.fixture(scope="session")
def greedy_4x5():
    """4x5 system, b = 0, whose greedy leading set has 3 columns and least cover 2 (columns 3, 5)."""
    return load_matrix("greedy_4x5.mat"), load_vector("greedy_4x5_b.vec")


@pytest.fixture(scope="session")
def rank_4x5() -> TropMatrix:
    """4x5 matrix of column rank 2 (independent columns 4 and 2)."""
    return load_matrix("rank_4x5.mat")


@pytest.fixture(scope="session")
def rank_3x3() -> TropMatrix:
    """3x3 matrix with column rank 2: column 3 = max(col 1 + 2, col 2 - 2)."""
    return load_matrix("rank_3x3.mat")
