"""Exact linear algebra over the max-plus (tropical) semiring.

Solves A x = b with exact rational arithmetic by residuation (the
paper's column-mean normalization, unshifted), and builds on the same
machinery to compute degrees of freedom, column/row rank, and reduced
systems.
"""

from .errors import (
    DegenerateColumnError,
    DimensionError,
    ParseError,
    RegularityError,
    SizeBoundError,
    TropicalError,
    UnsolvableSystemError,
)
from .freedom import DofReport, DofStep, degrees_of_freedom, minimal_leading_oracle
from .matrix import (
    TropMatrix,
    TropVector,
    is_regular,
    mat_vec,
    parse_matrix,
    parse_vector,
    submatrix,
)
from .normalize import NormalizationResult, normalize, normalized_solution
from .oracle import exhaustive_solvable, principal_solution
from .rank import Dependence, RankReport, colrank, rowrank
from .reduce import ReducedSystem, dof_via_reduction, expand_solution, reduce_system
from .scalar import (
    BOTTOM,
    Scalar,
    as_scalar,
    format_pair,
)
from .solver import (
    Solvable,
    SolveOutcome,
    Unsolvable,
    check_equivalence,
    solve,
)

__version__ = "0.19.0"
