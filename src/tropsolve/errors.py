"""Exception types shared across the package."""


class TropicalError(Exception):
    """Base class for the errors this package raises for input it cannot take.

    These are malformed text, shapes that do not conform, a system that
    `normalize` cannot normalize and size bounds, which the CLI reports
    with exit code 2, and `UnsolvableSystemError` for a call that needs a
    solvable system. Misusing a library call raises Python's own
    exception instead: `ValueError` for a scan order that is not a
    permutation (`colrank`, `rowrank`), an outcome naming an out-of-range
    column (`degrees_of_freedom`, `minimal_leading_oracle`) or a vector
    that does not solve the reduced system (`expand_solution`);
    `TypeError` for a float entry; `IndexError` for an index out of range.
    """


class DimensionError(TropicalError):
    """Operand shapes do not conform."""


class DegenerateColumnError(TropicalError):
    """A column has no finite entry, so it cannot be normalized."""


class RegularityError(TropicalError):
    """A vector contains -inf entries where a regular vector is required."""


class SizeBoundError(TropicalError):
    """A procedure was asked to exceed a size bound.

    The exhaustive oracles refuse a side past their bound, and `normalize`
    a mean or minimum of more than `normalize.MAX_MEAN_DIGITS` digits.
    """


class UnsolvableSystemError(TropicalError):
    """An operation that requires a solvable system was given an unsolvable one."""


class ParseError(TropicalError):
    """Malformed input text. Carries 1-based line/column positions."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            where += ": "
        super().__init__(where + message)
