"""Exception types shared across the package."""


class TropicalError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(TropicalError):
    """Operand shapes do not conform."""


class DegenerateColumnError(TropicalError):
    """A column has no finite entry, so it cannot be normalized."""


class RegularityError(TropicalError):
    """A vector contains -inf entries where a regular vector is required."""


class SizeBoundError(TropicalError):
    """A procedure was asked to exceed a size bound.

    The exhaustive oracles refuse a side past their bound, and `normalize`
    a mean or minimum past Python's int/str digit limit.
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
