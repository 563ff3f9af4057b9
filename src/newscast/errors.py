"""Exception hierarchy.

Three top-level families map onto the CLI exit codes: configuration
problems (exit 2), data problems (exit 3), and numerical problems
(exit 4). Library code raises the specific subclasses; the CLI maps
families to codes.
"""


class NewscastError(Exception):
    """Base class for all package errors."""


class ConfigError(NewscastError):
    """Invalid configuration: unknown keys, bad values, missing files."""


class DataError(NewscastError):
    """Invalid or insufficient input data."""


class NumericError(NewscastError):
    """Numerically ill-posed computation."""


class SeriesFormatError(DataError):
    """Malformed series file (bad header, bad row, duplicate or
    non-monotone months). Carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class _ListsMonths:
    """Carries the offending months and appends them to the message."""

    def __init__(self, message: str, months=()):
        self.months = tuple(months)
        if self.months:
            listing = ", ".join(str(m) for m in self.months)
            message = f"{message}: {listing}"
        super().__init__(message)


class MissingMonthsError(_ListsMonths, DataError):
    """An operation needed months that the series does not cover."""


class InvalidProbabilityError(DataError):
    """A sentiment probability vector fails validation."""


class UnitError(DataError):
    """A series has the wrong unit for the requested transform."""


class DomainError(NumericError):
    """Argument outside the mathematical domain of a transform."""


class ZeroDenominatorError(_ListsMonths, NumericError):
    """Percent change hit zero (or, for the sentiment index,
    sign-crossing) denominators. Carries the offending months."""


class SingularDesignError(NumericError):
    """Rank-deficient regression design. Names the dependent columns."""

    def __init__(self, message: str, columns=()):
        self.columns = tuple(columns)
        if self.columns:
            message = f"{message}: {', '.join(self.columns)}"
        super().__init__(message)


class DegenerateLossError(NumericError):
    """Loss differential has zero variance but non-zero mean, which
    signals duplicated or constant-offset inputs rather than evidence."""
