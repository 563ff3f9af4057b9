"""Exception hierarchy.

Three top-level families carry the CLI exit code as exit_code:
configuration problems 2, data problems 3, numerical problems 4; any
other package error exits 1. Library code raises the specific
subclasses, and the CLI exits with the exit_code of the error.
"""


class NewscastError(Exception):
    """Base class for all package errors."""

    exit_code = 1


def error_text(call, *args) -> str | None:
    """The message of the package error or ValueError call(*args) raises."""
    try:
        call(*args)
    except (NewscastError, ValueError) as exc:
        return str(exc)


class ConfigError(NewscastError):
    """Invalid configuration: unknown keys, bad values, missing files."""

    exit_code = 2


class DataError(NewscastError):
    """Invalid or insufficient input data."""

    exit_code = 3


class NumericError(NewscastError):
    """Numerically ill-posed computation."""

    exit_code = 4


class SeriesFormatError(DataError):
    """Malformed input file: a bad header, or a row a reader refuses.
    Carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def month_runs(months) -> str:
    """The months as text, in the order given, with each run of months
    that follow one another written first..last."""
    runs = []
    for month in months:
        if runs and month.ordinal == runs[-1][-1].ordinal + 1:
            runs[-1][1:] = [month]
        else:
            runs.append([month])
    return ", ".join("..".join(map(str, run)) for run in runs)


class _ListsMonths:
    """Carries the offending months and appends them to the message."""

    def __init__(self, message: str, months=()):
        self.months = tuple(months)
        if self.months:
            message = f"{message}: {month_runs(self.months)}"
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


class OverflowMonthsError(_ListsMonths, NumericError):
    """A transform's result overflowed to infinity. Carries the
    offending months."""


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
