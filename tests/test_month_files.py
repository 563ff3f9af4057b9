"""The month-keyed readers against an independent per-row oracle.

The oracle reads a series or forecast file with csv, then parses each
row with MonthKey.parse, float and math.isfinite, and keeps the last
month of each model to hold months strictly increasing per model. On
random files, malformed rows included, read_series and read_forecasts
must give the same MonthlySeries or ForecastSeries bit for bit, or the
same error with the same line.
"""

import csv
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from newscast import (
    DataError,
    ForecastSeries,
    MonthKey,
    read_forecasts,
    read_series,
)
from newscast import io as nio

from conftest import JUNK_NUMBERS, csv_files, oracle_rows, series_of, write_csv

#: Each reader oracle runs at three block sizes, so about a third of the
#: 70 examples it would draw at one size.
SETTINGS = settings(max_examples=24, deadline=None)

FIRST = MonthKey(2019, 11).ordinal
BAD_MONTHS = (
    "0000-01", "2020-13", "2020-00", "2020-1", "２０２０-01", "٢٠٢٠-01",
    "2020-01-05", "202001", "", "soon",
)
NUMBERS = st.floats(allow_nan=False, allow_infinity=False).map(repr)
QUOTINGS = st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL])
#: A fault is drawn for one row; "fields" comes last, as it may drop a value.
FAULTS = ("month", "padded month", "order", "model", "value", "fields")


@st.composite
def month_rows(draw, keyed):
    """Rows whose months follow on per model, two models interleaved,
    then up to two faults, each on a drawn row: a month that does not
    parse, a padded month (which parses), a month that repeats, goes
    back or skips, a blank or padded model name, a value that does not
    parse or is not finite, too few or too many fields. Blank and
    spaces-only lines fall between some rows."""
    following = {}
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        model = draw(st.sampled_from(["fed", "news"])) if keyed else ""
        ordinal = following.get(model, draw(st.integers(FIRST, FIRST + 3)))
        following[model] = ordinal + 1
        values = [draw(NUMBERS) for _ in range(4 if keyed else 1)]
        rows.append([str(MonthKey.from_ordinal(ordinal)), *[model][:keyed], *values])
    faults = draw(st.lists(st.sampled_from(FAULTS), max_size=2)) if rows else []
    for fault in sorted(faults, key=FAULTS.index):
        row = draw(st.sampled_from(rows))
        if fault == "month":
            row[0] = draw(st.sampled_from(BAD_MONTHS))
        elif fault == "padded month":
            row[0] = f" {row[0]}\t"
        elif fault == "order":
            row[0] = str(MonthKey.from_ordinal(draw(st.integers(FIRST, FIRST + 8))))
        elif fault == "model" and keyed:
            row[1] = draw(st.sampled_from(
                ["", "  ", " fed ", "news\t", "x,y", "a\nb", "fed\x00", "\x00"]
            ))
        elif fault == "value":
            row[draw(st.integers(1 + keyed, len(row) - 1))] = draw(
                st.sampled_from(JUNK_NUMBERS)
            )
        elif fault == "fields":
            row[:] = row[:-1] if draw(st.booleans()) else [*row, "extra"]
    for at in draw(st.lists(st.integers(0, len(rows)), max_size=2)):
        rows.insert(at, draw(st.sampled_from(["", "  "])))  # a blank line
    return rows


# ----------------------------------------------------------------- oracle


def oracle_rows_checked(path, header, keyed):
    """(month, model, values) of each row, or the error of the first row
    that breaks a rule, as outcome gives it."""
    latest = {}
    checked = []
    for line, row in oracle_rows(path):
        try:
            if len(row) != len(header):
                raise ValueError(f"expected {len(header)} fields, got {len(row)}")
            month = MonthKey.parse(row[0])
            model = row[1].strip() if keyed else ""
            if keyed and not model:
                raise ValueError("empty model name")
            values = []
            for name, cell in zip(header[1 + keyed:], row[1 + keyed:]):
                try:
                    value = float(cell)
                except ValueError:
                    raise ValueError(f"{name} {cell!r} is not a number") from None
                if not math.isfinite(value):
                    raise ValueError(f"{name} {cell!r} at {month} is not finite")
                values.append(value)
            if model in latest and month <= latest[model]:
                kind = "duplicate" if month == latest[model] else "non-monotone"
                owner = f" for model {model!r}" if keyed else ""
                raise ValueError(f"{kind} month {month}{owner}")
        except (ValueError, DataError) as exc:
            return "SeriesFormatError", f"line {line}: {path}: {exc}", line
        latest[model] = month
        checked.append((month, model, values))
    return checked


def outcome(read, *args):
    """What a read gives, as comparable values, or its error as (type
    name, message, line)."""
    try:
        return read(*args)
    except DataError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line", None)


def series_values(series):
    return (
        series.name, series.unit, series.months(),
        [v.hex() for v in series.values()],
    )


def forecast_values(forecasts):
    columns = ("nowcasts", "nowcasts_annualized", "realized", "realized_annualized")
    return [
        (fs.model, fs.months.tolist(),
         *([v.hex() for v in getattr(fs, name).tolist()] for name in columns))
        for fs in forecasts
    ]


def oracle_series(path):
    checked = oracle_rows_checked(path, nio.SERIES_HEADER, keyed=False)
    if isinstance(checked, tuple):
        return checked
    if not checked:
        return "DataError", f"{path} contains no series rows", None
    points = {month.ordinal: value for month, _, (value,) in checked}
    return series_values(series_of(points, path.stem))


def oracle_forecasts(path):
    checked = oracle_rows_checked(path, nio.FORECAST_HEADER, keyed=True)
    if isinstance(checked, tuple):
        return checked
    if not checked:
        return "DataError", f"{path} contains no forecast rows", None
    models = {}
    for month, model, values in checked:
        models.setdefault(model, []).append((month.ordinal, *values))
    return forecast_values(
        ForecastSeries(model, *zip(*rows)) for model, rows in models.items()
    )


class TestReadersMatchPerRowParse:
    @SETTINGS
    @given(csv_files(month_rows(keyed=False), QUOTINGS))
    @example(("", "\r\n", csv.QUOTE_ALL, [["2020-01", "1"], ["2020-01", "2"]]))
    @example(("", "\n", csv.QUOTE_MINIMAL, [["2020-01", "1"], ["2020-02", "nan"]]))
    # A spelling of infinity that JUNK_NUMBERS does not draw.
    @example(("", "\n", csv.QUOTE_MINIMAL,
              [["2020-01", "1"], ["2020-02", "-Infinity"]]))
    def test_series_file(self, scratch, spec):
        path = write_csv(scratch / "cpi.csv", nio.SERIES_HEADER, spec)
        got = outcome(lambda: series_values(read_series(path)))
        assert got == outcome(oracle_series, path)

    @SETTINGS
    @given(csv_files(month_rows(keyed=True), QUOTINGS))
    @example(("", "\n", csv.QUOTE_MINIMAL, [
        ["2020-01", "fed", "1", "2", "3", "4"],
        ["2020-01", "news", "1", "2", "3", "4"],
        ["2020-01", " fed", "1", "2", "3", "4"],
    ]))
    @example(("", "\n", csv.QUOTE_MINIMAL, [
        ["2020-01", "fed", "1", "2", "3", "4"],
        ["2020-02", "fed", "1", "-inf", "3", "4"],
    ]))
    def test_forecast_file(self, scratch, spec):
        path = write_csv(scratch / "forecasts.csv", nio.FORECAST_HEADER, spec)
        got = outcome(lambda: forecast_values(read_forecasts(path)))
        assert got == outcome(oracle_forecasts, path)


@pytest.mark.usefixtures("small_blocks")
class TestReadersAcrossBlocks(TestReadersMatchPerRowParse):
    """The same reads in blocks of one line or a few, so that a model's
    months and a file's first error fall in later blocks."""
