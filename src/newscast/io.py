"""File formats: series, article, forecast, and metadata CSVs.

Every file is UTF-8, comma-delimited, with a fixed header row. Files
written by this package start with one comment line (prefixed '#')
carrying the tool version and the config digest; readers skip leading
comment and blank lines, so pipeline outputs feed back in cleanly.
Errors carry 1-based physical line numbers.

Article files are read into an ArticleTable in one pass. A malformed
article row is rejected with its line and one reason, found in a fixed
order of checks per format (see _read_table). Dates are parsed with
date.fromisoformat into one datetime64[D] column; months are ordinals
in memory and YYYY-MM text only in files.
"""

from __future__ import annotations

import csv
import datetime as _dt
import itertools
import math
import os
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TextIO

import numpy as np

from .errors import DataError, NewscastError, SeriesFormatError
from .index import NewsIndex
from .nowcast import ForecastSeries
from .sentiment import COLUMN_CHECKS, ArticleTable, SentimentProbs
from .timeseries import INDEX_LEVEL, MonthKey, MonthlySeries
from .version import __version__

SERIES_HEADER = ["date", "value"]
PROBS_HEADER = ["id", "date", "p_down", "p_neutral", "p_up"]
TEXT_HEADER = ["id", "date", "text"]
SCORED_HEADER = ["id", "date", "score"]
FORECAST_HEADER = [
    "date", "model", "nowcast", "nowcast_annualized",
    "realized", "realized_annualized",
]
NOWCAST_HEADER = FORECAST_HEADER[:4]
INDEX_META_HEADER = ["month", "article_count", "gap"]


def provenance_line(digest: str) -> str:
    return f"# newscast {__version__} config:{digest}"


@dataclass(frozen=True)
class Rejection:
    """One malformed input row: physical line number and the reason."""

    line: int
    reason: str


def _read_rows(path: str | Path, header: Sequence[str]):
    """Yield (line_number, row) for each data row after the header.

    Leading comment ('#') and blank lines are skipped; the first real
    line must be the exact expected header. Lines end only at LF, CR or
    CRLF, so line numbers count the file's physical lines.
    """
    path = Path(path)
    skipped = 0
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            for first in handle:
                if first.strip() and not first.lstrip().startswith("#"):
                    break
                skipped += 1
            else:
                raise SeriesFormatError(
                    f"{path} has no header row", line=skipped or 1
                )
            reader = csv.reader(itertools.chain([first], handle))
            names = next(reader)
            if [c.strip() for c in names] != list(header):
                raise SeriesFormatError(
                    f"{path} header is {names}, expected {list(header)}",
                    line=skipped + 1,
                )
            for row in reader:
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                yield skipped + reader.line_num, row
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except csv.Error as exc:
        raise SeriesFormatError(
            f"{path}: {exc}", line=skipped + reader.line_num
        ) from None


@contextmanager
def _output(path: str | Path, comment: str | None) -> Iterator[TextIO]:
    """The one way output files are written: a text handle, already
    past the comment line, on a temporary sibling of path that replaces
    path when the block ends. Missing directories are made. On failure
    the temporary is removed, and an OSError becomes a DataError naming
    path."""
    path = Path(path)
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(temporary, "w", encoding="utf-8") as handle:
            if comment:
                handle.write(f"{comment}\n")
            yield handle
        os.replace(temporary, path)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc
    finally:
        with suppress(OSError):
            temporary.unlink()


def remove_output(path: str | Path) -> None:
    """Delete an output file left by an earlier run, if there is one."""
    try:
        Path(path).unlink(missing_ok=True)
    except NotADirectoryError:
        pass  # a path below a non-directory names no file
    except OSError as exc:
        raise DataError(f"cannot remove {path}: {exc}") from exc


def write_rows(
    header: Sequence[str],
    rows: Iterable[Sequence[str]],
    path: str | Path,
    comment: str | None = None,
    quote_all: bool = False,
) -> None:
    """CSV rows of strings under a header, after the comment.

    Fields are quoted only where needed, unless quote_all is set:
    minimal quoting leaves a field with a lone CR bare, and a reader
    would end the row there.
    """
    quoting = csv.QUOTE_ALL if quote_all else csv.QUOTE_MINIMAL
    with _output(path, comment) as handle:
        writer = csv.writer(handle, lineterminator="\n", quoting=quoting)
        writer.writerow(header)
        writer.writerows(rows)


def write_table(text: str, path: str | Path, comment: str | None = None) -> None:
    """A rendered report table (plain text or CSV) after the comment."""
    with _output(path, comment) as handle:
        handle.write(text)


# ---------------------------------------------------------------- series


def _month_rows(path: Path, header: Sequence[str], keyed: bool):
    """Yield (month, model, values) for each row of a month-keyed file:
    the month in the first field, then the model name if keyed, then
    the float values. Values must be finite and months strictly
    increasing per model; a row that breaks a rule is rejected with its
    line number."""
    latest: dict[str, MonthKey] = {}
    first = 2 if keyed else 1
    for line_num, row in _read_rows(path, header):
        try:
            if len(row) != len(header):
                raise DataError(f"expected {len(header)} fields, got {len(row)}")
            month = MonthKey.parse(row[0])
            model = row[1].strip() if keyed else ""
            values = [
                _finite(name, cell, month)
                for name, cell in zip(header[first:], row[first:])
            ]
            previous = latest.get(model)
            if previous is not None and month <= previous:
                kind = "duplicate" if month == previous else "non-monotone"
                owner = f" for model {model!r}" if keyed else ""
                raise DataError(f"{kind} month {month}{owner}")
        except NewscastError as exc:
            raise SeriesFormatError(f"{path}: {exc}", line=line_num) from None
        latest[model] = month
        yield month, model, values


def _finite(name: str, cell: str, month: MonthKey) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise DataError(f"{name} {cell!r} is not a number") from None
    if not math.isfinite(value):
        raise DataError(f"{name} {cell!r} at {month} is not finite")
    return value


def read_series(
    path: str | Path,
    name: str | None = None,
    unit: str = INDEX_LEVEL,
) -> MonthlySeries:
    """Load a `date,value` file into a MonthlySeries.

    Month keys must be strictly increasing; duplicates, unparseable
    dates, and non-numeric or non-finite values are rejected with their
    line number. A file without data rows is refused.
    """
    path = Path(path)
    rows = _month_rows(path, SERIES_HEADER, keyed=False)
    pairs = [(month, value) for month, _, (value,) in rows]
    if not pairs:
        raise DataError(f"{path} contains no series rows")
    return MonthlySeries(name or path.stem, pairs, unit)


def write_series(
    series: MonthlySeries, path: str | Path, comment: str | None = None
) -> None:
    rows = ([str(month), repr(value)] for month, value in series.items())
    write_rows(SERIES_HEADER, rows, path, comment)


# --------------------------------------------------------------- articles


#: date.toordinal of 1970-01-01, where datetime64[D] counts from.
_EPOCH_DAY = _dt.date(1970, 1, 1).toordinal()


def _probability_value(row, key: str) -> tuple[float, float, float]:
    value = (float(row[2]), float(row[3]), float(row[4]))
    if not key:
        SentimentProbs(*value)  # a refused row is named for its values
        raise DataError("empty article id")
    return value


def _text_value(row, key: str) -> str:
    if not key:
        raise DataError("empty article id")
    return row[2]


def _score_value(row, key: str) -> float:
    if not key:
        raise DataError("empty article id")
    return float(row[2])


@dataclass(frozen=True)
class _ArticleFormat:
    """How the value fields of an id,date,... file become one
    ArticleTable column."""

    header: Sequence[str]
    column: str
    #: (row, stripped id) -> the row's value. Raises the rejection
    #: reason: a ValueError when a field does not convert, a DataError
    #: for an empty id; the checks run in the order this function makes
    #: them, after the field count and the date.
    value: Callable
    #: list of values -> the column.
    stack: Callable


def _read_table(
    path: str | Path, fmt: _ArticleFormat, strict: bool
) -> tuple[ArticleTable, list[Rejection]]:
    """The articles of a file as columns, in one pass over its rows.

    A row is rejected for its field count, then its date, then for what
    fmt.value raises, then for a value ArticleTable refuses (checked on
    the whole column, with COLUMN_CHECKS). The orders that result:
    probabilities: field count, date, floats, probability rule, id;
    text: field count, date, id; scored: field count, date, id, float,
    score range. Strict mode raises the first rejection, with its line,
    and reads no row after one that fails to convert.
    """
    known: dict[str, int] = {}
    ids: list[str] = []
    dates: list[int] = []
    values: list = []
    lines: list[int] = []
    rejections: list[Rejection] = []
    width = len(fmt.header)
    for line_num, row in _read_rows(path, fmt.header):
        try:
            if len(row) != width:
                raise DataError(f"expected {width} fields, got {len(row)}")
            date = known.get(row[1])
            if date is None:
                parsed = _dt.date.fromisoformat(row[1].strip())
                date = known[row[1]] = parsed.toordinal() - _EPOCH_DAY
            key = row[0].strip()
            value = fmt.value(row, key)
        except (DataError, ValueError) as exc:
            rejections.append(Rejection(line_num, str(exc)))
            if strict:
                break
            continue
        ids.append(key)
        dates.append(date)
        values.append(value)
        lines.append(line_num)
    column = fmt.stack(values)
    if fmt.column in COLUMN_CHECKS:
        refused, reason = COLUMN_CHECKS[fmt.column]
        bad = refused(column)
        if bad.any():
            for i in np.flatnonzero(bad).tolist():
                rejections.append(Rejection(lines[i], reason(column[i].tolist())))
            rejections.sort(key=attrgetter("line"))
            good = (~bad).tolist()
            ids, dates = (list(itertools.compress(c, good)) for c in (ids, dates))
            column = column[~bad]
    if strict and rejections:
        first = rejections[0]
        raise SeriesFormatError(f"{path}: {first.reason}", line=first.line)
    table = ArticleTable(
        ids, np.array(dates, dtype="datetime64[D]"), **{fmt.column: column}
    )
    return table, rejections


_PROBS = _ArticleFormat(
    PROBS_HEADER,
    "probs",
    _probability_value,
    stack=lambda values: np.array(values, dtype=float).reshape(-1, 3),
)
_TEXT = _ArticleFormat(TEXT_HEADER, "texts", _text_value, list)
_SCORED = _ArticleFormat(
    SCORED_HEADER,
    "scores",
    _score_value,
    stack=lambda values: np.array(values, dtype=float),
)


def read_probability_articles(
    path: str | Path, strict: bool = True
) -> tuple[ArticleTable, list[Rejection]]:
    """Load `id,date,p_down,p_neutral,p_up` rows (date YYYY-MM-DD)."""
    return _read_table(path, _PROBS, strict)


def read_text_articles(
    path: str | Path, strict: bool = True
) -> tuple[ArticleTable, list[Rejection]]:
    """Load `id,date,text` rows (date YYYY-MM-DD, text quoted)."""
    return _read_table(path, _TEXT, strict)


def read_scored_articles(
    path: str | Path, strict: bool = True
) -> tuple[ArticleTable, list[Rejection]]:
    """Load `id,date,score` rows written by the score command."""
    return _read_table(path, _SCORED, strict)


def write_probability_articles(
    articles: ArticleTable, path: str | Path, comment: str | None = None
) -> None:
    if articles.probs is None:
        raise DataError("the articles have no probabilities to write")
    _write_articles(articles, PROBS_HEADER, articles.probs.T, path, comment)


def write_scored_articles(
    articles: ArticleTable, path: str | Path, comment: str | None = None
) -> None:
    if articles.scores is None:
        raise DataError("the articles have no scores to write")
    _write_articles(articles, SCORED_HEADER, [articles.scores], path, comment)


def _write_articles(table: ArticleTable, header, columns, path, comment) -> None:
    """Rows of id, date and the float columns, written with repr. Each
    distinct date is formatted once."""
    # numpy finds the distinct values of int64 faster than of datetime64.
    days, at = np.unique(table.dates.view(np.int64), return_inverse=True)
    text = np.datetime_as_string(days.view("datetime64[D]")).astype(object)
    values = (map(repr, column.tolist()) for column in columns)
    write_rows(
        header,
        zip(table.ids, text[at].tolist(), *values),
        path,
        comment,
        quote_all="\r" in "".join(table.ids),
    )


def write_rejections(
    rejections: Sequence[Rejection], path: str | Path, comment: str | None = None
) -> None:
    rows = ([str(r.line), r.reason] for r in rejections)
    write_rows(["line", "reason"], rows, path, comment)


# -------------------------------------------------------------- forecasts


def write_forecasts(
    series_list: Sequence[ForecastSeries],
    path: str | Path,
    comment: str | None = None,
) -> None:
    rows = (
        [str(MonthKey.from_ordinal(month)), series.model, *map(repr, values)]
        for series in series_list
        for month, *values in zip(
            series.months.tolist(),
            series.nowcasts.tolist(),
            series.nowcasts_annualized.tolist(),
            series.realized.tolist(),
            series.realized_annualized.tolist(),
        )
    )
    write_rows(FORECAST_HEADER, rows, path, comment)


def read_forecasts(path: str | Path) -> list[ForecastSeries]:
    """Load a forecast file back into per-model series, in file order.
    Within a model, months must be strictly increasing; every value
    must be finite."""
    collected: dict[str, list[tuple[int, float, float, float, float]]] = {}
    for month, model, values in _month_rows(Path(path), FORECAST_HEADER, keyed=True):
        collected.setdefault(model, []).append((month.ordinal, *values))
    if not collected:
        raise DataError(f"{path} contains no forecast rows")
    # Row fields follow ForecastSeries' fields after model: transpose.
    return [ForecastSeries(model, *zip(*rows)) for model, rows in collected.items()]


# ----------------------------------------------------------- index sidecar


def write_index_metadata(
    index: NewsIndex, path: str | Path, comment: str | None = None
) -> None:
    """Sidecar `month,article_count,gap` rows for a NEWS index."""
    rows = (
        [str(month), str(count), "0" if count else "1"]
        for month, count in zip(index.series.months(), index.counts.tolist())
    )
    write_rows(INDEX_META_HEADER, rows, path, comment)
