"""File formats: series, article, forecast, and metadata CSVs.

Every file is UTF-8, comma-delimited, with a fixed header row. Files
written by this package start with one comment line (prefixed '#')
carrying the tool version and the config digest; readers skip leading
comment and blank lines, so pipeline outputs feed back in cleanly.
Errors carry 1-based physical line numbers.

Article files are read into an ArticleTable a block of lines at a
time. A date is any text date.fromisoformat takes after stripping, and
a value any text float() takes. A malformed row is rejected with its
line and one reason, in a fixed order of checks per format (see
_read_table); `score` writes them to articles_rejected.csv as
`line,reason` rows, and refuses to run above 10% rejected. Dates become
one datetime64[D] column, months ordinals in memory and YYYY-MM text in
files. Writers quote a field only when it needs it, and every field of
a file when one holds a CR.
"""

from __future__ import annotations

import csv
import datetime as _dt
import heapq
import io
import itertools
import math
import os
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from operator import attrgetter, itemgetter, not_
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .errors import DataError, NewscastError, SeriesFormatError
from .index import NewsIndex
from .nowcast import ForecastSeries
from .sentiment import COLUMN_CHECKS, ArticleTable, SentimentProbs
from .timeseries import MonthKey, MonthlySeries
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
REJECTION_HEADER = ["line", "reason"]


def provenance_line(digest: str) -> str:
    return f"# newscast {__version__} config:{digest}"


@dataclass(frozen=True)
class Rejection:
    """One malformed input row: physical line number and the reason."""

    line: int
    reason: str


#: Characters a reader takes at a time (then on to the end of the line),
#: and rows an article writer formats at a time: blocks of ~1,000 rows.
_BLOCK_CHARS = 1 << 16
_BLOCK_ROWS = 4096
#: Characters that make csv.reader split a line other than at its commas.
_CSV_ONLY = ('"', "\r", "\0")


def _plain_lines(text: str, width: int) -> int | None:
    """The number of lines in text if csv.reader would split each at its
    commas into width fields: each ends in LF, holds width - 1 commas, no
    quote, CR or NUL, and is no longer than csv's field limit."""
    if not text.endswith("\n") or any(c in text for c in _CSV_ONLY):
        return None
    raw = np.frombuffer(text.encode(), np.uint8)  # one byte for each LF or comma
    ends = np.flatnonzero(raw == 10)
    commas = np.diff(np.searchsorted(np.flatnonzero(raw == 44), ends), prepend=0)
    longest = np.diff(ends, prepend=-1).max()
    plain = (commas == width - 1).all() and longest <= csv.field_size_limit()
    return len(ends) if plain else None


def _read_blocks(path: str | Path, header: Sequence[str]):
    """Yield (lines, columns, misfits) per block of data lines, and an
    empty block last: the int64 line numbers of the rows with len(header)
    fields, their fields as len(header) columns, and (line, row) of the
    other rows that are not blank. Leading comment ('#') and blank lines
    are skipped; the first real line must be the exact expected header.
    Lines end only at LF, CR or CRLF, so line numbers count physical
    lines; a row has the number of its last line. A block is split at
    its commas where csv.reader would split it so (see _plain_lines);
    otherwise csv.reader reads as many rows as it has lines, reading on
    where a quoted field holds a line end."""
    path = Path(path)
    width = len(header)
    line = 0  # physical lines before the next one read
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            for first in handle:
                if first.strip() and not first.lstrip().startswith("#"):
                    break
                line += 1
            else:
                raise SeriesFormatError(f"{path} has no header row", line=line or 1)
            reader = csv.reader(itertools.chain([first], handle))
            names = next(reader)
            if [c.strip() for c in names] != list(header):
                raise SeriesFormatError(
                    f"{path} header is {names}, expected {list(header)}",
                    line=line + 1,
                )
            line += reader.line_num
            while True:
                text = handle.read(_BLOCK_CHARS) + handle.readline()
                if count := _plain_lines(text, width):
                    fields = text.replace("\n", ",").split(",")[:-1]
                    columns = [fields[k::width] for k in range(width)]
                    yield np.arange(line + 1, line + 1 + count), columns, []
                    line += count
                else:
                    block = io.StringIO(text, newline="").readlines()
                    reader = csv.reader(itertools.chain(block, handle))
                    rows, ends, misfits = [], [], []
                    for row in itertools.islice(reader, len(block)):  # may read on
                        if len(row) == width:
                            rows.append(row)
                            ends.append(line + reader.line_num)
                        elif len(row) > 1 or "".join(row).strip():  # not blank
                            misfits.append((line + reader.line_num, row))
                    line += reader.line_num
                    columns = list(zip(*rows)) or [()] * width
                    yield np.array(ends, dtype=np.int64), columns, misfits
                if not text:
                    return
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except csv.Error as exc:
        raise SeriesFormatError(
            f"{path}: {exc}", line=line + reader.line_num
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
) -> None:
    """CSV rows of strings under a header, after the comment.

    Fields are quoted only where needed, unless a field holds a CR:
    minimal quoting leaves a lone CR bare, and a reader would end the
    row there, so then every field of the file is quoted. The rows are
    gathered before the first is written, to make that choice.
    """
    rows = list(rows)
    cr = any("\r" in field for row in rows for field in row)
    quoting = csv.QUOTE_ALL if cr else csv.QUOTE_MINIMAL
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
    the month in the first field, then the non-blank model name if
    keyed, then the float values. Values must be finite and months strictly
    increasing per model; a row that breaks a rule is rejected with its
    line number."""
    latest: dict[str, MonthKey] = {}
    first = 2 if keyed else 1
    for lines, columns, misfits in _read_blocks(path, header):
        rows = zip(lines.tolist(), zip(*columns))
        for line_num, row in heapq.merge(rows, misfits, key=itemgetter(0)):
            try:
                if len(row) != len(header):
                    raise DataError(f"expected {len(header)} fields, got {len(row)}")
                month = MonthKey.parse(row[0])
                model = row[1].strip() if keyed else ""
                if keyed and not model:
                    raise DataError("empty model name")
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


def read_series(path: str | Path, name: str | None = None) -> MonthlySeries:
    """Load a `date,value` file into an index-level MonthlySeries.

    Month keys must be strictly increasing; duplicates, unparseable
    dates, and non-numeric or non-finite values are rejected with their
    line number. A file without data rows is refused.
    """
    path = Path(path)
    rows = _month_rows(path, SERIES_HEADER, keyed=False)
    pairs = [(month, value) for month, _, (value,) in rows]
    if not pairs:
        raise DataError(f"{path} contains no series rows")
    return MonthlySeries(name or path.stem, pairs)


def write_series(
    series: MonthlySeries, path: str | Path, comment: str | None = None
) -> None:
    rows = ([str(month), repr(value)] for month, value in series.items())
    write_rows(SERIES_HEADER, rows, path, comment)


# --------------------------------------------------------------- articles


#: date.toordinal of 1970-01-01, where datetime64[D] counts from.
_EPOCH_DAY = _dt.date(1970, 1, 1).toordinal()
#: NaT as an int64: the day of a date that date.fromisoformat refuses.
_NAT = np.iinfo(np.int64).min


def _floats(cells: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """The cells read with float(), and True where it refuses one (NaN).
    numpy reads a list of str with float(), stopping at a refusal."""
    refused = np.zeros(len(cells), dtype=bool)
    try:
        return np.array(cells, dtype=float), refused
    except ValueError:
        values, rest = [], iter(cells)
        while True:
            try:
                values.extend(map(float, rest))  # keeps the values before a refusal
                return np.array(values), refused
            except ValueError:
                refused[len(values)] = True
                values.append(math.nan)


def _rejection(column: str, width: int, line: int, row: list[str]) -> Rejection:
    """Why a row that failed a check on its block is rejected: the first
    check it fails, in the order of its format (see _read_table)."""
    try:
        if len(row) != width:
            raise DataError(f"expected {width} fields, got {len(row)}")
        _dt.date.fromisoformat(row[1].strip())
        if column == "probs":
            SentimentProbs(*map(float, row[2:]))
        if not row[0].strip():
            raise DataError("empty article id")
        if column == "scores":
            float(row[2])
    except (DataError, ValueError) as exc:
        return Rejection(line, str(exc))
    raise AssertionError(f"line {line} fails a block check but no row check")


def _read_table(
    path: str | Path, header: Sequence[str], column: str, strict: bool
) -> tuple[ArticleTable, list[Rejection]]:
    """The articles of a file, the values after id and date as the named
    column. Each block is checked a column at a time, each distinct date
    text parsed once, and _rejection words the rows that fail; then the
    whole column passes COLUMN_CHECKS, which the table built from it
    does not repeat. The orders of checks that result:
    probabilities: field count, date, floats, probability rule, id;
    text: field count, date, id; scored: field count, date, id, float,
    score range. Strict mode raises the first rejection, with its line,
    and reads no block after one that holds a rejected row."""
    width = len(header)
    known: dict[str, int] = {}  # date text -> day number, or NaT
    parts, failed = [], []
    for lines, cells, misfits in _read_blocks(path, header):
        keys = list(map(str.strip, cells[0]))
        for text in set(cells[1]).difference(known):
            try:
                day = _dt.date.fromisoformat(text.strip()).toordinal() - _EPOCH_DAY
            except ValueError:
                day = _NAT
            known[text] = day
        days = np.fromiter(map(known.__getitem__, cells[1]), np.int64, len(keys))
        rejected = (days == _NAT) | np.fromiter(map(not_, keys), bool, len(keys))
        if column == "texts":
            values = np.array(cells[2], dtype=object)
        else:
            values, unread = zip(*map(_floats, cells[2:]))
            values = np.column_stack(values) if column == "probs" else values[0]
            rejected |= np.logical_or.reduce(unread)
        failed += misfits
        for i in np.flatnonzero(rejected).tolist():
            failed.append((int(lines[i]), [c[i] for c in cells]))
        keep = ~rejected
        ids = np.array(keys, dtype=object)
        parts.append((lines[keep], ids[keep], days[keep], values[keep]))
        if strict and failed:
            break
    rejections = [_rejection(column, width, line, row) for line, row in failed]
    lines, ids, days, values = map(np.concatenate, zip(*parts))
    if column == "texts":
        values = values.tolist()  # texts are a list of str
    if column in COLUMN_CHECKS:
        refused, reason = COLUMN_CHECKS[column]
        bad = refused(values)
        for i in np.flatnonzero(bad).tolist():
            rejections.append(Rejection(int(lines[i]), reason(values[i].tolist())))
        ids, days, values = ids[~bad], days[~bad], values[~bad]
    rejections.sort(key=attrgetter("line"))
    if strict and rejections:
        first = rejections[0]
        raise SeriesFormatError(f"{path}: {first.reason}", line=first.line)
    table = ArticleTable(ids.tolist(), days.view("datetime64[D]"))
    table = table._with({column: values})  # values passed COLUMN_CHECKS above
    return table, rejections


def read_probability_articles(
    path: str | Path, strict: bool = True
) -> tuple[ArticleTable, list[Rejection]]:
    """Load `id,date,p_down,p_neutral,p_up` rows (date YYYY-MM-DD)."""
    return _read_table(path, PROBS_HEADER, "probs", strict)


def read_text_articles(
    path: str | Path, strict: bool = True
) -> tuple[ArticleTable, list[Rejection]]:
    """Load `id,date,text` rows (date YYYY-MM-DD, text quoted)."""
    return _read_table(path, TEXT_HEADER, "texts", strict)


def read_scored_articles(
    path: str | Path, strict: bool = True
) -> tuple[ArticleTable, list[Rejection]]:
    """Load `id,date,score` rows written by the score command."""
    return _read_table(path, SCORED_HEADER, "scores", strict)


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
    """Rows of id, date and the float columns (written with repr), made
    a block at a time, each distinct date formatted once. write_rows
    writes them if an id needs quotes: it holds a comma, quote, LF or CR."""
    # numpy finds the distinct values of int64 faster than of datetime64.
    days, at = np.unique(table.dates.view(np.int64), return_inverse=True)
    dates = np.datetime_as_string(days.view("datetime64[D]")).astype(object)[at]
    ids = table.ids
    blocks = (
        zip(ids[b], dates[b].tolist(), *(map(repr, c[b].tolist()) for c in columns))
        for b in (slice(i, i + _BLOCK_ROWS) for i in range(0, len(ids), _BLOCK_ROWS))
    )
    joined = "".join(ids)
    if any(c in joined for c in ',"\n\r'):
        return write_rows(header, itertools.chain.from_iterable(blocks), path, comment)
    with _output(path, comment) as handle:
        print(",".join(header), file=handle)
        for rows in blocks:
            print("\n".join(map(",".join, rows)), file=handle)


def write_rejections(
    rejections: Sequence[Rejection], path: str | Path, comment: str | None = None
) -> None:
    rows = ([str(r.line), r.reason] for r in rejections)
    write_rows(REJECTION_HEADER, rows, path, comment)


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
    Every row names a model; within a model, months must be strictly
    increasing, then consecutive; every value must be finite."""
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
