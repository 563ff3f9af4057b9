"""File formats: series, article, forecast, and metadata CSVs.

Every file is UTF-8, comma-delimited, with a fixed header row; a leading
byte-order mark is skipped. Files written by this package start with one
comment line (prefixed '#') carrying the tool version and the config
digest; readers skip leading comment and blank lines, so pipeline
outputs feed back in cleanly. Errors carry 1-based physical line numbers.

Every input file is read a block of lines at a time, a column at a time,
by the checks its entry in FORMATS declares. A rejected row is named by
its line and one reason: series and forecast files are refused at the
first, and `score` writes those of article files to
articles_rejected.csv. Article values are checked by
sentiment.COLUMN_CHECKS. Dates become one datetime64[D] column, months
ordinals in memory; _iso writes both, each month (the nowcast's too) as
EPOCH + its ordinal. Every output file is written by write_columns:
floats with repr, a field quoted only when it holds a comma, quote, LF
or CR, and every field when one holds a CR.
"""

from __future__ import annotations

import csv
import datetime as _dt
import io
import itertools
import math
import os
from contextlib import contextmanager, suppress
from dataclasses import dataclass, fields
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .errors import DataError, SeriesFormatError, error_text
from .index import NewsIndex
from .nowcast import ForecastSeries
from .sentiment import COLUMN_CHECKS, ArticleTable
from .timeseries import EPOCH, MonthKey, MonthlySeries, month_ordinal
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


_Articles = tuple[ArticleTable, list[Rejection]]


#: Characters a reader takes at a time (then on to the end of the line),
#: and rows a writer formats at a time: blocks of ~1,000 rows.
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
    """Yield (lines, columns, misfits) per block of data lines: the int64
    line numbers of the rows with len(header) fields, their fields as
    len(header) columns, and (line, field count) of the other rows that
    are not blank. Leading comment ('#') and blank
    lines are skipped; the first real line must be the exact expected
    header. Lines end only at LF, CR or CRLF, so line numbers count
    physical lines; a row has the number of its last line. A block is
    split at its commas where csv.reader would split it so (see
    _plain_lines); otherwise csv.reader reads as many rows as it has
    lines, reading on where a quoted field holds a line end."""
    width = len(header)
    line = 0  # physical lines before the next one read
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
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
            while text := handle.read(_BLOCK_CHARS) + handle.readline():
                if count := _plain_lines(text, width):
                    cells = text.replace("\n", ",").split(",")[:-1]
                    columns = [cells[k::width] for k in range(width)]
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
                            misfits.append((line + reader.line_num, len(row)))
                    line += reader.line_num
                    columns = list(zip(*rows)) or [()] * width
                    yield np.array(ends, dtype=np.int64), columns, misfits
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except csv.Error as exc:
        raise SeriesFormatError(
            f"{path}: {exc}", line=line + reader.line_num
        ) from None


#: date.toordinal of 1970-01-01, where datetime64[D] counts from.
_EPOCH_DAY = _dt.date(1970, 1, 1).toordinal()
#: NaT as an int64: the key of a date or month that does not parse.
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


def _day(text: str) -> int:
    return _dt.date.fromisoformat(text.strip()).toordinal() - _EPOCH_DAY


def _columns(header: Sequence[str], cells: list, known: dict, latest: dict) -> dict:
    """A block's columns: names (ids or model names, stripped), keys
    (days since 1970-01-01 in article files, whose header starts with
    id, else month ordinals; NaT where refused), values (floats, NaN
    where unread, or text) and, in month-keyed files, previous (the
    month of the row's model on its last earlier row, NaT on its first).
    known and latest carry the keys of texts and models to later blocks."""
    dated, keyed = header[0] == "id", "model" in header
    texts = cells[1] if dated else cells[0]
    for text in set(texts).difference(known):
        try:
            known[text] = _day(text) if dated else month_ordinal(text)
        except (ValueError, DataError):
            known[text] = _NAT
    keys = np.fromiter(map(known.__getitem__, texts), np.int64, len(texts))
    names = cells[0] if dated else cells[1] if keyed else [""] * len(texts)
    names = np.array(list(map(str.strip, names)), dtype=object)
    columns, rest = {"names": names, "keys": keys}, cells[1 + (dated or keyed) :]
    if header[-1] == "text":
        columns["values"] = np.array(rest[0], dtype=object)
    else:
        values, unread = zip(*map(_floats, rest))
        columns["unread"] = np.column_stack(unread)
        one = header == SCORED_HEADER  # scores are one column
        columns["values"] = values[0] if one else np.column_stack(values)
    if not dated:
        previous = columns["previous"] = np.empty_like(keys)
        for name, at in _rows_of(names).items():
            previous[at] = [latest.get(name, _NAT), *keys[at[:-1]].tolist()]
            latest[name] = int(keys[at[-1]])
    return columns


def _rows_of(names: np.ndarray) -> dict[str, list[int]]:
    """The rows of each distinct name, in the order names first appear;
    numpy would compare names with "a\\0" as with "a"."""
    rows: dict[str, list[int]] = {}
    for i, name in enumerate(names.tolist()):
        rows.setdefault(name, []).append(i)
    return rows


def _month_checks(header: Sequence[str]) -> list:
    """A month-keyed format's checks: the month, the model name if the
    file has one, each value a number and then finite, column by column,
    and each month later than its model's last."""
    keyed = header[1] == "model"
    first = 1 + keyed  # the cell of the first value

    def month(row):
        return MonthKey.parse(row[0])

    def owner(row):
        return f" for model {row[1].strip()!r}" if keyed else ""

    checks = [
        ("month", lambda c: c["keys"] == _NAT, lambda r: error_text(month, r)),
        ("model", lambda c: c["names"] == "", lambda r: "empty model name"),
    ][:first]
    for at, name in enumerate(header[first:], first):
        checks += [
            ("number", lambda c, at=at: c["unread"][:, at - first],
             lambda r, at=at, n=name: f"{n} {r[at]!r} is not a number"),
            ("finite", lambda c, at=at: ~np.isfinite(c["values"][:, at - first]),
             lambda r, at=at, n=name: f"{n} {r[at]!r} at {month(r)} is not finite"),
        ]
    for kind, refused in (
        ("duplicate month", lambda c: c["keys"] == c["previous"]),
        ("non-monotone month", lambda c: c["keys"] < c["previous"]),
    ):
        checks.append((kind, refused, lambda r, k=kind: f"{k} {month(r)}{owner(r)}"))
    return checks


_DATE = ("date", lambda c: c["keys"] == _NAT, lambda r: error_text(_day, r[1]))
_ID = ("id", lambda c: c["names"] == "", lambda r: "empty article id")
_NUMBER = (
    "number",
    lambda c: c["unread"].any(axis=1),
    lambda r: error_text(list, map(float, r[2:])),
)

#: Each input format: its header and the checks of a row with as many
#: fields, in order: (name, mask of the rows a block's _columns refuse,
#: reason for one from its cells). COLUMN_CHECKS are looked up as they run.
FORMATS = {
    "series": (SERIES_HEADER, _month_checks(SERIES_HEADER)),
    "forecasts": (FORECAST_HEADER, _month_checks(FORECAST_HEADER)),
    "probs": (PROBS_HEADER, [
        _DATE,
        _NUMBER,
        ("probability rule", lambda c: COLUMN_CHECKS["probs"][0](c["values"]),
         lambda r: COLUMN_CHECKS["probs"][1]([*map(float, r[2:])])),
        _ID,
    ]),
    "texts": (TEXT_HEADER, [_DATE, _ID]),
    "scores": (SCORED_HEADER, [
        _DATE,
        _ID,
        _NUMBER,
        ("score range", lambda c: COLUMN_CHECKS["scores"][0](c["values"]),
         lambda r: COLUMN_CHECKS["scores"][1](float(r[2]))),
    ]),
}


def _read(path: str | Path, kind: str, strict: bool = True):
    """The _columns of the rows of a FORMATS[kind] file that pass every
    check, and the Rejection of each other row, by line: for its number
    of fields, or the reason of the first check it fails. Strict mode
    raises the first rejection and reads no block after it."""
    header, checks = FORMATS[kind]
    known, latest, rejections = {}, {}, []
    parts = [_columns(header, [()] * len(header), known, latest)]  # no rows
    for lines, cells, misfits in _read_blocks(path, header):
        rejections += [
            Rejection(at, f"expected {len(header)} fields, got {n}")
            for at, n in misfits
        ]
        columns = _columns(header, cells, known, latest)
        kept = np.ones(len(lines), dtype=bool)
        for _, refused, why in checks:
            for i in np.flatnonzero(kept & refused(columns)).tolist():
                kept[i] = False
                rejections.append(Rejection(int(lines[i]), why([c[i] for c in cells])))
        parts.append({name: column[kept] for name, column in columns.items()})
        if strict and rejections:
            break
    rejections.sort(key=attrgetter("line"))
    if strict and rejections:
        first = rejections[0]
        raise SeriesFormatError(f"{path}: {first.reason}", line=first.line)
    return {k: np.concatenate([p[k] for p in parts]) for k in parts[0]}, rejections


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


def write_columns(
    header: Sequence[str], columns: list, path: str | Path, comment: str | None = None
) -> None:
    """CSV rows of equally long columns under a header, after the
    comment: float64 arrays by repr, other columns as str. Unless the
    header or a str column holds a comma, quote, LF or CR, a row is its
    fields joined by commas, as csv.writer writes two or more; else
    csv.writer quotes where needed, or every field if one holds a CR,
    which minimal quoting leaves bare. Columns are scanned, and rows
    formatted and written, _BLOCK_ROWS at a time."""
    flagged = [(c, getattr(c, "dtype", None) == np.float64) for c in columns]
    blocks = [slice(i, i + _BLOCK_ROWS) for i in range(0, len(columns[0]), _BLOCK_ROWS)]
    texts = (c[b] for b in blocks for c, f in flagged if not f)
    joined = map("".join, itertools.chain([header], texts))
    held = {c for text in joined for c in ',"\n\r' if c in text}
    with _output(path, comment) as handle:
        if held:
            quoting = csv.QUOTE_ALL if "\r" in held else csv.QUOTE_MINIMAL
            write = csv.writer(handle, lineterminator="\n", quoting=quoting).writerows
        else:
            def write(rows):
                print("\n".join(map(",".join, rows)), file=handle)
        write([header])
        for b in blocks:
            write(zip(*[map(repr, c[b].tolist()) if f else c[b] for c, f in flagged]))


def _iso(values: np.ndarray) -> list[str]:
    """ISO text of each datetime64 value, each distinct value formatted once."""
    # numpy finds the distinct values of int64 faster than of datetime64.
    distinct, at = np.unique(values.view(np.int64), return_inverse=True)
    texts = np.datetime_as_string(distinct.view(values.dtype)).astype(object)
    return texts[at].tolist()


def write_rows(
    header: Sequence[str],
    rows: Iterable[Sequence[str]],
    path: str | Path,
    comment: str | None = None,
) -> None:
    """CSV rows of strings, written by write_columns as their columns."""
    columns = list(zip(*rows, strict=True)) or [()] * len(header)
    write_columns(header, columns, path, comment)


def write_table(text: str, path: str | Path, comment: str | None = None) -> None:
    """A rendered report table (plain text or CSV) after the comment."""
    with _output(path, comment) as handle:
        handle.write(text)


# ---------------------------------------------------------------- series


def read_series(path: str | Path, name: str | None = None) -> MonthlySeries:
    """Load a `date,value` file into an index-level MonthlySeries, named
    name or the file's stem. The checks are FORMATS["series"]; a file
    without data rows is refused."""
    path = Path(path)
    columns, _ = _read(path, "series")
    months = columns["keys"]
    if not len(months):
        raise DataError(f"{path} contains no series rows")
    start = int(months[0])
    values = np.full(months[-1] - start + 1, np.nan)
    values[months - start] = columns["values"][:, 0]
    return MonthlySeries(name or path.stem, start, values)


def write_series(
    series: MonthlySeries, path: str | Path, comment: str | None = None
) -> None:
    months = _iso(EPOCH + series.ordinals())
    write_columns(SERIES_HEADER, [months, np.array(series.values())], path, comment)


# --------------------------------------------------------------- articles


def _read_articles(path: str | Path, column: str, strict: bool) -> _Articles:
    """The articles of a FORMATS[column] file, with the values after id
    and date as that column, which _read has checked, and the rejections."""
    columns, rejections = _read(path, column, strict)
    days, values = columns["keys"].view("datetime64[D]"), columns["values"]
    table = ArticleTable(columns["names"].tolist(), days)
    values = values.tolist() if column == "texts" else values
    return table._with({column: values}), rejections


def read_probability_articles(path: str | Path, strict: bool = True) -> _Articles:
    """Load `id,date,p_down,p_neutral,p_up` rows (date YYYY-MM-DD)."""
    return _read_articles(path, "probs", strict)


def read_text_articles(path: str | Path, strict: bool = True) -> _Articles:
    """Load `id,date,text` rows (date YYYY-MM-DD, text quoted)."""
    return _read_articles(path, "texts", strict)


def read_scored_articles(path: str | Path, strict: bool = True) -> _Articles:
    """Load `id,date,score` rows written by the score command."""
    return _read_articles(path, "scores", strict)


def write_probability_articles(
    articles: ArticleTable, path: str | Path, comment: str | None = None
) -> None:
    if articles.probs is None:
        raise DataError("the articles have no probabilities to write")
    columns = [articles.ids, _iso(articles.dates), *articles.probs.T]
    write_columns(PROBS_HEADER, columns, path, comment)


def write_scored_articles(
    articles: ArticleTable, path: str | Path, comment: str | None = None
) -> None:
    if articles.scores is None:
        raise DataError("the articles have no scores to write")
    columns = [articles.ids, _iso(articles.dates), articles.scores]
    write_columns(SCORED_HEADER, columns, path, comment)


def write_rejections(
    rejections: Sequence[Rejection], path: str | Path, comment: str | None = None
) -> None:
    columns = [[str(r.line) for r in rejections], [r.reason for r in rejections]]
    write_columns(REJECTION_HEADER, columns, path, comment)


# -------------------------------------------------------------- forecasts


def write_forecasts(
    series_list: Sequence[ForecastSeries], path: str | Path, comment: str | None = None
) -> None:
    models = [s.model for s in series_list for _ in range(len(s))]
    months, *values = (
        np.concatenate([np.empty(0, t), *(getattr(s, f.name) for s in series_list)])
        for f, t in zip(fields(ForecastSeries)[1:], ForecastSeries.DTYPES)
    )
    columns = [_iso(EPOCH + months), models, *values]
    write_columns(FORECAST_HEADER, columns, path, comment)


def write_nowcasts(
    month: int, models: Sequence[str], values: Sequence[float],
    annualized: Sequence[float], path: str | Path, comment: str | None = None,
) -> None:
    months = _iso(EPOCH + np.full(len(models), month))
    columns = [months, list(models), np.array(values), np.array(annualized)]
    write_columns(NOWCAST_HEADER, columns, path, comment)


def read_forecasts(path: str | Path) -> list[ForecastSeries]:
    """Load a forecast file back into per-model series, in file order.
    The checks are FORMATS["forecasts"]; ForecastSeries then refuses a
    model whose months are not consecutive."""
    columns, _ = _read(path, "forecasts")
    if not len(columns["names"]):
        raise DataError(f"{path} contains no forecast rows")
    return [
        ForecastSeries(model, columns["keys"][at], *columns["values"][at].T)
        for model, at in _rows_of(columns["names"]).items()
    ]


# ----------------------------------------------------------- index sidecar


def write_index_metadata(
    index: NewsIndex, path: str | Path, comment: str | None = None
) -> None:
    """Sidecar `month,article_count,gap` rows for a NEWS index."""
    months = _iso(EPOCH + index.series.ordinals())
    counts = list(map(str, index.counts.tolist()))
    gaps = np.where(index.counts == 0, "1", "0").tolist()
    write_columns(INDEX_META_HEADER, [months, counts, gaps], path, comment)
