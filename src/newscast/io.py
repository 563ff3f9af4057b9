"""File formats: series, article, forecast, and metadata CSVs.

Every file is UTF-8, comma-delimited, with a fixed header row. Files
written by this package start with one comment line (prefixed '#')
carrying the tool version and the config digest; readers skip leading
comment and blank lines, so pipeline outputs feed back in cleanly.
Errors carry 1-based physical line numbers.
"""

from __future__ import annotations

import csv
import datetime as _dt
import io as _io
import os
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TextIO

from .errors import DataError, NewscastError, SeriesFormatError
from .nowcast import ForecastSeries
from .sentiment import Article, LabeledArticle, ScoredArticle, SentimentProbs
from .timeseries import INDEX_LEVEL, MonthKey, MonthlySeries
from .version import __version__

SERIES_HEADER = ["date", "value"]
PROBS_HEADER = ["id", "date", "p_down", "p_neutral", "p_up"]
TEXT_HEADER = ["id", "date", "text"]
LABELED_HEADER = ["id", "date", "label"]
SCORED_HEADER = ["id", "date", "score"]
FORECAST_HEADER = [
    "date", "model", "nowcast", "nowcast_annualized",
    "realized", "realized_annualized",
]
INDEX_META_HEADER = ["month", "article_count", "gap"]

LABEL_ENCODINGS = ("signed", "indexed")
# The indexed file encoding: 0 negative, 1 neutral, 2 positive.
_INDEXED_TO_SIGNED = {0: -1, 1: 0, 2: 1}
_SIGNED_TO_INDEXED = {v: k for k, v in _INDEXED_TO_SIGNED.items()}


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
    line must be the exact expected header.
    """
    path = Path(path)
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    lines = raw.splitlines()
    start = 0
    while start < len(lines) and (
        not lines[start].strip() or lines[start].lstrip().startswith("#")
    ):
        start += 1
    if start == len(lines):
        raise SeriesFormatError(f"{path} has no header row", line=start or 1)
    reader = csv.reader(_io.StringIO("\n".join(lines[start:])))
    first = next(reader)
    if [c.strip() for c in first] != list(header):
        raise SeriesFormatError(
            f"{path} header is {first}, expected {list(header)}",
            line=start + 1,
        )
    for row in reader:
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        yield start + reader.line_num, row


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


def write_rows(
    header: Sequence[str],
    rows: Iterable[Sequence[str]],
    path: str | Path,
    comment: str | None = None,
) -> None:
    """CSV rows of strings under a header, after the comment."""
    with _output(path, comment) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_table(text: str, path: str | Path, comment: str | None = None) -> None:
    """A rendered report table (plain text or CSV) after the comment."""
    with _output(path, comment) as handle:
        handle.write(text)


# ---------------------------------------------------------------- series


def read_series(
    path: str | Path,
    name: str | None = None,
    unit: str = INDEX_LEVEL,
) -> MonthlySeries:
    """Load a `date,value` file into a MonthlySeries.

    Month keys must be strictly increasing; duplicates, unparseable
    dates, and non-numeric values are rejected with their line number.
    """
    path = Path(path)
    pairs: list[tuple[MonthKey, float]] = []
    previous: MonthKey | None = None
    for line_num, row in _read_rows(path, SERIES_HEADER):
        if len(row) != 2:
            raise SeriesFormatError(
                f"{path}: expected 2 fields, got {len(row)}", line=line_num
            )
        try:
            month = MonthKey.parse(row[0].strip())
        except NewscastError as exc:
            raise SeriesFormatError(f"{path}: {exc}", line=line_num) from None
        try:
            value = float(row[1])
        except ValueError:
            raise SeriesFormatError(
                f"{path}: value {row[1]!r} is not a number", line=line_num
            ) from None
        if previous is not None and month <= previous:
            kind = "duplicate" if month == previous else "non-monotone"
            raise SeriesFormatError(
                f"{path}: {kind} month {month}", line=line_num
            )
        previous = month
        pairs.append((month, value))
    return MonthlySeries(name or path.stem, pairs, unit)


def write_series(
    series: MonthlySeries, path: str | Path, comment: str | None = None
) -> None:
    rows = ([str(month), repr(value)] for month, value in series.items())
    write_rows(SERIES_HEADER, rows, path, comment)


# --------------------------------------------------------------- articles


def _parse_full_date(text: str) -> tuple[MonthKey, int]:
    d = _dt.date.fromisoformat(text.strip())
    return MonthKey(d.year, d.month), d.day


def _full_date(article) -> str:
    if article.day is None:
        raise DataError(
            f"article {article.id!r} has no day of month; files need full dates"
        )
    return f"{article.date}-{article.day:02d}"


def _read_articles(
    path: str | Path,
    header: Sequence[str],
    parse: Callable,
    strict: bool,
) -> tuple[list, list[Rejection]]:
    items: list = []
    rejections: list[Rejection] = []
    for line_num, row in _read_rows(Path(path), header):
        try:
            if len(row) != len(header):
                raise DataError(
                    f"expected {len(header)} fields, got {len(row)}"
                )
            items.append(parse(row))
        except (NewscastError, ValueError) as exc:
            if strict:
                raise SeriesFormatError(
                    f"{path}: {exc}", line=line_num
                ) from None
            rejections.append(Rejection(line=line_num, reason=str(exc)))
    return items, rejections


def read_probability_articles(
    path: str | Path, strict: bool = True
) -> tuple[list[Article], list[Rejection]]:
    """Load `id,date,p_down,p_neutral,p_up` rows (date YYYY-MM-DD)."""

    def parse(row) -> Article:
        month, day = _parse_full_date(row[1])
        probs = SentimentProbs(float(row[2]), float(row[3]), float(row[4]))
        if not row[0].strip():
            raise DataError("empty article id")
        return Article(id=row[0].strip(), date=month, day=day, probs=probs)

    return _read_articles(path, PROBS_HEADER, parse, strict)


def read_text_articles(
    path: str | Path, strict: bool = True
) -> tuple[list[Article], list[Rejection]]:
    """Load `id,date,text` rows (date YYYY-MM-DD, text quoted)."""

    def parse(row) -> Article:
        month, day = _parse_full_date(row[1])
        if not row[0].strip():
            raise DataError("empty article id")
        return Article(id=row[0].strip(), date=month, day=day, text=row[2])

    return _read_articles(path, TEXT_HEADER, parse, strict)


def read_labeled_articles(
    path: str | Path, encoding: str = "signed", strict: bool = True
) -> tuple[list[LabeledArticle], list[Rejection]]:
    """Load `id,date,label` rows under the signed or indexed encoding."""
    if encoding not in LABEL_ENCODINGS:
        raise DataError(
            f"label encoding must be one of {LABEL_ENCODINGS}, got {encoding!r}"
        )

    def parse(row) -> LabeledArticle:
        month, day = _parse_full_date(row[1])
        raw = int(row[2])
        if encoding == "indexed":
            if raw not in _INDEXED_TO_SIGNED:
                raise DataError(f"indexed label must be 0, 1, or 2; got {raw}")
            label = _INDEXED_TO_SIGNED[raw]
        else:
            label = raw
        if not row[0].strip():
            raise DataError("empty article id")
        return LabeledArticle(
            id=row[0].strip(), date=month, gold_label=label, day=day
        )

    return _read_articles(path, LABELED_HEADER, parse, strict)


def read_scored_articles(
    path: str | Path, strict: bool = True
) -> tuple[list[ScoredArticle], list[Rejection]]:
    """Load `id,date,score` rows written by the score command."""

    def parse(row) -> ScoredArticle:
        month, day = _parse_full_date(row[1])
        if not row[0].strip():
            raise DataError("empty article id")
        return ScoredArticle(
            id=row[0].strip(), date=month, day=day, score=float(row[2])
        )

    return _read_articles(path, SCORED_HEADER, parse, strict)


def write_probability_articles(
    articles: Sequence[Article], path: str | Path, comment: str | None = None
) -> None:

    def row(a: Article) -> list[str]:
        if a.probs is None:
            raise DataError(f"article {a.id!r} has no probabilities")
        return [
            a.id,
            _full_date(a),
            repr(a.probs.p_down),
            repr(a.probs.p_neutral),
            repr(a.probs.p_up),
        ]

    write_rows(PROBS_HEADER, map(row, articles), path, comment)


def write_scored_articles(
    articles: Sequence[ScoredArticle], path: str | Path, comment: str | None = None
) -> None:
    rows = ([a.id, _full_date(a), repr(a.score)] for a in articles)
    write_rows(SCORED_HEADER, rows, path, comment)


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
        [str(month), series.model, *map(repr, values)]
        for series in series_list
        for month, *values in zip(
            series.months,
            series.nowcasts,
            series.nowcasts_annualized,
            series.realized,
            series.realized_annualized,
        )
    )
    write_rows(FORECAST_HEADER, rows, path, comment)


def read_forecasts(path: str | Path) -> list[ForecastSeries]:
    """Load a forecast file back into per-model series, in file order."""
    collected: dict[str, list[tuple[MonthKey, float, float, float, float]]] = {}
    for line_num, row in _read_rows(Path(path), FORECAST_HEADER):
        if len(row) != len(FORECAST_HEADER):
            raise SeriesFormatError(
                f"{path}: expected {len(FORECAST_HEADER)} fields, got {len(row)}",
                line=line_num,
            )
        try:
            month = MonthKey.parse(row[0].strip())
            values = tuple(float(cell) for cell in row[2:])
        except (NewscastError, ValueError) as exc:
            raise SeriesFormatError(f"{path}: {exc}", line=line_num) from None
        collected.setdefault(row[1].strip(), []).append((month, *values))
    if not collected:
        raise DataError(f"{path} contains no forecast rows")
    # Row fields follow ForecastSeries' fields after model: transpose.
    return [
        ForecastSeries(model, *map(tuple, zip(*rows)))
        for model, rows in collected.items()
    ]


# ----------------------------------------------------------- index sidecar


def write_index_metadata(
    counts, gap_months, path: str | Path, comment: str | None = None
) -> None:
    """Sidecar `month,article_count,gap` rows for a NEWS index."""
    gaps = set(gap_months)
    rows = (
        [str(month), str(counts[month]), "1" if month in gaps else "0"]
        for month in sorted(counts)
    )
    write_rows(INDEX_META_HEADER, rows, path, comment)
