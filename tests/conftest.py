import csv
import io
import os
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from newscast import ArticleTable, MonthKey, MonthlySeries
from newscast import io as nio

# Every run draws the same examples and keeps no example database, so a
# failure reproduces from the commit alone. Tests keep their own
# max_examples and deadline.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
# Hypothesis still caches its Unicode tables and the literals of the
# tested modules (under the hash of their source) in its home directory.
# A fixed per-user directory outside the checkout keeps the checkout
# clean and the caches warm from one run to the next; neither cache
# changes what is drawn.
set_hypothesis_home_dir(
    Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache")
    / "newscast-hypothesis"
)


@pytest.fixture
def rng():
    return np.random.default_rng(987654321)


def make_series(start: str, values, name="s", unit="index-level") -> MonthlySeries:
    """Contiguous series beginning at start (YYYY-MM)."""
    return MonthlySeries(name, MonthKey.parse(start).ordinal, values, unit)


def series_of(points, name="s", unit="index-level") -> MonthlySeries:
    """The series of an ordinal -> value dict, absent at the months
    between its keys that it lacks."""
    start = min(points, default=0)
    values = np.full(max(points, default=start - 1) - start + 1, np.nan)
    values[np.array(list(points), dtype=int) - start] = list(points.values())
    return MonthlySeries(name, start, values, unit)


def edit_series(series: MonthlySeries, changes) -> MonthlySeries:
    """The series with each month of changes set to its value; NaN makes
    the month absent."""
    points = {month.ordinal: v for month, v in (*series.items(), *changes.items())}
    return series_of(points, series.name, series.unit)


@pytest.fixture
def series_factory():
    return make_series


def make_articles(ids, dates, texts=None, probs=None, scores=None) -> ArticleTable:
    """An ArticleTable of the articles with these ids and YYYY-MM-DD
    dates, plus the given columns as lists. The dates are parsed by
    date.fromisoformat, as the readers do; numpy would also read text
    such as "today"."""
    return ArticleTable(
        list(ids),
        np.array([date.fromisoformat(d) for d in dates], dtype="datetime64[D]"),
        texts=None if texts is None else list(texts),
        probs=None if probs is None else np.array(probs, dtype=float).reshape(-1, 3),
        scores=None if scores is None else np.array(scores, dtype=float),
    )


@pytest.fixture(scope="class", params=[1, 50])
def small_blocks(request):
    """Readers that read a block of 1 or 50 characters at a time, then on
    to the end of the line: blocks of one line, or of one to three."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nio, "_BLOCK_CHARS", request.param)
        yield request.param


def csv_files(rows, quoting=st.just(csv.QUOTE_MINIMAL)):
    """(preamble, line end, quoting, rows) of a drawn file: optional
    comment and blank lines before the header, then rows ending in LF or
    CRLF."""
    return st.tuples(
        st.sampled_from(["", "# newscast test\n", "\n# c\n\n"]),
        st.sampled_from(["\n", "\r\n"]),
        quoting,
        rows,
    )


def write_csv(path, header, spec):
    """A csv_files draw under the header, as csv.writer writes it; a row
    that is a str is a line of its own (a blank line, say)."""
    preamble, line_end, quoting, rows = spec
    buffer = io.StringIO()
    buffer.write(preamble)
    writer = csv.writer(buffer, lineterminator=line_end, quoting=quoting)
    writer.writerow(header)
    for row in rows:
        if isinstance(row, str):
            buffer.write(row + line_end)
        else:
            writer.writerow(row)
    path.write_text(buffer.getvalue(), encoding="utf-8", newline="")
    return path


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    """A directory the tests of one module share."""
    return tmp_path_factory.mktemp("scratch")


# What float() accepts and refuses, non-ASCII digits, padding, underflow
# and overflow included; the readers must agree with it on each.
JUNK_NUMBERS = (
    "nan", "NaN", "inf", "-inf", "1_0", "0_5", "", "x", " 0.5 ", "-0.0",
    "\u0660.\u0665", "\uff11", "1e-400", "1e400", "4.9e-324", "\t0.5\n",
)


def oracle_rows(path):
    """(physical line, row) of each data row, as csv reads them: leading
    comment and blank lines skipped, then the header, then every
    non-blank row. The per-row oracles of the reader tests start here."""
    with open(path, newline="", encoding="utf-8") as handle:
        lines = list(handle)
    skipped = next(
        i for i, line in enumerate(lines)
        if line.strip() and not line.lstrip().startswith("#")
    )
    reader = csv.reader(lines[skipped:])
    next(reader)
    for row in reader:
        if row and not (len(row) == 1 and not row[0].strip()):
            yield skipped + reader.line_num, row
