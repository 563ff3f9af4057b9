"""The columnar article path against an independent per-row oracle.

The oracle reads a file with csv, parses each row with datetime and
float, and words each rejection the way the readers do, in the same
order of checks per format. On random files, malformed rows included,
and at any block size, the readers must give the same articles bit for
bit, the same rejections, and the same strict-mode error. On drawn
tables, the scorer must match the per-article
`polarity_score`/`argmax_score`, and the monthly means a dict-based
mean. Article files must round-trip exactly, the ArticleTable
constructor must refuse what an article may not hold, and the score and
build-index commands must build no per-article object.
"""

import csv
import io
import math
import re
from collections import Counter
from datetime import date
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from newscast import (
    ArticleTable,
    DataError,
    MonthKey,
    SentimentProbs,
    SentimentScorer,
    SeriesFormatError,
    argmax_score,
    baseline_classify,
    lexicon_filter,
    monthly_aggregate,
    polarity_score,
    read_probability_articles,
    read_scored_articles,
    read_text_articles,
    toy_config_path,
    write_scored_articles,
)
from newscast import io as nio
from newscast.index import NewsIndex
from newscast.nowcast import ForecastSeries
from newscast.timeseries import MonthlySeries
from newscast.cli import main
from newscast.io import write_probability_articles
from newscast.sentiment import (
    DEFAULT_DOWN_LEXICON,
    DEFAULT_LEXICON,
    DEFAULT_UP_LEXICON,
    COLUMN_CHECKS,
    lexicon_mask,
)

from conftest import (
    JUNK_NUMBERS, csv_files, make_articles, oracle_rows, series_of, write_csv,
)

SETTINGS = settings(max_examples=150, deadline=None)
#: Each reader oracle runs at three block sizes, so a third of SETTINGS'
#: examples at each.
READER_SETTINGS = settings(SETTINGS, max_examples=50)

# ------------------------------------------------------------ strategies

ANY_DAY = st.dates(date(1, 1, 1), date(9999, 12, 31))
FEW_MONTHS = st.dates(date(2020, 1, 1), date(2020, 4, 30))
BAD_DATES = (
    "2020-02-30", "0000-01-01", "２０２０-01-05", "٢٠٢٠-01-05", "2020-13-01",
    "2020-1-5", "", "soon",
)


def dates(days=ANY_DAY):
    """Date fields: mostly valid, some padded, some in the basic or week
    ISO forms (which the per-row parse accepts), some malformed."""
    iso = days.map(date.isoformat)
    return st.one_of(
        iso,
        iso,
        iso,
        iso.map(lambda d: f"  {d}\t"),
        iso.map(lambda d: d.replace("-", "")),
        st.sampled_from(["2020-W01-1", *BAD_DATES]),
    )


IDS = st.one_of(
    st.sampled_from(["a1", " padded ", "", "   ", "x,y", 'q"t', "two\nlines"]),
    st.text(max_size=6),
)
TEXTS = st.one_of(
    st.sampled_from(["Inflation rises", "CPI, again", 'a "quote"', "line\nbreak"]),
    st.text(max_size=12),
)
# Word salads from the lexicons, so capped counts and multi-word
# phrases across line breaks occur.
HEADLINES = st.lists(
    st.sampled_from([
        *DEFAULT_UP_LEXICON, *DEFAULT_DOWN_LEXICON, "Inflation", "cpi", "Food",
        "prices", "\n", "the",
    ]),
    max_size=10,
).map(" ".join)


EDGE_FLOATS = st.sampled_from([-0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308])
EDGE_PROBS = st.sampled_from([(5e-324, 0.5, 0.5), (0.0, -0.0, 1.0), (1e-310, 1.0, 0.0)])


@st.composite
def valid_probs(draw):
    """(p_down, p_neutral, p_up) that SentimentProbs accepts, ties included."""
    if draw(st.booleans()):
        return draw(st.sampled_from([
            (0.25, 0.5, 0.25), (0.5, 0.0, 0.5), (0.0, 1.0, 0.0), (0.4, 0.4, 0.2),
            (0.2, 0.3, 0.5), (-0.0, 0.5, 0.5), (1 / 3, 1 / 3, 1 / 3),
        ]))
    down = draw(st.floats(0.0, 1.0))
    up = draw(st.floats(0.0, 1.0 - down))
    return down, 1.0 - down - up, up


def resize(draw, row):
    """Most rows keep their width; some lose or gain fields."""
    change = draw(st.sampled_from([0] * 8 + [-1, 1, -2]))
    if change < 0:
        return row[:change]
    return row + ["extra"] * change


@st.composite
def probability_rows(draw):
    if draw(st.booleans()):
        cells = [repr(p) for p in draw(valid_probs())]
    else:
        number = st.one_of(st.sampled_from(JUNK_NUMBERS), st.floats(0, 1).map(repr))
        cells = [draw(number) for _ in range(3)]
    return resize(draw, [draw(IDS), draw(dates()), *cells])


@st.composite
def text_rows(draw):
    return resize(draw, [draw(IDS), draw(dates()), draw(TEXTS)])


@st.composite
def scored_rows(draw):
    score = st.one_of(
        st.floats(-1.0, 1.0).map(repr),
        st.sampled_from([*JUNK_NUMBERS, "1.5", "-1.0000001", "1", "-1"]),
    )
    return resize(draw, [draw(IDS), draw(dates(FEW_MONTHS)), draw(score)])


# ----------------------------------------------------------------- oracle


def oracle_date(field):
    d = date.fromisoformat(field.strip())
    return d.isoformat(), d.year * 12 + d.month - 1, d.day


def oracle_id(row):
    if not row[0].strip():
        raise ValueError("empty article id")
    return row[0].strip()


def oracle_probability_row(row):
    """date, floats, probability rule, id."""
    when = oracle_date(row[1])
    probs = tuple(float(cell) for cell in row[2:])
    for name, p in zip(("p_down", "p_neutral", "p_up"), probs):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{name}={p} outside [0, 1]")
    total = probs[0] + probs[1] + probs[2]
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"probabilities sum to {total}, not 1 within 1e-06")
    return (oracle_id(row), *when, tuple(p.hex() for p in probs))


def oracle_text_row(row):
    """date, id."""
    when = oracle_date(row[1])
    return (oracle_id(row), *when, row[2])


def oracle_scored_row(row):
    """date, id, float, score range."""
    when = oracle_date(row[1])
    key = oracle_id(row)
    score = float(row[2])
    if not -1.0 <= score <= 1.0:
        raise ValueError(f"score {score} outside [-1, 1]")
    return (key, *when, score.hex())


def oracle_read(path, header, parse, strict):
    """(articles, rejections), or the strict-mode error; a row is first
    checked for its field count."""
    articles, rejections = [], []
    for line, row in oracle_rows(path):
        try:
            if len(row) != len(header):
                raise ValueError(f"expected {len(header)} fields, got {len(row)}")
            articles.append(parse(row))
        except ValueError as exc:
            if strict:
                return ("error", f"line {line}: {path}: {exc}", line)
            rejections.append(nio.Rejection(line, str(exc)))
    return articles, rejections


def table_rows(table, column):
    """The articles of a table as the oracle's tuples; hex keeps floats
    bitwise, and dates are written by date.isoformat, not by numpy."""
    if column == "probs":
        values = [tuple(p.hex() for p in row) for row in table.probs.tolist()]
    elif column == "scores":
        values = [s.hex() for s in table.scores.tolist()]
    else:
        values = table.texts
    dates = [d.isoformat() for d in table.dates.tolist()]
    months, days = table.months_and_days()
    return list(zip(table.ids, dates, months.tolist(), days.tolist(), values))


def outcome(read, path, column, strict):
    """(articles, rejections), or the strict-mode error."""
    try:
        table, rejections = read(path, strict=strict)
    except SeriesFormatError as exc:
        return ("error", str(exc), exc.line)
    present = [n for n in ("texts", "probs", "scores") if getattr(table, n) is not None]
    assert present == [column]
    return table_rows(table, column), rejections


READERS = {
    "probs": (read_probability_articles, oracle_probability_row, nio.PROBS_HEADER),
    "texts": (read_text_articles, oracle_text_row, nio.TEXT_HEADER),
    "scores": (read_scored_articles, oracle_scored_row, nio.SCORED_HEADER),
}


def assert_same_reads(column, path, spec):
    read, parse, header = READERS[column]
    write_csv(path, header, spec)
    for strict in (True, False):
        want = oracle_read(path, header, parse, strict)
        assert outcome(read, path, column, strict) == want


class TestReadersMatchPerRowParse:
    @READER_SETTINGS
    @given(csv_files(st.lists(probability_rows(), max_size=25)))
    def test_probability_file(self, scratch, spec):
        assert_same_reads("probs", scratch / "p.csv", spec)

    @READER_SETTINGS
    @given(csv_files(st.lists(text_rows(), max_size=25)))
    def test_text_file(self, scratch, spec):
        assert_same_reads("texts", scratch / "t.csv", spec)

    @READER_SETTINGS
    @given(csv_files(st.lists(scored_rows(), max_size=25)))
    def test_scored_file(self, scratch, spec):
        assert_same_reads("scores", scratch / "s.csv", spec)

    def test_malformed_rows_named_as_by_the_per_row_parse(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(
            "id,date,p_down,p_neutral,p_up\n"
            "a,2020-02-30,0.2,0.3,0.5\n"
            "b,2020-01-05,nan,0.5,0.5\n"
            "c,2020-01-05,0.2,0.3\n"
            " ,2020-01-05,0.2,0.3,0.5\n"
            "e,2020-01-05,0.9,0.9,0.9\n"
            '"f,1",2020-01-06,1_0,0,0\n'
            "g,20200107,0.2,0.3,0.5\n"
        )
        table, rejections = read_probability_articles(path, strict=False)
        assert (table.ids, table.months_and_days()[1].tolist()) == (["g"], [7])
        assert rejections == [
            nio.Rejection(2, "day is out of range for month"),
            nio.Rejection(3, "p_down=nan outside [0, 1]"),
            nio.Rejection(4, "expected 5 fields, got 4"),
            nio.Rejection(5, "empty article id"),
            nio.Rejection(6, "probabilities sum to 2.7, not 1 within 1e-06"),
            nio.Rejection(7, "p_down=10.0 outside [0, 1]"),
        ]
        with pytest.raises(SeriesFormatError, match="line 2: .*day is out of range"):
            read_probability_articles(path)


@pytest.mark.usefixtures("small_blocks")
class TestReadersAcrossBlocks(TestReadersMatchPerRowParse):
    """The same reads in small blocks, so that block ends fall between
    rows, after quoted fields and CRLF lines, and inside quoted fields."""


BOUNDARY_FILE = (
    b"id,date,p_down,p_neutral,p_up\n"
    b"a,2020-02-30,0.2,0.3,0.5\n"
    b"b,2020-01-05,0.2,0.3,0.5\n"
    b"c,2020-01-05,0.2,0.3,x\n"
    b"d,2020-01-06,0.2,0.3,0.5\n"
    b'"e,1",2020-01-06,0.2,0.3,0.5\n'
    b'"f\n'  # a quoted id over two lines
    b'g",2020-01-07,0.2,0.3,0.5\n'
    b"h,2020-01-08,0.2,0.3\n"
    b"i,2020-01-08,0.2,0.3,0.5\n"
    b" ,2020-01-08,0.2,0.3,0.5\n"
    b"j,2020-01-09,0.2,0.3,0.5\r\n"
    b"k,2020-01-09,0.9,0.9,0.9\r\n"
    b"l,2020-01-10,0.2,0.3,0.5\r\n"
    b"m,2020-01-11,0.2,0.3,0.5"
)


@pytest.mark.parametrize("size", range(1, 80, 3))
def test_rows_on_block_boundaries(tmp_path, size):
    """Plain lines, quoted rows and CRLF lines, malformed rows among them;
    over the block sizes, each row is first and last in some block."""
    path = tmp_path / "p.csv"
    path.write_bytes(BOUNDARY_FILE)
    with mock.patch.object(nio, "_BLOCK_CHARS", size):
        table, rejections = read_probability_articles(path, strict=False)
        assert table.ids == ["b", "d", "e,1", "f\ng", "i", "j", "l", "m"]
        assert rejections == [
            nio.Rejection(2, "day is out of range for month"),
            nio.Rejection(4, "could not convert string to float: 'x'"),
            nio.Rejection(9, "expected 5 fields, got 4"),
            nio.Rejection(11, "empty article id"),
            nio.Rejection(13, "probabilities sum to 2.7, not 1 within 1e-06"),
        ]
        want = oracle_read(path, nio.PROBS_HEADER, oracle_probability_row, False)
        assert outcome(read_probability_articles, path, "probs", False) == want
        with pytest.raises(SeriesFormatError, match="line 2: .*day is out of range"):
            read_probability_articles(path)
        # Mend the rows before line 13 and break the date of line 14: the
        # first rejection is then one that the probability rule finds on
        # the whole column, before a row that fails to convert.
        text = BOUNDARY_FILE
        for bad, mended in (
            (b"30,", b"05,"), (b",x", b",0.5"), (b"0.3\n", b"0.3,0.5\n"),
            (b" ,", b"n,"), (b"01-10", b"13-10"),
        ):
            text = text.replace(bad, mended)
        path.write_bytes(text)
        _, rejections = read_probability_articles(path, strict=False)
        assert [r.line for r in rejections] == [13, 14]
        with pytest.raises(SeriesFormatError, match="line 13: .*sum to 2.7"):
            read_probability_articles(path)


def reference_aggregate(drawn, day_cutoff):
    """Monthly means of the drawn (id, date, score) articles."""
    retained = {}
    for _, day, score in drawn:
        if day_cutoff is None or day.day <= day_cutoff:
            retained.setdefault(day.year * 12 + day.month - 1, []).append(score)
    if not retained:
        raise DataError(f"no articles on or before day {day_cutoff} of any month")
    return [
        (MonthKey.from_ordinal(month), (math.fsum(s) / len(s)).hex(), len(s))
        for month, s in sorted(retained.items())
    ]


class TestScoringMatchesPerArticle:
    """Scoring and aggregation of drawn tables; the reader oracles above
    check the tables that files give."""

    @SETTINGS
    @given(
        st.lists(st.tuples(st.just("a"), ANY_DAY, st.one_of(valid_probs(), EDGE_PROBS)),
                 max_size=25),
        st.sampled_from(["polarity", "argmax"]),
    )
    def test_scorer(self, drawn, score):
        table = drawn_table(drawn, "probs")
        fn = polarity_score if score == "polarity" else argmax_score
        want = [float(fn(SentimentProbs(*probs))).hex() for _, _, probs in drawn]
        scored = SentimentScorer(score).fit_transform(table)
        assert table_rows(scored, "probs") == table_rows(table, "probs")
        assert [s.hex() for s in scored.scores.tolist()] == want

    @SETTINGS
    @given(
        st.lists(
            st.tuples(
                st.just("a"),
                # Ten months over a year's end.
                st.dates(date(2019, 6, 1), date(2020, 3, 31)),
                st.one_of(st.floats(-1.0, 1.0), EDGE_FLOATS),
            ),
            max_size=25,
        ),
        st.one_of(st.none(), st.integers(1, 31)),
    )
    @example(drawn=[("a", date(2020, 1, 31), 0.5)], day_cutoff=31)
    def test_monthly_aggregate(self, drawn, day_cutoff):
        table = drawn_table(drawn, "scores")
        if not len(table):
            with pytest.raises(DataError, match="at least one article"):
                monthly_aggregate(table, day_cutoff=day_cutoff)
            return
        try:
            want = reference_aggregate(drawn, day_cutoff)
        except DataError as exc:
            with pytest.raises(DataError) as err:
                monthly_aggregate(table, day_cutoff=day_cutoff)
            assert str(err.value) == str(exc)
            return
        got = monthly_aggregate(table, day_cutoff=day_cutoff)
        assert [(m.month, m.mean_score.hex(), m.article_count) for m in got] == want

    @SETTINGS
    @given(
        st.lists(st.one_of(TEXTS, HEADLINES), max_size=12),
        st.one_of(st.none(), st.sampled_from([0.5, 0.7, 4.0]), st.floats(1e-3, 1e3)),
        st.one_of(st.none(), st.integers(1, 10)),
    )
    # Ten distinct up words over the default cap of 8, and upper case.
    @example(
        texts=["rose surged soared jumped climbed accelerated spiked higher hot rising",
               "PRICES ROSE"],
        gain=None, cap=None,
    )
    def test_lexicon_and_baseline_batches(self, texts, gain, cap):
        for lexicon in (DEFAULT_LEXICON, ("  Food\n  PRICES ", "cpi", " ")):
            mask = lexicon_mask(texts, lexicon).tolist()
            assert mask == [reference_hits(t, lexicon) > 0 for t in texts]
            assert [lexicon_filter(t, lexicon) for t in texts] == mask
        # None leaves the setting at its default: gain 1, cap 8.
        chosen = {k: v for k, v in (("gain", gain), ("cap", cap)) if v is not None}
        probs = baseline_classify(texts, **chosen)
        want = [reference_baseline(t, gain=gain or 1.0, cap=cap or 8) for t in texts]
        assert [tuple(p.hex() for p in row) for row in probs.tolist()] == want
        # No row depends on the other texts of its batch.
        assert [
            tuple(p.hex() for p in baseline_classify([t], **chosen)[0].tolist())
            for t in texts
        ] == want


def _normalized(text):
    return re.sub(r"\s+", " ", text).strip().lower()


def reference_hits(text, lexicon):
    """Distinct lexicon phrases in the text, one phrase at a time."""
    phrases = {_normalized(p) for p in lexicon} - {""}
    return sum(1 for p in phrases if p in _normalized(text))


def reference_baseline(text, gain, cap):
    up = gain * min(reference_hits(text, DEFAULT_UP_LEXICON), cap)
    down = gain * min(reference_hits(text, DEFAULT_DOWN_LEXICON), cap)
    z = 1.0 + up + down
    return ((down / z).hex(), (1.0 / z).hex(), (up / z).hex())


JAN_1, JAN_2 = date(2020, 1, 1), date(2020, 1, 2)


def date_column(*dates):
    """A datetime64[D] column; None is NaT."""
    return np.array(dates, dtype="datetime64[D]")


def two_articles(dates=(JAN_1, JAN_2), texts=None, probs=None, scores=None):
    """Articles 'a' and 'b', built as a table."""
    return ArticleTable(
        ["a", "b"],
        date_column(*dates),
        texts=texts,
        probs=None if probs is None else np.array(probs),
        scores=None if scores is None else np.array(scores),
    )


class TestArticleTable:
    def test_scorer_refuses_a_table_without_probabilities(self):
        table = two_articles(texts=["x", "y"])
        with pytest.raises(DataError, match="no probabilities to score"):
            SentimentScorer().fit_transform(table)

    def test_writer_refuses_a_table_without_scores(self, tmp_path):
        path = tmp_path / "s.csv"
        with pytest.raises(DataError, match="^the articles have no scores to write$"):
            write_scored_articles(two_articles(probs=[[0.0, 1.0, 0.0]] * 2), path)
        assert not path.exists()

    def test_columns_must_be_equally_long(self, tmp_path):
        with pytest.raises(DataError, match="at article 'b'.* scores 1"):
            write_scored_articles(two_articles(scores=[0.5]), tmp_path / "s.csv")
        with pytest.raises(DataError, match="differ in length: ids 2, dates 3"):
            ArticleTable(["a", "b"], date_column(JAN_1, JAN_1, JAN_1))

    def test_dates_are_datetime64_days_in_years_1_to_9999(self):
        first, last = date(1, 1, 1), date(9999, 12, 31)
        table = two_articles((first, last))
        months, days = table.months_and_days()
        assert months.tolist() == table.months.tolist() == [
            MonthKey(1, 1).ordinal, MonthKey(9999, 12).ordinal
        ]
        assert days.tolist() == [1, 31]
        with pytest.raises(DataError, match="'b': date NaT outside"):
            two_articles((JAN_1, None))
        with pytest.raises(DataError, match="'a': date 10000-01-01 outside"):
            two_articles().replace(dates=date_column(last, last) + [1, 0])
        # Date text such as 2020-01-40 never reaches numpy: a dates
        # column of any other type is refused whole.
        for dates, kind in (
            (["2020-01-01", "2020-01-40"], "list"),
            (np.array(["2020-01-01", "2020-01-02"]), "<U10"),
            (date_column(JAN_1, JAN_2).astype("datetime64[M]"), r"datetime64\[M\]"),
            (date_column(JAN_1, JAN_2).view(np.int64), "int64"),
        ):
            with pytest.raises(
                DataError, match=rf"column dates must be datetime64\[D\], got {kind}"
            ):
                ArticleTable(["a", "b"], dates)

    def test_probability_rows_pass_the_probability_rule(self):
        with pytest.raises(DataError, match="'b': probabilities sum to 2.7"):
            SentimentScorer().fit_transform(
                two_articles(probs=[(0.0, 1.0, 0.0), (0.9, 0.9, 0.9)])
            )
        with pytest.raises(DataError, match=r"'a': p_up=nan outside \[0, 1\]"):
            two_articles(probs=[(0.0, 1.0, math.nan), (0.0, 1.0, 0.0)])

    def test_scores_are_in_minus_1_to_1(self):
        two_articles(scores=[-1.0, 1.0])
        with pytest.raises(DataError, match=r"'b': score 5.0 outside \[-1, 1\]"):
            two_articles(scores=[0.5, 5.0])
        with pytest.raises(DataError, match="'a': score nan"):
            two_articles(scores=[math.nan, 0.0])

    def test_first_article_and_first_check_are_reported(self):
        with pytest.raises(DataError, match="'a': date NaT"):
            two_articles((None, None), scores=[5.0, 5.0])
        with pytest.raises(DataError, match="'a': score 5.0"):
            two_articles((JAN_1, None), scores=[5.0, 0.0])

    def test_replace_checks_what_it_replaces(self):
        table = two_articles(probs=[(0.0, 1.0, 0.0), (0.2, 0.3, 0.5)])
        with pytest.raises(DataError, match="'b': score -2.0"):
            table.replace(scores=np.array([0.0, -2.0]))
        with pytest.raises(DataError, match="at article 'b'"):
            table.replace(scores=np.array([0.0]))
        scored = table.replace(scores=np.array([0.0, 0.3]))
        picked = scored.take(np.array([False, True]))
        assert picked.ids == ["b"] and picked.scores.tolist() == [0.3]
        assert picked.probs.tolist() == [[0.2, 0.3, 0.5]]


# -------------------------------------------------------------- round trip

ROUND_TRIP_IDS = st.one_of(
    st.sampled_from(["a,b", 'say "hi"', "multi\nline", "cr\rinside", "#hash"]),
    st.text(min_size=1),
).filter(lambda s: s and s == s.strip())


def drawn_table(drawn, column):
    """A table of (id, date, value) draws, the values as column."""
    ids, days, values = zip(*drawn) if drawn else ((), (), ())
    return make_articles(ids, map(date.isoformat, days), **{column: list(values)})


def written_dates(path):
    """The date field of each row of an article file."""
    return [row[1] for _, row in oracle_rows(path)]


def mid_month_aggregate(table):
    """monthly_aggregate with day_cutoff=15, or its error."""
    try:
        monthly = monthly_aggregate(table, day_cutoff=15)
    except DataError as exc:
        return str(exc)
    return [(m.month, m.mean_score.hex(), m.article_count) for m in monthly]


class TestRoundTrip:
    @SETTINGS
    @given(st.lists(st.tuples(ROUND_TRIP_IDS, ANY_DAY, valid_probs()), max_size=12))
    def test_probability_articles(self, scratch, drawn):
        articles = drawn_table(drawn, "probs")
        path = scratch / "p.csv"
        write_probability_articles(articles, path)
        assert written_dates(path) == [d.isoformat() for _, d, _ in drawn]
        back, rejections = read_probability_articles(path)
        assert rejections == []
        assert table_rows(back, "probs") == table_rows(articles, "probs")
        before = path.read_bytes()
        write_probability_articles(back, path)
        assert path.read_bytes() == before

    @SETTINGS
    @given(
        st.lists(st.tuples(ROUND_TRIP_IDS, ANY_DAY, st.floats(-1.0, 1.0)), max_size=12)
    )
    def test_scored_articles(self, scratch, drawn):
        articles = drawn_table(drawn, "scores")
        path = scratch / "s.csv"
        write_scored_articles(articles, path)
        assert written_dates(path) == [d.isoformat() for _, d, _ in drawn]
        back, rejections = read_scored_articles(path)
        assert rejections == []
        assert table_rows(back, "scores") == table_rows(articles, "scores")
        assert mid_month_aggregate(back) == mid_month_aggregate(articles)
        before = path.read_bytes()
        write_scored_articles(back, path)
        assert path.read_bytes() == before


WRITER_IDS = st.one_of(
    st.sampled_from(["a,b", 'say "hi"', "multi\nline", "cr\rinside", "crlf\r\n", "é"]),
    st.text(st.sampled_from(list(',"\n\r \tax\u00e9\u20ac')), max_size=5),
)


# Fields csv.writer quotes, or must not: commas, quotes, LF, CR, NUL,
# U+2028 (a line break to str.splitlines, not to csv) and a leading '#'.
FIELDS = st.one_of(
    st.sampled_from([
        "fed", "a,b", 'say "hi"', "multi\nline", "cr\rinside", "crlf\r\n",
        "nul\0", "line\u2028sep", "#lead", "",
    ]),
    st.text(st.sampled_from(list(',"\n\r\0\u2028# ax\u00e9')), max_size=5),
)
BLOCKS = st.sampled_from([1, 2, 3, 16_384])
MONTHS = st.integers(MonthKey(1, 1).ordinal, MonthKey(9999, 12).ordinal)
ANY_FLOAT = st.one_of(st.floats(), EDGE_FLOATS)
FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False), EDGE_FLOATS)


def csv_bytes(header, rows):
    """The rows of str under the header as csv.writer writes them:
    minimal quoting, or every field quoted when a field holds a CR (which
    minimal quoting leaves bare when it is not beside an LF)."""
    buffer = io.StringIO()
    cr = any("\r" in field for row in rows for field in row)
    quoting = csv.QUOTE_ALL if cr else csv.QUOTE_MINIMAL
    writer = csv.writer(buffer, lineterminator="\n", quoting=quoting)
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().encode("utf-8")


def csv_writer_bytes(header, drawn):
    """The (id, date, value or values) draws as csv.writer writes them."""
    rows = []
    for key, day, value in drawn:
        values = value if isinstance(value, tuple) else (value,)
        rows.append([key, day.isoformat(), *map(repr, values)])
    return csv_bytes(header, rows)


def month(ordinal):
    return str(MonthKey.from_ordinal(ordinal))


class TestWriterBytes:
    """The article writers give csv.writer's bytes, for any block size."""

    @example(drawn=[], block=16_384)  # an empty table: the header alone
    @SETTINGS
    @given(
        st.lists(
            st.tuples(WRITER_IDS, ANY_DAY, st.one_of(valid_probs(), EDGE_PROBS)),
            max_size=8,
        ),
        st.sampled_from([1, 2, 3, 16_384]),
    )
    def test_probability_articles(self, scratch, drawn, block):
        path = scratch / "pw.csv"
        with mock.patch.object(nio, "_BLOCK_ROWS", block):
            write_probability_articles(drawn_table(drawn, "probs"), path)
        assert path.read_bytes() == csv_writer_bytes(nio.PROBS_HEADER, drawn)

    @example(drawn=[], block=16_384)  # an empty table: the header alone
    @SETTINGS
    @given(
        st.lists(
            st.tuples(WRITER_IDS, ANY_DAY, st.one_of(st.floats(-1, 1), EDGE_FLOATS)),
            max_size=8,
        ),
        st.sampled_from([1, 2, 3, 16_384]),
    )
    def test_scored_articles(self, scratch, drawn, block):
        path = scratch / "sw.csv"
        with mock.patch.object(nio, "_BLOCK_ROWS", block):
            write_scored_articles(drawn_table(drawn, "scores"), path, comment="# c")
        want = b"# c\n" + csv_writer_bytes(nio.SCORED_HEADER, drawn)
        assert path.read_bytes() == want

    @example(drawn={}, block=16_384)
    @SETTINGS
    @given(st.dictionaries(MONTHS, FINITE, max_size=8), BLOCKS)
    def test_series(self, scratch, drawn, block):
        path = scratch / "series.csv"
        months = sorted(drawn)
        series = series_of(drawn)
        with mock.patch.object(nio, "_BLOCK_ROWS", block):
            nio.write_series(series, path, comment="# c")
        rows = [[month(m), repr(drawn[m])] for m in months]
        assert path.read_bytes() == b"# c\n" + csv_bytes(nio.SERIES_HEADER, rows)

    @example(drawn=[], block=16_384)
    @SETTINGS
    @given(
        st.lists(
            st.tuples(
                FIELDS,
                MONTHS,
                st.lists(st.tuples(*[ANY_FLOAT] * 4), max_size=4),
            ),
            max_size=4,
        ),
        BLOCKS,
    )
    def test_forecasts(self, scratch, drawn, block):
        path = scratch / "forecasts.csv"
        series = [
            ForecastSeries(
                model,
                np.arange(start, start + len(values)),
                *np.array(values, dtype=float).reshape(-1, 4).T,
            )
            for model, start, values in drawn
        ]
        with mock.patch.object(nio, "_BLOCK_ROWS", block):
            nio.write_forecasts(series, path)
        rows = [
            [month(start + i), model, *map(repr, value)]
            for model, start, values in drawn
            for i, value in enumerate(values)
        ]
        assert path.read_bytes() == csv_bytes(nio.FORECAST_HEADER, rows)

    @example(drawn=[], start=0, block=16_384)
    @SETTINGS
    @given(
        st.lists(st.tuples(FINITE, st.integers(0, 10**6)), max_size=8), MONTHS, BLOCKS
    )
    def test_index_metadata(self, scratch, drawn, start, block):
        path = scratch / "meta.csv"
        levels, counts = zip(*drawn) if drawn else ((), ())
        index = NewsIndex(
            MonthlySeries("NEWS", start, levels),
            np.array(counts, dtype=np.int64),
        )
        with mock.patch.object(nio, "_BLOCK_ROWS", block):
            nio.write_index_metadata(index, path)
        rows = [
            [month(start + i), str(count), "0" if count else "1"]
            for i, count in enumerate(counts)
        ]
        assert path.read_bytes() == csv_bytes(nio.INDEX_META_HEADER, rows)

    @example(drawn=[], block=16_384)
    @SETTINGS
    @given(st.lists(st.tuples(st.integers(1, 10**9), FIELDS), max_size=8), BLOCKS)
    def test_rejections(self, scratch, drawn, block):
        path = scratch / "rejected.csv"
        with mock.patch.object(nio, "_BLOCK_ROWS", block):
            nio.write_rejections([nio.Rejection(*r) for r in drawn], path)
        rows = [[str(line), reason] for line, reason in drawn]
        assert path.read_bytes() == csv_bytes(nio.REJECTION_HEADER, rows)

    @example(table=(["a", "b"], []), block=16_384)
    @SETTINGS
    @given(
        st.integers(2, 4).flatmap(lambda width: st.tuples(
            st.lists(
                FIELDS.filter(lambda f: "\r" not in f),
                min_size=width,
                max_size=width,
            ),
            st.lists(st.lists(FIELDS, min_size=width, max_size=width), max_size=6),
        )),
        BLOCKS,
    )
    def test_rows(self, scratch, table, block):
        path = scratch / "rows.csv"
        header, rows = table
        with mock.patch.object(nio, "_BLOCK_ROWS", block):
            nio.write_rows(header, iter(rows), path, comment="# c")
        assert path.read_bytes() == b"# c\n" + csv_bytes(header, rows)

    def test_a_cr_in_the_header_alone_quotes_every_field(self, scratch):
        path = scratch / "cr.csv"
        nio.write_rows(["a\rb", "c"], [["1", "x,y"]], path)
        assert path.read_bytes() == b'"a\rb","c"\n"1","x,y"\n'


ORDINALS = st.integers(0, 9999 * 12 + 11)


class TestMonthArithmetic:
    @given(ORDINALS)
    def test_ordinal_round_trip(self, ordinal):
        assert MonthKey.from_ordinal(ordinal).ordinal == ordinal

    @given(st.integers(MonthKey(1, 1).ordinal, MonthKey(9999, 12).ordinal))
    def test_text_round_trip(self, ordinal):
        # Month text, like an article date, is in years 1..9999.
        month = MonthKey.from_ordinal(ordinal)
        assert MonthKey.parse(str(month)) == month

    @given(ORDINALS, st.integers(-600, 600), st.integers(-600, 600))
    def test_shifts_compose(self, ordinal, a, b):
        month = MonthKey.from_ordinal(ordinal)
        assert month.shift(a).shift(b) == month.shift(a + b)


# ------------------------------------------------------ no per-row objects


def _counting(cls, counts):
    original = cls.__init__

    def init(self, *args, **kwargs):
        counts[cls.__name__] += 1
        original(self, *args, **kwargs)

    return init


def test_score_and_build_index_build_no_article_objects(tmp_path, monkeypatch):
    rng = np.random.default_rng(2024)
    n = 1000
    ids = [f"a{i}" for i in range(n)]
    days = [f"2020-{m:02d}-{d:02d}" for m, d in zip(
        rng.integers(1, 13, n).tolist(), rng.integers(1, 29, n).tolist()
    )]
    down = rng.uniform(0.0, 0.5, n)
    up = rng.uniform(0.0, 0.5, n)
    probs = tmp_path / "probs.csv"
    nio.write_rows(
        nio.PROBS_HEADER,
        zip(ids, days, *(map(repr, c.tolist()) for c in (down, 1.0 - down - up, up))),
        probs,
    )
    phrases = ["Inflation rises", "Gasoline prices fall", "Weather is calm"]
    text = tmp_path / "text.csv"
    nio.write_rows(
        nio.TEXT_HEADER,
        zip(ids, days, (phrases[i] for i in rng.integers(0, 3, n).tolist())),
        text,
    )
    toy = toy_config_path().parent
    levels = ("cpi", "ccpi", "fcpi", "gas")
    common = "".join(f"{k} = {toy / (k + '.csv')}\n" for k in levels)
    common += "train_start = 2015-01\ntrain_end = 2019-12\n"
    common += "eval_start = 2020-01\neval_end = 2023-12\n"
    configs = {}
    for name, path in (("news_probs", probs), ("news_text", text)):
        configs[name] = tmp_path / f"{name}.cfg"
        configs[name].write_text(common + f"{name} = {path}\n")

    counts = Counter()
    for cls in (SentimentProbs, MonthKey):
        monkeypatch.setattr(cls, "__init__", _counting(cls, counts))
    for name, cfg in configs.items():
        out = tmp_path / name
        for command in ("score", "build-index"):
            assert main(["--config", str(cfg), "--out", str(out), command]) == 0
    assert counts["SentimentProbs"] == 0
    # Months of the index and the config, not one per article.
    assert 0 < counts["MonthKey"] < 150


def test_each_column_check_runs_once_per_read(tmp_path, monkeypatch):
    # The reader filters on COLUMN_CHECKS and the table it builds trusts
    # that: one call per check and read, and refused rows still rejected.
    counts = Counter()
    for name, (refused, reason) in COLUMN_CHECKS.items():
        def counted(column, name=name, refused=refused):
            counts[name] += 1
            return refused(column)

        monkeypatch.setitem(COLUMN_CHECKS, name, (counted, reason))
    cases = (
        (read_probability_articles, nio.PROBS_HEADER, "0.2,0.3,0.5", "0.9,0.9,0.9",
         {"dates": 1, "probs": 1}),
        (read_scored_articles, nio.SCORED_HEADER, "0.5", "5.0",
         {"dates": 1, "scores": 1}),
        (read_text_articles, nio.TEXT_HEADER, "calm", "calm", {"dates": 1}),
    )
    path = tmp_path / "articles.csv"
    for read, header, good, bad, calls in cases:
        rows = [",".join(header), f"a,2020-01-02,{good}", f"b,2020-01-03,{bad}"]
        path.write_text("\n".join(rows) + "\n")
        counts.clear()
        table, rejections = read(path, strict=False)
        assert counts == calls
        assert table.ids == (["a"] if rejections else ["a", "b"])
        assert [r.line for r in rejections] == ([3] if good != bad else [])
