"""The columnar article path against the per-row reference.

The reference is the per-row reader (`io._read_articles` with the row
parses `io._probability_article`, `_text_article`, `_scored_article`),
the per-article `polarity_score`/`argmax_score`, and a dict-based
monthly mean. On random files, malformed rows included, the table path
must give the same articles bit for bit, the same rejections, and the
same strict-mode error. Article files must round-trip exactly, and the
score and build-index commands must build no per-article object.
"""

import csv
import io
import math
import re
from collections import Counter
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newscast import (
    Article,
    ArticleTable,
    DataError,
    MonthKey,
    ScoredArticle,
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
from newscast.cli import main
from newscast.io import write_probability_articles
from newscast.sentiment import (
    DEFAULT_DOWN_LEXICON,
    DEFAULT_LEXICON,
    DEFAULT_UP_LEXICON,
    baseline_probabilities,
    lexicon_mask,
)

SETTINGS = settings(max_examples=150, deadline=None)

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
JUNK_NUMBERS = ("nan", "NaN", "inf", "-inf", "1_0", "0_5", "", "x", " 0.5 ", "-0.0")


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
def probability_rows(draw, days=ANY_DAY):
    if draw(st.booleans()):
        cells = [repr(p) for p in draw(valid_probs())]
    else:
        number = st.one_of(st.sampled_from(JUNK_NUMBERS), st.floats(0, 1).map(repr))
        cells = [draw(number) for _ in range(3)]
    return resize(draw, [draw(IDS), draw(dates(days)), *cells])


@st.composite
def text_rows(draw):
    return resize(draw, [draw(IDS), draw(dates()), draw(TEXTS)])


@st.composite
def scored_rows(draw, days=FEW_MONTHS):
    score = st.one_of(
        st.floats(-1.0, 1.0).map(repr),
        st.sampled_from([*JUNK_NUMBERS, "1.5", "-1.0000001", "1", "-1"]),
    )
    return resize(draw, [draw(IDS), draw(dates(days)), draw(score)])


def article_files(rows):
    """(preamble, line end, rows): optional comment and blank lines
    before the header, then CSV rows ending in LF or CRLF."""
    return st.tuples(
        st.sampled_from(["", "# newscast test\n", "\n# c\n\n"]),
        st.sampled_from(["\n", "\r\n"]),
        st.lists(rows, max_size=25),
    )


def write_file(path, header, spec):
    preamble, line_end, rows = spec
    buffer = io.StringIO()
    buffer.write(preamble)
    writer = csv.writer(buffer, lineterminator=line_end)
    writer.writerow(header)
    writer.writerows(rows)
    path.write_text(buffer.getvalue(), encoding="utf-8", newline="")
    return path


# ------------------------------------------------------------- comparison


def fingerprint(article):
    """Every field of an article; hex keeps floats bitwise."""
    probs = article.probs
    score = getattr(article, "score", None)
    return (
        type(article).__name__,
        article.id,
        article.date,
        article.day,
        article.text,
        None if probs is None else tuple(p.hex() for p in probs.as_tuple()),
        None if score is None else score.hex(),
    )


def outcome(read, path, strict):
    """(fingerprints, rejections), or the strict-mode error."""
    try:
        items, rejections = read(path, strict=strict)
    except SeriesFormatError as exc:
        return ("error", str(exc), exc.line)
    return [fingerprint(a) for a in items], rejections


def reference_reader(header, parse):
    return lambda path, strict: nio._read_articles(path, header, parse, strict)


READERS = {
    "probs": (
        read_probability_articles,
        reference_reader(nio.PROBS_HEADER, nio._probability_article),
        nio.PROBS_HEADER,
    ),
    "text": (
        read_text_articles,
        reference_reader(nio.TEXT_HEADER, nio._text_article),
        nio.TEXT_HEADER,
    ),
    "scored": (
        read_scored_articles,
        reference_reader(nio.SCORED_HEADER, nio._scored_article),
        nio.SCORED_HEADER,
    ),
}


def assert_same_reads(kind, path, spec):
    read, reference, header = READERS[kind]
    write_file(path, header, spec)
    for strict in (True, False):
        assert outcome(read, path, strict) == outcome(reference, path, strict)
    table, _ = read(path, strict=False)
    assert table.dates == [f"{a.date}-{a.day:02d}" for a in table]


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("articles")


class TestReadersMatchPerRowParse:
    @SETTINGS
    @given(article_files(probability_rows()))
    def test_probability_file(self, scratch, spec):
        assert_same_reads("probs", scratch / "p.csv", spec)

    @SETTINGS
    @given(article_files(text_rows()))
    def test_text_file(self, scratch, spec):
        assert_same_reads("text", scratch / "t.csv", spec)

    @SETTINGS
    @given(article_files(scored_rows()))
    def test_scored_file(self, scratch, spec):
        assert_same_reads("scored", scratch / "s.csv", spec)

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
        assert [(a.id, a.day) for a in table] == [("g", 7)]
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


def reference_scores(articles, score):
    fn = polarity_score if score == "polarity" else (lambda p: float(argmax_score(p)))
    return [
        fingerprint(ScoredArticle(
            id=a.id, date=a.date, day=a.day, text=a.text, probs=a.probs,
            score=fn(a.probs),
        ))
        for a in articles
    ]


def reference_aggregate(articles, day_cutoff):
    retained = {}
    for a in articles:
        if day_cutoff is None or a.day <= day_cutoff:
            retained.setdefault(a.date, []).append(a.score)
    if not retained:
        raise DataError(f"no articles on or before day {day_cutoff} of any month")
    return [
        (month, (math.fsum(s) / len(s)).hex(), len(s))
        for month, s in sorted(retained.items())
    ]


class TestScoringMatchesPerArticle:
    @SETTINGS
    @given(article_files(probability_rows()), st.sampled_from(["polarity", "argmax"]))
    def test_scorer(self, scratch, spec, score):
        path = write_file(scratch / "p.csv", nio.PROBS_HEADER, spec)
        table, _ = read_probability_articles(path, strict=False)
        articles, _ = nio._read_articles(
            path, nio.PROBS_HEADER, nio._probability_article, strict=False
        )
        want = reference_scores(articles, score)
        scorer = SentimentScorer(score)
        assert [fingerprint(a) for a in scorer.transform(table)] == want
        assert [fingerprint(a) for a in scorer.transform(articles)] == want

    @SETTINGS
    @given(
        article_files(scored_rows(days=st.dates(date(2020, 1, 1), date(2020, 3, 31)))),
        st.one_of(st.none(), st.integers(1, 31)),
    )
    def test_monthly_aggregate(self, scratch, spec, day_cutoff):
        path = write_file(scratch / "s.csv", nio.SCORED_HEADER, spec)
        table, _ = read_scored_articles(path, strict=False)
        if not len(table):
            with pytest.raises(DataError, match="at least one article"):
                monthly_aggregate(table, day_cutoff=day_cutoff)
            return
        try:
            want = reference_aggregate(list(table), day_cutoff)
        except DataError as exc:
            with pytest.raises(DataError) as err:
                monthly_aggregate(table, day_cutoff=day_cutoff)
            assert str(err.value) == str(exc)
            return
        for articles in (table, list(table)):
            got = monthly_aggregate(articles, day_cutoff=day_cutoff)
            assert [
                (m.month, m.mean_score.hex(), m.article_count) for m in got
            ] == want

    @SETTINGS
    @given(st.lists(st.one_of(TEXTS, HEADLINES), max_size=12))
    def test_lexicon_and_baseline_batches(self, texts):
        for lexicon in (DEFAULT_LEXICON, ("  Food\n  PRICES ", "cpi", " ")):
            mask = lexicon_mask(texts, lexicon).tolist()
            assert mask == [reference_hits(t, lexicon) > 0 for t in texts]
            assert [lexicon_filter(t, lexicon) for t in texts] == mask
        probs = baseline_probabilities(texts, gain=0.7, cap=2)
        want = [reference_baseline(t, gain=0.7, cap=2) for t in texts]
        assert [tuple(p.hex() for p in row) for row in probs.tolist()] == want
        assert [
            tuple(p.hex() for p in baseline_classify(t, gain=0.7, cap=2).as_tuple())
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


class TestArticleTable:
    def test_dataclass_form_on_iteration_and_indexing(self):
        jan = MonthKey(2020, 1)
        articles = [
            Article(id="a", date=jan, day=3, probs=SentimentProbs(0.2, 0.3, 0.5)),
            ScoredArticle(id="b", date=jan.shift(1), text="t", score=-0.0),
        ]
        table = ArticleTable.of(articles)
        assert table == articles and list(table) == articles
        assert table[1] == articles[1] and table[-2] == articles[0]
        assert table[1:] == articles[1:]
        assert table.dates == ["2020-01-03", "2020-02"]
        assert math.copysign(1.0, table[1].score) == -1.0
        assert ArticleTable.of(table) is table

    def test_missing_columns_are_named_for_the_first_article(self):
        jan = MonthKey(2020, 1)
        table = ArticleTable.of([
            Article(id="a", date=jan, day=1, probs=SentimentProbs(0, 1, 0)),
            Article(id="b", date=jan),
        ])
        with pytest.raises(DataError, match="'b' has no probabilities to score"):
            SentimentScorer().transform(table)


# -------------------------------------------------------------- round trip

ROUND_TRIP_IDS = st.one_of(
    st.sampled_from(["a,b", 'say "hi"', "multi\nline", "cr\rinside", "#hash"]),
    st.text(min_size=1),
).filter(lambda s: s and s == s.strip())


@st.composite
def dated(draw):
    day = draw(ANY_DAY)
    month = MonthKey(day.year, day.month)
    return dict(id=draw(ROUND_TRIP_IDS), date=month, day=day.day)


class TestRoundTrip:
    @SETTINGS
    @given(st.lists(st.tuples(dated(), valid_probs()), max_size=12))
    def test_probability_articles(self, scratch, drawn):
        articles = [Article(**d, probs=SentimentProbs(*p)) for d, p in drawn]
        path = scratch / "p.csv"
        write_probability_articles(articles, path)
        back, rejections = read_probability_articles(path)
        assert rejections == []
        assert [fingerprint(a) for a in back] == [fingerprint(a) for a in articles]
        before = path.read_bytes()
        write_probability_articles(back, path)
        assert path.read_bytes() == before

    @SETTINGS
    @given(st.lists(st.tuples(dated(), st.floats(-1.0, 1.0)), max_size=12))
    def test_scored_articles(self, scratch, drawn):
        articles = [ScoredArticle(**d, score=s) for d, s in drawn]
        path = scratch / "s.csv"
        write_scored_articles(articles, path)
        back, rejections = read_scored_articles(path)
        assert rejections == []
        assert [fingerprint(a) for a in back] == [fingerprint(a) for a in articles]
        before = path.read_bytes()
        write_scored_articles(back, path)
        assert path.read_bytes() == before


ORDINALS = st.integers(0, 9999 * 12 + 11)


class TestMonthArithmetic:
    @given(ORDINALS)
    def test_ordinal_round_trip(self, ordinal):
        assert MonthKey.from_ordinal(ordinal).ordinal == ordinal

    @given(ORDINALS)
    def test_text_round_trip(self, ordinal):
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
    for cls in (Article, ScoredArticle, SentimentProbs, MonthKey):
        monkeypatch.setattr(cls, "__init__", _counting(cls, counts))
    for name, cfg in configs.items():
        out = tmp_path / name
        for command in ("score", "build-index"):
            assert main(["--config", str(cfg), "--out", str(out), command]) == 0
    assert counts["Article"] == counts["ScoredArticle"] == 0
    assert counts["SentimentProbs"] == 0
    # Months of the index and the config, not one per article.
    assert 0 < counts["MonthKey"] < 150
