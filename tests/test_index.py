"""Monthly aggregation, the cumulative index, and its rate transform."""

import math
from datetime import date

import numpy as np
import pytest

from newscast import (
    ArticleTable,
    ConfigError,
    DataError,
    MonthKey,
    MonthlySentiment,
    OverflowMonthsError,
    ZeroDenominatorError,
    build_news_index,
    monthly_aggregate,
    news_pi,
)

from conftest import make_articles, make_series


def art(id_, month_str, score, day=1):
    return id_, f"{month_str}-{day:02d}", score


def scored(articles):
    """(id, date, score) triples as an ArticleTable."""
    ids, dates, scores = zip(*articles) if articles else ((), (), ())
    return make_articles(ids, dates, scores=list(scores))


def mean(month_str, value, count=1):
    return MonthlySentiment(
        month=MonthKey.parse(month_str), mean_score=value, article_count=count
    )


class TestMonthlyAggregate:
    def test_singleton(self):
        out = monthly_aggregate(scored([art("a", "2020-03", 0.4)]))
        assert len(out) == 1
        assert out[0].month == MonthKey(2020, 3)
        assert out[0].mean_score == 0.4
        assert out[0].article_count == 1

    def test_symmetric_scores_average_to_zero(self):
        out = monthly_aggregate(
            scored([art("a", "2020-01", 0.7), art("b", "2020-01", -0.7)])
        )
        assert out[0].mean_score == 0.0
        assert out[0].article_count == 2

    def test_matches_group_by_oracle(self, rng):
        # 200 articles over 10 months against an independent group-by.
        months = [MonthKey(2019, 1).shift(int(k)) for k in rng.integers(0, 10, 200)]
        scores = rng.uniform(-1, 1, 200)
        articles = [
            art(f"a{i}", str(m), float(s))
            for i, (m, s) in enumerate(zip(months, scores))
        ]
        expected = {}
        for m, (_, _, score) in zip(months, articles):
            expected.setdefault(m, []).append(score)
        out = monthly_aggregate(scored(articles))
        assert [m.month for m in out] == sorted(expected)
        for m in out:
            group = expected[m.month]
            assert m.article_count == len(group)
            assert m.mean_score == math.fsum(group) / len(group)

    def test_order_invariance(self, rng):
        articles = [
            art(f"a{i}", "2020-01", float(s))
            for i, s in enumerate(rng.uniform(-1, 1, 50))
        ]
        forward = monthly_aggregate(scored(articles))
        backward = monthly_aggregate(scored(list(reversed(articles))))
        assert forward[0].mean_score == backward[0].mean_score

    def test_day_cutoff_drops_late_articles(self):
        articles = [
            art("a", "2020-01", 1.0, day=3),
            art("b", "2020-01", -1.0, day=20),
            art("c", "2020-02", 0.5, day=15),
        ]
        out = monthly_aggregate(scored(articles), day_cutoff=15)
        assert [(m.month, m.mean_score) for m in out] == [
            (MonthKey(2020, 1), 1.0),
            (MonthKey(2020, 2), 0.5),
        ]

    def test_day_cutoff_requires_days(self):
        # Every article has a day of month: a table refuses dates of
        # month precision.
        month = np.array([date(2020, 1, 1)], dtype="datetime64[M]")
        with pytest.raises(DataError, match=r"dates must be datetime64\[D\]"):
            ArticleTable(["a"], month)

    def test_day_cutoff_all_filtered(self):
        with pytest.raises(DataError, match="no articles on or before"):
            monthly_aggregate(
                scored([art("a", "2020-01", 0.1, day=20)]), day_cutoff=15
            )

    def test_day_cutoff_validation(self):
        with pytest.raises(ConfigError):
            monthly_aggregate(scored([art("a", "2020-01", 0.1)]), day_cutoff=0)
        with pytest.raises(ConfigError):
            monthly_aggregate(scored([art("a", "2020-01", 0.1)]), day_cutoff=32)

    def test_empty_input(self):
        with pytest.raises(DataError, match="at least one"):
            monthly_aggregate(scored([]))

    def test_table_without_scores_refused(self):
        articles = make_articles(["a"], ["2020-01-01"], texts=["x"])
        with pytest.raises(DataError, match="^the articles have no scores to aggregate"):
            monthly_aggregate(articles)


class TestMonthlySentiment:
    @pytest.mark.parametrize("count", [0, -1])
    def test_count_must_be_positive(self, count):
        with pytest.raises(DataError, match="^article_count must be positive"):
            mean("2020-01", 0.5, count=count)

    @pytest.mark.parametrize("value", [1.5, -1.0000000000000002, float("nan")])
    def test_mean_must_lie_in_minus_one_to_one(self, value):
        with pytest.raises(DataError, match=r"outside \[-1, 1\]$"):
            mean("2020-01", value)
        mean("2020-01", 1.0)
        mean("2020-01", -1.0)


class TestBuildNewsIndex:
    def test_out_of_order_rejected(self):
        with pytest.raises(DataError, match="out of order"):
            build_news_index([mean("2020-02", 0.1), mean("2020-01", 0.1)])
        with pytest.raises(DataError, match="out of order"):
            build_news_index([mean("2020-01", 0.1), mean("2020-01", 0.2)])

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            build_news_index([])

    def test_index_name_and_unit(self):
        index = build_news_index([mean("2020-01", 0.1)])
        assert index.series.name == "NEWS"
        assert index.series.unit == "index-level"


class TestNewsPi:
    def test_each_offending_month_is_named_once(self):
        # Levels 1, -1, 1, 0, 0, 0, 2, 3, 4: 2020-02 and 2020-03 cross
        # zero, and 2020-05..2020-07 divide by a zero level.
        levels = [1.0, -1.0, 1.0, 0.0, 0.0, 0.0, 2.0, 3.0, 4.0]
        s = make_series("2020-01", levels, name="NEWS")
        with pytest.raises(ZeroDenominatorError) as err:
            news_pi(s, window=1)
        assert str(err.value) == (
            "pct-change of the 'NEWS' index is ill-defined: zero denominators "
            "(3), then sign-crossing ratios (2); use level-diff mode or repair "
            "the index: 2020-05..2020-07, 2020-02..2020-03"
        )
        assert err.value.months == tuple(
            MonthKey(2020, m) for m in (5, 6, 7, 2, 3)
        )

    def test_invalid_mode(self):
        with pytest.raises(ConfigError, match="mode"):
            news_pi(build_news_index([mean("2020-01", 0.5)]), mode="diff")

    @pytest.mark.filterwarnings("error")
    def test_overflow_named_in_both_modes(self):
        def news(*values):
            return make_series("2020-01", values, name="NEWS")

        with pytest.raises(OverflowMonthsError) as err:
            news_pi(news(1e-300, 1e300, 1.0), window=1)
        assert err.value.months == (MonthKey(2020, 2),)
        assert str(err.value) == "pct_change of 'NEWS' (window 1) overflows: 2020-02"
        with pytest.raises(OverflowMonthsError) as err:
            news_pi(news(-1e308, 1e308, 1e308), window=1, mode="level-diff")
        assert str(err.value) == (
            "level-diff of the 'NEWS' index (window 1) overflows: 2020-02"
        )

    def test_accepts_bare_series(self):
        s = make_series("2020-01", [1.0, 2.0], name="NEWS")
        out = news_pi(s, window=1)
        assert out[MonthKey(2020, 2)] == pytest.approx(100.0)


class TestNoLookAhead:
    def test_truncation_leaves_prefix_unchanged(self, rng):
        # The index through month t must not change when later
        # articles are deleted.
        articles = []
        for i in range(18):
            m = MonthKey(2019, 1).shift(i)
            for j in range(4):
                articles.append(art(
                    f"{m}-{j}", str(m), float(rng.uniform(-1, 1)),
                    day=int(rng.integers(1, 29)),
                ))
        cut = MonthKey(2019, 12)
        full = build_news_index(monthly_aggregate(scored(articles)))
        truncated = build_news_index(monthly_aggregate(scored(
            [a for a in articles if MonthKey.parse(a[1][:7]) <= cut]
        )))
        for month in truncated.series.months():
            assert truncated.series[month] == full.series[month]
