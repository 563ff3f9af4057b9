"""Monthly aggregation, the cumulative index, and its rate transform."""

import itertools
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
    MonthlySeries,
    OverflowMonthsError,
    ZeroDenominatorError,
    build_news_index,
    monthly_aggregate,
    news_pi,
)

from conftest import make_articles


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


class TestBuildNewsIndex:
    def test_prefix_sum_matches_accumulate(self, rng):
        values = [float(v) for v in rng.uniform(-1, 1, 36)]
        monthly = [
            mean(str(MonthKey(2018, 1).shift(i)), v) for i, v in enumerate(values)
        ]
        index = build_news_index(monthly)
        expected = list(itertools.accumulate(values))
        assert list(index.series.values()) == expected
        assert index.gap_months == ()

    def test_first_level_equals_first_mean(self):
        index = build_news_index([mean("2020-01", 0.25)])
        assert index.series[MonthKey(2020, 1)] == 0.25

    def test_differences_recover_means_on_dyadic_grid(self):
        # Dyadic means make every prefix sum exact, so first differences
        # reproduce the inputs bit for bit.
        values = [0.5, -0.25, 0.125, 0.375, -0.5, 0.0625]
        monthly = [
            mean(str(MonthKey(2020, 1).shift(i)), v) for i, v in enumerate(values)
        ]
        series = build_news_index(monthly).series
        months = series.months()
        diffs = [
            series[m] - series[months[i]] for i, m in enumerate(months[1:])
        ]
        assert diffs == values[1:]

    def test_gap_months_carry_forward(self):
        index = build_news_index(
            [mean("2020-01", 0.5), mean("2020-04", 0.25, count=3)]
        )
        s = index.series
        assert s.months() == (
            MonthKey(2020, 1), MonthKey(2020, 2),
            MonthKey(2020, 3), MonthKey(2020, 4),
        )
        assert s[MonthKey(2020, 2)] == 0.5
        assert s[MonthKey(2020, 3)] == 0.5
        assert s[MonthKey(2020, 4)] == 0.75
        assert index.gap_months == (MonthKey(2020, 2), MonthKey(2020, 3))
        assert index.counts.tolist() == [1, 0, 0, 3]

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
    def _index(self, values, start="2020-01"):
        monthly = [
            mean(str(MonthKey.parse(start).shift(i)), v)
            for i, v in enumerate(values)
        ]
        return build_news_index(monthly)

    def test_pct_change_happy_path(self):
        # Levels 0.5, 1.0 -> 100 * (1.0/0.5 - 1) = 100.
        index = self._index([0.5, 0.5])
        out = news_pi(index, window=1)
        assert out.name == "pi-NEWS"
        assert out.unit == "percent"
        assert out[MonthKey(2020, 2)] == pytest.approx(100.0)

    def test_pct_change_window_12(self):
        index = self._index([1.0] + [0.0] * 11 + [1.0])
        out = news_pi(index, window=12)
        assert out[MonthKey(2021, 1)] == pytest.approx(100.0)

    def test_zero_denominator_collects_months(self):
        # Levels: 0.5, 0.0 (zero), -0.5 (crossing vs 0.5 later).
        index = self._index([0.5, -0.5, -0.5])
        with pytest.raises(ZeroDenominatorError) as err:
            news_pi(index, window=1)
        # 2020-02 has base 0.5 and value 0.0 -> fine mathematically;
        # 2020-03 has base 0.0 -> zero denominator.
        assert MonthKey(2020, 3) in err.value.months

    def test_sign_crossing_collected(self):
        index = self._index([0.5, -1.0])  # levels 0.5 then -0.5
        with pytest.raises(ZeroDenominatorError) as err:
            news_pi(index, window=1)
        assert err.value.months == (MonthKey(2020, 2),)
        assert "level-diff" in str(err.value)

    def test_level_diff_mode_never_raises(self):
        index = self._index([0.5, -1.0, 0.5])  # levels 0.5, -0.5, 0.0
        out = news_pi(index, window=1, mode="level-diff")
        assert out[MonthKey(2020, 2)] == pytest.approx(-1.0)
        assert out[MonthKey(2020, 3)] == pytest.approx(0.5)
        assert out.unit == "percent"

    def test_level_diff_telescoping_on_dyadic_grid(self):
        # Level differences over the full span equal the sum of the
        # intermediate monthly means, exactly on a dyadic grid.
        values = [0.5, -0.25, 0.125, 0.375]
        index = self._index(values)
        out = news_pi(index, window=3, mode="level-diff")
        assert out[MonthKey(2020, 4)] == values[1] + values[2] + values[3]

    def test_level_diff_window_one_recovers_means(self):
        values = [0.5, -0.25, 0.125]
        out = news_pi(self._index(values), window=1, mode="level-diff")
        assert list(out.values()) == values[1:]

    def test_invalid_mode(self):
        with pytest.raises(ConfigError, match="mode"):
            news_pi(self._index([0.5, 0.5]), window=1, mode="diff")

    @pytest.mark.filterwarnings("error")
    def test_overflow_named_in_both_modes(self):
        start = MonthKey(2020, 1)

        def news(*values):
            return MonthlySeries(
                "NEWS", [(start.shift(i), v) for i, v in enumerate(values)]
            )

        with pytest.raises(OverflowMonthsError) as err:
            news_pi(news(1e-300, 1e300, 1.0), window=1)
        assert err.value.months == (MonthKey(2020, 2),)
        assert str(err.value) == "pct_change of 'NEWS' (window 1) overflows: 2020-02"
        with pytest.raises(OverflowMonthsError) as err:
            news_pi(news(-1e308, 1e308, 1e308), window=1, mode="level-diff")
        assert str(err.value) == (
            "level-diff of the 'NEWS' index (window 1) overflows: 2020-02"
        )

    def test_sign_crossing_of_tiny_levels_collected(self):
        # The product of the two levels underflows to -0.0; their signs
        # still differ.
        s = MonthlySeries(
            "NEWS", [(MonthKey(2020, 1), 1e-200), (MonthKey(2020, 2), -1e-200)]
        )
        with pytest.raises(ZeroDenominatorError, match="sign-crossing") as err:
            news_pi(s, window=1)
        assert err.value.months == (MonthKey(2020, 2),)

    def test_accepts_bare_series(self):
        s = MonthlySeries(
            "NEWS", [(MonthKey(2020, 1), 1.0), (MonthKey(2020, 2), 2.0)]
        )
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
