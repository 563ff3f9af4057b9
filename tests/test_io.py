"""File formats: series, article variants, forecasts, rejections."""

from datetime import date

import numpy as np
import pytest

from newscast import (
    ArticleTable,
    DataError,
    ForecastSeries,
    MonthKey,
    MonthlySentiment,
    SeriesFormatError,
    annualize,
    build_news_index,
    read_forecasts,
    read_probability_articles,
    read_scored_articles,
    read_series,
    read_text_articles,
    write_forecasts,
    write_scored_articles,
    write_series,
)
from newscast.io import (
    Rejection,
    provenance_line,
    write_index_metadata,
    write_probability_articles,
    write_rejections,
)

from conftest import make_articles


class TestSeriesFiles:
    def test_roundtrip(self, tmp_path, series_factory):
        s = series_factory("2020-01", [230.123, 231.0, 229.5], unit="index-level")
        path = tmp_path / "cpi.csv"
        write_series(s, path)
        back = read_series(path, name=s.name)
        assert back.months() == s.months()
        assert back.values() == s.values()

    def test_full_precision_roundtrip(self, tmp_path, series_factory):
        # repr writing preserves doubles bit for bit.
        values = [1 / 3, 0.1 + 0.2, 2**-40, 123456.789012345678]
        s = series_factory("2020-01", values)
        path = tmp_path / "s.csv"
        write_series(s, path)
        assert read_series(path).values() == tuple(values)

    def test_name_defaults_to_file_stem(self, tmp_path, series_factory):
        path = tmp_path / "gas.csv"
        write_series(series_factory("2020-01", [1.0]), path)
        assert read_series(path).name == "gas"

    def test_comment_header_skipped(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(
            "# newscast 0.1.0 config:abcdef123456\n\ndate,value\n2020-01,1.5\n"
        )
        s = read_series(path)
        assert s[MonthKey(2020, 1)] == 1.5

    def test_wrong_header_reports_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("# comment\nmonth,value\n2020-01,1\n")
        with pytest.raises(SeriesFormatError) as err:
            read_series(path)
        assert err.value.line == 2
        assert "date" in str(err.value)

    def test_bad_month_reports_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("date,value\n2020-01,1\n2020-1,2\n")
        with pytest.raises(SeriesFormatError) as err:
            read_series(path)
        assert err.value.line == 3

    def test_bad_value_reports_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("date,value\n2020-01,abc\n")
        with pytest.raises(SeriesFormatError) as err:
            read_series(path)
        assert err.value.line == 2
        assert "not a number" in str(err.value)

    def test_duplicate_and_non_monotone(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("date,value\n2020-01,1\n2020-01,2\n")
        with pytest.raises(SeriesFormatError, match="duplicate"):
            read_series(path)
        path.write_text("date,value\n2020-02,1\n2020-01,2\n")
        with pytest.raises(SeriesFormatError, match="non-monotone"):
            read_series(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_value_names_line_and_month(self, tmp_path, value):
        path = tmp_path / "s.csv"
        path.write_text(f"date,value\n2020-01,1\n2020-02,{value}\n")
        with pytest.raises(SeriesFormatError) as err:
            read_series(path)
        assert err.value.line == 3
        assert f"{path}: value {value!r} at 2020-02 is not finite" in str(err.value)

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("date,value\n2020-01,1,9\n")
        with pytest.raises(SeriesFormatError, match="2 fields"):
            read_series(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            read_series(tmp_path / "absent.csv")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("")
        with pytest.raises(SeriesFormatError, match="no header"):
            read_series(path)

    def test_header_only_series_is_refused(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("# c\ndate,value\n\n")
        with pytest.raises(DataError, match=f"{path} contains no series rows"):
            read_series(path)


class TestProbabilityArticles:
    def test_roundtrip(self, tmp_path):
        articles = make_articles(
            ["a1"], ["2020-01-05"], probs=[(0.25, 0.5, 0.25)], scores=[0.0]
        )
        path = tmp_path / "probs.csv"
        write_probability_articles(articles, path)
        back, rejections = read_probability_articles(path)
        assert rejections == []
        assert back.ids[0] == "a1"
        months, days = back.months_and_days()
        assert (MonthKey.from_ordinal(int(months[0])), days[0]) == (
            MonthKey(2020, 1), 5
        )
        assert tuple(back.probs[0]) == (0.25, 0.5, 0.25)

    def test_strict_mode_raises_with_line(self, tmp_path):
        path = tmp_path / "probs.csv"
        path.write_text(
            "id,date,p_down,p_neutral,p_up\n"
            "a1,2020-01-05,0.2,0.3,0.5\n"
            "a2,2020-01-06,0.9,0.9,0.9\n"
        )
        with pytest.raises(SeriesFormatError) as err:
            read_probability_articles(path)
        assert err.value.line == 3

    def test_lenient_mode_collects_rejections(self, tmp_path):
        path = tmp_path / "probs.csv"
        path.write_text(
            "id,date,p_down,p_neutral,p_up\n"
            "a1,2020-01-05,0.2,0.3,0.5\n"
            "a2,2020-01-06,0.9,0.9,0.9\n"     # bad sum
            "a3,2020-13-01,0.2,0.3,0.5\n"     # bad date
            ",2020-01-07,0.2,0.3,0.5\n"       # empty id
            "a5,2020-01-08,0.2,0.3\n"         # missing field
            "a6,2020-01-09,0.1,0.1,0.8\n"
        )
        articles, rejections = read_probability_articles(path, strict=False)
        assert articles.ids == ["a1", "a6"]
        assert [r.line for r in rejections] == [3, 4, 5, 6]

    def test_day_is_parsed_from_full_date(self, tmp_path):
        path = tmp_path / "probs.csv"
        path.write_text("id,date,p_down,p_neutral,p_up\na,2021-12-31,0,1,0\n")
        articles, _ = read_probability_articles(path)
        months, days = articles.months_and_days()
        assert (MonthKey.from_ordinal(int(months[0])), days[0]) == (
            MonthKey(2021, 12), 31
        )


class TestTextArticles:
    def test_quoted_text_with_commas(self, tmp_path):
        path = tmp_path / "text.csv"
        path.write_text(
            'id,date,text\nt1,2020-03-04,"Inflation, again, surprises"\n'
        )
        articles, rejections = read_text_articles(path)
        assert rejections == []
        assert articles.texts[0] == "Inflation, again, surprises"

    def test_bad_date_collected_in_lenient_mode(self, tmp_path):
        path = tmp_path / "text.csv"
        path.write_text("id,date,text\nt1,2020-02-30,oops\n")
        articles, rejections = read_text_articles(path, strict=False)
        assert len(articles) == 0
        assert len(rejections) == 1
        assert rejections[0].line == 2


class TestPhysicalLines:
    def test_unicode_line_breaks_stay_inside_unquoted_fields(self, tmp_path):
        # str.splitlines() would end lines at U+2028, U+0085, \x0c, \x1c.
        path = tmp_path / "text.csv"
        path.write_text(
            "id,date,text\n"
            "t1,2020-03-04,Inflation rises\u2028 sharply\n"
            "t2,2020-03-05,a\x85b\x0cc\x1cd\x0be\n"
            "t3,2020-13-01,bad month\n",
            encoding="utf-8",
        )
        articles, rejections = read_text_articles(path, strict=False)
        assert articles.texts == [
            "Inflation rises\u2028 sharply", "a\x85b\x0cc\x1cd\x0be"
        ]
        assert [r.line for r in rejections] == [4]

    def test_crlf_and_quoted_newlines_count_physical_lines(self, tmp_path):
        path = tmp_path / "text.csv"
        path.write_bytes(
            b"# comment\r\n\r\nid,date,text\r\n"
            b't1,2020-03-04,"two\r\nlines"\r\n'
            b"\r\n"
            b"t2,2020-02-30,bad day\r\n"
        )
        articles, rejections = read_text_articles(path, strict=False)
        assert articles.texts == ["two\r\nlines"]
        assert [r.line for r in rejections] == [7]

    def test_oversized_field_is_format_error_with_line(self, tmp_path):
        path = tmp_path / "text.csv"
        path.write_text(f"id,date,text\nt1,2020-03-04,{'x' * 200_000}\n")
        with pytest.raises(SeriesFormatError, match="field larger") as err:
            read_text_articles(path, strict=False)
        assert err.value.line == 2

    def test_undecodable_file_is_data_error(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_bytes(b"date,value\n2020-01,1.0\xff\n")
        with pytest.raises(DataError, match="cannot read"):
            read_series(path)


class TestScoredArticles:
    def test_roundtrip_preserves_scores(self, tmp_path, rng):
        articles = make_articles(
            [f"a{i}" for i in range(10)],
            [f"2020-{1 + i % 3:02d}-{1 + i:02d}" for i in range(10)],
            scores=rng.uniform(-1, 1, 10),
        )
        path = tmp_path / "scored.csv"
        write_scored_articles(articles, path, comment=provenance_line("0" * 12))
        back, rejections = read_scored_articles(path)
        assert rejections == []
        assert back.scores.tolist() == articles.scores.tolist()
        assert back.dates.tolist() == articles.dates.tolist()

    def test_article_without_day_is_not_written(self, tmp_path):
        # A made-up day would let the article past day_cutoff on reread,
        # so a table refuses dates without days.
        path = tmp_path / "scored.csv"
        month = np.array([date(2020, 1, 1)], dtype="datetime64[M]")
        with pytest.raises(DataError, match=r"datetime64\[D\], got datetime64\[M\]"):
            write_scored_articles(
                ArticleTable(["a"], month, scores=np.array([0.5])), path
            )
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []

    def test_out_of_range_score_rejected(self, tmp_path):
        path = tmp_path / "scored.csv"
        path.write_text("id,date,score\na,2020-01-05,1.5\n")
        with pytest.raises(SeriesFormatError):
            read_scored_articles(path)


class TestForecastFiles:
    def _series(self, model, shift=0.0):
        months = [MonthKey(2020, 1 + i).ordinal for i in range(3)]
        casts = (0.1 + shift, 0.2 + shift, 0.3 + shift)
        real = (0.15, 0.25, 0.2)
        return ForecastSeries(
            model=model,
            months=months,
            nowcasts=casts,
            nowcasts_annualized=tuple(annualize(v) for v in casts),
            realized=real,
            realized_annualized=tuple(annualize(v) for v in real),
        )

    def test_roundtrip_two_models(self, tmp_path):
        fed = self._series("fed")
        both = self._series("fed+news", shift=0.01)
        path = tmp_path / "forecasts.csv"
        write_forecasts([fed, both], path)
        back = read_forecasts(path)
        assert [fs.model for fs in back] == ["fed", "fed+news"]
        columns = (
            "months", "nowcasts", "nowcasts_annualized", "realized",
            "realized_annualized",
        )
        for original, loaded in zip([fed, both], back):
            for name in columns:
                got, want = getattr(loaded, name), getattr(original, name)
                assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes())

    def test_model_order_is_file_order(self, tmp_path):
        path = tmp_path / "forecasts.csv"
        write_forecasts([self._series("b"), self._series("a")], path)
        assert [fs.model for fs in read_forecasts(path)] == ["b", "a"]

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "forecasts.csv"
        path.write_text(
            "date,model,nowcast,nowcast_annualized,realized,realized_annualized\n"
        )
        with pytest.raises(DataError, match="no forecast rows"):
            read_forecasts(path)

    def test_bad_number_reports_line(self, tmp_path):
        path = tmp_path / "forecasts.csv"
        path.write_text(
            "date,model,nowcast,nowcast_annualized,realized,realized_annualized\n"
            "2020-01,fed,0.1,1.2,zzz,1.9\n"
        )
        with pytest.raises(SeriesFormatError) as err:
            read_forecasts(path)
        assert err.value.line == 2

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_value_names_line_column_and_month(self, tmp_path, value):
        path = tmp_path / "forecasts.csv"
        path.write_text(
            "date,model,nowcast,nowcast_annualized,realized,realized_annualized\n"
            "2020-01,fed,0.1,1.2,0.2,2.4\n"
            f"2020-02,fed,0.1,{value},0.2,2.4\n"
        )
        with pytest.raises(SeriesFormatError) as err:
            read_forecasts(path)
        assert err.value.line == 3
        assert f"nowcast_annualized {value!r} at 2020-02 is not finite" in str(
            err.value
        )

    @pytest.mark.parametrize(
        "second, kind", [("2020-01", "duplicate"), ("2019-12", "non-monotone")]
    )
    def test_month_order_within_a_model(self, tmp_path, second, kind):
        path = tmp_path / "forecasts.csv"
        path.write_text(
            "date,model,nowcast,nowcast_annualized,realized,realized_annualized\n"
            "2020-01,fed,0.1,1.2,0.2,2.4\n"
            "2020-01,news,0.1,1.2,0.2,2.4\n"
            f"{second},fed,0.1,1.2,0.2,2.4\n"
        )
        with pytest.raises(SeriesFormatError) as err:
            read_forecasts(path)
        assert err.value.line == 4
        assert f"{kind} month {second} for model 'fed'" in str(err.value)


class TestSidecars:
    def test_rejection_file(self, tmp_path):
        path = tmp_path / "rejected.csv"
        write_rejections(
            [Rejection(line=3, reason="bad sum"), Rejection(line=9, reason="x")],
            path,
        )
        content = path.read_text()
        assert content.splitlines()[0] == "line,reason"
        assert "3,bad sum" in content

    def test_index_metadata(self, tmp_path):
        path = tmp_path / "meta.csv"
        index = build_news_index([
            MonthlySentiment(MonthKey(2020, 1), 0.5, 4),
            MonthlySentiment(MonthKey(2020, 3), -0.5, 2),
        ])
        write_index_metadata(index, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "month,article_count,gap"
        assert lines[1:] == ["2020-01,4,0", "2020-02,0,1", "2020-03,2,0"]

    def test_provenance_line_format(self):
        line = provenance_line("abc123def456")
        assert line.startswith("# newscast ")
        assert line.endswith(" config:abc123def456")


class TestAtomicWrites:
    def test_write_leaves_only_the_target(self, tmp_path, series_factory):
        path = tmp_path / "s.csv"
        write_series(series_factory("2020-01", [1.0, 2.0]), path, comment="# c")
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_text() == "# c\ndate,value\n2020-01,1.0\n2020-02,2.0\n"

    def test_failed_write_keeps_old_file_and_removes_temporary(self, tmp_path):
        path = tmp_path / "probs.csv"
        good = make_articles(["a"], ["2020-01-02"], probs=[(0.2, 0.3, 0.5)])
        write_probability_articles(good, path)
        before = path.read_text()
        textual = make_articles(
            ["a", "b"], ["2020-01-02", "2020-01-03"], texts=["x", "y"]
        )
        with pytest.raises(DataError, match="no probabilities"):
            write_probability_articles(textual, path)
        assert path.read_text() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_unwritable_target_is_data_error_naming_path(self, tmp_path):
        target = tmp_path / "taken"
        target.mkdir()
        with pytest.raises(DataError, match="cannot write .*taken"):
            write_rejections([Rejection(line=1, reason="x")], target)
        assert list(tmp_path.iterdir()) == [target]

