"""Rendering of regression and evaluation tables, text and delimited."""

import re

import pytest

from newscast import (
    MODEL_SPECS,
    DataError,
    MonthKey,
    MonthlySeries,
    SentimentScorer,
    backtest,
    build_news_index,
    evaluate_forecasts,
    fit_model,
    monthly_aggregate,
    news_pi,
    pct_change,
    read_probability_articles,
    read_series,
    toy_config_path,
)
from newscast.report import (
    NOTE_LINE,
    STAR_THRESHOLDS,
    evaluation_table,
    evaluation_table_delimited,
    regression_table,
    regression_table_delimited,
    significance_stars,
)


@pytest.fixture()
def fitted_pair(rng):
    """fed and fed+news fits on one synthetic bundle."""
    n = 96
    start = MonthKey(2013, 1)

    def series(name, values):
        return MonthlySeries(name, start.ordinal, values, "percent")

    ccpi = rng.normal(0.2, 0.1, n)
    fcpi = rng.normal(0.3, 0.2, n)
    gas = rng.normal(0.5, 2.0, n)
    news = rng.normal(0.1, 0.5, n)
    y = (
        0.02 + 0.6 * ccpi + 0.2 * fcpi + 0.04 * gas + 0.03 * news
        + rng.normal(0, 0.06, n)
    )
    data = {
        "cpi": series("pi-CPI", y),
        "ccpi": series("pi-CCPI", ccpi),
        "fcpi": series("pi-FCPI", fcpi),
        "gas": series("pi-Gasoline", gas),
        "news": series("pi-NEWS", news),
    }
    fed = fit_model("fed", data, start, MonthKey(2018, 12))
    both = fit_model("fed+news", data, start, MonthKey(2018, 12))
    return data, fed, both


class TestRegressionTable:
    def test_structure(self, fitted_pair):
        _, fed, both = fitted_pair
        text = regression_table([fed, both], ["fed", "fed+news"])
        lines = text.splitlines()
        assert lines[0] == "=" * len(lines[0])
        assert "Dependent variable: CPI" in lines[1]
        assert "fed" in lines[2] and "fed+news" in lines[2]
        assert "(1)" in lines[3] and "(2)" in lines[3]
        assert lines[-1] == NOTE_LINE
        assert lines[-2] == "=" * len(lines[-2])
        # Double rules top and bottom, single rules around the body.
        assert sum(1 for l in lines if set(l) == {"="}) == 2
        assert sum(1 for l in lines if set(l) == {"-"}) == 2

    def test_coefficient_order_and_empty_cells(self, fitted_pair):
        _, fed, both = fitted_pair
        text = regression_table([fed, both], ["fed", "fed+news"])
        lines = text.splitlines()
        order = [
            l.split()[0] for l in lines
            if l.split() and l.split()[0] in (
                "const", "pi-CCPI", "pi-FCPI", "pi-Gasoline", "pi-NEWS"
            )
        ]
        assert order == ["const", "pi-CCPI", "pi-FCPI", "pi-Gasoline", "pi-NEWS"]
        # pi-NEWS exists only in the second model: first column is blank.
        news_line = next(l for l in lines if l.startswith("pi-NEWS"))
        assert len(news_line.split()) == 2  # label + one estimate

    def test_standard_errors_parenthesized_below(self, fitted_pair):
        _, fed, _ = fitted_pair
        text = regression_table([fed], ["fed"])
        lines = text.splitlines()
        const_at = next(i for i, l in enumerate(lines) if l.startswith("const"))
        se_line = lines[const_at + 1].strip()
        assert se_line.startswith("(") and se_line.endswith(")")
        se = float(se_line.strip("()"))
        assert se == pytest.approx(fed.standard_errors[0], abs=5e-4)

    def test_diagnostics_block(self, fitted_pair):
        _, fed, both = fitted_pair
        text = regression_table([fed, both], ["fed", "fed+news"])
        for label in (
            "Observations", "R2", "Adjusted R2", "Residual Std. Error",
            "F Statistic",
        ):
            assert any(l.startswith(label) for l in text.splitlines()), label
        obs_line = next(
            l for l in text.splitlines() if l.startswith("Observations")
        )
        assert obs_line.split()[1:] == ["72", "72"]

    def test_estimates_render_with_stars(self, fitted_pair):
        _, fed, _ = fitted_pair
        text = regression_table([fed], ["fed"])
        ccpi_line = next(
            l for l in text.splitlines() if l.startswith("pi-CCPI")
        )
        i = fed.names.index("pi-CCPI")
        stars = significance_stars(fed.p_values[i])
        assert f"{fed.estimates[i]:.3f}{stars}" in ccpi_line

    def test_name_count_mismatch(self, fitted_pair):
        _, fed, _ = fitted_pair
        with pytest.raises(DataError):
            regression_table([fed], ["a", "b"])
        with pytest.raises(DataError):
            regression_table([], [])


class TestRegressionTableDelimited:
    def test_csv_layout(self, fitted_pair):
        _, fed, both = fitted_pair
        header, body = regression_table_delimited([fed, both], ["fed", "fed+news"])
        rows = [header, *body]
        assert rows[0] == ["term", "statistic", "fed", "fed+news"]
        by_key = {(r[0], r[1]): r[2:] for r in rows[1:]}
        # Full precision: the estimate round-trips bit for bit.
        est = float(by_key[("pi-CCPI", "estimate")][0])
        assert est == fed.estimates[fed.names.index("pi-CCPI")]
        # A term absent from a model renders as an empty cell.
        assert by_key[("pi-NEWS", "estimate")][0] == ""
        assert by_key[("pi-NEWS", "estimate")][1] != ""
        assert by_key[("Observations", "value")] == ["72", "72"]
        assert ("F p-value", "value") in by_key

    def test_stars_row(self, fitted_pair):
        _, fed, both = fitted_pair
        header, body = regression_table_delimited([fed, both], ["fed", "fed+news"])
        rows = [header, *body]
        by_key = {(r[0], r[1]): r[2:] for r in rows[1:]}
        i = fed.names.index("pi-CCPI")
        assert by_key[("pi-CCPI", "stars")][0] == significance_stars(fed.p_values[i])


@pytest.fixture(scope="module")
def toy_fits():
    """Every model fitted on the bundled toy data, as `fit all` fits it."""
    toy = toy_config_path().parent
    articles, _ = read_probability_articles(toy / "news_probs.csv")
    scored = SentimentScorer("polarity").fit_transform(articles)
    index = build_news_index(monthly_aggregate(scored, day_cutoff=15))
    data = {k: pct_change(read_series(toy / f"{k}.csv"), window=1)
            for k in ("cpi", "ccpi", "fcpi", "gas")}
    data["news"] = news_pi(index.series, window=1)
    names = list(MODEL_SPECS)
    window = MonthKey(2015, 1), MonthKey(2019, 12)
    return [fit_model(name, data, *window) for name in names], names


class TestTablesAgree:
    def test_csv_mirror_lists_the_text_rows_in_order(self, toy_fits):
        text = regression_table(*toy_fits)
        _, rows = regression_table_delimited(*toy_fits)
        # Row labels of the text table: the labelled lines between the
        # rule under the model header and the closing double rule.
        lines = text.splitlines()
        rules = [i for i, line in enumerate(lines) if set(line) in ({"-"}, {"="})]
        labels = [
            re.split(r"\s{2,}", line)[0]
            for line in lines[rules[1] + 1:rules[-1]]
            if line and not line[0].isspace() and set(line) != {"-"}
        ]
        mirrored = list(dict.fromkeys(row[0] for row in rows))
        assert labels == [t for t in mirrored if t != "F p-value"]
        assert labels[:6] == ["const", "pi-CCPI", "pi-FCPI", "pi-Gasoline",
                              "pi-NEWS", "Observations"]
        assert mirrored[-1] == "F p-value"

    def test_note_line_lists_every_tier_in_order(self):
        legend = NOTE_LINE.removeprefix("Note: ").split("; ")
        tiers = [(float(entry.split("p<")[1]), entry.split("p<")[0])
                 for entry in legend]
        # From the loosest tier to the strictest, each the tier that
        # significance_stars gives just below its threshold.
        assert tiers == sorted(STAR_THRESHOLDS, reverse=True)
        for threshold, stars in tiers:
            assert significance_stars(threshold * 0.999) == stars
            assert significance_stars(threshold) != stars


class TestEvaluationTable:
    def _report(self, fitted_pair):
        data, _, _ = fitted_pair
        train = (MonthKey(2013, 1), MonthKey(2018, 12))
        evalw = (MonthKey(2019, 1), MonthKey(2020, 12))
        forecasts = [
            backtest("fed", data, train, evalw),
            backtest("fed+news", data, train, evalw),
        ]
        return evaluate_forecasts(forecasts)

    def test_structure(self, fitted_pair):
        report = self._report(fitted_pair)
        text = evaluation_table(report)
        lines = text.splitlines()
        assert lines[0] == "=" * len(lines[0])
        assert lines[1].strip() == "RMSE"
        assert lines[-1] == NOTE_LINE
        assert any(l.startswith("FED ") or l.startswith("FED\t") or
                   l.startswith("FED") for l in lines)
        assert any(l.startswith("FED+NEWS") for l in lines)

    def test_baseline_shows_dashes(self, fitted_pair):
        report = self._report(fitted_pair)
        lines = evaluation_table(report).splitlines()
        fed_at = next(i for i, l in enumerate(lines) if l.startswith("FED "))
        assert lines[fed_at + 1].strip() == "(--)"
        news_at = next(
            i for i, l in enumerate(lines) if l.startswith("FED+NEWS")
        )
        p_cell = lines[news_at + 1].strip()
        assert p_cell.startswith("(") and p_cell.endswith(")")
        assert p_cell != "(--)"
        rendered = float(p_cell.strip("()"))
        assert rendered == pytest.approx(
            report[1].gw.p_value, abs=5e-3
        )

    def test_rmse_rendering(self, fitted_pair):
        report = self._report(fitted_pair)
        lines = evaluation_table(report).splitlines()
        fed_line = next(l for l in lines if l.startswith("FED "))
        assert f"{report[0].rmse:.4f}" in fed_line

    def test_delimited_mirror(self, fitted_pair):
        report = self._report(fitted_pair)
        header, body = evaluation_table_delimited(report)
        rows = [header, *body]
        assert rows[0] == [
            "model", "rmse", "gw_statistic", "gw_df", "gw_p_value",
            "gw_variant", "stars",
        ]
        assert rows[1][0] == "fed"
        assert rows[1][2] == ""  # baseline has no GW columns
        assert float(rows[1][1]) == report[0].rmse
        assert rows[2][0] == "fed+news"
        assert float(rows[2][4]) == report[1].gw.p_value
        assert rows[2][5] == "unconditional"
