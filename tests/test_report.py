"""Rendering of regression and evaluation tables, text and delimited."""

import pytest

from newscast import (
    DataError,
    MonthKey,
    MonthlySeries,
    backtest,
    evaluate_forecasts,
    fit_model,
)
from newscast.report import (
    NOTE_LINE,
    evaluation_table,
    evaluation_table_delimited,
    regression_table,
    regression_table_delimited,
)


@pytest.fixture()
def fitted_pair(rng):
    """fed and fed+news fits on one synthetic bundle."""
    n = 96
    start = MonthKey(2013, 1)

    def series(name, values):
        return MonthlySeries(
            name, [(start.shift(i), float(v)) for i, v in enumerate(values)],
            "percent",
        )

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
        assert f"{fed.estimates[i]:.3f}{fed.stars[i]}" in ccpi_line

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
        assert est == fed.coefficient("pi-CCPI")
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
        assert by_key[("pi-CCPI", "stars")][0] == fed.stars[i]


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
            report.entries[1].gw.p_value, abs=5e-3
        )

    def test_rmse_rendering(self, fitted_pair):
        report = self._report(fitted_pair)
        lines = evaluation_table(report).splitlines()
        fed_line = next(l for l in lines if l.startswith("FED "))
        assert f"{report.entries[0].rmse:.4f}" in fed_line

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
        assert float(rows[1][1]) == report.entries[0].rmse
        assert rows[2][0] == "fed+news"
        assert float(rows[2][4]) == report.entries[1].gw.p_value
        assert rows[2][5] == "unconditional"
