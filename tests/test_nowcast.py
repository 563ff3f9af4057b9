"""Model specs, training, single-month nowcasts, and backtests."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import edit_series
from newscast import (
    MODEL_SPECS,
    ConfigError,
    DataError,
    DomainError,
    MissingMonthsError,
    MonthKey,
    MonthlySeries,
    NewscastError,
    RegressionResult,
    SingularDesignError,
    annualize,
    backtest,
    fit_model,
    month_range,
    nowcast,
    resolve_spec,
)
from newscast.nowcast import BACKTEST_SCHEMES, annualized, coefficient_names

BETA = (0.5, 1.5, -0.25, 0.1, 0.02)  # const, ccpi, fcpi, gas, news


def month(s):
    return MonthKey.parse(s)


def pct_series(name, start, values):
    return MonthlySeries(name, month(start).ordinal, values, "percent")


def make_bundle(rng, start="2013-01", n=96, noise=0.0):
    """Synthetic percent-change bundle with y generated from BETA."""
    ccpi = rng.normal(0.2, 0.1, n)
    fcpi = rng.normal(0.3, 0.2, n)
    gas = rng.normal(0.5, 2.0, n)
    news = rng.normal(0.1, 0.5, n)
    y = (
        BETA[0] + BETA[1] * ccpi + BETA[2] * fcpi + BETA[3] * gas
        + BETA[4] * news + noise * rng.normal(size=n)
    )
    return {
        "cpi": pct_series("pi-CPI", start, y),
        "ccpi": pct_series("pi-CCPI", start, ccpi),
        "fcpi": pct_series("pi-FCPI", start, fcpi),
        "gas": pct_series("pi-Gasoline", start, gas),
        "news": pct_series("pi-NEWS", start, news),
    }


def constant_bundle(values, start="2013-01", n=40):
    return {
        key: pct_series(f"pi-{key}", start, [v] * n)
        for key, v in values.items()
    }


def pinned_result(spec_name, estimates):
    """RegressionResult shell with chosen coefficients; nowcast() only
    reads names and estimates."""
    names = coefficient_names(MODEL_SPECS[spec_name])
    k = len(names)
    return RegressionResult(
        names=names,
        estimates=np.asarray(estimates, dtype=float),
        standard_errors=np.zeros(k),
        t_statistics=np.zeros(k),
        p_values=np.ones(k),
        r_squared=0.0,
        adjusted_r_squared=0.0,
        residual_std_error=0.0,
        f_statistic=float("nan"),
        f_p_value=float("nan"),
        n_obs=k + 1,
        df_residual=1,
        robust=False,
        residuals=np.zeros(k + 1),
    )


class TestModelSpecs:
    def test_the_five_specs(self):
        assert list(MODEL_SPECS.items()) == [
            ("fed", ("ccpi", "fcpi", "gas")),
            ("news", ("news",)),
            ("fed+news", ("ccpi", "fcpi", "gas", "news")),
            ("fed-gas+news", ("ccpi", "fcpi", "news")),
            ("ccpi+news", ("ccpi", "news")),
        ]

    def test_coefficient_names(self):
        assert coefficient_names(MODEL_SPECS["fed+news"]) == (
            "const", "pi-CCPI", "pi-FCPI", "pi-Gasoline", "pi-NEWS"
        )

    def test_readme_table_is_the_model_table(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text("utf-8")
        table = readme[readme.index("| name "):]
        rows = [line.split("|")[1:3] for line in table.split("\n\n")[0].splitlines()]
        ids = {"core CPI": "ccpi", "food CPI": "fcpi", "gasoline": "gas", "NEWS": "news"}
        listed = [
            (name.strip(" `"), tuple(ids[label.strip()] for label in labels.split(",")))
            for name, labels in rows[2:]
        ]
        assert listed == list(MODEL_SPECS.items())

    def test_resolve(self):
        assert resolve_spec("fed") is MODEL_SPECS["fed"]
        with pytest.raises(ConfigError, match="unknown model"):
            resolve_spec("fed+tweets")


class TestFitModel:
    def test_zero_noise_recovery(self, rng):
        data = make_bundle(rng, noise=0.0)
        res = fit_model("fed+news", data, month("2013-01"), month("2018-12"))
        np.testing.assert_allclose(res.estimates, BETA, atol=1e-10)
        assert res.r_squared == pytest.approx(1.0)
        assert res.names == coefficient_names(MODEL_SPECS["fed+news"])

    def test_news_only_closed_form(self, rng):
        data = make_bundle(rng, noise=0.3)
        start, end = month("2013-01"), month("2017-12")
        res = fit_model("news", data, start, end)
        months = [start.shift(i) for i in range(60)]
        x = np.array([data["news"][m] for m in months])
        y = np.array([data["cpi"][m] for m in months])
        slope = ((x - x.mean()) * (y - y.mean())).sum() / ((x - x.mean()) ** 2).sum()
        intercept = y.mean() - slope * x.mean()
        assert res.names == ("const", "pi-NEWS")
        assert res.estimates[1] == pytest.approx(slope, rel=1e-10)
        assert res.estimates[0] == pytest.approx(intercept, rel=1e-10)

    def test_missing_month_named(self, rng):
        data = make_bundle(rng)
        hole = month("2015-06")
        data["gas"] = edit_series(data["gas"], {hole: np.nan})
        with pytest.raises(MissingMonthsError) as err:
            fit_model("fed", data, month("2013-01"), month("2018-12"))
        assert err.value.months == (hole,)

    def test_window_must_exceed_coefficients(self, rng):
        data = make_bundle(rng)
        # A one-month window is too short, not reversed.
        for end in ("2013-04", "2013-01"):
            with pytest.raises(DataError, match="at least 5"):
                fit_model("fed", data, month("2013-01"), month(end))
        # 5 months is enough for 3 regressors + intercept + 1 df.
        fit_model("fed", data, month("2013-01"), month("2013-05"))

    def test_reversed_window(self, rng):
        data = make_bundle(rng)
        with pytest.raises(DataError, match="reversed"):
            fit_model("fed", data, month("2014-01"), month("2013-01"))

    def test_missing_bundle_key(self, rng):
        data = make_bundle(rng)
        del data["news"]
        with pytest.raises(DataError, match="no 'news'"):
            fit_model("news", data, month("2013-01"), month("2014-12"))


class TestNowcast:
    def test_hand_evaluated_fed_nowcast(self, rng):
        # Constant histories pin every moving average: MA(ccpi)=0.2,
        # MA(fcpi)=0.3, MA(gas)=1.0. With coefficients
        # (0.021, 0.616, 0.186, 0.035) the nowcast is
        # 0.021 + 0.616*0.2 + 0.186*0.3 + 0.035*1.0 = 0.235.
        data = constant_bundle({"cpi": 0.2, "ccpi": 0.2, "fcpi": 0.3, "gas": 1.0})
        pinned = pinned_result("fed", [0.021, 0.616, 0.186, 0.035])
        got = nowcast("fed", pinned, data, month("2015-01"))
        assert got == pytest.approx(0.235, rel=1e-12)

    def test_news_regressor_is_contemporaneous(self, rng):
        # News history is flat zero but the target month carries 0.7;
        # the nowcast must use 0.7, not the moving average.
        n = 40
        t = month("2013-01").shift(n - 1)
        news_values = [0.0] * (n - 1) + [0.7]
        data = constant_bundle({"cpi": 0.2, "ccpi": 0.2}, n=n)
        data["news"] = pct_series("pi-NEWS", "2013-01", news_values)
        pinned = pinned_result("ccpi+news", [0.0, 0.0, 1.0])
        assert nowcast("ccpi+news", pinned, data, t) == pytest.approx(0.7)

    def test_price_regressors_use_moving_average(self, rng):
        # ccpi jumps at t; the nowcast must average the 12 prior months
        # (=0.2), ignoring the jump.
        n = 40
        t = month("2013-01").shift(n - 1)
        ccpi_values = [0.2] * (n - 1) + [9.9]
        data = constant_bundle({"cpi": 0.2, "news": 0.1}, n=n)
        data["ccpi"] = pct_series("pi-CCPI", "2013-01", ccpi_values)
        pinned = pinned_result("ccpi+news", [0.0, 1.0, 0.0])
        assert nowcast("ccpi+news", pinned, data, t) == pytest.approx(0.2)

    def test_linear_in_coefficients(self, rng):
        # Doubling each coefficient exactly doubles the nowcast:
        # scaling by 2 is exact in binary floating point.
        data = make_bundle(rng)
        fitted = fit_model("fed+news", data, month("2013-01"), month("2018-12"))
        doubled = dataclasses.replace(fitted, estimates=2.0 * fitted.estimates)
        t = month("2019-06")
        assert nowcast("fed+news", doubled, data, t) == 2.0 * nowcast(
            "fed+news", fitted, data, t
        )

    def test_fitted_names_must_match_spec(self, rng):
        data = make_bundle(rng)
        fed = fit_model("fed", data, month("2013-01"), month("2018-12"))
        with pytest.raises(DataError, match="do not match"):
            nowcast("fed+news", fed, data, month("2019-06"))

    def test_missing_lag_months_propagate(self, rng):
        data = make_bundle(rng, n=24)
        fitted = fit_model("fed", data, month("2013-06"), month("2014-12"))
        # Nowcasting 2015-06 needs ccpi back to 2014-06: present. But
        # 2016-06 needs months past the series end.
        with pytest.raises(MissingMonthsError):
            nowcast("fed", fitted, data, month("2016-06"))


class TestBacktest:
    TRAIN = (month("2013-01"), month("2017-12"))
    EVAL = (month("2018-01"), month("2019-12"))

    def test_single_month_equals_direct_composition(self, rng):
        data = make_bundle(rng, noise=0.2)
        t = month("2018-01")
        fs = backtest("fed+news", data, self.TRAIN, (t, t))
        fitted = fit_model("fed+news", data, *self.TRAIN)
        direct = nowcast("fed+news", fitted, data, t)
        assert fs.months.tolist() == [t.ordinal]
        assert bits(fs.nowcasts) == bits([direct])
        assert bits(fs.realized) == bits([data["cpi"][t]])
        assert fs.nowcasts_annualized[0] == annualize(direct)
        assert fs.realized_annualized[0] == annualize(data["cpi"][t])

    def test_eval_month_count(self, rng):
        data = make_bundle(rng, n=120, noise=0.2)
        fs = backtest(
            "fed", data, self.TRAIN, (month("2018-01"), month("2021-12"))
        )
        assert len(fs) == 48
        assert fs.months.tolist() == list(
            range(month("2018-01").ordinal, month("2021-12").ordinal + 1)
        )

    def test_errors_are_realized_minus_nowcast(self, rng):
        data = make_bundle(rng, noise=0.2)
        fs = backtest("fed", data, self.TRAIN, self.EVAL)
        np.testing.assert_array_equal(
            fs.errors(),
            np.array(fs.realized_annualized) - np.array(fs.nowcasts_annualized),
        )

    def test_annualized_columns(self, rng):
        data = make_bundle(rng, noise=0.2)
        fs = backtest("fed", data, self.TRAIN, self.EVAL)
        for monthly, annual in zip(fs.nowcasts, fs.nowcasts_annualized):
            assert annual == annualize(monthly)

    @pytest.mark.parametrize("bad, reason", [
        (-100.0, "cannot annualize rate -100.0 <= -100"),
        (1e300, "annualizing rate 1e+300 overflows"),
    ])
    def test_annualizing_error_names_model_column_and_month(self, rng, bad, reason):
        data = make_bundle(rng, noise=0.2)
        t = month("2019-05")
        data["cpi"] = edit_series(data["cpi"], {t: bad})
        with pytest.raises(DomainError) as err:
            backtest("fed", data, self.TRAIN, self.EVAL)
        assert str(err.value) == f"model 'fed', realized for 2019-05: {reason}"

    def test_overlap_rejected(self, rng):
        data = make_bundle(rng)
        with pytest.raises(DataError, match="overlaps"):
            backtest(
                "fed", data,
                (month("2013-01"), month("2018-01")),
                (month("2018-01"), month("2019-12")),
            )
        with pytest.raises(DataError, match="overlaps"):
            backtest(
                "fed", data,
                (month("2013-01"), month("2019-06")),
                (month("2018-01"), month("2019-12")),
            )

    def test_reversed_windows_rejected(self, rng):
        # A reversed training window is caught here, before the fit
        # would name it, and a reversed evaluation window has no month.
        data = make_bundle(rng)
        for train, evaluation in (
            ((month("2017-12"), month("2013-01")), self.EVAL),
            (self.TRAIN, (month("2019-12"), month("2018-01"))),
        ):
            with pytest.raises(DataError, match="windows must be chronological"):
                backtest("fed", data, train, evaluation)

    def test_scheme_validated(self, rng):
        data = make_bundle(rng)
        with pytest.raises(ConfigError, match="scheme"):
            backtest("fed", data, self.TRAIN, self.EVAL, scheme="expanding")

    def test_model_label_recorded(self, rng):
        data = make_bundle(rng, noise=0.2)
        fs = backtest("fed+news", data, self.TRAIN, self.EVAL)
        assert fs.model == "fed+news"


def per_window_backtest(spec, data, train, evaluation, scheme, robust=False):
    """The backtest loop written out: a full fit_model (coefficients and
    inference) per window and the public nowcast, then the annualized
    columns in the order backtest computes them."""
    length = train[1].ordinal - train[0].ordinal + 1
    fitted = None
    if scheme == "fixed":
        fitted = fit_model(spec, data, *train, robust=robust)
    realized = data["cpi"].window(*evaluation)
    casts = []
    for t in month_range(*evaluation):
        if scheme == "rolling":
            fitted = fit_model(
                spec, data, t.shift(-length), t.shift(-1), robust=robust
            )
        casts.append(nowcast(spec, fitted, data, t))
    annualized(spec, "nowcast", evaluation[0], casts)
    annualized(spec, "realized", evaluation[0], realized)
    return casts


def bits(values):
    return np.array(values, dtype=float).tobytes()


def outcome(call):
    """A call's nowcasts as bytes, or its error type and message."""
    try:
        return ("ok", bits(call()))
    except NewscastError as exc:
        return (type(exc), str(exc))


class TestBacktestMatchesPerWindowFits:
    TRAIN = (month("2013-01"), month("2017-12"))
    EVAL = (month("2018-01"), month("2019-12"))

    def test_dependent_column_in_a_later_window(self, rng):
        # Gasoline is constant over 2015-07..2020-06, so only the rolling
        # window that ends in 2020-06 makes it a copy of the intercept.
        data = make_bundle(rng, n=110, noise=0.2)
        gas = np.array(data["gas"].values())
        gas[30:90] = 0.5
        data["gas"] = pct_series("pi-Gasoline", "2013-01", gas)
        evaluation = (month("2018-01"), month("2020-12"))
        with pytest.raises(SingularDesignError) as got:
            backtest("fed", data, self.TRAIN, evaluation, "rolling")
        with pytest.raises(SingularDesignError) as expected:
            per_window_backtest("fed", data, self.TRAIN, evaluation, "rolling")
        assert "rank deficient" in str(got.value)
        assert str(got.value) == str(expected.value)
        # The fixed window never sees the constant stretch whole.
        backtest("fed", data, self.TRAIN, evaluation, "fixed")

    def test_gap_inside_the_rolling_span(self, rng):
        data = make_bundle(rng, noise=0.2)
        gap = month("2016-05")
        data["ccpi"] = edit_series(data["ccpi"], {gap: np.nan})
        with pytest.raises(MissingMonthsError) as got:
            backtest("ccpi+news", data, self.TRAIN, self.EVAL, "rolling")
        assert got.value.months == (gap,)


    def test_every_missing_lag_month_named_at_once(self, rng):
        # The fixed design covers the training window only; the moving
        # averages over the evaluation window need gas through 2019-11.
        data = make_bundle(rng, noise=0.2)
        gaps = (month("2018-06"), month("2019-03"))
        data["gas"] = edit_series(data["gas"], dict.fromkeys(gaps, np.nan))
        with pytest.raises(MissingMonthsError) as got:
            backtest("fed", data, self.TRAIN, self.EVAL, "fixed")
        assert got.value.months == gaps
        assert "'pi-Gasoline' lacks months of 2017-01..2019-11" in str(got.value)

    def test_every_missing_news_month_named_at_once(self, rng):
        data = make_bundle(rng, noise=0.2)
        gaps = (month("2018-02"), month("2019-07"))
        data["news"] = edit_series(data["news"], dict.fromkeys(gaps, np.nan))
        for scheme in BACKTEST_SCHEMES:
            with pytest.raises(MissingMonthsError) as got:
                backtest("news", data, self.TRAIN, self.EVAL, scheme)
            assert got.value.months == gaps

@st.composite
def gapless_cases(draw):
    """A spec, scheme, windows and gapless series long enough that every
    window and every moving-average lag exists."""
    spec = draw(st.sampled_from(list(MODEL_SPECS)))
    scheme = draw(st.sampled_from(BACKTEST_SCHEMES))
    length = draw(st.integers(len(MODEL_SPECS[spec]) + 2, 24))
    n_eval = draw(st.integers(1, 12))
    gap = draw(st.integers(0, 3))
    start = MonthKey.from_ordinal(draw(st.integers(2000 * 12, 2001 * 12)))
    eval_start = start.shift(length + gap + 12)
    train_end = eval_start.shift(-1 - gap)
    train = (train_end.shift(1 - length), train_end)
    evaluation = (eval_start, eval_start.shift(n_eval - 1))
    n = length + gap + 12 + n_eval
    # Small integers make exactly dependent columns common.
    values = st.one_of(
        st.integers(-3, 3).map(float),
        st.floats(-50.0, 50.0, allow_nan=False, allow_subnormal=False),
    )
    data = {
        key: pct_series(key, str(start),
                        draw(st.lists(values, min_size=n, max_size=n)))
        for key in ("cpi",) + MODEL_SPECS[spec]
    }
    return spec, data, train, evaluation, scheme


@settings(max_examples=150, deadline=None)
@given(gapless_cases(), st.booleans())
def test_backtest_matches_per_window_fits(case, robust):
    spec, data, train, evaluation, scheme = case
    got = outcome(lambda: backtest(spec, data, train, evaluation, scheme).nowcasts)
    expected = outcome(
        lambda: per_window_backtest(spec, data, train, evaluation, scheme, robust)
    )
    assert got == expected
