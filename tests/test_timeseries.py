"""Month keys, series container, and the arithmetic transforms."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from newscast import (
    DataError,
    DomainError,
    MissingMonthsError,
    MonthKey,
    MonthlySeries,
    OverflowMonthsError,
    UnitError,
    ZeroDenominatorError,
    annualize,
    deannualize,
    month_range,
    moving_average_predictor,
    moving_averages,
    pct_change,
)
from newscast.timeseries import month_ordinal

# Frozen high-precision oracle values (50-digit arithmetic).
ANNUALIZED_ONE = 12.682503013196972066  # 100*(1.01^12 - 1)
DEANNUALIZED_TWELVE = 0.9488792934582974126  # 100*(1.12^(1/12) - 1)


MONTH_RULE = re.compile(r"^[0-9]{4}-[0-9]{2}$")
_ASCII_DIGIT = st.characters(min_codepoint=ord("0"), max_codepoint=ord("9"))
_DIGITS = st.lists(
    st.one_of(_ASCII_DIGIT, _ASCII_DIGIT, st.characters(whitelist_categories=("Nd",))),
    min_size=1, max_size=5,
).map("".join)
_PAD = st.sampled_from(["", "", " ", "\t", "\n", "\u3000", "\x0b"])
#: Month texts near the rule: ASCII and other digits, padding, other
#: separators and lengths, and any text.
MONTH_TEXTS = st.one_of(
    st.builds(
        lambda pad, year, sep, month, end: pad + year + sep + month + end,
        _PAD, _DIGITS, st.sampled_from(["-", "-", "-", "/", "--", ""]), _DIGITS, _PAD,
    ),
    st.text(max_size=9),
)


class TestMonthKey:
    @settings(max_examples=120, deadline=None)
    @given(text=MONTH_TEXTS)
    @example(text="0000-01")
    @example(text="2020-13")
    # Years in Arabic-Indic and fullwidth digits.
    @example(text="٢٠٢٠-٠١")
    @example(text="２０２０-０１")
    @example(text="2020-1")
    @example(text="2020/03")
    @example(text="2020-011")
    @example(text="2020-00")
    @example(text="0001-01")
    @example(text="9999-12")
    def test_parser_follows_the_month_rule(self, text):
        # The rule: ^[0-9]{4}-[0-9]{2}$ after stripping, year >= 1 and
        # month 1..12; each refusal with its own reason.
        stripped = text.strip()
        if not MONTH_RULE.match(stripped):
            expected = f"expected YYYY-MM month, got {text!r}"
        elif stripped.startswith("0000"):
            expected = f"month {text!r} is outside years 1..9999"
        elif not 1 <= int(stripped[5:]) <= 12:
            expected = f"month must be in 1..12, got {int(stripped[5:])}"
        else:
            expected = int(stripped[:4]) * 12 + int(stripped[5:]) - 1
        for parse in (month_ordinal, lambda t: MonthKey.parse(t).ordinal):
            try:
                got = parse(text)
            except DataError as error:
                got = str(error)
            assert got == expected

    def test_month_bounds(self):
        with pytest.raises(DataError):
            MonthKey(2020, 0)
        with pytest.raises(DataError):
            MonthKey(2020, 13)

    @pytest.mark.parametrize("year, month", [(2020, 1.0), ("2020", 1), (2020.0, 1)])
    def test_fields_must_be_integers(self, year, month):
        with pytest.raises(DataError, match="^MonthKey fields must be integers"):
            MonthKey(year, month)

    def test_ordering_is_chronological(self):
        assert MonthKey(2019, 12) < MonthKey(2020, 1) < MonthKey(2020, 2)

    def test_shift_rolls_over_years(self):
        assert MonthKey(2020, 1).shift(-1) == MonthKey(2019, 12)
        assert MonthKey(2020, 11).shift(3) == MonthKey(2021, 2)
        assert MonthKey(2020, 6).shift(-18) == MonthKey(2018, 12)

    def test_month_range_inclusive(self):
        r = month_range(MonthKey(2019, 11), MonthKey(2020, 2))
        assert [str(m) for m in r] == ["2019-11", "2019-12", "2020-01", "2020-02"]
        assert month_range(MonthKey(2020, 2), MonthKey(2020, 1)) == []


class TestMonthlySeries:
    def test_construction_from_start_and_values(self):
        # Absent months are trimmed off both ends; values[i] is at start + i.
        start = MonthKey(2019, 12).ordinal
        s = MonthlySeries("s", start, [math.nan, 1.0, math.nan, 3.0, math.nan])
        assert s.months() == (MonthKey(2020, 1), MonthKey(2020, 3))
        assert (s.first_month(), s.last_month()) == s.months()
        assert s.values() == (1.0, 3.0)
        assert s.unit == "index-level"

    def test_keys_must_be_month_keys(self, series_factory):
        # `in` refuses what indexing refuses, with the same error.
        s = series_factory("2020-01", [1.0])
        for key in (MonthKey(2020, 1).ordinal, "2020-01"):
            for look_up in (lambda: s[key], lambda: key in s):
                with pytest.raises(DataError) as err:
                    look_up()
                assert str(err.value) == f"series 's' has MonthKey keys, got {key!r}"

    def test_unknown_unit_rejected(self):
        with pytest.raises(DataError, match="^series 's': unit 'furlongs'"):
            MonthlySeries("s", 0, [], unit="furlongs")

    @pytest.mark.parametrize("start", [MonthKey(2020, 1), 24240.0])
    def test_start_must_be_an_ordinal(self, start):
        with pytest.raises(DataError) as err:
            MonthlySeries("s", start, [1.0])
        assert str(err.value) == f"series 's': start {start!r} is not a month ordinal"

    def test_values_must_be_one_dimensional(self):
        with pytest.raises(DataError) as err:
            MonthlySeries("s", 0, [[1.0, 2.0]])
        assert str(err.value) == "series 's': values of shape (1, 2), not 1-D"

    def test_getitem_missing_month(self, series_factory):
        s = series_factory("2020-01", [1.0, 2.0])
        assert s[MonthKey(2020, 2)] == 2.0
        with pytest.raises(MissingMonthsError) as err:
            s[MonthKey(2021, 1)]
        assert err.value.months == (MonthKey(2021, 1),)

    def test_gaps_are_allowed(self):
        s = MonthlySeries("s", MonthKey(2020, 1).ordinal, [1.0, *[math.nan] * 3, 2.0])
        assert len(s) == 2
        with pytest.raises(MissingMonthsError) as err:
            s.window(s.first_month(), s.last_month())
        assert err.value.months == (
            MonthKey(2020, 2),
            MonthKey(2020, 3),
            MonthKey(2020, 4),
        )

    def test_with_name(self, series_factory):
        s = series_factory("2020-01", [1.0]).with_name("other")
        assert s.name == "other"
        assert s.values() == (1.0,)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_value_rejected(self, bad):
        values = [1.0, math.nan, bad, bad]
        if math.isnan(bad):
            # NaN is not refused: it marks an absent month, trimmed at the end.
            s = MonthlySeries("gas", MonthKey(2020, 1).ordinal, values)
            assert s.months() == (MonthKey(2020, 1),)
            assert MonthKey(2020, 3) not in s
            return
        with pytest.raises(DataError) as err:
            MonthlySeries("gas", MonthKey(2020, 1).ordinal, values)
        assert str(err.value) == (
            f"series 'gas': {bad!r} at 2020-03 is not finite"
        )

    def test_one_array_with_nan_for_absent_months(self):
        s = MonthlySeries("s", MonthKey(2020, 1).ordinal, [1.0, math.nan, 3.0])
        assert MonthKey(2020, 2) not in s
        assert "_present" not in MonthlySeries.__slots__
        start, now, then = s.lagged(1)
        assert start == MonthKey(2020, 2).ordinal
        assert now.tobytes() == np.array([np.nan, 3.0]).tobytes()
        assert then.tobytes() == np.array([1.0, np.nan]).tobytes()
        assert not now.flags.writeable

    def test_empty_series_first_month_errors(self):
        with pytest.raises(DataError, match="empty"):
            MonthlySeries("s", 0, []).first_month()


class TestPctChange:
    @pytest.mark.filterwarnings("error")
    def test_overflow_months_listed(self, series_factory):
        s = series_factory("2015-01", [2.0, 1e-300, 1e300, 2.0, 1e-300, 1e300])
        with pytest.raises(OverflowMonthsError) as err:
            pct_change(s, 1)
        assert err.value.months == (MonthKey(2015, 3), MonthKey(2015, 6))
        assert str(err.value) == (
            "pct_change of 's' (window 1) overflows: 2015-03, 2015-06"
        )

    def test_percent_input_rejected(self, series_factory):
        s = series_factory("2020-01", [1.0, 2.0], unit="percent")
        with pytest.raises(UnitError):
            pct_change(s, 1)

    def test_window_validation(self, series_factory):
        s = series_factory("2020-01", [1.0, 2.0])
        for bad in (0, -1, 1.5):
            with pytest.raises(DataError):
                pct_change(s, bad)


class TestAnnualize:
    def test_oracle_values(self):
        assert annualize(1.0) == pytest.approx(ANNUALIZED_ONE, rel=1e-14)
        assert deannualize(12.0) == pytest.approx(DEANNUALIZED_TWELVE, rel=1e-14)

    def test_monotonicity(self):
        assert annualize(-1.0) < annualize(0.0) < annualize(0.5) < annualize(2.0)

    def test_overflow_is_a_domain_error(self):
        with pytest.raises(DomainError, match="annualizing rate 1e\\+30 overflows"):
            annualize(1e30)

    # c06's range and bound: relative 1e-12, floored at 1.
    @given(st.floats(-50.0, 50.0))
    def test_deannualize_inverts_annualize(self, x):
        assert abs(deannualize(annualize(x)) - x) <= 1e-12 * max(1.0, abs(x))

    @given(st.floats(-50.0, 50.0))
    def test_annualize_inverts_deannualize(self, x):
        assert abs(annualize(deannualize(x)) - x) <= 1e-12 * max(1.0, abs(x))

    @given(st.floats(max_value=-100.0, allow_nan=False))
    @example(-100.0)
    def test_rates_at_or_below_minus_100_raise(self, x):
        with pytest.raises(DomainError):
            annualize(x)
        with pytest.raises(DomainError):
            deannualize(x)


@st.composite
def lagged_spans(draw):
    """A percent series that may have gaps, and a span of target months
    whose 12 lag months may reach a month or two past either end of the
    series."""
    n = draw(st.integers(12, 48))
    values = draw(st.lists(
        st.floats(-1e12, 1e12, allow_nan=False), min_size=n, max_size=n
    ))
    gaps = set()
    if n > 1 and draw(st.booleans()):
        gaps = set(draw(st.lists(st.integers(1, n - 1), max_size=3)))
    origin = MonthKey(2010, 1)
    values = [math.nan if i in gaps else v for i, v in enumerate(values)]
    series = MonthlySeries("pi", origin.ordinal, values, "percent")
    first = draw(st.integers(10, n))
    last = draw(st.integers(first, n + 1))
    return series, origin.shift(first), origin.shift(last)


class TestMovingAverages:
    @settings(max_examples=300)
    @given(lagged_spans())
    def test_equals_the_per_month_means(self, case):
        # The reference is each month's mean over its own window; the span
        # raises once, naming every lag month that any target month lacks.
        series, start, end = case
        expected, missing = [], set()
        for t in month_range(start, end):
            try:
                mean = math.fsum(series.window(t.shift(-12), t.shift(-1))) / 12
            except MissingMonthsError as exc:
                missing.update(exc.months)
                with pytest.raises(MissingMonthsError) as single:
                    moving_average_predictor(series, t)
                assert str(single.value) == str(exc)
                continue
            assert moving_average_predictor(series, t) == mean
            expected.append(mean)
        if missing:
            with pytest.raises(MissingMonthsError) as err:
                moving_averages(series, start, end)
            assert err.value.months == tuple(sorted(missing))
            span = f"{start.shift(-12)}..{end.shift(-1)}"
            assert f"'pi' lacks months of {span}" in str(err.value)
        else:
            got = moving_averages(series, start, end)
            assert got.tobytes() == np.array(expected).tobytes()


class TestMonthLists:
    """Errors that list months word each run of months that follow one
    another, in the order listed, as first..last, and keep every month."""

    def test_runs_are_taken_in_the_order_listed(self):
        # news_pi lists its zero months, then its crossing months.
        months = [MonthKey(2020, m) for m in (3, 4, 5, 1, 2, 9)]
        err = ZeroDenominatorError("news_pi hit", months)
        assert str(err) == "news_pi hit: 2020-03..2020-05, 2020-01..2020-02, 2020-09"
        assert err.months == tuple(months)

    def test_a_run_crosses_years_and_a_repeat_starts_a_new_one(self):
        months = [MonthKey(2019, 12), MonthKey(2020, 1), MonthKey(2020, 1)]
        err = MissingMonthsError("gap", months)
        assert str(err) == "gap: 2019-12..2020-01, 2020-01"
        assert len(err.months) == 3

    def test_a_long_gap_is_one_run(self, series_factory):
        s = series_factory("2020-01", [1.0, 2.0])
        with pytest.raises(MissingMonthsError) as err:
            s.window(MonthKey(1, 1), MonthKey(2020, 2))
        assert str(err.value).endswith(": 0001-01..2019-12")
        assert len(err.value.months) == 2019 * 12
