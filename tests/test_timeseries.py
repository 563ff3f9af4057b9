"""Month keys, series container, and the arithmetic transforms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
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
    months_between,
    moving_average_predictor,
    moving_averages,
    pct_change,
)

# Frozen high-precision oracle values (50-digit arithmetic).
GEOMETRIC_PCT = 2.4265767945403237503  # 100*(1.002^12 - 1)
ANNUALIZED_ONE = 12.682503013196972066  # 100*(1.01^12 - 1)
DEANNUALIZED_TWELVE = 0.9488792934582974126  # 100*(1.12^(1/12) - 1)


class TestMonthKey:
    def test_parse_and_str_roundtrip(self):
        m = MonthKey.parse("2020-03")
        assert (m.year, m.month) == (2020, 3)
        assert str(m) == "2020-03"
        assert MonthKey.parse(str(m)) == m

    def test_parse_rejects_garbage(self):
        # Digits of other scripts and year 0 are refused, as
        # date.fromisoformat refuses them in an article date.
        for bad in (
            "2020-3", "2020/03", "202003", "2020-13", "", "20-01", "٢٠٢٠-٠١",
            "２０２０-０１", "0000-01",
        ):
            with pytest.raises(DataError):
                MonthKey.parse(bad)

    def test_month_bounds(self):
        with pytest.raises(DataError):
            MonthKey(2020, 0)
        with pytest.raises(DataError):
            MonthKey(2020, 13)

    def test_ordering_is_chronological(self):
        assert MonthKey(2019, 12) < MonthKey(2020, 1) < MonthKey(2020, 2)

    def test_shift_rolls_over_years(self):
        assert MonthKey(2020, 1).shift(-1) == MonthKey(2019, 12)
        assert MonthKey(2020, 11).shift(3) == MonthKey(2021, 2)
        assert MonthKey(2020, 6).shift(-18) == MonthKey(2018, 12)

    def test_ordinal_roundtrip(self):
        m = MonthKey(1999, 7)
        assert MonthKey.from_ordinal(m.ordinal) == m

    def test_months_between(self):
        assert months_between(MonthKey(2020, 1), MonthKey(2020, 1)) == 0
        assert months_between(MonthKey(2019, 11), MonthKey(2020, 2)) == 3
        assert months_between(MonthKey(2020, 2), MonthKey(2019, 11)) == -3

    def test_month_range_inclusive(self):
        r = month_range(MonthKey(2019, 11), MonthKey(2020, 2))
        assert [str(m) for m in r] == ["2019-11", "2019-12", "2020-01", "2020-02"]
        assert month_range(MonthKey(2020, 2), MonthKey(2020, 1)) == []


class TestMonthlySeries:
    def test_construction_from_pairs(self):
        pairs = [(MonthKey(2020, 1), 1.0), (MonthKey(2020, 2), 2.0)]
        a = MonthlySeries("a", pairs)
        b = MonthlySeries("b", iter(pairs))
        assert a.values() == b.values() == (1.0, 2.0)
        assert a.unit == "index-level"

    def test_duplicate_month_rejected(self):
        with pytest.raises(DataError, match="duplicate"):
            MonthlySeries("s", [(MonthKey(2020, 1), 1.0), (MonthKey(2020, 1), 2.0)])

    def test_non_monotone_rejected(self):
        with pytest.raises(DataError, match="non-monotone"):
            MonthlySeries("s", [(MonthKey(2020, 2), 1.0), (MonthKey(2020, 1), 2.0)])

    def test_unknown_unit_rejected(self):
        with pytest.raises(DataError, match="unit"):
            MonthlySeries("s", [], unit="furlongs")

    def test_getitem_missing_month(self, series_factory):
        s = series_factory("2020-01", [1.0, 2.0])
        assert s[MonthKey(2020, 2)] == 2.0
        with pytest.raises(MissingMonthsError) as err:
            s[MonthKey(2021, 1)]
        assert err.value.months == (MonthKey(2021, 1),)

    def test_gaps_are_allowed(self):
        s = MonthlySeries(
            "s", [(MonthKey(2020, 1), 1.0), (MonthKey(2020, 5), 2.0)]
        )
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
        pairs = [(MonthKey(2020, 1), 1.0), (MonthKey(2020, 3), bad)]
        with pytest.raises(DataError) as err:
            MonthlySeries("gas", pairs)
        assert str(err.value) == (
            f"series 'gas': {bad!r} at 2020-03 is not finite"
        )

    def test_one_array_with_nan_for_absent_months(self):
        s = MonthlySeries(
            "s", [(MonthKey(2020, 1), 1.0), (MonthKey(2020, 3), 3.0)]
        )
        assert "_present" not in MonthlySeries.__slots__
        start, now, then = s.lagged(1)
        assert start == MonthKey(2020, 2).ordinal
        assert now.tobytes() == np.array([np.nan, 3.0]).tobytes()
        assert then.tobytes() == np.array([1.0, np.nan]).tobytes()
        assert not now.flags.writeable

    def test_empty_series_first_month_errors(self):
        with pytest.raises(DataError, match="empty"):
            MonthlySeries("s", []).first_month()


class TestPctChange:
    def test_constant_series_is_zero(self, series_factory):
        s = series_factory("2018-01", [100.0] * 30)
        out = pct_change(s, 12)
        assert len(out) == 18
        assert all(v == 0.0 for v in out.values())
        assert out.unit == "percent"

    def test_direct_substitution(self, series_factory):
        values = [100.0] * 12 + [108.0]
        s = series_factory("2019-01", values)
        out = pct_change(s, 12)
        assert out[MonthKey(2020, 1)] == pytest.approx(8.0, rel=1e-14)

    def test_geometric_series_constant(self, series_factory):
        s = series_factory("2015-01", [100.0 * 1.002**t for t in range(40)])
        out = pct_change(s, 12)
        assert len(out) == 28
        for v in out.values():
            assert v == pytest.approx(GEOMETRIC_PCT, rel=1e-10)

    def test_window_one(self, series_factory):
        s = series_factory("2020-01", [200.0, 201.0])
        assert pct_change(s, 1)[MonthKey(2020, 2)] == pytest.approx(0.5)

    def test_scale_invariance(self, series_factory, rng):
        values = list(100.0 + rng.uniform(0, 20, size=30))
        a = pct_change(series_factory("2015-01", values), 12)
        b = pct_change(
            series_factory("2015-01", [7.25 * v for v in values]), 12
        )
        for x, y in zip(a.values(), b.values()):
            assert y == pytest.approx(x, rel=1e-12, abs=1e-12)

    def test_output_only_where_inputs_exist(self):
        # A hole at t-12 suppresses the output month, never invents one.
        months = [MonthKey(2019, 1).shift(i) for i in range(25)]
        pairs = [(m, 100.0) for m in months if m != MonthKey(2019, 3)]
        out = pct_change(MonthlySeries("s", pairs), 12)
        assert MonthKey(2020, 3) not in out
        assert MonthKey(2020, 2) in out

    def test_zero_denominator_collected(self, series_factory):
        values = [100.0, 0.0, 100.0] + [100.0] * 12
        s = series_factory("2019-01", values)
        with pytest.raises(ZeroDenominatorError) as err:
            pct_change(s, 12)
        assert err.value.months == (MonthKey(2020, 2),)

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
    def test_zero_fixed_point(self):
        assert annualize(0.0) == 0.0
        assert deannualize(0.0) == 0.0

    def test_oracle_values(self):
        assert annualize(1.0) == pytest.approx(ANNUALIZED_ONE, rel=1e-14)
        assert deannualize(12.0) == pytest.approx(DEANNUALIZED_TWELVE, rel=1e-14)

    def test_roundtrip_named_points(self):
        for x in (-0.5, 0.3, 2.0):
            assert deannualize(annualize(x)) == pytest.approx(x, rel=1e-12)

    def test_roundtrip_other_direction(self):
        for x in (-3.0, 0.7, 25.0):
            assert annualize(deannualize(x)) == pytest.approx(x, rel=1e-12)

    def test_monotonicity(self):
        assert annualize(-1.0) < annualize(0.0) < annualize(0.5) < annualize(2.0)

    def test_domain_errors(self):
        for bad in (-100.0, -100.5, -200.0):
            with pytest.raises(DomainError):
                annualize(bad)
            with pytest.raises(DomainError):
                deannualize(bad)

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
    def test_rates_at_or_below_minus_100_raise(self, x):
        with pytest.raises(DomainError):
            annualize(x)
        with pytest.raises(DomainError):
            deannualize(x)


class TestMovingAveragePredictor:
    def test_constant_history(self, series_factory):
        s = series_factory("2019-01", [3.0] * 12, unit="percent")
        assert moving_average_predictor(s, MonthKey(2020, 1)) == 3.0

    def test_arithmetic_series_mean(self):
        # pi_{t-k} = k for k = 1..12; mean is 6.5.
        t = MonthKey(2021, 6)
        s = MonthlySeries(
            "pi", sorted((t.shift(-k), float(k)) for k in range(1, 13)), "percent"
        )
        assert moving_average_predictor(s, t) == 6.5

    def test_matches_brute_force_mean(self, rng):
        t = MonthKey(2022, 4)
        values = {t.shift(-k): float(v) for k, v in
                  zip(range(1, 13), rng.normal(2.0, 1.5, 12))}
        s = MonthlySeries("pi", sorted(values.items()), "percent")
        expected = math.fsum(values.values()) / 12
        assert moving_average_predictor(s, t) == expected

    def test_value_at_t_never_used(self, series_factory):
        t = MonthKey(2020, 1)
        with_t = series_factory("2019-01", [2.0] * 12 + [99.0], unit="percent")
        without_t = series_factory("2019-01", [2.0] * 12, unit="percent")
        assert (
            moving_average_predictor(with_t, t)
            == moving_average_predictor(without_t, t)
            == 2.0
        )

    def test_missing_lags_named(self, series_factory):
        s = series_factory("2019-01", [1.0] * 10, unit="percent")  # ends 2019-10
        with pytest.raises(MissingMonthsError) as err:
            moving_average_predictor(s, MonthKey(2020, 1))
        assert MonthKey(2019, 12) in err.value.months
        assert MonthKey(2019, 11) in err.value.months
        assert err.value.months == tuple(sorted(err.value.months))

    def test_permutation_invariance(self, rng):
        t = MonthKey(2021, 1)
        values = list(rng.normal(0, 5, 12))
        base = None
        for _ in range(20):
            rng.shuffle(values)
            s = MonthlySeries(
                "pi",
                sorted((t.shift(-k - 1), values[k]) for k in range(12)),
                "percent",
            )
            got = moving_average_predictor(s, t)
            base = got if base is None else base
            assert got == base

    def test_bounded_by_inputs(self, rng):
        t = MonthKey(2021, 1)
        values = list(rng.normal(0, 5, 12))
        s = MonthlySeries(
            "pi", sorted((t.shift(-k - 1), values[k]) for k in range(12)), "percent"
        )
        assert min(values) <= moving_average_predictor(s, t) <= max(values)


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
    series = MonthlySeries(
        "pi",
        [(origin.shift(i), v) for i, v in enumerate(values) if i not in gaps],
        "percent",
    )
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
