"""RMSE and the equal-predictive-ability test."""

import math

import numpy as np
import pytest
from scipy import stats

from newscast import (
    DataError,
    DegenerateLossError,
    ForecastSeries,
    GWResult,
    MonthKey,
    NumericError,
    OverflowMonthsError,
    annualize,
    evaluate_forecasts,
    giacomini_white,
    gw_from_forecasts,
    loss_differential,
    rmse,
)
from newscast.evaluation import _bartlett_variance

# Frozen 50-digit oracle values.
RMSE_3_4 = 3.5355339059327376220  # sqrt((3^2 + 4^2) / 2)
P_CHI2_8_DF1 = 0.004677734981047266  # chi-square sf(8, df=1)
COND_STAT = 0.9435353088603863  # scripted conditional case below
COND_P = 0.6238984561209335

# Scripted conditional-lag1 fixture (n = 9).
COND_A = (1.0, 2.0, 1.5, 0.5, 1.0, 2.5, 1.0, 0.5, 2.0)
COND_B = (0.5, 1.5, 2.0, 1.0, 0.5, 2.0, 1.5, 1.0, 0.5)


def make_fs(model, start, nowcasts, realized):
    m0 = MonthKey.parse(start).ordinal
    months = range(m0, m0 + len(nowcasts))
    return ForecastSeries(
        model=model,
        months=months,
        nowcasts=tuple(nowcasts),
        nowcasts_annualized=tuple(annualize(v) for v in nowcasts),
        realized=tuple(realized),
        realized_annualized=tuple(annualize(v) for v in realized),
    )


class TestRmse:
    def test_frozen_oracle(self):
        assert rmse([3.0, 4.0], [0.0, 0.0]) == pytest.approx(RMSE_3_4, rel=1e-14)

    def test_perfect_forecast(self):
        assert rmse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_constant_error(self):
        assert rmse([1.0, 2.0], [3.0, 4.0]) == pytest.approx(2.0)
        assert rmse([3.0, 4.0], [1.0, 2.0]) == pytest.approx(2.0)

    def test_shift_invariance(self, rng):
        f = rng.normal(size=20)
        r = rng.normal(size=20)
        assert rmse(f + 5.0, r + 5.0) == pytest.approx(rmse(f, r), rel=1e-12)

    def test_scale_equivariance(self, rng):
        f = rng.normal(size=20)
        r = rng.normal(size=20)
        assert rmse(3.0 * f, 3.0 * r) == pytest.approx(3.0 * rmse(f, r), rel=1e-12)

    def test_validation(self):
        with pytest.raises(DataError):
            rmse([], [])
        with pytest.raises(DataError):
            rmse([1.0], [1.0, 2.0])


class TestLossDifferential:
    def test_formula_and_alignment(self):
        a = make_fs("a", "2020-01", [0.0, 0.0, 0.0], [1.0, 2.0, 3.0])
        b = make_fs("b", "2020-01", [0.0, 0.0, 0.0], [2.0, 1.0, 3.0])
        diff = loss_differential(a, b)
        assert diff.months.tolist() == a.months.tolist()
        ea = np.array([annualize(v) for v in (1.0, 2.0, 3.0)])
        eb = np.array([annualize(v) for v in (2.0, 1.0, 3.0)])
        np.testing.assert_allclose(diff.d, ea**2 - eb**2)
        assert diff.d[2] == 0.0

    def test_restricts_to_common_months(self):
        a = make_fs("a", "2020-01", [0.0] * 4, [1.0, 2.0, 3.0, 4.0])
        b = make_fs("b", "2020-02", [0.0] * 3, [1.0, 1.0, 1.0])
        diff = loss_differential(a, b)
        assert diff.months.tolist() == b.months.tolist()
        np.testing.assert_array_equal(
            diff.d, a.errors()[1:] ** 2 - b.errors() ** 2
        )

    def test_too_few_common_months(self):
        a = make_fs("a", "2020-01", [0.0, 0.0], [1.0, 2.0])
        b = make_fs("b", "2021-01", [0.0, 0.0], [1.0, 2.0])
        with pytest.raises(DataError, match="common|share"):
            loss_differential(a, b)

    def test_months_must_increase(self):
        # Alignment looks months up in sorted order.
        with pytest.raises(DataError, match="'a' are not increasing"):
            ForecastSeries("a", [24241, 24241], *[[0.0, 0.0]] * 4)
        with pytest.raises(DataError, match="'a' are not increasing"):
            ForecastSeries("a", [24242, 24241], *[[0.0, 0.0]] * 4)


class TestGiacominiWhiteUnconditional:
    def test_scripted_statistic(self):
        # d = [8,0,8,0,8,0,8,0]: dbar=4, ML variance=16,
        # statistic = 8*16/16 = 8 exactly.
        a = [3.0, 1.0, 3.0, 1.0, 3.0, 1.0, 3.0, 1.0]
        b = [1.0] * 8
        res = giacomini_white(a, b)
        assert res.statistic == 8.0
        assert res.df == 1
        assert res.n == 8
        assert res.mean_differential == 4.0
        assert res.p_value == pytest.approx(P_CHI2_8_DF1, rel=1e-12)

    def test_mean_zero_differential_scores_zero(self):
        # d alternates +/-3, +/-7, ... and sums to zero.
        a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
        b = [2.0, 1.0, 4.0, 3.0, 6.0, 5.0, 8.0, 7.0]
        res = giacomini_white(a, b)
        assert res.statistic == 0.0
        assert res.p_value == 1.0
        assert res.mean_differential == 0.0

    def test_matches_formula_replay(self, rng):
        a = rng.normal(size=30)
        b = rng.normal(size=30)
        res = giacomini_white(a, b)
        d = a**2 - b**2
        expected = 30 * d.mean() ** 2 / ((d - d.mean()) ** 2).mean()
        assert res.statistic == pytest.approx(expected, rel=1e-12)

    def test_swap_preserves_statistic(self, rng):
        a = rng.normal(size=25)
        b = rng.normal(size=25)
        ab = giacomini_white(a, b)
        ba = giacomini_white(b, a)
        assert ba.statistic == pytest.approx(ab.statistic, rel=1e-12)
        assert ba.mean_differential == pytest.approx(
            -ab.mean_differential, rel=1e-12
        )

    def test_power_of_two_rescale_is_exact(self, rng):
        a = rng.normal(size=25)
        b = rng.normal(size=25)
        base = giacomini_white(a, b)
        scaled = giacomini_white(2.0 * a, 2.0 * b)
        assert scaled.statistic == base.statistic
        assert scaled.p_value == base.p_value

    def test_p_decreases_with_statistic(self):
        small = giacomini_white([3.0, 1.0] * 4, [1.0] * 8)
        # Larger mean differential with the same spread: bigger stat.
        big = giacomini_white([4.0, 3.0] * 8, [1.0] * 16)
        assert big.statistic > small.statistic
        assert big.p_value < small.p_value

    def test_minimum_sample_size(self):
        with pytest.raises(DataError, match="n >= 8"):
            giacomini_white([1.0, 2.0] * 3 + [1.5], [1.0] * 7)
        giacomini_white([1.0, 2.0] * 4, [1.0] * 8)  # n=8 passes


class TestGwPValue:
    def test_matches_scipy_stats_bitwise(self, rng):
        for variant in ("unconditional", "conditional-lag1"):
            res = giacomini_white(rng.normal(size=40), rng.normal(size=40), variant)
            assert res.p_value == stats.chi2.sf(res.statistic, res.df)


class TestGiacominiWhiteConditional:
    def test_scripted_statistic(self):
        res = giacomini_white(COND_A, COND_B, "conditional-lag1")
        assert res.df == 2
        assert res.n == 9
        assert res.statistic == pytest.approx(COND_STAT, rel=1e-12)
        assert res.p_value == pytest.approx(COND_P, rel=1e-12)

    def test_matches_normal_equations_replay(self, rng):
        a = rng.normal(size=40)
        b = rng.normal(size=40)
        res = giacomini_white(a, b, "conditional-lag1")
        d = a**2 - b**2
        Z = np.column_stack([np.ones(39), d[:-1]])
        coef = np.linalg.solve(Z.T @ Z, Z.T @ d[1:])
        ssr = float(np.sum((d[1:] - Z @ coef) ** 2))
        r2u = 1.0 - ssr / float(d[1:] @ d[1:])
        assert res.statistic == pytest.approx(39 * r2u, rel=1e-10)
        # chi-square sf with 2 df is exp(-x/2).
        assert res.p_value == pytest.approx(
            math.exp(-res.statistic / 2.0), rel=1e-12
        )

    def test_minimum_sample_size(self):
        with pytest.raises(DataError, match="n >= 9"):
            giacomini_white(COND_A[:8], COND_B[:8], "conditional-lag1")


class TestGiacominiWhiteDegenerate:
    def test_identical_errors_accept_null(self):
        errors = [1.0, -2.0, 0.5, 3.0, -1.0, 2.0, 0.25, -0.5]
        res = giacomini_white(errors, list(errors))
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_identical_errors_conditional(self):
        errors = [1.0, -2.0, 0.5, 3.0, -1.0, 2.0, 0.25, -0.5, 1.5]
        res = giacomini_white(errors, list(errors), "conditional-lag1")
        assert res.statistic == 0.0
        assert res.p_value == 1.0
        assert res.df == 2

    def test_constant_nonzero_differential_raises(self):
        with pytest.raises(DegenerateLossError, match="constant"):
            giacomini_white([2.0] * 8, [1.0] * 8)

    def test_sign_flips_are_not_degenerate(self):
        # Squared losses ignore signs, so sign-flipped copies are
        # exact-copy degenerate too.
        errors = [1.0, -2.0, 0.5, 3.0, -1.0, 2.0, 0.25, -0.5]
        res = giacomini_white(errors, [-e for e in errors])
        assert res.statistic == 0.0
        assert res.p_value == 1.0


class TestBartlettVariance:
    def test_lag0_is_ml_variance(self, rng):
        d = rng.normal(size=20)
        assert _bartlett_variance(d, 0) == pytest.approx(
            ((d - d.mean()) ** 2).mean(), rel=1e-12
        )

    def test_lag2_hand_formula(self):
        d = np.array([1.0, 3.0, 2.0, 5.0, 4.0, 6.0, 2.0, 3.0])
        c = d - d.mean()
        n = len(d)
        gamma = lambda j: float(c[j:] @ c[:-j]) / n if j else float(c @ c) / n
        expected = gamma(0) + 2 * (2 / 3) * gamma(1) + 2 * (1 / 3) * gamma(2)
        assert _bartlett_variance(d, 2) == pytest.approx(expected, rel=1e-12)

    def test_truncation_lag_feeds_statistic(self, rng):
        a = rng.normal(size=30)
        b = rng.normal(size=30)
        res = giacomini_white(a, b, truncation_lag=2)
        d = a**2 - b**2
        expected = 30 * d.mean() ** 2 / _bartlett_variance(d, 2)
        assert res.statistic == pytest.approx(expected, rel=1e-12)

    def test_truncation_lag_validated(self):
        with pytest.raises(DataError, match="truncation_lag"):
            giacomini_white([1.0, 2.0] * 4, [1.0] * 8, truncation_lag=-1)
        with pytest.raises(DataError, match="truncation_lag"):
            giacomini_white([1.0, 2.0] * 4, [1.0] * 8, truncation_lag=8)


class TestGwValidation:
    def test_variant_names(self):
        with pytest.raises(DataError, match="variant"):
            giacomini_white([1.0] * 8, [1.0] * 8, "two-sided")

    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            giacomini_white([1.0] * 8, [1.0] * 9)


class TestGwFromForecasts:
    def _pair(self, rng, n=24):
        base = rng.uniform(0.1, 0.5, n)
        a = make_fs("a", "2020-01", base + rng.normal(0, 0.1, n), base)
        b = make_fs("b", "2020-01", base + rng.normal(0, 0.12, n), base)
        return a, b

    def test_unconditional_unit_invariant(self, rng):
        # The unconditional statistic is scale-free, so the unit flag
        # cannot move it.
        a, b = self._pair(rng)
        frac = gw_from_forecasts(a, b, unit="fraction")
        pct = gw_from_forecasts(a, b, unit="percent")
        assert frac.statistic == pytest.approx(pct.statistic, rel=1e-9)

    def test_conditional_unit_invariant(self, rng):
        # R-squared survives rescaling the response and the lag column
        # together, so the conditional statistic is unit-free as well;
        # the unit flag only changes reported RMSE magnitudes.
        a, b = self._pair(rng)
        frac = gw_from_forecasts(a, b, "conditional-lag1", unit="fraction")
        pct = gw_from_forecasts(a, b, "conditional-lag1", unit="percent")
        assert frac.statistic == pytest.approx(pct.statistic, rel=1e-9)
        assert frac.mean_differential == pytest.approx(
            pct.mean_differential * 1e-4, rel=1e-9
        )

    def test_alignment_with_offset_windows(self, rng):
        long = make_fs("long", "2020-01", [0.1] * 14,
                       list(rng.uniform(0.0, 0.3, 14)))
        short = make_fs(
            "short", "2020-03",
            list(rng.uniform(0.0, 0.3, 12)), list(rng.uniform(0.0, 0.3, 12)),
        )
        res = gw_from_forecasts(long, short)
        assert res.n == 12
        assert res == giacomini_white(long.errors()[2:] * 0.01, short.errors() * 0.01)


def huge_fs(model, realized, nowcasts=None):
    """A series from 2020-01 whose monthly and annualized columns are
    both realized and nowcasts (zeros by default)."""
    m0 = MonthKey.parse("2020-01").ordinal
    nowcasts = [0.0] * len(realized) if nowcasts is None else nowcasts
    return ForecastSeries(
        model, range(m0, m0 + len(realized)), nowcasts, nowcasts, realized, realized
    )


@pytest.mark.filterwarnings("error")
class TestOverflow:
    def test_squared_error_names_model_and_months(self):
        fed = huge_fs("fed", [1e200, 1.0, -1e160, 2.0] * 3)
        news = huge_fs("news", [1.0] * 12)
        message = (
            "model 'fed': squared forecast error overflows: "
            "2020-01, 2020-03, 2020-05, 2020-07, 2020-09, 2020-11"
        )
        for call in (
            lambda: evaluate_forecasts([fed]),
            lambda: evaluate_forecasts([news, fed]),
            lambda: loss_differential(news, fed),
        ):
            with pytest.raises(OverflowMonthsError) as caught:
                call()
            assert str(caught.value) == message
            assert caught.value.months[0] == MonthKey(2020, 1)

    def test_overflowing_error_difference_is_named(self):
        # realized - nowcast = 1e308 - -1e308 overflows before the square.
        fed = huge_fs("fed", [1.0, 1e308], nowcasts=[0.0, -1e308])
        with pytest.raises(OverflowMonthsError, match="'fed'.*: 2020-02$"):
            evaluate_forecasts([fed])

    def test_gw_refuses_a_differential_whose_squares_overflow(self):
        # Each squared error (1e200) is finite; their squares are not.
        a = [1e100] + [1.0] * 11
        for variant in ("unconditional", "conditional-lag1"):
            with pytest.raises(NumericError, match="sum of squares is not finite"):
                giacomini_white(a, [0.5] * 12, variant)
        with pytest.raises(NumericError, match="sum of squares is not finite"):
            evaluate_forecasts([huge_fs("fed", [1.0] * 12), huge_fs("news", a)])

    def test_rmse_refuses_a_sum_that_overflows(self):
        with pytest.raises(NumericError, match="rmse overflows"):
            rmse([1e154, 1e154], [0.0, 0.0])

    def test_large_finite_losses_still_test(self):
        a = [1e70, 2.0, 1.0, 3.0] * 3
        result = giacomini_white(a, [1.0] * 12)
        assert math.isfinite(result.statistic) and 0.0 < result.p_value < 1.0
        assert math.isfinite(rmse(a, [0.0] * 12))


class TestEvaluateForecasts:
    def _forecasts(self, rng, n=24):
        base = rng.uniform(0.1, 0.4, n)
        return [
            make_fs("fed", "2020-01", base + rng.normal(0, 0.1, n), base),
            make_fs("fed+news", "2020-01", base + rng.normal(0, 0.08, n), base),
        ]

    def test_report_structure(self, rng):
        report = evaluate_forecasts(self._forecasts(rng))
        assert [e.model for e in report] == ["fed", "fed+news"]
        assert report[0].gw is None
        assert isinstance(report[1].gw, GWResult)
        assert report[1].gw.n == 24

    def test_rmse_matches_direct_computation(self, rng):
        forecasts = self._forecasts(rng)
        report = evaluate_forecasts(forecasts, unit="fraction")
        for fs, entry in zip(forecasts, report):
            expected = rmse(
                fs.nowcasts_annualized * 0.01, fs.realized_annualized * 0.01
            )
            assert entry.rmse == expected

    def test_fraction_is_percent_over_100(self, rng):
        forecasts = self._forecasts(rng)
        frac = evaluate_forecasts(forecasts, unit="fraction")
        pct = evaluate_forecasts(forecasts, unit="percent")
        for ef, ep in zip(frac, pct):
            assert ef.rmse == pytest.approx(ep.rmse / 100.0, rel=1e-12)

    def test_single_model_report(self, rng):
        report = evaluate_forecasts(self._forecasts(rng)[:1])
        assert len(report) == 1
        assert report[0].gw is None

    def test_validation(self, rng):
        with pytest.raises(DataError, match="at least one"):
            evaluate_forecasts([])
        with pytest.raises(DataError, match="unit"):
            evaluate_forecasts(self._forecasts(rng), unit="bps")
        dup = self._forecasts(rng)
        dup[1] = make_fs("fed", "2020-01", [0.1] * 24, [0.2] * 24)
        with pytest.raises(DataError, match="duplicate"):
            evaluate_forecasts(dup)

    def test_mismatched_coverage_rejected(self, rng):
        # RMSE would use each model's months but GW only the common ones.
        forecasts = self._forecasts(rng)
        forecasts.append(make_fs("news", "2020-02", [0.1] * 24, [0.2] * 24))
        with pytest.raises(DataError, match="'news' covers different months"):
            evaluate_forecasts(forecasts)
