"""Forecast accuracy metrics and the equal-predictive-ability test.

Losses are squared errors throughout. The Giacomini-White test works
on the loss differential d_t = e_A(t)^2 - e_B(t)^2: the unconditional
variant asks whether its mean is zero, the conditional variant whether
yesterday's differential predicts today's. Two models' forecasts are
lined up on the month ordinals both cover.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError, DegenerateLossError, NumericError, OverflowMonthsError
from .nowcast import ForecastSeries
from .timeseries import MonthKey

GW_VARIANTS = ("unconditional", "conditional-lag1")
#: Each RMSE unit and the factor that takes percent values to it.
RMSE_UNITS = {"fraction": 0.01, "percent": 1.0}


def rmse(forecasts: Sequence[float], realized: Sequence[float]) -> float:
    """Root mean squared forecast error."""
    forecasts = np.asarray(forecasts, dtype=float)
    realized = np.asarray(realized, dtype=float)
    if forecasts.shape != realized.shape or forecasts.ndim != 1:
        raise DataError(
            f"rmse needs two equal-length vectors, got shapes "
            f"{forecasts.shape} and {realized.shape}"
        )
    if forecasts.size == 0:
        raise DataError("rmse of empty vectors is undefined")
    with np.errstate(over="ignore"):
        value = float(np.sqrt(np.mean((forecasts - realized) ** 2)))
    if np.isinf(value):
        raise NumericError("rmse overflows: the squared errors sum past float64")
    return value


def squared_errors(series: ForecastSeries) -> np.ndarray:
    """Squared annualized forecast errors of series. OverflowMonthsError
    names the model and every month whose square overflows."""
    with np.errstate(over="ignore"):
        squares = series.errors() ** 2
    overflow = np.isinf(squares)
    if overflow.any():
        raise OverflowMonthsError(
            f"model {series.model!r}: squared forecast error overflows",
            map(MonthKey.from_ordinal, series.months[overflow].tolist()),
        )
    return squares


@dataclass(frozen=True, eq=False)
class LossDifferential:
    """Squared-error loss differences of two models on common months,
    given as int64 month ordinals."""

    months: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        if len(self.months) != len(self.d):
            raise DataError("months and d lengths differ")
        if len(self.d) < 2:
            raise DataError("loss differential needs at least 2 months")


def loss_differential(a: ForecastSeries, b: ForecastSeries) -> LossDifferential:
    """d_t = e_A(t)^2 - e_B(t)^2 on the months both series cover."""
    common, in_a, in_b = np.intersect1d(
        a.months, b.months, assume_unique=True, return_indices=True
    )
    if len(common) < 2:
        raise DataError(
            f"models {a.model!r} and {b.model!r} share {len(common)} "
            "months; need at least 2"
        )
    return LossDifferential(common, squared_errors(a)[in_a] - squared_errors(b)[in_b])


def _unit_scale(unit: str) -> float:
    if unit not in RMSE_UNITS:
        raise DataError(f"unit must be one of {tuple(RMSE_UNITS)}, got {unit!r}")
    return RMSE_UNITS[unit]


@dataclass(frozen=True)
class GWResult:
    statistic: float
    df: int
    p_value: float
    variant: str
    n: int
    mean_differential: float


def _bartlett_variance(d: np.ndarray, truncation_lag: int) -> float:
    """Long-run variance with Bartlett weights; lag 0 is the ML variance."""
    n = len(d)
    centered = d - d.mean()
    gamma0 = float(centered @ centered) / n
    variance = gamma0
    for j in range(1, truncation_lag + 1):
        gamma_j = float(centered[j:] @ centered[:-j]) / n
        variance += 2.0 * (1.0 - j / (truncation_lag + 1)) * gamma_j
    return variance


def giacomini_white(
    errors_a: Sequence[float],
    errors_b: Sequence[float],
    variant: str = "unconditional",
    *,
    truncation_lag: int = 0,
) -> GWResult:
    """Equal predictive ability test on two forecast-error sequences.

    unconditional: statistic = n * dbar^2 / var(d) with a Bartlett
    long-run variance (truncation_lag 0 suits one-step forecasts whose
    differential is serially uncorrelated under the null), chi-square
    with 1 df. conditional-lag1: regress d_t on (1, d_{t-1}); statistic
    is (n-1) times the uncentered R-squared, chi-square with 2 df.

    A differential with zero variance is degenerate: it means the two
    error sequences are copies (statistic 0, p 1) or differ by a
    constant, which signals duplicated inputs and raises.
    """
    if variant not in GW_VARIANTS:
        raise DataError(f"variant must be one of {GW_VARIANTS}, got {variant!r}")
    a = np.asarray(errors_a, dtype=float)
    b = np.asarray(errors_b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise DataError(
            f"error sequences must be equal-length vectors, got shapes "
            f"{a.shape} and {b.shape}"
        )
    n = a.size
    minimum = 8 if variant == "unconditional" else 9
    if n < minimum:
        raise DataError(f"{variant} variant needs n >= {minimum}, got {n}")
    if truncation_lag < 0 or truncation_lag >= n:
        raise DataError(
            f"truncation_lag must be in 0..{n - 1}, got {truncation_lag}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        d = a**2 - b**2
        # Bounds the variances and the statistic below, so they stay finite.
        sum_of_squares = float(d @ d)
    if not np.isfinite(sum_of_squares):
        raise NumericError("loss differential's sum of squares is not finite")
    dbar = float(d.mean())

    if np.all(d == d[0]):
        if d[0] == 0.0:
            return GWResult(0.0, 1 if variant == "unconditional" else 2,
                            1.0, variant, n, 0.0)
        raise DegenerateLossError(
            f"loss differential is the constant {d[0]}: zero variance "
            "with non-zero mean (duplicated forecasts?)"
        )

    if variant == "unconditional":
        variance = _bartlett_variance(d, truncation_lag)
        if variance <= 0.0:
            raise DegenerateLossError(
                "long-run variance of the loss differential is not positive; "
                "try a smaller truncation lag"
            )
        statistic = n * dbar**2 / variance
        df = 1
    else:
        response = d[1:]
        instruments = np.column_stack([np.ones(n - 1), d[:-1]])
        coef, *_ = np.linalg.lstsq(instruments, response, rcond=None)
        ssr = float(np.sum((response - instruments @ coef) ** 2))
        tss = float(response @ response)
        r2_uncentered = 1.0 - ssr / tss if tss > 0.0 else 0.0
        statistic = (n - 1) * r2_uncentered
        df = 2
    from scipy.special import chdtrc  # here, so importing newscast loads no scipy

    p_value = float(chdtrc(df, statistic))
    return GWResult(float(statistic), df, p_value, variant, n, dbar)


def gw_from_forecasts(
    a: ForecastSeries,
    b: ForecastSeries,
    variant: str = "unconditional",
    *,
    unit: str = "fraction",
    truncation_lag: int = 0,
) -> GWResult:
    """giacomini_white on the aligned annualized errors of two series."""
    scale = _unit_scale(unit)
    months = loss_differential(a, b).months
    return giacomini_white(
        a.errors()[np.searchsorted(a.months, months)] * scale,
        b.errors()[np.searchsorted(b.months, months)] * scale,
        variant,
        truncation_lag=truncation_lag,
    )


@dataclass(frozen=True)
class ModelEvaluation:
    model: str
    rmse: float
    gw: GWResult | None  # None for the baseline row


def evaluate_forecasts(
    forecasts: Sequence[ForecastSeries],
    *,
    variant: str = "unconditional",
    unit: str = "fraction",
    truncation_lag: int = 0,
) -> tuple[ModelEvaluation, ...]:
    """RMSE per model and GW tests of each model against the first, as
    one row per model in the order given; the first row is the baseline.

    Every model must cover exactly the baseline's months, so RMSE and
    GW see the same months. RMSE is computed on annualized values;
    unit "fraction" divides percent values by 100 (so an RMSE printed
    as 0.0409 means 4.09 percentage points of annualized inflation),
    "percent" leaves them as-is.
    """
    if not forecasts:
        raise DataError("evaluate_forecasts needs at least one model")
    scale = _unit_scale(unit)
    names = [f.model for f in forecasts]
    if len(set(names)) != len(names):
        raise DataError(f"duplicate model names in evaluation: {names}")
    baseline = forecasts[0]
    entries = []
    for series in forecasts:
        if not np.array_equal(series.months, baseline.months):
            raise DataError(
                f"model {series.model!r} covers different months than the "
                f"baseline {baseline.model!r}"
            )
        squared_errors(series)  # names the months whose square overflows
        predicted = series.nowcasts_annualized * scale
        actual = series.realized_annualized * scale
        gw = None
        if series is not baseline:
            gw = gw_from_forecasts(
                baseline,
                series,
                variant,
                unit=unit,
                truncation_lag=truncation_lag,
            )
        entries.append(
            ModelEvaluation(model=series.model, rmse=rmse(predicted, actual), gw=gw)
        )
    return tuple(entries)
