"""Inflation nowcasting models: specification, fitting, backtesting.

A model is a name that MODEL_SPECS maps to its regressors. It regresses
the monthly CPI percent change on an intercept and the regressors'
percent changes over a training window. At nowcast time the regressors
that are not yet released (the price components) are imputed with the
mean of their previous 12 values; the news sentiment regressor is
observable in real time and enters with its exact value for the target
month.

fit_model fits the [1, regressors...] design of one window with
fit_ols, the solve core plus the inference that the fit command writes.
backtest builds each model's design once over every month its windows
cover and runs the solve core alone, in one call for all its windows.
Nowcasts are columns over a span of months: each regressor is read as
one array (the news values, or a price index's moving averages) and
b0 + b1*x1 + ... is added in design order, so each nowcast equals the
scalar sum for its month. ForecastSeries.DTYPES declares its columns.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, DataError, DomainError, MissingMonthsError
from .ols import RegressionResult, fit_ols, solve_windows
from .timeseries import (
    MonthKey,
    MonthlySeries,
    annualize,
    moving_average_predictor,  # noqa: F401 -- wrapped by name in benchmarks/bench_trace.py
    moving_averages,
)

TARGET_KEY = "cpi"
NEWS_KEY = "news"

#: Table labels for each regressor identifier.
REGRESSOR_LABELS = {
    "ccpi": "pi-CCPI",
    "fcpi": "pi-FCPI",
    "gas": "pi-Gasoline",
    "news": "pi-NEWS",
}
INTERCEPT_LABEL = "const"


#: Each model's regressors, in design order after the intercept.
MODEL_SPECS: dict[str, tuple[str, ...]] = {
    "fed": ("ccpi", "fcpi", "gas"),
    "news": ("news",),
    "fed+news": ("ccpi", "fcpi", "gas", "news"),
    "fed-gas+news": ("ccpi", "fcpi", "news"),
    "ccpi+news": ("ccpi", "news"),
}


def resolve_spec(model: str) -> tuple[str, ...]:
    """The named model's regressors; ConfigError for an unknown name."""
    try:
        return MODEL_SPECS[model]
    except KeyError:
        raise ConfigError(
            f"unknown model spec {model!r}; known: {sorted(MODEL_SPECS)}"
        ) from None


def coefficient_names(regressors: Sequence[str]) -> tuple[str, ...]:
    """Table labels of the [1, regressors...] design's coefficients."""
    return (INTERCEPT_LABEL, *(REGRESSOR_LABELS[r] for r in regressors))


def _bundle_series(
    data: Mapping[str, MonthlySeries], key: str
) -> MonthlySeries:
    try:
        return data[key]
    except KeyError:
        raise DataError(
            f"series bundle has no {key!r} entry; got {sorted(data)}"
        ) from None


def _window_length(model: str, start: MonthKey, end: MonthKey) -> int:
    """Months in [start, end], checked to be enough to fit the model."""
    if end < start:
        raise DataError(f"training window {start}..{end} is reversed")
    n = end.ordinal - start.ordinal + 1
    if n < len(MODEL_SPECS[model]) + 2:
        raise DataError(
            f"window {start}..{end} has {n} months; "
            f"model {model!r} needs at least {len(MODEL_SPECS[model]) + 2}"
        )
    return n


def _design(
    regressors: Sequence[str],
    data: Mapping[str, MonthlySeries],
    start: MonthKey,
    end: MonthKey,
) -> tuple[np.ndarray, np.ndarray]:
    """Target values and the [1, regressors...] design over [start, end]."""
    y = _bundle_series(data, TARGET_KEY).window(start, end)
    X = np.column_stack(
        [np.ones(len(y))]
        + [_bundle_series(data, key).window(start, end) for key in regressors]
    )
    return y, X


def fit_model(
    model: str,
    data: Mapping[str, MonthlySeries],
    train_start: MonthKey,
    train_end: MonthKey,
    *,
    robust: bool = False,
) -> RegressionResult:
    """OLS fit of the named model over [train_start, train_end] inclusive.

    data maps series identifiers (cpi, ccpi, fcpi, gas, news) to
    percent-change series; every regressor and the target must cover
    the whole window.
    """
    regressors = resolve_spec(model)
    _window_length(model, train_start, train_end)
    y, X = _design(regressors, data, train_start, train_end)
    return fit_ols(y, X, names=coefficient_names(regressors), robust=robust)


def nowcast(
    model: str,
    fitted: RegressionResult,
    data: Mapping[str, MonthlySeries],
    t: MonthKey,
) -> float:
    """Nowcast of the target percent change for month t.

    Price regressors are imputed with the moving average of their LAGS
    preceding values; the news regressor uses its exact value at t.
    """
    regressors = resolve_spec(model)
    expected = coefficient_names(regressors)
    if fitted.names != expected:
        raise DataError(
            f"fitted coefficients {fitted.names} do not match model "
            f"{model!r} ({expected})"
        )
    columns = _regressor_columns(regressors, data, t, t)
    return _nowcasts(fitted.estimates[None, :], columns).item()


def _regressor_columns(
    regressors: Sequence[str],
    data: Mapping[str, MonthlySeries],
    start: MonthKey,
    end: MonthKey,
) -> list[np.ndarray]:
    """Each regressor's values at nowcast time for every month of
    [start, end], in design order: the news values themselves, and the
    moving average of each price index's LAGS preceding values."""
    columns = []
    for key in regressors:
        series = _bundle_series(data, key)
        if key == NEWS_KEY:
            columns.append(series.window(start, end))
        else:
            columns.append(moving_averages(series, start, end))
    return columns


def _nowcasts(betas: np.ndarray, columns: list[np.ndarray]) -> np.ndarray:
    """b0 + b1*x1 + b2*x2 + ..., added in design order, for each row of
    betas (one row, or one per month) against the regressor columns."""
    casts = betas[:, 0]
    for j, x in enumerate(columns, 1):
        casts = casts + betas[:, j] * x
    return casts


@dataclass(frozen=True, eq=False)
class ForecastSeries:
    """Aligned nowcasts and realizations, monthly and annualized, as
    read-only arrays: the consecutive month ordinals, then the values."""

    model: str
    months: np.ndarray
    nowcasts: np.ndarray
    nowcasts_annualized: np.ndarray
    realized: np.ndarray
    realized_annualized: np.ndarray
    #: The dtype of each column after model, in field order.
    DTYPES = (np.int64, *[np.float64] * 4)

    def __post_init__(self):
        for field, dtype in zip(fields(self)[1:], self.DTYPES):
            column = np.array(getattr(self, field.name), dtype=dtype)
            column.flags.writeable = False
            object.__setattr__(self, field.name, column)
            if len(column) != len(self.months):
                raise DataError(f"{field.name} length differs from months")
        if (np.diff(self.months) <= 0).any():
            raise DataError(f"months of model {self.model!r} are not increasing")
        if len(self) and self.months[-1] - self.months[0] >= len(self):
            span = np.arange(self.months[0], self.months[-1] + 1)
            raise MissingMonthsError(
                f"months of model {self.model!r} are not consecutive",
                map(MonthKey.from_ordinal, np.setdiff1d(span, self.months).tolist()),
            )

    def __len__(self) -> int:
        return len(self.months)

    def errors(self) -> np.ndarray:
        """Annualized forecast errors, realized minus nowcast."""
        return self.realized_annualized - self.nowcasts_annualized


BACKTEST_SCHEMES = ("fixed", "rolling")


def backtest(
    model: str,
    data: Mapping[str, MonthlySeries],
    train_window: tuple[MonthKey, MonthKey],
    eval_window: tuple[MonthKey, MonthKey],
    scheme: str = "fixed",
) -> ForecastSeries:
    """Nowcast every month of eval_window and pair with realizations.

    fixed fits once on train_window; rolling refits for each target
    month on the trailing window of the same length (so the first
    rolling fit coincides with the fixed one when the windows abut).
    Each window is a row slice of one design built over every month the
    windows cover, and only its coefficients are solved for; they and
    the nowcasts equal those of fit_model and nowcast on that window.
    The nowcasts are computed as columns over the evaluation window.

    Every input is read, one span per series, before the first window
    is solved: a month missing anywhere (a design row, a realized or
    news value, a moving-average lag) raises a MissingMonthsError that
    names the span and every month it lacks, before any window can
    raise SingularDesignError.
    """
    regressors = resolve_spec(model)
    if scheme not in BACKTEST_SCHEMES:
        raise ConfigError(
            f"scheme must be one of {BACKTEST_SCHEMES}, got {scheme!r}"
        )
    train_start, train_end = train_window
    eval_start, eval_end = eval_window
    if train_end < train_start or eval_end < eval_start:
        raise DataError("backtest windows must be chronological")
    if train_end >= eval_start:
        raise DataError(
            f"training window {train_start}..{train_end} overlaps or "
            f"follows evaluation window {eval_start}..{eval_end}"
        )
    n = _window_length(model, train_start, train_end)
    names = coefficient_names(regressors)

    realized = _bundle_series(data, TARGET_KEY).window(eval_start, eval_end)
    if scheme == "fixed":
        y, X = _design(regressors, data, train_start, train_end)
        starts = range(1)
    else:
        y, X = _design(regressors, data, eval_start.shift(-n), eval_end.shift(-1))
        starts = range(len(realized))
    columns = _regressor_columns(regressors, data, eval_start, eval_end)
    betas = np.array([s.beta for s in solve_windows(y, X, names, n, starts)])
    casts = _nowcasts(betas, columns)
    return ForecastSeries(
        model=model,
        months=np.arange(eval_start.ordinal, eval_end.ordinal + 1),
        nowcasts=casts,
        nowcasts_annualized=annualized(model, "nowcast", eval_start, casts),
        realized=realized,
        realized_annualized=annualized(model, "realized", eval_start, realized),
    )


def annualized(
    model: str, column: str, start: MonthKey, values: Iterable[float]
) -> list[float]:
    """annualize of a model's column (nowcast or realized) of values from
    month start on; a DomainError names the model, column and month."""
    out: list[float] = []
    try:
        out.extend(map(annualize, map(float, values)))
    except DomainError as exc:
        month = start.shift(len(out))
        raise DomainError(f"model {model!r}, {column} for {month}: {exc}") from None
    return out
