"""Inflation nowcasting models: specification, fitting, backtesting.

A model regresses the monthly CPI percent change on percent changes of
other indices over a training window. At nowcast time the regressors
that are not yet released (the price components) are imputed with the
mean of their previous 12 values; the news sentiment regressor is
observable in real time and enters with its exact value for the target
month.

fit_model fits the [1, regressors...] design of one window with
fit_ols, the solve core plus the inference that the fit command writes.
backtest builds each model's design once over every month its windows
cover and runs the solve core alone on each window's rows. Nowcasts are
columns over a span of months: each regressor is read as one array (the
news values, or a price index's moving averages) and b0 + b1*x1 + ...
is added in spec order, so each nowcast equals the scalar sum for its
month. A ForecastSeries holds int64 month ordinals and float64 arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, Mapping

import numpy as np

from .base import ParamMixin, check_is_fitted
from .errors import ConfigError, DataError
from .ols import RegressionResult, fit_ols, solve_ols
from .timeseries import (
    MonthKey,
    MonthlySeries,
    annualize,
    months_between,
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
DEPENDENT_LABEL = "CPI"
INTERCEPT_LABEL = "const"


@dataclass(frozen=True)
class ModelSpec:
    """Named regressor set; an intercept is always included."""

    name: str
    regressors: tuple[str, ...]

    def __post_init__(self):
        if not self.regressors:
            raise ConfigError(f"model {self.name!r} needs at least one regressor")
        unknown = [r for r in self.regressors if r not in REGRESSOR_LABELS]
        if unknown:
            raise ConfigError(
                f"model {self.name!r} has unknown regressors {unknown}; "
                f"known: {sorted(REGRESSOR_LABELS)}"
            )
        if len(set(self.regressors)) != len(self.regressors):
            raise ConfigError(f"model {self.name!r} repeats a regressor")

    @property
    def coefficient_names(self) -> tuple[str, ...]:
        return (INTERCEPT_LABEL,) + tuple(
            REGRESSOR_LABELS[r] for r in self.regressors
        )


MODEL_SPECS: dict[str, ModelSpec] = {
    spec.name: spec
    for spec in (
        ModelSpec("fed", ("ccpi", "fcpi", "gas")),
        ModelSpec("news", ("news",)),
        ModelSpec("fed+news", ("ccpi", "fcpi", "gas", "news")),
        ModelSpec("fed-gas+news", ("ccpi", "fcpi", "news")),
        ModelSpec("ccpi+news", ("ccpi", "news")),
    )
}


def resolve_spec(spec: str | ModelSpec) -> ModelSpec:
    if isinstance(spec, ModelSpec):
        return spec
    try:
        return MODEL_SPECS[spec]
    except KeyError:
        raise ConfigError(
            f"unknown model spec {spec!r}; known: {sorted(MODEL_SPECS)}"
        ) from None


def _bundle_series(
    data: Mapping[str, MonthlySeries], key: str
) -> MonthlySeries:
    try:
        return data[key]
    except KeyError:
        raise DataError(
            f"series bundle has no {key!r} entry; got {sorted(data)}"
        ) from None


def _window_length(spec: ModelSpec, start: MonthKey, end: MonthKey) -> int:
    """Months in [start, end], checked to be enough to fit the spec."""
    if end < start:
        raise DataError(f"training window {start}..{end} is reversed")
    n = months_between(start, end) + 1
    if n < len(spec.regressors) + 2:
        raise DataError(
            f"window {start}..{end} has {n} months; "
            f"model {spec.name!r} needs at least {len(spec.regressors) + 2}"
        )
    return n


def _design(
    spec: ModelSpec,
    data: Mapping[str, MonthlySeries],
    start: MonthKey,
    end: MonthKey,
) -> tuple[np.ndarray, np.ndarray]:
    """Target values and the [1, regressors...] design over [start, end]."""
    y = _bundle_series(data, TARGET_KEY).window(start, end)
    X = np.column_stack(
        [np.ones(len(y))]
        + [_bundle_series(data, key).window(start, end) for key in spec.regressors]
    )
    return y, X


def fit_model(
    spec: str | ModelSpec,
    data: Mapping[str, MonthlySeries],
    train_start: MonthKey,
    train_end: MonthKey,
    *,
    robust: bool = False,
) -> RegressionResult:
    """OLS fit of the spec over [train_start, train_end] inclusive.

    data maps series identifiers (cpi, ccpi, fcpi, gas, news) to
    percent-change series; every regressor and the target must cover
    the whole window.
    """
    spec = resolve_spec(spec)
    _window_length(spec, train_start, train_end)
    y, X = _design(spec, data, train_start, train_end)
    return fit_ols(y, X, names=spec.coefficient_names, robust=robust)


def nowcast(
    spec: str | ModelSpec,
    fitted: RegressionResult,
    data: Mapping[str, MonthlySeries],
    t: MonthKey,
    *,
    lags: int = 12,
) -> float:
    """Nowcast of the target percent change for month t.

    Price regressors are imputed with the moving average of their lags
    preceding values; the news regressor uses its exact value at t.
    """
    spec = resolve_spec(spec)
    expected = spec.coefficient_names
    if fitted.names != expected:
        raise DataError(
            f"fitted coefficients {fitted.names} do not match model "
            f"{spec.name!r} ({expected})"
        )
    columns = _regressor_columns(spec, data, t, t, lags)
    return _nowcasts(fitted.estimates[None, :], columns).item()


def _regressor_columns(
    spec: ModelSpec,
    data: Mapping[str, MonthlySeries],
    start: MonthKey,
    end: MonthKey,
    lags: int,
) -> list[np.ndarray]:
    """Each regressor's values at nowcast time for every month of
    [start, end], in spec order: the news values themselves, and the
    moving average of each price index's lags preceding values."""
    columns = []
    for key in spec.regressors:
        series = _bundle_series(data, key)
        if key == NEWS_KEY:
            columns.append(series.window(start, end))
        else:
            columns.append(moving_averages(series, start, end, lags))
    return columns


def _nowcasts(betas: np.ndarray, columns: list[np.ndarray]) -> np.ndarray:
    """b0 + b1*x1 + b2*x2 + ..., added in spec order, for each row of
    betas (one row, or one per month) against the regressor columns."""
    casts = betas[:, 0]
    for j, x in enumerate(columns, 1):
        casts = casts + betas[:, j] * x
    return casts


@dataclass(frozen=True, eq=False)
class ForecastSeries:
    """Aligned nowcasts and realizations, monthly and annualized: the
    strictly increasing month ordinals (MonthKey.ordinal) as a read-only
    int64 array, each value column as a read-only float64 array."""

    model: str
    months: np.ndarray
    nowcasts: np.ndarray
    nowcasts_annualized: np.ndarray
    realized: np.ndarray
    realized_annualized: np.ndarray

    def __post_init__(self):
        for field, dtype in zip(fields(self)[1:], (np.int64, *[float] * 4)):
            column = np.array(getattr(self, field.name), dtype=dtype)
            column.flags.writeable = False
            object.__setattr__(self, field.name, column)
            if len(column) != len(self.months):
                raise DataError(f"{field.name} length differs from months")
        if (np.diff(self.months) <= 0).any():
            raise DataError(f"months of model {self.model!r} are not increasing")

    def __len__(self) -> int:
        return len(self.months)

    def errors(self) -> np.ndarray:
        """Annualized forecast errors, realized minus nowcast."""
        return self.realized_annualized - self.nowcasts_annualized


BACKTEST_SCHEMES = ("fixed", "rolling")


def backtest(
    spec: str | ModelSpec,
    data: Mapping[str, MonthlySeries],
    train_window: tuple[MonthKey, MonthKey],
    eval_window: tuple[MonthKey, MonthKey],
    scheme: str = "fixed",
    *,
    lags: int = 12,
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
    spec = resolve_spec(spec)
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
    n = _window_length(spec, train_start, train_end)
    names = spec.coefficient_names

    realized = _bundle_series(data, TARGET_KEY).window(eval_start, eval_end)
    if scheme == "fixed":
        y, X = _design(spec, data, train_start, train_end)
        starts = range(1)
    else:
        y, X = _design(spec, data, eval_start.shift(-n), eval_end.shift(-1))
        starts = range(len(realized))
    columns = _regressor_columns(spec, data, eval_start, eval_end, lags)
    betas = np.array(
        [solve_ols(y[i : i + n], X[i : i + n], names).beta for i in starts]
    )
    casts = _nowcasts(betas, columns)
    return ForecastSeries(
        model=spec.name,
        months=np.arange(eval_start.ordinal, eval_end.ordinal + 1),
        nowcasts=casts,
        nowcasts_annualized=list(map(annualize, casts.tolist())),
        realized=realized,
        realized_annualized=list(map(annualize, realized.tolist())),
    )


class InflationNowcaster(ParamMixin):
    """Estimator wrapper: fit a model spec once, then nowcast months.

    Parameters
    ----------
    spec : str
        Model name (fed, news, fed+news, fed-gas+news, ccpi+news).
    lags : int
        Moving-average length for imputed regressors.
    robust : bool
        Use HC1 standard errors in the underlying fit.
    """

    def __init__(self, spec: str = "fed+news", lags: int = 12, robust: bool = False):
        self.spec = spec
        self.lags = lags
        self.robust = robust

    def fit(
        self,
        data: Mapping[str, MonthlySeries],
        train_window: tuple[MonthKey, MonthKey],
    ) -> "InflationNowcaster":
        spec = resolve_spec(self.spec)
        self.result_ = fit_model(
            spec, data, train_window[0], train_window[1], robust=self.robust
        )
        self.spec_ = spec
        self.data_ = dict(data)
        return self

    def predict(
        self,
        months: Iterable[MonthKey],
        data: Mapping[str, MonthlySeries] | None = None,
    ) -> list[float]:
        check_is_fitted(self, "result_")
        bundle = self.data_ if data is None else data
        return [
            nowcast(self.spec_, self.result_, bundle, t, lags=self.lags)
            for t in months
        ]
