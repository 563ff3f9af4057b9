"""Calendar-aligned monthly series and their arithmetic transforms.

The two units a series can carry are index levels (consumer price
indices, the news sentiment index) and percent changes. Transforms are
pure functions: they emit values only on months where their inputs
exist and surface gaps explicitly instead of interpolating.

A MonthlySeries is built, like it is stored, from one start ordinal
(months since year 0) and one float64 array whose slot i holds month
start + i, NaN where the series lacks the month; it keeps the read-only
span from its first to its last month, and every month it has holds a
finite value. Transforms and window reads compute on slices of that
array and let NaN carry absence; a transform whose result overflows
raises, naming the months. MonthKey objects appear only at the API
boundary. EPOCH turns dates into ordinals, and ordinals into file text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import (
    DataError,
    DomainError,
    MissingMonthsError,
    OverflowMonthsError,
    UnitError,
    ZeroDenominatorError,
)

INDEX_LEVEL = "index-level"
PERCENT = "percent"
UNITS = (INDEX_LEVEL, PERCENT)

#: Months of history a moving average of a percent series covers.
LAGS = 12
#: The datetime64[M] month of ordinal 0 (MonthKey.ordinal).
EPOCH = np.datetime64("0000-01")


def month_ordinal(text: str) -> int:
    """The ordinal (MonthKey.ordinal) of a YYYY-MM month, surrounding
    whitespace ignored. Year and month are ASCII digits, as
    date.fromisoformat takes them in an article date, the year at least
    1 and the month 1..12; DataError otherwise."""
    s = text.strip()
    digits = s[:4] + s[5:]
    if not (len(s) == 7 and s[4] == "-" and digits.isascii() and digits.isdigit()):
        raise DataError(f"expected YYYY-MM month, got {text!r}")
    year = int(s[:4])
    if year == 0:  # article dates cannot hold year 0 either
        raise DataError(f"month {text!r} is outside years 1..9999")
    return MonthKey(year, int(s[5:])).ordinal


@dataclass(frozen=True, order=True)
class MonthKey:
    """A calendar month. Ordering is chronological."""

    year: int
    month: int

    def __post_init__(self):
        if not isinstance(self.year, int) or not isinstance(self.month, int):
            raise DataError(f"MonthKey fields must be integers, got {self!r}")
        if not 1 <= self.month <= 12:
            raise DataError(f"month must be in 1..12, got {self.month}")

    @classmethod
    def parse(cls, text: str) -> MonthKey:
        """The month of a YYYY-MM text, as month_ordinal reads it."""
        return cls.from_ordinal(month_ordinal(text))

    @classmethod
    def from_ordinal(cls, ordinal: int) -> MonthKey:
        year, month0 = divmod(ordinal, 12)
        return cls(year, month0 + 1)

    @property
    def ordinal(self) -> int:
        """Months since year 0; adjacent months differ by exactly 1."""
        return self.year * 12 + (self.month - 1)

    def shift(self, months: int) -> MonthKey:
        return MonthKey.from_ordinal(self.ordinal + months)

    def __str__(self) -> str:
        return f"{self.year:04d}-{self.month:02d}"


def month_range(start: MonthKey, end: MonthKey) -> list[MonthKey]:
    """Inclusive chronological range; empty when end precedes start."""
    return [MonthKey.from_ordinal(o) for o in range(start.ordinal, end.ordinal + 1)]


def months_where(start: int, mask: np.ndarray) -> list[MonthKey]:
    """Months at the True slots of a mask whose slot 0 is ordinal start."""
    return [MonthKey.from_ordinal(start + i) for i in np.flatnonzero(mask).tolist()]


class MonthlySeries:
    """Named, chronologically ordered month -> value map.

    values[i] is the value at month ordinal start + i (MonthKey.ordinal)
    and NaN marks a month the series lacks; contiguity is not required.
    Absent months are trimmed off both ends, and the values live in one
    read-only float64 array from the first month to the last. Instances
    are immutable after construction.
    """

    __slots__ = ("_name", "_unit", "_start", "_values")

    def __init__(self, name: str, start: int, values, unit: str = INDEX_LEVEL):
        if unit not in UNITS:
            raise DataError(f"series {name!r}: unit {unit!r} is not one of {UNITS}")
        if not isinstance(start, (int, np.integer)):
            raise DataError(f"series {name!r}: start {start!r} is not a month ordinal")
        start = int(start)
        values = np.asarray(values, dtype=float)
        if values.ndim != 1:
            raise DataError(f"series {name!r}: values of shape {values.shape}, not 1-D")
        infinite = np.flatnonzero(np.isinf(values))
        if infinite.size:
            i = int(infinite[0])
            raise DataError(
                f"series {name!r}: {float(values[i])!r} at "
                f"{MonthKey.from_ordinal(start + i)} is not finite"
            )
        where = np.flatnonzero(~np.isnan(values))
        lo, hi = (int(where[0]), int(where[-1]) + 1) if where.size else (0, 0)
        self._name = str(name)
        self._unit = unit
        self._start = start + lo
        self._values = values[lo:hi].copy()
        self._values.flags.writeable = False

    @property
    def name(self) -> str:
        return self._name

    @property
    def unit(self) -> str:
        return self._unit

    def ordinals(self) -> np.ndarray:
        """The int64 ordinals of the months the series has, in order."""
        return self._start + np.flatnonzero(~np.isnan(self._values))

    def months(self) -> tuple[MonthKey, ...]:
        return tuple(map(MonthKey.from_ordinal, self.ordinals().tolist()))

    def values(self) -> tuple[float, ...]:
        return tuple(self._values[~np.isnan(self._values)].tolist())

    def items(self) -> Iterator[tuple[MonthKey, float]]:
        return zip(self.months(), self.values())

    def __len__(self) -> int:
        return int(np.count_nonzero(~np.isnan(self._values)))

    def _slot(self, month: MonthKey) -> int:
        """Index of month in the values; DataError for a non-MonthKey key."""
        if not isinstance(month, MonthKey):
            raise DataError(f"series {self._name!r} has MonthKey keys, got {month!r}")
        return month.ordinal - self._start

    def __contains__(self, month: MonthKey) -> bool:
        i = self._slot(month)
        return 0 <= i < len(self._values) and not math.isnan(self._values[i])

    def __getitem__(self, month: MonthKey) -> float:
        if month not in self:
            raise MissingMonthsError(f"series {self._name!r} has no value", [month])
        return float(self._values[self._slot(month)])

    def first_month(self) -> MonthKey:
        if not len(self._values):
            raise DataError(f"series {self._name!r} is empty")
        return MonthKey.from_ordinal(self._start)

    def last_month(self) -> MonthKey:
        return self.first_month().shift(len(self._values) - 1)

    def window(self, start: MonthKey, end: MonthKey) -> np.ndarray:
        """Read-only values of every month in [start, end], in order.

        Raises MissingMonthsError listing each month the series lacks.
        """
        lo = start.ordinal - self._start
        hi = end.ordinal - self._start + 1
        if 0 <= lo and hi <= len(self._values):
            if not np.isnan(self._values[lo:hi]).any():
                return self._values[lo:hi]
        raise MissingMonthsError(
            f"series {self._name!r} lacks months of {start}..{end}",
            [m for m in month_range(start, end) if m not in self],
        )

    def lagged(self, lag: int) -> tuple[int, np.ndarray, np.ndarray]:
        """(start, now, then): from ordinal start on, the values at each
        month t and at t - lag, NaN where the series lacks the month."""
        if not isinstance(lag, int) or lag < 1:
            raise DataError(f"window must be a positive integer, got {lag!r}")
        return self._start + lag, self._values[lag:], self._values[:-lag]

    def with_name(self, name: str) -> MonthlySeries:
        return MonthlySeries(name, self._start, self._values, self._unit)

    def __repr__(self) -> str:
        span = f"{self.first_month()}..{self.last_month()}" if len(self) else "empty"
        return (
            f"MonthlySeries({self._name!r}, {len(self)} months [{span}], "
            f"unit={self._unit!r})"
        )


def pct_change(series: MonthlySeries, window: int = 12) -> MonthlySeries:
    """window-month percent change: 100 * (P_t / P_{t-window} - 1).

    Output is defined exactly on months t where both P_t and
    P_{t-window} exist. Months whose denominator is zero are collected
    and raised as ZeroDenominatorError, months whose ratio overflows as
    OverflowMonthsError.
    """
    if series.unit != INDEX_LEVEL:
        raise UnitError(
            f"pct_change expects an index-level series, got {series.unit!r}"
        )
    what = f"pct_change of {series.name!r} (window {window})"
    start, now, then = series.lagged(window)
    zero = (then == 0.0) & ~np.isnan(now)
    if zero.any():
        raise ZeroDenominatorError(
            f"{what} hit zero denominators", months_where(start, zero)
        )
    with np.errstate(over="ignore"):
        return percent_series(series.name, start, 100.0 * (now / then - 1.0), what)


def percent_series(
    name: str, start: int, values: np.ndarray, what: str
) -> MonthlySeries:
    """The percent series a transform (what) computed, NaN where an input
    month is absent. OverflowMonthsError lists the months it overflowed."""
    overflow = np.isinf(values)
    if overflow.any():
        raise OverflowMonthsError(f"{what} overflows", months_where(start, overflow))
    return MonthlySeries(name, start, values, PERCENT)


def annualize(pi: float) -> float:
    """Compound a period percent rate to a yearly rate:
    100 * ((pi/100 + 1)^12 - 1)."""
    growth = pi / 100.0 + 1.0
    if growth <= 0.0:
        raise DomainError(f"cannot annualize rate {pi} <= -100")
    try:
        return 100.0 * (growth**12 - 1.0)
    except OverflowError:
        raise DomainError(f"annualizing rate {pi} overflows") from None


def deannualize(pi_ann: float) -> float:
    """Inverse of annualize: 100 * ((pi_ann/100 + 1)^(1/12) - 1)."""
    growth = pi_ann / 100.0 + 1.0
    if growth <= 0.0:
        raise DomainError(f"cannot deannualize rate {pi_ann} <= -100")
    return 100.0 * (growth ** (1.0 / 12.0) - 1.0)


def moving_averages(
    pi_series: MonthlySeries, start: MonthKey, end: MonthKey
) -> np.ndarray:
    """For each month t of [start, end], in order, the mean of the LAGS
    values preceding t (t itself excluded).

    Used to stand in for not-yet-released percent changes. One window
    read covers every lag month of the span, so the MissingMonthsError
    for absent lags names the span and every month it lacks.
    """
    values = pi_series.window(start.shift(-LAGS), end.shift(-1)).tolist()
    # fsum: exactly rounded, so each mean is order-independent.
    return np.array(
        [math.fsum(values[i : i + LAGS]) / LAGS for i in range(len(values) - LAGS + 1)]
    )


def moving_average_predictor(pi_series: MonthlySeries, t: MonthKey) -> float:
    """moving_averages for the single month t."""
    return float(moving_averages(pi_series, t, t)[0])
