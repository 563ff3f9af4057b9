"""Calendar-aligned monthly series and their arithmetic transforms.

The two units a series can carry are index levels (consumer price
indices, the news sentiment index) and percent changes. Transforms are
pure functions: they emit values only on months where their inputs
exist and surface gaps explicitly instead of interpolating.

A MonthlySeries stores its month axis as one start ordinal (months
since year 0) and one read-only float64 array over the calendar span
from its first to its last month. A month inside the span that the
series lacks holds NaN; every month it has holds a finite value.
Transforms and window reads compute on slices of that array and let
NaN carry absence; a transform whose result overflows raises, naming
the months. MonthKey objects appear only at the API and file boundary.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, Iterator

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

# [0-9]: \d would also match the digits date.fromisoformat refuses.
_MONTH_RE = re.compile(r"^([0-9]{4})-([0-9]{2})$")


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
        m = _MONTH_RE.match(text.strip())
        if not m:
            raise DataError(f"expected YYYY-MM month, got {text!r}")
        if m.group(1) == "0000":  # article dates cannot hold year 0 either
            raise DataError(f"month {text!r} is outside years 1..9999")
        return cls(int(m.group(1)), int(m.group(2)))

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


def months_between(start: MonthKey, end: MonthKey) -> int:
    """Signed month count from start to end."""
    return end.ordinal - start.ordinal


def month_range(start: MonthKey, end: MonthKey) -> list[MonthKey]:
    """Inclusive chronological range; empty when end precedes start."""
    return [MonthKey.from_ordinal(o) for o in range(start.ordinal, end.ordinal + 1)]


def months_where(start: int, mask: np.ndarray) -> list[MonthKey]:
    """Months at the True slots of a mask whose slot 0 is ordinal start."""
    return [MonthKey.from_ordinal(start + i) for i in np.flatnonzero(mask).tolist()]


class MonthlySeries:
    """Named, chronologically ordered month -> value map.

    Months must be strictly increasing and values finite; contiguity is
    not required. The values live in one read-only float64 array from
    the first month to the last, NaN where the series lacks a month.
    Instances are immutable after construction.
    """

    __slots__ = ("_name", "_unit", "_start", "_values")

    def __init__(
        self,
        name: str,
        points: Iterable[tuple[MonthKey, float]],
        unit: str = INDEX_LEVEL,
    ):
        pairs = [(month, float(value)) for month, value in points]
        for i, (month, value) in enumerate(pairs):
            if not isinstance(month, MonthKey):
                raise DataError(f"series keys must be MonthKey, got {month!r}")
            if i and month <= pairs[i - 1][0]:
                kind = "duplicate" if month == pairs[i - 1][0] else "non-monotone"
                raise DataError(f"{kind} month {month} in series {name!r}")
            if not math.isfinite(value):
                raise DataError(f"series {name!r}: {value!r} at {month} is not finite")
        start = pairs[0][0].ordinal if pairs else 0
        values = np.full(pairs[-1][0].ordinal - start + 1 if pairs else 0, np.nan)
        values[[month.ordinal - start for month, _ in pairs]] = [v for _, v in pairs]
        self._set(name, unit, start, values)

    @classmethod
    def from_arrays(
        cls, name: str, start: int, values: np.ndarray, unit: str
    ) -> MonthlySeries:
        """Series taking values[i] at month ordinal start + i, absent where
        NaN. Unchecked: the transforms below make values finite or NaN."""
        series = cls.__new__(cls)
        series._set(name, unit, start, values)
        return series

    def _set(self, name, unit, start, values) -> None:
        if unit not in UNITS:
            raise DataError(f"unit must be one of {UNITS}, got {unit!r}")
        # Trim absent months off both ends so the span runs first..last.
        where = np.flatnonzero(~np.isnan(values))
        lo, hi = (int(where[0]), int(where[-1]) + 1) if where.size else (0, 0)
        self._name = str(name)
        self._unit = unit
        self._start = start + lo
        self._values = np.array(values[lo:hi], dtype=float)
        self._values.flags.writeable = False

    @property
    def name(self) -> str:
        return self._name

    @property
    def unit(self) -> str:
        return self._unit

    def months(self) -> tuple[MonthKey, ...]:
        return tuple(months_where(self._start, ~np.isnan(self._values)))

    def values(self) -> tuple[float, ...]:
        return tuple(self._values[~np.isnan(self._values)].tolist())

    def items(self) -> Iterator[tuple[MonthKey, float]]:
        return zip(self.months(), self.values())

    def __len__(self) -> int:
        return int(np.count_nonzero(~np.isnan(self._values)))

    def __contains__(self, month: MonthKey) -> bool:
        i = month.ordinal - self._start if isinstance(month, MonthKey) else -1
        return 0 <= i < len(self._values) and not math.isnan(self._values[i])

    def __getitem__(self, month: MonthKey) -> float:
        if month not in self:
            raise MissingMonthsError(f"series {self._name!r} has no value", [month])
        return float(self._values[month.ordinal - self._start])

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
        return MonthlySeries.from_arrays(name, self._start, self._values, self._unit)

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
    return MonthlySeries.from_arrays(name, start, values, PERCENT)


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
