"""Calendar-aligned monthly series and their arithmetic transforms.

The two units a series can carry are index levels (consumer price
indices, the news sentiment index) and percent changes. Transforms are
pure functions: they emit values only on months where their inputs
exist and surface gaps explicitly instead of interpolating.

A MonthlySeries stores its month axis as one start ordinal (months
since year 0) and two arrays over the calendar span from its first to
its last month: float64 values and a boolean presence mask. Months
inside the span that the series lacks are False in the mask (their
value slot holds NaN). Transforms and window reads are slices of these
arrays; MonthKey objects appear only at the API and file boundary.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import (
    DataError,
    DomainError,
    MissingMonthsError,
    UnitError,
    ZeroDenominatorError,
)

INDEX_LEVEL = "index-level"
PERCENT = "percent"
UNITS = (INDEX_LEVEL, PERCENT)

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


_ABSENT = object()


class MonthlySeries:
    """Named, chronologically ordered month -> value map.

    Keys must be strictly increasing; contiguity is not required.
    Instances are immutable after construction.
    """

    __slots__ = ("_name", "_unit", "_start", "_values", "_present")

    def __init__(
        self,
        name: str,
        points: Iterable[tuple[MonthKey, float]] | Mapping[MonthKey, float],
        unit: str = INDEX_LEVEL,
    ):
        if isinstance(points, Mapping):
            pairs = list(points.items())
        else:
            pairs = list(points)
        previous: MonthKey | None = None
        for month, _ in pairs:
            if not isinstance(month, MonthKey):
                raise DataError(f"series keys must be MonthKey, got {month!r}")
            if previous is not None and month <= previous:
                kind = "duplicate" if month == previous else "non-monotone"
                raise DataError(f"{kind} month {month} in series {name!r}")
            previous = month
        start = pairs[0][0].ordinal if pairs else 0
        offsets = [month.ordinal - start for month, _ in pairs]
        present = np.zeros(offsets[-1] + 1 if pairs else 0, dtype=bool)
        present[offsets] = True
        values = np.full(len(present), np.nan)
        values[offsets] = [float(value) for _, value in pairs]
        self._set(name, unit, start, values, present)

    @classmethod
    def from_arrays(
        cls, name: str, start: int, values: np.ndarray, present: np.ndarray, unit: str
    ) -> MonthlySeries:
        """Series taking values[i] at month ordinal start + i where present[i]."""
        series = cls.__new__(cls)
        series._set(name, unit, start, values, present)
        return series

    def _set(self, name, unit, start, values, present) -> None:
        if unit not in UNITS:
            raise DataError(f"unit must be one of {UNITS}, got {unit!r}")
        # Trim absent months off both ends so the span runs first..last.
        where = np.flatnonzero(present)
        lo, hi = (int(where[0]), int(where[-1]) + 1) if where.size else (0, 0)
        self._name = str(name)
        self._unit = unit
        self._start = start + lo
        self._present = np.array(present[lo:hi], dtype=bool)
        self._values = np.where(self._present, values[lo:hi], np.nan)
        self._present.flags.writeable = False
        self._values.flags.writeable = False

    @property
    def name(self) -> str:
        return self._name

    @property
    def unit(self) -> str:
        return self._unit

    def months(self) -> tuple[MonthKey, ...]:
        return tuple(months_where(self._start, self._present))

    def values(self) -> tuple[float, ...]:
        return tuple(self._values[self._present].tolist())

    def items(self) -> Iterator[tuple[MonthKey, float]]:
        return zip(self.months(), self.values())

    def __len__(self) -> int:
        return int(np.count_nonzero(self._present))

    def __contains__(self, month: MonthKey) -> bool:
        return self.get(month, _ABSENT) is not _ABSENT

    def __getitem__(self, month: MonthKey) -> float:
        value = self.get(month, _ABSENT)
        if value is _ABSENT:
            raise MissingMonthsError(f"series {self._name!r} has no value", [month])
        return value

    def get(self, month: MonthKey, default=None):
        if isinstance(month, MonthKey):
            i = month.ordinal - self._start
            if 0 <= i < len(self._present) and self._present[i]:
                return float(self._values[i])
        return default

    def first_month(self) -> MonthKey:
        if not len(self._present):
            raise DataError(f"series {self._name!r} is empty")
        return MonthKey.from_ordinal(self._start)

    def last_month(self) -> MonthKey:
        return self.first_month().shift(len(self._present) - 1)

    def window(self, start: MonthKey, end: MonthKey) -> np.ndarray:
        """Read-only values of every month in [start, end], in order.

        Raises MissingMonthsError listing each month the series lacks.
        """
        lo = start.ordinal - self._start
        hi = end.ordinal - self._start + 1
        if 0 <= lo and hi <= len(self._present) and self._present[lo:hi].all():
            return self._values[lo:hi]
        raise MissingMonthsError(
            f"series {self._name!r} lacks months of {start}..{end}",
            self.missing_months(month_range(start, end)),
        )

    def lagged(self, lag: int) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
        """(start, now, then, both): from ordinal start on, the values at
        each month t and at t - lag, and where both exist (else NaN)."""
        if not isinstance(lag, int) or lag < 1:
            raise DataError(f"window must be a positive integer, got {lag!r}")
        return (
            self._start + lag,
            self._values[lag:],
            self._values[:-lag],
            self._present[lag:] & self._present[:-lag],
        )

    def missing_months(self, months: Iterable[MonthKey]) -> list[MonthKey]:
        return [m for m in months if m not in self]

    def with_name(self, name: str) -> MonthlySeries:
        return MonthlySeries.from_arrays(
            name, self._start, self._values, self._present, self._unit
        )

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
    and raised as ZeroDenominatorError.
    """
    if series.unit != INDEX_LEVEL:
        raise UnitError(
            f"pct_change expects an index-level series, got {series.unit!r}"
        )
    start, now, then, both = series.lagged(window)
    zero = both & (then == 0.0)
    if zero.any():
        raise ZeroDenominatorError(
            f"pct_change of {series.name!r} (window {window}) hit zero "
            "denominators",
            months_where(start, zero),
        )
    out = np.full(len(both), np.nan)
    out[both] = 100.0 * (now[both] / then[both] - 1.0)
    return MonthlySeries.from_arrays(series.name, start, out, both, PERCENT)


def annualize(pi: float) -> float:
    """Compound a period percent rate to a yearly rate:
    100 * ((pi/100 + 1)^12 - 1)."""
    growth = pi / 100.0 + 1.0
    if growth <= 0.0:
        raise DomainError(f"cannot annualize rate {pi} <= -100")
    return 100.0 * (growth**12 - 1.0)


def deannualize(pi_ann: float) -> float:
    """Inverse of annualize: 100 * ((pi_ann/100 + 1)^(1/12) - 1)."""
    growth = pi_ann / 100.0 + 1.0
    if growth <= 0.0:
        raise DomainError(f"cannot deannualize rate {pi_ann} <= -100")
    return 100.0 * (growth ** (1.0 / 12.0) - 1.0)


def moving_averages(
    pi_series: MonthlySeries, start: MonthKey, end: MonthKey, lags: int = 12
) -> np.ndarray:
    """For each month t of [start, end], in order, the mean of the lags
    values preceding t (t itself excluded).

    Used to stand in for not-yet-released percent changes. One window
    read covers every lag month of the span, so the MissingMonthsError
    for absent lags names the span and every month it lacks.
    """
    if not isinstance(lags, int) or lags < 1:
        raise DataError(f"lags must be a positive integer, got {lags!r}")
    values = pi_series.window(start.shift(-lags), end.shift(-1)).tolist()
    # fsum: exactly rounded, so each mean is order-independent.
    return np.array(
        [math.fsum(values[i : i + lags]) / lags for i in range(len(values) - lags + 1)]
    )


def moving_average_predictor(
    pi_series: MonthlySeries, t: MonthKey, lags: int = 12
) -> float:
    """moving_averages for the single month t."""
    return float(moving_averages(pi_series, t, t, lags)[0])
