"""Monthly aggregation of article scores and the cumulative NEWS index.

The index level for month t is the running sum of monthly mean article
scores up to and including t (a prefix sum, so its first differences
recover the monthly means). Months without articles carry the previous
level forward and are flagged, never interpolated. Articles are grouped
by the month ordinals of their dates, and a NewsIndex counts them in
one array over its span. A monthly mean must pass the score rule of
sentiment.COLUMN_CHECKS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError, ZeroDenominatorError
from .sentiment import COLUMN_CHECKS, ArticleTable
from .timeseries import (
    MonthKey,
    MonthlySeries,
    months_where,
    pct_change,
    percent_series,
)

INDEX_NAME = "NEWS"
PI_MODES = ("pct-change", "level-diff")


@dataclass(frozen=True)
class MonthlySentiment:
    """Sample-mean sentiment of one month's articles."""

    month: MonthKey
    mean_score: float
    article_count: int

    def __post_init__(self):
        if self.article_count < 1:
            raise DataError(
                f"article_count must be positive, got {self.article_count}"
            )
        refused, reason = COLUMN_CHECKS["scores"]
        if refused(np.float64(self.mean_score)):
            raise DataError(f"mean {reason(self.mean_score)}")


@dataclass(frozen=True, eq=False)
class NewsIndex:
    """Cumulative sentiment index plus per-month provenance.

    counts is a read-only int64 array of how many articles fed each
    month of the series, from its first month on; gap_months lists the
    months that had none and therefore carry the previous level forward.
    """

    series: MonthlySeries
    counts: np.ndarray = field(repr=False)

    @property
    def gap_months(self) -> tuple[MonthKey, ...]:
        return tuple(months_where(self.series.first_month().ordinal, self.counts == 0))


def checked_day_cutoff(day_cutoff: int | None) -> int | None:
    """day_cutoff if it is None or a day of the month, else ConfigError."""
    if day_cutoff is not None and not 1 <= day_cutoff <= 31:
        raise ConfigError(f"day_cutoff must be in 1..31, got {day_cutoff}")
    return day_cutoff


def monthly_aggregate(
    articles: ArticleTable, *, day_cutoff: int | None = None
) -> list[MonthlySentiment]:
    """Group articles by month and take the sample mean of their scores.

    day_cutoff, when set, keeps only articles dated on or before that
    day of the month (the "news available by mid-month" timing). Output
    is chronological with one entry per month that has articles; means
    use exactly rounded summation, so article order never matters.
    """
    checked_day_cutoff(day_cutoff)
    if articles.scores is None:
        raise DataError("the articles have no scores to aggregate")
    if not len(articles):
        raise DataError("monthly_aggregate needs at least one article")
    (months, days), scores = articles.months_and_days(), articles.scores
    if day_cutoff is not None:
        kept = days <= day_cutoff
        months, scores = months[kept], scores[kept]
    if not months.size:
        raise DataError(
            f"no articles on or before day {day_cutoff} of any month"
        )
    order = np.argsort(months, kind="stable")
    months, scores = months[order], scores[order]
    starts = np.flatnonzero(np.diff(months, prepend=months[0] - 1))
    return [
        MonthlySentiment(
            month=MonthKey.from_ordinal(month),
            mean_score=math.fsum(group.tolist()) / len(group),
            article_count=len(group),
        )
        for month, group in zip(
            months[starts].tolist(), np.split(scores, starts[1:])
        )
    ]


def build_news_index(monthly: Sequence[MonthlySentiment]) -> NewsIndex:
    """Prefix-sum the monthly means into the cumulative index.

    Input must be chronological. Calendar months between the first and
    last entry that carry no articles get the previous level (their
    mean is treated as 0) and are flagged in gap_months, so the output
    series is contiguous.
    """
    if not monthly:
        raise DataError("build_news_index needs at least one monthly mean")
    start = monthly[0].month.ordinal
    offsets = np.array([m.month.ordinal for m in monthly]) - start
    unordered = np.flatnonzero(np.diff(offsets) <= 0)
    if unordered.size:
        earlier, later = monthly[unordered[0]], monthly[unordered[0] + 1]
        raise DataError(
            f"monthly means out of order at {later.month} "
            f"(follows {earlier.month})"
        )
    counts = np.bincount(offsets, [m.article_count for m in monthly]).astype(np.int64)
    counts.flags.writeable = False
    # bincount adds each mean to 0.0 and cumsum accumulates in order, so
    # the levels are exactly the running sum from 0.0 (gaps add 0.0).
    levels = np.cumsum(np.bincount(offsets, [m.mean_score for m in monthly]))
    series = MonthlySeries(INDEX_NAME, start, levels)
    return NewsIndex(series=series, counts=counts)


def news_pi(
    index: NewsIndex | MonthlySeries,
    window: int = 12,
    *,
    mode: str = "pct-change",
) -> MonthlySeries:
    """Percent-change transform of the NEWS index.

    The cumulative index can touch or cross zero, which makes the
    ratio-based transform meaningless for the affected months. In the
    default pct-change mode those months raise ZeroDenominatorError
    listing every offender once: the count of each kind, then the zero
    denominators' months and the sign-crossing ones. The level-diff
    mode sidesteps the ratio by emitting plain level differences
    (P_t - P_{t-window}); because mean scores live in [-1, 1] the
    differences are on a comparable small scale and serve as a rate
    proxy, labeled percent for uniformity.
    Either mode raises OverflowMonthsError listing months that overflow.
    """
    series = index.series if isinstance(index, NewsIndex) else index
    if mode not in PI_MODES:
        raise ConfigError(f"mode must be one of {PI_MODES}, got {mode!r}")
    out_name = f"pi-{series.name}"
    start, now, then = series.lagged(window)
    if mode == "level-diff":
        what = f"level-diff of the {series.name!r} index (window {window})"
        with np.errstate(over="ignore"):
            return percent_series(out_name, start, now - then, what)
    zero = months_where(start, (then == 0.0) & ~np.isnan(now))
    # Signs, not the product now * then, which can overflow or underflow.
    crossing = months_where(start, np.sign(now) * np.sign(then) < 0.0)
    if zero or crossing:
        kinds = (("zero denominators", zero), ("sign-crossing ratios", crossing))
        counts = [f"{kind} ({len(months)})" for kind, months in kinds if months]
        raise ZeroDenominatorError(
            f"pct-change of the {series.name!r} index is ill-defined: "
            f"{', then '.join(counts)}; use level-diff mode or repair the index",
            zero + crossing,
        )
    return pct_change(series, window).with_name(out_name)
