"""In-memory spans around the package's public functions, and the
per-layer metrics derived from them.

The benchmark replaces public functions under the names the calling
modules look them up by (newscast.cli, newscast.nowcast,
newscast.evaluation, newscast.index) with wrappers that record a span
per call. Nothing in the package changes; the originals are restored
when tracing ends.
"""

from __future__ import annotations

import importlib
import math
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans with parent ids; single-threaded."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), parent, name, time.perf_counter())
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn: Callable, record: Callable | None = None) -> Callable:
        """fn with a span per call; record(span, args, result) adds counts."""

        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
                if record is not None:
                    record(s, args, result)
                return result

        return traced


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration - covered
    return out


TAIL_PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99)


def tail_percentile(n: int) -> float | None:
    """Highest percentile with at least 10 of n samples beyond it.

    The percentile's value is the nearest-rank sample, at rank
    ceil(p/100 * n); the samples beyond it are the n - rank above.
    """
    best = None
    for p in TAIL_PERCENTILES:
        if n - _rank(p, n) >= 10:
            best = p
    return best


def _rank(p: float, n: int) -> int:
    # Rounded first, so that 99.9% of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(p / 100.0 * n, 6)))


def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank percentile of non-empty samples."""
    return sorted(samples)[_rank(p, len(samples)) - 1]


def tail_value(samples: list[float]) -> float:
    """Value at tail_percentile, or the maximum when fewer than 20 samples."""
    if not samples:
        return 0.0
    p = tail_percentile(len(samples))
    return max(samples) if p is None else percentile(samples, p)


def parse_importtime(stderr: str) -> dict[str, float]:
    """import.* seconds from `python -X importtime -c "import newscast"`.

    Lines come in post-order (a module after everything it imported),
    indented two spaces per level. scipy loads scipy.stats lazily, so
    its submodules can appear without a scipy.stats line above them;
    import.scipy_stats_s adds the cumulative time of every scipy.stats*
    module whose parent is not one.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        own, cumulative, raw = line[len("import time:"):].split("|")
        name = raw.strip()
        depth = (len(raw) - len(raw.lstrip()) - 1) // 2
        entries.append((depth, name, int(own), int(cumulative)))

    def is_stats(name: str) -> bool:
        return name == "scipy.stats" or name.startswith("scipy.stats.")

    stats_us = 0
    ancestors: list[tuple[int, str]] = []
    for depth, name, _, cumulative in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        if is_stats(name) and not (ancestors and is_stats(ancestors[-1][1])):
            stats_us += cumulative
        ancestors.append((depth, name))
    newscast = [e for e in entries if e[1] == "newscast"]
    return {
        "import.total_s": newscast[0][3] / 1e6 if newscast else 0.0,
        "import.scipy_stats_s": stats_us / 1e6,
        "import.newscast_self_s": sum(
            own for _, name, own, _ in entries
            if name == "newscast" or name.startswith("newscast.")
        ) / 1e6,
    }


# ------------------------------------------------------------ instrumentation

# (module, attribute, span name) for every wrapped function. Names are
# the calling module's: cli imports most functions directly, backtest
# looks up fit_model, nowcast, fit_ols and moving_average_predictor in
# newscast.nowcast, gw_from_forecasts looks up loss_differential and
# giacomini_white in newscast.evaluation, and news_pi looks up
# pct_change in newscast.index.
_WRAPPED = (
    ("cli", "load_config", "config.load_config"),
    ("cli", "read_probability_articles", "io.read_probability_articles"),
    ("cli", "read_text_articles", "io.read_text_articles"),
    ("cli", "read_scored_articles", "io.read_scored_articles"),
    ("cli", "read_series", "io.read_series"),
    ("cli", "read_forecasts", "io.read_forecasts"),
    ("cli", "write_probability_articles", "io.write_probability_articles"),
    ("cli", "write_scored_articles", "io.write_scored_articles"),
    ("cli", "write_rejections", "io.write_rejections"),
    ("cli", "write_series", "io.write_series"),
    ("cli", "write_index_metadata", "io.write_index_metadata"),
    ("cli", "write_forecasts", "io.write_forecasts"),
    ("cli", "lexicon_filter", "sentiment.lexicon_filter"),
    ("cli", "baseline_classify", "sentiment.baseline_classify"),
    ("cli", "monthly_aggregate", "index.monthly_aggregate"),
    ("cli", "build_news_index", "index.build_news_index"),
    ("cli", "news_pi", "index.news_pi"),
    ("cli", "pct_change", "timeseries.pct_change"),
    ("index", "pct_change", "timeseries.pct_change"),
    ("cli", "fit_model", "nowcast.fit_model"),
    ("cli", "nowcast", "nowcast.nowcast"),
    ("cli", "backtest", "nowcast.backtest"),
    ("nowcast", "fit_model", "nowcast.fit_model"),
    ("nowcast", "nowcast", "nowcast.nowcast"),
    ("nowcast", "fit_ols", "ols.fit_ols"),
    ("nowcast", "moving_average_predictor", "timeseries.moving_average_predictor"),
    ("cli", "evaluate_forecasts", "evaluation.evaluate_forecasts"),
    ("evaluation", "gw_from_forecasts", "evaluation.gw_from_forecasts"),
    ("evaluation", "loss_differential", "evaluation.loss_differential"),
    ("evaluation", "giacomini_white", "evaluation.giacomini_white"),
    ("evaluation", "rmse", "evaluation.rmse"),
    ("cli", "regression_table", "report.regression_table"),
    ("cli", "regression_table_delimited", "report.regression_table_delimited"),
    ("cli", "evaluation_table", "report.evaluation_table"),
    ("cli", "evaluation_table_delimited", "report.evaluation_table_delimited"),
)


def _record_articles(s: Span, args, result) -> None:
    items, rejections = result
    s.attrs["rows"] = len(items) + len(rejections)
    s.attrs["rejected"] = len(rejections)


def _record_written(s: Span, args, result) -> None:
    path = next(a for a in args if isinstance(a, os.PathLike))
    s.attrs["bytes"] = os.path.getsize(path)


def _record_filter(s: Span, args, result) -> None:
    s.attrs["kept"] = int(bool(result))


def _record_aggregate(s: Span, args, result) -> None:
    s.attrs["in"] = len(args[0])
    s.attrs["kept"] = sum(m.article_count for m in result)


def _record_index(s: Span, args, result) -> None:
    s.attrs["months"] = len(result.series)
    s.attrs["gaps"] = len(result.gap_months)


_RECORDERS = {
    "io.read_probability_articles": _record_articles,
    "io.read_text_articles": _record_articles,
    "io.read_scored_articles": _record_articles,
    "io.write_probability_articles": _record_written,
    "io.write_scored_articles": _record_written,
    "io.write_rejections": _record_written,
    "io.write_series": _record_written,
    "io.write_index_metadata": _record_written,
    "io.write_forecasts": _record_written,
    "sentiment.lexicon_filter": _record_filter,
    "index.monthly_aggregate": _record_aggregate,
    "index.build_news_index": _record_index,
}


@contextmanager
def instrumented(tracer: Tracer) -> Iterator[None]:
    """Wrap the package's public functions for the duration of the block."""
    modules = {
        name: importlib.import_module(f"newscast.{name}")
        for name in ("cli", "nowcast", "evaluation", "index")
    }
    cli = modules["cli"]
    saved = [(modules[m], attr, getattr(modules[m], attr)) for m, attr, _ in _WRAPPED]
    saved.append((cli, "SentimentScorer", cli.SentimentScorer))
    try:
        for module, attr, span_name in _WRAPPED:
            original = getattr(modules[module], attr)
            setattr(
                modules[module], attr,
                tracer.wrap(span_name, original, _RECORDERS.get(span_name)),
            )
        base = cli.SentimentScorer

        class TracedScorer(base):
            def fit_transform(self, articles, y=None):
                with tracer.span("sentiment.score"):
                    return base.fit_transform(self, articles, y)

        cli.SentimentScorer = TracedScorer
        yield
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


# ------------------------------------------------------------------ metrics

#: Span names whose durations add up to each *_s metric.
_TIME_METRICS = {
    "config.load_s": ("config.load_config",),
    "io.read_articles_s": (
        "io.read_probability_articles", "io.read_text_articles",
        "io.read_scored_articles",
    ),
    "io.write_articles_s": (
        "io.write_probability_articles", "io.write_scored_articles",
        "io.write_rejections",
    ),
    "io.read_series_s": ("io.read_series",),
    "io.write_forecasts_s": ("io.write_forecasts",),
    "io.read_forecasts_s": ("io.read_forecasts",),
    "sentiment.score_s": ("sentiment.score",),
    "sentiment.filter_s": ("sentiment.lexicon_filter",),
    "sentiment.classify_s": ("sentiment.baseline_classify",),
    "index.aggregate_s": ("index.monthly_aggregate",),
    "index.build_s": ("index.build_news_index",),
    "index.news_pi_s": ("index.news_pi",),
    "timeseries.pct_change_s": ("timeseries.pct_change",),
    "timeseries.ma_predictor_s": ("timeseries.moving_average_predictor",),
    "ols.fit_s": ("ols.fit_ols",),
    "nowcast.backtest_s": ("nowcast.backtest",),
    "evaluation.evaluate_s": ("evaluation.evaluate_forecasts",),
    "evaluation.loss_diff_s": ("evaluation.loss_differential",),
    "report.render_s": (
        "report.regression_table", "report.regression_table_delimited",
        "report.evaluation_table", "report.evaluation_table_delimited",
    ),
}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced chain.

    Top-level spans are named cli.<command>; everything else is a
    wrapped function. nowcast.self_s is the time inside nowcast.*
    spans under a backtest that none of their ols or timeseries
    children cover.
    """
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(*names: str) -> float:
        return sum(s.duration for n in names for s in by_name.get(n, ()))

    def attr(names, key: str) -> int:
        return sum(s.attrs.get(key, 0) for n in names for s in by_name.get(n, ()))

    own = self_times(spans)
    parent_of = {s.id: s.parent for s in spans}
    name_of = {s.id: s.name for s in spans}

    def under_backtest(span_id: int | None) -> bool:
        while span_id is not None:
            if name_of[span_id] == "nowcast.backtest":
                return True
            span_id = parent_of[span_id]
        return False

    metrics = {name: total(*names) for name, names in _TIME_METRICS.items()}
    article_reads = _TIME_METRICS["io.read_articles_s"]
    writes = [n for n in _RECORDERS if n.startswith("io.write_")]
    filters = by_name.get("sentiment.lexicon_filter", [])
    fit_us = [s.duration * 1e6 for s in by_name.get("ols.fit_ols", ())]
    roots = [s for s in spans if s.parent is None]
    metrics.update({
        "io.rows_read": attr(article_reads, "rows"),
        "io.rows_rejected": attr(article_reads, "rejected"),
        "io.bytes_written": attr(writes, "bytes"),
        "sentiment.filter_kept_ratio": _ratio(
            attr(["sentiment.lexicon_filter"], "kept"), len(filters)
        ),
        "index.months": attr(["index.build_news_index"], "months"),
        "index.gap_months": attr(["index.build_news_index"], "gaps"),
        "index.cutoff_kept_ratio": _ratio(
            attr(["index.monthly_aggregate"], "kept"),
            attr(["index.monthly_aggregate"], "in"),
        ),
        "timeseries.ma_predictor_calls": len(
            by_name.get("timeseries.moving_average_predictor", ())
        ),
        "ols.fits": len(fit_us),
        "ols.fit_us_p50": percentile(fit_us, 50.0) if fit_us else 0.0,
        "ols.fit_us_tail": tail_value(fit_us),
        "nowcast.fit_model_calls": len(by_name.get("nowcast.fit_model", ())),
        "nowcast.self_s": sum(
            own[s.id] for s in spans
            if s.name.startswith("nowcast.") and under_backtest(s.id)
        ),
        "evaluation.gw_tests": len(by_name.get("evaluation.giacomini_white", ())),
        "trace.uncovered_frac": _ratio(
            sum(own[s.id] for s in roots), sum(s.duration for s in roots)
        ),
    })
    return metrics
