"""Tests of the benchmark's own helpers: input generation, span
arithmetic, the tail-percentile rule and the import-time parser."""

from pathlib import Path

import pytest

import bench_checks
import bench_inputs
import bench_trace
from bench_trace import Span


def _small_inputs(directory: Path, seed: int) -> dict[str, str]:
    bench_inputs.write_price_levels(directory, seed)
    bench_inputs.write_news_index(directory, seed)
    bench_inputs.write_probability_articles(directory, seed, n=2000)
    bench_inputs.write_text_articles(directory, seed, n=400)
    return bench_checks.sha256_tree(directory)


def test_same_seed_same_digests_other_seed_differs(tmp_path):
    first = _small_inputs(tmp_path / "a", 3)
    again = _small_inputs(tmp_path / "b", 3)
    other = _small_inputs(tmp_path / "c", 4)
    assert first == again
    assert set(first) == set(other)
    assert all(first[name] != other[name] for name in first)


def test_text_articles_mix_lexicon_hits_and_misses(tmp_path):
    bench_inputs.write_text_articles(tmp_path, 5, n=1000)
    kept = bench_checks.expected_filter_count(
        tmp_path / "news_text.csv", bench_inputs.LEXICON
    )
    assert 0.5 < kept / 1000 < 0.7


def test_levels_and_index_stay_positive(tmp_path):
    for seed in range(20):
        bench_inputs.write_price_levels(tmp_path, seed)
        bench_inputs.write_news_index(tmp_path, seed)
        for name in ("cpi", "ccpi", "fcpi", "gas", "news_index"):
            rows = bench_checks._data_rows(tmp_path / f"{name}.csv")
            assert len(rows) == bench_inputs.N_MONTHS
            assert min(float(r[1]) for r in rows) > 0.0


def _spans(*rows):
    return [Span(i, parent, name, start, end) for i, (parent, name, start, end)
            in enumerate(rows)]


def test_self_time_subtracts_the_union_of_children():
    spans = _spans(
        (None, "cli.backtest", 0.0, 10.0),
        (0, "a", 1.0, 4.0),
        (0, "b", 3.0, 6.0),   # overlaps a: the union 1..6 is covered
        (1, "c", 2.0, 3.0),
    )
    own = bench_trace.self_times(spans)
    assert own == pytest.approx({0: 5.0, 1: 2.0, 2: 3.0, 3: 1.0})


def test_nowcast_self_time_excludes_ols_and_timeseries_children():
    spans = _spans(
        (None, "cli.backtest", 0.0, 10.0),
        (0, "nowcast.backtest", 1.0, 9.0),
        (1, "nowcast.fit_model", 2.0, 5.0),
        (2, "ols.fit_ols", 2.5, 4.5),
        (1, "nowcast.nowcast", 5.0, 7.0),
        (4, "timeseries.moving_average_predictor", 5.5, 6.0),
    )
    metrics = bench_trace.layer_metrics(spans)
    assert metrics["nowcast.self_s"] == pytest.approx(8.0 - 2.0 - 0.5)
    assert metrics["nowcast.backtest_s"] == pytest.approx(8.0)
    assert metrics["ols.fits"] == 1
    assert metrics["trace.uncovered_frac"] == pytest.approx(0.2)


@pytest.mark.parametrize(
    "n, expected",
    [(0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
     (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    assert bench_trace.tail_percentile(n) == expected


def test_tail_value_uses_nearest_rank():
    samples = [float(v) for v in range(1, 1001)]
    assert bench_trace.tail_value(samples) == 990.0   # p99, 10 samples above
    assert bench_trace.tail_value([3.0, 1.0, 2.0]) == 3.0   # too few: maximum


def test_parse_importtime_finds_lazily_loaded_scipy_stats():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy.special",
        "import time:       200 |        300 |     scipy.stats._stats_py",
        "import time:        50 |         50 |     scipy.stats.distributions",
        "import time:        10 |        360 |   newscast.evaluation",
        "import time:         5 |        365 | newscast",
    ])
    metrics = bench_trace.parse_importtime(stderr)
    assert metrics["import.total_s"] == pytest.approx(365e-6)
    assert metrics["import.scipy_stats_s"] == pytest.approx(350e-6)
    assert metrics["import.newscast_self_s"] == pytest.approx(15e-6)
