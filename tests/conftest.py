import tempfile
from datetime import date

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from newscast import ArticleTable, MonthKey, MonthlySeries

# Every run draws the same examples and keeps no example database, so a
# failure reproduces from the commit alone. Tests keep their own
# max_examples and deadline.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

_hypothesis_home = None


def pytest_configure(config):
    # Hypothesis still caches the literals of the tested modules under its
    # home directory. Pointing that home at a temporary directory keeps the
    # checkout clean; a fixture would run after the cache is written.
    global _hypothesis_home
    _hypothesis_home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    set_hypothesis_home_dir(_hypothesis_home.name)


def pytest_unconfigure(config):
    _hypothesis_home.cleanup()


@pytest.fixture
def rng():
    return np.random.default_rng(987654321)


def make_series(start: str, values, name="s", unit="index-level") -> MonthlySeries:
    """Contiguous series beginning at start (YYYY-MM)."""
    first = MonthKey.parse(start)
    return MonthlySeries(
        name, [(first.shift(i), v) for i, v in enumerate(values)], unit
    )


@pytest.fixture
def series_factory():
    return make_series


def make_articles(ids, dates, texts=None, probs=None, scores=None) -> ArticleTable:
    """An ArticleTable of the articles with these ids and YYYY-MM-DD
    dates, plus the given columns as lists. The dates are parsed by
    date.fromisoformat, as the readers do; numpy would also read text
    such as "today"."""
    return ArticleTable(
        list(ids),
        np.array([date.fromisoformat(d) for d in dates], dtype="datetime64[D]"),
        texts=None if texts is None else list(texts),
        probs=None if probs is None else np.array(probs, dtype=float).reshape(-1, 3),
        scores=None if scores is None else np.array(scores, dtype=float),
    )
