"""Property tests: the array-backed month axis against brute-force
dict-based references over randomly gapped series.

Every reference below walks months one at a time through a plain dict
keyed by month ordinal, the way the transforms are defined. Values must
match bit for bit, and errors must list the same months.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from newscast import (
    MODEL_SPECS,
    DataError,
    MissingMonthsError,
    MonthKey,
    MonthlySentiment,
    NewscastError,
    ZeroDenominatorError,
    build_news_index,
    fit_model,
    fit_ols,
    moving_average_predictor,
    news_pi,
    pct_change,
)
from newscast.nowcast import coefficient_names

from conftest import series_of

SETTINGS = settings(max_examples=150, deadline=None)

# Small integers make zero denominators, sign changes and exact ties
# common; the float branch covers general values.
VALUES = st.one_of(
    st.integers(-3, 3).map(float),
    st.floats(-200.0, 200.0, allow_nan=False, allow_subnormal=False).filter(
        lambda x: x == 0.0 or abs(x) > 1e-3
    ),
)


@st.composite
def gapped(draw, unit="index-level", max_len=40):
    """(points, series): ordinal -> value dict and the same MonthlySeries."""
    start = draw(st.integers(1990 * 12, 2010 * 12))
    # The length first, so that long series, and long windows, are as
    # likely as short ones.
    n = draw(st.integers(0, max_len))
    cells = draw(st.lists(st.one_of(st.none(), VALUES, VALUES), min_size=n, max_size=n))
    points = {start + i: v for i, v in enumerate(cells) if v is not None}
    return points, series_of(points, unit=unit)


def drawn_as(cells, start=2020 * 12):
    """The gapped() draw of these cells (None for an absent month), for
    an @example."""
    points = {start + i: v for i, v in enumerate(cells) if v is not None}
    return points, series_of(points)


def bits(series):
    """(ordinal, exact float) pairs; hex keeps -0.0 apart from 0.0."""
    return [(m.ordinal, v.hex()) for m, v in series.items()]


def ref_bits(points):
    return [(o, v.hex()) for o, v in points.items()]


def ordinals(months):
    return [m.ordinal for m in months]


def ref_lagged(points, window, fn):
    """fn(value, base) on every month whose month - window exists."""
    return {
        o: fn(v, points[o - window]) for o, v in points.items()
        if o - window in points
    }


@SETTINGS
@given(gapped(), st.integers(1, 14))
# A zero level under an absent month is no zero denominator.
@example(drawn_as([0.0, None, 1.0]), 1)
# Window 12 over a long series, with and without a zero denominator.
@example(drawn_as([100.0 * 1.002**t for t in range(40)]), 12)
@example(drawn_as([100.0, 0.0] + [100.0] * 13), 12)
def test_pct_change_matches_reference(drawn, window):
    points, series = drawn
    pairs = ref_lagged(points, window, lambda v, base: (v, base))
    zero = [o for o, (_, base) in pairs.items() if base == 0.0]
    try:
        got = pct_change(series, window)
    except ZeroDenominatorError as exc:
        assert zero
        assert ordinals(exc.months) == zero
        return
    assert not zero
    expected = {o: 100.0 * (v / base - 1.0) for o, (v, base) in pairs.items()}
    assert bits(got) == ref_bits(expected)
    assert got.unit == "percent"


@SETTINGS
@given(gapped(), st.integers(1, 14))
@example(drawn_as([0.5, -1.0, 0.0, 0.25] * 4), 12)
def test_news_pi_level_diff_matches_reference(drawn, window):
    points, series = drawn
    got = news_pi(series, window, mode="level-diff")
    assert bits(got) == ref_bits(ref_lagged(points, window, lambda v, b: v - b))
    assert (got.name, got.unit) == ("pi-s", "percent")


@SETTINGS
@given(gapped(), st.integers(1, 14))
# window None calls news_pi with its default window, 12.
@example(drawn_as([1.0] * 12 + [2.0]), None)
# The product of the two levels underflows to -0.0; their signs differ.
@example(drawn_as([1e-200, -1e-200]), 1)
def test_news_pi_pct_change_lists_offending_months(drawn, window):
    points, series = drawn
    args = () if window is None else (window,)
    window = window or 12
    pairs = ref_lagged(points, window, lambda v, base: (v, base))
    zero = [o for o, (_, base) in pairs.items() if base == 0.0]
    crossing = [o for o, (v, base) in pairs.items() if min(v, base) < 0 < max(v, base)]
    try:
        got = news_pi(series, *args)
    except ZeroDenominatorError as exc:
        assert ordinals(exc.months) == zero + crossing
        return
    assert not zero and not crossing
    assert bits(got) == bits(pct_change(series, window))
    assert (got.name, got.unit) == ("pi-s", "percent")


@SETTINGS
@given(gapped(unit="percent"), st.integers(-4, 50))
def test_moving_average_matches_reference(drawn, offset):
    points, series = drawn
    t = min(points, default=1990 * 12) + offset
    wanted = [t - k for k in range(1, 13)]
    absent = sorted(o for o in wanted if o not in points)
    try:
        got = moving_average_predictor(series, MonthKey.from_ordinal(t))
    except MissingMonthsError as exc:
        assert ordinals(exc.months) == absent
        return
    assert not absent
    assert got.hex() == (math.fsum(points[o] for o in wanted) / 12).hex()


def outcome(call):
    """What a call produced: its value, or its error and the months or
    message that error carries."""
    try:
        return ("ok", call())
    except MissingMonthsError as exc:
        return (type(exc), ordinals(exc.months))
    except NewscastError as exc:
        return (type(exc), str(exc))


@st.composite
def bundles(draw):
    spec = draw(st.sampled_from(["news", "ccpi+news", "fed"]))
    start = draw(st.integers(2000 * 12, 2001 * 12))
    n = draw(st.integers(6, 30))
    points = {}
    for key in ("cpi",) + MODEL_SPECS[spec]:
        holes = draw(st.sets(st.integers(0, n - 1), max_size=1))
        values = draw(st.lists(VALUES, min_size=n, max_size=n))
        points[key] = {
            start + i: v for i, v in enumerate(values) if i not in holes
        }
    lo = draw(st.integers(start - 1, start + n - 4))
    hi = draw(st.integers(lo + 3, start + n))
    return spec, points, lo, hi


@SETTINGS
@given(bundles())
def test_fit_model_design_matches_reference(drawn):
    spec, points, lo, hi = drawn
    data = {
        key: series_of(pts, key, "percent") for key, pts in points.items()
    }
    months = range(lo, hi + 1)

    def reference():
        if len(months) < len(MODEL_SPECS[spec]) + 2:
            raise DataError(f"window has {len(months)} months")
        columns = []
        for key in ("cpi",) + MODEL_SPECS[spec]:
            absent = [o for o in months if o not in points[key]]
            if absent:
                raise MissingMonthsError(key, map(MonthKey.from_ordinal, absent))
            columns.append([points[key][o] for o in months])
        X = np.column_stack([np.ones(len(months))] + columns[1:])
        return fit_ols(columns[0], X, names=coefficient_names(MODEL_SPECS[spec]))

    got = outcome(
        lambda: fit_model(
            spec, data, MonthKey.from_ordinal(lo), MonthKey.from_ordinal(hi)
        )
    )
    expected = outcome(reference)
    if got[0] == "ok" and expected[0] == "ok":
        for field in ("estimates", "standard_errors", "p_values", "residuals"):
            assert getattr(got[1], field).tobytes() == getattr(
                expected[1], field
            ).tobytes()
    elif got[0] is DataError:
        assert expected[0] is DataError  # messages differ; the kind must not
    else:
        assert got == expected


@st.composite
def monthly_means(draw, dyadic):
    start = draw(st.integers(1990 * 12, 2010 * 12))
    offsets = sorted(draw(st.sets(st.integers(0, 47), min_size=1, max_size=30)))
    if dyadic:
        means = st.integers(-1024, 1024).map(lambda k: k / 1024.0)
    else:
        # -0.0 first: the running sum from 0.0 still starts at 0.0.
        means = st.just(-0.0) | st.floats(-1.0, 1.0, allow_nan=False)
    return [
        MonthlySentiment(
            MonthKey.from_ordinal(start + i), draw(means), draw(st.integers(1, 9))
        )
        for i in offsets
    ]


@SETTINGS
@given(monthly_means(dyadic=False))
def test_index_is_the_sequential_running_sum(monthly):
    by_ordinal = {m.month.ordinal: m for m in monthly}
    first, last = min(by_ordinal), max(by_ordinal)
    level, expected, gaps = 0.0, {}, []
    for o in range(first, last + 1):
        if o in by_ordinal:
            level += by_ordinal[o].mean_score
        else:
            gaps.append(o)
        expected[o] = level
    index = build_news_index(monthly)
    assert bits(index.series) == ref_bits(expected)
    assert ordinals(index.gap_months) == gaps
    assert index.counts.tolist() == [
        by_ordinal[o].article_count if o in by_ordinal else 0
        for o in range(first, last + 1)
    ]


@SETTINGS
@given(monthly_means(dyadic=True))
def test_index_first_differences_recover_the_means(monthly):
    # Dyadic means keep every prefix sum exact, so differencing is exact.
    index = build_news_index(monthly)
    levels = np.array(index.series.values())
    recovered = np.diff(levels, prepend=0.0)
    means = {m.month.ordinal: m.mean_score for m in monthly}
    for month, d in zip(index.series.months(), recovered.tolist()):
        assert d == means.get(month.ordinal, 0.0)
    assert np.cumsum(recovered).tolist() == levels.tolist()
