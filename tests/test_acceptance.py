"""Acceptance checks for the numerical core and the pipeline.

Ten independent criteria, each a single test that prints one PASS line
(with its runtime where the criterion bounds it). A failure anywhere
surfaces as an ordinary pytest failure for that criterion.
"""

import math
import re
import time

import numpy as np
from scipy.special import betainc

from newscast import (
    MonthKey,
    annualize,
    argmax_score,
    build_news_index,
    classification_report,
    deannualize,
    fit_model,
    fit_ols,
    giacomini_white,
    monthly_aggregate,
    month_range,
    moving_average_predictor,
    news_pi,
    nowcast,
    pct_change,
    polarity_score,
    read_probability_articles,
    read_series,
    toy_config_path,
)
from newscast.cli import main as cli_main
from newscast.sentiment import SentimentProbs

from conftest import make_articles, make_series

TOY_DIR = toy_config_path().parent


def _report(criterion, text, elapsed=None, limit=None):
    suffix = ""
    if elapsed is not None:
        suffix = f" [{elapsed:.2f}s < {limit:.0f}s]"
        assert elapsed < limit, f"criterion {criterion} overran: {elapsed:.2f}s"
    print(f"PASS criterion {criterion}: {text}{suffix}")


# --- 1. OLS agrees with an independent normal-equations oracle --------

def _ols_oracle(y, X):
    """Textbook normal-equations fit, deliberately not QR-based."""
    n, k = X.shape
    xtx = X.T @ X
    beta = np.linalg.solve(xtx, X.T @ y)
    resid = y - X @ beta
    rss = float(resid @ resid)
    df = n - k
    sigma2 = rss / df
    se = np.sqrt(np.diag(sigma2 * np.linalg.inv(xtx)))
    t = beta / se
    p = np.array([betainc(df / 2.0, 0.5, df / (df + tt * tt)) for tt in t])
    tss = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - rss / tss
    adj = 1.0 - (rss / df) / (tss / (n - 1))
    f = ((tss - rss) / (k - 1)) / (rss / df)
    fp = betainc(df / 2.0, (k - 1) / 2.0, df / (df + (k - 1) * f))
    return beta, se, t, p, r2, adj, math.sqrt(sigma2), f, fp


def test_c01_ols_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(20240311)
    for _ in range(25):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(k + 3, 31))
        X = np.column_stack([np.ones(n), rng.normal(size=(n, k - 1))])
        beta_true = rng.uniform(-2.0, 2.0, k)
        y = X @ beta_true + rng.normal(size=n)
        fit = fit_ols(y, X, names=tuple(f"x{j}" for j in range(k)))
        beta, se, t, p, r2, adj, rse, f, fp = _ols_oracle(y, X)
        np.testing.assert_allclose(fit.estimates, beta, rtol=1e-8, atol=1e-12)
        np.testing.assert_allclose(fit.standard_errors, se, rtol=1e-8)
        np.testing.assert_allclose(fit.t_statistics, t, rtol=1e-8)
        np.testing.assert_allclose(fit.p_values, p, rtol=1e-8, atol=1e-15)
        np.testing.assert_allclose(fit.r_squared, r2, rtol=1e-8)
        np.testing.assert_allclose(fit.adjusted_r_squared, adj, rtol=1e-8)
        np.testing.assert_allclose(fit.residual_std_error, rse, rtol=1e-8)
        np.testing.assert_allclose(fit.f_statistic, f, rtol=1e-8)
        np.testing.assert_allclose(fit.f_p_value, fp, rtol=1e-8, atol=1e-15)
    _report(1, "OLS matches a normal-equations oracle on 25 designs "
               "(rel 1e-8)", time.perf_counter() - start, 5.0)


# --- 2. Coefficient recovery at published-scale parameters ------------

def test_c02_coefficient_recovery():
    start = time.perf_counter()
    beta_true = np.array([0.021, 0.616, 0.186, 0.035])
    sigma, n, reps = 0.064, 60, 500
    rng = np.random.default_rng(42)
    inside = np.zeros(4)
    estimates = np.zeros((reps, 4))
    reported = np.zeros((reps, 4))
    for r in range(reps):
        ccpi = rng.normal(2.0, 0.5, n)
        fcpi = rng.normal(2.5, 1.0, n)
        gas = rng.normal(3.0, 8.0, n)
        X = np.column_stack([np.ones(n), ccpi, fcpi, gas])
        y = X @ beta_true + rng.normal(0.0, sigma, n)
        fit = fit_ols(y, X, names=("const", "ccpi", "fcpi", "gas"))
        b = np.asarray(fit.estimates)
        se = np.asarray(fit.standard_errors)
        estimates[r] = b
        reported[r] = se
        inside += np.abs(b - beta_true) <= 3.0 * se
    coverage = inside / reps
    assert (coverage >= 0.99).all(), f"3-SE coverage too low: {coverage}"
    ratio = estimates.std(axis=0, ddof=1) / reported.mean(axis=0)
    assert (np.abs(ratio - 1.0) <= 0.25).all(), (
        f"empirical vs reported SE off by more than 25%: {ratio}"
    )
    _report(2, f"3-SE coverage {np.round(coverage, 3).tolist()}, "
               f"SE ratios {np.round(ratio, 3).tolist()}",
            time.perf_counter() - start, 60.0)


# --- 3. Adding the news regressor never lowers R-squared --------------

def _percent_bundle(seed, news_effect):
    rng = np.random.default_rng(seed)
    n = 96
    ccpi = rng.normal(2.0, 0.5, n)
    fcpi = rng.normal(2.5, 1.0, n)
    gas = rng.normal(3.0, 8.0, n)
    news = rng.normal(0.0, 1.0, n)
    cpi = (0.02 + 0.6 * ccpi + 0.2 * fcpi + 0.03 * gas
           + news_effect * news + rng.normal(0.0, 0.1, n))
    return {
        key: make_series("2013-01", values, name=key, unit="percent")
        for key, values in (
            ("cpi", cpi), ("ccpi", ccpi), ("fcpi", fcpi),
            ("gas", gas), ("news", news),
        )
    }


def test_c03_nesting_never_hurts_fit():
    start_month = MonthKey.parse("2013-06")
    end_month = MonthKey.parse("2020-05")
    worst = math.inf
    for seed in range(20):
        # seeds 0-4 make the news series pure noise, the sharpest case
        effect = 0.0 if seed < 5 else 0.05 * (seed - 4)
        bundle = _percent_bundle(1000 + seed, effect)
        base = fit_model("fed", bundle, start_month, end_month)
        full = fit_model("fed+news", bundle, start_month, end_month)
        worst = min(worst, full.r_squared - base.r_squared)
        assert full.r_squared >= base.r_squared - 1e-12, (
            f"seed {seed}: R2 dropped from {base.r_squared} to "
            f"{full.r_squared} when adding the news regressor"
        )
    _report(3, f"R2(fed+news) >= R2(fed) on 20 fixtures "
               f"(worst margin {worst:.3e})")


# --- 4. Equal-ability test holds its size under the null --------------

def test_c04_gw_size_under_null():
    start = time.perf_counter()
    rng = np.random.default_rng(20240777)
    reps = 2000
    reject_uncond = 0
    reject_cond = 0
    for _ in range(reps):
        errors_a = rng.normal(0.0, 1.0, 48)
        errors_b = rng.normal(0.0, 1.0, 48)
        if giacomini_white(errors_a, errors_b).p_value < 0.05:
            reject_uncond += 1
        if giacomini_white(errors_a, errors_b,
                           "conditional-lag1").p_value < 0.05:
            reject_cond += 1
    rate_u = reject_uncond / reps
    rate_c = reject_cond / reps
    assert 0.03 <= rate_u <= 0.07, f"unconditional size {rate_u}"
    assert 0.025 <= rate_c <= 0.08, f"conditional-lag1 size {rate_c}"
    _report(4, f"5% rejection rates: unconditional {rate_u:.4f}, "
               f"conditional-lag1 {rate_c:.4f}",
            time.perf_counter() - start, 120.0)


# --- 5. Index algebra: differencing, order, and scaling ---------------

def test_c05_index_algebra():
    # Dyadic scores and power-of-two counts keep every monthly mean and
    # every prefix sum exactly representable, so differencing the index
    # must return the means bit for bit.
    rng = np.random.default_rng(5150)
    months = month_range(MonthKey.parse("2015-01"), MonthKey.parse("2017-12"))
    ids, dates, dyadic = [], [], []
    for i, month in enumerate(months):
        for j in range(2 ** int(rng.integers(0, 4))):
            ids.append(f"a{i}-{j}")
            dates.append(f"{month}-01")
            dyadic.append(int(rng.integers(-1024, 1025)) / 1024.0)
    articles = make_articles(ids, dates, scores=dyadic)
    monthly = monthly_aggregate(articles)
    index = build_news_index(monthly)
    assert index.series[months[0]] == monthly[0].mean_score
    for prev, month, stats in zip(months, months[1:], monthly[1:]):
        assert index.series[month] - index.series[prev] == stats.mean_score

    # Aggregation order must not matter at all (exactly rounded sums).
    scores = rng.uniform(-1.0, 1.0, len(articles))
    articles = articles.replace(scores=scores)
    baseline = tuple(build_news_index(monthly_aggregate(articles)).series[m]
                     for m in months)
    pool = articles
    for _ in range(100):
        pool = pool.take(rng.permutation(len(pool)))
        shuffled = tuple(build_news_index(monthly_aggregate(pool)).series[m]
                         for m in months)
        assert shuffled == baseline

    # Scaling every score by c scales every level by c.
    c = 1.9
    small = articles.replace(scores=scores / 2.0)
    scaled = small.replace(scores=small.scores * c)
    levels = np.array([build_news_index(monthly_aggregate(small)).series[m]
                       for m in months])
    levels_scaled = np.array(
        [build_news_index(monthly_aggregate(scaled)).series[m]
         for m in months]
    )
    np.testing.assert_allclose(levels_scaled, c * levels,
                               rtol=1e-12, atol=1e-12)
    _report(5, "index differencing is exact, aggregation is "
               "permutation-invariant, scaling is linear to 1e-12")


# --- 6. Transform identities ------------------------------------------

def test_c06_transform_identities():
    # Relative 1e-12, floored at 1: near -50 the annualized value sits
    # by -99.98 where the inverse map's derivative is ~170, so ~1e-12
    # absolute drift is intrinsic to binary64 no matter the algorithm.
    grid = [-50.0 + 100.0 * (i + 0.5) / 1000.0 for i in range(1000)]
    worst = 0.0
    for x in grid:
        scale = max(1.0, abs(x))
        worst = max(worst,
                    abs(deannualize(annualize(x)) - x) / scale,
                    abs(annualize(deannualize(x)) - x) / scale)
    assert worst <= 1e-12, f"roundtrip drift {worst}"

    levels = make_series("2010-01", [100.0 * 1.003 ** t for t in range(60)])
    pi = pct_change(levels, window=12)
    expected = 100.0 * (1.003 ** 12 - 1.0)
    for month in month_range(pi.first_month(), pi.last_month()):
        assert abs(pi[month] - expected) <= 1e-10 * expected

    rng = np.random.default_rng(606)
    for _ in range(50):
        values = rng.normal(2.0, 1.5, 12)
        series = make_series("2019-01", values, unit="percent")
        t = MonthKey.parse("2020-01")
        assert moving_average_predictor(series, t) == math.fsum(values) / 12
    _report(6, "annualize roundtrip <= 1e-12, geometric percent change "
               "constant to 1e-10, moving average exact")


# --- 7. Score-function properties -------------------------------------

ARGMAX_TIE_TABLE = [
    ((1 / 3, 1 / 3, 1 / 3), 0),
    ((0.4, 0.4, 0.2), 0),
    ((0.4, 0.2, 0.4), 0),
    ((0.2, 0.4, 0.4), 0),
    ((0.5, 0.5, 0.0), 0),
    ((0.5, 0.0, 0.5), 0),
    ((0.0, 0.5, 0.5), 0),
    ((0.2, 0.3, 0.5), 1),
]


def test_c07_score_function_properties():
    rng = np.random.default_rng(777)
    raw = rng.exponential(1.0, size=(10_000, 3))
    raw /= raw.sum(axis=1, keepdims=True)
    for down, neutral, up in raw:
        forward = polarity_score(SentimentProbs(down, neutral, up))
        backward = polarity_score(SentimentProbs(up, neutral, down))
        assert forward == -backward
        assert -1.0 <= forward <= 1.0

    assert argmax_score(SentimentProbs(1.0, 0.0, 0.0)) == -1
    assert argmax_score(SentimentProbs(0.0, 1.0, 0.0)) == 0
    assert argmax_score(SentimentProbs(0.0, 0.0, 1.0)) == 1
    for (down, neutral, up), want in ARGMAX_TIE_TABLE:
        assert argmax_score(SentimentProbs(down, neutral, up)) == want
    _report(7, "polarity antisymmetric and bounded on 10000 vectors, "
               "argmax one-hot and tie table exact")


# --- 8. Weighted F1 matches a brute-force oracle -----------------------

def _weighted_f1_oracle(predictions, gold):
    total = 0.0
    for label in (-1, 0, 1):
        tp = sum(1 for p, g in zip(predictions, gold)
                 if p == label and g == label)
        fp = sum(1 for p, g in zip(predictions, gold)
                 if p == label and g != label)
        fn = sum(1 for p, g in zip(predictions, gold)
                 if p != label and g == label)
        support = tp + fn
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / support if support else 0.0
        f1 = (2.0 * precision * recall / (precision + recall)
              if precision + recall else 0.0)
        total += support * f1
    return total / len(gold)


def test_c08_weighted_f1_oracle():
    rng = np.random.default_rng(888)
    for _ in range(20):
        size = int(rng.integers(5, 200))
        gold = [int(v) for v in rng.integers(-1, 2, size)]
        predictions = [int(v) for v in rng.integers(-1, 2, size)]
        report = classification_report(predictions, gold)
        oracle = _weighted_f1_oracle(predictions, gold)
        assert abs(report.weighted_f1 - oracle) <= 1e-9
    perfect = [int(v) for v in np.random.default_rng(9).integers(-1, 2, 60)]
    assert classification_report(perfect, perfect).weighted_f1 == 1.0
    _report(8, "weighted F1 matches the confusion-matrix oracle on 20 "
               "random pairs (abs 1e-9); perfect predictions give 1.0")


# --- 9. The bundled pipeline is deterministic --------------------------

PIPELINE_FILES = {
    "articles_probs.csv",
    "articles_scored.csv",
    "news_index.csv",
    "news_index_meta.csv",
    "regression.txt",
    "regression.csv",
    "forecasts.csv",
    "evaluation.txt",
    "evaluation.csv",
}


def test_c09_pipeline_determinism(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "out"
    snapshots = []
    for _ in range(3):
        for command in ("score", "build-index", "fit", "backtest",
                        "evaluate"):
            code = cli_main(["--config", "toy", "--out", str(out), command])
            assert code == 0, f"{command} exited {code}"
        snapshots.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert set(snapshots[0]) == PIPELINE_FILES
    assert snapshots[0] == snapshots[1] == snapshots[2]

    regression = snapshots[0]["regression.txt"].decode()
    assert "Dependent variable: CPI" in regression
    assert re.search(r"\(\d+\.\d+\)", regression), "no parenthesized SEs"
    assert "*p<0.1; **p<0.05; ***p<0.01" in regression
    evaluation = snapshots[0]["evaluation.txt"].decode()
    assert "RMSE" in evaluation
    assert "(--)" in evaluation, "no baseline placeholder row"
    assert re.search(r"\(\d\.\d+\**\)", evaluation), "no test-vs-baseline p row"
    _report(9, "three pipeline reruns byte-identical; report layouts as "
               "published", time.perf_counter() - start, 30.0)


# --- 10. Deleting future articles never changes the past ---------------

def test_c10_no_look_ahead():
    articles, rejections = read_probability_articles(TOY_DIR / "news_probs.csv")
    assert not rejections
    scored = articles.replace(scores=np.array([
        polarity_score(SentimentProbs(*p)) for p in articles.probs.tolist()
    ]))
    cutoff = MonthKey.parse("2021-06")
    truncated = scored.take(scored.months <= cutoff.ordinal)
    assert len(truncated) < len(scored)

    full_index = build_news_index(monthly_aggregate(scored))
    part_index = build_news_index(monthly_aggregate(truncated))
    past = month_range(full_index.series.first_month(), cutoff)
    for month in past:
        assert part_index.series[month] == full_index.series[month]

    def bundle(index):
        data = {
            key: pct_change(read_series(TOY_DIR / f"{key}.csv"), window=12)
            for key in ("cpi", "ccpi", "fcpi", "gas")
        }
        data["news"] = news_pi(index, window=12, mode="level-diff")
        return data

    full_bundle = bundle(full_index)
    part_bundle = bundle(part_index)
    train_start = MonthKey.parse("2015-01")
    train_end = MonthKey.parse("2019-12")
    for spec in ("fed", "fed+news"):
        fit_full = fit_model(spec, full_bundle, train_start, train_end)
        fit_part = fit_model(spec, part_bundle, train_start, train_end)
        for month in month_range(train_end.shift(1), cutoff):
            a = nowcast(spec, fit_full, full_bundle, month)
            b = nowcast(spec, fit_part, part_bundle, month)
            assert a == b, f"{spec} nowcast for {month} moved: {a} vs {b}"
    _report(10, "index levels and nowcasts through the cutoff are "
                "bit-identical after dropping later articles")
