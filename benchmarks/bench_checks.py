"""Output checks that hold for any seed, plus committed output digests.

The numpy checks re-derive results from the input files with code that
shares nothing with the package: the NEWS index as a cumulative sum of
monthly mean polarity, sampled nowcasts from np.linalg.lstsq betas, and
RMSE from the forecast file. Each check returns an error message, or
None when it passes.
"""

from __future__ import annotations

import csv
import datetime as dt
import hashlib
import json
import math
from pathlib import Path

import numpy as np

DIGESTS_PATH = Path(__file__).with_name("digests.json")

#: Regressors of each model, as documented in the README's model table.
SPEC_REGRESSORS = {
    "fed": ("ccpi", "fcpi", "gas"),
    "news": ("news",),
    "fed+news": ("ccpi", "fcpi", "gas", "news"),
    "fed-gas+news": ("ccpi", "fcpi", "news"),
    "ccpi+news": ("ccpi", "news"),
}
MA_LAGS = 12
NOWCAST_SAMPLES = 24


def sha256_tree(directory: Path) -> dict[str, str]:
    """sha256 of every file under directory, keyed by relative path."""
    return {
        path.relative_to(directory).as_posix(): hashlib.sha256(
            path.read_bytes()
        ).hexdigest()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


def committed_digests(workload: str) -> dict[str, str] | None:
    try:
        table = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None
    return table.get(workload)


def compare_digests(actual: dict[str, str], expected: dict[str, str]) -> str | None:
    if actual == expected:
        return None
    changed = sorted(
        name for name in set(actual) | set(expected)
        if actual.get(name) != expected.get(name)
    )
    return f"output files differ from the expected digests: {changed}"


def _data_rows(path: Path) -> list[list[str]]:
    """CSV rows after leading '#' comment lines and the header."""
    lines = path.read_text(encoding="utf-8").splitlines()
    start = 0
    while start < len(lines) and lines[start].startswith("#"):
        start += 1
    return [row for row in csv.reader(lines[start + 1:]) if row]


def read_config(path: Path) -> dict[str, str]:
    values = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def _ordinal(label: str) -> int:
    year, month = label.split("-")[:2]
    return int(year) * 12 + int(month) - 1


def _pct_series(path: Path, window: int) -> dict[int, float]:
    """window-month percent change of a date,value level file."""
    rows = _data_rows(path)
    ords = np.array([_ordinal(r[0]) for r in rows])
    levels = np.array([float(r[1]) for r in rows])
    if np.any(np.diff(ords) != 1):
        raise ValueError(f"{path} is not contiguous")
    pct = 100.0 * (levels[window:] / levels[:-window] - 1.0)
    return dict(zip(ords[window:].tolist(), pct.tolist()))


# ------------------------------------------------------------- NEWS index


def expected_news_index(probs_path: Path, day_cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """(month ordinals, levels): np.cumsum of monthly mean p_up - p_down.

    Rows whose date or probabilities do not parse are skipped, as the
    score command rejects them. Months between the first and last kept
    month with no article contribute 0.
    """
    by_month: dict[int, list[float]] = {}
    for row in _data_rows(probs_path):
        try:
            date = dt.date.fromisoformat(row[1].strip())
            p_down, p_up = float(row[2]), float(row[4])
        except (ValueError, IndexError):
            continue
        if date.day <= day_cutoff:
            by_month.setdefault(date.year * 12 + date.month - 1, []).append(
                p_up - p_down
            )
    first, last = min(by_month), max(by_month)
    months = np.arange(first, last + 1)
    means = np.array(
        [np.mean(by_month[m]) if m in by_month else 0.0 for m in months]
    )
    return months, np.cumsum(means)


def check_news_index(index_path: Path, expected: tuple[np.ndarray, np.ndarray]) -> str | None:
    months, levels = expected
    rows = _data_rows(index_path)
    got_months = np.array([_ordinal(r[0]) for r in rows])
    got = np.array([float(r[1]) for r in rows])
    if got_months.shape != months.shape or np.any(got_months != months):
        return f"{index_path.name}: months differ from the expected range"
    worst = float(np.max(np.abs(got - levels)))
    if worst > 1e-9:
        return f"{index_path.name}: differs from cumsum of monthly means by {worst:.3g}"
    return None


def expected_filter_count(text_path: Path, lexicon) -> int:
    """Headlines that mention a lexicon phrase, case- and space-insensitively."""
    phrases = [p.lower() for p in lexicon]
    return sum(
        1 for row in _data_rows(text_path)
        if any(p in " ".join(row[2].split()).lower() for p in phrases)
    )


def check_filter_count(scored_path: Path, expected: int) -> str | None:
    got = len(_data_rows(scored_path))
    if got != expected:
        return f"{scored_path.name}: {got} articles kept, expected {expected}"
    return None


# ---------------------------------------------------------------- nowcasts


def _forecast_rows(path: Path):
    return [
        (r[1], _ordinal(r[0]), float(r[2]), float(r[3]), float(r[4]), float(r[5]))
        for r in _data_rows(path)
    ]


def check_nowcasts(config_path: Path, out_dir: Path, seed: int) -> str | None:
    """Sampled nowcasts equal those rebuilt from lstsq betas."""
    cfg = read_config(config_path)
    window = int(cfg.get("window", "12"))
    base = config_path.parent
    pct = {
        key: _pct_series(base / cfg[key], window)
        for key in ("cpi", "ccpi", "fcpi", "gas")
    }
    index_file = base / cfg["news_index"] if cfg.get("news_index") else out_dir / "news_index.csv"
    pct["news"] = _pct_series(index_file, window)
    train_start, train_end = _ordinal(cfg["train_start"]), _ordinal(cfg["train_end"])
    length = train_end - train_start + 1
    rolling = cfg.get("scheme", "fixed") == "rolling"

    rows = _forecast_rows(out_dir / "forecasts.csv")
    rng = np.random.default_rng([seed, 7])
    picks = rng.choice(len(rows), min(NOWCAST_SAMPLES, len(rows)), replace=False)
    for i in sorted(picks.tolist()):
        model, t, got = rows[i][0], rows[i][1], rows[i][2]
        regressors = SPEC_REGRESSORS[model]
        start, end = (t - length, t - 1) if rolling else (train_start, train_end)
        months = range(start, end + 1)
        y = np.array([pct["cpi"][m] for m in months])
        X = np.column_stack(
            [np.ones(length)] + [[pct[r][m] for m in months] for r in regressors]
        )
        beta = np.linalg.lstsq(X, y, rcond=None)[0]
        x_t = [1.0] + [
            pct[r][t] if r == "news"
            else np.mean([pct[r][t - k] for k in range(1, MA_LAGS + 1)])
            for r in regressors
        ]
        want = float(np.dot(beta, x_t))
        if not math.isclose(got, want, rel_tol=1e-8, abs_tol=1e-10):
            return f"forecasts.csv: {model} nowcast {got!r}, lstsq gives {want!r}"
    return None


def check_rmse(out_dir: Path) -> str | None:
    """RMSE recomputed from forecasts.csv matches evaluation.csv (fraction units)."""
    errors: dict[str, list[float]] = {}
    for model, _, _, cast_ann, _, real_ann in _forecast_rows(out_dir / "forecasts.csv"):
        errors.setdefault(model, []).append(cast_ann * 0.01 - real_ann * 0.01)
    reported = {r[0]: float(r[1]) for r in _data_rows(out_dir / "evaluation.csv")}
    if list(reported) != list(errors):
        return f"evaluation.csv models {list(reported)} != forecasts {list(errors)}"
    for model, e in errors.items():
        want = float(np.sqrt(np.mean(np.square(e))))
        if not math.isclose(reported[model], want, rel_tol=1e-9):
            return f"evaluation.csv: {model} RMSE {reported[model]!r}, recomputed {want!r}"
    return None
