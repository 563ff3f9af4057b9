"""Seeded inputs and command chains for the benchmark workloads.

Each workload writes its input files into a run directory and names the
CLI commands that consume them. Inputs depend only on the seed: the same
seed writes byte-identical files. Every seed gives inputs the pipeline
accepts: price levels are positive, the pre-built NEWS index stays above
zero (so its percent change is defined), and fewer than 10% of article
rows are malformed.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FIRST_MONTH = (1986, 1)

#: The inflation lexicon written into the ingest configs. The benchmark
#: owns it, so the expected filter outcome does not depend on package
#: defaults.
LEXICON = (
    "Inflation", "Gasoline prices", "Food prices", "Deflation",
    "Consumer price index", "CPI", "Core CPI",
)

# Headline parts. Subjects in _HIT_SUBJECTS contain a lexicon phrase;
# nothing in the other lists does, so a headline passes the filter
# exactly when its subject is a hit.
_HIT_SUBJECTS = (
    "Inflation", "Gasoline prices", "Food prices", "Core CPI",
    "The consumer price index", "Deflation fears", "CPI inflation",
)
_MISS_SUBJECTS = (
    "Stock markets", "Home sales", "Factory output", "Tech shares",
    "Retail sales", "Bond yields", "Job growth", "Consumer confidence",
)
_UP_VERBS = ("rise", "surge", "jump", "climb", "soar", "spike")
_DOWN_VERBS = ("fall", "drop", "decline", "ease", "cool", "slow")
_FLAT_VERBS = ("hold steady", "stay flat", "remain unchanged")
_TAILS = (
    "as the central bank meets", "in a volatile month",
    "after a quiet week", "despite strong demand, analysts say",
    "while wages lag", "for a second straight month",
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Each command is (label, CLI arguments); the label names its
    #: cli.<label>_s metric, and repeated labels add up.
    commands: tuple[tuple[str, tuple[str, ...]], ...]


def _cmd(config: str, out: str, *args: str) -> tuple[str, ...]:
    return ("--config", config, "--out", out, *args)


WORKLOADS = {
    w.name: w
    for w in (
        # What the README tells users to run. Each command is ~1.3-1.8 s,
        # of which ~1.2 s is interpreter start and imports, so it shows
        # import and CLI changes and hides compute changes.
        Workload(
            "toy_cli",
            "bundled toy data through all six CLI commands; startup-bound, "
            "shows import and CLI overhead",
            (
                ("score", _cmd("toy", "out", "score")),
                ("build-index", _cmd("toy", "out", "build-index")),
                ("fit", _cmd("toy", "out", "fit", "all")),
                ("nowcast", _cmd("toy", "out", "nowcast", "all")),
                ("backtest", _cmd("toy", "out", "backtest", "all")),
                ("evaluate", _cmd("toy", "out", "evaluate")),
            ),
        ),
        # Article parsing, scoring, lexicon filtering and the index, at
        # a size (INGEST_PROBS + INGEST_TEXT rows) where they, not
        # startup, take most of the time. It never reaches ols or
        # nowcast, so it is the workload on which a fitting change must
        # show no effect.
        Workload(
            "news_ingest",
            "150k probability and 20k text articles through score and "
            "build-index; io, sentiment and index bound",
            (
                ("score", _cmd("inputs/probs.cfg", "out/probs", "score")),
                ("score", _cmd("inputs/text.cfg", "out/text", "score")),
                ("build-index", _cmd("inputs/probs.cfg", "out/probs",
                                     "build-index")),
            ),
        ),
        # 5 specs x 336 rolling 120-month windows = 1680 OLS fits with
        # HC1 errors, then conditional GW tests. The NEWS index is an
        # input file, so no article is parsed: the workload for the
        # month-axis and batched-OLS work.
        Workload(
            "rolling_backtest",
            "480-month series, 5 specs x 336 rolling windows = 1680 fits; "
            "ols, nowcast and evaluation bound",
            (
                ("fit", _cmd("inputs/rolling.cfg", "out", "fit", "all")),
                ("backtest", _cmd("inputs/rolling.cfg", "out", "backtest",
                                  "all")),
                ("evaluate", _cmd("inputs/rolling.cfg", "out", "evaluate")),
            ),
        ),
    )
}

#: Command labels across workloads; each has a cli.<label>_s metric.
COMMAND_LABELS = tuple(dict.fromkeys(
    label for w in WORKLOADS.values() for label, _ in w.commands
))

# news_ingest sizes. 150k rows keep score + build-index at several
# seconds of real work per chain while the peak RSS stays near 250 MB.
INGEST_PROBS = 150_000
# 20k headlines: enough that filtering and the keyword classifier take
# measurable time next to the probability file.
INGEST_TEXT = 20_000
# 40 years of months, as in rolling_backtest.
N_MONTHS = 480
# Calendar months with no articles, so gap handling is exercised.
INGEST_GAP_MONTHS = 6
# Share of probability rows made malformed (rejected, well under the
# 10% at which score refuses to run).
MALFORMED_SHARE = 0.002
# Share of headlines that mention a lexicon phrase.
HIT_SHARE = 0.6

# rolling_backtest windows: percent changes start one month in, the
# first training window is 120 months from month 24, and months
# 144..479 (336 of them) are nowcast.
ROLLING_WINDOW = 120
ROLLING_TRAIN_START = 24
ROLLING_EVAL_START = ROLLING_TRAIN_START + ROLLING_WINDOW
ROLLING_SPECS = ("fed", "news", "fed+news", "fed-gas+news", "ccpi+news")
ROLLING_FITS = len(ROLLING_SPECS) * (N_MONTHS - ROLLING_EVAL_START)


def month_label(index: int) -> str:
    year, month0 = divmod((FIRST_MONTH[0] * 12 + FIRST_MONTH[1] - 1) + index, 12)
    return f"{year:04d}-{month0 + 1:02d}"


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _series_text(values: np.ndarray, fmt: str) -> str:
    lines = ["date,value"]
    lines += [f"{month_label(i)},{v:{fmt}}" for i, v in enumerate(values)]
    return "\n".join(lines) + "\n"


def write_price_levels(directory: Path, seed: int) -> None:
    """cpi, ccpi, fcpi and gas levels over N_MONTHS months.

    Component monthly percent changes are white noise around their
    means; CPI's change is a fixed linear combination of them plus
    noise, so the price specs have signal to fit. Levels compound from
    a base of 100, with changes kept above -50%.
    """
    rng = _rng(seed, 1)
    n = N_MONTHS
    ccpi = rng.normal(0.20, 0.15, n)
    fcpi = rng.normal(0.25, 0.30, n)
    gas = rng.normal(0.20, 3.00, n)
    cpi = 0.02 + 0.60 * ccpi + 0.18 * fcpi + 0.035 * gas + rng.normal(0, 0.07, n)
    for name, pct in (("cpi", cpi), ("ccpi", ccpi), ("fcpi", fcpi), ("gas", gas)):
        levels = 100.0 * np.cumprod(1.0 + np.maximum(pct, -50.0) / 100.0)
        _write(directory / f"{name}.csv", _series_text(levels, ".6f"))


def write_news_index(directory: Path, seed: int) -> None:
    """A pre-built cumulative NEWS index, shifted to stay >= 1."""
    rng = _rng(seed, 2)
    levels = 20.0 + np.cumsum(rng.uniform(-0.4, 0.5, N_MONTHS))
    levels += max(0.0, 1.0 - levels.min())
    _write(directory / "news_index.csv", _series_text(levels, ".9f"))


def _article_months(rng: np.random.Generator, n: int) -> np.ndarray:
    """Month indices for n articles, avoiding INGEST_GAP_MONTHS interior months."""
    gaps = rng.choice(np.arange(1, N_MONTHS - 1), INGEST_GAP_MONTHS, replace=False)
    allowed = np.setdiff1d(np.arange(N_MONTHS), gaps)
    return np.sort(rng.choice(allowed, n))


def write_probability_articles(
    directory: Path, seed: int, n: int = INGEST_PROBS
) -> None:
    rng = _rng(seed, 3)
    months = _article_months(rng, n)
    days = rng.integers(1, 29, n)
    probs = np.maximum(rng.dirichlet((2.0, 2.0, 2.0), n), 1e-3)
    probs /= probs.sum(axis=1, keepdims=True)
    p_down = np.round(probs[:, 0], 6)
    p_neutral = np.round(probs[:, 1], 6)
    bad = set(rng.choice(n, int(n * MALFORMED_SHARE), replace=False).tolist())
    lines = ["id,date,p_down,p_neutral,p_up"]
    for i in range(n):
        date = f"{month_label(int(months[i]))}-{int(days[i]):02d}"
        pd_, pn = float(p_down[i]), float(p_neutral[i])
        pu = f"{1.0 - pd_ - pn:.6f}"
        if i in bad:
            # Half the malformed rows have an impossible date, half a
            # non-numeric probability.
            if i % 2:
                date = date[:8] + "00"
            else:
                pu = "n/a"
        lines.append(f"p{i:06d},{date},{pd_:.6f},{pn:.6f},{pu}")
    _write(directory / "news_probs.csv", "\n".join(lines) + "\n")


def write_text_articles(directory: Path, seed: int, n: int = INGEST_TEXT) -> None:
    rng = _rng(seed, 4)
    months = _article_months(rng, n)
    days = rng.integers(1, 29, n)
    hit = rng.random(n) < HIT_SHARE
    subject_pick = rng.integers(0, 1 << 30, n)
    verb_kind = rng.integers(0, 3, n)
    verb_pick = rng.integers(0, 1 << 30, n)
    tail_pick = rng.integers(0, len(_TAILS), n)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["id", "date", "text"])
    for i in range(n):
        subjects = _HIT_SUBJECTS if hit[i] else _MISS_SUBJECTS
        verbs = (_UP_VERBS, _DOWN_VERBS, _FLAT_VERBS)[verb_kind[i]]
        text = (
            f"{subjects[subject_pick[i] % len(subjects)]} "
            f"{verbs[verb_pick[i] % len(verbs)]} {_TAILS[tail_pick[i]]}"
        )
        date = f"{month_label(int(months[i]))}-{int(days[i]):02d}"
        writer.writerow([f"t{i:05d}", date, text])
    _write(directory / "news_text.csv", buffer.getvalue())


def _config(**keys: str) -> str:
    return "".join(f"{k} = {v}\n" for k, v in keys.items())


def _level_keys() -> dict[str, str]:
    return {"cpi": "cpi.csv", "ccpi": "ccpi.csv", "fcpi": "fcpi.csv",
            "gas": "gas.csv", "window": "1"}


def _windows(train_start: int, train_end: int, eval_start: int) -> dict[str, str]:
    return {
        "train_start": month_label(train_start),
        "train_end": month_label(train_end),
        "eval_start": month_label(eval_start),
        "eval_end": month_label(N_MONTHS - 1),
    }


def write_inputs(workload: str, run_dir: Path, seed: int) -> None:
    """Write the input files of one workload under run_dir/inputs."""
    inputs = run_dir / "inputs"
    if workload == "toy_cli":
        return  # the bundled toy dataset is the input
    write_price_levels(inputs, seed)
    if workload == "news_ingest":
        write_probability_articles(inputs, seed)
        write_text_articles(inputs, seed)
        common = {
            **_level_keys(),
            **_windows(12, 131, 132),
            "lexicon": "; ".join(LEXICON),
            "day_cutoff": "15",
        }
        _write(inputs / "probs.cfg", _config(**common, news_probs="news_probs.csv"))
        _write(inputs / "text.cfg", _config(**common, news_text="news_text.csv"))
    elif workload == "rolling_backtest":
        write_news_index(inputs, seed)
        _write(
            inputs / "rolling.cfg",
            _config(
                **_level_keys(),
                **_windows(ROLLING_TRAIN_START, ROLLING_EVAL_START - 1,
                           ROLLING_EVAL_START),
                news_index="news_index.csv",
                scheme="rolling",
                specs=", ".join(ROLLING_SPECS),
                robust="true",
                gw_variant="conditional-lag1",
                rmse_unit="fraction",
            ),
        )
    else:
        raise ValueError(f"unknown workload {workload!r}")

