"""Article filtering, sentiment scores, and classification metrics.

Labels are the 3-way scheme -1 (prices expected to fall), 0 (neutral),
+1 (prices expected to rise). Probability vectors over these labels are
turned into scalar scores either by taking the most probable label
(argmax) or the expectation of the label (polarity); SCORES names both.

A batch of articles travels through the pipeline as an ArticleTable:
columns of ids and datetime64[D] dates, plus texts, probabilities or
scores; month ordinals and days of month are derived from the dates. It
is the one article type: readers return it, filtering, classifying and
scoring work on its columns, and its constructor is where an article's
values are checked.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, InvalidProbabilityError

LABELS = (-1, 0, 1)

#: Phrases an article must mention to count as inflation-related.
DEFAULT_LEXICON = (
    "Inflation",
    "Gasoline prices",
    "Food prices",
    "Deflation",
    "Consumer price index",
    "CPI",
    "Core CPI",
)

PROB_SUM_TOL = 1e-6


@dataclass(frozen=True)
class SentimentProbs:
    """Probabilities for the labels (-1, 0, +1), in that order."""

    p_down: float
    p_neutral: float
    p_up: float

    def __post_init__(self):
        for name, p in (
            ("p_down", self.p_down),
            ("p_neutral", self.p_neutral),
            ("p_up", self.p_up),
        ):
            if not 0.0 <= p <= 1.0:
                raise InvalidProbabilityError(f"{name}={p} outside [0, 1]")
        total = self.p_down + self.p_neutral + self.p_up
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise InvalidProbabilityError(
                f"probabilities sum to {total}, not 1 within {PROB_SUM_TOL}"
            )

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.p_down, self.p_neutral, self.p_up)


def invalid_probabilities(probs: np.ndarray) -> np.ndarray:
    """True for each row of an n x 3 (p_down, p_neutral, p_up) matrix
    that SentimentProbs refuses: an entry outside [0, 1] (NaN included),
    or a left-to-right sum further than PROB_SUM_TOL from 1."""
    in_range = ((probs >= 0.0) & (probs <= 1.0)).all(axis=1)
    with np.errstate(invalid="ignore"):  # inf - inf: refused by range anyway
        total = probs[:, 0] + probs[:, 1] + probs[:, 2]
    return ~in_range | (np.abs(total - 1.0) > PROB_SUM_TOL)


def _probability_reason(row) -> str:
    """Why SentimentProbs refuses a row that invalid_probabilities flags."""
    try:
        SentimentProbs(*row)
    except InvalidProbabilityError as exc:
        return str(exc)
    raise AssertionError(f"SentimentProbs accepts a refused row {row}")


#: The dates an article file can hold.
DATE_RANGE = np.array(["0001-01-01", "9999-12-31"], dtype="datetime64[D]")

#: The values ArticleTable refuses, per column, in the order it checks
#: them: (column -> mask of refused entries, entry -> the reason).
COLUMN_CHECKS = {
    "dates": (  # NaT compares false, so it is refused too
        lambda dates: ~((dates >= DATE_RANGE[0]) & (dates <= DATE_RANGE[1])),
        lambda day: f"date {np.datetime64(day, 'D')} outside years 1..9999",
    ),
    "probs": (invalid_probabilities, _probability_reason),
    "scores": (
        lambda scores: ~((scores >= -1.0) & (scores <= 1.0)),
        "score {} outside [-1, 1]".format,
    ),
}


class ArticleTable:
    """A batch of articles stored as columns.

    - ids: list of str.
    - dates: datetime64[D] array.
    - texts: list of str, or None.
    - probs: n x 3 float64 (p_down, p_neutral, p_up), or None.
    - scores: float64, or None.

    A column that is None is absent for every article. months_and_days
    reads the months (int64 MonthKey ordinals) and the days of month
    from the dates. The constructor checks that every column holds one
    entry per article, that dates is a datetime64[D] array, and that
    each entry passes COLUMN_CHECKS: dates in years 1..9999 (never
    NaT), probability rows that SentimentProbs accepts, scores in
    [-1, 1]. A failure raises DataError naming the column or the first
    offending article. replace checks only the columns it replaces, and
    take only selects rows.
    """

    __slots__ = ("ids", "dates", "texts", "probs", "scores")

    def __init__(
        self,
        ids: list[str],
        dates: np.ndarray,
        texts: list[str] | None = None,
        probs: np.ndarray | None = None,
        scores: np.ndarray | None = None,
    ):
        columns = (ids, dates, texts, probs, scores)
        for name, column in zip(self.__slots__, columns):
            setattr(self, name, column)
        self._check(self.__slots__)

    @property
    def months(self) -> np.ndarray:
        return self.months_and_days()[0]

    def months_and_days(self) -> tuple[np.ndarray, np.ndarray]:
        """The month ordinal and the day of month of every date, from one
        conversion of the column."""
        starts = self.dates.astype("datetime64[M]")
        # datetime64[M] counts months from 1970-01.
        months = starts.astype(np.int64) + 1970 * 12
        return months, (self.dates - starts).astype(np.int64) + 1

    def _check(self, names: Iterable[str]) -> None:
        """Check that all columns are equally long, then the values of
        the named columns."""
        lengths = {
            name: len(column)
            for name in self.__slots__
            if (column := getattr(self, name)) is not None
        }
        if len(set(lengths.values())) > 1:
            short = min(lengths.values())
            at = f" at article {self.ids[short]!r}" if short < len(self.ids) else ""
            listing = ", ".join(f"{name} {n}" for name, n in lengths.items())
            raise DataError(f"article columns differ in length{at}: {listing}")
        kind = str(getattr(self.dates, "dtype", type(self.dates).__name__))
        if "dates" in names and kind != "datetime64[D]":
            raise DataError(f"article column dates must be datetime64[D], got {kind}")
        first = None
        for name, (refused, reason) in COLUMN_CHECKS.items():
            column = getattr(self, name)
            if name not in names or column is None:
                continue
            hits = np.flatnonzero(refused(column))
            # At one article the earlier check is the one reported.
            if hits.size and (first is None or hits[0] < first[0]):
                first = int(hits[0]), reason(column[hits[0]].tolist())
        if first is not None:
            raise DataError(f"article {self.ids[first[0]]!r}: {first[1]}")

    def _with(self, columns: dict) -> ArticleTable:
        """This table with the given columns replaced, unchecked."""
        table = object.__new__(ArticleTable)
        for name in self.__slots__:
            setattr(table, name, columns.get(name, getattr(self, name)))
        return table

    def replace(self, **columns) -> ArticleTable:
        """A table with the named columns replaced."""
        table = self._with(columns)
        table._check(columns)
        return table

    def take(self, selection: np.ndarray) -> ArticleTable:
        """The articles at a boolean mask or an index array, in order."""
        rows = np.arange(len(self))[selection]
        picked = rows.tolist()
        return self._with({
            name: column[rows]
            if isinstance(column, np.ndarray) else [column[i] for i in picked]
            for name in self.__slots__
            if (column := getattr(self, name)) is not None
        })

    def __len__(self) -> int:
        return len(self.ids)

    def __repr__(self) -> str:
        return f"<ArticleTable of {len(self)} articles>"


def normalize_whitespace(text: str) -> str:
    return " ".join(text.split())


def _phrases(lexicon: Iterable[str]) -> list[str]:
    """Distinct non-empty phrases, whitespace-normalized and lower-cased."""
    normalized = dict.fromkeys(normalize_whitespace(p).lower() for p in lexicon)
    return [p for p in normalized if p]


def _haystacks(texts: Iterable[str]) -> list[str]:
    return [normalize_whitespace(text).lower() for text in texts]


def lexicon_mask(
    texts: Sequence[str], lexicon: Iterable[str] = DEFAULT_LEXICON
) -> np.ndarray:
    """lexicon_filter of every text, as a boolean array."""
    phrases = _phrases(lexicon)
    if not phrases:
        raise ConfigError("lexicon must contain at least one phrase")
    return np.fromiter(
        (any(p in haystack for p in phrases) for haystack in _haystacks(texts)),
        dtype=bool,
        count=len(texts),
    )


def lexicon_filter(text: str, lexicon: Iterable[str] = DEFAULT_LEXICON) -> bool:
    """True iff any lexicon phrase occurs in the text.

    Matching is case-insensitive, phrase-level substring on
    whitespace-normalized text, so multi-word phrases match across
    line breaks and extra spaces.
    """
    return bool(lexicon_mask([text], lexicon)[0])


def polarity_score(probs: SentimentProbs) -> float:
    """Expected label under the probability vector: p_up - p_down."""
    return probs.p_up - probs.p_down


def argmax_score(probs: SentimentProbs) -> int:
    """Label of the strictly largest probability.

    Tie rule: any tie involving the neutral label resolves to neutral,
    and a down/up tie also resolves to 0, so a directional label wins
    only when strictly most probable.
    """
    if probs.p_up > probs.p_down and probs.p_up > probs.p_neutral:
        return 1
    if probs.p_down > probs.p_up and probs.p_down > probs.p_neutral:
        return -1
    return 0


def polarity_scores(probs: np.ndarray) -> np.ndarray:
    """polarity_score of every row of an n x 3 probability matrix."""
    return probs[:, 2] - probs[:, 0]


def argmax_scores(probs: np.ndarray) -> np.ndarray:
    """argmax_score of every row of an n x 3 probability matrix, as floats."""
    down, neutral, up = probs.T
    return np.select(
        [(up > down) & (up > neutral), (down > up) & (down > neutral)],
        [1.0, -1.0],
        0.0,
    )


#: The score functions by name, each from an n x 3 probability matrix
#: to one score per row: "polarity" is the expected label, "argmax" the
#: most probable label.
SCORES = {"polarity": polarity_scores, "argmax": argmax_scores}


#: Word lists and constants for the deterministic keyword baseline.
#: These are a transparent stand-in so the pipeline runs end to end
#: without an external classifier, not a claim about accuracy.
DEFAULT_UP_LEXICON = (
    "rise", "rises", "rose", "risen", "rising",
    "surge", "surges", "surged",
    "soar", "soars", "soared",
    "jump", "jumps", "jumped",
    "climb", "climbs", "climbed",
    "accelerate", "accelerates", "accelerated",
    "spike", "spikes", "spiked",
    "record high", "higher", "hot",
)
DEFAULT_DOWN_LEXICON = (
    "fall", "falls", "fell", "fallen", "falling",
    "drop", "drops", "dropped",
    "decline", "declines", "declined",
    "ease", "eases", "eased", "easing",
    "cool", "cools", "cooled", "cooling",
    "slow", "slows", "slowed", "slowing",
    "deflation", "lower",
)
DEFAULT_BASELINE_GAIN = 1.0
DEFAULT_BASELINE_CAP = 8


def baseline_probabilities(
    texts: Sequence[str],
    *,
    up_lexicon: Iterable[str] = DEFAULT_UP_LEXICON,
    down_lexicon: Iterable[str] = DEFAULT_DOWN_LEXICON,
    gain: float = DEFAULT_BASELINE_GAIN,
    cap: int = DEFAULT_BASELINE_CAP,
) -> np.ndarray:
    """baseline_classify of every text, as an n x 3 matrix of
    (p_down, p_neutral, p_up) rows; ConfigError if the odds overflow."""
    if not 0 < gain < math.inf:
        raise ConfigError(f"baseline gain must be positive and finite, got {gain}")
    if cap < 1:
        raise ConfigError(f"baseline cap must be >= 1, got {cap}")
    haystacks = _haystacks(texts)

    def hits(lexicon: Iterable[str]) -> np.ndarray:
        phrases = _phrases(lexicon)
        counts = np.fromiter(
            (sum(p in haystack for p in phrases) for haystack in haystacks),
            dtype=np.int64,
            count=len(haystacks),
        )
        # No count exceeds the phrase count, and a cap past int64 cannot
        # enter numpy.
        return np.minimum(counts, min(cap, len(phrases)))

    with np.errstate(over="ignore"):
        odds_up = gain * hits(up_lexicon)
        odds_down = gain * hits(down_lexicon)
        z = 1.0 + odds_up + odds_down
    if np.isinf(z).any():
        raise ConfigError(f"baseline gain {gain} with cap {cap} overflows the odds")
    probs = np.column_stack([odds_down / z, 1.0 / z, odds_up / z])
    invalid = np.flatnonzero(invalid_probabilities(probs))
    if invalid.size:
        SentimentProbs(*probs[invalid[0]].tolist())  # raises the reason
    return probs


def baseline_classify(
    text: str,
    *,
    up_lexicon: Iterable[str] = DEFAULT_UP_LEXICON,
    down_lexicon: Iterable[str] = DEFAULT_DOWN_LEXICON,
    gain: float = DEFAULT_BASELINE_GAIN,
    cap: int = DEFAULT_BASELINE_CAP,
) -> SentimentProbs:
    """Deterministic keyword-polarity heuristic.

    Counts distinct up- and down-lexicon phrases present in the text
    (same matching rule as lexicon_filter) and maps the two counts
    through a bounded odds transform: with u and d the capped counts,

        (p_down, p_neutral, p_up) = (gain*d, 1, gain*u) / (1 + gain*u + gain*d)

    No evidence yields exactly (0, 1, 0); probabilities never reach 1.
    """
    probs = baseline_probabilities(
        [text], up_lexicon=up_lexicon, down_lexicon=down_lexicon, gain=gain, cap=cap
    )
    return SentimentProbs(*probs[0].tolist())


@dataclass(frozen=True)
class ClassificationReport:
    """Per-class and support-weighted F1 for the 3-way labels."""

    per_class_f1: dict[int, float]
    support: dict[int, int]
    weighted_f1: float


def classification_report(
    predictions: Sequence[int], gold: Sequence[int]
) -> ClassificationReport:
    """F1 per class plus the support-weighted average.

    Zero-division convention: precision, recall, or F1 with an empty
    denominator is 0. A class absent from both predictions and gold has
    support 0 and therefore no weight in the average.
    """
    if len(predictions) != len(gold):
        raise DataError(
            f"length mismatch: {len(predictions)} predictions vs {len(gold)} gold"
        )
    if not gold:
        raise DataError("classification_report needs at least one pair")
    for value in list(predictions) + list(gold):
        if value not in LABELS:
            raise DataError(f"label {value!r} not in {LABELS}")
    per_class_f1: dict[int, float] = {}
    support: dict[int, int] = {}
    for label in LABELS:
        tp = sum(1 for p, g in zip(predictions, gold) if p == label and g == label)
        fp = sum(1 for p, g in zip(predictions, gold) if p == label and g != label)
        fn = sum(1 for p, g in zip(predictions, gold) if p != label and g == label)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = (
            2.0 * precision * recall / (precision + recall)
            if precision + recall
            else 0.0
        )
        per_class_f1[label] = f1
        support[label] = tp + fn
    total = sum(support.values())
    weighted = sum(per_class_f1[c] * support[c] for c in LABELS) / total
    return ClassificationReport(
        per_class_f1=per_class_f1, support=support, weighted_f1=weighted
    )


class SentimentScorer:
    """Sets the scores column of articles from their probabilities,
    with the SCORES function named by score. It is a class only because
    benchmarks/bench_trace.py subclasses it to time scoring."""

    def __init__(self, score: str = "polarity"):
        self.score = score

    def fit_transform(self, articles: ArticleTable, y=None) -> ArticleTable:
        """The articles with their scores column set. y is unused; the
        benchmark tracer passes it."""
        fn = SCORES.get(self.score)
        if fn is None:
            raise ConfigError(
                f"score must be one of {tuple(SCORES)}, got {self.score!r}"
            )
        if articles.probs is None:
            raise DataError("the articles have no probabilities to score")
        return articles.replace(scores=fn(articles.probs))
