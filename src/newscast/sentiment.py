"""Article filtering, sentiment scores, and classification metrics.

Labels are the 3-way scheme -1 (prices expected to fall), 0 (neutral),
+1 (prices expected to rise). Probability vectors over these labels are
turned into scalar scores either by taking the most probable label
(argmax) or the expectation of the label (polarity).

A batch of articles travels through the pipeline as an ArticleTable:
columns of ids, dates, month ordinals and days, plus texts,
probabilities or scores. Filtering, classifying and scoring work on the
columns; the dataclass form (Article, ScoredArticle) is built only when
a caller iterates or indexes a table.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, replace
from operator import index as _index

import numpy as np

from .base import ParamMixin
from .errors import ConfigError, DataError, InvalidProbabilityError
from .timeseries import MonthKey

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

_WS_RE = re.compile(r"\s+")


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


@dataclass(frozen=True)
class Article:
    """A dated news item, before scoring.

    Either text or a probability vector (or both) may be present,
    depending on which input file produced it. day is the day of
    month when known.
    """

    id: str
    date: MonthKey
    day: int | None = None
    text: str | None = None
    probs: SentimentProbs | None = None

    def __post_init__(self):
        if self.day is not None and not 1 <= self.day <= 31:
            raise DataError(f"day of month must be in 1..31, got {self.day}")


@dataclass(frozen=True)
class ScoredArticle(Article):
    """An article with its scalar sentiment score in [-1, 1]."""

    score: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        if not -1.0 <= self.score <= 1.0:
            raise DataError(f"score {self.score} outside [-1, 1]")


def invalid_probabilities(probs: np.ndarray) -> np.ndarray:
    """True for each row of an n x 3 (p_down, p_neutral, p_up) matrix
    that SentimentProbs refuses: an entry outside [0, 1] (NaN included),
    or a left-to-right sum further than PROB_SUM_TOL from 1."""
    in_range = ((probs >= 0.0) & (probs <= 1.0)).all(axis=1)
    with np.errstate(invalid="ignore"):  # inf - inf: refused by range anyway
        total = probs[:, 0] + probs[:, 1] + probs[:, 2]
    return ~in_range | (np.abs(total - 1.0) > PROB_SUM_TOL)


class ArticleTable(Sequence):
    """A batch of articles stored as columns.

    - ids: list of str.
    - dates: list of normalized dates, YYYY-MM-DD (YYYY-MM where the
      day is unknown).
    - months: int64 month ordinals (MonthKey.ordinal).
    - days: int64 days of month, 0 where unknown.
    - texts: list of str (None where an article has none).
    - probs: n x 3 float64 (p_down, p_neutral, p_up), a NaN row where
      an article has none.
    - scores: float64, NaN where an article has none.

    A column that is None is absent for every article. Iterating or
    indexing builds the dataclass form: ScoredArticle where a score is
    present, Article elsewhere. A table equals a list or table of the
    same articles.
    """

    __slots__ = ("ids", "dates", "months", "days", "texts", "probs", "scores")

    def __init__(
        self,
        ids: list[str],
        dates: list[str],
        months: np.ndarray,
        days: np.ndarray,
        texts: list[str | None] | None = None,
        probs: np.ndarray | None = None,
        scores: np.ndarray | None = None,
    ):
        self.ids = ids
        self.dates = dates
        self.months = months
        self.days = days
        self.texts = texts
        self.probs = probs
        self.scores = scores

    @classmethod
    def of(cls, articles: Iterable[Article]) -> ArticleTable:
        """articles as a table: a table as it is, dataclasses as columns."""
        if isinstance(articles, ArticleTable):
            return articles
        items = list(articles)
        texts = [a.text for a in items]
        probs = [
            (np.nan,) * 3 if a.probs is None else a.probs.as_tuple() for a in items
        ]
        scores = [getattr(a, "score", np.nan) for a in items]
        return cls(
            ids=[a.id for a in items],
            dates=[f"{a.date}-{a.day:02d}" if a.day else str(a.date) for a in items],
            months=np.array([a.date.ordinal for a in items], dtype=np.int64),
            days=np.array([a.day or 0 for a in items], dtype=np.int64),
            texts=texts if any(t is not None for t in texts) else None,
            probs=np.array(probs, dtype=float).reshape(-1, 3)
            if any(a.probs is not None for a in items) else None,
            scores=np.array(scores, dtype=float)
            if any(isinstance(a, ScoredArticle) for a in items) else None,
        )

    def replace(self, **columns) -> ArticleTable:
        """A table with the named columns replaced."""
        return ArticleTable(
            **{n: columns.get(n, getattr(self, n)) for n in self.__slots__}
        )

    def take(self, selection: np.ndarray) -> ArticleTable:
        """The articles at a boolean mask or an index array, in order."""
        rows = np.arange(len(self))[selection]
        picked = rows.tolist()
        return self.replace(**{
            name: column[rows]
            if isinstance(column, np.ndarray) else [column[i] for i in picked]
            for name in self.__slots__
            if (column := getattr(self, name)) is not None
        })

    def missing(self, column: str) -> np.ndarray:
        """True for each article lacking column: "days", "probs" or "scores"."""
        values = getattr(self, column)
        if values is None:
            return np.ones(len(self), dtype=bool)
        if column == "days":
            return values == 0
        return np.isnan(values if values.ndim == 1 else values[:, 0])

    def require(self, *checks: tuple[np.ndarray, str]) -> None:
        """Raise DataError naming the first article that fails a check.

        A check is (mask of failing articles, what to say about one);
        at one article the earlier check is the one reported.
        """
        failing = np.flatnonzero(np.logical_or.reduce([mask for mask, _ in checks]))
        if failing.size:
            i = int(failing[0])
            what = next(what for mask, what in checks if mask[i])
            raise DataError(f"article {self.ids[i]!r} {what}")

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.take(i)
        return next(iter(self.take([_index(i)])))

    def __iter__(self) -> Iterator[Article]:
        absent = [None] * len(self)
        return map(
            _article,
            self.ids,
            self.months.tolist(),
            self.days.tolist(),
            absent if self.texts is None else self.texts,
            absent if self.probs is None else self.probs.tolist(),
            absent if self.scores is None else self.scores.tolist(),
        )

    def __eq__(self, other):
        if isinstance(other, (ArticleTable, list)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"<ArticleTable of {len(self)} articles>"


def _article(id, month, day, text, probs, score) -> Article:
    """The dataclass form of one table row (see ArticleTable)."""
    fields = dict(
        id=id,
        date=MonthKey.from_ordinal(month),
        day=day or None,
        text=text,
        probs=None if probs is None or math.isnan(probs[0]) else SentimentProbs(*probs),
    )
    if score is None or math.isnan(score):
        return Article(**fields)
    return ScoredArticle(**fields, score=score)


def normalize_whitespace(text: str) -> str:
    return _WS_RE.sub(" ", text).strip()


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
    (p_down, p_neutral, p_up) rows."""
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
        return np.minimum(counts, cap)

    odds_up = gain * hits(up_lexicon)
    odds_down = gain * hits(down_lexicon)
    z = 1.0 + odds_up + odds_down
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


class SentimentScorer(ParamMixin):
    """Stateless transformer from probability vectors to scalar scores.

    Parameters
    ----------
    score : str
        "polarity" (expected label, default) or "argmax" (most
        probable label).
    """

    def __init__(self, score: str = "polarity"):
        self.score = score

    def _score_fn(self):
        if self.score == "polarity":
            return polarity_scores
        if self.score == "argmax":
            return argmax_scores
        raise ConfigError(f"score must be 'polarity' or 'argmax', got {self.score!r}")

    def fit(self, X=None, y=None) -> "SentimentScorer":
        self._score_fn()
        return self

    def transform(self, articles: Iterable[Article]) -> ArticleTable:
        """The articles with scores, as a table (iterating it yields
        ScoredArticle)."""
        fn = self._score_fn()
        table = ArticleTable.of(articles)
        table.require((table.missing("probs"), "has no probabilities to score"))
        probs = np.empty((0, 3)) if table.probs is None else table.probs
        return table.replace(scores=fn(probs))

    def fit_transform(self, articles: Iterable[Article], y=None) -> ArticleTable:
        return self.fit().transform(articles)


def rescore(article: ScoredArticle, score: float) -> ScoredArticle:
    """Copy of an article with a replaced score (test and scaling aid)."""
    return replace(article, score=score)
