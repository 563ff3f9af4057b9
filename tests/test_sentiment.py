"""Probability vectors, scoring rules, lexicon gate, keyword baseline, F1."""

import re
from datetime import date

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from newscast import (
    ArticleTable,
    ConfigError,
    DataError,
    InvalidProbabilityError,
    SentimentProbs,
    SentimentScorer,
    argmax_score,
    baseline_classify,
    classification_report,
    lexicon_filter,
    polarity_score,
)
from newscast.sentiment import normalize_whitespace

from conftest import make_articles


def probs(d, n, u):
    return SentimentProbs(p_down=d, p_neutral=n, p_up=u)


class TestSentimentProbs:
    def test_valid_vector(self):
        p = probs(0.2, 0.3, 0.5)
        assert (p.p_down, p.p_neutral, p.p_up) == (0.2, 0.3, 0.5)

    def test_sum_tolerance_boundary(self):
        # 1e-6 off is accepted, 1e-5 off is not.
        probs(0.2, 0.3, 0.5 + 9e-7)
        with pytest.raises(InvalidProbabilityError, match="sum"):
            probs(0.2, 0.3, 0.51)

    def test_range_violations(self):
        with pytest.raises(InvalidProbabilityError):
            probs(-0.1, 0.6, 0.5)
        with pytest.raises(InvalidProbabilityError):
            probs(0.0, 1.2, -0.2)

    def test_degenerate_corners_allowed(self):
        assert probs(1.0, 0.0, 0.0).p_down == 1.0
        assert probs(0.0, 0.0, 1.0).p_up == 1.0


def article(day=1, scores=None):
    """One article of January 2020, built as a table."""
    return ArticleTable(
        ["a"], np.array([date(2020, 1, day)], dtype="datetime64[D]"),
        scores=None if scores is None else np.array(scores),
    )


class TestArticles:
    def test_day_bounds(self):
        assert article(day=31).months_and_days()[1].tolist() == [31]
        # Day 0 or 32 has no datetime64[D] value; a missing date is NaT.
        with pytest.raises(DataError, match=r"datetime64\[D\], got list"):
            ArticleTable(["a"], ["2020-01-32"])
        with pytest.raises(DataError, match="'a': date NaT"):
            ArticleTable(["a"], np.array([None], dtype="datetime64[D]"))

    def test_score_bounds(self):
        article(scores=[-1.0])
        with pytest.raises(DataError):
            article(scores=[1.5])


class TestPolarityScore:
    def test_formula(self):
        assert polarity_score(probs(0.1, 0.2, 0.7)) == pytest.approx(0.6)
        assert polarity_score(probs(0.7, 0.2, 0.1)) == pytest.approx(-0.6)
        assert polarity_score(probs(0.0, 1.0, 0.0)) == 0.0

    def test_range(self):
        assert polarity_score(probs(0.0, 0.0, 1.0)) == 1.0
        assert polarity_score(probs(1.0, 0.0, 0.0)) == -1.0


class TestArgmaxScore:
    # (p_down, p_neutral, p_up) -> expected label. Directional labels
    # need a strict maximum; every tie resolves to 0.
    CASES = [
        ((0.2, 0.3, 0.5), 1),
        ((0.5, 0.3, 0.2), -1),
        ((0.2, 0.5, 0.3), 0),
        ((0.4, 0.2, 0.4), 0),   # down/up tie
        ((0.4, 0.4, 0.2), 0),   # down/neutral tie
        ((0.2, 0.4, 0.4), 0),   # neutral/up tie
        ((1 / 3, 1 / 3, 1 / 3), 0),  # three-way tie
        ((0.0, 1.0, 0.0), 0),
    ]

    @pytest.mark.parametrize("vector,expected", CASES)
    def test_tie_table(self, vector, expected):
        assert argmax_score(probs(*vector)) == expected

    def test_agrees_with_polarity_sign_when_strict(self, rng):
        for _ in range(200):
            raw = rng.uniform(0.01, 1.0, 3)
            d, n, u = (raw / raw.sum()).tolist()
            p = probs(d, n, u)
            label = argmax_score(p)
            if label == 1:
                assert polarity_score(p) > 0
            elif label == -1:
                assert polarity_score(p) < 0


# Hand-filtered micro-corpus: each entry is (text, matches default lexicon).
# Expected values were decided by eye against the matching rule
# (case-insensitive phrase substring on whitespace-normalized text).
MICRO_CORPUS = [
    ("Inflation hits a new high", True),
    ("inflation expectations are anchored", True),
    ("INFLATION!", True),
    ("The CPI rose 0.4% in June", True),
    ("Core CPI was flat", True),
    ("the core cpi reading surprised", True),
    ("Consumer price index climbs again", True),
    ("consumer   price   index", True),          # extra spaces normalize away
    ("Consumer price\nindex release today", True),  # newline inside phrase
    ("Gasoline prices surge on refinery outage", True),
    ("gasoline prices fell", True),
    ("Gasoline\tprices steady", True),
    ("Fears of deflation return", True),
    ("DEFLATION risk in focus", True),
    ("A stealthy disinflationary trend", True),    # contains 'inflation'
    ("Gasoline futures rally", False),             # 'prices' missing
    ("Price of gasoline jumps", False),            # words out of order
    ("Consumer prices index", False),              # wrong phrase form
    ("CP I spread widens", False),
    ("The Fed holds rates steady", False),
    ("Stocks close higher on tech rally", False),
    ("Unemployment falls to 3.5%", False),
    ("Housing starts disappoint", False),
    ("Wage growth cools slightly", False),
    ("Oil prices spike after storm", False),       # 'oil prices' not in lexicon
    ("Food prices climb at fastest pace", True),
    ("food prices", True),
    ("Seafood prices slip", True),                 # substring of 'seafood prices'
    ("Egg and food  prices normalize", True),
    ("Supermarket margins shrink", False),
    ("Rising rents squeeze tenants", False),
    ("CPI", True),
    ("cpi", True),
    ("the cpix index", True),                      # substring rule, by design
    ("recipe costs rise", False),                  # 'cpi' not inside 'recipe'
    ("PCE deflator ticks up", False),
    ("Central bank targets 2 percent", False),
    ("Grocery bills bite", False),
    ("Used car prices retreat", False),
    ("Airfares normalize after summer", False),
    ("Inflation-adjusted wages stagnate", True),
    ("Anti-inflationary policy stance", True),
    ("Shrinkflation hits cereal boxes", False),
    ("", False),
    ("   \n\t  ", False),
    ("Gas prices rise", False),                    # 'gasoline prices' required
    ("Cpi and ppi both rose", True),
    ("Consumer Price Index (CPI) report", True),
    ("Headline deflation in goods", True),
    ("Core goods disinflation continues", True),   # contains 'inflation'
]


class TestLexiconFilter:
    def test_micro_corpus(self):
        for text, expected in MICRO_CORPUS:
            assert lexicon_filter(text) is expected, text

    def test_corpus_has_both_outcomes(self):
        outcomes = [e for _, e in MICRO_CORPUS]
        assert len(MICRO_CORPUS) == 50
        assert 15 <= sum(outcomes) <= 35

    def test_custom_lexicon(self):
        assert lexicon_filter("talk of rate hikes", ["rate hike"])
        assert not lexicon_filter("talk of rate cuts", ["rate hike"])

    def test_empty_lexicon_rejected(self):
        with pytest.raises(ConfigError):
            lexicon_filter("anything", [])
        with pytest.raises(ConfigError):
            lexicon_filter("anything", ["", "  "])

    def test_normalize_whitespace(self):
        assert normalize_whitespace("  a\t b\n\nc ") == "a b c"
        assert normalize_whitespace("") == ""

    # Every character str.split() or the regex \s treats as whitespace,
    # among letters; "İ" grows when lowercased, which comes after.
    @given(st.text(st.sampled_from(
        " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2028\u2029"
        "\u3000abİ"
    )))
    @example("\x1c a \u3000")
    def test_normalize_whitespace_matches_the_regex(self, text):
        assert normalize_whitespace(text) == re.sub(r"\s+", " ", text).strip()


def classify(text, **kwargs):
    """baseline_classify's row for one text: (p_down, p_neutral, p_up)."""
    return tuple(baseline_classify([text], **kwargs)[0].tolist())


class TestBaselineClassify:
    def test_empty_text_is_pure_neutral(self):
        assert classify("") == (0.0, 1.0, 0.0)
        assert classify("the quick brown fox") == (0.0, 1.0, 0.0)

    def test_single_up_word(self):
        # u=1, d=0, gain=1: (0, 1, 1)/2.
        assert classify("prices rose in May") == (0.0, 0.5, 0.5)

    def test_single_down_word(self):
        assert classify("prices fell in May") == (0.5, 0.5, 0.0)

    def test_balanced_evidence(self):
        # One up and one down word: (1, 1, 1)/3.
        p = SentimentProbs(*classify("gas rose while food fell"))
        assert p.p_up == pytest.approx(1 / 3)
        assert p.p_down == pytest.approx(1 / 3)
        assert polarity_score(p) == pytest.approx(0.0)

    def test_distinct_counting_not_occurrences(self):
        assert classify("prices rose") == classify("rose rose rose")

    def test_two_distinct_words_beat_one(self):
        one = classify("prices rose")
        two = classify("prices rose and surged")
        assert two[2] > one[2]

    def test_cap_limits_evidence(self):
        words = ["rose", "surged", "soared", "jumped", "climbed",
                 "accelerated", "spiked", "higher", "hot", "rising"]
        ten = classify(" ".join(words))
        # 10 distinct hits capped at 8: (0, 1, 8)/9.
        assert ten[2] == pytest.approx(8 / 9)
        capped_lower = classify(" ".join(words), cap=3)
        assert capped_lower[2] == pytest.approx(3 / 4)

    def test_gain_scales_confidence(self):
        mild = classify("prices rose", gain=0.5)
        strong = classify("prices rose", gain=4.0)
        assert mild[2] == pytest.approx(0.5 / 1.5)
        assert strong[2] == pytest.approx(4.0 / 5.0)
        assert strong[2] > mild[2]

    def test_deterministic(self):
        text = "Inflation climbed while gasoline prices eased"
        assert classify(text) == classify(text)

    def test_case_insensitive(self):
        assert classify("PRICES ROSE") == classify("prices rose")

    def test_parameter_validation(self):
        with pytest.raises(ConfigError):
            baseline_classify(["x"], gain=0.0)
        with pytest.raises(ConfigError):
            baseline_classify(["x"], cap=0)

    @pytest.mark.parametrize("gain", [float("nan"), float("inf")])
    def test_non_finite_gain_refused(self, gain):
        with pytest.raises(ConfigError, match="positive and finite"):
            baseline_classify(["prices rose"], gain=gain)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_odds_refused(self):
        # 1 + gain*u + gain*d overflows for u = d = 1, not for u = 1, d = 0.
        assert baseline_classify(["prices rose"], gain=1e308)[0, 2] == 1.0
        with pytest.raises(ConfigError, match=r"^baseline gain 1e\+308 with cap 8 "):
            baseline_classify(["gas rose while food fell"], gain=1e308)

    def test_output_is_valid_probability_vector(self, rng):
        vocab = ("rose", "fell", "surged", "cooled", "spiked", "slowing",
                 "flat", "steady", "report", "index")
        texts = [
            " ".join(rng.choice(vocab, size=rng.integers(0, 12))) for _ in range(100)
        ]
        for row in baseline_classify(texts).tolist():
            p = SentimentProbs(*row)  # constructor enforces the invariants
            assert abs(p.p_down + p.p_neutral + p.p_up - 1.0) <= 1e-9


class TestClassificationReport:
    def test_perfect_predictions(self):
        gold = [-1, 0, 1, 1, 0, -1]
        rep = classification_report(gold, gold)
        assert rep.weighted_f1 == 1.0
        assert all(v == 1.0 for v in rep.per_class_f1.values())
        assert rep.support == {-1: 2, 0: 2, 1: 2}

    def test_all_neutral_on_balanced_gold(self):
        # Neutral: precision 1/3, recall 1 -> F1 1/2. Others 0.
        # Weighted: (1/3) * 1/2 = 1/6.
        gold = [-1, 0, 1] * 4
        rep = classification_report([0] * 12, gold)
        assert rep.per_class_f1[0] == pytest.approx(0.5)
        assert rep.per_class_f1[-1] == 0.0
        assert rep.per_class_f1[1] == 0.0
        assert rep.weighted_f1 == pytest.approx(1 / 6)

    def test_hand_confusion_fixture(self):
        # gold:        -1 -1 -1  0  0  0  1  1  1
        # predictions: -1  0  1  0  0  1  1  1 -1
        gold = [-1, -1, -1, 0, 0, 0, 1, 1, 1]
        pred = [-1, 0, 1, 0, 0, 1, 1, 1, -1]
        rep = classification_report(pred, gold)
        # class -1: tp=1 fp=1 fn=2 -> P=1/2 R=1/3 F1=2/5
        assert rep.per_class_f1[-1] == pytest.approx(0.4)
        # class 0: tp=2 fp=1 fn=1 -> P=2/3 R=2/3 F1=2/3
        assert rep.per_class_f1[0] == pytest.approx(2 / 3)
        # class +1: tp=2 fp=2 fn=1 -> P=1/2 R=2/3 F1=4/7
        assert rep.per_class_f1[1] == pytest.approx(4 / 7)
        expected = (3 * 0.4 + 3 * (2 / 3) + 3 * (4 / 7)) / 9
        assert rep.weighted_f1 == pytest.approx(expected)

    def test_absent_class_carries_no_weight(self):
        rep = classification_report([1, 1, 0], [1, 1, 0])
        assert rep.support[-1] == 0
        assert rep.weighted_f1 == 1.0

    def test_never_predicted_class_scores_zero(self):
        rep = classification_report([0, 0, 0], [1, 1, 0])
        assert rep.per_class_f1[1] == 0.0

    def test_matches_sklearn(self, rng):
        sklearn = pytest.importorskip("sklearn.metrics")
        for _ in range(25):
            n = int(rng.integers(3, 60))
            gold = rng.choice([-1, 0, 1], size=n).tolist()
            pred = rng.choice([-1, 0, 1], size=n).tolist()
            rep = classification_report(pred, gold)
            ref = sklearn.f1_score(
                gold, pred, average="weighted", zero_division=0
            )
            assert rep.weighted_f1 == pytest.approx(ref, abs=1e-12)

    def test_input_validation(self):
        with pytest.raises(DataError, match="length"):
            classification_report([0], [0, 1])
        with pytest.raises(DataError, match="at least one"):
            classification_report([], [])
        with pytest.raises(DataError, match="label"):
            classification_report([2], [0])


class TestSentimentScorer:
    def _articles(self):
        return make_articles(
            ["a1", "a2"], ["2020-01-05", "2020-01-01"],
            probs=[(0.1, 0.2, 0.7), (0.6, 0.3, 0.1)],
        )

    def test_invalid_mode_fails_at_fit(self):
        with pytest.raises(ConfigError):
            SentimentScorer(score="median").fit_transform(self._articles())

    def test_article_without_probs_rejected(self):
        bare = make_articles(["a"], ["2020-01-01"], texts=["only text"])
        with pytest.raises(DataError, match="probabilities"):
            SentimentScorer().fit_transform(bare)
