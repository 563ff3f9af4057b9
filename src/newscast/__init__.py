"""News-sentiment index construction and inflation nowcasting.

The pipeline: score dated news articles (3-way sentiment probabilities
to scalar scores), aggregate them into a cumulative monthly NEWS index,
regress CPI percent changes on price-component and NEWS percent
changes, nowcast with moving-average imputation, and compare models by
RMSE and the Giacomini-White test.
"""

from .config import RunConfig, load_config, toy_config_path
from .errors import (
    ConfigError,
    DataError,
    DegenerateLossError,
    DomainError,
    InvalidProbabilityError,
    MissingMonthsError,
    NewscastError,
    NumericError,
    OverflowMonthsError,
    SeriesFormatError,
    SingularDesignError,
    UnitError,
    ZeroDenominatorError,
)
from .evaluation import (
    GWResult,
    ModelEvaluation,
    evaluate_forecasts,
    giacomini_white,
    gw_from_forecasts,
    loss_differential,
    rmse,
)
from .index import (
    MonthlySentiment,
    NewsIndex,
    build_news_index,
    monthly_aggregate,
    news_pi,
)
from .io import (
    Rejection,
    read_forecasts,
    read_probability_articles,
    read_scored_articles,
    read_series,
    read_text_articles,
    write_forecasts,
    write_scored_articles,
    write_series,
)
from .nowcast import (
    MODEL_SPECS,
    ForecastSeries,
    backtest,
    fit_model,
    nowcast,
    resolve_spec,
)
from .ols import RegressionResult, fit_ols
from .report import significance_stars
from .sentiment import (
    DEFAULT_LEXICON,
    ArticleTable,
    ClassificationReport,
    SentimentProbs,
    SentimentScorer,
    argmax_score,
    baseline_classify,
    classification_report,
    lexicon_filter,
    polarity_score,
)
from .timeseries import (
    MonthKey,
    MonthlySeries,
    annualize,
    deannualize,
    month_range,
    moving_average_predictor,
    moving_averages,
    pct_change,
)
from .version import __version__

__all__ = [
    "__version__",
    # timeseries
    "MonthKey",
    "MonthlySeries",
    "annualize",
    "deannualize",
    "month_range",
    "moving_average_predictor",
    "moving_averages",
    "pct_change",
    # sentiment
    "DEFAULT_LEXICON",
    "ArticleTable",
    "ClassificationReport",
    "SentimentProbs",
    "SentimentScorer",
    "argmax_score",
    "baseline_classify",
    "classification_report",
    "lexicon_filter",
    "polarity_score",
    # index
    "MonthlySentiment",
    "NewsIndex",
    "build_news_index",
    "monthly_aggregate",
    "news_pi",
    # regression and nowcasting
    "MODEL_SPECS",
    "ForecastSeries",
    "RegressionResult",
    "backtest",
    "fit_model",
    "fit_ols",
    "nowcast",
    "resolve_spec",
    "significance_stars",
    # file formats
    "Rejection",
    "read_forecasts",
    "read_probability_articles",
    "read_scored_articles",
    "read_series",
    "read_text_articles",
    "write_forecasts",
    "write_scored_articles",
    "write_series",
    # evaluation
    "GWResult",
    "ModelEvaluation",
    "evaluate_forecasts",
    "giacomini_white",
    "gw_from_forecasts",
    "loss_differential",
    "rmse",
    # config
    "RunConfig",
    "load_config",
    "toy_config_path",
    # errors
    "NewscastError",
    "ConfigError",
    "DataError",
    "NumericError",
    "OverflowMonthsError",
    "SeriesFormatError",
    "MissingMonthsError",
    "InvalidProbabilityError",
    "UnitError",
    "DomainError",
    "ZeroDenominatorError",
    "SingularDesignError",
    "DegenerateLossError",
]
