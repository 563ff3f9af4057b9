"""Command-line pipeline over the library modules.

Commands compose through files in the output directory: score writes
the scored articles that build-index reads, build-index writes the
index that fit and backtest read, backtest writes the forecasts that
evaluate reads. A command writes only there: the files COMMANDS lists
for it, and score also articles_rejected.csv when it rejects rows. The
`scored`, `news_index` and `forecasts` keys name files read in place of
an upstream command's output; no command writes them. A command that
fails removes its COMMANDS files, so an earlier run's output cannot
pass for its own. score removes an earlier articles_rejected.csv before
it reads its input, and a refused score keeps the one it wrote, which
its error names. Every output is a pure function of the config and
the input files, so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import suppress
from pathlib import Path
from typing import Callable, Mapping, Sequence

from .config import RunConfig, load_config, toy_config_path
from .errors import ConfigError, DataError, NewscastError
from .evaluation import evaluate_forecasts
from .index import build_news_index, monthly_aggregate, news_pi
from .io import (
    NOWCAST_HEADER,
    read_forecasts,
    read_probability_articles,
    read_scored_articles,
    read_series,
    read_text_articles,
    remove_output,
    write_forecasts,
    write_index_metadata,
    write_probability_articles,
    write_rejections,
    write_scored_articles,
    write_rows,
    write_series,
    write_table,
)
from .nowcast import (
    MODEL_SPECS,
    annualized,
    backtest,
    fit_model,
    nowcast,
    resolve_spec,
)
from .report import (
    evaluation_table,
    evaluation_table_delimited,
    regression_table,
    regression_table_delimited,
)
from .sentiment import (
    SentimentScorer,
    baseline_classify,  # noqa: F401 -- wrapped by name in benchmarks/bench_trace.py
    baseline_probabilities,
    lexicon_filter,  # noqa: F401 -- wrapped by name in benchmarks/bench_trace.py
    lexicon_mask,
)
from .timeseries import MonthKey, MonthlySeries, pct_change
from .version import __version__

# Fraction of malformed input rows above which score refuses to run.
MAX_REJECTED_FRACTION = 0.10

EPILOG = """\
exit codes:
  0  success
  2  configuration problem (bad config file or override, unknown model name)
  3  data problem (malformed rows, missing months, missing pipeline files)
  4  numerical problem (singular design, zero denominator, degenerate test)

The bundled demo config is selected with --config toy.
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="newscast",
        description="News-sentiment index construction and inflation "
        "nowcasting pipeline.",
        epilog=EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--config",
        default="toy",
        help="config file path, or 'toy' for the bundled demo (default: toy)",
    )
    parser.add_argument("--out", help="output directory, overrides the config")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one config key (repeatable)",
    )
    parser.add_argument(
        "--version", action="version", version=f"newscast {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("score", help="filter news articles and score their sentiment")
    sub.add_parser("build-index", help="aggregate scores into the NEWS index")

    p_fit = sub.add_parser("fit", help="fit model specs over the training window")
    p_fit.add_argument(
        "specs",
        nargs="*",
        metavar="SPEC",
        help="model names, or 'all' for every spec (default: config specs)",
    )

    p_now = sub.add_parser("nowcast", help="nowcast one month with fitted models")
    p_now.add_argument("specs", nargs="*", metavar="SPEC")
    p_now.add_argument(
        "--month",
        help="target month YYYY-MM (default: the month after train_end)",
    )

    p_back = sub.add_parser(
        "backtest", help="nowcast the evaluation window into forecasts.csv"
    )
    p_back.add_argument("specs", nargs="*", metavar="SPEC")

    sub.add_parser(
        "evaluate", help="RMSE and Giacomini-White report of the forecast file"
    )
    return parser


def _resolve_spec_names(cfg: RunConfig, names: Sequence[str]) -> list[str]:
    if not names:
        return list(cfg.specs)
    if list(names) == ["all"]:
        return list(MODEL_SPECS)
    for name in names:
        resolve_spec(name)
    return list(dict.fromkeys(names))


#: Each config key that names a file read in place of an upstream
#: command's output: what the file holds, and its name under --out.
UPSTREAM = {
    "scored": ("scored-article", "articles_scored.csv"),
    "news_index": ("news index", "news_index.csv"),
    "forecasts": ("forecast", "forecasts.csv"),
}


def _upstream(cfg: RunConfig, key: str) -> Path:
    """The file the key names, else the upstream output under --out. If
    neither exists, a DataError names the command to run and the key."""
    what, filename = UPSTREAM[key]
    path = getattr(cfg, key) or cfg.out_path(filename)
    if not path.exists():
        command = next(c for c, (_, outs) in COMMANDS.items() if filename in outs)
        raise DataError(
            f"{what} file {path} does not exist; run the {command} command "
            f"first or set the {key!r} config key"
        )
    return path


def cmd_score(cfg: RunConfig, args: argparse.Namespace) -> int:
    # Only this run's rejections may stand beside its output.
    rejected_path = cfg.out_path("articles_rejected.csv")
    remove_output(rejected_path)
    if cfg.news_probs is not None:
        source = cfg.news_probs
        articles, rejections = read_probability_articles(source, strict=False)
        retained = articles
    elif cfg.news_text is not None:
        source = cfg.news_text
        articles, rejections = read_text_articles(source, strict=False)
        retained = articles.take(lexicon_mask(articles.texts, cfg.lexicon))
        retained = retained.replace(
            probs=baseline_probabilities(
                retained.texts,
                up_lexicon=cfg.baseline_up_lexicon,
                down_lexicon=cfg.baseline_down_lexicon,
                gain=cfg.baseline_gain,
                cap=cfg.baseline_cap,
            )
        )
    else:
        raise ConfigError(
            "score needs a news_probs or news_text file in the config"
        )
    filtered_out = len(articles) - len(retained)

    comment = cfg.provenance()
    probs_path = cfg.out_path("articles_probs.csv")
    scored_path = cfg.out_path("articles_scored.csv")
    if rejections:
        write_rejections(rejections, rejected_path, comment)
        total = len(articles) + len(rejections)
        if len(rejections) > MAX_REJECTED_FRACTION * total:
            raise DataError(
                f"{len(rejections)} of {total} rows are malformed "
                f"(> {MAX_REJECTED_FRACTION:.0%}); see articles_rejected.csv"
            )

    scored = SentimentScorer(cfg.score).fit_transform(retained)
    write_probability_articles(retained, probs_path, comment)
    write_scored_articles(scored, scored_path, comment)

    if not len(articles):
        print(f"warning: {source} contains no articles", file=sys.stderr)
    elif not len(scored):
        print("warning: no articles passed the lexicon filter", file=sys.stderr)
    print(
        f"scored {len(scored)} articles "
        f"({len(rejections)} rejected, {filtered_out} filtered out) "
        f"-> {scored_path}"
    )
    return 0


def cmd_build_index(cfg: RunConfig, args: argparse.Namespace) -> int:
    path = _upstream(cfg, "scored")
    scored, _ = read_scored_articles(path)
    if not len(scored):
        raise DataError(f"{path} contains no scored articles")
    monthly = monthly_aggregate(scored, day_cutoff=cfg.day_cutoff)
    index = build_news_index(monthly)
    comment = cfg.provenance()
    write_series(index.series, cfg.out_path("news_index.csv"), comment)
    write_index_metadata(index, cfg.out_path("news_index_meta.csv"), comment)
    gaps = len(index.gap_months)
    print(
        f"built NEWS index over {len(index.series)} months "
        f"({gaps} gap months) -> {cfg.out_path('news_index.csv')}"
    )
    return 0


def _load_pi_bundle(
    cfg: RunConfig, spec_names: Sequence[str]
) -> Mapping[str, MonthlySeries]:
    """Percent-change series for the target and every needed regressor."""
    needed = {"cpi"}
    for name in spec_names:
        needed.update(MODEL_SPECS[name])
    bundle: dict[str, MonthlySeries] = {}
    for key in ("cpi", "ccpi", "fcpi", "gas"):  # the series' config keys
        if key in needed:
            levels = read_series(getattr(cfg, key), name=key)
            bundle[key] = pct_change(levels, cfg.window)
    if "news" in needed:
        index_series = read_series(_upstream(cfg, "news_index"), name="NEWS")
        bundle["news"] = news_pi(index_series, cfg.window, mode=cfg.news_pi_mode)
    return bundle


def cmd_fit(cfg: RunConfig, args: argparse.Namespace) -> int:
    names = _resolve_spec_names(cfg, args.specs)
    bundle = _load_pi_bundle(cfg, names)
    results = [
        fit_model(name, bundle, cfg.train_start, cfg.train_end, robust=cfg.robust)
        for name in names
    ]
    text = regression_table(results, names)
    comment = cfg.provenance()
    write_table(text, cfg.out_path("regression.txt"), comment)
    write_rows(
        *regression_table_delimited(results, names),
        cfg.out_path("regression.csv"),
        comment,
    )
    print(text, end="")
    return 0


def cmd_nowcast(cfg: RunConfig, args: argparse.Namespace) -> int:
    names = _resolve_spec_names(cfg, args.specs)
    try:
        t = MonthKey.parse(args.month) if args.month else cfg.train_end.shift(1)
    except DataError as exc:
        raise ConfigError(f"--month: {exc}") from None
    bundle = _load_pi_bundle(cfg, names)
    rows = []
    for name in names:
        # nowcast reads only the coefficients, so the fit skips HC1.
        fitted = fit_model(name, bundle, cfg.train_start, cfg.train_end)
        value = nowcast(name, fitted, bundle, t)
        (annual,) = annualized(name, "nowcast", t, [value])
        rows.append([str(t), name, repr(value), repr(annual)])
        print(f"{name}: {t} nowcast {value:.4f} (annualized {annual:.4f})")
    write_rows(NOWCAST_HEADER, rows, cfg.out_path("nowcast.csv"), cfg.provenance())
    return 0


def cmd_backtest(cfg: RunConfig, args: argparse.Namespace) -> int:
    names = _resolve_spec_names(cfg, args.specs)
    bundle = _load_pi_bundle(cfg, names)
    windows = (cfg.train_start, cfg.train_end), (cfg.eval_start, cfg.eval_end)
    forecasts = [backtest(name, bundle, *windows, cfg.scheme) for name in names]
    path = cfg.out_path("forecasts.csv")
    write_forecasts(forecasts, path, cfg.provenance())
    months = len(forecasts[0].months)
    print(f"backtested {len(names)} models over {months} months -> {path}")
    return 0


def cmd_evaluate(cfg: RunConfig, args: argparse.Namespace) -> int:
    rows = evaluate_forecasts(
        read_forecasts(_upstream(cfg, "forecasts")),
        variant=cfg.gw_variant,
        unit=cfg.rmse_unit,
        truncation_lag=cfg.truncation_lag,
    )
    comment = cfg.provenance()
    text = evaluation_table(rows)
    write_table(text, cfg.out_path("evaluation.txt"), comment)
    write_rows(
        *evaluation_table_delimited(rows), cfg.out_path("evaluation.csv"), comment
    )
    print(text, end="")
    return 0


#: Each command's handler, called with (cfg, args), and the files it
#: writes under --out.
COMMANDS: dict[str, tuple[Callable[..., int], tuple[str, ...]]] = {
    "score": (cmd_score, ("articles_probs.csv", "articles_scored.csv")),
    "build-index": (cmd_build_index, ("news_index.csv", "news_index_meta.csv")),
    "fit": (cmd_fit, ("regression.txt", "regression.csv")),
    "nowcast": (cmd_nowcast, ("nowcast.csv",)),
    "backtest": (cmd_backtest, ("forecasts.csv",)),
    "evaluate": (cmd_evaluate, ("evaluation.txt", "evaluation.csv")),
}

def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler, outputs = COMMANDS[args.command]
    cfg = None
    try:
        config_path = toy_config_path() if args.config == "toy" else args.config
        cfg = load_config(config_path, args.overrides, args.out)
        return handler(cfg, args)
    except NewscastError as exc:
        # An earlier run's outputs would pass for this run's. A failed
        # removal is ignored, so the error reported is the command's.
        if cfg is not None:
            for name in outputs:
                with suppress(OSError):
                    cfg.out_path(name).unlink(missing_ok=True)
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
