"""Command-line pipeline over the library modules.

Commands compose through files in the output directory: score writes
the scored articles that build-index reads, build-index writes the
index that fit and backtest read, backtest writes the forecasts that
evaluate reads. A handler computes and returns: its stdout text, and
for each file COMMANDS lists for it, the writer and the data it writes.
main alone writes those files under --out, and prints the text only
once all of them are written. A command that fails leaves none of its
COMMANDS files, so an earlier run's output cannot pass for its own.
The one other file a command writes is score's articles_rejected.csv:
score removes an earlier one before it reads its input and writes its
own when it rejects rows, and a refused score keeps it and names it in
its error. The `scored`, `news_index` and `forecasts` keys name files
read in place of an upstream command's output; no command writes them.
Every output is a pure function of the config and the input files, so
reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import suppress
from pathlib import Path
from typing import Callable, Mapping, Sequence

from .config import RunConfig, checked_specs, load_config, toy_config_path
from .errors import ConfigError, DataError, NewscastError
from .evaluation import evaluate_forecasts
from .index import build_news_index, monthly_aggregate, news_pi
from .io import (
    read_forecasts,
    read_probability_articles,
    read_scored_articles,
    read_series,
    read_text_articles,
    remove_output,
    write_forecasts,
    write_index_metadata,
    write_nowcasts,
    write_probability_articles,
    write_rejections,
    write_scored_articles,
    write_rows,
    write_series,
    write_table,
)
from .nowcast import MODEL_SPECS, annualized, backtest, fit_model, nowcast
from .report import (
    evaluation_table, evaluation_table_delimited,
    regression_table, regression_table_delimited,
)
from .sentiment import (
    SentimentScorer,
    baseline_classify,
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
  2  configuration problem (bad config file or override, unknown model name,
     a scipy extension that does not load: the line names the module, the
     scipy directory and version found, and the import error)
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
    for name, (handler, _) in COMMANDS.items():
        command = sub.add_parser(name, help=handler.__doc__)
        if name in ("fit", "nowcast", "backtest"):
            command.add_argument(
                "specs", nargs="*", metavar="SPEC",
                help="model names, or 'all' for every spec (default: config specs)",
            )
        if name == "nowcast":
            command.add_argument(
                "--month",
                help="target month YYYY-MM (default: the month after train_end)",
            )
    return parser


def _resolve_spec_names(cfg: RunConfig, names: Sequence[str]) -> list[str]:
    if not names:
        return list(cfg.specs)
    if list(names) == ["all"]:
        return list(MODEL_SPECS)
    return list(checked_specs(list(names), "argument SPEC"))


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
    if not os.path.exists(path):  # False too for a name too long to look up
        command = next(c for c, (_, outs) in COMMANDS.items() if filename in outs)
        raise DataError(
            f"{what} file {path} does not exist; run the {command} command "
            f"first or set the {key!r} config key"
        )
    return path


#: What a handler returns: its stdout text, and for each file COMMANDS
#: lists for it, in that order, the writer and the data it writes.
Result = tuple[str, list[tuple]]


def cmd_score(cfg: RunConfig, args: argparse.Namespace) -> Result:
    """filter news articles and score their sentiment"""
    # Only this run's rejections may stand beside its output.
    remove_output(cfg.out_path("articles_rejected.csv"))
    if cfg.news_probs is not None:
        source = cfg.news_probs
        articles, rejections = read_probability_articles(source, strict=False)
        retained = articles
    elif cfg.news_text is not None:
        source = cfg.news_text
        articles, rejections = read_text_articles(source, strict=False)
        retained = articles.take(lexicon_mask(articles.texts, cfg.lexicon))
        retained = retained.replace(
            probs=baseline_classify(
                retained.texts,
                up_lexicon=cfg.baseline_up_lexicon,
                down_lexicon=cfg.baseline_down_lexicon,
                gain=cfg.baseline_gain,
                cap=cfg.baseline_cap,
            )
        )
    else:
        raise ConfigError("score needs a news_probs or news_text file in the config")
    filtered_out = len(articles) - len(retained)

    if rejections:
        _write(cfg, "articles_rejected.csv", write_rejections, rejections)
        total = len(articles) + len(rejections)
        if len(rejections) > MAX_REJECTED_FRACTION * total:
            raise DataError(
                f"{len(rejections)} of {total} rows are malformed "
                f"(> {MAX_REJECTED_FRACTION:.0%}); see articles_rejected.csv"
            )

    scored = SentimentScorer(cfg.score).fit_transform(retained)
    if not len(articles):
        print(f"warning: {source} contains no articles", file=sys.stderr)
    elif not len(scored):
        print("warning: no articles passed the lexicon filter", file=sys.stderr)
    text = (
        f"scored {len(scored)} articles "
        f"({len(rejections)} rejected, {filtered_out} filtered out) "
        f"-> {cfg.out_path('articles_scored.csv')}\n"
    )
    return text, [
        (write_probability_articles, retained), (write_scored_articles, scored)
    ]


def cmd_build_index(cfg: RunConfig, args: argparse.Namespace) -> Result:
    """aggregate scores into the NEWS index"""
    path = _upstream(cfg, "scored")
    scored, _ = read_scored_articles(path)
    if not len(scored):
        raise DataError(f"{path} contains no scored articles")
    monthly = monthly_aggregate(scored, day_cutoff=cfg.day_cutoff)
    index = build_news_index(monthly)
    text = (
        f"built NEWS index over {len(index.series)} months "
        f"({len(index.gap_months)} gap months) -> {cfg.out_path('news_index.csv')}\n"
    )
    return text, [(write_series, index.series), (write_index_metadata, index)]


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


def cmd_fit(cfg: RunConfig, args: argparse.Namespace) -> Result:
    """fit model specs over the training window"""
    bundle = _load_pi_bundle(cfg, args.specs)
    results = [
        fit_model(name, bundle, cfg.train_start, cfg.train_end, robust=cfg.robust)
        for name in args.specs
    ]
    text = regression_table(results, args.specs)
    return text, [
        (write_table, text),
        (write_rows, *regression_table_delimited(results, args.specs)),
    ]


def cmd_nowcast(cfg: RunConfig, args: argparse.Namespace) -> Result:
    """nowcast one month with fitted models"""
    try:
        t = MonthKey.parse(args.month) if args.month else cfg.train_end.shift(1)
    except DataError as exc:
        raise ConfigError(f"--month: {exc}") from None
    bundle = _load_pi_bundle(cfg, args.specs)
    rows, lines = [], []
    for name in args.specs:
        # nowcast reads only the coefficients, so the fit skips HC1.
        fitted = fit_model(name, bundle, cfg.train_start, cfg.train_end)
        value = nowcast(name, fitted, bundle, t)
        (annual,) = annualized(name, "nowcast", t, [value])
        rows.append((name, value, annual))
        lines.append(f"{name}: {t} nowcast {value:.4f} (annualized {annual:.4f})\n")
    return "".join(lines), [(write_nowcasts, t.ordinal, *zip(*rows))]


def cmd_backtest(cfg: RunConfig, args: argparse.Namespace) -> Result:
    """nowcast the evaluation window into forecasts.csv"""
    bundle = _load_pi_bundle(cfg, args.specs)
    windows = (cfg.train_start, cfg.train_end), (cfg.eval_start, cfg.eval_end)
    forecasts = [backtest(name, bundle, *windows, cfg.scheme) for name in args.specs]
    text = (
        f"backtested {len(forecasts)} models over {len(forecasts[0].months)} "
        f"months -> {cfg.out_path('forecasts.csv')}\n"
    )
    return text, [(write_forecasts, forecasts)]


def cmd_evaluate(cfg: RunConfig, args: argparse.Namespace) -> Result:
    """RMSE and Giacomini-White report of the forecast file"""
    rows = evaluate_forecasts(
        read_forecasts(_upstream(cfg, "forecasts")),
        variant=cfg.gw_variant,
        unit=cfg.rmse_unit,
        truncation_lag=cfg.truncation_lag,
    )
    text = evaluation_table(rows)
    return text, [
        (write_table, text), (write_rows, *evaluation_table_delimited(rows))
    ]


#: Each command's handler, called with (cfg, args), and the files it
#: writes under --out. The handler's docstring is its --help line.
COMMANDS: dict[str, tuple[Callable[..., Result], tuple[str, ...]]] = {
    "score": (cmd_score, ("articles_probs.csv", "articles_scored.csv")),
    "build-index": (cmd_build_index, ("news_index.csv", "news_index_meta.csv")),
    "fit": (cmd_fit, ("regression.txt", "regression.csv")),
    "nowcast": (cmd_nowcast, ("nowcast.csv",)),
    "backtest": (cmd_backtest, ("forecasts.csv",)),
    "evaluate": (cmd_evaluate, ("evaluation.txt", "evaluation.csv")),
}


def _write(cfg: RunConfig, name: str, writer: Callable[..., None], *data) -> None:
    """Write data with writer to the file name under --out, after the
    run's provenance line."""
    writer(*data, cfg.out_path(name), cfg.provenance())


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler, outputs = COMMANDS[args.command]
    cfg = None
    try:
        config_path = toy_config_path() if args.config == "toy" else args.config
        cfg = load_config(config_path, args.overrides, args.out)
        if "specs" in args:
            args.specs = _resolve_spec_names(cfg, args.specs)
        text, files = handler(cfg, args)
        for name, file in zip(outputs, files, strict=True):
            _write(cfg, name, *file)
    except NewscastError as exc:
        # An earlier run's outputs would pass for this run's. A failed
        # removal is ignored, so the error reported is the command's.
        if cfg is not None:
            for name in outputs:
                with suppress(OSError):
                    cfg.out_path(name).unlink(missing_ok=True)
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
