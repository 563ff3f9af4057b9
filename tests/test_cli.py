"""End-to-end command-line behavior, run in-process unless a test says
otherwise."""

import csv
import importlib.util
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from newscast import (
    ConfigError,
    DataError,
    NewscastError,
    NumericError,
    load_config,
    toy_config_path,
)
from newscast.cli import COMMANDS, EPILOG, _upstream, main
from newscast.io import (
    FORECAST_HEADER,
    FORMATS,
    INDEX_META_HEADER,
    NOWCAST_HEADER,
    PROBS_HEADER,
    REJECTION_HEADER,
    SCORED_HEADER,
    SERIES_HEADER,
    TEXT_HEADER,
)
from newscast.nowcast import MODEL_SPECS
from newscast.ols import tail_ufuncs
from newscast.report import EVALUATION_HEADER

TOY_DIR = toy_config_path().parent


def run(*args):
    return main([str(a) for a in args])


def write_config(dir_path, **overrides):
    """Config reusing the bundled series files via absolute paths.

    Pass key=None to omit a key entirely.
    """
    settings = {
        "cpi": TOY_DIR / "cpi.csv",
        "ccpi": TOY_DIR / "ccpi.csv",
        "fcpi": TOY_DIR / "fcpi.csv",
        "gas": TOY_DIR / "gas.csv",
        "window": "1",
        "train_start": "2015-01",
        "train_end": "2019-12",
        "eval_start": "2020-01",
        "eval_end": "2023-12",
    }
    settings.update(overrides)
    path = dir_path / "custom.cfg"
    path.write_text(
        "".join(f"{k} = {v}\n" for k, v in settings.items() if v is not None)
    )
    return path


def read_csv_after_provenance(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# newscast ")
    return list(csv.reader(io.StringIO("\n".join(lines[1:]))))


@pytest.fixture(scope="module")
def toy_chain(tmp_path_factory):
    """Outputs of every command's clean toy run, shared read-only."""
    out = tmp_path_factory.mktemp("toy-chain")
    for command in COMMANDS:
        assert run("--config", "toy", "--out", out, command) == 0
    return out


@pytest.fixture
def toy_copy(toy_chain, tmp_path):
    """A copy of toy_chain for a test that runs a command into it."""
    out = tmp_path / "toy-copy"
    shutil.copytree(toy_chain, out)
    return out


class TestParser:
    def test_help_lists_commands_and_exit_codes(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("--help")
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for token in (
            "score", "build-index", "fit", "nowcast", "backtest", "evaluate",
            "exit codes:", "--config toy",
        ):
            assert token in out

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("--version")
        assert exc.value.code == 0
        assert "newscast 0.1.0" in capsys.readouterr().out

    def test_command_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("--config", "toy")
        assert exc.value.code == 2


class TestScore:
    def test_toy_outputs(self, toy_chain):
        scored = toy_chain / "articles_scored.csv"
        rows = read_csv_after_provenance(scored)
        assert rows[0] == ["id", "date", "score"]
        assert len(rows) > 1000  # every probability row scores
        for row in rows[1:]:
            assert -1.0 <= float(row[2]) <= 1.0

    def test_probs_route_preferred_over_text(self, toy_chain):
        # toy.cfg lists both inputs; the probability route wins, so the
        # probs sidecar mirrors the input probabilities.
        rows = read_csv_after_provenance(toy_chain / "articles_probs.csv")
        assert rows[0] == ["id", "date", "p_down", "p_neutral", "p_up"]
        assert len(rows) == 1 + sum(
            1 for _ in open(TOY_DIR / "news_probs.csv")
        ) - 1

    def test_text_route_uses_keyword_baseline(self, tmp_path, capsys):
        cfg = write_config(tmp_path, news_text=TOY_DIR / "news_text.csv")
        assert run("--config", cfg, "--out", tmp_path / "out", "score") == 0
        rows = read_csv_after_provenance(tmp_path / "out" / "articles_scored.csv")
        assert len(rows) > 1  # the bundled headlines pass the filter
        stdout = capsys.readouterr().out
        assert "filtered out" in stdout

    def test_cap_past_int64_scores_as_any_cap_past_the_phrase_count(self, tmp_path):
        # No headline hits more phrases than a lexicon holds.
        text = ("--set", "news_probs=")
        outs = {}
        for cap in (2**63, 1000):
            outs[cap] = tmp_path / str(cap)
            assert run(
                "--config", "toy", "--out", outs[cap], *text,
                "--set", f"baseline_cap={cap}", "score",
            ) == 0
        for name in ("articles_probs.csv", "articles_scored.csv"):
            rows = [read_csv_after_provenance(out / name) for out in outs.values()]
            assert len(rows[0]) > 1 and rows[0] == rows[1]

    def test_zero_match_lexicon_warns_but_succeeds(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            news_text=TOY_DIR / "news_text.csv",
            lexicon="xyzzy plugh",
        )
        assert run("--config", cfg, "--out", tmp_path / "out", "score") == 0
        captured = capsys.readouterr()
        assert "no articles passed the lexicon filter" in captured.err
        rows = read_csv_after_provenance(tmp_path / "out" / "articles_scored.csv")
        assert rows == [["id", "date", "score"]]

    def test_empty_probability_file_is_named_not_blamed_on_the_filter(
        self, tmp_path, capsys
    ):
        empty = tmp_path / "probs.csv"
        empty.write_text("id,date,p_down,p_neutral,p_up\n")
        cfg = write_config(tmp_path, news_probs=empty)
        assert run("--config", cfg, "--out", tmp_path / "out", "score") == 0
        err = capsys.readouterr().err
        assert f"warning: {empty} contains no articles" in err
        assert "lexicon" not in err

    def test_small_rejection_rate_tolerated(self, tmp_path):
        lines = ["id,date,p_down,p_neutral,p_up"]
        lines += [f"a{i:02d},2015-01-{(i % 28) + 1:02d},0.2,0.3,0.5"
                  for i in range(20)]
        lines.append("bad,2015-01-05,0.9,0.9,0.9")
        probs = tmp_path / "probs.csv"
        probs.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path, news_probs=probs)
        assert run("--config", cfg, "--out", tmp_path / "out", "score") == 0
        rejected = tmp_path / "out" / "articles_rejected.csv"
        rows = read_csv_after_provenance(rejected)
        assert rows[0] == ["line", "reason"]
        assert len(rows) == 2
        assert rows[1][0] == "22"  # physical line of the bad row

    def test_clean_rerun_removes_stale_rejections(self, tmp_path):
        good = ["id,date,p_down,p_neutral,p_up"]
        good += [f"a{i:02d},2015-01-{i + 1:02d},0.2,0.3,0.5" for i in range(20)]
        probs = tmp_path / "probs.csv"
        probs.write_text("\n".join(good + ["bad,2015-01-05,0.9,0.9,0.9"]) + "\n")
        cfg = write_config(tmp_path, news_probs=probs)
        out = tmp_path / "out"
        assert run("--config", cfg, "--out", out, "score") == 0
        assert (out / "articles_rejected.csv").exists()
        probs.write_text("\n".join(good) + "\n")
        assert run("--config", cfg, "--out", out, "score") == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "articles_probs.csv", "articles_scored.csv"
        ]

    def test_failed_rerun_leaves_no_stale_rejections(self, tmp_path, capsys):
        good = ["id,date,p_down,p_neutral,p_up"]
        good += [f"a{i:02d},2015-01-{i + 1:02d},0.2,0.3,0.5" for i in range(20)]
        probs = tmp_path / "probs.csv"
        probs.write_text("\n".join(good + ["bad,2015-01-05,0.9,0.9,0.9"]) + "\n")
        cfg = write_config(tmp_path, news_probs=probs)
        out = tmp_path / "out"
        assert run("--config", cfg, "--out", out, "score") == 0
        assert (out / "articles_rejected.csv").exists()
        unset = ("--set", "news_probs=", "--set", "news_text=")
        assert run("--config", cfg, "--out", out, *unset, "score") == 2
        assert "news_probs or news_text" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_excessive_rejection_rate_fails(self, tmp_path, capsys):
        lines = ["id,date,p_down,p_neutral,p_up"]
        lines += [f"a{i:02d},2015-01-{i + 1:02d},0.2,0.3,0.5" for i in range(10)]
        lines += ["bad1,2015-01-05,0.9,0.9,0.9", "bad2,2015-02-30,0.2,0.3,0.5"]
        probs = tmp_path / "probs.csv"
        probs.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path, news_probs=probs)
        assert run("--config", cfg, "--out", tmp_path / "out", "score") == 3
        assert "malformed" in capsys.readouterr().err
        assert (tmp_path / "out" / "articles_rejected.csv").exists()

    def test_failed_rerun_leaves_no_stale_scores(self, tmp_path, capsys):
        good = ["id,date,p_down,p_neutral,p_up"]
        good += [f"a{i:02d},2015-01-{i + 1:02d},0.2,0.3,0.5" for i in range(20)]
        bad = [f"bad{i},2015-01-05,0.9,0.9,0.9" for i in range(5)]
        probs = tmp_path / "probs.csv"
        probs.write_text("\n".join(good) + "\n")
        cfg = write_config(tmp_path, news_probs=probs)
        out = tmp_path / "out"
        assert run("--config", cfg, "--out", out, "score") == 0
        probs.write_text("\n".join(good + bad) + "\n")
        assert run("--config", cfg, "--out", out, "score") == 3
        assert [p.name for p in out.iterdir()] == ["articles_rejected.csv"]
        capsys.readouterr()
        assert run("--config", cfg, "--out", out, "build-index") == 3
        assert "does not exist" in capsys.readouterr().err

    def test_score_without_news_inputs_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert run("--config", cfg, "--out", tmp_path / "out", "score") == 2
        assert "news_probs or news_text" in capsys.readouterr().err


class TestBuildIndex:
    def test_outputs(self, toy_chain):
        index_rows = read_csv_after_provenance(toy_chain / "news_index.csv")
        assert index_rows[0] == ["date", "value"]
        assert len(index_rows) == 133  # 2013-01..2023-12, contiguous
        meta_rows = read_csv_after_provenance(toy_chain / "news_index_meta.csv")
        assert meta_rows[0] == ["month", "article_count", "gap"]
        assert len(meta_rows) == 133
        assert all(r[2] == "0" for r in meta_rows[1:])  # no gaps in toy data

    def test_requires_scored_file(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("--config", "toy", "--out", out, "build-index") == 3
        assert capsys.readouterr().err == (
            f"error: scored-article file {out / 'articles_scored.csv'} does not "
            "exist; run the score command first or set the 'scored' config key\n"
        )

    def test_empty_scored_file_is_named(self, tmp_path, capsys):
        scored = tmp_path / "scored.csv"
        scored.write_text("# c\nid,date,score\n")
        cfg = write_config(tmp_path, scored=scored)
        assert run("--config", cfg, "--out", tmp_path / "out", "build-index") == 3
        assert f"{scored} contains no scored articles" in capsys.readouterr().err


class TestFit:
    def test_stdout_table(self, toy_copy, capsys):
        assert run("--config", "toy", "--out", toy_copy, "fit") == 0
        out = capsys.readouterr().out
        assert "Dependent variable: CPI" in out
        assert "pi-NEWS" in out
        assert "Note: *p<0.1; **p<0.05; ***p<0.01" in out

    def test_written_files(self, toy_chain):
        text = (toy_chain / "regression.txt").read_text()
        assert text.startswith("# newscast ")
        assert "Dependent variable: CPI" in text
        rows = read_csv_after_provenance(toy_chain / "regression.csv")
        assert rows[0] == ["term", "statistic", "fed", "fed+news"]

    def test_spec_arguments_override_config(self, toy_copy, capsys):
        assert run("--config", "toy", "--out", toy_copy, "fit", "fed") == 0
        rows = read_csv_after_provenance(toy_copy / "regression.csv")
        assert rows[0] == ["term", "statistic", "fed"]

    def test_fit_all_uses_every_spec(self, toy_copy, capsys):
        assert run("--config", "toy", "--out", toy_copy, "fit", "all") == 0
        rows = read_csv_after_provenance(toy_copy / "regression.csv")
        assert rows[0] == [
            "term", "statistic",
            "fed", "news", "fed+news", "fed-gas+news", "ccpi+news",
        ]

    def test_unknown_spec_is_config_error(self, toy_copy, capsys):
        assert run("--config", "toy", "--out", toy_copy, "fit", "fed+tweets") == 2
        assert "unknown model" in capsys.readouterr().err

    def test_unknown_spec_says_where_it_was_given(self, tmp_path, capsys):
        out = tmp_path / "out"
        known = sorted(MODEL_SPECS)
        for args, where in (
            (["--set", "specs=fed,bogus", "fit"], "config key 'specs'"),
            (["fit", "fed", "bogus"], "argument SPEC"),
        ):
            assert run("--config", "toy", "--out", out, *args) == 2
            assert capsys.readouterr().err == (
                f"error: {where}: unknown model spec 'bogus'; known: {known}\n"
            )
            assert not (out / "regression.csv").exists()

    def test_repeated_spec_argument_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        for specs in (["fed", "fed"], ["fed", "news", "fed"]):
            assert run("--config", "toy", "--out", out, "fit", *specs) == 2
            assert capsys.readouterr().err == (
                "error: argument SPEC names model 'fed' twice\n"
            )
            assert not (out / "regression.csv").exists()

    def test_news_spec_requires_index_file(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("--config", "toy", "--out", out, "fit") == 3
        assert capsys.readouterr().err == (
            f"error: news index file {out / 'news_index.csv'} does not exist; "
            "run the build-index command first or set the 'news_index' config key\n"
        )

    def test_price_only_spec_needs_no_index(self, tmp_path, capsys):
        assert run("--config", "toy", "--out", tmp_path / "out",
                   "fit", "fed") == 0
        assert "Dependent variable: CPI" in capsys.readouterr().out


class TestNowcast:
    def test_default_month_follows_training(self, toy_copy, capsys):
        assert run("--config", "toy", "--out", toy_copy, "nowcast") == 0
        out = capsys.readouterr().out
        assert "2020-01" in out
        rows = read_csv_after_provenance(toy_copy / "nowcast.csv")
        assert rows[0] == ["date", "model", "nowcast", "nowcast_annualized"]
        assert [r[1] for r in rows[1:]] == ["fed", "fed+news"]
        assert all(r[0] == "2020-01" for r in rows[1:])

    def test_explicit_month(self, toy_copy, capsys):
        assert run("--config", "toy", "--out", toy_copy,
                   "nowcast", "--month", "2021-06") == 0
        rows = read_csv_after_provenance(toy_copy / "nowcast.csv")
        assert all(r[0] == "2021-06" for r in rows[1:])
        capsys.readouterr()

    def test_matches_first_backtest_month(self, toy_copy, capsys):
        # A fixed-scheme backtest's first month is exactly the nowcast
        # of eval_start: same fit, same bundle, same arithmetic.
        assert run("--config", "toy", "--out", toy_copy,
                   "nowcast", "--month", "2020-01") == 0
        capsys.readouterr()
        nowcast_rows = read_csv_after_provenance(toy_copy / "nowcast.csv")
        forecast_rows = read_csv_after_provenance(toy_copy / "forecasts.csv")
        for model in ("fed", "fed+news"):
            direct = next(
                float(r[2]) for r in nowcast_rows[1:] if r[1] == model
            )
            from_backtest = next(
                float(r[2]) for r in forecast_rows[1:]
                if r[0] == "2020-01" and r[1] == model
            )
            assert direct == from_backtest

    def test_readme_library_example_prints_it(self, toy_copy, capsys, monkeypatch):
        # The README's library chain, run on the toy files, prints the
        # command line's fed+news nowcast.
        assert run("--config", "toy", "--out", toy_copy,
                   "nowcast", "--month", "2020-01", "fed+news") == 0
        rows = read_csv_after_provenance(toy_copy / "nowcast.csv")
        capsys.readouterr()
        readme = (Path(__file__).parent.parent / "README.md").read_text("utf-8")
        library = readme[readme.index("\n## Library\n"):]
        monkeypatch.chdir(TOY_DIR)
        exec(re.search(r"```python\n(.*?)```", library, re.S).group(1), {})
        assert capsys.readouterr().out == f"{rows[1][2]}\n"

    def test_failed_model_prints_no_earlier_model(self, tmp_path, toy_chain, capsys):
        # ccpi+news nowcasts 2021-07; fed then fails on the gas level.
        gas = edited_series(tmp_path, "gas", {"2021-05": "1e300"})
        index = toy_chain / "news_index.csv"
        cfg = write_config(tmp_path, gas=gas, news_index=index)
        out = tmp_path / "out"
        assert run("--config", cfg, "--out", out,
                   "nowcast", "ccpi+news", "fed", "--month", "2021-07") == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: model 'fed', nowcast for 2021-07: ")
        assert not (out / "nowcast.csv").exists()


class TestUpstream:
    """Each upstream file is the one its config key names, else the
    upstream command's output under --out."""

    def test_upstream_files_fall_back_to_out_dir(self, tmp_path):
        out = tmp_path / "results"
        out.mkdir()
        cfg = load_config(write_config(tmp_path), out_override=str(out))
        for key, filename in [
            ("scored", "articles_scored.csv"),
            ("news_index", "news_index.csv"),
            ("forecasts", "forecasts.csv"),
        ]:
            (out / filename).write_text("")
            assert _upstream(cfg, key) == out / filename

    def test_explicit_upstream_path_wins(self, tmp_path):
        mine = tmp_path / "my_scored.csv"
        mine.write_text("id,date,score\n")
        out = tmp_path / "out"
        out.mkdir()
        (out / "articles_scored.csv").write_text("")
        cfg = load_config(write_config(tmp_path, scored=mine), out_override=str(out))
        assert _upstream(cfg, "scored") == mine


class TestBacktestAndEvaluate:
    def test_model_name_with_a_cr_keeps_its_row(self, toy_chain, tmp_path, capsys):
        # Minimal quoting would write the CR bare, and a reader would end
        # the model's row there.
        text = (toy_chain / "forecasts.csv").read_text()
        forecasts = tmp_path / "forecasts.csv"
        forecasts.write_bytes(text.replace(",fed+news,", ',"fed\r+news",').encode())
        out = tmp_path / "out"
        assert run("--config", "toy", "--out", out,
                   "--set", f"forecasts={forecasts}", "evaluate") == 0
        capsys.readouterr()
        with open(out / "evaluation.csv", newline="", encoding="utf-8") as handle:
            comment, *rows = csv.reader(handle)
        assert comment[0].startswith("# newscast ")
        assert [len(row) for row in rows] == [7, 7, 7]
        assert [row[0] for row in rows] == ["model", "fed", "fed\r+news"]

    def test_forecast_file_shape(self, toy_chain):
        rows = read_csv_after_provenance(toy_chain / "forecasts.csv")
        assert rows[0] == [
            "date", "model", "nowcast", "nowcast_annualized",
            "realized", "realized_annualized",
        ]
        data = rows[1:]
        assert len(data) == 2 * 48  # two models, four evaluation years
        assert data[0][0] == "2020-01"
        assert data[47][0] == "2023-12"
        # Realized values are model-independent.
        fed = [r for r in data if r[1] == "fed"]
        news = [r for r in data if r[1] == "fed+news"]
        assert [r[4] for r in fed] == [r[4] for r in news]

    def test_evaluation_outputs(self, toy_chain):
        text = (toy_chain / "evaluation.txt").read_text()
        assert text.startswith("# newscast ")
        assert "RMSE" in text
        assert "FED" in text and "FED+NEWS" in text
        assert "(--)" in text
        rows = read_csv_after_provenance(toy_chain / "evaluation.csv")
        assert rows[0] == [
            "model", "rmse", "gw_statistic", "gw_df", "gw_p_value",
            "gw_variant", "stars",
        ]
        assert rows[1][0] == "fed" and rows[1][2] == ""
        assert rows[2][0] == "fed+news" and rows[2][5] == "unconditional"
        assert 0.0 <= float(rows[2][4]) <= 1.0

    def test_only_evaluate_reports(self, tmp_path, capsys):
        out = tmp_path / "out"
        for command in ("score", "build-index"):
            assert run("--config", "toy", "--out", out, command) == 0
        capsys.readouterr()
        assert run("--config", "toy", "--out", out, "backtest") == 0
        assert capsys.readouterr().out == (
            f"backtested 2 models over 48 months -> {out / 'forecasts.csv'}\n"
        )
        assert not list(out.glob("evaluation.*"))
        assert run("--config", "toy", "--out", out, "evaluate") == 0
        text = (out / "evaluation.txt").read_text()
        assert capsys.readouterr().out == text.split("\n", 1)[1]

    def test_unevaluable_backtest_keeps_its_forecasts(self, tmp_path, capsys):
        out = tmp_path / "out"
        one_month = ("--set", "eval_start=2020-01", "--set", "eval_end=2020-01")
        for command in ("score", "build-index", "backtest"):
            assert run("--config", "toy", "--out", out, *one_month, command) == 0
        rows = read_csv_after_provenance(out / "forecasts.csv")
        assert [r[:2] for r in rows[1:]] == [
            ["2020-01", "fed"], ["2020-01", "fed+news"]
        ]
        capsys.readouterr()
        assert run("--config", "toy", "--out", out, *one_month, "evaluate") == 3
        assert capsys.readouterr().err == (
            "error: unconditional variant needs n >= 8, got 1\n"
        )
        assert (out / "forecasts.csv").exists()

    def test_failed_rerun_leaves_no_stale_forecasts(self, tmp_path, capsys):
        out = tmp_path / "out"
        for command in ("score", "build-index", "backtest"):
            assert run("--config", "toy", "--out", out, command) == 0
        assert run("--config", "toy", "--out", out,
                   "--set", "eval_end=2030-12", "backtest", "all") == 3
        assert not (out / "forecasts.csv").exists()
        capsys.readouterr()
        assert run("--config", "toy", "--out", out, "evaluate") == 3
        assert "backtest command first" in capsys.readouterr().err

    def test_gap_inside_the_rolling_span_is_data_error(self, tmp_path, capsys):
        # A gasoline level missing in 2020-05 leaves no 1-month change for
        # 2020-05 and 2020-06. The rolling windows from 2020-06 on span
        # them; the fixed training window 2015-01..2019-12 does not.
        levels = (TOY_DIR / "gas.csv").read_text().splitlines()
        gas = tmp_path / "gas.csv"
        gas.write_text(
            "\n".join(line for line in levels if not line.startswith("2020-05"))
            + "\n"
        )
        cfg = write_config(tmp_path, gas=gas, scheme="rolling")
        assert run("--config", cfg, "--out", tmp_path / "out",
                   "backtest", "fed") == 3
        err = capsys.readouterr().err
        assert "'gas' lacks months" in err and "2020-05..2020-06" in err

    @pytest.mark.parametrize("setting, command, message", [
        ("train_start=0001-01", "fit", "0001-01..2019-12: 0001-01..2013-01"),
        ("eval_end=9999-12", "backtest", "2020-01..9999-12: 2024-01..9999-12"),
    ])
    def test_missing_months_are_listed_as_runs(
        self, tmp_path, capsys, setting, command, message
    ):
        # Listed one by one, these months made stderr lines of 217 kB
        # and 861 kB.
        out = tmp_path / "out"
        assert run("--config", "toy", "--out", out, "--set", setting, command,
                   "fed") == 3
        assert capsys.readouterr().err == (
            f"error: series 'cpi' lacks months of {message}\n"
        )

    def test_evaluate_requires_forecasts(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("--config", "toy", "--out", out, "evaluate") == 3
        assert capsys.readouterr().err == (
            f"error: forecast file {out / 'forecasts.csv'} does not exist; "
            "run the backtest command first or set the 'forecasts' config key\n"
        )

    def test_single_spec_report_has_no_test_column(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("--config", "toy", "--out", out, "score") == 0
        assert run("--config", "toy", "--out", out, "build-index") == 0
        assert run("--config", "toy", "--out", out, "backtest", "fed+news") == 0
        assert run("--config", "toy", "--out", out, "evaluate") == 0
        capsys.readouterr()
        rows = read_csv_after_provenance(out / "evaluation.csv")
        assert len(rows) == 2
        assert rows[1][0] == "fed+news"
        assert rows[1][2:] == ["", "", "", "", ""]
        text = (out / "evaluation.txt").read_text()
        assert "(--)" in text


def edited_series(tmp_path, key, levels):
    """A copy of the toy series file key with the months of levels (a
    YYYY-MM -> text dict) set to those levels."""
    lines = (TOY_DIR / f"{key}.csv").read_text().splitlines()
    for i, line in enumerate(lines):
        month = line.split(",")[0]
        if month in levels:
            lines[i] = f"{month},{levels[month]}"
    path = tmp_path / f"{key}.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def refuse_import(name):
    raise ImportError(name)


class TestExitCodes:
    def test_each_family_exits_with_its_documented_code(self):
        documented = dict(re.findall(r"^  (\d)  (\w+)", EPILOG, re.M))
        for family, word in (
            (ConfigError, "configuration"),
            (DataError, "data"),
            (NumericError, "numerical"),
        ):
            assert documented[str(family.exit_code)] == word
        assert NewscastError.exit_code == 1
        assert "1" not in documented

    @pytest.mark.parametrize("files, isolated, found, error", [
        ({}, True, "no scipy package found", "'scipy'"),
        ({"scipy/README.txt": ""}, True, "no scipy package found", "'scipy.linalg'"),
        ({"scipy/__init__.py": ""}, False,
         "scipy without metadata in {}", "'scipy.linalg._flapack'"),
        ({"scipy/__init__.py": "",
          "scipy-9.9.9.dist-info/METADATA": "Name: scipy\nVersion: 9.9.9\n"},
         False, "scipy 9.9.9 in {}", "'scipy.linalg._flapack'"),
    ], ids=["no-scipy", "namespace", "no-metadata", "missing-extension"])
    def test_scipy_install_that_does_not_load_exits_2(
        self, tmp_path, files, isolated, found, error
    ):
        # fit loads scipy's LAPACK extension in a fresh interpreter that
        # finds these files first on its path. An isolated one has no
        # site-packages, so no other scipy: numpy comes from links.
        first = tmp_path / "first"
        for name, text in files.items():
            (first / name).parent.mkdir(parents=True, exist_ok=True)
            (first / name).write_text(text)
        path = [str(first), str(Path(__file__).parents[1] / "src")]
        if isolated:
            links, site = tmp_path / "numpy", Path(np.__file__).parents[1]
            links.mkdir()
            for name in ("numpy", "numpy.libs"):
                if (site / name).exists():
                    (links / name).symlink_to(site / name)
            path.append(str(links))
        code = (
            "import sys\nsys.path[:0] = sys.argv[2:]\nfrom newscast.cli import main\n"
            "sys.exit(main(['--config', 'toy', '--out', sys.argv[1], 'fit', 'fed']))"
        )
        result = subprocess.run(
            [sys.executable, *(["-S"] if isolated else []), "-c", code,
             tmp_path / "out", *path],
            capture_output=True, text=True,
        )
        assert (result.returncode, result.stderr) == (2, (
            "error: cannot load scipy.linalg._flapack "
            f"({found.format(first / 'scipy')}): No module named {error}\n"
        ))

    @pytest.mark.parametrize("import_module, detail", [
        (refuse_import, "scipy.special._ufuncs"),
        (lambda name: SimpleNamespace(),
         "'types.SimpleNamespace' object has no attribute 'stdtr'"),
    ], ids=["ImportError", "AttributeError"])
    def test_extension_that_needs_the_scipy_package_exits_2(
        self, toy_chain, tmp_path, capsys, monkeypatch, import_module, detail
    ):
        # A sibling extension that reads the scipy package finds only its
        # stand-in: the import fails, or the module lacks a name.
        monkeypatch.setattr("newscast.ols.importlib.import_module", import_module)
        tail_ufuncs.cache_clear()  # a failed load is not cached
        code = run("--config", "toy", "--out", tmp_path / "out",
                   "--set", f"forecasts={toy_chain / 'forecasts.csv'}", "evaluate")
        root = Path(importlib.util.find_spec("scipy").origin).parent
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: cannot load scipy.special._ufuncs (scipy {version('scipy')} "
            f"in {root}): {detail}\n"
        )

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["fit", "backtest"])
    def test_overflowing_percent_change_names_series_and_month(
        self, tmp_path, capsys, command
    ):
        gas = {"2015-02": "1e-300", "2015-03": "1e300"}
        cfg = write_config(tmp_path, gas=edited_series(tmp_path, "gas", gas))
        out = tmp_path / "out"
        assert run("--config", cfg, "--out", out, command, "fed") == 4
        assert capsys.readouterr().err == (
            "error: pct_change of 'gas' (window 1) overflows: 2015-03\n"
        )

    @pytest.mark.parametrize("month, level, reason", [
        ("2021-06", "1e50", "annualizing rate 3.7469350071641404e+49 overflows"),
        ("2021-05", "1e-50", "cannot annualize rate -100.0 <= -100"),
    ])
    def test_annualizing_error_names_model_column_and_month(
        self, tmp_path, capsys, month, level, reason
    ):
        cpi = edited_series(tmp_path, "cpi", {month: level})
        cfg = write_config(tmp_path, cpi=cpi)
        out = tmp_path / "out"
        assert run("--config", cfg, "--out", out, "backtest", "fed") == 4
        assert capsys.readouterr().err == (
            f"error: model 'fed', realized for {month}: {reason}\n"
        )

    def test_annualizing_error_of_a_nowcast_names_model_and_month(
        self, tmp_path, capsys
    ):
        # pi-Gasoline of 2021-05 is about 5.5e299, and the 2021-07 nowcast
        # imputes gas with a moving average over it.
        gas = edited_series(tmp_path, "gas", {"2021-05": "1e300"})
        cfg = write_config(tmp_path, gas=gas)
        out = tmp_path / "out"
        assert run("--config", cfg, "--out", out,
                   "nowcast", "fed", "--month", "2021-07") == 4
        err = capsys.readouterr().err
        assert err.startswith(
            "error: model 'fed', nowcast for 2021-07: annualizing rate "
        )
        assert err.endswith(" overflows\n")
        assert err.count("\n") == 1

    @pytest.mark.filterwarnings("error")
    def test_overflowing_squared_error_names_model_and_month(
        self, toy_chain, tmp_path, capsys
    ):
        lines = (toy_chain / "forecasts.csv").read_text().splitlines()
        row = next(i for i, x in enumerate(lines) if x.startswith("2020-01,fed,"))
        lines[row] = ",".join([*lines[row].split(",")[:5], "1e200"])
        forecasts = tmp_path / "forecasts.csv"
        forecasts.write_text("\n".join(lines) + "\n")
        assert run("--config", "toy", "--out", tmp_path / "out",
                   "--set", f"forecasts={forecasts}", "evaluate") == 4
        assert capsys.readouterr().err == (
            "error: model 'fed': squared forecast error overflows: 2020-01\n"
        )

    def test_models_scored_against_other_realizations_exit_3(
        self, toy_chain, tmp_path, capsys
    ):
        lines = (toy_chain / "forecasts.csv").read_text().splitlines()
        row = next(i for i, x in enumerate(lines) if x.startswith("2020-01,fed+news,"))
        lines[row] = ",".join([*lines[row].split(",")[:4], "9.0", "200.0"])
        forecasts = tmp_path / "forecasts.csv"
        forecasts.write_text("\n".join(lines) + "\n")
        assert run("--config", "toy", "--out", tmp_path / "out",
                   "--set", f"forecasts={forecasts}", "evaluate") == 3
        assert capsys.readouterr().err == (
            "error: model 'fed+news' has different realized values than the "
            "baseline 'fed': 2020-01\n"
        )

    def test_forecast_months_with_a_gap_exit_3(self, toy_chain, tmp_path, capsys):
        # The conditional variant would take 2020-05 as the lag of 2020-07.
        lines = (toy_chain / "forecasts.csv").read_text().splitlines()
        forecasts = tmp_path / "forecasts.csv"
        forecasts.write_text(
            "".join(x + "\n" for x in lines if not x.startswith("2020-06,"))
        )
        assert run("--config", "toy", "--out", tmp_path / "out",
                   "--set", f"forecasts={forecasts}",
                   "--set", "gw_variant=conditional-lag1", "evaluate") == 3
        assert capsys.readouterr().err == (
            "error: months of model 'fed' are not consecutive: 2020-06\n"
        )

    def test_forecast_row_with_blank_model_exit_3(self, toy_chain, tmp_path, capsys):
        text = (toy_chain / "forecasts.csv").read_text()
        line = text[: text.index(",fed+news,")].count("\n") + 1
        forecasts = tmp_path / "forecasts.csv"
        forecasts.write_text(text.replace(",fed+news,", ", ,"))
        assert run("--config", "toy", "--out", tmp_path / "out",
                   "--set", f"forecasts={forecasts}", "evaluate") == 3
        assert capsys.readouterr().err == (
            f"error: line {line}: {forecasts}: empty model name\n"
        )

    @pytest.mark.filterwarnings("error")
    def test_overflowing_keyword_odds_exit_2(self, tmp_path, capsys):
        assert run("--config", "toy", "--out", tmp_path / "out",
                   "--set", "news_probs=", "--set", "baseline_gain=1e308",
                   "score") == 2
        assert capsys.readouterr().err == (
            "error: baseline gain 1e+308 with cap 8 overflows the odds\n"
        )

    def test_truncation_lag_under_the_conditional_variant_exits_2(
        self, tmp_path, capsys
    ):
        # The conditional variant has no long-run variance: the lag would
        # change the digest and nothing in evaluation.csv.
        assert run("--config", "toy", "--out", tmp_path / "out",
                   "--set", "gw_variant=conditional-lag1",
                   "--set", "truncation_lag=5", "evaluate") == 2
        assert capsys.readouterr().err == (
            "error: truncation_lag 5 applies only to gw_variant unconditional, "
            "got gw_variant conditional-lag1\n"
        )

    def test_missing_config_file(self, tmp_path, capsys):
        assert run("--config", tmp_path / "no.cfg", "fit") == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_config_file_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"cpi = x\xff\n")
        assert run("--config", bad, "score") == 2
        assert capsys.readouterr().err.startswith(
            f"error: cannot read config {bad}: 'utf-8' codec can't decode byte 0xff"
        )

    def test_override_value_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        # Command-line bytes that are not UTF-8 arrive as lone surrogates.
        assert run("--config", "toy", "--out", tmp_path / "out",
                   "--set", "lexicon=\udcff", "score") == 2
        assert capsys.readouterr().err == (
            "error: config key 'lexicon': '\\udcff' is not UTF-8\n"
        )
        assert run("--config", "toy", "--out", tmp_path / "\udcff", "fit") == 2
        assert capsys.readouterr().err.startswith("error: config key 'out': ")

    def test_input_name_too_long_names_the_key(self, tmp_path, capsys):
        assert run("--config", "toy", "--out", tmp_path / "out",
                   "--set", "cpi=" + "a" * 300, "fit", "fed") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config key 'cpi': file ")
        assert err.endswith("a" * 300 + " does not exist\n")

    def test_out_name_too_long_names_the_path(self, tmp_path, capsys):
        out = tmp_path / ("a" * 300)
        assert run("--config", "toy", "--out", out, "evaluate") == 3
        assert capsys.readouterr().err.startswith(
            f"error: forecast file {out / 'forecasts.csv'} does not exist; "
        )

    def test_unknown_override_key(self, capsys, tmp_path):
        assert run("--config", "toy", "--out", tmp_path / "out",
                   "--set", "windoze=1", "fit") == 2
        assert "unknown key" in capsys.readouterr().err

    def test_bad_override_value(self, capsys, tmp_path):
        assert run("--config", "toy", "--out", tmp_path / "out",
                   "--set", "window=zero", "fit") == 2
        assert "not an integer" in capsys.readouterr().err

    def test_nul_byte_in_out_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, out="a\0b")
        assert run("--config", cfg, "fit", "fed") == 2
        assert capsys.readouterr().err == (
            "error: config key 'out': 'a\\x00b' holds a NUL byte\n"
        )

    def test_malformed_series_file_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "cpi.csv"
        bad.write_text("date,value\n2015-13,100.0\n")
        cfg = write_config(tmp_path, cpi=bad)
        assert run("--config", cfg, "--out", tmp_path / "out", "fit", "fed") == 3
        assert "line 2" in capsys.readouterr().err

    def test_header_only_series_file_is_named(self, tmp_path, capsys):
        empty = tmp_path / "cpi.csv"
        empty.write_text("date,value\n")
        cfg = write_config(tmp_path, cpi=empty)
        assert run("--config", cfg, "--out", tmp_path / "out", "fit", "fed") == 3
        err = capsys.readouterr().err
        assert err == f"error: {empty} contains no series rows\n"

    def test_repeated_config_spec_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        for command in ("score", "build-index"):
            assert run("--config", "toy", "--out", out, command) == 0
        capsys.readouterr()
        assert run("--config", "toy", "--out", out, "--set", "specs=fed,fed",
                   "backtest") == 2
        assert "'specs' names model 'fed' twice" in capsys.readouterr().err
        assert not (out / "forecasts.csv").exists()

    def test_year_0_month_is_refused_by_each_reader(self, tmp_path, capsys):
        # Article dates cannot hold year 0, so no month may be in it.
        out = tmp_path / "out"
        refused = "month '0000-01' is outside years 1..9999"
        assert run("--config", "toy", "--out", out,
                   "--set", "train_start=0000-01", "fit") == 2
        assert capsys.readouterr().err == (
            f"error: config key 'train_start': {refused}\n"
        )
        bad = tmp_path / "cpi.csv"
        bad.write_text("date,value\n0000-01,100.0\n")
        cfg = write_config(tmp_path, cpi=bad)
        assert run("--config", cfg, "--out", out, "fit", "fed") == 3
        assert capsys.readouterr().err == f"error: line 2: {bad}: {refused}\n"
        assert run("--config", "toy", "--out", out,
                   "nowcast", "--month", "0000-01") == 2
        assert capsys.readouterr().err == f"error: --month: {refused}\n"

    def test_undecodable_input_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "cpi.csv"
        bad.write_bytes(b"date,value\n2015-01,100.0\xff\n")
        cfg = write_config(tmp_path, cpi=bad)
        assert run("--config", cfg, "--out", tmp_path / "out", "fit", "fed") == 3
        assert f"cannot read {bad}" in capsys.readouterr().err

    def test_sign_crossing_index_is_numeric_error(self, tmp_path, capsys):
        crafted = tmp_path / "index.csv"
        crafted.write_text("date,value\n2019-01,0.5\n2019-02,-0.5\n")
        cfg = write_config(tmp_path, news_index=crafted)
        assert run("--config", cfg, "--out", tmp_path / "out",
                   "fit", "news") == 4
        err = capsys.readouterr().err
        assert "sign-crossing" in err
        assert "level-diff" in err

    def test_out_path_that_is_a_file_is_data_error(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        assert run("--config", "toy", "--out", taken, "score") == 3
        err = capsys.readouterr().err
        assert f"cannot write {taken}" in err

    def test_unwritable_output_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "articles_scored.csv").mkdir(parents=True)
        assert run("--config", "toy", "--out", out, "score") == 3
        err = capsys.readouterr().err
        assert f"cannot write {out / 'articles_scored.csv'}" in err
        assert not [p for p in out.iterdir() if p.name.endswith(".tmp")]


def snapshot(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


FORECAST_TEXT = (
    "date,model,nowcast,nowcast_annualized,realized,realized_annualized\n"
)


class TestCommandTable:
    """Each command writes only its COMMANDS files under --out, and a
    failed command removes them."""

    def test_readme_table_is_the_command_table(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text("utf-8")
        table = readme[readme.index("| command "):]
        rows = [line.split("|")[1:3] for line in table.split("\n\n")[0].splitlines()]
        listed = {
            command.strip(" `"): tuple(re.findall(r"`([^`]+)`", files))
            for command, files in rows[2:]
        }
        assert listed == {name: outputs for name, (_, outputs) in COMMANDS.items()}

    def test_readme_file_formats_list_every_file_with_its_header(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text("utf-8")
        section = readme[readme.index("\n## File formats\n"):]
        bullets = section.split("\n\n")[2].replace("\n  ", " ").splitlines()
        listed = {}
        for bullet in bullets:
            names, header = re.match(r"- [\w ]+ \((.*?)\): `([^`]+)`", bullet).groups()
            for name in re.findall(r"`([^`]+)`", names):
                listed[name] = header.split(",")
        assert listed == {
            **dict.fromkeys(
                ("cpi", "ccpi", "fcpi", "gas", "news_index", "news_index.csv"),
                SERIES_HEADER,
            ),
            "news_probs": PROBS_HEADER,
            "articles_probs.csv": PROBS_HEADER,
            "news_text": TEXT_HEADER,
            "scored": SCORED_HEADER,
            "articles_scored.csv": SCORED_HEADER,
            "articles_rejected.csv": REJECTION_HEADER,
            "news_index_meta.csv": INDEX_META_HEADER,
            "nowcast.csv": NOWCAST_HEADER,
            "forecasts": FORECAST_HEADER,
            "forecasts.csv": FORECAST_HEADER,
            "regression.csv": ["term", "statistic"],  # then a column per model
            "evaluation.csv": EVALUATION_HEADER,
        }
        written = {name for _, outputs in COMMANDS.values() for name in outputs}
        for name in written - set(listed):
            assert name.endswith(".txt") and f"`{name}`" in section
        # Each input format's order of checks, as FORMATS declares it; a
        # check repeated for each value column is listed once.
        own = section[:section.index("\n## ", 1)]
        orders = re.findall(r"^- ([a-z ]+): ([a-z ,-]+)$", own, re.MULTILINE)
        kinds = {
            "series": "series", "forecasts": "forecasts",
            "article probabilities": "probs", "article text": "texts",
            "scored articles": "scores",
        }
        assert [label for label, _ in orders] == list(kinds)
        for label, names in orders:
            _, checks = FORMATS[kinds[label]]
            assert names.split(", ") == list(dict.fromkeys(c[0] for c in checks))
        assert sorted(kinds.values()) == sorted(FORMATS)

    def test_a_handler_must_return_each_of_its_files(self, tmp_path, monkeypatch):
        handler, outputs = COMMANDS["fit"]

        def one_short(cfg, args):
            text, files = handler(cfg, args)
            return text, files[:-1]

        monkeypatch.setitem(COMMANDS, "fit", (one_short, outputs))
        with pytest.raises(ValueError, match="shorter"):
            run("--config", "toy", "--out", tmp_path / "out", "fit", "fed")

    @pytest.mark.parametrize(
        "argv, inputs, code, message",
        [
            (["--set", "news_probs=", "--set", "news_text=", "score"], {}, 2,
             "news_probs or news_text"),
            (["--set", "scored={tmp}/scored.csv", "build-index"],
             {"scored.csv": "id,date,score\na1,2015-01-05,2.0\n"}, 3, "line 2"),
            (["fit", "fed+tweets"], {}, 2, "unknown model"),
            (["nowcast", "--month", "2020-13"], {}, 2, "--month"),
            (["--set", "eval_end=2030-12", "backtest"], {}, 3, "lacks months"),
            (["--set", "forecasts={tmp}/forecasts.csv", "evaluate"],
             {"forecasts.csv": FORECAST_TEXT + "2020-01,fed,nan,0,0,0\n"}, 3,
             "is not finite"),
        ],
        ids=list(COMMANDS),
    )
    def test_failed_rerun_removes_only_its_outputs(
        self, tmp_path, toy_chain, capsys, argv, inputs, code, message
    ):
        out = tmp_path / "out"
        shutil.copytree(toy_chain, out)
        for name, text in inputs.items():
            (tmp_path / name).write_text(text)
        command = next(a for a in argv if a in COMMANDS)
        outputs = COMMANDS[command][1]
        before = snapshot(out)
        assert set(outputs) <= set(before)
        capsys.readouterr()
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        assert run("--config", "toy", "--out", out, *argv) == code
        assert message in capsys.readouterr().err
        after = snapshot(out)
        assert after == {k: v for k, v in before.items() if k not in outputs}

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_success_writes_exactly_its_outputs(self, tmp_path, toy_chain, command):
        # Upstream files come from the chain through the config keys,
        # so the fresh --out holds only what this command wrote.
        chain = snapshot(toy_chain)
        out = tmp_path / "out"
        assert run(
            "--config", "toy", "--out", out,
            "--set", f"scored={toy_chain / 'articles_scored.csv'}",
            "--set", f"news_index={toy_chain / 'news_index.csv'}",
            "--set", f"forecasts={toy_chain / 'forecasts.csv'}",
            command,
        ) == 0
        assert sorted(snapshot(out)) == sorted(COMMANDS[command][1])
        assert snapshot(toy_chain) == chain

    def test_score_with_rejections_adds_the_rejection_file(self, tmp_path):
        lines = ["id,date,p_down,p_neutral,p_up"]
        lines += [f"a{i:02d},2015-01-{i + 1:02d},0.2,0.3,0.5" for i in range(20)]
        probs = tmp_path / "probs.csv"
        probs.write_text("\n".join(lines + ["bad,2015-01-05,0.9,0.9,0.9"]) + "\n")
        cfg = write_config(tmp_path, news_probs=probs)
        out = tmp_path / "out"
        assert run("--config", cfg, "--out", out, "score") == 0
        assert sorted(snapshot(out)) == sorted(
            (*COMMANDS["score"][1], "articles_rejected.csv")
        )

    def test_failed_build_index_leaves_no_stale_index(self, tmp_path, capsys):
        out = tmp_path / "out"
        for command in ("score", "build-index"):
            assert run("--config", "toy", "--out", out, command) == 0
        # The text route with a lexicon nothing matches scores 0 articles.
        assert run("--config", "toy", "--out", out, "--set", "news_probs=",
                   "--set", "lexicon=zzzz", "score") == 0
        assert run("--config", "toy", "--out", out, "build-index") == 3
        assert not (out / "news_index.csv").exists()
        assert not (out / "news_index_meta.csv").exists()
        capsys.readouterr()
        assert run("--config", "toy", "--out", out, "backtest") == 3
        assert "build-index command first" in capsys.readouterr().err

    def test_backtest_never_writes_the_configured_forecasts(
        self, tmp_path, toy_chain, capsys
    ):
        mine = tmp_path / "keep" / "mine.csv"
        mine.parent.mkdir()
        mine.write_bytes((toy_chain / "forecasts.csv").read_bytes())
        original = mine.read_bytes()
        out = tmp_path / "out"
        shutil.copytree(toy_chain, out)
        keyed = ("--config", "toy", "--out", out, "--set", f"forecasts={mine}")
        assert run(*keyed, "--set", "eval_end=2030-12", "backtest", "all") == 3
        assert mine.read_bytes() == original
        assert run(*keyed, "backtest", "all") == 0
        assert mine.read_bytes() == original
        rows = read_csv_after_provenance(out / "forecasts.csv")
        assert {r[1] for r in rows[1:]} == set(MODEL_SPECS)
        capsys.readouterr()

    def test_out_path_that_is_a_file_reports_the_write_error(
        self, tmp_path, capsys
    ):
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        assert run("--config", "toy", "--out", taken, "backtest", "fed") == 3
        err = capsys.readouterr().err
        assert f"cannot write {taken / 'forecasts.csv'}" in err
        assert "cannot remove" not in err
        assert taken.read_text() == "not a directory\n"


PUBLISHED = Path(__file__).parent / "data" / "published"
#: Settings that reach HC1 and the conditional GW test.
ROLLING = ("--set", "scheme=rolling", "--set", "robust=true",
           "--set", "gw_variant=conditional-lag1")
#: Outputs no BLAS kernel moves, compared byte for byte.
EXACT = {
    "articles_probs.csv", "articles_scored.csv", "news_index.csv",
    "news_index_meta.csv", "regression.txt", "evaluation.txt",
}
#: The relative bound on a published number: about 27 times the largest
#: difference measured between OpenBLAS kernels on these chains
#: (3.7e-14, in regression.csv). A kernel passes; a moved number fails.
RELATIVE = 1e-12


def same_cell(found: str, published: str) -> bool:
    """Equal text, or two numbers within RELATIVE of each other."""
    if found == published:
        return True
    try:
        return math.isclose(float(found), float(published), rel_tol=RELATIVE)
    except ValueError:
        return False


def assert_published(out, *published):
    """Each file under out holds the body (all but the provenance line)
    of the same file in the first published directory that has it."""
    for path in sorted(out.iterdir()):
        body = path.read_bytes().split(b"\n", 1)[1]
        expected = next(d / path.name for d in published if (d / path.name).exists())
        if path.name in EXACT:
            assert body == expected.read_bytes(), path.name
            continue
        rows = list(csv.reader(io.StringIO(body.decode())))
        wanted = list(csv.reader(io.StringIO(expected.read_text())))
        assert list(map(len, rows)) == list(map(len, wanted)), path.name
        moved = [
            (i, found, cell)
            for i, (row, want) in enumerate(zip(rows, wanted))
            for found, cell in zip(row, want) if not same_cell(found, cell)
        ]
        assert moved == [], path.name


def rolling_chain(out, index):
    """The argument lists of the ROLLING chain into out, reading the toy
    chain's news index."""
    return [
        ["--config", "toy", "--out", str(out), *ROLLING,
         "--set", f"news_index={index}", command]
        for command in ("fit", "nowcast", "backtest", "evaluate")
    ]


def fixed_openblas_kernel() -> str:
    """Why OPENBLAS_CORETYPE cannot choose the BLAS kernel here, or ""
    when it can."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        cpu = np._core._multiarray_umath.__cpu_features__
    except (AttributeError, KeyError, TypeError) as error:
        return f"numpy does not report its BLAS and CPU features: {error!r}"
    if "openblas" not in blas["name"]:
        return f"numpy's BLAS is {blas['name']}, not OpenBLAS"
    if "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        return "numpy's OpenBLAS is built for one kernel"
    if not cpu.get("AVX2"):
        return "the Sandybridge and Haswell kernels need an x86-64 CPU with AVX2"
    return ""


FIXED_KERNEL = fixed_openblas_kernel()


class TestPublishedNumbers:
    """The toy chain's outputs are the published ones under
    tests/data/published: toy/ holds the ten outputs of the toy config
    as shipped, rolling/ those that move under ROLLING. They hold in
    process and in fresh interpreters under other OpenBLAS kernels. A
    change that moves a published number re-records these files."""

    def test_toy_chain(self, toy_chain):
        assert sorted(p.name for p in toy_chain.iterdir()) == sorted(
            p.name for p in (PUBLISHED / "toy").iterdir()
        )
        assert_published(toy_chain, PUBLISHED / "toy")

    def test_rolling_chain(self, toy_chain, tmp_path, capsys):
        out = tmp_path / "out"
        for args in rolling_chain(out, toy_chain / "news_index.csv"):
            assert main(args) == 0
        capsys.readouterr()
        assert_published(out, PUBLISHED / "rolling", PUBLISHED / "toy")

    @pytest.mark.skipif(bool(FIXED_KERNEL), reason=FIXED_KERNEL)
    @pytest.mark.parametrize("kernel", ["Sandybridge", "Haswell"])
    def test_both_chains_in_a_fresh_interpreter_under_kernel(self, kernel, tmp_path):
        # Fresh, so the run loads scipy's extensions from their files.
        toy, rolling = tmp_path / "toy", tmp_path / "rolling"
        chain = [["--config", "toy", "--out", str(toy), c] for c in COMMANDS]
        chain += rolling_chain(rolling, toy / "news_index.csv")
        code = (
            "import json, sys\nfrom newscast.cli import main\n"
            "sys.exit(not all(main(args) == 0 for args in json.loads(sys.argv[1])))"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src"),
               "OPENBLAS_CORETYPE": kernel, "OPENBLAS_VERBOSE": "2"}
        result = subprocess.run(
            [sys.executable, "-c", code, json.dumps(chain)], env=env,
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        # numpy's OpenBLAS and scipy's each report the kernel they run.
        cores = re.findall(r"^Core: (\S+)$", result.stderr, re.MULTILINE)
        assert set(cores) == {kernel}
        assert sorted(p.name for p in toy.iterdir()) == sorted(
            p.name for p in (PUBLISHED / "toy").iterdir()
        )
        assert_published(toy, PUBLISHED / "toy")
        assert_published(rolling, PUBLISHED / "rolling", PUBLISHED / "toy")

    def test_a_number_moved_by_1e_9_fails(self, toy_chain, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        text = (toy_chain / "forecasts.csv").read_text()
        row = text.splitlines()[2].split(",")
        moved = ",".join([*row[:2], repr(float(row[2]) * (1 + 1e-9)), *row[3:]])
        (out / "forecasts.csv").write_text(text.replace(",".join(row), moved, 1))
        with pytest.raises(AssertionError, match="forecasts.csv"):
            assert_published(out, PUBLISHED / "toy")
