"""Config parsing, digests, validation, and path resolution."""

import hashlib
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from newscast import ConfigError, MonthKey, RunConfig, load_config, toy_config_path
from newscast.config import KEY_DEFAULTS
from newscast.sentiment import SCORES


def write_minimal_config(tmp_path, extra="", skip=()):
    """A config whose four required series files exist next to it."""
    for stem in ("cpi", "ccpi", "fcpi", "gas"):
        (tmp_path / f"{stem}.csv").write_text("date,value\n2020-01,100.0\n")
    lines = [
        "cpi = cpi.csv",
        "ccpi = ccpi.csv",
        "fcpi = fcpi.csv",
        "gas = gas.csv",
        "train_start = 2015-01",
        "train_end = 2019-12",
        "eval_start = 2020-01",
        "eval_end = 2021-12",
    ]
    lines = [l for l in lines if l.split("=")[0].strip() not in skip]
    path = tmp_path / "run.cfg"
    path.write_text("\n".join(lines) + "\n" + extra)
    return path


class TestToyConfig:
    def test_bundled_config_loads(self):
        cfg = load_config(toy_config_path())
        assert cfg.cpi.exists()
        assert cfg.news_probs is not None and cfg.news_probs.exists()
        assert cfg.train_start < cfg.train_end < cfg.eval_start <= cfg.eval_end
        assert set(cfg.specs) <= {
            "fed", "news", "fed+news", "fed-gas+news", "ccpi+news"
        }
        assert len(cfg.digest) == 12
        int(cfg.digest, 16)  # hex digest

    def test_digest_is_stable_across_loads(self):
        a = load_config(toy_config_path())
        b = load_config(toy_config_path())
        assert a.digest == b.digest

    def test_provenance_header_carries_digest(self):
        cfg = load_config(toy_config_path())
        assert cfg.provenance() == f"# newscast 0.1.0 config:{cfg.digest}"


class TestParsing:
    def test_minimal_config(self, tmp_path):
        cfg = load_config(write_minimal_config(tmp_path))
        assert cfg.train_start == MonthKey(2015, 1)
        assert cfg.eval_end == MonthKey(2021, 12)
        # Defaults fill in everything else.
        assert cfg.window == 12
        assert cfg.day_cutoff == 15
        assert cfg.scheme == "fixed"
        assert cfg.specs == ("fed", "fed+news")
        assert cfg.score == "polarity"
        assert cfg.gw_variant == "unconditional"
        assert cfg.rmse_unit == "fraction"
        assert cfg.robust is False
        assert cfg.news_probs is None

    def test_comments_and_blank_lines(self, tmp_path):
        path = write_minimal_config(
            tmp_path, extra="# trailing comment\n\nwindow = 6\n"
        )
        assert load_config(path).window == 6

    def test_unknown_key_reports_line(self, tmp_path):
        path = write_minimal_config(tmp_path, extra="speling = 1\n")
        with pytest.raises(ConfigError, match="line 9.*speling"):
            load_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = write_minimal_config(tmp_path, extra="window = 6\nwindow = 3\n")
        with pytest.raises(ConfigError, match="duplicate"):
            load_config(path)

    def test_missing_required_keys_listed(self, tmp_path):
        path = write_minimal_config(tmp_path, skip=("cpi", "train_start"))
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "cpi" in str(err.value)
        assert "train_start" in str(err.value)

    def test_not_an_assignment(self, tmp_path):
        path = write_minimal_config(tmp_path, extra="just words\n")
        with pytest.raises(ConfigError, match="key = value"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.cfg")


def hashlib_digest(path, overrides):
    """The digest as specified, computed by hashlib: the first 12 hex
    digits of the SHA-256 of the effective settings' sorted key=value
    lines, each value stripped."""
    values = dict(KEY_DEFAULTS)
    for line in [*Path(path).read_text(encoding="utf-8-sig").splitlines(), *overrides]:
        if line.strip() and not line.strip().startswith("#"):
            key, _, value = line.strip().partition("=")
            values[key.strip()] = value.strip()
    canonical = "\n".join(f"{k}={values[k]}" for k in sorted(values))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


#: One line of text: no surrogate, control or line-separator character.
_LINE_TEXT = st.text(
    st.characters(
        blacklist_categories=("Cs", "Cc", "Zl", "Zp"), blacklist_characters=";"
    ),
    min_size=1, max_size=8,
)
#: Valid raw values of some keys, padded as a user may write them.
OVERRIDES = st.fixed_dictionaries({}, optional={
    "window": st.integers(1, 10**9).map(str),
    "day_cutoff": st.one_of(st.integers(1, 31).map(str), st.just(" none ")),
    "baseline_gain": st.floats(1e-300, 1e300).map(repr),
    "score": st.sampled_from(sorted(SCORES)),
    "robust": st.sampled_from(["true", "no", "1"]),
    "lexicon": st.lists(_LINE_TEXT.filter(str.strip), min_size=1, max_size=3).map(
        "; ".join
    ),
    "out": _LINE_TEXT.filter(str.strip),
}).map(lambda values: [f"{key} ={value}" for key, value in values.items()])


class TestDigest:
    @settings(max_examples=60, deadline=None)
    @given(overrides=OVERRIDES)
    @example(overrides=[])
    def test_digest_is_hashlibs_sha256_of_the_settings(self, overrides):
        # The digest hashes with CPython's built-in SHA-256; hashlib is
        # the oracle on whatever Python runs the tests.
        toy = toy_config_path()
        assert load_config(toy, overrides).digest == hashlib_digest(toy, overrides)

    def test_override_changes_digest(self, tmp_path):
        path = write_minimal_config(tmp_path)
        base = load_config(path)
        changed = load_config(path, overrides=("window = 6",))
        assert changed.digest != base.digest
        assert changed.window == 6

    def test_explicit_default_matches_implicit(self, tmp_path):
        # Writing a key at its default value yields the same digest as
        # omitting it: the digest hashes effective settings.
        path = write_minimal_config(tmp_path)
        base = load_config(path)
        same = load_config(path, overrides=("window = 12",))
        assert same.digest == base.digest

    def test_out_dir_affects_digest_only_via_value(self, tmp_path):
        path = write_minimal_config(tmp_path)
        a = load_config(path, out_override="out-a")
        b = load_config(path, out_override="out-b")
        assert a.digest != b.digest
        assert a.out.name == "out-a"

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # Before, the mark made the first line "\ufeffcpi = cpi.csv".
        path = write_minimal_config(tmp_path, extra="# a comment\n")
        text = path.read_text(encoding="utf-8")
        for first in (text, "# a comment\n" + text):
            marked = tmp_path / "marked.cfg"
            marked.write_text(first, encoding="utf-8-sig")
            assert load_config(marked).digest == load_config(path).digest

    def test_toy_digest_is_pinned(self):
        assert load_config(toy_config_path()).digest == "30cc1019ae69"

    def test_minimal_config_digest_is_pinned(self, tmp_path):
        assert load_config(write_minimal_config(tmp_path)).digest == "12d69c5357d4"

    def test_key_defaults_are_the_run_config_fields(self):
        assert set(KEY_DEFAULTS) == {f.name for f in fields(RunConfig)} - {"digest"}

    def test_readme_configuration_names_every_key(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text("utf-8")
        section = readme[readme.index("\n### Configuration\n") + 1:]
        section = section[:section.index("\n#")]
        assert [key for key in KEY_DEFAULTS if f"`{key}`" not in section] == []


class TestOverrides:
    def test_set_overrides_file_value(self, tmp_path):
        path = write_minimal_config(tmp_path, extra="window = 6\n")
        cfg = load_config(path, overrides=("window = 3",))
        assert cfg.window == 3

    def test_malformed_override(self, tmp_path):
        path = write_minimal_config(tmp_path)
        with pytest.raises(ConfigError):
            load_config(path, overrides=("window",))
        with pytest.raises(ConfigError, match="key=value"):
            load_config(path, overrides=("",))

    def test_one_override_sets_one_key(self, tmp_path):
        path = write_minimal_config(tmp_path)
        for item in ("window=2\nscore=argmax", "window=2\u2028score=argmax"):
            with pytest.raises(ConfigError, match="--set needs one key=value"):
                load_config(path, overrides=(item,))

    def test_unknown_override_key(self, tmp_path):
        path = write_minimal_config(tmp_path)
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(path, overrides=("windoze = 3",))


class TestValidation:
    def test_window_ordering_enforced(self, tmp_path):
        path = write_minimal_config(
            tmp_path, skip=("eval_start",), extra="eval_start = 2019-06\n"
        )
        with pytest.raises(ConfigError, match="train_start <= train_end"):
            load_config(path)

    def test_eval_start_equal_to_train_end_rejected(self, tmp_path):
        path = write_minimal_config(tmp_path)
        with pytest.raises(ConfigError, match="train_start"):
            load_config(path, overrides=("eval_start = 2019-12",))

    def test_single_month_eval_window_allowed(self, tmp_path):
        path = write_minimal_config(tmp_path)
        cfg = load_config(path, overrides=("eval_end = 2020-01",))
        assert cfg.eval_start == cfg.eval_end

    def test_bad_month_names_key(self, tmp_path):
        path = write_minimal_config(tmp_path)
        with pytest.raises(ConfigError, match="train_start"):
            load_config(path, overrides=("train_start = 2015",))

    def test_unknown_spec_rejected(self, tmp_path):
        path = write_minimal_config(tmp_path)
        with pytest.raises(ConfigError, match="unknown model"):
            load_config(path, overrides=("specs = fed, fed+tweets",))

    def test_repeated_spec_rejected_by_name(self, tmp_path):
        path = write_minimal_config(tmp_path)
        with pytest.raises(ConfigError, match="'specs' names model 'fed' twice"):
            load_config(path, overrides=("specs = fed, fed+news, fed",))

    def test_empty_specs_rejected(self, tmp_path):
        path = write_minimal_config(tmp_path)
        with pytest.raises(ConfigError, match="at least one model"):
            load_config(path, overrides=("specs = ,",))

    def test_enum_keys_validated(self, tmp_path):
        path = write_minimal_config(tmp_path)
        for override in (
            "score = softmax",
            "scheme = expanding",
            "gw_variant = two-sided",
            "rmse_unit = bps",
            "news_pi_mode = log-diff",
            "label_encoding = onehot",
        ):
            with pytest.raises(ConfigError):
                load_config(path, overrides=(override,))

    def test_numeric_keys_validated(self, tmp_path):
        path = write_minimal_config(tmp_path)
        for override in (
            "window = 0",
            "window = twelve",
            "baseline_cap = 0",
            "baseline_gain = 0",
            "baseline_gain = -1",
            "truncation_lag = -1",
            "day_cutoff = 32",
            "day_cutoff = 0",
            # int() and float() accept non-ASCII digits; the config does not.
            "window = \u0661",
            "day_cutoff = \u0661\u0665",
            "baseline_cap = \u0668",
            "baseline_gain = \u0661.\u0665",
            "truncation_lag = \uff10",
            "seed = \u0661",
            # Nor the '_' digit separators they accept.
            "window = 1_2",
            "day_cutoff = 1_5",
            "baseline_cap = 1_0",
            "baseline_gain = 1_0",
            "baseline_gain = 0.5_0",
            "truncation_lag = 0_1",
            "seed = 4_2",
        ):
            key = override.split("=")[0].strip()
            with pytest.raises(ConfigError, match=key):
                load_config(path, overrides=(override,))
        with pytest.raises(ConfigError) as err:
            load_config(path, overrides=("window = 1_2",))
        assert str(err.value) == "config key 'window': '1_2' is not an integer"

    def test_empty_required_key_names_the_key(self, tmp_path):
        path = write_minimal_config(tmp_path)
        with pytest.raises(ConfigError) as err:
            load_config(path, overrides=("cpi =",))
        assert str(err.value) == "config key 'cpi' is required"

    @pytest.mark.parametrize(
        "key", ["lexicon", "baseline_up_lexicon", "baseline_down_lexicon"]
    )
    def test_empty_phrase_list_names_the_key(self, tmp_path, key):
        path = write_minimal_config(tmp_path)
        with pytest.raises(ConfigError) as err:
            load_config(path, overrides=(f"{key} = ; ;",))
        assert str(err.value) == f"config key {key!r} must list at least one phrase"

    def test_truncation_lag_needs_the_unconditional_variant(self, tmp_path):
        # The conditional variant has no long-run variance to truncate.
        path = write_minimal_config(tmp_path)
        with pytest.raises(ConfigError) as err:
            load_config(path, overrides=(
                "gw_variant = conditional-lag1", "truncation_lag = 5",
            ))
        assert str(err.value) == (
            "truncation_lag 5 applies only to gw_variant unconditional, "
            "got gw_variant conditional-lag1"
        )
        load_config(path, overrides=("gw_variant = conditional-lag1",))
        assert load_config(path, overrides=("truncation_lag = 5",)).truncation_lag == 5

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_baseline_gain_names_the_key(self, tmp_path, value):
        path = write_minimal_config(tmp_path)
        with pytest.raises(ConfigError, match="'baseline_gain' must be positive"):
            load_config(path, overrides=(f"baseline_gain = {value}",))

    def test_day_cutoff_none(self, tmp_path):
        path = write_minimal_config(tmp_path)
        assert load_config(path, overrides=("day_cutoff = none",)).day_cutoff is None
        assert load_config(path, overrides=("day_cutoff = 10",)).day_cutoff == 10

    def test_robust_boolean_forms(self, tmp_path):
        path = write_minimal_config(tmp_path)
        assert load_config(path, overrides=("robust = true",)).robust is True
        assert load_config(path, overrides=("robust = 0",)).robust is False
        with pytest.raises(ConfigError, match="true or false"):
            load_config(path, overrides=("robust = maybe",))


class TestPathResolution:
    def test_inputs_resolve_relative_to_config_dir(self, tmp_path):
        sub = tmp_path / "nested"
        sub.mkdir()
        path = write_minimal_config(sub)
        cfg = load_config(path)
        assert cfg.cpi == sub / "cpi.csv"

    def test_missing_input_file_rejected(self, tmp_path):
        path = write_minimal_config(tmp_path)
        (tmp_path / "gas.csv").unlink()
        with pytest.raises(ConfigError, match="gas.*does not exist"):
            load_config(path)

    def test_optional_path_must_exist_when_set(self, tmp_path):
        path = write_minimal_config(tmp_path, extra="scored = scored.csv\n")
        with pytest.raises(ConfigError, match="scored"):
            load_config(path)

    def test_lexicon_phrases_split_on_semicolons(self, tmp_path):
        path = write_minimal_config(
            tmp_path, extra="lexicon = CPI; Food prices ;Deflation\n"
        )
        cfg = load_config(path)
        assert cfg.lexicon == ("CPI", "Food prices", "Deflation")
