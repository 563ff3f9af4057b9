"""Run configuration: one flat key=value file plus command-line overrides.

Every pipeline run is a pure function of this file, so the effective
settings (defaults included) are hashed into a short digest that output
files carry in their provenance header. Input paths resolve relative to
the config file; the output directory resolves relative to the working
directory, because the config may live somewhere read-only.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, NewscastError
from .evaluation import GW_VARIANTS, RMSE_UNITS
from .index import PI_MODES
from .io import provenance_line
from .nowcast import BACKTEST_SCHEMES, resolve_spec
from .sentiment import (
    DEFAULT_BASELINE_CAP,
    DEFAULT_BASELINE_GAIN,
    DEFAULT_DOWN_LEXICON,
    DEFAULT_LEXICON,
    DEFAULT_UP_LEXICON,
    SCORES,
)
from .timeseries import MonthKey

_REQUIRED = object()

#: Every recognized key with its default raw value (None = optional path).
KEY_DEFAULTS: dict[str, object] = {
    "cpi": _REQUIRED,
    "ccpi": _REQUIRED,
    "fcpi": _REQUIRED,
    "gas": _REQUIRED,
    "news_probs": "",
    "news_text": "",
    "scored": "",
    "news_index": "",
    "forecasts": "",
    "lexicon": "; ".join(DEFAULT_LEXICON),
    "score": "polarity",
    "label_encoding": "signed",
    "baseline_gain": repr(DEFAULT_BASELINE_GAIN),
    "baseline_cap": str(DEFAULT_BASELINE_CAP),
    "baseline_up_lexicon": "; ".join(DEFAULT_UP_LEXICON),
    "baseline_down_lexicon": "; ".join(DEFAULT_DOWN_LEXICON),
    "day_cutoff": "15",
    "window": "12",
    "news_pi_mode": "pct-change",
    "train_start": _REQUIRED,
    "train_end": _REQUIRED,
    "eval_start": _REQUIRED,
    "eval_end": _REQUIRED,
    "scheme": "fixed",
    "specs": "fed, fed+news",
    "robust": "false",
    "gw_variant": "unconditional",
    "truncation_lag": "0",
    "rmse_unit": "fraction",
    "out": "out",
    "seed": "0",
}

# Validated, though no command reads articles with gold labels.
LABEL_ENCODINGS = ("signed", "indexed")


def _parse_pairs(text: str, source: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for line_num, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(
                f"{source} line {line_num}: expected key = value, got {stripped!r}"
            )
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in KEY_DEFAULTS:
            raise ConfigError(
                f"{source} line {line_num}: unknown key {key!r}"
            )
        if key in values:
            raise ConfigError(f"{source} line {line_num}: duplicate key {key!r}")
        values[key] = value.strip()
    return values


def _month(raw: str, key: str) -> MonthKey:
    try:
        return MonthKey.parse(raw)
    except NewscastError as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from None


def _int(raw: str, key: str, minimum: int | None = None) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"config key {key!r}: {raw!r} is not an integer") from None
    if minimum is not None and value < minimum:
        raise ConfigError(f"config key {key!r} must be >= {minimum}, got {value}")
    return value


def _float(raw: str, key: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"config key {key!r}: {raw!r} is not a number") from None


def _enum(raw: str, key: str, allowed) -> str:
    if raw not in allowed:
        raise ConfigError(
            f"config key {key!r} must be one of {tuple(allowed)}, got {raw!r}"
        )
    return raw


def _bool(raw: str, key: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ConfigError(f"config key {key!r} must be true or false, got {raw!r}")


def _phrases(raw: str, key: str) -> tuple[str, ...]:
    parts = tuple(p.strip() for p in raw.split(";") if p.strip())
    if not parts:
        raise ConfigError(f"config key {key!r} must list at least one phrase")
    return parts


@dataclass(frozen=True)
class RunConfig:
    config_dir: Path
    digest: str

    cpi_path: Path
    ccpi_path: Path
    fcpi_path: Path
    gas_path: Path
    news_probs_path: Path | None
    news_text_path: Path | None
    scored_path: Path | None
    news_index_path: Path | None
    forecasts_path: Path | None

    lexicon: tuple[str, ...]
    score: str
    label_encoding: str
    baseline_gain: float
    baseline_cap: int
    baseline_up_lexicon: tuple[str, ...]
    baseline_down_lexicon: tuple[str, ...]

    day_cutoff: int | None
    window: int
    news_pi_mode: str

    train_start: MonthKey
    train_end: MonthKey
    eval_start: MonthKey
    eval_end: MonthKey
    scheme: str
    specs: tuple[str, ...]
    robust: bool

    gw_variant: str
    truncation_lag: int
    rmse_unit: str

    out_dir: Path
    seed: int

    def provenance(self) -> str:
        return provenance_line(self.digest)

    def out_path(self, filename: str) -> Path:
        return self.out_dir / filename

    # Paths that default to the output of the preceding pipeline stage.
    def effective_scored_path(self) -> Path:
        return self.scored_path or self.out_path("articles_scored.csv")

    def effective_news_index_path(self) -> Path:
        return self.news_index_path or self.out_path("news_index.csv")

    def effective_forecasts_path(self) -> Path:
        return self.forecasts_path or self.out_path("forecasts.csv")


def load_config(
    path: str | Path,
    overrides: tuple[str, ...] | list[str] = (),
    out_override: str | None = None,
) -> RunConfig:
    """Parse, override, validate, and freeze a run configuration.

    overrides are `key=value` strings applied on top of the file;
    out_override replaces the output directory.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    values = _parse_pairs(text, str(path))
    for item in overrides:
        pair = _parse_pairs(item, "--set")
        if not pair:
            raise ConfigError(f"--set needs key=value, got {item!r}")
        values.update(pair)
    if out_override is not None:
        values["out"] = out_override

    missing = [
        key for key, default in KEY_DEFAULTS.items()
        if default is _REQUIRED and key not in values
    ]
    if missing:
        raise ConfigError(f"config {path} is missing required keys: {missing}")
    effective = {
        key: values.get(key, default if default is not _REQUIRED else "")
        for key, default in KEY_DEFAULTS.items()
    }

    canonical = "\n".join(f"{k}={effective[k]}" for k in sorted(effective))
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]

    config_dir = path.parent

    def input_path(key: str, required: bool) -> Path | None:
        raw = effective[key]
        if not raw:
            if required:
                raise ConfigError(f"config key {key!r} is required")
            return None
        resolved = config_dir / raw
        if not resolved.exists():
            raise ConfigError(
                f"config key {key!r}: file {resolved} does not exist"
            )
        return resolved

    train_start = _month(effective["train_start"], "train_start")
    train_end = _month(effective["train_end"], "train_end")
    eval_start = _month(effective["eval_start"], "eval_start")
    eval_end = _month(effective["eval_end"], "eval_end")
    if not (train_start <= train_end < eval_start <= eval_end):
        raise ConfigError(
            f"windows must satisfy train_start <= train_end < eval_start "
            f"<= eval_end; got {train_start}..{train_end} and "
            f"{eval_start}..{eval_end}"
        )

    raw_cutoff = effective["day_cutoff"].lower()
    if raw_cutoff in ("", "none"):
        day_cutoff = None
    else:
        day_cutoff = _int(effective["day_cutoff"], "day_cutoff", minimum=1)
        if day_cutoff > 31:
            raise ConfigError(f"day_cutoff must be in 1..31, got {day_cutoff}")

    specs = tuple(
        s.strip() for s in effective["specs"].split(",") if s.strip()
    )
    if not specs:
        raise ConfigError("config key 'specs' must list at least one model")
    for i, name in enumerate(specs):
        resolve_spec(name)  # raises ConfigError on unknown names
        if name in specs[:i]:
            raise ConfigError(f"config key 'specs' names model {name!r} twice")

    baseline_gain = _float(effective["baseline_gain"], "baseline_gain")
    if not 0 < baseline_gain < math.inf:
        raise ConfigError(
            f"config key 'baseline_gain' must be positive and finite, "
            f"got {baseline_gain}"
        )

    return RunConfig(
        config_dir=config_dir,
        digest=digest,
        cpi_path=input_path("cpi", required=True),
        ccpi_path=input_path("ccpi", required=True),
        fcpi_path=input_path("fcpi", required=True),
        gas_path=input_path("gas", required=True),
        news_probs_path=input_path("news_probs", required=False),
        news_text_path=input_path("news_text", required=False),
        scored_path=input_path("scored", required=False),
        news_index_path=input_path("news_index", required=False),
        forecasts_path=input_path("forecasts", required=False),
        lexicon=_phrases(effective["lexicon"], "lexicon"),
        score=_enum(effective["score"], "score", SCORES),
        label_encoding=_enum(
            effective["label_encoding"], "label_encoding", LABEL_ENCODINGS
        ),
        baseline_gain=baseline_gain,
        baseline_cap=_int(effective["baseline_cap"], "baseline_cap", minimum=1),
        baseline_up_lexicon=_phrases(
            effective["baseline_up_lexicon"], "baseline_up_lexicon"
        ),
        baseline_down_lexicon=_phrases(
            effective["baseline_down_lexicon"], "baseline_down_lexicon"
        ),
        day_cutoff=day_cutoff,
        window=_int(effective["window"], "window", minimum=1),
        news_pi_mode=_enum(effective["news_pi_mode"], "news_pi_mode", PI_MODES),
        train_start=train_start,
        train_end=train_end,
        eval_start=eval_start,
        eval_end=eval_end,
        scheme=_enum(effective["scheme"], "scheme", BACKTEST_SCHEMES),
        specs=specs,
        robust=_bool(effective["robust"], "robust"),
        gw_variant=_enum(effective["gw_variant"], "gw_variant", GW_VARIANTS),
        truncation_lag=_int(effective["truncation_lag"], "truncation_lag", 0),
        rmse_unit=_enum(effective["rmse_unit"], "rmse_unit", RMSE_UNITS),
        out_dir=Path(effective["out"]),
        seed=_int(effective["seed"], "seed"),
    )


def toy_config_path() -> Path:
    """Path of the bundled demo configuration."""
    return Path(__file__).parent / "data" / "toy" / "toy.cfg"
