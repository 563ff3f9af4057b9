"""Run configuration: one flat key=value file plus command-line overrides.

Every pipeline run is a pure function of this file, so the effective
settings (defaults included) are hashed into a short digest that output
files carry in their provenance header: the first 12 hex digits of the
SHA-256 of their sorted key=value lines. The hash is CPython's built-in
SHA-256 (the _sha2 module from Python 3.12, _sha256 before), the same
digest as hashlib's without loading OpenSSL, which would add ≈4 ms and
≈3.6 MB to every command; hashlib's is used only where neither module
exists. Input paths resolve relative to
the config file; the output directory resolves relative to the working
directory, because the config may live somewhere read-only.
"""

from __future__ import annotations

import math
import os
from contextlib import suppress
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import ConfigError, NewscastError
from .evaluation import GW_VARIANTS, RMSE_UNITS
from .index import PI_MODES, checked_day_cutoff
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

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

_REQUIRED = object()


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


def _input(required: bool):
    def parse(raw: str, key: str, config_dir: Path) -> Path | None:
        if not raw:
            if required:
                raise ConfigError(f"config key {key!r} is required")
            return None
        resolved = config_dir / raw
        # False too where the name cannot be looked up (too long, say).
        if not os.path.exists(resolved):
            raise ConfigError(f"config key {key!r}: file {resolved} does not exist")
        return resolved

    return parse


def _out(raw: str, key: str, _) -> Path:
    if "\0" in raw:
        raise ConfigError(f"config key {key!r}: {raw!r} holds a NUL byte")
    return Path(raw)


def _month(raw: str, key: str, _) -> MonthKey:
    try:
        return MonthKey.parse(raw)
    except NewscastError as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from None


def _number(convert, what: str, raw: str, key: str):
    """convert(raw), refusing the non-ASCII digits and the '_' digit
    separators that int and float accept."""
    if raw.isascii() and "_" not in raw:
        with suppress(ValueError):
            return convert(raw)
    raise ConfigError(f"config key {key!r}: {raw!r} is not {what}")


def _int(minimum: int | None = None):
    def parse(raw: str, key: str, _) -> int:
        value = _number(int, "an integer", raw, key)
        if minimum is not None and value < minimum:
            raise ConfigError(f"config key {key!r} must be >= {minimum}, got {value}")
        return value

    return parse


def _day_cutoff(raw: str, key: str, _) -> int | None:
    if raw.lower() in ("", "none"):
        return None
    return checked_day_cutoff(_int()(raw, key, None))


def _gain(raw: str, key: str, _) -> float:
    gain = _number(float, "a number", raw, key)
    if not 0 < gain < math.inf:
        raise ConfigError(f"config key {key!r} must be positive and finite, got {gain}")
    return gain


def _enum(allowed):
    def parse(raw: str, key: str, _) -> str:
        if raw not in allowed:
            raise ConfigError(
                f"config key {key!r} must be one of {tuple(allowed)}, got {raw!r}"
            )
        return raw

    return parse


def _bool(raw: str, key: str, _) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ConfigError(f"config key {key!r} must be true or false, got {raw!r}")


def _phrases(raw: str, key: str, _) -> tuple[str, ...]:
    parts = tuple(p.strip() for p in raw.split(";") if p.strip())
    if not parts:
        raise ConfigError(f"config key {key!r} must list at least one phrase")
    return parts


def checked_specs(names: list[str], where: str) -> tuple[str, ...]:
    """The model names, each known and named once, else a ConfigError
    that says where they were given."""
    if not names:
        raise ConfigError(f"{where} must list at least one model")
    for i, name in enumerate(names):
        try:
            resolve_spec(name)
        except ConfigError as error:
            raise ConfigError(f"{where}: {error}") from None
        if name in names[:i]:
            raise ConfigError(f"{where} names model {name!r} twice")
    return tuple(names)


def _specs(raw: str, key: str, _) -> tuple[str, ...]:
    specs = [s.strip() for s in raw.split(",") if s.strip()]
    return checked_specs(specs, f"config key {key!r}")


def _key(default: object, parse) -> object:
    """The field of one config key: its raw default (_REQUIRED when the
    file must set it) and its parser. Parsers are called as
    parse(raw, key, config_dir) and raise ConfigError naming the key."""
    return field(metadata={"default": default, "parse": parse})


@dataclass(frozen=True)
class RunConfig:
    """The settings of one run. Every field but digest is the config key
    of the same name, parsed from its raw value."""

    digest: str

    # Input paths, relative to the config file's directory.
    cpi: Path = _key(_REQUIRED, _input(required=True))
    ccpi: Path = _key(_REQUIRED, _input(required=True))
    fcpi: Path = _key(_REQUIRED, _input(required=True))
    gas: Path = _key(_REQUIRED, _input(required=True))
    news_probs: Path | None = _key("", _input(required=False))
    news_text: Path | None = _key("", _input(required=False))
    scored: Path | None = _key("", _input(required=False))
    news_index: Path | None = _key("", _input(required=False))
    forecasts: Path | None = _key("", _input(required=False))

    lexicon: tuple[str, ...] = _key("; ".join(DEFAULT_LEXICON), _phrases)
    score: str = _key("polarity", _enum(SCORES))
    # Validated, though no command reads articles with gold labels.
    label_encoding: str = _key("signed", _enum(("signed", "indexed")))
    baseline_gain: float = _key(repr(DEFAULT_BASELINE_GAIN), _gain)
    baseline_cap: int = _key(str(DEFAULT_BASELINE_CAP), _int(minimum=1))
    baseline_up_lexicon: tuple[str, ...] = _key("; ".join(DEFAULT_UP_LEXICON), _phrases)
    baseline_down_lexicon: tuple[str, ...] = _key(
        "; ".join(DEFAULT_DOWN_LEXICON), _phrases
    )

    day_cutoff: int | None = _key("15", _day_cutoff)
    window: int = _key("12", _int(minimum=1))
    news_pi_mode: str = _key("pct-change", _enum(PI_MODES))

    train_start: MonthKey = _key(_REQUIRED, _month)
    train_end: MonthKey = _key(_REQUIRED, _month)
    eval_start: MonthKey = _key(_REQUIRED, _month)
    eval_end: MonthKey = _key(_REQUIRED, _month)
    scheme: str = _key("fixed", _enum(BACKTEST_SCHEMES))
    specs: tuple[str, ...] = _key("fed, fed+news", _specs)
    robust: bool = _key("false", _bool)

    gw_variant: str = _key("unconditional", _enum(GW_VARIANTS))
    truncation_lag: int = _key("0", _int(minimum=0))
    rmse_unit: str = _key("fraction", _enum(RMSE_UNITS))

    # The output directory, relative to the working directory.
    out: Path = _key("out", _out)
    seed: int = _key("0", _int())

    def provenance(self) -> str:
        return provenance_line(self.digest)

    def out_path(self, filename: str) -> Path:
        return self.out / filename


_KEYS = tuple(f for f in fields(RunConfig) if f.metadata)

#: Every recognized key with its default raw value.
KEY_DEFAULTS: dict[str, object] = {f.name: f.metadata["default"] for f in _KEYS}


def load_config(
    path: str | Path,
    overrides: tuple[str, ...] | list[str] = (),
    out_override: str | None = None,
) -> RunConfig:
    """Parse, override, validate, and freeze a run configuration.

    overrides are `key=value` strings, one key each, applied on top of
    the file; out_override replaces the output directory. The file and
    both must be UTF-8 text; a leading byte-order mark is skipped.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    values = _parse_pairs(text, str(path))
    for item in overrides:
        pair = _parse_pairs(item, "--set")
        if len(pair) != 1:
            raise ConfigError(f"--set needs one key=value, got {item!r}")
        values.update(pair)
    if out_override is not None:
        values["out"] = out_override

    missing = [
        key for key, default in KEY_DEFAULTS.items()
        if default is _REQUIRED and key not in values
    ]
    if missing:
        raise ConfigError(f"config {path} is missing required keys: {missing}")
    effective = {**KEY_DEFAULTS, **values}

    canonical = "\n".join(f"{k}={effective[k]}" for k in sorted(effective))
    try:
        encoded = canonical.encode("utf-8")
    except UnicodeEncodeError:  # command-line bytes that are not UTF-8
        key = next(k for k, v in sorted(values.items())
                   if any("\ud800" <= c <= "\udfff" for c in v))
        raise ConfigError(f"config key {key!r}: {values[key]!r} is not UTF-8") from None
    cfg = RunConfig(
        digest=sha256(encoded).hexdigest()[:12],
        **{
            f.name: f.metadata["parse"](effective[f.name], f.name, path.parent)
            for f in _KEYS
        },
    )
    if not (cfg.train_start <= cfg.train_end < cfg.eval_start <= cfg.eval_end):
        raise ConfigError(
            f"windows must satisfy train_start <= train_end < eval_start "
            f"<= eval_end; got {cfg.train_start}..{cfg.train_end} and "
            f"{cfg.eval_start}..{cfg.eval_end}"
        )
    if cfg.truncation_lag and cfg.gw_variant != "unconditional":
        raise ConfigError(
            f"truncation_lag {cfg.truncation_lag} applies only to gw_variant "
            f"unconditional, got gw_variant {cfg.gw_variant}"
        )
    return cfg


def toy_config_path() -> Path:
    """Path of the bundled demo configuration."""
    return Path(__file__).parent / "data" / "toy" / "toy.cfg"
