"""Run configuration: line-oriented ``key = value`` files with sections.

Every setting is declared once, as a :class:`RunConfig` field that carries
its section, default, constraint text and check; its type annotation picks
the parser.  Unknown sections or keys, and a named file with no section,
are rejected so mistakes fail loudly; missing keys fall back to the
defaults.  The fully resolved configuration is echoed next to every
artifact a command produces.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import Field, dataclass, field, fields
from typing import Any, Callable

from .errors import ConfigurationError
from .harness import EVAL_MODES, GRANULARITIES, TrainSpec
from .market import MarketSpec, atomic_write
from .models import MODEL_KINDS, ModelConfig
from .seeding import derive_seed


def _parse_finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(raw)
    return value


# a field's type annotation picks the parser of its stripped raw value
PARSERS: dict[str, Callable[[str], Any]] = {
    "int": int,
    "float": _parse_finite,
    "bool": lambda raw: configparser.ConfigParser.BOOLEAN_STATES[raw.lower()],
    "str": str,
}

_AT_LEAST_1 = ("an integer >= 1", lambda v: v >= 1)
_AT_LEAST_0 = ("an integer >= 0", lambda v: v >= 0)
_RATE = ("a float in [0, 1]", lambda v: 0.0 <= v <= 1.0)
_OPEN_RATE = ("a float in (0, 1)", lambda v: 0.0 < v < 1.0)


def _one_of(choices: tuple[str, ...]) -> tuple[str, Callable[[Any], bool]]:
    return f"one of {', '.join(choices)}", lambda v: v in choices


def _setting(section: str, default: Any, rule: tuple[str, Callable[[Any], bool] | None]):
    constraint, check = rule
    return field(default=default,
                  metadata={"section": section, "constraint": constraint, "check": check})


@dataclass(frozen=True)
class RunConfig:
    """Every run setting, in sections of the config file and in file order."""

    days: int = _setting("market", MarketSpec.days, _AT_LEAST_1)
    bonds: int = _setting("market", MarketSpec.bonds, _AT_LEAST_0)
    periodic_dealers: int = _setting("market", MarketSpec.periodic_dealers, _AT_LEAST_0)
    sparse_dealers: int = _setting("market", MarketSpec.sparse_dealers, _AT_LEAST_0)
    dense_dealers: int = _setting("market", MarketSpec.dense_dealers, _AT_LEAST_0)
    periodic_min_period: int = _setting("market", MarketSpec.periodic_period_range[0], _AT_LEAST_1)
    periodic_max_period: int = _setting("market", MarketSpec.periodic_period_range[1], _AT_LEAST_1)
    periodic_min_bonds: int = _setting("market", MarketSpec.periodic_bonds_range[0], _AT_LEAST_0)
    periodic_max_bonds: int = _setting("market", MarketSpec.periodic_bonds_range[1], _AT_LEAST_0)
    periodic_buy_prob: float = _setting("market", MarketSpec.periodic_buy_prob, _RATE)
    sparse_rate: float = _setting("market", MarketSpec.sparse_rate, _RATE)
    dense_rate: float = _setting("market", MarketSpec.dense_rate,
                                 ("a float >= 0", lambda v: v >= 0))
    dense_min_bonds: int = _setting("market", MarketSpec.dense_bonds_range[0], _AT_LEAST_0)
    dense_max_bonds: int = _setting("market", MarketSpec.dense_bonds_range[1], _AT_LEAST_0)
    cancellation_rate: float = _setting("market", MarketSpec.cancellation_rate, _RATE)
    top_dealers: int = _setting("filters", 200, _AT_LEAST_1)
    top_bonds: int = _setting("filters", 500, _AT_LEAST_1)
    drop_top_bonds: bool = _setting("filters", False, ("a boolean", None))
    t_in: int = _setting("window", 5, _AT_LEAST_1)
    t_out: int = _setting("window", 5, _AT_LEAST_1)
    stride: int = _setting("window", 1, _AT_LEAST_1)
    train_fraction: float = _setting("split", 0.9, _OPEN_RATE)
    kind: str = _setting("model", "TransPPRZ", _one_of(MODEL_KINDS))
    d_model: int = _setting("model", ModelConfig.d_model, _AT_LEAST_1)
    heads: int = _setting("model", ModelConfig.heads, _AT_LEAST_1)
    n_layers: int = _setting("model", ModelConfig.n_layers, _AT_LEAST_1)
    d_ff: int = _setting("model", ModelConfig.d_ff, _AT_LEAST_1)
    hidden: int = _setting("model", ModelConfig.hidden, _AT_LEAST_1)
    epochs: int = _setting("train", TrainSpec.epochs, _AT_LEAST_0)
    batch_size: int = _setting("train", TrainSpec.batch_size, _AT_LEAST_1)
    learning_rate: float = _setting("train", TrainSpec.learning_rate,
                                    ("a float > 0", lambda v: v > 0))
    threshold: float = _setting("train", 0.5, _OPEN_RATE)
    seed: int = _setting("run", 0, ("an integer", None))
    granularity: str = _setting("run", "single", _one_of(GRANULARITIES))
    output_dir: str = _setting("run", "runs/default",
                               ("a non-empty path without a NUL character",
                                lambda v: v != "" and "\0" not in v))
    eval_mode: str = _setting("run", "per_day", _one_of(EVAL_MODES))

    def _spec(self, cls, **explicit):
        """A ``cls`` from ``explicit`` and the settings named like its other fields."""
        shared = {f.name: getattr(self, f.name) for f in fields(cls) if f.name not in explicit}
        return cls(**shared, **explicit)

    def market_spec(self) -> MarketSpec:
        return self._spec(
            MarketSpec,
            periodic_period_range=(self.periodic_min_period, self.periodic_max_period),
            periodic_bonds_range=(self.periodic_min_bonds, self.periodic_max_bonds),
            dense_bonds_range=(self.dense_min_bonds, self.dense_max_bonds),
            seed=derive_seed(self.seed, "market"),
        )

    def model_config(self, vocab_size: int, kind: str | None = None) -> ModelConfig:
        return self._spec(ModelConfig, kind=kind or self.kind, vocab_size=vocab_size,
                          seed=derive_seed(self.seed, "model"))

    def train_spec(self) -> TrainSpec:
        return self._spec(TrainSpec, seed=derive_seed(self.seed, "train"))


# section -> {key -> field}, both in declaration order
_SECTIONS: dict[str, dict[str, Field]] = {}
for _field in fields(RunConfig):
    _SECTIONS.setdefault(_field.metadata["section"], {})[_field.name] = _field


def _parse_value(section: str, key: Field, raw: str) -> Any:
    error = ConfigurationError(
        f"[{section}] {key.name} must be {key.metadata['constraint']}, got {raw!r}")
    parse, check = PARSERS[key.type], key.metadata["check"]
    try:
        value = parse(raw.strip())
    except (ValueError, KeyError) as exc:
        raise error from exc
    if check is not None and not check(value):
        raise error
    return value


def parse_config(path: str | None = None) -> RunConfig:
    """Parse a config file into a RunConfig; None means all defaults."""
    values = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
        parser = configparser.ConfigParser(
            delimiters=("=", ":"),
            inline_comment_prefixes=("#", ";"),
            interpolation=None,
        )
        try:
            parser.read_string(text, source=str(path))
        except configparser.Error as exc:
            raise ConfigurationError(f"malformed config file {path}: {exc}") from exc
        if parser.defaults():
            raise ConfigurationError("unknown section [DEFAULT]")
        if not parser.sections():
            raise ConfigurationError(f"config file {path} has no section")
        for section in parser.sections():
            if section not in _SECTIONS:
                raise ConfigurationError(f"unknown section [{section}]")
            for name, raw in parser.items(section):
                if name not in _SECTIONS[section]:
                    raise ConfigurationError(f"unknown key '{name}' in section [{section}]")
                values[name] = _parse_value(section, _SECTIONS[section][name], raw)
    config = RunConfig(**values)
    config.market_spec()  # MarketSpec validates its ranges
    config.model_config(1)  # ModelConfig validates the model settings
    return config


def _format_value(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def write_resolved(config: RunConfig, path) -> None:
    """Echo the fully resolved configuration in declaration order, through ``atomic_write``."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_dict({section: {name: _format_value(getattr(config, name)) for name in keys}
                      for section, keys in _SECTIONS.items()})
    with atomic_write(path, "w", encoding="utf-8") as fh:
        parser.write(fh)
