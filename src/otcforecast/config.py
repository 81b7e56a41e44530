"""Run configuration: line-oriented ``key = value`` files with sections.

Unknown sections or keys are rejected so typos fail loudly; missing keys
fall back to documented defaults.  The fully resolved configuration is
echoed next to every artifact a command produces.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from typing import Any, Callable

from .errors import ConfigurationError
from .harness import GRANULARITIES, TrainSpec
from .market import MarketSpec
from .models import MODEL_KINDS, TRANSFORMER_KINDS, ModelConfig
from .seeding import derive_seed


def _parse_int(raw: str) -> int:
    return int(raw.strip())


def _parse_float(raw: str) -> float:
    return float(raw.strip())


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(lowered)


def _parse_str(raw: str) -> str:
    return raw.strip()


def _parse_optional_int(raw: str) -> int | None:
    raw = raw.strip()
    return int(raw) if raw else None


@dataclass(frozen=True)
class _Key:
    name: str
    parse: Callable[[str], Any]
    default: Any
    constraint: str = ""
    check: Callable[[Any], bool] | None = None


def _positive(x) -> bool:
    return x >= 1


def _nonnegative(x) -> bool:
    return x >= 0


def _unit_interval(x) -> bool:
    return 0.0 <= x <= 1.0


def _open_unit(x) -> bool:
    return 0.0 < x < 1.0


SCHEMA: dict[str, tuple[_Key, ...]] = {
    "market": (
        _Key("days", _parse_int, 249, "an integer >= 1", _positive),
        _Key("bonds", _parse_int, 500, "an integer >= 0", _nonnegative),
        _Key("periodic_dealers", _parse_int, 80, "an integer >= 0", _nonnegative),
        _Key("sparse_dealers", _parse_int, 80, "an integer >= 0", _nonnegative),
        _Key("dense_dealers", _parse_int, 40, "an integer >= 0", _nonnegative),
        _Key("periodic_min_period", _parse_int, 2, "an integer >= 1", _positive),
        _Key("periodic_max_period", _parse_int, 7, "an integer >= 1", _positive),
        _Key("periodic_min_bonds", _parse_int, 2, "an integer >= 1", _positive),
        _Key("periodic_max_bonds", _parse_int, 6, "an integer >= 1", _positive),
        _Key("periodic_buy_prob", _parse_float, 0.6, "a float in [0, 1]", _unit_interval),
        _Key("sparse_rate", _parse_float, 0.1, "a float in [0, 1]", _unit_interval),
        _Key("dense_rate", _parse_float, 8.0, "a float >= 0", _nonnegative),
        _Key("dense_min_bonds", _parse_int, 50, "an integer >= 0", _nonnegative),
        _Key("dense_max_bonds", _parse_int, 150, "an integer >= 0", _nonnegative),
        _Key("cancellation_rate", _parse_float, 0.02, "a float in [0, 1]", _unit_interval),
    ),
    "filters": (
        _Key("top_dealers", _parse_int, 200, "an integer >= 1", _positive),
        _Key("top_bonds", _parse_int, 500, "an integer >= 1", _positive),
        _Key("drop_top_bonds", _parse_bool, False, "a boolean"),
    ),
    "window": (
        _Key("t_in", _parse_int, 5, "an integer >= 1", _positive),
        _Key("t_out", _parse_int, 5, "an integer >= 1", _positive),
        _Key("stride", _parse_int, 1, "an integer >= 1", _positive),
    ),
    "split": (
        _Key("train_fraction", _parse_float, 0.9, "a float in (0, 1)", _open_unit),
    ),
    "model": (
        _Key("kind", _parse_str, "TransPPRZ", f"one of {', '.join(MODEL_KINDS)}",
             lambda v: v in MODEL_KINDS),
        _Key("d_model", _parse_int, 64, "an integer >= 1", _positive),
        _Key("heads", _parse_int, 4, "an integer >= 1", _positive),
        _Key("n_layers", _parse_int, 2, "an integer >= 1", _positive),
        _Key("d_ff", _parse_int, 128, "an integer >= 1", _positive),
        _Key("hidden", _parse_int, 64, "an integer >= 1", _positive),
    ),
    "train": (
        _Key("epochs", _parse_int, 10, "an integer >= 0", _nonnegative),
        _Key("batch_size", _parse_int, 16, "an integer >= 1", _positive),
        _Key("learning_rate", _parse_float, 0.01, "a float > 0", lambda v: v > 0),
        _Key("threshold", _parse_float, 0.5, "a float in (0, 1)", _open_unit),
        _Key("patience", _parse_optional_int, None, "an integer >= 1 or empty",
             lambda v: v is None or v >= 1),
    ),
    "run": (
        _Key("seed", _parse_int, 0, "an integer", lambda v: True),
        _Key("granularity", _parse_str, "single", f"one of {', '.join(GRANULARITIES)}",
             lambda v: v in GRANULARITIES),
        _Key("output_dir", _parse_str, "runs/default", "a path"),
        _Key("eval_mode", _parse_str, "per_day", "one of per_day, union",
             lambda v: v in ("per_day", "union")),
        _Key("probe_samples", _parse_int, 64, "an integer >= 1", _positive),
    ),
}


@dataclass(frozen=True)
class RunConfig:
    days: int
    bonds: int
    periodic_dealers: int
    sparse_dealers: int
    dense_dealers: int
    periodic_min_period: int
    periodic_max_period: int
    periodic_min_bonds: int
    periodic_max_bonds: int
    periodic_buy_prob: float
    sparse_rate: float
    dense_rate: float
    dense_min_bonds: int
    dense_max_bonds: int
    cancellation_rate: float
    top_dealers: int
    top_bonds: int
    drop_top_bonds: bool
    t_in: int
    t_out: int
    stride: int
    train_fraction: float
    kind: str
    d_model: int
    heads: int
    n_layers: int
    d_ff: int
    hidden: int
    epochs: int
    batch_size: int
    learning_rate: float
    threshold: float
    patience: int | None
    seed: int
    granularity: str
    output_dir: str
    eval_mode: str
    probe_samples: int

    def market_spec(self) -> MarketSpec:
        return MarketSpec(
            days=self.days,
            bonds=self.bonds,
            periodic_dealers=self.periodic_dealers,
            sparse_dealers=self.sparse_dealers,
            dense_dealers=self.dense_dealers,
            periodic_period_range=(self.periodic_min_period, self.periodic_max_period),
            periodic_bonds_range=(self.periodic_min_bonds, self.periodic_max_bonds),
            periodic_buy_prob=self.periodic_buy_prob,
            sparse_rate=self.sparse_rate,
            dense_rate=self.dense_rate,
            dense_bonds_range=(self.dense_min_bonds, self.dense_max_bonds),
            cancellation_rate=self.cancellation_rate,
            seed=derive_seed(self.seed, "market"),
        )

    def model_config(self, vocab_size: int, kind: str | None = None) -> ModelConfig:
        return ModelConfig(
            kind=kind or self.kind,
            vocab_size=vocab_size,
            t_in=self.t_in,
            t_out=self.t_out,
            d_model=self.d_model,
            heads=self.heads,
            n_layers=self.n_layers,
            d_ff=self.d_ff,
            hidden=self.hidden,
            seed=derive_seed(self.seed, "model"),
        )

    def train_spec(self) -> TrainSpec:
        return TrainSpec(
            epochs=self.epochs,
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
            threshold=self.threshold,
            seed=derive_seed(self.seed, "train"),
            patience=self.patience,
        )


def _defaults() -> dict[str, Any]:
    return {key.name: key.default for keys in SCHEMA.values() for key in keys}


def parse_config(path: str | None = None) -> RunConfig:
    """Parse a config file into a RunConfig; None means all defaults."""
    values = _defaults()
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
        for section in parser.sections():
            if section not in SCHEMA:
                raise ConfigurationError(f"unknown section [{section}]")
            known = {key.name: key for key in SCHEMA[section]}
            for name, raw in parser.items(section):
                if name not in known:
                    raise ConfigurationError(f"unknown key '{name}' in section [{section}]")
                key = known[name]
                try:
                    value = key.parse(raw)
                except ValueError as exc:
                    raise ConfigurationError(
                        f"[{section}] {name} must be {key.constraint}, got {raw!r}"
                    ) from exc
                if key.check is not None and not key.check(value):
                    raise ConfigurationError(
                        f"[{section}] {name} must be {key.constraint}, got {raw!r}"
                    )
                values[name] = value
    _cross_validate(values)
    return RunConfig(**values)


def _cross_validate(values: dict[str, Any]) -> None:
    for lo, hi in (
        ("periodic_min_period", "periodic_max_period"),
        ("periodic_min_bonds", "periodic_max_bonds"),
        ("dense_min_bonds", "dense_max_bonds"),
    ):
        if values[lo] > values[hi]:
            raise ConfigurationError(f"{lo} ({values[lo]}) exceeds {hi} ({values[hi]})")
    if values["kind"] in TRANSFORMER_KINDS:
        if values["d_model"] % values["heads"] != 0:
            raise ConfigurationError(
                f"[model] d_model ({values['d_model']}) must be divisible by heads ({values['heads']})"
            )


def _format_value(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def write_resolved(config: RunConfig, path) -> None:
    """Echo the fully resolved configuration in schema order."""
    with open(path, "w", encoding="utf-8") as fh:
        for section, keys in SCHEMA.items():
            fh.write(f"[{section}]\n")
            for key in keys:
                fh.write(f"{key.name} = {_format_value(getattr(config, key.name))}\n")
            fh.write("\n")
