"""Flat typed run configuration: defaults < config file < overrides.

Keys mirror the published hyperparameter tables of the base setup
(pretraining: batch 1024, LAMB, peak lr 0.00176, warmup 3125, 200k steps,
max seq 512, 20 predictions; fine-tuning: batch 32, AdamW, lr 1e-5,
5336 steps, warmup 320, checkpoint/eval every 200). Values are strings in
files and on the command line; the schema fixes each key's type.

This module deliberately avoids importing numpy so the CLI can configure
thread-count environment variables before any numeric code loads.
"""

from __future__ import annotations


class ConfigError(ValueError):
    """Unknown key or malformed value; message names key and source line."""


# key -> (type, default)
SCHEMA: dict[str, tuple[type, object]] = {
    # architecture
    "vocab_size": (int, 30000),
    "embedding_size": (int, 128),
    "hidden_size": (int, 768),
    "num_layers": (int, 12),
    "num_heads": (int, 12),
    "intermediate_size": (int, 0),  # 0 means 4 * hidden_size
    "max_positions": (int, 512),
    "dropout_rate": (float, 0.0),
    # pretraining data
    "max_seq_length": (int, 512),
    "max_predictions_per_seq": (int, 20),
    "mask_rate": (float, 0.15),
    "dup_factor": (int, 5),
    # pretraining optimization
    "optimizer": (str, "lamb"),
    "learning_rate": (float, 0.00176),
    "rescale_learning_rate": (bool, False),
    "train_batch_size": (int, 1024),
    "training_steps": (int, 200000),
    "warmup_steps": (int, 3125),
    "weight_decay": (float, 0.01),
    "save_checkpoint": (int, 200),
    # fine-tuning
    "finetune_learning_rate": (float, 1e-5),
    "finetune_batch_size": (int, 32),
    "finetune_eval_batch_size": (int, 16),
    "finetune_steps": (int, 5336),
    "finetune_warmup_steps": (int, 320),
    "finetune_max_seq_length": (int, 512),
    "lowercase": (bool, False),
    # run control
    "seed": (int, 0),
}

_BOOL_WORDS = {"true": True, "false": False}


class RunConfig:
    """Read-only attribute access over the validated key/value map."""

    __slots__ = ("_values",)

    def __init__(self, values: dict):
        object.__setattr__(self, "_values", dict(values))

    def __getattr__(self, key: str):
        try:
            return self._values[key]
        except KeyError:
            raise AttributeError(key) from None

    def __setattr__(self, key, value):
        raise AttributeError("RunConfig is read-only")

    def get(self, key: str):
        return self._values[key]

    def items(self):
        return sorted(self._values.items())


def _convert(key: str, raw: str, where: str):
    if key not in SCHEMA:
        raise ConfigError(f"{where}unknown key {key!r}")
    expected, _ = SCHEMA[key]
    if expected is bool:
        if raw.lower() in _BOOL_WORDS:
            return _BOOL_WORDS[raw.lower()]
        raise ConfigError(f"{where}invalid value {raw!r} for {key} (expected true/false)")
    try:
        return expected(raw)
    except ValueError:
        raise ConfigError(
            f"{where}invalid value {raw!r} for {key} (expected {expected.__name__})"
        ) from None


def parse_config(path=None, overrides=()) -> RunConfig:
    """Load defaults, then the optional file, then key=value overrides."""
    values = {key: default for key, (_, default) in SCHEMA.items()}
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, raw = (part.strip() for part in line.split("=", 1))
                values[key] = _convert(key, raw, f"{path}:{lineno}: ")
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not key=value")
        key, raw = (part.strip() for part in item.split("=", 1))
        values[key] = _convert(key, raw, f"override {item!r}: ")
    return RunConfig(values)


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def effective_text(config: RunConfig) -> str:
    """key=value dump that parse_config reads back to an equal RunConfig."""
    return "\n".join(f"{key}={_format_value(v)}" for key, v in config.items()) + "\n"


def model_config_from(config: RunConfig):
    from .model import ModelConfig  # deferred: keeps numpy out of CLI startup

    return ModelConfig(
        vocab_size=config.vocab_size,
        embedding_size=config.embedding_size,
        hidden_size=config.hidden_size,
        num_layers=config.num_layers,
        num_heads=config.num_heads,
        intermediate_size=config.intermediate_size,
        max_positions=config.max_positions,
        dropout_rate=config.dropout_rate,
    )
