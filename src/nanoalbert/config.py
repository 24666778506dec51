"""Flat typed run configuration: defaults < config file < overrides.

Keys mirror the published hyperparameter tables of the base setup
(pretraining: batch 1024, LAMB, peak lr 0.00176, warmup 3125, 200k steps,
max seq 512, 20 predictions; fine-tuning: batch 32, AdamW, lr 1e-5,
5336 steps, warmup 320, checkpoint/eval every 200). Values are strings in
files and on the command line; RunConfig's annotations fix each key's type,
and a value below the least any run can use is refused naming where it was set.
parse_pairs and format_pairs read and write all typed key=value text,
checkpoint headers included. read_text reads every text input file.

This module deliberately avoids importing numpy, so a CLI command that
needs none (build-vocab) starts without loading it.
"""

from __future__ import annotations

import dataclasses
import typing
from dataclasses import dataclass
from typing import Literal


class ConfigError(ValueError):
    """Unknown key or malformed value; message names key and source line."""


@dataclass(frozen=True)
class RunConfig:
    # architecture
    vocab_size: int = 30000
    embedding_size: int = 128
    hidden_size: int = 768
    num_layers: int = 12
    num_heads: int = 12
    intermediate_size: int = 0  # 0 means 4 * hidden_size
    max_positions: int = 512
    # pretraining data
    max_seq_length: int = 512
    max_predictions_per_seq: int = 20
    mask_rate: float = 0.15
    dup_factor: int = 5
    # pretraining optimization
    learning_rate: float = 0.00176
    rescale_learning_rate: bool = False
    train_batch_size: int = 1024
    training_steps: int = 200000
    warmup_steps: int = 3125
    weight_decay: float = 0.01
    save_checkpoint: int = 200
    # fine-tuning
    finetune_learning_rate: float = 1e-5
    finetune_batch_size: int = 32
    finetune_steps: int = 5336
    finetune_warmup_steps: int = 320
    finetune_max_seq_length: int = 512
    lowercase: bool = False
    # run control
    seed: int = 0

    def __post_init__(self):
        _check_least(vars(self))


# the least value of each key that some run can use: a pretraining row holds
# [CLS] A [SEP] B [SEP], a tagged one [CLS] word [SEP]; 0 saves no checkpoint
# and scores dev at the last step only
_LEAST = {"train_batch_size": 1, "finetune_batch_size": 1, "max_predictions_per_seq": 1,
          "save_checkpoint": 0, "max_seq_length": 5, "finetune_max_seq_length": 3}


def _check_least(values: dict, where: dict | None = None) -> None:
    """Refuse a value in `values` below its key's least value, naming the
    key, the value and, from `where` (key -> location), where it was set."""
    for key, least in _LEAST.items():
        if key in values and values[key] < least:
            place = f"{where[key]}: " if where else ""
            raise ConfigError(f"{place}invalid value {values[key]} for {key} "
                              f"(expected at least {least})")


_BOOL_WORDS = {"true": True, "false": False}

# retired keys that older files may still hold, with the only values they
# may take: ALBERT trains without dropout, so an old rate must be 0,
# pretraining always steps with LAMB, and an eval batch size of any value
# means the same, since the part budget alone cuts every batch
_RETIRED = {"dropout_rate": Literal["0", "0.0"], "optimizer": Literal["lamb"],
            "finetune_eval_batch_size": int}


def read_text(path) -> str:
    r"""The text of the UTF-8 file at `path`, with "\r\n" and "\r" read as
    "\n"; bad UTF-8 is an error naming the file and the byte. Line readers
    split the result at "\n" only: str.splitlines would also split at
    "\x1c"-"\x1e", "\x85" and "\u2028"."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()  # one decode of the whole file: exc.start is a file offset
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: invalid UTF-8 at byte offset {exc.start}") from None


def parse_pairs(lines, types: dict) -> dict:
    """Typed values of (location, "key=value") lines; a later line wins.

    `types` maps every allowed key to int, float, bool, str or a Literal of
    the strings allowed. Keys and values are stripped and blank lines
    skipped; errors name the location, the key and the expected type or
    values.
    """
    values = {}
    for where, line in lines:
        if not line.strip():
            continue
        if "=" not in line:
            raise ConfigError(f"{where}: {line.strip()!r} is not key=value (expected key=value)")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in types:
            raise ConfigError(f"{where}: unknown key {key!r}")
        expected = types[key]
        choices = typing.get_args(expected)
        try:
            if expected is bool:
                values[key] = _BOOL_WORDS[raw.lower()]
            elif choices:
                values[key] = choices[choices.index(raw)]  # ValueError if not allowed
            else:
                values[key] = expected(raw)
        except (KeyError, ValueError):
            name = ("true/false" if expected is bool else "/".join(choices) if choices
                    else expected.__name__)
            raise ConfigError(f"{where}: invalid value {raw!r} for {key} (expected {name})") from None
    return values


def format_pairs(pairs) -> str:
    """One key=value line per (key, value) pair, in the given order; bools
    as true/false, everything else as str() prints it."""
    return "".join(f"{key}={str(value).lower() if isinstance(value, bool) else value}\n"
                   for key, value in pairs)


def parse_config(path=None, overrides=()) -> RunConfig:
    """Load defaults, then the optional file, then key=value overrides."""
    lines = []
    if path is not None:
        # comments in files only: overrides and checkpoint labels may hold '#'
        lines = [(f"{path}:{n}", line.split("#", 1)[0])
                 for n, line in enumerate(read_text(path).split("\n"), 1)]
    lines += [("override", item) for item in overrides]
    values = parse_pairs(lines, {**typing.get_type_hints(RunConfig), **_RETIRED})
    # parse_pairs took every line, so each holds "=" and the last one per key wins
    _check_least(values, {line.split("=", 1)[0].strip(): where for where, line in lines
                          if line.strip()})
    return RunConfig(**{key: value for key, value in values.items() if key not in _RETIRED})


def effective_text(config: RunConfig) -> str:
    """key=value dump, sorted by key, that parse_config reads back to an
    equal RunConfig."""
    return format_pairs(sorted(dataclasses.asdict(config).items()))


def model_config_from(config: RunConfig):
    from .model import ModelConfig  # deferred: keeps numpy out of CLI startup

    values = dataclasses.asdict(config)
    return ModelConfig(**{f.name: values[f.name] for f in dataclasses.fields(ModelConfig)
                          if f.name in values})
