"""Run configuration: defaults, file/override precedence, round-trips."""

import re
from pathlib import Path

import pytest

from nanoalbert.config import (
    SCHEMA,
    ConfigError,
    RunConfig,
    effective_text,
    model_config_from,
    parse_config,
)


def test_defaults_match_published_base_setup():
    cfg = parse_config()
    assert cfg.vocab_size == 30000
    assert cfg.embedding_size == 128
    assert cfg.hidden_size == 768
    assert cfg.num_layers == 12
    assert cfg.num_heads == 12
    assert cfg.max_seq_length == 512
    assert cfg.max_predictions_per_seq == 20
    assert cfg.dup_factor == 5
    assert cfg.optimizer == "lamb"
    assert cfg.learning_rate == 0.00176
    assert cfg.train_batch_size == 1024
    assert cfg.training_steps == 200000
    assert cfg.warmup_steps == 3125
    assert cfg.finetune_learning_rate == 1e-5
    assert cfg.finetune_batch_size == 32
    assert cfg.finetune_steps == 5336
    assert cfg.finetune_warmup_steps == 320
    assert cfg.save_checkpoint == 200
    assert cfg.rescale_learning_rate is False
    assert cfg.seed == 0


def test_file_overrides_defaults(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "hidden_size = 64   # trailing comment\n"
        "\n"
        "optimizer=adamw\n"
        "rescale_learning_rate=true\n"
    )
    cfg = parse_config(path)
    assert cfg.hidden_size == 64
    assert cfg.optimizer == "adamw"
    assert cfg.rescale_learning_rate is True
    assert cfg.num_layers == 12  # untouched default


def test_cli_overrides_beat_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("hidden_size=64\nnum_layers=2\n")
    cfg = parse_config(path, overrides=["hidden_size=128", "seed=7"])
    assert cfg.hidden_size == 128
    assert cfg.num_layers == 2
    assert cfg.seed == 7


def test_unknown_keys_rejected_with_location(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("hiden_size=64\n")
    with pytest.raises(ConfigError, match=r"run\.cfg:1: unknown key 'hiden_size'"):
        parse_config(path)
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(overrides=["nope=1"])


def test_bad_values_name_key_and_expected_type(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("hidden_size=tall\n")
    with pytest.raises(ConfigError, match="invalid value 'tall' for hidden_size"):
        parse_config(path)
    with pytest.raises(ConfigError, match="expected true/false"):
        parse_config(overrides=["lowercase=yes"])
    path.write_text("just some words\n")
    with pytest.raises(ConfigError, match="expected key=value"):
        parse_config(path)
    with pytest.raises(ConfigError, match="not key=value"):
        parse_config(overrides=["seed"])


def test_run_config_is_read_only():
    cfg = parse_config()
    with pytest.raises(AttributeError):
        cfg.hidden_size = 3
    with pytest.raises(AttributeError):
        cfg.not_a_key


def test_effective_text_round_trips(tmp_path):
    cfg = parse_config(overrides=[
        "learning_rate=0.0005", "dropout_rate=0.1", "lowercase=true", "seed=33",
    ])
    dump = tmp_path / "effective.cfg"
    dump.write_text(effective_text(cfg))
    again = parse_config(dump)
    assert dict(again.items()) == dict(cfg.items())


def test_effective_text_covers_every_key():
    text = effective_text(parse_config())
    keys = {line.split("=", 1)[0] for line in text.strip().split("\n")}
    assert keys == set(SCHEMA)


def test_model_config_mapping():
    cfg = parse_config(overrides=[
        "vocab_size=200", "embedding_size=16", "hidden_size=32",
        "num_layers=2", "num_heads=2", "max_positions=16", "dropout_rate=0.1",
    ])
    mc = model_config_from(cfg)
    assert (mc.vocab_size, mc.embedding_size, mc.hidden_size) == (200, 16, 32)
    assert (mc.num_layers, mc.num_heads, mc.max_positions) == (2, 2, 16)
    assert mc.dropout_rate == 0.1
    assert mc.intermediate_size == 128  # 0 in the run config means 4 * hidden


def test_run_config_items_sorted():
    items = RunConfig({"b": 1, "a": 2}).items()
    assert items == [("a", 2), ("b", 1)]


def test_every_schema_key_has_a_reader():
    package = Path(__file__).parent.parent / "src" / "nanoalbert"
    source = "\n".join(path.read_text(encoding="utf-8") for path in package.glob("*.py"))
    unread = [key for key in SCHEMA
              if not re.search(rf"\b(?:cfg|config)\.{key}\b", source)]
    assert unread == []
