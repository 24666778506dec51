"""Run configuration: defaults, file/override precedence, round-trips."""

import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from nanoalbert.config import (
    ConfigError,
    RunConfig,
    effective_text,
    format_pairs,
    model_config_from,
    parse_config,
    parse_pairs,
)

SRC = Path(__file__).parent.parent / "src"
KEYS = [f.name for f in dataclasses.fields(RunConfig)]


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
    with pytest.raises(ConfigError, match=r"^override: invalid value 'sgd' for optimizer "
                                          r"\(expected lamb/adamw\)$"):
        parse_config(overrides=["optimizer=sgd"])
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
    assert again == cfg


def test_effective_text_covers_every_key():
    text = effective_text(parse_config())
    keys = {line.split("=", 1)[0] for line in text.strip().split("\n")}
    assert keys == set(KEYS)


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


def test_effective_text_lists_keys_in_sorted_order():
    keys = [line.split("=", 1)[0] for line in effective_text(parse_config()).splitlines()]
    assert keys == sorted(KEYS)
    assert keys != KEYS  # the declaration order is not already sorted


def test_every_schema_key_has_a_reader():
    package = Path(__file__).parent.parent / "src" / "nanoalbert"
    source = "\n".join(path.read_text(encoding="utf-8") for path in package.glob("*.py"))
    unread = [key for key in KEYS
              if not re.search(rf"\b(?:cfg|config)\.{key}\b", source)]
    assert unread == []


def test_pairs_codec_round_trips_typed_values():
    types = {"n": int, "x": float, "flag": bool, "label": str}
    pairs = [("n", 3), ("x", 0.1), ("flag", True), ("label", "B-C#=x")]
    text = format_pairs(pairs)
    assert text == "n=3\nx=0.1\nflag=true\nlabel=B-C#=x\n"
    lines = [(f"line {n}", line) for n, line in enumerate(text.splitlines(), 1)]
    assert parse_pairs(lines, types) == dict(pairs)
    assert parse_pairs([("a", "n=1"), ("b", "n=2")], types) == {"n": 2}  # later wins
    with pytest.raises(ConfigError, match=r"line 9: invalid value 'x' for n \(expected int\)"):
        parse_pairs([("line 9", "n=x")], types)


def test_cli_and_config_leave_numpy_unloaded():
    # --threads sets the BLAS thread variables, which only count before
    # numpy loads
    code = (
        "import sys\n"
        "import nanoalbert.cli\n"
        "from nanoalbert.config import effective_text, format_pairs, parse_config\n"
        "effective_text(parse_config(overrides=['seed=1', 'lowercase=true']))\n"
        "format_pairs([('a', 1), ('b', 0.5)])\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": pythonpath})
    assert done.returncode == 0, done.stderr
