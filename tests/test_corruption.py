"""Damaged files: every one-bit flip of the header of a tagger, a
pretraining checkpoint and an example cache, bounded fuzzing of their
bodies and truncation points, and bounded fuzzing of the text inputs.

Each damaged binary file must load, or be refused with the reader's own
error in one line that starts with the file's path; any other exception fails. With
no checksum yet, some header flips load a different object: a step or
optim_t digit, a depth (the shared block's tensors have the same shapes at
every num_layers) or a label's name. Those are counted and pinned, and
none may change a tensor or another config field.

A damaged text input (the vocabulary pair, a CoNLL file, gold or
predicted, a config file, a run directory's effective.cfg) must load, or
be refused with a ValueError (its subclasses count) in one line naming the
damaged file. The vocabulary is two files checked against each other, so a
damaged vocab.txt may be refused naming merges.txt, and the other way
round. A few cases also run through the CLI, which must exit 0 or print
one `error:` line and exit 1.
"""

import contextlib
import dataclasses
import io
import shutil
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import synthdata
from nanoalbert.bpe import load_vocab, save_vocab, train_vocab
from nanoalbert.checkpoint import (
    MAGIC,
    ConfigMismatchError,
    CorruptCheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from nanoalbert.cli import main
from nanoalbert.config import effective_text, parse_config
from nanoalbert.corpus import EXAMPLES_MAGIC, CorpusError, read_examples, write_examples
from nanoalbert.model import ModelConfig, init_parameters
from nanoalbert.ner import read_conll
from nanoalbert.optim import OptimizerState
from nanoalbert.rng import RngStream
from nanoalbert.rundir import EXAMPLES, run_dir

CONFIG = ModelConfig(vocab_size=8, embedding_size=4, hidden_size=8, num_layers=2,
                     num_heads=2, max_positions=4)
LABELS = ["O", "B-X", "I-X"]
# the header fields no tensor shape checks, so a flip there can load
UNCHECKED = {"step", "optim_t", "labels", "num_layers"}


@pytest.fixture(scope="module")
def tagger(tmp_path_factory):
    """A tiny fine-tuned checkpoint with labels and AdamW moments."""
    params = init_parameters(CONFIG, RngStream(5).child("init"), num_labels=3)
    optim = OptimizerState.for_params(params)
    optim.t = 12
    for name in params:
        optim.m[name] += 0.5
        optim.v[name] += 0.25
    path = tmp_path_factory.mktemp("tagger") / "tagger.ckpt"
    save_checkpoint(path, CONFIG, params, step=12, labels=LABELS, optim=optim)
    return path


@pytest.fixture(scope="module")
def pretrained(tmp_path_factory):
    """A tiny pretraining checkpoint: MLM and SOP heads, LAMB moments, no labels."""
    params = init_parameters(CONFIG, RngStream(6).child("init"))
    optim = OptimizerState.for_params(params)
    optim.t = 9
    for name in params:
        optim.m[name] -= 0.5
        optim.v[name] += 0.75
    path = tmp_path_factory.mktemp("pretrained") / "pretrained.ckpt"
    save_checkpoint(path, CONFIG, params, step=9, optim=optim)
    return path


def _first_values_offset(raw: bytes) -> int:
    """Offset of the first tensor's values: past the magic, the header, the
    tensor count and the first tensor's name, rank and dims."""
    at = len(MAGIC)
    (header_len,) = struct.unpack_from("<I", raw, at)
    at += 4 + header_len + 4
    (name_len,) = struct.unpack_from("<I", raw, at)
    at += 4 + name_len
    (rank,) = struct.unpack_from("<I", raw, at)
    return at + 4 + 4 * rank


def _differences(loaded, original) -> set:
    """The header fields and tensors on which two checkpoints differ."""
    fields = {f.name for f in dataclasses.fields(ModelConfig)
              if getattr(loaded.config, f.name) != getattr(original.config, f.name)}
    fields |= {name for name in ("step", "labels")
               if getattr(loaded, name) != getattr(original, name)}
    if loaded.optim.t != original.optim.t:
        fields.add("optim_t")
    for group in ("params", "m", "v"):
        have, want = ((ck.params if group == "params" else getattr(ck.optim, group))
                      for ck in (loaded, original))
        if have.keys() != want.keys():
            fields.add(group)
        else:
            fields |= {f"{group}/{name}" for name in want
                       if have[name].tobytes() != want[name].tobytes()}
    return fields


def _load_or_refuse(path, loader, errors):
    """What loader(path) gives: the object, or None after checking the
    refusal is one of `errors` in one line starting with the path."""
    try:
        return loader(path)
    except errors as exc:
        message = str(exc)
        assert message.startswith(f"{path}: ") and "\n" not in message, message
        return None


def _with_bit_flipped(raw: bytes, bit: int) -> bytes:
    flipped = bytearray(raw)
    flipped[bit // 8] ^= 1 << (bit % 8)
    return bytes(flipped)


CHECKPOINT_ERRORS = (CorruptCheckpointError, ConfigMismatchError)


def _header_flips_that_load_another(path, tmp_path) -> int:
    """How many one-bit flips of path's header, tensor count and first
    tensor record load a checkpoint that differs from the original; every
    other flip must be refused in one line."""
    raw = path.read_bytes()
    original = load_checkpoint(path)
    target = tmp_path / "flipped.ckpt"
    changed = []
    for bit in range(8 * _first_values_offset(raw)):
        target.write_bytes(_with_bit_flipped(raw, bit))
        loaded = _load_or_refuse(target, load_checkpoint, CHECKPOINT_ERRORS)
        if loaded is not None and (differences := _differences(loaded, original)):
            assert differences <= UNCHECKED, (bit, differences)
            changed.append(bit)
    return len(changed)


def test_every_header_bit_flip_of_a_checkpoint_loads_or_is_refused(tagger, tmp_path):
    # of 1,664 flips, 70 load a different object (53 in the labels, 7 in
    # each of the step and optim_t digits, 3 making num_layers 0, 3 or 6);
    # a checksum over the file would take this to 0
    assert _header_flips_that_load_another(tagger, tmp_path) == 70


def test_every_header_bit_flip_of_a_pretraining_checkpoint_loads_or_is_refused(
        pretrained, tmp_path):
    # of 1,512 flips, 7 load a different object (2 in each of the one-digit
    # step and optim_t, 3 making num_layers 0, 3 or 6)
    assert _header_flips_that_load_another(pretrained, tmp_path) == 7


def test_a_zero_head_count_in_a_checkpoint_is_refused_naming_the_file(tagger, tmp_path):
    target = tmp_path / "no_heads.ckpt"
    target.write_bytes(tagger.read_bytes().replace(b"\nnum_heads=2\n", b"\nnum_heads=0\n"))
    with pytest.raises(ConfigMismatchError) as refused:
        load_checkpoint(target)
    assert str(refused.value) == (f"{target}: invalid config in header: "
                                  "num_heads must be >= 1")


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    """A small example cache: 8 rows of T=16 with P=20 prediction slots."""
    path = tmp_path_factory.mktemp("cache") / "examples.bin"
    write_examples(path, synthdata.ordered_examples(4, RngStream(42)))
    return path


def test_every_header_bit_flip_of_an_example_cache_is_refused(cache, tmp_path):
    raw = cache.read_bytes()
    target = tmp_path / "flipped.bin"
    for bit in range(8 * (len(EXAMPLES_MAGIC) + 12)):  # the magic and the N, T and P words
        target.write_bytes(_with_bit_flipped(raw, bit))
        assert _load_or_refuse(target, read_examples, CorpusError) is None, bit


def _fuzz(path, data, loader, errors, body_start):
    """One drawn case: path's bytes cut at a drawn length, which must be
    refused, or with one drawn bit past body_start flipped."""
    raw = path.read_bytes()
    target = path.with_name("damaged" + path.suffix)
    if data.draw(st.booleans(), label="truncate"):
        target.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1), label="length")])
        assert _load_or_refuse(target, loader, errors) is None
    else:
        bit = data.draw(st.integers(8 * body_start, 8 * len(raw) - 1), label="bit")
        target.write_bytes(_with_bit_flipped(raw, bit))
        _load_or_refuse(target, loader, errors)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_checkpoint_body_flips_and_truncations_load_or_are_refused(tagger, data):
    _fuzz(tagger, data, load_checkpoint, CHECKPOINT_ERRORS,
          _first_values_offset(tagger.read_bytes()))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_pretraining_checkpoint_body_flips_and_truncations_load_or_are_refused(pretrained, data):
    _fuzz(pretrained, data, load_checkpoint, CHECKPOINT_ERRORS,
          _first_values_offset(pretrained.read_bytes()))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_example_cache_body_flips_and_truncations_load_or_are_refused(cache, data):
    _fuzz(cache, data, read_examples, CorpusError, len(EXAMPLES_MAGIC) + 12)


def test_predict_refuses_a_checkpoint_with_no_heads_in_one_line(tagger, tmp_path, capsys):
    target = tmp_path / "no_heads.ckpt"
    target.write_bytes(tagger.read_bytes().replace(b"\nnum_heads=2\n", b"\nnum_heads=0\n"))
    source = tmp_path / "input.txt"
    source.write_text("aspirin lowers fever\n")
    assert main(["predict", "--out", str(tmp_path / "pred"), "--checkpoint", str(target),
                 "--vocab", str(tmp_path), "--input", str(source)]) == 1
    assert capsys.readouterr().err == (
        f"error: {target}: invalid config in header: num_heads must be >= 1\n")


# ---------------------------------------------------------------------------
# text inputs
# ---------------------------------------------------------------------------

FIXTURES = Path(__file__).parent / "fixtures"
CONFIG_TEXT = """# a small run
vocab_size=300
hidden_size = 16
num_heads=2  # divides hidden_size
learning_rate=0.001
lowercase=true
optimizer=lamb
"""
OVERRIDES = ["vocab_size=300", "hidden_size=16", "seed=3"]


@pytest.fixture(scope="module")
def text_files(tmp_path_factory):
    """Valid text inputs: a vocabulary pair, two equal CoNLL files (gold and
    predicted), a config file, and a run directory whose effective.cfg
    records OVERRIDES beside an examples.bin."""
    root = tmp_path_factory.mktemp("text")
    text = FIXTURES.joinpath("corpus.golden.txt").read_text(encoding="utf-8")
    save_vocab(train_vocab(text, 280), root / "vocab.txt", root / "merges.txt")
    for name in ("gold.conll", "pred.conll"):
        shutil.copy(FIXTURES / "tiny.conll", root / name)
    (root / "run.cfg").write_text(CONFIG_TEXT, encoding="utf-8")
    run = root / "run"
    run.mkdir()
    (run / EXAMPLES).write_bytes(b"any state: run_dir only checks that it exists")
    (run / "effective.cfg").write_text(effective_text(parse_config(None, OVERRIDES)),
                                       encoding="utf-8")
    return root


def _run_in(directory: Path) -> None:
    with run_dir(directory, parse_config(None, OVERRIDES)):
        pass


def _reader(root: Path, name: str):
    """(the file to damage, its loader, the paths a refusal may name)."""
    vocab, merges = root / "vocab.txt", root / "merges.txt"
    gold, run_cfg, run = root / "gold.conll", root / "run.cfg", root / "run"
    return {
        "vocab.txt": (vocab, lambda: load_vocab(vocab, merges), (vocab, merges)),
        "merges.txt": (merges, lambda: load_vocab(vocab, merges), (vocab, merges)),
        "gold.conll": (gold, lambda: read_conll(gold), (gold,)),
        "predicted.conll": (gold, lambda: read_conll(gold, predicted=True), (gold,)),
        "run.cfg": (run_cfg, lambda: parse_config(run_cfg), (run_cfg,)),
        "effective.cfg": (run / "effective.cfg", lambda: _run_in(run), (run / "effective.cfg",)),
    }[name]


@contextlib.contextmanager
def _damaged(data, path: Path):
    """path cut at a drawn length or with one drawn bit flipped for the body
    of the with, then holding its own bytes again."""
    original = path.read_bytes()
    if data.draw(st.booleans(), label="truncate"):
        damaged = original[:data.draw(st.integers(0, len(original) - 1), label="length")]
    else:
        damaged = _with_bit_flipped(original, data.draw(st.integers(0, 8 * len(original) - 1),
                                                        label="bit"))
    path.write_bytes(damaged)
    try:
        yield
    finally:
        path.write_bytes(original)


def _text_loads_or_is_refused(load, names) -> None:
    try:
        load()
    except ValueError as exc:
        message = str(exc)
        assert "\n" not in message, message
        assert any(str(path) in message for path in names), message


@pytest.mark.parametrize("name", ["vocab.txt", "merges.txt", "gold.conll", "predicted.conll",
                                  "run.cfg", "effective.cfg"])
@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_damaged_text_loads_or_is_refused_naming_the_file(text_files, name, data):
    path, load, names = _reader(text_files, name)
    with _damaged(data, path):
        _text_loads_or_is_refused(load, names)


@settings(derandomize=True, max_examples=12, deadline=None, database=None)
@given(data=st.data(), which=st.sampled_from(["conll", "pred", "config", "effective"]))
def test_damaged_text_through_the_cli_is_one_error_line(text_files, data, which):
    gold, pred = text_files / "gold.conll", text_files / "pred.conll"
    run_cfg, run = text_files / "run.cfg", text_files / "run"
    damaged, argv = {
        "conll": (gold, ["stats", "--conll", gold]),
        "pred": (pred, ["evaluate", "--gold", gold, "--pred", pred]),
        "config": (run_cfg, ["stats", "--conll", gold, "--config", run_cfg]),
        "effective": (run / "effective.cfg", ["stats", "--conll", gold, "--out", run,
                                              *OVERRIDES]),
    }[which]
    err = io.StringIO()
    with (tempfile.TemporaryDirectory() as out, _damaged(data, damaged),
          contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err)):
        code = main([str(arg) for arg in argv] + ([] if run in argv else ["--out", out]))
    message = err.getvalue()
    if code:
        assert code == 1 and message.startswith("error: ") and message.count("\n") == 1, message
        assert str(damaged) in message, message
    else:
        assert message == ""
