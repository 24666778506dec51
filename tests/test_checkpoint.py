"""Checkpoint file format: exact round-trips and corruption detection.

Weights are stored as little-endian float32, so a load after save must be
bitwise identical and a forward pass from the reloaded parameters must match
the original to the last bit.
"""

import struct

import numpy as np
import pytest

import synthdata
from nanoalbert.checkpoint import (
    MAGIC,
    Checkpoint,
    ConfigMismatchError,
    CorruptCheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from nanoalbert.model import encode_forward, init_parameters
from nanoalbert.optim import OptimizerState
from nanoalbert.rng import RngStream


@pytest.fixture()
def saved(tmp_path):
    config = synthdata.tiny_config()
    params = init_parameters(config, RngStream(10).child("init"))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, config, params, step=120)
    return config, params, path


def test_round_trip_is_bitwise(saved):
    config, params, path = saved
    ck = load_checkpoint(path)
    assert ck.config == config
    assert ck.step == 120
    assert ck.labels is None
    assert ck.optim is None
    assert sorted(ck.params) == sorted(params)
    for name in params:
        assert ck.params[name].dtype == np.float32
        assert np.array_equal(ck.params[name], params[name]), name


def test_forward_pass_identical_after_reload(saved):
    config, params, path = saved
    ck = load_checkpoint(path)
    ids = np.array([[2, 30, 40, 50, 3, 0]], dtype=np.int32)
    types = np.zeros_like(ids)
    mask = np.array([[1, 1, 1, 1, 1, 0]], dtype=np.int32)
    before = encode_forward(params, config, ids, types, mask)
    after = encode_forward(ck.params, ck.config, ids, types, mask)
    assert np.array_equal(before, after)


def test_save_is_deterministic(saved, tmp_path):
    config, params, path = saved
    again = tmp_path / "again.ckpt"
    save_checkpoint(again, config, params, step=120)
    assert again.read_bytes() == path.read_bytes()


def test_optimizer_state_round_trips(tmp_path):
    config = synthdata.tiny_config()
    params = init_parameters(config, RngStream(3).child("init"))
    state = OptimizerState.for_params(params)
    state.t = 17
    for name in state.m:
        state.m[name] += 0.25
        state.v[name] += 0.5
    path = tmp_path / "with_optim.ckpt"
    save_checkpoint(path, config, params, step=17, optim=state)
    ck = load_checkpoint(path)
    assert ck.optim is not None
    assert ck.optim.t == 17
    for name in params:
        assert np.array_equal(ck.optim.m[name], state.m[name])
        assert np.array_equal(ck.optim.v[name], state.v[name])


def test_ner_checkpoint_keeps_labels(tmp_path):
    config = synthdata.tiny_config()
    params = init_parameters(config, RngStream(4).child("init"),
                             heads=("ner",), num_labels=3)
    path = tmp_path / "tagger.ckpt"
    # '#' starts a comment only in config files, and a header line splits
    # at its first '=', so both are plain label text
    for labels in (["O", "B-Chem", "I-Chem"], ["O", "B-C#=x", "I-C#=x"]):
        save_checkpoint(path, config, params, step=5, labels=labels)
        ck = load_checkpoint(path)
        assert ck.labels == labels
        assert ck.params["ner_weight"].shape == (32, 3)


def test_labels_with_reserved_characters_rejected(tmp_path):
    config = synthdata.tiny_config()
    params = init_parameters(config, RngStream(4).child("init"),
                             heads=("ner",), num_labels=2)
    with pytest.raises(ValueError):
        save_checkpoint(tmp_path / "x.ckpt", config, params, labels=["O", "B,strange"])


def test_save_rejects_wrong_shapes_and_missing_tensors(tmp_path):
    config = synthdata.tiny_config()
    params = init_parameters(config, RngStream(5).child("init"))
    short = dict(params)
    del short["pooler_weight"]
    with pytest.raises(ConfigMismatchError, match="pooler_weight"):
        save_checkpoint(tmp_path / "x.ckpt", config, short)
    bad = dict(params)
    bad["sop_weight"] = np.zeros((3, 3), dtype=np.float32)
    with pytest.raises(ConfigMismatchError, match="sop_weight"):
        save_checkpoint(tmp_path / "x.ckpt", config, bad)


def test_header_disagreeing_with_tensors_rejected(saved, tmp_path):
    _, _, path = saved
    raw = path.read_bytes()
    # hidden_size 32 -> 64 keeps the header length unchanged but breaks
    # every H-sized tensor shape
    patched = raw.replace(b"hidden_size=32", b"hidden_size=64")
    assert patched != raw
    target = tmp_path / "patched.ckpt"
    target.write_bytes(patched)
    with pytest.raises(ConfigMismatchError):
        load_checkpoint(target)


def test_truncation_detected(saved, tmp_path):
    _, _, path = saved
    raw = path.read_bytes()
    for cut in (len(raw) - 11, len(raw) // 2, 10):
        stub = tmp_path / f"cut{cut}.ckpt"
        stub.write_bytes(raw[:cut])
        with pytest.raises(CorruptCheckpointError, match="truncated"):
            load_checkpoint(stub)


def test_trailing_garbage_detected(saved, tmp_path):
    _, _, path = saved
    blob = tmp_path / "padded.ckpt"
    blob.write_bytes(path.read_bytes() + b"\x00\x01\x02")
    with pytest.raises(CorruptCheckpointError):
        load_checkpoint(blob)


def test_bad_magic_detected(saved, tmp_path):
    _, _, path = saved
    raw = path.read_bytes()
    fake = tmp_path / "fake.ckpt"
    fake.write_bytes(b"NOTACKPT" + raw[len(MAGIC):])
    with pytest.raises(CorruptCheckpointError, match="magic"):
        load_checkpoint(fake)


def test_unknown_header_key_detected(saved, tmp_path):
    _, _, path = saved
    raw = path.read_bytes()
    # same-length swap keeps the framing valid: "step" -> "stop"
    patched = raw.replace(b"\nstep=", b"\nstop=")
    assert patched != raw
    bad = tmp_path / "unknown.ckpt"
    bad.write_bytes(patched)
    with pytest.raises(CorruptCheckpointError, match="unknown key 'stop'"):
        load_checkpoint(bad)


def test_malformed_header_value_names_the_key(saved, tmp_path):
    _, _, path = saved
    raw = path.read_bytes()
    # same-length swap keeps the framing valid but the value is no int
    patched = raw.replace(b"\nnum_layers=2\n", b"\nnum_layers=z\n")
    assert patched != raw
    bad = tmp_path / "bad_value.ckpt"
    bad.write_bytes(patched)
    with pytest.raises(CorruptCheckpointError,
                       match=r"invalid value 'z' for num_layers \(expected int\)"):
        load_checkpoint(bad)


def test_header_with_retired_share_parameters_key_loads(saved, tmp_path):
    # checkpoints written while ModelConfig had a share_parameters flag, and
    # while headers carried a kind line
    _, params, path = saved
    raw = path.read_bytes()
    start = len(MAGIC) + 4
    (length,) = struct.unpack("<I", raw[len(MAGIC):start])
    header = raw[start:start + length]
    old = header.replace(b"\ndropout_rate=", b"\nshare_parameters=true\ndropout_rate=")
    old = old.replace(b"\noptim_t=", b"\nkind=pretrain\noptim_t=")
    assert old.count(b"\n") == header.count(b"\n") + 2
    legacy = tmp_path / "legacy.ckpt"
    legacy.write_bytes(raw[:len(MAGIC)] + struct.pack("<I", len(old)) + old
                       + raw[start + length:])
    ck = load_checkpoint(legacy)
    assert ck.step == 120
    for name, arr in params.items():
        assert ck.params[name].tobytes() == arr.tobytes(), name


def test_checkpoint_dataclass_defaults():
    config = synthdata.tiny_config()
    ck = Checkpoint(config=config, params={})
    assert ck.step == 0
