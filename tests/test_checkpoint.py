"""Checkpoint file format: exact round-trips and corruption detection.

Weights are stored as little-endian float32, so a load after save must be
bitwise identical and a forward pass from the reloaded parameters must match
the original to the last bit.
"""

import re
import struct
import tracemalloc

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
    params = init_parameters(config, RngStream(4).child("init"), num_labels=3)
    path = tmp_path / "tagger.ckpt"
    # '#' starts a comment only in config files, and a header line splits
    # at its first '=', so both are plain label text
    for labels in (["O", "B-Chem", "I-Chem"], ["O", "B-C#=x", "I-C#=x"]):
        save_checkpoint(path, config, params, step=5, labels=labels)
        ck = load_checkpoint(path)
        assert ck.labels == labels
        assert ck.params["ner_weight"].shape == (32, 3)


def test_a_tagger_keeps_its_lowercase_rule(saved, tmp_path):
    config = synthdata.tiny_config()
    params = init_parameters(config, RngStream(4).child("init"), num_labels=3)
    path = tmp_path / "tagger.ckpt"
    for lowercase in (True, False):
        save_checkpoint(path, config, params, labels=["O", "B-X", "I-X"], lowercase=lowercase)
        assert load_checkpoint(path).lowercase is lowercase
    assert load_checkpoint(saved[2]).lowercase is None  # not recorded


def test_a_tensor_count_the_header_does_not_imply_is_refused(saved, tmp_path):
    _, params, path = saved
    raw = path.read_bytes()
    at = len(MAGIC) + 4 + struct.unpack("<I", raw[len(MAGIC):len(MAGIC) + 4])[0]
    bad = tmp_path / "short.ckpt"
    bad.write_bytes(raw[:at] + struct.pack("<I", len(params) - 1) + raw[at + 4:])
    with pytest.raises(ConfigMismatchError) as refused:
        load_checkpoint(bad)
    assert str(refused.value) == (f"{bad}: {len(params) - 1} tensors, but the header "
                                  f"implies {len(params)}")


def test_labels_with_reserved_characters_rejected(tmp_path):
    config = synthdata.tiny_config()
    params = init_parameters(config, RngStream(4).child("init"), num_labels=2)
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
    _, params, path = saved
    raw = path.read_bytes()
    for cut in (len(raw) - 11, len(raw) // 2, 10):
        stub = tmp_path / f"cut{cut}.ckpt"
        stub.write_bytes(raw[:cut])
        with pytest.raises(CorruptCheckpointError, match="truncated"):
            load_checkpoint(stub)
    # the first cut lies inside the last tensor's values; the error names
    # where they start
    payload = params[max(params)].nbytes
    with pytest.raises(CorruptCheckpointError, match=re.escape(
            f"truncated: wanted {payload} bytes at offset {len(raw) - payload}, "
            f"file has {len(raw) - 11}")):
        load_checkpoint(tmp_path / f"cut{len(raw) - 11}.ckpt")


def test_duplicate_tensor_detected(saved, tmp_path):
    _, params, path = saved
    raw = path.read_bytes()
    # append a second copy of the last tensor and count it in the header
    name = max(params)
    arr = params[name]
    record = (struct.pack("<I", len(name)) + name.encode() + struct.pack("<I", arr.ndim)
              + struct.pack(f"<{arr.ndim}I", *arr.shape) + arr.astype("<f4").tobytes())
    assert raw.endswith(record)
    at = len(MAGIC) + 4 + struct.unpack("<I", raw[len(MAGIC):len(MAGIC) + 4])[0]
    (count,) = struct.unpack("<I", raw[at:at + 4])
    dup = tmp_path / "dup.ckpt"
    dup.write_bytes(raw[:at] + struct.pack("<I", count + 1) + raw[at + 4:] + record)
    with pytest.raises(ConfigMismatchError) as refused:
        load_checkpoint(dup)
    assert str(refused.value) == (f"{dup}: tensor {count + 1} of {count + 1} is {name}, "
                                  f"but the header implies only {count}")


def test_rank_numpy_cannot_allocate_is_refused_naming_file_and_tensor(saved, tmp_path):
    _, params, path = saved
    raw = bytearray(path.read_bytes())
    at = len(MAGIC) + 4 + struct.unpack("<I", raw[len(MAGIC):len(MAGIC) + 4])[0] + 4
    name = min(params)  # tensors are stored sorted by name
    assert raw[at:at + 4 + len(name)] == struct.pack("<I", len(name)) + name.encode()
    at += 4 + len(name)
    assert struct.unpack("<I", raw[at:at + 4])[0] == params[name].ndim == 1
    raw[at] ^= 1 << 6  # rank 1 -> 65, more dimensions than numpy allocates
    # the header implies rank 1 for this tensor, so no dims or values are read
    bad = tmp_path / "rank.ckpt"
    bad.write_bytes(raw)
    with pytest.raises(ConfigMismatchError) as refused:
        load_checkpoint(bad)
    assert str(refused.value) == (f"{bad}: tensor {name} has rank 65, but the header "
                                  f"implies shape {params[name].shape}")


def test_empty_tensor_numpy_cannot_size_is_refused_naming_file_and_tensor(saved, tmp_path):
    _, params, path = saved
    raw = path.read_bytes()
    name = min(params)
    at = (len(MAGIC) + 4 + struct.unpack("<I", raw[len(MAGIC):len(MAGIC) + 4])[0] + 4
          + 4 + len(name))
    assert raw[at:at + 8] == struct.pack("<2I", 1, params[name].shape[0])
    # no values, but numpy would still size the other dims and find them too
    # big; the header implies rank 1 for this tensor, so none of it is read
    dims = (0, 2**32 - 1, 2**32 - 1)
    bad = tmp_path / "empty.ckpt"
    bad.write_bytes(raw[:at] + struct.pack("<4I", 3, *dims) + raw[at + 8:])
    with pytest.raises(ConfigMismatchError) as refused:
        load_checkpoint(bad)
    assert str(refused.value) == (f"{bad}: tensor {name} has rank 3, but the header "
                                  f"implies shape {params[name].shape}")


def test_save_and_load_hold_no_copy_of_the_file(tmp_path):
    # tensors go between arrays and the file directly: saving allocates
    # little beside the parameters, and loading little beyond its result
    config = synthdata.tiny_config(vocab_size=4000, embedding_size=32, hidden_size=64)
    params = init_parameters(config, RngStream(6).child("init"))
    state = OptimizerState.for_params(params)
    path = tmp_path / "big.ckpt"
    save_checkpoint(path, config, params, optim=state)  # first calls import and cache
    load_checkpoint(path)
    tracemalloc.start()
    try:
        save_checkpoint(path, config, params, optim=state)
        save_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        ck = load_checkpoint(path)
        load_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    tensor_bytes = sum(a.nbytes for part in (ck.params, ck.optim.m, ck.optim.v)
                       for a in part.values())
    assert tensor_bytes > 2_000_000
    assert save_peak <= 0.25 * path.stat().st_size
    assert load_peak <= 1.25 * tensor_bytes


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


def _with_header(path, target, edit):
    """Copy the checkpoint at path to target with edit(header bytes) as its
    header; the tensor bytes stay as they are."""
    raw = path.read_bytes()
    start = len(MAGIC) + 4
    (length,) = struct.unpack("<I", raw[len(MAGIC):start])
    header = edit(raw[start:start + length])
    target.write_bytes(raw[:len(MAGIC)] + struct.pack("<I", len(header)) + header
                       + raw[start + length:])
    return target


def _assert_loads_unchanged(target, params):
    ck = load_checkpoint(target)
    assert ck.step == 120
    for name, arr in params.items():
        assert ck.params[name].tobytes() == arr.tobytes(), name


def test_header_with_retired_share_parameters_key_loads(saved, tmp_path):
    # checkpoints written while ModelConfig had a share_parameters flag, and
    # while headers carried a kind line
    _, params, path = saved

    def edit(header):
        old = header.replace(b"\ntype_vocab_size=", b"\nshare_parameters=true\ntype_vocab_size=")
        old = old.replace(b"\noptim_t=", b"\nkind=pretrain\noptim_t=")
        assert old.count(b"\n") == header.count(b"\n") + 2
        return old

    _assert_loads_unchanged(_with_header(path, tmp_path / "legacy.ckpt", edit), params)


def test_parent_header_with_dropout_rate_loads(saved, tmp_path):
    # headers written while ModelConfig had a dropout_rate, which followed
    # type_vocab_size, next to the older share_parameters and kind lines
    _, params, path = saved

    def edit(header):
        old = header.replace(b"\nstep=", b"\nshare_parameters=true\ndropout_rate=0.0\nstep=")
        old = old.replace(b"\noptim_t=", b"\nkind=pretrain\noptim_t=")
        assert b"\ntype_vocab_size=2\nshare_parameters=true\ndropout_rate=0.0\n" in old
        return old

    _assert_loads_unchanged(_with_header(path, tmp_path / "parent.ckpt", edit), params)


def test_load_errors_name_the_file(saved, tmp_path):
    _, _, path = saved
    raw = path.read_bytes()
    cases = [
        (b"NOTACKPT" + raw[len(MAGIC):], CorruptCheckpointError, "bad magic"),
        (raw[:100], CorruptCheckpointError, "truncated"),
        (raw.replace(b"\nstep=", b"\nst\xffp="), CorruptCheckpointError, "not valid UTF-8"),
        (raw.replace(b"hidden_size=32", b"hidden_size=64"), ConfigMismatchError, "shape"),
    ]
    for n, (data, error, what) in enumerate(cases):
        target = tmp_path / f"bad{n}.ckpt"
        target.write_bytes(data)
        with pytest.raises(error, match=rf"^{re.escape(str(target))}: .*{what}"):
            load_checkpoint(target)


def test_checkpoint_dataclass_defaults():
    config = synthdata.tiny_config()
    ck = Checkpoint(config=config, params={})
    assert ck.step == 0
