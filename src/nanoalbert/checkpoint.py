"""Binary checkpoint files for parameters and optimizer state.

Layout (all integers little-endian u32, all tensor values little-endian
float32):

    magic "ABCK0001"
    header byte length, then that many bytes of UTF-8 "key=value" lines
      (every ModelConfig field, plus step/optim_t and optional labels)
    tensor count, then per tensor sorted by name:
      name length, name bytes, rank, dims..., values

Optimizer moments are stored alongside parameters under "optim/m/" and
"optim/v/" name prefixes. Loading validates every tensor shape against the
header config; corrupt files and config/shape disagreements raise distinct
errors so callers can tell truncation from a wrong-model mistake.
"""

from __future__ import annotations

import dataclasses
import os
import struct
import typing
from dataclasses import dataclass

import numpy as np

from .config import ConfigError, format_pairs, parse_pairs
from .model import ModelConfig, parameter_shapes
from .optim import OptimizerState

MAGIC = b"ABCK0001"
_U32 = struct.Struct("<I")


class CorruptCheckpointError(ValueError):
    """File is not a readable checkpoint (bad magic, truncation, garbage)."""


class ConfigMismatchError(ValueError):
    """File parsed fine but tensors disagree with the embedded config."""


@dataclass
class Checkpoint:
    config: ModelConfig
    params: dict[str, np.ndarray]
    step: int = 0
    labels: list[str] | None = None
    optim: OptimizerState | None = None


def _infer_heads(params) -> tuple[str, ...]:
    heads = []
    if "mlm_dense_weight" in params:
        heads.append("mlm")
    if "sop_weight" in params:
        heads.append("sop")
    if "ner_weight" in params:
        heads.append("ner")
    return tuple(heads)


def _expected_shapes(config, params, labels):
    heads = _infer_heads(params)
    num_labels = None
    if "ner" in heads:
        num_labels = len(labels) if labels else int(params["ner_bias"].shape[0])
    return parameter_shapes(config, heads, num_labels)


def _validate(config, params, labels):
    expected = _expected_shapes(config, params, labels)
    for name in sorted(set(expected) | set(params)):
        if name not in params:
            raise ConfigMismatchError(f"missing tensor {name}")
        if name not in expected:
            raise ConfigMismatchError(f"unexpected tensor {name}")
        got = tuple(params[name].shape)
        if got != expected[name]:
            raise ConfigMismatchError(
                f"tensor {name} has shape {got}, config implies {expected[name]}"
            )


def _header_text(config, step, labels, optim_t) -> str:
    pairs = [*dataclasses.asdict(config).items(), ("step", step), ("optim_t", optim_t)]
    if labels is not None:
        for label in labels:
            if "," in label or "\n" in label:
                raise ValueError(f"label {label!r} may not contain ',' or newline")
        pairs.append(("labels", ",".join(labels)))
    return format_pairs(pairs)


def _tensor_bytes(name: str, values: np.ndarray) -> bytes:
    name_b = name.encode("utf-8")
    arr = np.ascontiguousarray(values, dtype="<f4")
    parts = [_U32.pack(len(name_b)), name_b, _U32.pack(arr.ndim)]
    parts.extend(_U32.pack(d) for d in arr.shape)
    parts.append(arr.tobytes())
    return b"".join(parts)


def save_checkpoint(path, config, params, step=0, labels=None, optim=None) -> None:
    """Write atomically (temp file + rename); tensors stored as float32."""
    _validate(config, params, labels)
    tensors = dict(params)
    optim_t = 0
    if optim is not None:
        optim_t = optim.t
        for name, arr in optim.m.items():
            tensors[f"optim/m/{name}"] = arr
        for name, arr in optim.v.items():
            tensors[f"optim/v/{name}"] = arr

    header = _header_text(config, step, labels, optim_t).encode("utf-8")
    blob = [MAGIC, _U32.pack(len(header)), header, _U32.pack(len(tensors))]
    for name in sorted(tensors):
        blob.append(_tensor_bytes(name, tensors[name]))

    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(b"".join(blob))
    os.replace(tmp, path)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise CorruptCheckpointError(
                f"truncated: wanted {n} bytes at offset {self.pos}, "
                f"file has {len(self.data)}"
            )
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]


# older checkpoints carry retired keys: share_parameters (the model only ever
# ran with shared parameters) and kind (the heads are read off the tensors),
# so neither says anything
_HEADER_TYPES = {**typing.get_type_hints(ModelConfig), "step": int, "optim_t": int,
                 "kind": str, "labels": str, "share_parameters": str}


def _parse_header(text: str):
    lines = [(f"header line {n}", line) for n, line in enumerate(text.split("\n"), 1)]
    try:
        pairs = parse_pairs(lines, _HEADER_TYPES)
    except ConfigError as exc:
        raise CorruptCheckpointError(str(exc)) from None
    kwargs = {}
    for f in dataclasses.fields(ModelConfig):
        if f.name not in pairs:
            raise CorruptCheckpointError(f"header missing config key {f.name}")
        kwargs[f.name] = pairs[f.name]
    try:
        config = ModelConfig(**kwargs)
    except ValueError as exc:
        raise ConfigMismatchError(f"invalid config in header: {exc}")
    labels = pairs["labels"].split(",") if "labels" in pairs else None
    return config, pairs.get("step", 0), pairs.get("optim_t", 0), labels


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        reader = _Reader(fh.read())
    if reader.take(len(MAGIC)) != MAGIC:
        raise CorruptCheckpointError("bad magic: not a checkpoint file")
    header = reader.take(reader.u32())
    try:
        config, step, optim_t, labels = _parse_header(header.decode("utf-8"))
    except UnicodeDecodeError:
        raise CorruptCheckpointError("header is not valid UTF-8")

    tensors: dict[str, np.ndarray] = {}
    for _ in range(reader.u32()):
        name = reader.take(reader.u32()).decode("utf-8")
        rank = reader.u32()
        dims = tuple(reader.u32() for _ in range(rank))
        count = int(np.prod(dims)) if dims else 1
        raw = reader.take(4 * count)
        if name in tensors:
            raise CorruptCheckpointError(f"duplicate tensor {name}")
        tensors[name] = np.frombuffer(raw, dtype="<f4").reshape(dims).copy()
    if reader.pos != len(reader.data):
        raise CorruptCheckpointError(
            f"{len(reader.data) - reader.pos} trailing bytes after last tensor"
        )

    params, m, v = {}, {}, {}
    for name, arr in tensors.items():
        if name.startswith("optim/m/"):
            m[name[len("optim/m/"):]] = arr
        elif name.startswith("optim/v/"):
            v[name[len("optim/v/"):]] = arr
        else:
            params[name] = arr

    _validate(config, params, labels)
    optim = None
    if m or v:
        if set(m) != set(params) or set(v) != set(params):
            raise ConfigMismatchError("optimizer state does not cover parameters")
        for name in params:
            if m[name].shape != params[name].shape or v[name].shape != params[name].shape:
                raise ConfigMismatchError(f"optimizer state shape mismatch for {name}")
        optim = OptimizerState(m=m, v=v, t=optim_t)
    return Checkpoint(config=config, params=params, step=step, labels=labels, optim=optim)
