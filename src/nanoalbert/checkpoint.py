"""Binary checkpoint files for parameters and optimizer state.

Layout (all integers little-endian u32, all tensor values little-endian
float32):

    magic "ABCK0001"
    header byte length, then that many bytes of UTF-8 "key=value" lines
      (every ModelConfig field, step, optim_t, and a tagger's labels and,
      from taggers that record it, lowercase)
    tensor count, then per tensor sorted by name:
      name length, name bytes, rank, dims..., values

The header says which tensors follow (tensor_list): a tagger, which has a
labels line, holds the encoder and a tagging head for that many labels;
any other checkpoint the encoder and the MLM and SOP heads. Optimizer
moments may follow each parameter under "optim/m/" and "optim/v/" names,
tripling the count. Saving writes exactly that list, and loading checks
each record's name, rank and dims against its next entry before reading
values. Corrupt files and disagreements with the header raise distinct
errors, so callers can tell truncation from a wrong-model mistake.
"""

from __future__ import annotations

import dataclasses
import math
import os
import struct
import typing
from dataclasses import dataclass

import numpy as np

from .config import ConfigError, format_pairs, parse_pairs
from .model import ModelConfig, parameter_shapes
from .optim import OptimizerState
from .rundir import write_file

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
    lowercase: bool | None = None  # a tagger's input rule; None: not recorded


def tensor_list(config, labels, moments: bool) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of every tensor a checkpoint with this header holds, in
    file order: a tagger's parameters if it has labels, else a pretraining
    model's, and with moments their "optim/m/" and "optim/v/" copies."""
    shapes = parameter_shapes(config, None if labels is None else len(labels))
    if moments:
        shapes |= {f"optim/{k}/{name}": shape for k in "mv" for name, shape in shapes.items()}
    return sorted(shapes.items())


def check_labels(labels) -> None:
    """Refuse a label the header's one comma-joined labels line cannot hold."""
    for label in labels:
        if "," in label or "\n" in label:
            raise ValueError(f"label {label!r} may not contain ',' or newline")


def _header_text(config, step, labels, optim_t, lowercase) -> str:
    pairs = [*dataclasses.asdict(config).items(), ("step", step), ("optim_t", optim_t)]
    if labels is not None:
        check_labels(labels)
        pairs.append(("labels", ",".join(labels)))
    if lowercase is not None:
        pairs.append(("lowercase", lowercase))
    return format_pairs(pairs)


def _write(fh, header: bytes, tensors) -> None:
    fh.write(b"".join([MAGIC, _U32.pack(len(header)), header, _U32.pack(len(tensors))]))
    for name in sorted(tensors):
        name_b = name.encode("utf-8")
        arr = np.ascontiguousarray(tensors[name], dtype="<f4")
        fh.write(b"".join([_U32.pack(len(name_b)), name_b, _U32.pack(arr.ndim),
                           *(_U32.pack(d) for d in arr.shape)]))
        fh.write(arr.data)


def save_checkpoint(path, config, params, step=0, labels=None, optim=None,
                    lowercase=None) -> None:
    """Write atomically and durably (rundir.write_file); tensors as float32.
    The tensors must be those tensor_list gives for this header.

    Each tensor's values go from its array straight to the file, so saving
    holds no copy of the checkpoint in memory.
    """
    tensors = dict(params)
    if optim is not None:
        tensors |= {f"optim/{k}/{name}": arr
                    for k in "mv" for name, arr in getattr(optim, k).items()}
    want = dict(tensor_list(config, labels, optim is not None))
    have = {name: tuple(arr.shape) for name, arr in tensors.items()}
    for name in sorted(want.keys() | have.keys()):
        if have.get(name) != want.get(name):
            raise ConfigMismatchError(f"tensor {name} has shape {have.get(name)}, "
                                      f"but the header implies {want.get(name)}")
    header = _header_text(config, step, labels, optim.t if optim else 0, lowercase).encode("utf-8")
    write_file(path, lambda fh: _write(fh, header, tensors))


class _Reader:
    """Reads an open checkpoint front to back. Each read is checked against
    the file's size before anything is allocated, so a corrupt length is
    refused; saves replace a file by rename, so an open one never shrinks."""

    def __init__(self, fh):
        self.fh = fh
        self.size = os.fstat(fh.fileno()).st_size
        self.pos = 0

    def _advance(self, n: int) -> None:
        if self.pos + n > self.size:
            raise CorruptCheckpointError(
                f"truncated: wanted {n} bytes at offset {self.pos}, "
                f"file has {self.size}"
            )
        self.pos += n

    def take(self, n: int) -> bytes:
        self._advance(n)
        return self.fh.read(n)

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def floats(self, dims: tuple[int, ...]) -> np.ndarray:
        """The next float32 values, read into their own array of shape dims."""
        self._advance(4 * math.prod(dims))
        arr = np.empty(dims, dtype="<f4")
        self.fh.readinto(arr.reshape(-1).view(np.uint8))
        return arr


# older checkpoints carry retired keys: share_parameters (the model only ever
# ran with shared parameters), kind (the labels line says which heads) and
# dropout_rate (the model trains without dropout), so none says anything
_HEADER_TYPES = {**typing.get_type_hints(ModelConfig), "step": int, "optim_t": int,
                 "labels": str, "lowercase": bool,
                 "kind": str, "share_parameters": str, "dropout_rate": str}


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
    return Checkpoint(config=config, params={}, step=pairs.get("step", 0), labels=labels,
                      lowercase=pairs.get("lowercase")), pairs.get("optim_t", 0)


def load_checkpoint(path) -> Checkpoint:
    """The checkpoint in `path`; every error it raises names the file."""
    try:
        with open(path, "rb") as fh:
            return _decode(_Reader(fh))
    except UnicodeDecodeError:
        raise CorruptCheckpointError(f"{path}: header or tensor name is not valid UTF-8") from None
    except (CorruptCheckpointError, ConfigMismatchError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _decode(reader: _Reader) -> Checkpoint:
    if reader.take(len(MAGIC)) != MAGIC:
        raise CorruptCheckpointError("bad magic: not a checkpoint file")
    ck, optim_t = _parse_header(reader.take(reader.u32()).decode("utf-8"))

    count = reader.u32()
    expected = tensor_list(ck.config, ck.labels, moments=False)
    if count == 3 * len(expected):
        expected = tensor_list(ck.config, ck.labels, moments=True)
    elif count < len(expected):
        raise ConfigMismatchError(f"{count} tensors, but the header implies {len(expected)}")
    groups = {"": ck.params, "optim/m": {}, "optim/v": {}}
    for index in range(count):
        name = reader.take(reader.u32()).decode("utf-8")
        want, shape = expected[index] if index < len(expected) else (None, ())
        if name != want:
            raise ConfigMismatchError(f"tensor {index + 1} of {count} is {name}, but the header "
                                      f"implies {want or f'only {len(expected)}'}")
        rank = reader.u32()
        if rank != len(shape):
            raise ConfigMismatchError(f"tensor {name} has rank {rank}, but the header implies "
                                      f"shape {shape}")
        dims = tuple(reader.u32() for _ in range(rank))
        if dims != shape:
            raise ConfigMismatchError(f"tensor {name} has shape {dims}, but the header "
                                      f"implies {shape}")
        group, _, key = name.rpartition("/")
        groups[group][key] = reader.floats(shape)
    if reader.pos != reader.size:
        raise CorruptCheckpointError(
            f"{reader.size - reader.pos} trailing bytes after last tensor"
        )
    if groups["optim/m"]:
        ck.optim = OptimizerState(m=groups["optim/m"], v=groups["optim/v"], t=optim_t)
    return ck
