"""The run directory: its lock, its one config rule, how its files reach disk.

run_dir locks a command's output directory (.lock) and keeps INCOMPLETE
there until the command succeeds. A directory holding resumable state (a
checkpoint-NNNNNN.ckpt or examples.bin) runs a command only under the config
its effective.cfg records, written before any state and again only if it
differs, and never a fresh one (finetune), which does not continue the state.

write_file writes every whole file: a temp file beside the target is
fsynced and renamed over it, and the directory is fsynced. After a crash the
target holds its old bytes or its new ones, never a mix, and a write that
returned survives a power loss. open_log appends train.log line by line.
"""

from __future__ import annotations

import fcntl
import os
import re
from contextlib import contextmanager
from pathlib import Path

from .config import ConfigError, effective_text, parse_config

_CHECKPOINT_RE = re.compile(r"^checkpoint-(\d+)\.ckpt$")
EXAMPLES = "examples.bin"  # the pretraining example cache


def checkpoint_path(directory, step: int) -> Path:
    return Path(directory) / f"checkpoint-{step:06d}.ckpt"


def latest_checkpoint(directory) -> Path | None:
    found = [(int(match.group(1)), entry) for entry in Path(directory).iterdir()
             if (match := _CHECKPOINT_RE.match(entry.name))]
    return max(found)[1] if found else None


def _resumable_state(out: Path) -> Path | None:
    """The newest checkpoint in `out`, else its examples.bin, if either exists."""
    state = latest_checkpoint(out) or out / EXAMPLES
    return state if state.exists() else None


def _refuse_other_config(state: Path, effective: Path, config) -> None:
    """Refuse `config` if effective.cfg, which should record the config that
    made `state`, is missing or records another config, naming the first
    differing key in sorted order."""
    if not effective.exists():
        raise ConfigError(f"{state} has no {effective} to say which config made it; "
                          "cannot continue that run")
    have = effective_text(parse_config(effective)).splitlines()
    for recorded, wanted in zip(have, effective_text(config).splitlines()):
        if recorded != wanted:
            raise ConfigError(f"{state} was made with {recorded}, as {effective} records, "
                              f"but the config says {wanted}; cannot continue that run")


@contextmanager
def run_dir(out, config, fresh: bool = False):
    """Lock `out` (created if missing) for a command run under `config` and
    refuse it if its state was made under another, or if there is state at
    all and the command is `fresh`: it starts a run of its own that would
    write over the files of the run it does not continue (finetune's
    train.log). Only a live run blocks."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    lock = out / ".lock"
    fd = os.open(lock, os.O_CREAT | os.O_WRONLY, 0o644)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise OSError(f"output directory {out} is in use by another run "
                          f"(it holds {lock})") from None
        state = _resumable_state(out)
        if state and fresh:
            raise ConfigError(f"{state} belongs to a run this command does not continue; "
                              "give it another --out")
        effective, text = out / "effective.cfg", effective_text(config)
        stale = not effective.exists() or effective.read_text(encoding="utf-8") != text
        if stale and state:
            _refuse_other_config(state, effective, config)
        write_file(out / "INCOMPLETE", "run started; this marker is removed on success\n")
        if stale:
            write_file(effective, text)
        yield out
        (out / "INCOMPLETE").unlink()
    finally:
        os.close(fd)


def write_file(path, content) -> None:
    """Replace the file at `path` with `content`: a str (written as UTF-8),
    bytes, or a callback that streams into the open binary file. A failed
    write leaves the old file as it was and no temp file, and an OSError
    is raised again naming `path`."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as f:
            if callable(content):
                content(f)
            else:
                f.write(content.encode("utf-8") if isinstance(content, str) else content)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
        directory = os.open(os.path.dirname(tmp) or ".", os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc
    finally:
        if os.path.lexists(tmp):
            os.unlink(tmp)


def open_log(path, step: int):
    """Open a step log for appending, line-buffered so a killed run loses no
    complete line, after cutting it back to its last complete line logged at
    or before `step`: a run continuing from `step` then logs each later step
    once."""
    if os.path.exists(path):
        keep = 0
        with open(path, "r+b") as f:
            for line in f:
                head = line.split(b"\t", 1)[0]
                if not line.endswith(b"\n") or not head.isdigit() or int(head) > step:
                    break
                keep += len(line)
            f.truncate(keep)
    return open(path, "a", encoding="utf-8", buffering=1)
