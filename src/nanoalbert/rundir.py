"""How a run's files reach disk.

Every file a run writes whole goes through write_file: its bytes go to a
temp file beside the target, which is fsynced and renamed over the target,
and then the directory is fsynced. After a crash the target holds its old
bytes or its new ones, never a mix, and a write that returned survives a
power loss. The one other run file is train.log, which open_log appends to
line by line.
"""

from __future__ import annotations

import os


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
