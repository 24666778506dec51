"""Spans recorded from outside the program, around calls into its modules.

A Recorder keeps spans (name, start, end, parent) and counters in memory.
Wrappers are installed on module attributes where the caller looks them up
and are removed again when the patch context closes, so the program itself
is never edited. Self time is a span's duration minus its direct children's.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager


class Recorder:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def wrap(self, name: str, fn, count=None):
        """fn timed as span `name`; count(recorder, args, result) may add to
        the counters."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self, args, result)
            return result

        return wrapper

    def totals(self):
        """name -> (inclusive seconds, self seconds, calls)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, list] = {}
        for (name, start, end, _), inner in zip(self.spans, child_time):
            entry = out.setdefault(name, [0.0, 0.0, 0])
            entry[0] += end - start
            entry[1] += end - start - inner
            entry[2] += 1
        return out

    def outermost(self, names) -> float:
        """Seconds inside spans in `names` that no other such span encloses."""
        inside = [False] * len(self.spans)
        total = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            enclosed = parent >= 0 and inside[parent]
            inside[i] = enclosed or name in names
            if name in names and not enclosed:
                total += end - start
        return total

    def dump(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans]


@contextmanager
def patched(recorder: Recorder, targets):
    """Install wrappers for targets = [(span name, [(module, attribute), ...],
    count or None)]; every lookup site of one function gets the same wrapper,
    so a call is never timed twice."""
    saved = []
    try:
        for name, sites, count in targets:
            fn = getattr(*sites[0])
            wrapper = recorder.wrap(name, fn, count)
            for owner, attr in sites:
                original = getattr(owner, attr)
                if original is not fn:
                    raise RuntimeError(f"{name}: {owner.__name__}.{attr} is not "
                                       f"the function found at the first site")
                saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
