"""In-memory span recorder for the traced benchmark run.

The benchmark records spans from its own files: :meth:`SpanRecorder.patch`
replaces a public function (or method) at run time with a wrapper that
records ``(name, start, end, parent, tag)`` around each call, in every
module where a caller looks the name up.  ``tag`` is an optional
JSON-able value read off the call (a phase count, an answer tier, a row
count).  Spans stay in memory and are written once, when the run ends.
A span's self time is its duration minus the time its child spans cover.

Times are host-wide ``CLOCK_MONOTONIC`` seconds, so spans dumped by the
server process can be windowed by timestamps taken in the client.

The recorder assumes the traced code is sequential (one thread of calls at
a time); the serve workload's server answers one connection closed-loop,
so its awaited ``admit`` calls never overlap.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

_CLOCK = time.CLOCK_MONOTONIC


def _now() -> float:
    return time.clock_gettime(_CLOCK)


class SpanRecorder:
    """Spans as parallel lists (cheap to append on a hot path)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.tags: list[object] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def open(self, name: str) -> int:
        """Start a span (child of the innermost open span); return its index."""
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self.tags.append(None)
        self._stack.append(index)
        self.starts.append(_now())
        return index

    def close(self, index: int) -> None:
        """End span ``index`` (the innermost open one)."""
        self.ends[index] = _now()
        self._stack.pop()

    def wrap(self, func, name: str, tag_of=None):
        """A wrapper of ``func`` recording a span per call.

        ``tag_of(args, result)`` computes the span's tag after the call,
        outside the span's time.
        Coroutine functions get an ``async`` wrapper so the span covers the
        awaited work.
        """
        recorder = self
        if inspect.iscoroutinefunction(func):

            @functools.wraps(func)
            async def async_wrapper(*args, **kwargs):
                index = recorder.open(name)
                try:
                    result = await func(*args, **kwargs)
                except BaseException:
                    recorder.close(index)
                    raise
                recorder.close(index)
                if tag_of is not None:
                    recorder.tags[index] = tag_of(args, result)
                return result

            return async_wrapper

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = recorder.open(name)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                recorder.close(index)
                raise
            recorder.close(index)
            if tag_of is not None:
                recorder.tags[index] = tag_of(args, result)
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str, tag_of=None) -> None:
        """Wrap ``owner.attr`` and every ``repro`` module alias of it.

        ``owner`` is a module or a class.  For a module function, each
        loaded ``repro.*`` module that imported the same object by name
        gets the same wrapper, so calls are traced wherever the caller
        looks the name up.
        """
        original = getattr(owner, attr)
        wrapper = self.wrap(original, name, tag_of)
        targets = [owner]
        if inspect.ismodule(owner):
            targets += [
                module
                for key, module in sorted(sys.modules.items())
                if key.startswith("repro")
                and module is not owner
                and getattr(module, attr, None) is original
            ]
        for target in targets:
            self._undo.append((target, attr, original))
            setattr(target, attr, wrapper)

    def restore(self) -> None:
        """Undo every :meth:`patch`."""
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def dump(self, path) -> None:
        """Write every span, one JSON object per line."""
        with open(path, "w") as handle:
            for index, name in enumerate(self.names):
                record = {
                    "name": name,
                    "start": self.starts[index],
                    "end": self.ends[index],
                    "parent": self.parents[index],
                    "tag": self.tags[index],
                }
                handle.write(json.dumps(record) + "\n")

    @classmethod
    def load(cls, path) -> "SpanRecorder":
        """Read spans written by :meth:`dump`."""
        recorder = cls()
        with open(path) as handle:
            for line in handle:
                record = json.loads(line)
                recorder.names.append(record["name"])
                recorder.starts.append(record["start"])
                recorder.ends.append(record["end"])
                recorder.parents.append(record["parent"])
                recorder.tags.append(record["tag"])
        return recorder


class SpanTable:
    """Per-name summaries of the spans that start inside a time window."""

    def __init__(self, recorder: SpanRecorder, window: tuple[float, float] | None = None):
        lo, hi = window if window is not None else (float("-inf"), float("inf"))
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.tags: dict[str, list] = defaultdict(list)
        self.spans = 0
        names, starts, ends, parents = (
            recorder.names, recorder.starts, recorder.ends, recorder.parents
        )
        child_time = [0.0] * len(names)
        for index, parent in enumerate(parents):
            if parent >= 0:
                child_time[parent] += ends[index] - starts[index]
        for index, name in enumerate(names):
            if not lo <= starts[index] <= hi:
                continue
            duration = ends[index] - starts[index]
            self.spans += 1
            self.calls[name] += 1
            self.self_s[name] += duration - child_time[index]
            self.durations[name].append(duration)
            self.tags[name].append(recorder.tags[index])
            if not _has_ancestor_named(names, parents, index, name):
                self.total[name] += duration

    def self_total(self) -> float:
        """Self time summed over every span in the window."""
        return sum(self.self_s.values())


def _has_ancestor_named(names, parents, index: int, name: str) -> bool:
    parent = parents[index]
    while parent >= 0:
        if names[parent] == name:
            return True
        parent = parents[parent]
    return False
