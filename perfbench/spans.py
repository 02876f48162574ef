"""In-memory span recorder that wraps functions from outside the program.

A span is (name, start, end, parent, attrs).  ``Recorder.patched`` swaps the
listed attributes for recording wrappers and restores every original in
``finally``, so code run outside the block is the unpatched program and no
state leaks from one run to the next.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any, Callable

# describe(bound arguments, return value) -> extra attributes for the span
Describe = Callable[[dict, Any], dict]


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """An attribute of a module or class to wrap, and the span name it gets."""

    owner: Any
    attr: str
    name: str
    describe: Describe | None = None


class Recorder:
    """Keeps spans in memory; single caller, no threads."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._clock = clock

    @contextmanager
    def span(self, name: str):
        """A span owned by the caller, e.g. around a phase of the benchmark."""
        index = self._open(name)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    def wrap(self, name: str, fn: Callable, describe: Describe | None = None) -> Callable:
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                out = fn(*args, **kwargs)
                if describe is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    self.spans[index].attrs.update(describe(bound.arguments, out))
                return out
            except BaseException as exc:
                self.spans[index].attrs["error"] = f"{type(exc).__name__}: {exc}"
                raise
            finally:
                self._close(index)

        return wrapper

    @contextmanager
    def patched(self, targets: list[Target]):
        saved = []
        try:
            for t in targets:
                original = getattr(t.owner, t.attr)
                saved.append((t.owner, t.attr, original))
                setattr(t.owner, t.attr, self.wrap(t.name, original, t.describe))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (span, own) in enumerate(zip(self.spans, self_times(self.spans))):
                record = asdict(span) | {"id": i, "self": own}
                fh.write(json.dumps(record, default=str) + "\n")

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self._clock(), parent=parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = self._clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed while span {popped} was open")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(i, []), key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out
