"""In-memory spans around the calls into each layer.

A span has a name, a start, an end, the span that caused it and the id
of the request it belongs to.  Spans are kept in memory and written out
once, when the benchmark ends.  A layer's *self time* is its span's
duration minus the part its child spans cover.  A disabled recorder
hands out one shared no-op span, so the same replay code runs traced
and untraced and the difference is the tracing overhead.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional

_clock = time.perf_counter


class Span:
    __slots__ = ("recorder", "index", "name", "request", "parent", "start", "end", "tag")

    def __init__(self, recorder: "Recorder", index: int, name: str, request, parent) -> None:
        self.recorder = recorder
        self.index = index
        self.name = name
        self.request = request
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.tag: Optional[str] = None

    def __enter__(self) -> "Span":
        self.recorder._stack.append(self)
        self.start = _clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end = _clock()
        self.recorder._stack.pop()
        return False

    @property
    def duration(self) -> float:
        return self.end - self.start


class _NoopSpan:
    tag = None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def __setattr__(self, name, value):
        pass


_NOOP = _NoopSpan()


class Recorder:
    """Collects spans on one thread (the replay is single-threaded)."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack: List[Span] = []

    def span(self, name: str, request=None):
        if not self.enabled:
            return _NOOP
        parent = self._stack[-1].index if self._stack else None
        span = Span(self, len(self.spans), name, request, parent)
        self.spans.append(span)
        return span

    def self_times(self) -> List[float]:
        """Self time per span, by span index: duration minus children."""
        out = [span.duration for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                out[span.parent] -= span.duration
        return out

    def durations(self, name: str, tag: Optional[str] = None, stream: Optional[str] = None):
        """Durations (seconds) of the spans called ``name``; ``stream``
        filters on the request id's stream prefix."""
        return [
            span.duration
            for span in self.spans
            if span.name == name
            and (tag is None or span.tag == tag)
            and (stream is None or (span.request or ("",))[0] == stream)
        ]

    def to_json(self) -> List[Dict[str, object]]:
        return [
            {
                "id": span.index,
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "parent": span.parent,
                "request": list(span.request) if span.request else None,
                "tag": span.tag,
            }
            for span in self.spans
        ]

    def write(self, path: str, extra: Optional[dict] = None) -> None:
        payload = dict(extra or {})
        payload["spans"] = self.to_json()
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
