"""In-memory span recorder for the traced benchmark run.

A span records its name, start, end, parent span, the op it belongs to,
whether it ended in an exception, and a few attributes read from the
call's arguments or result. ``Recorder.wrap`` replaces a function at the
module or class attribute its callers look it up by; ``uninstall`` puts
every original back. The untraced run uses ``NULL``, whose spans are
no-op contexts, and installs no wrapper at all.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int
    op: int
    error: bool = False
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class NullRecorder:
    """Stand-in for the untraced run: spans cost one call and record nothing."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def op(self, op_id: int):
        return contextlib.nullcontext()


NULL = NullRecorder()


class Recorder:
    """Collects spans in memory; single-threaded, like the program it traces."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = [0]
        self._op = -1
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> Span:
        span = Span(len(self.spans) + 1, name, time.perf_counter(), 0.0,
                    self._stack[-1], self._op)
        self.spans.append(span)
        self._stack.append(span.sid)
        return span

    def _close(self, span: Span, error: bool) -> None:
        span.end = time.perf_counter()
        span.error = error
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        except BaseException:
            self._close(span, True)
            raise
        self._close(span, False)

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Root span of one op; spans outside any op get op id -1."""
        self._op = op_id
        try:
            with self.span("op") as span:
                yield span
        finally:
            self._op = -1

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        """Trace every call made through ``owner.attr``.

        ``observe(args, kwargs, result)`` returns attributes to store on
        the span; it runs after the call, outside the span's interval.
        """
        original = owner.__dict__[attr]
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = recorder._open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                recorder._close(span, True)
                raise
            recorder._close(span, False)
            if observe is not None:
                span.attrs = observe(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def by_op(self) -> dict[int, list[Span]]:
        out: dict[int, list[Span]] = {}
        for span in self.spans:
            out.setdefault(span.op, []).append(span)
        return out

    def self_times(self) -> dict[int, float]:
        """Span duration minus the time its children cover, by span id.

        Calls are sequential, so children never overlap each other.
        """
        child_time: dict[int, float] = {}
        for span in self.spans:
            child_time[span.parent] = child_time.get(span.parent, 0.0) + span.dur
        return {s.sid: s.dur - child_time.get(s.sid, 0.0) for s in self.spans}

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.sid, "name": s.name, "start": s.start,
                    "end": s.end, "parent": s.parent, "op": s.op,
                    "error": s.error, **s.attrs,
                }) + "\n")
