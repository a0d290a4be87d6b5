"""In-memory spans recorded around calls into the program, and self times.

A span holds its name, start, end, parent, request id, thread and the CPU
time its thread spent inside it. Spans are kept in
a list while the run works and written out once it ends. The parent is the
innermost span open on the same thread; a span opened on a thread with
nothing open (a worker of the routing pool) takes the span named by
``adopt``, so ``route_one`` spans hang under the ``route_all`` that
scheduled them. A span inherits its parent's request id unless the call
names one.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterator


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: str | None
    error: str | None  # exception class name when the call raised
    thread: int
    cpu: float  # CPU seconds of the calling thread inside the span

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.adopt: tuple[int, str | None] | None = None

    def _stack(self) -> list[tuple[int, str | None]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, *args, request: str | None = None, **kwargs):
        """``fn(*args, **kwargs)`` inside a span called ``name``."""
        stack = self._stack()
        parent = stack[-1] if stack else self.adopt
        parent_id, parent_request = parent if parent else (None, None)
        span_id = next(self._ids)
        request = request if request is not None else parent_request
        stack.append((span_id, request))
        error = None
        cpu_start = time.thread_time()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            cpu = time.thread_time() - cpu_start
            stack.pop()
            self.spans.append(
                Span(span_id, name, start, end, parent_id, request, error, threading.get_ident(), cpu)
            )

    def wrap(self, name: str, fn: Callable, request_of: Callable | None = None) -> Callable:
        """``fn`` with every call recorded as a span; ``request_of(*args)``
        names the request a call belongs to."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            request = request_of(*args) if request_of else None
            return self.call(name, fn, *args, request=request, **kwargs)

        return traced

    @contextlib.contextmanager
    def patch(self, owner, attribute: str, name: str, request_of: Callable | None = None) -> Iterator[None]:
        """Replace ``owner.attribute`` by its traced form for the duration.

        This is how calls made inside the program (the ones ``route_all``
        makes) are traced without editing it: the program looks these names
        up at call time. A missing attribute is an error, not a silent gap.
        """
        original = getattr(owner, attribute)
        setattr(owner, attribute, self.wrap(name, original, request_of))
        try:
            yield
        finally:
            setattr(owner, attribute, original)

    @contextlib.contextmanager
    def adopting(self) -> Iterator[None]:
        """Make the innermost span open on this thread the parent of spans
        opened on threads with nothing open."""
        previous, self.adopt = self.adopt, self._stack()[-1]
        try:
            yield
        finally:
            self.adopt = previous

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


def covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_time(span: Span, spans: list[Span]) -> float:
    """The span's duration minus the part of it its children cover.

    Children running at once on several threads overlap; their union is
    subtracted once, so self time never goes negative.
    """
    children = [(c.start, c.end) for c in spans if c.parent == span.id]
    return span.duration - covered(span.start, span.end, children)


def self_cpu(span: Span, spans: list[Span]) -> float:
    """CPU time of the span's thread inside it, less that of its children
    on the same thread. Unlike self time this excludes waiting, and it
    counts work done while children on other threads were running."""
    return span.cpu - sum(c.cpu for c in spans if c.parent == span.id and c.thread == span.thread)
