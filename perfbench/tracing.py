"""In-memory spans for the traced benchmark run.

A span records its layer (the ``qslpath`` module whose public call it
wraps), the call name, the request it belongs to, the span that caused it,
start and end times, counts of work done, and whether the call raised.
Spans stay in memory until the run ends; run.py aggregates them into
the per-layer metrics.  ``NULL_TRACER`` is used with tracing off: its spans
record nothing.
"""

import time


class Span:
    """A timed call; entering it makes it the parent of spans opened inside."""

    __slots__ = ("tracer", "layer", "name", "request", "parent", "start", "end", "counts", "error")

    def __init__(self, tracer, layer, name):
        self.tracer = tracer
        self.layer = layer
        self.name = name
        self.request = tracer.request
        self.parent = tracer.stack[-1] if tracer.stack else None
        self.start = 0.0
        self.end = 0.0
        self.counts = {}
        self.error = False

    def __enter__(self):
        self.tracer.stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.end = time.perf_counter()
        self.error = exc_type is not None
        self.tracer.stack.pop()
        return False

    @property
    def duration(self):
        return self.end - self.start

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.request = None

    def span(self, layer, name):
        span = Span(self, layer, name)
        self.spans.append(span)
        return span


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def add(self, key, value):
        pass


class _NullTracer:
    _span = _NullSpan()

    def span(self, layer, name):
        return self._span


NULL_TRACER = _NullTracer()
