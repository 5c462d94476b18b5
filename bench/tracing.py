"""Spans recorded from outside the library, around the benchmark's own calls.

A ``Tracer`` keeps every span in memory: its name ``layer.function``,
start and end (``time.perf_counter`` seconds), the span that was open
when it started, and the operation it belongs to.  While
``track_memory`` is set, spans named in ``MEMORY_SPANS``, and spans
nested in them, also record the peak of ``tracemalloc``-traced memory
above the level at their start.  ``tracemalloc`` runs only then: it
slows every numpy allocation, several times over for small arrays, so
spans timed with it would misstate where time goes.
``NullTracer`` has the same interface and adds nothing, so the timed
run and the traced run execute the same benchmark code.

Calls inside the library become visible only where the library accepts
an object from its caller: the denoiser passed to ``reverse_sample`` and
the random stream it draws from.  The benchmark passes timing wrappers
for both (``Tracer.rng`` makes the stream wrapper).
"""

import json
import time
import tracemalloc
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field
from types import SimpleNamespace

MEMORY_SPANS = frozenset({"diffusion.reverse_sample"})


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    op: str | None
    start: float
    end: float = 0.0
    peak_bytes: int = 0
    work: float = 0    # a count the caller attaches: bytes, sites, FLOPs
    _base: int = field(default=0, repr=False)
    _child_peak: int = field(default=0, repr=False)

    @property
    def ms(self):
        return 1000.0 * (self.end - self.start)


class NullTracer:
    """The untraced run: every hook calls straight through."""

    enabled = False
    op_id = None

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def rng(self, stream):
        return stream

    def span(self, name):
        return nullcontext(SimpleNamespace())


class Tracer:
    """Records spans in memory, with peak memory inside ``MEMORY_SPANS``."""

    enabled = True

    def __init__(self):
        self.spans = []
        self.op_id = None
        self.track_memory = False
        self._stack = []

    @contextmanager
    def span(self, name):
        owns_tracing = (self.track_memory and name in MEMORY_SPANS
                        and not tracemalloc.is_tracing())
        if owns_tracing:
            tracemalloc.start()
        current, peak = tracemalloc.get_traced_memory()
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            # the reset below forgets the parent's peak so far; keep it
            parent._child_peak = max(parent._child_peak, peak)
        tracemalloc.reset_peak()
        span = Span(id=len(self.spans), name=name,
                    parent=parent.id if parent else None, op=self.op_id,
                    start=time.perf_counter(), _base=current)
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            _, peak = tracemalloc.get_traced_memory()
            span.peak_bytes = max(peak, span._child_peak) - span._base
            if owns_tracing:
                tracemalloc.stop()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def rng(self, stream):
        return TimedRng(stream, self)

    def named(self, name):
        return [s for s in self.spans if s.name == name]

    def self_ms(self, spans):
        """Durations of ``spans`` minus the time their direct children cover."""
        child_ms = {}
        for s in self.spans:
            if s.parent is not None:
                child_ms[s.parent] = child_ms.get(s.parent, 0.0) + s.ms
        return [s.ms - child_ms.get(s.id, 0.0) for s in spans]

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                rec = {k: v for k, v in asdict(s).items() if not k.startswith("_")}
                fh.write(json.dumps(rec) + "\n")


class TimedRng:
    """Delegates every attribute to the wrapped ``RngStream``.

    ``standard_normal`` is passed through unchanged but timed as a
    ``noise.standard_normal`` span, so the draws made inside
    ``reverse_sample`` nest under its span.
    """

    def __init__(self, stream, tracer):
        self._stream = stream
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._stream, name)

    def standard_normal(self, shape=None):
        return self._tracer.call("noise.standard_normal",
                                 self._stream.standard_normal, shape)
