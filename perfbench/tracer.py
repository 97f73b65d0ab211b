"""In-memory span tracer that wraps a program's functions from outside it.

A span is ``[name, start, end, parent]``: ``parent`` is the index of the
span that was open when this one started, or -1 for a root. Spans stay in
memory, in ``Tracer.spans``; nothing is written to disk.

``Tracer.wrap`` replaces a class or module attribute with a timing wrapper
and remembers the original. ``Tracer.restore`` (also run when a ``with``
block ends) puts every original object back, so code that runs after the
traced section pays no wrapper cost.
"""

from __future__ import annotations

import contextlib
import functools
import time

import numpy as np


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []
        self._patches = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()

    @contextlib.contextmanager
    def span(self, name):
        """An explicit span around a block of the caller's own code."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name):
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        self.spans[index][1] = self.clock()
        return index

    def _close(self, index):
        self.spans[index][2] = self.clock()
        self._stack.pop()

    def wrap(self, owner, attr, name, key=None, observe=None):
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``key(*args, **kwargs)`` appends a suffix to the span name (for
        example the track a call is for); ``observe(result)`` sees each
        return value. ``attr`` must be a plain function or method defined
        on ``owner`` itself, not inherited, so that restoring it cannot
        shadow a base class.
        """
        original = vars(owner)[attr]

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = self._open(name if key is None else f"{name}.{key(*args, **kwargs)}")
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index)
            if observe is not None:
                observe(result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans):
    """Per-span duration minus the time covered by its direct children.

    Spans on one thread nest, so the children of a span never overlap and
    their cover is the sum of their durations.
    """
    if not spans:
        return np.zeros(0)
    start = np.array([s[1] for s in spans])
    end = np.array([s[2] for s in spans])
    parent = np.array([s[3] for s in spans])
    dur = end - start
    covered = np.zeros(len(spans))
    child = parent >= 0
    np.add.at(covered, parent[child], dur[child])
    return dur - covered


def layer_self_times(spans, self_t=None):
    """Self time summed per layer, the span-name prefix before the first dot."""
    out = {}
    for span, t in zip(spans, self_times(spans) if self_t is None else self_t):
        layer = span[0].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + float(t)
    return out


def span_cost(calls=50_000):
    """Seconds a traced call adds to an untraced one, measured on a no-op.

    Times the same loop bare and wrapped; spans times this estimates the
    tracing overhead of a run without the noise of timing two runs.
    """

    class Noop:
        def call(self):
            pass

    obj = Noop()
    tracer = Tracer()
    t0 = tracer.clock()
    for _ in range(calls):
        obj.call()
    bare = tracer.clock() - t0
    with tracer:
        tracer.wrap(Noop, "call", "noop.call")
        t0 = tracer.clock()
        for _ in range(calls):
            obj.call()
        wrapped = tracer.clock() - t0
    return (wrapped - bare) / calls
