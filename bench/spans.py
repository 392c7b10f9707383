"""Spans and counters recorded from outside qsense.

``instrument`` swaps module attributes that ``qsense.harness`` looks up at
call time (``build_context``, ``simulate``, ``fit``, ``geometry.align`` ...)
for wrappers that open a span around the original call, and restores them on
exit.  ``src/`` is never edited, so a span measures exactly what a caller of
that public function waits for.

Only the single-process path is traced: forked pool workers would record
spans into their own copy of the tracer.
"""

from __future__ import annotations

import functools
import math
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from qsense import diagnostics, geometry, harness, inference
from qsense.errors import OutOfInjectivityError


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: int | None = None
    trace_id: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """In-memory span store.  Spans of one experiment share ``trace_id``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.trace_id = 0
        self._stack = []

    @contextmanager
    def span(self, name, **attrs):
        rec = Span(name, self.clock(),
                   parent=self._stack[-1] if self._stack else None,
                   trace_id=self.trace_id, attrs=attrs)
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec.end = self.clock()
            self._stack.pop()

    def children(self):
        """Map span index -> indices of its direct children."""
        kids = {i: [] for i in range(len(self.spans))}
        for i, s in enumerate(self.spans):
            if s.parent is not None:
                kids[s.parent].append(i)
        return kids

    def self_time(self, i, kids):
        """Duration of span i minus the part of it its children cover."""
        covered, reach = 0.0, -math.inf
        for j in sorted(kids[i], key=lambda j: self.spans[j].start):
            lo, hi = max(self.spans[j].start, reach), self.spans[j].end
            if hi > lo:
                covered += hi - lo
                reach = hi
        return self.spans[i].duration - covered


# ---------------------------------------------------------------------------
# Loss-call counting
# ---------------------------------------------------------------------------

_COUNTED = ("value", "d1", "d2", "d3")


@functools.cache
def _counting_class(cls):
    def counted(method):
        base = getattr(cls, method)

        def call(self, z, y):
            self.calls[method] += 1
            self.samples += int(np.size(z))
            return base(self, z, y)
        return call
    return type(f"Counting{cls.__name__}", (cls,),
                {m: counted(m) for m in _COUNTED})


def counting_loss(loss):
    """A copy of ``loss`` whose class subclasses the loss's own class and
    counts calls and samples of value/d1/d2/d3, so isinstance checks and
    returned values are unchanged."""
    proxy = object.__new__(_counting_class(type(loss)))
    proxy.__dict__.update(vars(loss))
    proxy.calls = Counter()
    proxy.samples = 0
    return proxy


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------

def _plain(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)
    return wrapper


def _run_replications(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as span:
            records, context = fn(*args, **kwargs)
            span.attrs.update(n=context.n, records=records)
        return records, context
    return wrapper


def _replicate(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(ctx, r):
        with tracer.span(name, n=ctx.n):
            return fn(ctx, r)
    return wrapper


def _fit(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(data, loss, *args, **kwargs):
        counted = counting_loss(loss)
        with tracer.span(name, n=data.n) as span:
            try:
                result = fn(data, counted, *args, **kwargs)
                span.attrs.update(iterations=result.iterations,
                                  converged=result.converged)
            finally:
                # X and the symmetrized X + X^T the fit builds, plus y
                span.attrs.update(loss_calls=counted.calls,
                                  loss_samples=counted.samples,
                                  design_bytes=2 * data.X.nbytes + data.y.nbytes)
        return result
    return wrapper


def _population_hessian(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name, samples=int(kwargs.get("n_mc") or 0)):
            return fn(*args, **kwargs)
    return wrapper


def _taylor(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as span:
            try:
                return fn(*args, **kwargs)
            except OutOfInjectivityError:
                span.attrs["skipped"] = True
                raise
    return wrapper


# (module, attribute, span name, wrapper factory)
BOUNDARY = (
    (harness, "run_replications", "harness.run_replications", _run_replications),
    (harness, "build_context", "harness.build_context", _plain),
)
LAYERS = BOUNDARY + (
    (harness, "_replicate", "harness.replicate", _replicate),
    (harness, "simulate", "model.simulate", _plain),
    (harness, "fit", "estimator.fit", _fit),
    (geometry, "align", "geometry.align", _plain),
    (inference, "represent", "inference.represent", _plain),
    (inference, "restricted_population_hessian",
     "inference.restricted_population_hessian", _population_hessian),
    (diagnostics, "taylor_residual_check",
     "diagnostics.taylor_residual_check", _taylor),
)


@contextmanager
def instrument(tracer, targets):
    """Wrap each target for the duration of the block, then restore it."""
    saved = []
    try:
        for module, attr, name, factory in targets:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, factory(tracer, name, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
