"""Hierarchical span tracing with wall-time and simulated-cost attribution.

A :class:`Tracer` produces nested :class:`Span` records::

    search.round                 one optimisation round / generation / batch
      engine.batch               one evaluate_many submission
        evaluate                 one charged evaluation (carries sim_cost)
          train.fit              one gradient-training run
            train.epoch          one epoch inside it
        cache_hit / lint_reject / worker_failed     (events, not spans)

Spans record wall-clock duration and — for ``evaluate`` — the simulated
GPU-hours charged, so a journal can attribute *exactly* where a search
budget went: the sum of ``evaluate`` span costs in journal order equals
``Evaluator.total_cost`` bit-for-bit (same floats, same addition order).

The default tracer on every instrumented object is the shared
:data:`NULL_TRACER`: ``enabled`` is ``False`` and every method is a no-op,
so instrumented code calls a shared no-op tracer instead of branching on
whether it is traced.  ``enabled`` is read only where tracing decides what
gets computed (the cost-model prediction on ``evaluate`` spans, a search
result's ``obs`` snapshot).  Tracers are single-threaded by design; engine
worker processes never trace (spans are emitted by the parent at merge
time).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator, List, Optional

from .journal import RunJournal
from .metrics import NULL_METRICS, Metrics


class Span:
    """One timed, attributed region of work."""

    __slots__ = ("name", "span_id", "parent_id", "wall_start", "_t0", "duration", "sim_cost", "attrs")

    def __init__(self, name: str, span_id: int, parent_id: Optional[int], attrs: dict):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.wall_start = time.time()
        self._t0 = time.perf_counter()
        self.duration = 0.0
        self.sim_cost = 0.0
        self.attrs = attrs

    def set(self, **attrs) -> None:
        """Attach attributes discovered while the span is open."""
        self.attrs.update(attrs)

    def add_cost(self, hours: float) -> None:
        """Attribute simulated GPU-hours to this span."""
        self.sim_cost += hours

    def to_record(self) -> dict:
        return {
            "type": "span",
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "t": self.wall_start,
            "dur": self.duration,
            "cost": self.sim_cost,
            "attrs": self.attrs,
        }


class Tracer:
    """Collects spans/events into metrics, memory and (optionally) a journal.

    ``keep_spans`` bounds in-memory retention — journals are the medium for
    long runs, but tests and ``AutoMC(trace=True)`` users want ``.spans``
    inspectable without touching disk.
    """

    enabled = True

    def __init__(
        self,
        journal: Optional[RunJournal] = None,
        metrics: Optional[Metrics] = None,
        keep_spans: int = 100_000,
    ):
        self.journal = journal
        self.metrics = metrics if metrics is not None else Metrics()
        self.keep_spans = keep_spans
        self.spans: List[Span] = []
        self.events: List[dict] = []
        self.run_info: dict = {}
        self._stack: List[Span] = []
        self._next_id = 1

    # -- span lifecycle ----------------------------------------------------
    def start(self, name: str, **attrs) -> Span:
        """Open a span manually (pair with :meth:`finish`); prefer :meth:`span`."""
        span = Span(name, self._next_id, self._stack[-1].span_id if self._stack else None, attrs)
        self._next_id += 1
        self._stack.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.duration = time.perf_counter() - span._t0
        # Tolerate out-of-order finishes (an exception unwinding through
        # nested manual spans): pop up to and including this span.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
        self.metrics.counter(f"span.{span.name}").inc()
        self.metrics.histogram(f"dur.{span.name}").observe(span.duration)
        if span.sim_cost:
            self.metrics.counter(f"sim_hours.{span.name}").add(span.sim_cost)
        if len(self.spans) < self.keep_spans:
            self.spans.append(span)
        if self.journal is not None:
            self.journal.write(span.to_record())

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        span = self.start(name, **attrs)
        try:
            yield span
        finally:
            self.finish(span)

    # -- run metadata ------------------------------------------------------
    def annotate_run(self, **fields) -> None:
        """Append run-level metadata (e.g. the solver name) to the journal.

        Written as an extra ``meta`` record; readers merge the ``run`` dicts
        of every meta record in order, so later annotations extend (and can
        override) the header the journal was opened with.  Kept in
        ``self.run_info`` for in-memory tracers.
        """
        self.run_info.update(fields)
        if self.journal is not None:
            from .journal import JOURNAL_SCHEMA_VERSION

            self.journal.write(
                {
                    "type": "meta",
                    "schema": JOURNAL_SCHEMA_VERSION,
                    "run": dict(fields),
                }
            )

    # -- events ------------------------------------------------------------
    def event(self, name: str, **attrs) -> None:
        """Record an instantaneous occurrence (cache hit, rejection, ...)."""
        self.metrics.counter(f"event.{name}").inc()
        record = {
            "type": "event",
            "name": name,
            "parent": self._stack[-1].span_id if self._stack else None,
            "t": time.time(),
            "attrs": attrs,
        }
        if len(self.events) < self.keep_spans:
            self.events.append(record)
        if self.journal is not None:
            self.journal.write(record)

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        """Flush and close the journal, if any (idempotent)."""
        if self.journal is not None:
            self.journal.close()


class _NullSpan:
    """Shared inert span: accepts `set`/`add_cost`, records nothing."""

    __slots__ = ()
    name = ""
    span_id = 0
    parent_id = None
    duration = 0.0
    sim_cost = 0.0
    attrs: dict = {}

    def set(self, **attrs) -> None:
        pass

    def add_cost(self, hours: float) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_SPAN = _NullSpan()


def _null_tracer() -> "NullTracer":
    return NULL_TRACER


class NullTracer:
    """Do-nothing tracer; the default on every instrumented object.

    ``span()`` hands back a shared no-op context manager and ``metrics`` is
    the shared :data:`~repro.obs.metrics.NULL_METRICS`, so even unguarded
    instrumentation costs a couple of attribute lookups.  Copying or
    pickling yields the singleton, so evaluators that get deep-copied keep
    sharing one instance.
    """

    enabled = False
    journal = None
    metrics = NULL_METRICS
    spans: List[Span] = []
    events: List[dict] = []
    run_info: dict = {}

    def start(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def finish(self, span) -> None:
        pass

    def span(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, **attrs) -> None:
        pass

    def annotate_run(self, **fields) -> None:
        pass

    def close(self) -> None:
        pass

    def __deepcopy__(self, memo) -> "NullTracer":
        return self

    def __copy__(self) -> "NullTracer":
        return self

    def __reduce__(self):
        return (_null_tracer, ())


NULL_TRACER = NullTracer()


def attach_tracer(evaluator, tracer) -> None:
    """Point an evaluator stack (engine → backend → trainer) at ``tracer``.

    Walks ``.evaluator`` wrappers (the :class:`~repro.core.engine.
    EvaluationEngine` chain) and any ``.trainer`` each level owns, setting
    ``tracer`` on every object so spans from all layers interleave into one
    journal.  Duck-typed on purpose: anything with a ``tracer`` slot joins
    in, anything without silently gains the attribute.
    """
    seen = set()
    target = evaluator
    while target is not None and id(target) not in seen:
        seen.add(id(target))
        target.tracer = tracer
        trainer = getattr(target, "trainer", None)
        if trainer is not None:
            trainer.tracer = tracer
        target = getattr(target, "evaluator", None)
