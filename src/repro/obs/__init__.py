"""repro.obs — structured tracing, metrics and run journaling.

Zero-dependency observability for the search/engine/training stack:

* :class:`Tracer` / :data:`NULL_TRACER` — hierarchical spans
  (``search.round`` → ``engine.batch`` → ``evaluate`` → ``train.epoch``)
  with wall-time and simulated-GPU-hour attribution; untraced runs call a
  shared no-op tracer, so they execute the same code as traced ones.
* :class:`Metrics` — counters / gauges / histograms, snapshot-able to JSON.
* :class:`RunJournal` / :func:`read_journal` / :func:`summarize_journal` —
  a crash-safe JSONL stream of every span and event, replayable post-hoc
  via ``repro trace summarize``.

See ``docs/observability.md`` for the span taxonomy and journal schema.
"""

from .journal import JOURNAL_SCHEMA_VERSION, RunJournal, read_journal
from .metrics import NULL_METRICS, Counter, Gauge, Histogram, Metrics, NullMetrics
from .summary import JournalSummary, summarize_journal
from .tracing import NULL_TRACER, NullTracer, Span, Tracer, attach_tracer

__all__ = [
    "JOURNAL_SCHEMA_VERSION",
    "JournalSummary",
    "Counter",
    "Gauge",
    "Histogram",
    "Metrics",
    "NullMetrics",
    "NULL_METRICS",
    "NULL_TRACER",
    "NullTracer",
    "RunJournal",
    "Span",
    "Tracer",
    "attach_tracer",
    "read_journal",
    "summarize_journal",
]
