"""JSONL run journal: a crash-safe stream of every span and search event.

A journal is an append-only file of one JSON object per line.  The first
line is a ``meta`` record carrying the schema version and free-form run
information; every subsequent record is a ``span`` or ``event``.  Records
are flushed per line, so a journal from an interrupted ``repro search`` is
readable up to the last completed evaluation and can be summarised post-hoc
with :func:`~repro.obs.summary.summarize_journal`.

Schema (version 1) — every record carries ``"v": 1``:

``meta``   ``{"v", "type": "meta", "schema", "created", "run": {...}}``
``span``   ``{"v", "type": "span", "name", "id", "parent", "t", "dur",
           "cost", "attrs"}`` — ``t`` is wall-clock seconds since the epoch
           at span start, ``dur`` wall seconds, ``cost`` simulated GPU-hours
           attributed to the span (0.0 for all but ``evaluate`` spans).
``event``  ``{"v", "type": "event", "name", "parent", "t", "attrs"}``

``evaluate`` spans may carry kernel-runtime attributes in ``attrs`` —
``workspace_bytes_peak`` (the largest single-kernel scratch measured by
the latency probe), plus ``predicted_act_mem`` / ``drift_act_mem_pct``
when the cost model made an activation-memory prediction.  These are
ordinary attrs under the existing forward-compat contract; no schema bump
is needed.

Forward compatibility: readers must ignore record types and fields they do
not recognise, and must skip unparseable lines rather than fail — a newer
writer or a truncated final line should never make an old journal
unreadable.  :func:`read_journal` implements exactly that contract.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable, Iterator, Optional, Union

#: bump when a record type or field changes meaning (readers skip unknowns)
JOURNAL_SCHEMA_VERSION = 1


class RunJournal:
    """Line-buffered JSONL writer for one run.

    Values inside ``attrs`` must be JSON-serialisable; anything exotic is
    stringified rather than raised on, because losing one attribute is
    better than losing the journal mid-run.
    """

    def __init__(self, path: Union[str, Path], run: Optional[dict] = None):
        self.path = Path(path)
        if self.path.parent != Path(""):
            self.path.parent.mkdir(parents=True, exist_ok=True)
        # buffering=1 == line buffered: every record survives a crash.
        self._handle = open(self.path, "w", buffering=1)
        self.records_written = 0
        self.write(
            {
                "type": "meta",
                "schema": JOURNAL_SCHEMA_VERSION,
                "created": time.time(),
                "run": run or {},
            }
        )

    @property
    def closed(self) -> bool:
        return self._handle.closed

    def write(self, record: dict) -> None:
        if self._handle.closed:
            return
        record = {"v": JOURNAL_SCHEMA_VERSION, **record}
        self._handle.write(json.dumps(record, default=str) + "\n")
        self.records_written += 1

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_journal(
    path: Union[str, Path],
    on_skip: Optional[Callable[[int, str], None]] = None,
) -> Iterator[dict]:
    """Yield every parseable record of a journal, skipping corruption.

    Blank lines, truncated/garbage JSON and non-object lines are skipped
    (``on_skip(line_number, raw_line)`` is invoked for each, when given) —
    the graceful-degradation contract fuzz tests pin down.  Raises ``OSError``
    only when the file itself cannot be opened.
    """
    with open(path, "r", errors="replace") as handle:
        for line_number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                if on_skip is not None:
                    on_skip(line_number, line)
                continue
            if not isinstance(record, dict):
                if on_skip is not None:
                    on_skip(line_number, line)
                continue
            yield record
