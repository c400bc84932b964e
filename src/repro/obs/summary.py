"""Post-hoc journal summarisation — where did the simulated GPU-hours go?

``repro trace summarize run.jsonl`` renders the answer for any journal,
including one cut short by an interrupted run: per-span wall/cost
attribution, the cache-hit / lint-reject / fresh-evaluation breakdown, and
the final recorded trajectory point (hypervolume, front size, best
accuracy).

The cost invariant this module checks against: summing ``evaluate`` span
costs in journal order replays the exact float additions the evaluator's
``total_cost`` accumulator performed, so ``JournalSummary.sim_cost_total``
equals ``Evaluator.total_cost`` bit-for-bit for a complete journal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Union

from .journal import JOURNAL_SCHEMA_VERSION, read_journal


@dataclass
class JournalSummary:
    """Aggregated view of one run journal."""

    path: str
    schema: Optional[int] = None
    run: dict = field(default_factory=dict)
    records: int = 0
    skipped_lines: int = 0
    #: per-span-name aggregates
    span_counts: Dict[str, int] = field(default_factory=dict)
    span_wall: Dict[str, float] = field(default_factory=dict)
    span_cost: Dict[str, float] = field(default_factory=dict)
    event_counts: Dict[str, int] = field(default_factory=dict)
    #: simulated GPU-hours summed over ``evaluate`` spans in journal order
    sim_cost_total: float = 0.0
    fresh_evaluations: int = 0
    cache_hits_memory: int = 0
    cache_hits_disk: int = 0
    lint_rejects: int = 0
    worker_failures: int = 0
    rounds: int = 0
    train_epochs: int = 0
    #: largest single-kernel scratch any evaluation's latency probe
    #: reported (bytes)
    workspace_bytes_peak: int = 0
    #: last ``search.trajectory`` event seen, if any
    final_trajectory: Optional[dict] = None

    @property
    def solver(self) -> Optional[str]:
        """The solver registry name recorded in the run header, if any."""
        value = self.run.get("solver")
        return value if isinstance(value, str) else None

    def format(self) -> str:
        # An empty or headerless journal has no schema to report; a crashed
        # run may leave exactly that behind, and the summary must stay usable.
        schema = "unknown" if self.schema is None else f"v{self.schema}"
        lines = [f"journal {self.path} (schema {schema})"]
        if self.records == 0:
            lines.append(
                "  empty journal"
                + (
                    f" ({self.skipped_lines} unparseable lines skipped)"
                    if self.skipped_lines
                    else " (no records)"
                )
            )
        if self.run:
            run = ", ".join(f"{k}={v}" for k, v in sorted(self.run.items()))
            lines.append(f"  run: {run}")
        lines.append(
            f"  {self.records} records"
            + (f", {self.skipped_lines} unparseable lines skipped" if self.skipped_lines else "")
        )
        lines.append(
            f"  evaluations: {self.fresh_evaluations} fresh, "
            f"{self.cache_hits_memory} memory hits, {self.cache_hits_disk} disk hits, "
            f"{self.lint_rejects} lint-rejected, {self.worker_failures} worker failures"
        )
        lines.append(
            f"  simulated cost: {self.sim_cost_total:.4f} GPU-hours over "
            f"{self.rounds} search rounds"
        )
        if self.train_epochs:
            lines.append(f"  training: {self.train_epochs} epochs")
        if self.workspace_bytes_peak:
            lines.append(
                f"  kernel scratch: workspace peak "
                f"{self.workspace_bytes_peak / 1024.0:.0f} KiB"
            )
        if self.final_trajectory:
            t = self.final_trajectory
            lines.append(
                "  final trajectory: "
                f"HV {t.get('hypervolume', 0.0):.4f}, front {t.get('front_size', 0)}, "
                f"best acc {100 * t.get('best_accuracy', 0.0):.2f}%"
            )
        if self.span_counts:
            lines.append("  wall-time attribution:")
            for name in sorted(self.span_wall, key=lambda n: -self.span_wall[n]):
                cost = self.span_cost.get(name, 0.0)
                cost_part = f", {cost:.4f} sim-h" if cost else ""
                lines.append(
                    f"    {name:<14s} {self.span_counts[name]:>6d} spans  "
                    f"{self.span_wall[name]:8.3f}s wall{cost_part}"
                )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "schema": self.schema,
            "run": self.run,
            "solver": self.solver,
            "records": self.records,
            "skipped_lines": self.skipped_lines,
            "span_counts": self.span_counts,
            "span_wall": self.span_wall,
            "span_cost": self.span_cost,
            "event_counts": self.event_counts,
            "sim_cost_total": self.sim_cost_total,
            "fresh_evaluations": self.fresh_evaluations,
            "cache_hits_memory": self.cache_hits_memory,
            "cache_hits_disk": self.cache_hits_disk,
            "lint_rejects": self.lint_rejects,
            "worker_failures": self.worker_failures,
            "rounds": self.rounds,
            "train_epochs": self.train_epochs,
            "workspace_bytes_peak": self.workspace_bytes_peak,
            "final_trajectory": self.final_trajectory,
        }


def summarize_journal(path: Union[str, Path]) -> JournalSummary:
    """Fold a journal (possibly truncated/corrupted) into a summary.

    Unknown record types and span/event names are counted but otherwise
    ignored — the forward-compatibility contract of the journal schema.
    """
    summary = JournalSummary(path=str(path))

    def on_skip(line_number: int, raw: str) -> None:
        summary.skipped_lines += 1

    for record in read_journal(path, on_skip=on_skip):
        summary.records += 1
        kind = record.get("type")
        if kind == "meta":
            if summary.schema is None:
                summary.schema = record.get("schema", JOURNAL_SCHEMA_VERSION)
            # Merge every meta record's run dict in journal order: solvers
            # annotate the run after the header is written (annotate_run),
            # and later annotations extend/override earlier ones.
            run = record.get("run")
            if isinstance(run, dict):
                merged = dict(summary.run)
                merged.update(run)
                summary.run = merged
            continue
        name = record.get("name")
        if not isinstance(name, str):
            continue
        if kind == "span":
            summary.span_counts[name] = summary.span_counts.get(name, 0) + 1
            duration = record.get("dur")
            if isinstance(duration, (int, float)):
                summary.span_wall[name] = summary.span_wall.get(name, 0.0) + duration
            cost = record.get("cost")
            if isinstance(cost, (int, float)) and cost:
                summary.span_cost[name] = summary.span_cost.get(name, 0.0) + cost
            if name == "evaluate":
                summary.fresh_evaluations += 1
                if isinstance(cost, (int, float)):
                    # journal order == charge order: same floats, same sum
                    summary.sim_cost_total += cost
                attrs = record.get("attrs")
                attrs = attrs if isinstance(attrs, dict) else {}
                peak = attrs.get("workspace_bytes_peak")
                if isinstance(peak, (int, float)) and peak > summary.workspace_bytes_peak:
                    summary.workspace_bytes_peak = int(peak)
            elif name == "search.round":
                summary.rounds += 1
            elif name == "train.epoch":
                summary.train_epochs += 1
        elif kind == "event":
            summary.event_counts[name] = summary.event_counts.get(name, 0) + 1
            attrs = record.get("attrs")
            attrs = attrs if isinstance(attrs, dict) else {}
            if name == "cache_hit":
                if attrs.get("source") == "disk":
                    summary.cache_hits_disk += 1
                else:
                    summary.cache_hits_memory += 1
            elif name == "lint_reject":
                summary.lint_rejects += 1
            elif name == "worker_failed":
                summary.worker_failures += 1
            elif name == "search.trajectory":
                summary.final_trajectory = attrs
    return summary
