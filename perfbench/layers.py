"""Per-layer probes for traced runs.

A :class:`LayerProbe` wraps public callables at each layer boundary of the
program from the benchmark's own process and accumulates wall time and
call counts; :meth:`LayerProbe.restore` puts every original back.  Only
traced runs install probes, so end-to-end numbers never pay for them.

Layer times are inclusive: ``evaluator.evaluate_s`` contains the
compression, accuracy-model, profiling, copy and latency-probe time of the
evaluations it ran, and ``analysis.lint_s`` sits inside it too.
"""

from __future__ import annotations

import copy
import time
import types
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

MIB = 1024.0 * 1024.0

#: compression methods a workload can run (C7 is outside every workload's space)
METHOD_LABELS = ("C1", "C2", "C3", "C4", "C5", "C6", "C8")

#: (name, unit, better) of every per-layer metric of the gated workloads, in
#: BENCHMARK.json order.  The ungated workloads also report the engine,
#: snapshot-store, serve and budget-pruning layers (see ``EXTRA_UNITS``).
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("knowledge.embed_s", "s", "lower"),
    ("solver.propose_s", "s", "lower"),
    ("solver.observe_s", "s", "lower"),
    ("solver.rounds", "count", "higher"),
    ("analysis.feasible_s", "s", "lower"),
    ("analysis.lint_s", "s", "lower"),
    ("evaluator.evaluate_s", "s", "lower"),
    ("evaluator.copy_s", "s", "lower"),
    ("evaluator.steps_executed", "count", "lower"),
    ("evaluator.resume_ratio", "ratio", "higher"),
    *(
        entry
        for label in METHOD_LABELS
        for entry in (
            (f"compression.{label}.apply_s", "s", "lower"),
            (f"compression.{label}.calls", "count", "lower"),
        )
    ),
    ("sim.accuracy_step_s", "s", "lower"),
    ("nn.latency_probe_s", "s", "lower"),
    ("nn.profile_s", "s", "lower"),
    ("nn.plan_hits", "count", "higher"),
    ("nn.plan_misses", "count", "lower"),
    ("nn.workspace_peak_mb", "MB", "lower"),
    ("obs.trace_overhead_pct", "%", "lower"),
)

#: units of the layer values only the ungated workloads produce
EXTRA_UNITS: Dict[str, str] = {
    "analysis.prune_ratio": "ratio",
    "engine.steps_replayed": "count",
    "engine.snapshot_hits": "count",
    "engine.snapshot_foreign_hits": "count",
    "engine.cache_hits": "count",
    "engine.lane_restarts": "count",
    "snapshots.disk_mb": "MB",
    "serve.queue_wait_s": "s",
    "serve.rpc_p50_ms": "ms",
}


class LayerProbe:
    """Timing wrappers around layer-boundary callables."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self._undo: List[Tuple[object, str, object, bool]] = []

    def timed(self, fn: Callable, name: str) -> Callable:
        seconds, calls = self.seconds, self.calls

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += time.perf_counter() - start
                calls[name] += 1

        return wrapper

    def replace(self, owner: object, attr: str, value: object) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`restore`."""
        own = attr in getattr(owner, "__dict__", {})
        self._undo.append((owner, attr, getattr(owner, attr), own))
        setattr(owner, attr, value)

    def wrap(self, owner: object, attr: str, name: str) -> None:
        self.replace(owner, attr, self.timed(getattr(owner, attr), name))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original, own = self._undo.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def instrument(probe: LayerProbe, evaluator, solver=None) -> None:
    """Wrap every in-process layer boundary around ``evaluator``/``solver``."""
    import repro.core.evaluator as evaluator_module
    import repro.nn.bench as nn_bench
    from repro.compression import EXTENSION_METHODS, METHODS

    if solver is not None:
        probe.wrap(solver, "propose", "solver.propose_s")
        probe.wrap(solver, "observe", "solver.observe_s")
        probe.wrap(solver.strategy, "feasible", "analysis.feasible_s")
    probe.wrap(evaluator, "lint", "analysis.lint_s")
    probe.wrap(evaluator, "evaluate", "evaluator.evaluate_s")
    probe.wrap(evaluator, "evaluate_many", "evaluator.evaluate_s")
    probe.wrap(evaluator.accuracy_model, "step", "sim.accuracy_step_s")
    probe.replace(
        evaluator_module, "copy",
        types.SimpleNamespace(deepcopy=probe.timed(copy.deepcopy, "evaluator.copy_s")),
    )
    probe.wrap(evaluator_module, "profile_model", "nn.profile_s")
    probe.wrap(nn_bench, "measure_latency", "nn.latency_probe_s")
    methods = {**METHODS, **EXTENSION_METHODS}
    for label in METHOD_LABELS:
        probe.wrap(methods[label], "apply", f"compression.{label}")


def in_process_layers(
    probe: LayerProbe,
    evaluator,
    tracer,
    strategy=None,
    embed_s: float = 0.0,
) -> Dict[str, float]:
    """Per-layer values of one traced in-process unit."""
    from repro.nn.workspace import workspace_stats

    seconds, calls = probe.seconds, probe.calls
    fresh = [r for r in evaluator.results.values() if not r.scheme.is_empty]
    scheme_steps = sum(r.scheme.length for r in fresh)
    counters = tracer.metrics.snapshot()["counters"]
    values: Dict[str, float] = {
        "knowledge.embed_s": embed_s,
        "solver.propose_s": seconds["solver.propose_s"],
        "solver.observe_s": seconds["solver.observe_s"],
        "solver.rounds": float(strategy.rounds_completed) if strategy else 0.0,
        "analysis.feasible_s": seconds["analysis.feasible_s"],
        "analysis.lint_s": seconds["analysis.lint_s"],
        "analysis.prune_ratio": (
            strategy.proposals_pruned / strategy.proposals_total
            if strategy is not None and strategy.proposals_total else 0.0
        ),
        "evaluator.evaluate_s": seconds["evaluator.evaluate_s"],
        "evaluator.copy_s": seconds["evaluator.copy_s"],
        "evaluator.steps_executed": float(evaluator.steps_executed),
        "evaluator.resume_ratio": (
            1.0 - evaluator.steps_executed / scheme_steps if scheme_steps else 0.0
        ),
        "sim.accuracy_step_s": seconds["sim.accuracy_step_s"],
        "nn.latency_probe_s": seconds["nn.latency_probe_s"],
        "nn.profile_s": seconds["nn.profile_s"],
        "nn.plan_hits": float(counters.get("nn.plan_cache_hits", 0.0)),
        "nn.plan_misses": float(counters.get("nn.plan_cache_misses", 0.0)),
        "nn.workspace_peak_mb": max(
            evaluator.workspace_bytes_peak, workspace_stats()["bytes_peak"]
        ) / MIB,
    }
    for label in METHOD_LABELS:
        values[f"compression.{label}.apply_s"] = seconds[f"compression.{label}"]
        values[f"compression.{label}.calls"] = float(calls[f"compression.{label}"])
    return values


def summarize(
    layers: List[Dict[str, float]],
    traced_s: List[float],
    untraced_s: List[float],
) -> Dict[str, float]:
    """Mean of each layer value over traced units, plus tracing overhead.

    Every ``PER_LAYER`` name is present; one a workload never produces (a
    layer it bypasses) reads 0.
    """
    names = [name for name, _, _ in PER_LAYER]
    names += sorted({name for unit in layers for name in unit} - set(names))
    out: Dict[str, float] = {}
    for name in names:
        samples = [unit.get(name, 0.0) for unit in layers]
        out[name] = sum(samples) / len(samples) if samples else 0.0
    if traced_s and untraced_s:
        out["obs.trace_overhead_pct"] = 100.0 * (sum(traced_s) / sum(untraced_s) - 1.0)
    return out


def shares(values: Dict[str, float], traced_s: List[float]) -> Dict[str, float]:
    """Each per-layer time as a share of the traced timed phase per unit."""
    if not traced_s:
        return {}
    unit = sum(traced_s) / len(traced_s)
    return {
        name: value / unit
        for name, value in values.items()
        if name.endswith("_s") and name != "knowledge.embed_s" and value
    }
