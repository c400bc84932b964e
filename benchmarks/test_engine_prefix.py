"""Benchmark: the shared snapshot store vs the same engine without one.

The workload mirrors one progressive-search round: four unrelated parent
schemes (length 3) are evaluated first, the lanes are recycled (worker
model LRUs die, as they do between rounds), then all sixteen length-4
children arrive as one batch.  Both engines group the batch by shared
prefix and route each group to a lane.

* **baseline** — no snapshot store.  Every child replays its 3-step parent
  prefix from scratch: 16 x 4 = 64 steps.
* **store** — shared disk snapshot store: every child resumes its parent's
  trained model from disk and runs only its own final step: 16 x 1 = 16
  steps.

The 4x step reduction is deterministic (counted, not timed), so the >= 2x
acceptance gate holds on any machine; the store must also be faster on the
wall clock.  Both engines must produce bit-identical results
with identical charged simulated costs — the store only moves wall-clock.
The report is written to ``benchmarks/out/engine_prefix.json``.
"""

import json
import time

from repro.core import EvaluationEngine, EvaluatorConfig, SurrogateEvaluator
from repro.data.tasks import EXP1, transfer_task
from repro.models import resnet20
from repro.space import CompressionScheme, StrategySpace

from .conftest import write_report

TASK = transfer_task(EXP1, "resnet20", 0.27, 0.08, EXP1.model_accuracy)


def _make_evaluator(snapshot_dir=None):
    return SurrogateEvaluator(
        lambda: resnet20(num_classes=10),
        "resnet20",
        "cifar10",
        TASK,
        config=EvaluatorConfig(
            seed=0,
            snapshot_dir=None if snapshot_dir is None else str(snapshot_dir),
        ),
    )


def _workload():
    """4 unrelated length-3 parents, each with 4 length-4 children."""
    space = StrategySpace()
    c3 = space.of_method("C3")
    c2 = space.of_method("C2")
    c4 = space.of_method("C4")
    firsts = [c3[4], c3[8], c2[2], c3[11]]
    middle, last = c4[1], c2[5]
    parents = [CompressionScheme((f, middle, last)) for f in firsts]
    tails = [c3[16], c3[20], c4[3], c2[8]]
    children = [p.extend(t) for p in parents for t in tails]
    return parents, children


def _run_round(workers, snapshot_dir, parents, children):
    """Parents, lane recycle, then the child batch (timed + step-counted)."""
    engine = EvaluationEngine(_make_evaluator(snapshot_dir), workers=workers)
    engine.evaluate_many(parents)
    engine.close()  # recycle lanes: in-memory model LRUs are gone
    steps_before = engine.steps_replayed
    t0 = time.perf_counter()
    results = engine.evaluate_many(children)
    wall_s = time.perf_counter() - t0
    stats = {
        "steps_replayed": engine.steps_replayed - steps_before,
        "wall_s": wall_s,
        "snapshot_hits": engine.snapshot_hits,
        "snapshot_steps_saved": engine.snapshot_steps_saved,
        "total_cost": engine.total_cost,
    }
    engine.close()
    return results, stats


def test_snapshot_store_replays_fewer_steps(tmp_path):
    parents, children = _workload()
    workers = 2

    baseline_results, baseline = _run_round(workers, None, parents, children)
    store_results, store = _run_round(
        workers, tmp_path / "snapshots", parents, children
    )

    identical = all(
        a.scheme.identifier == b.scheme.identifier
        and a.accuracy == b.accuracy
        and a.params == b.params
        and a.cost == b.cost
        and a.step_costs == b.step_costs
        for a, b in zip(baseline_results, store_results)
    )
    reduction = baseline["steps_replayed"] / max(1, store["steps_replayed"])
    speedup = baseline["wall_s"] / store["wall_s"]

    report = {
        "workload": {
            "parents": len(parents),
            "children": len(children),
            "parent_length": parents[0].length,
            "workers": workers,
        },
        "baseline": {
            "dispatch": "prefix groups, no snapshot store",
            "steps_replayed": baseline["steps_replayed"],
            "wall_s": round(baseline["wall_s"], 3),
        },
        "store": {
            "dispatch": "prefix groups + snapshot store",
            "steps_replayed": store["steps_replayed"],
            "wall_s": round(store["wall_s"], 3),
            "snapshot_hits": store["snapshot_hits"],
            "snapshot_steps_saved": store["snapshot_steps_saved"],
        },
        "step_reduction": round(reduction, 2),
        "wall_clock_speedup": round(speedup, 2),
        "bit_identical": identical,
        "charged_cost_equal": baseline["total_cost"] == store["total_cost"],
    }
    write_report("engine_prefix.json", json.dumps(report, indent=2, sort_keys=True))

    assert identical, "the snapshot store changed results"
    assert baseline["total_cost"] == store["total_cost"]
    # acceptance gate: >= 2x fewer replayed steps on the child round
    assert reduction >= 2.0, report
    assert speedup > 1.0, report
