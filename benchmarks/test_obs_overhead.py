"""Benchmark: observability overhead on the hottest evaluator path.

The repro.obs acceptance bar is that the *default* (no tracer attached)
configuration shows no measurable slowdown: every instrumented hot path
calls a shared no-op tracer, ``NULL_TRACER``.  This bench times the memory-cache-hit path of
``SchemeEvaluator.evaluate`` — the cheapest, most-called operation and
therefore the one most sensitive to instrumentation — in three modes:

* ``null``     — default NULL_TRACER (what untraced users run);
* ``enabled``  — in-memory Tracer (events + counters, no disk);
* ``journal``  — Tracer streaming to a JSONL journal.
"""

import time

from repro.core import EvaluatorConfig, SurrogateEvaluator
from repro.data.tasks import EXP1, transfer_task
from repro.models import resnet20
from repro.obs import NULL_TRACER, RunJournal, Tracer, attach_tracer
from repro.space import CompressionScheme, StrategySpace

from .conftest import write_report

HITS = 2000


def _hit_evaluator():
    task = transfer_task(EXP1, "resnet20", 0.27, 0.08, EXP1.model_accuracy)
    evaluator = SurrogateEvaluator(
        lambda: resnet20(num_classes=10), "resnet20", "cifar10", task,
        config=EvaluatorConfig(seed=0),
    )
    scheme = CompressionScheme((StrategySpace().of_method("C3")[4],))
    evaluator.evaluate(scheme)  # pay once; every further call is a memory hit
    return evaluator, scheme


def _time_hits(evaluator, scheme, n=HITS) -> float:
    """Median-of-5 seconds for n cache-hit evaluate() calls."""
    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(n):
            evaluator.evaluate(scheme)
        samples.append(time.perf_counter() - t0)
    samples.sort()
    return samples[len(samples) // 2]


def test_null_tracer_hit_path_overhead(benchmark, tmp_path):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    evaluator, scheme = _hit_evaluator()

    assert evaluator.tracer is NULL_TRACER
    null_s = _time_hits(evaluator, scheme)

    attach_tracer(evaluator, Tracer(keep_spans=10))
    enabled_s = _time_hits(evaluator, scheme)

    attach_tracer(evaluator, Tracer(journal=RunJournal(tmp_path / "b.jsonl"), keep_spans=10))
    journal_s = _time_hits(evaluator, scheme)
    evaluator.tracer.close()

    per_hit_ns = lambda s: 1e9 * s / HITS
    report = "\n".join([
        f"cache-hit evaluate() x{HITS}, median of 5 runs",
        f"  null tracer (default): {per_hit_ns(null_s):10.0f} ns/hit",
        f"  in-memory tracer:      {per_hit_ns(enabled_s):10.0f} ns/hit",
        f"  journaling tracer:     {per_hit_ns(journal_s):10.0f} ns/hit",
        f"  enabled/null ratio:    {enabled_s / null_s:10.2f}x",
        f"  journal/null ratio:    {journal_s / null_s:10.2f}x",
    ])
    write_report("obs_overhead.txt", report)

    # The default path must not be slower than tracing: its tracer calls
    # are no-ops.  2x headroom absorbs scheduler noise on CI boxes.
    assert null_s <= enabled_s * 2.0
    # And it must stay micro-fast in absolute terms (a real slowdown — e.g.
    # accidentally journaling by default — is orders of magnitude bigger).
    assert per_hit_ns(null_s) < 250_000  # < 0.25 ms per hit


def test_traced_search_results_identical_to_untraced(benchmark):
    """Tracing is purely observational: same schemes, same costs, same front."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    from repro.core.solver import run_solver

    def run(trace: bool):
        evaluator, _ = _hit_evaluator()
        if trace:
            attach_tracer(evaluator, Tracer())
        return run_solver(
            "random", evaluator, StrategySpace(), gamma=0.3, budget_hours=0.3, seed=0
        )

    plain, traced = run(False), run(True)
    assert plain.total_cost == traced.total_cost
    assert plain.evaluations == traced.evaluations
    assert [r.scheme.identifier for r in plain.front] == [
        r.scheme.identifier for r in traced.front
    ]
