"""Tests for repro.obs: tracing, metrics, journaling and summaries.

The load-bearing invariant (an ISSUE acceptance criterion) is *exact* cost
attribution: summing ``evaluate`` span costs in journal order must equal
``Evaluator.total_cost`` bit-for-bit, for serial evaluators, serial engines
and parallel engines alike.
"""

import copy
import json
import pickle

import pytest

from repro.analysis.linter import SchemeRejected
from repro.core import EvaluationEngine, EvaluatorConfig, SurrogateEvaluator
from repro.core.engine import WorkerError, _WorkerFailure
from repro.data.tasks import EXP1, transfer_task
from repro.models import resnet8, resnet20
from repro.nn import Trainer
from repro.obs import (
    JOURNAL_SCHEMA_VERSION,
    NULL_METRICS,
    NULL_TRACER,
    Metrics,
    RunJournal,
    Tracer,
    attach_tracer,
    read_journal,
    summarize_journal,
)

TASK = transfer_task(EXP1, "resnet20", 0.27, 0.08, EXP1.model_accuracy)


def make_surrogate(seed=0):
    return SurrogateEvaluator(
        lambda: resnet20(num_classes=10),
        "resnet20",
        "cifar10",
        TASK,
        config=EvaluatorConfig(seed=seed),
    )


def _make_batch(space):
    from repro.space import CompressionScheme

    c3 = space.of_method("C3")
    c2 = space.of_method("C2")
    base = CompressionScheme((c3[4],))
    return [base, base.extend(c3[8]), CompressionScheme((c2[2],)), base]


# --------------------------------------------------------------------------- #
class TestMetrics:
    def test_counter_gauge_histogram(self):
        metrics = Metrics()
        metrics.counter("evals").inc()
        metrics.counter("evals").inc(2.5)
        metrics.gauge("front").set(7)
        for value in (1.0, 3.0, 2.0):
            metrics.histogram("dur").observe(value)

        assert metrics.counter("evals").value == 3.5
        assert metrics.gauge("front").value == 7
        hist = metrics.histogram("dur")
        assert (hist.count, hist.min, hist.max) == (3, 1.0, 3.0)
        assert hist.mean == pytest.approx(2.0)

    def test_get_or_create_returns_same_instrument(self):
        metrics = Metrics()
        assert metrics.counter("x") is metrics.counter("x")
        assert metrics.histogram("x") is metrics.histogram("x")

    def test_snapshot_is_json_serialisable(self):
        metrics = Metrics()
        metrics.counter("a").inc()
        metrics.gauge("b").set(0.5)
        metrics.histogram("c").observe(2.0)
        snap = json.loads(json.dumps(metrics.snapshot()))
        assert snap["counters"] == {"a": 1.0}
        assert snap["gauges"] == {"b": 0.5}
        assert snap["histograms"]["c"]["count"] == 1

    def test_null_metrics_accepts_everything(self):
        NULL_METRICS.counter("x").inc()
        NULL_METRICS.gauge("y").set(1.0)
        NULL_METRICS.histogram("z").observe(3.0)
        assert NULL_METRICS.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}


# --------------------------------------------------------------------------- #
class TestTracer:
    def test_span_nesting_records_parent_ids(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert [s.name for s in tracer.spans] == ["inner", "outer"]  # finish order

    def test_event_attaches_to_open_span(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            tracer.event("cache_hit", source="memory")
        assert tracer.events[0]["parent"] == outer.span_id
        assert tracer.metrics.counter("event.cache_hit").value == 1

    def test_finish_tolerates_exception_unwind(self):
        tracer = Tracer()
        outer = tracer.start("outer")
        tracer.start("inner")  # never finished explicitly
        tracer.finish(outer)   # unwinds past the abandoned inner span
        assert tracer._stack == []

    def test_span_metrics_and_cost(self):
        tracer = Tracer()
        with tracer.span("evaluate") as span:
            span.add_cost(0.25)
            span.set(pr=0.4)
        assert tracer.metrics.counter("span.evaluate").value == 1
        assert tracer.metrics.counter("sim_hours.evaluate").value == 0.25
        assert tracer.metrics.histogram("dur.evaluate").count == 1
        assert tracer.spans[0].attrs["pr"] == 0.4

    def test_keep_spans_bounds_memory(self, tmp_path):
        journal = RunJournal(tmp_path / "j.jsonl")
        tracer = Tracer(journal=journal, keep_spans=2)
        for i in range(5):
            with tracer.span("s", i=i):
                pass
        tracer.close()
        assert len(tracer.spans) == 2
        # ... but the journal still has all five
        spans = [r for r in read_journal(journal.path) if r.get("type") == "span"]
        assert len(spans) == 5


class TestNullTracer:
    def test_disabled_and_inert(self):
        assert NULL_TRACER.enabled is False
        with NULL_TRACER.span("anything", x=1) as span:
            span.add_cost(1.0)
            span.set(y=2)
        NULL_TRACER.event("whatever")
        NULL_TRACER.metrics.counter("c").inc()
        NULL_TRACER.close()
        assert NULL_TRACER.spans == [] and NULL_TRACER.events == []

    def test_copy_and_pickle_preserve_singleton(self):
        assert copy.deepcopy(NULL_TRACER) is NULL_TRACER
        assert copy.copy(NULL_TRACER) is NULL_TRACER
        assert pickle.loads(pickle.dumps(NULL_TRACER)) is NULL_TRACER

    def test_attach_tracer_walks_engine_and_trainer(self):
        evaluator = make_surrogate()
        engine = EvaluationEngine(evaluator, workers=0)
        tracer = Tracer()
        attach_tracer(engine, tracer)
        assert engine.tracer is tracer
        assert evaluator.tracer is tracer
        trainer = getattr(evaluator, "trainer", None)
        if trainer is not None:
            assert trainer.tracer is tracer


# --------------------------------------------------------------------------- #
class TestJournal:
    def test_meta_record_first_with_schema(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(path, run={"algorithm": "Test"}) as journal:
            journal.write({"type": "event", "name": "x", "attrs": {}})
        records = list(read_journal(path))
        assert records[0]["type"] == "meta"
        assert records[0]["schema"] == JOURNAL_SCHEMA_VERSION
        assert records[0]["run"] == {"algorithm": "Test"}
        assert all(r["v"] == JOURNAL_SCHEMA_VERSION for r in records)

    def test_write_after_close_is_noop(self, tmp_path):
        journal = RunJournal(tmp_path / "run.jsonl")
        journal.close()
        journal.write({"type": "event", "name": "late"})
        journal.close()  # idempotent
        assert len(list(read_journal(journal.path))) == 1

    def test_unserialisable_attrs_are_stringified(self, tmp_path):
        journal = RunJournal(tmp_path / "run.jsonl")
        journal.write({"type": "event", "name": "x", "attrs": {"obj": object()}})
        journal.close()
        record = list(read_journal(journal.path))[1]
        assert isinstance(record["attrs"]["obj"], str)

    def test_reader_skips_corruption(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(path) as journal:
            journal.write({"type": "event", "name": "good", "attrs": {}})
        with open(path, "a") as handle:
            handle.write("not json at all\n")
            handle.write("[1, 2, 3]\n")          # parseable but not an object
            handle.write('{"type": "event", "na')  # truncated mid-record
        skipped = []
        records = list(read_journal(path, on_skip=lambda n, raw: skipped.append(n)))
        assert len(records) == 2
        assert len(skipped) == 3


# --------------------------------------------------------------------------- #
class TestCostAttribution:
    """The acceptance criterion: journal cost sum == total_cost, exactly."""

    def _journal_cost(self, path):
        return summarize_journal(path).sim_cost_total

    def test_serial_evaluator_exact(self, tmp_path, space):
        path = tmp_path / "run.jsonl"
        tracer = Tracer(journal=RunJournal(path))
        evaluator = make_surrogate()
        attach_tracer(evaluator, tracer)
        evaluator.evaluate_many(_make_batch(space))
        tracer.close()
        assert self._journal_cost(path) == evaluator.total_cost
        assert summarize_journal(path).fresh_evaluations == evaluator.evaluation_count

    def test_serial_engine_exact_with_cache_hits(self, tmp_path, space):
        path = tmp_path / "run.jsonl"
        tracer = Tracer(journal=RunJournal(path))
        engine = EvaluationEngine(make_surrogate(), workers=0)
        attach_tracer(engine, tracer)
        batch = _make_batch(space)
        engine.evaluate_many(batch)
        engine.evaluate_many(batch)  # pure memory hits, zero extra cost
        tracer.close()
        summary = summarize_journal(path)
        assert summary.sim_cost_total == engine.total_cost
        assert summary.cache_hits_memory > 0
        assert summary.span_counts["engine.batch"] == 2

    def test_parallel_engine_exact(self, tmp_path, space):
        path = tmp_path / "run.jsonl"
        tracer = Tracer(journal=RunJournal(path))
        with EvaluationEngine(make_surrogate(), workers=2) as engine:
            attach_tracer(engine, tracer)
            engine.evaluate_many(_make_batch(space))
            tracer.close()
            assert self._journal_cost(path) == engine.total_cost
            # bit-identical to a serial run of the same batch
            serial = make_surrogate()
            serial.evaluate_many(_make_batch(space))
            assert engine.total_cost == serial.total_cost

    def test_disk_cache_hits_pay_nothing(self, tmp_path, space):
        cache_dir = tmp_path / "cache"
        warm = EvaluationEngine(make_surrogate(), workers=0, cache_dir=cache_dir)
        warm.evaluate_many(_make_batch(space))

        path = tmp_path / "run.jsonl"
        tracer = Tracer(journal=RunJournal(path))
        cold = EvaluationEngine(make_surrogate(), workers=0, cache_dir=cache_dir)
        attach_tracer(cold, tracer)
        cold.evaluate_many(_make_batch(space))
        tracer.close()
        summary = summarize_journal(path)
        assert summary.cache_hits_disk == len({s.identifier for s in _make_batch(space)})
        assert summary.sim_cost_total == 0.0 == cold.total_cost

    def test_lint_reject_emits_event_not_cost(self, tmp_path, space):
        from repro.space import CompressionScheme

        c3 = space.of_method("C3")
        doomed = CompressionScheme(tuple(c3[0] for _ in range(6)))  # L006
        path = tmp_path / "run.jsonl"
        tracer = Tracer(journal=RunJournal(path))
        evaluator = make_surrogate()
        attach_tracer(evaluator, tracer)
        with pytest.raises(SchemeRejected):
            evaluator.evaluate(doomed)
        tracer.close()
        summary = summarize_journal(path)
        assert summary.lint_rejects == 1
        assert summary.sim_cost_total == 0.0 == evaluator.total_cost


# --------------------------------------------------------------------------- #
class TestWorkerFailure:
    def test_worker_failures_aggregate_into_one_error(self, space):
        """Every _WorkerFailure in a batch surfaces in one WorkerError."""
        engine = EvaluationEngine(make_surrogate(), workers=2)
        tracer = Tracer()
        attach_tracer(engine, tracer)
        batch = _make_batch(space)[:2]

        engine._dispatch = lambda fresh: {
            s.identifier: _WorkerFailure(s.identifier, "RuntimeError", "boom", "tb text")
            for s in fresh
        }
        with pytest.raises(WorkerError) as excinfo:
            engine.evaluate_many(batch)
        error = excinfo.value
        # first failure mirrored as top-level attributes, all carried in .failures
        assert error.scheme_id == batch[0].identifier
        assert error.cause_type == "RuntimeError"
        assert "boom" in str(error)
        assert [f.scheme_id for f in error.failures] == [s.identifier for s in batch]
        assert engine.worker_failures == 2
        assert tracer.metrics.counter("worker_failures").value == 2
        failed_events = [e for e in tracer.events if e["name"] == "worker_failed"]
        assert len(failed_events) == 2

    def test_worker_failure_charges_nothing(self, space):
        engine = EvaluationEngine(make_surrogate(), workers=2)
        batch = _make_batch(space)[:2]

        engine._dispatch = lambda fresh: {
            s.identifier: _WorkerFailure(s.identifier, "ValueError", "nope", "")
            for s in fresh
        }
        with pytest.raises(WorkerError):
            engine.evaluate_many(batch)
        assert engine.total_cost == 0.0
        assert engine.evaluation_count == 0


# --------------------------------------------------------------------------- #
class TestTrainingSpans:
    def test_trainer_emits_fit_and_epoch_spans(self, tiny_data):
        train, _ = tiny_data
        tracer = Tracer()
        trainer = Trainer(lr=0.05, batch_size=32, seed=0)
        trainer.tracer = tracer
        model = resnet8(num_classes=4)
        report = trainer.fit(model, train, epochs=2)
        names = [s.name for s in tracer.spans]
        assert names.count("train.fit") == 1
        assert names.count("train.epoch") == 2
        fit_span = next(s for s in tracer.spans if s.name == "train.fit")
        assert fit_span.attrs["final_loss"] == report.final_loss
        epochs = [s for s in tracer.spans if s.name == "train.epoch"]
        assert [s.attrs["epoch"] for s in epochs] == [0, 1]
        assert sum(s.attrs["steps"] for s in epochs) == report.steps

    def test_untraced_trainer_output_identical(self, tiny_data):
        train, _ = tiny_data
        plain = Trainer(lr=0.05, batch_size=32, seed=0)
        traced = Trainer(lr=0.05, batch_size=32, seed=0)
        traced.tracer = Tracer()
        losses_plain = plain.fit(resnet8(num_classes=4), train, epochs=1).losses
        losses_traced = traced.fit(resnet8(num_classes=4), train, epochs=1).losses
        assert losses_plain == losses_traced


def _make_automc(**kwargs):
    from repro.core.api import AutoMC
    from repro.core.progressive import ProgressiveConfig
    from repro.knowledge.embedding import EmbeddingConfig

    return AutoMC(
        make_surrogate(),
        embedding_config=EmbeddingConfig(
            rounds=1, transr_epochs_per_round=1, nn_exp_epochs_per_round=2
        ),
        progressive_config=ProgressiveConfig(
            sample_size=2, evals_per_round=2, candidate_subsample=32
        ),
        **kwargs,
    )


# --------------------------------------------------------------------------- #
class TestSearchIntegration:
    def test_random_search_journal_matches_total_cost(self, tmp_path):
        from repro.core.solver import run_solver
        from repro.space import StrategySpace

        path = tmp_path / "run.jsonl"
        tracer = Tracer(journal=RunJournal(path, run={"algorithm": "Random"}))
        evaluator = make_surrogate()
        attach_tracer(evaluator, tracer)
        result = run_solver(
            "random", evaluator, StrategySpace(), gamma=0.3, budget_hours=0.15, seed=0
        )
        tracer.close()

        summary = summarize_journal(path)
        assert summary.sim_cost_total == evaluator.total_cost == result.total_cost
        assert summary.fresh_evaluations == result.evaluations
        assert summary.rounds >= 1
        assert summary.final_trajectory is not None
        assert summary.final_trajectory["evaluations"] == result.evaluations
        assert result.wall_seconds > 0.0
        assert result.obs is not None
        assert result.obs["counters"]["span.evaluate"] == result.evaluations

    def test_untraced_search_has_no_obs_payload(self):
        from repro.core.solver import run_solver
        from repro.space import StrategySpace

        evaluator = make_surrogate()
        result = run_solver(
            "random", evaluator, StrategySpace(), gamma=0.3, budget_hours=0.1, seed=0
        )
        assert result.obs is None
        assert result.wall_seconds > 0.0

    def test_automc_trace_path_and_close(self, tmp_path):
        path = tmp_path / "automc.jsonl"
        automc = _make_automc(budget_hours=0.3, trace=str(path))
        assert automc.tracer.enabled
        result = automc.search()  # closes the tracer on the way out
        assert automc.tracer.journal.closed
        summary = summarize_journal(path)
        assert summary.sim_cost_total == result.total_cost
        # The header names the API; the solver annotates the run afterwards
        # (Tracer.annotate_run) and both merge into one run dict.
        assert summary.run["api"] == "AutoMC"
        assert summary.run["solver"] == "progressive"
        assert summary.run["algorithm"] == "AutoMC"
        assert summary.solver == "progressive"

    def test_automc_trace_true_in_memory(self):
        automc = _make_automc(budget_hours=0.3, trace=True)
        automc.search()
        assert automc.tracer.journal is None
        assert any(s.name == "evaluate" for s in automc.tracer.spans)
        assert any(s.name == "search.round" for s in automc.tracer.spans)

    def test_automc_default_is_null_tracer(self):
        automc = _make_automc(budget_hours=0.05)
        assert automc.tracer is NULL_TRACER


# --------------------------------------------------------------------------- #
class TestSummary:
    def test_summary_of_truncated_journal(self, tmp_path, space):
        path = tmp_path / "run.jsonl"
        tracer = Tracer(journal=RunJournal(path))
        evaluator = make_surrogate()
        attach_tracer(evaluator, tracer)
        evaluator.evaluate_many(_make_batch(space))
        tracer.close()

        full = path.read_text().splitlines()
        truncated = tmp_path / "cut.jsonl"
        # cut mid-way through the last record, as a crash would
        truncated.write_text("\n".join(full[:-1]) + "\n" + full[-1][: len(full[-1]) // 2])
        summary = summarize_journal(truncated)
        assert summary.skipped_lines == 1
        assert summary.records == len(full) - 1
        assert 0.0 < summary.sim_cost_total <= evaluator.total_cost

    def test_format_and_to_dict(self, tmp_path, space):
        path = tmp_path / "run.jsonl"
        tracer = Tracer(journal=RunJournal(path, run={"seed": 0}))
        evaluator = make_surrogate()
        attach_tracer(evaluator, tracer)
        evaluator.evaluate_many(_make_batch(space))
        tracer.close()
        summary = summarize_journal(path)
        text = summary.format()
        assert "fresh" in text and "simulated cost" in text and "seed=0" in text
        payload = json.loads(json.dumps(summary.to_dict()))
        assert payload["fresh_evaluations"] == summary.fresh_evaluations

    def test_unknown_record_types_are_ignored(self, tmp_path):
        path = tmp_path / "future.jsonl"
        with RunJournal(path) as journal:
            journal.write({"type": "hologram", "name": "???", "weird": [1, 2]})
            journal.write({"type": "span", "name": "evaluate", "dur": 0.1, "cost": 0.5})
        summary = summarize_journal(path)
        assert summary.fresh_evaluations == 1
        assert summary.sim_cost_total == 0.5
