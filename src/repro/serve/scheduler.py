"""Multi-job scheduler: many live solver drivers, one shared lane pool.

This is the server half of the engine-lifecycle refactor: where a single
``AutoMC.search()`` owns its :class:`~repro.core.engine.EvaluationEngine`
cradle-to-grave, the :class:`JobScheduler` keeps one warm
:class:`~repro.core.engine.LanePool` and one shared snapshot directory
alive across jobs and gives every submitted job its *own* engine +
evaluator + budget + tracer on a borrowed pool.  The job's search itself
is assembled by :class:`~repro.core.api.AutoMC`, exactly as a solo run is.
Isolation and sharing are split exactly along the determinism boundary:

* **isolated per job** — evaluator (results map, charged costs, RNG
  streams), ``Budget``, solver state, run journal.  A job's results and
  charged costs are therefore bit-identical to the same search run alone
  in its own process (see ``tests/test_serve.py``).
* **shared across jobs** — worker lanes (warm model LRUs, keyed per config
  token), the disk snapshot store, and the persistent result cache.  All
  three only change *wall-clock*: resuming a snapshot is bit-identical to
  replaying and a cached result is the exact JSON round-trip of the
  original, so tenants dedup each other's work for free.  Cross-job reuse
  is observable as ``snapshot_foreign_hits`` and ``cache_foreign_hits`` in
  each job's result.

Jobs run on daemon threads, capped by a semaphore (``max_jobs``); each
round's progress is journalled through the crash-safe
:class:`~repro.serve.jobs.JobTable` and streamed to ``watch`` clients.
"""

from __future__ import annotations

import threading
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional

from ..core.api import AutoMC
from ..core.engine import EvaluationEngine, LanePool, WorkerError
from ..core.progressive import ProgressiveConfig
from ..core.search import SearchResult
from ..obs import RunJournal, Tracer
from .jobs import JobRecord, JobSpec, JobTable

#: subdirectories of the scheduler state dir
SNAPSHOT_SUBDIR = "snapshots"
JOURNAL_SUBDIR = "journals"
CACHE_SUBDIR = "cache"


class JobScheduler:
    """Run search jobs concurrently on shared lanes and snapshots.

    ``workers=0`` evaluates every job serially on its own thread (jobs
    still share the snapshot tier — the dedup that matters); ``workers>0``
    creates a :class:`LanePool` that all jobs borrow.  Pass ``lane_pool``
    to share an externally owned pool instead.  ``recover=True`` replays a
    previous daemon's job journal (crashed jobs surface as
    ``interrupted``/resumable).
    """

    def __init__(
        self,
        state_dir,
        workers: int = 0,
        lane_pool: Optional[LanePool] = None,
        max_jobs: int = 4,
        snapshot_budget_mb: Optional[float] = None,
        job_journals: bool = True,
        recover: bool = True,
    ):
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.table = (
            JobTable.recover(self.state_dir) if recover else JobTable(self.state_dir)
        )
        if lane_pool is not None:
            self.lane_pool: Optional[LanePool] = lane_pool
            self._owns_pool = False
        elif workers > 0:
            self.lane_pool = LanePool(workers)
            self._owns_pool = True
        else:
            self.lane_pool = None
            self._owns_pool = False
        self.snapshot_dir = self.state_dir / SNAPSHOT_SUBDIR
        self.snapshot_budget_mb = snapshot_budget_mb
        # one result-cache tree for every job: same-config jobs (and later
        # daemon runs) adopt each other's paid evaluations at zero cost
        self.cache_dir = self.state_dir / CACHE_SUBDIR
        self.job_journals = job_journals
        self._slots = threading.Semaphore(max(1, max_jobs))
        self._threads: Dict[str, threading.Thread] = {}
        self._closed = False

    # ------------------------------------------------------------------ #
    def prestart(self) -> None:
        """Fork lane worker processes now, while no job threads exist."""
        if self.lane_pool is not None:
            self.lane_pool.prestart()

    def submit(self, spec: JobSpec) -> JobRecord:
        """Register a job and start its driver thread; returns the record."""
        if self._closed:
            raise RuntimeError("scheduler is closed")
        record = self.table.create(spec)
        thread = threading.Thread(
            target=self._drive, args=(record,),
            name=f"job-{record.job_id}", daemon=True,
        )
        self._threads[record.job_id] = thread
        thread.start()
        return record

    def cancel(self, job_id: str) -> JobRecord:
        return self.table.request_cancel(job_id)

    def wait(self, job_id: str, timeout: Optional[float] = None) -> JobRecord:
        thread = self._threads.get(job_id)
        if thread is not None:
            thread.join(timeout)
        return self.table.get(job_id)

    def stats(self) -> dict:
        states: Dict[str, int] = {}
        for record in self.table.list():
            states[record.state] = states.get(record.state, 0) + 1
        from ..core.stores import cache_stats

        return {
            "jobs": states,
            "lane_pool": self.lane_pool.stats() if self.lane_pool else None,
            "result_cache": cache_stats(self.cache_dir),
        }

    def close(self, wait_jobs: bool = False) -> None:
        """Stop accepting jobs; optionally wait for running ones, then
        release the (owned) lane pool and the job journal."""
        self._closed = True
        if wait_jobs:
            for thread in list(self._threads.values()):
                thread.join()
        if self._owns_pool and self.lane_pool is not None:
            self.lane_pool.close()
        self.table.close()

    # ------------------------------------------------------------------ #
    def _drive(self, record: JobRecord) -> None:
        """One job's whole lifecycle, on its own thread."""
        with self._slots:
            if record.cancel_requested or record.state != "queued":
                return  # cancelled while queued
            try:
                self._run(record)
            except WorkerError as exc:
                self.table.transition(
                    record.job_id, "failed",
                    error={
                        "type": "WorkerError",
                        "message": exc.cause_message,
                        "cause_type": exc.cause_type,
                        "scheme_id": exc.scheme_id,
                        "failures": len(exc.failures),
                    },
                )
            except Exception as exc:
                self.table.transition(
                    record.job_id, "failed",
                    error={"type": type(exc).__name__, "message": str(exc)},
                )

    def _run(self, record: JobRecord) -> None:
        spec = record.spec
        # everything that can reject the spec runs before the engine and
        # the job journal exist, so a bad job leaves nothing open
        space = spec.build_space()
        solver_kwargs = dict(spec.solver_kwargs)
        if isinstance(solver_kwargs.get("config"), dict):
            # the wire format of a ProgressiveConfig
            solver_kwargs["config"] = ProgressiveConfig(**solver_kwargs["config"])
        config = spec.build_config()
        # every job shares the daemon's snapshot tree (the cross-job tier)
        config = replace(
            config,
            snapshot_dir=str(self.snapshot_dir),
            snapshot_budget_mb=self.snapshot_budget_mb,
        )
        engine = EvaluationEngine(
            config.build(), lane_pool=self.lane_pool, cache_dir=str(self.cache_dir)
        )

        tracer = None
        if self.job_journals:
            journal_dir = self.state_dir / JOURNAL_SUBDIR
            journal_dir.mkdir(parents=True, exist_ok=True)
            tracer = Tracer(
                journal=RunJournal(
                    journal_dir / f"{record.job_id}.jsonl",
                    run={
                        "api": "repro.serve",
                        "job_id": record.job_id,
                        "tenant": spec.tenant,
                        "solver": spec.solver,
                        "seed": spec.seed,
                    },
                )
            )

        self.table.transition(record.job_id, "running")
        # AutoMC assembles the search exactly as a solo run does (embeddings
        # and experience for the progressive solver included) and closes the
        # engine and the journal; the borrowed lane pool stays up.
        result = AutoMC(
            engine,
            space=space,
            gamma=spec.gamma,
            budget_hours=spec.budget_hours,
            max_length=spec.max_length,
            solver=spec.solver,
            solver_kwargs=solver_kwargs,
            seed=spec.seed,
            trace=tracer,
        ).search(
            stop=lambda: record.cancel_requested,
            on_round=lambda st: self.table.progress(
                record.job_id,
                rounds=st.rounds_completed,
                evaluations=st.evaluator.evaluation_count,
                total_cost=st.evaluator.total_cost,
                pareto=_front_payload(st.evaluator.pareto_results(spec.gamma)),
            ),
        )
        state = "cancelled" if record.cancel_requested else "completed"
        self.table.transition(record.job_id, state, result=_result_payload(result))


# ---------------------------------------------------------------------------
# result payloads (JSON-safe mirrors of SearchResult for the wire)
# ---------------------------------------------------------------------------


def _front_payload(results) -> List[Dict[str, object]]:
    return [
        {
            "identifier": r.scheme.identifier,
            "params": r.params,
            "flops": r.flops,
            "accuracy": r.accuracy,
            "cost": r.cost,
            "latency_ms": r.latency_ms,
        }
        for r in results
    ]


def _result_payload(result: SearchResult) -> Dict[str, object]:
    stats = result.engine_stats
    return {
        "algorithm": result.algorithm,
        "solver": result.solver,
        "gamma": result.gamma,
        "total_cost": result.total_cost,
        "evaluations": result.evaluations,
        "rounds": result.rounds,
        "pareto": _front_payload(result.pareto),
        "front": _front_payload(result.front),
        "trajectory": [
            {
                "cost": p.cost,
                "evaluations": p.evaluations,
                "hypervolume": p.hypervolume,
                "front_size": p.front_size,
            }
            for p in result.trajectory
        ],
        "solver_stats": result.solver_stats,
        "snapshot_hits": stats["snapshot_hits"],
        "snapshot_foreign_hits": stats["snapshot_foreign_hits"],
        "steps_replayed": stats["steps_replayed"],
        "snapshot_steps_saved": stats["snapshot_steps_saved"],
        "cache_hits": stats["cache_hits"],
        "cache_foreign_hits": stats["cache_foreign_hits"],
    }
