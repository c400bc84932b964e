"""Batched parallel evaluation engine with a persistent cross-run cache.

AutoMC spends essentially all of its wall-clock inside scheme evaluations
(the paper budgets 3 GPU-days of them), but the evaluators themselves are
strictly serial and their result cache dies with the process.  The
:class:`EvaluationEngine` wraps any :class:`~repro.core.interface.Evaluator`
and adds the two production-scale layers from the ROADMAP:

* **Prefix-affinity parallel dispatch** — ``evaluate_many(schemes)``
  deduplicates, lints every new scheme *before* any work is paid for, then
  groups fresh schemes by longest shared prefix and submits each group —
  ordered shortest-first so later members resume hot state — to a sticky
  worker lane (one single-process pool per worker, each rebuilt from the
  picklable :class:`~repro.core.config.EvaluatorConfig`).  Completions are
  streamed with ``as_completed`` and merged with deterministic cost
  accounting.  Routing prefers the lane that last evaluated a scheme's
  prefix, so worker-local model LRUs stay hot across rounds.
* **Persistent result cache** — a :class:`~repro.core.stores.ResultCache`
  under ``cache_dir``, keyed by scheme identifier + the evaluator
  :meth:`fingerprint`, so repeated runs skip already-paid simulated
  GPU-hours across processes.  Bounded by a max-entries cap with
  oldest-first pruning (see ``repro cache``).
* **Shared snapshot store** — with ``config.snapshot_dir`` set on the
  wrapped evaluator, every worker lane consults the same disk-backed
  :class:`~repro.core.stores.ModelSnapshotStore`, so a prefix trained by
  one worker is resumed (not replayed) by every other worker, by recycled
  pools, and by later runs.  Both tiers are one keyed disk store
  (:mod:`repro.core.stores`) with different codecs.

Determinism guarantee: a parallel run is *bit-identical* to a serial one.
Per-step RNG seeds are derived from stable digests of sub-scheme
identifiers (see :func:`~repro.core.evaluator.stable_hash`) and both the
trainer and the accuracy surrogate are stateless per call, so a worker that
full-replays a scheme from scratch produces exactly the floats a serial
evaluator gets by resuming a cached prefix (and vice versa — resuming a
disk snapshot is bit-identical to replaying).  Charged costs depend only on
the ``results`` history, not on model-LRU or snapshot state: the engine
merges worker results in input order using the same longest-paid-prefix
formula the serial path uses, summing the same ``step_costs`` floats in the
same order — scheduling and snapshots change wall-clock, never results or
charged costs.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import traceback
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..obs import NULL_TRACER
from ..space.scheme import CompressionScheme
from .evaluator import EvaluationResult
from .stores import DEFAULT_CACHE_ENTRIES, ResultCache


class WorkerError(RuntimeError):
    """One or more pool workers failed to evaluate schemes in a batch.

    Raised in the parent instead of the workers' bare (often unpicklable)
    tracebacks surfacing through ``multiprocessing``.  ``failures`` carries
    *every* failure observed in the batch — not just the first — so searches
    and journals can attribute all of them; the first failure's fields are
    mirrored as top-level attributes for convenience.
    """

    def __init__(self, failures: Sequence["_WorkerFailure"]):
        self.failures = list(failures)
        if not self.failures:
            raise ValueError("WorkerError needs at least one failure")
        first = self.failures[0]
        self.scheme_id = first.scheme_id
        self.cause_type = first.cause_type
        self.cause_message = first.cause_message
        self.worker_traceback = first.worker_traceback
        lines = [
            f"worker evaluation failed for {len(self.failures)} scheme(s):"
        ]
        for failure in self.failures:
            lines.append(
                f"  {failure.scheme_id!r}: {failure.cause_type}: {failure.cause_message}"
            )
        for failure in self.failures:
            if failure.worker_traceback:
                lines.append(f"--- worker traceback ({failure.scheme_id!r}) ---")
                lines.append(failure.worker_traceback)
        super().__init__("\n".join(lines))


# ---------------------------------------------------------------------------
# worker process side
# ---------------------------------------------------------------------------

#: per-process evaluator cache, keyed by the parent engine's config token.
#: A lane shared by several tenants (see :class:`LanePool`) keeps one warm
#: evaluator per distinct configuration, so same-config jobs share the
#: worker's in-memory model LRU — the in-process tier of cross-job dedup.
_WORKER_EVALUATORS: Dict[str, object] = {}

#: distinct evaluator configurations a single worker process keeps warm.
#: Evaluators hold a base model + an LRU of compressed models, so this is
#: a memory bound, not a correctness knob (evicted configs just rebuild).
WORKER_EVALUATOR_CACHE = 4


def _worker_evaluator(token: str, config) -> object:
    """Fetch (or lazily build) this process's evaluator for ``token``."""
    evaluator = _WORKER_EVALUATORS.get(token)
    if evaluator is None:
        while len(_WORKER_EVALUATORS) >= WORKER_EVALUATOR_CACHE:
            _WORKER_EVALUATORS.pop(next(iter(_WORKER_EVALUATORS)))
        evaluator = config.build()
        _WORKER_EVALUATORS[token] = evaluator
    return evaluator


def _worker_pid() -> int:
    """Identify (and force-start) a lane's worker process."""
    return os.getpid()


@dataclass
class _WorkerFailure:
    """Picklable capture of a worker-side exception (→ WorkerError in parent)."""

    scheme_id: str
    cause_type: str
    cause_message: str
    worker_traceback: str


@dataclass
class _GroupOutcome:
    """Picklable result of one prefix group: per-scheme outcomes + stats.

    ``outcomes`` aligns with the submitted group; entries are either
    :class:`~repro.core.evaluator.EvaluationResult` or :class:`_WorkerFailure`
    (a failure does not abort the rest of the group — later members simply
    replay from the deepest snapshot that does exist).
    """

    outcomes: List[object] = field(default_factory=list)
    steps_executed: int = 0
    snapshot_hits: int = 0
    snapshot_steps_saved: int = 0
    snapshot_foreign_hits: int = 0


def _worker_evaluate_group(
    token: str, config, schemes: Sequence[CompressionScheme]
) -> _GroupOutcome:
    """Evaluate one prefix group, shortest-first, in a single worker.

    Running the whole group in one process is what makes routing *sticky*:
    every member after the first resumes from the worker's in-memory model
    LRU (or the shared disk snapshot store), populated by its predecessors.
    The worker keeps its caches across tasks (one evaluator per config
    ``token`` — see :data:`_WORKER_EVALUATORS`); determinism makes prefix
    resume equivalent to full replay, and the parent recomputes charged
    costs at merge time.  Exceptions are captured per scheme so the parent
    can aggregate them into one typed :class:`WorkerError`.
    """
    evaluator = _worker_evaluator(token, config)
    steps0 = evaluator.steps_executed
    hits0 = evaluator.snapshot_hits
    saved0 = evaluator.snapshot_steps_saved
    foreign0 = getattr(evaluator, "snapshot_foreign_hits", 0)
    group = _GroupOutcome()
    for scheme in schemes:
        try:
            group.outcomes.append(evaluator.evaluate(scheme))
        except Exception as exc:
            group.outcomes.append(
                _WorkerFailure(
                    scheme.identifier, type(exc).__name__, str(exc),
                    traceback.format_exc(),
                )
            )
    group.steps_executed = evaluator.steps_executed - steps0
    group.snapshot_hits = evaluator.snapshot_hits - hits0
    group.snapshot_steps_saved = evaluator.snapshot_steps_saved - saved0
    group.snapshot_foreign_hits = (
        getattr(evaluator, "snapshot_foreign_hits", 0) - foreign0
    )
    return group


# ---------------------------------------------------------------------------
# prefix-affinity scheduling
# ---------------------------------------------------------------------------


def _common_prefix_length(a: CompressionScheme, b: CompressionScheme) -> int:
    """Number of leading strategies shared by two schemes."""
    shared = 0
    for sa, sb in zip(a.strategies, b.strategies):
        if sa.identifier != sb.identifier:
            break
        shared += 1
    return shared


def plan_prefix_groups(
    schemes: Sequence[CompressionScheme], max_group: Optional[int] = None
) -> List[List[CompressionScheme]]:
    """Partition a batch into prefix-sharing groups, shortest-first.

    Schemes connected by a non-empty shared prefix (directly or through a
    chain of siblings) land in the same group, ordered shortest-first so a
    group's later members resume the hot state its earlier members leave in
    the worker's model LRU / snapshot store.  Unrelated schemes become
    singleton groups to maximise parallelism.  ``max_group`` splits
    oversized components into contiguous chunks so one giant family cannot
    serialise the whole batch onto a single lane.  Deterministic: a pure
    function of the input order.
    """
    schemes = list(schemes)
    parent = list(range(len(schemes)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(schemes)):
        for j in range(i + 1, len(schemes)):
            if _common_prefix_length(schemes[i], schemes[j]) >= 1:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)

    components: Dict[int, List[int]] = {}
    for i in range(len(schemes)):
        components.setdefault(find(i), []).append(i)

    groups: List[List[CompressionScheme]] = []
    for root in sorted(components):
        members = sorted(components[root], key=lambda i: (schemes[i].length, i))
        ordered = [schemes[i] for i in members]
        if max_group is None or max_group <= 0:
            groups.append(ordered)
        else:
            for start in range(0, len(ordered), max_group):
                groups.append(ordered[start:start + max_group])
    return groups


# ---------------------------------------------------------------------------
# shared worker-lane pool
# ---------------------------------------------------------------------------


class LanePool:
    """A thread-safe pool of sticky worker lanes, shareable across engines.

    Each *lane* is a single-process :class:`ProcessPoolExecutor` whose worker
    keeps warm evaluators (one per config token) and model LRUs across
    tasks.  Historically every :class:`EvaluationEngine` owned its lanes
    privately and tore them down with the run; extracting the pool lets a
    long-lived server (``repro serve``) hand the *same* warm lanes to many
    concurrent engines — one per search job — so tenants share worker model
    LRUs and the disk snapshot tier instead of cold-starting per job.

    Thread safety: routing state (per-lane backlog, prefix→lane affinity)
    is guarded by one lock; executors themselves are thread-safe.  Two jobs
    racing for the same least-loaded lane is benign — routing affects only
    wall-clock, never results (see the module docstring's determinism
    guarantee).

    Lane death (a worker process killed mid-task) is survivable:
    :meth:`revive` replaces the broken executor with a fresh one and drops
    its affinity entries, so the lane rejoins the pool cold while other
    lanes — and other jobs — continue unaffected.  ``lane_restarts`` counts
    revivals.
    """

    def __init__(self, workers: int):
        if workers <= 0:
            raise ValueError("LanePool needs workers >= 1")
        self.workers = workers
        self.lane_restarts = 0
        self._lock = threading.Lock()
        self._executors: List[Optional[ProcessPoolExecutor]] = [None] * workers
        self._pending = [0] * workers
        self._affinity: Dict[str, int] = {}  # scheme identifier → lane index
        self._closed = False

    # -- routing -----------------------------------------------------------
    def route(self, group: Sequence[CompressionScheme]) -> int:
        """Pick a lane: deepest-known-prefix affinity, least-loaded fallback.

        The lane that most recently evaluated the group head's longest known
        prefix already holds (or recently held) that model in its LRU.  A
        lane more than one group behind the least-loaded lane forfeits its
        affinity — the snapshot store makes a cold lane only moderately
        slower, while an idle lane is free parallelism.
        """
        with self._lock:
            least = min(range(self.workers), key=lambda i: (self._pending[i], i))
            head = group[0]
            for length in range(head.length - 1, 0, -1):
                preferred = self._affinity.get(head.prefix(length).identifier)
                if preferred is not None:
                    if self._pending[preferred] > self._pending[least] + 1:
                        return least
                    return preferred
            return least

    def submit(self, lane: int, token: str, config, group: Sequence[CompressionScheme]):
        """Submit one prefix group to ``lane``; returns the future."""
        with self._lock:
            if self._closed:
                raise RuntimeError("LanePool is closed")
            executor = self._executors[lane]
            if executor is None:
                executor = ProcessPoolExecutor(max_workers=1)
                self._executors[lane] = executor
            self._pending[lane] += len(group)
        try:
            return executor.submit(_worker_evaluate_group, token, config, list(group))
        except BrokenProcessPool as exc:
            # The lane died while idle and the executor already flagged
            # itself broken, so submit fails synchronously.  Surface it as
            # a failed future so the caller's one lane-death path (revive +
            # typed WorkerError) handles both timings identically.
            future: Future = Future()
            future.set_exception(exc)
            return future

    def complete(
        self, lane: int, group: Sequence[CompressionScheme],
        evaluated: Sequence[str] = (),
    ) -> None:
        """Account a finished (or failed) group and record lane affinity."""
        with self._lock:
            self._pending[lane] -= len(group)
            for identifier in evaluated:
                self._affinity[identifier] = lane

    # -- lifecycle ---------------------------------------------------------
    def revive(self, lane: int) -> None:
        """Replace a broken lane executor; the lane rejoins the pool cold."""
        with self._lock:
            executor = self._executors[lane]
            self._executors[lane] = None
            self.lane_restarts += 1
            self._affinity = {
                key: value for key, value in self._affinity.items() if value != lane
            }
        if executor is not None:
            executor.shutdown(wait=False)

    def lane_pids(self) -> List[int]:
        """Worker PID per lane (starting any lane not yet spawned).

        Blocks behind in-flight groups on busy lanes; intended for startup
        warm-up, stats endpoints and fault-injection tests.
        """
        futures = []
        for lane in range(self.workers):
            with self._lock:
                if self._closed:
                    raise RuntimeError("LanePool is closed")
                executor = self._executors[lane]
                if executor is None:
                    executor = ProcessPoolExecutor(max_workers=1)
                    self._executors[lane] = executor
            futures.append(executor.submit(_worker_pid))
        return [future.result() for future in futures]

    def prestart(self) -> List[int]:
        """Spawn every lane's worker process up front (returns their PIDs).

        A long-lived server calls this once at boot, before job threads
        exist, so lane processes are forked from a quiet parent.
        """
        return self.lane_pids()

    def stats(self) -> dict:
        with self._lock:
            return {
                "workers": self.workers,
                "pending": list(self._pending),
                "affinity_entries": len(self._affinity),
                "lane_restarts": self.lane_restarts,
                "live_lanes": sum(1 for e in self._executors if e is not None),
            }

    def close(self) -> None:
        """Shut all lanes down (idempotent).  Affinity is forgotten."""
        with self._lock:
            executors = [e for e in self._executors if e is not None]
            self._executors = [None] * self.workers
            self._pending = [0] * self.workers
            self._affinity = {}
            self._closed = True
        for executor in executors:
            executor.shutdown(wait=True)

    def __enter__(self) -> "LanePool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------


class EvaluationEngine:
    """Drop-in :class:`~repro.core.interface.Evaluator` that batches,
    parallelises and persistently caches an underlying evaluator.

    ``workers=0`` evaluates serially in-process (still gaining dedup, batch
    linting and the disk cache); ``workers=N`` fans fresh evaluations out to
    ``N`` single-process worker *lanes*.  Parallel dispatch needs
    ``evaluator.config`` to be rebuildable in a fresh process (registry
    ``model_name`` + picklable task/datasets) and raises ``ValueError`` at
    construction otherwise.

    Fresh schemes are grouped by shared prefix and each group is routed to
    the lane that last evaluated its prefix, so worker model LRUs stay hot.
    ``cache_entries`` caps the persistent result cache (``None`` →
    :data:`DEFAULT_CACHE_ENTRIES`).

    ``lane_pool`` accepts a shared :class:`LanePool` instead of private
    lanes: the engine borrows the pool's lanes (``workers`` is taken from
    the pool) and :meth:`close` leaves the pool running — this is how a
    multi-tenant server runs one engine per job on one warm lane set.
    Without it, the engine creates a private pool on first parallel batch
    and tears it down on :meth:`close`, exactly as before.

    All other attribute access falls through to the wrapped evaluator, so
    search strategies can treat an engine exactly like the evaluator it
    wraps (``task``, ``pareto_results``, ``base_accuracy``, ...).
    """

    def __init__(
        self,
        evaluator,
        workers: int = 0,
        cache_dir=None,
        cache_entries: Optional[int] = None,
        lane_pool: Optional[LanePool] = None,
    ):
        if lane_pool is not None:
            workers = lane_pool.workers
        elif workers < 0:
            raise ValueError("workers must be >= 0")
        self.evaluator = evaluator
        self.workers = workers
        if workers > 0:
            config = getattr(evaluator, "config", None)
            if config is None or not config.is_buildable:
                raise ValueError(
                    "workers > 0 needs an evaluator whose EvaluatorConfig can be "
                    "rebuilt in a fresh process: a registry model_name plus a "
                    "picklable task (surrogate) or datasets (training)"
                )
        self.cache = (
            ResultCache(
                cache_dir,
                evaluator.fingerprint(),
                max_entries=DEFAULT_CACHE_ENTRIES if cache_entries is None else cache_entries,
            )
            if cache_dir
            else None
        )
        self.cache_hits = 0
        #: disk hits on entries this engine's cache instance did not write —
        #: cross-job/cross-run result dedup (as snapshot_foreign_hits is for prefixes)
        self.cache_foreign_hits = 0
        self.fresh_evaluations = 0
        self.worker_failures = 0
        # worker-side accumulators (the wrapped evaluator counts its own)
        self._worker_steps = 0
        self._worker_snapshot_hits = 0
        self._worker_snapshot_steps_saved = 0
        self._worker_snapshot_foreign_hits = 0
        #: shared with the wrapped evaluator via obs.attach_tracer
        self.tracer = getattr(evaluator, "tracer", NULL_TRACER)
        self._pool = lane_pool
        self._owns_pool = lane_pool is None
        self._worker_token: Optional[str] = None

    # -- engine-wide prefix-reuse stats ------------------------------------
    @property
    def steps_replayed(self) -> int:
        """Training/surgery steps actually executed (serial + all lanes)."""
        return getattr(self.evaluator, "steps_executed", 0) + self._worker_steps

    @property
    def snapshot_hits(self) -> int:
        """Disk-snapshot resumes observed across the serial path and lanes."""
        return getattr(self.evaluator, "snapshot_hits", 0) + self._worker_snapshot_hits

    @property
    def snapshot_steps_saved(self) -> int:
        """Prefix steps skipped thanks to disk snapshots (serial + lanes)."""
        return (
            getattr(self.evaluator, "snapshot_steps_saved", 0)
            + self._worker_snapshot_steps_saved
        )

    @property
    def snapshot_foreign_hits(self) -> int:
        """Disk-snapshot resumes of prefixes *another* store instance wrote.

        In a multi-tenant server this counts cross-job (and cross-run)
        prefix dedup: job B resuming a prefix that job A trained and
        snapshotted.  Same-instance resumes count in ``snapshot_hits`` only.
        """
        return (
            getattr(self.evaluator, "snapshot_foreign_hits", 0)
            + self._worker_snapshot_foreign_hits
        )

    # -- Evaluator protocol ------------------------------------------------
    @property
    def results(self) -> Dict[str, EvaluationResult]:
        return self.evaluator.results

    @property
    def total_cost(self) -> float:
        return self.evaluator.total_cost

    @property
    def evaluation_count(self) -> int:
        return self.evaluator.evaluation_count

    def fingerprint(self) -> str:
        return self.evaluator.fingerprint()

    def evaluate(self, scheme: CompressionScheme) -> EvaluationResult:
        return self.evaluate_many([scheme])[0]

    def evaluate_many(
        self, schemes: Sequence[CompressionScheme]
    ) -> List[EvaluationResult]:
        """Dedup → disk-cache lookup → lint → dispatch → ordered merge.

        Disk hits are adopted into the evaluator's ``results`` at *zero*
        charged cost (like in-memory hits, they pay no simulated GPU-hours
        and do not bump ``evaluation_count``).  Fresh schemes are linted
        up front — the first error aborts the batch before any evaluation —
        then evaluated and merged in input order, so charged costs are
        identical to a serial run.
        """
        schemes = list(schemes)
        identifiers = [scheme.identifier for scheme in schemes]
        unique: Dict[str, CompressionScheme] = {}
        for identifier, scheme in zip(identifiers, schemes):
            unique.setdefault(identifier, scheme)

        tracer = self.tracer
        with tracer.span(
            "engine.batch", submitted=len(schemes), unique=len(unique)
        ) as batch_span:
            evaluator = self.evaluator
            results = evaluator.results
            fresh: List[CompressionScheme] = []
            memory_hits = disk_hits = 0
            for identifier, scheme in unique.items():
                if identifier in results:
                    memory_hits += 1
                    tracer.event("cache_hit", scheme=identifier, source="memory")
                    tracer.metrics.counter("cache_hits.memory").inc()
                    continue
                cached = self.cache.get(scheme) if self.cache else None
                if cached is not None:
                    results[identifier] = cached
                    self.cache_hits += 1
                    disk_hits += 1
                    foreign = identifier not in self.cache.written_ids
                    tracer.event("cache_hit", scheme=identifier, source="disk", foreign=foreign)
                    tracer.metrics.counter("cache_hits.disk").inc()
                    if foreign:
                        self.cache_foreign_hits += 1
                        tracer.metrics.counter("cache_hits.foreign").inc()
                else:
                    fresh.append(scheme)

            batch_span.set(memory_hits=memory_hits, disk_hits=disk_hits, fresh=len(fresh))

            if evaluator.lint_schemes:
                for scheme in fresh:
                    if not scheme.is_empty:
                        evaluator.lint(scheme)

            if fresh:
                self._run_fresh(fresh)
            return [results[identifier] for identifier in identifiers]

    # -- dispatch ----------------------------------------------------------
    def _run_fresh(self, fresh: List[CompressionScheme]) -> None:
        evaluator = self.evaluator
        if self.workers == 0 or len(fresh) == 1:
            # Serial path: the wrapped evaluator does its own recording and
            # canonical charging (linting already happened above).
            for scheme in fresh:
                evaluator._evaluate_recorded(scheme)
                self.fresh_evaluations += 1
                if self.cache:
                    self.cache.put(evaluator.results[scheme.identifier])
            return

        outcomes = self._dispatch(fresh)

        # Merge in input order with the serial charging formula
        # (SchemeEvaluator._charge).  The scheduler only reorders
        # *execution*; merging strictly in input order keeps charged costs
        # bit-identical to a serial run.
        tracer = self.tracer
        failures = [
            outcomes[s.identifier]
            for s in fresh
            if isinstance(outcomes[s.identifier], _WorkerFailure)
        ]
        if failures:
            self.worker_failures += len(failures)
            for failure in failures:
                tracer.event(
                    "worker_failed",
                    scheme=failure.scheme_id,
                    error=f"{failure.cause_type}: {failure.cause_message}",
                )
                tracer.metrics.counter("worker_failures").inc()
            raise WorkerError(failures)

        for scheme in fresh:
            identifier = scheme.identifier
            result = outcomes[identifier]
            result.cost = evaluator._charge(scheme, result.step_costs)
            # The wall-time of the work lives in the enclosing engine.batch
            # span; this span exists to attribute the charged cost float
            # exactly once, mirroring the serial path.
            with tracer.span(
                "evaluate", scheme=identifier, steps=scheme.length, parallel=True
            ) as span:
                evaluator._annotate(result, span)
            # Same bookkeeping as the serial path: drift, the workspace peak
            # the worker measured, latency violations, results and costs.
            evaluator._record(result)
            self.fresh_evaluations += 1
            if self.cache:
                self.cache.put(result)

    def _dispatch(self, fresh: List[CompressionScheme]) -> Dict[str, object]:
        """Submit fresh schemes to worker lanes; stream completions back.

        The batch is partitioned by :func:`plan_prefix_groups` (chunked so
        the largest family cannot monopolise a lane) and each group runs as
        *one* task on its routed lane — same process end to end, so later
        members resume earlier members' models.  Returns
        ``{identifier: EvaluationResult | _WorkerFailure}``; completion
        *order* is timing-dependent but the caller merges in input order.

        A lane dying mid-group (worker killed, OOM, unpicklable payload)
        does **not** propagate the raw executor error: the dead group's
        schemes become typed :class:`_WorkerFailure` outcomes — surfaced to
        the caller as one :class:`WorkerError` — and the lane is revived so
        concurrent engines sharing the pool continue unaffected.
        """
        tracer = self.tracer
        max_group = -(-len(fresh) // self.workers)  # ceil; balance lanes
        with tracer.span("engine.schedule", fresh=len(fresh)) as span:
            groups = plan_prefix_groups(fresh, max_group=max_group)
            span.set(groups=len(groups))

        pool = self._pool_handle()
        token = self._token()
        config = self.evaluator.config
        pending: Dict[object, tuple] = {}  # future → (group, lane index)
        for group in groups:
            lane = pool.route(group)
            pending[pool.submit(lane, token, config, group)] = (group, lane)

        outcomes: Dict[str, object] = {}
        try:
            while pending:
                done, _ = wait(list(pending), return_when=FIRST_COMPLETED)
                for future in done:
                    group, lane = pending.pop(future)
                    try:
                        result = future.result()
                    except Exception as exc:
                        # Lane death or an infra failure outside the worker's
                        # per-scheme capture.  Convert to typed failures; a
                        # broken executor is replaced so other jobs sharing
                        # the pool keep their lanes.
                        if isinstance(exc, BrokenProcessPool):
                            pool.revive(lane)
                            cause = "WorkerLaneDied"
                        else:
                            cause = type(exc).__name__
                        pool.complete(lane, group)
                        for scheme in group:
                            outcomes[scheme.identifier] = _WorkerFailure(
                                scheme.identifier, cause, str(exc), ""
                            )
                        continue
                    evaluated = [
                        scheme.identifier
                        for scheme, outcome in zip(group, result.outcomes)
                        if not isinstance(outcome, _WorkerFailure)
                    ]
                    pool.complete(lane, group, evaluated)
                    for scheme, outcome in zip(group, result.outcomes):
                        outcomes[scheme.identifier] = outcome
                    self._worker_steps += result.steps_executed
                    self._worker_snapshot_hits += result.snapshot_hits
                    self._worker_snapshot_steps_saved += result.snapshot_steps_saved
                    self._worker_snapshot_foreign_hits += result.snapshot_foreign_hits
                    if result.snapshot_hits:
                        tracer.metrics.counter("engine.snapshot_hits").inc(
                            result.snapshot_hits
                        )
        except BaseException:
            for future in pending:
                future.cancel()
            for group, lane in pending.values():
                pool.complete(lane, group)
            raise
        return outcomes

    def _pool_handle(self) -> LanePool:
        if self._pool is None:
            self._pool = LanePool(self.workers)
        return self._pool

    def _token(self) -> str:
        """Stable key for this engine's worker-side evaluator cache.

        Covers the evaluator fingerprint *plus* the config knobs that are
        excluded from it but change worker-side behaviour (snapshot store
        location/budget, lint toggle, static budget caps) — two engines get
        the same token iff a warm worker evaluator is interchangeable
        between them.
        """
        if self._worker_token is None:
            config = self.evaluator.config
            budget = getattr(config, "budget", None)
            extras = {
                "snapshot_dir": str(config.snapshot_dir) if config.snapshot_dir else None,
                "snapshot_budget_mb": config.snapshot_budget_mb,
                "lint": config.lint_schemes,
                "budget": budget.to_payload() if budget is not None else None,
            }
            blob = self.evaluator.fingerprint() + json.dumps(
                extras, sort_keys=True, default=repr
            )
            self._worker_token = hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]
        return self._worker_token

    # -- lifecycle ---------------------------------------------------------
    @property
    def lane_pool(self) -> Optional[LanePool]:
        """The pool lanes run on (``None`` until the first parallel batch)."""
        return self._pool

    def close(self) -> None:
        """Release worker lanes (idempotent; a later batch re-creates them).

        A private pool is shut down and its affinity forgotten — fresh lanes
        have cold LRUs, and only the disk snapshot store survives.  A
        *borrowed* pool (``lane_pool=`` at construction) is left running for
        its other tenants; closing it is its owner's job.
        """
        if self._pool is not None and self._owns_pool:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "EvaluationEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- transparency ------------------------------------------------------
    def __getattr__(self, name: str):
        # Fallback for evaluator surface beyond the protocol (task,
        # pareto_results, base_accuracy, ...).  Only called for attributes
        # not found on the engine itself.
        return getattr(self.evaluator, name)
