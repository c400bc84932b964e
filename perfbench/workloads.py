"""The four benchmark workloads.

Each workload repeats *units* until the measured window is used up.  A unit
is one set-up followed by one timed phase:

* ``progressive-exp1`` — build the ResNet-56/CIFAR-10 evaluator, learn the
  strategy embeddings, build the progressive solver (F_mo pretraining), then
  run Algorithm 2 to its simulated-hour budget;
* ``regevo-exp2-flops`` — build the VGG-16/CIFAR-100 evaluator with a static
  FLOPs budget, then run regularized evolution to its budget;
* ``evalstream-quant-exp1`` — build a ResNet-56 evaluator with the latency
  probe on, then evaluate a block of fresh schemes (pruning, optionally
  followed by one int8/fp16 post-training quantization step);
* ``serve-2tenant-exp1`` — boot ``repro serve --workers 2 --max-jobs 2``
  up to its first ``ping``, then two tenants each submit one job and wait
  for it.

Every input derives from the workload seed.  In a traced run each unit runs
twice on the same inputs, once with the layer probes and the program's
``Tracer`` attached and once without, in alternating order; the twins must
agree bit for bit, and their timed phases give the tracing overhead.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from harness import (
    DigestStore,
    RunRecord,
    Window,
    digest,
    median,
    process_peak_rss_mb,
)
from layers import LayerProbe, in_process_layers, instrument
from repro.analysis.costmodel import Budget
from repro.core.api import AutoMC
from repro.core.config import EvaluatorConfig
from repro.core.pareto import hypervolume_2d, pareto_mask
from repro.core.solver import make_solver
from repro.experiments.common import EXPERIMENTS, ExperimentConfig, make_evaluator
from repro.knowledge.embedding import learn_embeddings
from repro.knowledge.experience import default_experience
from repro.obs import Tracer, attach_tracer, summarize_journal
from repro.serve import JobSpec, ServeClient, ServeUnavailable
from repro.space import CompressionScheme, StrategySpace

# -- workload sizes --------------------------------------------------------- #
#: simulated GPU-hours of one progressive search (61 fresh evaluations)
PROGRESSIVE_HOURS = 6.0
#: simulated GPU-hours of one regularized-evolution search
REGEVO_HOURS = 2.0
REGEVO_KWARGS = {"population_size": 4, "tournament_size": 2, "children_per_round": 2}
#: static FLOPs ceiling of the regevo workload, as a share of base FLOPs
FLOPS_FRACTION = 0.6
#: batch of the evalstream latency probe
LATENCY_BATCH = 8
#: simulated GPU-hours of each served job
SERVE_HOURS = 2.0
SERVE_ARGS = ("--workers", "2", "--max-jobs", "2")
#: units whose outputs feed final_hv (always run, so it is deterministic)
HV_UNITS = 2


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    trace: bool
    root: Path
    state_dir: Path
    record: RunRecord
    store: DigestStore


def unit_seed(seed: int, unit: int) -> int:
    return seed * 100 + unit


def twins(ctx: Context, unit: int) -> Tuple[bool, ...]:
    """Which variants of a unit run: untraced only, or both in turn."""
    if not ctx.trace:
        return (False,)
    return (False, True) if unit % 2 == 0 else (True, False)


def front_hv(results) -> float:
    """Hypervolume of the (AR, PR) front of ``results`` against (-1, 0)."""
    points = np.array([[r.ar, r.pr] for r in results if not r.scheme.is_empty])
    if len(points) == 0:
        return 0.0
    return float(hypervolume_2d(points[pareto_mask(points)], (-1.0, 0.0)))


def result_rows(results) -> List[tuple]:
    return [(r.scheme.identifier, r.params, r.flops, r.accuracy, r.cost) for r in results]


# --------------------------------------------------------------------------- #
# in-process searches: progressive-exp1, regevo-exp2-flops
# --------------------------------------------------------------------------- #
def build_progressive(sub: int, tracer: Optional[Tracer]):
    model_name, dataset_name, task = EXPERIMENTS["Exp1"]
    evaluator = make_evaluator(model_name, dataset_name, task, seed=sub)
    if tracer is not None:
        attach_tracer(evaluator, tracer)
    config = ExperimentConfig(seed=sub)
    space = StrategySpace()
    start = time.perf_counter()
    embeddings = learn_embeddings(space, config=config.embedding_config())
    embed_s = time.perf_counter() - start
    solver = make_solver(
        "progressive", evaluator, space,
        gamma=0.3, budget_hours=PROGRESSIVE_HOURS, max_length=5, seed=sub,
        embeddings=embeddings,
        config=config.progressive_config(),
        experience=default_experience(),
    )
    return evaluator, solver, embed_s


def build_regevo(sub: int, tracer: Optional[Tracer]):
    model_name, dataset_name, task = EXPERIMENTS["Exp2"]
    evaluator = make_evaluator(model_name, dataset_name, task, seed=sub)
    evaluator.set_budget(Budget(max_flops=int(FLOPS_FRACTION * evaluator.base_flops)))
    if tracer is not None:
        attach_tracer(evaluator, tracer)
    solver = make_solver(
        "regevo", evaluator, StrategySpace(),
        gamma=0.3, budget_hours=REGEVO_HOURS, max_length=5, seed=sub,
        **REGEVO_KWARGS,
    )
    return evaluator, solver, 0.0


def timed_search(solver) -> Tuple[object, float, List[Tuple[float, int]]]:
    """Run ``solver``; returns (result, seconds, [(round seconds, fresh evals)])."""
    evaluator = solver.strategy.evaluator
    marks = [time.perf_counter()]
    counts = [evaluator.evaluation_count]

    def on_round(state) -> None:
        marks.append(time.perf_counter())
        counts.append(state.evaluator.evaluation_count)

    result = solver.run(on_round=on_round)
    seconds = time.perf_counter() - marks[0]
    rounds = [
        (marks[i + 1] - marks[i], counts[i + 1] - counts[i]) for i in range(len(marks) - 1)
    ]
    return result, seconds, rounds


def search_workload(ctx: Context, build: Callable) -> None:
    record = ctx.record
    window = Window(ctx.seconds, minimum=1 if ctx.trace else HV_UNITS)
    for unit in window.units():
        sub = unit_seed(ctx.seed, unit)
        for traced in twins(ctx, unit):
            with record.operation(f"search[{unit}]"):
                start = time.perf_counter()
                tracer = Tracer() if traced else None
                evaluator, solver, embed_s = build(sub, tracer)
                setup_s = time.perf_counter() - start
                probe = LayerProbe()
                if traced:
                    instrument(probe, evaluator, solver)
                try:
                    result, seconds, rounds = timed_search(solver)
                finally:
                    probe.restore()
                check_search(ctx, f"unit{unit}", solver.strategy, result)
                if traced:
                    record.traced_s.append(seconds)
                    record.layers.append(
                        in_process_layers(probe, evaluator, tracer, solver.strategy, embed_s)
                    )
                    continue
                record.untraced_s.append(seconds)
                record.setup_s.append(setup_s)
                record.unit_s.append(seconds)
                record.unit_evals.append(result.evaluations)
                for round_s, fresh in rounds:
                    record.add_round(round_s, fresh)
                if unit < HV_UNITS:
                    record.hv.append(result.trajectory[-1].hypervolume)


def check_search(ctx: Context, key: str, strategy, result) -> None:
    record = ctx.record
    if strategy.proposals_total != strategy.proposals_pruned + strategy.evaluated_proposals:
        record.fail(key, "AccountingMismatch", "proposals_total != pruned + evaluated")
    if not result.front:
        record.fail(key, "EmptyFront", "the search produced no Pareto front")
    ctx.store.check(record, f"{ctx.workload}/{ctx.seed}/{key}", digest(result_rows(result.front)))


def progressive_exp1(ctx: Context) -> None:
    search_workload(ctx, build_progressive)


def regevo_exp2_flops(ctx: Context) -> None:
    search_workload(ctx, build_regevo)


# --------------------------------------------------------------------------- #
# evalstream-quant-exp1
# --------------------------------------------------------------------------- #
def scheme_stream(seed: int) -> Iterator[List[CompressionScheme]]:
    """Blocks of four distinct schemes: 1–2 pruning steps, then at most one C8.

    Every block holds the same mix in a seeded arrangement.  Its six pruning
    steps use each method C1–C6 once and each HP2 grid value once: the two
    one-step schemes take the second-smallest and second-largest value, the
    two two-step schemes pair the extremes and the middle two, so nominal
    pruning totals are the same in every block.  Two schemes end in int8, one
    in fp16 and one is unquantized; the three C8 steps use each
    calibration-batch count once.  The remaining hyperparameters are drawn
    at random.  One quantizing step at most and nominal totals below 1 keep
    every scheme lint-clean.
    """
    rng = np.random.default_rng(seed)
    space = StrategySpace(include_quantization=True)
    methods = ("C1", "C2", "C3", "C4", "C5", "C6")
    a = sorted({s.param_step for s in space if s.method_label in methods})
    shapes = [(a[1],), (a[4],), (a[0], a[5]), (a[2], a[3])]
    seen = set()
    while True:
        labels = list(rng.permutation(methods))
        modes = list(rng.permutation(["int8", "int8", "fp16", "none"]))
        batches = list(rng.permutation([1, 2, 4]))
        block = []
        for shape in rng.permutation(np.array(shapes, dtype=object)):
            amounts = list(rng.permutation(shape))
            head = [(labels.pop(), amount) for amount in amounts]
            mode = str(modes.pop())
            calibration = int(batches.pop()) if mode != "none" else None
            while True:
                scheme = CompressionScheme()
                for label, amount in head:
                    options = [s for s in space.of_method(str(label)) if s.param_step == amount]
                    scheme = scheme.extend(options[int(rng.integers(len(options)))])
                if calibration is not None:
                    scheme = scheme.extend(space.parse_strategy(
                        f"C8[HP19={mode},HP20={calibration}]"
                    ))
                if scheme.identifier not in seen:
                    break
            seen.add(scheme.identifier)
            block.append(scheme)
        yield block


def evalstream_quant_exp1(ctx: Context) -> None:
    record = ctx.record
    model_name, dataset_name, task = EXPERIMENTS["Exp1"]
    stream = scheme_stream(ctx.seed)
    hv_results = []
    index = 0
    window = Window(ctx.seconds, minimum=1 if ctx.trace else HV_UNITS)
    for unit in window.units():
        block = next(stream)
        for traced in twins(ctx, unit):
            start = time.perf_counter()
            evaluator = make_evaluator(
                model_name, dataset_name, task, seed=ctx.seed, latency_batch=LATENCY_BATCH
            )
            setup_s = time.perf_counter() - start
            tracer = probe = None
            if traced:
                tracer = Tracer()
                attach_tracer(evaluator, tracer)
                probe = LayerProbe()
                instrument(probe, evaluator)
            block_s = 0.0
            try:
                for offset, scheme in enumerate(block):
                    number = index + offset
                    with record.operation(f"evaluate[{number}]"):
                        began = time.perf_counter()
                        result = evaluator.evaluate(scheme)
                        seconds = time.perf_counter() - began
                        block_s += seconds
                        row = [(result.params, result.flops, result.accuracy)]
                        ctx.store.check(
                            record, f"{ctx.workload}/{ctx.seed}/scheme{number}", digest(row)
                        )
                        if not traced:
                            record.add_round(seconds, 1)
                            if unit < HV_UNITS:
                                hv_results.append(result)
            finally:
                if probe is not None:
                    probe.restore()
            if traced:
                record.traced_s.append(block_s)
                record.layers.append(in_process_layers(probe, evaluator, tracer))
                continue
            record.untraced_s.append(block_s)
            record.setup_s.append(setup_s)
            record.unit_s.append(block_s)
            record.unit_evals.append(len(block))
        index += len(block)
    if hv_results:
        record.hv.append(front_hv(hv_results))


# --------------------------------------------------------------------------- #
# serve-2tenant-exp1
# --------------------------------------------------------------------------- #
class Daemon:
    """One ``repro serve`` subprocess on its own state directory."""

    def __init__(self, root: Path, state_dir: Path):
        self.state_dir = state_dir
        shutil.rmtree(state_dir, ignore_errors=True)
        state_dir.mkdir(parents=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
        )
        self._log = open(state_dir.parent / f"{state_dir.name}.log", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--state-dir", str(state_dir),
             *SERVE_ARGS],
            cwd=root, env=env, stdout=self._log, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        try:
            self.client = self._connect()
            self.pid = int(self.client.ping()["pid"])
        except BaseException:
            self._kill()
            raise

    def _connect(self, timeout: float = 60.0) -> ServeClient:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited with code {self.proc.returncode}")
            try:
                client = ServeClient(self.state_dir)
                client.ping()
                return client
            except (ServeUnavailable, ValueError):
                time.sleep(0.01)
        raise RuntimeError("repro serve did not answer ping in time")

    def peak_rss_mb(self) -> float:
        pids = [self.pid, *self.client.lane_pids()]
        return sum(process_peak_rss_mb(pid) for pid in pids)

    def _kill(self) -> None:
        """Kill the daemon and its lanes (one process group), then reap it."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait(timeout=60)
        self._log.close()

    def stop(self) -> None:
        """Graceful shutdown; the process group is killed if that fails."""
        try:
            self.client.shutdown()
            self.proc.wait(timeout=60)
        except (ServeUnavailable, RuntimeError, OSError, subprocess.TimeoutExpired):
            pass
        self._kill()


def serve_specs(seed: int, unit: int) -> List[JobSpec]:
    """The unit's two jobs: same evaluator config, one per tenant."""
    sub = unit_seed(seed, unit)
    model_name, dataset_name, task = EXPERIMENTS["Exp1"]
    config = EvaluatorConfig(
        model_name=model_name, dataset_name=dataset_name, task=task, seed=sub
    ).to_payload()
    return [
        JobSpec(evaluator=config, solver=solver, tenant=tenant, gamma=0.3,
                budget_hours=SERVE_HOURS, max_length=5, seed=2 * sub + offset)
        for offset, (solver, tenant) in enumerate((("random", "alice"), ("sa", "bob")))
    ]


class Tenant(threading.Thread):
    """Submit one job, then follow its event stream until it is terminal."""

    def __init__(self, client: ServeClient, spec: JobSpec, rpc_ms: Optional[List[float]]):
        super().__init__(name=f"tenant-{spec.tenant}", daemon=True)
        self.client = client
        self.spec = spec
        self.rpc_ms = rpc_ms
        self.rounds: List[Tuple[float, int]] = []
        self.final: Optional[dict] = None
        self.error: Optional[BaseException] = None

    def _rpc(self, call, *args):
        began = time.perf_counter()
        try:
            return call(*args)
        finally:
            if self.rpc_ms is not None:
                self.rpc_ms.append(1000.0 * (time.perf_counter() - began))

    def run(self) -> None:
        try:
            last = time.perf_counter()
            job = self._rpc(self.client.submit, self.spec)
            evaluations = 0
            for event in self.client.watch(job["job_id"]):
                if event.get("kind") == "round":
                    now = time.perf_counter()
                    self.rounds.append((now - last, int(event["evaluations"]) - evaluations))
                    last, evaluations = now, int(event["evaluations"])
                elif event.get("kind") == "done":
                    self.final = event["job"]
            if self.rpc_ms is not None and self.final is not None:
                self._rpc(self.client.status, self.final["job_id"])
        except Exception as exc:  # re-raised by the benchmark thread
            self.error = exc


def journal_layers(state_dir: Path, job_ids: List[str]) -> Dict[str, float]:
    """Span totals from the daemon's own per-job journals."""
    rounds = 0
    batch_s = 0.0
    for job_id in job_ids:
        summary = summarize_journal(state_dir / "journals" / f"{job_id}.jsonl")
        rounds += summary.span_counts.get("search.round", 0)
        batch_s += summary.span_wall.get("engine.batch", 0.0)
    return {"solver.rounds": float(rounds), "evaluator.evaluate_s": batch_s}


def disk_mb(path: Path) -> float:
    total = 0
    for item in path.rglob("*"):
        try:
            if item.is_file():
                total += item.stat().st_size
        except OSError:
            pass
    return total / (1024.0 * 1024.0)


def solo_rows(spec: JobSpec) -> List[tuple]:
    """The same job run alone, in-process: the serve ≡ solo oracle."""
    automc = AutoMC(
        spec.build_config().build(),
        space=spec.build_space(),
        solver=spec.solver,
        gamma=spec.gamma,
        budget_hours=spec.budget_hours,
        max_length=spec.max_length,
        seed=spec.seed,
        solver_kwargs=dict(spec.solver_kwargs),
    )
    return result_rows(automc.search().front)


def payload_rows(result: dict) -> List[tuple]:
    return [
        (p["identifier"], p["params"], p["flops"], p["accuracy"], p["cost"])
        for p in result["front"]
    ]


def serve_hv(specs: List[JobSpec], finals: List[dict]) -> float:
    evaluator = specs[0].build_config().build()
    points = [
        [(p["accuracy"] - evaluator.base_accuracy) / evaluator.base_accuracy,
         (evaluator.base_params - p["params"]) / evaluator.base_params]
        for final in finals
        for p in final["result"]["front"]
    ]
    if not points:
        return 0.0
    points = np.array(points)
    return float(hypervolume_2d(points[pareto_mask(points)], (-1.0, 0.0)))


def run_tenants(
    ctx: Context, daemon: Daemon, specs: List[JobSpec], unit: int, traced: bool
) -> Tuple[List[dict], List[Tenant], float, Dict[str, float]]:
    """Both tenants' jobs on ``daemon``: finals, tenants, makespan, layers."""
    record = ctx.record
    rpc_ms: Optional[List[float]] = [] if traced else None
    tenants = [Tenant(daemon.client, spec, rpc_ms) for spec in specs]
    start = time.perf_counter()
    for tenant in tenants:
        tenant.start()
    for tenant in tenants:
        tenant.join()
    makespan = time.perf_counter() - start
    finals = []
    for tenant in tenants:
        op = f"job[{unit}]/{tenant.spec.tenant}"
        with record.operation(op):
            if tenant.error is not None:
                raise tenant.error
            final = tenant.final or {}
            if final.get("state") != "completed":
                error = final.get("error") or {}
                record.fail(op, str(error.get("type", "JobNotCompleted")),
                            str(error.get("message", final.get("state"))))
                continue
            finals.append(final)
            ctx.store.check(
                record, f"{ctx.workload}/{ctx.seed}/unit{unit}/{tenant.spec.solver}",
                digest(payload_rows(final["result"])),
            )
    layers: Dict[str, float] = {}
    if traced:
        began = time.perf_counter()
        stats = daemon.client.stats()
        rpc_ms.append(1000.0 * (time.perf_counter() - began))
        results = [f["result"] for f in finals]
        layers = {
            "engine.steps_replayed": float(sum(r["steps_replayed"] for r in results)),
            "engine.snapshot_hits": float(sum(r["snapshot_hits"] for r in results)),
            "engine.snapshot_foreign_hits": float(
                sum(r["snapshot_foreign_hits"] for r in results)
            ),
            "engine.cache_hits": float(sum(r["cache_hits"] for r in results)),
            "engine.lane_restarts": float((stats.get("lane_pool") or {}).get("lane_restarts", 0)),
            "snapshots.disk_mb": disk_mb(daemon.state_dir / "snapshots"),
            "serve.queue_wait_s": median(
                [f["started_at"] - f["submitted_at"] for f in finals] or [0.0]
            ),
            "serve.rpc_p50_ms": median(rpc_ms),
            **journal_layers(daemon.state_dir, [f["job_id"] for f in finals]),
        }
    return finals, tenants, makespan, layers


def serve_2tenant_exp1(ctx: Context) -> None:
    """Each unit boots a fresh daemon, so every unit starts from cold caches."""
    record = ctx.record
    base = ctx.state_dir / f"serve-{os.getpid()}"
    checked: List[Tuple[JobSpec, dict]] = []
    hv_units: List[Tuple[List[JobSpec], List[dict]]] = []
    window = Window(ctx.seconds, minimum=1 if ctx.trace else HV_UNITS)
    try:
        for unit in window.units():
            specs = serve_specs(ctx.seed, unit)
            for traced in twins(ctx, unit):
                start = time.perf_counter()
                daemon = Daemon(ctx.root, base / f"unit{unit}-{int(traced)}")
                setup_s = time.perf_counter() - start
                try:
                    finals, tenants, makespan, layers = run_tenants(
                        ctx, daemon, specs, unit, traced
                    )
                    record.external_rss_mb = max(record.external_rss_mb, daemon.peak_rss_mb())
                finally:
                    daemon.stop()
                if traced:
                    record.layers.append(layers)
                    record.traced_s.append(makespan)
                    continue
                record.untraced_s.append(makespan)
                record.setup_s.append(setup_s)
                record.unit_s.append(makespan)
                record.unit_evals.append(sum(int(f["evaluations"]) for f in finals))
                for tenant in tenants:
                    for round_s, fresh in tenant.rounds:
                        record.add_round(round_s, fresh)
                if unit == 0:
                    checked = [(t.spec, t.final) for t in tenants if t.final in finals]
                if unit < HV_UNITS and len(finals) == len(specs):
                    hv_units.append((specs, finals))
    finally:
        shutil.rmtree(base, ignore_errors=True)
    for spec, final in checked:
        with record.operation(f"solo/{spec.tenant}"):
            if final["result"].get("cache_foreign_hits"):
                # another tenant's cached results changed this job's charged
                # costs; the oracle holds only for the same cache state
                record.checks["skipped"] += 1
            elif solo_rows(spec) != payload_rows(final["result"]):
                record.fail(f"solo/{spec.tenant}", "ServeSoloMismatch",
                            "served front differs from the solo in-process run")
            else:
                record.checks["passed"] += 1
    for specs, finals in hv_units:
        record.hv.append(serve_hv(specs, finals))


WORKLOADS: Dict[str, Callable[[Context], None]] = {
    "progressive-exp1": progressive_exp1,
    "regevo-exp2-flops": regevo_exp2_flops,
    "evalstream-quant-exp1": evalstream_quant_exp1,
    "serve-2tenant-exp1": serve_2tenant_exp1,
}

#: workloads whose set-up runs in this process (so it includes the imports)
IN_PROCESS = frozenset({"progressive-exp1", "regevo-exp2-flops", "evalstream-quant-exp1"})
