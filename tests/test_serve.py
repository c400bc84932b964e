"""End-to-end tests for search-as-a-service (`repro serve` / repro.serve).

The suite proves the multi-tenant claims of the serving PR:

* **concurrency** — the daemon sustains two live jobs at once (proven by
  cancelling a long job *after* a short one submitted later has already
  completed: the cancellation could only land on a still-running job);
* **cross-job dedup** — a second tenant re-searching an overlapping scheme
  space reuses the first tenant's work from the shared tiers: finished
  evaluations from the shared result cache (``cache_foreign_hits > 0``),
  prefix replays from the snapshot store (``snapshot_foreign_hits``) for
  anything not yet cached;
* **bit-identity** — a served job's result (total cost, evaluation count,
  rounds, Pareto front) equals a solo in-process ``AutoMC.search()`` with
  the same spec, for every solver exercised — sharing changes wall-clock
  only, never results;
* **fault isolation** — a killed worker lane surfaces as a typed
  ``WorkerError`` (job failed + resumable) while the pool revives the lane
  and other jobs complete; a SIGTERM'd daemon restarts on the same state
  dir and recovers its job table, in-flight jobs marked
  ``interrupted``/resumable;
* **accounting invariant** — ``proposals_total == proposals_pruned +
  evaluated_proposals`` holds per job under interleaved multi-job
  scheduling (hypothesis property test).
"""

import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import AutoMC
from repro.core.config import EvaluatorConfig
from repro.core.engine import EvaluationEngine, LanePool, WorkerError
from repro.data.tasks import EXP1, transfer_task
from repro.serve import (
    JobScheduler,
    JobSpec,
    JobTable,
    ServeClient,
    ServeDaemon,
    ServerError,
)
from repro.serve.jobs import JOBS_JOURNAL
from repro.serve.protocol import (
    ProtocolError,
    endpoint_path,
    read_endpoint,
    recv_message,
    remove_endpoint,
    send_message,
    write_endpoint,
)
from repro.serve.scheduler import JOURNAL_SUBDIR
from repro.space import CompressionScheme, StrategySpace

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")

#: small scheme space shared by every job in the suite — two tenants over
#: the same space are guaranteed overlapping prefixes
METHODS = ["C3", "C4"]

#: per-solver settings keeping every served search in the seconds range
#: (plain JSON — they cross the wire inside the job spec)
SERVE_SOLVER_KWARGS = {
    "sa": {"chains": 2},
    "regevo": {"population_size": 4, "tournament_size": 2, "children_per_round": 3},
}

#: the bit-identity matrix: four solvers with distinct proposal dynamics.
#: progressive runs with AutoMC's default embeddings and experience and no
#: ``config`` dict (the oracle would pass such a dict through unconverted)
BIT_IDENTICAL_SOLVERS = ["random", "sa", "regevo", "progressive"]


def evaluator_payload(seed=3):
    task = transfer_task(EXP1, "resnet20", 0.27, 0.08, EXP1.model_accuracy)
    return EvaluatorConfig(
        model_name="resnet20", dataset_name="cifar10", task=task, seed=seed
    ).to_payload()


def make_spec(solver="random", tenant="alice", seed=3, budget_hours=0.8, **over):
    fields = dict(
        evaluator=evaluator_payload(seed),
        solver=solver,
        tenant=tenant,
        gamma=0.2,
        budget_hours=budget_hours,
        max_length=4,
        seed=seed,
        method_labels=list(METHODS),
        solver_kwargs=dict(SERVE_SOLVER_KWARGS.get(solver, {})),
    )
    fields.update(over)
    return JobSpec(**fields)


def reference_search(spec, cache_dir=None):
    """The same search run solo and in-process — the bit-identity oracle.

    ``cache_dir`` reproduces a warm-start: a served job that reuses another
    job's cached results must equal a solo run against the same cache state
    (pass a *copy* of the daemon's cache tree so the oracle run does not
    write into it).
    """
    automc = AutoMC(
        spec.build_config().build(),
        space=spec.build_space(),
        solver=spec.solver,
        gamma=spec.gamma,
        budget_hours=spec.budget_hours,
        max_length=spec.max_length,
        seed=spec.seed,
        solver_kwargs=dict(spec.solver_kwargs),
        cache_dir=cache_dir,
    )
    return automc.search()


def assert_matches_reference(payload, ref):
    """Served result payload == solo SearchResult, bit for bit."""
    assert payload["total_cost"] == ref.total_cost  # exact float equality
    assert payload["evaluations"] == ref.evaluations
    assert payload["rounds"] == ref.rounds
    served_front = [
        (p["identifier"], p["params"], p["flops"], p["accuracy"], p["cost"])
        for p in payload["pareto"]
    ]
    expected_front = [
        (r.scheme.identifier, r.params, r.flops, r.accuracy, r.cost)
        for r in ref.pareto
    ]
    assert served_front == expected_front
    assert payload["solver_stats"] == ref.solver_stats


def wait_until(predicate, timeout=60.0, interval=0.05, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError(f"timed out waiting for {message}")


# --------------------------------------------------------------------------- #
class TestWireProtocol:
    def _pipe(self):
        a, b = socket.socketpair()
        return a.makefile("rwb"), b.makefile("rwb"), a, b

    def test_round_trip(self):
        out, inp, a, b = self._pipe()
        with a, b:
            message = {"op": "submit", "spec": {"seed": 7}, "n": [1, 2, 3]}
            send_message(out, message)
            assert recv_message(inp) == message

    def test_clean_eof_returns_none(self):
        out, inp, a, b = self._pipe()
        with b:
            out.close()  # the makefile holds the last fd reference
            a.close()
            assert recv_message(inp) is None

    def test_truncated_line_is_eof_not_garbage(self):
        out, inp, a, b = self._pipe()
        with b:
            out.write(b'{"op": "sub')  # peer died mid-write
            out.close()
            a.close()
            assert recv_message(inp) is None

    @pytest.mark.parametrize("line", [b"not json\n", b"[1, 2]\n", b"42\n"])
    def test_malformed_lines_raise_protocol_error(self, line):
        out, inp, a, b = self._pipe()
        with a, b:
            out.write(line)
            out.flush()
            with pytest.raises(ProtocolError):
                recv_message(inp)

    def test_endpoint_file_lifecycle(self, tmp_path):
        write_endpoint(tmp_path, "127.0.0.1", 4321)
        endpoint = read_endpoint(tmp_path)
        assert endpoint["host"] == "127.0.0.1"
        assert endpoint["port"] == 4321
        assert endpoint["pid"] == os.getpid()
        remove_endpoint(tmp_path)
        assert not endpoint_path(tmp_path).exists()
        with pytest.raises(FileNotFoundError):
            read_endpoint(tmp_path)


# --------------------------------------------------------------------------- #
class TestJobSpec:
    def test_payload_round_trip(self):
        spec = make_spec(solver="sa", tenant="bob", seed=5)
        assert JobSpec.from_payload(json.loads(json.dumps(spec.to_payload()))) == spec

    def test_unknown_fields_rejected(self):
        payload = make_spec().to_payload()
        payload["frobnicate"] = True
        with pytest.raises(ValueError, match="frobnicate"):
            JobSpec.from_payload(payload)

    def test_unknown_solver_rejected(self):
        with pytest.raises(ValueError, match="unknown solver"):
            make_spec(solver="gradient-descent").validate()

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ValueError, match="budget_hours"):
            make_spec(budget_hours=0.0).validate()


# --------------------------------------------------------------------------- #
class TestJobTableRecovery:
    def test_restart_recovers_states_and_marks_inflight_interrupted(self, tmp_path):
        table = JobTable(tmp_path)
        done = table.create(make_spec(tenant="done"))
        table.transition(done.job_id, "running")
        table.transition(done.job_id, "completed", result={"total_cost": 1.5})
        inflight = table.create(make_spec(tenant="inflight"))
        table.transition(inflight.job_id, "running")
        table.progress(inflight.job_id, rounds=2, evaluations=7,
                       total_cost=0.4, pareto=[])
        table.close()  # the daemon dies here

        recovered = JobTable.recover(tmp_path)
        a = recovered.get(done.job_id)
        assert a.state == "completed"
        assert a.result == {"total_cost": 1.5}
        assert not a.resumable
        b = recovered.get(inflight.job_id)
        assert b.state == "interrupted"
        assert b.resumable
        assert (b.rounds, b.evaluations, b.total_cost) == (2, 7, 0.4)
        assert b.spec == make_spec(tenant="inflight")
        # ids stay monotonic across the restart
        assert recovered.create(make_spec()).job_id not in {a.job_id, b.job_id}
        recovered.close()

    def test_truncated_and_corrupt_journal_lines_are_skipped(self, tmp_path):
        table = JobTable(tmp_path)
        job = table.create(make_spec())
        table.transition(job.job_id, "running")
        table.transition(job.job_id, "completed", result={"total_cost": 0.9})
        table.close()
        with open(tmp_path / JOBS_JOURNAL, "a", encoding="utf-8") as handle:
            handle.write("this is not json\n")
            handle.write('{"event": "running", "job_id":')  # crash-torn line

        recovered = JobTable.recover(tmp_path)
        assert recovered.get(job.job_id).state == "completed"
        recovered.close()

    def test_second_restart_sees_interrupted_as_terminal(self, tmp_path):
        table = JobTable(tmp_path)
        job = table.create(make_spec())
        table.transition(job.job_id, "running")
        table.close()
        once = JobTable.recover(tmp_path)
        assert once.get(job.job_id).state == "interrupted"
        once.close()
        twice = JobTable.recover(tmp_path)
        # interrupted was journalled by the first recovery: no re-transition
        record = twice.get(job.job_id)
        assert record.state == "interrupted"
        assert record.resumable
        twice.close()


# --------------------------------------------------------------------------- #
def _fresh_engine(pool=None, seed=0):
    spec = make_spec(seed=seed)
    return EvaluationEngine(spec.build_config().build(), lane_pool=pool)


def _schemes():
    space = StrategySpace(method_labels=METHODS)
    c3 = space.of_method("C3")
    base = CompressionScheme((c3[0],))
    return [base, base.extend(c3[1])]


class TestLanePoolFaults:
    def test_pool_needs_at_least_one_worker(self):
        with pytest.raises(ValueError):
            LanePool(0)

    def test_lane_death_is_typed_survivable_and_revived(self):
        schemes = _schemes()
        with LanePool(1) as pool:
            (pid,) = pool.prestart()
            engine = _fresh_engine(pool)
            os.kill(pid, signal.SIGKILL)
            # two schemes: single-scheme batches take the serial in-parent
            # shortcut and would never touch the dead lane
            with pytest.raises(WorkerError) as excinfo:
                engine.evaluate_many(schemes)
            assert excinfo.value.cause_type == "WorkerLaneDied"
            assert excinfo.value.scheme_id == schemes[0].identifier
            assert len(excinfo.value.failures) == len(schemes)
            assert pool.lane_restarts >= 1
            # the revived lane evaluates the same batch bit-identically
            revived = engine.evaluate_many(schemes)
            serial = _fresh_engine().evaluate_many(schemes)
            for a, b in zip(revived, serial):
                assert (a.scheme.identifier, a.accuracy, a.cost) == (
                    b.scheme.identifier, b.accuracy, b.cost
                )
            engine.close()
            assert pool.stats()["live_lanes"] == 1  # borrowed pool survives

    def test_shared_pool_outlives_borrowing_engines(self):
        schemes = _schemes()
        serial = _fresh_engine().evaluate_many(schemes)
        with LanePool(2) as pool:
            first = _fresh_engine(pool)
            results_a = first.evaluate_many(schemes)
            first.close()  # must not tear down the borrowed pool
            second = _fresh_engine(pool)
            results_b = second.evaluate_many(schemes)
            second.close()
            for got in (results_a, results_b):
                for a, b in zip(got, serial):
                    assert (a.scheme.identifier, a.accuracy, a.cost) == (
                        b.scheme.identifier, b.accuracy, b.cost
                    )
            assert pool.stats()["workers"] == 2
        with pytest.raises(RuntimeError):
            pool.lane_pids()  # closed pools refuse work

    def test_scheduler_isolates_lane_death_to_one_job(self, tmp_path):
        """Job A fails typed + resumable on a dead lane; job B completes."""
        scheduler = JobScheduler(
            tmp_path, workers=1, job_journals=False, recover=False
        )
        try:
            (pid,) = scheduler.lane_pool.prestart()
            os.kill(pid, signal.SIGKILL)
            doomed = scheduler.submit(make_spec(tenant="doomed", seed=11))
            record = scheduler.wait(doomed.job_id, timeout=120.0)
            assert record.state == "failed"
            assert record.error["type"] == "WorkerError"
            assert record.error["cause_type"] == "WorkerLaneDied"
            assert record.resumable  # a resubmit resumes from snapshots
            assert scheduler.lane_pool.lane_restarts >= 1
            healthy = scheduler.submit(make_spec(tenant="healthy", seed=11))
            record = scheduler.wait(healthy.job_id, timeout=120.0)
            assert record.state == "completed"
        finally:
            scheduler.close()

    def test_unknown_method_label_fails_job_before_its_journal_opens(
        self, tmp_path
    ):
        """A bad --methods label fails the job and leaves no journal open."""
        scheduler = JobScheduler(tmp_path, workers=1, recover=False)
        try:
            bad = scheduler.submit(
                make_spec(tenant="typo", method_labels=["C3", "C99"])
            )
            record = scheduler.wait(bad.job_id, timeout=60.0)
            assert record.state == "failed"
            assert record.error["type"] == "KeyError"
            assert "C99" in record.error["message"]
            journal = tmp_path / JOURNAL_SUBDIR / f"{bad.job_id}.jsonl"
            assert not journal.exists()
            good = scheduler.submit(make_spec(tenant="fixed"))
            record = scheduler.wait(good.job_id, timeout=120.0)
            assert record.state == "completed"
            assert (tmp_path / JOURNAL_SUBDIR / f"{good.job_id}.jsonl").exists()
        finally:
            scheduler.close()


# --------------------------------------------------------------------------- #
class TestConcurrentProfiling:
    def test_fingerprints_agree_across_threads(self):
        """Regression: the FLOP-profiling sink was process-global, so two
        jobs building evaluators concurrently interleaved each other's
        forward-pass counts — divergent base FLOPs, divergent fingerprints,
        and a silently *split* snapshot store (zero cross-job dedup)."""
        import threading

        fingerprints = {}

        def build(name):
            evaluator = make_spec(seed=7).build_config().build()
            fingerprints[name] = (evaluator.fingerprint(), evaluator.base_flops)

        threads = [
            threading.Thread(target=build, args=(f"t{i}",)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(set(fingerprints.values())) == 1


# --------------------------------------------------------------------------- #
class TestServeEndToEnd:
    @pytest.mark.parametrize("solver", BIT_IDENTICAL_SOLVERS)
    def test_two_tenants_dedup_snapshots_and_stay_bit_identical(
        self, tmp_path, solver
    ):
        """The PR's core acceptance: tenants share finished work, not state.

        Tenant alice runs first against empty shared tiers; tenant bob then
        re-searches the same space through the same daemon and must
        (a) reuse alice's finished evaluations straight from the shared
        result cache (``cache_foreign_hits > 0`` — the cache sits above the
        snapshot store, so identical schemes never even replay) and
        (b) still produce the *exact* result a solo ``AutoMC.search()``
        produces against the same cache state — cached hits pay no
        simulated GPU-hours, so bob's search legitimately stretches its
        budget further than a cold run; the oracle for bob is therefore a
        solo run warm-started from a *copy* of alice's cache tree.
        """
        spec = make_spec(solver=solver, tenant="alice", seed=3)
        ref_cold = reference_search(spec)
        with ServeDaemon(tmp_path, workers=0, max_jobs=2):
            client = ServeClient(state_dir=tmp_path)
            job_a = client.submit(spec)
            final_a = client.wait(job_a["job_id"])
            assert final_a["state"] == "completed"
            assert final_a["result"]["snapshot_foreign_hits"] == 0
            assert final_a["result"]["cache_foreign_hits"] == 0
            assert_matches_reference(final_a["result"], ref_cold)

            # the warm oracle: same search, solo, against a snapshot of the
            # shared cache exactly as bob will find it
            oracle_cache = tmp_path / "oracle-cache"
            shutil.copytree(tmp_path / "cache", oracle_cache)
            ref_warm = reference_search(spec, cache_dir=str(oracle_cache))

            job_b = client.submit(make_spec(solver=solver, tenant="bob", seed=3))
            final_b = client.wait(job_b["job_id"])
            assert final_b["state"] == "completed"
            # bob's evaluations come straight from alice's cached results
            assert final_b["result"]["cache_foreign_hits"] > 0
            assert (
                final_b["result"]["cache_hits"]
                >= final_b["result"]["cache_foreign_hits"]
            )
            assert_matches_reference(final_b["result"], ref_warm)

    def test_concurrent_jobs_overlap_and_short_job_dedups_long_one(self, tmp_path):
        """Two jobs live at once; cancellation proves the overlap.

        The long job is cancelled only *after* the short job (submitted
        later) completed — a terminal state of ``cancelled`` is therefore
        proof the two jobs ran concurrently, with no wall-clock guessing.
        """
        with ServeDaemon(tmp_path, workers=0, max_jobs=2):
            client = ServeClient(state_dir=tmp_path)
            marathon = client.submit(
                make_spec(tenant="marathon", seed=7, budget_hours=500.0)
            )
            wait_until(
                lambda: client.status(marathon["job_id"])["rounds"] >= 1,
                message="the long job's first round",
            )
            sprint = client.submit(make_spec(tenant="sprint", seed=7))
            final_sprint = client.wait(sprint["job_id"])
            assert final_sprint["state"] == "completed"
            # the marathon had written round-1 results/snapshots before the
            # sprint started: cross-job dedup works between *live* jobs too
            # (cached full evaluations first, prefix replays for the rest)
            assert (
                final_sprint["result"]["cache_foreign_hits"]
                + final_sprint["result"]["snapshot_foreign_hits"]
            ) > 0

            client.cancel(marathon["job_id"])
            final_marathon = client.wait(marathon["job_id"])
            assert final_marathon["state"] == "cancelled"
            assert final_marathon["result"] is not None  # partial result kept
            assert final_marathon["rounds"] >= 1

            states = {j["job_id"]: j["state"] for j in client.list_jobs()}
            assert states == {
                marathon["job_id"]: "cancelled",
                sprint["job_id"]: "completed",
            }

    def test_watch_streams_rounds_then_done(self, tmp_path):
        with ServeDaemon(tmp_path, workers=0, max_jobs=1):
            client = ServeClient(state_dir=tmp_path)
            job = client.submit(make_spec(seed=2))
            events = list(client.watch(job["job_id"]))
            assert events[0]["kind"] == "snapshot"
            assert events[-1]["kind"] == "done"
            assert events[-1]["job"]["state"] == "completed"
            rounds = [e for e in events if e.get("kind") == "round"]
            assert rounds, "at least one round event must stream"
            assert [e["seq"] for e in rounds] == sorted(e["seq"] for e in rounds)
            front = rounds[-1]["pareto"]
            assert front and all("identifier" in p for p in front)

    def test_protocol_errors_are_typed_not_fatal(self, tmp_path):
        with ServeDaemon(tmp_path, workers=0):
            client = ServeClient(state_dir=tmp_path)
            with pytest.raises(ServerError) as excinfo:
                client.status("job-9999")
            assert excinfo.value.error_type == "KeyError"
            bad = make_spec().to_payload()
            bad["solver"] = "gradient-descent"
            with pytest.raises(ServerError) as excinfo:
                client._request("submit", spec=bad)
            assert excinfo.value.error_type == "ValueError"
            assert client.ping()["pid"] == os.getpid()  # daemon still alive

    def test_sigterm_mid_round_then_restart_recovers_job_table(self, tmp_path):
        """The crash drill: SIGTERM the daemon mid-round, restart, recover.

        ``repro serve`` treats SIGTERM as a crash by design (``os._exit``) —
        nothing is journalled beyond the last completed transition.  The
        next daemon on the same state dir must surface the in-flight job as
        ``interrupted``/resumable and serve new jobs normally.
        """
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--state-dir", str(tmp_path), "--max-jobs", "2"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        try:
            wait_until(
                lambda: endpoint_path(tmp_path).exists(),
                message="daemon endpoint file",
            )
            client = ServeClient(state_dir=tmp_path)
            job = client.submit(make_spec(tenant="victim", seed=1,
                                          budget_hours=500.0))
            wait_until(
                lambda: client.status(job["job_id"])["rounds"] >= 1,
                message="first round before the SIGTERM",
            )
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)

        with ServeDaemon(tmp_path, workers=0, max_jobs=2):
            survivor = ServeClient(state_dir=tmp_path)
            recovered = survivor.status(job["job_id"])
            assert recovered["state"] == "interrupted"
            assert recovered["resumable"]
            assert recovered["rounds"] >= 1  # progress survived the crash
            fresh = survivor.submit(make_spec(tenant="fresh", seed=1))
            assert fresh["job_id"] != job["job_id"]
            final = survivor.wait(fresh["job_id"])
            assert final["state"] == "completed"
            # the fresh job resumes the victim's cached results/snapshots:
            # the resubmit-to-resume story interrupted jobs rely on
            assert (
                final["result"]["cache_foreign_hits"]
                + final["result"]["snapshot_foreign_hits"]
            ) > 0


# --------------------------------------------------------------------------- #
class TestSchedulingInvariants:
    @settings(max_examples=4, deadline=None)
    @given(
        jobs=st.lists(
            st.tuples(
                st.sampled_from(["random", "sa"]),
                st.integers(min_value=0, max_value=3),
            ),
            min_size=2,
            max_size=3,
        )
    )
    def test_proposal_accounting_holds_under_interleaving(
        self, jobs, tmp_path_factory
    ):
        """proposals_total == proposals_pruned + evaluated_proposals, per
        job, no matter how the scheduler interleaves the drivers."""
        state_dir = tmp_path_factory.mktemp("serve-prop")
        scheduler = JobScheduler(
            state_dir, workers=0, max_jobs=len(jobs),
            job_journals=False, recover=False,
        )
        try:
            records = [
                scheduler.submit(
                    make_spec(solver=solver, tenant=f"t{i}", seed=seed,
                              budget_hours=0.4, max_length=3)
                )
                for i, (solver, seed) in enumerate(jobs)
            ]
            for record in records:
                final = scheduler.wait(record.job_id, timeout=180.0)
                assert final.state == "completed"
                stats = final.result["solver_stats"]
                assert (
                    stats["proposals_total"]
                    == stats["proposals_pruned"] + stats["evaluated_proposals"]
                )
                assert final.result["evaluations"] == final.evaluations
        finally:
            scheduler.close()
