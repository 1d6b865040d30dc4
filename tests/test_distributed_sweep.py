"""End-to-end tests of the distributed sweep executor.

Covers the acceptance scenario of the subsystem: a ≥12-scenario grid run
with ``executor="distributed"`` and 3 workers matches the inline
executor fingerprint-for-fingerprint, survives a worker being SIGKILLed
mid-task (lease requeue), and an identical second run is answered
entirely from the sqlite result store with zero scenario executions.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import signal
import threading
import time
from pathlib import Path

import pytest

from repro.api import (
    CancelToken,
    ScenarioCompleted,
    ScenarioRetried,
    ScenarioSpec,
    Sweep,
    WorkloadSpec,
    default_executor,
    job_spec_to_dict,
    run_specs,
    set_default_executor,
)
from repro.api.registry import WORKLOADS, register_workload
from repro.distributed import Broker, TaskFailedError
from repro.simulator.entities import JobSpec

SLOW_WORKLOAD = "test-slow-explicit"


def _job_dicts(count: int = 3):
    return [
        job_spec_to_dict(
            JobSpec(
                job_id=f"j{i}", num_tasks=3, deadline=90.0, tmin=15.0, beta=1.5,
                submit_time=2.0 * i,
            )
        )
        for i in range(count)
    ]


def _kill_first_leaseholder(db: str, test_pid: int, ready, found: str) -> None:
    """Watch the queue; SIGKILL the first worker seen holding a lease.

    Writes the killed task's fingerprint and worker id to ``found``.
    """
    with Broker(db) as watcher:
        ready.set()
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            leased = watcher.tasks("leased")
            pids = {w["worker_id"]: w["pid"] for w in watcher.workers()}
            for record in leased:
                pid = pids.get(record.lease_owner)
                if pid and pid != test_pid:
                    Path(found).write_text(
                        json.dumps(
                            {"fingerprint": record.fingerprint, "worker_id": record.lease_owner}
                        )
                    )
                    os.kill(pid, signal.SIGKILL)
                    return
            time.sleep(0.005)


@pytest.fixture
def slow_workload():
    """An explicit workload whose build sleeps, so tasks hold leases a while."""

    def build(seed, jobs, delay_s=0.4):
        time.sleep(delay_s)
        from repro.api.spec import job_spec_from_dict

        return [job_spec_from_dict(job) for job in jobs]

    register_workload(SLOW_WORKLOAD, build)
    try:
        yield SLOW_WORKLOAD
    finally:
        WORKLOADS.unregister(SLOW_WORKLOAD)


@pytest.fixture
def base() -> ScenarioSpec:
    return ScenarioSpec(
        workload=WorkloadSpec("explicit", {"jobs": _job_dicts()}),
        strategy="s-resume",
        strategy_params={"tau_est": 30.0, "tau_kill": 60.0, "fixed_r": 1},
        cluster={"num_nodes": 0},
    )


def twelve_scenario_sweep(base: ScenarioSpec) -> Sweep:
    sweep = Sweep.grid(
        base,
        {
            "strategy": ["hadoop-ns", "s-resume"],
            "seed": [0, 1, 2],
            "strategy_params.theta": [1e-5, 1e-4],
        },
    )
    assert len(sweep) == 12
    return sweep


class TestDistributedMatchesInline:
    def test_twelve_scenarios_three_workers_byte_identical(self, base, tmp_path):
        """Acceptance: distributed == inline, and the re-run executes nothing."""
        sweep = twelve_scenario_sweep(base)
        db = tmp_path / "queue.sqlite"

        inline = sweep.run(executor="inline")
        distributed = sweep.run(executor="distributed", workers=3, db=db)
        assert distributed.executed == 12 and distributed.cache_hits == 0
        assert [r.fingerprint for r in distributed.results] == [
            r.fingerprint for r in inline.results
        ]
        assert [r.report for r in distributed.results] == [r.report for r in inline.results]

        # identical re-run: answered entirely by the SqliteResultStore
        rerun = sweep.run(executor="distributed", workers=3, db=db)
        assert rerun.executed == 0 and rerun.cache_hits == 12
        assert [r.fingerprint for r in rerun.results] == [r.fingerprint for r in inline.results]

    def test_duplicate_fingerprints_execute_once(self, base, tmp_path):
        outcome = run_specs(
            [base, base, base], executor="distributed", workers=2, db=tmp_path / "q.sqlite"
        )
        assert outcome.executed == 1
        assert len(outcome.results) == 3
        assert outcome.results[0].report == outcome.results[2].report

    def test_throwaway_database_by_default(self, base):
        outcome = run_specs([base], executor="distributed", workers=1)
        assert outcome.executed == 1

    def test_external_cache_still_consulted(self, base, tmp_path):
        from repro.api import ResultCache

        cache = ResultCache()
        first = run_specs([base], executor="distributed", workers=1, cache=cache)
        assert first.executed == 1
        second = run_specs(
            [base], executor="distributed", workers=1, db=tmp_path / "q.sqlite", cache=cache
        )
        assert second.executed == 0 and second.cache_hits == 1


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="worker-kill recovery relies on fork-inherited test workload plugins",
)
class TestWorkerCrashRecovery:
    def test_sigkilled_worker_mid_task_requeues_and_completes(self, slow_workload, tmp_path):
        """Acceptance: kill one of 3 workers mid-run; the sweep still finishes."""
        base = ScenarioSpec(
            workload=WorkloadSpec(slow_workload, {"jobs": _job_dicts(), "delay_s": 0.4}),
            strategy="s-resume",
            strategy_params={"tau_est": 30.0, "tau_kill": 60.0, "fixed_r": 1},
            cluster={"num_nodes": 0},
        )
        sweep = twelve_scenario_sweep(base)
        db = tmp_path / "queue.sqlite"
        found = tmp_path / "killed.json"
        # The watcher is a spawned process, not a thread of this one: the
        # sweep forks its workers from here, and a child forked while
        # another thread is inside sqlite can inherit a held sqlite lock
        # and hang on its first query.
        spawn = multiprocessing.get_context("spawn")
        ready = spawn.Event()
        assassin = spawn.Process(
            target=_kill_first_leaseholder, args=(str(db), os.getpid(), ready, str(found))
        )
        assassin.start()
        try:
            assert ready.wait(60.0), "the watcher never opened the queue"
            distributed = sweep.run(
                executor="distributed", workers=3, db=db, lease_timeout=2.0
            )
        finally:
            assassin.join(60.0)
            if assassin.is_alive():
                assassin.kill()
                assassin.join()

        killed = json.loads(found.read_text()) if found.exists() else {}
        assert killed, "no worker was observed holding a lease"
        assert distributed.executed == 12
        assert len(distributed.results) == 12

        inline = sweep.run(executor="inline")
        assert [r.fingerprint for r in distributed.results] == [
            r.fingerprint for r in inline.results
        ]
        assert [r.report for r in distributed.results] == [r.report for r in inline.results]

        # the interrupted task was requeued (second claim) and completed
        with Broker(db) as broker:
            record = broker.task(killed["fingerprint"])
            assert record.status == "done"
            assert record.attempts >= 2

    def test_unsupervised_recovery_goes_through_lease_expiry(self, tmp_path):
        """Without a reaping parent, an orphaned lease expires and requeues."""
        from repro.distributed import LeasePolicy, SqliteResultStore, Worker, WorkerConfig

        fast = LeasePolicy(timeout=0.4, heartbeat_interval=0.1)
        spec = ScenarioSpec(
            workload=WorkloadSpec("explicit", {"jobs": _job_dicts()}),
            strategy="s-resume",
            strategy_params={"tau_est": 30.0, "tau_kill": 60.0, "fixed_r": 1},
            cluster={"num_nodes": 0},
        )
        db = tmp_path / "queue.sqlite"
        with Broker(db, policy=fast) as broker:
            broker.enqueue([spec.to_dict()], [spec.fingerprint()])
            # a "crashed" worker: claims, then never heartbeats again
            zombie_task = broker.claim("zombie")
            assert zombie_task is not None

            # a healthy worker waits out the lease, requeues, completes
            worker = Worker(db, config=WorkerConfig(policy=fast, exit_when_idle=True))
            assert worker.run() == 1
            worker.close()

            record = broker.task(spec.fingerprint())
            assert record.status == "done"
            assert record.attempts == 2  # zombie's claim + the recovery claim
            with SqliteResultStore(db) as store:
                assert store.get(spec.fingerprint()).report is not None


def _payload_hash(result) -> str:
    """Canonical hash of a result payload, wall time excluded."""
    payload = result.to_dict()
    payload.pop("wall_time_s", None)
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class InjectedFault(RuntimeError):
    """Raised by :class:`ScriptedFaults` at a scripted call."""


class ScriptedFaults:
    """A broker wrapper that fails named lifecycle calls on a script.

    ``ScriptedFaults(broker, complete_many=1)`` raises :class:`InjectedFault`
    from the first ``complete_many`` call instead of making it; later
    calls, and every other method, go to the wrapped broker unchanged.
    """

    def __init__(self, inner, **failures: int):
        self._inner = inner
        self._failures = dict(failures)

    def __getattr__(self, name):
        method = getattr(self._inner, name)
        if not self._failures.get(name):
            return method

        def scripted(*args, **kwargs):
            if self._failures.get(name):
                self._failures[name] -= 1
                raise InjectedFault(f"scripted {name} failure")
            return method(*args, **kwargs)

        return scripted


class TestLostCommit:
    def test_worker_dying_before_its_commit_loses_only_leases(self, base, tmp_path):
        """The executed batch is redone after lease expiry; results equal inline."""
        from repro.distributed import LeasePolicy, Worker, WorkerConfig

        fast = LeasePolicy(timeout=0.4, heartbeat_interval=0.1)
        specs = list(twelve_scenario_sweep(base).specs)
        db = tmp_path / "queue.sqlite"
        with Broker(db, policy=fast) as broker:
            broker.enqueue([spec.to_dict() for spec in specs], [s.fingerprint() for s in specs])
            doomed = Worker(db, config=WorkerConfig(policy=fast, claim_batch=4))
            doomed._broker = ScriptedFaults(doomed._broker, complete_many=1)
            with pytest.raises(InjectedFault):
                doomed.run()
            doomed.close()
            # the worker died holding its executed batch: leased, nothing stored
            assert broker.counts() == {"pending": 8, "leased": 4, "done": 0, "failed": 0}
            lost = {record.fingerprint for record in broker.tasks("leased")}
            deadline = time.monotonic() + 30.0
            while broker.requeue_expired() == (0, 0):
                assert time.monotonic() < deadline, "leases never expired"
                time.sleep(fast.heartbeat_interval)
            assert broker.counts()["pending"] == 12

        outcome = run_specs(specs, executor="distributed", workers=2, db=db)
        inline = run_specs(specs, executor="inline")
        assert outcome.executed == 12 and outcome.failures == 0
        assert [_payload_hash(r) for r in outcome.results] == [
            _payload_hash(r) for r in inline.results
        ]
        with Broker(db) as broker:
            assert {broker.task(fp).attempts for fp in lost} == {2}


def _registers_then_blocks(target, worker_id=None, config=None):
    """A worker process that registers with the queue, then never claims."""
    from repro.distributed.targets import open_broker

    open_broker(target).register_worker(worker_id)
    threading.Event().wait()


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the stuck worker is patched into the pool through a fork",
)
class TestStallGuard:
    def test_alive_but_stuck_local_worker_is_drained_inline(self, base, tmp_path, monkeypatch):
        from repro.distributed import LeasePolicy
        from repro.distributed import worker as worker_module
        from repro.distributed.executor import execute_stream

        monkeypatch.setattr(worker_module, "worker_main", _registers_then_blocks)
        specs = [base.with_overrides({"seed": seed}) for seed in range(3)]
        todo = [(spec.fingerprint(), spec, index) for index, spec in enumerate(specs)]
        policy = LeasePolicy(timeout=0.5, heartbeat_interval=0.1)
        # Without the guard the sweep would wait forever: a backstop cancel
        # turns that into a failed assertion instead of a hung suite.
        backstop = CancelToken()
        timer = threading.Timer(60.0, backstop.cancel)
        timer.start()
        try:
            with pytest.warns(RuntimeWarning, match="local workers made no progress"):
                events = list(
                    execute_stream(
                        todo,
                        workers=1,
                        db=tmp_path / "queue.sqlite",
                        policy=policy,
                        cancel=backstop,
                    )
                )
        finally:
            timer.cancel()
        retried = [event for event in events if isinstance(event, ScenarioRetried)]
        assert {event.fingerprint for event in retried} == {fp for fp, _, _ in todo}
        completed = sorted(
            (event for event in events if isinstance(event, ScenarioCompleted)),
            key=lambda event: event.index,
        )
        assert [event.index for event in completed] == [0, 1, 2]
        assert {event.worker_id for event in completed} == {"parent-inline"}
        inline = run_specs(specs, executor="inline")
        assert [_payload_hash(e.result) for e in completed] == [
            _payload_hash(r) for r in inline.results
        ]
        # the stuck member was terminated, not left behind
        assert not [
            child for child in multiprocessing.active_children()
            if child.name.startswith("worker-")
        ]


class TestFailurePropagation:
    def test_scenario_error_raises_after_inline_retry(self, base, tmp_path):
        # num_jobs=0 passes spec validation but fails at workload build time
        # in the worker *and* in the parent's inline retry.
        bad = base.with_overrides(
            {"workload": {"kind": "benchmark", "params": {"name": "sort", "num_jobs": 0}}}
        )
        with pytest.raises(TaskFailedError):
            run_specs([base, bad], executor="distributed", workers=2, db=tmp_path / "q.sqlite")
        # work that finished before the failure is preserved in the store
        follow_up = run_specs(
            [base], executor="distributed", workers=1, db=tmp_path / "q.sqlite"
        )
        assert follow_up.executed == 0 and follow_up.cache_hits == 1


class TestExecutorSelection:
    def test_unknown_executor_rejected(self, base):
        with pytest.raises(ValueError, match="unknown executor"):
            run_specs([base], executor="carrier-pigeon")

    def test_default_executor_round_trip(self, base, tmp_path):
        assert default_executor() is None
        set_default_executor("distributed", workers=2, db=tmp_path / "q.sqlite")
        try:
            assert default_executor() == "distributed"
            outcome = run_specs([base])  # no executor argument anywhere
            assert outcome.executed == 1
            with Broker(tmp_path / "q.sqlite") as broker:
                assert broker.counts()["done"] == 1
        finally:
            set_default_executor(None)
        assert default_executor() is None

    def test_set_default_executor_validates(self):
        with pytest.raises(ValueError):
            set_default_executor("bogus")
        with pytest.raises(ValueError):
            set_default_executor("pool", workers=0)

    def test_non_positive_workers_rejected_for_every_executor(self, base):
        for executor in ("pool", "distributed"):
            with pytest.raises(ValueError, match="workers"):
                run_specs([base], executor=executor, workers=0)

    def test_explicit_inline_overrides_jobs(self, base):
        # executor="inline" with jobs>1 must not spin up a pool; duplicate
        # fingerprints make the executed count observable either way.
        outcome = run_specs([base, base], jobs=4, executor="inline")
        assert outcome.executed == 1
