"""Tests of the multi-host sweep service: server, clients, fleets, CLI.

Covers the acceptance scenario of the subsystem: worker fleets pointed
at one HTTP broker front-end produce results byte-identical to
``executor="inline"`` (fingerprints *and* payloads), a SIGKILL'd remote
worker's task is requeued and completed — with the supervised pool
replacing the dead member automatically — and an identical re-run over
HTTP executes zero scenarios.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import threading
import time
from dataclasses import dataclass

import pytest

from repro.api import ScenarioSpec, Sweep, WorkloadSpec, job_spec_to_dict, run, run_specs
from repro.api.registry import WORKLOADS, register_workload
from repro.distributed import (
    Broker,
    LeasePolicy,
    RestartPolicy,
    TaskFailedError,
    Worker,
    WorkerConfig,
    WorkerPool,
    is_service_url,
    open_broker,
    open_store,
)
from repro.service import (
    HttpBroker,
    HttpResultStore,
    ServiceError,
    make_server,
    rpc_call,
)
from repro.simulator.entities import JobSpec

#: Fast lease timings so recovery tests take fractions of a second.
FAST = LeasePolicy(timeout=2.0, heartbeat_interval=0.25, max_attempts=3)

SLOW_WORKLOAD = "test-slow-service"


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


def _tiny_spec(seed: int = 0) -> ScenarioSpec:
    return ScenarioSpec(
        workload=WorkloadSpec("explicit", {"jobs": _job_dicts()}),
        strategy="s-resume",
        strategy_params={"tau_est": 30.0, "tau_kill": 60.0, "fixed_r": 1},
        cluster={"num_nodes": 0},
        seed=seed,
    )


@dataclass
class Service:
    url: str
    db: object
    server: object


@pytest.fixture
def service(tmp_path):
    """An HTTP sweep service on an ephemeral port, serving a fresh queue."""
    db = tmp_path / "queue.sqlite"
    server = make_server(db, host="127.0.0.1", port=0, policy=FAST)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    url = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        yield Service(url=url, db=db, server=server)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)


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


class TestTargets:
    def test_url_detection(self):
        assert is_service_url("http://host:8176")
        assert is_service_url("https://host")
        assert not is_service_url("queue.sqlite")
        assert not is_service_url("sqlite:queue.sqlite")

    def test_open_broker_dispatches(self, service, tmp_path):
        http = open_broker(service.url)
        assert isinstance(http, HttpBroker)
        local = open_broker(tmp_path / "other.sqlite")
        assert isinstance(local, Broker)
        local.close()

    def test_open_store_dispatches(self, service, tmp_path):
        assert isinstance(open_store(service.url), HttpResultStore)
        store = open_store(f"sqlite:{tmp_path / 'other.sqlite'}")
        assert store.path == tmp_path / "other.sqlite"
        store.close()


class TestEndpoints:
    def test_healthz(self, service):
        import urllib.request

        with urllib.request.urlopen(service.url + "/healthz", timeout=5.0) as response:
            body = json.loads(response.read())
        assert body["ok"] is True
        assert body["db"] == str(service.db)

    def test_status_endpoint(self, service):
        import urllib.request

        with urllib.request.urlopen(service.url + "/status", timeout=5.0) as response:
            body = json.loads(response.read())
        assert body["tasks"] == {"pending": 0, "leased": 0, "done": 0, "failed": 0}

    def test_unknown_method_is_a_clean_error(self, service):
        with pytest.raises(ServiceError, match="unknown method"):
            rpc_call(service.url, "carrier_pigeon")

    def test_bad_params_are_a_400_not_a_crash(self, service):
        with pytest.raises(ServiceError, match="HTTP 400"):
            rpc_call(service.url, "claim", {"no_such_param": 1})
        # the server thread survives and keeps answering
        assert rpc_call(service.url, "settled") is True

    def test_unreachable_service(self):
        with pytest.raises(ServiceError, match="cannot reach"):
            rpc_call("http://127.0.0.1:9", "settled", timeout=0.5)


class TestHttpBrokerParity:
    """Every Broker operation behaves identically through the front-end."""

    def test_enqueue_claim_complete_lifecycle(self, service):
        spec = _tiny_spec()
        broker = HttpBroker(service.url)
        assert broker.enqueue([spec.to_dict()], [spec.fingerprint()]) == 1
        assert broker.enqueue([spec.to_dict()], [spec.fingerprint()]) == 0  # dedup
        task = broker.claim("w1")
        assert task is not None
        assert task.fingerprint == spec.fingerprint()
        assert task.attempts == 1 and task.lease.owner == "w1"
        assert broker.claim("w2") is None  # no double-claim
        assert broker.heartbeat(task.fingerprint, "w1") is True
        assert broker.heartbeat(task.fingerprint, "intruder") is False
        result = run(ScenarioSpec.from_dict(task.payload))
        broker.complete(task.fingerprint, "w1", result.to_dict())
        assert broker.counts()["done"] == 1
        assert broker.settled()
        record = broker.task(spec.fingerprint())
        assert record.status == "done"

    def test_server_policy_governs_leases(self, service):
        """A client with a different local policy still gets server leases."""
        spec = _tiny_spec()
        broker = HttpBroker(service.url, policy=LeasePolicy(timeout=9999.0))
        assert broker.policy.timeout == FAST.timeout  # server's answer wins
        broker.enqueue([spec.to_dict()], [spec.fingerprint()])
        task = broker.claim("zombie")
        assert task.lease.expires_at - time.time() < FAST.timeout + 1.0
        time.sleep(FAST.timeout + 0.1)
        requeued, exhausted = broker.requeue_expired()
        assert (requeued, exhausted) == (1, 0)

    def test_fail_and_failed_payloads(self, service):
        spec = _tiny_spec()
        broker = HttpBroker(service.url)
        broker.enqueue([spec.to_dict()], [spec.fingerprint()])
        task = broker.claim("w1")
        assert broker.fail(task.fingerprint, "w1", "boom") is True
        fingerprint, payload, error = broker.failed_payloads()[0]
        assert fingerprint == spec.fingerprint()
        assert payload == spec.to_dict()
        assert error == "boom"

    def test_release_worker_and_drain(self, service):
        spec = _tiny_spec()
        broker = HttpBroker(service.url)
        broker.enqueue([spec.to_dict()], [spec.fingerprint()])
        broker.claim("doomed")
        assert broker.release_worker("doomed") == (1, 0)
        assert broker.task(spec.fingerprint()).status == "pending"
        assert not broker.is_draining()
        broker.drain()
        assert broker.is_draining()

    def test_remote_worker_registers_its_own_pid(self, service):
        broker = HttpBroker(service.url)
        broker.register_worker("remote-w1")
        workers = {w["worker_id"]: w for w in broker.workers()}
        # the *client's* pid, not the server's (they share one here, so
        # register under an explicit fake remote pid as well)
        assert workers["remote-w1"]["pid"] == os.getpid()
        broker.register_worker("remote-w2", pid=424242)
        assert {w["worker_id"]: w for w in broker.workers()}["remote-w2"]["pid"] == 424242

    def test_claim_many_over_http(self, service):
        specs = [_tiny_spec(seed=s) for s in range(5)]
        broker = HttpBroker(service.url)
        broker.enqueue([s.to_dict() for s in specs], [s.fingerprint() for s in specs])
        batch = broker.claim_many("w1", 3)
        # one enqueue = one timestamp, so FIFO order ties break by fingerprint
        assert [t.fingerprint for t in batch] == sorted(s.fingerprint() for s in specs)[:3]
        assert broker.counts()["leased"] == 3
        rest = broker.claim_many("w2", 10)
        assert len(rest) == 2  # partial batch when the queue runs dry

    def test_complete_many_over_http(self, service):
        specs = [_tiny_spec(seed=s) for s in range(3)]
        broker = HttpBroker(service.url)
        broker.enqueue([s.to_dict() for s in specs], [s.fingerprint() for s in specs])
        broker.register_worker("w1")
        batch = broker.claim_many("w1", 3)
        since = broker.last_event_seq()
        results = [run(ScenarioSpec.from_dict(task.payload)) for task in batch]
        broker.complete_many("w1", [(r.fingerprint, r.to_dict()) for r in results])
        assert broker.counts()["done"] == 3
        assert [row["kind"] for row in broker.events_since(since)] == ["completed"] * 3
        assert broker.workers()[0]["tasks_done"] == 3
        fetched = HttpResultStore(service.url).get_many([r.fingerprint for r in results])
        assert {fp: r.report for fp, r in fetched.items()} == {
            r.fingerprint: r.report for r in results
        }

    def test_stats_and_leased_detail(self, service):
        spec = _tiny_spec()
        broker = HttpBroker(service.url)
        broker.enqueue([spec.to_dict()], [spec.fingerprint()])
        broker.claim("w1")
        stats = broker.stats()
        assert stats["url"] == service.url
        assert stats["tasks"]["leased"] == 1
        (lease,) = stats["leased"]
        assert lease["worker_id"] == "w1"
        assert lease["attempts"] == 1 and lease["max_attempts"] == FAST.max_attempts
        assert 0 < lease["expires_in_s"] <= FAST.timeout


class TestHttpResultStore:
    def test_put_get_round_trip(self, service):
        spec = _tiny_spec()
        result = run(spec)
        store = HttpResultStore(service.url)
        assert store.get(spec.fingerprint()) is None
        store.put(result, worker_id="w1")
        fetched = HttpResultStore(service.url).get(spec.fingerprint())  # no local memo
        assert fetched.fingerprint == result.fingerprint
        assert fetched.report == result.report
        assert len(store) == 1
        assert result.fingerprint in store
        assert store.fingerprints() == {result.fingerprint}

    def test_get_many_in_one_round_trip(self, service, monkeypatch):
        from repro.distributed import connect
        from repro.service import client as client_module

        results = [run(_tiny_spec(seed=s)) for s in range(2)]
        writer = HttpResultStore(service.url)
        for result in results:
            writer.put(result)
        conn = connect(service.db)
        conn.execute(
            "INSERT INTO results (fingerprint, payload, created_at) VALUES (?, ?, 0)",
            ("deadbeef", "{ not json"),
        )
        conn.close()
        calls = []
        real_rpc = client_module.rpc_call

        def counting_rpc(url, method, *args, **kwargs):
            calls.append(method)
            return real_rpc(url, method, *args, **kwargs)

        monkeypatch.setattr(client_module, "rpc_call", counting_rpc)
        store = HttpResultStore(service.url)  # no local memo
        wanted = [r.fingerprint for r in results] + ["deadbeef", "missing"]
        fetched = store.get_many(wanted)
        assert calls == ["result_get_many"]
        # corrupt rows and misses are absent, exactly like the sqlite store
        assert {fp: r.report for fp, r in fetched.items()} == {
            r.fingerprint: r.report for r in results
        }
        assert store.get(results[0].fingerprint).report == results[0].report
        assert calls == ["result_get_many"]  # memoized

    def test_shared_with_sqlite_store(self, service):
        """HTTP writes land in the same rows the local store reads."""
        from repro.distributed import SqliteResultStore

        result = run(_tiny_spec())
        HttpResultStore(service.url).put(result)
        with SqliteResultStore(service.db) as local:
            assert local.get(result.fingerprint).report == result.report

    def test_cluster_result_round_trip(self, service):
        """Cluster payloads must parse on the HTTP read path, not fall
        through the corrupt-row branch and report a store miss."""
        from repro.cluster import ArrivalSpec, ClusterResult, ClusterSpec, run_cluster

        spec = ClusterSpec(
            arrival=ArrivalSpec(
                "poisson", {"benchmark": "sort", "num_jobs": 2, "inter_arrival": 30.0}
            ),
            strategy="s-resume",
            cluster={"num_nodes": 4, "slots_per_node": 4},
        )
        result = run_cluster(spec)
        # All jobs reach a terminal state, so every metric is finite and
        # the dict equality below is not comparing NaN to NaN.
        assert set(result.report.job_states) <= {"completed", "missed"}
        HttpResultStore(service.url).put(result)
        fetched = HttpResultStore(service.url).get(spec.fingerprint())  # no local memo
        assert isinstance(fetched, ClusterResult)
        assert fetched.to_dict() == result.to_dict()


class TestHttpWorker:
    def test_worker_drains_queue_over_http(self, service):
        specs = [_tiny_spec(seed=s) for s in range(3)]
        broker = HttpBroker(service.url)
        broker.enqueue([s.to_dict() for s in specs], [s.fingerprint() for s in specs])
        worker = Worker(service.url, config=WorkerConfig(policy=FAST, exit_when_idle=True))
        assert worker.run() == 3
        worker.close()
        assert broker.counts()["done"] == 3
        store = HttpResultStore(service.url)
        for spec in specs:
            assert store.get(spec.fingerprint()) is not None

    def test_worker_commits_through_complete_many(self, service):
        specs = [_tiny_spec(seed=s) for s in range(3)]
        HttpBroker(service.url).enqueue(
            [s.to_dict() for s in specs], [s.fingerprint() for s in specs]
        )
        worker = Worker(service.url, config=WorkerConfig(policy=FAST, claim_batch=3))
        committed = []
        complete_many = worker._broker.complete_many

        def record(worker_id, items):
            committed.extend(fingerprint for fingerprint, _ in items)
            complete_many(worker_id, items)

        worker._broker.complete_many = record
        assert worker.run() == 3
        worker.close()
        assert sorted(committed) == sorted(s.fingerprint() for s in specs)

    def test_worker_exits_when_remote_queue_drains(self, service):
        HttpBroker(service.url).drain()
        worker = Worker(service.url, config=WorkerConfig(policy=FAST, exit_when_idle=False))
        assert worker.run() == 0
        worker.close()

    def test_worker_rides_out_transient_service_errors(self, service):
        """A couple of dropped requests must not kill a fleet member."""
        spec = _tiny_spec()
        HttpBroker(service.url).enqueue([spec.to_dict()], [spec.fingerprint()])
        worker = Worker(
            service.url,
            config=WorkerConfig(policy=FAST, exit_when_idle=True, poll_interval=0.01),
        )
        real_claim = worker._broker.claim_many
        blips = {"left": 2}

        def flaky(worker_id, limit):
            if blips["left"]:
                blips["left"] -= 1
                raise ServiceError("simulated dropped request")
            return real_claim(worker_id, limit)

        worker._broker.claim_many = flaky
        assert worker.run() == 1  # survived the blips and finished the task
        worker.close()
        assert blips["left"] == 0

    def test_worker_gives_up_after_persistent_transport_failure(self):
        """An unreachable service is not retried forever."""
        worker = Worker(
            "http://127.0.0.1:9",
            config=WorkerConfig(policy=FAST, exit_when_idle=True, poll_interval=0.01),
        )
        with pytest.raises(ServiceError):
            worker.run()
        worker.close()

    def test_heartbeats_pace_to_server_policy(self, service, slow_workload):
        """A slow task outliving the *server's* lease timeout stays leased.

        The client's own policy has a uselessly long heartbeat interval;
        the worker must discover the server's (much shorter) lease terms
        and beat at that cadence, or the task would expire mid-run and
        burn an attempt.
        """
        lazy = LeasePolicy(timeout=240.0, heartbeat_interval=60.0)
        spec = ScenarioSpec(
            workload=WorkloadSpec(
                slow_workload, {"jobs": _job_dicts(), "delay_s": FAST.timeout + 1.0}
            ),
            strategy="s-resume",
            strategy_params={"tau_est": 30.0, "tau_kill": 60.0, "fixed_r": 1},
            cluster={"num_nodes": 0},
        )
        broker = HttpBroker(service.url)
        broker.enqueue([spec.to_dict()], [spec.fingerprint()])
        worker = Worker(service.url, config=WorkerConfig(policy=lazy, exit_when_idle=True))
        assert worker.run() == 1
        worker.close()
        record = broker.task(spec.fingerprint())
        assert record.status == "done"
        assert record.attempts == 1  # never expired, never requeued



def _payload(result):
    """A result's deterministic payload: everything but the local wall time."""
    data = result.to_dict()
    data.pop("wall_time_s")
    return data

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


class TestMultiHostParity:
    """Acceptance: fleets over HTTP are byte-identical to inline."""

    def test_two_fleets_one_broker_matches_inline(self, service):
        base = _tiny_spec()
        sweep = twelve_scenario_sweep(base)
        inline = sweep.run(executor="inline")

        # two independent fleets (as if on two hosts) attach first, in
        # service mode, then a fleetless sweep is driven over the same URL
        config = WorkerConfig(policy=FAST, exit_when_idle=False)
        fleet_a = WorkerPool(service.url, workers=2, config=config, id_prefix="host-a")
        fleet_b = WorkerPool(service.url, workers=2, config=config, id_prefix="host-b")
        fleet_a.start()
        fleet_b.start()
        try:
            distributed = sweep.run(
                executor="distributed", broker=service.url, lease_timeout=FAST.timeout
            )
        finally:
            HttpBroker(service.url).drain()
            fleet_a.join(timeout=10.0)
            fleet_b.join(timeout=10.0)
            fleet_a.terminate()
            fleet_b.terminate()

        assert distributed.executed == 12 and distributed.cache_hits == 0
        assert [r.fingerprint for r in distributed.results] == [
            r.fingerprint for r in inline.results
        ]
        # byte-identical payloads, not just matching fingerprints
        assert [_payload(r) for r in distributed.results] == [
            _payload(r) for r in inline.results
        ]

        # identical re-run over HTTP: answered by the store, zero executions
        rerun = sweep.run(executor="distributed", broker=service.url)
        assert rerun.executed == 0 and rerun.cache_hits == 12
        assert [_payload(r) for r in rerun.results] == [_payload(r) for r in inline.results]

    def test_local_pool_speaking_http_matches_inline(self, service):
        base = _tiny_spec()
        sweep = twelve_scenario_sweep(base)
        distributed = sweep.run(
            executor="distributed", broker=service.url, workers=3,
            lease_timeout=FAST.timeout,
        )
        inline = sweep.run(executor="inline")
        assert distributed.executed == 12
        assert [_payload(r) for r in distributed.results] == [
            _payload(r) for r in inline.results
        ]

    def test_fleetless_idle_service_falls_back_inline(self, service):
        """No fleet attached and none spawned: the parent drains inline —
        and says so (RuntimeWarning + ScenarioRetried events) instead of
        the stall being silent."""
        spec = _tiny_spec()
        with pytest.warns(RuntimeWarning, match="draining the remaining"):
            outcome = run_specs(
                [spec], executor="distributed", broker=service.url, lease_timeout=2.0
            )
        assert outcome.executed == 1
        assert HttpBroker(service.url).counts()["done"] == 1

    def test_scenario_error_propagates_over_http(self, service):
        bad = _tiny_spec().with_overrides(
            {"workload": {"kind": "benchmark", "params": {"name": "sort", "num_jobs": 0}}}
        )
        with pytest.raises(TaskFailedError):
            run_specs(
                [bad], executor="distributed", broker=service.url, workers=1,
                lease_timeout=FAST.timeout,
            )


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="worker-kill recovery relies on fork-inherited test workload plugins",
)
class TestSupervisedFleetRecovery:
    def test_sigkilled_remote_worker_restarts_and_sweep_completes(
        self, service, slow_workload
    ):
        """Acceptance: SIGKILL one fleet member mid-task; the supervised
        pool replaces it without operator action and results still match
        inline byte for byte."""
        base = ScenarioSpec(
            workload=WorkloadSpec(slow_workload, {"jobs": _job_dicts(), "delay_s": 0.4}),
            strategy="s-resume",
            strategy_params={"tau_est": 30.0, "tau_kill": 60.0, "fixed_r": 1},
            cluster={"num_nodes": 0},
        )
        sweep = twelve_scenario_sweep(base)
        config = WorkerConfig(policy=FAST, exit_when_idle=False, claim_batch=2)
        pool = WorkerPool(
            service.url,
            workers=3,
            config=config,
            id_prefix="fleet",
            restart_policy=RestartPolicy(burst=3, backoff_s=0.05, backoff_max_s=0.05),
        )
        pool.start()
        watcher = HttpBroker(service.url)
        killed = {}
        stop_supervising = threading.Event()

        def supervisor_loop():
            """What `workers start` does: reap, restart, repeat."""
            supervisor_broker = HttpBroker(service.url)
            while not stop_supervising.is_set():
                pool.supervise(supervisor_broker)
                time.sleep(0.05)

        def kill_first_leaseholder():
            fleet_pids = {process.pid for process in pool.processes}
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                leased = watcher.tasks("leased")
                pids = {w["worker_id"]: w["pid"] for w in watcher.workers()}
                for record in leased:
                    pid = pids.get(record.lease_owner)
                    if pid in fleet_pids:
                        killed["fingerprint"] = record.fingerprint
                        killed["worker_id"] = record.lease_owner
                        os.kill(pid, signal.SIGKILL)
                        return
                time.sleep(0.005)

        supervisor = threading.Thread(target=supervisor_loop)
        assassin = threading.Thread(target=kill_first_leaseholder)
        supervisor.start()
        assassin.start()
        try:
            distributed = sweep.run(
                executor="distributed", broker=service.url, lease_timeout=FAST.timeout
            )
        finally:
            assassin.join()
            stop_supervising.set()
            supervisor.join()
            watcher.drain()
            pool.join(timeout=10.0)
            pool.terminate()

        assert killed, "no fleet worker was observed holding a lease"
        assert distributed.executed == 12
        assert pool.restarts_used >= 1, "supervision did not replace the dead member"
        assert killed["worker_id"] not in pool.worker_ids  # replaced, not resurrected

        inline = sweep.run(executor="inline")
        assert [_payload(r) for r in distributed.results] == [
            _payload(r) for r in inline.results
        ]

        # the interrupted task was re-claimed (second attempt) and completed
        record = watcher.task(killed["fingerprint"])
        assert record.status == "done"
        assert record.attempts >= 2


class TestEventLogRpc:
    """The broker's monotonic event log crosses the wire unchanged."""

    def test_events_since_relays_the_queue_log(self, service):
        spec = _tiny_spec()
        broker = HttpBroker(service.url)
        assert broker.last_event_seq() == 0
        assert broker.events_since(0) == []
        broker.enqueue([spec.to_dict()], [spec.fingerprint()])
        task = broker.claim("w1")
        broker.complete(task.fingerprint, "w1", run(ScenarioSpec.from_dict(task.payload)).to_dict())
        events = broker.events_since(0)
        assert [e["kind"] for e in events] == ["queued", "started", "completed"]
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        assert broker.last_event_seq() == seqs[-1]
        assert events[1]["worker_id"] == "w1"
        assert all(e["fingerprint"] == spec.fingerprint() for e in events)
        # resuming from the last seen seq yields nothing new
        assert broker.events_since(seqs[-1]) == []
        # batching: limit caps one round trip, seq resumes the tail
        first, second = broker.events_since(0, limit=2), broker.events_since(2)
        assert [e["seq"] for e in first + second] == seqs

    def test_record_watermark_and_prune_round_trip(self, service):
        """The retention RPCs behave like the local broker (PR 6 satellite)."""
        spec = _tiny_spec()
        broker = HttpBroker(service.url)
        seq = broker.record_event("trial-proposed", "fp0", detail="t-abc")
        assert seq == 1
        (row,) = broker.events_since(0)
        assert row["kind"] == "trial-proposed" and row["detail"] == "t-abc"
        with pytest.raises(ServiceError, match="unknown event kind"):
            broker.record_event("trial-started")

        broker.enqueue([spec.to_dict()], [spec.fingerprint()])
        queued_seq = broker.last_event_seq()
        assert broker.done_watermark() == queued_seq  # pending task pins its event
        assert broker.prune_events() == 1  # only the settled trial-proposed row goes
        task = broker.claim("w1")
        broker.complete(task.fingerprint, "w1", run(ScenarioSpec.from_dict(task.payload)).to_dict())
        assert broker.done_watermark() == broker.last_event_seq() + 1
        assert broker.prune_events() == 3  # queued, started, completed
        assert broker.events_since(0) == []
        stats = broker.stats()
        assert stats["events_retained"] == 0 and stats["events_first"] is None

    def test_search_mirrors_trial_events_through_the_service(self, service):
        """An adaptive search against the service URL logs its decisions."""
        from repro.api import run_search

        base = _tiny_spec()
        result = run_search(
            base,
            {"strategy_params.fixed_r": [1, 2], "seed": [0, 1]},
            algorithm="successive_halving",
            objective="utility",
            executor="distributed",
            broker=service.url,
            workers=2,
        )
        assert result.executed >= 1 and result.pruned >= 1
        broker = HttpBroker(service.url)
        kinds = [e["kind"] for e in broker.events_since(0, limit=10_000)]
        assert "trial-proposed" in kinds
        assert "trial-pruned" in kinds
        assert kinds[-1] == "search-finished"

    def test_release_pending_over_http(self, service):
        specs = [_tiny_spec(seed=s) for s in range(3)]
        broker = HttpBroker(service.url)
        broker.enqueue([s.to_dict() for s in specs], [s.fingerprint() for s in specs])
        claimed = broker.claim("w1")
        released = broker.release_pending([s.fingerprint() for s in specs])
        assert released == 2  # the claimed task keeps its lease
        counts = broker.counts()
        assert counts["pending"] == 0 and counts["leased"] == 1
        assert claimed.fingerprint == broker.tasks("leased")[0].fingerprint

    def test_lease_expiry_is_logged_as_retried(self, service):
        spec = _tiny_spec()
        broker = HttpBroker(service.url)
        broker.enqueue([spec.to_dict()], [spec.fingerprint()])
        broker.claim("zombie")
        time.sleep(FAST.timeout + 0.1)
        broker.requeue_expired()
        kinds = [e["kind"] for e in broker.events_since(0)]
        assert kinds == ["queued", "started", "retried"]

    def test_sweep_streams_live_events_over_http(self, service):
        """Acceptance: per-scenario events arrive before the sweep ends."""
        from repro.api import ScenarioCompleted, SweepFinished, SweepStarted, stream_specs

        specs = [_tiny_spec(seed=s) for s in range(4)]
        events = list(
            stream_specs(specs, executor="distributed", broker=service.url, workers=2)
        )
        assert isinstance(events[0], SweepStarted)
        assert isinstance(events[-1], SweepFinished) and events[-1].executed == 4
        completed = [e for e in events if isinstance(e, ScenarioCompleted)]
        assert sorted(e.fingerprint for e in completed) == sorted(
            s.fingerprint() for s in specs
        )
        # incrementality: the first completion is not the stream's last word
        first_completion = events.index(completed[0])
        assert first_completion < len(events) - 2


class TestFleetlessStallObservability:
    def test_inline_drain_fallback_warns_and_emits_retries(self, service):
        """The stall fallback is announced, not silent (PR 5 satellite)."""
        from repro.api import ScenarioRetried, stream_specs

        spec = _tiny_spec()
        with pytest.warns(RuntimeWarning, match="no worker fleet attached"):
            events = list(
                stream_specs(
                    [spec], executor="distributed", broker=service.url, lease_timeout=2.0
                )
            )
        retried = [e for e in events if isinstance(e, ScenarioRetried)]
        assert any("draining inline" in e.reason for e in retried)
        assert events[-1].executed == 1  # the drain still completed the sweep
