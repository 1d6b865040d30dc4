"""Tests for repro.federation: routing, topology, merged events, parity."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from repro.api import ScenarioSpec, Sweep, WorkloadSpec, job_spec_to_dict, run
from repro.distributed import LeasePolicy, open_broker, open_store
from repro.federation import (
    MAX_SHARD_SEQ,
    SHARD_SEQ_BITS,
    FederatedBroker,
    FederatedResultStore,
    ShardTopology,
    is_federation_target,
    pack_cursor,
    shard_index,
    unpack_cursor,
)
from repro.simulator.entities import JobSpec

#: Fast lease timings, mirroring tests/test_distributed.py.
FAST = LeasePolicy(timeout=0.4, heartbeat_interval=0.1, max_attempts=3)


def _tiny_spec(seed: int = 0) -> ScenarioSpec:
    jobs = [
        JobSpec(job_id=f"j{i}", num_tasks=3, deadline=90.0, tmin=15.0, beta=1.5, submit_time=2.0 * i)
        for i in range(3)
    ]
    return ScenarioSpec(
        workload=WorkloadSpec("explicit", {"jobs": [job_spec_to_dict(j) for j in jobs]}),
        strategy="s-resume",
        strategy_params={"tau_est": 30.0, "tau_kill": 60.0, "fixed_r": 1},
        cluster={"num_nodes": 0},
        seed=seed,
    )


def _shard_paths(tmp_path, n=3):
    return [tmp_path / f"shard{i}.sqlite" for i in range(n)]


def _spec_for(paths) -> str:
    return "shards:" + ",".join(str(p) for p in paths)


@pytest.fixture
def shard_paths(tmp_path):
    return _shard_paths(tmp_path)


@pytest.fixture
def fed(shard_paths):
    broker = FederatedBroker(_spec_for(shard_paths), policy=FAST)
    yield broker
    broker.close()


def _enqueue(broker, specs):
    return broker.enqueue([s.to_dict() for s in specs], [s.fingerprint() for s in specs])


class TestRouting:
    def test_deterministic_and_in_range(self):
        fp = _tiny_spec().fingerprint()
        for n in (1, 2, 3, 7):
            index = shard_index(fp, n)
            assert 0 <= index < n
            assert shard_index(fp, n) == index  # pure function

    def test_rejects_empty_federation(self):
        with pytest.raises(ValueError):
            shard_index("abc", 0)

    def test_non_hex_fingerprints_still_route(self):
        # Synthetic fingerprints (tests, benchmarks) may not be hex.
        assert 0 <= shard_index("not-hex-at-all", 3) < 3

    def test_spreads_over_shards(self):
        owners = {shard_index(_tiny_spec(seed).fingerprint(), 3) for seed in range(32)}
        assert owners == {0, 1, 2}


class TestTopology:
    def test_inline_parse_is_order_independent(self, shard_paths):
        a = ShardTopology.parse(_spec_for(shard_paths))
        b = ShardTopology.parse(_spec_for(list(reversed(shard_paths))))
        assert a == b
        assert a.spec == b.spec
        fp = _tiny_spec().fingerprint()
        assert a.owner_of(fp) == b.owner_of(fp)

    def test_sqlite_prefix_is_canonicalized(self, shard_paths):
        bare = _spec_for(shard_paths)
        prefixed = "shards:" + ",".join(f"sqlite:{p}" for p in shard_paths)
        assert ShardTopology.parse(bare) == ShardTopology.parse(prefixed)

    def test_http_trailing_slash_is_canonicalized(self):
        a = ShardTopology.parse("shards:http://q1:8176/,http://q2:8176")
        b = ShardTopology.parse("shards:http://q1:8176,http://q2:8176/")
        assert a == b

    def test_topology_file_forms(self, tmp_path, shard_paths):
        topo = tmp_path / "topology.json"
        # relative paths resolve against the file's own directory
        topo.write_text(json.dumps({"shards": [p.name for p in shard_paths]}))
        from_file = ShardTopology.parse(f"shards:{topo}")
        assert from_file == ShardTopology.parse(_spec_for(shard_paths))
        assert ShardTopology.parse(f"shards:@{topo}") == from_file
        # a bare JSON list works too
        topo.write_text(json.dumps([str(p) for p in shard_paths]))
        assert ShardTopology.parse(f"shards:{topo}") == from_file

    def test_parse_errors(self, tmp_path):
        with pytest.raises(ValueError, match="names no shards"):
            ShardTopology.parse("shards:")
        with pytest.raises(ValueError, match="duplicate shard"):
            ShardTopology.parse("shards:a.sqlite,sqlite:a.sqlite")
        with pytest.raises(ValueError, match="cannot read"):
            ShardTopology.parse(f"shards:{tmp_path}/missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ValueError, match="not JSON"):
            ShardTopology.parse(f"shards:{bad}")
        bad.write_text(json.dumps({"shards": "q.sqlite"}))
        with pytest.raises(ValueError, match="list of target strings"):
            ShardTopology.parse(f"shards:{bad}")

    def test_routing_agrees_across_processes(self, shard_paths):
        """A permuted spec in a fresh interpreter routes identically."""
        fingerprints = [_tiny_spec(seed).fingerprint() for seed in range(8)]
        local = [ShardTopology.parse(_spec_for(shard_paths)).owner_of(fp) for fp in fingerprints]
        permuted = _spec_for([shard_paths[1], shard_paths[2], shard_paths[0]])
        script = (
            "import json, sys\n"
            "from repro.federation import ShardTopology\n"
            "spec, fps = json.load(sys.stdin)\n"
            "topo = ShardTopology.parse(spec)\n"
            "print(json.dumps([topo.owner_of(fp) for fp in fps]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            input=json.dumps([permuted, fingerprints]),
            capture_output=True,
            text=True,
            check=True,
        )
        assert json.loads(proc.stdout) == local


class TestCursor:
    def test_pack_unpack_round_trip(self):
        positions = [3, 0, MAX_SHARD_SEQ]
        assert unpack_cursor(pack_cursor(positions), 3) == positions
        assert unpack_cursor(0, 4) == [0, 0, 0, 0]

    def test_pack_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            pack_cursor([-1])
        with pytest.raises(ValueError):
            pack_cursor([MAX_SHARD_SEQ + 1])

    def test_unpack_rejects_foreign_cursors(self):
        with pytest.raises(ValueError):
            unpack_cursor(-1, 2)
        with pytest.raises(ValueError, match="different topology"):
            unpack_cursor(1 << (2 * SHARD_SEQ_BITS), 2)

    def test_consuming_any_row_increases_the_cursor(self):
        positions = [5, 7, 2]
        cursor = pack_cursor(positions)
        for shard in range(3):
            bumped = list(positions)
            bumped[shard] += 1
            assert pack_cursor(bumped) > cursor


class TestTargets:
    def test_unknown_scheme_names_the_valid_forms(self):
        with pytest.raises(ValueError) as excinfo:
            open_broker("redis://localhost:6379")
        message = str(excinfo.value)
        assert "redis" in message
        assert "sqlite" in message and "http" in message and "shards:" in message

    def test_shards_target_opens_federation(self, shard_paths):
        assert is_federation_target(_spec_for(shard_paths))
        assert not is_federation_target("queue.sqlite")
        with FederatedBroker(_spec_for(shard_paths)) as broker:
            assert isinstance(broker, FederatedBroker)
        broker = open_broker(_spec_for(shard_paths))
        try:
            assert isinstance(broker, FederatedBroker)
        finally:
            broker.close()
        store = open_store(_spec_for(shard_paths))
        try:
            assert isinstance(store, FederatedResultStore)
        finally:
            store.close()


class TestFederatedBroker:
    def test_enqueue_routes_disjointly_and_counts_sum(self, fed, shard_paths):
        specs = [_tiny_spec(seed) for seed in range(12)]
        assert _enqueue(fed, specs) == 12
        assert fed.counts()["pending"] == 12
        per_shard = []
        for path in sorted(shard_paths):
            with open_broker(path) as shard:
                per_shard.append(shard.counts()["pending"])
        assert sum(per_shard) == 12
        # the fingerprint space actually partitions: nothing doubled up
        assert all(count < 12 for count in per_shard)
        # re-enqueueing is deduplicated per owning shard
        assert _enqueue(fed, specs) == 0

    def test_claim_complete_lifecycle_drains_every_shard(self, fed):
        specs = [_tiny_spec(seed) for seed in range(10)]
        _enqueue(fed, specs)
        drained = set()
        while True:
            tasks = fed.claim_many("w1", 4)
            if not tasks:
                break
            for task in tasks:
                assert fed.heartbeat(task.fingerprint, "w1")
                fed.complete(task.fingerprint, "w1", {"fingerprint": task.fingerprint})
                drained.add(task.fingerprint)
        assert drained == {s.fingerprint() for s in specs}
        assert fed.settled()
        assert fed.counts()["done"] == 10
        record = fed.task(specs[0].fingerprint())
        assert record is not None and record.status == "done"

    def test_complete_many_commits_once_per_owning_shard(self, fed):
        specs = [_tiny_spec(seed) for seed in range(10)]
        _enqueue(fed, specs)
        tasks = fed.claim_many("w1", 10)
        assert len(tasks) == 10
        calls = []
        for index, shard in enumerate(fed._shards):
            def spy(worker_id, items, _index=index, _inner=shard.complete_many):
                calls.append((_index, [fingerprint for fingerprint, _ in items]))
                _inner(worker_id, items)

            shard.complete_many = spy
        fed.complete_many("w1", [(t.fingerprint, {"ok": t.fingerprint}) for t in tasks])
        shards_called = [index for index, _ in calls]
        assert len(shards_called) == len(set(shards_called))  # one commit per shard
        for index, fingerprints in calls:
            assert {fed.topology.owner_of(fp) for fp in fingerprints} == {index}
        assert sorted(fp for _, fps in calls for fp in fps) == sorted(t.fingerprint for t in tasks)
        assert fed.counts()["done"] == 10 and fed.settled()

    def test_merged_event_stream_is_strictly_monotonic(self, fed):
        specs = [_tiny_spec(seed) for seed in range(10)]
        _enqueue(fed, specs)
        while True:
            tasks = fed.claim_many("w1", 4)
            if not tasks:
                break
            for task in tasks:
                fed.complete(task.fingerprint, "w1", {"ok": True})
        rows, cursor = [], 0
        while True:
            batch = fed.events_since(cursor, limit=6)
            if not batch:
                break
            for row in batch:
                assert row["seq"] > cursor, "merged cursor must be strictly increasing"
                cursor = row["seq"]
                rows.append(row)
        assert len(rows) == 3 * len(specs)  # queued + started + completed per task
        # per-shard local order is exact
        by_shard = {}
        for row in rows:
            by_shard.setdefault(row["shard"], []).append(row["shard_seq"])
        assert len(by_shard) == 3
        for local_seqs in by_shard.values():
            assert local_seqs == sorted(local_seqs)

    def test_event_resume_replays_nothing_and_skips_nothing(self, fed):
        specs = [_tiny_spec(seed) for seed in range(8)]
        _enqueue(fed, specs)
        everything = fed.events_since(0, limit=500)
        assert len(everything) == len(specs)  # one "queued" row per task
        split = len(everything) // 2
        middle = everything[split]["seq"]
        resumed = fed.events_since(middle, limit=500)
        assert [(r["shard"], r["shard_seq"]) for r in resumed] == [
            (r["shard"], r["shard_seq"]) for r in everything[split + 1 :]
        ]
        assert fed.events_since(everything[-1]["seq"], limit=500) == []
        assert fed.last_event_seq() == everything[-1]["seq"]

    def test_events_for_reads_the_owning_shard(self, fed):
        spec = _tiny_spec()
        _enqueue(fed, [spec])
        trace = fed.events_for(spec.fingerprint())
        assert [row["kind"] for row in trace] == ["queued"]
        assert trace[0]["shard"] == fed.topology.shards[fed.topology.owner_of(spec.fingerprint())]

    def test_record_event_routes_and_validates(self, fed):
        with pytest.raises(ValueError, match="unknown event kind"):
            fed.record_event("nonsense")
        spec = _tiny_spec()
        _enqueue(fed, [spec])
        cursor = fed.record_event("retried", fingerprint=spec.fingerprint(), detail="test")
        assert cursor == fed.last_event_seq()
        assert fed.events_for(spec.fingerprint())[-1]["kind"] == "retried"

    def test_prune_events_to_the_federation_watermark(self, fed):
        specs = [_tiny_spec(seed) for seed in range(6)]
        _enqueue(fed, specs)
        while True:
            tasks = fed.claim_many("w1", 4)
            if not tasks:
                break
            for task in tasks:
                fed.complete(task.fingerprint, "w1", {"ok": True})
        assert fed.prune_events() > 0
        stats = fed.stats()
        assert stats["events"] == 3 * len(specs)
        assert stats["events_retained"] < stats["events"]

    def test_workers_are_merged_across_shards(self, fed):
        fed.register_worker("w1", pid=123)
        fed.touch_worker("w1")
        workers = fed.workers()
        assert [w["worker_id"] for w in workers] == ["w1"]
        _enqueue(fed, [_tiny_spec(seed) for seed in range(6)])
        while True:
            tasks = fed.claim_many("w1", 3)
            if not tasks:
                break
            for task in tasks:
                fed.complete(task.fingerprint, "w1", {"ok": True})
        assert fed.workers()[0]["tasks_done"] == 6  # summed over owning shards

    def test_stats_reports_totals_and_per_shard_rows(self, fed):
        specs = [_tiny_spec(seed) for seed in range(9)]
        _enqueue(fed, specs)
        stats = fed.stats()
        assert stats["path"] == fed.topology.spec
        assert stats["tasks"]["pending"] == 9
        assert len(stats["shards"]) == 3
        assert [row["shard"] for row in stats["shards"]] == list(fed.topology.shards)
        assert sum(row["tasks"]["pending"] for row in stats["shards"]) == 9

    def test_unreachable_shard_degrades_claims_and_fails_enqueues(self, tmp_path):
        from repro import telemetry

        healthy = tmp_path / "healthy.sqlite"
        dead = "http://127.0.0.1:1"
        with FederatedBroker(f"shards:{healthy},{dead}", policy=FAST) as fed:
            specs = [_tiny_spec(seed) for seed in range(16)]
            healthy_index = fed.topology.shards.index(f"sqlite:{healthy.as_posix()}")
            local = [s for s in specs if fed.topology.owner_of(s.fingerprint()) == healthy_index]
            remote = [s for s in specs if fed.topology.owner_of(s.fingerprint()) != healthy_index]
            assert local and remote, "expected the fingerprints to span both shards"
            assert _enqueue(fed, local) == len(local)
            # enqueueing to the dead *owning* shard is loud, not silent
            with pytest.raises(Exception):
                _enqueue(fed, remote)
            unavailable = telemetry.counter(
                "chronos_shard_unavailable_total", labelnames=("shard",)
            ).labels(shard=dead)
            before = unavailable.value
            with pytest.warns(RuntimeWarning, match="unreachable during claim"):
                tasks = fed.claim_many("w1", len(specs))
            assert {t.fingerprint for t in tasks} == {s.fingerprint() for s in local}
            assert unavailable.value > before


class TestFederatedResultStore:
    def test_put_get_and_merged_collections(self, shard_paths):
        results = [run(_tiny_spec(seed)) for seed in range(4)]
        with FederatedResultStore(_spec_for(shard_paths)) as store:
            for result in results:
                store.put(result, worker_id="w1")
            assert len(store) == 4
            assert store.fingerprints() == {r.fingerprint for r in results}
            for result in results:
                assert result.fingerprint in store
                loaded = store.get(result.fingerprint)
                assert loaded is not None and loaded.to_dict() == result.to_dict()
            merged = store.results()
            assert [r.fingerprint for r in merged] == sorted(r.fingerprint for r in results)
        # results routed to the same shards the broker would pick
        topology = ShardTopology.parse(_spec_for(shard_paths))
        for result in results:
            owner = sorted(shard_paths)[topology.owner_of(result.fingerprint)]
            with open_store(owner) as shard:
                assert result.fingerprint in shard

    def test_get_many_reads_each_owning_shard_once(self, shard_paths):
        results = [run(_tiny_spec(seed)) for seed in range(6)]
        with FederatedResultStore(_spec_for(shard_paths)) as writer:
            for result in results:
                writer.put(result)
        with FederatedResultStore(_spec_for(shard_paths)) as store:
            asked = []
            for shard in store._shards:
                def spy(fingerprints, _inner=shard.get_many):
                    asked.append(list(fingerprints))
                    return _inner(fingerprints)

                shard.get_many = spy
            fetched = store.get_many([r.fingerprint for r in results] + ["0" * 16])
            assert {fp: r.to_dict() for fp, r in fetched.items()} == {
                r.fingerprint: r.to_dict() for r in results
            }
            assert len(asked) <= len(shard_paths)
            assert sorted(fp for fps in asked for fp in fps) == sorted(
                [r.fingerprint for r in results] + ["0" * 16]
            )

    def test_summary_rows_merge_and_validate(self, shard_paths):
        results = [run(_tiny_spec(seed)) for seed in range(4)]
        with FederatedResultStore(_spec_for(shard_paths)) as store:
            for result in results:
                store.put(result)
            rows = store.summary_rows()
            assert [row["fingerprint"] for row in rows] == sorted(
                r.fingerprint for r in results
            )
            # pushdown of a fingerprint-less selection still merges in order
            costs = store.summary_rows(["mean_cost"])
            assert [set(row) for row in costs] == [{"mean_cost"}] * 4
            full = {row["fingerprint"]: row["mean_cost"] for row in rows}
            assert [row["mean_cost"] for row in costs] == [
                full[fp] for fp in sorted(full)
            ]
            with pytest.raises(ValueError, match="unknown summary column"):
                store.summary_rows(["nope"])


class TestFederatedSweepParity:
    def test_three_shard_sweep_matches_single_broker_byte_for_byte(self, tmp_path):
        base = _tiny_spec()
        sweep = Sweep(base, [{"seed": seed} for seed in range(6)])
        single = sweep.run(executor="distributed", workers=2, db=str(tmp_path / "single.sqlite"))
        assert single.executed == 6
        inline = sweep.run(executor="inline")

        spec = _spec_for(_shard_paths(tmp_path))
        federated = sweep.run(executor="distributed", workers=2, broker=spec)
        assert federated.executed == 6

        def strip(outcome):
            rows = []
            for result in outcome.results:
                payload = result.to_dict()
                payload.pop("wall_time_s", None)
                rows.append(payload)
            return json.dumps(rows, sort_keys=True)

        assert strip(single) == strip(federated) == strip(inline)

        # the re-run is answered entirely from the sharded result store
        rerun = sweep.run(executor="distributed", workers=2, broker=spec)
        assert rerun.executed == 0
        assert rerun.cache_hits == len(rerun.results) == 6
        assert strip(rerun) == strip(single)


class TestFederationCli:
    def test_workers_status_renders_per_shard_table(self, tmp_path, capsys):
        from repro.experiments import cli

        spec = _spec_for(_shard_paths(tmp_path))
        with FederatedBroker(spec) as fed:
            _enqueue(fed, [_tiny_spec(seed) for seed in range(6)])
        assert cli.main(["workers", "status", "--broker", spec]) == 0
        out = capsys.readouterr().out
        assert f"queue: {ShardTopology.parse(spec).spec}" in out
        assert "shards (3):" in out
        for shard in ShardTopology.parse(spec).shards:
            assert shard in out
        total_row = [line for line in out.splitlines() if line.strip().startswith("total")]
        assert total_row and " 6 " in total_row[0]

    def test_unknown_scheme_is_an_exit_2_diagnostic(self, capsys):
        from repro.experiments import cli

        assert cli.main(["workers", "status", "--broker", "redis://localhost:6379"]) == 2
        err = capsys.readouterr().err
        assert "unknown queue target scheme" in err and "shards:" in err

    def test_malformed_shards_spec_is_an_exit_2_diagnostic(self, capsys):
        from repro.experiments import cli

        assert cli.main(["workers", "status", "--broker", "shards:"]) == 2
        assert "names no shards" in capsys.readouterr().err
