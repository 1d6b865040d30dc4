"""Tests of the sweep event stream: serialization, parity, early stopping.

Covers the streaming acceptance criteria: every event JSON round-trips,
the ordered ``ScenarioCompleted`` fingerprint set is identical across the
inline, pool, distributed and HTTP executors for the same sweep, events
arrive incrementally (the first event lands before the last scenario has
run), and stop conditions end sweeps early through the registry.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.api import (
    EVENT_TYPES,
    JobArrived,
    JobFinished,
    JobStarted,
    ScenarioCacheHit,
    ScenarioCompleted,
    ScenarioFailed,
    ScenarioQueued,
    ScenarioRetried,
    ScenarioSpec,
    ScenarioStarted,
    SearchFinished,
    Sweep,
    SweepFinished,
    SweepStarted,
    TrialProposed,
    TrialPruned,
    WorkloadSpec,
    available_stop_conditions,
    event_from_dict,
    job_spec_to_dict,
    make_stop_condition,
    register_stop_condition,
    run,
    run_specs,
    set_default_on_event,
)
from repro.api.registry import STRATEGIES, UnknownPluginError, WORKLOADS, register_workload
from repro.api.sweep import STOP_CONDITIONS
from repro.service import make_server
from repro.simulator.entities import JobSpec

COUNTING_WORKLOAD = "test-event-counting"


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


@pytest.fixture
def base() -> ScenarioSpec:
    return ScenarioSpec(
        workload=WorkloadSpec("explicit", {"jobs": _job_dicts()}),
        strategy="s-resume",
        strategy_params={"tau_est": 30.0, "tau_kill": 60.0, "fixed_r": 1},
        cluster={"num_nodes": 0},
    )


@pytest.fixture
def sweep(base) -> Sweep:
    return Sweep.grid(base, {"strategy": ["hadoop-ns", "s-resume"], "seed": [0, 1]})


@pytest.fixture
def service(tmp_path):
    server = make_server(tmp_path / "queue.sqlite", host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)


class TestSerialization:
    def test_every_event_type_round_trips(self, base):
        result = run(base)
        samples = [
            SweepStarted(total=4, executor="pool", elapsed_s=0.1),
            ScenarioQueued(fingerprint="f0", index=0, elapsed_s=0.2),
            ScenarioStarted(fingerprint="f0", index=0, worker_id="w-1", elapsed_s=0.3),
            ScenarioCacheHit(fingerprint="f0", index=0, result=result, elapsed_s=0.4),
            ScenarioCompleted(
                fingerprint="f0", index=0, result=result, worker_id="w-1", elapsed_s=0.5
            ),
            ScenarioFailed(fingerprint="f1", index=1, error="ValueError: boom", elapsed_s=0.6),
            ScenarioRetried(
                fingerprint="f1", index=1, reason="lease expired", worker_id="w-2", elapsed_s=0.7
            ),
            SweepFinished(
                total=4, executed=2, cache_hits=1, failures=1,
                cancelled=True, stopped=False, elapsed_s=0.8,
            ),
            TrialProposed(
                trial_id="t0", params={"seed": 1}, fingerprint="f0",
                algorithm="random", elapsed_s=0.9,
            ),
            TrialPruned(
                trial_id="t1", params={"seed": 2}, reason="dominated",
                algorithm="frontier_bisect", elapsed_s=1.0,
            ),
            SearchFinished(
                algorithm="grid", objective="utility", trials=4, executed=3,
                cache_hits=1, pruned=0, failures=0, best_trial_id="t0",
                best_objective=0.5, cancelled=False, stopped=False, elapsed_s=1.1,
            ),
            JobArrived(
                job_id="sort-0", workload="sort", fingerprint="f2",
                time_s=12.5, queue_length=3, elapsed_s=1.2,
            ),
            JobStarted(
                job_id="sort-0", workload="sort", fingerprint="f2",
                time_s=20.0, queue_wait_s=7.5, queue_length=2, elapsed_s=1.3,
            ),
            JobFinished(
                job_id="sort-0", workload="sort", fingerprint="f2", state="completed",
                met_deadline=True, time_s=95.0, sojourn_s=82.5, elapsed_s=1.4,
            ),
        ]
        assert {type(sample) for sample in samples} == set(EVENT_TYPES.values())
        for sample in samples:
            wire = json.loads(json.dumps(sample.to_dict()))  # must be JSON-native
            assert wire["event"] == sample.kind
            assert event_from_dict(wire) == sample

    def test_unknown_event_and_bad_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep event"):
            event_from_dict({"event": "scenario-levitated"})
        with pytest.raises(ValueError, match="unknown field"):
            event_from_dict({"event": "scenario-queued", "fingerprint": "f", "bogus": 1})
        with pytest.raises(ValueError):
            event_from_dict("not a mapping")

    def test_live_stream_events_round_trip(self, sweep):
        for event in sweep.stream():
            assert event_from_dict(json.loads(json.dumps(event.to_dict()))) == event


class TestEventParity:
    def _completed(self, events):
        return [e.fingerprint for e in events if isinstance(e, ScenarioCompleted)]

    def test_fingerprints_identical_across_all_executors(self, sweep, service, tmp_path):
        """Acceptance: inline == pool == distributed == HTTP, event-wise."""
        streams = {
            "inline": list(sweep.stream(executor="inline")),
            "pool": list(sweep.stream(executor="pool", workers=2)),
            "distributed": list(
                sweep.stream(executor="distributed", workers=2, db=tmp_path / "d.sqlite")
            ),
            "http": list(sweep.stream(executor="distributed", workers=2, broker=service)),
        }
        expected = [spec.fingerprint() for spec in sweep.specs]
        reference = sorted(expected)
        for name, events in streams.items():
            assert isinstance(events[0], SweepStarted), name
            assert isinstance(events[-1], SweepFinished), name
            assert events[-1].executed == len(sweep), name
            assert events[-1].cancelled is False and events[-1].stopped is False, name
            queued = [e.fingerprint for e in events if isinstance(e, ScenarioQueued)]
            assert queued == expected, name  # queue order is submission order
            completed = self._completed(events)
            assert sorted(completed) == reference, name
            # each completion carries the result it announces
            for event in events:
                if isinstance(event, ScenarioCompleted):
                    assert event.result.fingerprint == event.fingerprint, name

    def test_inline_completes_in_submission_order(self, sweep):
        events = list(sweep.stream(executor="inline"))
        assert self._completed(events) == [spec.fingerprint() for spec in sweep.specs]

    def test_cache_hits_stream_as_events(self, sweep, tmp_path):
        db = tmp_path / "q.sqlite"
        first = list(sweep.stream(executor="distributed", workers=2, db=db))
        assert len(self._completed(first)) == len(sweep)
        second = list(sweep.stream(executor="distributed", workers=2, db=db))
        hits = [e for e in second if isinstance(e, ScenarioCacheHit)]
        assert len(hits) == len(sweep)
        assert self._completed(second) == []
        assert second[-1].cache_hits == len(sweep) and second[-1].executed == 0


class TestIncrementalDelivery:
    @pytest.fixture
    def counting_workload(self):
        executed = []

        def build(seed, jobs):
            executed.append(seed)
            from repro.api.spec import job_spec_from_dict

            return [job_spec_from_dict(job) for job in jobs]

        register_workload(COUNTING_WORKLOAD, build)
        try:
            yield executed
        finally:
            WORKLOADS.unregister(COUNTING_WORKLOAD)

    def test_first_events_arrive_before_any_execution(self, counting_workload):
        """Acceptance: the stream is lazy — events precede the work."""
        base = ScenarioSpec(
            workload=WorkloadSpec(COUNTING_WORKLOAD, {"jobs": _job_dicts()}),
            strategy="s-resume",
            strategy_params={"tau_est": 30.0, "tau_kill": 60.0, "fixed_r": 1},
            cluster={"num_nodes": 0},
        )
        sweep = Sweep.grid(base, {"seed": [0, 1, 2]})
        stream = sweep.stream(executor="inline")
        first = next(stream)
        assert isinstance(first, SweepStarted)
        assert counting_workload == []  # nothing simulated yet
        completions = 0
        for event in stream:
            if isinstance(event, ScenarioCompleted):
                completions += 1
                # scenario i completes before scenario i+1 even starts
                assert len(counting_workload) == completions
        assert completions == 3


class TestStopConditions:
    def test_builtins_registered(self):
        assert "max_failures" in available_stop_conditions()
        assert "first_deadline_miss" in available_stop_conditions()

    def test_unknown_name_rejected(self, base):
        with pytest.raises(UnknownPluginError):
            run_specs([base], stop="never_heard_of_it")
        with pytest.raises(ValueError, match="stop must be"):
            run_specs([base], stop=3.14)

    def test_max_failures_stops_early(self, base):
        bad = base.with_overrides(
            {"workload": {"kind": "benchmark", "params": {"name": "sort", "num_jobs": 0}}}
        )
        good = [base.with_overrides(seed=s) for s in (1, 2, 3)]
        outcome = run_specs([bad] + good, stop="max_failures", on_failure="continue")
        assert outcome.stopped and outcome.partial
        assert outcome.failures == 1
        assert outcome.executed == 0  # stopped before any good scenario ran
        assert len(outcome.pending) == 4  # the failed one plus the unstarted three
        # without the stop condition the same sweep completes the good specs
        tolerant = run_specs([bad] + good, on_failure="continue")
        assert not tolerant.stopped
        assert tolerant.executed == 3 and tolerant.failures == 1
        assert len(tolerant.pending) == 1  # only the failed scenario

    def test_first_deadline_miss_stops_at_the_miss(self):
        impossible = [
            job_spec_to_dict(
                JobSpec(
                    job_id="j0", num_tasks=3, deadline=1.0, tmin=15.0, beta=1.5,
                    submit_time=0.0,
                )
            )
        ]
        missing = ScenarioSpec(
            workload=WorkloadSpec("explicit", {"jobs": impossible}),
            strategy="hadoop-ns",
            cluster={"num_nodes": 0},
        )
        followers = [missing.with_overrides(seed=s) for s in (1, 2)]
        outcome = run_specs([missing] + followers, stop="first_deadline_miss")
        assert outcome.stopped
        assert outcome.executed == 1 and len(outcome.pending) == 2
        assert outcome.results[0].report.pocd < 1.0

    def test_callable_and_registered_custom_conditions(self, base, sweep):
        events_seen = []

        def after_two(event):
            events_seen.append(event)
            return sum(1 for e in events_seen if isinstance(e, ScenarioCompleted)) >= 2

        outcome = sweep.run(stop=after_two)
        assert outcome.stopped and outcome.executed == 2

        @register_stop_condition("test-one-and-done")
        def one_and_done():
            return lambda event: isinstance(event, ScenarioCompleted)

        try:
            named = sweep.run(stop="test-one-and-done")
            assert named.stopped and named.executed == 1
            assert callable(make_stop_condition("test-one-and-done"))
        finally:
            STOP_CONDITIONS.unregister("test-one-and-done")

    def test_stateful_conditions_do_not_leak_between_sweeps(self, base):
        bad = base.with_overrides(
            {"workload": {"kind": "benchmark", "params": {"name": "sort", "num_jobs": 0}}}
        )
        for _ in range(2):
            # a fresh "max_failures" counter each run: the second sweep must
            # also need its own failure before stopping, not stop instantly
            outcome = run_specs(
                [base.with_overrides(seed=7), bad],
                stop=make_stop_condition("max_failures", limit=1),
                on_failure="continue",
            )
            assert outcome.stopped and outcome.failures == 1
            assert outcome.executed == 1


class TestDefaultOnEvent:
    def test_run_specs_feeds_the_default_callback(self, base):
        seen = []
        set_default_on_event(seen.append)
        try:
            run_specs([base])
        finally:
            set_default_on_event(None)
        kinds = [event.kind for event in seen]
        assert kinds[0] == "sweep-started" and kinds[-1] == "sweep-finished"
        assert "scenario-completed" in kinds
        # explicit on_event wins over the default
        explicit = []
        set_default_on_event(seen.append)
        try:
            run_specs([base], on_event=explicit.append)
        finally:
            set_default_on_event(None)
        assert explicit and len(seen) == len(kinds)


class TestStrategiesRegistryUntouched:
    def test_stop_registry_is_separate(self):
        # guard against the registries sharing state by accident
        assert "max_failures" not in STRATEGIES


class TestEventTailDegradation:
    def test_persistent_tail_failure_degrades_loudly(self, sweep, tmp_path, monkeypatch):
        """Losing the event log mid-sweep warns and falls back, never hangs."""
        from repro.distributed import executor as executor_module
        from repro.distributed.broker import Broker

        def boom(self, seq=0, limit=500):
            raise RuntimeError("simulated events_since outage")

        monkeypatch.setattr(Broker, "events_since", boom)
        # short sweeps may settle before the real threshold accumulates;
        # a limit of 1 exercises the warn-and-degrade path deterministically
        monkeypatch.setattr(executor_module, "TAIL_FAILURE_LIMIT", 1)
        with pytest.warns(RuntimeWarning, match="sweep event tailing failed"):
            outcome = run_specs(
                list(sweep.specs), executor="distributed", workers=2,
                db=tmp_path / "q.sqlite",
            )
        # the store-polling fallback still completed the whole sweep
        assert not outcome.partial and outcome.executed == len(sweep)

    def test_transient_tail_failure_does_not_warn(self, sweep, tmp_path, monkeypatch):
        """A blip below the threshold rides through on the store fallback."""
        from repro.distributed.broker import Broker

        real = Broker.events_since
        calls = {"n": 0}

        def flaky(self, seq=0, limit=500):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("one-off blip")
            return real(self, seq, limit)

        monkeypatch.setattr(Broker, "events_since", flaky)
        import warnings as warnings_module

        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error", RuntimeWarning)
            outcome = run_specs(
                list(sweep.specs), executor="distributed", workers=2,
                db=tmp_path / "q.sqlite",
            )
        assert not outcome.partial and outcome.executed == len(sweep)
        assert calls["n"] >= 2  # tailing resumed after the blip
