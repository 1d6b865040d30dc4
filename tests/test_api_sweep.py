"""Tests of Sweep expansion, the process-pool path and result caching."""

from __future__ import annotations

import hashlib
import json
import pickle
from pathlib import Path

import pytest

import repro.api.sweep as sweep_module
from repro.api import (
    CancelToken,
    ResultCache,
    ScenarioCompleted,
    ScenarioFailed,
    ScenarioQueued,
    ScenarioSpec,
    SpecValidationError,
    Sweep,
    WorkloadSpec,
    execute,
    job_spec_to_dict,
    register_workload,
    run_specs,
    spec_from_dict,
)
from repro.api.registry import WORKLOADS
from repro.simulator.entities import JobSpec

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_parity.json"


def _report_every_spec_unresolved(specs):
    """Stand-in pool worker: a spawn child that cannot see a parent-only plugin."""
    return [None] * len(specs)


def _return_unpicklable(specs):
    """Stand-in pool worker whose outcomes cannot be sent back to the parent."""
    return [lambda: None for _ in specs]


class _TwoArgumentError(Exception):
    """An exception that does not survive pickling (it needs two arguments)."""

    def __init__(self, first, second):
        super().__init__(f"{first}/{second}")


def _raising_builder(seed):
    raise _TwoArgumentError("a", "b")


def _payload_hash(result) -> str:
    """SHA-256 of a result's payload, without the wall time."""
    payload = result.to_dict()
    payload.pop("wall_time_s")
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _grid_of(base, seeds: int) -> Sweep:
    """4 strategies x ``seeds`` seeds: enough scenarios for chunks > 1 on 2 workers."""
    return Sweep.grid(
        base,
        {"strategy": ["hadoop-ns", "clone", "s-restart", "s-resume"], "seed": list(range(seeds))},
    )


def _tiny_jobs(count: int = 3):
    return [
        JobSpec(job_id=f"j{i}", num_tasks=3, deadline=90.0, tmin=15.0, beta=1.5, submit_time=2.0 * i)
        for i in range(count)
    ]


@pytest.fixture
def base() -> ScenarioSpec:
    return ScenarioSpec(
        workload=WorkloadSpec("explicit", {"jobs": [job_spec_to_dict(j) for j in _tiny_jobs()]}),
        strategy="s-resume",
        strategy_params={"tau_est": 30.0, "tau_kill": 60.0, "fixed_r": 1},
        cluster={"num_nodes": 0},
    )


class TestSweepExpansion:
    def test_grid_is_cartesian_product(self, base):
        sweep = Sweep.grid(
            base, {"strategy": ["clone", "s-restart"], "seed": [0, 1], "estimator": ["hadoop"]}
        )
        assert len(sweep) == 4
        combos = {(spec.strategy, spec.seed, spec.estimator) for spec in sweep.specs}
        assert combos == {
            ("clone", 0, "hadoop"),
            ("clone", 1, "hadoop"),
            ("s-restart", 0, "hadoop"),
            ("s-restart", 1, "hadoop"),
        }

    def test_empty_grid_is_just_the_base(self, base):
        assert Sweep.grid(base, {}).specs == (base,)

    def test_bad_axis_rejected_eagerly(self, base):
        with pytest.raises(SpecValidationError):
            Sweep.grid(base, {"strategy": []})
        with pytest.raises(SpecValidationError):
            Sweep.grid(base, {"strategy": "clone"})  # a string is not an axis

    def test_bad_override_fails_before_running(self, base):
        with pytest.raises(SpecValidationError):
            Sweep(base, [{"strategy": "nonexistent"}])

    def test_non_mapping_grid_rejected(self, base):
        with pytest.raises(SpecValidationError, match="grid"):
            Sweep.grid(base, ["strategy"])

    def test_non_mapping_override_entry_rejected(self, base):
        with pytest.raises(SpecValidationError, match=r"overrides\[0\]"):
            Sweep(base, [3])

    def test_grid_overrides_expands_without_building_specs(self):
        combos = Sweep.grid_overrides({"a": [1, 2], "b": [3]})
        assert combos == [{"a": 1, "b": 3}, {"a": 2, "b": 3}]


class TestProcessPoolExecution:
    def test_sweep_of_eight_runs_through_the_pool(self, base):
        """Acceptance: >= 8 scenarios through the process-pool path."""
        sweep = Sweep.grid(
            base,
            {
                "strategy": ["hadoop-ns", "clone"],
                "seed": [0, 1],
                "strategy_params.theta": [1e-5, 1e-4],
            },
        )
        assert len(sweep) == 8
        outcome = sweep.run(jobs=2)
        assert outcome.executed == 8
        assert outcome.cache_hits == 0
        assert len(outcome.results) == 8
        for spec, result in zip(sweep.specs, outcome.results):
            assert result.fingerprint == spec.fingerprint()
            assert result.report.num_jobs == 3

    def test_pool_matches_inline_execution(self, base):
        sweep = Sweep.grid(base, {"strategy": ["hadoop-ns", "clone"]})
        inline = sweep.run(jobs=1)
        pooled = sweep.run(jobs=2)
        assert [r.report for r in inline.results] == [r.report for r in pooled.results]

    def test_duplicate_fingerprints_execute_once(self, base):
        outcome = run_specs([base, base, base], jobs=1)
        assert outcome.executed == 1
        assert len(outcome.results) == 3
        assert outcome.results[0].report == outcome.results[2].report

    def test_rejects_non_positive_jobs(self, base):
        with pytest.raises(ValueError):
            run_specs([base], jobs=0)

    def test_worker_validation_failure_falls_back_inline(self, base, monkeypatch):
        """A spec whose plugins only exist in the parent still completes.

        Simulates the spawn/forkserver situation where worker processes
        cannot resolve a parent-registered plugin: every chunk reports its
        specs as unresolved, and run_specs must recover by executing the
        scenarios inline in the parent process.
        """
        monkeypatch.setattr(sweep_module, "_execute_spec_chunk", _report_every_spec_unresolved)
        specs = [base.with_overrides(seed=s) for s in (0, 1)]
        outcome = run_specs(specs, jobs=2)
        assert outcome.executed == 2
        assert all(result.report.num_jobs == 3 for result in outcome.results)


class TestChunkedPool:
    """Batches larger than ``workers * 8`` share one future per chunk."""

    def test_chunk_worker_outcomes(self, base):
        bad = base.with_overrides(
            {"workload": {"kind": "benchmark", "params": {"name": "sort", "num_jobs": 0}}}
        )
        register_workload("test-parent-only", lambda seed: [])
        register_workload("test-raising", _raising_builder)
        try:
            unresolved = base.with_overrides({"workload": {"kind": "test-parent-only"}})
            raising = base.with_overrides({"workload": {"kind": "test-raising"}})
        finally:
            WORKLOADS.unregister("test-parent-only")  # as a spawn child sees it
        try:
            good, failed, fallback, opaque = sweep_module._execute_spec_chunk(
                [base, bad, unresolved, raising]
            )
        finally:
            WORKLOADS.unregister("test-raising")
        assert _payload_hash(good) == _payload_hash(execute(base))
        assert isinstance(failed, SpecValidationError) and failed.field == "workload.params"
        assert fallback is None
        # An exception that cannot cross processes is sent as its text.
        assert type(opaque) is RuntimeError and str(opaque) == "_TwoArgumentError: a/b"

    def test_chunk_that_cannot_return_fails_its_scenarios(self, base, monkeypatch):
        monkeypatch.setattr(sweep_module, "_execute_spec_chunk", _return_unpicklable)
        specs = list(_grid_of(base, 10).specs)
        outcome = run_specs(specs, jobs=2, on_failure="continue")
        assert outcome.failures == len(specs)
        assert outcome.executed == 0 and len(outcome.pending) == len(specs)

    def test_chunked_pool_matches_inline(self, base):
        sweep = _grid_of(base, 12)
        assert len(sweep) == 48  # chunks of 3 on 2 workers
        inline = sweep.run(jobs=1)
        events = list(sweep.stream(jobs=2))
        queued = [event.index for event in events if isinstance(event, ScenarioQueued)]
        assert queued == list(range(len(sweep)))
        completed = {
            event.index: event.result for event in events if isinstance(event, ScenarioCompleted)
        }
        assert sorted(completed) == list(range(len(sweep)))
        assert [_payload_hash(completed[i]) for i in range(len(sweep))] == [
            _payload_hash(result) for result in inline.results
        ]

    def test_chunked_pool_cancel_returns_matching_partial(self, base):
        sweep = _grid_of(base, 40)
        token = CancelToken()

        def cancel_on_first_completion(event):
            if isinstance(event, ScenarioCompleted):
                token.cancel()

        partial = sweep.run(jobs=2, cancel=token, on_event=cancel_on_first_completion)
        assert partial.cancelled and partial.pending
        assert 1 <= len(partial.results) < len(sweep)
        done = {result.fingerprint for result in partial.results}
        assert [spec.fingerprint() for spec in partial.pending] == [
            spec.fingerprint() for spec in sweep.specs if spec.fingerprint() not in done
        ]
        for result in partial.results:
            assert _payload_hash(result) == _payload_hash(execute(result.spec))

    def test_one_bad_spec_fails_alone(self, base, monkeypatch):
        """A worker-side spec error is one ScenarioFailed, not a broken pool."""
        bad = base.with_overrides(
            {"workload": {"kind": "benchmark", "params": {"name": "sort", "num_jobs": 0}}}
        )
        specs = list(_grid_of(base, 16).specs)
        specs[37] = bad
        inline_scenarios = []
        stream_inline = sweep_module._stream_inline

        def counting_stream_inline(todo, *args):
            inline_scenarios.extend(todo)
            return stream_inline(todo, *args)

        monkeypatch.setattr(sweep_module, "_stream_inline", counting_stream_inline)
        events = list(sweep_module.stream_specs(specs, jobs=2, on_failure="continue"))
        failed = [event for event in events if isinstance(event, ScenarioFailed)]
        assert [event.index for event in failed] == [37]
        assert failed[0].error.startswith("SpecValidationError: workload.params")
        assert sum(isinstance(event, ScenarioCompleted) for event in events) == len(specs) - 1
        assert inline_scenarios == []

        with pytest.raises(SpecValidationError) as raised:
            run_specs(specs, jobs=2)
        assert raised.value.field == "workload.params"
        assert inline_scenarios == []

    def test_golden_specs_and_results_pickle_exactly(self):
        for entry in json.loads(GOLDEN_PATH.read_text()).values():
            spec = spec_from_dict(entry["spec"])
            result = execute(spec)
            assert pickle.loads(pickle.dumps(spec)) == spec
            assert pickle.loads(pickle.dumps(result)) == result


class TestCaching:
    def test_second_run_executes_zero_simulations(self, base):
        """Acceptance: a repeated sweep is answered entirely from the cache."""
        cache = ResultCache()
        sweep = Sweep.grid(base, {"strategy": ["hadoop-ns", "clone"], "seed": [0, 1]})
        first = sweep.run(cache=cache)
        assert first.executed == 4 and first.cache_hits == 0
        second = sweep.run(cache=cache)
        assert second.executed == 0 and second.cache_hits == 4
        assert [r.report for r in first.results] == [r.report for r in second.results]

    def test_disk_cache_survives_a_fresh_cache_object(self, base, tmp_path):
        sweep = Sweep.grid(base, {"seed": [0, 1]})
        first = sweep.run(cache=ResultCache(tmp_path / "cache"))
        assert first.executed == 2
        # a brand-new cache instance (think: a new process) reads the files
        second = sweep.run(cache=ResultCache(tmp_path / "cache"))
        assert second.executed == 0 and second.cache_hits == 2
        assert [r.report for r in first.results] == [r.report for r in second.results]

    def test_corrupt_cache_file_is_a_miss(self, base, tmp_path):
        directory = tmp_path / "cache"
        cache = ResultCache(directory)
        (directory / f"{base.fingerprint()}.json").write_text("{ not json")
        assert cache.get(base.fingerprint()) is None
        outcome = run_specs([base], cache=cache)
        assert outcome.executed == 1

    def test_completed_results_cached_before_a_later_failure(self, base):
        """A failing scenario must not discard work that already finished."""
        cache = ResultCache()
        # num_jobs=0 passes spec validation (it's just a workload param) but
        # fails when the workload is materialized at run time.
        bad = base.with_overrides(
            {"workload": {"kind": "benchmark", "params": {"name": "sort", "num_jobs": 0}}}
        )
        good = base.with_overrides(seed=5)
        with pytest.raises(SpecValidationError):
            run_specs([good, bad], cache=cache)
        assert good.fingerprint() in cache
        retry = run_specs([good], cache=cache)
        assert retry.executed == 0 and retry.cache_hits == 1

    def test_concurrent_writers_never_expose_partial_json(self, base, tmp_path):
        """Same-fingerprint writers must not interleave partial JSON.

        ``put`` writes a temp file and atomically renames it, so once a
        fingerprint's file exists, readers can never observe a truncated
        in-progress write (which ``get`` would report as a miss).
        """
        import threading

        directory = tmp_path / "cache"
        result = run_specs([base]).results[0]
        ResultCache(directory).put(result)  # fully present before the storm
        fingerprint = base.fingerprint()
        stop = threading.Event()
        misses = []

        def reader():
            while not stop.is_set():
                # a fresh cache per read: no in-memory layer, disk only
                if ResultCache(directory).get(fingerprint) is None:
                    misses.append(1)

        def writer():
            cache = ResultCache(directory)
            for _ in range(100):
                cache.put(result)

        readers = [threading.Thread(target=reader) for _ in range(2)]
        writers = [threading.Thread(target=writer) for _ in range(4)]
        for thread in readers + writers:
            thread.start()
        for thread in writers:
            thread.join()
        stop.set()
        for thread in readers:
            thread.join()
        assert not misses
        assert list(directory.glob("*.tmp")) == []  # no temp-file litter

    def test_cache_contains_and_len(self, base):
        cache = ResultCache()
        assert base.fingerprint() not in cache
        run_specs([base], cache=cache)
        assert base.fingerprint() in cache
        assert len(cache) == 1


class TestExports:
    def test_rows_csv_and_text(self, base):
        outcome = Sweep.grid(base, {"strategy": ["hadoop-ns", "clone"]}).run()
        rows = outcome.to_rows()
        assert [row["strategy"] for row in rows] == ["hadoop-ns", "clone"]
        assert all(0.0 <= row["pocd"] <= 1.0 for row in rows)
        csv_text = outcome.to_csv()
        assert csv_text.splitlines()[0].startswith("fingerprint,")
        assert len(csv_text.splitlines()) == 3
        text = outcome.to_text()
        assert "hadoop-ns" in text and "2 scenarios" in text

    def test_result_dicts_are_json_ready(self, base):
        outcome = run_specs([base])
        json.dumps(outcome.results[0].to_dict())  # must not raise
