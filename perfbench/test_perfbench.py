"""Tests of the benchmark's own machinery: output check, spans, records."""

from __future__ import annotations

import dataclasses
import json
import os
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import bench_check
import bench_host
import bench_layers
import bench_trace
import bench_workloads
from repro.api import ScenarioSpec, run_specs

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def tiny():
    workload = bench_workloads.WORKLOADS["tiny-grid.inline"]
    specs = bench_workloads.build_specs(workload, 3)[::256]
    outcome = run_specs(specs, executor="inline")
    return specs, outcome


def _outcome(results, cache_hits=0):
    return SimpleNamespace(results=tuple(results), cache_hits=cache_hits, failures=0, partial=False)


def test_matching_results_pass(tiny):
    specs, outcome = tiny
    fingerprints = [spec.fingerprint() for spec in specs]
    failed, hashes = bench_check.failed_scenarios(outcome, fingerprints, None, None)
    assert failed == 0
    expected = bench_check.digest(hashes)
    assert bench_check.failed_scenarios(outcome, fingerprints, hashes, expected) == (0, hashes)


def test_altered_result_counts_as_failed(tiny):
    specs, outcome = tiny
    fingerprints = [spec.fingerprint() for spec in specs]
    _, reference = bench_check.failed_scenarios(outcome, fingerprints, None, None)
    results = list(outcome.results)
    altered = dataclasses.replace(results[1].report, pocd=results[1].report.pocd / 2 + 0.01)
    results[1] = dataclasses.replace(results[1], report=altered)
    failed, _ = bench_check.failed_scenarios(_outcome(results), fingerprints, reference, None)
    assert failed == 1


def test_altered_digest_fails_every_scenario(tiny):
    specs, outcome = tiny
    fingerprints = [spec.fingerprint() for spec in specs]
    _, hashes = bench_check.failed_scenarios(outcome, fingerprints, None, None)
    wrong = bench_check.digest(hashes[::-1])
    failed, _ = bench_check.failed_scenarios(outcome, fingerprints, None, wrong)
    assert failed == len(specs)


def test_cache_hits_and_missing_results_fail(tiny):
    specs, outcome = tiny
    fingerprints = [spec.fingerprint() for spec in specs]
    hit = _outcome(outcome.results, cache_hits=1)
    assert bench_check.failed_scenarios(hit, fingerprints, None, None)[0] == len(specs)
    short = _outcome(outcome.results[:-1])
    assert bench_check.failed_scenarios(short, fingerprints, None, None)[0] == len(specs)


def test_wall_time_is_not_hashed(tiny):
    _, outcome = tiny
    result = outcome.results[0]
    later = dataclasses.replace(result, wall_time_s=result.wall_time_s + 1.0)
    assert bench_check.payload_hash(later) == bench_check.payload_hash(result)


def test_self_time_subtracts_direct_children():
    # root [0, 10] > a [1, 4] > g [2, 3]; root > b [5, 6]
    spans = bench_trace.SpanSet(
        run_id="t",
        pid=1,
        table=["api.sweep.run_specs", "simulator.run", "simulator.engine", "hadoop.am.start"],
        names=np.array([0, 1, 2, 3], dtype=np.uint16),
        parents=np.array([-1, 0, 1, 0]),
        starts=np.array([0.0, 1.0, 2.0, 5.0]),
        ends=np.array([10.0, 4.0, 3.0, 6.0]),
    )
    assert spans.self_times().tolist() == [6.0, 2.0, 1.0, 1.0]
    profile = bench_trace.profile([spans], parent_pid=1)
    assert sum(profile.parent_buckets.values()) == 10.0
    assert bench_layers.reconciliation(profile, 10.0)[1] is None
    assert bench_layers.reconciliation(profile, 12.0)[1] is not None


def test_unclosed_span_is_an_error():
    spans = bench_trace.SpanSet(
        run_id="t",
        pid=1,
        table=["simulator.run"],
        names=np.array([0], dtype=np.uint16),
        parents=np.array([-1]),
        starts=np.array([5.0]),
        ends=np.array([0.0]),
    )
    with pytest.raises(ValueError):
        spans.self_times()


@pytest.mark.parametrize("executor", ["inline", "pool"])
def test_traced_run_collects_every_process(tiny, tmp_path, executor):
    specs, _ = tiny
    original = ScenarioSpec.fingerprint
    recorder = bench_trace.Recorder(tmp_path)
    recorder.install()
    try:
        recorder.begin("run")
        with recorder.span(bench_trace.ROOT_SPAN):
            started = time.perf_counter()
            outcome = run_specs(specs, executor=executor, workers=2)
            wall = time.perf_counter() - started
        profile = bench_trace.profile(bench_trace.load_spans(recorder), parent_pid=os.getpid())
    finally:
        recorder.uninstall()
    assert ScenarioSpec.fingerprint is original
    assert len(outcome.results) == len(specs)
    assert profile.calls["simulator.run"] == len(specs)
    assert profile.calls["api.spec.fingerprint"] == 2 * len(specs)
    assert profile.counters["simulator.engine.events"] > 0
    total, error = bench_layers.reconciliation(profile, wall)
    assert error is None, (total, wall)


def test_benchmark_json_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(bench_workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        tuple(metric) for metric in bench_layers.PER_LAYER
    ]
    assert set(bench_layers.EXACT) <= {name for name, _, _ in bench_layers.PER_LAYER}


def test_every_per_layer_metric_is_computed(tiny):
    _, outcome = tiny
    empty = bench_trace.profile([], parent_pid=0)
    call = bench_layers.TracedCall(
        profile=empty, wall_s=1.0, started_epoch=0.0, results=outcome.results
    )
    metrics = bench_layers.layer_metrics(call, untraced_wall_s=1.0, bytes_per_result=1.0)
    assert {name: unit for name, (_, unit) in metrics.items()} == {
        name: unit for name, unit, _ in bench_layers.PER_LAYER
    }


def test_warmup_seeds_are_disjoint_from_the_grid():
    for workload in bench_workloads.WORKLOADS.values():
        grid = {spec.seed for spec in bench_workloads.build_specs(workload, 5)}
        warm = {spec.seed for spec in bench_workloads.build_warmup_specs(workload, 5)}
        assert not grid & warm


def _children() -> set:
    """Pids whose parent is this process, zombies included."""
    children = set()
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue  # the process ended meanwhile
        if int(fields[1]) == os.getpid():
            children.add(stat.parent.name)
    return children


def test_reference_job_reaps_its_processes():
    before = _children()
    wall, cpu = bench_host.reference_s(2)
    assert wall > 0 and cpu > 0
    assert _children() <= before


def test_scale_maps_the_reference_to_the_nominal_host():
    nominal = bench_host.NOMINAL_S
    assert bench_host.scale(nominal, nominal) == 1.0
    # A host twice as slow halves every time measured on it.
    assert bench_host.scale(2 * nominal, 2 * nominal) == 0.5
    assert bench_host.scale(nominal, 3 * nominal) == 0.5
