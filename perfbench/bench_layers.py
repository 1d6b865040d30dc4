"""Per-layer metrics of one traced ``run_specs`` call.

:data:`PER_LAYER` lists every metric a traced run prints, with its unit and
better direction (``BENCHMARK.json`` repeats the list).  :data:`EXACT`
names the counts that must repeat exactly across two traced runs of the
same seed.
"""

from __future__ import annotations

import json
import sqlite3
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from bench_trace import BROKER_METHODS, Profile, timing_metrics

_DISTRIBUTED_CALLS = (*BROKER_METHODS, "store_get")


def _timing(prefix: str, unit: str) -> List[Tuple[str, str, str]]:
    return [
        (f"{prefix}.p50", unit, "lower"),
        (f"{prefix}.p99", unit, "lower"),
        (f"{prefix}.n", "count", "higher"),
    ]


#: (name, unit, better) of every per-layer metric.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("core.optimize.calls", "count", "lower"),
    ("core.optimize.calls_per_job", "calls/job", "lower"),
    ("core.optimize.self_s", "s", "lower"),
    ("core.optimize.ms_per_call.p50", "ms", "lower"),
    ("core.optimize.ms_per_call.n", "count", "higher"),
    ("simulator.run.self_s", "s", "lower"),
    ("simulator.engine.self_s", "s", "lower"),
    ("simulator.engine.events", "count", "lower"),
    ("simulator.engine.events_per_sec", "1/s", "higher"),
    *_timing("simulator.scenario_s", "s"),
    ("hadoop.am.calls", "count", "lower"),
    ("hadoop.am.self_s", "s", "lower"),
    ("hadoop.rm.self_s", "s", "lower"),
    ("hadoop.nm.self_s", "s", "lower"),
    ("api.spec.fingerprint.calls_per_scenario", "calls/scenario", "lower"),
    ("api.spec.fingerprint.self_s", "s", "lower"),
    ("api.spec.canonical_json.calls_per_scenario", "calls/scenario", "lower"),
    ("api.spec.canonical_json.self_s", "s", "lower"),
    ("api.spec.from_dict.self_s", "s", "lower"),
    ("api.spec.validate.self_s", "s", "lower"),
    ("api.facade.template.lookups", "count", "lower"),
    ("api.facade.template.builds", "count", "lower"),
    ("api.facade.template.self_s", "s", "lower"),
    ("api.facade.codec.to_dict.self_s", "s", "lower"),
    ("api.facade.codec.from_dict.self_s", "s", "lower"),
    ("api.facade.codec.calls_per_scenario", "calls/scenario", "lower"),
    ("api.facade.codec.bytes_per_result", "bytes", "lower"),
    ("api.sweep.self_s", "s", "lower"),
    ("api.sweep.overhead_ratio", "ratio", "lower"),
    ("api.sweep.first_result_s", "s", "lower"),
    ("api.sweep.pool.submits_per_scenario", "calls/scenario", "lower"),
    ("api.sweep.pool.busy_ratio", "ratio", "higher"),
    ("api.sweep.pool.tail_s", "s", "lower"),
    *(
        metric
        for method in _DISTRIBUTED_CALLS
        for metric in (
            (f"distributed.{method}.calls", "count", "lower"),
            (f"distributed.{method}.self_s", "s", "lower"),
        )
    ),
    ("distributed.transactions_per_scenario", "calls/scenario", "lower"),
    *_timing("distributed.queue_wait_s", "s"),
    *_timing("distributed.lease_s", "s"),
    *_timing("distributed.collect_lag_s", "s"),
    ("distributed.useful_claim_ratio", "ratio", "higher"),
    ("distributed.retried", "count", "lower"),
    ("distributed.worker_start_s", "s", "lower"),
    ("bench.trace_overhead_ratio", "ratio", "lower"),
)

#: Counts that repeat exactly for a given seed.  The remaining distributed
#: call counts are polls (supervision passes, idle claims, lease renewals)
#: whose number follows elapsed time, not the work.
EXACT = (
    "core.optimize.calls",
    "core.optimize.calls_per_job",
    "simulator.engine.events",
    "hadoop.am.calls",
    "api.spec.fingerprint.calls_per_scenario",
    "api.spec.canonical_json.calls_per_scenario",
    "api.facade.template.lookups",
    "api.facade.codec.calls_per_scenario",
    "api.sweep.pool.submits_per_scenario",
    "distributed.enqueue.calls",
    "distributed.complete.calls",
    "distributed.store_get.calls",
    "distributed.retried",
)


@dataclass
class TracedCall:
    """What the benchmark saw of one traced ``run_specs`` call."""

    profile: Profile
    wall_s: float
    started_epoch: float
    results: Sequence = ()
    workers: int = 1
    #: perf_counter seconds after the call started, of the first completion
    first_result_s: float = 0.0
    #: epoch time the parent delivered each fingerprint's ScenarioCompleted
    delivered_at: Dict[str, float] = field(default_factory=dict)
    #: the queue's event log rows: (ts, kind, fingerprint)
    queue_events: List[Tuple[float, str, str]] = field(default_factory=list)


def read_queue_events(db_path: Path) -> List[Tuple[float, str, str]]:
    """Every row of a queue database's event log, in sequence order."""
    connection = sqlite3.connect(str(db_path))
    try:
        return [
            (float(ts), str(kind), str(fingerprint))
            for ts, kind, fingerprint in connection.execute(
                "SELECT ts, kind, fingerprint FROM events ORDER BY seq"
            )
        ]
    finally:
        connection.close()


def _queue_metrics(call: TracedCall) -> Dict[str, Tuple[float, str]]:
    first: Dict[Tuple[str, str], float] = {}
    counts: Dict[str, int] = {}
    for ts, kind, fingerprint in call.queue_events:
        counts[kind] = counts.get(kind, 0) + 1
        first.setdefault((kind, fingerprint), ts)
    waits, leases, lags = [], [], []
    for (kind, fingerprint), started in first.items():
        if kind != "started":
            continue
        queued = first.get(("queued", fingerprint))
        completed = first.get(("completed", fingerprint))
        if queued is not None:
            waits.append(started - queued)
        if completed is not None:
            leases.append(completed - started)
    for (kind, fingerprint), completed in first.items():
        if kind == "completed" and fingerprint in call.delivered_at:
            lags.append(call.delivered_at[fingerprint] - completed)
    starts = [ts for (kind, _), ts in first.items() if kind == "started"]
    claimed = counts.get("started", 0)
    metrics: Dict[str, Tuple[float, str]] = {}
    metrics.update(timing_metrics("distributed.queue_wait_s", waits, "s"))
    metrics.update(timing_metrics("distributed.lease_s", leases, "s"))
    metrics.update(timing_metrics("distributed.collect_lag_s", lags, "s"))
    metrics["distributed.useful_claim_ratio"] = (
        counts.get("completed", 0) / claimed if claimed else 0.0,
        "ratio",
    )
    metrics["distributed.retried"] = (counts.get("retried", 0), "count")
    metrics["distributed.worker_start_s"] = (
        min(starts) - call.started_epoch if starts else 0.0,
        "s",
    )
    return metrics


def layer_metrics(
    call: TracedCall, untraced_wall_s: float, bytes_per_result: float
) -> Dict[str, Tuple[float, str]]:
    """Every :data:`PER_LAYER` metric of one traced call."""
    prof = call.profile
    scenarios = max(1, len(call.results))
    jobs = max(1, sum(result.report.num_jobs for result in call.results))
    calls, self_s = prof.calls, prof.self_s
    scenario_walls = [result.wall_time_s for result in call.results]
    simulated_s = prof.total_s.get("simulator.run", 0.0)
    optimize_ms = [1000.0 * d for d in prof.durations.get("core.optimize", ())]
    engine_s = prof.total_s.get("simulator.engine", 0.0)
    events = prof.counters.get("simulator.engine.events", 0)

    m: Dict[str, Tuple[float, str]] = {
        "core.optimize.calls": (calls.get("core.optimize", 0), "count"),
        "core.optimize.calls_per_job": (calls.get("core.optimize", 0) / jobs, "calls/job"),
        "core.optimize.self_s": (self_s.get("core.optimize", 0.0), "s"),
    }
    ms_per_call = timing_metrics("core.optimize.ms_per_call", optimize_ms, "ms")
    del ms_per_call["core.optimize.ms_per_call.p99"]
    m.update(ms_per_call)
    m["simulator.run.self_s"] = (self_s.get("simulator.run", 0.0), "s")
    m["simulator.engine.self_s"] = (self_s.get("simulator.engine", 0.0), "s")
    m["simulator.engine.events"] = (events, "count")
    m["simulator.engine.events_per_sec"] = (events / engine_s if engine_s else 0.0, "1/s")
    m.update(timing_metrics("simulator.scenario_s", scenario_walls, "s"))
    m["hadoop.am.calls"] = (prof.bucket_calls("hadoop.am"), "count")
    for part in ("am", "rm", "nm"):
        m[f"hadoop.{part}.self_s"] = (prof.bucket_self(f"hadoop.{part}"), "s")
    for name in ("fingerprint", "canonical_json"):
        m[f"api.spec.{name}.calls_per_scenario"] = (
            calls.get(f"api.spec.{name}", 0) / scenarios,
            "calls/scenario",
        )
    for name in ("fingerprint", "canonical_json", "from_dict", "validate"):
        m[f"api.spec.{name}.self_s"] = (self_s.get(f"api.spec.{name}", 0.0), "s")
    m["api.facade.template.lookups"] = (calls.get("api.facade.template.lookup", 0), "count")
    m["api.facade.template.builds"] = (calls.get("api.facade.template.build", 0), "count")
    m["api.facade.template.self_s"] = (prof.bucket_self("api.facade.template"), "s")
    codec_calls = 0
    for name in ("to_dict", "from_dict"):
        m[f"api.facade.codec.{name}.self_s"] = (self_s.get(f"api.facade.codec.{name}", 0.0), "s")
        codec_calls += calls.get(f"api.facade.codec.{name}", 0)
    m["api.facade.codec.calls_per_scenario"] = (codec_calls / scenarios, "calls/scenario")
    m["api.facade.codec.bytes_per_result"] = (bytes_per_result, "bytes")
    m["api.sweep.self_s"] = (prof.bucket_self("api.sweep"), "s")
    m["api.sweep.overhead_ratio"] = (
        (call.wall_s * call.workers - simulated_s) / simulated_s if simulated_s else 0.0,
        "ratio",
    )
    m["api.sweep.first_result_s"] = (call.first_result_s, "s")
    m["api.sweep.pool.submits_per_scenario"] = (
        calls.get("api.sweep.pool.submit", 0) / scenarios,
        "calls/scenario",
    )
    busy = sum(scenario_walls)
    m["api.sweep.pool.busy_ratio"] = (busy / (call.wall_s * call.workers), "ratio")
    m["api.sweep.pool.tail_s"] = (call.wall_s - busy / call.workers, "s")
    transactions = 0
    for method in _DISTRIBUTED_CALLS:
        count = calls.get(f"distributed.{method}", 0)
        transactions += count
        m[f"distributed.{method}.calls"] = (count, "count")
        m[f"distributed.{method}.self_s"] = (self_s.get(f"distributed.{method}", 0.0), "s")
    m["distributed.transactions_per_scenario"] = (transactions / scenarios, "calls/scenario")
    m.update(_queue_metrics(call))
    m["bench.trace_overhead_ratio"] = (call.wall_s / untraced_wall_s - 1.0, "ratio")
    return m


def reconciliation(prof: Profile, wall: float) -> Tuple[float, Optional[str]]:
    """Parent-process bucket self times against the traced call's wall time.

    The buckets sum to the parent's root spans, so a gap means a span was
    recorded outside the call or in another thread, or children overlap.
    Returns ``(sum of buckets, error)``; ``error`` is set when the sum and
    ``wall`` differ by more than 5% of ``wall``.
    """
    total = sum(prof.parent_buckets.values())
    if wall <= 0 or abs(total - wall) > 0.05 * wall:
        return total, f"layer self times sum to {total:.4f} s against {wall:.4f} s wall"
    return total, None


def format_reconciliation(prof: Profile) -> str:
    """One line per bucket of the parent process, largest first."""
    parts = sorted(prof.parent_buckets.items(), key=lambda item: -item[1])
    return json.dumps({name: round(value, 6) for name, value in parts})
