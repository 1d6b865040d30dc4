"""Span tracing from outside the program, and per-layer metrics from spans.

:class:`Recorder` wraps the public functions of each layer (the table
:data:`TARGETS`) so that every call records a span: name, start, end and
the span that was open when it began.  Spans live in compact per-thread
arrays in memory.  Forked pool and worker processes inherit the wrappers;
each starts with an empty buffer and writes its spans once, when it
exits, to ``<out_dir>/<run id>/``.  :func:`load_spans` merges those files
with the parent's buffers by run id.

A span's self time is its duration minus the durations of its direct
children (spans of one thread nest, so the children never overlap).
"""

from __future__ import annotations

import contextlib
import importlib
import json
import math
import multiprocessing.util
import os
import threading
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

import numpy as np

#: Broker methods traced as ``distributed.<method>`` (each one sqlite
#: transaction).
BROKER_METHODS = (
    "enqueue",
    "claim_many",
    "complete",
    "heartbeat",
    "events_since",
    "settled",
    "requeue_expired",
)

#: (module, attribute path, span name): the public calls timed per layer.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.optimizer", "ChronosOptimizer.optimize", "core.optimize"),
    ("repro.simulator.runner", "SimulationRunner.run", "simulator.run"),
    ("repro.simulator.engine", "SimulationEngine.run", "simulator.engine"),
    ("repro.hadoop.app_master", "ApplicationMaster.start", "hadoop.am.start"),
    ("repro.hadoop.app_master", "ApplicationMaster.launch_attempt", "hadoop.am.launch_attempt"),
    ("repro.hadoop.app_master", "ApplicationMaster.kill_attempt", "hadoop.am.kill_attempt"),
    (
        "repro.hadoop.app_master",
        "ApplicationMaster.estimate_completion",
        "hadoop.am.estimate_completion",
    ),
    (
        "repro.hadoop.resource_manager",
        "ResourceManager.request_container",
        "hadoop.rm.request_container",
    ),
    (
        "repro.hadoop.resource_manager",
        "ResourceManager.release_container",
        "hadoop.rm.release_container",
    ),
    ("repro.hadoop.node_manager", "NodeManager.launch", "hadoop.nm.launch"),
    ("repro.hadoop.node_manager", "NodeManager.kill", "hadoop.nm.kill"),
    ("repro.api.spec", "ScenarioSpec.fingerprint", "api.spec.fingerprint"),
    ("repro.api.spec", "canonical_json", "api.spec.canonical_json"),
    ("repro.api.spec", "ScenarioSpec.from_dict", "api.spec.from_dict"),
    ("repro.api.spec", "ScenarioSpec.__post_init__", "api.spec.validate"),
    ("repro.api.facade", "RunnerTemplate.for_spec", "api.facade.template.lookup"),
    ("repro.api.facade", "RunnerTemplate.__init__", "api.facade.template.build"),
    ("repro.api.facade", "ScenarioResult.to_dict", "api.facade.codec.to_dict"),
    ("repro.api.facade", "ScenarioResult.from_dict", "api.facade.codec.from_dict"),
    ("concurrent.futures.process", "ProcessPoolExecutor.submit", "api.sweep.pool.submit"),
    *(
        ("repro.distributed.broker", f"Broker.{method}", f"distributed.{method}")
        for method in BROKER_METHODS
    ),
    ("repro.distributed.store", "SqliteResultStore.get", "distributed.store_get"),
)

#: The span the benchmark opens around each traced ``run_specs`` call.
ROOT_SPAN = "api.sweep.run_specs"

#: Self-time buckets: a span belongs to the longest prefix listed here.
#: Every span name falls in exactly one bucket, so the buckets of one
#: process sum to that process's root spans.
BUCKETS = (
    "core.optimize",
    "simulator.run",
    "simulator.engine",
    "hadoop.am",
    "hadoop.rm",
    "hadoop.nm",
    "api.spec.fingerprint",
    "api.spec.canonical_json",
    "api.spec.from_dict",
    "api.spec.validate",
    "api.facade.template",
    "api.facade.codec.to_dict",
    "api.facade.codec.from_dict",
    "api.sweep",
    *(f"distributed.{method}" for method in BROKER_METHODS),
    "distributed.store_get",
)


def bucket_of(name: str) -> str:
    """The self-time bucket of span ``name``."""
    best = ""
    for bucket in BUCKETS:
        if (name == bucket or name.startswith(bucket + ".")) and len(bucket) > len(best):
            best = bucket
    if not best:
        raise KeyError(f"span {name!r} belongs to no bucket")
    return best


class _Buffer:
    """One thread's spans: parallel arrays plus the stack of open spans."""

    __slots__ = ("names", "parents", "starts", "ends", "stack")

    def __init__(self) -> None:
        self.names = array("H")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: List[int] = []


class Recorder:
    """Installs span wrappers on :data:`TARGETS` and collects their spans."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.names: List[str] = []
        self.run_id = ""
        self._originals: List[Tuple[object, str, object]] = []
        self._reset()

    # -- recording -----------------------------------------------------
    def _reset(self) -> None:
        self._local = threading.local()
        self._buffers: List[_Buffer] = []
        self._lock = threading.Lock()
        self.counters: Dict[str, int] = {}

    def _buffer(self) -> _Buffer:
        buffer = getattr(self._local, "buffer", None)
        if buffer is None:
            buffer = _Buffer()
            self._local.buffer = buffer
            with self._lock:
                self._buffers.append(buffer)
        return buffer

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def open(self, name_id: int) -> Tuple[_Buffer, int]:
        buffer = self._buffer()
        index = len(buffer.starts)
        buffer.names.append(name_id)
        buffer.parents.append(buffer.stack[-1] if buffer.stack else -1)
        buffer.ends.append(0.0)
        buffer.stack.append(index)
        buffer.starts.append(time.perf_counter())
        return buffer, index

    @staticmethod
    def close(buffer: _Buffer, index: int) -> None:
        buffer.ends[index] = time.perf_counter()
        buffer.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around a block (used around ``run_specs``)."""
        handle = self.open(self._name_id(name))
        try:
            yield
        finally:
            self.close(*handle)

    def count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _wrap(self, function: Callable, name: str) -> Callable:
        name_id = self._name_id(name)
        open_span, close_span = self.open, self.close
        if name == "simulator.engine":
            recorder = self

            def engine_wrapper(engine, *args, **kwargs):
                handle = open_span(name_id)
                try:
                    return function(engine, *args, **kwargs)
                finally:
                    close_span(*handle)
                    recorder.count("simulator.engine.events", engine.processed_events)

            return engine_wrapper

        def wrapper(*args, **kwargs):
            handle = open_span(name_id)
            try:
                return function(*args, **kwargs)
            finally:
                close_span(*handle)

        return wrapper

    # -- installation --------------------------------------------------
    def install(self) -> None:
        """Wrap every target; forked children will record too."""
        # Runs in every multiprocessing child, after the child's finalizer
        # registry has been cleared.
        multiprocessing.util.register_after_fork(self, Recorder._forked)
        for module_name, path, name in TARGETS:
            module = importlib.import_module(module_name)
            if "." not in path:
                original = getattr(module, path)
                wrapper = self._wrap(original, name)
                # Patch every module that imported the function by name.
                for other in list(_loaded_modules()):
                    if getattr(other, path, None) is original:
                        self._originals.append((other, path, original))
                        setattr(other, path, wrapper)
                continue
            owner_name, attribute = path.split(".")
            owner = getattr(module, owner_name)
            raw = owner.__dict__[attribute]
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap(raw.__func__, name))
            else:
                patched = self._wrap(raw, name)
            self._originals.append((owner, attribute, raw))
            setattr(owner, attribute, patched)

    def uninstall(self) -> None:
        """Restore every wrapped function."""
        for owner, attribute, original in reversed(self._originals):
            setattr(owner, attribute, original)
        self._originals.clear()

    def begin(self, run_id: str) -> None:
        """Start a traced run: empty buffers, children write under ``run_id``."""
        self._reset()
        self.run_id = run_id
        (self.out_dir / run_id).mkdir(parents=True, exist_ok=True)

    # -- child processes -----------------------------------------------
    def _forked(self) -> None:
        if not self._originals:
            return  # uninstalled before this fork
        self._reset()
        # multiprocessing children exit through util._exit_function, which
        # runs finalizers (atexit handlers do not run there).
        multiprocessing.util.Finalize(None, self._write_child, exitpriority=100)

    def _write_child(self) -> None:
        spans = self.snapshot(os.getpid())
        path = self.out_dir / self.run_id / f"spans-{os.getpid()}.npz"
        np.savez(
            path,
            names=spans.names,
            parents=spans.parents,
            starts=spans.starts,
            ends=spans.ends,
            meta=np.array(
                json.dumps(
                    {
                        "run_id": self.run_id,
                        "pid": spans.pid,
                        "names": self.names,
                        "counters": self.counters,
                    }
                )
            ),
        )

    def snapshot(self, pid: int) -> "SpanSet":
        """This process's spans as one :class:`SpanSet`."""
        with self._lock:
            buffers = list(self._buffers)
        names, parents, starts, ends = [], [], [], []
        offset = 0
        for buffer in buffers:
            names.append(np.array(buffer.names, dtype=np.uint16))
            local = np.array(buffer.parents, dtype=np.int64)
            parents.append(np.where(local >= 0, local + offset, -1))
            starts.append(np.array(buffer.starts, dtype=np.float64))
            ends.append(np.array(buffer.ends, dtype=np.float64))
            offset += len(local)
        return SpanSet(
            run_id=self.run_id,
            pid=pid,
            table=list(self.names),
            names=np.concatenate(names) if names else np.zeros(0, np.uint16),
            parents=np.concatenate(parents) if parents else np.zeros(0, np.int64),
            starts=np.concatenate(starts) if starts else np.zeros(0),
            ends=np.concatenate(ends) if ends else np.zeros(0),
            counters=dict(self.counters),
        )


def _loaded_modules() -> Iterator[object]:
    import sys

    for name, module in list(sys.modules.items()):
        if module is not None and (name == "repro" or name.startswith("repro.")):
            yield module


@dataclass
class SpanSet:
    """All spans of one process in one traced run."""

    run_id: str
    pid: int
    table: List[str]
    names: np.ndarray
    parents: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    counters: Dict[str, int] = field(default_factory=dict)

    def self_times(self) -> np.ndarray:
        """Per span: duration minus the durations of its direct children."""
        if np.any(self.ends < self.starts):
            raise ValueError(f"process {self.pid} has spans that never closed")
        durations = self.ends - self.starts
        has_parent = self.parents >= 0
        children = np.bincount(
            self.parents[has_parent], weights=durations[has_parent], minlength=len(durations)
        )
        return durations - children


def load_spans(recorder: Recorder) -> List[SpanSet]:
    """The parent's spans plus every child file of the current run id."""
    sets = [recorder.snapshot(os.getpid())]
    for path in sorted((recorder.out_dir / recorder.run_id).glob("spans-*.npz")):
        with np.load(path) as data:
            meta = json.loads(str(data["meta"]))
            if meta["run_id"] != recorder.run_id:
                continue
            sets.append(
                SpanSet(
                    run_id=meta["run_id"],
                    pid=meta["pid"],
                    table=meta["names"],
                    names=data["names"],
                    parents=data["parents"],
                    starts=data["starts"],
                    ends=data["ends"],
                    counters=meta["counters"],
                )
            )
    return sets


@dataclass
class Profile:
    """Per-name aggregates over the span sets of one traced run."""

    calls: Dict[str, int]
    self_s: Dict[str, float]
    total_s: Dict[str, float]
    durations: Dict[str, np.ndarray]
    counters: Dict[str, int]
    #: self time per bucket, parent process only (for the reconciliation)
    parent_buckets: Dict[str, float]

    def bucket_calls(self, bucket: str) -> int:
        return sum(c for name, c in self.calls.items() if bucket_of(name) == bucket)

    def bucket_self(self, bucket: str) -> float:
        return sum(s for name, s in self.self_s.items() if bucket_of(name) == bucket)


def profile(sets: Sequence[SpanSet], parent_pid: int) -> Profile:
    """Aggregate span sets into calls, self and total time per span name."""
    calls: Dict[str, int] = {}
    self_s: Dict[str, float] = {}
    total_s: Dict[str, float] = {}
    pieces: Dict[str, List[np.ndarray]] = {}
    counters: Dict[str, int] = {}
    parent_buckets: Dict[str, float] = {}
    for spans in sets:
        own = spans.self_times()
        durations = spans.ends - spans.starts
        for name_id in np.unique(spans.names):
            name = spans.table[int(name_id)]
            mask = spans.names == name_id
            calls[name] = calls.get(name, 0) + int(mask.sum())
            self_s[name] = self_s.get(name, 0.0) + float(own[mask].sum())
            total_s[name] = total_s.get(name, 0.0) + float(durations[mask].sum())
            pieces.setdefault(name, []).append(durations[mask])
            if spans.pid == parent_pid:
                bucket = bucket_of(name)
                parent_buckets[bucket] = parent_buckets.get(bucket, 0.0) + float(own[mask].sum())
        for name, amount in spans.counters.items():
            counters[name] = counters.get(name, 0) + int(amount)
    return Profile(
        calls=calls,
        self_s=self_s,
        total_s=total_s,
        durations={name: np.concatenate(parts) for name, parts in pieces.items()},
        counters=counters,
        parent_buckets=parent_buckets,
    )


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100); 0.0 for no samples."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


#: ``.p99`` needs at least this many samples; below it the metric reads 0.
P99_MIN_SAMPLES = 1000


def timing_metrics(prefix: str, values: Sequence[float], unit: str) -> Dict[str, tuple]:
    """``<prefix>.p50/.p99/.n`` as ``{name: (value, unit)}``."""
    n = len(values)
    return {
        f"{prefix}.p50": (percentile(values, 50), unit),
        f"{prefix}.p99": (percentile(values, 99) if n >= P99_MIN_SAMPLES else 0.0, unit),
        f"{prefix}.n": (n, "count"),
    }
