"""Grid sweeps over scenario specs: streaming execution, caching, control.

:class:`Sweep` expands a base :class:`~repro.api.spec.ScenarioSpec` with a
list of dotted-path override mappings (or a full cartesian grid via
:meth:`Sweep.grid`) and runs the resulting scenarios through a pluggable
executor backend — ``"inline"`` (this process), ``"pool"`` (a
``concurrent.futures`` process pool) or ``"distributed"`` (a durable
sqlite queue shared by worker processes, see :mod:`repro.distributed`)
— optionally against a fingerprint-keyed :class:`ResultCache` so
repeated sweeps only pay for scenarios they have not seen before.

The pool executor submits chunks of the live, already-validated spec
objects — about eight chunks per worker, so a large grid of small
scenarios pays one submit and one pickle per chunk rather than per
scenario — and gets the live results back: specs and results pickle
exactly, so no JSON codec runs on the way, as with inline execution.
Completion events therefore arrive per chunk, and a cancel harvests
only the chunks already dispatched to the workers.  Only the on-disk
:class:`ResultCache` and the distributed queue, whose payloads cross
hosts, go through the JSON codec.

Execution is *event driven*: every backend reports progress through one
stream of :class:`~repro.api.events.SweepEvent` objects.
:func:`stream_specs` / :meth:`Sweep.stream` yield those events as
scenarios complete; the blocking :func:`run_specs` / :meth:`Sweep.run`
are thin consumers of the same stream that assemble a
:class:`SweepResult`.  On top of the stream sit cooperative cancellation
(:class:`CancelToken`; Ctrl-C returns a *partial* result instead of
losing finished work) and registry-pluggable early stopping
(:func:`register_stop_condition`).

Example::

    from repro.api import CancelToken, ScenarioSpec, Sweep, WorkloadSpec

    base = ScenarioSpec(
        workload=WorkloadSpec("google-trace", {"num_jobs": 50}),
        strategy="s-resume",
    )
    sweep = Sweep.grid(base, {
        "strategy": ["clone", "s-restart", "s-resume"],
        "strategy_params.theta": [1e-5, 1e-4],
    })
    for event in sweep.stream(jobs=4):          # live progress
        print(event.kind, getattr(event, "fingerprint", ""))

    token = CancelToken()                        # cancellable blocking run
    result = sweep.run(jobs=4, cancel=token, stop="max_failures")
    print(result.to_text())
"""

from __future__ import annotations

import concurrent.futures
import csv
import io
import itertools
import json
import os
import pickle
import threading
import time
import uuid
from dataclasses import dataclass, replace
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.api.events import (
    ScenarioCacheHit,
    ScenarioCompleted,
    ScenarioFailed,
    ScenarioQueued,
    ScenarioStarted,
    SweepEvent,
    SweepFinished,
    SweepStarted,
)
from repro.api.facade import ScenarioResult, execute, result_from_dict
from repro.api.registry import Registry, UnknownPluginError
from repro.api.spec import ScenarioSpec, SpecValidationError
from repro.simulator.metrics import SimulationReport
from repro import telemetry
from repro.telemetry import new_sweep_id

_SWEEP_SCENARIOS = telemetry.counter(
    "chronos_sweep_scenarios_total",
    "Scenarios resolved by sweeps, by outcome",
    labelnames=("outcome",),
)
_SWEEP_RATE = telemetry.gauge(
    "chronos_sweep_scenarios_per_second",
    "Scenario throughput (executed + cache hits over wall time) of the last sweep",
)
_SWEEP_HIT_RATIO = telemetry.gauge(
    "chronos_sweep_cache_hit_ratio",
    "Fraction of the last sweep answered by caches instead of execution",
)


class ResultCache:
    """Fingerprint-keyed cache of scenario results.

    Always caches in memory; when given a directory it also persists each
    result as ``<fingerprint>.json`` so later processes (or a re-run of
    the same sweep command) skip finished scenarios entirely.  Corrupt or
    unreadable cache files are treated as misses, never as errors.
    """

    def __init__(self, directory: Optional[Union[str, Path]] = None):
        self._memory: Dict[str, ScenarioResult] = {}
        self._directory = Path(directory) if directory is not None else None
        if self._directory is not None:
            self._directory.mkdir(parents=True, exist_ok=True)

    @property
    def directory(self) -> Optional[Path]:
        """On-disk location, or ``None`` for a memory-only cache."""
        return self._directory

    def get(self, fingerprint: str) -> Optional[ScenarioResult]:
        """The cached result for a fingerprint, or ``None`` on a miss."""
        if fingerprint in self._memory:
            return self._memory[fingerprint]
        if self._directory is not None:
            path = self._directory / f"{fingerprint}.json"
            if path.is_file():
                try:
                    result = result_from_dict(json.loads(path.read_text()))
                except (ValueError, TypeError, KeyError):
                    return None
                self._memory[fingerprint] = result
                return result
        return None

    def put(self, result: ScenarioResult) -> None:
        """Store a result under its fingerprint (memory and, if set, disk).

        The disk write goes through a uniquely-named temp file in the
        same directory followed by an atomic rename, so concurrent
        writers of one fingerprint (two sweeps sharing a cache dir) can
        never leave — or let a reader observe — interleaved partial JSON.
        """
        self._memory[result.fingerprint] = result
        if self._directory is not None:
            path = self._directory / f"{result.fingerprint}.json"
            temp = self._directory / f"{result.fingerprint}.{os.getpid()}.{uuid.uuid4().hex}.tmp"
            temp.write_text(json.dumps(result.to_dict()))
            os.replace(temp, path)

    def clear(self) -> None:
        """Drop the in-memory entries (on-disk files are left alone)."""
        self._memory.clear()

    def __len__(self) -> int:
        """Number of in-memory entries (on-disk-only entries not counted)."""
        return len(self._memory)

    def __contains__(self, fingerprint: object) -> bool:
        """Whether a result for ``fingerprint`` is available (memory or disk)."""
        return isinstance(fingerprint, str) and self.get(fingerprint) is not None


#: Chunks the pool executor cuts a batch into, per worker process: enough
#: that the last chunks balance the load, few enough that one submit and
#: one result pickle are shared by many small scenarios.
_CHUNKS_PER_WORKER = 8


def _portable(error: Exception) -> Exception:
    """``error`` if it survives pickling, else a ``RuntimeError`` naming it."""
    try:
        pickle.loads(pickle.dumps(error))
    except Exception:
        return RuntimeError(f"{type(error).__name__}: {error}")
    return error


def _execute_spec_chunk(specs: Sequence[Any]) -> List[Any]:
    """Process-pool worker: run a chunk of specs, one outcome per spec.

    Specs and results cross the process boundary as the live objects —
    they pickle exactly, so no codec runs on either side.  Each outcome
    is the spec's :class:`ScenarioResult` (or ``ClusterResult``), the
    exception the scenario raised, or ``None`` when a registry lookup
    finds no plugin of the name the spec gives: the parent validated
    that name, so the plugin was registered only there (invisible to
    spawn/forkserver children), and the parent runs the scenario inline.
    """
    outcomes: List[Any] = []
    for spec in specs:
        try:
            outcomes.append(execute(spec))
        except UnknownPluginError:
            outcomes.append(None)
        except Exception as error:
            outcomes.append(_portable(error))
    return outcomes


def _is_sweepable_spec(spec: Any) -> bool:
    """Whether a value can anchor a sweep (scenario or cluster spec)."""
    if isinstance(spec, ScenarioSpec):
        return True
    return (
        getattr(spec, "kind", None) == "cluster"
        and callable(getattr(spec, "with_overrides", None))
        and callable(getattr(spec, "fingerprint", None))
    )


# ----------------------------------------------------------------------
# Executor backends
# ----------------------------------------------------------------------
#: Names of the pluggable executor backends.
EXECUTORS = ("inline", "pool", "distributed")

#: Process-wide executor defaults, set by :func:`set_default_executor`.
_executor_defaults: Dict[str, Any] = {
    "executor": None,
    "workers": None,
    "db": None,
    "broker": None,
}

#: Process-wide event callback, set by :func:`set_default_on_event`.
_default_on_event: Optional[Callable[[SweepEvent], None]] = None


def _validate_broker_url(broker: Union[str, Path]) -> str:
    text = str(broker)
    if not (
        text.startswith("http://")
        or text.startswith("https://")
        or text.startswith("shards:")
    ):
        raise ValueError(
            f"broker must be an http(s):// sweep-service URL or a 'shards:' "
            f"federation spec, got {broker!r}"
        )
    return text


def set_default_executor(
    executor: Optional[str] = None,
    *,
    workers: Optional[int] = None,
    db: Optional[Union[str, Path]] = None,
    broker: Optional[str] = None,
) -> None:
    """Set the process-wide executor backend used when callers pass none.

    This is how whole call trees that predate the distributed backend —
    the six experiment harnesses, ``run_strategy_suite``, user scripts —
    can be pointed at a worker fleet without changing a line of them:
    the CLI (``--executor distributed --workers 4``, or ``--broker
    http://host:8176`` for a remote sweep service) or a conftest sets
    the default once, and every :func:`run_specs` call follows it.

    ``executor=None`` restores the automatic choice (``"pool"`` when
    ``jobs > 1``, else ``"inline"``); a ``broker`` URL implies
    ``"distributed"``.
    """
    if broker is not None:
        broker = _validate_broker_url(broker)
        if executor is None:
            executor = "distributed"
    if executor is not None and executor not in EXECUTORS:
        raise ValueError(f"unknown executor {executor!r} (available: {', '.join(EXECUTORS)})")
    if broker is not None and executor != "distributed":
        raise ValueError("broker= requires the distributed executor")
    if broker is not None and db is not None:
        raise ValueError("pass either db (sqlite path) or broker (service URL), not both")
    if workers is not None and workers < 1:
        raise ValueError("workers must be a positive integer")
    _executor_defaults["executor"] = executor
    _executor_defaults["workers"] = workers
    _executor_defaults["db"] = db
    _executor_defaults["broker"] = broker


def default_executor() -> Optional[str]:
    """The process-wide default backend, or ``None`` for automatic."""
    return _executor_defaults["executor"]


def set_default_on_event(callback: Optional[Callable[[SweepEvent], None]]) -> None:
    """Set a process-wide event callback for blocking sweeps.

    Every :func:`run_specs` call that does not pass its own ``on_event``
    feeds its event stream through ``callback`` — which is how the CLI's
    ``--progress`` renders a live progress line for the experiment
    harnesses without threading a parameter through each of them.
    ``None`` clears the default.
    """
    global _default_on_event
    _default_on_event = callback


def default_on_event() -> Optional[Callable[[SweepEvent], None]]:
    """The process-wide event callback, or ``None``."""
    return _default_on_event


# ----------------------------------------------------------------------
# Cancellation and early stopping
# ----------------------------------------------------------------------
class CancelToken:
    """Cooperative cancellation flag shared by a sweep and its caller.

    Thread safe: trip it from a signal handler, another thread, or an
    ``on_event`` callback.  Executors poll it between scenarios (and on
    every supervision pass, for the distributed backend), finish what is
    in flight, release unclaimed work and return — so a cancelled
    ``run_specs`` yields a *partial* :class:`SweepResult` instead of
    discarding everything.
    """

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        """Request cancellation (idempotent)."""
        self._event.set()

    def cancelled(self) -> bool:
        """Whether cancellation has been requested."""
        return self._event.is_set()


#: A stop condition: called with every sweep event, returns True to stop.
StopCondition = Callable[[SweepEvent], bool]

#: Registry of stop-condition *factories*: each call builds a fresh,
#: possibly stateful condition (counters must not leak across sweeps).
STOP_CONDITIONS: Registry[Callable[..., StopCondition]] = Registry("stop condition")


def register_stop_condition(name: str, factory: Optional[Callable[..., StopCondition]] = None):
    """Register a stop-condition factory (usable as a decorator).

    A factory takes keyword configuration and returns a fresh callable
    ``condition(event) -> bool``; the sweep stops early (returning a
    partial result with ``stopped=True``) the first time the condition
    answers ``True``.  Factories registered here can be named by string
    in ``run_specs(..., stop="max_failures")``.
    """
    return STOP_CONDITIONS.register(name, factory)


def make_stop_condition(name: str, **kwargs: Any) -> StopCondition:
    """Instantiate a registered stop condition by name."""
    return STOP_CONDITIONS.get(name)(**kwargs)


def available_stop_conditions() -> tuple:
    """Names of the registered stop-condition factories."""
    return STOP_CONDITIONS.names()


@register_stop_condition("max_failures")
def _max_failures(limit: int = 1) -> StopCondition:
    """Stop once ``limit`` scenarios have failed.

    Pair with ``on_failure="continue"`` — under the default
    ``on_failure="raise"`` the first failure raises before a second one
    can ever be counted.
    """
    if limit < 1:
        raise ValueError("limit must be a positive integer")
    seen = 0

    def condition(event: SweepEvent) -> bool:
        nonlocal seen
        if isinstance(event, ScenarioFailed):
            seen += 1
        return seen >= limit

    return condition


@register_stop_condition("first_deadline_miss")
def _first_deadline_miss() -> StopCondition:
    """Stop at the first scenario whose report shows a missed deadline.

    The Chronos question is often binary — "does this configuration keep
    PoCD at 1.0?" — and a 10⁴-scenario sweep can stop the moment the
    answer is no.
    """

    def condition(event: SweepEvent) -> bool:
        if isinstance(event, (ScenarioCompleted, ScenarioCacheHit)) and event.result is not None:
            return event.result.report.pocd < 1.0
        return False

    return condition


def _resolve_stop(stop: Union[None, str, StopCondition]) -> Optional[StopCondition]:
    """A ready stop condition from a name, a callable, or ``None``."""
    if stop is None:
        return None
    if isinstance(stop, str):
        return make_stop_condition(stop)
    if callable(stop):
        return stop
    raise ValueError(
        f"stop must be a callable, a registered name or None, got {type(stop).__name__}"
    )


@dataclass(frozen=True)
class SweepResult:
    """Outcome of running a batch of scenarios.

    ``executed`` counts simulations actually performed; ``cache_hits``
    counts scenarios answered from the cache; duplicate fingerprints
    within one batch are executed once and fanned back out, so
    ``executed + cache_hits`` can be less than ``len(results)``.

    A *partial* result (cancelled sweep, tripped stop condition, or
    ``on_failure="continue"``) partitions the batch: ``results`` holds
    the completed scenarios in submission order and ``pending`` the
    specs that never finished — re-running exactly those completes the
    sweep without repeating paid-for work.
    """

    results: Tuple[ScenarioResult, ...]
    executed: int
    cache_hits: int
    wall_time_s: float
    pending: Tuple[ScenarioSpec, ...] = ()
    failures: int = 0
    cancelled: bool = False
    stopped: bool = False

    def __len__(self) -> int:
        """Number of completed results."""
        return len(self.results)

    def __iter__(self) -> Iterator[ScenarioResult]:
        """Iterate over the completed results, in spec order."""
        return iter(self.results)

    def __getitem__(self, index: int) -> ScenarioResult:
        """The ``index``-th completed result."""
        return self.results[index]

    @property
    def completed(self) -> Tuple[ScenarioResult, ...]:
        """The completed partition (alias of ``results``)."""
        return self.results

    @property
    def partial(self) -> bool:
        """Whether the sweep ended before every scenario finished."""
        return bool(self.pending) or self.cancelled or self.stopped

    @property
    def reports(self) -> Tuple[SimulationReport, ...]:
        """The simulation reports, in scenario order."""
        return tuple(result.report for result in self.results)

    # ------------------------------------------------------------------
    # Tabular export
    # ------------------------------------------------------------------
    #: Columns of the tabular exports, in order.
    COLUMNS = (
        "fingerprint",
        "workload",
        "strategy",
        "estimator",
        "seed",
        "num_jobs",
        "pocd",
        "mean_cost",
        "mean_machine_time",
        "mean_response_time",
        "utility",
        "wall_time_s",
    )

    def to_rows(self) -> List[Dict[str, Any]]:
        """One summary dict per scenario (columns in :attr:`COLUMNS`)."""
        return [result.summary_row() for result in self.results]

    def to_csv(self) -> str:
        """The summary rows as CSV text."""
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=list(self.COLUMNS))
        writer.writeheader()
        for row in self.to_rows():
            writer.writerow(row)
        return buffer.getvalue()

    def to_text(self, float_format: str = "{:.4g}") -> str:
        """The summary rows as an aligned plain-text table."""
        header = list(self.COLUMNS)
        body = []
        for row in self.to_rows():
            rendered = []
            for column in header:
                value = row[column]
                rendered.append(
                    float_format.format(value) if isinstance(value, float) else str(value)
                )
            body.append(rendered)
        widths = [
            max(len(header[i]), *(len(line[i]) for line in body)) if body else len(header[i])
            for i in range(len(header))
        ]
        lines = ["  ".join(header[i].ljust(widths[i]) for i in range(len(header)))]
        lines.append("  ".join("-" * widths[i] for i in range(len(header))))
        for line in body:
            lines.append("  ".join(line[i].ljust(widths[i]) for i in range(len(header))))
        summary = (
            f"{len(self.results)} scenarios: {self.executed} executed, "
            f"{self.cache_hits} cache hits, {self.wall_time_s:.1f}s"
        )
        if self.partial:
            if self.stopped:
                state = "stopped early"
            elif self.cancelled:
                state = "cancelled"
            else:  # failures under on_failure="continue", nothing cancelled
                state = "incomplete"
            summary += f" [{state}: {len(self.pending)} pending, {self.failures} failed]"
        lines.append(summary)
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The event stream (all executors) and its blocking consumer
# ----------------------------------------------------------------------
def _resolve_plan(
    jobs: int,
    executor: Optional[str],
    workers: Optional[int],
    db: Optional[Union[str, Path]],
    broker: Optional[str],
) -> Tuple[str, Optional[int], Optional[Union[str, Path]], Optional[str]]:
    """Validate and resolve the executor/workers/db/broker choice."""
    if jobs < 1:
        raise ValueError("jobs must be a positive integer")
    if executor is None:
        executor = _executor_defaults["executor"]
    if broker is None and db is None:
        # Defaults are one queue-target setting: only consult them when the
        # caller pinned neither target explicitly.
        db = _executor_defaults["db"]
        broker = _executor_defaults["broker"]
    if broker is not None:
        broker = _validate_broker_url(broker)
        if executor is None:
            executor = "distributed"
    if executor is None:
        executor = "pool" if jobs > 1 else "inline"
    if executor not in EXECUTORS:
        raise ValueError(f"unknown executor {executor!r} (available: {', '.join(EXECUTORS)})")
    if broker is not None and executor != "distributed":
        raise ValueError("broker= requires the distributed executor")
    if broker is not None and db is not None:
        raise ValueError("pass either db (sqlite path) or broker (service URL), not both")
    if workers is None:
        workers = _executor_defaults["workers"]
    if workers is not None and workers < 1:
        raise ValueError("workers must be a positive integer")
    return executor, workers, db, broker


def stream_specs(
    specs: Sequence[ScenarioSpec],
    *,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    executor: Optional[str] = None,
    workers: Optional[int] = None,
    db: Optional[Union[str, Path]] = None,
    broker: Optional[str] = None,
    lease_timeout: Optional[float] = None,
    cancel: Optional[CancelToken] = None,
    stop: Union[None, str, StopCondition] = None,
    on_failure: str = "raise",
) -> Iterator[SweepEvent]:
    """Run a batch of scenarios, yielding events as they happen.

    This is the one execution path of the sweep layer: the generator
    emits a :class:`~repro.api.events.SweepStarted`, one
    ``ScenarioCacheHit``/``ScenarioQueued`` per scenario, per-scenario
    lifecycle events from the chosen backend as they occur (the first
    event arrives long before the last scenario finishes), and a final
    ``SweepFinished`` — identically for the inline, pool and distributed
    backends, including sweeps against a remote ``https://`` broker.

    Parameters mirror :func:`run_specs`, plus:

    cancel:
        A :class:`CancelToken`; tripping it makes every backend finish
        the work in flight, release unclaimed queue tasks and leases,
        and end the stream early (``SweepFinished.cancelled``).
    stop:
        A stop condition — a callable ``condition(event) -> bool`` or
        the name of a factory registered via
        :func:`register_stop_condition` (``"max_failures"``,
        ``"first_deadline_miss"``, ...).  Evaluated against every event;
        the first ``True`` ends the sweep (``SweepFinished.stopped``).
    on_failure:
        ``"raise"`` (default) re-raises a scenario's error out of the
        stream after emitting ``ScenarioFailed`` — the pre-streaming
        behaviour; ``"continue"`` keeps going, leaving failed scenarios
        in the pending partition.

    Closing the generator early (``break``/``close()``/Ctrl-C) performs
    the same cleanup as cancellation.
    """
    executor, workers, db, broker = _resolve_plan(jobs, executor, workers, db, broker)
    if on_failure not in ("raise", "continue"):
        raise ValueError(f"on_failure must be 'raise' or 'continue', got {on_failure!r}")
    stop_condition = _resolve_stop(stop)
    token = cancel if cancel is not None else CancelToken()
    return _event_stream(
        list(specs),
        jobs=jobs,
        cache=cache,
        executor=executor,
        workers=workers,
        db=db,
        broker=broker,
        lease_timeout=lease_timeout,
        token=token,
        stop_condition=stop_condition,
        on_failure=on_failure,
    )


def _event_stream(
    specs: List[ScenarioSpec],
    *,
    jobs: int,
    cache: Optional[ResultCache],
    executor: str,
    workers: Optional[int],
    db: Optional[Union[str, Path]],
    broker: Optional[str],
    lease_timeout: Optional[float],
    token: CancelToken,
    stop_condition: Optional[StopCondition],
    on_failure: str,
) -> Iterator[SweepEvent]:
    """The generator behind :func:`stream_specs` (options pre-validated)."""
    started = time.perf_counter()
    sweep_id = new_sweep_id()

    def clock() -> float:
        return time.perf_counter() - started

    def stamp(event: SweepEvent) -> SweepEvent:
        """Correlate one event with this sweep (backends never set the id)."""
        if getattr(event, "sweep_id", None) is None:
            return replace(event, sweep_id=sweep_id)
        return event

    executed = 0
    cache_hits = 0
    failures = 0
    stopped = False

    def note(event: SweepEvent) -> None:
        """Evaluate the stop condition against one delivered event."""
        nonlocal stopped
        if stop_condition is not None and not stopped and stop_condition(event):
            stopped = True
            token.cancel()

    event: SweepEvent = SweepStarted(
        total=len(specs), executor=executor, elapsed_s=clock(), sweep_id=sweep_id
    )
    yield event
    note(event)

    pending_by_fp: Dict[str, List[int]] = {}
    for index, spec in enumerate(specs):
        if token.cancelled():
            break
        fingerprint = spec.fingerprint()
        cached = cache.get(fingerprint) if cache is not None else None
        if cached is not None:
            cache_hits += 1
            _SWEEP_SCENARIOS.labels(outcome="cache_hit").inc()
            event = ScenarioCacheHit(
                fingerprint=fingerprint,
                index=index,
                result=cached,
                elapsed_s=clock(),
                sweep_id=sweep_id,
            )
        else:
            pending_by_fp.setdefault(fingerprint, []).append(index)
            event = ScenarioQueued(
                fingerprint=fingerprint, index=index, elapsed_s=clock(), sweep_id=sweep_id
            )
        yield event
        note(event)

    if pending_by_fp and not token.cancelled():
        todo = [
            (fingerprint, specs[indices[0]], indices[0])
            for fingerprint, indices in pending_by_fp.items()
        ]
        backend = _open_backend(
            todo,
            jobs=jobs,
            executor=executor,
            workers=workers,
            db=db,
            broker=broker,
            lease_timeout=lease_timeout,
            token=token,
            on_failure=on_failure,
            clock=clock,
            span={"sweep_id": sweep_id},
        )
        try:
            for event in backend:
                if isinstance(event, ScenarioCompleted):
                    executed += 1
                    _SWEEP_SCENARIOS.labels(outcome="executed").inc()
                    # Cache each result the moment it exists, so work
                    # already done survives a later failure or cancel.
                    if cache is not None and event.result is not None:
                        cache.put(event.result)
                elif isinstance(event, ScenarioCacheHit):
                    # Served by the queue's result store: paid for by an
                    # earlier run, so a cache hit rather than an execution.
                    cache_hits += 1
                    _SWEEP_SCENARIOS.labels(outcome="cache_hit").inc()
                    if cache is not None and event.result is not None:
                        cache.put(event.result)
                elif isinstance(event, ScenarioFailed):
                    failures += 1
                    _SWEEP_SCENARIOS.labels(outcome="failed").inc()
                yield stamp(event)
                note(event)
        finally:
            backend.close()

    elapsed = clock()
    if elapsed > 0:
        _SWEEP_RATE.set((executed + cache_hits) / elapsed)
    if specs:
        _SWEEP_HIT_RATIO.set(cache_hits / len(specs))
    yield SweepFinished(
        total=len(specs),
        executed=executed,
        cache_hits=cache_hits,
        failures=failures,
        cancelled=token.cancelled() and not stopped,
        stopped=stopped,
        elapsed_s=elapsed,
        sweep_id=sweep_id,
    )


def _open_backend(
    todo: List[Tuple[str, ScenarioSpec, int]],
    *,
    jobs: int,
    executor: str,
    workers: Optional[int],
    db: Optional[Union[str, Path]],
    broker: Optional[str],
    lease_timeout: Optional[float],
    token: CancelToken,
    on_failure: str,
    clock: Callable[[], float],
    span: Optional[Dict[str, Any]] = None,
) -> Iterator[SweepEvent]:
    """The per-backend event generator for the deduplicated work list."""
    if executor == "distributed":
        # Imported lazily: repro.distributed depends on repro.api.
        from repro.distributed import executor as _distributed

        if broker is not None and not str(broker).startswith("shards:"):
            # None means "the service's attached fleets do the work".
            fleet = workers
        else:
            # A local db — or a shard federation, which has no implicit
            # attached fleet — defaults to a local worker pool.
            fleet = workers if workers is not None else (jobs if jobs > 1 else 3)
        policy = None
        if lease_timeout is not None:
            from repro.distributed import LeasePolicy

            policy = LeasePolicy(
                timeout=lease_timeout, heartbeat_interval=lease_timeout / 4.0
            )
        return _distributed.execute_stream(
            todo,
            workers=fleet,
            db=db,
            broker=broker,
            policy=policy,
            cancel=token,
            on_failure=on_failure,
            clock=clock,
            span=span,
        )
    pool_workers = workers if workers is not None else jobs
    if executor == "pool" and pool_workers > 1 and len(todo) > 1:
        return _stream_pool(todo, pool_workers, token, on_failure, clock)
    return _stream_inline(todo, token, on_failure, clock)


def _stream_inline(
    todo: Sequence[Tuple[str, ScenarioSpec, int]],
    token: CancelToken,
    on_failure: str,
    clock: Callable[[], float],
) -> Iterator[SweepEvent]:
    """Execute scenarios in this process, one event pair at a time."""
    for fingerprint, spec, index in todo:
        if token.cancelled():
            return
        yield ScenarioStarted(fingerprint=fingerprint, index=index, elapsed_s=clock())
        try:
            outcome = execute(spec)
        except Exception as error:
            yield ScenarioFailed(
                fingerprint=fingerprint,
                index=index,
                error=f"{type(error).__name__}: {error}",
                elapsed_s=clock(),
            )
            if on_failure == "raise":
                raise
            continue
        yield ScenarioCompleted(
            fingerprint=fingerprint, index=index, result=outcome, elapsed_s=clock()
        )


def _stream_pool(
    todo: Sequence[Tuple[str, ScenarioSpec, int]],
    pool_workers: int,
    token: CancelToken,
    on_failure: str,
    clock: Callable[[], float],
) -> Iterator[SweepEvent]:
    """Fan scenarios over a process pool in chunks, yielding as chunks finish.

    The batch is cut into consecutive chunks of
    ``ceil(n / (workers * _CHUNKS_PER_WORKER))`` live specs, one future
    per chunk; a batch of at most ``workers * _CHUNKS_PER_WORKER``
    scenarios therefore still gets one future per scenario.  When a chunk
    finishes, its scenarios' events are yielded in chunk order, so
    completion events arrive per chunk.  Cancelling withdraws the queued
    chunks and harvests the dispatched ones: one running per worker plus
    up to ``workers + 1`` in the executor's call queue, which
    ``Future.cancel`` cannot withdraw.  Scenarios a worker could not
    resolve, and those left over when the pool breaks, run inline
    afterwards.
    """
    workers = min(pool_workers, len(todo))
    size = -(-len(todo) // (workers * _CHUNKS_PER_WORKER))
    chunks = [todo[start : start + size] for start in range(0, len(todo), size)]
    settled: set = set()  # fingerprints completed or failed via the pool
    try:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            try:
                # No ScenarioStarted here: a process pool does not expose
                # when a queued task actually begins, and stamping all N
                # at submission time would fake per-scenario latency.
                # ScenarioResult.wall_time_s (measured in the child)
                # carries the true execution time of each completion.
                futures = {
                    pool.submit(_execute_spec_chunk, [spec for _, spec, _ in chunk]): chunk
                    for chunk in chunks
                }
                outstanding = set(futures)
                draining = False
                while outstanding:
                    if token.cancelled() and not draining:
                        # Withdraw the queued futures (Future.cancel is
                        # synchronous and race-free, unlike shutting the
                        # executor down mid-wait) but harvest what is
                        # already running: those scenarios cost real
                        # compute and are seconds from finishing —
                        # discarding them would force the follow-up run
                        # to pay for them again.
                        draining = True
                        for future in outstanding:
                            future.cancel()
                    finished, outstanding = concurrent.futures.wait(
                        outstanding,
                        timeout=0.1,
                        return_when=concurrent.futures.FIRST_COMPLETED,
                    )
                    for future in finished:
                        if future.cancelled():
                            continue
                        chunk = futures[future]
                        try:
                            outcomes = future.result()
                        except concurrent.futures.process.BrokenProcessPool:
                            raise
                        except Exception as error:
                            # The chunk itself failed to cross the process
                            # boundary: every scenario in it failed.
                            outcomes = [error] * len(chunk)
                        for (fingerprint, _, index), outcome in zip(chunk, outcomes):
                            if outcome is None:
                                continue  # a parent-only plugin: run inline below
                            settled.add(fingerprint)
                            if isinstance(outcome, Exception):
                                yield ScenarioFailed(
                                    fingerprint=fingerprint,
                                    index=index,
                                    error=f"{type(outcome).__name__}: {outcome}",
                                    elapsed_s=clock(),
                                )
                                if on_failure == "raise":
                                    raise outcome
                                continue
                            yield ScenarioCompleted(
                                fingerprint=fingerprint,
                                index=index,
                                result=outcome,
                                elapsed_s=clock(),
                            )
            except (GeneratorExit, KeyboardInterrupt):
                # The consumer bailed (Ctrl-C, early break): do not sit in
                # the pool's __exit__ waiting for scenarios nobody wants.
                pool.shutdown(wait=False, cancel_futures=True)
                raise
    except concurrent.futures.process.BrokenProcessPool:
        pass  # completed scenarios are already streamed; the rest run inline
    leftovers = [item for item in todo if item[0] not in settled]
    yield from _stream_inline(leftovers, token, on_failure, clock)


def run_specs(
    specs: Sequence[ScenarioSpec],
    *,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    executor: Optional[str] = None,
    workers: Optional[int] = None,
    db: Optional[Union[str, Path]] = None,
    broker: Optional[str] = None,
    lease_timeout: Optional[float] = None,
    on_event: Optional[Callable[[SweepEvent], None]] = None,
    cancel: Optional[CancelToken] = None,
    stop: Union[None, str, StopCondition] = None,
    on_failure: str = "raise",
) -> SweepResult:
    """Run a batch of scenarios, deduplicated by fingerprint.

    A thin consumer of :func:`stream_specs`: it drains the event stream,
    fans results back out to duplicate fingerprints and assembles a
    :class:`SweepResult` — byte-identical (minus wall time) to what the
    pre-streaming implementation returned, on every backend.

    Parameters
    ----------
    specs:
        Scenarios to run; results come back in the same order.
    jobs:
        Worker processes.  ``1`` runs inline (no pickling); ``>1`` fans
        the uncached scenarios out over a process pool.
    cache:
        Optional :class:`ResultCache` (or any object with the same
        ``get``/``put`` surface, e.g.
        :class:`repro.distributed.SqliteResultStore`) consulted before
        executing and updated afterwards.
    executor:
        Backend: ``"inline"``, ``"pool"`` or ``"distributed"``.  ``None``
        follows :func:`set_default_executor` (and a ``broker`` URL
        implies ``"distributed"``), falling back to ``"pool"`` when
        ``jobs > 1`` and ``"inline"`` otherwise.
    workers:
        Worker count for the pool/distributed backends (defaults to
        ``jobs``, or 3 for ``"distributed"`` when ``jobs`` is 1).  With a
        ``broker`` URL the default is *no* local workers — the fleets
        attached to the service do the work; pass a count to also spawn
        a local fleet speaking HTTP.
    db:
        Queue database path for the distributed backend (``"queue.sqlite"``
        or ``"sqlite:queue.sqlite"``).  ``None`` uses a throwaway per-run
        database; pass a real path to make the queue durable — scenarios
        already in its result store are *not* re-executed (they count as
        cache hits).
    broker:
        ``http(s)://host:port`` URL of a ``chronos-experiments serve``
        sweep service.  Mutually exclusive with ``db``: the service owns
        the queue database, and this process (plus any worker fleets
        pointed at the same URL, on any host) talks to it over HTTP.
    lease_timeout:
        Seconds a distributed worker's task lease survives without a
        heartbeat before the task is requeued (default 30).  With a
        ``broker`` URL the server's policy governs actual lease expiry.
    on_event:
        Callback fed every :class:`~repro.api.events.SweepEvent` as it
        happens (progress bars, logging, metrics).  ``None`` falls back
        to :func:`set_default_on_event`.
    cancel:
        A :class:`CancelToken`; tripping it — like pressing Ctrl-C —
        returns a *partial* result (``cancelled=True``) whose
        ``pending`` partition lists the unfinished specs, with queue
        tasks and leases released so a follow-up run completes exactly
        the remainder.
    stop:
        Early-stopping condition (callable or registered name); see
        :func:`stream_specs`.  A tripped condition returns a partial
        result with ``stopped=True``.
    on_failure:
        ``"raise"`` (default) propagates the first scenario error;
        ``"continue"`` records failures and keeps sweeping.
    """
    if on_event is None:
        on_event = _default_on_event
    started = time.perf_counter()
    specs = list(specs)
    stream = stream_specs(
        specs,
        jobs=jobs,
        cache=cache,
        executor=executor,
        workers=workers,
        db=db,
        broker=broker,
        lease_timeout=lease_timeout,
        cancel=cancel,
        stop=stop,
        on_failure=on_failure,
    )
    results: Dict[int, ScenarioResult] = {}
    queued: Dict[str, List[int]] = {}
    executed = 0
    cache_hits = 0
    failures = 0
    finished: Optional[SweepFinished] = None
    interrupted = False
    try:
        for event in stream:
            # Record before notifying: if Ctrl-C lands while the callback
            # runs (or in reaction to what it printed), the completion the
            # callback announced is already part of the partial result.
            if isinstance(event, ScenarioQueued):
                queued.setdefault(event.fingerprint, []).append(event.index)
            elif isinstance(event, ScenarioCacheHit):
                cache_hits += 1
                for index in queued.get(event.fingerprint, (event.index,)):
                    results[index] = event.result
            elif isinstance(event, ScenarioCompleted):
                executed += 1
                for index in queued.get(event.fingerprint, (event.index,)):
                    results[index] = event.result
            elif isinstance(event, ScenarioFailed):
                failures += 1
            elif isinstance(event, SweepFinished):
                finished = event
            if on_event is not None:
                on_event(event)
    except KeyboardInterrupt:
        # Ctrl-C mid-sweep: closing the stream (below) terminates pools,
        # releases unclaimed tasks and drains leases; the work that did
        # finish is returned as a partial result instead of being lost.
        interrupted = True
    finally:
        stream.close()

    cancelled = interrupted or bool(finished and finished.cancelled)
    if not cancelled and finished is None and cancel is not None:
        cancelled = cancel.cancelled()
    return SweepResult(
        results=tuple(results[index] for index in sorted(results)),
        executed=executed,
        cache_hits=cache_hits,
        wall_time_s=(
            finished.elapsed_s if finished is not None else time.perf_counter() - started
        ),
        pending=tuple(specs[index] for index in range(len(specs)) if index not in results),
        failures=failures,
        cancelled=cancelled,
        stopped=bool(finished and finished.stopped),
    )


class Sweep:
    """A batch of scenarios derived from one base spec.

    Construct either with an explicit list of override mappings (dotted
    paths, see :meth:`ScenarioSpec.with_overrides`) or with
    :meth:`Sweep.grid`, which expands the cartesian product of the given
    axes.  All scenarios are validated eagerly, so a typo in any override
    fails fast — before anything is simulated.
    """

    def __init__(
        self,
        base: ScenarioSpec,
        overrides: Optional[Sequence[Mapping[str, Any]]] = None,
    ):
        if not _is_sweepable_spec(base):
            raise SpecValidationError(
                "base",
                f"expected ScenarioSpec or ClusterSpec, got {type(base).__name__}",
            )
        self._base = base
        cleaned = []
        for index, override in enumerate(overrides if overrides is not None else [{}]):
            if not isinstance(override, Mapping):
                raise SpecValidationError(
                    f"overrides[{index}]",
                    f"must be a mapping of dotted paths to values, got {type(override).__name__}",
                )
            cleaned.append(dict(override))
        self._overrides: Tuple[Dict[str, Any], ...] = tuple(cleaned) or ({},)
        self._specs = tuple(base.with_overrides(override) for override in self._overrides)

    @staticmethod
    def grid_overrides(axes: Mapping[str, Sequence[Any]]) -> List[Dict[str, Any]]:
        """Expand grid axes into override mappings without building specs."""
        if not isinstance(axes, Mapping):
            raise SpecValidationError(
                "grid", f"must be a mapping of dotted paths to value lists, got {type(axes).__name__}"
            )
        for key, values in axes.items():
            if isinstance(values, (str, bytes)) or not isinstance(values, Sequence) or not values:
                raise SpecValidationError(
                    str(key), "grid axis must be a non-empty sequence of values"
                )
        keys = list(axes)
        return [
            dict(zip(keys, combo)) for combo in itertools.product(*(axes[key] for key in keys))
        ]

    @classmethod
    def grid(cls, base: ScenarioSpec, axes: Mapping[str, Sequence[Any]]) -> "Sweep":
        """Cartesian-product sweep over dotted-path axes.

        ``Sweep.grid(base, {"strategy": [...], "seed": [0, 1]})`` yields
        one scenario per combination, in row-major (last axis fastest)
        order.
        """
        return cls(base, cls.grid_overrides(axes))

    @property
    def base(self) -> ScenarioSpec:
        """The spec the overrides are applied to."""
        return self._base

    @property
    def overrides(self) -> Tuple[Dict[str, Any], ...]:
        """The override mapping of each scenario, in order."""
        return self._overrides

    @property
    def specs(self) -> Tuple[ScenarioSpec, ...]:
        """The expanded scenario specs, in order."""
        return self._specs

    def __len__(self) -> int:
        """Number of scenarios in the sweep."""
        return len(self._specs)

    def run(
        self,
        *,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        executor: Optional[str] = None,
        workers: Optional[int] = None,
        db: Optional[Union[str, Path]] = None,
        broker: Optional[str] = None,
        lease_timeout: Optional[float] = None,
        on_event: Optional[Callable[[SweepEvent], None]] = None,
        cancel: Optional[CancelToken] = None,
        stop: Union[None, str, StopCondition] = None,
        on_failure: str = "raise",
    ) -> SweepResult:
        """Execute the sweep (see :func:`run_specs`)."""
        return run_specs(
            self._specs,
            jobs=jobs,
            cache=cache,
            executor=executor,
            workers=workers,
            db=db,
            broker=broker,
            lease_timeout=lease_timeout,
            on_event=on_event,
            cancel=cancel,
            stop=stop,
            on_failure=on_failure,
        )

    def stream(
        self,
        *,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        executor: Optional[str] = None,
        workers: Optional[int] = None,
        db: Optional[Union[str, Path]] = None,
        broker: Optional[str] = None,
        lease_timeout: Optional[float] = None,
        cancel: Optional[CancelToken] = None,
        stop: Union[None, str, StopCondition] = None,
        on_failure: str = "raise",
    ) -> Iterator[SweepEvent]:
        """Execute the sweep as an event stream (see :func:`stream_specs`)."""
        return stream_specs(
            self._specs,
            jobs=jobs,
            cache=cache,
            executor=executor,
            workers=workers,
            db=db,
            broker=broker,
            lease_timeout=lease_timeout,
            cancel=cancel,
            stop=stop,
            on_failure=on_failure,
        )
