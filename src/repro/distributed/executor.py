"""The distributed sweep driver: enqueue, supervise, stream, collect.

:func:`execute_stream` is the backend behind ``run_specs(...,
executor="distributed")`` and ``Sweep.stream``.  It enqueues the
uncached scenarios on a queue *target* — a sqlite database path, or the
``http(s)://`` URL of a :mod:`repro.service` broker front-end — spins up
a :class:`~repro.distributed.worker.WorkerPool` (unless the caller
relies on remote fleets already attached to the service) and supervises
the run: sweeping expired leases, fast-releasing the leases of workers
the parent reaps, and falling back to executing the remainder inline if
the pool dies or the queue stalls (nothing leased and nothing completed
for a lease timeout: no fleet attached to a remote queue, or local
workers alive but stuck), so a sweep never deadlocks.

Progress is *observed*, not polled per result: every queue transition
(claim, completion, failure, lease requeue) is appended to the broker's
monotonic event log, and the driver tails that log — locally via
:meth:`~repro.distributed.broker.Broker.events_since`, remotely via the
service's ``events_since`` RPC — translating queue events into the
:mod:`repro.api.events` vocabulary as they land.  Completed results come
back from the shared result store, one ``get_many`` read per batch of
log rows, which also makes an identical re-run
a pure store read with zero executions.

Cancellation (a tripped :class:`~repro.api.sweep.CancelToken`, or the
consumer closing the stream on Ctrl-C) is cooperative and clean: the
local pool is terminated and its leases drained, and — on a locally
owned queue database — tasks nobody claimed yet are withdrawn, so a
follow-up run completes exactly the remaining scenarios.  A shared
``broker`` URL's pending tasks are deliberately left in place: the
queue is content-addressed infrastructure other sweeps and attached
fleets may be counting on, and leftovers simply land in the result
store.
"""

from __future__ import annotations

import shutil
import tempfile
import time
import warnings
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.api.events import (
    ScenarioCacheHit,
    ScenarioCompleted,
    ScenarioFailed,
    ScenarioRetried,
    ScenarioStarted,
    SweepEvent,
)
from repro.api.facade import ScenarioResult, spec_from_dict
from repro.api.facade import execute as execute_spec
from repro.api.spec import ScenarioSpec
from repro.distributed.broker import TaskFailedError
from repro.distributed.leases import LeasePolicy
from repro.distributed.targets import (
    is_federation_target,
    is_service_url,
    open_broker,
    open_store,
)
from repro.distributed.worker import WorkerConfig, WorkerPool

#: Seconds between supervision passes while workers run.
SUPERVISE_INTERVAL = 0.05

#: Supervision interval against an HTTP broker: each pass costs a few
#: RPCs through the service's single lock (one of them a write
#: transaction), so polling 20x/sec would tax the server for nothing
#: more than faster end-of-sweep detection.
REMOTE_SUPERVISE_INTERVAL = 0.25

#: Queue-log rows fetched per ``events_since`` batch while supervising.
EVENT_BATCH = 500

#: Consecutive ``events_since`` failures tolerated (transient transport
#: blips ride through on the store-polling fallback) before event tailing
#: is disabled for the rest of the sweep — with a warning, never silently.
TAIL_FAILURE_LIMIT = 3


def default_db_path() -> Path:
    """A fresh throwaway queue database (per-call temp directory)."""
    return Path(tempfile.mkdtemp(prefix="chronos-queue-")) / "queue.sqlite"


def execute_stream(
    todo: Sequence[Tuple[str, ScenarioSpec, int]],
    *,
    workers: Optional[int] = 3,
    db: Optional[Union[str, Path]] = None,
    broker: Optional[str] = None,
    policy: Optional[LeasePolicy] = None,
    cancel=None,
    on_failure: str = "raise",
    clock: Optional[Callable[[], float]] = None,
    span: Optional[Dict[str, Any]] = None,
) -> Iterator[SweepEvent]:
    """Run ``(fingerprint, spec, index)`` triples across a worker fleet.

    Yields :mod:`repro.api.events` events in observation order: a
    :class:`ScenarioCacheHit` for every scenario already in the result
    store (work a previous run paid for), then per-scenario
    ``ScenarioStarted`` / ``ScenarioRetried`` / ``ScenarioCompleted``
    events tailed from the broker's event log as workers make progress.
    ``index`` rides through untouched, so the sweep layer's positions
    arrive intact on the far side.

    Exactly one queue target applies: ``db`` (sqlite path; ``None`` means
    a throwaway per-run database) or ``broker`` (service URL).  With a
    ``broker`` URL, ``workers=None`` spawns *no* local pool — the fleets
    already attached to the service do the work, which is the multi-host
    topology; a positive ``workers`` spawns a local fleet speaking HTTP,
    which composes with remote fleets.  If the queue makes no progress
    for a full lease timeout — a fleetless remote queue, or a local pool
    whose workers are alive but stuck — the parent terminates the local
    pool and drains the queue inline, so the sweep still completes —
    announced by ``ScenarioRetried`` events and a :class:`RuntimeWarning`
    rather than happening silently.

    Tasks whose workers crash are requeued by lease expiry (or
    immediately, when the parent reaps the dead process) with bounded
    attempts; tasks that *fail* (the scenario itself raised) are retried
    once inline in the parent — which also covers plugins registered only
    in the parent process under ``spawn`` start methods — and raise
    :class:`TaskFailedError` only if the inline retry fails too (with
    ``on_failure="continue"`` the stream records the failure and keeps
    going instead).

    ``cancel`` is a :class:`~repro.api.sweep.CancelToken` checked every
    supervision pass; tripping it (or closing the generator) terminates
    the local pool and drains its leases before the stream ends.  On a
    local ``db`` target the run's unclaimed tasks are also withdrawn
    from the queue; on a shared ``broker`` URL they are left for the
    attached fleets (and any concurrent sweeps) to finish.
    """
    if broker is not None and db is not None:
        raise ValueError("pass either db (sqlite path) or broker (service URL), not both")
    if broker is not None and not (is_service_url(broker) or is_federation_target(broker)):
        raise ValueError(
            f"broker must be an http(s):// service URL or a 'shards:' federation "
            f"spec, got {broker!r}"
        )
    if on_failure not in ("raise", "continue"):
        raise ValueError(f"on_failure must be 'raise' or 'continue', got {on_failure!r}")
    remote = broker is not None
    throwaway = db is None and not remote
    target = str(broker) if remote else str(db if db is not None else default_db_path())
    policy = policy if policy is not None else LeasePolicy()
    if workers is None:
        workers = 0 if remote else 3
    if workers < 0 or (workers == 0 and not remote):
        raise ValueError("workers must be positive (or None with a broker URL)")
    if clock is None:
        origin = time.perf_counter()

        def clock() -> float:
            return time.perf_counter() - origin

    return _stream(
        list(todo),
        target=target,
        remote=remote,
        throwaway=throwaway,
        workers=workers,
        policy=policy,
        cancel=cancel,
        on_failure=on_failure,
        clock=clock,
        span=span,
    )


def _stream(
    todo: List[Tuple[str, ScenarioSpec, int]],
    *,
    target: str,
    remote: bool,
    throwaway: bool,
    workers: int,
    policy: LeasePolicy,
    cancel,
    on_failure: str,
    clock: Callable[[], float],
    span: Optional[Dict[str, Any]] = None,
) -> Iterator[SweepEvent]:
    """The generator behind :func:`execute_stream` (inputs validated)."""

    def cancelled() -> bool:
        return cancel is not None and cancel.cancelled()

    broker_client = open_broker(target, policy=policy)
    store = open_store(target)
    collected: Set[str] = set()
    position_of: Dict[str, int] = {}
    pool: Optional[WorkerPool] = None
    try:
        # One fingerprint-set query up front instead of a point read per
        # scenario: over HTTP that is one round trip, and on sqlite it
        # keeps re-run short-circuiting O(stored) rather than O(todo).
        known = store.fingerprints()
        stored_results = store.get_many(
            [fingerprint for fingerprint, _, _ in todo if fingerprint in known]
        )
        pending: List[Tuple[str, ScenarioSpec, int]] = []
        for fingerprint, spec, index in todo:
            stored = stored_results.get(fingerprint)
            if stored is not None:
                yield ScenarioCacheHit(
                    fingerprint=fingerprint, index=index, result=stored, elapsed_s=clock()
                )
            else:
                pending.append((fingerprint, spec, index))
        if not pending or cancelled():
            return

        # Remember where the queue log stands *before* we enqueue, so the
        # tail below replays every transition of this run and none of an
        # earlier one.  Older brokers/services without an event log fall
        # back to polling the result store for completions (a version
        # mismatch, not a fault — no warning for that).
        events_supported = True
        tail_failures = 0
        try:
            since = broker_client.last_event_seq()
        except Exception as error:
            if _is_auth_error(error):
                raise
            events_supported = False
            since = 0

        broker_client.enqueue(
            [spec.to_dict() for _, spec, _ in pending],
            [fingerprint for fingerprint, _, _ in pending],
            span=span,
        )
        position_of.update({fingerprint: index for fingerprint, _, index in pending})

        def tail_log() -> Iterator[SweepEvent]:
            """Translate fresh queue-log rows into sweep events."""
            nonlocal since, events_supported, tail_failures
            if not events_supported:
                yield from collect_from_store()
                return
            while True:
                try:
                    batch = broker_client.events_since(since, limit=EVENT_BATCH)
                except Exception as error:
                    if _is_auth_error(error):
                        raise
                    # One transport blip must not silently kill live
                    # progress for the rest of the sweep: ride it out on
                    # the store fallback and retry next pass; only a
                    # persistent failure disables tailing, and loudly.
                    tail_failures += 1
                    if tail_failures >= TAIL_FAILURE_LIMIT:
                        events_supported = False
                        warnings.warn(
                            f"disabling sweep event tailing after "
                            f"{tail_failures} consecutive events_since "
                            f"failures ({error}); progress degrades to "
                            "result-store polling",
                            RuntimeWarning,
                            stacklevel=2,
                        )
                    yield from collect_from_store()
                    return
                tail_failures = 0
                # One store read for every result this batch announces.
                announced = {
                    row.get("fingerprint") for row in batch if row.get("kind") == "completed"
                }
                results = store.get_many((announced & position_of.keys()) - collected)
                for row in batch:
                    since = max(since, int(row["seq"]))
                    fingerprint = row.get("fingerprint")
                    index = position_of.get(fingerprint)
                    if index is None:
                        continue  # another run's task sharing the queue
                    kind = row.get("kind")
                    if kind == "started":
                        yield ScenarioStarted(
                            fingerprint=fingerprint,
                            index=index,
                            worker_id=row.get("worker_id"),
                            elapsed_s=clock(),
                        )
                    elif kind == "retried":
                        yield ScenarioRetried(
                            fingerprint=fingerprint,
                            index=index,
                            reason=row.get("detail") or "lease expired; task requeued",
                            worker_id=row.get("worker_id"),
                            elapsed_s=clock(),
                        )
                    elif kind == "failed" and fingerprint not in collected:
                        # Terminal in the queue, but the parent retries it
                        # inline after the fleet settles — announce that.
                        yield ScenarioRetried(
                            fingerprint=fingerprint,
                            index=index,
                            reason=(
                                f"{row.get('detail') or 'task failed'};"
                                " will retry inline in the parent"
                            ),
                            worker_id=row.get("worker_id"),
                            elapsed_s=clock(),
                        )
                    elif kind == "completed" and fingerprint not in collected:
                        result = results.get(fingerprint)
                        if result is not None:
                            collected.add(fingerprint)
                            yield ScenarioCompleted(
                                fingerprint=fingerprint,
                                index=index,
                                result=result,
                                worker_id=row.get("worker_id"),
                                elapsed_s=clock(),
                            )
                if len(batch) < EVENT_BATCH:
                    return

        def collect_from_store() -> Iterator[SweepEvent]:
            """Event-log-free fallback: diff the result store's contents."""
            fresh = (store.fingerprints() & position_of.keys()) - collected
            for fingerprint, result in store.get_many(fresh).items():
                collected.add(fingerprint)
                yield ScenarioCompleted(
                    fingerprint=fingerprint,
                    index=position_of[fingerprint],
                    result=result,
                    elapsed_s=clock(),
                )

        def remaining() -> List[str]:
            return [fingerprint for fingerprint in position_of if fingerprint not in collected]

        def release_on_cancel() -> None:
            # On a *local* queue this driver is the producer, so unclaimed
            # tasks are withdrawn outright.  A broker URL is shared
            # infrastructure: another sweep may be waiting on the same
            # content-addressed fingerprints and attached fleets will land
            # leftovers in the result store anyway, so pending tasks are
            # left for them rather than deleted out from under anyone.
            _release_unfinished(
                broker_client, pool, [] if remote else remaining()
            )

        config = WorkerConfig(policy=policy, exit_when_idle=True)
        if workers > 0:
            pool = WorkerPool(target, workers=min(workers, len(pending)), config=config)

        supervise_interval = REMOTE_SUPERVISE_INTERVAL if remote else SUPERVISE_INTERVAL
        last_done = -1
        last_progress = time.monotonic()
        drained_inline = False
        try:
            if pool is not None:
                pool.start()
            while not broker_client.settled():
                if cancelled():
                    release_on_cancel()
                    return
                broker_client.requeue_expired()
                if pool is not None:
                    pool.supervise(broker_client)
                yield from tail_log()
                # Stall guard: if nothing is leased and nothing completes for
                # a full lease timeout, no worker is making progress — no
                # fleet attached to a remote queue, or local workers alive
                # but stuck (e.g. forked while the parent held an sqlite
                # lock).  A local pool that died outright needs no wait.
                # Either way the remainder is drained inline rather than
                # hanging the sweep forever.
                counts = broker_client.counts()
                if counts["leased"] > 0 or counts["done"] != last_done:
                    last_done = counts["done"]
                    last_progress = time.monotonic()
                unsettled = counts["pending"] > 0 or counts["leased"] > 0
                stall = None
                if unsettled and pool is not None and pool.alive_count() == 0:
                    stall = "local worker pool died"
                elif unsettled and time.monotonic() - last_progress > policy.timeout:
                    stall = (
                        "local workers made no progress"
                        if pool is not None
                        else f"no worker fleet attached to {target}"
                    )
                if stall is not None:
                    yield from _announce_inline_drain(stall, remaining(), position_of, clock)
                    if pool is not None:
                        pool.terminate()
                        pool.reap(broker_client)
                    yield from _drain_inline(broker_client, cancel, tail_log)
                    drained_inline = True
                    break
                time.sleep(supervise_interval)
            if pool is not None and not drained_inline:
                pool.join(timeout=policy.timeout)
        except (GeneratorExit, KeyboardInterrupt):
            # The consumer closed the stream mid-run (early break, tripped
            # stop condition), or Ctrl-C landed inside this frame: either
            # way, leave the queue consistent before unwinding.
            release_on_cancel()
            raise
        finally:
            if pool is not None:
                pool.terminate()
        yield from tail_log()
        # Safety net: anything completed without a visible log transition
        # (e.g. a mixed-version service) is still collected by store diff.
        yield from collect_from_store()
        if cancelled():
            release_on_cancel()
            return

        # Failed tasks get one inline retry in the parent: it sees plugins
        # the workers may not (spawn start method), and a genuine scenario
        # error surfaces here exactly like the inline executor's would.
        for fingerprint, payload, error in broker_client.failed_payloads():
            index = position_of.get(fingerprint)
            if index is None or fingerprint in collected:
                continue
            if cancelled():
                release_on_cancel()
                return
            yield ScenarioRetried(
                fingerprint=fingerprint,
                index=index,
                reason=f"{error}; retrying inline in the parent",
                elapsed_s=clock(),
            )
            try:
                result = execute_spec(spec_from_dict(payload))
            except Exception as retry_error:
                yield ScenarioFailed(
                    fingerprint=fingerprint,
                    index=index,
                    error=f"{error}; inline retry: {retry_error}",
                    elapsed_s=clock(),
                )
                if on_failure == "raise":
                    raise TaskFailedError(
                        fingerprint, f"{error}; inline retry: {retry_error}"
                    ) from retry_error
                continue
            broker_client.complete(fingerprint, "parent-inline", result.to_dict())
            collected.add(fingerprint)
            yield ScenarioCompleted(
                fingerprint=fingerprint,
                index=index,
                result=result,
                worker_id="parent-inline",
                elapsed_s=clock(),
            )
    finally:
        store.close()
        broker_client.close()
        if throwaway:
            # We minted the temp queue; its durability has no value past
            # this call, so do not litter the temp dir with WAL files.
            shutil.rmtree(Path(target).parent, ignore_errors=True)


def execute(
    todo: Sequence[Tuple[str, ScenarioSpec]],
    commit: Callable[[int, ScenarioResult], None],
    *,
    workers: Optional[int] = 3,
    db: Optional[Union[str, Path]] = None,
    broker: Optional[str] = None,
    policy: Optional[LeasePolicy] = None,
) -> Tuple[Dict[int, ScenarioResult], Set[int]]:
    """Blocking wrapper over :func:`execute_stream` (the PR 2/3 surface).

    ``commit(position, result)`` is called once per finished scenario, in
    completion order.  Returns the results by position plus the set of
    positions answered straight from the result store (work a previous
    run already paid for — callers report those as cache hits, not
    executions).
    """
    done: Dict[int, ScenarioResult] = {}
    served_from_store: Set[int] = set()
    triples = [
        (fingerprint, spec, position) for position, (fingerprint, spec) in enumerate(todo)
    ]
    for event in execute_stream(
        triples, workers=workers, db=db, broker=broker, policy=policy
    ):
        if isinstance(event, ScenarioCacheHit):
            done[event.index] = event.result
            served_from_store.add(event.index)
            commit(event.index, event.result)
        elif isinstance(event, ScenarioCompleted):
            done[event.index] = event.result
            commit(event.index, event.result)
    return done, served_from_store


def _is_auth_error(error: Exception) -> bool:
    """Whether an exception is a credential rejection (never retried)."""
    try:
        from repro.service.protocol import ServiceAuthError
    except Exception:  # service layer absent/broken: treat as transient
        return False
    return isinstance(error, ServiceAuthError)


def _announce_inline_drain(
    cause: str,
    remaining: Sequence[str],
    position_of: Dict[str, int],
    clock: Callable[[], float],
) -> Iterator[SweepEvent]:
    """Make a stall fallback observable: warn once, one event per task.

    The fleetless inline-drain fallback used to be silent — a remote
    sweep that stalled simply got slower with no trace of why.  Now the
    stream carries a :class:`ScenarioRetried` per affected scenario and
    the process gets a :class:`RuntimeWarning` naming the cause.
    """
    warnings.warn(
        f"distributed sweep stalled ({cause}); draining the remaining "
        f"{len(remaining)} task(s) inline in the sweep driver",
        RuntimeWarning,
        stacklevel=2,
    )
    for fingerprint in remaining:
        yield ScenarioRetried(
            fingerprint=fingerprint,
            index=position_of[fingerprint],
            reason=f"{cause}; draining inline in the sweep driver",
            elapsed_s=clock(),
        )


def _release_unfinished(broker_client, pool: Optional[WorkerPool], remaining: List[str]) -> None:
    """Cancellation cleanup: drain local leases, release unclaimed tasks.

    Best effort by design — cancellation must never raise over a half-
    reachable broker; anything missed here is healed by lease expiry and
    the content-addressed re-enqueue of a follow-up run.
    """
    if pool is not None:
        pool.terminate()
        for worker_id in list(pool.worker_ids):
            try:
                broker_client.release_worker(worker_id)
            except Exception:
                pass
    if remaining:
        try:
            broker_client.release_pending(remaining)
        except Exception:
            pass


def _drain_inline(broker, cancel, tail_log) -> Iterator[SweepEvent]:
    """Claim-and-run the remaining queue in the current process.

    Interleaves a log tail after every task so the stream keeps moving
    while the parent does the work itself.
    """
    worker_id = "parent-inline"
    broker.register_worker(worker_id)
    while True:
        if cancel is not None and cancel.cancelled():
            return
        task = broker.claim(worker_id)
        if task is None:
            yield from tail_log()
            if broker.settled():
                return
            # Only expired-in-the-future leases remain; wait them out.
            time.sleep(SUPERVISE_INTERVAL)
            continue
        try:
            result = execute_spec(spec_from_dict(task.payload))
        except Exception as error:
            broker.fail(task.fingerprint, worker_id, f"{type(error).__name__}: {error}")
        else:
            broker.complete(task.fingerprint, worker_id, result.to_dict())
        yield from tail_log()
