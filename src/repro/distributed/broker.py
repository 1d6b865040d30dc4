"""The broker: a durable, lease-based work queue over sqlite.

The broker owns the ``tasks`` table of a queue database (see
:mod:`repro.distributed.store`).  Producers :meth:`enqueue` scenario
specs (deduplicated by fingerprint — the queue is content-addressed just
like the result store); workers :meth:`claim_many` a batch of tasks under
a :class:`~repro.distributed.leases.LeasePolicy`, renew via
:meth:`heartbeat`, and finish with :meth:`complete_many` (one
transaction for a batch of results) or, per task, :meth:`fail`.

Crash safety comes from leases rather than connections: a worker that
dies mid-task simply stops heartbeating, and the next
:meth:`requeue_expired` (run opportunistically by every idle worker and
by the supervising parent) puts the task back on the queue.  Attempts are
counted at claim time, so a task that keeps killing its workers is
eventually marked ``failed`` instead of looping forever.

Task lifecycle::

    pending --claim--> leased --complete--> done
       ^                  |        \\--fail--> failed
       |                  | lease expired, attempts left
       +------------------+        \\-- attempts exhausted --> failed

Every state transition is one sqlite transaction (``BEGIN IMMEDIATE``
where read-then-write atomicity matters), so any number of worker
processes can share the queue without double-claiming a task.

Transitions are also *observable*: each one appends a row to the
``events`` table — a monotonically-sequenced log of ``queued`` /
``started`` / ``completed`` / ``failed`` / ``retried`` / ``released``
records — which :meth:`Broker.events_since` tails.  That log is what
lets a sweep driver (or the HTTP service's ``events_since`` RPC, and
through it a dashboard on another host) stream live progress without
point-reading every task row.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro import telemetry
from repro.distributed import store as _store
from repro.distributed.leases import Lease, LeasePolicy
from repro.telemetry.spans import span_detail

#: Task states, in roughly the order of the lifecycle.
TASK_STATES = ("pending", "leased", "done", "failed")

# Broker-side instrumentation (see repro.telemetry): every queue mutation
# bumps a process-wide metric, so the process owning the database — the
# sweep service, or an inline driver — exposes live queue health.
_ENQUEUED = telemetry.counter(
    "chronos_tasks_enqueued_total", "Tasks newly enqueued (adds and failed-task resets)"
)
_CLAIMED = telemetry.counter(
    "chronos_tasks_claimed_total", "Tasks claimed by workers (lease grants)"
)
_COMPLETED = telemetry.counter(
    "chronos_tasks_completed_total", "Tasks completed with a stored result"
)
_TASK_FAILURES = telemetry.counter(
    "chronos_tasks_failed_total", "Tasks marked permanently failed"
)
_RENEWALS = telemetry.counter(
    "chronos_lease_renewals_total", "Successful heartbeat lease renewals"
)
_EXPIRIES = telemetry.counter(
    "chronos_lease_expiries_total", "Leases swept after expiring (requeued or exhausted)"
)
_APPENDS = telemetry.counter(
    "chronos_events_appended_total", "Rows appended to the broker event log"
)
_QUEUE_DEPTH = telemetry.gauge(
    "chronos_queue_depth", "Task count by queue state", labelnames=("state",)
)

#: Event-log kinds, in roughly the order they occur for one task.
EVENT_KINDS = ("queued", "started", "completed", "failed", "retried", "released")

#: Out-of-band event kinds an adaptive search mirrors into the log via
#: :meth:`Broker.record_event` (see :mod:`repro.adaptive.search`).
TRIAL_EVENT_KINDS = ("trial-proposed", "trial-pruned", "search-finished")

#: The claim query: the oldest pending tasks, FIFO by enqueue time with
#: the fingerprint as tie-break.  ``idx_tasks_claim`` (see
#: :mod:`repro.distributed.store`) serves this order directly, so a claim
#: reads ``limit`` index entries instead of sorting every pending row.
CLAIM_SQL = (
    "SELECT fingerprint, payload, attempts FROM tasks "
    "WHERE status = 'pending' ORDER BY enqueued_at, fingerprint LIMIT ?"
)


class TaskFailedError(RuntimeError):
    """A queued task failed permanently; carries the recorded error."""

    def __init__(self, fingerprint: str, error: str):
        self.fingerprint = fingerprint
        self.error = error
        super().__init__(f"task {fingerprint} failed: {error}")


@dataclass(frozen=True)
class Task:
    """One claimed unit of work: the spec payload plus its lease."""

    fingerprint: str
    payload: Dict[str, Any]
    attempts: int
    lease: Lease


@dataclass(frozen=True)
class TaskRecord:
    """A read-only snapshot of one task row (for status and tests)."""

    fingerprint: str
    status: str
    attempts: int
    max_attempts: int
    lease_owner: Optional[str]
    lease_expires_at: Optional[float]
    error: Optional[str]


class Broker:
    """Producer/consumer interface to one queue database.

    Each broker instance holds one sqlite connection and is *not* thread
    safe; create one per process (or per thread, e.g. the heartbeat
    keeper) — they coordinate through the database.
    """

    def __init__(
        self,
        path: Union[str, Path],
        policy: Optional[LeasePolicy] = None,
    ):
        self._path = _store.normalize_db_path(path)
        self._policy = policy if policy is not None else LeasePolicy()
        self._conn = _store.connect(self._path)

    @property
    def path(self) -> Path:
        """Location of the backing database file."""
        return self._path

    @property
    def policy(self) -> LeasePolicy:
        """The lease policy new claims are made under."""
        return self._policy

    def close(self) -> None:
        """Close the underlying connection."""
        self._conn.close()

    def __enter__(self) -> "Broker":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def enqueue(
        self,
        payloads: Sequence[Dict[str, Any]],
        fingerprints: Sequence[str],
        span: Optional[Dict[str, Any]] = None,
    ) -> int:
        """Add spec payloads to the queue, deduplicated by fingerprint.

        A fingerprint already ``pending``/``leased``/``done`` is left
        alone; a previously ``failed`` task is reset for a fresh round of
        attempts.  Returns how many tasks are newly runnable.

        ``span`` is an optional JSON-able correlation context (e.g.
        ``{"sweep_id": ...}``) stamped into the ``queued`` event rows, so
        a trace can tie a task back to the sweep that enqueued it.

        Enqueueing also clears a previous :meth:`drain` request: new work
        means the queue is live again, so a fleet started afterwards does
        not exit on a stale flag.
        """
        if len(payloads) != len(fingerprints):
            raise ValueError("payloads and fingerprints must have equal length")
        now = time.time()
        added = 0
        with self._conn:
            self._conn.execute("BEGIN IMMEDIATE")
            self._conn.execute("DELETE FROM control WHERE key = 'draining'")
            for payload, fingerprint in zip(payloads, fingerprints):
                cursor = self._conn.execute(
                    "INSERT OR IGNORE INTO tasks "
                    "(fingerprint, payload, status, max_attempts, enqueued_at, updated_at) "
                    "VALUES (?, ?, 'pending', ?, ?, ?)",
                    (fingerprint, json.dumps(payload), self._policy.max_attempts, now, now),
                )
                if cursor.rowcount:
                    added += 1
                    self._log_event("queued", fingerprint, detail=span_detail(span), now=now)
                    continue
                cursor = self._conn.execute(
                    "UPDATE tasks SET status = 'pending', attempts = 0, lease_owner = NULL, "
                    "lease_expires_at = NULL, error = NULL, updated_at = ? "
                    "WHERE fingerprint = ? AND status = 'failed'",
                    (now, fingerprint),
                )
                if cursor.rowcount:
                    added += cursor.rowcount
                    self._log_event(
                        "queued",
                        fingerprint,
                        detail=span_detail(span, note="failed task reset"),
                        now=now,
                    )
        if added:
            _ENQUEUED.inc(added)
        return added

    def drain(self) -> None:
        """Ask workers to exit once no claimable work remains.

        Draining is the operator's "wind this queue down" action, which
        makes it the natural moment to shed history: events past the
        done-watermark (see :meth:`done_watermark`) are pruned so a
        long-lived queue database does not grow an unbounded log.
        """
        with self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO control (key, value) VALUES ('draining', '1')"
            )
        self.prune_events()

    def is_draining(self) -> bool:
        """Whether :meth:`drain` has been requested."""
        row = self._conn.execute("SELECT value FROM control WHERE key = 'draining'").fetchone()
        return row is not None and row["value"] == "1"

    # ------------------------------------------------------------------
    # Consumer side
    # ------------------------------------------------------------------
    def claim(self, worker_id: str) -> Optional[Task]:
        """Atomically claim the oldest pending task, or ``None`` if idle.

        Expired leases are swept first, so a claim after a worker crash
        picks the orphaned task back up without a separate janitor.
        """
        tasks = self.claim_many(worker_id, 1)
        return tasks[0] if tasks else None

    def claim_many(self, worker_id: str, limit: int) -> List[Task]:
        """Claim up to ``limit`` pending tasks in one transaction (FIFO).

        Batch claims amortize the per-transaction queue overhead when
        scenarios are short; every claimed task gets its own
        lease, so the crash-recovery story is unchanged — a dead worker's
        whole batch expires and is requeued.  Returns fewer than ``limit``
        tasks (possibly none) when the queue runs dry.
        """
        if limit < 1:
            raise ValueError("claim limit must be a positive integer")
        now = time.time()
        tasks: List[Task] = []
        with self._conn:
            self._conn.execute("BEGIN IMMEDIATE")
            self._sweep_expired_locked(now)
            rows = self._conn.execute(CLAIM_SQL, (limit,)).fetchall()
            expires_at = now + self._policy.timeout
            for row in rows:
                self._conn.execute(
                    "UPDATE tasks SET status = 'leased', attempts = attempts + 1, "
                    "lease_owner = ?, lease_expires_at = ?, updated_at = ? WHERE fingerprint = ?",
                    (worker_id, expires_at, now, row["fingerprint"]),
                )
                self._log_event("started", row["fingerprint"], worker_id=worker_id, now=now)
                tasks.append(
                    Task(
                        fingerprint=row["fingerprint"],
                        payload=json.loads(row["payload"]),
                        attempts=row["attempts"] + 1,
                        lease=Lease(
                            fingerprint=row["fingerprint"],
                            owner=worker_id,
                            expires_at=expires_at,
                        ),
                    )
                )
        if tasks:
            _CLAIMED.inc(len(tasks))
        return tasks

    def heartbeat(self, fingerprint: str, worker_id: str) -> bool:
        """Renew a lease; returns ``False`` if the lease is no longer ours."""
        now = time.time()
        with self._conn:
            cursor = self._conn.execute(
                "UPDATE tasks SET lease_expires_at = ?, updated_at = ? "
                "WHERE fingerprint = ? AND status = 'leased' AND lease_owner = ?",
                (now + self._policy.timeout, now, fingerprint, worker_id),
            )
        self.touch_worker(worker_id)
        if cursor.rowcount:
            _RENEWALS.inc()
        return bool(cursor.rowcount)

    def complete(self, fingerprint: str, worker_id: str, result_payload: Dict[str, Any]) -> None:
        """Record one finished task (a one-item :meth:`complete_many`)."""
        self.complete_many(worker_id, [(fingerprint, result_payload)])

    def complete_many(
        self, worker_id: str, items: Sequence[Tuple[str, Dict[str, Any]]]
    ) -> None:
        """Record finished tasks: store each result and mark each task done.

        ``items`` are ``(fingerprint, result_payload)`` pairs.  Every
        result row, ``done`` transition and ``completed`` event, plus one
        ``tasks_done += n`` for the worker, commit in a single
        transaction: all of them or none.  Payloads are serialized before
        the write lock is taken, so the lock is held only for the inserts.

        Results are content-addressed and scenario execution is
        deterministic, so a completion is accepted even from a worker
        whose lease was lost (the work is identical); the result upsert
        keeps this idempotent.
        """
        rows = {fingerprint: json.dumps(payload) for fingerprint, payload in items}
        if not rows:
            return
        now = time.time()
        with self._conn:
            self._conn.execute("BEGIN IMMEDIATE")
            self._conn.executemany(
                "INSERT OR REPLACE INTO results (fingerprint, payload, worker_id, created_at) "
                "VALUES (?, ?, ?, ?)",
                [(fingerprint, payload, worker_id, now) for fingerprint, payload in rows.items()],
            )
            self._conn.executemany(
                "UPDATE tasks SET status = 'done', lease_owner = NULL, lease_expires_at = NULL, "
                "error = NULL, updated_at = ? WHERE fingerprint = ?",
                [(now, fingerprint) for fingerprint in rows],
            )
            self._conn.execute(
                "UPDATE workers SET tasks_done = tasks_done + ?, last_seen_at = ? "
                "WHERE worker_id = ?",
                (len(rows), now, worker_id),
            )
            for fingerprint in rows:
                self._log_event("completed", fingerprint, worker_id=worker_id, now=now)
        _COMPLETED.inc(len(rows))

    def fail(self, fingerprint: str, worker_id: str, error: str) -> bool:
        """Mark a task permanently failed (the scenario itself errored).

        Deliberate failures are terminal: a deterministic simulation that
        raised once will raise again, so retrying would only burn
        attempts.  Crash recovery goes through lease expiry instead.

        Guarded by lease ownership: a worker whose lease was already
        requeued (it wedged past the timeout and someone else took over)
        cannot clobber the task's current state — unlike :meth:`complete`,
        a stale failure carries no reusable work.  Returns whether the
        failure was recorded.
        """
        now = time.time()
        with self._conn:
            cursor = self._conn.execute(
                "UPDATE tasks SET status = 'failed', lease_owner = NULL, "
                "lease_expires_at = NULL, error = ?, updated_at = ? "
                "WHERE fingerprint = ? AND status = 'leased' AND lease_owner = ?",
                (str(error), now, fingerprint, worker_id),
            )
            if cursor.rowcount:
                self._log_event(
                    "failed", fingerprint, worker_id=worker_id, detail=str(error), now=now
                )
        if cursor.rowcount:
            _TASK_FAILURES.inc()
        return bool(cursor.rowcount)

    def requeue_expired(
        self, now: Optional[float] = None, dry_run: bool = False
    ) -> Tuple[int, int]:
        """Sweep expired leases: requeue what has attempts left, fail the rest.

        Returns ``(requeued, exhausted)`` counts.  Safe to call from any
        process at any time; claims do this implicitly.

        With ``dry_run=True`` nothing is mutated: the same counts are
        computed from a read-only query, answering "what would a sweep at
        time ``now`` do?" — the lease-debugging question behind
        ``workers status --expiring``, which also works over HTTP because
        the service forwards both arguments.
        """
        now = time.time() if now is None else now
        if dry_run:
            row = self._conn.execute(
                "SELECT COUNT(*) AS expired, "
                "COALESCE(SUM(attempts >= max_attempts), 0) AS exhausted "
                "FROM tasks WHERE status = 'leased' AND lease_expires_at < ?",
                (now,),
            ).fetchone()
            return int(row["expired"]) - int(row["exhausted"]), int(row["exhausted"])
        with self._conn:
            self._conn.execute("BEGIN IMMEDIATE")
            return self._sweep_expired_locked(now)

    def _sweep_expired_locked(self, now: float) -> Tuple[int, int]:
        """Expire leases inside an already-open transaction."""
        expired = self._conn.execute(
            "SELECT fingerprint, lease_owner, attempts, max_attempts FROM tasks "
            "WHERE status = 'leased' AND lease_expires_at < ?",
            (now,),
        ).fetchall()
        exhausted = self._conn.execute(
            "UPDATE tasks SET status = 'failed', "
            "error = 'lease expired after ' || attempts || ' attempts (worker crash?)', "
            "lease_owner = NULL, lease_expires_at = NULL, updated_at = ? "
            "WHERE status = 'leased' AND lease_expires_at < ? AND attempts >= max_attempts",
            (now, now),
        ).rowcount
        requeued = self._conn.execute(
            "UPDATE tasks SET status = 'pending', lease_owner = NULL, "
            "lease_expires_at = NULL, updated_at = ? "
            "WHERE status = 'leased' AND lease_expires_at < ?",
            (now, now),
        ).rowcount
        for row in expired:
            terminal = row["attempts"] >= row["max_attempts"]
            self._log_event(
                "failed" if terminal else "retried",
                row["fingerprint"],
                worker_id=row["lease_owner"],
                detail=(
                    f"lease expired after {row['attempts']} attempts (worker crash?)"
                    if terminal
                    else "lease expired; task requeued"
                ),
                now=now,
            )
        if expired:
            _EXPIRIES.inc(len(expired))
        return requeued, exhausted

    def release_worker(self, worker_id: str) -> Tuple[int, int]:
        """Immediately release all leases of a worker known to be dead.

        The supervising parent calls this when it reaps a worker process,
        so recovery does not have to wait out the lease timeout.  Returns
        ``(requeued, exhausted)``.
        """
        now = time.time()
        with self._conn:
            self._conn.execute("BEGIN IMMEDIATE")
            held = self._conn.execute(
                "SELECT fingerprint, attempts, max_attempts FROM tasks "
                "WHERE status = 'leased' AND lease_owner = ?",
                (worker_id,),
            ).fetchall()
            exhausted = self._conn.execute(
                "UPDATE tasks SET status = 'failed', "
                "error = 'worker ' || lease_owner || ' died after ' || attempts || ' attempts', "
                "lease_owner = NULL, lease_expires_at = NULL, updated_at = ? "
                "WHERE status = 'leased' AND lease_owner = ? AND attempts >= max_attempts",
                (now, worker_id),
            ).rowcount
            requeued = self._conn.execute(
                "UPDATE tasks SET status = 'pending', lease_owner = NULL, "
                "lease_expires_at = NULL, updated_at = ? "
                "WHERE status = 'leased' AND lease_owner = ?",
                (now, worker_id),
            ).rowcount
            for row in held:
                terminal = row["attempts"] >= row["max_attempts"]
                self._log_event(
                    "failed" if terminal else "retried",
                    row["fingerprint"],
                    worker_id=worker_id,
                    detail=(
                        f"worker {worker_id} died after {row['attempts']} attempts"
                        if terminal
                        else f"worker {worker_id} died; lease released"
                    ),
                    now=now,
                )
        return requeued, exhausted

    def release_pending(self, fingerprints: Sequence[str]) -> int:
        """Remove still-pending tasks from the queue (cancellation path).

        A cancelled sweep calls this for the scenarios nobody claimed, so
        the queue does not keep work whose driver has gone away.  Only
        ``pending`` rows are touched — leased, done and failed tasks keep
        their state (and a later re-enqueue of the same fingerprints is
        cheap: the queue is content-addressed).  Returns how many tasks
        were released.
        """
        released = 0
        now = time.time()
        with self._conn:
            self._conn.execute("BEGIN IMMEDIATE")
            for fingerprint in fingerprints:
                cursor = self._conn.execute(
                    "DELETE FROM tasks WHERE fingerprint = ? AND status = 'pending'",
                    (fingerprint,),
                )
                if cursor.rowcount:
                    released += 1
                    self._log_event(
                        "released", fingerprint, detail="sweep cancelled", now=now
                    )
        return released

    # ------------------------------------------------------------------
    # Worker liveness
    # ------------------------------------------------------------------
    def register_worker(self, worker_id: str, pid: Optional[int] = None) -> None:
        """Record a worker process (for ``workers status``).

        ``pid`` defaults to the calling process — pass it explicitly when
        registering on behalf of a *remote* worker (the HTTP front-end
        does, so multi-host fleets report their own pids, not the
        server's).
        """
        now = time.time()
        with self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO workers (worker_id, pid, started_at, last_seen_at, "
                "tasks_done) VALUES (?, ?, ?, ?, "
                "COALESCE((SELECT tasks_done FROM workers WHERE worker_id = ?), 0))",
                (worker_id, os.getpid() if pid is None else int(pid), now, now, worker_id),
            )

    def touch_worker(self, worker_id: str) -> None:
        """Refresh a worker's ``last_seen_at`` timestamp."""
        with self._conn:
            self._conn.execute(
                "UPDATE workers SET last_seen_at = ? WHERE worker_id = ?",
                (time.time(), worker_id),
            )

    # ------------------------------------------------------------------
    # Event log
    # ------------------------------------------------------------------
    def _log_event(
        self,
        kind: str,
        fingerprint: Optional[str] = None,
        worker_id: Optional[str] = None,
        detail: Optional[str] = None,
        now: Optional[float] = None,
    ) -> None:
        """Append one row to the event log.

        Always called from inside the transaction (or autocommit
        statement batch) of the state change it records, so a transition
        and its log row commit — or roll back — together.
        """
        self._conn.execute(
            "INSERT INTO events (ts, kind, fingerprint, worker_id, detail) "
            "VALUES (?, ?, ?, ?, ?)",
            (time.time() if now is None else now, kind, fingerprint, worker_id, detail),
        )
        _APPENDS.inc()

    def record_event(
        self,
        kind: str,
        fingerprint: Optional[str] = None,
        worker_id: Optional[str] = None,
        detail: Optional[str] = None,
    ) -> int:
        """Append an out-of-band event to the log; returns its sequence.

        This is how layers above the queue — the adaptive-search driver
        mirroring ``trial-proposed``/``trial-pruned`` decisions — make
        their progress visible to the same observers that tail task
        events, locally or through the service's RPC of the same name.
        Kinds are restricted to the known vocabularies so a typo cannot
        pollute the log.
        """
        if kind not in EVENT_KINDS and kind not in TRIAL_EVENT_KINDS:
            raise ValueError(
                f"unknown event kind {kind!r} (available: "
                f"{', '.join(EVENT_KINDS + TRIAL_EVENT_KINDS)})"
            )
        with self._conn:
            self._conn.execute("BEGIN IMMEDIATE")
            self._log_event(kind, fingerprint, worker_id=worker_id, detail=detail)
            row = self._conn.execute("SELECT MAX(seq) AS seq FROM events").fetchone()
        return int(row["seq"]) if row["seq"] is not None else 0

    def done_watermark(self) -> int:
        """The lowest event sequence still worth keeping.

        Every event older than the watermark concerns only settled work:
        no ``pending`` or ``leased`` task has an event at or above it
        left unpruned.  With nothing in flight the watermark is
        ``last_event_seq() + 1`` — the whole log is prunable history.
        """
        row = self._conn.execute(
            "SELECT MIN(e.seq) AS seq FROM events e "
            "JOIN tasks t ON t.fingerprint = e.fingerprint "
            "WHERE t.status IN ('pending', 'leased')"
        ).fetchone()
        if row is not None and row["seq"] is not None:
            return int(row["seq"])
        return self.last_event_seq() + 1

    def prune_events(self, before_seq: Optional[int] = None) -> int:
        """Delete event-log rows with ``seq < before_seq``; returns the count.

        ``before_seq=None`` prunes up to :meth:`done_watermark` — the
        largest cut that cannot touch an in-flight task's history.
        Sequence numbers are ``AUTOINCREMENT`` and never reused, so
        observers tailing :meth:`events_since` from a live position are
        unaffected; only already-settled history disappears.
        """
        before = self.done_watermark() if before_seq is None else int(before_seq)
        with self._conn:
            cursor = self._conn.execute("DELETE FROM events WHERE seq < ?", (before,))
        return cursor.rowcount

    def last_event_seq(self) -> int:
        """The newest event-log sequence number ever issued (0 if none).

        Capture this *before* enqueueing, then tail with
        :meth:`events_since` — the window replays exactly your run.
        Pruning does not move this backwards: when the table is empty the
        ``AUTOINCREMENT`` counter still remembers the last issued seq, so
        ``workers status`` can report "N logged, 0 retained" after a
        drain instead of pretending no events ever happened.
        """
        row = self._conn.execute("SELECT MAX(seq) AS seq FROM events").fetchone()
        if row["seq"] is not None:
            return int(row["seq"])
        row = self._conn.execute(
            "SELECT seq FROM sqlite_sequence WHERE name = 'events'"
        ).fetchone()
        return int(row["seq"]) if row is not None else 0

    def events_since(self, seq: int = 0, limit: int = 500) -> List[Dict[str, Any]]:
        """Event-log rows newer than ``seq``, oldest first (at most ``limit``).

        Each row is a JSON-native dict — ``{"seq", "ts", "kind",
        "fingerprint", "worker_id", "detail"}`` — with ``seq`` strictly
        monotonic (``AUTOINCREMENT``: sequence numbers are never reused,
        even across deletes), so ``events_since(last_seen)`` is a
        complete, gap-free resume point for any observer, including the
        HTTP service's RPC of the same name.
        """
        if limit < 1:
            raise ValueError("event limit must be a positive integer")
        rows = self._conn.execute(
            "SELECT seq, ts, kind, fingerprint, worker_id, detail FROM events "
            "WHERE seq > ? ORDER BY seq LIMIT ?",
            (int(seq), int(limit)),
        ).fetchall()
        return [{key: row[key] for key in row.keys()} for row in rows]

    def events_for(self, fingerprint: str, limit: int = 1000) -> List[Dict[str, Any]]:
        """Every retained event-log row about one fingerprint, oldest first.

        The per-scenario trace: ``queued`` (carrying the enqueuing
        sweep's span context in ``detail``) → ``started`` (which worker
        claimed it) → ``completed``/``failed``/``retried``.  Served over
        HTTP by the RPC of the same name; rendered by
        ``chronos-experiments trace <fingerprint>``.
        """
        if limit < 1:
            raise ValueError("event limit must be a positive integer")
        rows = self._conn.execute(
            "SELECT seq, ts, kind, fingerprint, worker_id, detail FROM events "
            "WHERE fingerprint = ? ORDER BY seq LIMIT ?",
            (fingerprint, int(limit)),
        ).fetchall()
        return [{key: row[key] for key in row.keys()} for row in rows]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def counts(self) -> Dict[str, int]:
        """Task counts by state (all states present, zero-filled)."""
        rows = self._conn.execute(
            "SELECT status, COUNT(*) AS n FROM tasks GROUP BY status"
        ).fetchall()
        counts = {state: 0 for state in TASK_STATES}
        for row in rows:
            counts[row["status"]] = int(row["n"])
        for state, count in counts.items():
            _QUEUE_DEPTH.labels(state=state).set(count)
        return counts

    def settled(self) -> bool:
        """True when nothing is pending or leased (done/failed only)."""
        counts = self.counts()
        return counts["pending"] == 0 and counts["leased"] == 0

    def task(self, fingerprint: str) -> Optional[TaskRecord]:
        """A snapshot of one task, or ``None`` if it was never enqueued."""
        row = self._conn.execute(
            "SELECT fingerprint, status, attempts, max_attempts, lease_owner, "
            "lease_expires_at, error FROM tasks WHERE fingerprint = ?",
            (fingerprint,),
        ).fetchone()
        if row is None:
            return None
        return TaskRecord(**{key: row[key] for key in row.keys()})

    def tasks(self, status: Optional[str] = None) -> List[TaskRecord]:
        """Snapshots of all tasks, optionally filtered by state."""
        query = (
            "SELECT fingerprint, status, attempts, max_attempts, lease_owner, "
            "lease_expires_at, error FROM tasks"
        )
        params: Tuple[Any, ...] = ()
        if status is not None:
            query += " WHERE status = ?"
            params = (status,)
        query += " ORDER BY enqueued_at, fingerprint"
        rows = self._conn.execute(query, params).fetchall()
        return [TaskRecord(**{key: row[key] for key in row.keys()}) for row in rows]

    def failed_payloads(self) -> List[Tuple[str, Dict[str, Any], str]]:
        """``(fingerprint, payload, error)`` for every failed task."""
        rows = self._conn.execute(
            "SELECT fingerprint, payload, error FROM tasks WHERE status = 'failed' "
            "ORDER BY enqueued_at, fingerprint"
        ).fetchall()
        return [
            (row["fingerprint"], json.loads(row["payload"]), row["error"] or "unknown error")
            for row in rows
        ]

    def workers(self) -> List[Dict[str, Any]]:
        """Known workers with pid, liveness timestamps and tasks done."""
        rows = self._conn.execute(
            "SELECT worker_id, pid, started_at, last_seen_at, tasks_done FROM workers "
            "ORDER BY started_at"
        ).fetchall()
        return [{key: row[key] for key in row.keys()} for row in rows]

    def leased(self, now: Optional[float] = None) -> List[Dict[str, Any]]:
        """Per-lease detail: attempts and seconds until expiry.

        This is what makes a stuck lease visible from ``workers status``
        without opening the sqlite file: a task whose ``expires_in_s`` is
        negative (or whose attempts keep climbing) is being ping-ponged
        between dying workers.
        """
        now = time.time() if now is None else now
        rows = self._conn.execute(
            "SELECT fingerprint, lease_owner, attempts, max_attempts, lease_expires_at "
            "FROM tasks WHERE status = 'leased' ORDER BY lease_expires_at, fingerprint"
        ).fetchall()
        return [
            {
                "fingerprint": row["fingerprint"],
                "worker_id": row["lease_owner"],
                "attempts": int(row["attempts"]),
                "max_attempts": int(row["max_attempts"]),
                "expires_in_s": (row["lease_expires_at"] or now) - now,
            }
            for row in rows
        ]

    def telemetry_summary(self, window_s: float = 300.0) -> Dict[str, Any]:
        """Recent queue activity computed from the event log's timestamps.

        Unlike the process-local counters in :mod:`repro.telemetry`, this
        reads the shared database, so ``workers status`` shows the same
        numbers whether it opens the sqlite file or asks the service —
        and whichever process did the claiming.  ``window_s`` bounds the
        look-back; rates are per second over that window.
        """
        since = time.time() - window_s
        rows = self._conn.execute(
            "SELECT kind, COUNT(*) AS n FROM events WHERE ts >= ? GROUP BY kind",
            (since,),
        ).fetchall()
        by_kind = {row["kind"]: int(row["n"]) for row in rows}
        expiries = self._conn.execute(
            "SELECT COUNT(*) AS n FROM events WHERE ts >= ? AND detail LIKE 'lease expired%'",
            (since,),
        ).fetchone()
        appended = sum(by_kind.values())
        claims = by_kind.get("started", 0)
        return {
            "window_s": window_s,
            "claims": claims,
            "claim_rate_per_s": claims / window_s,
            "lease_expiries": int(expiries["n"]),
            "events_appended": appended,
            "event_append_rate_per_s": appended / window_s,
        }

    def stats(self) -> Dict[str, Any]:
        """One status dict: task counts, leases, workers, results, drain flag.

        ``events`` is the newest log sequence; ``events_retained`` is how
        many rows the log actually holds (pruning keeps it bounded) and
        ``events_first`` the oldest retained sequence — together they
        surface the retained span in ``workers status``.  ``telemetry``
        summarizes recent activity (claim rate, lease expiries, event
        appends) from the log's timestamps.
        """
        results = self._conn.execute("SELECT COUNT(*) AS n FROM results").fetchone()
        span = self._conn.execute(
            "SELECT COUNT(*) AS n, MIN(seq) AS first FROM events"
        ).fetchone()
        return {
            "path": str(self._path),
            "tasks": self.counts(),
            "leased": self.leased(),
            "results": int(results["n"]),
            "workers": self.workers(),
            "draining": self.is_draining(),
            "events": self.last_event_seq(),
            "events_retained": int(span["n"]),
            "events_first": int(span["first"]) if span["first"] is not None else None,
            "telemetry": self.telemetry_summary(),
        }
