""":class:`FederatedBroker` — the full broker interface over N shards.

One writer per WAL file is the sqlite broker's scaling ceiling; the
federation raises it by partitioning the *fingerprint space* instead of
the broker: every task's owning shard is a pure function of its content
fingerprint (:mod:`repro.federation.routing`), so enqueue, heartbeat,
complete, cancellation and cache probes all resolve locally with no
cross-shard coordination, and shards never share a write lock.

Call routing falls into three shapes:

- **route by fingerprint** — ``enqueue`` (grouped per shard),
  ``heartbeat``, ``complete``, ``complete_many`` (grouped), ``fail``,
  ``task``, ``events_for``, ``release_pending`` (grouped);
- **round-robin** — ``claim``/``claim_many`` split a batch across
  shards starting at a rotating offset, so concurrent workers spread
  their claim transactions over N independent queues;
- **scatter-gather** — ``counts``/``settled``/``stats``/``leased``/
  ``workers``/``requeue_expired``/``drain`` fan out and merge, and the
  event log is merged through the packed composite cursor of
  :mod:`repro.federation.events`.

Degraded shards are explicit, not silent: a claim that cannot reach a
shard skips it with a :class:`RuntimeWarning` and bumps the
``chronos_shard_unavailable_total{shard=}`` counter (workers keep
draining the healthy shards), while an enqueue to a dead *owning* shard
fails fast — the producer must know its work was not queued.  Like the
sqlite broker, one instance is not thread safe when any shard is
sqlite-backed; create one per thread (the worker's heartbeat keeper
already does).
"""

from __future__ import annotations

import itertools
import os
import warnings
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro import telemetry
from repro.distributed.broker import EVENT_KINDS, TRIAL_EVENT_KINDS, Task, TaskRecord
from repro.distributed.leases import LeasePolicy
from repro.federation.events import merge_event_batches, pack_cursor, unpack_cursor
from repro.federation.topology import ShardTopology

_SHARD_UNAVAILABLE = telemetry.counter(
    "chronos_shard_unavailable_total",
    "Claim passes that skipped an unreachable federation shard",
    labelnames=("shard",),
)
_SHARD_QUEUE_DEPTH = telemetry.gauge(
    "chronos_shard_queue_depth",
    "Task count by queue state on one federation shard",
    labelnames=("shard", "state"),
)


_INSTANCE_COUNTER = itertools.count()


def _is_auth_error(error: Exception) -> bool:
    """Whether an exception is a credential rejection (never masked)."""
    try:
        from repro.service.protocol import ServiceAuthError
    except Exception:
        return False
    return isinstance(error, ServiceAuthError)


class FederatedBroker:
    """The :class:`~repro.distributed.Broker` interface over N shards."""

    def __init__(
        self,
        target: Union[str, ShardTopology],
        policy: Optional[LeasePolicy] = None,
        *,
        token: Optional[str] = None,
        cafile: Optional[str] = None,
        verify: Optional[bool] = None,
    ):
        from repro.distributed.targets import open_broker

        self._topology = (
            target if isinstance(target, ShardTopology) else ShardTopology.parse(target)
        )
        self._policy = policy if policy is not None else LeasePolicy()
        self._shards = [
            open_broker(shard, policy=self._policy, token=token, cafile=cafile, verify=verify)
            for shard in self._topology.shards
        ]
        # Stagger the claim rotation's starting shard per instance: a
        # fleet of workers that all start claiming at shard 0 convoys on
        # one write lock; seeding from the pid plus a process-local
        # counter spreads first claims across the federation.
        self._rr_offset = (os.getpid() + next(_INSTANCE_COUNTER)) % max(1, len(self._shards))

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @property
    def topology(self) -> ShardTopology:
        """The canonical shard topology this broker federates."""
        return self._topology

    @property
    def path(self) -> str:
        """The canonical ``shards:`` target string (for status output)."""
        return self._topology.spec

    @property
    def policy(self) -> LeasePolicy:
        """The lease policy new claims are made under."""
        return self._policy

    def close(self) -> None:
        """Close every shard connection."""
        for shard in self._shards:
            try:
                shard.close()
            except Exception:
                pass

    def __enter__(self) -> "FederatedBroker":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _owner(self, fingerprint: str):
        return self._shards[self._topology.owner_of(fingerprint)]

    def _group_by_owner(self, fingerprints: Sequence[str]) -> Dict[int, List[int]]:
        """Positions of ``fingerprints`` grouped by owning shard index."""
        groups: Dict[int, List[int]] = {}
        for position, fingerprint in enumerate(fingerprints):
            groups.setdefault(self._topology.owner_of(fingerprint), []).append(position)
        return groups

    def _mark_unavailable(self, shard_index: int, action: str, error: Exception) -> None:
        label = self._topology.shards[shard_index]
        _SHARD_UNAVAILABLE.labels(shard=label).inc()
        warnings.warn(
            f"federation shard {label} unreachable during {action} ({error}); "
            "skipping it this pass",
            RuntimeWarning,
            stacklevel=3,
        )

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def enqueue(
        self,
        payloads: Sequence[Dict[str, Any]],
        fingerprints: Sequence[str],
        span: Optional[Dict[str, Any]] = None,
    ) -> int:
        """Route each payload to its owning shard's queue; returns the sum.

        Deliberately *not* fault tolerant: enqueueing to a dead owning
        shard raises, because silently dropping queued work would turn a
        shard outage into missing results.
        """
        if len(payloads) != len(fingerprints):
            raise ValueError("payloads and fingerprints must have equal length")
        added = 0
        for shard_index, positions in self._group_by_owner(fingerprints).items():
            added += self._shards[shard_index].enqueue(
                [payloads[i] for i in positions],
                [fingerprints[i] for i in positions],
                span=span,
            )
        return added

    def drain(self) -> None:
        """Request drain on every shard."""
        for shard in self._shards:
            shard.drain()

    def is_draining(self) -> bool:
        """Whether every shard has been asked to drain."""
        return all(shard.is_draining() for shard in self._shards)

    # ------------------------------------------------------------------
    # Consumer side
    # ------------------------------------------------------------------
    def claim(self, worker_id: str) -> Optional[Task]:
        """Claim one task from the first shard (in rotation) with work."""
        tasks = self.claim_many(worker_id, 1)
        return tasks[0] if tasks else None

    def claim_many(self, worker_id: str, limit: int) -> List[Task]:
        """Claim up to ``limit`` tasks, split round-robin across shards.

        The starting shard rotates per call, so a fleet of batch-claiming
        workers spreads its claim transactions over all N write locks
        instead of convoying on one.  A first pass requests an even share
        from every shard; a second pass tops up from shards that still
        had work.  Unreachable shards are skipped (with a warning and a
        ``chronos_shard_unavailable_total`` bump) — the healthy rest of
        the federation keeps serving.
        """
        if limit < 1:
            raise ValueError("claim limit must be a positive integer")
        n = len(self._shards)
        order = [(self._rr_offset + i) % n for i in range(n)]
        self._rr_offset = (self._rr_offset + 1) % n
        tasks: List[Task] = []
        dry: set = set()

        def attempt(shard_index: int, want: int) -> None:
            try:
                got = self._shards[shard_index].claim_many(worker_id, want)
            except Exception as error:
                if _is_auth_error(error):
                    raise
                self._mark_unavailable(shard_index, "claim", error)
                dry.add(shard_index)
                return
            if len(got) < want:
                dry.add(shard_index)
            tasks.extend(got)

        share = max(1, limit // n)
        for shard_index in order:
            if len(tasks) >= limit:
                break
            attempt(shard_index, min(share, limit - len(tasks)))
        for shard_index in order:
            if len(tasks) >= limit:
                break
            if shard_index not in dry:
                attempt(shard_index, limit - len(tasks))
        return tasks

    def heartbeat(self, fingerprint: str, worker_id: str) -> bool:
        """Renew a lease on the owning shard."""
        return self._owner(fingerprint).heartbeat(fingerprint, worker_id)

    def complete(self, fingerprint: str, worker_id: str, result_payload: Dict[str, Any]) -> None:
        """Record a finished task on the owning shard."""
        self.complete_many(worker_id, [(fingerprint, result_payload)])

    def complete_many(
        self, worker_id: str, items: Sequence[Tuple[str, Dict[str, Any]]]
    ) -> None:
        """Record finished tasks: one ``complete_many`` per owning shard."""
        items = list(items)
        for shard_index, positions in self._group_by_owner(
            [fingerprint for fingerprint, _ in items]
        ).items():
            self._shards[shard_index].complete_many(worker_id, [items[i] for i in positions])

    def fail(self, fingerprint: str, worker_id: str, error: str) -> bool:
        """Mark a task permanently failed on the owning shard."""
        return self._owner(fingerprint).fail(fingerprint, worker_id, error)

    def requeue_expired(
        self, now: Optional[float] = None, dry_run: bool = False
    ) -> Tuple[int, int]:
        """Sweep expired leases on every shard; sums the counts."""
        requeued = exhausted = 0
        for shard in self._shards:
            r, e = shard.requeue_expired(now=now, dry_run=dry_run)
            requeued += r
            exhausted += e
        return requeued, exhausted

    def release_worker(self, worker_id: str) -> Tuple[int, int]:
        """Release a dead worker's leases on every shard; sums the counts."""
        requeued = exhausted = 0
        for shard in self._shards:
            r, e = shard.release_worker(worker_id)
            requeued += r
            exhausted += e
        return requeued, exhausted

    def release_pending(self, fingerprints: Sequence[str]) -> int:
        """Withdraw still-pending tasks, each from its owning shard."""
        fingerprints = list(fingerprints)
        released = 0
        for shard_index, positions in self._group_by_owner(fingerprints).items():
            released += self._shards[shard_index].release_pending(
                [fingerprints[i] for i in positions]
            )
        return released

    # ------------------------------------------------------------------
    # Worker liveness
    # ------------------------------------------------------------------
    def register_worker(self, worker_id: str, pid: Optional[int] = None) -> None:
        """Register the worker on every shard (it will claim from all)."""
        for shard in self._shards:
            shard.register_worker(worker_id, pid=pid)

    def touch_worker(self, worker_id: str) -> None:
        """Refresh the worker's liveness timestamp on every shard."""
        for shard in self._shards:
            shard.touch_worker(worker_id)

    # ------------------------------------------------------------------
    # Event log
    # ------------------------------------------------------------------
    def record_event(
        self,
        kind: str,
        fingerprint: Optional[str] = None,
        worker_id: Optional[str] = None,
        detail: Optional[str] = None,
    ) -> int:
        """Append an out-of-band event; returns the packed merged cursor.

        Events about a fingerprint land on its owning shard (so
        ``events_for`` finds the whole story in one place); fingerprint-
        less events (e.g. ``search-finished``) go to shard 0.
        """
        if kind not in EVENT_KINDS and kind not in TRIAL_EVENT_KINDS:
            raise ValueError(
                f"unknown event kind {kind!r} (available: "
                f"{', '.join(EVENT_KINDS + TRIAL_EVENT_KINDS)})"
            )
        shard = self._shards[0] if fingerprint is None else self._owner(fingerprint)
        shard.record_event(kind, fingerprint=fingerprint, worker_id=worker_id, detail=detail)
        return self.last_event_seq()

    def last_event_seq(self) -> int:
        """The packed composite cursor of every shard's newest sequence."""
        return pack_cursor([shard.last_event_seq() for shard in self._shards])

    def done_watermark(self) -> int:
        """Packed cursor of the per-shard done-watermarks (prune target)."""
        return pack_cursor([shard.done_watermark() for shard in self._shards])

    def prune_events(self, before_seq: Optional[int] = None) -> int:
        """Prune each shard's settled history; returns total rows removed.

        ``before_seq`` is a packed composite cursor (``None`` prunes each
        shard to its own done-watermark, the federation-wide safe cut).
        """
        if before_seq is None:
            return sum(shard.prune_events() for shard in self._shards)
        positions = unpack_cursor(int(before_seq), len(self._shards))
        return sum(
            shard.prune_events(before_seq=position)
            for shard, position in zip(self._shards, positions)
        )

    def events_since(self, seq: int = 0, limit: int = 500) -> List[Dict[str, Any]]:
        """The merged event stream after a packed composite cursor.

        Same contract as the single broker: oldest first, at most
        ``limit`` rows, ``row["seq"]`` strictly monotonic and directly
        reusable as the next ``seq`` — except the sequence is the packed
        per-shard cursor, so resuming replays nothing and skips nothing
        regardless of how the N logs interleave.
        """
        if limit < 1:
            raise ValueError("event limit must be a positive integer")
        positions = unpack_cursor(int(seq), len(self._shards))
        batches = [
            shard.events_since(position, limit=limit)
            for shard, position in zip(self._shards, positions)
        ]
        return merge_event_batches(batches, positions, limit, self._topology.shards)

    def events_for(self, fingerprint: str, limit: int = 1000) -> List[Dict[str, Any]]:
        """One fingerprint's trace, read straight from its owning shard.

        Rows keep the owning shard's *local* sequence numbers (the trace
        is single-shard by construction) and are annotated with the
        shard's target under ``"shard"``.
        """
        shard_index = self._topology.owner_of(fingerprint)
        rows = self._shards[shard_index].events_for(fingerprint, limit=limit)
        label = self._topology.shards[shard_index]
        return [{**row, "shard": label} for row in rows]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def counts(self) -> Dict[str, int]:
        """Task counts by state, summed over shards (per-shard gauges set)."""
        totals: Dict[str, int] = {}
        for label, shard in zip(self._topology.shards, self._shards):
            counts = shard.counts()
            for state, count in counts.items():
                totals[state] = totals.get(state, 0) + count
                _SHARD_QUEUE_DEPTH.labels(shard=label, state=state).set(count)
        return totals

    def settled(self) -> bool:
        """True when every shard has nothing pending or leased."""
        return all(shard.settled() for shard in self._shards)

    def task(self, fingerprint: str) -> Optional[TaskRecord]:
        """One task's snapshot, from its owning shard."""
        return self._owner(fingerprint).task(fingerprint)

    def tasks(self, status: Optional[str] = None) -> List[TaskRecord]:
        """All task snapshots, shard by shard (each in its queue order)."""
        records: List[TaskRecord] = []
        for shard in self._shards:
            records.extend(shard.tasks(status=status))
        return records

    def failed_payloads(self) -> List[Tuple[str, Dict[str, Any], str]]:
        """Failed tasks from every shard (shard order, then queue order)."""
        failed: List[Tuple[str, Dict[str, Any], str]] = []
        for shard in self._shards:
            failed.extend(shard.failed_payloads())
        return failed

    def workers(self) -> List[Dict[str, Any]]:
        """Known workers merged across shards.

        A federation worker registers on every shard, so the same
        ``worker_id`` appears N times; rows are folded into one — first
        ``started_at``, freshest ``last_seen_at``, ``tasks_done`` summed
        (completions are recorded only on each task's owning shard).
        """
        merged: Dict[str, Dict[str, Any]] = {}
        for shard in self._shards:
            for row in shard.workers():
                current = merged.get(row["worker_id"])
                if current is None:
                    merged[row["worker_id"]] = dict(row)
                else:
                    current["tasks_done"] += row["tasks_done"]
                    current["started_at"] = min(current["started_at"], row["started_at"])
                    current["last_seen_at"] = max(current["last_seen_at"], row["last_seen_at"])
        return sorted(merged.values(), key=lambda row: (row["started_at"], row["worker_id"]))

    def leased(self, now: Optional[float] = None) -> List[Dict[str, Any]]:
        """Per-lease detail gathered from every shard."""
        del now  # each shard reports against its own clock
        leases: List[Dict[str, Any]] = []
        for shard in self._shards:
            leases.extend(shard.leased())
        return sorted(leases, key=lambda item: (item["expires_in_s"], item["fingerprint"]))

    def telemetry_summary(self, window_s: float = 300.0) -> Dict[str, Any]:
        """Recent activity summed across shards (rates over one window)."""
        claims = expiries = appended = 0
        for shard in self._shards:
            summary = shard.telemetry_summary(window_s=window_s)
            claims += int(summary.get("claims", 0))
            expiries += int(summary.get("lease_expiries", 0))
            appended += int(summary.get("events_appended", 0))
        return {
            "window_s": window_s,
            "claims": claims,
            "claim_rate_per_s": claims / window_s,
            "lease_expiries": expiries,
            "events_appended": appended,
            "event_append_rate_per_s": appended / window_s,
        }

    def stats(self) -> Dict[str, Any]:
        """Merged status plus a ``"shards"`` list of per-shard stats.

        Aggregates are human aggregates, not cursors: ``events`` is the
        total logged across shards (the packed cursor lives in
        :meth:`last_event_seq`).  Each entry of ``"shards"`` is that
        shard's own ``stats()`` dict with a ``"shard"`` key naming it —
        the raw material of the CLI's per-shard status table.
        """
        shard_stats: List[Dict[str, Any]] = []
        for label, shard in zip(self._topology.shards, self._shards):
            stats = shard.stats()
            stats["shard"] = label
            shard_stats.append(stats)
            for state, count in stats["tasks"].items():
                _SHARD_QUEUE_DEPTH.labels(shard=label, state=state).set(count)
        tasks: Dict[str, int] = {}
        for stats in shard_stats:
            for state, count in stats["tasks"].items():
                tasks[state] = tasks.get(state, 0) + count
        firsts = [s["events_first"] for s in shard_stats if s.get("events_first") is not None]
        return {
            "path": self._topology.spec,
            "tasks": tasks,
            "leased": self.leased(),
            "results": sum(int(s["results"]) for s in shard_stats),
            "workers": self.workers(),
            "draining": all(bool(s["draining"]) for s in shard_stats),
            "events": sum(int(s["events"]) for s in shard_stats),
            "events_retained": sum(int(s.get("events_retained") or 0) for s in shard_stats),
            "events_first": min(firsts) if firsts else None,
            "telemetry": self.telemetry_summary(),
            "shards": shard_stats,
        }
