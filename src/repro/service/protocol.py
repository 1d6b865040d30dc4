"""Wire protocol of the sweep service: JSON bodies shared by both ends.

The service speaks a deliberately small JSON-over-HTTP dialect:

- ``POST /rpc`` with ``{"method": <name>, "params": {...}}`` invokes one
  broker or result-store operation and answers ``{"result": ...}`` on
  success or ``{"error": "..."}`` with a 4xx/5xx status on failure.
- ``GET /healthz`` answers liveness (used by CI and load balancers).
- ``GET /status`` answers the broker's :meth:`~repro.distributed.Broker.
  stats` dict (handy for ``curl``; the CLI goes through RPC).
- ``GET /metrics`` answers the process-wide telemetry registry in the
  Prometheus text exposition format.  Like ``/status`` it sits behind
  the bearer token when one is configured; scrapers pass
  ``Authorization: Bearer <token>``.

Everything on the wire is JSON-native: :class:`~repro.distributed.Task`,
:class:`~repro.distributed.TaskRecord` and
:class:`~repro.distributed.LeasePolicy` cross as plain dicts via the
``*_to_wire`` / ``*_from_wire`` helpers here, so the server never pickles
and any HTTP client can drive a queue.

Queue *progress* crosses the same way: the ``events_since`` method
relays the broker's monotonic event log as plain dicts (``{"seq", "ts",
"kind", "fingerprint", "worker_id", "detail"}``), ``last_event_seq``
answers where the log stands, and ``release_pending`` lets a cancelled
remote sweep withdraw its unclaimed tasks.  All three are additive, so
protocol version 1 clients keep working against newer servers.  The
sweep driver itself needs a server with the event-log RPCs
(``last_event_seq`` / ``events_since``) and ``result_get_many``.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

from repro.distributed.broker import Task, TaskRecord
from repro.distributed.leases import Lease, LeasePolicy

#: URL paths of the four endpoints.
RPC_PATH = "/rpc"
HEALTH_PATH = "/healthz"
STATUS_PATH = "/status"
METRICS_PATH = "/metrics"

#: Content type of the Prometheus text exposition format.
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Protocol revision, reported by ``/healthz`` (bump on breaking change).
PROTOCOL_VERSION = 1


class ServiceError(RuntimeError):
    """An RPC against the sweep service failed (transport or server side)."""


class ServiceAuthError(ServiceError):
    """The service rejected the request's credentials (HTTP 401/403).

    Kept distinct from plain :class:`ServiceError` because the two call
    for opposite reactions: transport blips are transient (workers retry
    them with backoff), but a bad or missing bearer token will never get
    better on its own — workers fail fast and the CLI turns it into an
    exit-2 diagnostic instead of a retry loop.
    """


def task_to_wire(task: Optional[Task]) -> Optional[Dict[str, Any]]:
    """A claimed task as a JSON-native dict (``None`` passes through)."""
    if task is None:
        return None
    return {
        "fingerprint": task.fingerprint,
        "payload": task.payload,
        "attempts": task.attempts,
        "lease": {
            "fingerprint": task.lease.fingerprint,
            "owner": task.lease.owner,
            "expires_at": task.lease.expires_at,
        },
    }


def task_from_wire(data: Optional[Mapping[str, Any]]) -> Optional[Task]:
    """Rebuild a :class:`Task` from :func:`task_to_wire` output."""
    if data is None:
        return None
    lease = data["lease"]
    return Task(
        fingerprint=str(data["fingerprint"]),
        payload=dict(data["payload"]),
        attempts=int(data["attempts"]),
        lease=Lease(
            fingerprint=str(lease["fingerprint"]),
            owner=str(lease["owner"]),
            expires_at=float(lease["expires_at"]),
        ),
    )


def record_to_wire(record: Optional[TaskRecord]) -> Optional[Dict[str, Any]]:
    """A task snapshot as a JSON-native dict (``None`` passes through)."""
    if record is None:
        return None
    return {
        "fingerprint": record.fingerprint,
        "status": record.status,
        "attempts": record.attempts,
        "max_attempts": record.max_attempts,
        "lease_owner": record.lease_owner,
        "lease_expires_at": record.lease_expires_at,
        "error": record.error,
    }


def record_from_wire(data: Optional[Mapping[str, Any]]) -> Optional[TaskRecord]:
    """Rebuild a :class:`TaskRecord` from :func:`record_to_wire` output."""
    if data is None:
        return None
    return TaskRecord(
        fingerprint=str(data["fingerprint"]),
        status=str(data["status"]),
        attempts=int(data["attempts"]),
        max_attempts=int(data["max_attempts"]),
        lease_owner=data.get("lease_owner"),
        lease_expires_at=data.get("lease_expires_at"),
        error=data.get("error"),
    )


def policy_to_wire(policy: LeasePolicy) -> Dict[str, Any]:
    """A lease policy as a JSON-native dict."""
    return {
        "timeout": policy.timeout,
        "heartbeat_interval": policy.heartbeat_interval,
        "max_attempts": policy.max_attempts,
    }


def policy_from_wire(data: Mapping[str, Any]) -> LeasePolicy:
    """Rebuild a :class:`LeasePolicy` from :func:`policy_to_wire` output."""
    return LeasePolicy(
        timeout=float(data["timeout"]),
        heartbeat_interval=float(data["heartbeat_interval"]),
        max_attempts=int(data["max_attempts"]),
    )
