"""HTTP clients implementing the broker and result-store interfaces.

:class:`HttpBroker` and :class:`HttpResultStore` present the same
surface as :class:`~repro.distributed.Broker` and
:class:`~repro.distributed.SqliteResultStore`, but every call is one
``POST /rpc`` round trip to a :mod:`repro.service.server` — so
:class:`~repro.distributed.Worker`, ``WorkerPool.supervise``,
:func:`repro.distributed.execute_stream` and the CLI run unchanged
against a remote URL.

Both clients are stateless between calls (plain ``urllib`` requests, no
shared connection), which makes them thread safe: one instance can be
shared by a worker loop and its heartbeat thread.  Transient transport
errors surface as :class:`ServiceError`; the lease protocol is already
built for missed beats, so callers treat them like any other lost
heartbeat.  Rejected credentials surface as the sharper
:class:`~repro.service.protocol.ServiceAuthError`, which is *not*
transient — retrying a bad token only hammers the server.

Security settings (bearer token, CA file, verification policy) come
from explicit constructor kwargs, falling back per field to the
``CHRONOS_TOKEN`` / ``CHRONOS_CAFILE`` / ``CHRONOS_TLS_VERIFY``
environment (see :class:`repro.service.security.Credentials`), so a
worker process spawned anywhere in the tree inherits the sweep's
credentials without plumbing.
"""

from __future__ import annotations

import json
import os
import ssl
import urllib.error
import urllib.request
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.api.facade import ScenarioResult, result_from_dict
from repro.distributed.broker import Task, TaskRecord
from repro.distributed.leases import LeasePolicy
from repro.service.protocol import (
    METRICS_PATH,
    RPC_PATH,
    ServiceAuthError,
    ServiceError,
    policy_from_wire,
    record_from_wire,
    task_from_wire,
)
from repro.service.security import Credentials, client_ssl_context

#: Seconds an RPC waits on the socket before failing.
RPC_TIMEOUT_S = 30.0


def rpc_call(
    url: str,
    method: str,
    params: Optional[Dict[str, Any]] = None,
    timeout: float = RPC_TIMEOUT_S,
    token: Optional[str] = None,
    context: Optional[ssl.SSLContext] = None,
) -> Any:
    """One ``POST /rpc`` round trip; returns the ``result`` field.

    ``token`` is sent as an ``Authorization: Bearer`` header; ``context``
    is the SSL context for ``https://`` URLs (``None`` uses stdlib
    defaults — the system trust store).  Raises :class:`ServiceError` on
    transport failures and on error responses, with the server's message
    attached when there is one, and :class:`ServiceAuthError` when the
    service rejects the credentials.
    """
    headers = {"Content-Type": "application/json"}
    if token:
        headers["Authorization"] = f"Bearer {token}"
    request = urllib.request.Request(
        url.rstrip("/") + RPC_PATH,
        data=json.dumps({"method": method, "params": params or {}}).encode("utf-8"),
        headers=headers,
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout, context=context) as response:
            body = json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        try:
            detail = json.loads(error.read().decode("utf-8")).get("error", "")
        except Exception:
            detail = ""
        if error.code in (401, 403):
            hint = (
                "missing or rejected bearer token — pass token=/--token "
                "or set CHRONOS_TOKEN"
            )
            raise ServiceAuthError(
                f"{method} failed: HTTP {error.code} ({detail or hint})"
            ) from error
        raise ServiceError(
            f"{method} failed: HTTP {error.code}" + (f" — {detail}" if detail else "")
        ) from error
    except (urllib.error.URLError, OSError, ValueError) as error:
        raise ServiceError(f"cannot reach sweep service at {url}: {error}") from error
    if not isinstance(body, dict) or "result" not in body:
        raise ServiceError(f"{method}: malformed response from {url}")
    return body["result"]


def fetch_metrics(
    url: str,
    timeout: float = RPC_TIMEOUT_S,
    token: Optional[str] = None,
    cafile: Optional[str] = None,
    verify: Optional[bool] = None,
) -> str:
    """``GET /metrics`` — the server's registry as Prometheus text.

    Credentials resolve exactly like the RPC clients' (explicit kwargs,
    then the ``CHRONOS_*`` environment), so ``chronos-experiments
    metrics --broker https://…`` works wherever ``workers status`` does.
    """
    credentials = Credentials.resolve(token=token, cafile=cafile, verify=verify)
    context = client_ssl_context(url, cafile=credentials.cafile, verify=credentials.verify)
    headers: Dict[str, str] = {}
    if credentials.token:
        headers["Authorization"] = f"Bearer {credentials.token}"
    request = urllib.request.Request(
        url.rstrip("/") + METRICS_PATH, headers=headers, method="GET"
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout, context=context) as response:
            return response.read().decode("utf-8")
    except urllib.error.HTTPError as error:
        if error.code in (401, 403):
            raise ServiceAuthError(
                f"metrics failed: HTTP {error.code} (missing or rejected bearer token — "
                "pass --token or set CHRONOS_TOKEN)"
            ) from error
        raise ServiceError(f"metrics failed: HTTP {error.code}") from error
    except (urllib.error.URLError, OSError, ValueError) as error:
        raise ServiceError(f"cannot reach sweep service at {url}: {error}") from error


class HttpBroker:
    """The :class:`~repro.distributed.Broker` interface over HTTP.

    Lease timing is enforced by the *server* (it owns the database and
    grants the leases); :attr:`policy` reports the server's policy so
    clients can pace heartbeats to match.  The constructor's ``policy``
    is only a local fallback used until the server has answered once.
    """

    def __init__(
        self,
        url: str,
        policy: Optional[LeasePolicy] = None,
        token: Optional[str] = None,
        cafile: Optional[str] = None,
        verify: Optional[bool] = None,
    ):
        self._url = url.rstrip("/")
        self._fallback_policy = policy if policy is not None else LeasePolicy()
        self._server_policy: Optional[LeasePolicy] = None
        self._credentials = Credentials.resolve(token=token, cafile=cafile, verify=verify)
        self._context = client_ssl_context(
            self._url, cafile=self._credentials.cafile, verify=self._credentials.verify
        )

    @property
    def url(self) -> str:
        """Base URL of the sweep service."""
        return self._url

    @property
    def policy(self) -> LeasePolicy:
        """The server's lease policy (fetched once, then cached)."""
        if self._server_policy is None:
            try:
                self._server_policy = policy_from_wire(self._call("policy"))
            except ServiceError:
                return self._fallback_policy
        return self._server_policy

    @property
    def credentials(self) -> Credentials:
        """The resolved security settings this client sends with."""
        return self._credentials

    def _call(self, method: str, **params: Any) -> Any:
        return rpc_call(
            self._url,
            method,
            params,
            token=self._credentials.token,
            context=self._context,
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
        if len(payloads) != len(fingerprints):
            raise ValueError("payloads and fingerprints must have equal length")
        return int(
            self._call(
                "enqueue",
                payloads=list(payloads),
                fingerprints=list(fingerprints),
                span=None if span is None else dict(span),
            )
        )

    def drain(self) -> None:
        self._call("drain")

    def is_draining(self) -> bool:
        return bool(self._call("is_draining"))

    # ------------------------------------------------------------------
    # Consumer side
    # ------------------------------------------------------------------
    def claim(self, worker_id: str) -> Optional[Task]:
        return task_from_wire(self._call("claim", worker_id=worker_id))

    def claim_many(self, worker_id: str, limit: int) -> List[Task]:
        if limit < 1:
            raise ValueError("claim limit must be a positive integer")
        wire = self._call("claim_many", worker_id=worker_id, limit=int(limit))
        return [task_from_wire(item) for item in wire]

    def heartbeat(self, fingerprint: str, worker_id: str) -> bool:
        return bool(self._call("heartbeat", fingerprint=fingerprint, worker_id=worker_id))

    def complete(self, fingerprint: str, worker_id: str, result_payload: Dict[str, Any]) -> None:
        self.complete_many(worker_id, [(fingerprint, result_payload)])

    def complete_many(
        self, worker_id: str, items: Sequence[Tuple[str, Dict[str, Any]]]
    ) -> None:
        """Commit a batch of results in one round trip (one server transaction)."""
        self._call(
            "complete_many",
            worker_id=worker_id,
            items=[[fingerprint, payload] for fingerprint, payload in items],
        )

    def fail(self, fingerprint: str, worker_id: str, error: str) -> bool:
        return bool(
            self._call("fail", fingerprint=fingerprint, worker_id=worker_id, error=str(error))
        )

    def requeue_expired(
        self, now: Optional[float] = None, dry_run: bool = False
    ) -> Tuple[int, int]:
        # ``now`` crosses the wire (it used to be silently dropped, which
        # made lease debugging against a remote broker lie); ``None``
        # still means "the server's clock rules".  ``dry_run`` reports
        # what a sweep *would* do without touching any lease — the mode
        # behind ``workers status --expiring``.
        requeued, exhausted = self._call("requeue_expired", now=now, dry_run=dry_run)
        return int(requeued), int(exhausted)

    def release_worker(self, worker_id: str) -> Tuple[int, int]:
        requeued, exhausted = self._call("release_worker", worker_id=worker_id)
        return int(requeued), int(exhausted)

    def release_pending(self, fingerprints: Sequence[str]) -> int:
        return int(self._call("release_pending", fingerprints=list(fingerprints)))

    # ------------------------------------------------------------------
    # Worker liveness
    # ------------------------------------------------------------------
    def register_worker(self, worker_id: str, pid: Optional[int] = None) -> None:
        self._call(
            "register_worker",
            worker_id=worker_id,
            pid=os.getpid() if pid is None else int(pid),
        )

    def touch_worker(self, worker_id: str) -> None:
        self._call("touch_worker", worker_id=worker_id)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def counts(self) -> Dict[str, int]:
        return {state: int(count) for state, count in self._call("counts").items()}

    def settled(self) -> bool:
        return bool(self._call("settled"))

    def task(self, fingerprint: str) -> Optional[TaskRecord]:
        return record_from_wire(self._call("task", fingerprint=fingerprint))

    def tasks(self, status: Optional[str] = None) -> List[TaskRecord]:
        return [record_from_wire(item) for item in self._call("tasks", status=status)]

    def failed_payloads(self) -> List[Tuple[str, Dict[str, Any], str]]:
        return [
            (str(fingerprint), dict(payload), str(error))
            for fingerprint, payload, error in self._call("failed_payloads")
        ]

    def workers(self) -> List[Dict[str, Any]]:
        return list(self._call("workers"))

    def leased(self) -> List[Dict[str, Any]]:
        return list(self._call("leased"))

    def stats(self) -> Dict[str, Any]:
        stats = dict(self._call("stats"))
        stats["url"] = self._url  # where the answer came from, for status output
        return stats

    def telemetry_summary(self, window_s: float = 300.0) -> Dict[str, Any]:
        """Recent queue activity, computed server-side from the event log."""
        return dict(self._call("telemetry_summary", window_s=float(window_s)))

    def metrics(self) -> Dict[str, Any]:
        """JSON snapshot of the *server's* telemetry registry.

        The same data ``GET /metrics`` renders as Prometheus text; this
        form is for programmatic consumers (the ``metrics --json`` CLI).
        """
        return dict(self._call("metrics"))

    # ------------------------------------------------------------------
    # Event log
    # ------------------------------------------------------------------
    def last_event_seq(self) -> int:
        return int(self._call("last_event_seq"))

    def events_since(self, seq: int = 0, limit: int = 500) -> List[Dict[str, Any]]:
        """Queue-log rows newer than ``seq`` — live progress over HTTP.

        Same contract as :meth:`repro.distributed.Broker.events_since`:
        strictly monotonic ``seq``, oldest first, at most ``limit`` rows
        per round trip (batching keeps a hot sweep from ballooning one
        response).  Tailing this is how a sweep driver — or ``curl`` in a
        CI job — watches a remote, authenticated sweep make progress.
        """
        return [dict(row) for row in self._call("events_since", seq=int(seq), limit=int(limit))]

    def record_event(
        self,
        kind: str,
        fingerprint: Optional[str] = None,
        worker_id: Optional[str] = None,
        detail: Optional[str] = None,
    ) -> int:
        """Append an out-of-band event (adaptive-search trial decisions)."""
        return int(
            self._call(
                "record_event",
                kind=str(kind),
                fingerprint=fingerprint,
                worker_id=worker_id,
                detail=detail,
            )
        )

    def events_for(self, fingerprint: str, limit: int = 1000) -> List[Dict[str, Any]]:
        """Every retained event-log row about one fingerprint, oldest first."""
        return [
            dict(row)
            for row in self._call("events_for", fingerprint=str(fingerprint), limit=int(limit))
        ]

    def done_watermark(self) -> int:
        return int(self._call("done_watermark"))

    def prune_events(self, before_seq: Optional[int] = None) -> int:
        """Prune settled event-log history on the server; returns the count."""
        return int(
            self._call(
                "prune_events",
                before_seq=None if before_seq is None else int(before_seq),
            )
        )

    def close(self) -> None:
        """Nothing to release: calls are independent requests."""

    def __enter__(self) -> "HttpBroker":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class HttpResultStore:
    """The :class:`~repro.distributed.SqliteResultStore` interface over HTTP.

    Parsed results are memoized locally (like the sqlite store's memory
    layer), so repeated ``get`` calls for collected fingerprints do not
    re-fetch or re-parse.
    """

    def __init__(
        self,
        url: str,
        token: Optional[str] = None,
        cafile: Optional[str] = None,
        verify: Optional[bool] = None,
    ):
        self._url = url.rstrip("/")
        self._memory: Dict[str, ScenarioResult] = {}
        self._credentials = Credentials.resolve(token=token, cafile=cafile, verify=verify)
        self._context = client_ssl_context(
            self._url, cafile=self._credentials.cafile, verify=self._credentials.verify
        )

    @property
    def url(self) -> str:
        """Base URL of the sweep service."""
        return self._url

    @property
    def credentials(self) -> Credentials:
        """The resolved security settings this client sends with."""
        return self._credentials

    def _call(self, method: str, **params: Any) -> Any:
        return rpc_call(
            self._url,
            method,
            params,
            token=self._credentials.token,
            context=self._context,
        )

    def get(self, fingerprint: str) -> Optional[ScenarioResult]:
        return self.get_many([fingerprint]).get(fingerprint)

    def get_many(self, fingerprints: Iterable[str]) -> Dict[str, ScenarioResult]:
        """Stored results for many fingerprints in one round trip.

        Same contract as :meth:`repro.distributed.SqliteResultStore.get_many`:
        misses and corrupt rows are absent from the returned dict.
        """
        found: Dict[str, ScenarioResult] = {}
        missing: List[str] = []
        for fingerprint in fingerprints:
            result = self._memory.get(fingerprint)
            if result is not None:
                found[fingerprint] = result
            else:
                missing.append(fingerprint)
        if not missing:
            return found
        payloads = self._call("result_get_many", fingerprints=missing)
        for fingerprint, payload in payloads.items():
            try:
                result = result_from_dict(payload)
            except (ValueError, TypeError, KeyError):
                continue  # corrupt row: treat as a miss, like the local stores
            self._memory[fingerprint] = result
            found[fingerprint] = result
        return found

    def put(self, result: ScenarioResult, worker_id: Optional[str] = None) -> None:
        self._memory[result.fingerprint] = result
        self._call("result_put", payload=result.to_dict(), worker_id=worker_id)

    def fingerprints(self) -> Set[str]:
        return set(self._call("result_fingerprints"))

    def clear(self) -> None:
        """Drop the local memo (server rows are left alone)."""
        self._memory.clear()

    def __len__(self) -> int:
        return int(self._call("result_len"))

    def __contains__(self, fingerprint: object) -> bool:
        return isinstance(fingerprint, str) and self.get(fingerprint) is not None

    def close(self) -> None:
        """Nothing to release: calls are independent requests."""

    def __enter__(self) -> "HttpResultStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
