"""The HTTP broker front-end: one process owning the queue database.

:class:`BrokerService` wraps one :class:`~repro.distributed.Broker` and
one :class:`~repro.distributed.SqliteResultStore` behind a method table;
:func:`make_server` mounts it on a stdlib
:class:`~http.server.ThreadingHTTPServer` speaking the JSON protocol of
:mod:`repro.service.protocol`.  The server is the only process that
touches the sqlite file, which is what makes the queue NFS-safe and
multi-host: remote fleets and sweep drivers talk HTTP and never share a
filesystem.

Broker connections are not thread safe, so the service serializes every
operation under one lock.  That is not the bottleneck it sounds like:
each operation is a sub-millisecond sqlite transaction, the server
threads only exist to overlap network I/O, and batch claims
(``claim_many``) amortize the round trip for short scenarios.

The transport hardens on demand: ``token=`` requires ``Authorization:
Bearer …`` on every RPC, ``/status`` and ``/metrics`` request (compared
in constant time; ``/healthz`` stays open for load balancers), and ``certfile=``/
``keyfile=`` wrap the listening socket in an :class:`ssl.SSLContext` so
the queue can cross untrusted networks — see
:mod:`repro.service.security`.

Run it from the CLI (``chronos-experiments serve --db queue.sqlite
--port 8176 --token …``) or embed it::

    server = make_server("queue.sqlite", port=0)   # port 0: pick a free one
    url = f"http://127.0.0.1:{server.server_address[1]}"
    threading.Thread(target=server.serve_forever, daemon=True).start()
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from repro import telemetry
from repro.distributed.broker import Broker
from repro.distributed.leases import LeasePolicy
from repro.distributed.store import SqliteResultStore, normalize_db_path
from repro.service.protocol import (
    HEALTH_PATH,
    METRICS_CONTENT_TYPE,
    METRICS_PATH,
    PROTOCOL_VERSION,
    RPC_PATH,
    STATUS_PATH,
    policy_to_wire,
    record_to_wire,
    task_to_wire,
)
from repro.service.security import bearer_token, server_ssl_context, token_matches


class UnknownMethodError(KeyError):
    """The RPC body named a method the service does not export."""


class BrokerService:
    """Every queue and result-store operation, callable by wire name.

    One instance per served database.  All methods take and return
    JSON-native values only; the lock serializes access to the single
    broker/store connection pair (sqlite brokers are not thread safe,
    and ``ThreadingHTTPServer`` handles each request on its own thread).
    """

    def __init__(self, db: Union[str, Path], policy: Optional[LeasePolicy] = None):
        self._db = normalize_db_path(db)
        self._policy = policy if policy is not None else LeasePolicy()
        self._lock = threading.Lock()
        self._broker = Broker(self._db, policy=self._policy)
        self._store = SqliteResultStore(self._db)
        broker, store = self._broker, self._store
        self._methods: Dict[str, Callable[..., Any]] = {
            # producer side
            "enqueue": broker.enqueue,
            "drain": broker.drain,
            "is_draining": broker.is_draining,
            # consumer side
            "claim": lambda worker_id: task_to_wire(broker.claim(worker_id)),
            "claim_many": lambda worker_id, limit: [
                task_to_wire(task) for task in broker.claim_many(worker_id, int(limit))
            ],
            "heartbeat": broker.heartbeat,
            "complete": broker.complete,
            "complete_many": lambda worker_id, items: broker.complete_many(
                worker_id, [(str(fingerprint), payload) for fingerprint, payload in items]
            ),
            "fail": broker.fail,
            "requeue_expired": lambda now=None, dry_run=False: list(
                broker.requeue_expired(
                    None if now is None else float(now), dry_run=bool(dry_run)
                )
            ),
            "release_worker": lambda worker_id: list(broker.release_worker(worker_id)),
            "release_pending": lambda fingerprints: broker.release_pending(
                [str(fingerprint) for fingerprint in fingerprints]
            ),
            # worker liveness (remote pid travels with the registration)
            "register_worker": broker.register_worker,
            "touch_worker": broker.touch_worker,
            # introspection
            "counts": broker.counts,
            "settled": broker.settled,
            "task": lambda fingerprint: record_to_wire(broker.task(fingerprint)),
            "tasks": lambda status=None: [
                record_to_wire(record) for record in broker.tasks(status)
            ],
            "failed_payloads": lambda: [list(item) for item in broker.failed_payloads()],
            "workers": broker.workers,
            "leased": broker.leased,
            "stats": broker.stats,
            "telemetry_summary": lambda window_s=300.0: broker.telemetry_summary(
                float(window_s)
            ),
            "policy": lambda: policy_to_wire(self._policy),
            # telemetry (JSON snapshot of the same registry /metrics renders)
            "metrics": telemetry.REGISTRY.snapshot,
            # event log (live sweep progress over the wire)
            "events_since": lambda seq=0, limit=500: broker.events_since(
                int(seq), int(limit)
            ),
            "last_event_seq": broker.last_event_seq,
            "record_event": lambda kind, fingerprint=None, worker_id=None, detail=None: (
                broker.record_event(
                    str(kind), fingerprint=fingerprint, worker_id=worker_id, detail=detail
                )
            ),
            "events_for": lambda fingerprint, limit=1000: broker.events_for(
                str(fingerprint), int(limit)
            ),
            "done_watermark": broker.done_watermark,
            "prune_events": lambda before_seq=None: broker.prune_events(
                None if before_seq is None else int(before_seq)
            ),
            # result store
            "result_get": store.get_payload,
            "result_get_many": lambda fingerprints: store.get_payloads(
                [str(fingerprint) for fingerprint in fingerprints]
            ),
            "result_put": lambda payload, worker_id=None: store.put_payload(
                payload, worker_id=worker_id
            ),
            "result_fingerprints": lambda: sorted(store.fingerprints()),
            "result_len": lambda: len(store),
        }

    @property
    def db(self) -> Path:
        """The served queue database."""
        return self._db

    @property
    def policy(self) -> LeasePolicy:
        """The lease policy claims are granted under."""
        return self._policy

    def methods(self) -> List[str]:
        """Names of the exported RPC methods."""
        return sorted(self._methods)

    def call(self, method: str, params: Optional[Dict[str, Any]] = None) -> Any:
        """Invoke one method by wire name under the service lock."""
        handler = self._methods.get(method)
        if handler is None:
            raise UnknownMethodError(method)
        with self._lock:
            return handler(**(params or {}))

    def close(self) -> None:
        """Release the underlying database connections."""
        with self._lock:
            self._broker.close()
            self._store.close()


class ServiceHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server carrying its :class:`BrokerService`.

    ``token`` (when set) is the bearer token every RPC and status
    request must present; ``tls`` records whether the listening socket
    was wrapped by :func:`make_server` (reported by ``/healthz`` so
    clients and health checks can tell the schemes apart).
    """

    daemon_threads = True
    #: Tolerate a burst of fleet connections beyond the default backlog.
    request_queue_size = 32

    def __init__(self, address, handler, service: BrokerService, token: Optional[str] = None):
        self.service = service
        self.token = token
        self.tls = False
        super().__init__(address, handler)

    def server_close(self) -> None:  # releases sqlite handles with the socket
        super().server_close()
        self.service.close()


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """Dispatch ``POST /rpc`` bodies to the service; quiet by default."""

    server_version = "chronos-sweep-service/1"
    protocol_version = "HTTP/1.1"  # keep-alive; responses carry Content-Length

    def _authorized(self) -> bool:
        """Check the request's bearer token against the server's.

        Uses the constant-time comparison of
        :func:`repro.service.security.token_matches`, so the rejection
        path leaks nothing about how close a guess came.  Servers
        without a configured token accept everything (PR 3 behaviour).
        """
        return token_matches(self.server.token, bearer_token(self.headers))

    def _reject_unauthorized(self) -> None:
        """Answer 401 with the standard challenge header.

        The unread request body is drained first: under HTTP/1.1
        keep-alive, leftover body bytes would be parsed as the *next*
        request line, desynchronizing the connection.  Oversized bodies
        are not worth reading for a rejected request — drop the
        connection instead.
        """
        try:
            length = int(self.headers.get("Content-Length", 0))
        except (TypeError, ValueError):
            length = 0
        if 0 < length <= (1 << 20):
            self.rfile.read(length)
        elif length != 0:
            self.close_connection = True
        data = json.dumps(
            {"error": "authentication required: send 'Authorization: Bearer <token>'"}
        ).encode("utf-8")
        try:
            self.send_response(401)
            self.send_header("WWW-Authenticate", 'Bearer realm="chronos-sweep-service"')
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)
        except (BrokenPipeError, ConnectionResetError):
            pass

    def do_POST(self) -> None:  # noqa: N802 (stdlib handler naming)
        if self.path != RPC_PATH:
            self._send_json(404, {"error": f"no such endpoint: {self.path}"})
            return
        if not self._authorized():
            self._reject_unauthorized()
            return
        try:
            length = int(self.headers.get("Content-Length", 0))
            body = json.loads(self.rfile.read(length).decode("utf-8"))
            method = body["method"]
            params = body.get("params") or {}
            if not isinstance(params, dict):
                raise TypeError("params must be an object")
        except Exception as error:
            self._send_json(400, {"error": f"malformed RPC request: {error}"})
            return
        try:
            result = self.server.service.call(method, params)
        except UnknownMethodError:
            self._send_json(
                400,
                {
                    "error": f"unknown method {method!r}",
                    "available": self.server.service.methods(),
                },
            )
        except (TypeError, ValueError) as error:
            self._send_json(400, {"error": f"{type(error).__name__}: {error}"})
        except Exception as error:  # surface server faults, don't kill the thread
            self._send_json(500, {"error": f"{type(error).__name__}: {error}"})
        else:
            self._send_json(200, {"result": result})

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler naming)
        if self.path == HEALTH_PATH:
            # Liveness stays token-free: load balancers, CI wait loops
            # and `curl /healthz` need no secret to ask "are you up?".
            self._send_json(
                200,
                {
                    "ok": True,
                    "protocol": PROTOCOL_VERSION,
                    "db": str(self.server.service.db),
                    "auth": self.server.token is not None,
                    "tls": self.server.tls,
                },
            )
        elif self.path == STATUS_PATH:
            if not self._authorized():
                self._reject_unauthorized()
                return
            try:
                self._send_json(200, self.server.service.call("stats"))
            except Exception as error:
                self._send_json(500, {"error": f"{type(error).__name__}: {error}"})
        elif self.path == METRICS_PATH:
            # Same trust boundary as /status: queue depths, failure counts
            # and worker throughput are operational intelligence.
            if not self._authorized():
                self._reject_unauthorized()
                return
            try:
                # Refresh the queue-depth gauges so a scrape sees current
                # depths even when no CLI has asked for counts recently.
                self.server.service.call("counts")
                body = telemetry.REGISTRY.render().encode("utf-8")
            except Exception as error:
                self._send_json(500, {"error": f"{type(error).__name__}: {error}"})
                return
            try:
                self.send_response(200)
                self.send_header("Content-Type", METRICS_CONTENT_TYPE)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)
            except (BrokenPipeError, ConnectionResetError):
                pass
        else:
            self._send_json(404, {"error": f"no such endpoint: {self.path}"})

    def _send_json(self, code: int, payload: Dict[str, Any]) -> None:
        data = json.dumps(payload).encode("utf-8")
        try:
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-response; nothing to salvage

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # request logging off: workers poll, and stdout is the CLI's


def make_server(
    db: Union[str, Path],
    host: str = "127.0.0.1",
    port: int = 8176,
    policy: Optional[LeasePolicy] = None,
    token: Optional[str] = None,
    certfile: Optional[Union[str, Path]] = None,
    keyfile: Optional[Union[str, Path]] = None,
) -> ServiceHTTPServer:
    """Build (but do not start) a service bound to ``host:port``.

    ``port=0`` binds an ephemeral free port; read the real one from
    ``server.server_address[1]``.  Call ``serve_forever()`` to run and
    ``shutdown()`` + ``server_close()`` to stop.

    ``token`` requires ``Authorization: Bearer <token>`` on every RPC,
    ``/status`` and ``/metrics`` request (``/healthz`` stays open); ``certfile`` (with
    an optional separate ``keyfile``) wraps the listening socket in TLS,
    making the service an ``https://`` target.  Bad cert material fails
    here, at startup, not at the first client handshake.
    """
    if keyfile is not None and certfile is None:
        raise ValueError("keyfile requires certfile (the certificate to serve)")
    service = BrokerService(db, policy=policy)
    try:
        server = ServiceHTTPServer((host, port), ServiceRequestHandler, service, token=token)
    except BaseException:
        service.close()
        raise
    if certfile is not None:
        try:
            context = server_ssl_context(str(certfile), None if keyfile is None else str(keyfile))
            server.socket = context.wrap_socket(server.socket, server_side=True)
            server.tls = True
        except BaseException:
            server.server_close()
            raise
    return server


def serve(
    db: Union[str, Path],
    host: str = "127.0.0.1",
    port: int = 8176,
    policy: Optional[LeasePolicy] = None,
    token: Optional[str] = None,
    certfile: Optional[Union[str, Path]] = None,
    keyfile: Optional[Union[str, Path]] = None,
) -> None:
    """Blocking convenience wrapper: build a server and run it forever."""
    server = make_server(
        db, host=host, port=port, policy=policy, token=token, certfile=certfile, keyfile=keyfile
    )
    try:
        server.serve_forever()
    finally:
        server.server_close()
