"""Sqlite persistence layer of the distributed sweep subsystem.

One database file holds everything a distributed run needs: the durable
task queue (``tasks``), the content-addressed result store (``results``),
worker liveness records (``workers``) and a tiny ``control`` key/value
table (used by ``drain``).  The file is opened in WAL mode so one writer
and many readers — broker, workers and the supervising parent — can share
it without blocking each other.

:class:`SqliteResultStore` is the piece visible outside this package: a
drop-in replacement for :class:`repro.api.ResultCache` (same ``get`` /
``put`` / ``clear`` / ``in`` / ``len`` surface) that keeps every scenario
result as one row instead of one JSON file per fingerprint, so sweeps of
thousands of scenarios do not degenerate into directory scans.

Alongside the full JSON blobs, the store maintains a *columnar*
``summaries`` table — one flat row of scalar metrics per fingerprint,
written on :meth:`SqliteResultStore.put_payload` and backfilled lazily
for rows that predate it (or that the broker wrote directly) — so
``chronos-experiments export --columns ...`` and analysis queries are
plain SQL column selects instead of a parse of every result blob.
"""

from __future__ import annotations

import json
import sqlite3
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Union

from repro.api.facade import ScenarioResult, result_from_dict
from repro.simulator.metrics import net_utility
from repro.strategies import StrategyParameters

#: Milliseconds a connection waits on a locked database before failing.
BUSY_TIMEOUT_MS = 10_000

#: Optional scheme prefix accepted wherever a queue database path is taken
#: (``db="sqlite:queue.sqlite"``), mirroring the ``http://`` broker URLs of
#: :mod:`repro.service`.
SQLITE_PREFIX = "sqlite:"


def normalize_db_path(target: Union[str, Path]) -> Path:
    """A queue-database target as a filesystem path (``sqlite:`` stripped)."""
    text = str(target)
    if text.startswith(SQLITE_PREFIX):
        text = text[len(SQLITE_PREFIX):]
    return Path(text)

#: Fingerprints per ``IN (...)`` query of :meth:`SqliteResultStore.get_payloads`,
#: well below sqlite's bound on host parameters (999 before 3.32).
IN_CHUNK = 500

# ``idx_tasks_claim`` covers the claim query's whole ``ORDER BY``: a sweep
# enqueues every task with one ``enqueued_at``, so an index on
# ``(status, enqueued_at)`` alone made each claim sort every pending row.
# Databases created with that older index get it dropped on open.
SCHEMA = """
CREATE TABLE IF NOT EXISTS tasks (
    fingerprint     TEXT PRIMARY KEY,
    payload         TEXT NOT NULL,
    status          TEXT NOT NULL DEFAULT 'pending',
    attempts        INTEGER NOT NULL DEFAULT 0,
    max_attempts    INTEGER NOT NULL DEFAULT 3,
    lease_owner     TEXT,
    lease_expires_at REAL,
    error           TEXT,
    enqueued_at     REAL NOT NULL,
    updated_at      REAL NOT NULL
);
DROP INDEX IF EXISTS idx_tasks_status;
CREATE INDEX IF NOT EXISTS idx_tasks_claim ON tasks(status, enqueued_at, fingerprint);
CREATE TABLE IF NOT EXISTS results (
    fingerprint TEXT PRIMARY KEY,
    payload     TEXT NOT NULL,
    worker_id   TEXT,
    created_at  REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS workers (
    worker_id    TEXT PRIMARY KEY,
    pid          INTEGER,
    started_at   REAL NOT NULL,
    last_seen_at REAL NOT NULL,
    tasks_done   INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS control (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS events (
    seq         INTEGER PRIMARY KEY AUTOINCREMENT,
    ts          REAL NOT NULL,
    kind        TEXT NOT NULL,
    fingerprint TEXT,
    worker_id   TEXT,
    detail      TEXT
);
CREATE TABLE IF NOT EXISTS summaries (
    fingerprint        TEXT PRIMARY KEY,
    workload           TEXT,
    strategy           TEXT,
    estimator          TEXT,
    seed               INTEGER,
    num_jobs           INTEGER,
    pocd               REAL,
    mean_cost          REAL,
    mean_machine_time  REAL,
    mean_response_time REAL,
    utility            REAL,
    wall_time_s        REAL
);
"""


#: Columns of the ``summaries`` table, in order — kept identical to
#: :attr:`repro.api.SweepResult.COLUMNS` so CSV exports line up whether
#: they came from a live sweep or a SQL column select.
SUMMARY_COLUMNS = (
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

#: Default strategy parameters: the utility column needs r_min_pocd and
#: theta even for payloads that omit them.
_DEFAULT_PARAMS = StrategyParameters()


def summary_from_payload(
    payload: Mapping[str, Any], fingerprint: Optional[str] = None
) -> Optional[Dict[str, Any]]:
    """Flatten a result payload into one :data:`SUMMARY_COLUMNS` row.

    Works on the raw JSON dict — no :class:`ScenarioResult` parse, so the
    write path stays cheap — and mirrors
    :meth:`repro.api.SweepResult.to_rows` (the utility column shares
    :func:`repro.simulator.metrics.net_utility`).  Returns ``None`` for a
    payload missing the required structure; corrupt rows stay summary-
    less rather than raising.
    """
    try:
        spec = payload["spec"]
        report = payload["report"]
        if spec.get("kind") == "cluster":
            # Cluster payloads nest the flat metrics one level down and
            # label rows by arrival model + admission scheduler.
            workload = f"cluster:{spec['arrival']['kind']}"
            strategy = str(spec["scheduler"])
            report = report["simulation"]
        else:
            workload = str(spec["workload"]["kind"])
            strategy = str(spec["strategy"])
        params = spec.get("strategy_params") or {}
        r_min_pocd = float(params.get("r_min_pocd", _DEFAULT_PARAMS.r_min_pocd))
        theta = float(params.get("theta", _DEFAULT_PARAMS.theta))
        pocd = float(report["pocd"])
        mean_cost = float(report["mean_cost"])
        return {
            "fingerprint": str(
                payload["fingerprint"] if fingerprint is None else fingerprint
            ),
            "workload": workload,
            "strategy": strategy,
            "estimator": str(spec.get("estimator") or "default"),
            "seed": int(spec.get("seed", 0)),
            "num_jobs": int(report["num_jobs"]),
            "pocd": pocd,
            "mean_cost": mean_cost,
            "mean_machine_time": float(report["mean_machine_time"]),
            "mean_response_time": float(report["mean_response_time"]),
            "utility": net_utility(pocd, mean_cost, r_min_pocd=r_min_pocd, theta=theta),
            "wall_time_s": float(payload.get("wall_time_s", 0.0)),
        }
    except (AttributeError, KeyError, TypeError, ValueError):
        return None


def _enable_wal(conn: sqlite3.Connection) -> None:
    """Switch the database to WAL, waiting out a concurrent first opener.

    While another process converts a fresh database to WAL, the pragma
    fails with ``database is locked`` at once — sqlite does not run the
    busy handler for it — so retry it for up to the busy timeout.
    """
    deadline = time.monotonic() + BUSY_TIMEOUT_MS / 1000.0
    while True:
        try:
            conn.execute("PRAGMA journal_mode = WAL")
            return
        except sqlite3.OperationalError as error:
            if "locked" not in str(error) or time.monotonic() >= deadline:
                raise
            time.sleep(0.01)


def connect(path: Union[str, Path]) -> sqlite3.Connection:
    """Open (creating if needed) a queue database in WAL mode.

    Every process — broker, worker, heartbeat thread — gets its own
    connection; sqlite's WAL journal plus a generous busy timeout does the
    cross-process coordination.
    """
    path = normalize_db_path(path)
    if path.parent != Path("."):
        path.parent.mkdir(parents=True, exist_ok=True)
    # Autocommit mode: transactions are opened explicitly (BEGIN IMMEDIATE)
    # where read-then-write atomicity matters, instead of relying on
    # pysqlite's implicit transaction sniffing.  check_same_thread is off
    # because owners that *do* cross threads (the HTTP front-end's handler
    # threads) serialize every call under their own lock; everyone else
    # keeps the one-connection-per-thread discipline.
    conn = sqlite3.connect(
        str(path),
        timeout=BUSY_TIMEOUT_MS / 1000.0,
        isolation_level=None,
        check_same_thread=False,
    )
    conn.row_factory = sqlite3.Row
    conn.execute(f"PRAGMA busy_timeout = {BUSY_TIMEOUT_MS}")
    _enable_wal(conn)
    conn.execute("PRAGMA synchronous = NORMAL")
    conn.executescript(SCHEMA)
    conn.commit()
    return conn


class SqliteResultStore:
    """Fingerprint-keyed scenario results in one sqlite database.

    Implements the same protocol as :class:`repro.api.ResultCache`, so it
    can be passed anywhere a cache is accepted (``run_specs(...,
    cache=SqliteResultStore("queue.sqlite"))``).  Rows are written inside
    a transaction (no partially-written JSON, unlike a naive file-per-
    fingerprint layout) and shared with the broker's queue tables, which
    is what lets a re-run of a distributed sweep answer every scenario
    without executing anything.
    """

    def __init__(self, path: Union[str, Path]):
        self._path = normalize_db_path(path)
        self._conn = connect(self._path)
        self._memory: Dict[str, ScenarioResult] = {}

    @property
    def path(self) -> Path:
        """Location of the backing database file."""
        return self._path

    def get(self, fingerprint: str) -> Optional[ScenarioResult]:
        """The stored result for a fingerprint, or ``None`` on a miss."""
        return self.get_many([fingerprint]).get(fingerprint)

    def get_many(self, fingerprints: Iterable[str]) -> Dict[str, ScenarioResult]:
        """Stored results for many fingerprints, as ``{fingerprint: result}``.

        Misses are simply absent, and so are corrupt rows (treated as a
        miss, like :class:`~repro.api.ResultCache`).  Fingerprints not yet
        memoized are read with one ``IN (...)`` query per
        :data:`IN_CHUNK` of them, not one point read each.
        """
        found: Dict[str, ScenarioResult] = {}
        missing: List[str] = []
        for fingerprint in fingerprints:
            result = self._memory.get(fingerprint)
            if result is not None:
                found[fingerprint] = result
            else:
                missing.append(fingerprint)
        for fingerprint, payload in self.get_payloads(missing).items():
            try:
                result = result_from_dict(payload)
            except (ValueError, TypeError, KeyError):
                continue
            self._memory[fingerprint] = result
            found[fingerprint] = result
        return found

    def get_payload(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """The raw stored result payload (no :class:`ScenarioResult` parse).

        This is what the HTTP front-end serves: the wire format is the
        stored JSON itself, so the server never pays deserialization for
        results it only relays.  Corrupt rows are a miss, like :meth:`get`.
        """
        return self.get_payloads([fingerprint]).get(fingerprint)

    def get_payloads(self, fingerprints: Iterable[str]) -> Dict[str, Dict[str, Any]]:
        """Raw stored payloads for many fingerprints (misses and corrupt rows absent)."""
        wanted = list(dict.fromkeys(fingerprints))
        payloads: Dict[str, Dict[str, Any]] = {}
        for start in range(0, len(wanted), IN_CHUNK):
            chunk = wanted[start:start + IN_CHUNK]
            rows = self._conn.execute(
                "SELECT fingerprint, payload FROM results WHERE fingerprint IN "
                f"({', '.join('?' * len(chunk))})",
                chunk,
            ).fetchall()
            for row in rows:
                try:
                    payload = json.loads(row["payload"])
                except ValueError:
                    continue
                if isinstance(payload, dict):
                    payloads[row["fingerprint"]] = payload
        return payloads

    def put(self, result: ScenarioResult, worker_id: Optional[str] = None) -> None:
        """Store a result under its fingerprint (idempotent upsert)."""
        self._memory[result.fingerprint] = result
        self.put_payload(result.to_dict(), worker_id=worker_id, fingerprint=result.fingerprint)

    def put_payload(
        self,
        payload: Dict[str, Any],
        worker_id: Optional[str] = None,
        fingerprint: Optional[str] = None,
    ) -> None:
        """Store an already-serialized result dict (the HTTP server's path).

        Also writes the row's columnar summary (see :data:`SUMMARY_COLUMNS`)
        in the same statement batch; rows written by other paths — the
        broker's ``complete``, or databases from before the summaries
        table existed — are backfilled lazily by :meth:`summary_rows`.
        """
        if fingerprint is None:
            fingerprint = str(payload["fingerprint"])
        self._conn.execute(
            "INSERT OR REPLACE INTO results (fingerprint, payload, worker_id, created_at) "
            "VALUES (?, ?, ?, ?)",
            (fingerprint, json.dumps(payload), worker_id, time.time()),
        )
        summary = summary_from_payload(payload, fingerprint=fingerprint)
        if summary is not None:
            self._write_summary(summary)
        self._conn.commit()

    def _write_summary(self, summary: Mapping[str, Any]) -> None:
        placeholders = ", ".join("?" for _ in SUMMARY_COLUMNS)
        self._conn.execute(
            f"INSERT OR REPLACE INTO summaries ({', '.join(SUMMARY_COLUMNS)}) "
            f"VALUES ({placeholders})",
            tuple(summary[column] for column in SUMMARY_COLUMNS),
        )

    def backfill_summaries(self) -> int:
        """Compute summaries for result rows that do not have one yet.

        Covers rows written by the broker's ``complete`` (which stores the
        raw payload without parsing it) and databases that predate the
        summaries table.  Returns how many rows were backfilled; corrupt
        payloads are skipped, exactly like :meth:`results` skips them.
        """
        rows = self._conn.execute(
            "SELECT r.fingerprint, r.payload FROM results r "
            "LEFT JOIN summaries s ON s.fingerprint = r.fingerprint "
            "WHERE s.fingerprint IS NULL"
        ).fetchall()
        written = 0
        for row in rows:
            try:
                payload = json.loads(row["payload"])
            except ValueError:
                continue
            if not isinstance(payload, dict):
                continue
            summary = summary_from_payload(payload, fingerprint=row["fingerprint"])
            if summary is None:
                continue
            self._write_summary(summary)
            written += 1
        if written:
            self._conn.commit()
        return written

    def summary_rows(
        self, columns: Optional[Iterable[str]] = None
    ) -> List[Dict[str, Any]]:
        """Columnar summaries, one dict per stored result (insertion order).

        ``columns`` selects a subset of :data:`SUMMARY_COLUMNS` — the
        selection is pushed down to SQL, so asking for two columns of a
        10⁵-row store reads two columns, not 10⁵ JSON blobs.  Unknown
        column names raise :class:`ValueError`.  Old rows are backfilled
        first, so the answer is complete regardless of who wrote them.
        """
        if columns is None:
            selected = list(SUMMARY_COLUMNS)
        else:
            selected = list(columns)
            unknown = [column for column in selected if column not in SUMMARY_COLUMNS]
            if unknown:
                raise ValueError(
                    f"unknown summary column(s) {', '.join(unknown)} "
                    f"(available: {', '.join(SUMMARY_COLUMNS)})"
                )
            if not selected:
                raise ValueError("columns must name at least one summary column")
        self.backfill_summaries()
        rows = self._conn.execute(
            "SELECT " + ", ".join(f"s.{column}" for column in selected) + " "
            "FROM summaries s JOIN results r ON r.fingerprint = s.fingerprint "
            "ORDER BY r.created_at, s.fingerprint"
        ).fetchall()
        return [{column: row[column] for column in selected} for row in rows]

    def fingerprints(self) -> set:
        """All stored fingerprints in one query (cheap presence check)."""
        rows = self._conn.execute("SELECT fingerprint FROM results").fetchall()
        return {row["fingerprint"] for row in rows}

    def results(self) -> List[ScenarioResult]:
        """Every stored result, in insertion order (skipping corrupt rows).

        This is the export path (``chronos-experiments export``): a full
        scan parsed into :class:`ScenarioResult` objects, ready to wrap in
        a :class:`repro.api.SweepResult` for tabular output.
        """
        rows = self._conn.execute(
            "SELECT fingerprint, payload FROM results ORDER BY created_at, fingerprint"
        ).fetchall()
        parsed: List[ScenarioResult] = []
        for row in rows:
            cached = self._memory.get(row["fingerprint"])
            if cached is not None:
                parsed.append(cached)
                continue
            try:
                result = result_from_dict(json.loads(row["payload"]))
            except (ValueError, TypeError, KeyError):
                continue
            self._memory[result.fingerprint] = result
            parsed.append(result)
        return parsed

    def clear(self) -> None:
        """Drop the in-memory layer (database rows are left alone)."""
        self._memory.clear()

    def __len__(self) -> int:
        row = self._conn.execute("SELECT COUNT(*) AS n FROM results").fetchone()
        return int(row["n"])

    def __contains__(self, fingerprint: object) -> bool:
        return isinstance(fingerprint, str) and self.get(fingerprint) is not None

    def close(self) -> None:
        """Close the underlying connection (further calls will fail)."""
        self._conn.close()

    def __enter__(self) -> "SqliteResultStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
