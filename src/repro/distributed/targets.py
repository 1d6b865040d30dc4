"""Queue targets: one string names a sqlite file or a sweep service.

Everything in the distributed subsystem that used to take a database
*path* now takes a *target*:

- ``"queue.sqlite"`` or ``"sqlite:queue.sqlite"`` — a local (or shared
  filesystem) queue database, opened directly via :class:`Broker` /
  :class:`SqliteResultStore`;
- ``"http://host:port"`` or ``https://…`` — a remote
  :mod:`repro.service` broker front-end, reached through
  :class:`~repro.service.HttpBroker` / ``HttpResultStore``.

:func:`open_broker` and :func:`open_store` are the only dispatch points,
so :class:`~repro.distributed.worker.Worker`, ``WorkerPool`` and the
sweep executor run unchanged against either transport.  The service
layer is imported lazily: plain sqlite topologies never load it.  A
target that *looks* like it carries a scheme but matches neither form
raises a :class:`ValueError` that enumerates the valid forms, instead
of being silently treated as a filename.

Credentials ride with the target rather than with the call tree: a
secured service (bearer token, TLS) is reached by passing ``token=`` /
``cafile=`` / ``verify=`` here, or — the way fleets actually do it — by
exporting ``CHRONOS_TOKEN`` (and ``CHRONOS_CAFILE`` for a self-signed
cert) and letting every process in the tree, including spawned workers,
pick them up from the environment (see
:class:`repro.service.security.Credentials`).  Sqlite targets ignore
all three.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Optional, Union

from repro.distributed.broker import Broker
from repro.distributed.leases import LeasePolicy
from repro.distributed.store import SQLITE_PREFIX, SqliteResultStore, normalize_db_path

#: Anything that looks like ``scheme:…`` (two or more scheme characters,
#: so Windows drive letters still parse as paths).
_SCHEME_RE = re.compile(r"^([A-Za-z][A-Za-z0-9+.-]+):")

#: The schemes a queue target may carry, for diagnostics.
VALID_TARGET_FORMS = (
    "a sqlite path ('queue.sqlite' or 'sqlite:queue.sqlite')",
    "an 'http://' or 'https://' sweep-service URL",
)


def is_service_url(target: Union[str, Path]) -> bool:
    """Whether a queue target names an HTTP broker service (vs a file)."""
    text = str(target)
    return text.startswith("http://") or text.startswith("https://")


def _check_sqlite_target(target: Union[str, Path]) -> Union[str, Path]:
    """Reject scheme-carrying targets that no backend recognizes."""
    text = str(target)
    match = _SCHEME_RE.match(text)
    if match and match.group(1).lower() != SQLITE_PREFIX.rstrip(":"):
        raise ValueError(
            f"unknown queue target scheme {match.group(1)!r} in {text!r}; "
            f"valid targets are {', '.join(VALID_TARGET_FORMS)}"
        )
    return target


def open_broker(
    target: Union[str, Path],
    policy: Optional[LeasePolicy] = None,
    *,
    token: Optional[str] = None,
    cafile: Optional[str] = None,
    verify: Optional[bool] = None,
):
    """A broker for a queue target: sqlite or HTTP — same interface.

    For service URLs the returned :class:`~repro.service.HttpBroker`'s
    lease timing is governed by the *server's* policy (it owns the
    database); the ``policy`` argument only seeds the client-side default
    used before the server has been asked.  ``token``/``cafile``/
    ``verify`` authenticate against a secured service, each falling back
    to its environment variable (``CHRONOS_TOKEN`` etc.) when ``None``;
    sqlite targets ignore them.  Unrecognized schemes raise
    :class:`ValueError` naming the valid target forms.
    """
    if is_service_url(target):
        from repro.service import HttpBroker

        return HttpBroker(str(target), policy=policy, token=token, cafile=cafile, verify=verify)
    return Broker(normalize_db_path(_check_sqlite_target(target)), policy=policy)


def open_store(
    target: Union[str, Path],
    *,
    token: Optional[str] = None,
    cafile: Optional[str] = None,
    verify: Optional[bool] = None,
):
    """A result store for a queue target (sqlite or HTTP).

    Credential kwargs behave exactly as in :func:`open_broker`.
    """
    if is_service_url(target):
        from repro.service import HttpResultStore

        return HttpResultStore(str(target), token=token, cafile=cafile, verify=verify)
    return SqliteResultStore(normalize_db_path(_check_sqlite_target(target)))
