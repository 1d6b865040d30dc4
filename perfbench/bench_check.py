"""Output checks: hash the program's reports and count failed scenarios.

A scenario's *payload hash* is the SHA-256 of its canonical
``ScenarioResult.to_dict()`` without ``wall_time_s`` (the only field that
legitimately differs between runs).  A run's *digest* hashes the payload
hashes in spec order.  The three ``tiny-grid.*`` workloads share one
digest per seed: the pool and distributed executors must reproduce the
inline results byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import List, Optional, Sequence

#: Digests recorded with the benchmark, keyed by workload family and seed.
DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"


def payload_hash(result) -> str:
    """Hash of one result's payload, ``wall_time_s`` excluded."""
    payload = result.to_dict()
    payload.pop("wall_time_s", None)
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest(hashes: Sequence[str]) -> str:
    """One digest over the payload hashes, in spec order."""
    return hashlib.sha256("\n".join(hashes).encode("ascii")).hexdigest()


def recorded_digest(family: str, seed: int) -> Optional[str]:
    """The recorded digest for ``family`` at ``seed``, if one was recorded."""
    recorded = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
    return recorded.get(family, {}).get(str(seed))


def failed_scenarios(
    outcome,
    fingerprints: Sequence[str],
    reference: Optional[List[str]],
    expected_digest: Optional[str],
) -> tuple:
    """Check one ``run_specs`` outcome; return ``(failed, payload hashes)``.

    A scenario fails when its result is missing or not at its spec's
    position, when it came back as a cache hit (every measured run is
    cold), or when its payload hash differs from ``reference`` (the
    hashes of an earlier run of the same specs).  When the run's digest
    differs from ``expected_digest`` and no single scenario is to blame,
    every scenario counts as failed.
    """
    total = len(fingerprints)
    results = list(outcome.results)
    if outcome.cache_hits or outcome.failures or outcome.partial or len(results) != total:
        return total, []
    hashes = []
    failed = 0
    for index, (result, fingerprint) in enumerate(zip(results, fingerprints)):
        hashes.append(payload_hash(result))
        if result.fingerprint != fingerprint:
            failed += 1
        elif reference is not None and hashes[index] != reference[index]:
            failed += 1
    if not failed and expected_digest is not None and digest(hashes) != expected_digest:
        failed = total
    return failed, hashes
