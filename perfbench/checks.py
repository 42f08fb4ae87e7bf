"""Output checks shared by every workload.

Three kinds, all exact (integer counters, no float tolerance):

* every cell's ``CacheStats`` — and ``MissPathStats`` when a chain is
  attached — obeys :mod:`repro.core.conservation`;
* a seeded sample of cells, simulated again on an independent engine,
  reproduces every counter;
* at the default seed, a digest of all counters equals the one
  ``run.py --record-digest`` stored in ``digests.json``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.core.config import CacheGeometry
from repro.core.conservation import (
    check_misspath_conservation,
    check_stats_conservation,
)

__all__ = [
    "DIGESTS_PATH",
    "compare_counters",
    "conservation_failures",
    "counters_digest",
    "digest_failures",
    "record_digest",
]

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"


def conservation_failures(
    label: str, stats: Any, geometry: CacheGeometry, word_size: int
) -> List[str]:
    """Every conservation law ``stats`` breaks, prefixed with ``label``."""
    violations = check_stats_conservation(stats, geometry, word_size)
    if stats.misspath is not None:
        violations += check_misspath_conservation(stats.misspath, stats)
    return [f"{label}: {violation}" for violation in violations]


def compare_counters(
    label: str, expected: Dict[str, Any], observed: Dict[str, Any]
) -> List[str]:
    """Every counter that differs between two ``to_dict`` dumps."""
    return [
        f"{label}: {key} {observed.get(key)!r} != {expected.get(key)!r}"
        for key in sorted(set(expected) | set(observed))
        if expected.get(key) != observed.get(key)
    ]


def counters_digest(counters: Dict[str, Dict[str, Any]]) -> str:
    """sha256 of every cell's counters, keyed by a stable cell label."""
    text = json.dumps(counters, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _recorded() -> Dict[str, str]:
    if not DIGESTS_PATH.exists():
        return {}
    return json.loads(DIGESTS_PATH.read_text())


def digest_failures(workload: str, digest: str) -> List[str]:
    """Default-seed check: ``digest`` must equal the recorded one."""
    expected: Optional[str] = _recorded().get(workload)
    if expected is None:
        return [f"{workload}: no digest recorded in {DIGESTS_PATH.name}"]
    if expected != digest:
        return [f"{workload}: counter digest {digest} != recorded {expected}"]
    return []


def record_digest(workload: str, digest: str) -> None:
    """Store the digest a default-seed run just computed."""
    digests = _recorded()
    digests[workload] = digest
    DIGESTS_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
