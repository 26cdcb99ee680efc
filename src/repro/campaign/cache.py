"""On-disk content-addressed result store for campaign runs.

Each successful run is stored as one JSON file under the cache
directory, keyed by the :meth:`RunSpec.content_hash` (sharded by the
first two hex digits to keep directories small)::

    .repro-cache/ab/abcdef....json

An entry records the schema version, the spec hash, the spec itself (for
human inspection with ``jq``), and the run payload.  ``get`` treats a
schema-version mismatch, a hash mismatch, or an unreadable/corrupted
file as a miss — never an error — and counts it as an invalidation so
telemetry can distinguish "never ran" from "ran under an old engine".
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional

from repro.campaign.spec import SCHEMA_VERSION, RunSpec

#: Default cache directory, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro-cache"


@dataclass
class CacheStats:
    """Hit/miss/invalidate accounting for one cache instance."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    writes: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "invalidations": self.invalidations, "writes": self.writes}


class ResultCache:
    """Content-addressed store mapping ``RunSpec`` -> result payload."""

    def __init__(self, cache_dir: "str | Path" = DEFAULT_CACHE_DIR):
        self.cache_dir = Path(cache_dir)
        self.stats = CacheStats()

    def path_for(self, spec: RunSpec) -> Path:
        """Where this spec's result lives (whether or not it exists)."""
        h = spec.content_hash()
        return self.cache_dir / h[:2] / f"{h}.json"

    def get(self, spec: RunSpec) -> Optional[Dict[str, Any]]:
        """The cached payload for ``spec``, or ``None`` on any miss.

        Corrupted files and entries written under a different schema
        version are treated as misses (counted as invalidations), so a
        cache survives engine upgrades and partial writes without manual
        cleanup.
        """
        path = self.path_for(spec)
        try:
            raw = path.read_bytes()
        except OSError:
            self.stats.misses += 1
            return None
        try:
            entry = json.loads(raw.decode("utf-8"))
            if not isinstance(entry, dict):
                raise ValueError("cache entry is not an object")
            if entry["schema_version"] != SCHEMA_VERSION:
                raise ValueError("schema version mismatch")
            if entry["spec_hash"] != spec.content_hash():
                raise ValueError("spec hash mismatch")
            payload = entry["payload"]
        except (ValueError, KeyError, TypeError):
            # Unreadable (UnicodeDecodeError is a ValueError) or stale: a
            # miss, plus an invalidation marker.
            self.stats.misses += 1
            self.stats.invalidations += 1
            return None
        self.stats.hits += 1
        return payload

    def put(self, spec: RunSpec, payload: Dict[str, Any]) -> Path:
        """Store ``payload`` for ``spec`` (atomic write-then-rename)."""
        path = self.path_for(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "schema_version": SCHEMA_VERSION,
            "spec_hash": spec.content_hash(),
            "spec": spec.to_json_dict(),
            "created": time.time(),
            "payload": payload,
        }
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(entry, fh, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stats.writes += 1
        return path

    def size(self) -> int:
        """Number of entries currently on disk (manifests excluded)."""
        if not self.cache_dir.is_dir():
            return 0
        return sum(1 for p in self.cache_dir.glob("*/*.json")
                   if not p.name.endswith(".manifest.json"))
