"""Run manifests: the provenance record written next to every result.

The paper's numbers are only meaningful with their measurement context
(kernel version, testbed, RAPL sampling setup — Section VI); ours are
only reproducible with theirs: which code (git SHA), which toolchain
(python/numpy versions), which run (spec hash, seed), and what the
instruments read at the end (final metrics snapshot).  A
:class:`RunManifest` captures exactly that as one small JSON document,
written alongside campaign results and beside a figure run's ``--trace``
shard (or to ``--manifest FILE``) — the only file a run's metrics
snapshot is written to — and readable back via :meth:`RunManifest.load`
or ``python -m repro obs report``.
"""

from __future__ import annotations

import json
import os
import platform as _platform
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, Optional

__all__ = ["MANIFEST_SCHEMA", "RunManifest", "git_sha"]

#: Bump when the manifest document shape changes.
MANIFEST_SCHEMA = "repro.obs.manifest/1"


@lru_cache(maxsize=1)
def git_sha() -> Optional[str]:
    """The repository HEAD SHA, or None outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True, text=True, timeout=5, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


@lru_cache(maxsize=1)
def _numpy_version() -> Optional[str]:
    """The numpy this process runs on or would load — read without
    importing it: a stdlib-tier process (``repro serve``) captures its
    manifest inside the event loop, where that import would hold every
    connection's ACKs for 0.15-0.3 s and keep 11 MiB for good."""
    loaded = sys.modules.get("numpy")
    if loaded is not None:
        return loaded.__version__
    from importlib import metadata

    try:
        return metadata.version("numpy")
    except metadata.PackageNotFoundError:
        return None


@dataclass
class RunManifest:
    """Provenance + final metrics for one run."""

    schema: str = MANIFEST_SCHEMA
    #: Human label ("fig08", a campaign name, ...).
    label: str = ""
    #: RunSpec content hash, or a derived hash for non-campaign runs.
    spec_hash: Optional[str] = None
    #: Primary seed of the run, when one exists.
    seed: Optional[int] = None
    git_sha: Optional[str] = None
    python_version: str = ""
    numpy_version: Optional[str] = None
    platform: str = ""
    #: Logical CPUs on the capturing host — load-bearing for interpreting
    #: benchmark numbers; absent (None) in pre-bench manifests.
    cpu_count: Optional[int] = None
    #: Unix timestamp of capture.
    created_unix: float = 0.0
    #: Final metrics snapshot (the registry's :meth:`snapshot` schema).
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: Free-form run annotations (duration, topology, CLI flags, ...).
    annotations: Dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------- creation

    @classmethod
    def capture(
        cls,
        *,
        label: str = "",
        spec_hash: Optional[str] = None,
        seed: Optional[int] = None,
        metrics: Optional[Dict[str, Any]] = None,
        annotations: Optional[Dict[str, Any]] = None,
    ) -> "RunManifest":
        """A manifest of the current process environment plus the given
        run identity and final metrics."""
        return cls(
            label=label,
            spec_hash=spec_hash,
            seed=seed,
            git_sha=git_sha(),
            python_version=".".join(str(v) for v in sys.version_info[:3]),
            numpy_version=_numpy_version(),
            platform=_platform.platform(),
            cpu_count=os.cpu_count(),
            created_unix=time.time(),
            metrics=dict(metrics) if metrics else {},
            annotations=dict(annotations) if annotations else {},
        )

    # -------------------------------------------------------- serialization

    def to_json_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, data: Dict[str, Any]) -> "RunManifest":
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown manifest fields: {sorted(unknown)}")
        return cls(**data)

    def write(self, path: "str | Path") -> Path:
        """Write the manifest as pretty-printed JSON; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )
        return path

    @classmethod
    def load(cls, path: "str | Path") -> "RunManifest":
        """Read a manifest back; raises ValueError on a foreign document."""
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(data, dict) or data.get("schema") != MANIFEST_SCHEMA:
            raise ValueError(f"{path} is not a {MANIFEST_SCHEMA} document")
        return cls.from_json_dict(data)
