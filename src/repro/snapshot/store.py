"""Content-addressed store of warm device images.

One image per warm-up identity.  The identity key is a SHA-256 over the FTL
design name, the full geometry, the FTL config and timing model, the warm-up
recipe (mode, request size, overwrite factor, thread count, seed), the
snapshot format version and a fingerprint of the installed ``repro`` source
tree — so images go stale the moment any simulator code changes, exactly like
the orchestrator's result cache.

Images are published atomically (written to a temp directory, then renamed),
so parallel shard tasks can share one store: the first task to finish warming
materializes the image and every other task restores it, even across worker
processes.  Hit/miss/store counters let tests and ``--dry-run`` assert that a
warm rerun skips every fill phase.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import shutil
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping

from repro.core.base import FTLConfig
from repro.execution.atomic import publish_dir
from repro.nand.geometry import SSDGeometry
from repro.nand.timing import TimingModel
from repro.snapshot.fingerprint import source_fingerprint
from repro.snapshot.serialization import (
    SNAPSHOT_FORMAT_VERSION,
    SnapshotError,
    save_snapshot,
)

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.ssd.device import SSD

__all__ = ["SnapshotStore"]

_MANIFEST = "manifest.json"


class SnapshotStore:
    """Content-addressed on-disk store of warm SSD snapshots."""

    def __init__(self, root: str | Path) -> None:
        # The root is created by the first save, so a store that is only
        # asked what it holds (a dry run) leaves nothing on disk.
        self.root = Path(root)
        #: Successful restores served from the store.
        self.hits = 0
        #: Failed lookups (image absent or unreadable).
        self.misses = 0
        #: Images written by this process.
        self.stores = 0

    # ---------------------------------------------------------------- keying
    @staticmethod
    def key_for(
        *,
        ftl_name: str,
        geometry: SSDGeometry,
        recipe: Mapping[str, Any],
        config: FTLConfig | None = None,
        timing: TimingModel | None = None,
    ) -> str:
        """Content key identifying one warm image.

        ``recipe`` describes the warm-up procedure (mode, io size, overwrite
        factor, threads, seed); it must be JSON-serializable.
        """
        payload = json.dumps(
            {
                "ftl": ftl_name,
                "geometry": asdict(geometry),
                "config": asdict(config if config is not None else FTLConfig()),
                "timing": asdict(timing if timing is not None else TimingModel.femu_default()),
                "recipe": dict(recipe),
                "format": SNAPSHOT_FORMAT_VERSION,
                "source": source_fingerprint(),
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def path_for(self, key: str) -> Path:
        """Directory holding the image for ``key`` (existing or not)."""
        return self.root / key[:32]

    def contains(self, key: str) -> bool:
        """True when a complete image for ``key`` is present."""
        return (self.path_for(key) / _MANIFEST).exists()

    # --------------------------------------------------------------- load/save
    def load(self, key: str) -> "SSD | None":
        """Restore the warm device stored under ``key``, or ``None`` on a miss.

        A corrupt or partially-written image counts as a miss, never as an
        error; the bad directory is deleted so the caller's rewarm can
        republish under this key instead of missing forever.
        """
        from repro.ssd.device import SSD

        if not self.contains(key):
            self.misses += 1
            return None
        try:
            ssd = SSD.restore(self.path_for(key))
        except SnapshotError:
            shutil.rmtree(self.path_for(key), ignore_errors=True)
            self.misses += 1
            return None
        self.hits += 1
        return ssd

    def save(self, key: str, ssd: "SSD") -> Path:
        """Publish a warm device image under ``key`` (atomic, race-tolerant).

        The image is written to a temp directory and promoted via
        :func:`repro.execution.atomic.publish_dir`: if a concurrent task —
        possibly on another host sharing the store — published the same key
        first, the temp copy is simply discarded (content addressing makes
        the copies interchangeable).
        """
        final = self.path_for(key)
        if (final / _MANIFEST).exists():
            return final
        self.root.mkdir(parents=True, exist_ok=True)
        # Unique per (process, thread): concurrent savers must not share a
        # temp dir.
        temp = self.root / f".tmp-{key[:32]}-{os.getpid()}-{threading.get_ident()}"
        save_snapshot(temp, ssd.state_dict())
        if publish_dir(temp, final):
            self.stores += 1
        return final

    # ------------------------------------------------------------- accounting
    def reset_counters(self) -> None:
        """Zero the hit/miss/store counters (test and CLI bookkeeping)."""
        self.hits = 0
        self.misses = 0
        self.stores = 0
