"""On-disk snapshot format: versioned JSON manifest + NumPy ``.npz`` columns.

A snapshot is a directory of two files:

* ``manifest.json`` — ``{"format": N, "state": <nested structure>}``.  The
  state is the nested ``state_dict()`` tree produced by the device; every
  :class:`numpy.ndarray` leaf is replaced by an ``{"__ndarray__": key}``
  placeholder.
* ``arrays.npz`` — the array leaves, one ``<key>.npy`` member per placeholder
  key, each deflated at zlib level 1.

The split keeps the big flat columns (flash page state, the mapping
directory's int64 array, model bitmaps, latency populations) in binary NumPy
buffers while everything else — allocator free lists, LRU orders, counters —
stays human-inspectable JSON.  The format version is part of both the manifest
and the snapshot-store cache key, so a format change can never load (or hit)
a stale image.

**The archive writer.**  :func:`save_snapshot` writes ``arrays.npz`` itself
(:class:`zipfile.ZipFile` + :func:`numpy.lib.format.write_array`, pickling
off) because ``np.savez_compressed`` is fixed at zlib level 6, and level 6
was 62 % of a checkpointed replay's wall time.  The file is still a plain
``.npz``: ``np.load`` reads it, and archives written by ``np.savez_compressed``
(every image before this writer) load here unchanged.  Measured on the
ledger's ``trace_replay`` device after one round (34 columns, 8.88 MB raw;
median of 7):

==================================  =======  =======  =============
writer                              save ms  load ms  bytes on disk
==================================  =======  =======  =============
``np.savez_compressed`` (level 6)       339       33        1.10 MB
**deflate level 1 (this writer)**        71       32        1.03 MB
deflate level 2                          63       29        1.14 MB
deflate level 3                         111       30        1.14 MB
``ZIP_STORED``                           22       14        8.88 MB
==================================  =======  =======  =============

Level 1 is 5x faster than level 6 and *smaller* on these columns.  Storing
uncompressed would buy another fifth of replay throughput (44k against 36k
requests/s on the ledger's ``trace_replay``, three seeds) for 8.6x the bytes
in every run directory, CI cache and shared snapshot store.  The level is
therefore a constant of the format's one writer, not a parameter.

**The corruption contract.**  :func:`load_snapshot` raises
:class:`SnapshotError`, naming the snapshot path (and the column, for a bad
archive member) with the cause chained, for *every* failure to read an image:
a missing or truncated file, malformed JSON, a manifest of the wrong shape or
format version, a placeholder whose member is absent, and any error opening
the archive or decompressing, CRC-checking and parsing a member — whatever
``zipfile``, ``zlib`` or NumPy's header parser happen to raise for it.  Each
member is read to its end so zip's CRC-32 covers every byte of every column: a
damaged archive either is refused or loads bit-identically (the damage hit a
field nothing reads), never loads different data.  ``manifest.json`` carries no
checksum, so damage there is seen only if it breaks the file's encoding, JSON
syntax or structure.  Callers rely on the single exception type: the snapshot
store counts a refused image as a miss and repairs it, and a replay resume
skips a refused checkpoint for the previous one.
"""

from __future__ import annotations

import json
import zipfile
from pathlib import Path
from typing import Any

import numpy as np
from numpy.lib.format import read_array, write_array

__all__ = [
    "SNAPSHOT_FORMAT_VERSION",
    "SnapshotError",
    "save_snapshot",
    "load_snapshot",
]

#: Version of the snapshot directory layout and of every layer's state schema.
#: Bump whenever a ``state_dict()`` shape changes.
SNAPSHOT_FORMAT_VERSION = 1

_MANIFEST = "manifest.json"
_ARRAYS = "arrays.npz"
_NDARRAY_KEY = "__ndarray__"
#: zlib level of every ``arrays.npz`` member.  A constant, not an option: the
#: module docstring holds the measurement that chose it.
_DEFLATE_LEVEL = 1


class SnapshotError(RuntimeError):
    """A snapshot could not be written, read or applied."""


def _flatten(value: Any, arrays: dict[str, np.ndarray]) -> Any:
    """Replace ndarray leaves with placeholders, collecting them into ``arrays``."""
    if isinstance(value, np.ndarray):
        if value.dtype.hasobject:
            # An object column would have to be pickled, which load refuses.
            raise SnapshotError(f"ndarray of dtype {value.dtype} is not serializable")
        key = f"a{len(arrays)}"
        arrays[key] = value
        return {_NDARRAY_KEY: key}
    if isinstance(value, dict):
        flattened = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise SnapshotError(f"state keys must be strings, got {key!r}")
            flattened[key] = _flatten(item, arrays)
        return flattened
    if isinstance(value, (list, tuple)):
        return [_flatten(item, arrays) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise SnapshotError(f"state value of type {type(value).__name__} is not serializable")


def _inflate(value: Any, archive: zipfile.ZipFile, path: Path) -> Any:
    """Inverse of :func:`_flatten`: resolve placeholders back into arrays."""
    if isinstance(value, dict):
        if set(value) == {_NDARRAY_KEY}:
            return _read_column(archive, value[_NDARRAY_KEY], path)
        return {key: _inflate(item, archive, path) for key, item in value.items()}
    if isinstance(value, list):
        return [_inflate(item, archive, path) for item in value]
    return value


def _read_column(archive: zipfile.ZipFile, key: Any, path: Path) -> np.ndarray:
    """Decompress, CRC-check and parse the archive member behind one placeholder."""
    try:
        with archive.open(f"{key}.npy") as member:
            column = read_array(member, allow_pickle=False)
            # zipfile checks a member's CRC-32 only once it has been read to
            # its end, and read_array stops where the header's shape says.
            if member.read(1):
                raise ValueError("the member holds bytes beyond its array")
            return column
    except Exception as exc:
        # The corruption boundary.  A damaged (or absent) member surfaces from
        # zipfile, zlib or NumPy's header parser as whatever each happens to
        # raise: BadZipFile, zlib.error, NotImplementedError, KeyError,
        # tokenize.TokenError, ...; all of them mean "this image is unusable".
        raise SnapshotError(
            f"cannot read column {key!r} of snapshot arrays at {path}: {exc!r}"
        ) from exc


def save_snapshot(path: str | Path, state: dict[str, Any]) -> Path:
    """Write one snapshot directory; returns its path.

    ``state`` is a nested structure of dicts/lists/scalars with
    :class:`numpy.ndarray` leaves for bulk columns.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    arrays: dict[str, np.ndarray] = {}
    flattened = _flatten(state, arrays)
    manifest = {"format": SNAPSHOT_FORMAT_VERSION, "state": flattened}
    # The layout NumPy's own ``.npz`` writer produces (one ``<key>.npy``
    # member per column, zip64 forced), written here for the deflate level.
    with zipfile.ZipFile(
        path / _ARRAYS, "w", zipfile.ZIP_DEFLATED, compresslevel=_DEFLATE_LEVEL
    ) as archive:
        for key, column in arrays.items():
            with archive.open(f"{key}.npy", "w", force_zip64=True) as member:
                write_array(member, column, allow_pickle=False)
    (path / _MANIFEST).write_text(json.dumps(manifest, sort_keys=True), encoding="utf-8")
    return path


def load_snapshot(path: str | Path) -> dict[str, Any]:
    """Read a snapshot directory back into the nested state structure.

    Raises :class:`SnapshotError` for missing/corrupt files or a format
    version mismatch.
    """
    path = Path(path)
    try:
        manifest = json.loads((path / _MANIFEST).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise SnapshotError(f"cannot read snapshot manifest at {path}: {exc}") from exc
    if not isinstance(manifest, dict) or "state" not in manifest:
        raise SnapshotError(f"snapshot manifest at {path} is not a snapshot manifest")
    version = manifest.get("format")
    if version != SNAPSHOT_FORMAT_VERSION:
        raise SnapshotError(
            f"snapshot at {path} has format {version!r}; "
            f"this build reads format {SNAPSHOT_FORMAT_VERSION}"
        )
    try:
        archive = zipfile.ZipFile(path / _ARRAYS)
    except Exception as exc:
        # Same boundary as _read_column, for the archive's central directory.
        raise SnapshotError(f"cannot open snapshot arrays at {path}: {exc!r}") from exc
    with archive:
        return _inflate(manifest["state"], archive, path)
