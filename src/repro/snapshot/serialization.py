"""On-disk snapshot format: versioned JSON manifest + NumPy ``.npz`` columns.

A snapshot is a directory of two files:

* ``manifest.json`` — ``{"format": 2, "state": ..., "columns": ..., "sha256":
  ...}``.  The state is the nested ``state_dict()`` tree produced by the
  device; every :class:`numpy.ndarray` leaf is replaced by an
  ``{"__ndarray__": key}`` placeholder.  ``columns`` maps each key to its
  layout (logical dtype, stored dtype, shape), and ``sha256`` is the digest of
  the manifest's canonical JSON (sorted keys, the digest itself left out).
* ``arrays.npz`` — the array leaves, one ``<key>.npy`` member per placeholder
  key, each deflated at zlib level 1.

The split keeps the big flat columns (flash page state, the mapping
directory's int64 array, model bitmaps, latency populations) in binary NumPy
buffers while everything else — allocator free lists, LRU orders, counters —
stays human-inspectable JSON.  The format version is part of both the manifest
and the snapshot-store cache key, so a format change can never load (or hit)
a stale image.

**The column encoding.**  An integer column is stored as the narrowest
integer dtype of its kind (signed or unsigned) that holds its minimum and
maximum, and every stored dtype wider than a byte is written as its *byte
planes*: a ``uint8`` array of shape ``(itemsize, size)`` whose row *i* holds
byte *i* of every element.  Floats are planed but never narrowed; bool and
one-byte columns are stored as they are.  The device's big columns are int64
page and mapping state whose values fit in 32 bits, so narrowing halves them,
and planing puts their constant high bytes in runs that deflate to almost
nothing.  Measured on the ledger's ``trace_replay`` device after one round
(34 columns, 8.88 MB raw; median of 7, 2-core Xeon VM):

=====================================  =======  =======  =============
encoding (deflate level 1)             save ms  load ms  bytes on disk
=====================================  =======  =======  =============
as-is (format 1)                            40       21        1.05 MB
byte planes only                            29       17        0.26 MB
narrowing only                              36       20        0.93 MB
**narrowing + byte planes (format 2)**      18       13        0.23 MB
=====================================  =======  =======  =============

Each step helps less alone: narrowing barely shrinks what deflate sees, and
planes of 8-byte columns cost a transpose of twice the bytes.  Together they
more than halve a save, take a third off a load and cut the bytes by 4.6x.
:func:`load_snapshot` still reads format-1 images, whose columns are stored
as-is and whose manifest has no ``columns`` map and no digest.

**The archive writer.**  :func:`save_snapshot` writes ``arrays.npz`` itself
(:class:`zipfile.ZipFile` + :func:`numpy.lib.format.write_array`, pickling
off) because ``np.savez_compressed`` is fixed at zlib level 6, which was 5x
slower than level 1 and no smaller; ``ZIP_STORED`` was measured and rejected
for 8.6x the bytes of every image.  The file is still a plain ``.npz``:
``np.load`` reads it (the members are the stored planes), and a
``np.savez_compressed`` copy of its members loads here unchanged.

**The corruption contract.**  :func:`load_snapshot` raises
:class:`SnapshotError`, naming the snapshot path (and the column, for a bad
archive member) with the cause chained, for *every* failure to read an image:
a missing or truncated file, malformed JSON, a manifest of the wrong shape or
format version or whose digest does not match, a placeholder whose member is
absent or disagrees with its layout, and any error opening the archive or
decompressing, CRC-checking and parsing a member — whatever ``zipfile``,
``zlib`` or NumPy's header parser happen to raise for it.  Each member is read
to its end so zip's CRC-32 covers every byte of every column, and the digest
covers every byte the manifest's JSON means: a damaged image either is
refused or loads bit-identically (the damage hit a field nothing reads),
never loads different data.  Callers rely on the single exception type: the
snapshot store counts a refused image as a miss and repairs it, and a replay
resume skips a refused checkpoint for the previous one.
"""

from __future__ import annotations

import hashlib
import json
import math
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
#: Bump whenever a ``state_dict()`` shape or the column encoding changes.
SNAPSHOT_FORMAT_VERSION = 2

_MANIFEST = "manifest.json"
_ARRAYS = "arrays.npz"
_NDARRAY_KEY = "__ndarray__"
_COLUMNS_KEY = "columns"
_DIGEST_KEY = "sha256"
#: The top-level keys of each manifest format this build reads.  Format 1
#: stored every column as-is and carried no digest.
_MANIFEST_KEYS = {
    1: {"format", "state"},
    2: {"format", "state", _COLUMNS_KEY, _DIGEST_KEY},
}
#: zlib level of every ``arrays.npz`` member.  A constant, not an option: the
#: module docstring holds the measurement that chose it.
_DEFLATE_LEVEL = 1
#: Narrowing candidates per integer kind, narrowest first.
_NARROWER = {
    kind: [np.dtype(f"<{kind}{size}") for size in (1, 2, 4, 8)] for kind in "iu"
}


class SnapshotError(RuntimeError):
    """A snapshot could not be written, read or applied."""


def _flatten(value: Any, arrays: dict[str, np.ndarray]) -> Any:
    """Replace ndarray leaves with placeholders, collecting them into ``arrays``."""
    if isinstance(value, np.ndarray):
        if value.dtype.hasobject or value.dtype.names is not None:
            # An object column would have to be pickled, which load refuses;
            # a structured dtype has no dtype string the manifest could hold.
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


def _stored_dtype(column: np.ndarray) -> np.dtype:
    """The dtype a column is stored as: integers narrowed to their range."""
    dtype = column.dtype
    if dtype.kind not in "iu" or dtype.itemsize == 1:
        return dtype
    low, high = (column.min(), column.max()) if column.size else (0, 0)
    return next(
        candidate
        for candidate in _NARROWER[dtype.kind]
        if np.iinfo(candidate).min <= low and high <= np.iinfo(candidate).max
    )


def _encode_column(column: np.ndarray) -> tuple[np.ndarray, dict[str, Any]]:
    """A column's archive member and the manifest entry that decodes it.

    The member is the column in its stored dtype, written as byte planes
    (``uint8``, shape ``(itemsize, size)``) when that dtype is wider than a
    byte, and as-is otherwise.
    """
    stored = _stored_dtype(column)
    layout = {"dtype": column.dtype.str, "stored": stored.str, "shape": list(column.shape)}
    if stored.itemsize <= 1:
        return column.astype(stored, copy=False), layout
    values = column.astype(stored, order="C", copy=False).reshape(-1)
    planes = values.view(np.uint8).reshape(values.size, stored.itemsize).T
    return np.ascontiguousarray(planes), layout


def _decode_column(member: np.ndarray, layout: Any) -> np.ndarray:
    """Inverse of :func:`_encode_column`; ``ValueError`` if the two disagree."""
    dtype = np.dtype(layout["dtype"])
    stored = np.dtype(layout["stored"])
    shape = tuple(layout["shape"])
    if stored != dtype and not (
        dtype.kind in "iu" and stored.kind == dtype.kind and stored.itemsize <= dtype.itemsize
    ):
        raise ValueError(f"column of dtype {dtype} cannot be stored as {stored}")
    size = math.prod(shape)
    if stored.itemsize <= 1:
        expected = (stored, shape)
    else:
        expected = (np.dtype(np.uint8), (stored.itemsize, size))
    if (member.dtype, member.shape) != expected:
        raise ValueError(
            f"the member holds {member.dtype} {member.shape}; "
            f"the manifest says {expected[0]} {expected[1]}"
        )
    if stored.itemsize > 1:
        values = np.empty(size, dtype=stored)
        interleaved = values.view(np.uint8).reshape(size, stored.itemsize)
        # Plane by plane: a third of the time of one transposing copy.
        for byte, plane in enumerate(member):
            interleaved[:, byte] = plane
        member = values.reshape(shape)
    return member.astype(dtype, copy=False)


def _manifest_digest(body: dict[str, Any]) -> str:
    """sha256 of a manifest's canonical JSON, its digest field left out."""
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode("utf-8")).hexdigest()


def _inflate(value: Any, archive: zipfile.ZipFile, columns: Any, path: Path) -> Any:
    """Inverse of :func:`_flatten`: resolve placeholders back into arrays.

    ``columns`` is format 2's map of column layouts, ``None`` for format 1.
    """
    if isinstance(value, dict):
        if set(value) == {_NDARRAY_KEY}:
            return _read_column(archive, value[_NDARRAY_KEY], columns, path)
        return {key: _inflate(item, archive, columns, path) for key, item in value.items()}
    if isinstance(value, list):
        return [_inflate(item, archive, columns, path) for item in value]
    return value


def _read_column(archive: zipfile.ZipFile, key: Any, columns: Any, path: Path) -> np.ndarray:
    """Decompress, CRC-check, parse and decode the member behind one placeholder."""
    try:
        with archive.open(f"{key}.npy") as member:
            column = read_array(member, allow_pickle=False)
            # zipfile checks a member's CRC-32 only once it has been read to
            # its end, and read_array stops where the header's shape says.
            if member.read(1):
                raise ValueError("the member holds bytes beyond its array")
        if columns is None:
            return column
        return _decode_column(column, columns[key])
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
    columns: dict[str, dict[str, Any]] = {}
    # The layout NumPy's own ``.npz`` writer produces (one ``<key>.npy``
    # member per column, zip64 forced), written here for the deflate level.
    # Columns are encoded one at a time, so at most one encoded copy is live.
    with zipfile.ZipFile(
        path / _ARRAYS, "w", zipfile.ZIP_DEFLATED, compresslevel=_DEFLATE_LEVEL
    ) as archive:
        for key, column in arrays.items():
            encoded, columns[key] = _encode_column(column)
            with archive.open(f"{key}.npy", "w", force_zip64=True) as member:
                write_array(member, encoded, allow_pickle=False)
    body = {"format": SNAPSHOT_FORMAT_VERSION, "state": flattened, _COLUMNS_KEY: columns}
    manifest = {**body, _DIGEST_KEY: _manifest_digest(body)}
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
    if type(version) is not int or version not in _MANIFEST_KEYS:
        raise SnapshotError(
            f"snapshot at {path} has format {version!r}; "
            f"this build reads formats {sorted(_MANIFEST_KEYS)}"
        )
    if set(manifest) != _MANIFEST_KEYS[version]:
        raise SnapshotError(f"snapshot manifest at {path} is not a format-{version} manifest")
    columns = None
    if version == 2:
        digest = manifest.pop(_DIGEST_KEY)
        if digest != _manifest_digest(manifest):
            raise SnapshotError(f"snapshot manifest at {path} does not match its sha256")
        columns = manifest[_COLUMNS_KEY]
    try:
        archive = zipfile.ZipFile(path / _ARRAYS)
    except Exception as exc:
        # Same boundary as _read_column, for the archive's central directory.
        raise SnapshotError(f"cannot open snapshot arrays at {path}: {exc!r}") from exc
    with archive:
        return _inflate(manifest["state"], archive, columns, path)
