"""Filebench-style file-server workloads (Table I of the paper).

Filebench drives a real file system; the FTL underneath only sees the block
requests the file system emits.  This module models that block-level view: a
*file set* is laid out over the logical address space (files become extents of
consecutive LPNs, separated by small gaps to mimic allocation fragmentation),
and each personality issues the operation mix the paper describes:

================  =========================  ==========  ========
workload          file set                   behaviour   threads
================  =========================  ==========  ========
``fileserver``    225,000 files x 128 KB     write heavy   50
``webserver``     825,000 files x 16 KB      read heavy    64
``varmail``       475,000 files x 16 KB      read:write=1  64
================  =========================  ==========  ========

File counts are scaled down proportionally to the simulated device size; the
file sizes, operation mixes and thread counts are preserved.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from repro.nand.errors import ConfigurationError
from repro.nand.geometry import SSDGeometry
from repro.ssd.request import HostRequest, OpType
from repro.workloads.zipf import ZipfGenerator

__all__ = ["FilebenchConfig", "FilebenchWorkload", "FILEBENCH_PRESETS"]


@dataclass(frozen=True)
class FilebenchConfig:
    """Configuration of one Filebench personality (mirrors Table I)."""

    name: str
    file_count: int
    file_size_kb: int
    read_fraction: float
    append_fraction: float
    whole_file_fraction: float
    threads: int
    zipf_theta: float = 0.9

    @property
    def file_size_bytes(self) -> int:
        """File size in bytes."""
        return self.file_size_kb * 1024


#: The three personalities used in the paper (Figure 7 / Figure 20).
FILEBENCH_PRESETS: dict[str, FilebenchConfig] = {
    "fileserver": FilebenchConfig(
        name="fileserver",
        file_count=225_000,
        file_size_kb=128,
        read_fraction=0.33,
        append_fraction=0.5,
        whole_file_fraction=0.5,
        threads=50,
    ),
    "webserver": FilebenchConfig(
        name="webserver",
        file_count=825_000,
        file_size_kb=16,
        read_fraction=0.92,
        append_fraction=0.08,
        whole_file_fraction=0.9,
        threads=64,
    ),
    "varmail": FilebenchConfig(
        name="varmail",
        file_count=475_000,
        file_size_kb=16,
        read_fraction=0.5,
        append_fraction=0.5,
        whole_file_fraction=0.5,
        threads=64,
    ),
}


@dataclass(frozen=True)
class _FileExtent:
    """Placement of one file on the logical address space."""

    start_lpn: int
    npages: int


class FilebenchWorkload:
    """Generate the block-level request stream of one Filebench personality."""

    def __init__(
        self,
        config: FilebenchConfig,
        geometry: SSDGeometry,
        *,
        capacity_fraction: float = 0.8,
        seed: int = 11,
    ) -> None:
        self.config = config
        self.geometry = geometry
        self.seed = seed
        self._rng = random.Random(seed)
        self._files = self._layout_files(capacity_fraction)
        if not self._files:
            raise ConfigurationError("device too small to hold even one file")
        self._popularity = ZipfGenerator(len(self._files), theta=config.zipf_theta, seed=seed)

    @classmethod
    def preset(
        cls, name: str, geometry: SSDGeometry, *, seed: int = 11
    ) -> "FilebenchWorkload":
        """Build one of the paper's three personalities by name."""
        try:
            config = FILEBENCH_PRESETS[name]
        except KeyError as exc:
            raise ConfigurationError(
                f"unknown filebench personality {name!r}; choose from {sorted(FILEBENCH_PRESETS)}"
            ) from exc
        return cls(config, geometry, seed=seed)

    # ---------------------------------------------------------------- layout
    def _layout_files(self, capacity_fraction: float) -> list[_FileExtent]:
        page_size = self.geometry.page_size
        pages_per_file = max(1, self.config.file_size_bytes // page_size)
        budget_pages = int(self.geometry.num_logical_pages * capacity_fraction)
        max_files = budget_pages // (pages_per_file + 1)
        file_count = min(self.config.file_count, max_files)
        files: list[_FileExtent] = []
        if file_count <= 0:
            return files
        cursor = 0
        for _ in range(file_count):
            files.append(_FileExtent(start_lpn=cursor, npages=pages_per_file))
            # A one-page gap between files mimics metadata blocks and keeps
            # whole-file reads from being perfectly device-sequential.
            cursor += pages_per_file + 1
        return files

    @property
    def file_count(self) -> int:
        """Number of files actually laid out on this device."""
        return len(self._files)

    @property
    def threads(self) -> int:
        """The personality's thread count (Table I)."""
        return self.config.threads

    # ------------------------------------------------------------ generation
    def requests(self, num_operations: int) -> Iterator[HostRequest]:
        """Yield the block requests of ``num_operations`` file operations."""
        for index in range(num_operations):
            file = self._files[self._popularity.sample()]
            if self._rng.random() < self.config.read_fraction:
                yield from self._read_file(file, index)
            else:
                yield from self._write_file(file, index)

    def preconditioning(self) -> Iterator[HostRequest]:
        """Write every file once (the 'create fileset' phase of Filebench)."""
        for index, file in enumerate(self._files):
            yield HostRequest(OpType.WRITE, file.start_lpn, file.npages, None, index)

    def _read_file(self, file: _FileExtent, index: int) -> Iterator[HostRequest]:
        if self._rng.random() < self.config.whole_file_fraction or file.npages == 1:
            yield HostRequest(OpType.READ, file.start_lpn, file.npages, None, index)
        else:
            offset = self._rng.randrange(file.npages)
            length = min(file.npages - offset, max(1, file.npages // 4))
            yield HostRequest(OpType.READ, file.start_lpn + offset, length, None, index)

    def _write_file(self, file: _FileExtent, index: int) -> Iterator[HostRequest]:
        if self._rng.random() < self.config.append_fraction or file.npages == 1:
            # Append / log-style write of the file tail.
            length = max(1, file.npages // 4)
            offset = file.npages - length
        else:
            # Whole-file rewrite.
            length = file.npages
            offset = 0
        yield HostRequest(OpType.WRITE, file.start_lpn + offset, length, None, index)

    def describe(self) -> str:
        """Human-readable description of the scaled workload."""
        return (
            f"filebench {self.config.name}: {self.file_count} files x "
            f"{self.config.file_size_kb} KB, read fraction {self.config.read_fraction:.0%}, "
            f"{self.config.threads} threads"
        )
