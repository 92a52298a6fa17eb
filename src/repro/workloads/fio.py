"""FIO-like synthetic workload generator.

The paper drives its micro-benchmarks with ``fio`` using the psync engine,
4 KB I/O and up to 64 threads (Section IV-B).  :class:`FioJob` reproduces the
four access patterns (sequential/random x read/write) as streams of
:class:`~repro.ssd.request.HostRequest`; the device's closed-loop ``run``
method supplies the multi-threading.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Iterator

import numpy as np

from repro.nand.fields import Checked, Count, NonNegativeFloat, PositiveInt, SpanFraction, check_value
from repro.nand.geometry import SSDGeometry
from repro.ssd.request import HostRequest, OpType

__all__ = ["FioPattern", "FioJob"]


class FioPattern(enum.Enum):
    """The four fio access patterns used throughout the evaluation."""

    SEQ_READ = "seqread"
    RAND_READ = "randread"
    SEQ_WRITE = "seqwrite"
    RAND_WRITE = "randwrite"

    @property
    def is_read(self) -> bool:
        """True for the two read patterns."""
        return self in (FioPattern.SEQ_READ, FioPattern.RAND_READ)

    @property
    def is_sequential(self) -> bool:
        """True for the two sequential patterns."""
        return self in (FioPattern.SEQ_READ, FioPattern.SEQ_WRITE)


@dataclass(frozen=True)
class FioJob(Checked):
    """One fio job description: the declaration of the ``fio`` workload kind.

    Each field is held to its annotation when the job is built (see
    :mod:`repro.nand.fields`); a pattern may be given by name.

    Attributes
    ----------
    pattern:
        Access pattern.
    num_requests:
        Number of host requests to generate.
    io_pages:
        Request size in pages (the paper uses 1 page = 4 KB for measurements
        and 128 pages = 512 KB for LeaFTL's warm-up writes).
    seed:
        RNG seed for the random patterns.
    span_fraction:
        Fraction of the logical space the job touches (1.0 = whole device).
    """

    pattern: FioPattern
    num_requests: PositiveInt
    io_pages: PositiveInt = 1
    seed: Count = 42
    span_fraction: SpanFraction = 1.0

    # ------------------------------------------------------------- factories
    @classmethod
    def seqread(cls, num_requests: int, **kwargs: Any) -> "FioJob":
        """Sequential read job."""
        return cls(FioPattern.SEQ_READ, num_requests, **kwargs)

    @classmethod
    def randread(cls, num_requests: int, **kwargs: Any) -> "FioJob":
        """Random read job."""
        return cls(FioPattern.RAND_READ, num_requests, **kwargs)

    @classmethod
    def seqwrite(cls, num_requests: int, **kwargs: Any) -> "FioJob":
        """Sequential write job."""
        return cls(FioPattern.SEQ_WRITE, num_requests, **kwargs)

    @classmethod
    def randwrite(cls, num_requests: int, **kwargs: Any) -> "FioJob":
        """Random write job."""
        return cls(FioPattern.RAND_WRITE, num_requests, **kwargs)

    @classmethod
    def from_name(cls, name: str, num_requests: int, **kwargs: Any) -> "FioJob":
        """Build a job from a pattern name (``seqread``/``randread``/...)."""
        return cls(FioPattern(name), num_requests, **kwargs)

    # ------------------------------------------------------------ generation
    def requests(self, geometry: SSDGeometry) -> Iterator[HostRequest]:
        """Yield the job's host requests sized to a device geometry."""
        op = OpType.READ if self.pattern.is_read else OpType.WRITE
        npages = self.io_pages
        span = max(npages, int(geometry.num_logical_pages * self.span_fraction))
        if self.pattern.is_sequential:
            # The cursor advances by io_pages and wraps to 0 whenever the next
            # request would cross span, i.e. position k is (k * io_pages)
            # modulo the largest io_pages multiple that fits.
            wrap = max(npages, (span // npages) * npages)
            lpns = (np.arange(self.num_requests, dtype=np.int64) * npages) % wrap
        else:
            limit = max(1, span - npages + 1)
            lpns = np.random.default_rng(self.seed).integers(0, limit, size=self.num_requests)
        for index, lpn in enumerate(lpns.tolist()):
            yield HostRequest(op, lpn, npages, None, index)

    # ------------------------------------------------------------- reporting
    def describe(self) -> str:
        """Human-readable one-line description of the job."""
        return (
            f"fio {self.pattern.value}: {self.num_requests} requests x "
            f"{self.io_pages} page(s), span {self.span_fraction:.0%}"
        )


def warmup_writes(
    geometry: SSDGeometry,
    *,
    overwrite_factor: float = 1.0,
    io_pages: int = 128,
    random_fraction: float = 0.5,
    seed: int = 7,
) -> Iterator[HostRequest]:
    """Steady-state preconditioning stream (Section IV-B warm-up).

    The paper warms the SSD up by writing it over several times with a mix of
    sequential and random writes (512 KB requests so LeaFTL's learned index can
    be built).  ``overwrite_factor`` expresses how many times the logical space
    is written in addition to the initial sequential fill performed by
    :meth:`repro.ssd.device.SSD.fill_sequential`.

    The whole stream is drawn as NumPy arrays when this is called (every
    request has the same page count, so the request count is known in
    advance); the stream is deterministic per seed.  A NaN, infinite or
    negative ``overwrite_factor`` raises :class:`ConfigurationError` here,
    not at the first request.
    """
    check_value("overwrite_factor", overwrite_factor, NonNegativeFloat)
    span = geometry.num_logical_pages
    npages = min(io_pages, span)
    total_pages = int(span * overwrite_factor)
    num_requests = -(-total_pages // npages) if total_pages > 0 else 0
    if num_requests == 0:
        return iter(())
    rng = np.random.default_rng(seed)
    is_random = rng.random(num_requests) < random_fraction
    lpns = np.empty(num_requests, dtype=np.int64)
    num_random = int(is_random.sum())
    lpns[is_random] = rng.integers(0, max(1, span - npages + 1), size=num_random)
    # Sequential picks advance a shared cursor by npages, wrapping to 0 at the
    # largest npages multiple that fits: the k-th sequential pick starts at
    # (k * npages) mod wrap.
    sequential = ~is_random
    wrap = max(npages, (span // npages) * npages)
    sequential_index = np.cumsum(sequential) - 1
    lpns[sequential] = (sequential_index[sequential] * npages) % wrap
    return (HostRequest(OpType.WRITE, lpn, npages) for lpn in lpns.tolist())


__all__.append("warmup_writes")
