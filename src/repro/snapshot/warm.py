"""``warm_device``: the snapshot-aware warm-up entry point.

The experiment harnesses used to inline their preconditioning (a sequential
fill of the logical space followed by randomized overwrites).  This helper
owns that procedure and, when given a :class:`~repro.snapshot.store.SnapshotStore`,
turns it into a one-time cost per (FTL, geometry, config, timing, recipe):
the first call materializes the warm image, every later call — in this
process or any other sharing the store directory — restores it bit-identically.
"""

from __future__ import annotations

from typing import Annotated, Any

from repro.core.base import FTLConfig
from repro.nand.fields import NonNegativeFloat, check_value, one_of
from repro.nand.geometry import SSDGeometry
from repro.nand.timing import TimingModel
from repro.snapshot.store import SnapshotStore
from repro.ssd.device import SSD
from repro.workloads.fio import warmup_writes

__all__ = ["warm_device", "warm_key", "warmup_recipe"]

#: Warm-up styles understood by :func:`warm_device` (matching ``prepare_ssd``).
WARMUP_MODES = ("none", "fill", "steady")
#: Declared type of a warm-up mode field (see :mod:`repro.nand.fields`).
WarmupMode = Annotated[str, one_of(WARMUP_MODES)]


def warmup_recipe(
    *,
    warmup: str,
    io_pages: int,
    overwrite_factor: float,
    threads: int,
    seed: int,
) -> dict[str, Any]:
    """The JSON-serializable warm-up recipe used in snapshot-store keys."""
    return {
        "warmup": warmup,
        "io_pages": io_pages,
        "overwrite_factor": overwrite_factor,
        "threads": threads,
        "seed": seed,
    }


def warm_key(
    ftl_name: str,
    geometry: SSDGeometry,
    *,
    config: FTLConfig | None = None,
    timing: TimingModel | None = None,
    **recipe: Any,
) -> str | None:
    """The snapshot-store key :func:`warm_device` files a warm-up under.

    ``recipe`` holds :func:`warmup_recipe`'s arguments; ``warmup="none"`` is
    never stored (``None``).  Dry runs predict store hits with this.
    """
    if recipe["warmup"] == "none":
        return None
    return SnapshotStore.key_for(
        ftl_name=ftl_name,
        geometry=geometry,
        recipe=warmup_recipe(**recipe),
        config=config,
        timing=timing,
    )


def warm_device(
    ftl_name: str,
    geometry: SSDGeometry,
    *,
    warmup: str = "steady",
    io_pages: int = 128,
    overwrite_factor: float = 1.0,
    threads: int = 1,
    seed: int = 7,
    config: FTLConfig | None = None,
    timing: TimingModel | None = None,
    store: SnapshotStore | None = None,
) -> SSD:
    """Return a preconditioned SSD, restoring a stored warm image when possible.

    ``warmup`` selects the preconditioning style:

    * ``"none"`` — fresh device (never snapshotted: there is nothing to skip);
    * ``"fill"`` — one sequential fill of the logical space;
    * ``"steady"`` — sequential fill followed by mixed sequential/random
      overwrites of ``overwrite_factor`` x the logical space, run on
      ``threads`` closed-loop threads (Section IV-B's steady-state warm-up).

    The returned device carries its warm-up statistics and clock; callers that
    measure a fresh interval call :meth:`SSD.reset_stats` afterwards, exactly
    as with an inline warm-up.  Restored devices are bit-identical to freshly
    warmed ones (pinned by ``tests/test_snapshot.py``).  A NaN, infinite or
    negative ``overwrite_factor`` raises :class:`ConfigurationError` before
    anything is built or looked up.
    """
    check_value("warmup", warmup, WarmupMode, ValueError)
    check_value("overwrite_factor", overwrite_factor, NonNegativeFloat)
    key = None
    if store is not None:
        key = warm_key(
            ftl_name,
            geometry,
            config=config,
            timing=timing,
            warmup=warmup,
            io_pages=io_pages,
            overwrite_factor=overwrite_factor,
            threads=threads,
            seed=seed,
        )
    if key is not None:
        restored = store.load(key)
        if restored is not None:
            return restored
    ssd = SSD.create(ftl_name, geometry, timing=timing, config=config)
    if warmup in ("fill", "steady"):
        ssd.fill_sequential(io_pages=io_pages)
    if warmup == "steady":
        stream = warmup_writes(
            geometry,
            overwrite_factor=overwrite_factor,
            io_pages=io_pages,
            seed=seed,
        )
        ssd.run(stream, threads=threads)
    if key is not None:
        store.save(key, ssd)
    return ssd
