"""Test helper: plan LearnedFTL read runs of any length.

``SSD.run`` hands a run of single-page reads to LearnedFTL's read planner
only from ``repro.core.learnedftl._MIN_READ_RUN`` reads on; shorter runs take
the request step.  Tests that cover the planner's refusals at every position
pin that break-even to 1 inside :func:`plan_every_run`, and compare against a
reference run outside it (``batch=1``: every read run is one request long,
below any break-even above 1).
"""

from __future__ import annotations

import contextlib
from typing import Iterator

import pytest

from repro.core import learnedftl


@contextlib.contextmanager
def plan_every_run(enabled: bool = True) -> Iterator[None]:
    """Pin the read-planner break-even to 1 for the block (a no-op when not ``enabled``)."""
    with pytest.MonkeyPatch.context() as patch:
        if enabled:
            patch.setattr(learnedftl, "_MIN_READ_RUN", 1)
        yield
