"""Test helpers: a step-only reference run, and a planner over a read run.

``SSD.run`` hands every chunk that holds a single-page read to LearnedFTL's
read planner, so every read run, however short, is planned.  Tests that
compare the planner with the request step run their reference inside
:func:`step_only`, where ``begin_read_run`` returns ``None`` and every
request takes the step.
"""

from __future__ import annotations

import contextlib
from typing import Iterator

import numpy as np
import pytest

from repro.core.base import FTLBase
from repro.core.learnedftl import LearnedFTL
from repro.ssd.request import OP_READ_CODE


@contextlib.contextmanager
def step_only(enabled: bool = True) -> Iterator[None]:
    """Serve every request through the request step inside the block (a
    no-op when not ``enabled``)."""
    with pytest.MonkeyPatch.context() as patch:
        if enabled:
            patch.setattr(LearnedFTL, "begin_read_run", FTLBase.begin_read_run)
        yield


def read_planner(ftl, lpns):
    """``ftl``'s planner over a chunk of single-page reads of ``lpns``."""
    lpns = np.asarray(lpns, dtype=np.int64)
    return ftl.begin_read_run(
        np.full(len(lpns), OP_READ_CODE, dtype=np.int8), lpns, np.ones(len(lpns), dtype=np.int64)
    )
