"""A deliberately trivial experiment: the zero-work task of the executor tests.

``noop`` builds no SSD and replays no workload: it returns a one-row result
immediately.  The execution-backend tests dispatch it (in worker processes
too) to check task dispatch, pickling and result collection without paying
for any simulation.  Registered as an internal experiment: ``all`` and the
CLI sweeps skip it.
"""

from __future__ import annotations

from repro.experiments.runner import ExperimentResult, Scale


def run(scale: Scale | str = Scale.TINY, *, index: int = 0, **_ignored) -> ExperimentResult:
    """Return a trivial single-row result (no simulation work at all)."""
    scale = Scale.parse(scale)
    return ExperimentResult(
        name="noop",
        description="Zero-work task the executor tests dispatch",
        rows=[{"index": index, "scale": scale.value}],
    )
