"""Observability: interval-windowed telemetry and structured event tracing.

Every run of the simulator used to collapse into one end-of-run
:meth:`~repro.ssd.stats.SimulationStats.summary` dictionary.  This package
adds the time dimension:

* :class:`~repro.obs.windows.WindowedRecorder` buckets host requests,
  latencies, flash commands, chip busy time, CMT hit/miss classes and GC
  activity into fixed-width windows of the **simulated** clock, producing a
  per-window time series (iops, tail latencies, WAF, GC pages moved,
  utilization) that snapshots and resumes bit-identically;
* :class:`~repro.obs.trace.TraceRecorder` collects typed simulator events
  (GC invocations, CMT eviction flushes, translation reads, snapshot
  restores) and exports them as Chrome
  trace-event JSON loadable in Perfetto or ``chrome://tracing``;
* :class:`~repro.obs.log.ObservationLog` is what feeds both: the device's
  request step appends what it produced once per request, and the two
  recorders consume the log a block of requests at a time;
* :data:`~repro.obs.trace.NULL_TRACER` is the zero-cost default every FTL
  carries — with nothing attached the device keeps no log and the request
  step pays two branch tests.

Wire it through :meth:`repro.ssd.device.SSD.enable_observability`, or from
the command line with ``--metrics-window-us`` / ``--trace-out``
(see ``docs/observability.md``).
"""

from repro.obs.log import ObservationLog
from repro.obs.trace import NULL_TRACER, NullTraceRecorder, TraceRecorder
from repro.obs.windows import WindowedRecorder

__all__ = ["WindowedRecorder", "TraceRecorder", "NullTraceRecorder", "NULL_TRACER", "ObservationLog"]
