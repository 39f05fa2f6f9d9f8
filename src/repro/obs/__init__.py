"""Unified tracing & metrics: one run context for host, device and comm.

The reproduction's three signal sources — host phase spans of the
integrator and physics, virtual-GPU op timelines
(:class:`repro.gpu.device.GPUDevice`), and simulated-MPI traffic
(:class:`repro.dist.mpi_sim.SimComm`) — flow into a single
:class:`TraceSession`:

* **spans** (:func:`span`) record host intervals while a session is
  active;
* **collectors** ingest device timelines and message logs after a run,
  stamped with rank/device identity;
* **exporters** emit Chrome Trace Format JSON (``chrome://tracing`` /
  Perfetto), a JSONL event stream, and a text summary;
* the **metrics registry** answers "how many kernel launches per step,
  how many halo bytes, what sustained GFlops" at run end.

See docs/OBSERVABILITY.md for a worked multi-rank example, and
``repro trace --help`` for the CLI entry point.
"""
from .collectors import collect_comm, collect_device
from .exporters import (
    chrome_trace,
    jsonl_events,
    span_self_times,
    span_table,
    summary_text,
    write_chrome_trace,
    write_jsonl,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricTypeConflict,
    percentile,
    percentile_summary,
)
from .recorder import FlightRecorder, RecordedEvent, load_flight_dump
from .telemetry import (
    FleetView,
    SchedulerProfile,
    build_fleet_view,
    fleet_view_from_session,
    fleet_view_from_trace,
    render_fleet_view,
    render_frames,
    sparkline,
)
from .timeseries import SeriesKey, Snapshot, SnapshotSeries
from .trace import (
    CounterRecord,
    DeviceOpRecord,
    FlowRecord,
    InstantRecord,
    SpanRecord,
    TraceSession,
    active_session,
    span,
    use_session,
)

__all__ = [
    "TraceSession", "use_session", "active_session", "span",
    "SpanRecord", "InstantRecord", "DeviceOpRecord", "CounterRecord",
    "FlowRecord",
    "collect_device", "collect_comm",
    "chrome_trace", "write_chrome_trace",
    "jsonl_events", "write_jsonl", "span_self_times", "span_table",
    "summary_text",
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "MetricTypeConflict",
    "percentile", "percentile_summary",
    "FlightRecorder", "RecordedEvent", "load_flight_dump",
    "SchedulerProfile", "FleetView", "build_fleet_view",
    "fleet_view_from_trace", "fleet_view_from_session",
    "render_fleet_view", "render_frames", "sparkline",
    "SeriesKey", "Snapshot", "SnapshotSeries",
    "doctor",
]


def __getattr__(name: str):
    # the doctor pulls in gpu/dist/perf modules; loading it lazily keeps
    # `repro.obs` light and cycle-free for the dynamical core's spans
    if name == "doctor":
        from . import doctor

        return doctor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
