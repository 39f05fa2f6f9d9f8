"""Collectors: adapters that ingest existing signal sources into a
:class:`~repro.obs.trace.TraceSession`.

* :func:`collect_device` — a :class:`~repro.gpu.device.GPUDevice` op
  timeline becomes per-stream tracks of complete events (kernels and
  PCIe copies), stamped with the device's rank/label identity, and its
  aggregates feed the metrics registry (launches, flops, copied bytes).
* :func:`collect_comm` — a :class:`~repro.dist.mpi_sim.SimComm` message
  log becomes flow (arrow) records between rank tracks plus instant
  post/collect markers, and the traffic totals feed the registry
  (message count, halo bytes, per-pair report).

Both are duck-typed on purpose: this module imports nothing from the
rest of the package, so the obs subsystem stays import-cycle-free (the
phase spans under ``repro.core`` pull in ``repro.obs``).
"""
from __future__ import annotations

from .trace import DeviceOpRecord, FlowRecord, TraceSession

__all__ = ["collect_device", "collect_comm"]


def collect_device(
    session: TraceSession,
    device,
    *,
    rank: int | None = None,
    label: str | None = None,
) -> str:
    """Ingest every op of ``device.timeline``; returns the track-group
    label (``rankN`` when ``rank`` is given, else the device's own
    label) under which the ops were filed."""
    pid = label or (f"rank{rank}" if rank is not None
                    else getattr(device, "label", "gpu"))
    m = session.metrics
    kernel_hist = m.histogram("kernel.duration_us")
    for op in device.timeline:
        measured = getattr(op, "measured", None)
        session.device_ops.append(DeviceOpRecord(
            name=op.name, kind=op.kind, ts=op.start, dur=op.duration,
            pid=pid, tid=f"stream{op.stream}",
            flops=op.flops, bytes_moved=op.bytes_moved, tag=op.tag,
            measured=measured,
        ))
        if op.kind == "kernel":
            m.counter("kernel.launches").inc()
            m.counter("kernel.flops").inc(op.flops)
            kernel_hist.observe(op.duration * 1e6)
            if measured is not None:
                # counted-run accounting: measured totals plus an
                # achieved-GFlops counter series on this rank's track
                m.counter("measured.flops").inc(measured.get("flops", 0.0))
                m.counter("measured.bytes").inc(
                    measured.get("bytes_read", 0.0)
                    + measured.get("bytes_written", 0.0))
                if op.duration > 0:
                    session.record_counter(
                        "gflops.achieved",
                        measured.get("flops", 0.0) / op.duration / 1e9,
                        ts=op.end, pid=pid)
        elif op.kind == "h2d":
            m.counter("h2d.bytes").inc(op.bytes_moved)
        elif op.kind == "d2h":
            m.counter("d2h.bytes").inc(op.bytes_moved)
    session.devices[pid] = device
    return pid


def collect_comm(session: TraceSession, comm,
                 *, track: str = "comm") -> int:
    """Ingest ``comm.message_log`` (populated while a session is active)
    as flow records between rank tracks, and fold the communicator's
    authoritative :class:`~repro.dist.mpi_sim.TrafficStats` totals into
    the metrics registry."""
    n = 0
    for rec in comm.message_log:
        ts_src = session.rebase(rec.t_post)
        ts_dst = (session.rebase(rec.t_collect)
                  if rec.t_collect is not None else ts_src)
        session.flows.append(FlowRecord(
            name=f"msg:{rec.tag}",
            flow_id=rec.seq,
            src_pid=f"rank{rec.src}", src_tid=track, ts_src=ts_src,
            dst_pid=f"rank{rec.dst}", dst_tid=track, ts_dst=ts_dst,
            args={"bytes": rec.nbytes, "src": rec.src, "dst": rec.dst},
        ))
        n += 1
    m = session.metrics
    m.counter("halo.messages").inc(comm.stats.messages)
    m.counter("halo.bytes").inc(comm.stats.bytes_total)
    session.notes["traffic_by_pair"] = comm.stats.per_pair_report()
    return n
