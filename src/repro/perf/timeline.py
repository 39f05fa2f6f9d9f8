"""Timeline inspection and reporting helpers.

Turns a :class:`~repro.gpu.device.GPUDevice` op log into the breakdowns
the paper's figures show: per-kind busy times (Fig. 11), per-name
aggregates (Fig. 9), stream occupancy, and a text Gantt chart for
eyeballing the overlap structure.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable

from ..gpu.device import GPUDevice, Op

__all__ = ["TimelineSummary", "summarize", "summarize_ops", "gantt_text",
           "busy_by_name", "concurrency_profile"]


@dataclass
class TimelineSummary:
    """Aggregates of one device timeline."""

    makespan: float
    busy_by_kind: dict[str, float]
    busy_by_tag: dict[str, float]
    op_count: int
    #: fraction of the makespan during which >= 2 engines were active
    overlap_fraction: float


def summarize(device: GPUDevice) -> TimelineSummary:
    return summarize_ops(device.timeline, makespan=device.elapsed())


def summarize_ops(ops: Iterable[Op], makespan: float | None = None) -> TimelineSummary:
    """Aggregate any op-shaped sequence (objects with ``kind``, ``tag``,
    ``start``, ``end``, ``duration``) — shared by :func:`summarize` and
    the text exporter of :mod:`repro.obs.exporters`, which feeds it
    :class:`~repro.obs.trace.DeviceOpRecord` lists."""
    ops = list(ops)
    by_kind: dict[str, float] = defaultdict(float)
    by_tag: dict[str, float] = defaultdict(float)
    for op in ops:
        by_kind[op.kind] += op.duration
        if op.tag:
            by_tag[op.tag] += op.duration
    if makespan is None:
        makespan = max((op.end for op in ops), default=0.0)
    overlapped = sum(t for k, t in concurrency_profile(ops).items() if k >= 2)
    return TimelineSummary(
        makespan=makespan,
        busy_by_kind=dict(by_kind),
        busy_by_tag=dict(by_tag),
        op_count=len(ops),
        overlap_fraction=overlapped / makespan if makespan > 0 else 0.0,
    )


def concurrency_profile(ops: Iterable[Op]) -> dict[int, float]:
    """Time spent with exactly ``k`` ops in flight, ``k=0`` being idle
    up to the makespan — the overlap-attribution view the doctor prints
    ("how much of the step had 2+ engines busy").  Accepts any op-shaped
    sequence like :func:`summarize_ops`."""
    events: list[tuple[float, int]] = []
    makespan = 0.0
    for op in ops:
        if op.duration > 0:
            events.append((op.start, +1))
            events.append((op.end, -1))
        if op.end > makespan:
            makespan = op.end
    profile: dict[int, float] = defaultdict(float)
    if not events:
        return {}
    events.sort()
    active = 0
    prev_t = 0.0
    for t, d in events:
        if t > prev_t:
            profile[active] += t - prev_t
        active += d
        prev_t = t
    if makespan > prev_t:
        profile[0] += makespan - prev_t
    return dict(sorted(profile.items()))


def busy_by_name(device: GPUDevice, prefix: str | None = None) -> dict[str, float]:
    """Total time per op name (optionally filtered by name prefix)."""
    out: dict[str, float] = defaultdict(float)
    for op in device.timeline:
        if prefix is None or op.name.startswith(prefix):
            out[op.name] += op.duration
    return dict(out)


def gantt_text(device: GPUDevice, *, width: int = 80, max_ops: int = 60) -> str:
    """ASCII Gantt chart of the first ``max_ops`` ops, one row per op,
    grouped by stream — a poor man's Fig. 8."""
    ops = device.timeline[:max_ops]
    if not ops:
        return "(empty timeline)"
    t1 = max(op.end for op in ops)
    scale = (width - 1) / t1 if t1 > 0 else 0.0
    lines = [f"timeline 0 .. {t1 * 1e3:.2f} ms ({len(ops)} ops shown)"]
    for op in ops:
        a = int(op.start * scale)
        b = max(a + 1, int(op.end * scale))
        bar = " " * a + "#" * (b - a)
        lines.append(f"s{op.stream} {op.kind:6s} |{bar:<{width}}| {op.name}")
    return "\n".join(lines)
