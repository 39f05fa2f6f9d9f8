"""In-memory layer spans for the traced benchmark run.

The benchmark measures the model from outside: :class:`LayerTracer`
replaces each layer's public entry point with a timing wrapper for the
duration of a traced run and puts the originals back afterwards.
Methods are wrapped on their class; module functions are wrapped in the
module that looks them up at call time (``repro.core.rk3`` calls
``slow_tendencies`` and ``build_context`` through its own globals).

Every span carries its own id, its parent's id and a request id (the
long-step index on single runs, the member index on the ensemble).  The
spans go into a :class:`repro.obs.trace.TraceSession` that is never
activated, so the program's own phase spans stay off and its code paths
are the untraced ones.  Self time is a span's duration minus the time
covered by its directly nested measured spans.
"""
from __future__ import annotations

import time
from collections import Counter, defaultdict

import numpy as np

from repro.api import Experiment
from repro.core import rk3
from repro.core.acoustic import AcousticStepper
from repro.core.grid import Grid
from repro.dist.halo import HaloExchanger
from repro.dist.multigpu import MultiGpuAsuca
from repro.ensemble.reduce import OnlineReducer
from repro.gpu.counters import CountingHook
from repro.gpu.device import GPUDevice
from repro.gpu.kernel import Kernel
from repro.gpu.runtime import GpuAsucaRunner
from repro.obs.exporters import write_chrome_trace
from repro.obs.trace import TraceSession
from repro.serve.scheduler import GangScheduler
from repro.serve.service import ForecastService
from repro.stencil import StencilExecutor

#: span name -> (owner, attribute) of every wrapped layer entry point
LAYER_ENTRIES = {
    "api.prepare": (Experiment, "prepare"),
    "api.gather": (Experiment, "gather"),
    "core.rk3.slow_tendencies": (rk3, "slow_tendencies"),
    "core.acoustic.build_context": (rk3, "build_context"),
    "core.acoustic.substep": (AcousticStepper, "substep"),
    "core.acoustic.finish": (AcousticStepper, "finish"),
    "dist.halo.exchange": (HaloExchanger, "exchange"),
    "dist.multigpu.step": (MultiGpuAsuca, "step"),
    "gpu.kernel.launch": (Kernel, "launch"),
    "gpu.device.schedule": (GPUDevice, "schedule"),
    "gpu.counters.begin_step": (CountingHook, "begin_step"),
    "gpu.runtime.step": (GpuAsucaRunner, "step"),
    "serve.service.run": (ForecastService, "run"),
    "serve.scheduler.select": (GangScheduler, "select"),
    "ensemble.reduce.fold": (OnlineReducer, "fold"),
}


def _points_and_itemsize(args: tuple) -> tuple[int, int]:
    """Interior points and element size of one kernel call: the grid is
    an argument or the ``.grid`` of one (State, HelmholtzOperator);
    kernels without one (the per-axis face flux) count their first
    array argument."""
    points = itemsize = 0
    for a in args:
        grid = a if isinstance(a, Grid) else getattr(a, "grid", None)
        if not points and isinstance(grid, Grid):
            points = grid.n_interior_cells
        arr = a if isinstance(a, np.ndarray) else getattr(a, "rho", None)
        if not itemsize and isinstance(arr, np.ndarray):
            itemsize = arr.itemsize
            if not points and arr is a:
                points = a.size
    return points, itemsize or 8


class LayerTracer:
    """Wraps the layer entry points while active; accumulates per-span
    call counts, busy and self time, and computed kernel bytes."""

    def __init__(self, name: str):
        self.session = TraceSession(name=name)
        #: request id stamped on every span (step or member index)
        self.request: object = None
        #: ensemble member spec hash -> member index; a member's prepare
        #: switches the request id to that member
        self.member_of: dict[str, int] = {}
        self.calls: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        #: stencil span name -> declared bytes moved over all its calls
        self.kernel_bytes: defaultdict = defaultdict(float)
        #: CountingHook.begin_step calls that measured their step
        self.sampled_steps = 0
        #: executor stats of finished experiments, and the executor of the
        #: experiment still running (ensemble: one experiment per member)
        self._executor_stats: list[dict] = []
        self._executor: StencilExecutor | None = None
        #: request id -> modeled step time of that request's GPU runner
        self.modeled_step_s: dict[object, float] = {}
        self._stack: list[list] = []
        self._next_id = 1
        self._saved: list[tuple[object, str, object]] = []

    # ----------------------------------------------------------- spans
    def _timed(self, name_of, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            name = name_of(args)
            if name == "api.prepare" and tracer.member_of:
                tracer.request = tracer.member_of.get(
                    args[0].spec.spec_hash(), tracer.request)
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else None
            frame = [sid, 0.0]
            tracer._stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][1] += dur
                tracer.calls[name] += 1
                tracer.busy[name] += dur
                tracer.self_s[name] += dur - frame[1]
                tracer.session.record_span(
                    name, tracer.session.rebase(t0), dur, pid="bench",
                    cat=name.split(".", 1)[0],
                    args={"id": sid, "parent": parent,
                          "request": tracer.request})
            if after is not None:
                after(name, args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def __enter__(self) -> "LayerTracer":
        for name, (owner, attr) in LAYER_ENTRIES.items():
            self._patch(owner, attr, self._timed(
                lambda args, name=name: name, getattr(owner, attr),
                after=self._after))
        self._patch(StencilExecutor, "call", self._timed(
            lambda args: f"stencil.{args[1].spec.name}",
            StencilExecutor.call, after=self._after_stencil))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # ------------------------------------------------- per-call extras
    def _after(self, name: str, args: tuple, out) -> None:
        if name == "gpu.counters.begin_step" and out:
            self.sampled_steps += 1
        elif name == "gpu.runtime.step":
            self.modeled_step_s[self.request] = args[0].modeled_step_time()
        elif name == "api.prepare" and out.executor is not None:
            # the previous experiment has finished: keep its stats, not
            # its buffer pool
            self._executor_stats += self.executor_stats()
            self._executor = out.executor

    def _after_stencil(self, name: str, args: tuple, out) -> None:
        spec, call_args = args[1].spec, args[2]
        points, itemsize = _points_and_itemsize(call_args)
        self.kernel_bytes[name] += ((spec.reads_per_point
                                     + spec.writes_per_point)
                                    * itemsize * points)

    # --------------------------------------------------------- output
    def executor_stats(self) -> list[dict]:
        """``StencilExecutor.stats()`` of every prepared experiment."""
        running = [] if self._executor is None else [self._executor.stats()]
        return self._executor_stats + running

    def span_stats(self, name: str) -> dict[str, float]:
        return {"calls": self.calls[name], "busy_s": self.busy[name],
                "self_s": self.self_s[name]}

    def write_chrome_trace(self, path: str, machine=None) -> str:
        """Write the spans; a decomposed run's modeled per-rank device
        timelines go on their own tracks beside them."""
        for r, device in enumerate(getattr(machine, "devices", None) or []):
            self.session.collect_device(device, rank=r)
        return write_chrome_trace(self.session, path)
