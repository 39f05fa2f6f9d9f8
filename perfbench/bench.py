"""One benchmark workload against the real NumPy model, in one process.

``perfbench/run.py`` starts this file in a fresh process per workload,
with ``PYTHONPATH`` pointing at the checkout's ``src`` and BLAS/OpenMP
pools pinned to one thread; it writes its measurements as JSON to
``--out``.  Untraced, it runs for ``--seconds`` and reports the
end-to-end metrics.  With ``--trace`` it runs a fixed amount of work
(so call counts are exact) under :class:`spans.LayerTracer` and reports
the per-layer metrics.

Every run checks its output: a sha256 digest of the interior prognostic
fields at a fixed length (the ensemble: of the product's mean and
spread) must equal the digest recorded in ``digests.json`` for that
workload, size, length and seed.  Seeds without a recorded digest fall
back to finite fields and full coverage.  ``--record-digests`` rewrites
the table.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.api import Experiment, RunSpec
from repro.ensemble import EnsembleRunner, EnsembleSpec
from repro.gpu.runtime import GpuAsucaRunner

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"

#: rounds of the traced fixed plan of a single-run workload
TRACE_ROUNDS = 2
#: virtual GPUs of the ensemble's serve fleet
FLEET_GPUS = 4


@dataclass(frozen=True)
class Workload:
    name: str
    #: RunSpec fields (the ensemble: of its base spec); backend and
    #: stencil_backend are always explicit, so $REPRO_STENCIL_BACKEND
    #: cannot change a workload
    spec: dict
    #: single: the length the digest is taken at; ensemble: member steps
    check_steps: int
    #: traced fixed plan: warm steps per round (single) or ensembles
    trace_work: int
    #: single: rounds per run; each takes its set-ups, then warm steps
    rounds: int = 1
    #: timed set-ups per round.  Single: a prepare and a cold first step
    #: each, the last experiment goes on; ensemble (a round is one
    #: ensemble): expand + runner construction, the last runner runs
    setups: int = 1
    members: int = 0

    @property
    def ensemble(self) -> bool:
        return self.members > 0

    @property
    def cells(self) -> int:
        return self.spec["nx"] * self.spec["ny"] * self.spec["nz"]

    @property
    def check_key(self) -> str:
        """What a recorded digest is valid for: size and length."""
        s = self.spec
        key = f"{s['nx']}x{s['ny']}x{s['nz']}/len{self.check_steps}"
        return key + (f"/m{self.members}" if self.ensemble else "")

    def run_spec(self, seed: int | None) -> RunSpec:
        return RunSpec(seed=seed, **self.spec)

    def resized(self, nx: int, ny: int, nz: int, **kw) -> "Workload":
        return replace(self, spec={**self.spec, "nx": nx, "ny": ny,
                                   "nz": nz}, **kw)


WORKLOADS = {
    w.name: w for w in (
        Workload("mw-large",
                 dict(workload="mountain-wave", nx=64, ny=64, nz=32,
                      steps=0, backend="cpu", stencil_backend="fused"),
                 rounds=5, check_steps=4, trace_work=4),
        Workload("bubble-2x2",
                 dict(workload="warm-bubble", nx=32, ny=32, nz=16,
                      steps=0, backend="multigpu", ranks=(2, 2),
                      stencil_backend="reference", counters=True,
                      counter_every=4),
                 rounds=7, setups=3, check_steps=12, trace_work=20),
        Workload("ensemble-vortex",
                 dict(workload="vortex", nx=32, ny=32, nz=12, steps=3,
                      backend="gpu", stencil_backend="fused"),
                 setups=15, check_steps=3, trace_work=1, members=24),
    )
}


# ------------------------------------------------------------- checks
def _interior(state, name: str) -> np.ndarray:
    g = state.grid
    sl = {"rhou": g.isl_u, "rhov": g.isl_v}.get(name, g.isl)
    return state.get(name)[sl]


def state_digest(state) -> str:
    """sha256 of the interior prognostic fields, in name order."""
    h = hashlib.sha256()
    for name in state.prognostic_names():
        h.update(name.encode())
        h.update(np.ascontiguousarray(_interior(state, name)).tobytes())
    return h.hexdigest()


def state_finite(state) -> bool:
    return all(np.isfinite(_interior(state, n)).all()
               for n in state.prognostic_names())


def product_digest(product) -> str:
    """sha256 of the ensemble product's mean and spread fields."""
    h = hashlib.sha256()
    for name in sorted(product.field_stats):
        for stat in ("mean", "spread"):
            h.update(f"{name}.{stat}".encode())
            h.update(np.ascontiguousarray(
                product.field_stats[name][stat]).tobytes())
    return h.hexdigest()


def product_finite(product) -> bool:
    return all(np.isfinite(st[k]).all()
               for st in product.field_stats.values()
               for k in ("mean", "spread"))


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


def expected_digest(digests: dict, w: Workload, seed: int) -> str | None:
    return digests.get(w.name, {}).get(w.check_key, {}).get(str(seed))


# -------------------------------------------------------------- stats
def tail(values: list[float]) -> tuple[float, int]:
    """The highest percentile with at least ten samples beyond it:
    (value, percentile)."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100
    return xs[n - 11], math.floor(100 * (n - 10) / n)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Calibration:
    """A fixed piece of NumPy work, independent of the model code, timed
    between the model's steps to track the machine's speed.

    On a shared machine the same code drifts by 10-30% in speed over
    seconds to minutes, so raw seconds from runs minutes apart disagree
    by more than any useful bound.  Each sample mixes the two kinds of
    work a step does: small stencil-shaped slices (interpreter and ufunc
    dispatch overhead) and 1 MiB streaming ufuncs.  The ratio of step
    time to sample time held about 3x steadier across runs than the step
    time alone.
    """

    #: median sample seconds that define speed factor 1.0
    REFERENCE_S = 0.006

    def __init__(self):
        rng = np.random.default_rng(0)
        self._big = rng.random((3, 131072))
        self._small = rng.random((2, 20, 20, 16))
        self.samples: list[float] = []

    def sample(self) -> None:
        a, b, o = self._big
        sa, sb = self._small
        t0 = time.perf_counter()
        for _ in range(10):
            np.multiply(a, 3.0, out=o)
            np.add(o, b, out=o)
            np.sqrt(o, out=o)
        for _ in range(100):
            c = sa[1:-1, 2:-2] * 0.5 + sb[2:, 2:-2]
            np.maximum(np.where(c > 0.5, c, sa[1:-1, 2:-2]), 0.1).sum()
        self.samples.append(time.perf_counter() - t0)

    @property
    def speed_factor(self) -> float:
        """Reference over measured sample time: above 1 when the machine
        ran slow.  Raw times times this factor are times at reference
        speed."""
        return self.REFERENCE_S / _median(self.samples) if self.samples \
            else 1.0


@dataclass
class Outcome:
    """What one run measured and whether its output was right."""

    attempted: int = 0
    errors: list = field(default_factory=list)
    setups: list = field(default_factory=list)
    first_steps: list = field(default_factory=list)
    warm_steps: list = field(default_factory=list)
    #: ensemble: (members reduced, wall seconds) per EnsembleRunner.run()
    ensemble_runs: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    expected: str | None = None
    #: objects the per-layer metrics read after the run
    experiment: object = None
    coverage: float = 0.0
    cal: Calibration = field(default_factory=Calibration)

    def fail(self, why: str) -> None:
        self.errors.append(why)

    @property
    def failed(self) -> int:
        """Any failure fails every operation the run attempted (at least
        the one that raised)."""
        return max(self.attempted, 1) if self.errors else 0

    def end_to_end(self, w: Workload) -> tuple[dict, dict]:
        """End-to-end metrics {name: (value, unit)} at reference machine
        speed, plus the raw values and sample counts behind them.  A
        failed run reports 0 where a metric has no samples."""
        warm_ms = [t * 1e3 for t in self.warm_steps]
        tail_ms, pct = tail(warm_ms) if warm_ms else (0.0, 0)
        if w.ensemble:
            cells = w.cells * w.check_steps
            rates = [n * cells / wall for n, wall in self.ensemble_runs]
        else:
            rates = ([w.cells * len(warm_ms) / sum(self.warm_steps)]
                     if warm_ms else [])
        members = [n / wall for n, wall in self.ensemble_runs]
        raw = {
            "setup_s": (_median(self.setups), "s"),
            "first_step_s": (_median(self.first_steps), "s"),
            "step_ms_p50": (_median(warm_ms), "ms"),
            "step_ms_tail": (tail_ms, "ms"),
            "mcells_per_s": (_median(rates) / 1e6, "Mcell/s"),
        }
        f = self.cal.speed_factor
        metrics = {k: (v / f if k == "mcells_per_s" else v * f, u)
                   for k, (v, u) in raw.items()}
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        return metrics, {
            "raw": {k: v for k, (v, _) in raw.items()},
            "speed_factor": f, "calibration_samples": len(self.cal.samples),
            "tail_pct": pct, "warm_steps": len(warm_ms),
            "setups": len(self.setups),
            "first_steps": len(self.first_steps),
            "ensemble_runs": len(self.ensemble_runs),
            "members_per_s": _median(members) / f}


def _median(xs: list) -> float:
    return statistics.median(xs) if xs else 0.0


# ---------------------------------------------------------- workloads
def _more(done: int, todo: int | None, deadline: float | None,
          samples: list) -> bool:
    """Fixed (traced) runs stop after ``todo`` units; timed runs stop
    before the next unit, estimated by the median so far, would end past
    ``deadline``."""
    if todo is not None:
        return done < todo
    return time.perf_counter() + statistics.median(samples) <= deadline


def run_single(w: Workload, seed: int, *, seconds: float | None = None,
               warm: int | None = None, tracer=None,
               digests: dict | None = None) -> Outcome:
    """``w.rounds`` rounds, each an equal share of ``seconds``: ``w.setups``
    timed prepares, each followed by a timed cold first step, then warm
    long steps on the last experiment until the share is used (or
    exactly ``warm`` of them).
    Every round reaches the check length.  Spreading the set-ups and first
    steps over the run averages them over the machine's speed swings,
    which last seconds to minutes, instead of sampling one moment."""
    out = Outcome(expected=expected_digest(
        load_digests() if digests is None else digests, w, seed))
    spec = w.run_spec(seed)

    def step(ex) -> float:
        out.cal.sample()
        if tracer is not None:
            tracer.request = ex.steps_done
        out.attempted += 1
        t0 = time.perf_counter()
        ex.advance(1)
        return time.perf_counter() - t0

    t_begin = time.perf_counter()
    try:
        for r in range(w.rounds):
            for _ in range(w.setups):
                # free the previous experiment now, so that collecting its
                # garbage lands in no timed set-up or step
                ex = None
                gc.collect()
                if tracer is not None:
                    tracer.request = "setup"
                t0 = time.perf_counter()
                ex = Experiment(spec).prepare()
                out.setups.append(time.perf_counter() - t0)
                out.first_steps.append(step(ex))
            deadline = (None if seconds is None
                        else t_begin + seconds * (r + 1) / w.rounds)
            n = 0
            while (ex.steps_done < w.check_steps
                   or _more(n, warm, deadline, out.warm_steps)):
                out.warm_steps.append(step(ex))
                n += 1
                if ex.steps_done == w.check_steps:
                    out.digests.append(state_digest(ex.gather()))
            if not state_finite(ex.gather()):
                out.fail("non-finite final fields")
        out.experiment = ex
    except Exception as exc:  # a model failure fails the run, not the benchmark
        out.fail(f"{type(exc).__name__}: {exc}")
    _check_digests(out)
    return out


@contextmanager
def timed_runner_steps(store: list, cal: Calibration):
    """Record (steps taken before, wall seconds) of every GPU-runner
    long step, after a calibration sample: the ensemble's members step
    inside the service, so this is where the two can interleave."""
    orig = GpuAsucaRunner.__dict__["step"]

    def step(self, state):
        cal.sample()
        before = self.steps_taken
        t0 = time.perf_counter()
        new = orig(self, state)
        store.append((before, time.perf_counter() - t0))
        return new

    GpuAsucaRunner.step = step
    try:
        yield
    finally:
        GpuAsucaRunner.step = orig


def _ensemble(w: Workload, seed: int) -> EnsembleRunner:
    spec = EnsembleSpec(base=w.run_spec(None), members=w.members, seed=seed)
    spec.expand()
    return EnsembleRunner(spec, fleet=FLEET_GPUS)


def run_ensemble(w: Workload, seed: int, *, seconds: float | None = None,
                 runs: int | None = None, tracer=None,
                 digests: dict | None = None) -> Outcome:
    """Whole ensembles until ``seconds`` are used (or exactly ``runs`` of
    them), each after ``w.setups`` timed set-ups (expand + runner
    construction) of which the last runner runs."""
    out = Outcome(expected=expected_digest(
        load_digests() if digests is None else digests, w, seed))
    steps: list = []
    deadline = None if seconds is None else time.perf_counter() + seconds
    try:
        with timed_runner_steps(steps, out.cal):
            while (not out.ensemble_runs
                   or _more(len(out.ensemble_runs), runs, deadline,
                            [wall for _, wall in out.ensemble_runs])):
                for _ in range(w.setups):
                    runner = None
                    gc.collect()
                    t0 = time.perf_counter()
                    runner = _ensemble(w, seed)
                    out.setups.append(time.perf_counter() - t0)
                if tracer is not None:
                    tracer.member_of = {
                        s.normalized().spec_hash(): m
                        for m, s in enumerate(runner.ensemble.expand())}
                out.attempted += w.members
                cal_before = sum(out.cal.samples)
                t0 = time.perf_counter()
                result = runner.run()
                # the calibration samples taken inside are not ensemble work
                wall = (time.perf_counter() - t0
                        - (sum(out.cal.samples) - cal_before))
                product = result.product
                out.ensemble_runs.append((product.members_reduced, wall))
                out.coverage = product.coverage
                if product.coverage < 1.0:
                    out.fail(f"coverage {product.coverage:.3f}: "
                             f"{product.skipped}")
                out.digests.append(product_digest(product))
                if not product_finite(product):
                    out.fail("non-finite ensemble product")
    except Exception as exc:  # a model failure fails the run, not the benchmark
        out.fail(f"{type(exc).__name__}: {exc}")
    out.first_steps = [t for before, t in steps if before == 0]
    out.warm_steps = [t for before, t in steps if before > 0]
    _check_digests(out)
    return out


def _check_digests(out: Outcome) -> None:
    if not out.digests:
        if not out.errors:
            out.fail("the run never reached its check length")
        return
    if out.expected is not None and any(d != out.expected
                                        for d in out.digests):
        out.fail(f"digest {out.digests[0][:16]} != recorded "
                 f"{out.expected[:16]}")


def run(w: Workload, seed: int, *, seconds: float | None = None,
        work: int | None = None, tracer=None,
        digests: dict | None = None) -> Outcome:
    if w.ensemble:
        return run_ensemble(w, seed, seconds=seconds, runs=work,
                            tracer=tracer, digests=digests)
    return run_single(w, seed, seconds=seconds, warm=work, tracer=tracer,
                      digests=digests)


# ---------------------------------------------------------- per-layer
#: the declared kernels the three workloads dispatch (stencil.<kernel>.*);
#: the diffusion, surface and cooling kernels never run on them.  The
#: counters sample through the reference path, which is why bubble-2x2
#: also dispatches limited_face_flux and cold_rain_step.
STENCIL_KERNELS = (
    "advect_scalar", "advect_u", "advect_v", "advect_w", "cold_rain_step",
    "eos_pressure", "fill_halos_state", "helmholtz_solve", "kessler_step",
    "limited_face_flux",
)

#: span metrics reported with calls/busy_s/self_s
SPAN_METRICS = (
    "api.prepare", "api.gather", "core.rk3.slow_tendencies",
    "core.acoustic.build_context", "core.acoustic.substep",
    "core.acoustic.finish", "dist.halo.exchange", "gpu.kernel.launch",
    "gpu.device.schedule", "gpu.counters.begin_step",
    "serve.scheduler.select", "ensemble.reduce.fold",
)
#: spans reported by self time only
SELF_METRICS = ("dist.multigpu.step", "gpu.runtime.step",
                "serve.service.run")


def triad_gbs(n: int, seconds: float = 0.5) -> float:
    """NumPy triad ``a = b + s*c`` over three float64 arrays of ``n``
    elements: median GB/s of the bytes its two passes stream (read c,
    write a; read a and b, write a: 40 bytes per element)."""
    rng = np.random.default_rng(0)
    a = np.empty(n)
    b = rng.random(n)
    c = rng.random(n)
    rates = []
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end or len(rates) < 5:
        t0 = time.perf_counter()
        np.multiply(c, 3.0, out=a)
        np.add(a, b, out=a)
        rates.append(40 * n / (time.perf_counter() - t0) / 1e9)
    return statistics.median(rates)


def llc_bytes() -> int | None:
    """Size of the last-level cache, from the kernel's cpu0 cache info."""
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    best = None
    for index in sorted(caches.glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024 ** 2}.get(size[-1:], 1)
        if best is None or level > best[0]:
            best = (level, int(size.rstrip("KM")) * scale)
    return None if best is None else best[1]


def layer_metrics(w: Workload, out: Outcome, tracer,
                  triad: float) -> dict:
    """Per-layer metrics {name: (value, unit)} of one traced run; a
    layer the workload does not pass through reads 0."""
    m: dict = {}
    for name in SPAN_METRICS:
        st = tracer.span_stats(name)
        m[f"{name}.calls"] = (st["calls"], "count")
        m[f"{name}.busy_s"] = (st["busy_s"], "s")
        m[f"{name}.self_s"] = (st["self_s"], "s")
    for name in SELF_METRICS:
        m[f"{name}.self_s"] = (tracer.span_stats(name)["self_s"], "s")
    for kernel in STENCIL_KERNELS:
        st = tracer.span_stats(f"stencil.{kernel}")
        busy = st["busy_s"]
        gbs = (tracer.kernel_bytes[f"stencil.{kernel}"] / busy / 1e9
               if busy else 0.0)
        m[f"stencil.{kernel}.calls"] = (st["calls"], "count")
        m[f"stencil.{kernel}.busy_s"] = (busy, "s")
        m[f"stencil.{kernel}.gbs_computed"] = (gbs, "GB/s")
    stats = tracer.executor_stats()
    dispatches = sum(s["dispatches"] for s in stats)
    takes = sum(s["reuses"] + s["allocations"] for s in stats)
    m["stencil.accelerated_frac"] = (
        sum(s["accelerated"] for s in stats) / dispatches
        if dispatches else 0.0, "ratio")
    m["stencil.pool_reuse_frac"] = (
        sum(s["reuses"] for s in stats) / takes if takes else 0.0, "ratio")

    ex = out.experiment
    machine = getattr(ex, "machine", None)
    steps = ex.steps_done if ex is not None else 0
    per_step = (lambda x: x / steps) if steps else (lambda x: 0.0)
    m["dist.halo.messages"] = (
        per_step(machine.comm.stats.messages) if machine else 0.0,
        "count/step")
    m["dist.halo.bytes"] = (
        per_step(machine.comm.stats.bytes_total) if machine else 0.0,
        "B/step")
    m["dist.halo.retries"] = (
        per_step(machine.exchanger.stats.retries) if machine else 0.0,
        "count/step")

    if machine is not None and machine.devices:
        modeled_s = max(per_step(d.busy_time("kernel"))
                        for d in machine.devices)
    elif tracer.modeled_step_s:
        modeled_s = statistics.fmean(tracer.modeled_step_s.values())
    else:
        modeled_s = 0.0
    m["gpu.counters.sampled_steps"] = (tracer.sampled_steps, "count")
    m["gpu.modeled_step_ms"] = (modeled_s * 1e3, "ms")
    m["ensemble.coverage"] = (out.coverage, "ratio")
    m["machine.triad_gbs"] = (triad, "GB/s")
    return m


def traced(w: Workload, seed: int,
           trace_path: str | None) -> tuple[Outcome, dict, dict]:
    """The traced fixed-work run; returns the outcome, the per-layer
    metrics and the triad sizing."""
    from spans import LayerTracer

    mw = WORKLOADS["mw-large"]
    state = Experiment(mw.run_spec(seed)).prepare().state
    n = sum(state.get(k).size for k in state.prognostic_names())
    del state
    triad = triad_gbs(n)
    sizing = {"triad_array_mib": n * 8 / 2 ** 20,
              "llc_mib": (llc_bytes() or 0) / 2 ** 20}
    plan = w if w.ensemble else replace(w, rounds=TRACE_ROUNDS)
    with LayerTracer(f"perfbench {w.name}") as tracer:
        out = run(plan, seed, work=w.trace_work, tracer=tracer)
    if trace_path:
        tracer.write_chrome_trace(
            trace_path, getattr(out.experiment, "machine", None))
    return out, layer_metrics(w, out, tracer, triad), sizing


# --------------------------------------------------------------- main
def _record_digests(seeds: range) -> None:
    """Record the digest of every workload for ``seeds`` from the
    current model (run this only when its numerics change on purpose)."""
    table = load_digests()
    for w in WORKLOADS.values():
        rows = table.setdefault(w.name, {}).setdefault(w.check_key, {})
        for seed in seeds:
            if w.ensemble:
                digest = product_digest(_ensemble(w, seed).run().product)
            else:
                ex = Experiment(w.run_spec(seed)).prepare()
                ex.advance(w.check_steps)
                digest = state_digest(ex.gather())
            rows[str(seed)] = digest
            print(f"{w.name} seed {seed}: {digest[:16]}", file=sys.stderr)
        DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True)
                           + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", metavar="CHROME_JSON", default=None,
                    help="run the traced fixed plan and write its spans")
    ap.add_argument("--out", help="where to write the result JSON")
    ap.add_argument("--record-digests", metavar="FIRST:STOP",
                    help="record digests for seeds FIRST..STOP-1 and exit")
    args = ap.parse_args(argv)
    if args.record_digests:
        first, stop = (int(x) for x in args.record_digests.split(":"))
        _record_digests(range(first, stop))
        return 0
    if not args.workload or not args.out:
        ap.error("--workload and --out are required")
    w = WORKLOADS[args.workload]
    if args.trace:
        out, metrics, info = traced(w, args.seed, args.trace)
        info.update(out.end_to_end(w)[1])
    else:
        out = run(w, args.seed, seconds=args.seconds)
        metrics, info = out.end_to_end(w)
    result = {
        "workload": w.name, "seed": args.seed,
        "attempted": max(out.attempted, out.failed), "failed": out.failed,
        "errors": out.errors, "digest": out.digests[:1],
        "expected_digest": out.expected,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
        "info": info,
    }
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
