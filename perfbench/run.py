"""Wall-clock benchmark of the NumPy ASUCA model (see perfbench/README.md).

    python3 perfbench/run.py --workload mw-large --seed 1 --seconds 35 --trace 0

Runs one workload in a fresh child process (``bench.py``) with the
checkout's ``src`` on ``PYTHONPATH`` and BLAS/OpenMP pools pinned to one
thread, prints every metric by name with its unit, and prints as its
last line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics of a run of
``--seconds``; ``--trace 1`` adds a second child that runs a fixed plan
under the layer tracer and reports the per-layer metrics, plus
``trace.overhead_frac`` against the untraced run.  Results and the
Chrome trace go to ``.perfbench/`` in the checkout.

Exit status: 0 with a result (a failed output check reads
``correct: false``); 2 without one, when the model source is missing or
a child does not finish.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mw-large", "bubble-2x2", "ensemble-vortex")
#: the whole command must end within this many seconds
DEADLINE_S = 170.0
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _child(args, out: Path, t_end: float, trace: Path | None) -> dict | None:
    """Run bench.py once; its result dict, or None if it failed."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({k: "1" for k in PINNED})
    cmd = [sys.executable, str(HERE / "bench.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out", str(out)]
    if trace is not None:
        cmd += ["--trace", str(trace)]
    out.unlink(missing_ok=True)
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=max(1.0, t_end - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: child ran past the deadline", file=sys.stderr)
        return None
    if code != 0 or not out.exists():
        print(f"perfbench: child exited with {code}", file=sys.stderr)
        return None
    return json.loads(out.read_text())


def _show(name: str, metric: dict, note: str = "") -> None:
    print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']:<10}"
          f"{note}")


def _report_untraced(res: dict) -> None:
    m, info = res["metrics"], res["info"]
    print(f"{res['workload']} seed {res['seed']} — end to end "
          f"(untraced, one thread); times at reference machine speed: "
          f"raw x speed factor {info['speed_factor']:.4f} from "
          f"{info['calibration_samples']} calibration samples")
    notes = {
        "setup_s": f"median of {info['setups']} set-ups",
        "first_step_s": f"median of {info['first_steps']} cold first steps",
        "step_ms_p50": f"median of {info['warm_steps']} warm steps",
        "step_ms_tail": (f"p{info['tail_pct']} of {info['warm_steps']} "
                         f"warm steps"),
    }
    for name, metric in m.items():
        raw = info["raw"].get(name)
        note = notes.get(name, "")
        if raw is not None:
            note = f"raw {raw:.6g}; {note}" if note else f"raw {raw:.6g}"
        _show(name, metric, note)
    if info.get("ensemble_runs"):
        print(f"  {'members_per_s':<44} {info['members_per_s']:>14.6g} "
              f"{'1/s':<10}median of {info['ensemble_runs']} ensembles")
    _show("fail_frac", {"value": (res["failed"] / res["attempted"]
                                  if res["attempted"] else 1.0),
                        "unit": "ratio"},
          f"{res['failed']} of {res['attempted']} operations")


def _report_traced(res: dict, metrics: dict) -> None:
    info = res["info"]
    triad = metrics["machine.triad_gbs"]["value"]
    print(f"{res['workload']} seed {res['seed']} — per layer "
          f"(traced fixed plan)")
    print(f"  triad: 3 arrays of {info['triad_array_mib']:.1f} MiB (the "
          f"mw-large prognostic state) vs LLC {info['llc_mib']:.0f} MiB: "
          f"cache-resident, a machine-drift monitor, not DRAM bandwidth")
    for name, metric in metrics.items():
        note = ""
        if name.endswith(".gbs_computed") and triad:
            note = (f"computed from declared bytes (cache misses ignored),"
                    f" {metric['value'] / triad:.2f} x triad")
        _show(name, metric, note)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t_end = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no model source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    outdir = ROOT / ".perfbench"
    outdir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"

    untraced = _child(args, outdir / f"{stem}.json", t_end, None)
    if untraced is None:
        return 2
    runs = [untraced]
    _report_untraced(untraced)
    metrics = untraced["metrics"]
    if args.trace:
        trace = outdir / f"{stem}-trace.json"
        res = _child(args, outdir / f"{stem}-traced.json", t_end, trace)
        if res is None:
            return 2
        runs.append(res)
        metrics = res["metrics"]
        # raw times: the two processes run back to back, and the traced
        # plan is too short for a steady speed factor
        p50 = untraced["info"]["raw"]["step_ms_p50"]
        metrics["trace.overhead_frac"] = {
            "value": (res["info"]["raw"]["step_ms_p50"] / p50 - 1.0
                      if p50 else 0.0),
            "unit": "ratio"}
        _report_traced(res, metrics)
        print(f"  chrome trace: {trace}")
    for res in runs:
        for err in res["errors"]:
            print(f"FAILED {res['workload']}: {err}")
    failed = sum(r["failed"] for r in runs)
    print(json.dumps({
        "correct": not any(r["errors"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
