"""The benchmark's own tests, at small sizes:

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench
from repro.api import Experiment, RunSpec
from spans import LayerTracer

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

SMALL = {
    "mw-large": bench.WORKLOADS["mw-large"].resized(
        16, 16, 8, rounds=2, check_steps=2, trace_work=2),
    "bubble-2x2": bench.WORKLOADS["bubble-2x2"].resized(
        16, 16, 8, rounds=2, check_steps=3, trace_work=3),
    "ensemble-vortex": bench.WORKLOADS["ensemble-vortex"].resized(
        16, 16, 8, setups=2, check_steps=2, trace_work=1, members=3),
}


def traced_small(name: str, seed: int, digests=None):
    w = SMALL[name]
    with LayerTracer(name) as tracer:
        out = bench.run(w, seed, work=w.trace_work, tracer=tracer,
                        digests=digests)
    return out, bench.layer_metrics(w, out, tracer, triad=1.0), tracer


@pytest.fixture(scope="module")
def traced_runs():
    return {(name, seed): traced_small(name, seed)
            for name in SMALL for seed in (1, 2)}


def test_benchmark_json_names_and_units():
    pattern = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    entries = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    names = [e["name"] for e in entries]
    assert len(names) == len(set(names))
    for e in entries:
        assert pattern.fullmatch(e["name"]), e["name"]
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", e["unit"]), e
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(
        bench.WORKLOADS)


def test_emitted_metrics_match_benchmark_json(traced_runs):
    units = {e["name"]: e["unit"]
             for e in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    per_layer = {e["name"] for e in BENCHMARK["per_layer"]}
    end_to_end = {e["name"] for e in BENCHMARK["end_to_end"]}
    for (name, _), (out, layers, _) in traced_runs.items():
        e2e, _ = out.end_to_end(SMALL[name])
        assert set(e2e) == end_to_end
        # run.py adds the overhead, which needs the untraced run too
        assert set(layers) | {"trace.overhead_frac"} == per_layer
        for metric, (value, unit) in {**e2e, **layers}.items():
            assert unit == units[metric], metric
            assert value == value and value >= 0, metric


def test_seeds_change_digests_not_call_counts(traced_runs):
    for name in SMALL:
        out1, layers1, tr1 = traced_runs[(name, 1)]
        out2, layers2, tr2 = traced_runs[(name, 2)]
        assert not out1.errors and not out2.errors
        assert out1.digests[0] != out2.digests[0], name
        assert tr1.calls == tr2.calls, name
        assert ({k: v for k, v in layers1.items() if k.endswith(".calls")}
                == {k: v for k, v in layers2.items()
                    if k.endswith(".calls")})


def test_layer_applicability(traced_runs):
    for seed in (1, 2):
        mw = traced_runs[("mw-large", seed)][1]
        bubble = traced_runs[("bubble-2x2", seed)][1]
        ens = traced_runs[("ensemble-vortex", seed)][1]
        dist = [k for k in mw if k.startswith("dist.")]
        assert all(mw[k][0] == 0 and ens[k][0] == 0 for k in dist)
        assert all(bubble[k][0] > 0 for k in dist if "retries" not in k)
        assert bubble["stencil.accelerated_frac"][0] == 0
        assert mw["stencil.accelerated_frac"][0] > 0
        assert ens["stencil.accelerated_frac"][0] > 0
        assert ens["api.prepare.calls"][0] == SMALL["ensemble-vortex"].members
        assert ens["ensemble.coverage"][0] == 1.0
        assert bubble["gpu.counters.sampled_steps"][0] > 0


def test_spans_nest_and_carry_requests(traced_runs):
    _, _, tracer = traced_runs[("ensemble-vortex", 1)]
    spans = tracer.session.spans
    ids = {s.args["id"] for s in spans}
    assert len(ids) == len(spans)
    assert all(s.args["parent"] is None or s.args["parent"] in ids
               for s in spans)
    members = {s.args["request"] for s in spans
               if s.name == "gpu.runtime.step"}
    assert members == set(range(SMALL["ensemble-vortex"].members))
    for name in tracer.calls:
        assert 0 <= tracer.self_s[name] <= tracer.busy[name] + 1e-9


def test_injected_digest_mismatch_fails_the_run(traced_runs):
    for name in ("mw-large", "ensemble-vortex"):
        w = SMALL[name]
        wrong = {w.name: {w.check_key: {"1": "0" * 64}}}
        out = bench.run(w, 1, work=w.trace_work, digests=wrong)
        assert out.attempted > 0
        assert out.failed == out.attempted
        assert any("digest" in e for e in out.errors)
        right = {w.name: {w.check_key: {
            "1": traced_runs[(name, 1)][0].digests[0]}}}
        assert bench.run(w, 1, work=w.trace_work, digests=right).failed == 0


@pytest.mark.parametrize("workload, steps, specs", [
    ("warm-bubble", 3, [
        dict(backend="cpu", stencil_backend="reference"),
        dict(backend="cpu", stencil_backend="fused"),
        dict(backend="multigpu", ranks=(2, 2),
             stencil_backend="reference", counters=True, counter_every=2),
    ]),
    ("vortex", 3, [
        dict(backend="gpu", stencil_backend="fused"),
        dict(backend="cpu", stencil_backend="reference"),
    ]),
    ("mountain-wave", 2, [
        dict(backend="cpu", stencil_backend="fused"),
        dict(backend="multigpu", ranks=(2, 2), stencil_backend="reference"),
    ]),
])
def test_digest_is_backend_and_decomposition_invariant(workload, steps,
                                                       specs):
    digests = set()
    for kw in specs:
        ex = Experiment(RunSpec(workload=workload, nx=16, ny=16, nz=8,
                                steps=0, seed=5, **kw)).prepare()
        ex.advance(steps)
        digests.add(bench.state_digest(ex.gather()))
    assert len(digests) == 1


def test_tail_has_ten_samples_beyond():
    values = list(range(1, 24))
    value, pct = bench.tail(values)
    assert sum(v > value for v in values) == 10
    assert pct == 56


def test_run_without_model_source_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mw-large",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
